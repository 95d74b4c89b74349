"""Error types shared across the toolkit, with stable CLI exit codes."""


class PrivlogError(Exception):
    """Base class for all toolkit errors."""


class InvalidLength(PrivlogError):
    """A key, nonce, or derived output has the wrong byte length."""


class EmptyInput(PrivlogError):
    """An operation that requires non-empty input received none."""


class AuthFailure(PrivlogError):
    """AEAD authentication failed: wrong key, wrong AAD, or tampering."""


class MalformedBox(PrivlogError):
    """A sealed value is too short to hold a nonce and an authentication tag."""


class WeakKey(PrivlogError):
    """Key agreement produced an all-zero shared secret (low-order point)."""


class InvalidSpans(PrivlogError):
    """Replacement spans overlap or do not line up with their fields."""


class OutOfOrderDate(PrivlogError):
    """A date earlier than the current chain position was requested."""


class InvalidWindow(PrivlogError):
    """A grant window violates the epoch/current-date bounds."""


class ContextMismatch(PrivlogError):
    """Grant context fields do not match the expected identity/attestation."""


class CorruptState(PrivlogError):
    """A persisted file is missing fields or fails to decode."""


class UnsupportedVersion(CorruptState):
    """A persisted file declares a version this build does not understand."""


# Stable mapping for scripting against the CLIs. Anything else exits 1.
EXIT_CODES = {
    InvalidWindow: 2,
    OutOfOrderDate: 3,
    AuthFailure: 4,
    ContextMismatch: 5,
    CorruptState: 6,
    MalformedBox: 6,
}


def exit_code_for(exc: BaseException) -> int:
    for cls in type(exc).__mro__:
        if cls in EXIT_CODES:
            return EXIT_CODES[cls]
    return 1
