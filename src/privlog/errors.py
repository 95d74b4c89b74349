"""Error types shared across the toolkit. Each class carries the exit code the
CLIs end with when it reaches them, stable for scripting: one class per code.
The message names the cause."""


class PrivlogError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class AuthFailure(PrivlogError):
    """AEAD authentication failed: wrong key, wrong AAD, or tampering."""

    exit_code = 4


class OutOfOrderDate(PrivlogError):
    """A date earlier than the current chain position was requested."""

    exit_code = 3


class InvalidWindow(PrivlogError):
    """A grant window violates the epoch/current-date bounds."""

    exit_code = 2


class ContextMismatch(PrivlogError):
    """Grant context fields do not match the expected identity/attestation."""

    exit_code = 5


class CorruptState(PrivlogError):
    """An input (a file, or a value from a flag) is missing fields or fails to decode."""

    exit_code = 6


class LockHeld(PrivlogError):
    """Another command holds the lock of the state or keystore this one would write."""

    exit_code = 7
