"""Cryptographic primitives and the key schedule.

Primitive choices, fixed for interoperability:

* KDF: HKDF-SHA256. Calls that bind two secrets pass the first as the
  HKDF salt and the second as the IKM; single-secret calls use an empty
  salt.
* Pseudonym tokens: HMAC-SHA256 truncated to its first 16 bytes.
* Field/grant AEAD: ChaCha20-Poly1305 (IETF), 32-byte key, 12-byte
  random nonce, 16-byte tag.
* Key agreement: X25519; private scalars are derived from 32-byte seeds
  through the KDF and clamped.

Every primitive comes from `cryptography`, so a process maps one OpenSSL (stdlib
`hashlib` and `hmac` would load a second). Each primitive's module is imported
on its first use, so a command loads only what it calls: `report` loads none of
`cryptography` and `recover` only the AEAD. Every function here is pure or locally
randomized. The only state is the cipher and the HMAC context a `SecretKey32`
builds on first use and keeps until `wipe`. Building either twice is harmless, so
concurrent users of a key need no locking; but `wipe` must not run while any other
thread uses the key, or a state under the old bytes can be kept.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional, Tuple, Union

from .errors import AuthFailure, CorruptState

KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16
TOKEN_LEN = 16

KDF_MIN_LEN = 16
KDF_MAX_LEN = 64


class SecretKey32:
    """A 32-byte secret. Never reveals its value through repr/str.

    Zeroization is best effort: the backing buffer is wiped on `wipe()`
    and on garbage collection, but copies handed out via `.bytes` are
    ordinary immutable bytes. The cipher `aead()` keeps holds a copy of the
    key and the `cryptography` HMAC context `hmac()` keeps holds pads derived
    from it. `wipe()` cannot zero those, but drops both, so they live no longer
    than this key.
    """

    __slots__ = ("_buf", "_aead", "_hmac")

    def __init__(self, data: Union[bytes, bytearray]):
        if len(data) != KEY_LEN:
            raise CorruptState(f"secret key must be {KEY_LEN} bytes, got {len(data)}")
        self._buf = bytearray(data)
        self._aead = self._hmac = None

    @property
    def bytes(self) -> bytes:
        return bytes(self._buf)

    def aead(self):
        """This key's ChaCha20Poly1305 cipher, built on first use and kept until `wipe`."""
        if self._aead is None:
            from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
            self._aead = ChaCha20Poly1305(self.bytes)
        return self._aead

    def hmac(self):
        """This key's HMAC-SHA256 context, keyed on first use and kept until `wipe`."""
        if self._hmac is None:
            from cryptography.hazmat.primitives.hashes import SHA256
            from cryptography.hazmat.primitives.hmac import HMAC
            self._hmac = HMAC(self.bytes, SHA256())
        return self._hmac

    def wipe(self) -> None:
        self._aead = self._hmac = None
        for i in range(len(self._buf)):
            self._buf[i] = 0

    def __del__(self):
        try:
            self.wipe()
        except Exception:
            pass

    def __eq__(self, other) -> bool:
        if isinstance(other, SecretKey32):
            from hmac import compare_digest  # lazy: loads a second OpenSSL; no CLI compares keys
            return compare_digest(self.bytes, other.bytes)
        return NotImplemented

    def __repr__(self) -> str:
        return "SecretKey32(<redacted>)"

    __str__ = __repr__


class _DhKeyPairFields(NamedTuple):
    private: bytes
    public: bytes


class DhKeyPair(_DhKeyPairFields):
    """X25519 keypair; `private` is the clamped scalar."""

    __slots__ = ()

    def __new__(cls, private: bytes, public: bytes):
        if len(private) != 32 or len(public) != 32:
            raise CorruptState("X25519 keys must be 32 bytes")
        return super().__new__(cls, private, public)

    def __repr__(self) -> str:
        return f"DhKeyPair(public={self.public.hex()}, private=<redacted>)"


def _as_bytes(value: Union[bytes, bytearray, SecretKey32, None]) -> bytes:
    if value is None:
        return b""
    if isinstance(value, SecretKey32):
        return value.bytes
    return bytes(value)


def kdf(
    salt_key: Union[bytes, SecretKey32, None],
    ikm: Union[bytes, SecretKey32],
    info: bytes,
    out_len: int,
) -> bytes:
    """HKDF-SHA256 with a domain-separation label as the info field."""
    if not KDF_MIN_LEN <= out_len <= KDF_MAX_LEN:
        raise CorruptState(
            f"kdf output length {out_len} outside [{KDF_MIN_LEN}, {KDF_MAX_LEN}]"
        )
    from cryptography.hazmat.primitives.hashes import SHA256
    from cryptography.hazmat.primitives.kdf.hkdf import HKDF
    return HKDF(
        algorithm=SHA256(),
        length=out_len,
        salt=_as_bytes(salt_key) or None,
        info=info,
    ).derive(_as_bytes(ikm))


def ratchet_step(ck: SecretKey32) -> Tuple[SecretKey32, SecretKey32]:
    """One-way chain advance: returns (next chain key, this step's message key)."""
    x = kdf(None, ck, b"ratchet", 64)
    return SecretKey32(x[:32]), SecretKey32(x[32:])


# The longest field a 2-byte length prefix can carry.
PREFIX_MAX = 0xFFFF


def length_prefixed(raw: bytes) -> bytes:
    """`raw` behind its 2-byte big-endian length, for unambiguous concatenation."""
    if len(raw) > PREFIX_MAX:
        raise CorruptState(f"length-prefixed field longer than {PREFIX_MAX} bytes")
    return len(raw).to_bytes(2, "big") + raw


def pseudonymize(hash_key: SecretKey32, plaintext: bytes) -> bytes:
    """Stable 16-byte correlation token for a sensitive value."""
    state = hash_key.hmac().copy()
    state.update(plaintext)
    return state.finalize()[:TOKEN_LEN]


def load_modules() -> None:
    """Import the AEAD's module, building no cipher: a process about to fork
    loads it once for all its children."""
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305  # noqa: F401


def aead_seal(key: SecretKey32, plaintext: bytes, aad: bytes = b"",
              nonce: Optional[bytes] = None) -> bytes:
    """`nonce || ciphertext || tag`, under `nonce` (fresh random bytes, used
    once) or else a fresh random one. An empty AAD reaches the cipher as None."""
    nonce = nonce or os.urandom(NONCE_LEN)
    return nonce + key.aead().encrypt(nonce, plaintext, aad or None)


def aead_open(key: SecretKey32, sealed: bytes, aad: bytes = b"") -> bytes:
    """Inverse of `aead_seal`: CorruptState if too short, AuthFailure if forged."""
    if len(sealed) < NONCE_LEN + TAG_LEN:
        raise CorruptState(f"sealed value too short: {len(sealed)} bytes")
    cipher = key.aead()
    try:
        return cipher.decrypt(sealed[:NONCE_LEN], sealed[NONCE_LEN:], aad)
    except Exception as exc:
        from cryptography.exceptions import InvalidTag  # loaded with the cipher
        if isinstance(exc, InvalidTag):
            raise AuthFailure("AEAD authentication failed") from exc
        raise


def clamp_scalar(raw: bytes) -> bytes:
    b = bytearray(raw)
    b[0] &= 248
    b[31] &= 127
    b[31] |= 64
    return bytes(b)


def dh_derive_keypair(seed: Optional[bytes], label: bytes) -> DhKeyPair:
    """Deterministic X25519 keypair from a 32-byte seed and a label; a fresh
    random seed if `seed` is None."""
    if seed is None:
        seed = os.urandom(32)
    if len(seed) != 32:
        raise CorruptState("keypair seed must be 32 bytes")
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
    private = clamp_scalar(kdf(None, seed, label, 32))
    public = X25519PrivateKey.from_private_bytes(private).public_key().public_bytes_raw()
    return DhKeyPair(private=private, public=public)


def dh_shared(private: bytes, peer_public: bytes) -> SecretKey32:
    """Raw X25519 agreement. Rejects the all-zero (low order) result."""
    if len(private) != 32 or len(peer_public) != 32:
        raise CorruptState("X25519 inputs must be 32 bytes")
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
    try:
        shared = X25519PrivateKey.from_private_bytes(private).exchange(
            X25519PublicKey.from_public_bytes(peer_public)
        )
    except ValueError as exc:
        raise CorruptState("X25519 produced a weak shared secret") from exc
    if shared == b"\x00" * 32:
        raise CorruptState("X25519 produced an all-zero shared secret")
    return SecretKey32(shared)
