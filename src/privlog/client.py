"""Device-side engine: bootstrap, daily chain, line protection, grants.

State model: `chain_key` is the chain key for `chain_date`, so stepping it
yields that day's message key and the next day's chain key. Advancing
discards the chain keys of the days it passes, but `root_key` still
re-derives every day key since `epoch_date` (a grant does exactly that),
so compromise of the persisted state exposes the current epoch. Earlier
epochs are out of its reach.

Creating a grant is the one deliberate disclosure of chain material. It
is immediately followed by a root rotation that mixes the grant's fresh
DH secret into the new root, moves the epoch to the day after the grant,
and drops the old root, the chain key and the grant's DH private key;
nothing kept can re-derive the grant's export key. Only the long-term
pseudonym hash key survives rotations, which is what keeps tokens for the
same plaintext stable across grants.
"""

from __future__ import annotations

from datetime import date, timedelta
from typing import Dict, NamedTuple, Optional, Tuple

from .crypto import (
    SecretKey32,
    aead_seal,
    dh_derive_keypair,
    dh_shared,
    kdf,
    pseudonymize,
    ratchet_step,
)
from .dice import DeviceIdentity, attestation_digest, derive_cdi
from .errors import CorruptState, InvalidWindow, OutOfOrderDate
from .grant import Grant, seal_window
from .kvfile import b64, b64_field, date_field, format_kv, parse_versioned
from .pii import detect_pii, encode_protected_line, extract_date, new_field

STATE_VERSION = "1"

MODE_STREAM = "stream"
MODE_BATCH = "batch"
# Distinct values whose tokens a session keeps; once it holds this many,
# it drops them all.
TOKEN_CACHE_SIZE = 4096


class _ClientStateFields(NamedTuple):
    root_key: SecretKey32
    hash_key: SecretKey32
    chain_key: SecretKey32
    chain_date: date
    epoch_date: date


class ClientState(_ClientStateFields):
    """The device's persisted keys; each key's repr is redacted. `_replace`
    skips the constructor's check: use it only to move the chain forward."""

    __slots__ = ()

    def __new__(cls, root_key: SecretKey32, hash_key: SecretKey32, chain_key: SecretKey32,
                chain_date: date, epoch_date: date):
        if chain_date < epoch_date:
            raise CorruptState("chain_date precedes epoch_date")
        return super().__new__(cls, root_key, hash_key, chain_key, chain_date, epoch_date)


class GrantRequest(NamedTuple):
    server_pub: bytes
    start_date: date
    server_id: str
    grant_id: str


def _chain_key_for(root_key: SecretKey32, epoch: date) -> SecretKey32:
    return SecretKey32(kdf(None, root_key, b"ck-init" + epoch.isoformat().encode(), 32))


def init_client(
    identity: DeviceIdentity,
    server_longterm_pub: bytes,
    today: date,
    rng_seed: Optional[bytes] = None,
) -> ClientState:
    """Bootstrap all client secrets from the device's CDI.

    The pseudonym hash key depends only on the CDI; the root key also
    binds the DH agreement with the server's long-term key, so the server
    alone can never reconstruct it (it never learns the CDI).
    """
    cdi = derive_cdi(identity)
    hash_key = SecretKey32(kdf(None, cdi, b"hmac-key", 32))
    z = dh_shared(dh_derive_keypair(rng_seed, b"dh-init").private, server_longterm_pub)
    root_key = SecretKey32(kdf(cdi, z, b"root-key", 32))
    return ClientState(
        root_key=root_key,
        hash_key=hash_key,
        chain_key=_chain_key_for(root_key, today),
        chain_date=today,
        epoch_date=today,
    )


def advance_to(
    state: ClientState, target: date
) -> Tuple[ClientState, Dict[date, SecretKey32]]:
    """Ratchet forward to `target`, returning message keys per day passed.

    Covers every day from the current chain date through `target`
    inclusive. The returned state keeps only `target`'s chain key;
    earlier chain keys are gone, so the chain can never be rewound.
    """
    if target < state.chain_date:
        raise OutOfOrderDate(
            f"cannot rewind chain from {state.chain_date} to {target}"
        )
    keys: Dict[date, SecretKey32] = {}
    ck = state.chain_key
    day = state.chain_date
    while True:
        ck_next, mk = ratchet_step(ck)
        keys[day] = mk
        if day == target:
            break
        ck = ck_next
        day += timedelta(days=1)
    return state._replace(chain_key=ck, chain_date=day), keys


class ProtectSession:
    """Mutable wrapper advancing one client state across a log stream.

    Stream mode keeps only the newest day key and insists on
    non-decreasing line dates. Batch mode caches every day key derived
    during this session so out-of-order lines within the advanced range
    still protect; nothing from the cache is ever persisted. Dates before
    the session's starting chain position are unreachable in both modes
    because those chain keys no longer exist. A year-less date is read
    in the running year, `assumed_year` at first, or in the year nearest
    the previous line's date (`pii.extract_date`); the first is read
    nearest `near`, by default the chain date.
    """

    def __init__(self, state: ClientState, mode: str = MODE_STREAM, assumed_year: int = 2024,
                 near: Optional[date] = None):
        if mode not in (MODE_STREAM, MODE_BATCH):
            raise ValueError(f"unknown mode {mode!r}")
        self._state = state
        self.mode = mode
        self.assumed_year = assumed_year
        self._last_date = near or state.chain_date
        self._cache: Dict[date, SecretKey32] = {}
        # A token depends only on the value and the hash key, which a session
        # never changes: each distinct value is hashed once. Nothing sealed is kept.
        self._tokens: Dict[str, bytes] = {}

    @property
    def state(self) -> ClientState:
        return self._state

    @property
    def day_keys(self) -> Dict[date, SecretKey32]:
        return dict(self._cache)

    def _key_for(self, day: date) -> SecretKey32:
        key = self._cache.get(day)
        if key is not None:
            return key
        self._state, new_keys = advance_to(self._state, day)
        if self.mode == MODE_STREAM:
            self._cache = {day: new_keys[day]}
        else:
            self._cache.update(new_keys)
        return self._cache[day]

    def protect_line(self, line: str) -> Tuple[Optional[str], int]:
        """Protect one line; returns (protected line, number of fields protected).

        Lines dated before the epoch are skipped and returned as None:
        their keys were destroyed by a rotation and emitting them
        unprotected would leak.
        """
        line_date, self.assumed_year = extract_date(line, self.assumed_year, self._last_date)
        if line_date is not None:
            self._last_date = line_date
            if line_date < self._state.epoch_date:
                return None, 0
        key = self._key_for(line_date if line_date is not None else self._state.chain_date)
        spans = detect_pii(line)
        if not spans:
            return line, 0
        tokens = self._tokens
        fields = []
        for pii_type, _, _, text in spans:
            token = tokens.get(text)
            if token is None:
                if len(tokens) >= TOKEN_CACHE_SIZE:
                    tokens.clear()
                token = tokens[text] = pseudonymize(self._state.hash_key, text.encode())
            fields.append(new_field((pii_type, aead_seal(key, token))))
        return encode_protected_line(line, spans, fields), len(spans)


def create_grant(
    state: ClientState,
    req: GrantRequest,
    identity: DeviceIdentity,
    today: date,
    rng_seed: Optional[bytes] = None,
) -> Tuple[Grant, ClientState]:
    """Issue a time-window grant and rotate the root.

    The window runs from `req.start_date` through `today`. The start
    chain key is re-derived from the root rather than taken from the live
    chain, so the live position is irrelevant as long as it has not
    passed `today`. The returned state starts a fresh epoch at today+1
    under a rotated root; nothing derivable from the grant can decrypt
    anything protected after it.
    """
    if not state.epoch_date <= req.start_date <= state.chain_date:
        raise InvalidWindow(
            f"start {req.start_date} outside [{state.epoch_date}, {state.chain_date}]"
        )
    if req.start_date > today or state.chain_date > today:
        raise InvalidWindow(
            f"grant on {today} impossible: chain at {state.chain_date}, "
            f"start {req.start_date}"
        )

    eph_pair = dh_derive_keypair(rng_seed, b"export-keygen")
    z = dh_shared(eph_pair.private, req.server_pub)

    at_epoch = state._replace(chain_key=_chain_key_for(state.root_key, state.epoch_date),
                              chain_date=state.epoch_date)
    ck = advance_to(at_epoch, req.start_date)[0].chain_key
    grant = seal_window(
        Grant(
            client_eph_pub=eph_pair.public,
            box=b"",
            server_id=req.server_id,
            device_id=identity.device_id,
            attest_digest=attestation_digest(identity),
            grant_id=req.grant_id,
            grant_date=today,
        ),
        z, ck, req.start_date,
    )

    new_root = SecretKey32(kdf(state.root_key, z, b"root-key-rotate", 32))
    new_epoch = today + timedelta(days=1)
    rotated = ClientState(
        root_key=new_root,
        hash_key=state.hash_key,
        chain_key=_chain_key_for(new_root, new_epoch),
        chain_date=new_epoch,
        epoch_date=new_epoch,
    )
    return grant, rotated


def save_state(state: ClientState) -> str:
    return format_kv(
        [
            ("v", STATE_VERSION),
            ("root_key", b64(state.root_key.bytes)),
            ("hash_key", b64(state.hash_key.bytes)),
            ("chain_key", b64(state.chain_key.bytes)),
            ("chain_date", state.chain_date.isoformat()),
            ("epoch_date", state.epoch_date.isoformat()),
        ]
    )


def load_state(text: str) -> ClientState:
    """Read a state file; keys it does not read (such as the `dh_priv=`,
    `dh_pub=` and `init_nonce=` of earlier writers) are ignored."""
    fields = parse_versioned(text, "state file", STATE_VERSION)
    return ClientState(
        root_key=SecretKey32(b64_field(fields, "root_key", "state file", 32)),
        hash_key=SecretKey32(b64_field(fields, "hash_key", "state file", 32)),
        chain_key=SecretKey32(b64_field(fields, "chain_key", "state file", 32)),
        chain_date=date_field(fields, "chain_date", "state file"),
        epoch_date=date_field(fields, "epoch_date", "state file"),
    )
