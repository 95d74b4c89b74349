"""privlog: two-layer device-log protection with time-windowed disclosure.

Sensitive fields in log lines are replaced in place by keyed-hash tokens
sealed under per-day ratcheted keys. A grant lets a server re-derive the
keys for one closed date window and recover the tokens (never the
underlying values) for linkage and timeline analysis.
"""

from .client import (
    ClientState,
    GrantRequest,
    ProtectSession,
    advance_to,
    create_grant,
    init_client,
    load_state,
    save_state,
)
from .corpus import BenchConfig, generate_corpus, write_corpus
from .crypto import (
    AeadBox,
    DhKeyPair,
    SecretKey32,
    aead_open,
    aead_seal,
    dh_derive_keypair,
    dh_shared,
    kdf,
    pseudonymize,
    ratchet_step,
)
from .dice import DeviceIdentity, attestation_digest, derive_cdi
from .errors import (
    AuthFailure,
    ContextMismatch,
    CorruptState,
    EmptyInput,
    InvalidLength,
    InvalidSpans,
    InvalidWindow,
    MalformedBox,
    OutOfOrderDate,
    PrivlogError,
    UnsupportedVersion,
    WeakKey,
)
from .grant import Grant
from .pii import (
    PiiSpan,
    PiiType,
    ProtectedField,
    detect_pii,
    encode_protected_line,
    extract_date,
    parse_protected_line,
)
from .server import (
    RecoveredEvent,
    ServerKeys,
    WindowKeys,
    accept_grant,
    create_offer,
    keygen,
    linkage_report,
    recover_tokens,
    timeline,
)

__version__ = "0.1.0"
