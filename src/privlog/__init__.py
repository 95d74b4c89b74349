"""privlog: two-layer device-log protection with time-windowed disclosure.

Sensitive fields in log lines are replaced in place by keyed-hash tokens
sealed under per-day ratcheted keys. A grant lets a server re-derive the
keys for one closed date window and recover the tokens (never the
underlying values) for linkage and timeline analysis.
"""

__version__ = "0.1.0"
