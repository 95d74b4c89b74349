"""Layer spans recorded from outside the program.

`install` replaces the functions that `privlog.client` and `privlog.server`
call by the names those modules imported, so every call across a layer
boundary passes through a wrapper. Each span is kept in memory as
(parent span name, duration, time covered by its child spans) and folded
into per-(parent, span) totals when read. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

# (module[:class], attribute, span name). The client and server modules
# call each target by the name they imported, so patching that name in
# the calling module intercepts every call without touching the sources.
TARGETS = [
    ("privlog.client", "extract_date", "pii.extract_date"),
    ("privlog.client", "detect_pii", "pii.detect_pii"),
    ("privlog.client", "advance_to", "client.advance_to"),
    ("privlog.client", "ratchet_step", "crypto.ratchet_step"),
    ("privlog.client", "pseudonymize", "crypto.pseudonymize"),
    ("privlog.client", "aead_seal", "crypto.aead_seal"),
    ("privlog.client", "encode_protected_line", "pii.encode_protected_line"),
    ("privlog.client:ProtectSession", "protect_line", "client.protect_line"),
    ("privlog.server", "parse_protected_line", "pii.parse_protected_line"),
    ("privlog.server", "extract_date", "pii.extract_date"),
    ("privlog.server", "aead_open", "crypto.aead_open"),
    ("privlog.server", "ratchet_step", "crypto.ratchet_step"),
    ("privlog.server", "accept_grant", "server.accept_grant"),
    ("privlog.server", "recover_tokens", "server.recover_tokens"),
    ("privlog.server", "write_events_csv", "server.write_events_csv"),
    ("privlog.server", "read_events_csv", "server.read_events_csv"),
    ("privlog.server", "linkage_report", "server.linkage_report"),
    ("privlog.server", "write_linkage_csv", "server.write_linkage_csv"),
    ("privlog.server", "timeline", "server.timeline"),
]


class Tracer:
    def __init__(self):
        self._spans: Dict[str, list] = defaultdict(list)
        self.results: Dict[str, list] = {}
        self._stack: List[list] = [["", 0]]
        self._folded: Optional[Dict[Tuple[str, str], List[int]]] = None

    def wrap(self, name: str, fn: Callable, keep_results: bool = False) -> Callable:
        """`fn` recording one span per call; kept results go to `results[name]`."""
        stack, clock = self._stack, perf_counter_ns
        push, pop = stack.append, stack.pop
        record = self._spans[name].append
        keep = self.results.setdefault(name, []).append if keep_results else None

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0]
            push(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                pop()
                parent[1] += dt
                record((parent[0], dt, frame[1]))
            if keep is not None:
                keep(out)
            return out

        traced.__wrapped__ = fn
        return traced

    @property
    def stats(self) -> Dict[Tuple[str, str], List[int]]:
        """(parent, span) -> [calls, total ns, child ns]."""
        if self._folded is None:
            self._folded = defaultdict(lambda: [0, 0, 0])
            for name, spans in self._spans.items():
                for parent, dt, child in spans:
                    s = self._folded[(parent, name)]
                    s[0] += 1
                    s[1] += dt
                    s[2] += child
        return self._folded

    def dump(self) -> dict:
        return {"stats": [[p, n, *s] for (p, n), s in self.stats.items()]}

    @classmethod
    def load(cls, data: dict) -> "Tracer":
        tracer = cls()
        tracer._folded = {(p, n): s for p, n, *s in data["stats"]}
        return tracer

    # --- folded views ------------------------------------------------

    def _sum(self, index: int, name: str, parent: Optional[str]) -> int:
        return sum(s[index] for (p, n), s in self.stats.items() if n == name and parent in (None, p))

    def calls(self, name: str, parent: Optional[str] = None) -> int:
        return self._sum(0, name, parent)

    def total_ns(self, name: str, parent: Optional[str] = None) -> int:
        return self._sum(1, name, parent)

    def self_ns(self, name: str) -> int:
        return self._sum(1, name, None) - self._sum(2, name, None)

    def children_ns(self, name: str) -> Dict[str, int]:
        return {n: s[1] for (p, n), s in self.stats.items() if p == name}

    def us_per_call(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_ns(name) / calls / 1e3 if calls else 0.0


def install(tracer: Tracer, keep_results: Tuple[str, ...] = ()) -> Callable[[], None]:
    """Patch every target; returns a function that restores the originals."""
    saved = []
    for target, attr, name in TARGETS:
        module_name, _, cls = target.partition(":")
        owner = importlib.import_module(module_name)
        if cls:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, keep_results=name in keep_results))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
