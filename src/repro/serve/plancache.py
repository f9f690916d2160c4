"""The session plan cache / prepared-statement layer.

A repeat query costs NestGPU a full parse → bind → plan → codegen pass
plus — in auto mode — the cost model's probe runs, which *execute*
plan fragments to extrapolate Eq. (6).  For a served workload those
dominate the time not spent on the device, so the session keeps every
:class:`~repro.core.executor.PreparedQuery` it builds, keyed on

* the **normalized SQL text** (whitespace collapsed — two layouts of
  the same statement are one plan),
* the **execution mode** (``nested``/``unnested``/``auto`` choose
  different plans),
* the **parameter signature** of the prepared statement that produced
  the text (so ``$1`` bound as an int and as a string never share an
  entry), and
* implicitly, the **catalog version**: any table registration or
  reload bumps :attr:`repro.storage.Catalog.version`, and the session
  clears the cache (plans bake in column widths, dictionary codes and
  row counts, all of which a reload invalidates).

Entries are evicted LRU beyond ``capacity``.

The cache is internally locked: a probe mutates the LRU order and the
hit/miss counters, and concurrent serving workers probe it outside the
session's device lock (planning is the part of a query that genuinely
runs in parallel).  Two workers missing the same key both plan and
both put — the second put wins; wasted work, never a wrong plan.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict

from ..core.executor import PreparedQuery

# string literals must survive normalization byte-for-byte: whitespace
# inside quotes is data, not layout ('' is SQL's escaped quote)
_LITERAL_RE = re.compile(r"('(?:[^']|'')*'|\"[^\"]*\")")
_WS_RE = re.compile(r"\s+")


def normalize_sql(sql: str) -> str:
    """Collapse whitespace runs outside string literals — the cache's
    textual identity.  ``WHERE c = 'a  b'`` and ``WHERE c = 'a b'`` are
    different statements and must never share a plan-cache entry."""
    parts = _LITERAL_RE.split(sql)
    # even indices are the segments between literals; odd indices are
    # the captured literals themselves
    for i in range(0, len(parts), 2):
        parts[i] = _WS_RE.sub(" ", parts[i])
    return "".join(parts).strip()


class PlanCache:
    """An LRU map from ``(normalized SQL, mode, param signature)`` to a
    ready-to-run :class:`PreparedQuery`."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, PreparedQuery] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @staticmethod
    def key(sql: str, mode: str, param_sig: tuple = ()) -> tuple:
        return (normalize_sql(sql), mode, param_sig)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get(self, key: tuple) -> PreparedQuery | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, prepared: PreparedQuery) -> None:
        with self._lock:
            self._entries[key] = prepared
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate_all(self) -> None:
        """Drop every entry (catalog changed under the cache)."""
        with self._lock:
            if self._entries:
                self._entries.clear()
            self.invalidations += 1

    def invalidate_mode(self, mode: str) -> int:
        """Drop entries planned under one execution mode.

        Recalibration changes only what the cost model would *choose*,
        so only mode-sensitive (``auto``) entries go stale; forced
        nested/unnested plans survive.  Returns the eviction count.
        """
        with self._lock:
            doomed = [k for k in self._entries if k[1] == mode]
            for k in doomed:
                del self._entries[k]
            if doomed:
                self.invalidations += 1
            return len(doomed)

    def invalidate_tuned_fusion(self) -> int:
        """Drop entries whose program was chosen by the fusion tuner.

        Recalibration bumps ``CostCoefficients.version``; the tuner's
        own cache treats stale versions as misses, but a session plan
        cache holding a *tuned* :class:`PreparedQuery` would keep
        serving the old winner without ever re-asking the tuner.  Forced
        (``fusion='on'``), analytic and off entries never depended on
        the coefficients and survive.  Returns the eviction count.
        """
        with self._lock:
            doomed = [
                k for k, prepared in self._entries.items()
                if prepared.fusion_decision.source == "tuned"
            ]
            for k in doomed:
                del self._entries[k]
            if doomed:
                self.invalidations += 1
            return len(doomed)

    @property
    def hit_ratio(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
