"""Subquery result vectors and the mid-query adaptivity governor.

Result vectors (paper Section III-B): for type-JA subqueries every
evaluation returns a scalar, so results form a fixed-width vector
(:class:`ScalarResultVector`).  Type-J results (``IN``) have variable
length; the paper stores them as a two-level array — per-iteration
lengths plus a concatenated value buffer
(:class:`TwoLevelResultVector`).  EXISTS results degenerate to a
boolean vector.

The :class:`AdaptiveGovernor` is the safety net behind the cost
model's nested-vs-unnested choice: the SUBQ drive loop reports
progress at every batch/iteration boundary, the governor extrapolates
the remaining loop cost from the elapsed modelled time (the same
islands idea Eq. (6) uses at prediction time, but over *real* work
units), and when the projection exceeds the unnested estimate by a
hysteresis factor it raises :class:`AdaptiveSwitch` — the executor
catches it, rewinds the pools, and reruns the query's unnested twin.
Rows stay bit-identical because nothing of the abandoned loop
survives; only the modelled clock keeps the sunk cost.
"""

from __future__ import annotations

import numpy as np


class ScalarResultVector:
    """One scalar (plus validity) per outer iteration.

    ``valid`` distinguishes SQL NULL (empty aggregation input) from a
    real value, so ``!=`` comparisons against the vector honour
    three-valued logic.
    """

    def __init__(self, size: int):
        self.values = np.full(size, np.nan, dtype=np.float64)
        self.valid = np.zeros(size, dtype=bool)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.valid.nbytes

    def store(self, row: int, value: float, valid: bool) -> None:
        self.values[row] = value
        self.valid[row] = valid

    def store_rows(self, rows, values, valid) -> None:
        self.values[rows] = values
        self.valid[rows] = valid


class ExistsResultVector:
    """One boolean per outer iteration."""

    def __init__(self, size: int):
        self.flags = np.zeros(size, dtype=bool)

    def __len__(self) -> int:
        return len(self.flags)

    @property
    def nbytes(self) -> int:
        return self.flags.nbytes

    def store(self, row: int, flag: bool) -> None:
        self.flags[row] = flag

    def store_rows(self, rows, flags) -> None:
        self.flags[rows] = flags


class TwoLevelResultVector:
    """Variable-length results: first level lengths, second level values.

    Built incrementally per iteration, then frozen into two flat
    arrays; membership tests (``IN``) run against the frozen form.
    """

    def __init__(self, size: int):
        self._chunks: dict[int, np.ndarray] = {}
        self.size = size
        self.lengths: np.ndarray | None = None
        self.offsets: np.ndarray | None = None
        self.values: np.ndarray | None = None

    def __len__(self) -> int:
        return self.size

    def store(self, row: int, values: np.ndarray) -> None:
        self._chunks[row] = np.asarray(values, dtype=np.float64)

    def freeze(self) -> None:
        """Assemble the two-level arrays."""
        lengths = np.zeros(self.size, dtype=np.int64)
        buffers = []
        for row in range(self.size):
            chunk = self._chunks.get(row)
            if chunk is not None and len(chunk):
                lengths[row] = len(chunk)
                buffers.append(chunk)
        self.lengths = lengths
        self.offsets = np.concatenate([[0], np.cumsum(lengths)])[:-1]
        self.values = (
            np.concatenate(buffers) if buffers else np.empty(0, dtype=np.float64)
        )

    @property
    def nbytes(self) -> int:
        if self.values is None:
            return sum(c.nbytes for c in self._chunks.values())
        return self.lengths.nbytes + self.values.nbytes

    def contains(self, row: int, value: float) -> bool:
        """Membership of ``value`` in iteration ``row``'s result set."""
        assert self.lengths is not None, "freeze() before membership tests"
        start = int(self.offsets[row])
        stop = start + int(self.lengths[row])
        return bool(np.any(self.values[start:stop] == value))

    def null_flags(self) -> np.ndarray:
        """Per-row flag: does iteration ``row``'s result set contain NULL?"""
        assert self.lengths is not None, "freeze() before membership tests"
        out = np.zeros(self.size, dtype=bool)
        for row in range(self.size):
            start = int(self.offsets[row])
            stop = start + int(self.lengths[row])
            if stop > start:
                out[row] = bool(np.any(np.isnan(self.values[start:stop])))
        return out

    def membership(self, probe: np.ndarray) -> np.ndarray:
        """Vectorised per-row membership: ``probe[i] in result[i]``."""
        assert self.lengths is not None, "freeze() before membership tests"
        out = np.zeros(self.size, dtype=bool)
        for row in range(self.size):
            start = int(self.offsets[row])
            stop = start + int(self.lengths[row])
            if stop > start:
                out[row] = bool(np.any(self.values[start:stop] == probe[row]))
        return out


class AdaptiveSwitch(Exception):
    """Raised at a SUBQ loop boundary to abandon the nested execution.

    Carries the evidence for the trace/metrics record; the executor is
    the only intended catcher.
    """

    def __init__(self, subquery_index: int, done: int, total: int,
                 elapsed_ms: float, projected_remaining_ms: float,
                 budget_ms: float):
        self.subquery_index = subquery_index
        self.done = done
        self.total = total
        self.elapsed_ms = elapsed_ms
        self.projected_remaining_ms = projected_remaining_ms
        self.budget_ms = budget_ms
        super().__init__(
            f"subquery #{subquery_index}: {done}/{total} units in "
            f"{elapsed_ms:.3f} ms, projected {projected_remaining_ms:.3f} ms "
            f"remaining > budget {budget_ms:.3f} ms"
        )


class AdaptiveGovernor:
    """Watches SUBQ drive loops and aborts a losing nested execution.

    Created per run by the executor when a prepared query carries an
    unnested fallback (auto mode chose nested).  The runtime reports:

    * ``loop_started`` once per correlated loop (before the first
      batch/iteration), pinning the loop's start on the modelled clock;
    * ``batch_done`` / ``iteration_done`` at every unit boundary.

    After ``MIN_BATCHES`` batches (or ``MIN_ITERATIONS`` iterations on
    the unvectorized path) the governor extrapolates::

        projected_remaining = elapsed * (total - done) / done

    and raises :class:`AdaptiveSwitch` when that exceeds
    ``budget_ms * HYSTERESIS``.  The sunk cost is deliberately excluded
    — past work is paid either way; only the *remaining* nested work
    competes with a fresh unnested run.  The hysteresis factor absorbs
    extrapolation noise (early batches carry warm-up effects and the
    estimate ignores cache-hit tapering), so marginal cases stay on the
    predicted path and only clear losses switch.
    """

    #: the unvectorized loop reports every iteration; demand at least
    #: this many before trusting the extrapolation
    MIN_ITERATIONS = 8
    #: the same floor for the vectorized loop, in batches
    MIN_BATCHES = 2
    #: how far the projected remaining cost may exceed the budget
    HYSTERESIS = 1.5

    def __init__(self, device, budget_ms: float):
        if budget_ms < 0:
            raise ValueError("budget must be non-negative")
        self.device = device
        self.budget_ms = budget_ms
        self._loops: dict[int, dict] = {}
        self.fired: AdaptiveSwitch | None = None

    def loop_started(self, sp, total: int) -> None:
        self._loops[id(sp)] = {
            "start_ns": self.device.stats.total_ns,
            "total": total,
            "units": 0,
        }

    def batch_done(self, sp, done: int) -> None:
        self._check(sp, done, self.MIN_BATCHES)

    def iteration_done(self, sp, done: int) -> None:
        self._check(sp, done, self.MIN_ITERATIONS)

    def _check(self, sp, done: int, min_units: int) -> None:
        if self.fired is not None:
            return
        state = self._loops.get(id(sp))
        if state is None:
            return
        state["units"] += 1
        total = state["total"]
        if state["units"] < min_units or done <= 0 or done >= total:
            return
        elapsed_ns = self.device.stats.total_ns - state["start_ns"]
        projected_ns = elapsed_ns * (total - done) / done
        if projected_ns <= self.budget_ms * 1e6 * self.HYSTERESIS:
            return
        self.fired = AdaptiveSwitch(
            subquery_index=sp.descriptor.index,
            done=done,
            total=total,
            elapsed_ms=elapsed_ns / 1e6,
            projected_remaining_ms=projected_ns / 1e6,
            budget_ms=self.budget_ms,
        )
        raise self.fired
