"""Flat-array simulation kernels (ROADMAP item 1).

The engine's remaining cost after the PR 2 inner-loop work is per-event
Python *object* churn in three hot paths: TDG bottom-level relaxation,
per-state-change energy accrual, and per-cell setup inside sweep workers.
This module provides the flat-buffer backing for all three:

* :class:`BottomLevelState` — task-id-indexed bottom-level / finished /
  histogram buffers plus a CSR predecessor adjacency built incrementally
  on every ``submit``.  :meth:`BottomLevelState.submit` is the
  kernelized replacement for the ``TaskGraph`` add +
  ``_relax_bottom_levels`` pair: identical visit order, identical
  visit-budget semantics, identical ``bl_edges_visited`` counts.
* :class:`TransitionLog` — append-only flat ``(t, core, power, bucket)``
  buffers that let :class:`~repro.sim.energy.EnergyAccountant` integrate
  energy in one sweep instead of accruing on every ``set_state`` edge.
* :class:`KernelArena` — per-thread reusable buffers and
  per-machine-fingerprint memo dictionaries, so one worker can simulate
  many cells back-to-back without repeating setup work and without the
  unbounded/id-aliasing memo growth that naive cross-cell sharing would
  cause.

Everything here is gated on bitwise-identical output (tests/golden and
``tests/sim/test_arrays.py``); the ``REPRO_ARRAY_KERNELS`` environment
variable (default on; ``0``/``off`` disables, ``py`` forces the
pure-Python kernels) selects among the backends so every path stays
pinned.

Two exactness constraints shape the design:

* The relaxation walk is **order-sensitive**: ``bl_edges_visited`` is an
  observable quantity (the BL estimator charges it as submission
  overhead), and under a visit budget the *final bottom-levels* depend
  on LIFO visit order too.  The kernel therefore runs the walk
  sequentially over flat int buffers — the budget is checked once per
  popped node, exactly like the reference, which makes charging a
  node's whole edge row in one batch legal — rather than as a
  level-synchronous numpy sweep that would visit a different number of
  edges.  Fully vectorized numpy sweeps are used where order does not
  matter: :meth:`BottomLevelState.recompute` re-derives exact bottom
  levels from the CSR adjacency for validation.
* Two interchangeable walk backends exist: a compiled C loop
  (:mod:`repro.sim._ckernels`, used when a host compiler is available)
  over preallocated capacity-managed ``array('q')`` buffers, and a
  pure-Python loop over ``list`` buffers with per-node ``tuple``
  adjacency rows (profiled on CPython 3.11: ``list`` int reads beat
  ``array('q')``, which boxes on every read, and tuple rows beat
  slicing the CSR ``indices``).  Both produce identical integers; the
  native backend defers the per-task ``task.bottom_level`` mirror
  writes to one deduplicated pass after the walk, which is
  unobservable because every reader runs between submissions.
"""

from __future__ import annotations

import os
from array import array
from typing import NoReturn, Optional

from . import _ckernels

__all__ = [
    "kernels_enabled",
    "native_enabled",
    "BottomLevelState",
    "TransitionLog",
    "KernelArena",
]

#: Environment toggle for the array-kernel paths.  Read at *construction*
#: time by TaskGraph / EnergyAccountant, so a monkeypatched environment
#: affects every subsequently built system (the golden tests pin both
#: settings in one process this way).
ENV_TOGGLE = "REPRO_ARRAY_KERNELS"

_OFF_VALUES = ("0", "off", "false", "no")
_PY_VALUES = ("py", "python")

#: Histogram growth quantum for the Python backend (bottom levels rarely
#: exceed a few dozen).
_GROW = 64

#: Stand-in for "no budget": larger than any reachable edge count, so the
#: hot loop needs no ``is not None`` test.
_NO_BUDGET = 1 << 62

#: Initial capacities for the native backend's preallocated buffers.
_INIT_TASKS = 1024
_INIT_EDGES = 4096


def _env_value() -> str:
    return os.environ.get(ENV_TOGGLE, "1").strip().lower()


def kernels_enabled(override: Optional[bool] = None) -> bool:
    """Whether the flat-array kernels are active.

    ``override`` forces the answer (used by perf scenarios that must
    measure one specific path); otherwise ``REPRO_ARRAY_KERNELS``
    decides, defaulting to on.
    """
    if override is not None:
        return override
    return _env_value() not in _OFF_VALUES


def native_enabled() -> bool:
    """Whether the compiled kernel backend is active.

    Requires the kernels to be on, ``REPRO_ARRAY_KERNELS`` not set to
    ``py`` (the explicit pure-Python pin), and a loadable compiled
    library — no compiler means a silent, bit-identical fallback to the
    Python kernels.
    """
    v = _env_value()
    if v in _OFF_VALUES or v in _PY_VALUES:
        return False
    return _ckernels.load() is not None


class BottomLevelState:
    """Flat buffers for incremental bottom-level maintenance.

    Logical layout (all indexed by ``task_id``):

    ``bl``
        current bottom level;
    ``fin``
        1 iff the task reached ``FINISHED`` (the walk tests it without
        touching the Task object);
    ``counts``
        histogram of bottom levels over *unfinished* tasks — replaces
        the reference implementation's dict;
    ``indptr`` / ``indices``
        CSR predecessor adjacency built incrementally by
        :meth:`submit`: the predecessors of task ``t`` are
        ``indices[indptr[t]:indptr[t+1]]``.

    The native backend preallocates everything as capacity-doubling
    ``array('q')``/``array('b')`` buffers whose raw addresses are cached
    in a persistent params block between growths, so each
    :meth:`submit` is one C call with a single pointer argument; the
    Python backend uses ``list``/``bytearray`` with on-demand growth.
    ``stamp``/``touched`` (native only) carry the walk's first-touch
    dedup for the deferred ``task.bottom_level`` mirror writes.
    """

    __slots__ = (
        "native",
        "bl",
        "fin",
        "counts",
        "indptr",
        "indices",
        "max_bl",
        "max_bl_waiting",
        "_n",
        "_ne",
        "_cap",
        "_ecap",
        "stamp",
        "touched",
        "_state",
        "_params",
        "_a_params",
        "_fn",
    )

    def __init__(self, native: Optional[bool] = None) -> None:
        self.native = native_enabled() if native is None else native
        self.clear()

    def clear(self) -> None:
        """Reset to the empty graph (arena reuse between cells)."""
        self.max_bl = 0
        self.max_bl_waiting = 0
        self._n = 0
        self._ne = 0
        if self.native:
            cap, ecap = _INIT_TASKS, _INIT_EDGES
            self._cap = cap
            self._ecap = ecap
            self.bl = array("q", bytes(8 * cap))
            self.fin = array("b", bytes(cap))
            self.counts = array("q", bytes(8 * (cap + 2)))
            self.indptr = array("q", bytes(8 * (cap + 1)))
            self.indices = array("q", bytes(8 * ecap))
            self.stamp = array("q", bytes(8 * cap))
            self.touched = array("q", bytes(8 * cap))
            #: {max_bl, max_bl_waiting, epoch, n_touched, pending} — the
            #: scalar I/O block shared with the C kernel.
            self._state = array("q", [0, 0, 0, 0, 0])
            self._fn = _ckernels.load().bl_submit
            self._refresh_addrs()
        else:
            self._cap = 0
            self._ecap = 0
            self.bl = []
            self.fin = bytearray()
            self.counts = [0] * _GROW
            self.indptr = array("q", [0])
            self.indices = array("q")
            self.stamp = None
            self.touched = None
            self._state = None
            self._params = None
            self._a_params = 0
            self._fn = None

    def __len__(self) -> int:
        return self._n

    # ----------------------------------------------------- native plumbing
    def _refresh_addrs(self) -> None:
        # One persistent address block (see bl_submit's `bufs`): the per-
        # call ctypes marshalling collapses to a single pointer argument.
        self._params = array(
            "q",
            [
                self.bl.buffer_info()[0],
                self.fin.buffer_info()[0],
                self.counts.buffer_info()[0],
                self.indptr.buffer_info()[0],
                self.indices.buffer_info()[0],
                self.stamp.buffer_info()[0],
                self.touched.buffer_info()[0],
                self._state.buffer_info()[0],
            ],
        )
        self._a_params = self._params.buffer_info()[0]

    def _grow_tasks(self) -> None:
        cap = self._cap
        pad_q = array("q", bytes(8 * cap))
        self.bl.extend(pad_q)
        self.counts.extend(pad_q)
        self.indptr.extend(pad_q)
        self.stamp.extend(pad_q)
        self.touched.extend(pad_q)
        self.fin.extend(array("b", bytes(cap)))
        self._cap = cap * 2
        self._refresh_addrs()

    def _grow_edges(self, need: int) -> None:
        ecap = self._ecap
        while ecap < need:
            ecap *= 2
        self.indices.extend(array("q", bytes(8 * (ecap - self._ecap))))
        self._ecap = ecap
        self._refresh_addrs()

    # ---------------------------------------------------------- submission
    def submit(
        self,
        dep_ids: tuple[int, ...],
        pred_rows: list[tuple[int, ...]],
        tasks: list,
        budget: Optional[int],
        track: bool = True,
    ) -> tuple[int, int]:
        """Add a new leaf (BL 0) with its predecessor edges and relax.

        Returns ``(edges_visited, pending_preds)``.  The walk is a
        bitwise-faithful port of ``TaskGraph._relax_bottom_levels`` onto
        the flat buffers: same LIFO frontier, same duplicate-dependence
        handling (the initial frontier is built before any BL moves, and
        ``pending`` counts unfinished deps per *occurrence*), and the
        budget is checked once per popped node — which is what makes
        charging a node's whole edge row in one ``+= len(row)`` legal.
        ``track=False`` appends the row and counts pending but skips the
        walk entirely (0 edges charged).

        ``tasks[i].bottom_level`` is kept in sync for every relaxed node:
        the BL readers outside the graph (HPRQ priority, criticality
        estimators) take the Task object, not an id.  The native backend
        runs validation, CSR append, pending count and walk as *one* C
        call (per-call ctypes marshalling dominated the split form) and
        then mirrors once per distinct touched task; the Python backend
        writes in place during the walk.  Both orders are unobservable —
        no reader runs inside ``TaskGraph.submit``.

        On the python backend the caller must have validated ``dep_ids``
        (each in ``[0, len(self))``); the native kernel validates them
        itself, before any mutation, and raises the reference
        implementation's exact error.
        """
        if self.native:
            n = self._n
            if n >= self._cap:
                self._grow_tasks()
            nd = len(dep_ids)
            ne = self._ne
            if nd:
                if ne + nd > self._ecap:
                    self._grow_edges(ne + nd)
                try:
                    scratch = array("q", dep_ids)
                except OverflowError:
                    # A dep id outside int64 is by construction unknown;
                    # raise the reference error for it.
                    self._raise_bad_dep(dep_ids)
                a_deps = scratch.buffer_info()[0]
            else:
                a_deps = 0
            if track:
                c_budget = _NO_BUDGET if budget is None else budget
            else:
                c_budget = -1
            edges = self._fn(self._a_params, a_deps, nd, n, ne, c_budget)
            if edges < 0:
                if edges == -3:
                    self._raise_bad_dep(dep_ids)
                raise MemoryError("bl_submit: frontier stack allocation failed")
            self._n = n + 1
            self._ne = ne + nd
            st = self._state
            self.max_bl = st[0]
            self.max_bl_waiting = st[1]
            nt = st[3]
            if nt:
                bl = self.bl
                for pid in self.touched[:nt]:
                    tasks[pid].bottom_level = bl[pid]
            return edges, st[4]

        fin = self.fin
        pending = 0
        for d in dep_ids:
            if not fin[d]:
                pending += 1
        self.bl.append(0)
        self.fin.append(0)
        self.counts[0] += 1
        if dep_ids:
            self.indices.extend(dep_ids)
        self.indptr.append(len(self.indices))
        self._n += 1
        self._ne = len(self.indices)
        if not track:
            return 0, pending
        return self._relax_py(dep_ids, pred_rows, tasks, budget), pending

    def _raise_bad_dep(self, dep_ids: tuple[int, ...]) -> "NoReturn":
        """Raise the reference implementation's unknown-dependence error."""
        n = self._n
        for d in dep_ids:
            if not (0 <= d < n):
                raise ValueError(f"task {n} depends on unknown task {d}")
        raise AssertionError("kernel rejected deps the reference accepts")

    def _relax_py(
        self,
        dep_ids: tuple[int, ...],
        pred_rows: list[tuple[int, ...]],
        tasks: list,
        budget: Optional[int],
    ) -> int:
        """The pure-Python walk (see :meth:`submit` for the contract).

        Profiled on CPython 3.11: ``list`` BL reads beat ``array('q')``
        (which boxes on every read) and the caller's per-node ``tuple``
        adjacency rows beat slicing the CSR ``indices``.
        """
        bl = self.bl
        fin = self.fin
        counts = self.counts
        edges = len(dep_ids)
        frontier = [d for d in dep_ids if bl[d] < 1]
        if not frontier:
            return edges
        max_bl = self.max_bl
        max_bl_waiting = self.max_bl_waiting
        for d in frontier:
            if not fin[d]:
                counts[bl[d]] -= 1
                counts[1] += 1
                if max_bl_waiting < 1:
                    max_bl_waiting = 1
            bl[d] = 1
            tasks[d].bottom_level = 1
        cap = budget if budget is not None else _NO_BUDGET
        n_counts = len(counts)
        pop = frontier.pop
        push = frontier.append
        while frontier:
            if edges >= cap:
                break
            nid = pop()
            nbl = bl[nid]
            if nbl > max_bl:
                max_bl = nbl
            new_bl = nbl + 1
            if new_bl >= n_counts:
                counts.extend([0] * _GROW)
                n_counts = len(counts)
            row = pred_rows[nid]
            edges += len(row)
            for pid in row:
                pbl = bl[pid]
                if pbl < new_bl:
                    if not fin[pid]:
                        counts[pbl] -= 1
                        counts[new_bl] += 1
                        if new_bl > max_bl_waiting:
                            max_bl_waiting = new_bl
                    bl[pid] = new_bl
                    tasks[pid].bottom_level = new_bl
                    push(pid)
        self.max_bl = max_bl
        self.max_bl_waiting = max_bl_waiting
        return edges

    # ------------------------------------------------------------ progress
    def retire(self, task_id: int) -> None:
        """A tracked task finished: update histogram and the waiting max."""
        counts = self.counts
        counts[self.bl[task_id]] -= 1
        w = self.max_bl_waiting
        while w > 0 and not counts[w]:
            w -= 1
        self.max_bl_waiting = w
        if self.native:
            # The C walk reads max_bl_waiting back from the shared block.
            self._state[1] = w

    # ---------------------------------------------------------- batch view
    def bottom_levels(self):
        """Current bottom levels as a numpy int64 array (copy)."""
        import numpy as np

        if self.native:
            return np.asarray(self.bl[: self._n], dtype=np.int64)
        return np.asarray(self.bl, dtype=np.int64)

    def recompute(self):
        """Exact bottom levels from the CSR adjacency, as batched sweeps.

        Bellman-Ford-style relaxation over the full edge arrays:
        ``exact[pred] = max(exact[pred], exact[succ] + 1)`` for every
        edge at once (``np.maximum.at``), repeated until fixpoint — at
        most ``longest_path + 1`` sweeps.  Order-insensitive, so full
        vectorization is legal here (unlike the budgeted walk).  Used by
        validation to cross-check the incremental buffers.
        """
        import numpy as np

        n = self._n
        exact = np.zeros(n, dtype=np.int64)
        if not self._ne:
            return exact
        indptr = np.asarray(self.indptr[: n + 1], dtype=np.int64)
        preds = np.asarray(self.indices[: self._ne], dtype=np.int64)
        # Edge e (a predecessor reference) belongs to the task whose CSR
        # row contains it: succ_of_edge[indptr[t]:indptr[t+1]] == t.
        succ_of_edge = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        while True:
            relaxed = exact.copy()
            np.maximum.at(relaxed, preds, exact[succ_of_edge] + 1)
            if np.array_equal(relaxed, exact):
                return exact
            exact = relaxed


class TransitionLog:
    """Append-only core-state transition log for batched energy sweeps.

    Four parallel flat buffers — timestamp, core id, resolved power
    draw, resolved breakdown-bucket index — appended by
    ``EnergyAccountant.set_state`` and drained in order by its replay
    sweep (compiled when available, Python otherwise).  Replaying in
    append order reproduces the exact float summation order of the
    eager per-edge accrual (global chronological interleaving across
    cores), so prefix flushes at sync points are bitwise-neutral.

    Power and bucket are resolved *at append time*: they are pure
    functions of the (interned) core state, so resolution order cannot
    change any value, and storing scalars keeps the log free of object
    references — nothing here can alias a recycled ``id()`` across
    cells of a multi-cell worker session.
    """

    __slots__ = ("t", "core", "power", "bidx")

    def __init__(self) -> None:
        self.t: array = array("d")
        self.core: array = array("q")
        self.power: array = array("d")
        self.bidx: array = array("q")

    def __len__(self) -> int:
        return len(self.t)

    def clear(self) -> None:
        self.t = array("d")
        self.core = array("q")
        self.power = array("d")
        self.bidx = array("q")

    def times(self):
        """Logged timestamps as a numpy float64 array (diagnostics)."""
        import numpy as np

        return np.asarray(self.t, dtype=np.float64)


class KernelArena:
    """Reusable kernel buffers + memos for multi-cell worker sessions.

    One arena lives per thread that simulates cells (a thread-local in
    :mod:`repro.harness.executor`); ``reset`` is called between cells.
    Two kinds of state with different lifetimes:

    * **buffers** (:class:`BottomLevelState`, :class:`TransitionLog`) —
      cleared on every reset; purely an allocation amortization;
    * **memos** (``power_memo``, ``machine_cache``) — *value-keyed*
      caches of pure functions of the machine configuration, scoped per
      machine fingerprint and cleared whenever the fingerprint changes.

    The scoping fixes the PR 2 memo-growth hazard: the per-instance
    memos (``EnergyAccountant._power_bucket``, ``Core._state_cache``)
    are keyed by ``id()`` and die with their cell, which is safe but
    repeats work every cell; naively sharing them across cells would
    both grow without bound and alias recycled ids.  The arena's shared
    layer is keyed by value (frozen dataclasses), so an id can never
    alias, and is dropped the moment a different machine shows up.
    """

    __slots__ = ("fingerprint", "power_memo", "machine_cache", "bl", "transitions", "cells")

    def __init__(self) -> None:
        self.fingerprint: Optional[str] = None
        #: CoreState (by value) -> (watts, bucket_index); see EnergyAccountant.
        self.power_memo: dict = {}
        #: machine fingerprint -> parsed MachineConfig (frozen, shareable).
        self.machine_cache: dict = {}
        self.bl = BottomLevelState()
        self.transitions = TransitionLog()
        #: Cells simulated on this arena (diagnostics).
        self.cells: int = 0

    def reset(self, fingerprint: Optional[str]) -> None:
        """Prepare for the next cell; clears memos on machine change."""
        if fingerprint != self.fingerprint:
            self.power_memo.clear()
            self.machine_cache.clear()
            self.fingerprint = fingerprint
        self.bl.clear()
        self.transitions.clear()
        self.cells += 1
