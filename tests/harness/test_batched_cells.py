"""Cells simulated back-to-back on a thread's kernel arena: bitwise
identity and arena memo scoping across machine changes.

Every ``simulate_cell`` call runs on the calling thread's
:class:`~repro.sim.arrays.KernelArena`, which keeps buffers and
machine-scoped memos from one cell to the next purely to amortize setup.
These tests pin the contract that the arena is *observably absent*:
every result is byte-identical to a reference run that builds its own
state (no arena at all).
"""

import dataclasses
import json

from repro.core.policies import run_policy
from repro.harness.executor import (
    CellSpec,
    SweepExecutor,
    _machine_fingerprint,
    _thread_arena,
    simulate_cell,
)
from repro.sim.config import default_machine
from repro.sim.serialize import machine_from_dict, machine_to_dict, result_to_dict
from repro.workloads import build_program

SCALE = 0.05


def _spec(workload="blackscholes", policy="cata", seed=1, fast=8):
    return CellSpec(
        workload=workload, policy=policy, fast=fast, seed=seed, scale=SCALE
    )


def _canon(result) -> str:
    """Canonical byte form of a RunResult (the golden-trace reduction)."""
    return json.dumps(result_to_dict(result), sort_keys=True)


def _reference(spec, machine_dict=None) -> str:
    """The cell run with fresh state everywhere: no arena, nothing shared."""
    machine = machine_from_dict(machine_dict) if machine_dict is not None else None
    program = build_program(
        spec.workload, scale=spec.scale, seed=spec.seed, machine=machine
    )
    return _canon(
        run_policy(
            program, spec.policy, machine=machine, fast_cores=spec.fast,
            seed=spec.seed, trace_enabled=spec.trace_enabled,
        )
    )


MIXED_SPECS = [
    _spec(seed=1),
    _spec(seed=2),
    _spec(workload="swaptions", policy="cats_bl", seed=1),
    _spec(workload="fluidanimate", policy="cata_rsu", seed=3, fast=16),
    _spec(seed=3),
]


def _run(jobs: int):
    results, _ = SweepExecutor(jobs=jobs).run_cells(list(MIXED_SPECS))
    return {s: _canon(results[s]) for s in MIXED_SPECS}


class TestBitwiseIdentity:
    """Executor results (cells back-to-back on one arena per worker
    thread) equal the arena-free reference runs."""

    def test_inline_batched_equals_unbatched(self):
        assert _run(jobs=1) == {s: _reference(s) for s in MIXED_SPECS}

    def test_pool_batched_equals_unbatched(self):
        assert _run(jobs=2) == {s: _reference(s) for s in MIXED_SPECS}


class TestArenaMachineScoping:
    """Back-to-back cells with *different* machines on one thread must
    equal fresh runs — the fingerprint-scoped memos may never leak
    across machines."""

    def _machines(self):
        base = default_machine()
        # Core leakage changes the watts of every core state, so a power
        # memo leaking across machines would show in the energy floats.
        hot = dataclasses.replace(
            base,
            power=dataclasses.replace(
                base.power, leak_w_at_nominal=2.5, uncore_w=25.0
            ),
        )
        return machine_to_dict(base), machine_to_dict(hot)

    def test_machine_change_between_cells_is_invisible(self):
        dict_a, dict_b = self._machines()
        spec = _spec(seed=1)
        fresh_a = _reference(spec, dict_a)
        fresh_b = _reference(spec, dict_b)
        assert fresh_a != fresh_b  # the machines genuinely differ

        cells0 = _thread_arena().cells
        session = [
            _canon(simulate_cell(spec, dict_a)[0]),
            _canon(simulate_cell(spec, dict_b)[0]),
            _canon(simulate_cell(spec, dict_a)[0]),
        ]
        assert session == [fresh_a, fresh_b, fresh_a]
        assert _thread_arena().cells == cells0 + 3

    def test_same_machine_session_reuses_memos(self):
        dict_a, _ = self._machines()
        arena = _thread_arena()
        first = _canon(simulate_cell(_spec(seed=1), dict_a)[0])
        memo_after_first = dict(arena.power_memo)
        assert memo_after_first  # warm
        second = _canon(simulate_cell(_spec(seed=1), dict_a)[0])
        assert first == second
        assert arena.fingerprint == _machine_fingerprint(dict_a)
        # Same fingerprint: the memo survived (possibly grew, never reset).
        for key, value in memo_after_first.items():
            assert arena.power_memo[key] == value

    def test_machine_change_clears_fingerprint_memos(self):
        dict_a, dict_b = self._machines()
        arena = _thread_arena()
        simulate_cell(_spec(seed=1), dict_a)
        assert arena.machine_cache  # cached parsed machine
        simulate_cell(_spec(seed=1), dict_b)
        assert arena.fingerprint == _machine_fingerprint(dict_b)
        assert _machine_fingerprint(dict_a) not in arena.machine_cache

    def test_default_machine_session_uses_sentinel_fingerprint(self):
        simulate_cell(_spec(seed=1), None)
        arena = _thread_arena()
        assert arena.fingerprint == "default-machine"
        assert "default-machine" in arena.machine_cache
