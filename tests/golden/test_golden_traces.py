"""Golden-trace regression tests: the optimized stack must be bitwise-exact.

The committed fixture ``golden_traces.json`` was generated from the
pre-optimization engine (see ``regenerate.py``).  Each test re-runs one
(workload, policy) cell through the current code and compares the SHA-256
of the canonical serialized ``RunResult`` — trace records, energy floats,
event ordering, everything.  A mismatch means an "optimization" changed
observable behaviour.
"""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from regenerate import (  # noqa: E402
    GOLDEN_FAST,
    GOLDEN_PATH,
    GOLDEN_POLICIES,
    GOLDEN_SCALE,
    GOLDEN_SEED,
    fingerprint,
    run_cell,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _cells():
    doc = json.loads(GOLDEN_PATH.read_text())
    return sorted(doc["cells"])


def test_fixture_covers_all_six_workloads_and_both_policies(golden):
    workloads = {c.split("/")[0] for c in golden["cells"]}
    policies = {c.split("/")[1] for c in golden["cells"]}
    assert len(workloads) == 6
    assert policies == set(GOLDEN_POLICIES)


@pytest.mark.parametrize("cell", _cells())
def test_trace_is_bitwise_identical_to_golden(golden, cell):
    workload, policy = cell.split("/")
    result = run_cell(workload, policy)
    expected = golden["cells"][cell]
    assert result.tasks_executed == expected["tasks_executed"]
    assert result.exec_time_ns == expected["exec_time_ns"]
    assert fingerprint(result) == expected["sha256"], (
        f"{cell}: serialized RunResult diverged from the pre-optimization "
        "golden trace — the change is not output-preserving"
    )


# ------------------------------------------------- array-kernel toggling
#: Representative cells re-fingerprinted under each kernel backend: one
#: software-reconfiguration policy and one BL-estimator policy, including
#: the pipeline benchmark whose chains stress the relaxation walk.
TOGGLE_CELLS = ("fluidanimate/cata", "dedup/cats_bl")


@pytest.mark.parametrize("toggle", ["1", "0", "py"])
@pytest.mark.parametrize("cell", TOGGLE_CELLS)
def test_golden_identical_under_kernel_toggle(golden, cell, toggle, monkeypatch):
    """Kernels forced on, off, and pure-Python all hit the golden hash."""
    monkeypatch.setenv("REPRO_ARRAY_KERNELS", toggle)
    workload, policy = cell.split("/")
    result = run_cell(workload, policy)
    assert fingerprint(result) == golden["cells"][cell]["sha256"], (
        f"{cell} diverged from golden with REPRO_ARRAY_KERNELS={toggle} — "
        "the kernel toggle changed observable output"
    )


@pytest.mark.parametrize("toggle", ["1", "0"])
def test_faulted_cell_identical_under_kernel_toggle(toggle, monkeypatch):
    """A chaos-spec cell is backend-invariant too (no golden hash is
    committed for faulted runs; the kernels-off run is the reference)."""
    from repro.core.policies import run_policy
    from repro.workloads import build_program

    def faulted_fingerprint():
        program = build_program("bodytrack", scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
        result = run_policy(
            program, "cata_rsu", fast_cores=GOLDEN_FAST, seed=GOLDEN_SEED,
            trace_enabled=True, faults="chaos:intensity=0.5,horizon=4ms",
        )
        return fingerprint(result)

    monkeypatch.setenv("REPRO_ARRAY_KERNELS", "0")
    reference = faulted_fingerprint()
    monkeypatch.setenv("REPRO_ARRAY_KERNELS", toggle)
    assert faulted_fingerprint() == reference


# ------------------------------------------- production path (arena)
def _golden_spec(cell):
    from repro.harness.executor import CellSpec

    workload, policy = cell.split("/")
    return CellSpec(
        workload=workload, policy=policy, fast=GOLDEN_FAST, seed=GOLDEN_SEED,
        scale=GOLDEN_SCALE, trace_enabled=True,
    )


def _hot_machine_dict():
    import dataclasses

    from repro.sim.config import default_machine
    from repro.sim.serialize import machine_to_dict

    base = default_machine()
    # Core leakage changes the watts of every core state: a power memo
    # leaking across machines would show in the energy floats.
    power = dataclasses.replace(base.power, leak_w_at_nominal=2.5)
    return machine_to_dict(dataclasses.replace(base, power=power))


def test_golden_cells_back_to_back_through_simulate_cell(golden):
    """All golden cells run through the executor's ``simulate_cell`` on
    one thread — so on one kernel arena — in a non-sorted order, with a
    different-machine cell interleaved to flip the arena's machine
    scope midway; each still hits its committed hash, and the
    interleaved cell matches its own arena-free run."""
    from repro.core.policies import run_policy
    from repro.harness.executor import simulate_cell
    from repro.sim.serialize import machine_from_dict
    from repro.workloads import build_program

    cells = sorted(golden["cells"])
    order = cells[1::2] + cells[0::2]
    assert order != cells
    hot = _hot_machine_dict()
    hot_machine = machine_from_dict(hot)
    hot_reference = fingerprint(
        run_policy(
            build_program(
                "dedup", scale=GOLDEN_SCALE, seed=GOLDEN_SEED, machine=hot_machine
            ),
            "cats_bl", machine=hot_machine, fast_cores=GOLDEN_FAST,
            seed=GOLDEN_SEED, trace_enabled=True,
        )
    )
    for i, cell in enumerate(order):
        if i == len(order) // 2:
            result, _ = simulate_cell(_golden_spec("dedup/cats_bl"), hot)
            assert fingerprint(result) == hot_reference
        result, _ = simulate_cell(_golden_spec(cell), None)
        assert fingerprint(result) == golden["cells"][cell]["sha256"], (
            f"{cell} diverged from golden after {i} earlier cells on the "
            "same thread's kernel arena"
        )


def test_golden_cells_on_concurrent_threads(golden):
    """Four threads simulating golden cells at once, switching often, each
    get their own arena; no thread's buffers or memos leak into another's
    results."""
    import sys
    import threading

    from repro.harness.executor import simulate_cell

    cells = sorted(golden["cells"])
    shares = [cells[i::4] for i in range(4)]
    fingerprints: dict[str, str] = {}
    errors: list[Exception] = []
    start = threading.Barrier(len(shares), timeout=60)

    def worker(share):
        try:
            start.wait()
            for cell in share:
                result, _ = simulate_cell(_golden_spec(cell), None)
                fingerprints[cell] = fingerprint(result)
        except Exception as exc:  # surfaced in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in shares]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert fingerprints == {cell: golden["cells"][cell]["sha256"] for cell in cells}
