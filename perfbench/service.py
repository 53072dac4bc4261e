"""``service_openloop``: ``repro serve --jobs 1`` driven open-loop.

The generator submits on a seeded schedule at a few fixed rates (a rate
ladder), each rung in turn; a request's latency runs from its due time to
the end of the fetch of its results.  One process drives the load with
two threads, each with one connection at a time: the *sender* submits at
due times, the *completer* long-polls the oldest unfinished job of each
client and fetches finished jobs.  On the top rung, which measures the
service's capacity, the completer sends half the jobs instead and times
the drain (see :class:`Driver`).

Three kinds of job arrive in turn, one of each per block of three job
slots (:data:`BLOCK`):

* ``cold``   one never-seen paper-scale Figure 4 cell (``fifo`` or
             ``cata`` at 8 fast cores, the two alternating so consecutive
             cold jobs pair up): low criticality, client ``batch``;
* ``qos``    one qos-bounded two-tenant scenario cell: high criticality,
             client ``interactive``;
* ``repeat`` a re-submission of a seeded pick of the earlier cold and qos
             jobs (done, or still in flight), so it takes the warm-cache
             or dedup path; it keeps the client and criticality of the job
             it repeats.

The repository records no service traffic, so these equal shares and the
even pacing are assumed, not measured.  Every fetched result's
fingerprint is compared with the same cell simulated in-process during
set-up.
"""

from __future__ import annotations

import collections
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import common
from common import (
    BENCH_DIR,
    FIG4_WORKLOADS,
    NPROC,
    RunDir,
    derived_seed,
    log,
    median,
    percentile,
)

#: (rate in jobs/s, share of ``--seconds`` spent sending at it).  Why
#: these: the single service worker completes about 9-20 jobs/s of this
#: mix on a 2-core host (a block of three jobs costs it 0.15-0.3 s of
#: simulation and request handling; the host's speed drifts within that
#: range).  The base rung (4/s, 20-45% load) is where latency is reported:
#: queues stay short, so latency shows per-job cost, and the generator
#: keeps its schedule even when the host is at its slowest.  The middle
#: rung (7/s, 35-80%) should still be sustained; the top rung (40/s, sent
#: over two connections) offers more than the service completes, so it
#: measures the completion rate under overload (``max_rate_jobs_per_s``)
#: and brackets the capacity from above.
RUNG_PLAN: tuple[tuple[float, float], ...] = ((4.0, 0.5), (7.0, 0.25), (40.0, 0.25))
#: p99 latency limit a rung must meet to count as sustained: ten times a
#: cold cell's latency on an idle service (~0.1 s), a few times the slowest
#: paper-scale cell (~0.4 s).
LATENCY_LIMIT_S = 1.5
#: A rung whose generator sent later than this (p99), or offered less than
#: :data:`MIN_OFFERED` of its rate, did not offer its load: it is invalid
#: rather than slow.  One connection submits, and a submit waits for the
#: daemon's interpreter lock while cells simulate (round trips of up to
#: ~200 ms under load, several in a row), so the bound is half the latency
#: limit; lag up to it is charged to latency, which runs from the due time.
SEND_LAG_BOUND_S = 0.75
MIN_OFFERED = 0.9
#: Queued jobs a rung may add (or a quarter of its jobs, if more) before
#: its backlog counts as growing.
BACKLOG_SLACK = 5
#: How often ``/v1/healthz`` is read while the top rung drains, and how
#: long it may take to drain (seconds).
DRAIN_POLL_S = 0.05
DRAIN_LIMIT_S = 60.0
#: One block of jobs, as (kind, arrival slot); a slot is ``1/rate``
#: seconds.  Equal shares and even pacing: no record of the service's
#: traffic exists to base other shares on.
BLOCK: tuple[tuple[str, float], ...] = (("cold", 0.0), ("qos", 1.0), ("repeat", 2.0))
#: Long-poll wait on a queued head, and how often the batch head is
#: checked while an interactive job is being long-polled (seconds).  A
#: long-poll returns the moment its job settles, so a long wait costs no
#: latency; it keeps idle polling (which contends with the simulating
#: worker for the daemon's interpreter lock) to five requests a second.
LONG_POLL_S = 0.2
BATCH_POLL_S = 0.2
#: The sender fetches a job resolved at submit itself only when its next
#: send is at least this far off (seconds); otherwise the completer does.
FETCH_HEADROOM_S = 0.1
#: Seeded jitter of each due time, as a share of a job slot.
JITTER = 0.05
#: The qos job: one cell of ``repro latency``'s default two-tenant
#: scenario (a qos-bounded web stream beside a batch stream) at that
#: command's default scale, under cata at 8 fast cores.
QOS_SCALE = 0.3
#: Daemon starts timed for ``setup_s`` (the last one serves the workload).
SETUP_STARTS = 9


@dataclass
class Job:
    index: int
    rung: int
    kind: str
    client: str
    high: bool
    cells: list[dict[str, Any]]
    keys: list[str]
    due: float = 0.0
    sent: float = 0.0
    job_id: str = ""
    cached_at_submit: bool = False
    done: float = 0.0
    refused: bool = False
    error: str = ""
    receipt: dict[str, Any] = field(default_factory=dict)
    results: list[dict[str, Any]] = field(default_factory=list)


def _cell(spec) -> dict[str, Any]:
    from repro.service.protocol import spec_to_dict

    return spec_to_dict(spec)


def rungs_for(seconds: float) -> list[tuple[float, float]]:
    """(rate, send window in s) of each rung for a run of ``seconds``."""
    return [(rate, share * seconds) for rate, share in RUNG_PLAN]


def build_schedule(
    seed: int, rungs: list[tuple[float, float]]
) -> tuple[list[Job], list[Any]]:
    """The seeded job list plus the unique cells it names."""
    from repro.harness.executor import CellSpec
    from repro.harness.latency import LATENCY_TENANTS
    from repro.workloads.scenario import parse_scenario

    rng = random.Random(derived_seed(seed, "service-schedule"))
    scenario = parse_scenario(LATENCY_TENANTS).canonical()
    base = derived_seed(seed, "service-cells") % 100_000 * 1000
    jobs: list[Job] = []
    specs: dict[str, Any] = {}
    earlier: list[tuple[str, bool, Any]] = []
    n_cold = n_qos = 0
    t = 0.0
    for rung, (rate, window) in enumerate(rungs):
        count = int(round(rate * window))
        gap = 1.0 / rate
        for i in range(count):
            kind, offset = BLOCK[i % len(BLOCK)]
            slot = (i // len(BLOCK)) * len(BLOCK) + offset
            if kind == "cold":
                # fifo then cata on the same (workload, seed): the pairs
                # cata_speedup_8 compares.  Workloads cycle; seeds are new.
                pair = n_cold // 2
                spec = CellSpec(
                    FIG4_WORKLOADS[pair % len(FIG4_WORKLOADS)],
                    ("fifo", "cata")[n_cold % 2],
                    8,
                    base + 1 + pair // len(FIG4_WORKLOADS),
                    1.0,
                )
                n_cold += 1
                client, high = "batch", False
            elif kind == "qos":
                n_qos += 1
                spec = CellSpec("web", "cata", 8, base + n_qos, QOS_SCALE,
                                scenario=scenario)
                client, high = "interactive", True
            else:
                client, high, spec = rng.choice(earlier)
            if kind != "repeat":
                earlier.append((client, high, spec))
            specs[spec.key()] = spec
            due = t + (slot + rng.uniform(-JITTER, JITTER)) * gap
            jobs.append(
                Job(
                    index=len(jobs),
                    rung=rung,
                    kind=kind,
                    client=client,
                    high=high,
                    cells=[_cell(spec)],
                    keys=[spec.key()],
                    due=max(t, due),
                )
            )
        t += window
    return jobs, list(specs.values())


# ------------------------------------------------------------------ daemon
class Daemon:
    """One ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, rundir: RunDir, name: str, traced_out: Optional[str]) -> None:
        self.state_dir = rundir.sub(name)
        serve = ["serve", "--port", "0", "--jobs", "1", "--state-dir", self.state_dir]
        if traced_out is not None:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_serve.py"),
                   traced_out, *serve]
        else:
            cmd = [sys.executable, "-m", "repro", *serve]
        self.log_path = rundir.sub(f"{name}.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=rundir.env(), cwd=common.ROOT, stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.url = self._wait_endpoint()
            self.client = self._wait_healthy(t0)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self._log.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _wait_healthy(self, t0: float):
        from repro.service.client import ClientRetryPolicy, ServiceClient, ServiceError

        client = ServiceClient(self.url, retry=ClientRetryPolicy.none())
        while True:
            try:
                client.health()
                return client
            except ServiceError:
                if self.proc.poll() is not None or time.perf_counter() - t0 > 60:
                    raise RuntimeError(f"daemon never answered: {self._tail()}")
                time.sleep(0.002)

    def _tail(self) -> str:
        self._log.flush()
        with open(self.log_path, encoding="utf-8") as fh:
            return fh.read()[-600:]

    def _wait_endpoint(self) -> str:
        path = os.path.join(self.state_dir, "endpoint.json")
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                with open(path, encoding="utf-8") as fh:
                    return json.load(fh)["url"]
            except (OSError, ValueError, KeyError):
                if self.proc.poll() is not None:
                    break
                time.sleep(0.002)
        raise RuntimeError(f"daemon wrote no endpoint: {self._tail()}")

    def stop(self) -> int:
        """Graceful drain (SIGTERM); kill if it overstays."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


# --------------------------------------------------------------- generator
class Driver:
    """Open-loop sender + completer over one daemon.

    On the top rung the completer turns sender too: it sends every other
    job of that rung on its own connection, because one connection cannot
    submit faster than the busy daemon answers (15-25 jobs/s on a 2-core
    host, about the service's capacity there).  Once every job is sent it
    times the drain from ``/v1/healthz`` and then fetches as before.
    """

    def __init__(self, daemon: Daemon, jobs: list[Job], sample_health: bool) -> None:
        from repro.service.client import ClientRetryPolicy, ServiceClient

        self.jobs = jobs
        self.send_client = ServiceClient(daemon.url, retry=ClientRetryPolicy.none())
        self.poll_client = ServiceClient(daemon.url, retry=ClientRetryPolicy.none())
        self.cond = threading.Condition()
        self.outstanding: dict[str, collections.deque] = {
            "batch": collections.deque(), "interactive": collections.deque()
        }
        #: Jobs resolved at submit that the sender left for the completer.
        self.ready: collections.deque = collections.deque()
        self.sending_done = False
        self.top_rung = max(j.rung for j in jobs)
        #: The completer's share of the top rung's sends.
        self.assist = [j for j in jobs if j.rung == self.top_rung][1::2]
        assist = {j.index for j in self.assist}
        self.own = [j for j in jobs if j.index not in assist]
        #: When ``/v1/healthz`` first showed no cell pending or running
        #: after the last send.
        self.drain_end = 0.0
        self.timings: dict[str, list[float]] = collections.defaultdict(list)
        #: (time, outstanding jobs) sampled at every send.
        self.backlog: list[tuple[float, int]] = []
        #: ``/v1/healthz`` samples (traced runs only: queue depth).
        self.sample_health = sample_health
        self.health: list[dict[str, Any]] = []
        self.fatal = ""

    def run(self, t0: float) -> None:
        self.t0 = t0
        completer = threading.Thread(target=self._complete, name="completer")
        completer.start()
        try:
            self._send(self.own, self.send_client)
        finally:
            with self.cond:
                self.sending_done = True
                self.cond.notify_all()
            completer.join(timeout=120)
        if completer.is_alive():
            raise RuntimeError("completer did not finish within 120 s")
        if self.fatal:
            raise RuntimeError(self.fatal)

    def _in_flight(self) -> int:
        return sum(len(q) for q in self.outstanding.values())

    def _send(self, jobs: list[Job], client: Any) -> None:
        from repro.service.client import ServiceError

        for i, job in enumerate(jobs):
            due = self.t0 + job.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            job.sent = time.perf_counter()
            with self.cond:
                self.backlog.append((job.sent - self.t0, self._in_flight()))
            body = {"client": job.client, "cells": job.cells,
                    "idempotency_key": f"bench-{job.index}"}
            try:
                receipt = client.submit_body(body)
            except ServiceError as exc:
                job.refused = exc.status in (429, 503)
                job.error = str(exc)
                job.done = float("inf")
                continue
            finally:
                self.timings["submit"].append(time.perf_counter() - job.sent)
            job.receipt = receipt
            job.job_id = receipt["job"]
            job.cached_at_submit = receipt["pending"] == 0 and receipt["attached"] == 0
            next_due = jobs[i + 1].due if i + 1 < len(jobs) else float("inf")
            if (job.cached_at_submit
                    and self.t0 + next_due - time.perf_counter() > FETCH_HEADROOM_S):
                # Already resolved and the next send is not close: fetch on
                # the sender's own connection rather than wait for a poll.
                self._fetch(job, client)
                continue
            with self.cond:
                if job.cached_at_submit:
                    self.ready.append(job)
                else:
                    self.outstanding[job.client].append(job)
                self.cond.notify_all()

    def _fetch(self, job: Job, client: Any) -> None:
        from repro.service.client import ServiceError

        t = time.perf_counter()
        try:
            payload = client.fetch(job.job_id)
        except ServiceError as exc:
            job.error = f"fetch: {exc}"
            job.done = float("inf")
            return
        now = time.perf_counter()
        self.timings["fetch"].append(now - t)
        job.results = payload["results"]
        job.done = now

    def _poll(self, job: Job, wait_s: float) -> bool:
        from repro.service.client import ServiceError

        t = time.perf_counter()
        try:
            status = self.poll_client.status(job.job_id, wait_s=wait_s)
        except ServiceError as exc:
            job.error = f"status: {exc}"
            job.done = float("inf")
            return True
        self.timings["status"].append(time.perf_counter() - t)
        if status["state"] == "failed":
            job.error = "job failed in the service"
            job.done = float("inf")
            return True
        return status["state"] == "done"

    def _settle(self, job: Job, wait_s: float) -> None:
        """Poll one queued head; once it settles, dequeue and fetch it."""
        if not self._poll(job, wait_s):
            return
        with self.cond:
            self.outstanding[job.client].popleft()
        if job.done != float("inf"):
            self._fetch(job, self.poll_client)

    def _complete(self) -> None:
        """Watch the queued jobs of both clients over one connection.

        The interactive head is long-polled (the daemon answers the moment
        it settles); the batch head, whose cells take up to a few hundred
        milliseconds, is checked without waiting every :data:`BATCH_POLL_S` meanwhile, so
        neither client's completions are noticed late and the daemon sees
        few extra requests.
        """
        last_batch = last_health = 0.0
        try:
            while True:
                with self.cond:
                    while (
                        not self.ready
                        and not any(self.outstanding.values())
                        and not self.sending_done
                        and not self._assist_due()
                    ):
                        self.cond.wait(timeout=0.05)
                    assist = self._assist_due()
                    if (
                        not assist
                        and self.sending_done
                        and not self.ready
                        and not any(self.outstanding.values())
                    ):
                        return
                    ready = list(self.ready)
                    self.ready.clear()
                    inter = self.outstanding["interactive"]
                    batch = self.outstanding["batch"]
                    inter_head = inter[0] if inter else None
                    batch_head = batch[0] if batch else None
                for job in ready:
                    self._fetch(job, self.poll_client)
                if assist:
                    self._send(self.assist, self.poll_client)
                    self.assist = []
                    self._await_drain()
                    continue
                now = time.perf_counter()
                if batch_head is not None and (
                    inter_head is None or now - last_batch >= BATCH_POLL_S
                ):
                    last_batch = now
                    self._settle(batch_head, LONG_POLL_S if inter_head is None else 0.0)
                if inter_head is not None:
                    self._settle(inter_head, LONG_POLL_S)
                if self.sample_health and now - last_health >= 0.25:
                    last_health = now
                    self.health.append(self.poll_client.health())
        except Exception as exc:  # surfaced by run() after the join
            self.fatal = f"completer: {type(exc).__name__}: {exc}"
            with self.cond:
                for queue in self.outstanding.values():
                    queue.clear()

    def _assist_due(self) -> bool:
        """The top rung has begun and every earlier job is settled (call
        with the lock held): the completer's turn to send."""
        if not self.assist or time.perf_counter() < self.t0 + self.assist[0].due:
            return False
        return not any(j.rung < self.top_rung for j in self.ready) and not any(
            q and q[0].rung < self.top_rung for q in self.outstanding.values()
        )

    def _await_drain(self) -> None:
        """After the last send, poll ``/v1/healthz`` until no cell is left
        pending or running, and note when.  A service that does not drain
        within :data:`DRAIN_LIMIT_S` leaves ``drain_end`` unset; its
        unfinished jobs then fail the run."""
        with self.cond:
            while not self.sending_done:
                self.cond.wait(timeout=0.05)
        deadline = time.perf_counter() + DRAIN_LIMIT_S
        while time.perf_counter() < deadline:
            health = self.poll_client.health()
            if self.sample_health:
                self.health.append(health)
            if health["active_cells"] == 0:
                self.drain_end = time.perf_counter()
                return
            time.sleep(DRAIN_POLL_S)


# --------------------------------------------------------------- workload
def _reference(specs: list[Any]) -> tuple[dict[str, str], dict[str, int]]:
    """In-process fingerprints of every cell the schedule names, and the
    exact work counters summed over those cells."""
    import tracing
    from repro.harness.executor import SweepExecutor
    from repro.service.protocol import result_fingerprint

    executor = SweepExecutor(jobs=NPROC, cell_fn=tracing.counted_cell)
    results, _ = executor.run_cells(specs)
    common.reap_children()
    counters: dict[str, int] = collections.Counter()
    for r in results.values():
        counters.update({k: int(v) for k, v in tracing.cell_counters(r).items()})
    return (
        {spec.key(): result_fingerprint(r) for spec, r in results.items()},
        dict(counters),
    )


def _daemon_peak_rss_mb(pid: int) -> float:
    """High-water RSS of a live process (``VmHWM``), MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class RungReport:
    rate: float
    offered: float
    jobs: int
    p50: float
    p99: float
    p99_high: float
    lag_p99: float
    backlog_grew: bool
    valid: bool
    meets: bool


def _rung_reports(
    jobs: list[Job], driver: Driver, rungs: list[tuple[float, float]]
) -> list[RungReport]:
    reports = []
    for rung, (rate, window) in enumerate(rungs):
        mine = [j for j in jobs if j.rung == rung]
        lat = [j.done - driver.t0 - j.due for j in mine]
        high = [j.done - driver.t0 - j.due for j in mine if j.high]
        lags = [j.sent - driver.t0 - j.due for j in mine]
        # Jobs over the window, stretched by however late the last send was.
        offered = len(mine) / (window + mine[-1].sent - driver.t0 - mine[-1].due)
        top = rung == driver.top_rung
        if top:
            # Nothing is fetched while the top rung sends, so its backlog
            # grew when the service was still busy well after the last send.
            last_sent = max(j.sent for j in mine)
            grew = driver.drain_end - last_sent > 0.25 * window
        else:
            # The backlog grew when the rung left clearly more jobs queued
            # than it found: the short-lived queue behind a slow cell is not
            # growth.
            start = min(j.due for j in mine)
            samples = [n for t, n in driver.backlog if start <= t <= start + window]
            grew = samples[-1] - samples[0] > max(BACKLOG_SLACK, 0.25 * len(mine))
        lag_p99 = percentile(lags, 0.99)
        valid = lag_p99 <= SEND_LAG_BOUND_S and offered >= MIN_OFFERED * rate
        p99 = percentile(lat, 0.99)
        reports.append(
            RungReport(
                rate=rate,
                offered=offered,
                jobs=len(mine),
                p50=percentile(lat, 0.50),
                p99=p99,
                p99_high=percentile(high, 0.99),
                lag_p99=lag_p99,
                backlog_grew=grew,
                valid=valid,
                meets=not top and valid and not grew and p99 <= LATENCY_LIMIT_S,
            )
        )
    return reports


@dataclass
class Measurement:
    """One daemon serving the whole schedule."""

    jobs: list[Job]
    driver: Driver
    setup_s: float
    health0: dict[str, Any]
    health1: dict[str, Any]
    #: The daemon's own peak RSS, read before it drained (MiB).
    peak_rss_mb: float
    exit_code: int
    reports: list[RungReport]


def _measure(rundir: RunDir, name: str, schedule: list[Job],
             rungs: list[tuple[float, float]],
             traced_out: Optional[str]) -> Measurement:
    """Start a fresh daemon and drive the schedule through it."""
    jobs = [Job(**{**j.__dict__, "results": [], "receipt": {}}) for j in schedule]
    daemon = Daemon(rundir, name, traced_out)
    try:
        health0 = daemon.client.health()
        driver = Driver(daemon, jobs, sample_health=traced_out is not None)
        driver.run(time.perf_counter() + 0.05)
        health1 = daemon.client.health()
        rss = _daemon_peak_rss_mb(daemon.proc.pid)
    finally:
        code = daemon.stop()
    return Measurement(jobs, driver, daemon.setup_s, health0, health1, rss, code,
                       _rung_reports(jobs, driver, rungs))


def _check(m: Measurement, ref: dict[str, str]) -> tuple[int, list[str], list[dict]]:
    """Failed jobs, failure messages and the cold fifo/cata result pairs."""
    failures = []
    if m.exit_code != 0:
        failures.append(f"daemon drained with exit code {m.exit_code}")
    base = m.reports[0]
    if not base.valid:
        failures.append(
            f"generator lagged {base.lag_p99 * 1000:.1f} ms (p99) on the base rung, "
            f"past the {SEND_LAG_BOUND_S * 1000:.0f} ms bound: run invalid"
        )
    failed = 0
    cold: dict[tuple[str, int], dict[str, dict]] = collections.defaultdict(dict)
    for job in m.jobs:
        if not job.error and not job.refused and not job.done:
            job.error = "never completed"
        if not job.error and not job.refused:
            if [row["key"] for row in job.results] != job.keys:
                job.error = "results do not match the submitted cells"
            for row in job.results:
                if row["fingerprint"] != ref.get(row["key"]):
                    job.error = f"fingerprint of {row['label']} differs from in-process"
                if job.kind == "cold":
                    cell = row["cell"]
                    cold[(cell["workload"], cell["seed"])][cell["policy"]] = row["result"]
        if job.error or job.refused:
            failed += 1
            failures.append(f"job {job.index} ({job.kind}): {job.error or 'refused'}")
    pairs = [v for v in cold.values() if "fifo" in v and "cata" in v]
    if not pairs:
        failures.append("no complete cold fifo/cata pair was served")
    return failed, failures, pairs


def _log_rungs(m: Measurement) -> None:
    t0 = m.driver.t0
    for i, r in enumerate(m.reports):
        if i == m.driver.top_rung:
            log(
                f"rung {i} (capacity): {r.rate:g}/s offered {r.offered:.2f}/s, "
                f"{r.jobs} jobs, send lag p99 {r.lag_p99 * 1000:.1f} ms, drained "
                f"{(m.driver.drain_end - t0 - max(j.due for j in m.jobs)):.2f} s "
                f"after the last due time, completed {_saturation_rate(m):.2f} jobs/s"
                + ("" if r.backlog_grew else
                   " (no backlog built: the generator, not the service, set the "
                   "rate; the capacity is higher)")
            )
            continue
        log(
            f"rung {i}: {r.rate:g}/s offered {r.offered:.2f}/s, {r.jobs} jobs, "
            f"p50 {r.p50 * 1000:.1f} ms, p99 {r.p99 * 1000:.1f} ms, "
            f"p99 high {r.p99_high * 1000:.1f} ms, send lag p99 "
            f"{r.lag_p99 * 1000:.1f} ms, backlog {'GREW' if r.backlog_grew else 'flat'}"
            f"{'' if r.valid else ', INVALID (generator lagged)'}"
            f"{', meets limit' if r.meets else ''}"
        )
    base_jobs = [j for j in m.jobs if j.rung == 0]
    worst = sorted(base_jobs, key=lambda j: j.done - j.due, reverse=True)[:5]
    log("base rung slowest: " + "; ".join(
        f"#{j.index} {j.kind} {(j.done - t0 - j.due) * 1000:.0f} ms "
        f"(lag {(j.sent - t0 - j.due) * 1000:.0f}, "
        f"{'cached' if j.cached_at_submit else 'queued'})" for j in worst))
    for kind in ("cold", "qos", "repeat"):
        lat = [j.done - t0 - j.due for j in base_jobs if j.kind == kind]
        log(f"base rung {kind}: n={len(lat)} p50 {percentile(lat, 0.5) * 1000:.1f} ms "
            f"max {max(lat, default=0) * 1000:.1f} ms")
    passing = [r.rate for r in m.reports if r.meets]
    log(f"highest rung meeting the {LATENCY_LIMIT_S:g} s p99 limit: "
        f"{passing[-1] if passing else 'none'} jobs/s")
    log(f"latency samples at base rate: {len(base_jobs)} jobs "
        f"({sum(j.high for j in base_jobs)} high-criticality)")
    for name in ("submit", "status", "fetch"):
        t = m.driver.timings[name]
        log(f"client {name}: n={len(t)} p50 {percentile(t, 0.5) * 1000:.1f} ms "
            f"p99 {percentile(t, 0.99) * 1000:.1f} ms max {max(t, default=0) * 1000:.1f} ms")


def _saturation_rate(m: Measurement) -> float:
    """Jobs per second the service completes while the top rung overloads it.

    The top rung offers more than the worker can serve, so its jobs finish
    at the service's capacity for this mix: the rate above which the
    backlog grows, measured continuously rather than read off the ladder.
    It runs from the rung's first due time until ``/v1/healthz`` shows the
    service idle again: rates over shorter windows inside it swing with
    whether cold cells or repeats happen to settle there.
    """
    top = [j for j in m.jobs if j.rung == m.driver.top_rung]
    span = m.driver.drain_end - m.driver.t0 - top[0].due
    return len(top) / span if span > 0 else 0.0


def _service_layer(m: Measurement) -> dict[str, float]:
    """Client-observed ``service.*`` per-layer metrics."""
    timings = m.driver.timings
    over = m.health1["overload"]
    receipts = [j.receipt for j in m.jobs if j.receipt]
    cells = sum(r["cells"] for r in receipts)
    reused = sum(r["deduped"] + r["attached"] + r["cached"] for r in receipts)
    fetched = [row for j in m.jobs for row in j.results]
    return {
        "service.submit.p50_s": percentile(timings["submit"], 0.50),
        "service.submit.p99_s": percentile(timings["submit"], 0.99),
        "service.status.p50_s": percentile(timings["status"], 0.50),
        "service.fetch.p50_s": percentile(timings["fetch"], 0.50),
        "service.fetch.p99_s": percentile(timings["fetch"], 0.99),
        "service.admitted": float(over.get("admitted", 0)),
        "service.shed_low": float(over.get("shed_low", 0)),
        "service.shed_high": float(over.get("shed_high", 0)),
        "service.queue_depth.max": float(
            max((h["active_cells"] for h in m.driver.health), default=0)
        ),
        "service.dedup_ratio": reused / cells if cells else 0.0,
        "service.cache_hit_ratio": (
            sum(1 for row in fetched if row["from_cache"]) / len(fetched)
            if fetched else 0.0
        ),
        "service.sim_s": m.health1["stats"]["sim_seconds"]
        - m.health0["stats"]["sim_seconds"],
        "service.send_lag_p99_s": m.reports[0].lag_p99,
    }


def run_and_report(args, rundir: RunDir, compile_s: float, tracer):
    rungs = rungs_for(args.seconds)
    schedule, specs = build_schedule(args.seed, rungs)
    t_ref = time.perf_counter()
    ref, work = _reference(specs)
    log(f"set-up: {len(ref)} reference cells in {time.perf_counter() - t_ref:.2f}s; "
        f"{len(schedule)} jobs on rungs "
        + ", ".join(f"{r:g}/s x {w:.1f}s" for r, w in rungs))
    setup_times = []
    for i in range(SETUP_STARTS - 1):
        probe = Daemon(rundir, f"probe-{i}", None)
        setup_times.append(probe.setup_s)
        probe.stop()

    plain = _measure(rundir, "state", schedule, rungs, None)
    setup_times.append(plain.setup_s)
    m = plain
    if tracer is not None:
        # The same schedule again on a traced daemon; the untraced run above
        # is its twin for the tracing overhead.
        spans_out = rundir.sub("daemon-trace.json")
        m = _measure(rundir, "state-traced", schedule, rungs, spans_out)
    failed, failures, pairs = _check(m, ref)
    _log_rungs(m)

    speedup = [v["fifo"]["exec_time_ns"] / v["cata"]["exec_time_ns"] for v in pairs]
    edp = [
        (v["cata"]["energy_j"] * v["cata"]["exec_time_ns"])
        / (v["fifo"]["energy_j"] * v["fifo"]["exec_time_ns"])
        for v in pairs
    ]
    cata = (
        sum(speedup) / len(speedup) if pairs else 0.0,
        sum(edp) / len(edp) if pairs else 0.0,
    )
    log(f"cold fifo/cata pairs served: {len(pairs)} (workload, seed) pairs")
    common.paper_lines(cata[0], cata[1], "service cold cells")

    # Work the schedule names (summed over its unique cells, simulated
    # in-process in set-up) and what the daemon was asked for and simulated.
    counters = {
        **work,
        "jobs": len(m.jobs),
        "cells.requested": sum(len(j.keys) for j in m.jobs),
        "cells.simulated": m.health1["stats"]["simulated"]
        - m.health0["stats"]["simulated"],
    }
    if tracer is not None:
        with open(spans_out, encoding="utf-8") as fh:
            state = json.load(fh)
        out = os.path.join(common.OUT_ROOT, f"spans-{args.workload}-s{args.seed}.jsonl")
        tracer.spans.extend(state["spans"])
        tracer.dump(out)
        log(f"wrote {len(state['spans'])} daemon spans to "
            f"{os.path.relpath(out, common.ROOT)}")
        overhead = m.reports[0].p50 / plain.reports[0].p50 - 1.0
        log(f"tracing overhead: base-rung p50 {m.reports[0].p50 * 1000:.1f} ms traced "
            f"vs {plain.reports[0].p50 * 1000:.1f} ms untraced ({overhead * 100:+.1f}%)")
        probes = [common.run_probe(["--import"], rundir.env())[1] for _ in range(3)]
        from metrics import layer_metrics

        values = layer_metrics(state, probes, compile_s, overhead, _service_layer(m))
    else:
        # Cells fetched per second, from the first job being due to the last
        # fetch; the top rung's backlog makes the drain time part of it.
        finished = [j.done for j in m.jobs if j.done != float("inf")]
        span = max(finished, default=m.driver.t0) - m.driver.t0 - m.jobs[0].due
        base = m.reports[0]
        values = {
            "setup_s": median(setup_times),
            "cells_per_s": sum(len(j.results) for j in m.jobs) / span if span > 0 else 0.0,
            "peak_rss_mb": m.peak_rss_mb,
            "latency_p50_s": base.p50,
            "latency_p99_s": base.p99,
            "latency_p99_high_s": base.p99_high,
            "max_rate_jobs_per_s": _saturation_rate(m),
            "cata_speedup_8": cata[0],
            "cata_norm_edp_8": cata[1],
        }
    return (len(m.jobs), failed, values, failures, counters)
