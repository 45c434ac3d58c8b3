"""One workload's run: set-ups, timed phases, restarts, correctness.

See ``run.py`` for the metrics.  Everything here runs in the load
process, which is pinned to one core and owns the asyncio loop that
drives the generator; the server's process tree runs beside it.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from loadgen import LoadGenerator, PhaseResult, percentile
from metrics import Spans, delta, flatten, summed
from procs import Server, cpu_seconds
from traffic import DECIDE, PEEK, Traffic, build_traffic, digest_streams, reference_results

TRACER = Path(__file__).resolve().parent / "tracer"


class Plan:
    """How a run of *seconds* splits up, and the traffic it needs.

    The untraced run (end-to-end metrics) spends *seconds* at the high
    rate, in segments of ``cpu_segment_s``, with requests falling due
    in groups of ``cpu_group``.  The SLO phases of the
    traced run spend half of it at the fixed low and high rates,
    in ``rounds`` alternating segments of each so that a passing
    disturbance of the machine does not land on one of them alone, and
    about the other half on the capacity search: a few probes of
    ``rung_s`` each.
    """

    def __init__(self, method: Dict, workload: Dict, seconds: float):
        self.seconds = seconds
        self.rung_s = float(method["rung_s"])
        self.rounds = max(2, int(0.5 * seconds / self.rung_s))
        self.segment_s = 0.25 * seconds / self.rounds
        self.cpu_segments = max(1, round(seconds / method["cpu_segment_s"]))
        self.cpu_group = int(method["cpu_group"])
        ladder = workload["ladder"]
        # A fixed geometric ladder from start/span to start*span.
        reach = math.ceil(math.log(ladder["span"]) / math.log(ladder["step"]))
        self.rungs = [ladder["start"] * ladder["step"] ** k for k in range(-reach, reach + 1)]
        self.start = reach
        self.limit_s = workload["latency_limit_ms"] / 1000.0
        self.backlog_sample_s = float(method["backlog_sample_s"])
        # Enough operations for the untraced run; the traffic repeats
        # if a run needs more.
        self.events = int(
            workload["warmup_ops"] * method["setups"]
            + seconds * workload["high_rate"]
            + workload["tail_ops"]
        )


def windowed(latencies: List[float], q: float, size: int = 1000) -> float:
    """The median over consecutive windows of *size* samples of the
    *q* percentile (the whole set when it holds under two windows).

    1,000 samples is the smallest window whose p99 has ten samples
    beyond it.  The median over windows is the percentile of a typical
    stretch of traffic, which a short stall of the machine the
    benchmark shares does not move.
    """
    if len(latencies) < 2 * size:
        return percentile(latencies, q)
    chunks = [latencies[i : i + size] for i in range(0, len(latencies) - size + 1, size)]
    return statistics.median(percentile(chunk, q) for chunk in chunks)


def middle_mean(values: List[float]) -> float:
    """The mean of the middle half of *values* (the interquartile mean)."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.mean(ordered[quarter : len(ordered) - quarter])


# ----------------------------------------------------------------------
# The server under test
# ----------------------------------------------------------------------
def launch(workload: Dict, directory: Path, log: Path, *, trace_dir: Optional[Path] = None) -> Server:
    directory.mkdir(parents=True, exist_ok=True)
    flags = [flag.replace("{run}", str(directory)) for flag in workload["serve_flags"]]
    root = Path.cwd()
    pythonpath = str(root / "src")
    env = {}
    if trace_dir is not None:
        pythonpath = f"{TRACER}{os.pathsep}{pythonpath}"
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return Server(
        root, flags, log, pythonpath=pythonpath, env=env,
        cpus=workload["server_cpus"],
    ).start()


# ----------------------------------------------------------------------
# The capacity ladder
# ----------------------------------------------------------------------
async def probe(gen: LoadGenerator, plan: Plan, rate: float) -> Tuple[bool, PhaseResult]:
    """One rung: open loop at *rate* for ``rung_s``; does it keep up?"""
    phase = await measure(gen, "rung", rate, plan.rung_s, plan.backlog_sample_s)
    limit = plan.limit_s
    # A growing queue: the backlog at the last two samples all above
    # its peak at the first two by more than 20 ms of arrivals.  One
    # stall of the server raises at most one of them.
    samples = phase.backlogs
    growing = len(samples) >= 4 and min(samples[-2:]) - max(samples[:2]) > 0.02 * rate
    ok = (
        phase.failed == 0
        and not growing
        and windowed(phase.latencies, 99) <= limit
        and windowed(phase.late, 99) <= limit
    )
    await asyncio.sleep(0.2)
    return ok, phase


class Ladder:
    """The capacity search over the fixed rungs, one probe at a time.

    It gallops from the start rung (the workload's, or the one nearest
    a capacity already found), up while probes pass and down while they
    fail, with a stride of 2 rungs that doubles on every step, so it
    reaches either end of the ladder (a factor of ``span`` from the
    workload's start rung) within seven probes.  Then it bisects
    between the highest passing and the lowest failing rung.  Capacity is the rate the server answered at
    on the highest passing rung.  A search that ends at either end of
    the ladder reads the rate at that end and is marked clipped.
    """

    def __init__(self, plan: Plan, near: Optional[float] = None):
        self.rungs = plan.rungs
        self.start = plan.start
        if near is not None:
            self.start = min(range(len(self.rungs)), key=lambda k: abs(math.log(self.rungs[k] / near)))
        self.low: Optional[int] = None
        self.high: Optional[int] = None
        self.stride = 2
        #: rung -> decisions answered per second while it was offered.
        self.delivered: Dict[int, float] = {}

    def next(self) -> Optional[int]:
        """The rung to probe next, or ``None`` when the search is over."""
        low, high = self.low, self.high
        top = len(self.rungs) - 1
        if low is None and high is None:
            return self.start
        if high is None:
            return None if low == top else min(top, low + self.stride)
        if low is None:
            return None if high == 0 else max(0, high - self.stride)
        return (low + high) // 2 if high - low > 1 else None

    def record(self, rung: int, ok: bool, phase: PhaseResult) -> None:
        self.delivered[rung] = (phase.sent - phase.backlog) / phase.window
        if self.low is None or self.high is None:
            self.stride *= 2
        if ok:
            self.low = rung if self.low is None else max(self.low, rung)
        else:
            self.high = rung if self.high is None else min(self.high, rung)
        if self.low is not None and self.high is not None and self.low > self.high:
            self.high = self.low + 1  # noisy, non-monotone: stop here

    def capacity(self) -> Tuple[float, bool]:
        """``(capacity, clipped)``: clipped when the top rung kept up or
        the bottom one did not."""
        if self.high is None or self.low is None:
            end = max(self.delivered) if self.high is None else min(self.delivered)
            print(f"perfbench: capacity search clipped at {self.rungs[end]:.0f}/s",
                  file=sys.stderr)
            return self.delivered[end], True
        return self.delivered[self.low], False


async def capacity(gen: LoadGenerator, plan: Plan, near: Optional[float] = None
                   ) -> Tuple[float, bool]:
    """The capacity search: probe until the ladder brackets it, from
    the start rung or the rung nearest *near*; see :class:`Ladder`."""
    ladder = Ladder(plan, near)
    while True:
        rung = ladder.next()
        if rung is None:
            return ladder.capacity()
        ok, phase = await probe(gen, plan, plan.rungs[rung])
        ladder.record(rung, ok, phase)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def verify(traffic: Traffic, streams: List[Tuple[List, List]]) -> Tuple[bool, int, int]:
    """``(correct, attempted, failed)`` over every stream sent.

    A stream is ``(operations, results)`` for one chain of server
    lifetimes, from the first operation.  Each must equal the in-process
    reference replay of its operations; a replay is shared by every
    stream whose operations are a prefix of its own.
    """
    replays: List[Tuple[List, List]] = []
    correct = True
    attempted = failed = 0
    for ops, results in sorted(streams, key=lambda stream: -len(stream[0])):
        count = len(ops)
        reference = next(
            (replay for replayed, replay in replays if replayed[:count] == ops), None
        )
        if reference is None:
            reference = reference_results(ops, traffic.queries)
            replays.append((ops, reference))
        attempted += count
        for index, result in enumerate(results):
            if result is None or (isinstance(result, dict) and "error" in result):
                if not failed:
                    print(f"perfbench: first failure: op {index} "
                          f"{ops[index][:2]}: {result}", file=sys.stderr)
                failed += 1
        if digest_streams(ops, results) != digest_streams(ops, reference[:count]):
            correct = False
    return correct and failed == 0, attempted, failed


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def host_ticks() -> List[int]:
    """The all-CPU tick counters of ``/proc/stat``."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


async def measure(gen: LoadGenerator, label: str, rate: float, seconds: float,
                  sample_s: float = 0.0, group: int = 1) -> PhaseResult:
    """One open-loop phase, with a line on stderr: its latencies, how
    late the generator ran, and the machine's idle and stolen shares
    (a virtual machine's host may take CPU time away)."""
    ticks = host_ticks()
    phase = await gen.run(int(rate * seconds), rate, sample_s=sample_s, group=group)
    spent = [b - a for a, b in zip(ticks, host_ticks())]
    total = sum(spent) or 1
    print(
        f"perfbench: {label:8} rate {phase.rate:8.0f} p50 {1e3 * phase.p(50):8.2f} ms"
        f" p99 {1e3 * phase.p(99):8.2f} ms late99 {1e3 * percentile(phase.late, 99):7.2f} ms"
        f" backlog {phase.backlog:6d} idle {spent[3] / total:.2f} steal {spent[7] / total:.2f}",
        file=sys.stderr,
    )
    return phase


def decisions_in(traffic: Traffic, start: int, stop: int) -> int:
    return sum(1 for kind, _, _ in traffic.ops[start:stop] if kind == DECIDE or kind == PEEK)


def dir_bytes(path: Path) -> float:
    return float(sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file()))


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_workload(method: Dict, workload: Dict, seed: int, seconds: float, traced: bool, out: Path) -> Dict:
    run_dir = out / f"{workload['name']}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plan = Plan(method, workload, seconds)
    started = perf_counter()
    traffic = build_traffic(workload, seed, plan.events, method["connections"])
    print(f"perfbench: traffic {len(traffic.ops)} operations in "
          f"{perf_counter() - started:.1f} s", file=sys.stderr)
    gc.collect()
    gc.freeze()
    servers: List[Server] = []
    try:
        body = _traced if traced else _untraced
        return asyncio.run(body(method, workload, plan, traffic, run_dir, servers))
    finally:
        for server in servers:
            server.kill()
        gc.unfreeze()
        gc.enable()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            out.rmdir()
        except OSError:
            pass


async def _setup(workload: Dict, traffic: Traffic, directory: Path, log: Path,
                 servers: List[Server], *, trace_dir: Optional[Path] = None,
                 trace_every: int = 0) -> Tuple[Server, LoadGenerator, float]:
    """Launch, register, warm up; returns with the set-up time."""
    server = launch(workload, directory, log, trace_dir=trace_dir)
    servers.append(server)
    own_core = bool(workload["server_cpus"]) and os.sched_getaffinity(0).isdisjoint(
        workload["server_cpus"]
    )
    gen = LoadGenerator(server.url, traffic, trace_every=trace_every, own_core=own_core)
    await gen.connect()
    await gen.burst(workload["warmup_ops"])
    return server, gen, perf_counter() - server.launched


async def _stop(workload: Dict, server: Server, gen: LoadGenerator) -> None:
    """SIGINT the server before a restart.

    A ``warm`` restart relaunches over the same state directory (SIGINT
    takes the final snapshot).  A ``cold`` one relaunches empty, so the
    opening registrations are sent again first; they are inserted into
    the traffic here, and the reference replays them too.
    """
    await gen.close()
    server.interrupt()
    if workload["restart"] == "cold":
        gen.traffic.insert(gen.cursor, gen.traffic.registrations())


async def _relaunch(workload: Dict, gen: LoadGenerator, directory: Path, log: Path,
                    servers: List[Server], *, trace_dir: Optional[Path] = None
                    ) -> Tuple[Server, float, float]:
    """Launch over *directory* and send operations until a decision is
    answered (after the opening registrations, for a ``cold`` restart).

    Returns the new server, the wall time from launch to that answer
    and the CPU time the new server's processes spent by then.
    """
    server = launch(workload, directory, log, trace_dir=trace_dir)
    servers.append(server)
    await gen.reconnect(server.url)
    if workload["restart"] == "cold":
        await gen.burst(len(gen.traffic.registrations()))
    answered = await gen.first_answer()
    return server, answered - server.launched, sum(server.cpu().values())


async def _restarts(workload: Dict, server: Server, gen: LoadGenerator, directory: Path,
                    log: Path, servers: List[Server], streams: List[Tuple[List, List]],
                    count: int) -> Tuple[List[float], List[float]]:
    """*count* restarts, all from the state one SIGINT left.

    The server is interrupted once and its directory (snapshots, spill
    log) kept.  Each restart relaunches over a fresh copy of it, sends
    ``tail_ops`` more operations at the high rate, and is interrupted;
    then the generator rewinds to where the first server stopped.
    Restarting each relaunched server in turn instead would restore one
    more lifetime's snapshot files every time, and the time it took
    grew by half over nine restarts.  Each restart's operations go to
    *streams*.  Returns each restart's wall and CPU times (see
    :func:`_relaunch`); every server has stopped.
    """
    await _stop(workload, server, gen)
    saved = directory.with_name(directory.name + "-saved")
    shutil.copytree(directory, saved)
    stopped = gen.cursor
    walls: List[float] = []
    cpus: List[float] = []
    for _ in range(count):
        shutil.rmtree(directory)
        shutil.copytree(saved, directory)
        gen.rewind(stopped)
        server, wall, cpu = await _relaunch(workload, gen, directory, log, servers)
        walls.append(wall)
        cpus.append(cpu)
        print(f"perfbench: restart {wall:.3f} s, server cpu {cpu:.3f} s", file=sys.stderr)
        await gen.run(workload["tail_ops"], workload["high_rate"])
        await gen.close()
        server.interrupt()
        streams.append((gen.traffic.ops[: gen.cursor], gen.results))
    return walls, cpus


async def _untraced(method: Dict, workload: Dict, plan: Plan, traffic: Traffic,
                    run_dir: Path, servers: List[Server]) -> Dict:
    log = run_dir / "server.log"
    streams: List[Tuple[List, List]] = []
    setups: List[float] = []
    for index in range(method["setups"]):
        directory = run_dir / f"setup-{index}"
        server, gen, took = await _setup(workload, traffic, directory, log, servers)
        setups.append(took)
        print(f"perfbench: setup {took:.3f} s", file=sys.stderr)
        if index < method["setups"] - 1:
            await gen.close()
            server.interrupt()
            streams.append((gen.traffic.ops[: gen.cursor], gen.results))

    gc.disable()
    # CPU time is what the server's processes ran, which leaves out
    # time the machine's host took away.  But how many requests share
    # an event-loop tick sets what a decision costs, and with requests
    # due one by one that moved with the host: when it took the CPU
    # away, requests piled up, shared ticks and cost a third less.
    # Requests due in groups share ticks whatever the host does, so the
    # cost per decision read is the tick-amortised one, the cost that
    # bounds throughput.  The mean over the middle half of segments of
    # about a second sets aside those with a snapshot or a compaction.
    per_kdec: List[float] = []
    rate = workload["high_rate"]
    for _ in range(plan.cpu_segments):
        start = gen.cursor
        before = server.cpu()
        await measure(gen, "high", rate, plan.seconds / plan.cpu_segments, group=plan.cpu_group)
        after = server.cpu()
        spent = sum(after.values()) - sum(before.values())
        per_kdec.append(1e3 * spent / (decisions_in(traffic, start, gen.cursor) / 1e3))
    print("perfbench: cpu ms per 1,000 decisions, by segment: "
          + " ".join(f"{value:.1f}" for value in per_kdec), file=sys.stderr)
    rss = server.peak_rss_mb()

    # One restart, so that the check below covers decisions across it.
    await _restarts(workload, server, gen, directory, log, servers, streams, 1)
    gc.enable()

    started = perf_counter()
    correct, attempted, failed = verify(traffic, streams)
    print(f"perfbench: verified {attempted} operations in "
          f"{perf_counter() - started:.1f} s", file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setups),
        "cpu_ms_per_kdec": middle_mean(per_kdec),
        "answered_frac": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


async def _slo(gen: LoadGenerator, workload: Dict, plan: Plan) -> Dict[str, float]:
    """Latency at the fixed rates and the capacity search, untraced.

    These are the service-level readings a user would watch; on a
    shared machine whose host takes CPU time away they vary from run
    to run more than any bound allows, so they are reported beside the
    layers rather than gated.
    """
    low: List[float] = []
    high: List[float] = []
    for _ in range(plan.rounds):
        low.extend((await measure(gen, "low", workload["low_rate"], plan.segment_s)).latencies)
        high.extend((await measure(gen, "high", workload["high_rate"], plan.segment_s)).latencies)
    found, clipped = await capacity(gen, plan)
    return {
        "slo.capacity_dps": found,
        "slo.capacity_clipped": float(clipped),
        "slo.p50_ms.low": 1e3 * windowed(low, 50),
        "slo.p50_ms.high": 1e3 * windowed(high, 50),
        "slo.p99_ms.low": 1e3 * windowed(low, 99),
        "slo.p99_ms.high": 1e3 * windowed(high, 99),
    }


class _WireClock:
    """Times ``repro.client.wire`` encode/inflate in the load process."""

    NAMES = ("single_body", "inflate_single")

    def __init__(self):
        from repro.client import wire

        self.module = wire
        self.originals = {name: getattr(wire, name) for name in self.NAMES}
        self.seconds = 0.0
        self.on = False
        for name, original in self.originals.items():
            setattr(wire, name, self._timed(original))

    def _timed(self, function):
        def timed(*args, **kwargs):
            if not self.on:
                return function(*args, **kwargs)
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - started

        return timed

    def restore(self) -> None:
        for name, original in self.originals.items():
            setattr(self.module, name, original)


async def _traced(method: Dict, workload: Dict, plan: Plan, traffic: Traffic,
                  run_dir: Path, servers: List[Server]) -> Dict:
    log = run_dir / "server.log"
    streams: List[Tuple[List, List]] = []
    gc.disable()
    # The untraced server: the SLO readings, and the capacity that the
    # traced one is held against.
    high_ops = int(workload["high_rate"] * plan.rounds * plan.segment_s)
    plain = run_dir / "plain"
    # A cold restart inserts registrations into the traffic it continues;
    # the traced server gets the traffic as compiled.
    compiled = traffic.copy()
    server, gen, _ = await _setup(workload, traffic, plain, log, servers)
    slo = await _slo(gen, workload, plan)
    walls, cpus = await _restarts(
        workload, server, gen, plain, log, servers, streams, workload["restarts"]
    )
    slo["slo.restart_s"] = middle_mean(walls)
    slo["slo.restart_cpu_s"] = middle_mean(cpus)

    spans_dir = run_dir / "spans"
    spans_dir.mkdir()
    directory = run_dir / "traced"
    server, gen, _ = await _setup(
        workload, compiled, directory, log, servers,
        trace_dir=spans_dir, trace_every=method["trace_every"],
    )
    front = server.process.pid
    replicas = list(server.replicas)
    clock = _WireClock()
    try:
        m0 = flatten(await gen.clients[0].metrics())
        start = gen.cursor
        cpu0 = server.cpu()
        gen0 = cpu_seconds(os.getpid())
        clock.on = True
        t0 = perf_counter()
        high = await gen.run(high_ops, workload["high_rate"])
        t1 = perf_counter()
        clock.on = False
        gen1 = cpu_seconds(os.getpid())
        cpu1 = server.cpu()
        m1 = flatten(await gen.clients[0].metrics())
    finally:
        clock.restore()
    decisions = decisions_in(gen.traffic, start, gen.cursor)
    spill = directory / "spill"
    log_bytes = dir_bytes(spill) if spill.exists() else 0.0
    traced_capacity, clipped = await capacity(gen, plan, near=slo["slo.capacity_dps"])
    slo["slo.capacity_clipped"] += clipped
    first_life = (server.launched, perf_counter())
    await _stop(workload, server, gen)
    server, _, _ = await _relaunch(workload, gen, directory, log, servers, trace_dir=spans_dir)
    restarted = server.process.pid
    await gen.close()
    server.interrupt()
    gc.enable()
    streams.append((gen.traffic.ops[: gen.cursor], gen.results))
    started = perf_counter()
    correct, attempted, failed = verify(traffic, streams)
    print(f"perfbench: verified {attempted} operations in "
          f"{perf_counter() - started:.1f} s", file=sys.stderr)

    spans = Spans(spans_dir)
    pids = [front, *replicas]
    phase = spans.window(t0, t1, pids)
    life = spans.window(first_life[0], first_life[1], pids)
    restore = spans.window(0.0, float("inf"), [restarted])
    wall = t1 - t0
    server_cpu = sum(cpu1[pid] - cpu0[pid] for pid in pids)
    changed = delta(m0, m1)

    def per(name: str, index: int, base: float) -> float:
        row = phase.get(name)
        return 1e6 * row[index] / base if row and base else 0.0

    def count(name: str, rows: Dict = phase) -> float:
        return rows[name][0] if name in rows else 0.0

    def mean_s(name: str, rows: Dict) -> float:
        row = rows.get(name)
        return row[1] / row[0] if row and row[0] else 0.0

    hits = changed.get("label_cache.hits", 0)
    lookups = hits + changed.get("label_cache.misses", 0)
    dispatches, dispatch_s = summed(changed, "repro_pool_dispatch_seconds")
    frames, _ = summed(changed, "repro_pool_batches_total")
    items, _ = summed(changed, "repro_pool_items_total")
    respawns, _ = summed(changed, "repro_pool_respawns_total")
    stage_mean = 0.0
    for key, value in changed.items():
        if key.startswith("repro_kernel_stage_seconds") and value[0]:
            stage_mean += value[1] / value[0]
    items_per_frame = items / frames if frames else 0.0
    dispatch_us = 1e6 * dispatch_s / dispatches if dispatches else 0.0
    replica_kernel_us = 1e6 * stage_mean * items_per_frame if dispatches else 0.0
    rotations = max(
        changed.get("kernel.plane_epoch", 0),
        count("kernel.adopt") / max(1, len(replicas)),
    )
    saves = life.get("persist.save", [0, 0.0, 0.0, 0.0])
    root = phase.get("__root__", [0, 0.0])[1]
    queue_us = [span.get("queue_us", 0.0) for span in high.spans]
    drains = count("aio.drain")
    metrics = {
        "client.wire_us": 1e6 * clock.seconds / decisions,
        "aio.frame_us": per("aio.frame", 1, count("aio.accept")),
        "aio.queue_us": statistics.mean(queue_us) if queue_us else 0.0,
        "aio.coalesced": count("aio.accept") / drains if drains else 0.0,
        "wire2.resolve_us": per("wire2.resolve", 1, count("wire2.resolve")),
        "wire2.render_us": per("wire2.render", 1, count("wire2.render")),
        "kernel.decide_us": per("kernel.decide", 2, decisions),
        "kernel.intern_us": per("kernel.intern", 2, decisions),
        "kernel.plane_rotations": float(rotations),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.lookups": float(lookups),
        "labeling.label_us": per("labeling.label", 2, count("labeling.label")),
        "labeling.calls": count("labeling.label"),
        "policy.register_us": 1e6 * mean_s("policy.register", life),
        "pool.dispatch_us": dispatch_us,
        "pool.replica_kernel_us": replica_kernel_us,
        "pool.transit_us": dispatch_us - replica_kernel_us if dispatches else 0.0,
        "pool.items_per_frame": items_per_frame,
        "pool.frontend_cpu_frac": (cpu1[front] - cpu0[front]) / wall,
        "pool.replica_cpu_frac": (
            sum(cpu1[pid] - cpu0[pid] for pid in replicas) / len(replicas) / wall
            if replicas else 0.0
        ),
        "pool.respawns": respawns,
        "store.faults": float(changed.get("sessions.faults", 0)),
        "store.fault_us": per("store.fault", 1, count("store.fault")),
        "store.evictions": float(changed.get("sessions.evictions", 0)),
        "store.log_bytes": log_bytes,
        "persist.save_s": saves[1] / saves[0] if saves[0] else 0.0,
        "persist.bytes_per_save": saves[3] / saves[0] if saves[0] else 0.0,
        "persist.restore_s": sum(
            restore[name][1] for name in ("persist.collect", "persist.import") if name in restore
        ),
        "gen.late_ms": 1e3 * percentile(high.late, 99),
        "gen.cpu_frac": (gen1 - gen0) / wall,
        "ledger.unattributed_frac": 1.0 - root / server_cpu if server_cpu else 0.0,
        "trace.capacity_ratio": traced_capacity / slo["slo.capacity_dps"],
        **slo,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
