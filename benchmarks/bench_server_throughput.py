"""Serving-path baseline: end-to-end decisions/sec through the service.

Measures the Section 7.2 workload with randomly generated Figure 6
policies, in three series:

* **warm** — the steady-state deployment: every query shape has been
  seen before, so the labeler never runs;
* **cold** — label cache disabled, so every decision pays the full
  dissect/compile/match labeling pipeline;
* **batch** — the vectorized :meth:`DisclosureService.submit_batch`
  path over the same warm traffic, which must clear ≥ 3× the
  single-query rate (the PR 2 acceptance bar, held by
  :func:`test_batch_meets_the_3x_bar`).

The warm/cold gap is the value of the shared cache; the batch/warm gap
is the value of amortizing per-decision Python overhead.

Run the pytest series with::

    pytest benchmarks/bench_server_throughput.py --benchmark-only

or run the standalone sweep modes (batch sizes, restart cost, HTTP
transports, the disk-backed memory tier, the replica pool)::

    python benchmarks/bench_server_throughput.py --batch
    python benchmarks/bench_server_throughput.py --restart
    python benchmarks/bench_server_throughput.py --http
    python benchmarks/bench_server_throughput.py --spill [--principals N]
    python benchmarks/bench_server_throughput.py --pool

``--http`` compares single-query decisions/sec over the wire: the v1
text protocol against the stdlib thread-per-connection server versus
the v2 qid wire against the asyncio front end (pipelined
:class:`repro.client.AsyncHttpClient`, per-tick coalescing on the
server).  The PR 5 acceptance bar requires the v2 asyncio path to
clear 4× the v1 stdlib baseline; the CI gate enforces a conservative
floor from ``BENCH_BASELINE.json``.

``--restart`` measures what a crash costs: the same replay through an
uninterrupted service, a **warm** restart (state restored from a
:mod:`repro.server.persist` snapshot), and a **cold** restart (all
state lost) — label-cache hit rate, decisions/sec, and restore time.
The warm restart must recover ≥ 90% of the pre-restart hit rate (the
PR 3 acceptance bar).

``--spill`` measures the disk-backed memory tier from PR 8: the warm
path's throughput with the spill store configured versus the plain
in-memory store (gated ≥ 90% by ``spill_warm_floor``), mean fault
latency for re-admitting a cold session from the log, bounded
residency across a zipfian population (default 100k principals
through 512 resident slots; ``--principals 1000000`` is the
million-session smoke left out of CI), and the size and time of an
incremental snapshot delta versus the full base (the delta must
undershoot the full by ``snapshot_delta_shrink``× in bytes — the
machine-independent O(delta) witness).

``--pool`` compares the single-process asyncio front end against the
same front end backed by a :mod:`repro.server.pool` kernel replica
pool, on a deliberately label-bound workload (label cache off, so the
data plane is pure CPU).  On a multi-core machine the pool must scale
label-bound throughput by ≥ ``http_pool_scaling`` (1.8× with two
replicas); on a single visible core the number is reported but not
gated, since the replicas would just time-slice one CPU.

The CI regression gate runs the deterministic quick form and compares
against the committed baseline::

    python benchmarks/bench_server_throughput.py --ci --json BENCH_PR9.json \\
        --check benchmarks/BENCH_BASELINE.json

which exits non-zero when warm single-query or batch throughput drops
more than 30% below the baseline, the warm-restart recovery bar fails,
the HTTP section falls below its committed floors (absolute v2
asyncio throughput and its speedup over v1 stdlib), the spill tier
taxes the warm path below ``spill_warm_floor``, lets residency exceed
its cap, writes snapshot deltas that are not at least
``snapshot_delta_shrink``× smaller than the full base, or (multi-core
machines only) the replica pool fails its ``http_pool_scaling`` bar.  The ``--ci``
output also carries a ``kernel`` microbenchmark section (qid
resolution and pure ``decide_many`` rates over the interned ID plane)
so kernel-level drift is visible in the artifact even before it moves
an end-to-end number.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.server.loadgen import run_load
from repro.server.service import DisclosureService

#: Decisions per measured batch.
BATCH = 2_000

#: Registered principals (policies drawn from the Figure 6 generator).
PRINCIPALS = 100


def _build_service(security_views, cache_size: int, **kwargs) -> DisclosureService:
    service = DisclosureService(
        security_views, label_cache_size=cache_size, **kwargs
    )
    policies = generate_policies(
        security_views.names, PRINCIPALS, max_partitions=5, max_elements=25, seed=0
    )
    for index, policy in enumerate(policies):
        service.register(f"app-{index}", policy)
    return service


def _build_traffic(count: int, seed: int = 0):
    generator = WorkloadGenerator(max_subqueries=1, seed=seed)
    rng = random.Random(seed + 1)
    queries = list(generator.stream(256))
    return [
        (f"app-{rng.randrange(PRINCIPALS)}", rng.choice(queries))
        for _ in range(count)
    ]


def _best_rate(run, decisions: int, repetitions: int = 5) -> float:
    """Best-of-N decisions/sec for *run* (one shared measurement harness
    so the acceptance test and the sweep report measure identically)."""
    rate = 0.0
    for _ in range(repetitions):
        start = time.perf_counter()
        run()
        rate = max(rate, decisions / (time.perf_counter() - start))
    return rate


def _sequential_run(service: DisclosureService, traffic):
    def run():
        submit = service.submit
        for principal, query in traffic:
            submit(principal, query)

    return run


@pytest.mark.parametrize("cache", ["warm", "cold"])
def test_server_decision_throughput(benchmark, security_views, cache):
    service = _build_service(
        security_views, cache_size=(1 << 16) if cache == "warm" else 0
    )
    traffic = _build_traffic(BATCH)
    if cache == "warm":
        for principal, query in traffic:
            service.submit(principal, query)  # populate the label cache

    def decide_batch():
        submit = service.submit
        for principal, query in traffic:
            submit(principal, query)

    benchmark(decide_batch)
    if benchmark.stats is not None:
        mean = benchmark.stats["mean"]
        benchmark.extra_info["decisions_per_second"] = BATCH / mean
    benchmark.extra_info["series"] = f"{cache} cache"
    benchmark.extra_info["figure"] = "server-throughput"


def test_warm_cache_meets_the_serving_bar(security_views):
    """The acceptance floor: ≥ 10k decisions/sec through the full service
    with a warm label cache (the in-process loadgen measures exactly the
    serving path the HTTP handler calls)."""
    service = DisclosureService(security_views, label_cache_size=1 << 16)
    report = run_load(  # registers its own Figure 6 principals
        service,
        workers=2,
        duration=1.0,
        principals=PRINCIPALS,
        query_pool=256,
        seed=2,
    )
    assert report.errors == 0
    assert report.cache_hit_rate is not None and report.cache_hit_rate > 0.9
    assert report.qps >= 10_000, f"only {report.qps:,.0f} decisions/sec"


def test_server_batch_throughput(benchmark, security_views):
    """The batch series: submit_batch over the same warm workload."""
    service = _build_service(security_views, cache_size=1 << 16)
    traffic = _build_traffic(BATCH)
    service.submit_batch(traffic)  # populate caches and session memos

    benchmark(lambda: service.submit_batch(traffic))
    if benchmark.stats is not None:
        mean = benchmark.stats["mean"]
        benchmark.extra_info["decisions_per_second"] = BATCH / mean
    benchmark.extra_info["series"] = "batch (warm cache)"
    benchmark.extra_info["figure"] = "server-throughput"


def test_batch_meets_the_3x_bar(security_views):
    """The PR 2 acceptance bar: the batch path must multiply warm
    single-query throughput by ≥ 3× on the same workload.

    Both sides are measured best-of-N in the same process on identical
    warm traffic, so the ratio is robust to machine speed.
    """
    service = _build_service(security_views, cache_size=1 << 16)
    traffic = _build_traffic(4096, seed=6)
    for principal, query in traffic:
        service.submit(principal, query)  # warm cache + session memos
    service.submit_batch(traffic)

    single_qps = _best_rate(_sequential_run(service, traffic), len(traffic))
    batch_qps = _best_rate(lambda: service.submit_batch(traffic), len(traffic))
    assert batch_qps >= 3.0 * single_qps, (
        f"batch {batch_qps:,.0f}/s is only "
        f"{batch_qps / single_qps:.2f}x single-query {single_qps:,.0f}/s"
    )


def test_warm_beats_cold(security_views):
    """The cache must actually pay for itself on the serving path."""
    traffic = _build_traffic(BATCH, seed=4)

    def measure(cache_size: int) -> float:
        service = _build_service(security_views, cache_size)
        for principal, query in traffic:
            service.submit(principal, query)  # warm (or no-op for size 0)
        start = time.perf_counter()
        for principal, query in traffic:
            service.submit(principal, query)
        return time.perf_counter() - start

    cold = measure(0)
    warm = measure(1 << 16)
    assert warm < cold, f"warm {warm:.3f}s not faster than cold {cold:.3f}s"


# ----------------------------------------------------------------------
# Standalone sweep modes (no pytest)
# ----------------------------------------------------------------------
def _sweep_batch_sizes(queries: int, seed: int) -> None:
    """Warm decisions/sec per batch size, against the single-query rate."""
    from repro.facebook.permissions import facebook_security_views

    views = facebook_security_views()
    service = _build_service(views, cache_size=1 << 16)
    traffic = _build_traffic(queries, seed=seed)
    for principal, query in traffic:
        service.submit(principal, query)
    service.submit_batch(traffic)

    single = _best_rate(_sequential_run(service, traffic), len(traffic))
    print(f"single-query baseline: {single:>10,.0f} decisions/sec")
    print(f"{'batch size':>10}  {'decisions/sec':>14}  {'speedup':>8}")
    for size in (16, 64, 256, 1024, 4096):
        chunks = [traffic[i : i + size] for i in range(0, len(traffic), size)]

        def batched():
            for chunk in chunks:
                service.submit_batch(chunk)

        rate = _best_rate(batched, len(traffic))
        print(f"{size:>10}  {rate:>14,.0f}  {rate / single:>7.2f}x")


def _measure_restart(queries: int, seed: int) -> dict:
    """Cold vs warm restart: hit rate, decisions/sec, and restore time.

    One warm service accumulates state; a snapshot is taken; then the
    same replay runs through (a) the uninterrupted original, (b) a
    fresh service restored from the snapshot (the warm restart), and
    (c) a fresh service with no snapshot (the cold restart).  Replays
    use ``peek`` so each variant sees identical traffic against
    identical session state.
    """
    import tempfile
    from pathlib import Path

    from repro.facebook.permissions import facebook_security_views
    from repro.server.persist import (
        SnapshotStore,
        restore_service,
        snapshot_service,
    )

    views = facebook_security_views()
    service = _build_service(views, cache_size=1 << 16)
    traffic = _build_traffic(queries, seed=seed)
    for principal, query in traffic:
        service.submit(principal, query)  # live traffic: sessions + cache

    def replay(target) -> "tuple[float, float]":
        before = target.label_cache.stats()
        start = time.perf_counter()
        for principal, query in traffic:
            target.peek(principal, query)
        elapsed = time.perf_counter() - start
        after = target.label_cache.stats()
        lookups = after.lookups - before.lookups
        hit_rate = (after.hits - before.hits) / lookups if lookups else 0.0
        return hit_rate, len(traffic) / elapsed

    pre_hit_rate, pre_qps = replay(service)

    with tempfile.TemporaryDirectory() as state_dir:
        store = SnapshotStore(Path(state_dir))
        snap_start = time.perf_counter()
        path = store.save(snapshot_service(service))
        snapshot_seconds = time.perf_counter() - snap_start
        snapshot_bytes = path.stat().st_size

        warm = _build_service(views, cache_size=1 << 16)
        restore_start = time.perf_counter()
        _, document = store.load_latest()
        restore_service(warm, document["payload"])
        restore_seconds = time.perf_counter() - restore_start
    warm_hit_rate, warm_qps = replay(warm)

    cold = _build_service(views, cache_size=1 << 16)
    cold_hit_rate, cold_qps = replay(cold)

    return {
        "queries": len(traffic),
        "pre_restart": {"hit_rate": pre_hit_rate, "qps": pre_qps},
        "warm_restart": {
            "hit_rate": warm_hit_rate,
            "qps": warm_qps,
            "restore_seconds": restore_seconds,
        },
        "cold_restart": {"hit_rate": cold_hit_rate, "qps": cold_qps},
        "snapshot_seconds": snapshot_seconds,
        "snapshot_bytes": snapshot_bytes,
        "hit_rate_recovery": (
            warm_hit_rate / pre_hit_rate if pre_hit_rate else 0.0
        ),
    }


def _sweep_restart(queries: int, seed: int) -> None:
    """Human-readable form of :func:`_measure_restart`."""
    result = _measure_restart(queries, seed)
    print(
        f"restart cost over {result['queries']} replayed decisions "
        f"(snapshot: {result['snapshot_bytes']:,} bytes in "
        f"{result['snapshot_seconds'] * 1e3:.1f} ms)"
    )
    print(f"{'variant':>14}  {'hit rate':>9}  {'decisions/sec':>14}")
    rows = [
        ("uninterrupted", result["pre_restart"]),
        ("warm restart", result["warm_restart"]),
        ("cold restart", result["cold_restart"]),
    ]
    for name, row in rows:
        print(f"{name:>14}  {row['hit_rate']:>8.1%}  {row['qps']:>14,.0f}")
    recovery = result["hit_rate_recovery"]
    print(
        f"warm restart recovered {recovery:.1%} of the pre-restart hit "
        f"rate (restore took "
        f"{result['warm_restart']['restore_seconds'] * 1e3:.1f} ms)"
    )


def _measure_http(duration: float, seed: int) -> dict:
    """Single-query decisions/sec over the wire, v1-stdlib vs v2-asyncio.

    Both sides run the same closed-loop Figure 6 workload through the
    one :class:`repro.client.DecisionClient` API; only the transport
    differs.  The v1 baseline uses 4 worker threads (its best shape on
    a small machine); the v2 asyncio side uses 64 pipelined in-flight
    requests on one connection — the concurrency the server's per-tick
    drain turns into bulk decisions.
    """
    import threading

    from repro.server.aio import start_async_background
    from repro.server.httpd import start_background

    def fresh_service() -> DisclosureService:
        from repro.facebook.permissions import facebook_security_views

        return DisclosureService(facebook_security_views())

    # --- v1 text wire, stdlib thread-per-connection server ----------
    service = fresh_service()
    server, _thread = start_background(service)
    host, port = server.server_address[:2]
    try:
        v1 = run_load(
            url=f"http://{host}:{port}",
            transport="http",
            protocol="v1",
            workers=4,
            duration=duration,
            principals=PRINCIPALS,
            query_pool=256,
            seed=seed,
        )
    finally:
        server.shutdown()
        server.server_close()

    # --- v2 qid wire, asyncio front end with tick coalescing --------
    handle = start_async_background(fresh_service())
    try:
        v2 = run_load(
            url=f"http://{handle.host}:{handle.port}",
            transport="async-http",
            protocol="v2",
            workers=64,
            duration=duration,
            principals=PRINCIPALS,
            query_pool=256,
            seed=seed,
        )
        coalescing = (
            handle.server.drained / handle.server.ticks
            if handle.server.ticks
            else 0.0
        )
        prometheus = _scrape_prometheus(handle.host, handle.port)
    finally:
        handle.stop()

    return {
        "v1_stdlib_single_qps": v1.qps,
        "v1_p50_us": v1.p50_us,
        "v2_async_single_qps": v2.qps,
        "v2_p50_us": v2.p50_us,
        "speedup": v2.qps / v1.qps if v1.qps else 0.0,
        "v2_requests_per_tick": coalescing,
        "errors": v1.errors + v2.errors,
        "prometheus": prometheus,
    }


def _scrape_prometheus(host: str, port: int) -> dict:
    """Scrape the live server both ways and cross-check the expositions.

    Pulls ``/metrics`` (JSON) and ``/metrics?format=prometheus`` from
    the still-running front end, parses the text form with the in-repo
    parser, and verifies the headline counters and the latency
    histogram count agree between the two — the CI form of the
    "prometheus agrees with JSON" acceptance criterion.
    """
    import json
    from urllib.request import urlopen

    from repro.obs import parse_prometheus, sample_value

    base = f"http://{host}:{port}/metrics"
    with urlopen(base, timeout=10) as response:
        snapshot = json.loads(response.read())
    with urlopen(base + "?format=prometheus", timeout=10) as response:
        parsed = parse_prometheus(response.read().decode("utf-8"))

    mismatches = []
    for name, key in (
        ("repro_decisions_total", "decisions"),
        ("repro_accepted_total", "accepted"),
        ("repro_refused_total", "refused"),
        ("repro_peeks_total", "peeks"),
    ):
        exposed = sample_value(parsed, name)
        if exposed != float(snapshot.get(key, 0)):
            mismatches.append(f"{name}={exposed} vs json {snapshot.get(key)}")
    latency_count = sample_value(parsed, "repro_request_latency_seconds_count")
    json_count = float((snapshot.get("latency") or {}).get("count", 0))
    if latency_count != json_count:
        mismatches.append(
            f"latency _count={latency_count} vs json {json_count}"
        )
    return {
        "samples": sum(len(rows) for rows in parsed["samples"].values()),
        "consistent": not mismatches,
        "mismatches": mismatches,
    }


def _measure_obs_overhead(views, seed: int) -> dict:
    """Instrumented vs bare warm single-query floors (the obs gate).

    Both services decide identical warm traffic best-of-N; the
    instrumented one runs the shipped defaults (labeled registry,
    tenant counters, 1-in-64 stage sampling), the bare one has
    ``observability=False``.  The ratio is the fraction of the
    uninstrumented floor the default configuration retains — gated
    against ``obs_overhead_floor`` in the committed baseline.

    Repetitions for the two services are *interleaved* (bare,
    instrumented, bare, ...): a sequential A-then-B comparison lets
    slow drift in host load land entirely on one side and can swing
    the ratio by more than the effect being measured.
    """
    traffic = _build_traffic(BATCH, seed=seed)

    def prepared(**kwargs):
        service = _build_service(views, cache_size=1 << 16, **kwargs)
        for principal, query in traffic:
            service.submit(principal, query)  # warm cache + memos
        return _sequential_run(service, traffic)

    bare_run = prepared(observability=False)
    instrumented_run = prepared()
    bare_qps = instrumented_qps = 0.0
    for _ in range(7):
        bare_qps = max(bare_qps, _best_rate(bare_run, len(traffic), 1))
        instrumented_qps = max(
            instrumented_qps, _best_rate(instrumented_run, len(traffic), 1)
        )
    return {
        "instrumented_qps": instrumented_qps,
        "bare_qps": bare_qps,
        "ratio": instrumented_qps / bare_qps if bare_qps else 0.0,
    }


def _measure_pool(duration: float, seed: int) -> dict:
    """The kernel-replica-pool section of ``--ci``: multi-core scaling.

    Drives a deliberately **label-bound** workload — ``label_cache_size
    = 0`` on both sides, so every decision pays the full
    dissect/compile/match pipeline — through (a) the plain single-
    process asyncio front end and (b) the same front end backed by a
    :class:`repro.server.pool.ReplicaPool` of kernel worker processes.
    With the cache off, the data plane is pure CPU, which is exactly
    the work the replicas spread across cores; the ratio is the pool's
    scaling factor.  Gated by ``http_pool_scaling`` (≥ 1.8× with two
    replicas) **only when more than one CPU core is visible** — on a
    single core the replicas time-slice one CPU and pay the pipe tax
    with nothing to parallelize, so the measurement is reported but
    not gated.
    """
    import os

    from repro.facebook.permissions import facebook_security_views
    from repro.server.aio import start_async_background
    from repro.server.pool import start_pooled_background

    views = facebook_security_views()
    cores = os.cpu_count() or 1
    replicas = max(2, min(4, cores))

    handle = start_async_background(
        DisclosureService(views, label_cache_size=0)
    )
    try:
        single = run_load(
            url=f"http://{handle.host}:{handle.port}",
            transport="async-http",
            protocol="v2",
            workers=64,
            duration=duration,
            principals=PRINCIPALS,
            query_pool=256,
            seed=seed,
        )
    finally:
        handle.stop()

    pooled_handle = start_pooled_background(
        replicas,
        service_kwargs={"security_views": views, "label_cache_size": 0},
    )
    try:
        pooled = run_load(
            url=f"http://{pooled_handle.host}:{pooled_handle.port}",
            transport="async-http",
            protocol="v2",
            workers=64,
            duration=duration,
            principals=PRINCIPALS,
            query_pool=256,
            seed=seed,
        )
        pool = pooled_handle.pool
        merged = pool.call(pool.metrics_snapshot)
    finally:
        pooled_handle.stop()

    return {
        "replicas": replicas,
        "cores_visible": cores,
        "single_async_qps": single.qps,
        "pooled_async_qps": pooled.qps,
        "scaling": pooled.qps / single.qps if single.qps else 0.0,
        "single_p50_us": single.p50_us,
        "pooled_p50_us": pooled.p50_us,
        "replica_decisions": [
            replica.get("decisions", 0) for replica in merged["replicas"]
        ],
        "errors": single.errors + pooled.errors,
    }


def _sweep_pool(duration: float, seed: int) -> None:
    """Human-readable form of :func:`_measure_pool` (``--pool``)."""
    result = _measure_pool(duration, seed)
    print(
        f"label-bound single-query decisions/sec over the asyncio front "
        f"end ({result['cores_visible']} CPU core(s) visible):"
    )
    print(
        f"  single process:              {result['single_async_qps']:>10,.0f}/s"
        f"   p50 {result['single_p50_us']:.0f} µs"
    )
    print(
        f"  {result['replicas']} kernel replicas (pool):    "
        f"{result['pooled_async_qps']:>10,.0f}/s"
        f"   p50 {result['pooled_p50_us']:.0f} µs"
    )
    print(
        f"  scaling: {result['scaling']:.2f}x   per-replica decisions: "
        f"{result['replica_decisions']}   ({result['errors']} errors)"
    )
    if result["cores_visible"] < 2:
        print(
            "  note: with a single visible core the replicas time-slice "
            "one CPU and pay the pipe tax with nothing to parallelize; "
            "expect flat-to-negative scaling on this machine"
        )


def _sweep_http(duration: float, seed: int) -> None:
    """Human-readable form of :func:`_measure_http`."""
    result = _measure_http(duration, seed)
    print("single-query decisions/sec over HTTP:")
    print(
        f"  v1 text wire, stdlib httpd:     "
        f"{result['v1_stdlib_single_qps']:>10,.0f}/s   "
        f"p50 {result['v1_p50_us']:.0f} µs"
    )
    print(
        f"  v2 qid wire, asyncio front end: "
        f"{result['v2_async_single_qps']:>10,.0f}/s   "
        f"p50 {result['v2_p50_us']:.0f} µs"
    )
    print(
        f"  speedup: {result['speedup']:.2f}x   "
        f"(server coalesced {result['v2_requests_per_tick']:.1f} "
        f"requests per tick, {result['errors']} errors)"
    )


def _measure_spill(views, seed: int, population: int = 100_000) -> dict:
    """The memory-tier section of ``--ci``: the spill store's costs.

    Four numbers:

    * **warm-tier ratio** — warm single-query decisions/sec with the
      spill tier configured (hot working set fully resident) versus the
      plain in-memory store, interleaved best-of-N.  The spill tier may
      not tax the warm path: gated by ``spill_warm_floor`` (≥ 0.9×).
    * **fault latency** — mean µs to fault one cold session back from
      the log (seek + one line read + decode), measured store-level
      over thousands of spill/fault round-trips.
    * **bounded residency** — a zipfian population of *population*
      principals (default 100k; ``--spill --principals 1000000`` is the
      non-CI smoke) runs through a service capped at 512 resident
      sessions.  Structural gate: the resident tier never exceeds its
      cap while every principal stays reachable; ``tracemalloc`` peak
      is reported so the artifact shows RSS staying O(cap + index),
      not O(population).
    * **snapshot delta** — with the population registered, one full
      :class:`~repro.server.persist.SnapshotChain` base versus a delta
      covering a handful of dirty sessions.  Gated by
      ``snapshot_delta_shrink``: the delta must be at least that many
      times smaller than the full base (the O(delta) claim, on bytes —
      machine-independent, unlike seconds).
    """
    import tempfile
    import tracemalloc
    from pathlib import Path

    from repro.server.persist import SnapshotChain
    from repro.server.store import SessionState, SpillStore

    traffic = _build_traffic(BATCH, seed=seed)

    def prepared(**kwargs):
        service = _build_service(views, cache_size=1 << 16, **kwargs)
        for principal, query in traffic:
            service.submit(principal, query)  # warm cache + memos
        return service, _sequential_run(service, traffic)

    with tempfile.TemporaryDirectory() as tier_dir:
        # --- warm-tier A/B: resident working set, spill configured ---
        inmem_service, inmem_run = prepared()
        spill_service, spill_run = prepared(
            spill_dir=Path(tier_dir) / "warm", max_active_sessions=PRINCIPALS
        )
        inmem_qps = spill_qps = 0.0
        for _ in range(7):
            inmem_qps = max(inmem_qps, _best_rate(inmem_run, len(traffic), 1))
            spill_qps = max(spill_qps, _best_rate(spill_run, len(traffic), 1))
        spill_service.close()

        # --- fault latency: store-level spill/fault round-trips ------
        store = SpillStore(Path(tier_dir) / "faults", max_resident=16)
        parts = tuple(
            tuple(sorted(views.names)[:3]) for _ in range(2)
        )
        rounds = 4096
        for index in range(rounds):
            store.put_state(f"p-{index}", SessionState(parts, 0b11, False, 1))
        start = time.perf_counter()
        for index in range(rounds):
            store.fault(f"p-{index}")
        fault_us = (time.perf_counter() - start) / rounds * 1e6
        store.close()

        # --- bounded residency over a zipfian population -------------
        cap = 512
        policies = generate_policies(
            views.names, 50, max_partitions=5, max_elements=25, seed=seed
        )
        queries = [query for _, query in traffic[:64]]
        rng = random.Random(seed)
        tracemalloc.start()
        big = DisclosureService(
            views,
            label_cache_size=1 << 16,
            max_active_sessions=cap,
            spill_dir=Path(tier_dir) / "population",
        )
        for index in range(population):
            big.register(f"app-{index}", policies[index % len(policies)])
        cap_held = big.store.resident_count() <= cap
        for _ in range(5_000):
            rank = int(population * rng.random() ** 3)
            big.submit(f"app-{min(rank, population - 1)}", rng.choice(queries))
            cap_held = cap_held and big.store.resident_count() <= cap
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        residency = {
            "population": population,
            "max_resident": cap,
            "cap_held": cap_held,
            "resident": big.store.resident_count(),
            "cold": big.store.cold_count(),
            "faults": big.store.fault_count,
            "evictions": big.store.eviction_count,
            "log_bytes": big.store.log_bytes(),
            "traced_peak_mb": peak_bytes / (1 << 20),
        }

        # --- snapshot delta vs full over the same population ---------
        with tempfile.TemporaryDirectory() as state_dir:
            chain = SnapshotChain(big, state_dir)
            start = time.perf_counter()
            full_path = chain.save()
            full_seconds = time.perf_counter() - start
            for index in range(20):
                big.reset(f"app-{index}")  # the dirty window
            start = time.perf_counter()
            delta_path = chain.save()
            delta_seconds = time.perf_counter() - start
            full_bytes = full_path.stat().st_size
            delta_bytes = delta_path.stat().st_size
        big.close()

    return {
        "warm_inmemory_qps": inmem_qps,
        "warm_spill_qps": spill_qps,
        "warm_ratio": spill_qps / inmem_qps if inmem_qps else 0.0,
        "fault_us": fault_us,
        "residency": residency,
        "snapshot": {
            "full_bytes": full_bytes,
            "full_seconds": full_seconds,
            "delta_bytes": delta_bytes,
            "delta_seconds": delta_seconds,
            "shrink": full_bytes / delta_bytes if delta_bytes else 0.0,
            "speedup": full_seconds / delta_seconds if delta_seconds else 0.0,
        },
    }


def _sweep_spill(seed: int, population: int) -> None:
    """Human-readable form of :func:`_measure_spill` (the ``--spill``
    mode; ``--principals 1000000`` is the non-CI million-session smoke)."""
    from repro.facebook.permissions import facebook_security_views

    result = _measure_spill(
        facebook_security_views(), seed, population=population
    )
    print(
        f"warm tier: in-memory {result['warm_inmemory_qps']:,.0f}/s vs "
        f"spill-backed {result['warm_spill_qps']:,.0f}/s "
        f"({result['warm_ratio']:.1%})"
    )
    print(f"fault latency: {result['fault_us']:.1f} µs mean")
    residency = result["residency"]
    print(
        f"population {residency['population']:,} through "
        f"{residency['max_resident']} resident slots: cap held = "
        f"{residency['cap_held']}, {residency['cold']:,} cold on disk "
        f"({residency['log_bytes']:,} bytes), {residency['faults']:,} "
        f"faults, traced peak {residency['traced_peak_mb']:.1f} MB"
    )
    snapshot = result["snapshot"]
    print(
        f"snapshot: full {snapshot['full_bytes']:,} B in "
        f"{snapshot['full_seconds'] * 1e3:.0f} ms; delta "
        f"{snapshot['delta_bytes']:,} B in "
        f"{snapshot['delta_seconds'] * 1e3:.1f} ms "
        f"({snapshot['shrink']:.0f}x smaller, "
        f"{snapshot['speedup']:.0f}x faster)"
    )


# ----------------------------------------------------------------------
# The CI regression gate: deterministic quick run + committed baseline
# ----------------------------------------------------------------------
def _measure_kernel(service, traffic) -> dict:
    """The kernel microbenchmark section of ``--ci``.

    Measures the ID plane below the transports: qid resolution over
    cycling parsed objects (``resolve_queries``, the batch label
    stage) and pure ``decide_many`` throughput over pre-interned qid
    arrays grouped per principal — the ceiling the transport adapters
    amortize toward.
    """
    kernel = service.kernel
    queries = [query for _, query in traffic]
    by_principal: "dict[str, list]" = {}
    for principal, query in traffic:
        by_principal.setdefault(principal, []).append(kernel.intern(query))

    resolve_qps = _best_rate(
        lambda: kernel.resolve_queries(queries), len(queries), 3
    )

    def decide_all():
        decide_many = kernel.decide_many
        for principal, qids in by_principal.items():
            decide_many(qids, principal, update=False)

    decide_qps = _best_rate(decide_all, len(traffic), 3)
    return {
        "resolve_queries_qps": resolve_qps,
        "decide_many_qps": decide_qps,
        "queries_interned": kernel.stats()["queries_interned"],
        "labels_interned": kernel.stats()["labels_interned"],
    }


def _run_ci(json_path: str, check_path: "str | None", seed: int) -> int:
    """Emit ``BENCH_PR9.json`` and gate against the committed baseline.

    Thresholds are deliberately loose (warm single-query and batch
    throughput may not drop more than 30% below baseline; HTTP floors
    are set conservatively in the baseline file) because CI machines
    vary; the hit-rate recovery bar is exact because it is
    machine-independent.
    """
    import json
    import platform

    from repro.facebook.permissions import facebook_security_views

    views = facebook_security_views()
    service = _build_service(views, cache_size=1 << 16)
    traffic = _build_traffic(BATCH, seed=seed)
    for principal, query in traffic:
        service.submit(principal, query)  # warm the cache and sessions
    warm_qps = _best_rate(_sequential_run(service, traffic), len(traffic), 3)
    service.submit_batch(traffic)  # warm the batch-path memos
    batch_qps = _best_rate(lambda: service.submit_batch(traffic), len(traffic), 3)
    kernel = _measure_kernel(service, traffic)
    restart = _measure_restart(queries=BATCH, seed=seed + 1)
    http = _measure_http(duration=1.5, seed=seed + 2)
    obs = _measure_obs_overhead(views, seed=seed + 3)
    spill = _measure_spill(views, seed=seed + 4)
    pool = _measure_pool(duration=1.5, seed=seed + 5)

    results = {
        "figure": "server-throughput-ci",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "decisions": len(traffic),
        "warm_single_qps": warm_qps,
        "batch_qps": batch_qps,
        "kernel": kernel,
        "restart": restart,
        "http": http,
        "obs": obs,
        "spill": spill,
        "pool": pool,
    }
    with open(json_path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(f"wrote {json_path}")
    print(f"warm single-query: {warm_qps:>12,.0f} decisions/sec")
    print(f"batch path:        {batch_qps:>12,.0f} decisions/sec")
    print(
        f"kernel: resolve {kernel['resolve_queries_qps']:,.0f}/s · "
        f"decide_many {kernel['decide_many_qps']:,.0f}/s · "
        f"{kernel['queries_interned']} qids / "
        f"{kernel['labels_interned']} lids"
    )
    print(f"warm-restart hit-rate recovery: {restart['hit_rate_recovery']:.1%}")
    print(
        f"HTTP single-query: v1 stdlib {http['v1_stdlib_single_qps']:,.0f}/s "
        f"→ v2 asyncio {http['v2_async_single_qps']:,.0f}/s "
        f"({http['speedup']:.2f}x, "
        f"{http['v2_requests_per_tick']:.1f} requests/tick coalesced)"
    )
    print(
        f"prometheus scrape: {http['prometheus']['samples']} samples, "
        f"consistent with JSON: {http['prometheus']['consistent']}"
    )
    print(
        f"observability overhead: instrumented "
        f"{obs['instrumented_qps']:,.0f}/s vs bare {obs['bare_qps']:,.0f}/s "
        f"({obs['ratio']:.1%} of the uninstrumented floor)"
    )
    residency = spill["residency"]
    snapshot = spill["snapshot"]
    print(
        f"spill warm tier: {spill['warm_spill_qps']:,.0f}/s vs in-memory "
        f"{spill['warm_inmemory_qps']:,.0f}/s ({spill['warm_ratio']:.1%}) · "
        f"fault {spill['fault_us']:.1f} µs"
    )
    print(
        f"spill residency: {residency['population']:,} principals through "
        f"{residency['max_resident']} slots (cap held: "
        f"{residency['cap_held']}), {residency['faults']:,} faults, "
        f"log {residency['log_bytes']:,} B, "
        f"peak {residency['traced_peak_mb']:.0f} MB"
    )
    print(
        f"snapshot delta: {snapshot['delta_bytes']:,} B vs full "
        f"{snapshot['full_bytes']:,} B ({snapshot['shrink']:.0f}x smaller, "
        f"{snapshot['speedup']:.0f}x faster)"
    )
    print(
        f"replica pool (label-bound): single {pool['single_async_qps']:,.0f}/s "
        f"→ {pool['replicas']} replicas {pool['pooled_async_qps']:,.0f}/s "
        f"({pool['scaling']:.2f}x on {pool['cores_visible']} visible core(s))"
    )

    failures = []
    if not residency["cap_held"]:
        failures.append(
            f"spill tier let residency exceed its "
            f"{residency['max_resident']}-session cap "
            f"(peak population {residency['population']:,})"
        )
    if restart["hit_rate_recovery"] < 0.9:
        failures.append(
            f"warm restart recovered only {restart['hit_rate_recovery']:.1%} "
            "of the pre-restart label-cache hit rate (bar: 90%)"
        )
    if not http["prometheus"]["consistent"]:
        failures.append(
            "prometheus exposition disagrees with the JSON snapshot: "
            + "; ".join(http["prometheus"]["mismatches"])
        )
    if check_path:
        with open(check_path) as handle:
            baseline = json.load(handle)
        floor = 0.7 * baseline["warm_single_qps"]
        print(
            f"baseline warm single-query: {baseline['warm_single_qps']:,.0f} "
            f"decisions/sec (floor at -30%: {floor:,.0f})"
        )
        if warm_qps < floor:
            failures.append(
                f"warm single-query throughput {warm_qps:,.0f}/s is more "
                f"than 30% below the committed baseline "
                f"{baseline['warm_single_qps']:,.0f}/s"
            )
        batch_floor = 0.7 * baseline.get("batch_qps", 0)
        if batch_qps < batch_floor:
            failures.append(
                f"batch throughput {batch_qps:,.0f}/s is more than 30% "
                f"below the committed baseline "
                f"{baseline['batch_qps']:,.0f}/s"
            )
        http_floor = baseline.get("http_v2_async_qps", 0)
        if http["v2_async_single_qps"] < http_floor:
            failures.append(
                f"v2 asyncio HTTP throughput "
                f"{http['v2_async_single_qps']:,.0f}/s is below the "
                f"committed floor {http_floor:,.0f}/s"
            )
        speedup_floor = baseline.get("http_speedup_floor", 0.0)
        if http["speedup"] < speedup_floor:
            failures.append(
                f"v2 asyncio speedup over v1 stdlib is only "
                f"{http['speedup']:.2f}x (floor: {speedup_floor:.1f}x; "
                "the PR 5 acceptance bar on an unloaded machine is 4x)"
            )
        obs_floor = baseline.get("obs_overhead_floor", 0.0)
        if obs["ratio"] < obs_floor:
            failures.append(
                f"default observability retains only {obs['ratio']:.1%} of "
                f"the uninstrumented warm single-query floor "
                f"(floor: {obs_floor:.0%})"
            )
        spill_floor = baseline.get("spill_warm_floor", 0.0)
        if spill["warm_ratio"] < spill_floor:
            failures.append(
                f"spill-backed warm tier runs at only "
                f"{spill['warm_ratio']:.1%} of the in-memory store's "
                f"throughput (floor: {spill_floor:.0%})"
            )
        shrink_floor = baseline.get("snapshot_delta_shrink", 0.0)
        if snapshot["shrink"] < shrink_floor:
            failures.append(
                f"incremental snapshot is only {snapshot['shrink']:.1f}x "
                f"smaller than the full base (floor: {shrink_floor:.0f}x; "
                "delta writes must stay O(dirty sessions), not O(sessions))"
            )
        pool_floor = baseline.get("http_pool_scaling", 0.0)
        if pool["cores_visible"] < 2:
            print(
                "replica-pool scaling gate skipped: only one CPU core is "
                "visible, so the replicas time-slice one CPU and the "
                "measurement cannot show multi-core scaling"
            )
        elif pool["scaling"] < pool_floor:
            failures.append(
                f"kernel replica pool scales label-bound throughput only "
                f"{pool['scaling']:.2f}x over the single-process front end "
                f"with {pool['replicas']} replicas on "
                f"{pool['cores_visible']} cores (floor: {pool_floor:.1f}x)"
            )
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="serving-throughput sweeps (see module docstring)"
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="sweep batch sizes through submit_batch (in process)",
    )
    parser.add_argument(
        "--restart", action="store_true",
        help="measure cold vs warm restart (hit rate, qps, restore time)",
    )
    parser.add_argument(
        "--http", action="store_true",
        help="compare v1-stdlib vs v2-asyncio single-query HTTP throughput",
    )
    parser.add_argument(
        "--spill", action="store_true",
        help="measure the disk-backed memory tier (warm-path tax, fault "
        "latency, bounded residency, snapshot delta vs full)",
    )
    parser.add_argument(
        "--pool", action="store_true",
        help="compare the single-process asyncio front end against the "
        "kernel replica pool on a label-bound workload",
    )
    parser.add_argument(
        "--principals", type=int, default=100_000,
        help="(--spill) zipfian population size; 1000000 is the "
        "million-session smoke (not run in CI)",
    )
    parser.add_argument(
        "--ci", action="store_true",
        help="deterministic quick run for the CI regression gate",
    )
    parser.add_argument(
        "--json", default="BENCH_PR9.json",
        help="(--ci) where to write the results JSON",
    )
    parser.add_argument(
        "--check",
        help="(--ci) baseline JSON; exit 1 if warm single-query "
        "throughput drops >30%% below it",
    )
    parser.add_argument("--queries", type=int, default=4096)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=6)
    args = parser.parse_args(argv)
    if not (
        args.batch or args.restart or args.http
        or args.spill or args.pool or args.ci
    ):
        parser.error(
            "pick a mode: --batch, --restart, --http, --spill, "
            "--pool, and/or --ci"
        )
    if args.ci:
        return _run_ci(args.json, args.check, args.seed)
    if args.batch:
        _sweep_batch_sizes(args.queries, args.seed)
    if args.restart:
        _sweep_restart(args.queries, args.seed)
    if args.http:
        _sweep_http(args.duration, args.seed)
    if args.spill:
        _sweep_spill(args.seed, args.principals)
    if args.pool:
        _sweep_pool(args.duration, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
