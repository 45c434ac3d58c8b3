"""Closed-loop multi-worker load generator for the decision service.

Drives the Section 7.2 Facebook workload (random relation / attribute
subset / self–friend–fof–stranger target) through a
:class:`~repro.client.DecisionClient` and reports sustained
decisions/sec plus p50/p95/p99 latency.  Three transports:

* ``local`` — :class:`~repro.client.LocalClient` over an in-process
  service (the serving hot path, no network);
* ``http`` — one :class:`~repro.client.HttpClient` per worker thread
  against a running ``python -m repro serve`` (the v2 qid wire by
  default, negotiated down to v1 against older servers);
* ``async-http`` — one :class:`~repro.client.AsyncHttpClient` shared
  by *workers* coroutine slots on a single event loop, pipelining
  requests over one connection against ``repro serve --async`` (whose
  per-tick drain coalesces them into bulk decisions).

Closed loop means each worker (or slot) issues its next request only
after the previous one completes, so offered load adapts to service
capacity and the percentiles are honest service times rather than
queue times.  With ``open_loop=RATE`` the generator instead offers a
fixed aggregate load: arrivals are a Poisson process (exponential
gaps, rate split evenly across workers) and each latency sample is
*lateness-corrected* — measured from the request's scheduled arrival,
not from when the loop got around to sending it — so queueing delay
from an overloaded server shows up in the percentiles instead of
being silently absorbed (the coordinated-omission fix).  With
``batch > 1`` each "request" is a whole batch — ``submit_many`` on
whichever transport — and latency samples are amortized per-decision
times.  Principals get randomly generated partition policies (the
Figure 6 setup); each worker pre-generates a pool of query shapes and
cycles them, which after the first cycle exercises the warm-cache
path the acceptance bar measures.

Run ``python -m repro loadgen --help`` for the CLI.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.client import (
    AsyncHttpClient,
    ClientError,
    DecisionClient,
    HttpClient,
    LocalClient,
    query_to_datalog,
)
from repro.core.queries import ConjunctiveQuery
from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.obs import LatencyHistogram
from repro.server.service import DisclosureService

__all__ = [
    "LoadReport",
    "OpenLoopSchedule",
    "poisson_offsets",
    "query_to_datalog",
    "run_load",
]

#: The transports ``run_load`` (and ``repro loadgen --transport``) accept.
TRANSPORTS = ("local", "http", "async-http")


def merge_samples(sample_lists: Iterable[Sequence[float]]) -> List[float]:
    """Concatenate and sort raw per-worker latency samples."""
    merged: List[float] = []
    for samples in sample_lists:
        merged.extend(samples)
    merged.sort()
    return merged


def sample_percentile(sorted_samples: Sequence[float], fraction: float) -> float:
    """Exact percentile over pre-sorted raw samples (0.0 when empty)."""
    if not sorted_samples:
        return 0.0
    index = min(len(sorted_samples) - 1, int(fraction * len(sorted_samples)))
    return sorted_samples[index]


class OpenLoopSchedule:
    """Lateness-corrected open-loop pacing (the coordinated-omission fix).

    :meth:`wait_until` sleeps until ``origin + offset`` and returns the
    *scheduled* time; callers measure latency from the returned value,
    so a loop that falls behind surfaces queueing delay in its samples
    instead of silently thinning the offered load.  :meth:`delay_until`
    returns ``(scheduled, remaining_delay)`` for async callers that
    must ``await`` their own sleep.  Shared by the loadgen workers here
    and by the scenario trace-replay engine
    (:mod:`repro.scenarios.engine`), whose event timestamps are the
    offsets.
    """

    __slots__ = ("origin",)

    def __init__(self, origin: Optional[float] = None):
        self.origin = time.perf_counter() if origin is None else origin

    def delay_until(self, offset: float) -> Tuple[float, float]:
        scheduled = self.origin + offset
        return scheduled, scheduled - time.perf_counter()

    def wait_until(self, offset: float) -> float:
        scheduled, delay = self.delay_until(offset)
        if delay > 0:
            time.sleep(delay)
        return scheduled


def poisson_offsets(rng: random.Random, rate: float):
    """Cumulative Poisson arrival offsets (exponential gaps), forever."""
    offset = 0.0
    while True:
        offset += rng.expovariate(rate)
        yield offset


class LoadReport:
    """The outcome of one load-generation run."""

    __slots__ = (
        "mode",
        "workers",
        "batch",
        "total",
        "accepted",
        "refused",
        "errors",
        "elapsed",
        "p50_us",
        "p95_us",
        "p99_us",
        "cache_hit_rate",
        "open_loop",
        "histogram",
    )

    def __init__(
        self,
        mode: str,
        workers: int,
        total: int,
        accepted: int,
        refused: int,
        errors: int,
        elapsed: float,
        samples: Sequence[float],
        cache_hit_rate: Optional[float],
        batch: int = 1,
        open_loop: Optional[float] = None,
    ):
        self.mode = mode
        self.workers = workers
        self.batch = batch
        self.total = total
        self.accepted = accepted
        self.refused = refused
        self.errors = errors
        self.elapsed = elapsed
        self.p50_us = sample_percentile(samples, 0.50) * 1e6
        self.p95_us = sample_percentile(samples, 0.95) * 1e6
        self.p99_us = sample_percentile(samples, 0.99) * 1e6
        self.cache_hit_rate = cache_hit_rate
        self.open_loop = open_loop
        #: The samples folded into the mergeable log-bucketed form — the
        #: ``--hist-out`` artifact, comparable across runs and shards
        #: via :func:`repro.obs.aggregate_latency`.
        self.histogram = LatencyHistogram()
        for sample in samples:
            self.histogram.record(sample)

    @property
    def qps(self) -> float:
        return self.total / self.elapsed if self.elapsed else 0.0

    def hist_payload(self) -> Dict:
        """The JSON histogram artifact (``repro loadgen --hist-out``)."""
        payload = {
            "mode": self.mode,
            "workers": self.workers,
            "batch": self.batch,
            "open_loop": self.open_loop,
            "total": self.total,
            "errors": self.errors,
            "elapsed": self.elapsed,
            "qps": self.qps,
            "latency": self.histogram.snapshot(),
        }
        return payload

    def render(self) -> str:
        if self.open_loop is not None:
            shape = (
                f"{self.workers} workers, open loop @ "
                f"{self.open_loop:,.0f}/s offered"
            )
        else:
            shape = f"{self.workers} workers, closed loop"
        if self.batch > 1:
            shape += f", batches of {self.batch}"
        lines = [
            f"mode:       {self.mode} ({shape})",
            f"decisions:  {self.total} "
            f"({self.accepted} accepted, {self.refused} refused, "
            f"{self.errors} errors)",
            f"elapsed:    {self.elapsed:.2f} s",
            f"throughput: {self.qps:,.0f} decisions/sec",
            f"latency:    p50 {self.p50_us:.1f} µs   "
            f"p95 {self.p95_us:.1f} µs   p99 {self.p99_us:.1f} µs",
        ]
        if self.cache_hit_rate is not None:
            lines.append(f"label cache hit rate: {self.cache_hit_rate:.1%}")
        return "\n".join(lines)


class _WorkerResult:
    __slots__ = ("total", "accepted", "refused", "errors", "samples")

    def __init__(self):
        self.total = 0
        self.accepted = 0
        self.refused = 0
        self.errors = 0
        self.samples: List[float] = []


#: One pool entry: a principal and its parsed query.
PoolItem = Tuple[str, ConjunctiveQuery]


def _count_batch(decisions: Sequence[Dict]) -> Tuple[int, int, int]:
    accepted = refused = errors = 0
    for entry in decisions:
        if "error" in entry:
            errors += 1
        elif entry.get("accepted"):
            accepted += 1
        else:
            refused += 1
    return accepted, refused, errors


def _submit_one(client: DecisionClient, principal: str, query) -> Optional[bool]:
    """One decision through the client; ``None`` counts as an error."""
    try:
        return bool(client.submit(principal, query)["accepted"])
    except ClientError:
        return None


def _submit_chunk(client: DecisionClient, chunk: Sequence[PoolItem]):
    """One batch through the client: ``(accepted, refused, errors)``."""
    try:
        return _count_batch(client.submit_many(chunk))
    except ClientError:
        return 0, 0, len(chunk)


def _build_workload(
    view_names,
    workers: int,
    principals: int,
    max_partitions: int,
    max_elements: int,
    max_subqueries: int,
    query_pool: int,
    seed: int,
) -> Tuple[Dict[str, List[List[str]]], List[List[PoolItem]]]:
    """Figure 6 policies plus one query pool per worker."""
    names = [f"app-{index}" for index in range(principals)]
    policies = {
        name: [list(p) for p in policy]
        for name, policy in zip(
            names,
            generate_policies(
                view_names, principals, max_partitions, max_elements, seed=seed
            ),
        )
    }
    template = WorkloadGenerator(max_subqueries=max_subqueries, seed=seed)
    pools: List[List[PoolItem]] = []
    for worker in range(workers):
        generator = template.spawn(worker, seed=seed)
        rng = random.Random(seed * 7777 + worker)
        pools.append(
            [
                (rng.choice(names), query)
                for query in generator.stream(query_pool)
            ]
        )
    return policies, pools


def run_load(
    service: Optional[DisclosureService] = None,
    url: Optional[str] = None,
    *,
    transport: Optional[str] = None,
    protocol: str = "auto",
    workers: int = 4,
    duration: float = 2.0,
    total_queries: Optional[int] = None,
    principals: int = 100,
    max_partitions: int = 5,
    max_elements: int = 25,
    max_subqueries: int = 1,
    query_pool: int = 512,
    seed: int = 0,
    warm: bool = True,
    batch: int = 1,
    open_loop: Optional[float] = None,
) -> LoadReport:
    """Drive the workload and return a :class:`LoadReport`.

    The target is either *service* (an in-process
    :class:`DisclosureService`; the ``local`` transport) or *url* (a
    running server; ``http`` by default, ``async-http`` when requested
    via *transport*).  With neither, a fresh Facebook-vocabulary
    service is built in process.  *protocol* picks the HTTP wire
    (``auto`` negotiates v2 with fallback to v1).

    With *total_queries* the run is a fixed decision count split across
    workers; otherwise it runs for *duration* seconds.  *warm* sends
    each worker's distinct query shapes through once before the
    measured window, so the measured window hits the label cache the
    way a steady-state deployment does.  *batch* > 1 sends chunks of
    that many pool entries through ``submit_many`` per request; latency
    samples are then amortized per-decision times, so percentiles
    remain comparable with the one-at-a-time mode.

    *open_loop* switches from closed-loop to a fixed offered load of
    that many requests/sec in aggregate (Poisson arrivals split across
    workers); latency samples are then measured from each request's
    scheduled arrival time, so percentiles include the queueing delay
    of a server that cannot keep up (see the module docstring).

    For ``async-http``, *workers* is the number of concurrent
    closed-loop coroutine slots pipelined over one connection (64 is a
    good default against ``repro serve --async``).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if open_loop is not None and open_loop <= 0:
        raise ValueError("open_loop must be a positive requests/sec rate")
    if service is not None and url is not None:
        raise ValueError("pass either an in-process service or a URL, not both")
    if transport is None:
        transport = "local" if url is None else "http"
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r} (use {TRANSPORTS})")
    if transport == "local" and url is not None:
        raise ValueError("the local transport drives a service, not a URL")
    if transport != "local" and url is None:
        raise ValueError(f"the {transport} transport needs a --url target")
    if service is None and url is None:
        service = DisclosureService()

    # --- principals with random Figure 6 policies -------------------
    if service is not None:
        view_names = service.security_views.names
    else:
        from repro.facebook.permissions import facebook_security_views

        view_names = facebook_security_views().names
    policies, pools = _build_workload(
        view_names,
        workers,
        principals,
        max_partitions,
        max_elements,
        max_subqueries,
        query_pool,
        seed,
    )
    if service is not None:
        for name, policy in policies.items():
            service.register(name, policy)
    else:
        # One short-lived sync client registers for every transport
        # (registration is identical on both wire versions).
        with HttpClient(url) as admin:
            for name, policy in policies.items():
                admin.register(name, policy)

    per_worker_quota = (
        None if total_queries is None else max(1, total_queries // workers)
    )

    if transport == "async-http":
        assert url is not None
        return _run_async(
            url,
            protocol,
            pools,
            workers=workers,
            duration=duration,
            per_worker_quota=per_worker_quota,
            warm=warm,
            batch=batch,
            open_loop=open_loop,
            seed=seed,
        )

    def make_client() -> DecisionClient:
        if transport == "local":
            assert service is not None
            return LocalClient(service)
        assert url is not None
        return HttpClient(url, protocol=protocol)

    barrier = threading.Barrier(workers + 1)
    results = [_WorkerResult() for _ in range(workers)]

    def worker_main(index: int) -> None:
        pool = pools[index]
        result = results[index]
        # Any failure before the barrier must still reach the barrier, or
        # the main thread (and the surviving workers) would hang forever.
        client: Optional[DecisionClient] = None
        chunks: List[List[PoolItem]] = []
        try:
            client = make_client()
            if batch > 1:
                chunks = [
                    pool[offset : offset + batch]
                    for offset in range(0, len(pool), batch)
                ]
                if warm:
                    for chunk in chunks:
                        result.errors += _submit_chunk(client, chunk)[2]
            elif warm:
                for principal, query in pool:
                    if _submit_one(client, principal, query) is None:
                        result.errors += 1
        except Exception:
            result.errors += 1
            client = None
        barrier.wait()
        if client is None:
            return
        # Each worker times its own measured window from the barrier, so
        # warmup cost never leaks into the throughput figure.
        deadline = time.perf_counter() + duration
        samples = result.samples
        position = 0
        clock = time.perf_counter
        # Open loop: this worker's slice of the Poisson arrival process.
        # The schedule's returned times are *scheduled* send times;
        # samples measure from them, so falling behind surfaces as
        # latency, not lost load.
        offsets = (
            poisson_offsets(
                random.Random(seed * 31337 + index + 1), open_loop / workers
            )
            if open_loop is not None
            else None
        )
        schedule = OpenLoopSchedule()
        if batch > 1:
            size = len(chunks)
            while True:
                if per_worker_quota is not None:
                    if result.total >= per_worker_quota:
                        break
                elif clock() >= deadline:
                    break
                chunk = chunks[position]
                position += 1
                if position == size:
                    position = 0
                if offsets is None:
                    start = clock()
                else:
                    start = schedule.wait_until(next(offsets))
                accepted, refused, errors = _submit_chunk(client, chunk)
                samples.append((clock() - start) / len(chunk))
                result.total += len(chunk)
                result.accepted += accepted
                result.refused += refused
                result.errors += errors
            client.close()
            return
        size = len(pool)
        while True:
            if per_worker_quota is not None:
                if result.total >= per_worker_quota:
                    break
            elif clock() >= deadline:
                break
            principal, query = pool[position]
            position += 1
            if position == size:
                position = 0
            if offsets is None:
                start = clock()
            else:
                start = schedule.wait_until(next(offsets))
            accepted = _submit_one(client, principal, query)
            samples.append(clock() - start)
            result.total += 1
            if accepted is None:
                result.errors += 1
            elif accepted:
                result.accepted += 1
            else:
                result.refused += 1
        client.close()

    threads = [
        threading.Thread(target=worker_main, args=(index,), daemon=True)
        for index in range(workers)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()  # releases the workers once every one is warmed and ready
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    samples = merge_samples([r.samples for r in results])
    hit_rate = (
        service.label_cache.stats().hit_rate if service is not None else None
    )
    mode = "in-process" if transport == "local" else transport
    return LoadReport(
        mode,
        workers,
        sum(r.total for r in results),
        sum(r.accepted for r in results),
        sum(r.refused for r in results),
        sum(r.errors for r in results),
        elapsed,
        samples,
        hit_rate,
        batch=batch,
        open_loop=open_loop,
    )


def _run_async(
    url: str,
    protocol: str,
    pools: List[List[PoolItem]],
    *,
    workers: int,
    duration: float,
    per_worker_quota: Optional[int],
    warm: bool,
    batch: int,
    open_loop: Optional[float] = None,
    seed: int = 0,
) -> LoadReport:
    """The ``async-http`` driver: coroutine slots over one pipelined client.

    Every slot is its own closed loop — it issues its next request only
    once its previous response arrived — so *workers* is exactly the
    in-flight request count the server's tick drain gets to coalesce.
    With *open_loop*, slots instead pace themselves on their slice of
    the Poisson arrival schedule (lateness-corrected, as in the
    threaded driver).
    """
    import asyncio

    results = [_WorkerResult() for _ in range(workers)]

    async def slot_main(client: AsyncHttpClient, index: int) -> None:
        pool = pools[index]
        result = results[index]
        samples = result.samples
        clock = time.perf_counter
        chunks = [
            pool[offset : offset + batch]
            for offset in range(0, len(pool), batch)
        ]
        offsets = (
            poisson_offsets(
                random.Random(seed * 31337 + index + 1), open_loop / workers
            )
            if open_loop is not None
            else None
        )
        schedule = OpenLoopSchedule()
        deadline = clock() + duration
        position = 0
        size = len(chunks) if batch > 1 else len(pool)
        while True:
            if per_worker_quota is not None:
                if result.total >= per_worker_quota:
                    break
            elif clock() >= deadline:
                break
            if offsets is None:
                start = clock()
            else:
                start, delay = schedule.delay_until(next(offsets))
                if delay > 0:
                    await asyncio.sleep(delay)
            if batch > 1:
                chunk = chunks[position]
                try:
                    accepted, refused, errors = _count_batch(
                        await client.submit_many(chunk)
                    )
                except ClientError:
                    accepted, refused, errors = 0, 0, len(chunk)
                samples.append((clock() - start) / len(chunk))
                result.total += len(chunk)
                result.accepted += accepted
                result.refused += refused
                result.errors += errors
            else:
                principal, query = pool[position]
                try:
                    accepted = bool(
                        (await client.submit(principal, query))["accepted"]
                    )
                except ClientError:
                    accepted = None
                samples.append(clock() - start)
                result.total += 1
                if accepted is None:
                    result.errors += 1
                elif accepted:
                    result.accepted += 1
                else:
                    result.refused += 1
            position += 1
            if position == size:
                position = 0

    async def main() -> float:
        client = AsyncHttpClient(url, protocol=protocol)
        await client.connect()
        try:
            if warm:
                # Warm sequentially per slot, concurrently across slots.
                async def warm_slot(index: int) -> None:
                    for principal, query in pools[index]:
                        try:
                            await client.submit(principal, query)
                        except ClientError:
                            results[index].errors += 1

                await asyncio.gather(
                    *[warm_slot(index) for index in range(workers)]
                )
            start = time.perf_counter()
            await asyncio.gather(
                *[slot_main(client, index) for index in range(workers)]
            )
            return time.perf_counter() - start
        finally:
            await client.close()

    elapsed = asyncio.run(main())
    samples = merge_samples([r.samples for r in results])
    return LoadReport(
        "async-http",
        workers,
        sum(r.total for r in results),
        sum(r.accepted for r in results),
        sum(r.refused for r in results),
        sum(r.errors for r in results),
        elapsed,
        samples,
        None,
        batch=batch,
        open_loop=open_loop,
    )
