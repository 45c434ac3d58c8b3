"""A lean open-loop load generator over the public AsyncHttpClient.

One asyncio loop, no threads.  Each connection is one pipelined
:class:`repro.client.AsyncHttpClient` (v2 wire) with its own scheduler
task; a principal always uses the same connection, so its operations
reach the server in trace order.  A scheduler wakes, sends every
operation that is due, and sleeps until the next one is due.  The
client writes all requests sent in one loop iteration in one socket
write.

Latency is timed from each operation's *due* time, not from when it
was actually sent, so a stall also charges the wait it imposes on the
operations queued behind it.  How late the sends ran is reported
separately as the generator's validity guard.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.client import AsyncHttpClient, ClientError

from traffic import DECIDE, PEEK, REGISTER, Traffic

#: With a core of its own, the generator spins through gaps shorter
#: than this rather than sleeping (the event loop's timers round up to
#: whole milliseconds).
_SPIN_S = 0.002


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank *q* percentile of *values* (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


class PhaseResult:
    """What one open-loop phase measured."""

    def __init__(self, rate: float, sent: int):
        self.rate = rate
        self.sent = sent
        self.latencies: List[float] = []
        self.late: List[float] = []
        self.failed = 0
        #: Operations still unanswered when the last one was sent.
        self.backlog = 0
        #: Operations unanswered, sampled every ``sample_s`` while sending.
        self.backlogs: List[int] = []
        self.window = 0.0
        #: v2 trace spans returned by sampled decisions (traced run).
        self.spans: List[Dict] = []

    def p(self, q: float) -> float:
        return percentile(self.latencies, q)


class LoadGenerator:
    """Drives a :class:`~traffic.Traffic` into one server, open loop."""

    def __init__(self, url: str, traffic: Traffic, *, trace_every: int = 0,
                 own_core: bool = False):
        self.traffic = traffic
        #: Whether the load process has a core the server does not use.
        self.spin_s = _SPIN_S if own_core else 0.0
        self.trace_every = trace_every
        self.clients = self._clients(url)
        #: One result per operation sent so far, in operation order.
        self.results: List[object] = []
        self.cursor = 0
        #: The operations in flight.
        self._tasks: set = set()
        self._idle: Optional[asyncio.Event] = None

    async def connect(self) -> None:
        for client in self.clients:
            await client.connect()
        self._idle = asyncio.Event()
        self._idle.set()

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def reconnect(self, url: str) -> None:
        """Continue the same traffic against a relaunched server."""
        await self.close()
        self.clients = self._clients(url)
        await self.connect()

    def rewind(self, cursor: int) -> None:
        """Go back to operation *cursor*, as if nothing after it had been
        sent (a relaunch over saved state receives them again)."""
        self.cursor = cursor
        self.results = self.results[:cursor]

    def _clients(self, url: str) -> List[AsyncHttpClient]:
        return [
            AsyncHttpClient(url, trace=self.trace_every or False, timeout=20.0)
            for _ in range(self.traffic.connections)
        ]

    # ------------------------------------------------------------------
    def _issue(self, index: int, due: float, phase: Optional[PhaseResult]) -> None:
        kind, principal, payload = self.traffic.ops[index]
        client = self.clients[self.traffic.lanes[index]]
        if kind == DECIDE:
            coro = client.submit(principal, self.traffic.queries[payload])
        elif kind == PEEK:
            coro = client.peek(principal, self.traffic.queries[payload])
        elif kind == REGISTER:
            coro = client.register(principal, payload)
        else:
            coro = client.reset(principal)
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        self._idle.clear()
        timed = kind == DECIDE or kind == PEEK

        def done(finished: asyncio.Task) -> None:
            now = perf_counter()
            self._tasks.discard(finished)
            if not self._tasks:
                self._idle.set()
            try:
                result = finished.result()
            except ClientError as exc:
                result = {"error": str(exc), "code": exc.code}
                if phase is not None:
                    phase.failed += 1
            # Registers and resets answer None; True marks them answered.
            self.results[index] = True if result is None else result
            if phase is not None and timed:
                phase.latencies.append(now - due)
                span = result.get("trace") if isinstance(result, dict) else None
                if span is not None:
                    phase.spans.append(span)

        task.add_done_callback(done)

    async def _schedule(
        self, indices: List[int], dues: List[float], phase: Optional[PhaseResult]
    ) -> None:
        late = phase.late if phase is not None else None
        count = len(indices)
        k = 0
        while k < count:
            now = perf_counter()
            while k < count and dues[k] <= now:
                if late is not None:
                    late.append(now - dues[k])
                self._issue(indices[k], dues[k], phase)
                k += 1
            if k < count:
                # Spinning through short gaps keeps sends from running
                # late by a timer tick; it would steal CPU from a server
                # sharing the core, so only a generator alone on its
                # core spins.
                delay = dues[k] - perf_counter()
                spin = self.spin_s
                await asyncio.sleep(delay - spin if delay > spin else 0)

    async def drain(self, timeout: float = 30.0) -> bool:
        """Wait until every operation sent has been answered."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def _sample(self, phase: PhaseResult, every: float) -> None:
        while True:
            await asyncio.sleep(every)
            phase.backlogs.append(len(self._tasks))

    async def run(self, count: int, rate: float, *, sample_s: float = 0.0,
                  group: int = 1) -> PhaseResult:
        """Send the next *count* operations at *rate* per second.

        Operation ``i`` is due at ``start + i / rate``; with *group*,
        operations fall due together in groups of that many, at the same
        mean rate.  Returns after every operation has been answered (or
        the drain timed out).  With *sample_s*, the backlog is also
        sampled that often.
        """
        start_index = self.cursor
        self.traffic.reserve(start_index + count)
        self.cursor += count
        self.results.extend([None] * count)
        phase = PhaseResult(rate, count)
        per_connection: List[List[int]] = [[] for _ in self.clients]
        due_lists: List[List[float]] = [[] for _ in self.clients]
        start = perf_counter() + 0.005
        step = 1.0 / rate
        lanes = self.traffic.lanes
        for offset in range(count):
            index = start_index + offset
            lane = lanes[index]
            per_connection[lane].append(index)
            due_lists[lane].append(start + (offset - offset % group) * step)
        sampler = (
            asyncio.get_running_loop().create_task(self._sample(phase, sample_s))
            if sample_s else None
        )
        await asyncio.gather(
            *(
                self._schedule(indices, dues, phase)
                for indices, dues in zip(per_connection, due_lists)
                if indices
            )
        )
        if sampler is not None:
            sampler.cancel()
        phase.window = perf_counter() - start
        phase.backlog = len(self._tasks)
        if not await self.drain():
            phase.failed += len(self._tasks)
        return phase

    async def first_answer(self) -> float:
        """Send the next operations one at a time until a decision is
        answered; returns when it was."""
        while True:
            self.traffic.reserve(self.cursor + 1)
            kind = self.traffic.ops[self.cursor][0]
            await self.burst(1)
            if kind == DECIDE or kind == PEEK:
                return perf_counter()

    async def burst(self, count: int, window: int = 256) -> None:
        """Send the next *count* operations closed loop, *window* in flight.

        Used for warm-up and restarts: no schedule, nothing timed.
        """
        start_index = self.cursor
        self.traffic.reserve(start_index + count)
        self.cursor += count
        self.results.extend([None] * count)
        for offset in range(count):
            while len(self._tasks) >= window:
                await asyncio.sleep(0.0005)
            self._issue(start_index + offset, perf_counter(), None)
            if offset % 64 == 63:
                await asyncio.sleep(0)
        await self.drain()
