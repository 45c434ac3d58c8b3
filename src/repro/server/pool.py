"""The kernel replica pool: a multi-core data plane behind one front end.

The pool keeps exactly one front end (the asyncio server of
:mod:`repro.server.aio`) and moves only the *data plane* — the
:class:`~repro.server.kernel.DecisionKernel` — into worker processes:

* **One dispatcher, N kernel replicas.**  The front end's per-tick
  drain partitions each coalesced batch by owning replica (the CRC-32
  principal assignment of :func:`repro.server.partition.shard_for`),
  ships qid-native sub-batches over ``multiprocessing`` pipes, and
  reassembles replies in arrival order — the drain's order-exactness
  guarantee survives because each tick is dispatched and gathered as a
  unit, and a principal's whole session lives on exactly one replica.
* **The parent owns interning.**  Replicas never intern a query shape:
  the dispatcher ships *plane deltas* — the canonical-key rows assigned
  since the replica's last sync, positionally exact because qids are
  dense and append-only (:meth:`QueryInterner.export_keys_since`) —
  ahead of any batch that references them, and propagates plane
  rotation as an epoch bump the replica adopts wholesale
  (:meth:`DecisionKernel.adopt_plane_epoch`).  Replicas therefore stay
  id-consistent with the parent by construction.  The lid space stays
  replica-local: labels are a pure function of the query shape, so each
  replica derives them independently (same packed labels, possibly
  different dense ids — nothing lid-shaped ever crosses the pipe).
* **The parent mirrors sessions.**  Every updating sub-batch reply
  carries the touched sessions' serializable states; the parent applies
  them to its own :class:`~repro.server.store.SessionStore` (RAM or
  spill tier).  That mirror is what makes replicas disposable: when one
  dies (crash, kill -9), the dispatcher respawns it, refaults its owned
  principals from the mirror (:func:`~repro.server.store.iter_owned_states`),
  re-ships the plane, and replays the in-flight sub-batch once.

* **One event loop owns the pipes.**  Every parent-side operation is a
  coroutine run by the front end's tick consumer, in order with the
  decision ticks; synchronous callers (the periodic snapshotter, tests,
  benchmarks) go through :meth:`ReplicaPool.call`, which queues them on
  that same consumer.  Only the blocking spawn handshake runs off the
  loop — before it starts, or in its executor during a respawn — on a
  fresh pipe nobody else holds.

The pipe protocol is compact JSON frames (``Connection.send_bytes``),
one request/reply pair per frame except ``plane`` deltas, which are
one-way (the next batch is their acknowledgement).  Canonical keys ride
the same JSON-safe codec snapshots and the v2 wire use
(:func:`repro.core.canonical.encode_key`).  See ``docs/pool.md`` for
the frame catalogue.

Equivalence contract: local == async-http == pooled, byte-for-byte on
cached-stripped decisions across the whole scenario suite
(``tests/scenarios/test_scenario_equivalence.py``); the `cached` flag
is the one legitimate divergence, since label-cache warmth is
per-replica.
"""

from __future__ import annotations

import asyncio
import functools
import json
import multiprocessing
import os
import signal
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.canonical import decode_key, encode_key
from repro.errors import PolicyError
from repro.server.kernel import ServiceDecision
from repro.server.partition import (
    aggregate_metrics,
    merge_snapshot_payloads,
    shard_for,
)
from repro.server.service import DisclosureService
from repro.server.store import (
    SessionState,
    SpillStore,
    iter_owned_states,
    state_of,
)

#: The per-item error entry for a replica that died and could not be
#: respawned in time; the asyncio front end maps it to HTTP 503.
REPLICA_UNAVAILABLE = "replica-unavailable"


def _encode(frame: object) -> bytes:
    return json.dumps(frame, separators=(",", ":")).encode("utf-8")


def _decode(data: bytes) -> List:
    return json.loads(data)


# ----------------------------------------------------------------------
# The worker side: one kernel replica per process
# ----------------------------------------------------------------------
def _worker_batch(service: DisclosureService, update: bool, items: List) -> List:
    """Decide one qid-native sub-batch; the replica half of ``batch``.

    Items are ``[principal, qid]`` pairs whose qids the parent already
    interned and shipped; the reply carries each decision's wire fields
    plus — for updating batches — the touched sessions' serializable
    states, which the parent folds into its authoritative mirror.
    """
    from repro.server.batch import decide_wire_items

    entries = [(principal, None, qid) for principal, qid in items]
    results = decide_wire_items(
        service, entries, update=update, plane=service.kernel.plane
    )
    rendered: List = []
    for result in results:
        if isinstance(result, ServiceDecision):
            rendered.append(
                [
                    "d",
                    result.accepted,
                    result.principal,
                    result.reason,
                    result.cached,
                    result.live_before,
                    result.live_after,
                ]
            )
        else:
            rendered.append(["e", result])
    touched: List = []
    if update:
        seen = set()
        with service._lock:
            for principal, _ in items:
                if principal in seen:
                    continue
                seen.add(principal)
                session = service.store.peek(principal)
                if session is not None:
                    state = state_of(session)
                else:
                    # Demoted between decide and gather: read the cold
                    # state and put it back (fault may consume it).
                    state = service.store.fault(principal)
                    if state is not None:
                        service.store.put_state(principal, state)
                if state is None:
                    continue  # transient peek session: nothing durable
                touched.append(
                    [
                        principal,
                        [list(p) for p in state.partitions],
                        state.live,
                        bool(state.ephemeral),
                    ]
                )
    return ["ok", rendered, touched]


def _worker_restore(service: DisclosureService, rows: List) -> int:
    """Refault session states shipped by the parent (spawn/respawn)."""
    with service._lock:
        for principal, partitions, live, ephemeral in rows:
            service.store.put_state(
                principal,
                SessionState(
                    tuple(tuple(p) for p in partitions),
                    live,
                    bool(ephemeral),
                    service.state_epoch,
                ),
            )
    return len(rows)


def _replica_worker_main(
    index: int, conn, service_kwargs: Dict
) -> None:
    """Worker entry point: one service, one pipe, no HTTP.

    Top-level so it pickles under the ``spawn`` start method.  The loop
    is strictly request/reply (``plane`` frames excepted), so the parent
    and replica can never deadlock on a full pipe: at most one batch is
    in flight per replica.  A terminal's Ctrl-C reaches the whole
    process group; replicas ignore it, because the front end owns
    shutdown: it takes the final snapshot from them, then stops them.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if service_kwargs.get("spill_dir"):
        # Spill logs are single-writer: each replica owns its own
        # subdirectory.
        service_kwargs = dict(
            service_kwargs,
            spill_dir=os.path.join(
                os.fspath(service_kwargs["spill_dir"]), f"replica-{index}"
            ),
        )
    service = DisclosureService(**service_kwargs)
    kernel = service.kernel
    plane_error: Optional[str] = None
    conn.send_bytes(_encode(["ready", index]))
    while True:
        try:
            frame = _decode(conn.recv_bytes())
        except (EOFError, OSError):
            break
        kind = frame[0]
        if kind == "stop":
            break
        if kind == "plane":
            # One-way: errors are remembered and surfaced on the next
            # request/reply frame so the protocol never desynchronizes.
            try:
                _, epoch, floor, keys = frame
                plane = kernel.plane
                if plane.epoch != epoch:
                    plane = kernel.adopt_plane_epoch(epoch)
                if len(plane.queries) != floor:
                    raise RuntimeError(
                        f"plane drift: replica {index} holds "
                        f"{len(plane.queries)} keys, parent shipped from "
                        f"{floor}"
                    )
                intern_key = plane.queries.intern_key
                for key in keys:
                    intern_key(decode_key(key))
            except Exception as exc:  # noqa: BLE001 - report, don't die
                plane_error = f"{type(exc).__name__}: {exc}"
            continue
        try:
            if plane_error is not None:
                reply: List = ["err", plane_error]
            elif kind == "batch":
                reply = _worker_batch(service, frame[1], frame[2])
            elif kind == "register":
                service.register(
                    frame[1], [tuple(p) for p in frame[2]]
                )
                reply = ["ok"]
            elif kind == "reset":
                try:
                    service.reset(frame[1])
                except PolicyError:
                    pass  # parent validated; a default-policy no-op
                reply = ["ok"]
            elif kind == "unregister":
                service.unregister(frame[1])
                reply = ["ok"]
            elif kind == "restore":
                reply = ["ok", _worker_restore(service, frame[1])]
            elif kind == "warm":
                from repro.server.persist import decode_cache_entries

                reply = ["ok", service.warm_label_cache(
                    decode_cache_entries(frame[1])
                )]
            elif kind == "metrics":
                reply = ["ok", service.metrics_snapshot()]
            elif kind == "snapshot":
                from repro.server.persist import snapshot_service

                reply = ["ok", snapshot_service(service)]
            else:
                reply = ["err", f"unknown frame kind {kind!r}"]
        except Exception as exc:  # noqa: BLE001 - report, don't die
            reply = ["err", f"{type(exc).__name__}: {exc}"]
        try:
            conn.send_bytes(_encode(reply))
        except (BrokenPipeError, OSError):
            break
    service.close()




# ----------------------------------------------------------------------
# The parent side: the dispatcher
# ----------------------------------------------------------------------
class ReplicaHandle:
    """One replica's process, pipe, and plane-sync watermark."""

    __slots__ = ("index", "process", "conn", "plane_epoch", "shipped")

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        #: The plane epoch this replica last adopted (-1: never synced).
        self.plane_epoch = -1
        #: Count of qid rows shipped within that epoch.
        self.shipped = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplicaHandle({self.index}, pid={self.process.pid})"


class ReplicaPool:
    """N kernel-replica worker processes behind one parent service.

    The parent *service* never decides in pooled mode — it owns
    parsing, interning, the v2 gateway, admin validation, and the
    authoritative session mirror; every decision is dispatched to the
    replica owning its principal.  Construct, :meth:`start`, then hand
    the pool to :class:`repro.server.aio.AsyncDecisionServer`.  Every
    operation past the spawn is a coroutine; synchronous code runs one
    with :meth:`call`.
    """

    def __init__(
        self,
        service: DisclosureService,
        replicas: int,
        *,
        service_kwargs: Optional[Dict] = None,
        start_method: str = "spawn",
        ready_timeout: float = 60.0,
        warm_entries: Optional[List[Tuple]] = None,
    ):
        if replicas < 1:
            raise ValueError("need at least one kernel replica")
        self.service = service
        self.replicas = replicas
        self.service_kwargs = dict(service_kwargs or {})
        self.ready_timeout = ready_timeout
        self._context = multiprocessing.get_context(start_method)
        self._warm_frame: Optional[List] = None
        self._warm_epoch = -1
        if warm_entries:
            from repro.server.persist import encode_cache_entries

            # The parent owns interning: the warm keys enter its plane
            # first, in the order each replica's warm import interns
            # them, so the two planes agree once warming is done.
            plane, _ = service.kernel.intern_keys(
                [key for key, _ in warm_entries]
            )
            self._warm_epoch = plane.epoch
            self._warm_frame = ["warm", encode_cache_entries(warm_entries)]
        self.handles: List[ReplicaHandle] = []
        #: Whether mirror applies may touch disk (spill-backed store);
        #: those go to the executor.
        self._mirror_blocking = isinstance(service.store, SpillStore)
        #: Set by a running front end (:meth:`attach`): queues a job on
        #: its tick consumer and returns a concurrent future.
        self._runner: Optional[Callable[[Callable], Any]] = None
        #: The loop :meth:`call` uses while no front end is attached.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        metrics = service.metrics
        #: Dispatch round-trip time (send → all replies applied), per
        #: tick segment; merged at scrape exactly like every histogram.
        self.dispatch_seconds = metrics.histogram(
            "repro_pool_dispatch_seconds"
        )
        self.batches = metrics.counter_vec(
            "repro_pool_batches_total", ("replica",)
        )
        self.items = metrics.counter_vec(
            "repro_pool_items_total", ("replica",)
        )
        self.respawns = metrics.counter_vec(
            "repro_pool_respawns_total", ("replica",)
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ReplicaPool":
        self.handles = [self._spawn(index) for index in range(self.replicas)]
        return self

    def close(self) -> None:
        for handle in self.handles:
            try:
                handle.conn.send_bytes(_encode(["stop"]))
            except (OSError, ValueError):
                pass
        for handle in self.handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self.handles = []
        if self._loop is not None:
            self._loop.run_until_complete(self._loop.shutdown_default_executor())
            self._loop.close()
            self._loop = None

    def _spawn(self, index: int) -> ReplicaHandle:
        """Start replica *index* and bring it up to date — blocking.

        Runs before any loop serves the pool, or in the loop's executor
        during a respawn; either way the pipe is fresh and only this
        call holds it.
        """
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_replica_worker_main,
            args=(index, child_conn, dict(self.service_kwargs)),
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.ready_timeout):
            process.terminate()
            raise TimeoutError(
                f"kernel replica {index} did not come up within "
                f"{self.ready_timeout:g}s"
            )
        ready = _decode(parent_conn.recv_bytes())
        if ready[:1] != ["ready"]:
            process.terminate()
            raise RuntimeError(f"replica {index} sent {ready!r}, not ready")
        handle = ReplicaHandle(index, process, parent_conn)
        plane = self.service.kernel.plane
        if self._warm_frame is not None and plane.epoch == self._warm_epoch:
            # Ship the plane holding the warm keys first, so the warm
            # import finds every key already interned at its qid.
            for data in self._plane_frames(handle, plane):
                parent_conn.send_bytes(data)
            self._handshake(handle, self._warm_frame)
        # Refault this replica's principals from the parent mirror —
        # the same step whether this is a cold start, a warm restart
        # from a snapshot, or a mid-serve respawn after a crash.
        with self.service._lock:
            rows = [
                [
                    principal,
                    [list(p) for p in state.partitions],
                    state.live,
                    bool(state.ephemeral),
                ]
                for principal, state in iter_owned_states(
                    self.service.store, index, self.replicas
                )
            ]
        if rows:
            self._handshake(handle, ["restore", rows])
        return handle

    def _handshake(self, handle: ReplicaHandle, frame: List) -> List:
        handle.conn.send_bytes(_encode(frame))
        return self._check_reply(handle, _decode(handle.conn.recv_bytes()))

    def _respawn(self, handle: ReplicaHandle) -> None:
        """Replace a dead replica in place; callers re-sync and replay."""
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5.0)
        fresh = self._spawn(handle.index)
        handle.process = fresh.process
        handle.conn = fresh.conn
        handle.plane_epoch = fresh.plane_epoch
        handle.shipped = fresh.shipped
        self.respawns.labels(str(handle.index)).increment()

    async def _respawn_off_loop(self, handle: ReplicaHandle) -> None:
        """:meth:`_respawn` in the executor: process start plus mirror
        refault can take seconds, and the loop keeps accepting."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._respawn, handle)

    # -- synchronous callers -------------------------------------------
    def attach(self, runner: Optional[Callable[[Callable], Any]]) -> None:
        """Route :meth:`call` through a front end's tick consumer.

        *runner* takes a coroutine function, queues it behind the ticks
        already waiting, and returns a :class:`concurrent.futures.Future`
        of its result; ``None`` detaches.
        """
        self._runner = runner

    def call(self, method: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run the pool coroutine ``method(*args, **kwargs)`` to completion.

        With a front end attached, the front end's loop runs it, in
        order with the decision ticks, so no replica pipe is touched
        from this thread.  Without one it runs on the pool's own loop —
        there is then no other user of the pipes.  Never call this from
        the front end's own loop.
        """
        job = functools.partial(method, *args, **kwargs)
        runner = self._runner
        if runner is not None:
            return runner(job).result()
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        return self._loop.run_until_complete(job())

    # -- the pipe primitives -------------------------------------------
    def _check_reply(self, handle: ReplicaHandle, reply: Optional[List]) -> List:
        """An ``ok`` reply, or the replica's own error surfaced.

        Replicas answer ``["err", detail]`` for malformed or failed
        admin frames; that detail is the diagnosis, so it is raised
        verbatim rather than folded into a generic protocol failure.
        """
        if reply and reply[0] == "err":
            raise RuntimeError(
                f"replica {handle.index} error: "
                f"{reply[1] if len(reply) > 1 else 'unknown'}"
            )
        if not reply or reply[0] != "ok":
            raise RuntimeError(f"replica {handle.index} failed: {reply!r}")
        return reply

    async def _roundtrip(self, handle: ReplicaHandle, frame: List) -> List:
        await self._send(handle, _encode(frame))
        await self._wait_readable(handle)
        reply = _decode(handle.conn.recv_bytes())  # repro: noqa[ASY01] - readability awaited above; remainder of a large reply streams in while the replica writes it
        return self._check_reply(handle, reply)

    async def _send(self, handle: ReplicaHandle, data: bytes) -> None:
        """Send one encoded frame without stalling the event loop.

        Pipe buffers are 64 KiB; a plane ship or a wide batch can
        exceed that while the replica is still busy, which is exactly
        when a bare ``send_bytes`` would block the loop.  Awaiting
        writability first keeps the wait on the loop; the send itself
        then drains against a replica that is actively reading.
        """
        await self._wait_writable(handle)
        handle.conn.send_bytes(data)  # repro: noqa[ASY01] - writability awaited above; bounded drain against a reading replica

    async def _recv_ok(self, handle: ReplicaHandle) -> Optional[List]:
        """The next ``ok`` reply, or ``None`` (dead pipe, error reply)."""
        await self._wait_readable(handle)
        try:
            reply = _decode(handle.conn.recv_bytes())  # repro: noqa[ASY01] - readability awaited above; bounded drain of an arriving reply
        except (EOFError, OSError, ValueError):
            return None
        return reply if reply and reply[0] == "ok" else None

    def _plane_frames(self, handle: ReplicaHandle, plane) -> List[bytes]:
        """The encoded plane rows *handle* is missing, watermark advanced.

        Advancing ``plane_epoch``/``shipped`` here means the caller
        *must* deliver every returned frame (or let the failure path
        respawn, which resets both watermarks).
        """
        epoch = plane.epoch
        if handle.plane_epoch != epoch:
            keys = plane.queries.export_keys()
            handle.plane_epoch = epoch
            handle.shipped = len(keys)
            return [
                _encode(["plane", epoch, 0, [encode_key(key) for key in keys]])
            ]
        count = len(plane.queries)
        if handle.shipped < count:
            keys = plane.queries.export_keys_since(handle.shipped)
            start = handle.shipped
            handle.shipped += len(keys)
            return [
                _encode(
                    ["plane", epoch, start, [encode_key(key) for key in keys]]
                )
            ]
        return []

    async def _ship(self, handle: ReplicaHandle, plane, frame: List) -> bool:
        """Send the plane rows *handle* is missing, then *frame*."""
        try:
            for data in self._plane_frames(handle, plane):
                await self._send(handle, data)
            await self._send(handle, _encode(frame))
        except (OSError, ValueError):
            return False
        return True

    @staticmethod
    async def _wait_writable(handle: ReplicaHandle) -> None:
        """Yield until *handle*'s pipe accepts writes (or is dead)."""
        try:
            fd = handle.conn.fileno()
        except (OSError, ValueError):
            return  # dead pipe: the send will fail into the retry path
        loop = asyncio.get_running_loop()
        ready = loop.create_future()
        try:
            loop.add_writer(fd, lambda: ready.done() or ready.set_result(None))
        except (OSError, ValueError):
            return
        try:
            await ready
        finally:
            loop.remove_writer(fd)

    @staticmethod
    async def _wait_readable(handle: ReplicaHandle) -> None:
        """Yield until *handle*'s pipe has data (or EOF) to read."""
        try:
            if handle.conn.poll(0):
                return
            fd = handle.conn.fileno()
        except (OSError, ValueError):
            return  # dead pipe: the recv will fail into the retry path
        loop = asyncio.get_running_loop()
        ready = loop.create_future()
        try:
            loop.add_reader(fd, lambda: ready.done() or ready.set_result(None))
        except (OSError, ValueError):
            return
        try:
            await ready
        finally:
            loop.remove_reader(fd)

    # -- the dispatch core ---------------------------------------------
    def owner_of(self, principal: Hashable) -> int:
        return shard_for(principal, self.replicas)

    async def decide(
        self,
        entries: Sequence[Tuple],
        *,
        update: bool,
        plane=None,
        timings: Optional[Dict] = None,
    ) -> List:
        """The pooled :func:`~repro.server.batch.decide_wire_items`.

        Same entry and result shapes — ``(principal, query, qid)`` in,
        :class:`ServiceDecision`-or-error-dict out, aligned — so the
        asyncio drain and both batch routes swap it in transparently.
        Sub-batches go to every involved replica before any reply is
        awaited, so replicas decide concurrently while the loop keeps
        parsing and queueing new requests; replies are gathered and
        applied in replica order, and the parent mirror absorbs the
        touched session states before the call returns.  A replica
        that died is respawned off the loop and its sub-batch replayed
        once.
        """
        service = self.service
        if plane is None:
            plane = service.kernel.resolution_plane()
        entries = list(entries)
        results: List = [None] * len(entries)
        if not entries:
            return results
        label_started = perf_counter() if timings is not None else 0.0
        # Unknown-principal isolation against the parent mirror — the
        # same pre-check decide_wire_items runs, against the same
        # authoritative session set.
        if service._default_policy is None:
            distinct = {principal for principal, _, _ in entries}
            with service._lock:
                unknown = {
                    principal
                    for principal in distinct
                    if principal not in service.store
                }
        else:
            unknown = frozenset()
        intern = plane.queries.intern
        sub_batches: Dict[int, Tuple[List[int], List]] = {}
        for index, (principal, query, qid) in enumerate(entries):
            if principal in unknown:
                results[index] = {
                    "error": f"unknown principal {principal!r}",
                    "code": "unknown-principal",
                }
                continue
            positions_items = sub_batches.setdefault(
                self.owner_of(principal), ([], [])
            )
            positions_items[0].append(index)
            positions_items[1].append(
                [principal, intern(query) if qid is None else qid]
            )
        if timings is not None:
            timings["label_us"] = (perf_counter() - label_started) * 1e6
        started = perf_counter()
        pending = []
        for owner in sorted(sub_batches):
            handle = self.handles[owner]
            positions, items = sub_batches[owner]
            frame = ["batch", update, items]
            sent = await self._ship(handle, plane, frame)
            pending.append((handle, positions, frame, sent))
        for handle, positions, frame, sent in pending:
            reply = await self._recv_ok(handle) if sent else None
            if reply is None:
                reply = await self._retry(handle, plane, frame)
            touched = self._absorb(handle, positions, reply, results, update)
            if not touched:
                continue
            if self._mirror_blocking:
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, self._apply_touched, touched)
            else:
                self._apply_touched(touched)  # repro: noqa[ASY01] - RAM mirror: dict puts under an uncontended lock, microseconds
        if pending:
            elapsed = perf_counter() - started
            self.dispatch_seconds.record(elapsed)
            if timings is not None:
                timings["decide_us"] = elapsed * 1e6
            for handle, positions, _, _ in pending:
                replica = str(handle.index)
                self.batches.labels(replica).increment()
                self.items.labels(replica).increment(len(positions))
        return results

    async def _retry(self, handle, plane, frame) -> Optional[List]:
        """One respawn + replay: refault from the mirror, re-ship the
        plane, resend the in-flight sub-batch.  The mirror reflects
        every *completed* batch, so the replay is exact unless the
        replica died inside this very frame — the documented
        at-least-once window (docs/pool.md)."""
        try:
            await self._respawn_off_loop(handle)
        except (OSError, ValueError, TimeoutError, RuntimeError):
            return None
        if not await self._ship(handle, plane, frame):
            return None
        return await self._recv_ok(handle)

    def _absorb(
        self, handle, positions, reply, results, update
    ) -> Optional[List]:
        """Fold one ok-reply (or its absence) into *results*.

        Returns the touched session rows still to be mirrored, or
        ``None`` when there is nothing to apply.
        """
        if reply is None:
            error = {
                "error": f"kernel replica {handle.index} unavailable",
                "code": REPLICA_UNAVAILABLE,
            }
            for position in positions:
                results[position] = dict(error)
            return None
        _, rendered, touched = reply
        for position, item in zip(positions, rendered):
            if item[0] == "d":
                results[position] = ServiceDecision(
                    item[1], item[2], item[3], item[4], item[5], item[6],
                    None,
                )
            elif item[0] == "e":
                results[position] = item[1]
            else:  # unknown row kind: refuse to guess what it meant
                results[position] = {
                    "error": (
                        f"replica {handle.index} sent unknown result "
                        f"kind {item[0]!r}"
                    ),
                    "code": REPLICA_UNAVAILABLE,
                }
        return touched if update and touched else None

    def _apply_touched(self, rows: List) -> None:
        service = self.service
        with service._lock:
            epoch = service.state_epoch
            for principal, partitions, live, ephemeral in rows:
                service.store.put_state(
                    principal,
                    SessionState(
                        tuple(tuple(p) for p in partitions),
                        live,
                        bool(ephemeral),
                        epoch,
                    ),
                )

    # -- admin / inline routes -----------------------------------------
    async def dispatch_inline(
        self, method: str, path: str, body: Optional[Dict]
    ) -> Optional[Tuple[int, object]]:
        """Serve the inline routes that must not run on the parent alone.

        Returns ``None`` for routes the parent's ordinary dispatch
        handles correctly (``/healthz``, ``/v2/protocol``,
        ``/internal/trace``); everything session- or metrics-shaped is
        intercepted here so replicas and mirror stay in lockstep.
        """
        from repro.server.httpd import dispatch, metrics_format

        route, _, query_string = path.partition("?")
        if method == "GET":
            if route == "/metrics":
                fmt, error = metrics_format(query_string)
                if error is not None:
                    return 400, {"error": error}
                snapshot = await self.metrics_snapshot()
                if fmt == "prometheus":
                    from repro.obs import render_prometheus

                    return 200, render_prometheus(snapshot)
                return 200, snapshot
            if route == "/internal/snapshot":
                return 200, await self.merged_snapshot()
            return None
        if method != "POST" or body is None:
            return None
        if route in ("/v1/register", "/v1/reset"):
            status, payload = dispatch(
                self.service, method, route, body, transport="async"
            )
            if status == 200:
                await self._admin(route, body)
            return status, payload
        if route == "/v1/batch":
            return await self._batch_v1(body)
        if route == "/v2/batch":
            return await self._batch_v2(body)
        return None

    async def _admin(self, route: str, body: Dict) -> None:
        """Forward a parent-validated admin mutation to its replica.

        A dead replica is respawned, and the respawn's mirror refault
        already carries the mutation (the parent applied it first), so
        no replay is needed.
        """
        principal = body.get("principal")
        handle = self.handles[self.owner_of(principal)]
        if route == "/v1/register":
            partitions = [
                list(p)
                for p in self.service._normalize_policy(body["policy"])
            ]
            frame = ["register", principal, partitions]
        else:
            frame = ["reset", principal]
        try:
            await self._roundtrip(handle, frame)
        except (OSError, EOFError, ValueError, RuntimeError):
            try:
                await self._respawn_off_loop(handle)
            except (OSError, TimeoutError, RuntimeError):
                pass  # the next dispatch will retry the respawn

    async def _batch_v1(self, body: Dict) -> Tuple[int, Dict]:
        """``POST /v1/batch`` pooled: parse on the parent, decide on the
        replicas, reassemble in input order (the v1 error shapes)."""
        from repro.server.batch import parse_wire_request
        from repro.server.httpd import validate_batch_body

        requests, peek, error = validate_batch_body(body)
        if error is not None:
            return error
        service = self.service
        results: List[Optional[Dict]] = [None] * len(requests)
        positions: List[int] = []
        entries: List[Tuple] = []
        for index, request in enumerate(requests):
            item, message = parse_wire_request(service, request)
            if message is not None:
                results[index] = {"error": message}
                continue
            principal = item[0]
            if principal not in service and service._default_policy is None:
                results[index] = {"error": f"unknown principal {principal!r}"}
                continue
            positions.append(index)
            entries.append((principal, item[1], None))
        decided = await self.decide(entries, update=not peek)
        for position, decision in zip(positions, decided):
            if isinstance(decision, ServiceDecision):
                results[position] = decision.as_dict()
            else:  # v1 keeps its historical error shape (no code)
                results[position] = {
                    "error": decision.get("error", "replica failure")
                }
        return 200, {"decisions": results, "count": len(results)}

    async def _batch_v2(self, body: Dict) -> Tuple[int, object]:
        """``POST /v2/batch`` pooled: the stdlib handler with the decide
        core swapped for the pool dispatch."""
        from repro.server.wire2 import (
            WireError,
            render_batch,
            resolve_batch,
        )

        try:
            peek, compact, principal_indices, plane, entries = resolve_batch(
                self.service, body
            )
        except WireError as exc:
            return exc.status, exc.payload()
        results = await self.decide(entries, update=not peek, plane=plane)
        return 200, render_batch(results, principal_indices, compact)

    # -- merged views ---------------------------------------------------
    async def metrics_snapshot(self) -> Dict:
        """One deployment-wide ``/metrics`` payload, merged at scrape.

        Replica snapshots merge through
        :func:`~repro.server.partition.aggregate_metrics` (counters sum,
        latency percentiles re-derive from merged buckets, registry
        series merge); the parent's own registry — request counters,
        pool dispatch timing, respawn counts — is folded in on top.
        The parent never decides, so nothing double counts.
        """
        from repro.obs import merge_registry_snapshots

        merged = aggregate_metrics(await self._collect("metrics"))
        merged["replica_count"] = merged.pop("shard_count")
        merged["replicas"] = merged.pop("shards")
        parent = self.service.metrics_snapshot()
        merged["uptime_seconds"] = max(
            merged.get("uptime_seconds", 0.0),
            parent.get("uptime_seconds", 0.0),
        )
        merged["registry"] = merge_registry_snapshots(
            [merged.get("registry"), parent.get("registry")]
        )
        return merged

    async def snapshot_payloads(self) -> List[Dict]:
        """Every live replica's snapshot payload (sessions, cache,
        counters) — the inputs of the pooled snapshot merge."""
        return await self._collect("snapshot")

    async def merged_snapshot(self) -> Dict:
        """The replica payloads folded into one restorable payload that
        is independent of the replica count."""
        return merge_snapshot_payloads(await self.snapshot_payloads())

    async def _collect(self, kind: str) -> List:
        """Every reachable replica's answer to a *kind* frame, in order;
        a dead replica is respawned and asked once more."""
        answers = []
        for handle in self.handles:
            try:
                reply = await self._roundtrip(handle, [kind])
            except (OSError, EOFError, ValueError, RuntimeError):
                try:
                    await self._respawn_off_loop(handle)
                    reply = await self._roundtrip(handle, [kind])
                except (OSError, EOFError, ValueError, TimeoutError, RuntimeError):
                    continue
            answers.append(reply[1])
        return answers


# ----------------------------------------------------------------------
# Embedding helpers
# ----------------------------------------------------------------------
class BackgroundPoolServer:
    """A pooled asyncio front end on a daemon thread (tests, benchmarks)."""

    def __init__(self, handle, pool: ReplicaPool, service: DisclosureService):
        self.handle = handle
        self.pool = pool
        self.service = service
        self.host = handle.host
        self.port = handle.port
        self.server = handle.server

    def stop(self, timeout: float = 5.0) -> None:
        self.handle.stop(timeout)
        self.pool.close()
        self.service.close()


def start_pooled_background(
    replicas: int,
    *,
    service_kwargs: Optional[Dict] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    start_method: str = "spawn",
) -> BackgroundPoolServer:
    """One pooled asyncio front end, ready to serve; returns a handle.

    *service_kwargs* configures both the parent (mirror) service and
    every replica — they must describe the same vocabulary and policy
    defaults or decisions would diverge from the single-process form.
    """
    from repro.server.aio import start_async_background

    kwargs = dict(service_kwargs or {})
    parent_kwargs = dict(kwargs)
    if parent_kwargs.get("spill_dir"):
        parent_kwargs["spill_dir"] = os.path.join(
            os.fspath(parent_kwargs["spill_dir"]), "front"
        )
    service = DisclosureService(**parent_kwargs)
    pool = ReplicaPool(
        service, replicas, service_kwargs=kwargs, start_method=start_method
    ).start()
    try:
        handle = start_async_background(service, host, port, pool=pool)
    except Exception:
        pool.close()
        service.close()
        raise
    return BackgroundPoolServer(handle, pool, service)
