"""The asyncio HTTP front end: decision serving with tick coalescing.

The stdlib front end (:mod:`repro.server.httpd`) spends most of a
single-query request's budget outside the decision: thread wake-ups,
per-request socket writes, and one-at-a-time handling cap it around a
few thousand decisions/sec while the in-process path does hundreds of
thousands.  This front end closes that gap structurally instead of
incrementally:

* **One event loop, no threads.**  Connections are
  :class:`asyncio.Protocol` instances; requests are parsed straight
  out of the read buffer (pipelining supported) and responses are
  written in request order per connection.
* **The tick drain.**  Decision requests are not handled one by one:
  each is appended to a per-loop-iteration FIFO and a drain runs at
  the end of the tick (``call_soon``).  Everything that arrived in the
  same tick — across all connections — drains as one pass: consecutive
  single-decision requests with the same mode collapse into one
  :func:`repro.server.batch.decide_wire_items` call, i.e. one session
  lock, one bulk label resolution, and one ``decide_group`` per
  principal.  Load *is* the batch size: the busier the server, the
  fewer Python cycles per decision — batching as natural back-pressure.
* **Exact ordering.**  The FIFO preserves arrival order across request
  kinds, so a register or batch between two singles flushes the run
  before executing; state evolution is byte-identical to sequential
  handling (``tests/server/test_aio.py`` holds the stdlib and asyncio
  front ends to identical decision streams).

Routes and wire behavior are identical to the stdlib front end — the
same :func:`repro.server.httpd.dispatch` serves everything that is not
a coalescible single decision, and the same
:mod:`repro.server.wire2` gateway serves ``/v2``.  Start one with
``python -m repro serve --async`` or :func:`start_async_background`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from time import perf_counter

from repro.errors import ReproError
from repro.server.httpd import (
    MAX_BODY,
    dispatch,
    negotiate_metrics_path,
    parse_decision_body,
)
from repro.server.kernel import ServiceDecision
from repro.server.service import DisclosureService
from repro.server.wire2 import (
    BAD_REQUEST,
    WireError,
    gateway_for,
    render_single,
    resolve_single,
    single_error_status,
)

_REASON = {200: "OK", 400: "Bad Request", 404: "Not Found",
           405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
           500: "Internal Server Error", 501: "Not Implemented",
           502: "Bad Gateway", 503: "Service Unavailable"}


def _error_status(result: Dict) -> int:
    """HTTP status for a per-item error promoted to a single response.

    Same taxonomy as :func:`repro.server.wire2.single_error_status`,
    plus the pooled front end's one addition: a replica that died and
    could not be respawned answers 503, not 400.
    """
    from repro.server.pool import REPLICA_UNAVAILABLE

    if result.get("code") == REPLICA_UNAVAILABLE:
        return 503
    return single_error_status(result)


class _QueuedRequest:
    """One request waiting for the tick drain."""

    __slots__ = ("kind", "method", "path", "body", "slot", "update", "enqueued")

    def __init__(self, kind, method, path, body, slot, update=False,
                 enqueued=0.0):
        self.kind = kind  # "v1" | "v2" | "inline"
        self.method = method
        self.path = path
        self.body = body
        self.slot = slot
        #: For decision kinds: True for submit semantics, False for peek.
        self.update = update
        #: perf_counter at queue time, recorded only for traced requests
        #: (their spans report the drain-tick queue wait).
        self.enqueued = enqueued


class _HttpProtocol(asyncio.Protocol):
    """Minimal pipelined HTTP/1.1 framing onto the tick queue."""

    __slots__ = (
        "server",
        "transport",
        "_buffer",
        "_responses",
        "_closing",
    )

    def __init__(self, server: "AsyncDecisionServer"):
        self.server = server
        self.transport: Any = None
        self._buffer = b""
        #: ``(slot, close_after)`` in request order; written as they
        #: complete.
        self._responses: List[Tuple[asyncio.Future, bool]] = []
        self._closing = False

    # -- framing -------------------------------------------------------
    def connection_made(self, transport) -> None:
        transport.set_write_buffer_limits(high=1 << 20)
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self._closing = True
        self._responses.clear()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        while True:
            head_end = self._buffer.find(b"\r\n\r\n")
            if head_end < 0:
                if len(self._buffer) > MAX_BODY:
                    self._fail_now(400, "request head too large")
                return
            head = self._buffer[:head_end]
            request_line, _, header_block = head.partition(b"\r\n")
            parts = request_line.split()
            if len(parts) < 2:
                self._fail_now(400, "malformed request line")
                return
            method = parts[0].decode("ascii", "replace")
            path = parts[1].decode("ascii", "replace")
            length: Optional[int] = None
            close = False
            accept = None
            for line in header_block.split(b"\r\n"):
                name, _, value = line.partition(b":")
                lowered = name.strip().lower()
                if lowered == b"content-length":
                    # Exactly one, all digits: a second length or a
                    # sign would let two parsers frame the bytes apart.
                    # 19+ digits are no body size (and may exceed what
                    # int() converts).
                    if length is not None:
                        self._fail_now(400, "duplicate Content-Length")
                        return
                    digits = value.strip()
                    if not digits.isdigit() or len(digits) > 18:
                        self._fail_now(400, "bad Content-Length")
                        return
                    length = int(digits)
                elif lowered == b"connection":
                    close = value.strip().lower() == b"close"
                elif lowered == b"accept":
                    accept = value.strip().decode("ascii", "replace")
                elif lowered == b"transfer-encoding":
                    self._fail_now(
                        501, "Transfer-Encoding is not supported; "
                        "send a Content-Length body"
                    )
                    return
            if length is None:
                length = 0
            elif length > MAX_BODY:
                self._fail_now(413, "request body exceeds the 8 MiB cap")
                return
            body_start = head_end + 4
            if len(self._buffer) < body_start + length:
                return  # body still in flight
            raw = self._buffer[body_start : body_start + length]
            self._buffer = self._buffer[body_start + length :]
            if method == "GET":
                path = negotiate_metrics_path(path, accept)
            self._accept(method, path, raw, close)

    def _accept(self, method: str, path: str, raw: bytes, close: bool) -> None:
        loop = asyncio.get_running_loop()
        slot: asyncio.Future = loop.create_future()
        self._responses.append((slot, close))
        slot.add_done_callback(self._flush)
        self.server.accept(method, path, raw, slot)

    # -- responses -----------------------------------------------------
    def _flush(self, _done: asyncio.Future) -> None:
        if self._closing or self.transport is None:
            return
        chunks = []
        close = False
        while self._responses and self._responses[0][0].done():
            slot, close = self._responses.pop(0)
            status, payload = slot.result()
            if isinstance(payload, str):
                # Pre-rendered text (the Prometheus exposition).
                from repro.obs import PROMETHEUS_CONTENT_TYPE

                body = payload.encode("utf-8")
                content_type = PROMETHEUS_CONTENT_TYPE
            else:
                body = json.dumps(payload).encode("utf-8")
                content_type = "application/json"
            chunks.append(
                (
                    f"HTTP/1.1 {status} {_REASON.get(status, 'OK')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    + ("Connection: close\r\n" if close else "")
                    + "\r\n"
                ).encode("ascii")
                + body
            )
            if close:
                break
        if chunks:
            self.transport.write(b"".join(chunks))
            if close:
                self._closing = True
                self.transport.close()

    def _fail_now(self, status: int, message: str) -> None:
        """A framing-level failure: answer and drop the connection."""
        body = json.dumps({"error": message}).encode("utf-8")
        self.transport.write(
            (
                f"HTTP/1.1 {status} {_REASON.get(status, 'Bad Request')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("ascii")
            + body
        )
        self._closing = True
        self.transport.close()


class AsyncDecisionServer:
    """The asyncio front end over one :class:`DisclosureService`.

    With *pool* (a started :class:`repro.server.pool.ReplicaPool`), the
    front end becomes a pure control plane: the tick drain hands each
    coalesced tick to a single consumer task which dispatches decision
    runs to the kernel replicas and awaits their pipes without blocking
    the loop — new connections keep parsing and queueing while replicas
    compute.  One consumer preserves the drain's order-exactness: ticks
    are processed strictly in arrival order, one at a time.  The same
    consumer runs the pool jobs other threads queue through
    :meth:`ReplicaPool.call <repro.server.pool.ReplicaPool.call>`, so
    only this loop ever touches a replica pipe.
    """

    def __init__(
        self,
        service: Optional[DisclosureService] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        pool=None,
    ):
        self.service = service if service is not None else DisclosureService()
        self.host = host
        self.port = port
        self.pool = pool
        self.gateway = gateway_for(self.service)
        self._pending: List[_QueuedRequest] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ticks: Optional[asyncio.Queue] = None
        self._consumer: Optional[asyncio.Task] = None
        #: Drain observability: ticks run and requests coalesced.
        self.ticks = 0
        self.drained = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncDecisionServer":
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _HttpProtocol(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.pool is not None:
            self._loop = loop
            self._ticks = asyncio.Queue()
            self._consumer = loop.create_task(self._consume_ticks())
            self.pool.attach(self._submit_job)
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
            self._consumer = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # The tick queue
    # ------------------------------------------------------------------
    def accept(
        self, method: str, path: str, raw: bytes, slot: asyncio.Future
    ) -> None:
        """Classify one framed request and queue it for the tick drain."""
        body: Optional[Dict] = None
        if raw:
            try:
                parsed = json.loads(raw)
            except ValueError:
                slot.set_result((400, {"error": "request body is not valid JSON"}))
                return
            if not isinstance(parsed, dict):
                slot.set_result(
                    (400, {"error": "request body must be a JSON object"})
                )
                return
            body = parsed
        if method == "POST" and body is not None:
            if path == "/v2/query":
                # The peek flag picks the request's run mode, so its
                # type check cannot wait for _prepare (the stdlib front
                # end answers the same 400 via wire2.resolve_single).
                peek = body.get("peek", False)
                if not isinstance(peek, bool):
                    slot.set_result(
                        (
                            400,
                            {
                                "error": "'peek' must be a boolean",
                                "code": BAD_REQUEST,
                            },
                        )
                    )
                    return
                queued = _QueuedRequest(
                    "v2",
                    method,
                    path,
                    body,
                    slot,
                    not peek,
                    # Traced requests report their drain-tick queue wait.
                    perf_counter() if body.get("trace") is True else 0.0,
                )
            elif path in ("/v1/query", "/v1/peek"):
                queued = _QueuedRequest(
                    "v1", method, path, body, slot, path == "/v1/query"
                )
            else:
                queued = _QueuedRequest("inline", method, path, body, slot)
        else:
            queued = _QueuedRequest("inline", method, path, body, slot)
        if queued.kind != "inline":
            # Inline requests are counted by dispatch(); the coalesced
            # decision kinds bypass it, so label them here.
            requests = self.service.requests
            if requests is not None:
                requests.labels("async", path).increment()
        self._pending.append(queued)
        if len(self._pending) == 1:
            asyncio.get_running_loop().call_soon(self._drain)

    def _drain(self) -> None:
        """Process everything that arrived this tick, in arrival order.

        Consecutive single-decision requests with the same update mode
        become one run — decided in one :func:`decide_wire_items` pass —
        and any other request flushes the run first, so the observable
        state evolution is exactly sequential.

        In pooled mode the tick is only *handed off* here — the consumer
        task drains it, so the loop never blocks on a replica pipe and
        ticks still settle strictly in arrival order.
        """
        pending, self._pending = self._pending, []
        self.ticks += 1
        self.drained += len(pending)
        if self._ticks is not None:
            self._ticks.put_nowait(pending)
            return
        run: List[Tuple[_QueuedRequest, Tuple]] = []
        run_update = False
        for request in pending:
            if request.kind == "inline":
                self._flush_run(run, run_update)
                run = []
                try:
                    status_payload = dispatch(
                        self.service,
                        request.method,
                        request.path,
                        request.body,
                        transport="async",
                    )
                except Exception as exc:  # noqa: BLE001 - never hang a slot
                    status_payload = (500, {"error": f"internal error: {exc}"})
                request.slot.set_result(status_payload)
                continue
            prepared = self._prepare(request)
            if prepared is None:
                continue  # already answered (a request-shaped error)
            if run and request.update != run_update:
                self._flush_run(run, run_update)
                run = []
            run_update = request.update
            run.append((request, prepared))
        self._flush_run(run, run_update)

    def _submit_job(self, job: Callable) -> concurrent.futures.Future:
        """Queue the pool coroutine function *job* behind the waiting
        ticks; callable from any thread.  Returns its future result."""
        assert self._loop is not None
        future: concurrent.futures.Future = concurrent.futures.Future()
        self._loop.call_soon_threadsafe(self._enqueue_job, job, future)
        return future

    def _enqueue_job(self, job: Callable, future) -> None:
        if self._consumer is None or self._consumer.done():
            future.set_exception(RuntimeError("front end stopped"))
        else:
            assert self._ticks is not None
            self._ticks.put_nowait((job, future))

    async def _consume_ticks(self) -> None:
        """Drain handed-off ticks and pool jobs, one at a time, in
        arrival order, until cancelled."""
        ticks = self._ticks
        assert ticks is not None
        job_future = None
        try:
            while True:
                pending = await ticks.get()
                if isinstance(pending, tuple):
                    job, job_future = pending
                    try:
                        job_future.set_result(await job())
                    except Exception as exc:  # noqa: BLE001 - the caller re-raises it
                        job_future.set_exception(exc)
                    job_future = None
                    continue
                try:
                    await self._drain_pooled(pending)
                except Exception as exc:  # noqa: BLE001 - never hang a slot
                    failure = (500, {"error": f"internal error: {exc}"})
                    for request in pending:
                        if not request.slot.done():
                            request.slot.set_result(failure)
        finally:
            # Stopping: no caller may wait on a job nobody will run.
            self.pool.attach(None)
            stopped = RuntimeError("front end stopped")
            if job_future is not None:
                job_future.set_exception(stopped)
            while not ticks.empty():
                item = ticks.get_nowait()
                if isinstance(item, tuple):
                    item[1].set_exception(stopped)

    async def _drain_pooled(self, pending: List[_QueuedRequest]) -> None:
        """The pooled tick drain: same run discipline, replica dispatch.

        Inline routes that touch sessions or metrics go through
        :meth:`ReplicaPool.dispatch_inline` (the parent never decides in
        pooled mode); everything else falls through to the ordinary
        dispatch.  Decision runs ship to the replicas and their pipes
        are awaited, so replica compute overlaps front-end work.
        """
        pool = self.pool
        run: List[Tuple[_QueuedRequest, Tuple]] = []
        run_update = False
        for request in pending:
            if request.kind == "inline":
                await self._flush_run_pooled(run, run_update)
                run = []
                try:
                    status_payload = await pool.dispatch_inline(
                        request.method, request.path, request.body
                    )
                    if status_payload is None:
                        status_payload = dispatch(
                            self.service,
                            request.method,
                            request.path,
                            request.body,
                            transport="async",
                        )
                except Exception as exc:  # noqa: BLE001 - never hang a slot
                    status_payload = (500, {"error": f"internal error: {exc}"})
                request.slot.set_result(status_payload)
                continue
            prepared = self._prepare(request)
            if prepared is None:
                continue  # already answered (a request-shaped error)
            if run and request.update != run_update:
                await self._flush_run_pooled(run, run_update)
                run = []
            run_update = request.update
            run.append((request, prepared))
        await self._flush_run_pooled(run, run_update)

    def _prepare(self, request: _QueuedRequest):
        """``(principal, query, qid, plane, compact, trace)`` or ``None``.

        Resolves the request down to a decision entry through the same
        validation helpers the stdlib front end uses
        (:func:`repro.server.wire2.resolve_single`,
        :func:`repro.server.httpd.parse_decision_body`), answering
        request-shaped errors and parse failures immediately with
        byte-identical payloads.
        """
        body = request.body
        if request.kind == "v2":
            try:
                principal, _, compact, trace, plane, qid = resolve_single(
                    self.service, body
                )
            except WireError as exc:
                request.slot.set_result((exc.status, exc.payload()))
                return None
            return principal, None, qid, plane, compact, trace
        # v1: the stdlib front end's validation and parse path.
        try:
            parsed, error = parse_decision_body(self.service, body)
        except ReproError as exc:
            request.slot.set_result((400, {"error": str(exc)}))
            return None
        if error is not None:
            request.slot.set_result(error)
            return None
        principal, query = parsed
        return principal, query, None, None, False, False

    @staticmethod
    def _segment_runs(run: List) -> List[Tuple[List, Any]]:
        """Split a run into plane-homogeneous segments, in order.

        v2 entries carry the plane their qids belong to, and a rotation
        mid-tick must not mix id spaces.  v1 entries (plane None) join
        any segment.
        """
        segments: List[Tuple[List, Any]] = []
        start = 0
        plane = None
        for index, (_, prepared) in enumerate(run):
            entry_plane = prepared[3]
            if entry_plane is None:
                continue
            if plane is not None and entry_plane is not plane:
                segments.append((run[start:index], plane))
                start, plane = index, entry_plane
            else:
                plane = entry_plane
        segments.append((run[start:], plane))
        return segments

    def _flush_run(self, run: List, update: bool) -> None:
        """Decide one homogeneous run through the shared batch core."""
        if not run:
            return
        for segment, plane in self._segment_runs(run):
            self._decide_segment(segment, update, plane)

    async def _flush_run_pooled(self, run: List, update: bool) -> None:
        """Decide one homogeneous run through the replica pool."""
        if not run:
            return
        for segment, plane in self._segment_runs(run):
            await self._decide_segment_pooled(segment, update, plane)

    @staticmethod
    def _segment_entries(segment: List):
        entries = [
            (principal, query, qid)
            for _, (principal, query, qid, _, _, _) in segment
        ]
        traced = any(prepared[5] for _, prepared in segment)
        timings: Optional[Dict] = {} if traced else None
        started = perf_counter() if traced else 0.0
        return entries, timings, started

    @staticmethod
    def _fail_segment(segment: List, exc: Exception) -> None:
        failure = (500, {"error": f"internal error: {exc}"})
        for request, _ in segment:
            request.slot.set_result(failure)

    def _decide_segment(self, segment: List, update: bool, plane) -> None:
        if not segment:
            return
        from repro.server.batch import decide_wire_items

        entries, timings, started = self._segment_entries(segment)
        try:
            results = decide_wire_items(  # repro: noqa[ASY01] - the tick drain IS the data plane: the sync kernel core decides here by design, and spill faults are bounded page-sized reads (docs/sessions.md)
                self.service, entries, update=update, plane=plane,
                timings=timings,
            )
        except Exception as exc:  # noqa: BLE001 - never hang a slot
            self._fail_segment(segment, exc)
            return
        self._answer_segment(segment, results, started, timings)

    async def _decide_segment_pooled(
        self, segment: List, update: bool, plane
    ) -> None:
        if not segment:
            return
        entries, timings, started = self._segment_entries(segment)
        try:
            results = await self.pool.decide(
                entries, update=update, plane=plane, timings=timings
            )
        except Exception as exc:  # noqa: BLE001 - never hang a slot
            self._fail_segment(segment, exc)
            return
        self._answer_segment(segment, results, started, timings)

    def _answer_segment(
        self, segment: List, results: List, started: float,
        timings: Optional[Dict],
    ) -> None:
        coalesced = len(segment)
        for (request, prepared), result in zip(segment, results):
            compact = prepared[4]
            if isinstance(result, ServiceDecision):
                if prepared[5]:
                    request.slot.set_result(
                        self._traced_response(
                            request, prepared, result, started, timings,
                            coalesced,
                        )
                    )
                else:
                    request.slot.set_result(
                        (200, render_single(result, compact))
                    )
            elif request.kind == "v2":
                request.slot.set_result((_error_status(result), result))
            else:  # v1 keeps its historical error shape (no code field)
                request.slot.set_result(
                    (_error_status(result), {"error": result["error"]})
                )

    def _traced_response(
        self,
        request: _QueuedRequest,
        prepared: Tuple,
        result: ServiceDecision,
        started: float,
        timings: Dict,
        coalesced: int,
    ) -> Tuple[int, Dict]:
        """Build the traced full-dict response for one segment member.

        The drain decides a whole segment in one :func:`decide_wire_items`
        pass, so the kernel stage times in the span are *amortized* —
        the segment total divided by its size — while ``queue_us``
        (accept → decide start) and ``serialize_us`` are this request's
        own.  ``coalesced`` reports the segment size so the amortization
        is visible.
        """
        from repro.server.wire2 import finish_span

        render_started = perf_counter()
        payload = result.as_dict()
        span = {
            "transport": "async",
            "principal": prepared[0],
            "qid": request.body.get("qid"),
            "peek": not request.update,
            "coalesced": coalesced,
            "queue_us": (
                (started - request.enqueued) * 1e6 if request.enqueued else 0.0
            ),
            "label_us": timings.get("label_us", 0.0) / coalesced,
            "decide_us": timings.get("decide_us", 0.0) / coalesced,
            "serialize_us": (perf_counter() - render_started) * 1e6,
            "total_us": (render_started - started) * 1e6,
        }
        return 200, finish_span(self.service, span, payload)


# ----------------------------------------------------------------------
# Embedding helpers
# ----------------------------------------------------------------------
async def serve_async(
    service: Optional[DisclosureService] = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    pool=None,
    ready=None,
) -> None:
    """Run an :class:`AsyncDecisionServer` until cancelled.

    *ready*, when given, is called with the started server (tests and
    the CLI use it to learn the bound port).
    """
    server = AsyncDecisionServer(service, host, port, pool=pool)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


class BackgroundAsyncServer:
    """An asyncio front end on its own thread (tests, benchmarks)."""

    def __init__(self, server: AsyncDecisionServer, loop, task, thread):
        self.server = server
        self.host = server.host
        self.port = server.port
        self._loop = loop
        self._task = task
        self._thread = thread

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._task.cancel)
            self._thread.join(timeout=timeout)


def start_async_background(
    service: Optional[DisclosureService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    pool=None,
) -> BackgroundAsyncServer:
    """Start an asyncio front end on a daemon thread; returns a handle."""
    started = threading.Event()
    holder: Dict = {}

    async def main() -> None:
        server = AsyncDecisionServer(service, host, port, pool=pool)
        await server.start()
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
        holder["task"] = asyncio.current_task()
        started.set()
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    thread = threading.Thread(
        target=lambda: asyncio.run(main()), name="async-httpd", daemon=True
    )
    thread.start()
    if not started.wait(timeout=10.0):
        raise TimeoutError("asyncio front end did not start within 10s")
    return BackgroundAsyncServer(
        holder["server"], holder["loop"], holder["task"], thread
    )
