"""Span recorder for the benchmark's traced run.

This directory goes first on ``PYTHONPATH`` only in the traced run, so
Python imports this module at start-up in the server's front end and
in every replica it spawns.  When ``PERFBENCH_TRACE_DIR`` is set it
wraps the public entry points of each layer, keeps the spans in memory
and writes them to ``<dir>/spans-<pid>.json`` at exit.

Spans are folded as they close into 100 ms buckets of
``(count, total seconds, self seconds, value)`` per layer name, so the
memory kept does not grow with the request rate.  A span's self time
is its duration minus the time of the spans that ran inside it on the
same thread.  ``__root__`` sums the thread CPU time of the spans that
ran inside no other, which is the CPU time some layer covers; it is
thread time, not wall time, so a span stalled behind another thread
holding the interpreter lock is not counted twice.
"""

import os

_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

if _DIR:
    import atexit
    import json
    import sys
    import threading
    from time import perf_counter, thread_time

    _BUCKET = 10.0  # buckets per second
    _agg = {}
    _stacks = threading.local()
    _lock = threading.Lock()

    def _record(name, start, duration, self_time, value):
        key = (int(start * _BUCKET), name)
        with _lock:
            row = _agg.get(key)
            if row is None:
                _agg[key] = [1, duration, self_time, value]
            else:
                row[0] += 1
                row[1] += duration
                row[2] += self_time
                row[3] += value

    def _wrap(function, name, value_of=None):
        def traced(*args, **kwargs):
            stack = getattr(_stacks, "children", None)
            if stack is None:
                stack = _stacks.children = []
            root = not stack
            stack.append(0.0)
            if root:
                cpu = thread_time()
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = stack.pop()
                if root:
                    cpu = thread_time() - cpu
                    _record("__root__", start, cpu, cpu, 0.0)
                else:
                    stack[-1] += duration
            value = value_of(result) if value_of is not None else 0.0
            _record(name, start, duration, duration - inner, value)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__qualname__ = getattr(function, "__qualname__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    def _file_size(path):
        try:
            return float(os.path.getsize(path))
        except (OSError, TypeError):
            return 0.0

    def _install():
        from repro.labeling import pipeline
        from repro.server import aio, batch, kernel, persist, pool, service, store, wire2

        methods = [
            (aio._HttpProtocol, "data_received", "aio.frame", None),
            (aio._HttpProtocol, "_flush", "aio.respond", None),
            (aio.AsyncDecisionServer, "accept", "aio.accept", None),
            (aio.AsyncDecisionServer, "_drain", "aio.drain", None),
            (wire2.WireGateway, "resolve", "wire2.resolve", None),
            (kernel.DecisionKernel, "decide_group", "kernel.decide", None),
            (kernel.DecisionKernel, "decide_many", "kernel.decide", None),
            (kernel.DecisionKernel, "resolve_queries", "kernel.intern", None),
            (kernel.DecisionKernel, "adopt_plane_epoch", "kernel.adopt", None),
            (pipeline.BitVectorLabeler, "label_query", "labeling.label", None),
            (service.DisclosureService, "register", "policy.register", None),
            (service.DisclosureService, "import_state", "persist.import", None),
            (store.InMemoryStore, "fault", "store.fault", None),
            (store.SpillStore, "fault", "store.fault", None),
            (persist.SnapshotChain, "save", "persist.save", _file_size),
        ]
        for owner, attribute, name, value_of in methods:
            setattr(owner, attribute, _wrap(getattr(owner, attribute), name, value_of))
        functions = [
            (wire2, "render_single", "wire2.render", None),
            (batch, "decide_wire_items", "batch.decide", None),
            (persist, "collect_state", "persist.collect", None),
            (persist, "save_pool_snapshot", "persist.save", _file_size),
            (pool, "_encode", "pool.frame", None),
            (pool, "_decode", "pool.frame", None),
            (pool, "_worker_batch", "pool.replica_batch", None),
        ]
        for module, attribute, name, value_of in functions:
            original = getattr(module, attribute)
            traced = _wrap(original, name, value_of)
            # Modules that imported the name before this ran hold the
            # original; point them at the wrapper too.
            for other in list(sys.modules.values()):
                if getattr(other, attribute, None) is original:
                    setattr(other, attribute, traced)

    def _dump():
        rows = [[bucket, name, *row] for (bucket, name), row in _agg.items()]
        path = os.path.join(_DIR, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump({"pid": os.getpid(), "bucket_s": 1.0 / _BUCKET, "rows": rows}, handle)
        os.replace(path + ".tmp", path)

    _install()
    atexit.register(_dump)
