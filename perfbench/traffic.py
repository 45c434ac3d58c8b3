"""Seeded traffic for one workload, and the reference it must match.

A workload's traffic is a :mod:`repro.scenarios` spec compiled to a
trace from the benchmark's seed.  The trace is turned into *operations*
(register, reset, decide, peek) with every query parsed once up front,
and each principal is pinned to one connection so its operations reach
the server in trace order.

The reference is an in-process :class:`repro.client.LocalClient`
replay of the same operations.  Decisions are compared per principal
with :func:`repro.scenarios.decision_digest` (which leaves out the
``cached`` flag: cache locality is not a decision), after dropping the
``trace`` span the traced run asks for.
"""

from __future__ import annotations

import copy
import random
import zlib
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from repro.client import LocalClient
from repro.client.base import ClientError
from repro.client.parsing import parse_text
from repro.client.wire import query_to_datalog
from repro.facebook.workload import WorkloadGenerator, zipf_weights
from repro.scenarios import ScenarioSpec, compile_scenario, decision_digest
from repro.server.service import DisclosureService

REGISTER, RESET, DECIDE, PEEK = "register", "reset", "decide", "peek"

#: One operation: (kind, principal, payload).  The payload is the
#: policy for a register, the query index for a decide or a peek, and
#: ``None`` for a reset.
Op = Tuple[str, str, object]


class Traffic:
    """The operations of one run, their queries and connection pins."""

    def __init__(self, ops: List[Op], queries: List, connections: int):
        self.ops = ops
        self.queries = queries
        self.connections = connections
        lanes: Dict[str, int] = {}
        for _, principal, _ in ops:
            if principal not in lanes:
                lanes[principal] = (
                    zlib.crc32(principal.encode("utf-8")) % connections
                )
        self._lane_of = lanes
        #: The connection each operation travels on.
        self.lanes = [lanes[principal] for _, principal, _ in ops]
        #: Operations past the opening registrations, as compiled.
        self._body = ops[len(self.registrations()):]

    def reserve(self, count: int) -> None:
        """Make at least *count* operations available, by appending the
        compiled traffic after its opening registrations again as often
        as needed (a capacity search may probe more than was planned)."""
        while len(self.ops) < count:
            self.ops.extend(self._body)
            self.lanes.extend(self._lane_of[principal] for _, principal, _ in self._body)

    def copy(self) -> "Traffic":
        """A twin that later inserts into this traffic do not reach."""
        twin = copy.copy(self)
        twin.ops = list(self.ops)
        twin.lanes = list(self.lanes)
        return twin

    def insert(self, at: int, ops: List[Op]) -> None:
        """Insert *ops* before operation *at* (which must not be sent yet)."""
        self.ops[at:at] = ops
        self.lanes[at:at] = [self._lane_of[principal] for _, principal, _ in ops]

    def registrations(self) -> List[Op]:
        """The registrations that open the trace, before any decision."""
        opening = []
        for op in self.ops:
            if op[0] != REGISTER:
                break
            opening.append(op)
        return opening


def build_traffic(workload: Dict, seed: int, events: int, connections: int) -> Traffic:
    """Compile *workload*'s scenario for *seed* into *events* decides.

    A workload with ``shape_zipf`` redraws each decision's query
    zipf-skewed from the scenario's own shape pool, since the compiled
    scenario draws shapes uniformly.
    """
    spec_fields = dict(workload["scenario"])
    spec = ScenarioSpec(
        name=workload["name"],
        description=workload["why"],
        seed=seed,
        events=events,
        **spec_fields,
    )
    trace = compile_scenario(spec)
    redraw = None
    if workload.get("shape_zipf"):
        pool = [
            query_to_datalog(query)
            for query in WorkloadGenerator(
                max_subqueries=spec.max_subqueries, seed=seed
            ).stream(spec.query_pool)
        ]
        cumulative = list(accumulate(zipf_weights(len(pool), workload["shape_zipf"])))
        rng = random.Random(seed * 7919 + 1)

        def redraw() -> str:
            rank = bisect_right(cumulative, rng.random() * cumulative[-1])
            return pool[min(rank, len(pool) - 1)]

    index_of: Dict[str, int] = {}
    queries: List = []
    ops: List[Op] = []
    for event in trace.events:
        op = event["op"]
        principal = event["principal"]
        if op == "register":
            ops.append((REGISTER, principal, event["policy"]))
        elif op == "reset":
            ops.append((RESET, principal, None))
        else:
            text = redraw() if redraw is not None and op == DECIDE else event["datalog"]
            qindex = index_of.get(text)
            if qindex is None:
                qindex = index_of[text] = len(queries)
                queries.append(parse_text(text, "datalog"))
            ops.append((op, principal, qindex))
    return Traffic(ops, queries, connections)


def digest_streams(ops: Sequence[Op], results: Sequence) -> Dict[str, str]:
    """principal -> :func:`decision_digest` of its decides and peeks."""
    streams: Dict[str, List[Dict]] = {}
    for (kind, principal, _), result in zip(ops, results):
        if kind in (DECIDE, PEEK):
            if not isinstance(result, dict):
                result = {"error": "unanswered"}
            elif "trace" in result:
                result = {key: value for key, value in result.items() if key != "trace"}
            streams.setdefault(principal, []).append(result)
    return {principal: decision_digest(stream) for principal, stream in streams.items()}


def reference_results(ops: Sequence[Op], queries: Sequence) -> List:
    """The LocalClient replay of *ops*: one result per operation.

    A register or reset yields ``None``; a decide or peek yields its
    stable decision dict (or an error dict, which no workload expects).
    """
    client = LocalClient(DisclosureService())
    results: List = []
    append = results.append
    for kind, principal, payload in ops:
        try:
            if kind == DECIDE:
                append(client.submit(principal, queries[payload]))
            elif kind == PEEK:
                append(client.peek(principal, queries[payload]))
            elif kind == REGISTER:
                client.register(principal, payload)
                append(None)
            else:
                client.reset(principal)
                append(None)
        except ClientError as exc:
            append({"error": str(exc), "code": exc.code})
    client.service.close()
    return results
