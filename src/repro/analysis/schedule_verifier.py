"""Static schedule verifier: prove collective schedules correct by family.

Example-based tests exercise a collective at a handful of world sizes and
check the numeric result; this module machine-checks the *schedule* — the
global send/recv multigraph a collective generates — for four properties,
swept over world sizes, chunk counts and host topologies:

**match-completeness**
    Every send is consumed by exactly one receive and vice versa: no
    orphan messages left in a mailbox, no two sends racing for the same
    ``(src, dst, tag)`` receive (ambiguous match).

**tag-space soundness**
    Every tag a schedule mints lies inside its declared region of the
    global tag-region map (:mod:`repro.comm.tags`), the regions are
    pairwise disjoint, and the per-field layout (epoch / phase / round /
    chunk) round-trips exactly — including the epoch-rollover bound,
    which must raise rather than wrap.

**deadlock-freedom**
    The graph of per-rank program order plus cross-rank send→recv match
    edges is acyclic.  Sends are eager on this substrate, so a blocked
    schedule manifests as starved receives (a live rank's receive times
    out; an interpreted rank waits when no rank can move); a cyclic
    wait-for graph among them is a deadlock.

**reduction coverage**
    Each rank contributes a one-hot + moment integer certificate; the
    reduced value on every rank must equal the exact elementwise sum of
    all certificates (``float64`` integer arithmetic below ``2**53`` is
    exact), proving every rank's term lands in the result exactly once.

Every synchronous collective's schedule is data (the plans of
:mod:`repro.collectives.sync`), so it is checked without threads:
:func:`interpret` walks every rank's plans
(:func:`repro.collectives.sync.walk_plans`, the one offline traversal of
a schedule) into the :class:`~repro.analysis.recording.RunRecord` the
checkers read.  :func:`build_plan_cases` is the one table of them — the
allreduce algorithms (with chunk pipelining, ``average``, the fp16 wire
and non-uniform :class:`~repro.collectives.topology.HostTopology` layouts
for the hierarchical schedule), the reduce-scatter and allgather halves,
dense and sharded collectives interleaved on one epoch counter, the
bucket-plan sequences of the deep500 and Horovod
:class:`~repro.training.exchange.SynchronousExchange` (Horovod's
negotiation is a ring allgather of a readiness table) and of
:class:`~repro.training.exchange.ShardedExchange`, the barrier (a
zero-length recursive-doubling allreduce) and the partial collectives'
activation, the binomial broadcast rooted at each initiator in turn
(:func:`activation_case`, up to P = 64) — interpreted at every world
size of the sweep and at P = 64, 256 and 1024.

What is not a plan runs on a thread per rank with a flight recorder
bound to each, and :func:`repro.analysis.recording.record` reads its
record off the recorders' ``comm`` spans: the serving tier's
request/response + hot-swap round trip (:func:`serving_round_trip`) and
the flight-recorder telemetry collection (:func:`telemetry_round_trip`) in
:func:`build_cases`, and one round of the real
:class:`~repro.collectives.partial.PartialAllreduce`
(:func:`partial_round_case`), whose progress threads send along the
activation plan.  :func:`run_case` checks a recorded and an interpreted
case alike.

:func:`self_test` proves the checkers have teeth: each deliberately
broken schedule (dropped receive, a plan missing a receive, reused tag,
swapped ring neighbour, double-counted term, tag outside its region, an
activation plan whose forwards wrap past the world) must be rejected by
the matching checker.

Entry point: ``python -m repro verify`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.recording import CommEvent, RunRecord, record
from repro.collectives import sync
from repro.collectives.topology import HostTopology
from repro.comm import tags
from repro.comm.communicator import Communicator, CommTimeoutError
from repro.comm.router import Channel

#: World sizes of the default sweep: the paper's power-of-two scales plus
#: primes and composites that exercise the non-power-of-two fold paths.
DEFAULT_WORLD_SIZES: Tuple[int, ...] = (2, 3, 4, 5, 7, 8, 16, 64)

#: Receive timeout of healthy verification runs (generous: a loaded CI
#: machine must not turn a correct schedule into a starvation report).
HEALTHY_RECV_TIMEOUT = 60.0
#: Receive timeout of deliberately broken (self-test) runs.
MUTANT_RECV_TIMEOUT = 1.0


# ---------------------------------------------------------------------------
# report model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Violation:
    """One property violation found in one verification case."""

    case: str
    check: str  # "match" | "tags" | "deadlock" | "reduction" | "crash" | "self-test"
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.case}: {self.detail}"


@dataclass
class CaseResult:
    """Outcome of one verification case."""

    name: str
    world_size: int
    violations: List[Violation] = field(default_factory=list)
    num_events: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


class VerificationReport:
    """Aggregated outcome of a verification sweep."""

    def __init__(self, results: Sequence[CaseResult]) -> None:
        self.results = list(results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def violations(self) -> List[Violation]:
        return [v for r in self.results for v in r.violations]

    def summary(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.ok else "FAIL"
            lines.append(
                f"  {status}  {r.name}  (P={r.world_size}, {r.num_events} events)"
            )
            for v in r.violations:
                lines.append(f"        -> {v}")
        passed = sum(1 for r in self.results if r.ok)
        lines.append(
            f"verified {len(self.results)} case(s): {passed} passed, "
            f"{len(self.results) - passed} failed"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# contribution certificates
# ---------------------------------------------------------------------------
def contribution(rank: int, size: int, n: Optional[int] = None) -> np.ndarray:
    """Rank ``rank``'s integer certificate vector.

    The first ``size`` elements are the rank's one-hot indicator (element
    ``rank`` is 1): after a sum-allreduce they must all equal exactly 1,
    so a dropped or double-counted rank is visible *per rank*.  The last
    three elements carry first/second moments ``r+1`` and ``(r+1)^2``
    (multiset fingerprints that catch compensating errors) and a count
    term.
    """
    if n is None:
        n = size + 3
    if n < size + 3:
        raise ValueError(
            f"certificate length {n} too short for world size {size} "
            f"(need at least {size + 3})"
        )
    v = np.zeros(n, dtype=np.float64)
    v[rank] = 1.0
    v[-3] = rank + 1
    v[-2] = (rank + 1) ** 2
    v[-1] = 1.0
    return v


def expected_sum(size: int, n: Optional[int] = None) -> np.ndarray:
    """Exact elementwise sum of all ranks' certificates."""
    if n is None:
        n = size + 3
    v = np.zeros(n, dtype=np.float64)
    v[:size] = 1.0
    v[-3] = size * (size + 1) / 2
    v[-2] = sum((r + 1) ** 2 for r in range(size))
    v[-1] = size
    return v


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------
def check_match_completeness(record: RunRecord, case: str) -> List[Violation]:
    """No orphan sends, no unmatched receives, no ambiguous double-matches."""
    violations: List[Violation] = []

    # Two sends sharing (src, dst, tag, channel) race for the same posted
    # receive: the FIFO mailbox resolves the race deterministically here,
    # but the schedule's tag-uniqueness contract is broken and a real
    # transport with out-of-order delivery would corrupt the reduction.
    sends, recvs = record.sends(), record.recvs()
    by_key = Counter(map(attrgetter("rank", "peer", "tag", "channel"), sends))
    for (src, dst, tag, channel) in sorted(k for k, n in by_key.items() if n > 1):
        violations.append(Violation(
            case, "match",
            f"ambiguous match: {by_key[src, dst, tag, channel]} sends "
            f"{src}->{dst} share tag {tag} on channel {channel!r}",
        ))

    consumed = set(map(attrgetter("seq"), recvs))
    sent = dict(zip(map(attrgetter("seq"), sends), sends))
    if not record.starved():
        # With starvation present the orphans are a symptom; the
        # deadlock checker reports the root cause instead.
        for seq in sorted(seq for seq in sent if seq not in consumed):
            e = sent[seq]
            violations.append(Violation(
                case, "match",
                f"orphan send: {e.rank}->{e.peer} tag {e.tag} on channel "
                f"{e.channel!r} (seq {seq}) was never received",
            ))
    for e in recvs:
        if e.seq not in sent:
            violations.append(Violation(
                case, "match",
                f"recv on rank {e.rank} consumed unknown message seq {e.seq}",
            ))
    return violations


def check_tag_soundness(
    record: RunRecord, case: str, allowed_regions: FrozenSet[str]
) -> List[Violation]:
    """Every minted tag lies in a declared region the case is allowed to use."""
    violations: List[Violation] = []
    seen: set = set()
    for e in record.sends():
        if e.tag in seen:
            continue  # every verdict below is a property of the tag alone
        seen.add(e.tag)
        reg = tags.region_of(e.tag)
        if reg is None:
            violations.append(Violation(
                case, "tags",
                f"tag {e.tag} (send {e.rank}->{e.peer}) lies outside every "
                f"declared region of the tag-region map",
            ))
            continue
        if reg.name not in allowed_regions:
            violations.append(Violation(
                case, "tags",
                f"tag {e.tag} (send {e.rank}->{e.peer}) lies in region "
                f"{reg.name!r}, not allowed for this schedule "
                f"(allowed: {sorted(allowed_regions)})",
            ))
        if reg.name == tags.SYNC.name:
            fields = tags.decode_sync_tag(e.tag)
            if tags.sync_tag(*fields) != e.tag:
                violations.append(Violation(
                    case, "tags",
                    f"sync tag {e.tag} does not round-trip through the "
                    f"(epoch, phase, round, chunk) layout: {fields}",
                ))
    return violations


def check_deadlock_freedom(
    record: RunRecord, case: str, toposort: bool = True
) -> List[Violation]:
    """No cyclic waits; program order + match edges form a DAG.

    ``toposort=False`` trusts the event order of a healthy record as the
    witness: :func:`interpret`'s walk appends every event after its
    program-order predecessor and every receive after the send it
    matches, so on an interpreted record that is neither starved nor
    errored the toposort cannot fail.  Crashes and starvation are
    checked either way."""
    violations: List[Violation] = []
    for rank, err in record.crashed:
        violations.append(Violation(
            case, "crash", f"rank {rank} raised {type(err).__name__}: {err}"
        ))

    starved = record.starved()
    if starved:
        # Each starving rank waits on its awaited source.  A cycle among
        # the starving ranks is a deadlock; an acyclic wait-for graph
        # means some send was simply never issued (lost message).
        waits: Dict[int, int] = {e.rank: e.peer for e in starved}
        in_cycle: set = set()
        for start in waits:
            seen = []
            node = start
            while node in waits and node not in in_cycle and len(seen) <= len(waits):
                seen.append(node)
                node = waits[node]
                if node in seen:
                    in_cycle.update(seen[seen.index(node):])
                    break
        if in_cycle:
            cycle = sorted(in_cycle)
            violations.append(Violation(
                case, "deadlock",
                f"cyclic wait among ranks {cycle}: each is blocked on a "
                f"receive whose sender is itself blocked",
            ))
        else:
            details = ", ".join(
                f"rank {e.rank} <- {e.peer} tag {e.tag}" for e in starved[:4]
            )
            violations.append(Violation(
                case, "deadlock",
                f"{len(starved)} receive(s) starved with no cyclic wait "
                f"(lost/never-issued message): {details}",
            ))
        return violations
    if not toposort and not any(record.errors):
        return violations

    # Healthy run: re-derive a witness schedule from the recorded graph
    # alone (Kahn toposort of program-order + match edges).
    events = record.events
    n = len(events)
    kinds, ranks, orders, seqs = (
        np.array(list(map(attrgetter(name), events)))
        for name in ("kind", "rank", "order", "seq")
    )
    after = np.full(n, -1)  # the next event of the same rank
    chain = np.lexsort((orders, ranks))
    same = ranks[chain[1:]] == ranks[chain[:-1]]
    after[chain[:-1][same]] = chain[1:][same]
    matched = np.full(n, -1)  # the receive that consumed a send
    sends = np.flatnonzero(kinds == "send")
    sends = sends[np.argsort(seqs[sends])]
    recvs = np.flatnonzero(kinds == "recv")
    at = np.minimum(np.searchsorted(seqs[sends], seqs[recvs]), max(sends.size - 1, 0))
    hit = seqs[sends[at]] == seqs[recvs] if sends.size else np.zeros(0, bool)
    matched[sends[at[hit]]] = recvs[hit]
    indegree = np.bincount(
        np.concatenate((after[after >= 0], matched[matched >= 0])), minlength=n
    )
    after, matched, indegree = after.tolist(), matched.tolist(), indegree.tolist()
    ready = [i for i, d in enumerate(indegree) if d == 0]
    seen = 0
    while ready:
        i = ready.pop()
        seen += 1
        for j in (after[i], matched[i]):
            if j >= 0:
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
    if seen != len(events):
        violations.append(Violation(
            case, "deadlock",
            f"program-order + match-edge graph has a cycle "
            f"({len(events) - seen} of {len(events)} events unreachable in "
            f"topological order)",
        ))
    return violations


def check_reduction_coverage(
    record: RunRecord,
    case: str,
    expected: Callable[[int], Any],
) -> List[Violation]:
    """Every rank's result equals the certificate-exact expected value."""
    violations: List[Violation] = []
    if any(err is not None for err in record.errors):
        return violations  # root cause reported by the deadlock checker
    for rank in range(record.world_size):
        want = expected(rank)
        got = record.results[rank]
        if want is None:
            if got is not None:
                violations.append(Violation(
                    case, "reduction",
                    f"rank {rank} returned a value where None was expected",
                ))
            continue
        if isinstance(want, np.ndarray):
            got_arr = np.asarray(got, dtype=np.float64).reshape(-1)
            want_arr = np.asarray(want, dtype=np.float64).reshape(-1)
            if got_arr.shape != want_arr.shape:
                violations.append(Violation(
                    case, "reduction",
                    f"rank {rank}: result shape {got_arr.shape} != expected "
                    f"{want_arr.shape}",
                ))
                continue
            if not np.array_equal(got_arr, want_arr):
                bad = np.flatnonzero(got_arr != want_arr)[:4]
                violations.append(Violation(
                    case, "reduction",
                    f"rank {rank}: result differs from the exact certificate "
                    f"sum at indices {bad.tolist()} "
                    f"(got {got_arr[bad].tolist()}, want {want_arr[bad].tolist()}) "
                    f"— some rank's term is missing or counted twice",
                ))
        elif got != want:
            violations.append(Violation(
                case, "reduction",
                f"rank {rank}: result {got!r} != expected {want!r}",
            ))
    return violations


# ---------------------------------------------------------------------------
# case model
# ---------------------------------------------------------------------------
_REGIONS_SYNC = frozenset({tags.SYNC.name})
_REGIONS_SERVING = frozenset({tags.SERVING.name})
_REGIONS_TELEMETRY = frozenset({tags.TELEMETRY.name})
_REGIONS_PARTIAL = frozenset({tags.PARTIAL_ACTIVATION.name, tags.SYNC.name})


@dataclass
class VerifyCase:
    """One recorded case: an SPMD function, run on a thread per rank,
    plus its oracle."""

    name: str
    world_size: int
    fn: Callable[[Communicator], Any]
    expected: Optional[Callable[[int], Any]] = None
    regions: FrozenSet[str] = _REGIONS_SYNC
    host_topology: Optional[HostTopology] = None
    recv_timeout: float = HEALTHY_RECV_TIMEOUT

    def record(self) -> RunRecord:
        return record(self.fn, self.world_size, self.recv_timeout, self.host_topology)


@dataclass
class PlanCase:
    """One interpreted case: ``program(rank)`` is the ``(plan, offset)``
    pairs rank runs on ``inputs(rank)``, one collective epoch each (a
    plan's window ``[lo, hi)`` is the vector's ``[offset + lo, offset +
    hi)``); ``read(rank, vector)`` is what the caller reads from the final
    vector and ``expected(rank)`` its oracle.  ``repeats`` names the case
    of the same table whose per-rank sends and receives begin with this
    case's (tags aside): a case that exists for the live code path it
    names — the divide of ``average``, the fp16 wire, a reduce-scatter
    read alone — and for its fingerprint, not for a new step list."""

    name: str
    world_size: int
    program: Callable[[int], Sequence[Tuple["sync.Plan", int]]]
    inputs: Callable[[int], np.ndarray]
    expected: Callable[[int], Any]
    read: Callable[[int, np.ndarray], Any]
    repeats: Optional[str] = None
    regions = _REGIONS_SYNC

    def record(self) -> RunRecord:
        size = self.world_size
        record = interpret(
            [self.program(rank) for rank in range(size)],
            [self.inputs(rank) for rank in range(size)],
        )
        record.results = [self.read(rank, v) for rank, v in enumerate(record.results)]
        return record


def run_case(case: VerifyCase | PlanCase, toposort: bool = False) -> CaseResult:
    """Record or interpret one case and run every checker over its record.

    A recorded case, or any case with ``toposort``, re-derives the
    deadlock witness from the record's graph; see
    :func:`check_deadlock_freedom`."""
    toposort = toposort or not isinstance(case, PlanCase)
    # An interpreted case allocates up to a million acyclic tuples: the
    # cyclic collector would only rescan them.
    gc.disable()
    try:
        record = case.record()
        violations = (
            check_match_completeness(record, case.name)
            + check_tag_soundness(record, case.name, case.regions)
            + check_deadlock_freedom(record, case.name, toposort)
        )
        if case.expected is not None:
            violations += check_reduction_coverage(record, case.name, case.expected)
    finally:
        gc.enable()
    return CaseResult(case.name, case.world_size, violations, len(record.events))


# ---------------------------------------------------------------------------
# recorded cases: what is not a plan
# ---------------------------------------------------------------------------
def serving_round_trip(comm, num_requests: int = 4, num_swaps: int = 2) -> Any:
    """One deterministic serving round, sent with the serving tier's own
    senders (:mod:`repro.serving.protocol`).

    The frontend fans ``num_requests`` single-element batches out over
    the replicas round-robin and collects the responses; the publisher
    (when present) ships ``num_swaps`` weight versions to every replica,
    then announces two further versions to the replicas *and* the
    frontend; the frontend finally fans out stop messages.  Every receive
    names its source and every tag comes from the serving region.

    The world is the real layout of :class:`~repro.serving.ServingConfig`
    — trainers first, replicas next, frontend last — shrunk to the
    smallest co-scheduled shape: one publisher (when ``P >= 3``), all
    middle ranks replicas, the last rank the frontend.  At ``P == 2`` it
    is serve-only (replica + frontend, no publisher).

    Returns the integer sum of the response values on the frontend rank
    (each replica doubles its input, so the exact expected total is
    ``num_requests * (num_requests + 1)``) and ``None`` elsewhere.
    """
    from repro.serving import protocol

    if comm.size < 2:
        raise ValueError(
            f"serving needs at least a replica and a frontend, got "
            f"world size {comm.size}"
        )
    frontend = comm.size - 1
    publisher = 0 if comm.size >= 3 else None
    replicas = tuple(range(0 if publisher is None else 1, frontend))
    assigned = {s: replicas[s % len(replicas)] for s in range(num_requests)}
    shipped = range(1, num_swaps + 1)
    announced = range(num_swaps + 1, num_swaps + 3)
    rank = comm.rank

    if rank == frontend:
        for seq in range(num_requests):
            protocol.send_request(
                comm, assigned[seq], seq, [seq], np.array([float(seq + 1)])
            )
        total = 0.0
        for seq in range(num_requests):
            msg = comm.recv(
                source=assigned[seq], tag=tags.serving_response_tag(seq)
            )
            total += float(msg[3].sum())
        if publisher is not None:
            for version in announced:
                comm.recv(source=publisher, tag=tags.serving_swap_tag(version))
        for replica in replicas:
            protocol.send_stop(comm, replica)
        return int(total)

    if rank in replicas:
        for seq in [s for s in range(num_requests) if assigned[s] == rank]:
            msg = comm.recv(source=frontend, tag=tags.serving_request_tag(seq))
            protocol.send_result(comm, frontend, seq, msg[2], 2.0 * msg[3], 0, {})
        if publisher is not None:
            for version in shipped:
                comm.recv(source=publisher, tag=tags.serving_swap_tag(version))
            for version in announced:
                comm.recv(source=publisher, tag=tags.serving_swap_tag(version))
        comm.recv(
            source=frontend, tag=tags.serving_control_tag(protocol.CONTROL_STOP)
        )
        return None

    # publisher: ship full weights, then announce weight-less versions.
    for version in shipped:
        for replica in replicas:
            protocol.send_weights(comm, replica, version, np.full(3, float(version)))
    for version in announced:
        for replica in replicas:
            protocol.send_announce(comm, replica, version)
        protocol.send_announce(comm, frontend, version)
    return None


def telemetry_round_trip(comm, rounds: int = 2) -> Optional[int]:
    """The flight-recorder collection schedule with a known payload.

    Runs :func:`repro.obs.collect.gather_traces` — clock-sync ping-pong
    per peer, then every rank's buffer shipped to rank 0 — with payload
    ``rank + 1``.  Rank 0 returns the sum of all shipped payloads,
    ``P * (P + 1) / 2``; other ranks return ``None``.
    """
    from repro.obs.collect import gather_traces

    result = gather_traces(comm, comm.rank + 1, rounds=rounds)
    if comm.rank == 0:
        payloads, offsets = result
        if sorted(offsets) != list(range(comm.size)):
            raise AssertionError(
                f"clock-offset map covers ranks {sorted(offsets)}, "
                f"expected 0..{comm.size - 1}"
            )
        return int(sum(int(p) for p in payloads))
    return None


def build_cases(size: int) -> List[VerifyCase]:
    """The recorded cases at world size ``size``: the schedules that are
    not plans, serving's and telemetry's."""
    cases: List[VerifyCase] = []

    # The serving tier's request/response + hot-swap + stop schedule
    # (frontend fan-out, replica responses, publisher weight shipments
    # and announcements) — every receive source-explicit, every tag from
    # the serving region.  Each replica doubles its inputs, so the
    # frontend's total is exactly num_requests * (num_requests + 1).
    def fn_serving(comm):
        return serving_round_trip(comm, num_requests=4, num_swaps=2)
    cases.append(VerifyCase(
        name="serving[round-trip]",
        world_size=size,
        fn=fn_serving,
        expected=lambda rank, _p=size: 20 if rank == _p - 1 else None,
        regions=_REGIONS_SERVING,
    ))

    # The flight-recorder collection schedule (clock-sync ping-pong per
    # peer followed by per-rank buffer shipment to rank 0) — every
    # receive source-explicit, every tag from the telemetry region.
    # Rank 0 sums the known payloads (rank + 1), so the oracle is the
    # triangular number P * (P + 1) / 2.
    def fn_telemetry(comm):
        return telemetry_round_trip(comm, rounds=2)
    cases.append(VerifyCase(
        name="telemetry[collection]",
        world_size=size,
        fn=fn_telemetry,
        expected=lambda rank, _p=size: _p * (_p + 1) // 2 if rank == 0 else None,
        regions=_REGIONS_TELEMETRY,
    ))

    return cases


def partial_round_case(size: int) -> VerifyCase:
    """One recorded round of the real partial allreduce at ``size`` ranks.

    Runs :class:`~repro.collectives.partial.PartialAllreduce` itself —
    progress threads, quorum arrivals, activation dissemination and the
    background reduction — with ``quorum = P``, the one setting whose
    message set does not depend on thread timing: the designated
    coordinator initiates only after every rank has arrived, so all ``P``
    contributions are fresh.  Every rank must return the exact certificate
    sum followed by ``num_active == P``.  Every message is consumed: each
    rank's self-sent arrival, the arrivals forwarded to the coordinator,
    the activations and each rank's ``close``.  Kept out of
    :func:`build_cases`: the order in which the coordinator receives the
    arrivals is not deterministic, so the case has no message-order
    fingerprint.
    """
    def fn(comm, _p=size):
        from repro.collectives.partial import PartialAllreduce
        with PartialAllreduce(
            comm, (_p + 3,), "quorum", quorum=_p, average=False
        ) as partial:
            result = partial.reduce(contribution(comm.rank, _p))
        return np.append(result.data, result.num_active)
    return VerifyCase(
        name=f"partial-round[P={size}]",
        world_size=size,
        fn=fn,
        expected=lambda rank, _t=np.append(expected_sum(size), size): _t,
        regions=_REGIONS_PARTIAL,
    )


# ---------------------------------------------------------------------------
# interpreted cases: every plan, without threads
# ---------------------------------------------------------------------------
#: World sizes the plan table is interpreted at beside the recorded sweep's,
#: and the largest that includes the ring families (at P = 1024 a ring plan
#: is about 4 M events).
STATIC_WORLD_SIZES: Tuple[int, ...] = (64, 256, 1024)
STATIC_RING_MAX_SIZE = 256


def interpret(
    programs: Sequence[Sequence[Tuple["sync.Plan", int]]], inputs: Sequence[np.ndarray]
) -> RunRecord:
    """Run every rank's ``(plan, offset)`` pairs on its ``inputs`` vector,
    without threads: :func:`~repro.collectives.sync.walk_plans` with
    certificate callbacks.

    A send posts a copy of its slice; a receive adds (``combine``) or
    assigns it, so certificate vectors prove reduction coverage as on a
    live run; the wire dtype is not modelled.  A message of the wrong
    size stops its rank with an error, and ranks still waiting when none
    can move are recorded as starved.  ``results[r]`` is rank ``r``'s
    final vector.
    """
    size = len(programs)
    bufs = [np.array(x, dtype=np.float64, copy=True).reshape(-1) for x in inputs]
    errors: List[Optional[BaseException]] = [None] * size
    events: List[CommEvent] = []
    # A plan's window ``[lo, hi)`` is ``[offset + lo, offset + hi)`` of the
    # vector: one view per plan, found by the plan's epoch, which is its
    # index in the rank's program and is in every tag.
    views = [
        [buf[offset:] for _plan, offset in program] for buf, program in zip(bufs, programs)
    ]
    origin, stride = tags.SYNC_TAG_BASE, tags.SYNC_EPOCH_STRIDE

    def on_send(rank, pc, tag, step):
        seq = len(events)
        events.append(
            CommEvent("send", rank, pc, Channel.APP, step.peer, tag, seq, step.hi - step.lo)
        )
        return seq, views[rank][(tag - origin) // stride][step.lo:step.hi].copy()

    def on_recv(rank, pc, tag, step, message):
        seq, data = message
        lo, hi = step.lo, step.hi
        if data.size != hi - lo:
            errors[rank] = ValueError(
                f"rank {rank}: {data.size} elements from {step.peer} (tag {tag}) "
                f"met a {hi - lo}-element receive"
            )
            return False
        segment = views[rank][(tag - origin) // stride][lo:hi]
        if step.combine:
            segment += data
        else:
            segment[...] = data
        events.append(CommEvent("recv", rank, pc, Channel.APP, step.peer, tag, seq, hi - lo))
        return True

    plans = [[plan for plan, _offset in program] for program in programs]
    pcs, waiting = sync.walk_plans(plans, on_send, on_recv)
    for (source, rank, tag), _ in sorted(waiting.items(), key=lambda item: item[1]):
        events.append(CommEvent("starved", rank, pcs[rank], Channel.APP, source, tag, -1, 0))
        errors[rank] = CommTimeoutError(
            f"rank {rank}: no send matches its receive from {source} (tag {tag})"
        )
    return RunRecord(size, events, bufs, errors)


def _two_buckets(n: int) -> int:
    """The fusion threshold that cuts an ``n``-element float64 vector into
    two buckets."""
    return 8 * -(-n // 2)


def _hier_topologies(size: int) -> List[Tuple[str, Optional[HostTopology]]]:
    """Host layouts to sweep for the hierarchical schedule at ``size``."""
    layouts: List[Tuple[str, Optional[HostTopology]]] = [("flat", None)]
    specs: List[List[int]] = []
    if size >= 2:
        specs.append([size - size // 2, size // 2])
    if size >= 3:
        specs.append([size - 1, 1])
    specs += {
        4: [[3, 1]],
        8: [[4, 2, 2]],
        16: [[5, 7, 4]],
        64: [[32, 16, 16]],
    }.get(size, [])
    seen: set = set()
    for spec in specs:
        key = tuple(spec)
        if key in seen or sum(spec) != size or min(spec) < 1:
            continue
        seen.add(key)
        layouts.append(
            ("+".join(str(n) for n in spec), HostTopology.from_hosts(spec))
        )
    return layouts


def activation_case(size: int) -> PlanCase:
    """The partial collectives' activation for every initiator in turn:
    :func:`~repro.collectives.sync.activation_plan` rooted at rank ``i``
    is collective epoch ``i`` and moves index ``i`` of the vector.
    Initiator ``i`` holds ``i + 1`` there and every other rank 0, so
    every rank must end holding ``1 … P``, every send received and no
    receive starved."""
    return PlanCase(
        "partial-activation[every-initiator]", size,
        lambda rank: [(sync.activation_plan(size, i)[rank], i) for i in range(size)],
        lambda rank: np.where(np.arange(size) == rank, rank + 1.0, 0.0),
        lambda rank: np.arange(1.0, size + 1),
        lambda rank, vector: vector,
    )


def build_plan_cases(size: int) -> List[PlanCase]:
    """The plan table at ``size``: every synchronous flat-buffer schedule.

    * allreduce — recursive doubling, ring and Rabenseifner at 1 and 3
      chunks, the ring under ``average``, the hierarchical schedule on
      every :func:`_hier_topologies` layout at 1, 2 and 3 chunks (2 is
      unsuffixed), and the fp16-wire ring and two-host hierarchical
      allreduce;
    * reduce-scatter alone (oracle: the owned window) and followed by its
      allgather — ring and halving at 1 and 3 chunks, hierarchical on
      every layout at 1, 2 and 3 chunks, the fp16-wire ring;
    * dense and sharded collectives interleaved on one epoch counter;
    * the bucket-plan sequences of the deep500
      :class:`~repro.training.exchange.SynchronousExchange` (each bucket
      one allreduce, in bucket order) and of
      :class:`~repro.training.exchange.ShardedExchange` (every bucket's
      reduce-scatter, then every bucket's allgather), two buckets each,
      single-host and on two hosts;
    * the Horovod exchange, ring and recursive doubling: the ring
      allgather of the readiness table, then each bucket's allreduce in
      the order :func:`~repro.training.exchange.negotiated_order` derives
      from it;
    * the barrier, twice;
    * the partial activation for every initiator
      (:func:`activation_case`), up to the sweep's largest size.

    Every rank must read its part of the certificate sum.  An averaging
    case (the ring under ``average``, the exchanges) feeds ``P`` times
    the certificate and reads the final vector over ``P``: the owner's
    divide before the allgather copies its window is the same division
    of the same sums.  The ring families stop at
    :data:`STATIC_RING_MAX_SIZE`.  ``allreduce[ring]`` and
    ``allreduce[rabenseifner]`` *are* the ring's and the halving /
    doubling reduce-scatter and allgather plans back to back, a
    single-host hierarchical allreduce is the ring, and the interpreter
    models neither the wire dtype nor the divide, so the cases that only
    name such a live path carry ``repeats``.  The names key
    ``tests/data/schedule_fingerprints.json``.
    """
    from repro.training.bucketing import GradientBucketer
    from repro.training.exchange import negotiated_order, readiness_positions

    n = size + 3
    ring = size <= STATIC_RING_MAX_SIZE
    ar, rs, ag = sync.allreduce_plan, sync.reduce_scatter_plan, sync.allgather_plan
    cases: List[PlanCase] = []

    def plan(build, algorithm, n_chunks=1, topology=None, wire=False, length=n, offset=0):
        def at(rank):
            built = build(algorithm, rank, size, length, n_chunks, topology, wire)
            return (built if build is ar else built[0]), offset
        return at

    def add(name, *collectives, length=n, copies=1, average=False, window=None, repeats=None):
        scale = size if average else 1
        total = scale * np.tile(expected_sum(size, n=length), copies)

        def read(rank, vector):
            if window is not None:
                return vector[slice(*window[rank])]
            return vector / size if average else vector

        cases.append(PlanCase(
            name, size,
            lambda rank: tuple(collective(rank) for collective in collectives),
            lambda rank: scale * np.tile(contribution(rank, size, n=length), copies),
            lambda rank: read(rank, total),
            read,
            repeats,
        ))

    for algorithm in ("recursive_doubling", "ring", "rabenseifner"):
        if algorithm != "ring" or ring:
            for c in (1, 3):
                add(f"allreduce[{algorithm},chunks={c}]", plan(ar, algorithm, c))
    # The ring at 2 chunks is ``allreduce[hierarchical,flat]``.
    if ring:
        add("allreduce[ring,average]", plan(ar, "ring"), average=True,
            repeats="allreduce[ring,chunks=1]")
        add("allreduce[compressed_ring,fp16]", plan(ar, "ring", 2, wire=True),
            repeats="allreduce[hierarchical,flat]")
    two_hosts = HostTopology.from_hosts([size - size // 2, size // 2])
    if size >= 4:
        add("allreduce[compressed_hierarchical,fp16]",
            plan(ar, "hierarchical", 1, two_hosts, True),
            repeats=f"allreduce[hierarchical,{size - size // 2}+{size // 2},chunks=1]")
    for label, topology in _hier_topologies(size):
        topology = topology or HostTopology.single_host(size)
        flat = topology.is_single_host
        for c, chunks in ((2, ""), (1, ",chunks=1"), (3, ",chunks=3")):
            if ring or not flat:
                add(f"allreduce[hierarchical,{label}{chunks}]",
                    plan(ar, "hierarchical", c, topology),
                    repeats=f"allreduce[ring{chunks}]" if flat and chunks else None)
            add(f"reduce_scatter+allgather[hierarchical,{label}{chunks}]",
                plan(rs, "hierarchical", c, topology), plan(ag, "hierarchical", c, topology))

    for algorithm, gather in sync.ALLGATHER_FOR_REDUCE_SCATTER.items():
        if algorithm == "hierarchical" or (algorithm == "ring" and not ring):
            continue
        whole = "rabenseifner" if algorithm == "halving" else algorithm
        windows = [rs(algorithm, rank, size, n, 1)[1] for rank in range(size)]
        for c in (1, 3):
            add(f"reduce_scatter[{algorithm},chunks={c}]", plan(rs, algorithm, c),
                window=windows, repeats=f"allreduce[{whole},chunks={c}]")
            add(f"reduce_scatter+allgather[{algorithm},chunks={c}]",
                plan(rs, algorithm, c), plan(ag, gather, c),
                repeats=f"allreduce[{whole},chunks={c}]")
    if ring:
        add("reduce_scatter+allgather[compressed_ring,fp16]",
            plan(rs, "ring", 2, wire=True), plan(ag, "ring", 2, wire=True),
            repeats="allreduce[hierarchical,flat]")
        add("interleaved[allreduce+reduce_scatter+allreduce+allgather_flat]",
            plan(ar, "ring"), plan(rs, "ring", offset=2 * n),
            plan(ar, "recursive_doubling", offset=n), plan(ag, "ring", offset=2 * n),
            copies=3)

    # The exchanges' bucket plans.  The sharded cases' length is the
    # parameter count of a ``Dense(P + 4, 2)`` layer.
    def buckets(build, algorithm, length, topology=None):
        return [
            plan(build, algorithm, 1, topology, length=b.stop - b.start, offset=b.start)
            for b in GradientBucketer.from_flat(length, _two_buckets(length)).buckets
        ]

    n_dense, n_sharded = size + 15, 2 * (size + 4) + 2
    if ring:
        add("exchange[deep500,ring,buckets=2]", *buckets(ar, "ring", n_dense),
            length=n_dense, average=True)
    if size >= 4:
        add("exchange[deep500,hierarchical,multi-host]",
            *buckets(ar, "hierarchical", n_dense, two_hosts), length=n_dense, average=True)
    for algorithm, gather in sync.ALLGATHER_FOR_REDUCE_SCATTER.items():
        topology, label = None, f"{algorithm},buckets=2"
        if algorithm == "hierarchical":
            if size < 4:
                continue
            topology, label = two_hosts, "hierarchical,multi-host"
        elif algorithm == "ring" and not ring:
            continue
        add(f"sharded-exchange[zero1,{label}]",
            *buckets(rs, algorithm, n_sharded, topology),
            *buckets(ag, gather, n_sharded, topology),
            length=n_sharded, average=True)

    # Horovod's exchange: the negotiation's ring allgather of every rank's
    # readiness positions (a P x buckets table after the gradient), then
    # each bucket's allreduce in the order the exchange's own rule derives
    # from that table at step 0.  Up to the sweep's largest size: above
    # it the table interprets the ring allgather and the allreduces on
    # their own.
    if size <= DEFAULT_WORLD_SIZES[-1]:
        table = np.stack([readiness_positions(0, rank, 2) for rank in range(size)])
        negotiate = plan(ag, "ring", length=table.size, offset=n_dense)
        order = negotiated_order(table)

        def negotiating(rank):
            vector = np.zeros(n_dense + table.size)
            vector[:n_dense] = size * contribution(rank, size, n=n_dense)
            lo, hi = ag("ring", rank, size, table.size, 1)[1]
            vector[n_dense + lo:n_dense + hi] = table[rank]
            return vector

        for algorithm in ("ring", "recursive_doubling"):
            reduces = buckets(ar, algorithm, n_dense)
            cases.append(PlanCase(
                f"exchange[horovod,{algorithm},buckets=2]", size,
                lambda rank, _r=reduces: (negotiate(rank), *(_r[b](rank) for b in order)),
                negotiating,
                lambda rank, _t=expected_sum(size, n=n_dense): _t,
                lambda rank, vector: vector[:n_dense] / size,
            ))

    # The barrier: a zero-length recursive-doubling allreduce, twice.
    barrier = plan(ar, "recursive_doubling", length=0)
    cases.append(PlanCase(
        "barrier[x2]", size, lambda rank: (barrier(rank), barrier(rank)),
        lambda rank: np.zeros(0), lambda rank: np.zeros(0), lambda rank, vector: vector,
    ))
    if size <= DEFAULT_WORLD_SIZES[-1]:
        cases.append(activation_case(size))
    return cases


# ---------------------------------------------------------------------------
# static checks (no live run needed)
# ---------------------------------------------------------------------------
def check_tag_layout() -> CaseResult:
    """Boundary self-test of the tag-region map and the sync layout.

    Proves the regions are disjoint, the (epoch, phase, round, chunk)
    layout round-trips, and — the epoch-rollover clause — every field
    *raises* one past its bound instead of wrapping into a neighbour.
    """
    case = "tag-layout"
    violations: List[Violation] = []
    try:
        tags.check_region_disjointness()
    except ValueError as exc:
        violations.append(Violation(case, "tags", str(exc)))

    samples = [
        (0, 0, 0, 0),
        (0, tags.SYNC_MAX_PHASES - 1, tags.SYNC_MAX_ROUNDS - 1,
         tags.SYNC_MAX_CHUNKS - 1),
        (tags.SYNC_MAX_EPOCHS - 1, tags.SYNC_MAX_PHASES - 1,
         tags.SYNC_MAX_ROUNDS - 1, tags.SYNC_MAX_CHUNKS - 1),
        (12345, 11, 99, 3),
    ]
    for fields in samples:
        tag = tags.sync_tag(*fields)
        if tag not in tags.SYNC:
            violations.append(Violation(
                case, "tags", f"sync tag {tag} of {fields} escapes its region"
            ))
        if tuple(tags.decode_sync_tag(tag)) != fields:
            violations.append(Violation(
                case, "tags",
                f"sync layout does not round-trip: {fields} -> {tag} -> "
                f"{tuple(tags.decode_sync_tag(tag))}",
            ))

    overflowing = [
        ("epoch", lambda: tags.sync_tag(tags.SYNC_MAX_EPOCHS, 0, 0, 0)),
        ("epoch", lambda: tags.sync_tag(-1, 0, 0, 0)),
        ("phase", lambda: tags.sync_tag(0, tags.SYNC_MAX_PHASES, 0, 0)),
        ("round", lambda: tags.sync_tag(0, 0, tags.SYNC_MAX_ROUNDS, 0)),
        ("chunk", lambda: tags.sync_tag(0, 0, 0, tags.SYNC_MAX_CHUNKS)),
        ("partial round", lambda: tags.partial_activation_tag(
            tags.PARTIAL_ACTIVATION.span)),
        ("serving request seq", lambda: tags.serving_request_tag(-1)),
        ("serving response seq", lambda: tags.serving_response_tag(-1)),
        ("serving swap version", lambda: tags.serving_swap_tag(-1)),
        ("serving control kind", lambda: tags.serving_control_tag(
            tags.SERVING_CONTROL_CAPACITY)),
        ("telemetry ping round", lambda: tags.telemetry_ping_tag(
            1, tags.TELEMETRY_SYNC_MAX_ROUNDS)),
        ("telemetry pong peer", lambda: tags.telemetry_pong_tag(0, 0)),
        ("telemetry buffer rank", lambda: tags.telemetry_buffer_tag(0)),
        ("telemetry buffer rank", lambda: tags.telemetry_buffer_tag(
            tags.TELEMETRY_BUFFER_CAPACITY)),
    ]
    for label, mint in overflowing:
        try:
            minted = mint()
        except ValueError:
            continue
        violations.append(Violation(
            case, "tags",
            f"{label} overflow wrapped silently into tag {minted} instead of "
            f"raising",
        ))
    return CaseResult(case, 0, violations)


# ---------------------------------------------------------------------------
# seeded mutants: prove the checkers reject broken schedules
# ---------------------------------------------------------------------------
def _mutant_dropped_recv(size: int = 4) -> VerifyCase:
    """Ring where rank 0 forgets its receive: an orphan send must surface."""
    def fn(comm):
        tag = tags.sync_tag(0, 0, 0, 0)
        comm.send(np.ones(2), (comm.rank + 1) % comm.size, tag=tag)
        if comm.rank != 0:
            comm.recv(source=(comm.rank - 1) % comm.size, tag=tag)
    return VerifyCase(
        name="mutant[dropped-recv]", world_size=size, fn=fn,
        recv_timeout=MUTANT_RECV_TIMEOUT,
    )


def _mutant_reused_tag(size: int = 2) -> VerifyCase:
    """Two sends race for the same (src, dst, tag): ambiguous match."""
    def fn(comm):
        tag = tags.sync_tag(0, 0, 0, 0)
        if comm.rank == 0:
            comm.send(np.zeros(1), 1, tag=tag)
            comm.send(np.ones(1), 1, tag=tag)
        elif comm.rank == 1:
            comm.recv(source=0, tag=tag)
            comm.recv(source=0, tag=tag)
    return VerifyCase(
        name="mutant[reused-tag]", world_size=size, fn=fn,
        recv_timeout=MUTANT_RECV_TIMEOUT,
    )


def _mutant_swapped_neighbor(size: int = 4) -> VerifyCase:
    """Ring that receives from its successor instead of its predecessor.

    Every rank's send goes to the successor, so the posted receives (also
    naming the successor) can never match: all ranks starve and the
    wait-for graph is the ring itself — a deadlock cycle.  (At P=2 the
    predecessor *is* the successor, so the mutant needs P >= 3.)
    """
    if size < 3:
        raise ValueError(f"swapped-neighbor mutant needs P >= 3, got {size}")
    def fn(comm):
        tag = tags.sync_tag(0, 4, 0, 0)
        succ = (comm.rank + 1) % comm.size
        comm.send(np.ones(2), succ, tag=tag)
        comm.recv(source=succ, tag=tag)
    return VerifyCase(
        name="mutant[swapped-neighbor]", world_size=size, fn=fn,
        recv_timeout=MUTANT_RECV_TIMEOUT,
    )


def _mutant_double_count(size: int = 4) -> VerifyCase:
    """Correct schedule, broken arithmetic: rank 0's term counted twice."""
    total = expected_sum(size)
    def fn(comm, _p=size):
        result = sync.allreduce(
            comm, contribution(comm.rank, _p), algorithm="ring"
        )
        if comm.rank == 0:
            result = result + contribution(0, _p)
        return result
    return VerifyCase(
        name="mutant[double-count]", world_size=size, fn=fn,
        expected=lambda rank, _t=total: _t,
        recv_timeout=MUTANT_RECV_TIMEOUT,
    )


def _mutant_user_tag(size: int = 3) -> VerifyCase:
    """A 'collective' minting a raw literal tag outside every region."""
    def fn(comm):
        succ = (comm.rank + 1) % comm.size
        pred = (comm.rank - 1) % comm.size
        comm.send(np.ones(1), succ, tag=7)
        comm.recv(source=pred, tag=7)
    return VerifyCase(
        name="mutant[user-tag]", world_size=size, fn=fn,
        recv_timeout=MUTANT_RECV_TIMEOUT,
    )


def _mutant_plan_dropped_recv(size: int = 4) -> PlanCase:
    """The table's ring allreduce with rank 0's first receive dropped: the
    interpreter must find the send nobody receives."""
    ring = next(c for c in build_plan_cases(size) if c.name == "allreduce[ring,chunks=1]")

    def program(rank):
        ((plan, offset),) = ring.program(rank)
        if rank == 0:
            (name, steps), *rest = plan
            drop = next(i for i, step in enumerate(steps) if not step.send)
            plan = ((name, steps[:drop] + steps[drop + 1:]), *rest)
        return ((plan, offset),)
    return replace(ring, name="mutant[plan-dropped-recv]", program=program)


def _mutant_wrapping_activation(size: int = 5) -> PlanCase:
    """The activation plan under the ``(offset + 2^j) mod P`` forward
    rule: besides its children, each rank forwards for every higher ``j``
    whose target wraps past the world.  At a non-power-of-two size the
    wrapped offsets already have their one parent, so the interpreter
    must find sends that no receive takes."""
    case = activation_case(size)

    def program(rank):
        mutated = []
        for ((name, steps),), initiator in case.program(rank):
            v = (rank - initiator) % size
            wrapped = tuple(
                steps[0]._replace(send=True, peer=(initiator + v + (1 << j)) % size)
                for j in range(v.bit_length(), (size - 1).bit_length())
                if v + (1 << j) >= size
            )
            mutated.append((((name, steps + wrapped),), initiator))
        return mutated
    return replace(case, name="mutant[wrapping-activation]", program=program)


#: (mutant factory, checker expected to reject it): a factory returns a
#: case to record or interpret and check.
MUTANTS: Tuple[Tuple[Callable[[], VerifyCase | PlanCase], str], ...] = (
    (_mutant_dropped_recv, "match"),
    (_mutant_plan_dropped_recv, "match"),
    (_mutant_reused_tag, "match"),
    (_mutant_swapped_neighbor, "deadlock"),
    (_mutant_double_count, "reduction"),
    (_mutant_user_tag, "tags"),
    (_mutant_wrapping_activation, "match"),
)


def self_test() -> List[CaseResult]:
    """Run every seeded mutant; each must be rejected by its checker."""
    results: List[CaseResult] = []
    for factory, expected_check in MUTANTS:
        case = factory()
        inner = run_case(case, toposort=True)
        hits = [v for v in inner.violations if v.check == expected_check]
        name = f"self-test[{case.name}->{expected_check}]"
        if hits:
            results.append(CaseResult(name, case.world_size,
                                      num_events=inner.num_events))
        else:
            results.append(CaseResult(
                name, case.world_size,
                violations=[Violation(
                    name, "self-test",
                    f"checker {expected_check!r} failed to reject "
                    f"{case.name}; violations seen: "
                    f"{[v.check for v in inner.violations]}",
                )],
                num_events=inner.num_events,
            ))
    return results


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------
def verify(
    world_sizes: Iterable[int] = DEFAULT_WORLD_SIZES,
    progress: Optional[Callable[[str], None]] = None,
) -> VerificationReport:
    """Run the full verification sweep and return the report: the recorded
    cases and a partial round at every size of ``world_sizes``, the plan
    table's distinct step lists (the cases
    without ``repeats``) interpreted at those sizes and
    :data:`STATIC_WORLD_SIZES`, the shm ring's model and the self-test."""
    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    world_sizes = tuple(world_sizes)
    results: List[CaseResult] = [check_tag_layout()]
    for size in world_sizes:
        note(f"recording what is not a plan at P={size} ...")
        results.extend(run_case(case) for case in build_cases(size))
        results.append(run_case(partial_round_case(size)))
    for size in sorted(set(world_sizes) | set(STATIC_WORLD_SIZES)):
        note(f"interpreting every rank's plans at P={size} ...")
        results.extend(run_case(case) for case in build_plan_cases(size) if not case.repeats)
    note("model-checking the shm SPSC ring protocol ...")
    from repro.analysis.ring_model import verify_ring_protocol
    results.extend(verify_ring_protocol())
    note("running checker self-tests (seeded mutants) ...")
    results.extend(self_test())
    return VerificationReport(results)
