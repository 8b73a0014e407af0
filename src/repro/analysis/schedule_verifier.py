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

The registry covers every registered collective — the four allreduce
algorithms (with chunk pipelining and non-uniform
:class:`~repro.collectives.topology.HostTopology` layouts for the
hierarchical schedule), broadcast, reduce, allgather, the barrier, the
ring phases under an fp16 wire dtype, fused :class:`~repro.training.exchange.SynchronousExchange`
plans, the serving tier's request/response + hot-swap round trip
(:func:`repro.serving.protocol.serving_round_trip`), the flight-recorder
telemetry collection (:func:`repro.obs.collect.telemetry_round_trip`) and
one recorded round of the real
:class:`~repro.collectives.partial.PartialAllreduce`
(:func:`partial_round_case`) — plus a purely static check of the partial
activation dissemination rule the progress thread sends along
(:func:`check_dissemination`).

The synchronous collectives' schedules are data (the plans of
:mod:`repro.collectives.sync`), so a second sweep needs no threads:
:func:`interpret` walks every rank's plan
(:func:`repro.collectives.sync.walk_plans`, the one offline traversal of
a schedule) into the :class:`~repro.analysis.recording.RunRecord` the
checkers read, at P = 64, 256 and 1024 (:func:`build_plan_cases`).

:func:`self_test` proves the checkers have teeth: each deliberately
broken schedule (dropped receive, a plan missing a receive, reused tag,
swapped ring neighbour, double-counted term, tag outside its region,
wrapping dissemination rule) must be rejected by the matching checker.

Entry point: ``python -m repro verify`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.recording import (
    CommEvent,
    RecordingCommunicator,
    RecordingWorld,
    RecvStarvedError,
    RunRecord,
)
from repro.collectives import sync
from repro.collectives.topology import (
    HostTopology,
    activation_children,
    tree_depth,
)
from repro.comm import tags
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
def contribution(rank: int, size: int, n: Optional[int] = None,
                 unit: bool = False) -> np.ndarray:
    """Rank ``rank``'s integer certificate vector.

    The first ``size`` elements are the rank's one-hot indicator (element
    ``rank`` is 1): after a sum-allreduce they must all equal exactly 1,
    so a dropped or double-counted rank is visible *per rank*.  The last
    three elements carry first/second moments ``r+1`` and ``(r+1)^2``
    (multiset fingerprints that catch compensating errors) and a count
    term.  ``unit=True`` restricts values to 0/1 so partial sums stay
    exact even in a ``float16`` wire format (integers < 2048).
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
    if unit:
        v[-3] = 1.0
        v[-2] = 1.0
    else:
        v[-3] = rank + 1
        v[-2] = (rank + 1) ** 2
    v[-1] = 1.0
    return v


def expected_sum(size: int, n: Optional[int] = None, unit: bool = False) -> np.ndarray:
    """Exact elementwise sum of all ranks' certificates."""
    if n is None:
        n = size + 3
    v = np.zeros(n, dtype=np.float64)
    v[:size] = 1.0
    if unit:
        v[-3] = size
        v[-2] = size
    else:
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


def check_deadlock_freedom(record: RunRecord, case: str) -> List[Violation]:
    """No cyclic waits; program order + match edges form a DAG."""
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
    exact: bool = True,
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
            matches = (
                np.array_equal(got_arr, want_arr)
                if exact
                else np.allclose(got_arr, want_arr, rtol=1e-12, atol=1e-12)
            )
            if not matches:
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
_REGIONS_BARRIER = frozenset({tags.BARRIER.name})
_REGIONS_SERVING = frozenset({tags.SERVING.name})
_REGIONS_TELEMETRY = frozenset({tags.TELEMETRY.name})
_REGIONS_PARTIAL = frozenset({
    tags.PARTIAL_ACTIVATION.name, tags.PARTIAL_ARRIVAL.name, tags.SYNC.name,
})


@dataclass
class VerifyCase:
    """One live verification case: an SPMD function plus its oracle."""

    name: str
    world_size: int
    fn: Callable[[RecordingCommunicator], Any]
    expected: Optional[Callable[[int], Any]] = None
    exact: bool = True
    regions: FrozenSet[str] = _REGIONS_SYNC
    host_topology: Optional[HostTopology] = None
    recv_timeout: float = HEALTHY_RECV_TIMEOUT


def run_case(case: VerifyCase) -> CaseResult:
    """Execute one live case and run every checker over its record."""
    world = RecordingWorld(
        case.world_size,
        host_topology=case.host_topology,
        recv_timeout=case.recv_timeout,
    )
    record = world.run(case.fn)
    violations: List[Violation] = []
    violations += check_match_completeness(record, case.name)
    violations += check_tag_soundness(record, case.name, case.regions)
    violations += check_deadlock_freedom(record, case.name)
    if case.expected is not None:
        violations += check_reduction_coverage(
            record, case.name, case.expected, exact=case.exact
        )
    return CaseResult(
        name=case.name,
        world_size=case.world_size,
        violations=violations,
        num_events=len(record.events),
    )


# ---------------------------------------------------------------------------
# case registry
# ---------------------------------------------------------------------------
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


def build_cases(size: int, include_exchange: bool = True) -> List[VerifyCase]:
    """All live verification cases at world size ``size``."""
    cases: List[VerifyCase] = []
    total = expected_sum(size)

    for algorithm in ("recursive_doubling", "ring", "rabenseifner"):
        for n_chunks in (1, 3):
            def fn(comm, _a=algorithm, _c=n_chunks, _p=size):
                return sync.allreduce(
                    comm, contribution(comm.rank, _p),
                    algorithm=_a, n_chunks=_c,
                )
            cases.append(VerifyCase(
                name=f"allreduce[{algorithm},chunks={n_chunks}]",
                world_size=size,
                fn=fn,
                expected=lambda rank, _t=total: _t,
            ))

    def fn_avg(comm, _p=size):
        return sync.allreduce(
            comm, contribution(comm.rank, _p), algorithm="ring", average=True
        )
    cases.append(VerifyCase(
        name="allreduce[ring,average]",
        world_size=size,
        fn=fn_avg,
        expected=lambda rank, _t=total, _p=size: _t / _p,
        exact=False,
    ))

    for label, topology in _hier_topologies(size):
        def fn_hier(comm, _p=size):
            return sync.allreduce(
                comm, contribution(comm.rank, _p),
                algorithm="hierarchical", n_chunks=2,
            )
        cases.append(VerifyCase(
            name=f"allreduce[hierarchical,{label}]",
            world_size=size,
            fn=fn_hier,
            expected=lambda rank, _t=total: _t,
            host_topology=topology,
        ))

    # Compressed collectives: wire payloads are fp16, so the certificate
    # is restricted to 0/1 entries (every partial sum an integer < 2048
    # stays exact even at the narrow width).
    try:
        from repro.compression import get_codec
        codec = get_codec("fp16")
    except Exception:  # pragma: no cover - compression always present
        codec = None
    if codec is not None:
        unit_total = expected_sum(size, unit=True)

        def fn_comp(comm, _p=size, _codec=codec):
            return sync.allreduce(
                comm, contribution(comm.rank, _p, unit=True),
                algorithm="ring", n_chunks=2, codec=_codec,
            )
        cases.append(VerifyCase(
            name="allreduce[compressed_ring,fp16]",
            world_size=size,
            fn=fn_comp,
            expected=lambda rank, _t=unit_total: _t,
        ))
        if size >= 4:
            def fn_comp_hier(comm, _p=size, _codec=codec):
                return sync.allreduce(
                    comm, contribution(comm.rank, _p, unit=True),
                    algorithm="hierarchical", codec=_codec,
                )
            cases.append(VerifyCase(
                name="allreduce[compressed_hierarchical,fp16]",
                world_size=size,
                fn=fn_comp_hier,
                expected=lambda rank, _t=unit_total: _t,
                host_topology=HostTopology.from_hosts(
                    [size - size // 2, size // 2]
                ),
            ))

    for root in sorted({0, size - 1}):
        def fn_bcast(comm, _p=size, _root=root):
            return sync.broadcast(comm, contribution(comm.rank, _p), root=_root)
        cases.append(VerifyCase(
            name=f"broadcast[root={root}]",
            world_size=size,
            fn=fn_bcast,
            expected=lambda rank, _p=size, _root=root: contribution(_root, _p),
        ))

    def fn_reduce(comm, _p=size):
        return sync.reduce(comm, contribution(comm.rank, _p), root=_p - 1)
    cases.append(VerifyCase(
        name=f"reduce[root={size - 1}]",
        world_size=size,
        fn=fn_reduce,
        expected=lambda rank, _t=total, _p=size: _t if rank == _p - 1 else None,
    ))

    def fn_allgather(comm):
        return sync.allgather(comm, (comm.rank, comm.rank * comm.rank))
    cases.append(VerifyCase(
        name="allgather",
        world_size=size,
        fn=fn_allgather,
        expected=lambda rank, _p=size: [(r, r * r) for r in range(_p)],
    ))

    # Sharded collectives: reduce_scatter's per-rank window must hold
    # exactly the certificate sum restricted to the owned slice, and the
    # reduce-scatter -> allgather_flat composition must restore the full
    # sum on every rank — for every schedule family, chunking and layout.
    from repro.collectives import sharding as _sharding

    n_shard = size + 3
    for algorithm in ("ring", "halving"):
        for n_chunks in (1, 3):
            def fn_rs(comm, _a=algorithm, _c=n_chunks, _p=size):
                flat, (lo, hi) = _sharding.reduce_scatter(
                    comm, contribution(comm.rank, _p),
                    algorithm=_a, n_chunks=_c,
                )
                return flat[lo:hi].copy()
            def expect_window(rank, _a=algorithm, _p=size, _t=total, _n=n_shard):
                lo, hi = _sharding.shard_bounds(_n, _p, _a)[rank]
                return _t[lo:hi]
            cases.append(VerifyCase(
                name=f"reduce_scatter[{algorithm},chunks={n_chunks}]",
                world_size=size,
                fn=fn_rs,
                expected=expect_window,
            ))

            def fn_rs_ag(comm, _a=algorithm, _c=n_chunks, _p=size):
                flat, _ = _sharding.reduce_scatter(
                    comm, contribution(comm.rank, _p),
                    algorithm=_a, n_chunks=_c,
                )
                return _sharding.allgather_flat(
                    comm, flat,
                    algorithm=_sharding.ALLGATHER_FOR_REDUCE_SCATTER[_a],
                    n_chunks=_c,
                )
            cases.append(VerifyCase(
                name=f"reduce_scatter+allgather[{algorithm},chunks={n_chunks}]",
                world_size=size,
                fn=fn_rs_ag,
                expected=lambda rank, _t=total: _t,
            ))

    for label, topology in _hier_topologies(size):
        def fn_rs_ag_hier(comm, _p=size):
            flat, _ = _sharding.reduce_scatter(
                comm, contribution(comm.rank, _p),
                algorithm="hierarchical", n_chunks=2,
            )
            return _sharding.allgather_flat(
                comm, flat, algorithm="hierarchical", n_chunks=2,
            )
        cases.append(VerifyCase(
            name=f"reduce_scatter+allgather[hierarchical,{label}]",
            world_size=size,
            fn=fn_rs_ag_hier,
            expected=lambda rank, _t=total: _t,
            host_topology=topology,
        ))

    if codec is not None:
        unit_total_shard = expected_sum(size, unit=True)

        def fn_rs_ag_comp(comm, _p=size, _codec=codec):
            flat, _ = _sharding.reduce_scatter(
                comm, contribution(comm.rank, _p, unit=True),
                algorithm="ring", n_chunks=2, codec=_codec,
            )
            return _sharding.allgather_flat(
                comm, flat, algorithm="ring", n_chunks=2, codec=_codec,
            )
        cases.append(VerifyCase(
            name="reduce_scatter+allgather[compressed_ring,fp16]",
            world_size=size,
            fn=fn_rs_ag_comp,
            expected=lambda rank, _t=unit_total_shard: _t,
        ))

    # Dense, split and sharded collectives draw their epochs from one
    # counter: interleaved on one communicator, no two of them may mint
    # the same tag (match-completeness would report the ambiguous match).
    def fn_interleaved(comm, _p=size):
        dense = sync.allreduce(comm, contribution(comm.rank, _p), algorithm="ring")
        flat, _ = _sharding.reduce_scatter(
            comm, contribution(comm.rank, _p), algorithm="ring"
        )
        doubled = sync.allreduce(
            comm, contribution(comm.rank, _p), algorithm="recursive_doubling"
        )
        gathered = _sharding.allgather_flat(comm, flat, algorithm="ring")
        return np.concatenate([dense, doubled, gathered])
    cases.append(VerifyCase(
        name="interleaved[allreduce+reduce_scatter+allreduce+allgather_flat]",
        world_size=size,
        fn=fn_interleaved,
        expected=lambda rank, _t=np.tile(total, 3): _t,
    ))

    def fn_barrier(comm):
        comm.barrier()
        comm.barrier()
        return None
    cases.append(VerifyCase(
        name="barrier[x2]",
        world_size=size,
        fn=fn_barrier,
        regions=_REGIONS_BARRIER,
    ))

    # The serving tier's request/response + hot-swap + stop schedule
    # (frontend fan-out, replica responses, publisher weight shipments
    # and announcements) — every receive source-explicit, every tag from
    # the serving region.  Each replica doubles its inputs, so the
    # frontend's total is exactly num_requests * (num_requests + 1).
    def fn_serving(comm):
        from repro.serving.protocol import serving_round_trip
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
        from repro.obs.collect import telemetry_round_trip
        return telemetry_round_trip(comm, rounds=2)
    cases.append(VerifyCase(
        name="telemetry[collection]",
        world_size=size,
        fn=fn_telemetry,
        expected=lambda rank, _p=size: _p * (_p + 1) // 2 if rank == 0 else None,
        regions=_REGIONS_TELEMETRY,
    ))

    if include_exchange and size <= 8:
        n = size + 15
        exchange_total = expected_sum(size, n=n)
        # ``fusion_threshold_bytes=8 * ceil(n / 2)`` cuts every exchange
        # case's float64 vector into two buckets.
        for style, algorithm in (
            ("deep500", "ring"),
            ("horovod", "ring"),
            ("horovod", "recursive_doubling"),
        ):
            def fn_exchange(comm, _s=style, _a=algorithm, _p=size, _n=n):
                from repro.training.exchange import SynchronousExchange
                with SynchronousExchange(
                    comm, style=_s, algorithm=_a, fusion_threshold_bytes=8 * -(-_n // 2)
                ) as ex:
                    result = ex.exchange(
                        _p * contribution(comm.rank, _p, n=_n)
                    )
                return result.gradient
            cases.append(VerifyCase(
                name=f"exchange[{style},{algorithm},buckets=2]",
                world_size=size,
                fn=fn_exchange,
                expected=lambda rank, _t=exchange_total: _t,
            ))
        if size >= 4:
            def fn_exchange_hier(comm, _p=size, _n=n):
                from repro.training.exchange import SynchronousExchange
                with SynchronousExchange(
                    comm, style="deep500", algorithm="hierarchical",
                    fusion_threshold_bytes=8 * -(-_n // 2),
                ) as ex:
                    result = ex.exchange(
                        _p * contribution(comm.rank, _p, n=_n)
                    )
                return result.gradient
            cases.append(VerifyCase(
                name="exchange[deep500,hierarchical,multi-host]",
                world_size=size,
                fn=fn_exchange_hier,
                expected=lambda rank, _t=exchange_total: _t,
                host_topology=HostTopology.from_hosts(
                    [size - size // 2, size // 2]
                ),
            ))

        # The ZeRO-1 sharded exchange: reduce-scatter, shard-local SGD
        # update, parameter allgather.  Every rank starts from the same
        # seeded model, contributes size * certificate so the averaged
        # gradient is exactly the certificate sum, and must end with
        # params == init - lr * sum on every element — proving each
        # window's update ran exactly once and the gather restored the
        # full parameter vector.
        def _shard_model():
            import repro.nn as nn
            return nn.Sequential(nn.Dense(size + 4, 2, seed=20260808))

        probe = _shard_model()
        from repro.nn.parameters import flatten_parameters as _flatten
        n_z1 = _flatten(probe).size
        z1_lr = 0.25
        z1_total = expected_sum(size, n=n_z1)
        z1_expected = _flatten(probe) - z1_lr * z1_total
        for z1_algorithm in ("ring", "halving"):
            def fn_zero1(comm, _a=z1_algorithm, _p=size, _n=n_z1):
                from repro.nn.optim import SGD
                from repro.training.exchange import ShardedExchange
                model = _shard_model()
                optimizer = SGD(model, z1_lr)
                ex = ShardedExchange(comm, algorithm=_a, fusion_threshold_bytes=8 * -(-_n // 2))
                ex.exchange_update(
                    _p * contribution(comm.rank, _p, n=_n), model, optimizer
                )
                return _flatten(model)
            cases.append(VerifyCase(
                name=f"sharded-exchange[zero1,{z1_algorithm},buckets=2]",
                world_size=size,
                fn=fn_zero1,
                expected=lambda rank, _t=z1_expected: _t,
            ))
        if size >= 4:
            def fn_zero1_hier(comm, _p=size, _n=n_z1):
                from repro.nn.optim import SGD
                from repro.training.exchange import ShardedExchange
                model = _shard_model()
                optimizer = SGD(model, z1_lr)
                ex = ShardedExchange(comm, fusion_threshold_bytes=8 * -(-_n // 2))
                ex.exchange_update(
                    _p * contribution(comm.rank, _p, n=_n), model, optimizer
                )
                return _flatten(model)
            cases.append(VerifyCase(
                name="sharded-exchange[zero1,hierarchical,multi-host]",
                world_size=size,
                fn=fn_zero1_hier,
                expected=lambda rank, _t=z1_expected: _t,
                host_topology=HostTopology.from_hosts(
                    [size - size // 2, size // 2]
                ),
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
    sum followed by ``num_active == P``.  Kept out of :func:`build_cases`:
    the order in which the coordinator polls the arrivals is not
    deterministic, so the case has no message-order fingerprint.
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
# static plan sweep: every rank's plan, interpreted without threads
# ---------------------------------------------------------------------------
#: World sizes of the static plan sweep, and the largest that includes the
#: ring families (at P = 1024 a ring plan is about 4 M events).
STATIC_WORLD_SIZES: Tuple[int, ...] = (64, 256, 1024)
STATIC_RING_MAX_SIZE = 256


def interpret(
    programs: Sequence[Sequence["sync.Plan"]], inputs: Sequence[np.ndarray]
) -> RunRecord:
    """Run every rank's plans on its ``inputs`` vector, without threads:
    :func:`~repro.collectives.sync.walk_plans` with certificate callbacks.

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

    def on_send(rank, pc, tag, step):
        seq = len(events)
        events.append(
            CommEvent("send", rank, pc, Channel.APP, step.peer, tag, seq, step.hi - step.lo)
        )
        return seq, bufs[rank][step.lo:step.hi].copy()

    def on_recv(rank, pc, tag, step, message):
        seq, data = message
        lo, hi = step.lo, step.hi
        if data.size != hi - lo:
            errors[rank] = ValueError(
                f"rank {rank}: {data.size} elements from {step.peer} (tag {tag}) "
                f"met a {hi - lo}-element receive"
            )
            return False
        if step.combine:
            bufs[rank][lo:hi] += data
        else:
            bufs[rank][lo:hi] = data
        events.append(CommEvent("recv", rank, pc, Channel.APP, step.peer, tag, seq, hi - lo))
        return True

    pcs, waiting = sync.walk_plans(programs, on_send, on_recv)
    for (source, rank, tag), _ in sorted(waiting.items(), key=lambda item: item[1]):
        events.append(CommEvent("starved", rank, pcs[rank], Channel.APP, source, tag, -1, 0))
        errors[rank] = RecvStarvedError(
            f"rank {rank}: no send matches its receive from {source} (tag {tag})"
        )
    return RunRecord(size, events, bufs, errors)


@dataclass
class PlanCase:
    """One static case: ``program(rank)`` is the plans rank runs, one
    collective epoch each, on its certificate; every rank must end with
    the certificate sum."""

    name: str
    world_size: int
    program: Callable[[int], Tuple["sync.Plan", ...]]


def run_plan_case(case: PlanCase) -> CaseResult:
    """Interpret one static case and run every checker over its record."""
    size = case.world_size
    total = expected_sum(size)
    # A case allocates up to a million acyclic tuples: the cyclic
    # collector would only rescan them.
    gc.disable()
    try:
        record = interpret(
            [case.program(rank) for rank in range(size)],
            [contribution(rank, size) for rank in range(size)],
        )
        violations: List[Violation] = []
        violations += check_match_completeness(record, case.name)
        violations += check_tag_soundness(record, case.name, _REGIONS_SYNC)
        violations += check_deadlock_freedom(record, case.name)
        violations += check_reduction_coverage(record, case.name, lambda rank: total)
    finally:
        gc.enable()
    return CaseResult(case.name, size, violations, len(record.events))


def build_plan_cases(size: int) -> List[PlanCase]:
    """Static cases at ``size``, at 1 and 3 chunks: every allreduce
    algorithm, and the hierarchical reduce-scatter followed by its
    allgather, over every :func:`_hier_topologies` layout.

    Every case is a distinct step list.  ``allreduce[ring]`` and
    ``allreduce[rabenseifner]`` *are* the ring's and the halving /
    doubling reduce-scatter and allgather plans back to back, so those
    families are checked there; a single-host hierarchical allreduce is
    the ring.  The ring stops at :data:`STATIC_RING_MAX_SIZE`.
    """
    length = size + 3
    cases: List[PlanCase] = []

    def add(name: str, program: Callable[[int, int], Tuple["sync.Plan", ...]]) -> None:
        for n_chunks in (1, 3):
            cases.append(PlanCase(
                f"plan:{name},chunks={n_chunks}]", size,
                lambda rank, _c=n_chunks: program(rank, _c),
            ))

    for algorithm in ("recursive_doubling", "ring", "rabenseifner"):
        if algorithm != "ring" or size <= STATIC_RING_MAX_SIZE:
            add(f"allreduce[{algorithm}", lambda rank, n_chunks, _a=algorithm: (
                sync.allreduce_plan(_a, rank, size, length, n_chunks, None, False),
            ))
    for label, topology in _hier_topologies(size):
        topology = topology or HostTopology.single_host(size)
        if not topology.is_single_host:
            add(f"allreduce[hierarchical,{label}", lambda rank, n_chunks, _t=topology: (
                sync.allreduce_plan("hierarchical", rank, size, length, n_chunks, _t, False),
            ))
        add(f"reduce_scatter+allgather[hierarchical,{label}", lambda rank, c, _t=topology: (
            sync.reduce_scatter_plan("hierarchical", rank, size, length, c, _t, False)[0],
            sync.allgather_plan("hierarchical", rank, size, length, c, _t, False)[0],
        ))
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
        ("barrier epoch", lambda: tags.barrier_tag(
            tags.BARRIER.span // tags.BARRIER_TAGS_PER_EPOCH, 0)),
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


def check_dissemination(
    size: int,
    explore_limit: int = 8,
    children: Callable[[int, int, int], List[Tuple[int, int]]] = activation_children,
) -> CaseResult:
    """Static coverage proof of the partial activation dissemination.

    ``children(offset, incoming_class, size)`` is the forwarding rule
    under test; the default is the one the progress thread sends along
    (:func:`repro.collectives.topology.activation_children`), so this
    proves the rule that runs, not a copy of it.  A rank forwards for its
    *first* activation only.  Offsets are initiator-relative, so one
    check per world size proves the pattern for every initiator.  Three
    checks:

    * **unique parent** — every offset in ``[1, P)`` is the target of
      exactly one forward (strip the top set bit), so coverage cannot
      depend on which of several racing activations a rank sees first;
    * **union coverage** — the forward set reaches all ``P`` offsets;
    * **first-activation exploration** (``P <= explore_limit``) — an
      exhaustive search over message delivery orders proves every
      reachable terminal state has all ranks activated.  This is the
      check that rejects the wrapping ``mod P`` variant of the rule,
      which strands ranks at non-power-of-two sizes.
    """
    case = f"partial-dissemination[P={size}]"
    violations: List[Violation] = []
    parents: Dict[int, List[int]] = {}
    reach: Dict[int, int] = {0: -1}
    frontier = [(0, -1)]
    while frontier:
        offset, k = frontier.pop()
        for target, j in children(offset, k, size):
            parents.setdefault(target, []).append(offset)
            if target not in reach:
                reach[target] = j
                frontier.append((target, j))
    missing = sorted(set(range(size)) - set(reach))
    if missing:
        violations.append(Violation(
            case, "match",
            f"dissemination never reaches offset(s) {missing} "
            f"(ranks initiator+offset)",
        ))
    for offset, sources in sorted(parents.items()):
        if len(sources) > 1:
            violations.append(Violation(
                case, "match",
                f"offset {offset} is activated by {len(sources)} senders "
                f"{sorted(sources)}; racing first-activations make the "
                f"forward set delivery-order dependent",
            ))

    if size <= explore_limit and not missing:
        # First-activation exploration: state = the class each offset was
        # first activated at (None = not yet).  Any in-flight message may
        # be delivered next; delivery to an already-activated offset is
        # dropped (the progress thread drains stale activations).
        initial = tuple(
            -1 if d == 0 else None for d in range(size)
        )
        seen_states = {initial}
        stack = [initial]
        while stack:
            state = stack.pop()
            moves = []
            for offset, k in enumerate(state):
                if k is None:
                    continue
                for target, j in children(offset, k, size):
                    if state[target] is None:
                        moves.append((target, j))
            if not moves:
                dead = sorted(d for d, k in enumerate(state) if k is None)
                if dead:
                    violations.append(Violation(
                        case, "deadlock",
                        f"delivery order {state} strands offset(s) {dead} "
                        f"unactivated",
                    ))
                continue
            for target, j in moves:
                nxt = list(state)
                nxt[target] = j
                nxt_t = tuple(nxt)
                if nxt_t not in seen_states:
                    seen_states.add(nxt_t)
                    stack.append(nxt_t)
    return CaseResult(case, size, violations)


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
    """Rank 0's ring allreduce plan without its first receive: the static
    path must find the send nobody receives."""
    def program(rank):
        plan = sync.allreduce_plan("ring", rank, size, size + 3, 1, None, False)
        if rank == 0:
            (name, steps), *rest = plan
            drop = next(i for i, step in enumerate(steps) if not step.send)
            plan = ((name, steps[:drop] + steps[drop + 1:]), *rest)
        return (plan,)
    return PlanCase("mutant[plan-dropped-recv]", size, program)


def _mutant_wrapping_dissemination(size: int = 5) -> CaseResult:
    """The pre-fix ``(offset + 2^j) mod P`` forward rule: no bound, wraps.

    At a non-power-of-two size it aliases two tree positions onto one
    rank; a rank first activated via the aliased (higher) class skips its
    low-class forwards, and the delivery-order exploration of
    :func:`check_dissemination` must find the stranded ranks.
    """
    def wrapping(offset: int, incoming_class: int, size: int):
        return [
            ((offset + 2 ** j) % size, j)
            for j in range(incoming_class + 1, tree_depth(size))
        ]
    inner = check_dissemination(size, children=wrapping)
    return CaseResult("mutant[wrapping-dissemination]", size, inner.violations)


#: (mutant factory, checker expected to reject it).  A factory returns a
#: live case to record and check, a plan case to interpret and check, or
#: the result of a static check.
MUTANTS: Tuple[Tuple[Callable[[], VerifyCase | PlanCase | CaseResult], str], ...] = (
    (_mutant_dropped_recv, "match"),
    (_mutant_plan_dropped_recv, "match"),
    (_mutant_reused_tag, "match"),
    (_mutant_swapped_neighbor, "deadlock"),
    (_mutant_double_count, "reduction"),
    (_mutant_user_tag, "tags"),
    (_mutant_wrapping_dissemination, "deadlock"),
)


def self_test() -> List[CaseResult]:
    """Run every seeded mutant; each must be rejected by its checker."""
    results: List[CaseResult] = []
    for factory, expected_check in MUTANTS:
        case = factory()
        if isinstance(case, VerifyCase):
            inner = run_case(case)
        elif isinstance(case, PlanCase):
            inner = run_plan_case(case)
        else:
            inner = case
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
    include_exchange: bool = True,
    include_self_test: bool = True,
    include_ring_model: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> VerificationReport:
    """Run the full verification sweep and return the report."""
    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    results: List[CaseResult] = [check_tag_layout()]
    for size in world_sizes:
        note(f"verifying schedules at P={size} ...")
        for case in build_cases(size, include_exchange=include_exchange):
            results.append(run_case(case))
        results.append(run_case(partial_round_case(size)))
        results.append(check_dissemination(size))
    for size in STATIC_WORLD_SIZES:
        note(f"interpreting every rank's plan at P={size} ...")
        results.extend(run_plan_case(case) for case in build_plan_cases(size))
    if include_ring_model:
        note("model-checking the shm SPSC ring protocol ...")
        from repro.analysis.ring_model import verify_ring_protocol
        results.extend(verify_ring_protocol())
    if include_self_test:
        note("running checker self-tests (seeded mutants) ...")
        results.extend(self_test())
    return VerificationReport(results)
