"""Schedule verifier: healthy sweeps pass, seeded mutants are rejected."""

import time

import numpy as np
import pytest

from repro.analysis import schedule_verifier as sv
from repro.analysis import recording
from repro.collectives import sync
from repro.collectives.topology import HostTopology
from repro.comm import tags


def _violations(report):
    return [str(v) for r in report.results for v in r.violations]


# ---------------------------------------------------------------------------
# healthy schedules verify clean
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("size", [2, 3, 5, 8])
def test_sweep_passes_at_small_and_non_pot_sizes(size):
    report = sv.VerificationReport(
        [sv.run_case(c) for c in sv.build_cases(size) + sv.build_plan_cases(size)]
    )
    assert report.ok, _violations(report)


def test_sweep_passes_at_non_uniform_topologies():
    for spec in ([3, 1], [4, 2, 2]):
        size = sum(spec)
        total = sv.expected_sum(size)

        def fn(comm, _p=size):
            return sync.allreduce(
                comm, sv.contribution(comm.rank, _p),
                algorithm="hierarchical", n_chunks=2,
            )
        case = sv.VerifyCase(
            name=f"hier[{'+'.join(map(str, spec))}]",
            world_size=size,
            fn=fn,
            expected=lambda rank, _t=total: _t,
            host_topology=HostTopology.from_hosts(spec),
        )
        result = sv.run_case(case)
        assert result.ok, [str(v) for v in result.violations]


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6, 7, 8, 9, 16, 64])
def test_dissemination_covers_every_size(size):
    """The activation plan, interpreted for every initiator: each rank
    receives every initiator's value once, from its one tree parent."""
    result = sv.run_case(sv.activation_case(size))
    assert result.ok, [str(v) for v in result.violations]
    assert result.num_events == 2 * size * (size - 1)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 8])
def test_recorded_partial_round_verifies(size):
    """One quorum = P round of the real PartialAllreduce: matched messages,
    tags in the partial/sync regions, exact sum, every rank fresh."""
    result = sv.run_case(sv.partial_round_case(size))
    assert result.ok, [str(v) for v in result.violations]
    assert result.num_events > 0


def test_a_send_logs_before_another_thread_of_its_rank_receives_it(monkeypatch):
    """``reduce`` sends its own progress thread the arrival: however late
    the application thread logs that send, the receive is ordered after
    it, so the round is no false program-order cycle."""
    from repro.comm.communicator import Communicator

    deliver = Communicator._deliver

    def slow_deliver(self, payload, dest, tag):
        message = deliver(self, payload, dest, tag)
        time.sleep(0.002)  # the receiving thread runs first
        return message

    monkeypatch.setattr(Communicator, "_deliver", slow_deliver)
    result = sv.run_case(sv.partial_round_case(3))
    assert result.ok, [str(v) for v in result.violations]


@pytest.mark.parametrize("size", [2, 3, 5, 8])
def test_interpreted_event_order_is_a_deadlock_witness(size):
    """Why ``run_case`` skips the toposort on an interpreted case: the
    walk logs each event after its rank's previous one and each receive
    after the send it matches, so the log order is a topological order
    of the program-order + match-edge graph, and the toposort agrees."""
    for case in sv.build_plan_cases(size):
        record = case.record()
        last_order = {}
        for index, event in enumerate(record.events):
            assert event.order >= last_order.get(event.rank, -1), case.name
            last_order[event.rank] = event.order
            if event.kind == "recv":
                assert record.events[event.seq].kind == "send", case.name
                assert event.seq < index, case.name
        assert sv.check_deadlock_freedom(record, case.name, toposort=True) == []


def test_a_recorder_that_dropped_events_fails_the_record(monkeypatch):
    """Four sends and four receives are eight events per rank: a 4-slot
    recorder drops half of them, and a partial log proves nothing."""
    def fn(comm):
        for k in range(4):
            if comm.rank == 0:
                comm.send(np.ones(1), 1, tag=tags.sync_tag(0, 0, k, 0))
            else:
                comm.recv(source=0, tag=tags.sync_tag(0, 0, k, 0))

    monkeypatch.setattr(recording, "CAPACITY", 4)
    with pytest.raises(RuntimeError, match="rank 0's recorder dropped 4 of 8 events"):
        recording.record(fn, 2)


def test_tag_layout_static_case():
    result = sv.check_tag_layout()
    assert result.ok, [str(v) for v in result.violations]


# ---------------------------------------------------------------------------
# broken schedules are rejected by the matching checker
# ---------------------------------------------------------------------------
def test_dropped_recv_is_an_orphan_send():
    def fn(comm):
        tag = tags.sync_tag(0, 0, 0, 0)
        comm.send(np.ones(2), (comm.rank + 1) % comm.size, tag=tag)
        if comm.rank != 0:
            comm.recv(source=(comm.rank - 1) % comm.size, tag=tag)

    record = recording.record(fn, 4, recv_timeout=1.0)
    violations = sv.check_match_completeness(record, "dropped-recv")
    assert any("orphan send" in str(v) for v in violations), [
        str(v) for v in violations
    ]


def test_reused_tag_is_an_ambiguous_match():
    def fn(comm):
        tag = tags.sync_tag(0, 0, 0, 0)
        if comm.rank == 0:
            comm.send(np.zeros(1), 1, tag=tag)
            comm.send(np.ones(1), 1, tag=tag)
        elif comm.rank == 1:
            comm.recv(source=0, tag=tag)
            comm.recv(source=0, tag=tag)

    record = recording.record(fn, 2, recv_timeout=1.0)
    violations = sv.check_match_completeness(record, "reused-tag")
    assert any("ambiguous match" in str(v) for v in violations), [
        str(v) for v in violations
    ]


def test_swapped_ring_neighbor_is_a_deadlock_cycle():
    def fn(comm):
        tag = tags.sync_tag(0, 4, 0, 0)
        succ = (comm.rank + 1) % comm.size
        comm.send(np.ones(2), succ, tag=tag)
        comm.recv(source=succ, tag=tag)  # wrong neighbour: cyclic wait

    record = recording.record(fn, 4, recv_timeout=1.0)
    violations = sv.check_deadlock_freedom(record, "swapped-neighbor")
    assert any("cyclic wait" in str(v) for v in violations), [
        str(v) for v in violations
    ]


def test_double_counted_term_breaks_reduction_coverage():
    total = sv.expected_sum(4)

    def fn(comm):
        result = sync.allreduce(
            comm, sv.contribution(comm.rank, 4), algorithm="ring"
        )
        if comm.rank == 0:
            result = result + sv.contribution(0, 4)
        return result

    record = recording.record(fn, 4, recv_timeout=1.0)
    violations = sv.check_reduction_coverage(
        record, "double-count", lambda rank: total
    )
    assert any("counted twice" in str(v) or "missing" in str(v)
               for v in violations), [str(v) for v in violations]


def test_rogue_user_tag_breaks_tag_soundness():
    def fn(comm):
        succ = (comm.rank + 1) % comm.size
        pred = (comm.rank - 1) % comm.size
        comm.send(np.ones(1), succ, tag=7)
        comm.recv(source=pred, tag=7)

    record = recording.record(fn, 3, recv_timeout=5.0)
    violations = sv.check_tag_soundness(
        record, "user-tag", frozenset({tags.SYNC.name})
    )
    assert any("outside every declared region" in str(v) for v in violations)


def test_wrapping_dissemination_rule_is_rejected():
    """The ``(offset + 2^j) mod P`` forward rule, as an activation plan:
    at a non-power-of-two size its wrapped forwards reach ranks that
    already have their one parent, and the interpreter finds them."""
    result = sv.run_case(sv._mutant_wrapping_activation(5), toposort=True)
    assert any(v.check == "match" and "orphan send" in v.detail
               for v in result.violations), [str(v) for v in result.violations]
    assert any(factory is sv._mutant_wrapping_activation for factory, _ in sv.MUTANTS)


def test_self_test_rejects_every_mutant():
    for result in sv.self_test():
        assert result.ok, [str(v) for v in result.violations]
