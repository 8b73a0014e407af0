"""Schedule verifier: healthy sweeps pass, seeded mutants are rejected."""

import numpy as np
import pytest

from repro.analysis import schedule_verifier as sv
from repro.analysis.recording import record_run
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
        [sv.run_case(c) for c in sv.build_cases(size)]
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
    result = sv.check_dissemination(size)
    assert result.ok, [str(v) for v in result.violations]


@pytest.mark.parametrize("size", [2, 3, 4, 5, 8])
def test_recorded_partial_round_verifies(size):
    """One quorum = P round of the real PartialAllreduce: matched messages,
    tags in the partial/sync regions, exact sum, every rank fresh."""
    result = sv.run_case(sv.partial_round_case(size))
    assert result.ok, [str(v) for v in result.violations]
    assert result.num_events > 0


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

    record = record_run(fn, 4, recv_timeout=1.0)
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

    record = record_run(fn, 2, recv_timeout=1.0)
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

    record = record_run(fn, 4, recv_timeout=1.0)
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

    record = record_run(fn, 4, recv_timeout=1.0)
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

    record = record_run(fn, 3, recv_timeout=5.0)
    violations = sv.check_tag_soundness(
        record, "user-tag", frozenset({tags.SYNC.name})
    )
    assert any("outside every declared region" in str(v) for v in violations)


def test_wrapping_dissemination_rule_is_rejected():
    """The pre-fix ``(offset + 2^j) mod P`` forward rule strands ranks.

    Regression companion to the ``_forward_activation`` fix: the
    delivery-order exploration of ``check_dissemination`` must reject the
    old wrapping rule at a non-power-of-two size.
    """
    result = sv._mutant_wrapping_dissemination(5)
    assert any(v.check == "deadlock" and "strands" in v.detail
               for v in result.violations), [str(v) for v in result.violations]


def test_self_test_rejects_every_mutant():
    for result in sv.self_test():
        assert result.ok, [str(v) for v in result.violations]
