"""Tests for partial collectives: solo, majority and quorum allreduce."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import recording
from repro.comm import available_backends, backend_unavailable_reason, launch, tags
from repro.comm.router import Channel
from repro.collectives import PartialAllreduce, PartialMode, make_partial_allreduce, sync


def _run_rounds(comm, mode, rounds, skew_ms=0.0, contribution_scale=1.0, **kwargs):
    """Each rank contributes `rank+1` per round, optionally skewed."""
    partial = make_partial_allreduce(comm, (4,), mode, seed=99, **kwargs)
    outputs = []
    for _ in range(rounds):
        if skew_ms:
            time.sleep(comm.rank * skew_ms / 1000.0)
        result = partial.reduce(np.full(4, (comm.rank + 1) * contribution_scale))
        outputs.append(result)
    partial.close()
    return outputs


class TestSoloAllreduce:
    def test_per_round_results_identical_across_ranks(self):
        # With exact per-round buffering (overwrite_recvbuff=False) every
        # rank must observe the same reduced value for the same round
        # (Lemma 5.1, safety property 3).  With the paper-faithful single
        # receive buffer a lagging rank may legitimately observe a later
        # round instead, which is covered by test_overwrite_semantics_flag.
        results = launch(_run_rounds, 4, "solo", 4, overwrite_recvbuff=False)
        for round_index in range(4):
            values = {tuple(results[r][round_index].data) for r in range(4)}
            assert len(values) == 1, "all ranks must see the same reduced value"

    def test_no_skew_includes_everyone_eventually(self):
        """Without skew, over all rounds the total contribution is conserved."""
        rounds = 6
        # Exact per-round buffering so one rank's view counts each round once.
        results = launch(_run_rounds, 4, "solo", rounds, overwrite_recvbuff=False)
        # Sum of the reduced (averaged) values over all rounds equals the
        # total contribution / P as long as no gradient is left behind...
        # the last rounds may leave stale gradients in the send buffers, so
        # the delivered total can only be less than or equal to the total
        # contributed, and must be positive.
        per_round = [results[0][t].data[0] for t in range(rounds)]
        total_contributed = sum(range(1, 5)) / 4 * rounds
        assert 0 < sum(per_round) <= total_contributed + 1e-9

    def test_fast_rank_initiates_and_slow_excluded(self):
        results = launch(_run_rounds, 4, "solo", 3, 25.0)
        # Rank 0 (fastest) should have its gradient included in every round.
        assert all(r.included for r in results[0])
        # The slowest rank misses at least one round under heavy skew.
        assert not all(r.included for r in results[3])
        # NAP stays well below the world size for the first round.
        assert results[0][0].num_active <= 2

    def test_stale_gradients_carried_to_later_rounds(self):
        """A slow rank's gradient is not lost: it arrives in a later round."""
        rounds = 5
        results = launch(_run_rounds, 2, "solo", rounds, 30.0, overwrite_recvbuff=False
        )
        # Contributions are never duplicated (delivered <= contributed) and
        # the fast rank's own gradients are always delivered; the slow
        # rank's gradients may still be pending in its send buffer when
        # training stops, which is exactly the staleness the paper trades
        # for wait-freedom.
        delivered = sum(results[0][t].data[0] * 2 for t in range(rounds))
        contributed = (1 + 2) * rounds
        assert delivered <= contributed + 1e-9
        assert delivered >= 1.0 * rounds - 1e-9  # rank 0 is always included
        # At least one round combined more than rank 0 alone or the slow
        # rank reported an inclusion: stale gradients do flow when the
        # slow rank catches up.
        slow_included = any(r.included for r in results[1])
        richer_round = any(results[0][t].data[0] * 2 > 1.0 + 1e-9 for t in range(rounds))
        assert slow_included or richer_round or delivered == pytest.approx(rounds)

    def test_single_rank_world(self):
        results = launch(_run_rounds, 1, "solo", 3)
        for r in results[0]:
            assert np.allclose(r.data, 1.0)
            assert r.included and r.num_active == 1


class TestMajorityAllreduce:
    def test_average_nap_at_least_half(self):
        rounds = 8
        results = launch(_run_rounds, 4, "majority", rounds, 5.0)
        naps = [results[0][t].num_active for t in range(rounds)]
        assert np.mean(naps) >= 2.0, f"expected majority participation, got {naps}"

    def test_initiator_varies_across_rounds(self):
        rounds = 12
        results = launch(_run_rounds, 4, "majority", rounds, 2.0)
        initiators = {results[0][t].initiator for t in range(rounds)}
        assert len(initiators) > 1

    def test_per_round_results_identical_across_ranks(self):
        results = launch(_run_rounds, 4, "majority", 3, 3.0, overwrite_recvbuff=False
        )
        for t in range(3):
            values = {tuple(results[r][t].data) for r in range(4)}
            assert len(values) == 1


@pytest.mark.parametrize("mode", ["solo", "majority"])
def test_round_average_bounded_by_rounds_contributed(mode):
    """Every rank contributes ones for four rounds: a round may carry stale
    gradients, so its average can exceed 1, but never the four rounds."""
    elements, rounds = 16 * 1024, 4

    def worker(comm):
        partial = PartialAllreduce(comm, (elements,), mode, seed=1)
        for _ in range(rounds):
            value = float(partial.reduce(np.ones(elements)).data[0])
        partial.close()
        return value

    for value in launch(worker, 4):
        assert 0.0 <= value <= rounds + 1e-9


#: Per world size and initiator, the ``[source, destination]`` pairs of
#: the activation-channel sends to another rank, recorded from majority
#: rounds of the activation rule as it stood before it was a plan.
ACTIVATION_EDGES = Path(__file__).parent / "data" / "activation_edges.json"


def _majority_initiators(comm, rounds):
    with PartialAllreduce(comm, (2,), "majority", seed=7, average=False) as partial:
        return [partial.reduce(np.ones(2)).initiator for _ in range(rounds)]


@pytest.mark.parametrize("size", [3, 5, 6, 7, 8])
def test_live_activation_sends_the_frozen_edges_of_the_plan(size):
    """Each recorded majority round of the real collective sends its
    activation along exactly the frozen edges of its initiator, which are
    the send steps of that initiator's ``sync.activation_plan``; every
    rank initiates at least once."""
    frozen = json.loads(ACTIVATION_EDGES.read_text())[str(size)]
    record = recording.record(lambda comm: _majority_initiators(comm, 6 * size), size)
    assert not any(record.errors), record.errors
    initiators = record.results[0]
    assert sorted(set(initiators)) == list(range(size))
    sent = [set() for _ in initiators]
    for e in record.sends():
        if e.channel == Channel.ACTIVATION and e.peer != e.rank:
            sent[e.tag - tags.PARTIAL_ACTIVATION_TAG_BASE].add((e.rank, e.peer))
    for initiator, edges in zip(initiators, sent):
        planned = {
            (rank, step.peer)
            for rank, plan in enumerate(sync.activation_plan(size, initiator))
            for _name, steps in plan
            for step in steps
            if step.send
        }
        assert edges == {tuple(pair) for pair in frozen[str(initiator)]} == planned


class TestQuorumAllreduce:
    def test_quorum_is_met_every_round(self):
        rounds = 5
        results = launch(_run_rounds, 4, "quorum", rounds, 5.0, 1.0, quorum=3
        )
        for t in range(rounds):
            assert results[0][t].num_active >= 3

    def test_quorum_full_equals_synchronous_average(self):
        rounds = 3
        results = launch(_run_rounds, 4, "quorum", rounds, 2.0, 1.0, quorum=4)
        expected = sum(range(1, 5)) / 4.0
        for t in range(rounds):
            assert results[0][t].data[0] == pytest.approx(expected)
            assert results[0][t].num_active == 4

    def test_invalid_quorum_rejected(self):
        from repro.comm import ThreadWorld

        with ThreadWorld(2) as world:
            with pytest.raises(ValueError):
                PartialAllreduce(world.communicator(0), (2,), "quorum", quorum=5)

    def test_constructor_requires_quorum(self):
        """No silent ``P // 2`` default: quorum mode names its quorum."""
        from repro.comm import ThreadWorld

        with ThreadWorld(2) as world:
            with pytest.raises(ValueError, match="quorum"):
                PartialAllreduce(world.communicator(0), (2,), "quorum")

    def test_factory_requires_quorum(self):
        from repro.comm import ThreadWorld

        with ThreadWorld(2) as world:
            with pytest.raises(ValueError):
                make_partial_allreduce(world.communicator(0), 2, "quorum")


class TestSemantics:
    def test_shape_mismatch_rejected(self):
        def worker(comm):
            partial = PartialAllreduce(comm, (4,), "solo", seed=1)
            try:
                with pytest.raises(ValueError):
                    partial.reduce(np.ones(3))
                # Run one valid round so both ranks stay in lockstep.
                partial.reduce(np.ones(4))
            finally:
                partial.close()
            return True

        assert all(launch(worker, 2))

    def test_overwrite_semantics_flag(self):
        """With overwrite_recvbuff=False every rank sees its own round."""

        def worker(comm, overwrite):
            partial = PartialAllreduce(
                comm, (1,), "solo", seed=5, overwrite_recvbuff=overwrite
            )
            values = []
            for t in range(4):
                time.sleep(comm.rank * 0.02)
                values.append(float(partial.reduce(np.array([float(t + 1)])).data[0]))
            partial.close()
            return values

        exact = launch(worker, 2, False)
        # In exact mode both ranks report the same per-round sequence.
        assert exact[0] == pytest.approx(exact[1])

    def test_mode_enum(self):
        assert PartialMode("solo") is PartialMode.SOLO
        assert PartialMode("majority") is PartialMode.MAJORITY
        with pytest.raises(ValueError):
            PartialMode("bogus")

    def test_close_is_idempotent_and_context_manager(self):
        def worker(comm):
            with PartialAllreduce(comm, (2,), "solo", seed=3) as partial:
                partial.reduce(np.ones(2))
            partial.close()  # second close must not raise
            return True

        assert all(launch(worker, 2))


    def test_dead_peer_fails_the_round_with_the_transport_timeout(self):
        """A peer that never joins the reduction surfaces, after the
        world's receive deadline, as a named RuntimeError (cause: the
        transport's timeout) and ends the thread."""

        def worker(comm):
            if comm.rank == 1:
                return None  # never constructs its collective
            partial = PartialAllreduce(comm, (2,), "solo", seed=3)
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="rank 0.*round 0") as failure:
                partial.reduce(np.ones(2))
            elapsed = time.monotonic() - start
            partial._thread.join(timeout=5.0)
            return (
                elapsed,
                isinstance(failure.value.__cause__, TimeoutError),
                partial._thread.is_alive(),
            )

        elapsed, caused_by_timeout, alive = launch(
            worker, 2, backend="thread", default_recv_timeout=0.3
        )[0]
        assert 0.3 <= elapsed < 5.0
        assert caused_by_timeout
        assert not alive

    def test_a_round_never_activated_times_out_at_twice_the_deadline(self):
        """Majority mode whose designated initiator never arrives: no
        receive is pending, so ``reduce`` itself gives up, after two
        world deadlines."""
        from repro.utils.rng import seeded_rng

        seed = next(s for s in range(100) if seeded_rng(s).integers(0, 2) == 1)

        def worker(comm):
            if comm.rank == 1:
                return None  # the designated initiator of round 0 never comes
            with PartialAllreduce(comm, (2,), "majority", seed=seed) as partial:
                start = time.monotonic()
                with pytest.raises(TimeoutError, match="round 0 did not complete within 0.6s"):
                    partial.reduce(np.ones(2))
                return time.monotonic() - start

        elapsed = launch(worker, 2, backend="thread", default_recv_timeout=0.3)[0]
        assert 0.6 <= elapsed < 5.0


class _ActivationCalls:
    """Pass-through communicator that counts the receive-family calls made
    on the activation channel of every communicator derived from it."""

    def __init__(self, comm, calls):
        self._comm = comm
        self.calls = calls

    def __getattr__(self, name):
        attr = getattr(self._comm, name)
        if name in ("recv", "recv_message", "poll") and self._comm.channel.startswith(
            Channel.ACTIVATION
        ):
            self.calls.append(name)
        return attr

    def dup(self, channel=None):
        return _ActivationCalls(self._comm.dup(channel), self.calls)


def _skip_unless_available(backend):
    if backend not in available_backends():
        pytest.skip(f"backend {backend!r} unavailable: {backend_unavailable_reason(backend)}")


class TestProgressThread:
    @pytest.mark.parametrize("backend", ["thread", "shm"])
    def test_an_idle_progress_thread_does_not_spin(self, backend):
        """Between rounds the thread sits in one blocked receive: a
        half-second idle window, before the first round and after one,
        adds at most the call that starts the next wait (a poll loop
        made thousands)."""
        _skip_unless_available(backend)

        def worker(comm):
            calls = []
            idle = []
            with PartialAllreduce(_ActivationCalls(comm, calls), (2,), "majority", seed=4) as p:
                for _ in range(2):
                    comm.barrier()
                    before = len(calls)
                    time.sleep(0.5)
                    idle.append(len(calls) - before)
                    p.reduce(np.ones(2))
            return idle

        for idle in launch(worker, 2, backend=backend):
            assert all(count <= 1 for count in idle), idle

    @pytest.mark.parametrize("backend", ["thread", "shm"])
    def test_close_of_an_idle_collective_returns_at_once(self, backend):
        _skip_unless_available(backend)

        def worker(comm):
            partial = PartialAllreduce(comm, (2,), "solo", seed=3)
            partial.reduce(np.ones(2))
            time.sleep(0.1)
            start = time.monotonic()
            partial.close()
            return time.monotonic() - start, partial._thread.is_alive()

        for elapsed, alive in launch(worker, 2, backend=backend):
            assert elapsed < 0.5
            assert not alive
