"""Tests for the fused, chunked gradient-exchange pipeline.

Covers the tentpole subsystem of the fusion PR: the gradient bucketer,
the chunk-pipelined synchronous collectives (including the fixed tag
layout and native non-power-of-two support), the bucketed exchanges, and
the simtime mirror of the chunked-pipeline cost.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.comm import launch
from repro.comm.tags import (
    SYNC_EPOCH_STRIDE as _EPOCH_STRIDE,
    SYNC_MAX_CHUNKS as _TAG_MAX_CHUNKS,
    SYNC_MAX_PHASES as _TAG_MAX_PHASES,
    SYNC_MAX_ROUNDS as _TAG_MAX_ROUNDS,
    SYNC_PHASE_STRIDE as _PHASE_STRIDE,
    decode_sync_tag,
    sync_tag as _tag,
)
from repro.collectives import allreduce
from repro.collectives.partial import PartialAllreduce
from repro.experiments import fusion_pipeline
from repro.simtime.collective_model import allreduce_time
from repro.simtime.network import LogGPParams
from repro.training import GradientBucketer, PartialExchange, SynchronousExchange
from repro.training.bucketing import BucketSpec
from repro.training.config import TrainingConfig
from repro.training.exchange import build_exchange


class TestGradientBucketer:
    def test_from_flat_respects_threshold(self):
        # 8-byte elements; threshold of 4 elements = 32 bytes: the fewest
        # near-equal ranges of at most 4 elements each.
        b = GradientBucketer.from_flat(17, fusion_threshold_bytes=32)
        assert [spec.num_elements for spec in b.buckets] == [4, 4, 3, 3, 3]
        assert b.num_elements == 17
        # A threshold below one element's width is one element per bucket.
        assert GradientBucketer.from_flat(3, fusion_threshold_bytes=5).num_buckets == 3
        # No threshold is one bucket, the gradient fully fused.
        assert GradientBucketer.from_flat(17, None).num_buckets == 1

    def test_contiguous_coverage(self):
        b = GradientBucketer.from_flat(12, fusion_threshold_bytes=48)
        spans = [(spec.start, spec.stop) for spec in b.buckets]
        assert spans == [(0, 6), (6, 12)]
        assert b.buckets[1] == BucketSpec(1, 6, 12)

    @pytest.mark.parametrize("threshold", [8, 24, 64, 10_000])
    def test_pack_unpack_round_trip_bit_exact(self, rng, threshold):
        b = GradientBucketer.from_flat(36, fusion_threshold_bytes=threshold)
        flat = rng.normal(size=36)
        buffers = b.pack(flat)
        assert sum(buf.size for buf in buffers) == flat.size
        restored = b.unpack(buffers)
        assert restored.dtype == np.float64
        assert np.array_equal(restored, flat)  # bit-exact, not allclose

    def test_from_flat_and_fixed_count(self):
        b = GradientBucketer.from_flat(100, fusion_threshold_bytes=30 * 8)
        assert b.num_buckets == 4
        assert [spec.num_elements for spec in b.buckets] == [25, 25, 25, 25]
        fixed = GradientBucketer.fixed_count(10, 3)
        assert [spec.num_elements for spec in fixed.buckets] == [4, 3, 3]

    def test_validation_errors(self, rng):
        with pytest.raises(ValueError):
            GradientBucketer.from_flat(0)
        with pytest.raises(ValueError):
            GradientBucketer.fixed_count(3, 0)
        with pytest.raises(ValueError):
            GradientBucketer.from_flat(3, fusion_threshold_bytes=0)
        b = GradientBucketer.fixed_count(6, 2)
        with pytest.raises(ValueError):
            b.pack(np.zeros(5))
        with pytest.raises(ValueError):
            b.unpack([np.zeros(3)])
        for bad in (np.zeros(5), np.zeros((2, 3))):
            with pytest.raises(ValueError):
                b.views(bad)


def _allreduce_worker(comm, algorithm, n_chunks, data):
    return allreduce(comm, data + comm.rank, algorithm=algorithm, n_chunks=n_chunks)


class TestChunkedCollectives:
    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    @pytest.mark.parametrize("n_chunks", [2, 3, 7])
    def test_chunked_ring_equals_unchunked(self, rng, size, n_chunks):
        data = rng.normal(size=29)
        chunked = launch(_allreduce_worker, size, "ring", n_chunks, data)
        plain = launch(_allreduce_worker, size, "ring", 1, data)
        expected = sum(data + r for r in range(size))
        for c, p in zip(chunked, plain):
            assert np.allclose(c, expected)
            assert np.array_equal(c, p)  # identical reduction order => bit-equal

    @pytest.mark.parametrize("algorithm", ["recursive_doubling", "rabenseifner"])
    @pytest.mark.parametrize("size", [3, 4, 6])
    def test_chunked_other_algorithms(self, rng, algorithm, size):
        data = rng.normal(size=17)
        expected = sum(data + r for r in range(size))
        for result in launch(_allreduce_worker, size, algorithm, 4, data):
            assert np.allclose(result, expected)

    def test_invalid_chunk_counts(self):
        from repro.comm import ThreadWorld

        with ThreadWorld(1) as world:
            comm = world.communicator(0)
            with pytest.raises(ValueError):
                allreduce(comm, np.ones(4), algorithm="ring", n_chunks=0)
            with pytest.raises(ValueError):
                allreduce(
                    comm, np.ones(4), algorithm="ring", n_chunks=_TAG_MAX_CHUNKS + 1
                )

    def test_preserves_shape_when_chunked(self):
        results = launch(lambda comm: allreduce(
                comm, np.ones((3, 5)) * comm.rank, algorithm="ring", n_chunks=3
            ), 4,
        )
        for r in results:
            assert r.shape == (3, 5)
            assert np.allclose(r, 6)


class TestNonPowerOfTwoWorlds:
    @pytest.mark.parametrize("size", [3, 5, 6, 7])
    @pytest.mark.parametrize("algorithm", ["recursive_doubling", "ring", "rabenseifner"])
    def test_all_algorithms_correct(self, rng, size, algorithm):
        data = rng.normal(size=13)
        expected = sum(data + r for r in range(size))
        for result in launch(_allreduce_worker, size, algorithm, 1, data):
            assert np.allclose(result, expected)

    @pytest.mark.parametrize("size", [3, 5, 6, 7])
    def test_rabenseifner_never_falls_back(self, size):
        """Regression: non-power-of-two worlds used to silently reroute to
        recursive doubling; they must now run Rabenseifner natively.

        The witness is the wire: every tag a rank sends decodes to the
        halving / doubling phases (6, 7) or the fold (8, 9), never to the
        recursive-doubling exchange (3).
        """

        class SentPhases:
            """Communicator proxy recording the phase of every sync tag sent."""

            def __init__(self, comm):
                self._comm = comm
                self.phases = set()

            def __getattr__(self, name):
                return getattr(self._comm, name)

            def send(self, data, dest, tag=0):
                self.phases.add(decode_sync_tag(tag).phase)
                self._comm.send(data, dest, tag=tag)

        def worker(comm):
            proxy = SentPhases(comm)
            out = allreduce(proxy, np.full(11, comm.rank + 1.0), algorithm="rabenseifner")
            return out, proxy.phases

        results = launch(worker, size)
        expected = sum(range(1, size + 1))
        sent = set().union(*(phases for _, phases in results))
        assert sent == {6, 7, 8, 9}  # and so never 3, the recursive-doubling exchange
        for r, _ in results:
            assert np.allclose(r, expected)


class TestTagLayout:
    def test_field_overflow_raises(self):
        with pytest.raises(ValueError):
            _tag(0, _TAG_MAX_PHASES, 0)
        with pytest.raises(ValueError):
            _tag(0, 0, _TAG_MAX_ROUNDS)
        with pytest.raises(ValueError):
            _tag(0, 0, 0, _TAG_MAX_CHUNKS)
        with pytest.raises(ValueError):
            _tag(0, -1, 0)

    def test_large_world_rounds_stay_inside_their_phase(self):
        """Regression: with the old 512-slot round field, a ring allreduce
        over P > 512 ranks collided into the next phase/epoch tag space."""
        # A ring over P = 100_000 ranks uses P - 1 rounds per phase.
        high_round = _tag(0, 4, 99_999)
        assert high_round < _tag(0, 5, 0)
        assert _tag(0, _TAG_MAX_PHASES - 1, _TAG_MAX_ROUNDS - 1, _TAG_MAX_CHUNKS - 1) < _tag(
            1, 0, 0
        )
        assert _PHASE_STRIDE == _TAG_MAX_ROUNDS * _TAG_MAX_CHUNKS
        assert _EPOCH_STRIDE == _TAG_MAX_PHASES * _PHASE_STRIDE

    def test_tags_unique_within_epoch(self):
        seen = set()
        for phase in (0, 3, 7):
            for round_index in (0, 1, 511, 512, 1000):
                for chunk in (0, 1, 7):
                    tag = _tag(5, phase, round_index, chunk)
                    assert tag not in seen
                    seen.add(tag)


class TestPartialCounterHardening:
    def test_num_active_exact_with_averaging_at_odd_world(self):
        """The arrival counter must not be divided by ``average=True`` and
        must survive the non-power-of-two fold exactly."""

        def worker(comm):
            partial = PartialAllreduce(
                comm, (3,), "quorum", quorum=3, average=True, seed=2
            )
            results = [partial.reduce(np.full(3, comm.rank + 1.0)) for _ in range(3)]
            partial.close()
            return results

        for rank_results in launch(worker, 3):
            for r in rank_results:
                assert r.num_active == 3
                assert isinstance(r.num_active, int)

    def test_corrupted_counter_rejected(self):
        def worker(comm):
            partial = PartialAllreduce(comm, (2,), "solo", seed=1)
            try:
                assert partial._decode_num_active(2.0) == 2
                with pytest.raises(RuntimeError):
                    partial._decode_num_active(1.5)
                with pytest.raises(RuntimeError):
                    partial._decode_num_active(float(comm.size + 1))
            finally:
                partial.close()
            return True

        assert all(launch(worker, 2))


class TestFusedSynchronousExchange:
    @pytest.mark.parametrize("style", ["deep500", "horovod"])
    @pytest.mark.parametrize("algorithm", ["ring", "recursive_doubling"])
    def test_fused_chunked_average_matches_plain(self, style, algorithm):
        def worker(comm):
            fused = SynchronousExchange(
                comm,
                style=style,
                algorithm=algorithm,
                fusion_threshold_bytes=64,
                pipeline_chunks=3,
            )
            plain = SynchronousExchange(comm, style=style, algorithm=algorithm)
            grad = np.arange(23.0) * (comm.rank + 1)
            return fused.exchange(grad), plain.exchange(grad)

        for fused_result, plain_result in launch(worker, 4):
            assert np.allclose(fused_result.gradient, plain_result.gradient)
            assert fused_result.num_active == 4
            # 23 float64 elements at 64-byte buckets -> 3 buckets.
            assert len(fused_result.bucket_waits) == 3
            assert all(w >= 0.0 for w in fused_result.bucket_waits)

    def test_horovod_negotiated_order_consistent_across_ranks(self):
        def worker(comm):
            exchange = SynchronousExchange(
                comm, style="horovod", fusion_threshold_bytes=32
            )
            exchange._ensure_bucketer(16)
            return tuple(exchange._negotiated_order(4))

        orders = set(launch(worker, 4))
        assert len(orders) == 1, "all ranks must agree on the negotiated order"

    def test_horovod_negotiated_order_is_frozen(self):
        """Frozen from the object-allgather negotiation the readiness
        table replaced: P = 3, 4 buckets, steps 0-2, every rank."""
        def worker(comm):
            exchange = SynchronousExchange(comm, style="horovod", fusion_threshold_bytes=32)
            orders = []
            for step in range(3):
                exchange._step = step
                orders.append(exchange._negotiated_order(4))
            return orders

        frozen = [[0, 2, 1, 3], [0, 1, 2, 3], [2, 0, 1, 3]]
        assert launch(worker, 3, backend="thread") == [frozen] * 3

    def test_exchanges_count_sent_bytes_alike(self):
        """Rank 0's bytes sent per exchange, counted at its communicator
        the same way for every exchange: ring, fused chunked ring and
        ZeRO-1 all move 2 (P - 1) / P of the vector, recursive doubling
        the whole vector log2(P) times."""
        from repro.nn.module import Module
        from repro.nn.optim import SGD
        from repro.nn.parameters import flatten_parameters
        from repro.training.exchange import ShardedExchange, _WireCountingComm

        size, n, lr = 4, 1 << 15, 0.25
        fused = dict(algorithm="ring", fusion_threshold_bytes=64 * 1024, pipeline_chunks=4)
        base = np.arange(n, dtype=np.float64) / n
        mean = base + (size - 1) / 2.0
        init = np.linspace(-1.0, 1.0, n)

        def dense(**kwargs):
            def make_step(comm):
                exchange = SynchronousExchange(comm, **kwargs)
                return lambda gradient: exchange.exchange(gradient).gradient
            return make_step

        def sharded(comm):
            model = Module()
            model.add_parameter("theta", init.copy())
            optimizer = SGD(model, lr)
            exchange = ShardedExchange(comm, **fused)

            def step(gradient):
                exchange.exchange_update(gradient, model, optimizer)
                return flatten_parameters(model)
            return step

        # (make_step(comm) -> step(gradient) -> vector to check, its reference)
        cases = [
            (dense(algorithm="recursive_doubling"), mean),
            (dense(algorithm="ring"), mean),
            (dense(**fused), mean),
            (sharded, init - lr * mean),
        ]

        def worker(comm):
            rows = []
            for make_step, reference in cases:
                counting = _WireCountingComm(comm)
                out = make_step(counting)(base + comm.rank)
                rows.append((counting.bytes_sent, float(np.max(np.abs(out - reference)))))
            return rows

        ranks = launch(worker, size, backend="thread")
        ring = 2 * (size - 1) * n * 8 // size
        assert [sent for sent, _ in ranks[0]] == [2 * n * 8, ring, ring, ring]
        assert all(error < 1e-9 for rows in ranks for _, error in rows)

    def test_gradient_length_change_rejected(self):
        def worker(comm):
            exchange = SynchronousExchange(comm, fusion_threshold_bytes=64)
            exchange.exchange(np.ones(8))
            with pytest.raises(ValueError):
                exchange._ensure_bucketer(9)
            # Keep ranks in lockstep with one more valid exchange.
            exchange.exchange(np.ones(8))
            return True

        assert all(launch(worker, 2))


def _kept(result):
    """``result`` with its own gradient array.

    ``ExchangeResult.gradient`` is the exchange's buffer and the next
    ``exchange`` call overwrites it; a result kept across calls copies it.
    """
    return dataclasses.replace(result, gradient=result.gradient.copy())


class TestFusedPartialExchange:
    def test_quorum_full_matches_synchronous_average_per_bucket(self):
        def worker(comm):
            exchange = PartialExchange(
                comm,
                num_parameters=23,
                mode="quorum",
                quorum=4,
                seed=7,
                fusion_threshold_bytes=48,
            )
            results = [
                _kept(exchange.exchange(np.arange(23.0) * (comm.rank + 1)))
                for _ in range(2)
            ]
            exchange.close()
            return results

        expected = np.arange(23.0) * 2.5
        for rank_results in launch(worker, 4):
            for r in rank_results:
                assert np.allclose(r.gradient, expected)
                assert r.num_active == 4 and r.included
                assert len(r.bucket_waits) == 4  # ceil(23*8 / 48)

    def test_stale_gradients_preserved_across_buckets(self):
        """Per-bucket send buffers accumulate stale gradients independently:
        nothing is lost and nothing is duplicated in either bucket."""
        rounds = 4

        def worker(comm):
            exchange = PartialExchange(
                comm,
                num_parameters=8,
                mode="solo",
                seed=11,
                overwrite_recvbuff=False,
                fusion_threshold_bytes=4 * 8,  # two buckets of 4 elements
            )
            assert exchange.bucketer.num_buckets == 2
            outputs = []
            for _ in range(rounds):
                time.sleep(comm.rank * 0.03)
                grad = np.concatenate(
                    [np.full(4, 1.0 * (comm.rank + 1)), np.full(4, 10.0 * (comm.rank + 1))]
                )
                outputs.append(_kept(exchange.exchange(grad)))
            exchange.close()
            return outputs

        results = launch(worker, 2)
        fast = results[0]
        # Conservation per bucket: the delivered (averaged) totals never
        # exceed the contributions, and the fast rank's own gradients are
        # always included (delivered >= its contribution alone).
        delivered_b0 = sum(r.gradient[0] * 2 for r in fast)
        delivered_b1 = sum(r.gradient[4] * 2 for r in fast)
        assert delivered_b0 <= (1 + 2) * rounds + 1e-9
        assert delivered_b1 <= (10 + 20) * rounds + 1e-9
        assert delivered_b0 >= 1.0 * rounds - 1e-9
        assert delivered_b1 >= 10.0 * rounds - 1e-9
        # Bucket ratios stay consistent: bucket 1 carries 10x bucket 0 per
        # contribution, so a bucket that dropped a stale gradient would
        # break the 10x relation between the bucket totals.
        assert delivered_b1 == pytest.approx(10 * delivered_b0, rel=1e-6)


class TestConfigAndBuildExchange:
    def test_new_knobs_validate(self):
        TrainingConfig(fusion_threshold_bytes=1024, pipeline_chunks=4).validate()
        with pytest.raises(ValueError):
            TrainingConfig(fusion_threshold_bytes=0).validate()
        with pytest.raises(ValueError):
            TrainingConfig(pipeline_chunks=0).validate()

    def test_build_exchange_threads_fusion_knobs(self):
        from repro.comm import ThreadWorld

        with ThreadWorld(2) as world:
            comm = world.communicator(0)
            sync = build_exchange(
                comm, 64, "sync", fusion_threshold_bytes=128, pipeline_chunks=2
            )
            assert isinstance(sync, SynchronousExchange)
            assert sync.schedule.fusion_threshold_bytes == 128
            assert sync.schedule.pipeline_chunks == 2
            assert sync._ensure_bucketer(64).num_buckets == 4

    def test_pipeline_chunks_reach_partial_exchange(self):
        def worker(comm):
            exchange = PartialExchange(
                comm, num_parameters=10, mode="quorum", quorum=2,
                seed=3, pipeline_chunks=4,
            )
            chunks = [p.n_chunks for p in exchange.partials]
            result = exchange.exchange(np.full(10, comm.rank + 1.0))
            exchange.close()
            return chunks, float(result.gradient[0])

        for chunks, value in launch(worker, 2):
            assert chunks == [4]
            assert value == pytest.approx(1.5)

    def test_training_run_with_fusion_pipeline(self):
        from repro.data import cifar10_like
        from repro.nn.losses import SoftmaxCrossEntropyLoss
        from repro.nn.models import MLPClassifier
        from repro.training import train_distributed

        train = cifar10_like(num_examples=128, image_size=4, signal=4.0, seed=0)
        config = TrainingConfig(
            world_size=2,
            epochs=1,
            global_batch_size=32,
            mode="sync",
            allreduce_algorithm="ring",
            fusion_threshold_bytes=16 * 1024,
            pipeline_chunks=2,
            seed=0,
        )
        result = train_distributed(
            lambda: MLPClassifier(3 * 4 * 4, (16,), 10, seed=11),
            train,
            SoftmaxCrossEntropyLoss(),
            config,
        )
        assert len(result.epochs) == 1
        assert np.isfinite(result.epochs[0].train_loss)


class TestSimtimeMirror:
    def test_single_chunk_matches_legacy_closed_forms(self):
        params = LogGPParams()
        n, size = 4 * 1024 * 1024, 8
        rd = allreduce_time(n, size, "recursive_doubling", params)
        rounds = 3
        assert rd == pytest.approx(
            params.collective_overhead
            + rounds * (params.alpha + n * params.beta + n * params.gamma)
        )
        ring = allreduce_time(n, size, "ring", params)
        chunk = n / size
        assert ring == pytest.approx(
            params.collective_overhead
            + (size - 1) * (params.alpha + chunk * params.beta + chunk * params.gamma)
            + (size - 1) * (params.alpha + chunk * params.beta)
        )

    @pytest.mark.parametrize("size", [4, 6, 8, 12])
    def test_chunked_rabenseifner_never_predicts_regression(self, size):
        """Regression: at non-power-of-two sizes the chunked branch used a
        different base volume than the closed form, so requesting
        pipelining could *increase* the predicted time discontinuously."""
        base = allreduce_time(4_000_000, size, "rabenseifner", n_chunks=1)
        for n_chunks in (2, 8):
            chunked = allreduce_time(4_000_000, size, "rabenseifner", n_chunks=n_chunks)
            assert chunked <= base + 1e-12

    def test_chunked_pipeline_beats_monolithic_baseline(self):
        n = 4 * 1024 * 1024
        baseline = allreduce_time(n, 8, "recursive_doubling")
        chunked = allreduce_time(n, 8, "ring", n_chunks=8)
        assert baseline / chunked >= 1.3

    def test_k_bucket_exchange_prices_as_the_sum_of_its_buckets(self):
        """SynchronousExchange issues its buckets back to back, one
        collective (and one collective_overhead) each: no overlap."""
        from repro.tuning.autotune import predict_exchange_time

        n = 4 * 1024 * 1024
        fused = predict_exchange_time(LogGPParams(), 8, n, "ring", n // 4, 8)
        one_bucket = allreduce_time(n // 4, 8, "ring", n_chunks=8)
        assert fused == pytest.approx(4 * one_bucket, rel=1e-12)
        assert fused > allreduce_time(n, 8, "ring", n_chunks=8)

    def test_experiment_headline_meets_acceptance(self):
        result = fusion_pipeline.run(world_sizes=(8,), gradient_mb=4.0)
        assert result.headline_speedup(8) >= 1.3
        report = fusion_pipeline.report(result)
        assert "unfused single-buffer" in report
