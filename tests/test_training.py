"""Tests for the distributed-training layer (exchanges, SGD step, runner)."""

import gc
import os
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.collectives.sync import ALLREDUCE_ALGORITHMS
from repro.comm import ThreadWorld, launch
from repro.compression import available_codecs
from repro.data import HyperplaneDataset, cifar10_like
from repro.data.loader import Batch
from repro.imbalance import FixedCostModel, NoDelay, RandomSubsetDelay, RotatingSkewDelay
from repro.nn import MomentumSGD, SGD
from repro.nn.losses import MSELoss, SoftmaxCrossEntropyLoss
from repro.nn.models import HyperplaneMLP, MLPClassifier
from repro.nn.parameters import flatten_parameters
from repro.simtime import DEFAULT_NETWORK, StepTimeline, allreduce_time, project_training_time
from repro.training import runner
from repro.training import (
    DistributedSGD,
    PartialExchange,
    SingleProcessExchange,
    SynchronousExchange,
    TrainingConfig,
    build_exchange,
    distributed_evaluate,
    evaluate_model,
    model_hash,
    synchronize_model,
    train_distributed,
)
from repro.tuning.autotune import predict_exchange_time
from repro.utils.rng import seeded_rng


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            TrainingConfig(world_size=0).validate()
        with pytest.raises(ValueError):
            TrainingConfig(mode="bogus").validate()
        with pytest.raises(ValueError):
            TrainingConfig(mode="quorum", quorum=None).validate()
        with pytest.raises(ValueError):
            TrainingConfig(global_batch_size=2, world_size=4).validate()
        with pytest.raises(ValueError):
            TrainingConfig(sync_style="mpi").validate()
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="lbfgs").validate()
        # Each of these used to pass validate() and then fail (or mislead)
        # on every rank after launch.
        for bad in (
            dict(eval_batch_size=0),
            dict(eval_batch_size=-1),
            dict(momentum=1.5),
            dict(momentum=float("nan")),
            dict(weight_decay=-1.0),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(time_scale=float("nan")),
            dict(allreduce_algorithm="bogus"),
            dict(pipeline_chunks=5000),
            dict(sharding="zero1", compression="int8"),
            dict(sharding="zero1", compression="fp16", allreduce_algorithm="rabenseifner"),
            dict(sharding="zero1", sync_style="horovod"),
        ):
            with pytest.raises(ValueError):
                TrainingConfig(**bad).validate()

    @pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_ALGORITHMS))
    @pytest.mark.parametrize("compression", available_codecs())
    def test_zero1_validation_agrees_with_the_sharded_exchange(self, compression, algorithm):
        """validate() refuses a zero1 codec / algorithm pair exactly when
        the exchange the runner builds from it would refuse it on every
        rank (a single-host thread world)."""
        config = TrainingConfig(
            sharding="zero1", compression=compression, allreduce_algorithm=algorithm
        )

        def worker(comm):
            try:
                build_exchange(
                    comm, 64, config.mode, sync_style=config.sync_style,
                    algorithm=algorithm, compression=compression, sharding="zero1",
                )
            except ValueError as exc:
                return str(exc)
            return None

        refusals = launch(worker, 2)
        try:
            config.validate()
        except ValueError:
            assert all(refusals), refusals
        else:
            assert refusals == [None, None]

    def test_local_batch_and_describe(self):
        cfg = TrainingConfig(world_size=4, global_batch_size=64, mode="majority")
        cfg.validate()
        assert cfg.local_batch_size == 16
        assert cfg.is_eager
        assert "eager-SGD (majority)" in cfg.describe()
        sync = TrainingConfig(mode="sync", sync_style="horovod")
        assert "horovod" in sync.describe()
        assert not sync.is_eager


class TestExchanges:
    def test_single_process_exchange(self):
        ex = SingleProcessExchange()
        result = ex.exchange(np.arange(4.0))
        assert np.allclose(result.gradient, np.arange(4.0))
        assert result.included and result.num_active == 1

    @pytest.mark.parametrize("style", ["deep500", "horovod"])
    @pytest.mark.parametrize("threshold", [None, 32])  # 1 bucket, and [4, 3, 3]
    def test_synchronous_exchange_averages(self, style, threshold):
        def worker(comm):
            ex = SynchronousExchange(comm, style=style, fusion_threshold_bytes=threshold)
            result = ex.exchange(np.full(10, comm.rank + 1.0))
            return result.gradient

        results = launch(worker, 4)
        for grad in results:
            assert np.allclose(grad, 2.5)

    def test_partial_exchange_solo(self):
        def worker(comm):
            ex = PartialExchange(comm, num_parameters=6, mode="solo", seed=3)
            grads = [ex.exchange(np.full(6, comm.rank + 1.0)) for _ in range(3)]
            ex.close()
            return grads

        results = launch(worker, 4)
        for rank_result in results:
            for res in rank_result:
                assert res.gradient.shape == (6,)
                assert 1 <= res.num_active <= 4

    def test_build_exchange_dispatch(self):
        with ThreadWorld(2) as world:
            comm = world.communicator(0)
            assert isinstance(build_exchange(None, 4, "sync"), SingleProcessExchange)
            assert isinstance(build_exchange(comm, 4, "sync"), SynchronousExchange)
            partial = build_exchange(comm, 4, "solo")
            assert isinstance(partial, PartialExchange)
            partial.close()

    def test_invalid_style_and_buckets(self):
        with ThreadWorld(2) as world:
            comm = world.communicator(0)
            with pytest.raises(ValueError):
                SynchronousExchange(comm, style="nccl")
            with pytest.raises(ValueError):
                SynchronousExchange(comm, fusion_threshold_bytes=0)


class TestDistributedSGDStep:
    def _make_sgd(self, world_size=1):
        model = MLPClassifier(6, (8,), 3, seed=0)
        optimizer = SGD(model, 0.1)
        sgd = DistributedSGD(
            model,
            optimizer,
            SingleProcessExchange(),
            SoftmaxCrossEntropyLoss(),
            world_size=world_size,
        )
        return model, sgd

    def _batch(self, rng, n=16):
        x = rng.normal(size=(n, 6))
        y = rng.integers(0, 3, n)
        return Batch(inputs=x, targets=y, indices=np.arange(n))

    def test_step_updates_parameters_and_reduces_loss(self, rng):
        model, sgd = self._make_sgd()
        batch = self._batch(rng)
        before = flatten_parameters(model).copy()
        losses = [sgd.step(batch).loss for _ in range(20)]
        assert not np.allclose(before, flatten_parameters(model))
        assert losses[-1] < losses[0]

    def test_step_stats_fields(self, rng):
        _, sgd = self._make_sgd()
        stats = sgd.step(self._batch(rng))
        assert stats.compute_time > 0
        assert stats.included
        assert stats.num_active == 1
        assert 0.0 <= stats.top1 <= 1.0


class TestModelSyncAndEvaluation:
    def test_synchronize_model_averages_replicas(self):
        def worker(comm):
            model = MLPClassifier(4, (4,), 2, seed=0)
            # Perturb each replica differently, then synchronise.
            for param in model.parameters():
                param.data += comm.rank
            synchronize_model(comm, model)
            return model_hash(model), float(flatten_parameters(model).mean())

        results = launch(worker, 4)
        hashes = {h for h, _ in results}
        assert len(hashes) == 1

    def test_model_hash_detects_differences(self):
        a = MLPClassifier(4, (4,), 2, seed=0)
        b = MLPClassifier(4, (4,), 2, seed=0)
        assert model_hash(a) == model_hash(b)
        b.parameters()[0].data += 1.0
        assert model_hash(a) != model_hash(b)

    def test_evaluate_model_metrics(self, rng):
        ds = cifar10_like(num_examples=200, image_size=4, signal=5.0, seed=0)
        model = MLPClassifier(3 * 4 * 4, (16,), 10, seed=0)
        metrics = evaluate_model(model, ds, SoftmaxCrossEntropyLoss(), batch_size=64)
        assert set(metrics) == {"loss", "top1", "top5", "count"}
        assert metrics["count"] == 200
        assert 0.0 <= metrics["top1"] <= metrics["top5"] <= 1.0

    def test_distributed_evaluate_matches_single_process(self):
        ds = cifar10_like(num_examples=128, image_size=4, signal=5.0, seed=0)
        loss_fn = SoftmaxCrossEntropyLoss()

        def worker(comm):
            model = MLPClassifier(3 * 4 * 4, (16,), 10, seed=0)
            return distributed_evaluate(comm, model, ds, loss_fn, batch_size=32)

        results = launch(worker, 4)
        single = evaluate_model(MLPClassifier(3 * 4 * 4, (16,), 10, seed=0), ds, loss_fn)
        for metrics in results:
            assert metrics["loss"] == pytest.approx(single["loss"], rel=1e-6)
            assert metrics["top1"] == pytest.approx(single["top1"], abs=1e-9)


class _TrackedFactory:
    """A model factory that remembers every model it builds by weakref,
    with the process and thread that built it."""

    def __init__(self):
        self.built = []  # (pid, thread ident, weakref to the model)

    def __call__(self):
        model = MLPClassifier(3 * 4 * 4, (16,), 10, seed=11)
        self.built.append((os.getpid(), threading.get_ident(), weakref.ref(model)))
        return model


class _LauncherModelsDead(NoDelay):
    """Raises at a rank's first step if a model the launching thread built
    is still alive.  A forked rank inherits the factory's list, so a model
    alive in the launcher at fork reads alive there too."""

    def __init__(self, factory):
        self.factory = factory
        self.launcher = (os.getpid(), threading.get_ident())

    def delay_for_rank(self, step, rank, world_size):
        if step == 0:
            gc.collect()
            alive = [
                ref for pid, ident, ref in self.factory.built
                if (pid, ident) == self.launcher and ref() is not None
            ]
            if alive:
                raise AssertionError(
                    f"rank {rank} starts with {len(alive)} launcher-built model(s) alive"
                )
        return 0.0


class TestRunner:
    def _dataset(self):
        ds = cifar10_like(num_examples=256, image_size=4, signal=4.0, seed=0)
        return ds.split(0.25, seed=0)

    def _model_factory(self):
        return lambda: MLPClassifier(3 * 4 * 4, (16,), 10, seed=11)

    @pytest.mark.parametrize("mode", ["sync", "solo", "majority"])
    def test_training_runs_and_learns(self, mode):
        train, val = self._dataset()
        config = TrainingConfig(
            world_size=4,
            epochs=2,
            global_batch_size=64,
            mode=mode,
            quorum=2 if mode == "quorum" else None,
            learning_rate=0.1,
            optimizer="momentum",
            seed=0,
            model_sync_period_epochs=2,
        )
        result = train_distributed(
            self._model_factory(), train, SoftmaxCrossEntropyLoss(), config,
            eval_dataset=val,
        )
        assert len(result.epochs) == 2
        losses = [epoch.train_loss for epoch in result.epochs]
        if mode == "sync":
            assert losses[-1] < losses[0]
        else:
            # Which gradients are fresh in which round depends on thread
            # timing, so only interleaving-independent properties hold: the
            # loss stays finite, every round has between 1 and P fresh
            # contributors, and six steps of stale-gradient momentum SGD
            # have not diverged.  The untrained model's loss is 6.7; over
            # 1000 solo runs under CPU load the final loss had median 1.4,
            # 1 run in 100 above 4 and a worst case of 5.9, so twice the
            # untrained loss is seven nats clear of anything observed.
            untrained = evaluate_model(
                self._model_factory()(), train, SoftmaxCrossEntropyLoss()
            )["loss"]
            assert np.all(np.isfinite(losses))
            assert losses[-1] < 2.0 * untrained
            for epoch in result.epochs:
                assert 1.0 <= epoch.mean_num_active <= 4.0
            for summary in result.rank_summaries:
                assert 1 <= summary.min_num_active <= 4
        assert result.step_durations.shape[1] == 4
        assert result.projection is not None
        assert result.total_sim_time > 0
        assert len(result.rank_summaries) == 4

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_no_launcher_model_reaches_a_rank(self, backend):
        # The runner sizes the exchange from one model it builds itself;
        # that model must be gone before any rank starts, or every forked
        # rank (and the thread world) carries a replica nobody trains.
        train, val = self._dataset()
        factory = _TrackedFactory()
        config = TrainingConfig(
            world_size=2, comm_backend=backend, epochs=1, global_batch_size=32,
            delay_injector=_LauncherModelsDead(factory),
        )
        result = train_distributed(
            factory, train, SoftmaxCrossEntropyLoss(), config, eval_dataset=val,
        )
        assert len(result.rank_summaries) == 2
        launcher = (os.getpid(), threading.get_ident())
        assert any((pid, ident) == launcher for pid, ident, _ in factory.built)

    @pytest.mark.parametrize("mode", ["sync", "majority"])
    def test_single_process_run(self, mode):
        train, val = self._dataset()
        config = TrainingConfig(world_size=1, epochs=1, global_batch_size=32, mode=mode)
        result = train_distributed(
            self._model_factory(), train, SoftmaxCrossEntropyLoss(), config,
            eval_dataset=val,
        )
        assert result.epochs[0].mean_num_active == 1.0

    def test_eager_faster_than_sync_under_imbalance(self):
        train, _ = self._dataset()
        base = dict(
            world_size=4,
            epochs=2,
            global_batch_size=64,
            learning_rate=0.1,
            cost_model=FixedCostModel(0.2),
            delay_injector=RandomSubsetDelay(1, 400.0, seed=5),
            seed=0,
        )
        sync = train_distributed(
            self._model_factory(), train, SoftmaxCrossEntropyLoss(),
            TrainingConfig(mode="sync", **base),
        )
        solo = train_distributed(
            self._model_factory(), train, SoftmaxCrossEntropyLoss(),
            TrainingConfig(mode="solo", **base),
        )
        assert solo.total_sim_time < sync.total_sim_time
        assert solo.throughput > sync.throughput

    def test_majority_projection_replays_the_recorded_initiators(self):
        train, _ = self._dataset()
        config = TrainingConfig(
            world_size=4,
            epochs=2,
            global_batch_size=64,
            mode="majority",
            learning_rate=0.1,
            time_scale=0.01,
            cost_model=FixedCostModel(0.2),
            delay_injector=RandomSubsetDelay(1, 300.0, seed=5),
            seed=0,
        )
        outputs = launch(
            runner._rank_main, 4, self._model_factory(), train, None,
            SoftmaxCrossEntropyLoss(), config, True,
        )
        recorded = outputs[0].initiators
        assert len(recorded) == 6
        assert all(out.initiators == recorded for out in outputs)
        # The exchange's shared designation stream (seeded by the runner).
        designation = seeded_rng(config.seed + 777)
        assert recorded == [int(designation.integers(0, 4)) for _ in recorded]

        result = train_distributed(
            self._model_factory(), train, SoftmaxCrossEntropyLoss(), config
        )
        gradient_bytes = (
            self._model_factory()().num_parameters() * runner.GRADIENT_BYTES_PER_PARAMETER
        )
        replayed = project_training_time(
            StepTimeline(result.step_durations),
            "majority",
            exchange_cost=allreduce_time(gradient_bytes, 4, config.allreduce_algorithm),
            initiators=recorded,
        )
        assert np.array_equal(
            result.projection.step_completion_times, replayed.step_completion_times
        )
        assert np.array_equal(
            result.projection.num_active_per_step, replayed.num_active_per_step
        )
        assert result.projection.total_time == replayed.total_time

        # Ranks that recorded different initiators fail the run, naming the step.
        rank0, rank1 = (SimpleNamespace(rank=r, initiators=[3, 2, r]) for r in (0, 1))
        with pytest.raises(RuntimeError, match="ranks 0 and 1 .* at step 2: 0 vs 1"):
            runner._recorded_initiators([rank0, rank1])

    def test_eager_projection_prices_recursive_doubling(self):
        """An eager run configured ``ring`` runs its partial allreduce by
        recursive doubling, and its projection prices that: the walk of
        the run's schedule, replayed over the run's own durations."""
        train, _ = self._dataset()
        config = TrainingConfig(
            world_size=4, epochs=1, global_batch_size=64, mode="solo",
            allreduce_algorithm="ring", cost_model=FixedCostModel(0.2), seed=0,
        )
        result = train_distributed(
            self._model_factory(), train, SoftmaxCrossEntropyLoss(), config
        )
        width = runner.GRADIENT_BYTES_PER_PARAMETER
        gradient_bytes = self._model_factory()().num_parameters() * width
        cost = predict_exchange_time(
            DEFAULT_NETWORK, 4, gradient_bytes, "ring", None, mode="solo",
            bytes_per_element=width,
        )
        assert cost == allreduce_time(gradient_bytes, 4, "recursive_doubling")
        assert cost != allreduce_time(gradient_bytes, 4, "ring")
        replayed = project_training_time(
            StepTimeline(result.step_durations), "solo", exchange_cost=cost
        )
        assert np.array_equal(
            result.projection.step_completion_times, replayed.step_completion_times
        )
        assert result.projection.total_time == replayed.total_time

    def test_periodic_model_sync_keeps_replicas_identical(self):
        train, _ = self._dataset()
        config = TrainingConfig(
            world_size=4,
            epochs=2,
            global_batch_size=64,
            mode="solo",
            time_scale=0.001,
            delay_injector=RotatingSkewDelay(10.0, 80.0),
            cost_model=FixedCostModel(0.05),
            model_sync_period_epochs=1,  # sync at the end of every epoch
            seed=0,
        )
        result = train_distributed(
            self._model_factory(), train, SoftmaxCrossEntropyLoss(), config
        )
        hashes = {s.final_model_hash for s in result.rank_summaries}
        assert len(hashes) == 1

    def test_quorum_mode_respects_quorum(self):
        train, _ = self._dataset()
        config = TrainingConfig(
            world_size=4,
            epochs=1,
            global_batch_size=64,
            mode="quorum",
            quorum=3,
            seed=0,
        )
        result = train_distributed(
            self._model_factory(), train, SoftmaxCrossEntropyLoss(), config
        )
        for summary in result.rank_summaries:
            assert summary.min_num_active >= 3

    def test_regression_task(self):
        ds = HyperplaneDataset(num_examples=256, input_dim=16, noise_std=0.1, seed=0)
        train, val = ds.split(0.25, seed=0)
        config = TrainingConfig(
            world_size=2, epochs=3, global_batch_size=64, mode="sync",
            learning_rate=0.5, seed=0,
        )
        result = train_distributed(
            lambda: HyperplaneMLP(16, seed=3), train, MSELoss(), config,
            eval_dataset=val, classification=False,
        )
        assert result.epochs[-1].eval_loss < result.epochs[0].eval_loss
