"""ZeRO-1 sharded optimizer states: collectives, exchange, training parity.

Covers the sharded-exchange subsystem end to end:

* ``shard_bounds`` / ``GradientBucketer.shard_windows`` — the static
  ownership maps partition every vector exactly once, per schedule family;
* the windowed optimizer API — ``step_windows`` is bitwise identical to
  the dense ``step`` on the owned slices, and the state dicts round-trip;
* cross-backend conformance of ``reduce_scatter`` / ``allgather_flat``
  over every registered transport at power-of-two and prime world sizes;
* the headline parity property: training with ``sharding="zero1"`` is
  **bitwise identical** to the dense ring exchange + replicated optimizer
  (same seeds, fp64), while per-rank optimizer state shrinks ~P-fold.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.collectives.sharding import (
    ALLGATHER_FOR_REDUCE_SCATTER,
    allgather_flat,
    reduce_scatter,
    shard_bounds,
)
from repro.collectives.sync import allgather, allreduce
from repro.collectives.topology import HostTopology
from repro.comm import available_backends, backend_unavailable_reason, launch
from repro.nn.optim import SGD, Adam, MomentumSGD
from repro.nn.parameters import assign_flat_gradients, flatten_parameters
from repro.training.bucketing import GradientBucketer
from repro.training.exchange import ShardedExchange, build_exchange

BACKENDS = ["thread", "process", "shm", "tcp", "hier"]

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _skip_if_unavailable(name):
    if name not in available_backends():
        pytest.skip(
            f"backend {name!r} unavailable: {backend_unavailable_reason(name)}"
        )


@pytest.fixture(params=BACKENDS)
def backend(request):
    _skip_if_unavailable(request.param)
    return request.param


# ---------------------------------------------------------------------------
# static ownership maps
# ---------------------------------------------------------------------------
class TestShardBounds:
    @pytest.mark.parametrize("algorithm", ["ring", "halving"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("length", [0, 1, 7, 64, 1000])
    def test_partition(self, algorithm, size, length):
        bounds = shard_bounds(length, size, algorithm)
        assert len(bounds) == size
        covered = np.zeros(length, dtype=int)
        for lo, hi in bounds:
            assert 0 <= lo <= hi <= length
            covered[lo:hi] += 1
        assert np.all(covered == 1)

    def test_hierarchical_partition(self):
        for spec in ([2, 2], [3, 2], [4, 4], [2, 3, 3], [5]):
            topology = HostTopology.from_hosts(spec)
            size = sum(spec)
            for length in (1, 13, 64, 1000):
                bounds = shard_bounds(
                    length, size, "hierarchical", topology=topology
                )
                covered = np.zeros(length, dtype=int)
                for lo, hi in bounds:
                    covered[lo:hi] += 1
                assert np.all(covered == 1)

    def test_halving_extras_own_nothing(self):
        # Non-power-of-two: the folded-in extras hold no window.
        bounds = shard_bounds(100, 5, "halving")
        assert bounds[4] == (0, 0)
        assert sum(hi - lo for lo, hi in bounds) == 100

    def test_errors(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 0)
        with pytest.raises(ValueError):
            shard_bounds(-1, 4)
        with pytest.raises(ValueError):
            shard_bounds(10, 4, "nope")

    def test_unknown_algorithm_rejected_at_size_one(self):
        with pytest.raises(ValueError, match="'bogus'"):
            shard_bounds(10, 1, "bogus")

    def test_unknown_algorithm_lists_each_name_once(self):
        with pytest.raises(ValueError) as info:
            shard_bounds(10, 2, "bogus")
        listed = re.search(r"available: \[(.*)\]", str(info.value)).group(1)
        names = [name.strip(" '") for name in listed.split(",")]
        assert names == sorted(set(names)) and "ring" in names

    @given(
        length=st.integers(0, 5000),
        hosts=st.lists(st.integers(1, 8), min_size=1, max_size=8),
        algorithm=st.sampled_from(["ring", "halving", "hierarchical"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_windows_partition_the_vector(self, length, hosts, algorithm):
        size = sum(hosts)
        topology = HostTopology.from_hosts(hosts)
        bounds = shard_bounds(length, size, algorithm, topology=topology)
        assert len(bounds) == size
        covered = np.zeros(length, dtype=int)
        for lo, hi in bounds:
            assert 0 <= lo <= hi <= length
            covered[lo:hi] += 1
        assert np.all(covered == 1)
        if algorithm == "halving":
            pof2 = 1 << (size.bit_length() - 1)
            assert bounds[pof2:] == [(0, 0)] * (size - pof2)
            if length >= pof2:
                assert sum(lo == hi for lo, hi in bounds) == size - pof2


class TestShardWindows:
    def test_windows_cover_each_bucket(self):
        bucketer = GradientBucketer.fixed_count(1000, 3)
        windows = bucketer.shard_windows(4)
        assert len(windows) == bucketer.num_buckets
        for b, bucket in enumerate(bucketer.buckets):
            covered = np.zeros(bucket.num_elements, dtype=int)
            for lo, hi in windows[b]:
                covered[lo:hi] += 1
            assert np.all(covered == 1)

    def test_matches_shard_bounds(self):
        bucketer = GradientBucketer.fixed_count(640, 2)
        windows = bucketer.shard_windows(4, "halving")
        for b, bucket in enumerate(bucketer.buckets):
            assert windows[b] == shard_bounds(bucket.num_elements, 4, "halving")

    def test_world_size_validation(self):
        bucketer = GradientBucketer.fixed_count(10, 1)
        with pytest.raises(ValueError):
            bucketer.shard_windows(0)


# ---------------------------------------------------------------------------
# windowed optimizer API + state dicts
# ---------------------------------------------------------------------------
def _make_model(seed=3):
    return nn.Sequential(nn.Dense(10, 6, seed=seed), nn.Dense(6, 3, seed=seed + 1))


def _optimizers(model):
    return [
        SGD(model, 0.05, weight_decay=0.01),
        MomentumSGD(model, 0.05, momentum=0.9, nesterov=True),
        Adam(model, 0.01),
    ]


class TestWindowedOptimizer:
    def test_step_windows_matches_dense_step(self):
        """Owned-window updates are bitwise identical to the dense step."""
        rng = np.random.default_rng(0)
        for make in (
            lambda m: SGD(m, 0.05, weight_decay=0.01),
            lambda m: MomentumSGD(m, 0.05, momentum=0.9, nesterov=True),
            lambda m: Adam(m, 0.01),
        ):
            dense_model, win_model = _make_model(), _make_model()
            dense_opt, win_opt = make(dense_model), make(win_model)
            n = flatten_parameters(dense_model).size
            flat_params = flatten_parameters(win_model)
            for _ in range(4):
                grad = rng.standard_normal(n)
                assign_flat_gradients(dense_model, grad)
                dense_opt.step()
                # Windowed path: update the whole vector as 3 windows.
                cuts = [0, n // 3, 2 * n // 3, n]
                params, grads, keys = [], [], []
                flat_params = flatten_parameters(win_model)
                for lo, hi in zip(cuts, cuts[1:]):
                    params.append(flat_params[lo:hi])
                    grads.append(grad[lo:hi])
                    keys.append(f"{lo}:{hi}")
                win_opt.step_windows(params, grads, keys)
                from repro.nn.parameters import assign_flat_parameters

                assign_flat_parameters(win_model, flat_params)
                assert np.array_equal(
                    flatten_parameters(dense_model), flatten_parameters(win_model)
                )
            assert dense_opt.step_count == win_opt.step_count == 4

    def test_empty_windows_still_advance_step_count(self):
        model = _make_model()
        opt = Adam(model, 0.01)
        opt.step_windows([], [], [])
        assert opt.step_count == 1

    def test_window_shape_mismatch_rejected(self):
        model = _make_model()
        opt = SGD(model, 0.05)
        with pytest.raises(ValueError):
            opt.step_windows([np.zeros(3)], [np.zeros(4)], ["0:3"])
        with pytest.raises(ValueError):
            opt.step_windows([np.zeros(3)], [np.zeros(3)], [])

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_state_dict_round_trip(self, index):
        """Save mid-run, restore into a fresh optimizer, trajectories match."""
        rng = np.random.default_rng(42)
        model_a, model_b = _make_model(), _make_model()
        opt_a = _optimizers(model_a)[index]
        n = flatten_parameters(model_a).size
        grads = [rng.standard_normal(n) for _ in range(6)]
        for g in grads[:3]:
            assign_flat_gradients(model_a, g)
            opt_a.step()
        state = opt_a.state_dict()

        # Restore into a fresh model/optimizer advanced to the same point.
        from repro.nn.parameters import assign_flat_parameters

        assign_flat_parameters(model_b, flatten_parameters(model_a))
        opt_b = _optimizers(model_b)[index]
        opt_b.load_state_dict(state)
        assert opt_b.step_count == opt_a.step_count
        for g in grads[3:]:
            assign_flat_gradients(model_a, g)
            opt_a.step()
            assign_flat_gradients(model_b, g)
            opt_b.step()
            assert np.array_equal(
                flatten_parameters(model_a), flatten_parameters(model_b)
            )

    def test_state_dict_covers_window_state(self):
        model = _make_model()
        opt = MomentumSGD(model, 0.05, momentum=0.9)
        n = flatten_parameters(model).size
        flat = flatten_parameters(model)
        opt.step_windows([flat[: n // 2]], [np.ones(n // 2)], [f"0:{n // 2}"])
        state = opt.state_dict()
        assert f"0:{n // 2}" in state["window_state"]
        fresh = MomentumSGD(model, 0.05, momentum=0.9)
        fresh.load_state_dict(state)
        assert np.array_equal(
            fresh.state_dict()["window_state"][f"0:{n // 2}"]["velocity"],
            state["window_state"][f"0:{n // 2}"]["velocity"],
        )

    def test_load_rejects_unknown_and_misshapen(self):
        model = _make_model()
        opt = MomentumSGD(model, 0.05, momentum=0.9)
        assign_flat_gradients(model, np.ones(flatten_parameters(model).size))
        opt.step()
        state = opt.state_dict()
        bad = {**state, "param_state": {"no-such-param": {}}}
        with pytest.raises(ValueError):
            opt.load_state_dict(bad)
        name = next(iter(state["param_state"]))
        misshapen = {
            **state,
            "param_state": {
                **state["param_state"],
                name: {"velocity": np.zeros(1)},
            },
        }
        with pytest.raises(ValueError):
            opt.load_state_dict(misshapen)

    def test_state_bytes_counts_slots(self):
        model = _make_model()
        n = flatten_parameters(model).size
        sgd, mom, adam = _optimizers(model)
        assign_flat_gradients(model, np.ones(n))
        for opt in (sgd, mom, adam):
            opt.step()
        assert sgd.state_bytes() == 0
        assert mom.state_bytes() == n * 8
        assert adam.state_bytes() == 2 * n * 8


# ---------------------------------------------------------------------------
# cross-backend conformance of the sharded collectives
# ---------------------------------------------------------------------------
def _conformance_worker(comm, n):
    # Integer-valued contributions: sums are exact in any reduction order,
    # so the expected vector is arrival-order independent.
    data = np.arange(n, dtype=np.float64) + 100.0 * comm.rank
    expected = np.add.reduce(
        [np.arange(n, dtype=np.float64) + 100.0 * r for r in range(comm.size)]
    )
    verdicts = {}
    for algorithm in ("ring", "halving"):
        flat, (lo, hi) = reduce_scatter(comm, data, algorithm=algorithm)
        window_ok = bool(np.array_equal(flat[lo:hi], expected[lo:hi]))
        full = allgather_flat(
            comm, flat, algorithm=ALLGATHER_FOR_REDUCE_SCATTER[algorithm]
        )
        verdicts[algorithm] = (window_ok, bool(np.array_equal(full, expected)))
    return verdicts


class TestCrossBackendConformance:
    @pytest.mark.parametrize("size", [2, 3, 4, 5, 8])
    def test_reduce_scatter_allgather(self, backend, size):
        results = launch(
            _conformance_worker, size, 67, backend=backend, timeout=120.0
        )
        for algorithm in ("ring", "halving"):
            assert all(r[algorithm][0] for r in results), algorithm
            assert all(r[algorithm][1] for r in results), algorithm


def _non_sum_worker(comm, kwargs):
    try:
        reduce_scatter(comm, np.ones(8), op="max", **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


class TestReduceScatterRequiresSum:
    """A codec hop adds and ``average`` divides by P: both only fit a sum."""

    def test_average_rejects_non_sum_op(self):
        for message in launch(_non_sum_worker, 2, {"average": True}, backend="thread"):
            assert message is not None and "'max'" in message

    def test_codec_rejects_non_sum_op(self):
        from repro.compression import get_codec

        kwargs = {"codec": get_codec("fp16")}
        for message in launch(_non_sum_worker, 2, kwargs, backend="thread"):
            assert message is not None and "'max'" in message


def _ring_identity_worker(comm, n):
    data = np.linspace(-1.0, 1.0, n) * (comm.rank + 1)
    reference = allreduce(comm, data, algorithm="ring")
    flat, _ = reduce_scatter(comm, data, algorithm="ring")
    composed = allgather_flat(comm, flat, algorithm="ring")
    return bool(np.array_equal(reference, composed))


class TestRingSplitIdentity:
    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_split_phases_bitwise_match_ring_allreduce(self, size):
        """reduce_scatter + allgather IS the ring allreduce, bit for bit."""
        assert all(launch(_ring_identity_worker, size, 193, backend="thread"))


def _allgather_out_worker(comm, n):
    data = np.full(n, float(comm.rank))
    slots = [np.empty(n) for _ in range(comm.size)]
    returned = allgather(comm, data, out=slots)
    same_list = returned is slots
    values_ok = all(
        np.array_equal(slots[r], np.full(n, float(r))) for r in range(comm.size)
    )
    # Steady state: a second round reuses the same buffers in place.
    second = allgather(comm, data + 10.0, out=slots)
    reuse_ok = second is slots and all(
        np.array_equal(slots[r], np.full(n, float(r) + 10.0))
        for r in range(comm.size)
    )
    try:
        allgather(comm, data, out=slots[:-1])
        slot_count_checked = False
    except ValueError:
        slot_count_checked = True
    return same_list, values_ok, reuse_ok, slot_count_checked


class TestAllgatherOut:
    @pytest.mark.parametrize("size", [2, 4])
    def test_out_buffers_are_filled_and_reused(self, size):
        for verdict in launch(_allgather_out_worker, size, 17, backend="thread"):
            assert all(verdict)


# ---------------------------------------------------------------------------
# the sharded exchange
# ---------------------------------------------------------------------------
def _exchange_worker(comm, sharding, algorithm, opt_name, steps, fusion_buckets):
    model = _make_model(seed=9)
    opt = {
        "sgd": lambda: SGD(model, 0.05),
        "momentum": lambda: MomentumSGD(model, 0.05, momentum=0.9, nesterov=True),
        "adam": lambda: Adam(model, 0.01),
    }[opt_name]()
    n = flatten_parameters(model).size
    ex = build_exchange(
        comm, n, "sync", algorithm=algorithm, sharding=sharding,
        fusion_buckets=fusion_buckets,
    )
    rng = np.random.default_rng(1000 + comm.rank)
    wire = 0
    for _ in range(steps):
        grad = rng.standard_normal(n)
        if ex.updates_parameters:
            result = ex.exchange_update(grad, model, opt)
            assert result.gradient is None
        else:
            result = ex.exchange(grad)
            assign_flat_gradients(model, result.gradient)
            opt.step()
        wire += result.wire_bytes
    return flatten_parameters(model).copy(), opt.state_bytes(), opt.step_count, wire


class TestShardedExchange:
    @pytest.mark.parametrize("opt_name", ["sgd", "momentum", "adam"])
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_zero1_bitwise_matches_dense_ring(self, opt_name, size):
        """Same seeds, fp64: zero1 and the dense ring path agree bit for bit."""
        dense = launch(
            _exchange_worker, size, "none", "ring", opt_name, 4, 2,
            backend="thread",
        )
        zero1 = launch(
            _exchange_worker, size, "zero1", "ring", opt_name, 4, 2,
            backend="thread",
        )
        for (dp, dstate, dcount, _), (zp, zstate, zcount, zwire) in zip(dense, zero1):
            assert np.array_equal(dp, zp)
            assert dcount == zcount == 4
            if dstate:
                # Optimizer state shrinks ~P-fold (slack for uneven shards).
                assert zstate <= dstate // size + 2 * size * 8
            assert zwire > 0

    def test_zero1_state_is_sharded_across_ranks(self):
        zero1 = launch(
            _exchange_worker, 4, "zero1", "ring", "adam", 2, 1, backend="thread"
        )
        dense = launch(
            _exchange_worker, 4, "none", "ring", "adam", 2, 1, backend="thread"
        )
        total_sharded = sum(state for _, state, _, _ in zero1)
        assert total_sharded == dense[0][1]  # shards tile the dense state

    @pytest.mark.parametrize("algorithm", ["rabenseifner", "hierarchical"])
    def test_zero1_other_algorithms_allclose(self, algorithm):
        dense = launch(
            _exchange_worker, 4, "none", "ring", "momentum", 3, 2,
            backend="thread",
        )
        zero1 = launch(
            _exchange_worker, 4, "zero1", algorithm, "momentum", 3, 2,
            backend="thread",
        )
        for (dp, *_), (zp, *_) in zip(dense, zero1):
            assert np.allclose(dp, zp, rtol=1e-12, atol=1e-12)

    def test_exchange_method_is_refused(self):
        def worker(comm):
            ex = ShardedExchange(comm)
            with pytest.raises(RuntimeError):
                ex.exchange(np.ones(8))
            return True

        assert all(launch(worker, 2, backend="thread"))

    def test_codec_must_be_reduce_closed(self):
        def worker(comm):
            with pytest.raises(ValueError):
                ShardedExchange(comm, compression="topk")
            with pytest.raises(ValueError):
                ShardedExchange(comm, algorithm="halving", compression="fp16")
            ShardedExchange(comm, compression="fp16")  # ring + fp16 is fine
            return True

        assert all(launch(worker, 2, backend="thread"))

    def test_build_exchange_validation(self):
        def worker(comm):
            with pytest.raises(ValueError):
                build_exchange(comm, 8, "sync", sharding="zero9")
            with pytest.raises(ValueError):
                build_exchange(comm, 8, "solo", sharding="zero1")
            ex = build_exchange(comm, 8, "sync", sharding="zero1")
            assert isinstance(ex, ShardedExchange)
            assert ex.updates_parameters
            return True

        assert all(launch(worker, 2, backend="thread"))

    def test_single_rank_falls_back(self):
        ex = build_exchange(None, 8, "sync", sharding="zero1")
        assert not ex.updates_parameters


# ---------------------------------------------------------------------------
# training-level parity (runner + config)
# ---------------------------------------------------------------------------
class TestTrainingParity:
    def _run(self, sharding, algorithm):
        from repro.data import cifar10_like
        from repro.nn.losses import SoftmaxCrossEntropyLoss
        from repro.nn.models import MLPClassifier
        from repro.training import TrainingConfig, train_distributed

        train, _ = cifar10_like(
            num_examples=128, image_size=4, signal=4.0, seed=0
        ).split(0.25, seed=0)
        config = TrainingConfig(
            world_size=4,
            epochs=1,
            global_batch_size=32,
            mode="sync",
            allreduce_algorithm=algorithm,
            sharding=sharding,
            learning_rate=0.1,
            optimizer="momentum",
            seed=0,
            model_sync_period_epochs=None,
        )
        return train_distributed(
            lambda: MLPClassifier(3 * 4 * 4, (16,), 10, seed=11),
            train,
            SoftmaxCrossEntropyLoss(),
            config,
        )

    def test_zero1_training_bitwise_matches_dense(self):
        dense = self._run("none", "ring")
        zero1 = self._run("zero1", "ring")
        dense_hashes = {s.final_model_hash for s in dense.rank_summaries}
        zero1_hashes = {s.final_model_hash for s in zero1.rank_summaries}
        assert len(dense_hashes) == len(zero1_hashes) == 1
        assert dense_hashes == zero1_hashes

    def test_config_validation(self):
        from repro.training import TrainingConfig

        with pytest.raises(ValueError):
            TrainingConfig(sharding="zero3").validate()
        with pytest.raises(ValueError):
            TrainingConfig(sharding="zero1", mode="solo").validate()
        with pytest.raises(ValueError):
            TrainingConfig(
                sharding="zero1", collect_gradient_norms=True
            ).validate()
        config = TrainingConfig(sharding="zero1")
        config.validate()
        assert "zero1" in config.describe()
