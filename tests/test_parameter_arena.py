"""One flat arena per model: layout, re-adoption, bit-identity, no copies.

A module's parameters and gradients are views of two contiguous vectors
(``repro.nn.parameters``); the exchanges reduce the gradient vector in
place and ZeRO-1 updates and gathers straight into parameter storage.
These tests pin the layout, hold the whole in-place step to an oracle
that keeps every copy the arena removed, and bound what a steady-state
step may allocate.
"""

import copy
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.nn as nn
from repro.collectives.sharding import (
    ALLGATHER_FOR_REDUCE_SCATTER,
    allgather_flat,
    reduce_scatter,
)
from repro.collectives.sync import allreduce, allreduce_hierarchical
from repro.comm import launch
from repro.data.loader import Batch
from repro.nn.models import MLPClassifier, SequenceLSTMClassifier, resnet_cifar
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.nn.parameters import (
    assign_flat_gradients,
    assign_flat_parameters,
    flatten_gradients,
    flatten_parameters,
)
from repro.training import DistributedSGD, GradientBucketer, PartialExchange, SynchronousExchange
from repro.training.exchange import ShardedExchange
from repro.training.model_sync import model_hash


def _sorted_concat(model: Module, attr: str) -> np.ndarray:
    """The flat order spelled out: sorted hierarchical names, C order, concatenated."""
    named = sorted(model.named_parameters(), key=lambda kv: kv[0])
    return np.concatenate([np.array(getattr(p, attr)).reshape(-1) for _, p in named])


# ---------------------------------------------------------------------------
# construction: a parameter owns its storage
# ---------------------------------------------------------------------------
def test_parameters_built_from_one_array_do_not_alias():
    source = np.arange(4.0)
    p, q = Parameter(source), Parameter(source)
    p.data[0] = 5.0
    assert q.data[0] == 0.0 and source[0] == 0.0


# ---------------------------------------------------------------------------
# (a) layout
# ---------------------------------------------------------------------------
MODELS = {
    "mlp": lambda: MLPClassifier(12, hidden_dims=(16, 8), num_classes=4, seed=1),
    "conv": lambda: resnet_cifar(num_classes=4, width=2, seed=1),
    "lstm": lambda: SequenceLSTMClassifier(feature_dim=6, hidden_dim=5, num_classes=3, seed=1),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_flat_vectors_are_the_sorted_concatenation_and_alias_every_parameter(kind):
    model = MODELS[kind]()
    rng = np.random.default_rng(0)
    for param in model.parameters():
        param.grad[...] = rng.standard_normal(param.shape)
    expected = {attr: _sorted_concat(model, attr) for attr in ("data", "grad")}
    flat, grad = flatten_parameters(model), flatten_gradients(model)
    assert flat.dtype == grad.dtype == np.float64 and flat.flags.c_contiguous
    assert np.array_equal(flat, expected["data"]) and np.array_equal(grad, expected["grad"])
    assert flat.size == model.num_parameters()
    # Hashing the arena's buffer gives the digest the copying path gave.
    assert model_hash(model) == hashlib.sha256(expected["data"].tobytes()).hexdigest()[:16]
    for param in model.parameters():
        assert np.shares_memory(param.data, flat) and np.shares_memory(param.grad, grad)
    # Live both ways, and stable: the same vectors every call.
    assert flatten_parameters(model) is flat and flatten_gradients(model) is grad
    model.zero_grad()  # pending: the zeros are filled by the next read
    assert flatten_gradients(model) is grad and not grad.any()
    grad += 1.0
    assert all(np.all(param.grad == 1.0) for param in model.parameters())
    snapshot = flat.copy()
    assign_flat_parameters(model, snapshot + 1.0)
    assert np.array_equal(_sorted_concat(model, "data"), snapshot + 1.0)
    assign_flat_gradients(model, grad)  # the arena itself: nothing to copy
    assert flatten_gradients(model) is grad


def test_out_fills_the_callers_vector_and_leaves_the_arena_alone():
    model = MODELS["mlp"]()
    out = np.empty(model.num_parameters())
    assert flatten_parameters(model, out=out) is out
    assert not np.shares_memory(out, flatten_parameters(model))
    assert np.array_equal(out, flatten_parameters(model))
    with pytest.raises(ValueError, match="has 3 elements but the module has"):
        assign_flat_parameters(model, np.zeros(3))


# ---------------------------------------------------------------------------
# (b) re-adoption
# ---------------------------------------------------------------------------
def test_rebinding_an_attribute_re_adopts_with_values_preserved():
    model = Module()
    model.add_parameter("w", np.arange(6.0).reshape(2, 3))
    model.add_parameter("b", np.arange(6.0, 8.0))
    first = flatten_parameters(model)
    replacement = np.arange(10.0, 16.0).reshape(2, 3)
    model.w.data = replacement
    flat = flatten_parameters(model)
    assert flat is not first
    assert np.array_equal(flat, [6, 7, 10, 11, 12, 13, 14, 15])
    assert np.shares_memory(model.w.data, flat) and np.shares_memory(model.b.data, flat)
    assert not np.shares_memory(model.w.data, replacement)

    # A transposed (non-contiguous) view: adopted in its logical C order.
    backing = np.arange(20.0, 26.0).reshape(3, 2)
    model.w.data = backing.T
    model.w.grad = np.ones((2, 3))
    flat = flatten_parameters(model)
    assert np.array_equal(flat, [6, 7, 20, 22, 24, 21, 23, 25])
    assert model.w.data.flags.c_contiguous and np.shares_memory(model.w.data, flat)
    assert np.shares_memory(model.w.grad, flatten_gradients(model))
    assert np.array_equal(flatten_gradients(model), [0, 0, 1, 1, 1, 1, 1, 1])
    assert flatten_parameters(model) is flat  # settled: no re-adoption per call

    model.add_parameter("a", np.array([-1.0]))
    assert np.array_equal(flatten_parameters(model), [-1, 6, 7, 20, 22, 24, 21, 23, 25])
    assert np.shares_memory(model.a.data, flatten_parameters(model))


def test_sub_module_and_root_arenas_both_stay_correct():
    model = MODELS["mlp"]()
    root = flatten_parameters(model)
    expected = root.copy()
    child = model.net
    first_layer = next(iter(child._modules.values()))
    sub = flatten_parameters(first_layer)
    assert np.array_equal(sub, _sorted_concat(first_layer, "data"))
    assert np.shares_memory(first_layer.W.data, sub)
    sub += 1.0  # the layer's parameters move with its vector ...
    again = flatten_parameters(model)  # ... and the root re-adopts them
    assert np.array_equal(again, _sorted_concat(model, "data"))
    assert again.sum() == pytest.approx(expected.sum() + sub.size)
    for param in model.parameters():
        assert np.shares_memory(param.data, again)
    assert np.array_equal(flatten_parameters(first_layer), _sorted_concat(first_layer, "data"))


def test_a_deep_copy_adopts_its_own_arena():
    model = MODELS["mlp"]()
    flat = flatten_parameters(model)
    clone = copy.deepcopy(model)
    cloned = flatten_parameters(clone)
    assert np.array_equal(cloned, flat) and not np.shares_memory(cloned, flat)
    for param in clone.parameters():
        assert np.shares_memory(param.data, cloned)
        assert np.shares_memory(param.grad, flatten_gradients(clone))


# ---------------------------------------------------------------------------
# (c) the in-place step against an oracle that keeps every copy
# ---------------------------------------------------------------------------
THRESHOLD = 512  # 64 elements a bucket: five buckets over the 276-element model
LOSS = nn.SoftmaxCrossEntropyLoss()


def _step_model() -> Module:
    return MLPClassifier(12, hidden_dims=(16,), num_classes=4, seed=3)


def _batch(rank: int, step: int) -> Batch:
    rng = np.random.default_rng((rank, step))
    return Batch(rng.standard_normal((5, 12)), rng.integers(0, 4, size=5), np.arange(5))


class CopyingOracle:
    """The step as it was before the arena: per-parameter arrays, copied about.

    ``flatten`` concatenates, ``GradientBucketer.pack`` copies into fusion
    buffers, the collective copies again (``copy=True``), ``unpack``
    reassembles a fresh flat vector and a per-parameter loop assigns it.
    Never touches ``flatten_*`` / ``assign_flat_*``: its model has no arena.
    """

    def __init__(self, comm, model, reduce_bucket=None, zero1_algorithm=None, bucketer=None):
        self.comm = comm
        self.model = model
        self.named = sorted(model.named_parameters(), key=lambda kv: kv[0])
        self.optimizer = Adam(model, 0.01)
        self.bucketer = bucketer or GradientBucketer.from_flat(model.num_parameters(), THRESHOLD)
        self.reduce_bucket = reduce_bucket
        self.zero1_algorithm = zero1_algorithm

    def _concat(self, attr):
        return np.concatenate([getattr(p, attr).reshape(-1) for _, p in self.named])

    def _scatter(self, attr, flat):
        offset = 0
        for _, param in self.named:
            getattr(param, attr)[...] = flat[offset : offset + param.size].reshape(param.shape)
            offset += param.size

    def step(self, batch: Batch) -> None:
        self.model.zero_grad()
        _loss, grad = LOSS(self.model.forward(batch.inputs), batch.targets)
        self.model.backward(grad)
        buffers = self.bucketer.pack(self._concat("grad"))
        if self.zero1_algorithm is None:
            reduced = [self.reduce_bucket(b, buffer) for b, buffer in enumerate(buffers)]
            self._scatter("grad", self.bucketer.unpack(reduced))
            self.optimizer.step()
        else:
            self._zero1(buffers)

    def _zero1(self, buffers) -> None:
        algorithm, size = self.zero1_algorithm, self.comm.size
        windows = self.bucketer.shard_windows(size, algorithm)
        params = self.bucketer.pack(self._concat("data"))
        for b, buffer in enumerate(buffers):
            buffers[b], _ = reduce_scatter(
                self.comm, buffer, average=True, algorithm=algorithm, copy=True
            )
        views, grads, keys = [], [], []
        for b, bucket in enumerate(self.bucketer.buckets):
            lo, hi = windows[b][self.comm.rank]
            if hi > lo:
                views.append(params[b][lo:hi])
                grads.append(buffers[b][lo:hi])
                keys.append(f"{bucket.start + lo}:{bucket.start + hi}")
        self.optimizer.step_windows(views, grads, keys)
        for buffer in params:
            allgather_flat(self.comm, buffer, algorithm=ALLGATHER_FOR_REDUCE_SCATTER[algorithm])
        self._scatter("data", self.bucketer.unpack(params))


def _spy_on_partials(exchange: PartialExchange, log: list) -> None:
    """Record what each bucket's partial allreduce was given and gave back.

    Which ranks a majority round includes depends on arrival order, so its
    oracle replays the rounds the real exchange ran instead of running its own.
    """
    for partial in exchange.partials:
        def reduce(contribution, _real=partial.reduce):
            given = np.array(contribution, copy=True)
            result = _real(contribution)
            log.append((given, np.array(result.data, copy=True)))
            return result
        partial.reduce = reduce


def _oracle_worker(comm, config):
    other = comm.dup("app.oracle")
    live, reference = _step_model(), _step_model()
    replay: list = []
    if config in ("ring", "recursive_doubling"):
        exchange = SynchronousExchange(comm, algorithm=config, fusion_threshold_bytes=THRESHOLD)
        oracle = CopyingOracle(other, reference, reduce_bucket=lambda b, buffer: allreduce(
            other, buffer, algorithm=config, average=True, copy=True
        ))
    elif config in ("fp16", "int8"):
        exchange = SynchronousExchange(
            comm, algorithm="ring", fusion_threshold_bytes=THRESHOLD, compression=config
        )
        # The same per-bucket wire path, but on packed copies.
        twin = SynchronousExchange(
            other, algorithm="ring", fusion_threshold_bytes=THRESHOLD, compression=config
        )
        oracle = CopyingOracle(
            other, reference, reduce_bucket=lambda b, buffer: twin._reduce_bucket(b, buffer)[0],
            # Under a codec the byte threshold budgets the encoded width.
            bucketer=twin._ensure_bucketer(reference.num_parameters()),
        )
    elif config == "majority":
        exchange = PartialExchange(
            comm, live.num_parameters(), mode="majority", seed=9,
            fusion_threshold_bytes=THRESHOLD,
        )
        _spy_on_partials(exchange, replay)

        def replayed(b, buffer):
            given, result = replay[b]
            assert np.array_equal(given, buffer)
            return result

        oracle = CopyingOracle(other, reference, reduce_bucket=replayed)
    else:
        algorithm = config.split("-")[1]
        exchange = ShardedExchange(comm, algorithm=algorithm, fusion_threshold_bytes=THRESHOLD)
        oracle = CopyingOracle(other, reference, zero1_algorithm=algorithm)

    sgd = DistributedSGD(live, Adam(live, 0.01), exchange, LOSS, world_size=comm.size)
    try:
        for step in range(3):
            batch = _batch(comm.rank, step)
            del replay[:]
            sgd.step(batch)
            oracle.step(batch)
            assert np.array_equal(flatten_parameters(live), oracle._concat("data")), (config, step)
            if not exchange.updates_parameters:
                assert np.array_equal(flatten_gradients(live), oracle._concat("grad"))
    finally:
        sgd.close()
    assert not hasattr(reference, "_arena")
    return flatten_parameters(live).copy()


@pytest.mark.parametrize("world_size", [2, 3])
@pytest.mark.parametrize("config", [
    "ring", "recursive_doubling", "zero1-ring", "zero1-halving", "fp16", "int8", "majority",
])
def test_in_place_step_is_bit_identical_to_the_copying_oracle(config, world_size):
    finals = launch(_oracle_worker, world_size, config, backend="thread")
    if config != "majority":  # eager replicas drift apart by design
        assert all(np.array_equal(finals[0], final) for final in finals[1:])
    assert not np.array_equal(finals[0], flatten_parameters(_step_model()))


# ---------------------------------------------------------------------------
# (c') ... and with segments received in place: ``process`` against ``thread``
# ---------------------------------------------------------------------------
def _in_place_worker(comm):
    """Three rounds of every bulk collective, two segments a message: on
    ``process`` the frames land straight in the collectives' buffers."""
    from repro.collectives.topology import HostTopology

    topology = HostTopology([0, 0, 1, 1][: comm.size] if comm.size > 2 else [0, 1])
    out = {}
    for round_index in range(3):
        data = np.random.default_rng((comm.rank, round_index)).standard_normal(1001)
        for algorithm in ("ring", "recursive_doubling", "rabenseifner"):
            out[algorithm, round_index] = allreduce(
                comm, data, algorithm=algorithm, average=True, n_chunks=2
            )
        out["hierarchical", round_index] = allreduce_hierarchical(
            comm, data, average=True, n_chunks=2, topology=topology
        )
        for algorithm in ("ring", "halving", "hierarchical"):
            kwargs = dict(algorithm=algorithm, n_chunks=2)
            if algorithm == "hierarchical":
                kwargs["topology"] = topology
            scattered, (lo, hi) = reduce_scatter(comm, data, average=True, **kwargs)
            out["reduce_scatter", algorithm, round_index] = scattered[lo:hi].copy()
            out["allgather_flat", algorithm, round_index] = allgather_flat(
                comm, scattered, **kwargs
            ).copy()
    stats = getattr(comm.router, "stats", dict)()
    return out, stats.get("frames_in_place", 0)


@pytest.mark.parametrize("world_size", [2, 3, 4])
def test_collectives_received_in_place_match_the_thread_backend(world_size):
    reference = launch(_in_place_worker, world_size, backend="thread")
    in_place = launch(_in_place_worker, world_size, backend="process", timeout=120)
    for (expected, _), (got, landed) in zip(reference, in_place):
        assert landed > 0  # the guard is live
        assert expected.keys() == got.keys()
        for key in expected:
            assert np.array_equal(expected[key], got[key]), key


@pytest.mark.parametrize("world_size", [2, 3, 4])
@pytest.mark.parametrize("config", ["ring", "recursive_doubling", "zero1-ring", "zero1-halving"])
def test_training_steps_received_in_place_match_the_thread_backend(config, world_size):
    reference = launch(_oracle_worker, world_size, config, backend="thread")
    in_place = launch(_oracle_worker, world_size, config, backend="process", timeout=120)
    assert all(np.array_equal(a, b) for a, b in zip(reference, in_place))


# ---------------------------------------------------------------------------
# (d) buckets tile the arena, shard windows tile each bucket
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
        min_size=1, max_size=6,
    ),
    threshold=st.integers(min_value=8, max_value=512),
    world_size=st.integers(min_value=1, max_value=6),
    algorithm=st.sampled_from(["ring", "halving"]),
)
def test_bucket_views_and_shard_windows_tile_the_arena(
    shapes, threshold, world_size, algorithm
):
    model = Module()
    for index, shape in enumerate(shapes):
        model.add_parameter(f"p{index}", np.zeros(shape))
    grad = flatten_gradients(model)
    bucketer = GradientBucketer.from_flat(grad.size, threshold)
    views = bucketer.views(grad)
    assert [v.size for v in views] == [b.num_elements for b in bucketer.buckets]
    for view in views:
        assert view.size == 0 or np.shares_memory(view, grad)
        view += 1.0
    assert np.all(grad == 1.0)  # every element in exactly one bucket
    for view, windows in zip(views, bucketer.shard_windows(world_size, algorithm)):
        assert len(windows) == world_size
        for lo, hi in windows:
            view[lo:hi] += 1.0
    assert np.all(grad == 2.0)  # ... and in exactly one rank's window of it
    assert all(np.all(p.grad == 2.0) for p in model.parameters())


# ---------------------------------------------------------------------------
# (e) ExchangeResult.gradient is the vector passed in
# ---------------------------------------------------------------------------
def _contract_exchange(comm, kind):
    # The thresholds cut the 23 elements into three buckets, [8, 8, 7].
    if kind == "sync":
        return SynchronousExchange(comm, algorithm="ring", fusion_threshold_bytes=64)
    if kind == "int8":
        return SynchronousExchange(
            comm, algorithm="ring", fusion_threshold_bytes=9, compression="int8"
        )
    return PartialExchange(
        comm, num_parameters=23, mode="quorum", quorum=2, seed=5, fusion_threshold_bytes=64
    )


@pytest.mark.parametrize("kind", ["sync", "int8", "partial"])
def test_exchange_reduces_its_argument_in_place(kind):
    def worker(comm):
        tolerance = 0.2 if kind == "int8" else 0.0
        with _contract_exchange(comm, kind) as exchange:
            for step in range(3):
                expected = np.arange(23.0) * 1.5 + step
                flat_in = np.arange(23.0) * (comm.rank + 1) + step
                result = exchange.exchange(flat_in)
                # A new ndarray over the same memory would do: compare memory.
                assert np.shares_memory(result.gradient, flat_in)
                assert np.allclose(flat_in, expected, atol=tolerance, rtol=0)

                frozen = np.arange(23.0) * (comm.rank + 1) + step
                frozen.flags.writeable = False
                result = exchange.exchange(frozen)
                assert not np.shares_memory(result.gradient, frozen)
                assert np.array_equal(frozen, np.arange(23.0) * (comm.rank + 1) + step)
                assert np.allclose(result.gradient, expected, atol=tolerance, rtol=0)

                as_list = exchange.exchange(list(np.arange(23.0) * (comm.rank + 1) + step))
                assert np.allclose(as_list.gradient, expected, atol=tolerance, rtol=0)
        return True

    assert all(launch(worker, 2, backend="thread"))


def test_sharded_exchange_does_not_confuse_gradients_with_parameters():
    """The trap: one persistent vector reused for both would overwrite the gradients."""

    def worker(comm):
        model = Module()
        model.add_parameter("theta", np.linspace(-1.0, 1.0, 40))
        optimizer = nn.SGD(model, 0.5)
        exchange = ShardedExchange(comm, algorithm="ring", fusion_threshold_bytes=14 * 8)
        expected = np.linspace(-1.0, 1.0, 40)
        for step in range(3):
            model.theta.grad[...] = np.arange(40.0) * (comm.rank + 1) + step
            exchange.exchange_update(flatten_gradients(model), model, optimizer)
            expected = expected - 0.5 * (np.arange(40.0) * 1.5 + step)
            assert np.array_equal(model.theta.data, expected)
        return True

    assert all(launch(worker, 2, backend="thread"))


# ---------------------------------------------------------------------------
# (f) a steady-state step allocates nothing the size of the gradient
# ---------------------------------------------------------------------------
def _wide_model() -> Module:
    # Thirty-two 64x64 layers, 1 MB in all: a layer's backward temporary
    # (x.T @ g, a weight's size) is 32 KiB, far below the allowance even
    # with both ranks inside one at once.
    return MLPClassifier(64, hidden_dims=(64,) * 31, num_classes=64, seed=0)


@pytest.mark.parametrize("kind", ["zero1", "step-dense", "step-zero1"])
def test_steady_state_sharded_exchange_and_whole_step_allocate_no_gradient_sized_array(kind):
    """P=2 on the thread backend: both ranks' allocations land in one trace."""

    def worker(comm):
        model = _wide_model()
        optimizer = Adam(model, 1e-3)
        # 64 KiB buckets: a message in flight (the transport's copy) is 32 KiB.
        if kind == "step-dense":
            exchange = SynchronousExchange(comm, algorithm="ring", fusion_threshold_bytes=1 << 16)
        else:
            exchange = ShardedExchange(comm, algorithm="ring", fusion_threshold_bytes=1 << 16)
        sgd = DistributedSGD(model, optimizer, exchange, LOSS, world_size=comm.size)
        rng = np.random.default_rng(comm.rank)
        batch = Batch(rng.standard_normal((4, 64)), rng.integers(0, 64, size=4), np.arange(4))

        def call():
            if kind == "zero1":
                flatten_gradients(model)[...] = comm.rank + 1.0
                exchange.exchange_update(flatten_gradients(model), model, optimizer)
            else:
                sgd.step(batch)

        call()
        call()
        comm.barrier()
        if comm.rank == 0:
            tracemalloc.start()
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
        comm.barrier()
        for _ in range(3):
            call()
        comm.barrier()
        peak = None
        if comm.rank == 0:
            peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.stop()
        comm.barrier()
        return peak, model.num_parameters() * 8

    try:
        peak, gradient_bytes = launch(worker, 2, backend="thread")[0]
    finally:
        tracemalloc.stop()
    assert peak < gradient_bytes // 4
