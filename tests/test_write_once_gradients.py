"""Write-once gradients: ``zero_grad`` marks, the first accumulation writes.

``Parameter.zero_grad`` leaves the gradient *pending zero*; a layer's
``param.accumulate`` writes its product straight into ``.grad`` and every
other reader (``.grad``, ``+=``, ``flatten_gradients``) finds the zeros
filled in first.  Pinned here against an *eager-zero oracle* — the same
model with every gradient zero-filled the moment it is cleared, which is
what ``zero_grad`` did before — down to ``DistributedSGD`` end to end.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import numerical_gradient_check

from repro.comm import launch
from repro.data.loader import Batch
from repro.nn import (
    LSTM,
    Adam,
    BatchNorm,
    Dense,
    ReLU,
    Sequential,
)
from repro.nn.losses import MSELoss, SoftmaxCrossEntropyLoss
from repro.nn.models import MLPClassifier
from repro.nn.parameters import flatten_gradients, flatten_parameters
from repro.training.distributed_sgd import DistributedSGD
from repro.training.exchange import build_exchange
from repro.training.model_sync import model_hash


def _eager_zero(model):
    """Make ``model.zero_grad`` fill every gradient with zeros at once."""

    def zero_grad():
        for param in model.parameters():
            param.grad[...] = 0.0

    model.zero_grad = zero_grad
    return model


def _backward(model, x, passes=1):
    out = model.forward(x)
    grad_out = np.random.default_rng(11).normal(size=out.shape)
    model.zero_grad()
    for _ in range(passes):
        model.backward(grad_out)
    return {name: p.grad.copy() for name, p in model.named_parameters()}


def _assert_matches_the_oracle(factory, x, passes=1):
    lazy = _backward(factory(), x, passes)
    eager = _backward(_eager_zero(factory()), x, passes)
    assert lazy.keys() == eager.keys() and lazy
    for name in lazy:
        assert np.array_equal(lazy[name], eager[name]), name


def _x(*shape):
    return np.random.default_rng(7).normal(size=shape)


def test_grad_reads_zeros_after_zero_grad_without_a_backward():
    layer = Dense(5, 3, seed=0)
    _backward(layer, _x(4, 5))
    assert np.any(layer.W.grad != 0.0)
    layer.zero_grad()
    assert not np.any(layer.W.grad) and not np.any(layer.b.grad)


def test_two_backwards_without_zero_grad_accumulate_the_sum():
    once = _backward(Dense(5, 3, seed=0), _x(4, 5))
    twice = _backward(Dense(5, 3, seed=0), _x(4, 5), passes=2)
    for name in once:
        assert np.array_equal(twice[name], once[name] + once[name]), name
    _assert_matches_the_oracle(lambda: Dense(5, 3, seed=0), _x(4, 5), passes=2)


def test_a_layer_used_twice_in_one_forward():
    def factory():
        shared = Dense(4, 4, seed=0)
        return Sequential(shared, ReLU(), shared, Dense(4, 2, seed=1))

    _assert_matches_the_oracle(factory, _x(3, 4))


def test_flatten_gradients_right_after_zero_grad_is_zeros():
    model = MLPClassifier(6, (5,), 3, seed=0)
    _backward(model, _x(4, 6))
    assert np.any(flatten_gradients(model) != 0.0)
    model.zero_grad()
    assert not np.any(flatten_gradients(model))
    # ... and the zeros are the parameters' own: the arena is their memory.
    assert all(not np.any(p.grad) for p in model.parameters())


CHAINS = {
    "batchnorm": (
        lambda: Sequential(Dense(6, 5, seed=0), BatchNorm(5), ReLU(), Dense(5, 3, seed=1)),
        _x(8, 6),
    ),
    "lstm": (lambda: Sequential(LSTM(4, 3, seed=0), Dense(3, 2, seed=1)), _x(2, 5, 4)),
}


@pytest.mark.parametrize("case", sorted(CHAINS))
def test_chains_match_finite_differences_and_the_oracle(case, rng):
    factory, x = CHAINS[case]
    _assert_matches_the_oracle(factory, x)
    model = factory()
    target = np.random.default_rng(3).normal(size=model.forward(x).shape)
    numerical_gradient_check(model, x, target, MSELoss(), rng, tol=1e-3)


def _train_ten_steps(comm, sharding, eager):
    model = MLPClassifier(12, (8,), 3, seed=5)
    if eager:
        _eager_zero(model)
    exchange = build_exchange(
        comm, model.num_parameters(), "sync", fusion_buckets=2, sharding=sharding,
        algorithm="ring",
    )
    sgd = DistributedSGD(
        model, Adam(model, 0.01), exchange, SoftmaxCrossEntropyLoss(), world_size=comm.size
    )
    rng = np.random.default_rng(100 + comm.rank)
    for _ in range(10):
        sgd.step(Batch(rng.normal(size=(6, 12)), rng.integers(0, 3, 6), np.arange(6)))
    sgd.close()
    return flatten_parameters(model).tobytes(), model_hash(model), flatten_gradients(model).copy()


@pytest.mark.parametrize("sharding", ["none", "zero1"])
def test_distributed_sgd_matches_the_eager_zero_oracle(sharding):
    lazy, eager = (
        launch(_train_ten_steps, 2, sharding, oracle, backend="thread")
        for oracle in (False, True)
    )
    for (params, digest, grad), (params_o, digest_o, grad_o) in zip(lazy, eager):
        assert params == params_o and digest == digest_o
        assert np.array_equal(grad, grad_o)  # under ==: a zero's sign may differ
