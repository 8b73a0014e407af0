"""``needs_input_grad``: backward computes only the gradients somebody reads.

One declaration (``Module.input_is_data``) marks the entry sub-modules of a
model; a marked layer accumulates its parameter gradients exactly as before
and returns ``None``.  Covered here: the three honouring layers bit for bit,
the container marking rules, the four model classes, ``DistributedSGD`` end
to end against an every-flag-``True`` oracle, and the eval-mode contract
("a forward in eval mode keeps no gradient-side state and ``backward``
raises") for every layer and model class.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import launch
from repro.data.loader import Batch
from repro.nn import (
    Adam,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool2D,
    LSTM,
    LSTMCell,
    ReLU,
    Residual,
    Sequential,
)
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.models import (
    HyperplaneMLP,
    MLPClassifier,
    SequenceLSTMClassifier,
    resnet_cifar,
)
from repro.training.distributed_sgd import DistributedSGD
from repro.training.exchange import build_exchange
from repro.training.model_sync import model_hash


def _x(*shape):
    return np.random.default_rng(7).normal(size=shape)


def _backward(module, x, marked):
    """One forward/backward of ``module``; returns (backward's result, grads)."""
    if marked:
        module.input_is_data()
    out = module.forward(x)
    grad_out = np.random.default_rng(11).normal(size=out.shape)
    module.zero_grad()
    grad_in = module.backward(grad_out)
    return grad_in, {name: p.grad.copy() for name, p in module.named_parameters()}


def _assert_same_parameter_gradients(factory, x):
    """Marked and unmarked twins: ``None`` vs an array, every ``param.grad``
    bit-identical.  Returns the two ``backward`` results."""
    full_in, full = _backward(factory(), x, marked=False)
    skipped_in, skipped = _backward(factory(), x, marked=True)
    assert full.keys() == skipped.keys() and full
    for name in full:
        assert full[name].tobytes() == skipped[name].tobytes(), name
        assert np.any(full[name] != 0.0), name
    return full_in, skipped_in


# ---------------------------------------------------------------------------
# (a) the honouring layers
# ---------------------------------------------------------------------------
HONOURING = {
    "dense": (lambda: Dense(5, 3, seed=0), _x(4, 5)),
    "dense-3d": (lambda: Dense(5, 3, seed=0), _x(2, 3, 5)),
    "conv": (lambda: Conv2D(2, 3, seed=0), _x(2, 2, 5, 5)),
    "conv-strided": (lambda: Conv2D(2, 3, kernel_size=1, stride=2, padding=0, seed=0), _x(2, 2, 6, 6)),
    "lstm": (lambda: LSTM(4, 3, seed=0), _x(2, 5, 4)),
    "lstm-sequences": (lambda: LSTM(4, 3, return_sequences=True, seed=0), _x(2, 5, 4)),
}


@pytest.mark.parametrize("case", sorted(HONOURING))
def test_marked_layer_returns_none_and_keeps_parameter_gradients(case):
    factory, x = HONOURING[case]
    full_in, skipped_in = _assert_same_parameter_gradients(factory, x)
    assert skipped_in is None
    assert full_in.shape == np.shape(x)


def test_lstm_marks_its_cell():
    lstm = LSTM(4, 3, seed=0).input_is_data()
    assert lstm.needs_input_grad is False and lstm.cell.needs_input_grad is False
    lstm.cell.forward(_x(2, 4))
    grad_x, grad_h, grad_c = lstm.cell.backward(np.ones((2, 3)))
    assert grad_x is None and grad_h.shape == grad_c.shape == (2, 3)


@pytest.mark.parametrize("case", ["dense", "conv", "conv-strided", "lstm"])
def test_standalone_layer_still_returns_the_input_gradient(case):
    """Unmarked (the default), ``backward`` returns d loss / d input."""
    factory, x = HONOURING[case]
    layer = factory()
    assert layer.needs_input_grad is True
    weights = np.random.default_rng(3).normal(size=layer.forward(x).shape)
    analytic = layer.backward(weights)
    eps = 1e-6
    rng = np.random.default_rng(5)
    for _ in range(5):
        index = tuple(int(rng.integers(0, n)) for n in x.shape)
        bumped = x.copy()
        bumped[index] += eps
        plus = float((layer.forward(bumped) * weights).sum())
        bumped[index] -= 2 * eps
        minus = float((layer.forward(bumped) * weights).sum())
        assert analytic[index] == pytest.approx((plus - minus) / (2 * eps), rel=1e-4, abs=1e-7)


# ---------------------------------------------------------------------------
# (b) containers and models
# ---------------------------------------------------------------------------
def _marked(module):
    """Names of the sub-modules whose flag is cleared ('' is the root)."""
    return {name for name, m in module.named_modules() if not m.needs_input_grad}


class TestMarking:
    def test_default_is_true_everywhere(self):
        assert _marked(MLPClassifier(6, (4,), 3, seed=0)) == set()

    def test_sequential_marks_through_the_first_parameterised_layer(self):
        seq = Sequential(ReLU(), Dense(6, 4, seed=0), ReLU(), Dense(4, 2, seed=1))
        assert seq.input_is_data() is seq
        assert _marked(seq) == {"", "layer0", "layer1"}
        full_in, skipped_in = _assert_same_parameter_gradients(
            lambda: Sequential(ReLU(), Dense(6, 4, seed=0), ReLU(), Dense(4, 2, seed=1)),
            _x(3, 6),
        )
        assert skipped_in is None and full_in.shape == (3, 6)

    def test_leading_dropout_is_walked_through(self):
        seq = Sequential(Dropout(0.5, seed=0), Dense(6, 4, seed=0), Dense(4, 2, seed=1))
        assert _marked(seq.input_is_data()) == {"", "layer0", "layer1"}

    def test_residual_first_marks_both_branches(self):
        def factory():
            return Sequential(
                Residual(Sequential(Dense(4, 4, seed=0)), Sequential(Dense(4, 4, seed=1))),
                ReLU(),
                Dense(4, 2, seed=2),
            )

        assert _marked(factory().input_is_data()) == {
            "", "layer0", "layer0/body", "layer0/body/layer0",
            "layer0/shortcut", "layer0/shortcut/layer0",
        }
        _, skipped_in = _assert_same_parameter_gradients(factory, _x(3, 4))
        assert skipped_in is None

    def test_identity_shortcut_residual(self):
        def factory():
            return Residual(Sequential(Dense(4, 4, seed=0), ReLU(), Dense(4, 4, seed=1)))

        assert _marked(factory().input_is_data()) == {"", "body", "body/layer0"}
        _, skipped_in = _assert_same_parameter_gradients(factory, _x(3, 4))
        assert skipped_in is None

    def test_nested_sequential_recurses(self):
        seq = Sequential(Sequential(ReLU(), Dense(6, 4, seed=0)), Dense(4, 2, seed=1))
        assert _marked(seq.input_is_data()) == {"", "layer0", "layer0/layer0", "layer0/layer1"}

    def test_a_layer_reachable_twice_is_left_alone(self):
        def factory():
            shared = Dense(4, 4, seed=0)
            return Sequential(shared, ReLU(), shared, Dense(4, 2, seed=1))

        seq = factory().input_is_data()
        assert _marked(seq) == {""}
        assert seq.layers[0].needs_input_grad is True
        # The second use feeds the first an activation gradient: everything
        # must still flow, so the whole chain behaves as if never marked.
        full_in, _ = _backward(factory(), _x(3, 4), marked=False)
        marked_in, _ = _backward(seq, _x(3, 4), marked=False)
        assert marked_in.tobytes() == full_in.tobytes()

    def test_a_first_layer_that_ignores_the_flag_stays_correct(self):
        def factory():
            return Sequential(BatchNorm(6), Dense(6, 4, seed=0), ReLU(), Dense(4, 2, seed=1))

        # The norm layer has parameters, so the walk ends on it: the Dense
        # behind it keeps producing the gradient the norm's own parameters need.
        assert _marked(factory().input_is_data()) == {"", "layer0"}
        full_in, marked_in = _assert_same_parameter_gradients(factory, _x(5, 6))
        assert marked_in.tobytes() == full_in.tobytes()


MODELS = {
    "mlp": (lambda: MLPClassifier(12, (8,), 3, seed=0), _x(4, 12), {"", "net", "net/layer0"}),
    "hyperplane": (lambda: HyperplaneMLP(9, seed=0), _x(4, 9), {"", "linear"}),
    "resnet": (
        lambda: resnet_cifar(num_classes=3, width=2, seed=0), _x(2, 3, 8, 8),
        {"", "net", "net/layer0"},
    ),
    "lstm": (
        lambda: SequenceLSTMClassifier(4, 5, 3, dropout=0.25, seed=0),
        {"x": _x(2, 5, 4), "lengths": np.array([5, 3])},
        {"", "lstm", "lstm/cell"},
    ),
}


@pytest.mark.parametrize("case", sorted(MODELS))
def test_model_classes_forward_the_declaration(case):
    factory, batch, expected = MODELS[case]
    assert _marked(factory().input_is_data()) == expected
    full_in, skipped_in = _assert_same_parameter_gradients(factory, batch)
    assert skipped_in is None and full_in is not None


# ---------------------------------------------------------------------------
# (c) DistributedSGD declares it; the trained model is the oracle's
# ---------------------------------------------------------------------------
def _mlp():
    return MLPClassifier(12, (8,), 3, seed=5)


def _batchnorm_first():
    return Sequential(BatchNorm(12), Dense(12, 8, seed=5), ReLU(), Dense(8, 3, seed=6))


def _train_ten_steps(comm, factory, sharding, oracle):
    model = factory()
    n = model.num_parameters()
    exchange = build_exchange(  # two buckets: a threshold of half the float64 bytes
        comm, n, "sync", fusion_threshold_bytes=8 * -(-n // 2), sharding=sharding,
        algorithm="ring",
    )
    sgd = DistributedSGD(
        model, Adam(model, 0.01), exchange, SoftmaxCrossEntropyLoss(), world_size=comm.size
    )
    marked = _marked(model)
    if oracle:
        for _, module in model.named_modules():
            module.needs_input_grad = True
    rng = np.random.default_rng(100 + comm.rank)
    for _ in range(10):
        batch = Batch(rng.normal(size=(6, 12)), rng.integers(0, 3, 6), np.arange(6))
        sgd.step(batch)
    sgd.close()
    return marked, model_hash(model)


@pytest.mark.parametrize("sharding", ["none", "zero1"])
@pytest.mark.parametrize("factory", [_mlp, _batchnorm_first])
def test_distributed_sgd_matches_the_all_flags_true_oracle(factory, sharding):
    runs = {
        oracle: launch(_train_ten_steps, 2, factory, sharding, oracle, backend="thread")
        for oracle in (False, True)
    }
    hashes = {digest for run in runs.values() for _, digest in run}
    assert len(hashes) == 1
    # The constructor is what declared it (the oracle undid it afterwards).
    first = "net/layer0" if factory is _mlp else "layer0"
    assert all(first in marked for run in runs.values() for marked, _ in run)


# ---------------------------------------------------------------------------
# the eval-mode contract, for every layer and model class
# ---------------------------------------------------------------------------
_CACHE_ATTRS = ("_cache", "_mask", "_input", "_input_shape")

EVAL_CASES = {
    "Dense": (lambda: Dense(5, 3, seed=0), _x(4, 5)),
    "ReLU": (ReLU, _x(4, 5)),
    "Conv2D": (lambda: Conv2D(2, 3, seed=0), _x(2, 2, 4, 4)),
    "BatchNorm-2d": (lambda: BatchNorm(5), _x(4, 5)),
    "BatchNorm-4d": (lambda: BatchNorm(2), _x(2, 2, 4, 4)),
    "GlobalAvgPool2D": (GlobalAvgPool2D, _x(2, 2, 4, 4)),
    "Dropout": (lambda: Dropout(0.5, seed=0), _x(4, 5)),
    "Dropout-rate0": (lambda: Dropout(0.0), _x(4, 5)),
    "LSTMCell": (lambda: LSTMCell(4, 3, seed=0), _x(2, 4)),
    "LSTM": (lambda: LSTM(4, 3, seed=0), _x(2, 5, 4)),
    "Sequential": (lambda: Sequential(Dense(5, 3, seed=0), BatchNorm(3), ReLU()), _x(4, 5)),
    "Residual": (lambda: Residual(Dense(5, 5, seed=0), BatchNorm(5)), _x(4, 5)),
    **{f"model-{name}": (factory, batch) for name, (factory, batch, _) in MODELS.items()},
}


@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_eval_forward_keeps_no_state_and_backward_raises(case):
    factory, x = EVAL_CASES[case]
    module = factory()
    module.forward(x)  # a training step's caches must not survive what follows
    module.eval()
    out = module.forward(x)
    held = [
        f"{name or type(module).__name__}.{attr}"
        for name, sub in module.named_modules()
        for attr in _CACHE_ATTRS
        if getattr(sub, attr, None) is not None
    ]
    assert held == []
    grad = np.ones_like(out[0] if isinstance(out, tuple) else out)
    with pytest.raises(RuntimeError):
        module.backward(grad)
