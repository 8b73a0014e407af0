"""Tests for models, losses, optimizers, metrics and parameter flattening."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numerical_gradient_check
from repro.nn import (
    Adam,
    ConstantLR,
    Dense,
    MomentumSGD,
    MSELoss,
    SGD,
    Sequential,
    SoftmaxCrossEntropyLoss,
    StepDecayLR,
    WarmupLR,
    accuracy,
    assign_flat_gradients,
    assign_flat_parameters,
    flatten_gradients,
    flatten_parameters,
    parameter_count,
    topk_accuracy,
)
from repro.nn.models import (
    HyperplaneMLP,
    MLPClassifier,
    ResNetClassifier,
    SequenceLSTMClassifier,
    TransformerClassifier,
    resnet_cifar,
    resnet_imagenet_lite,
)


class TestLosses:
    def test_mse_value_and_gradient(self):
        loss, grad = MSELoss()(np.array([[1.0], [3.0]]), np.array([[0.0], [1.0]]))
        assert loss == pytest.approx((1 + 4) / 2)
        assert np.allclose(grad, [[1.0], [2.0]])

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss()(np.zeros((2, 1)), np.zeros((3, 1)))

    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 0.0, 0.0]])
        labels = np.array([0])
        loss, grad = SoftmaxCrossEntropyLoss()(logits, labels)
        probs = np.exp(logits[0]) / np.exp(logits[0]).sum()
        assert loss == pytest.approx(-np.log(probs[0]))
        assert grad.shape == (1, 3)
        assert grad[0].sum() == pytest.approx(0.0, abs=1e-12)

    def test_cross_entropy_label_smoothing(self):
        plain = SoftmaxCrossEntropyLoss()(np.array([[5.0, 0.0]]), np.array([0]))[0]
        smoothed = SoftmaxCrossEntropyLoss(0.2)(np.array([[5.0, 0.0]]), np.array([0]))[0]
        assert smoothed > plain

    def test_cross_entropy_invalid_labels(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropyLoss()(np.zeros((2, 3)), np.array([0, 5]))
        with pytest.raises(TypeError):
            SoftmaxCrossEntropyLoss()(np.zeros((1, 3)), np.array([0.5]))

    def test_cross_entropy_gradient_direction(self):
        """Following the negative gradient must reduce the loss."""
        logits = np.array([[0.3, -0.2, 0.1]])
        labels = np.array([2])
        loss_fn = SoftmaxCrossEntropyLoss()
        loss, grad = loss_fn(logits, labels)
        better, _ = loss_fn(logits - 0.1 * grad, labels)
        assert better < loss


class TestMetrics:
    def test_topk(self):
        logits = np.array([[0.1, 0.9, 0.0], [0.8, 0.1, 0.1]])
        labels = np.array([1, 2])
        assert topk_accuracy(logits, labels, k=1) == pytest.approx(0.5)
        assert topk_accuracy(logits, labels, k=3) == pytest.approx(1.0)
        assert accuracy(logits, labels) == pytest.approx(0.5)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            topk_accuracy(np.zeros((2, 3)), np.array([0, 1]), k=4)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_property_topk_monotone_in_k(self, k):
        rng = np.random.default_rng(k)
        logits = rng.normal(size=(30, 6))
        labels = rng.integers(0, 6, size=30)
        accs = [topk_accuracy(logits, labels, k=i) for i in range(1, k + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))


class TestParameterFlattening:
    def test_roundtrip(self, rng):
        model = MLPClassifier(6, (5,), 3, seed=0)
        flat = flatten_parameters(model)
        assert flat.size == model.num_parameters() == parameter_count(model)
        new = rng.normal(size=flat.size)
        assign_flat_parameters(model, new)
        assert np.allclose(flatten_parameters(model), new)

    def test_gradient_roundtrip(self, rng):
        model = MLPClassifier(4, (4,), 2, seed=0)
        x = rng.normal(size=(3, 4))
        y = rng.integers(0, 2, 3)
        out = model.forward(x)
        _, grad = SoftmaxCrossEntropyLoss()(out, y)
        model.zero_grad()
        model.backward(grad)
        flat = flatten_gradients(model)
        assign_flat_gradients(model, np.zeros_like(flat))
        assert np.allclose(flatten_gradients(model), 0.0)
        assign_flat_gradients(model, flat)
        assert np.allclose(flatten_gradients(model), flat)

    def test_size_mismatch(self):
        model = MLPClassifier(4, (4,), 2, seed=0)
        with pytest.raises(ValueError):
            assign_flat_parameters(model, np.zeros(3))

    def test_order_is_stable(self):
        a = MLPClassifier(4, (4,), 2, seed=5)
        b = MLPClassifier(4, (4,), 2, seed=5)
        assert np.allclose(flatten_parameters(a), flatten_parameters(b))


class TestOptimizers:
    def _quadratic_setup(self):
        model = Dense(1, 1, bias=False, init="normal", seed=0)
        model.W.data[:] = 5.0
        return model

    def _step(self, model, optimizer, steps=200):
        # Minimise f(w) = w^2 via its gradient 2w.
        for _ in range(steps):
            model.zero_grad()
            model.W.grad[:] = 2.0 * model.W.data
            optimizer.step()
        return float(model.W.data[0, 0])

    def test_sgd_converges_on_quadratic(self):
        model = self._quadratic_setup()
        assert abs(self._step(model, SGD(model, 0.1))) < 1e-3

    def test_momentum_converges(self):
        model = self._quadratic_setup()
        assert abs(self._step(model, MomentumSGD(model, 0.05, momentum=0.9))) < 1e-3

    def test_adam_converges(self):
        model = self._quadratic_setup()
        assert abs(self._step(model, Adam(model, 0.1), steps=400)) < 1e-2

    def test_weight_decay_shrinks_weights(self):
        model = self._quadratic_setup()
        opt = SGD(model, 0.1, weight_decay=0.5)
        model.zero_grad()
        opt.step()
        assert abs(float(model.W.data[0, 0])) < 5.0

    def test_schedules(self):
        assert ConstantLR(0.1).lr(100) == 0.1
        sched = StepDecayLR(1.0, milestones=[10, 20], factor=0.1)
        assert sched.lr(5) == 1.0
        assert sched.lr(15) == pytest.approx(0.1)
        assert sched.lr(25) == pytest.approx(0.01)
        warm = WarmupLR(ConstantLR(1.0), warmup_steps=10)
        assert warm.lr(0) == pytest.approx(0.1)
        assert warm.lr(9) == pytest.approx(1.0)
        assert warm.lr(50) == 1.0

    def test_invalid_hyperparameters(self):
        model = self._quadratic_setup()
        # Rejected at construction, with the offending value in the message.
        for build, value in [
            (lambda: SGD(model, -1.0), "-1.0"),
            (lambda: SGD(model, 0.1, weight_decay=-0.5), "-0.5"),
            (lambda: StepDecayLR(0.0, milestones=[1]), "0.0"),
            (lambda: WarmupLR(ConstantLR(0.1), warmup_steps=-3), "-3"),
            (lambda: MomentumSGD(model, 0.1, momentum=1.5), "1.5"),
            (lambda: MomentumSGD(model, 0.1, weight_decay=-0.25), "-0.25"),
            (lambda: Adam(model, 0.1, beta1=1.0), "beta1=1.0"),
            (lambda: Adam(model, 0.1, beta2=-0.125), "beta2=-0.125"),
            (lambda: Adam(model, 0.1, weight_decay=-0.75), "-0.75"),
            (lambda: Adam(model, 0.1, eps=0.0), "0.0"),
            (lambda: Adam(model, 0.1, eps=-1e-8), "-1e-08"),
            (lambda: Adam(model, 0.1, weight_decay=float("nan")), "nan"),
        ]:
            with pytest.raises(ValueError, match=re.escape(value)):
                build()

    def test_training_reduces_loss_end_to_end(self, rng):
        model = MLPClassifier(8, (16,), 3, seed=0)
        opt = MomentumSGD(model, 0.1)
        loss_fn = SoftmaxCrossEntropyLoss()
        x = rng.normal(size=(64, 8))
        templates = rng.normal(size=(3, 8)) * 2
        y = rng.integers(0, 3, 64)
        x = x + templates[y]
        first = None
        for _ in range(30):
            out = model.forward(x)
            loss, grad = loss_fn(out, y)
            if first is None:
                first = loss
            model.zero_grad()
            model.backward(grad)
            opt.step()
        assert loss < first * 0.5


class TestModels:
    def test_hyperplane_mlp_parameter_count_matches_table1(self):
        assert HyperplaneMLP(8192).num_parameters() == 8193

    def test_hyperplane_learns_coefficients(self, rng):
        dim = 16
        model = HyperplaneMLP(dim, seed=0)
        coeffs = rng.normal(size=dim)
        x = rng.normal(size=(256, dim))
        y = (x @ coeffs)[:, None]
        opt = SGD(model, 0.5)
        loss_fn = MSELoss()
        for _ in range(300):
            out = model.forward(x)
            loss, grad = loss_fn(out, y)
            model.zero_grad()
            model.backward(grad)
            opt.step()
        learned = model.linear.W.data[:, 0]
        assert np.allclose(learned, coeffs, atol=0.1)

    def test_resnet_forward_and_gradcheck(self, rng):
        model = resnet_cifar(num_classes=4, width=4, blocks_per_stage=1, seed=0)
        x = rng.normal(size=(2, 3, 8, 8))
        assert model.forward(x).shape == (2, 4)
        y = rng.integers(0, 4, 2)
        numerical_gradient_check(model, x, y, SoftmaxCrossEntropyLoss(), rng, tol=1e-3)

    def test_resnet_imagenet_lite_has_four_stages(self):
        model = resnet_imagenet_lite(num_classes=10, width=4, blocks_per_stage=1, seed=0)
        out = model.forward(np.zeros((1, 3, 16, 16)))
        assert out.shape == (1, 10)

    def test_resnet32_structure_parameter_count(self):
        """blocks_per_stage=5, width=16 recovers the real ResNet-32 scale."""
        model = resnet_cifar(width=16, blocks_per_stage=5, seed=0)
        # The paper's ResNet-32 has 467k parameters; the reproduction's
        # basic-block variant lands in the same ballpark.
        assert 300_000 < model.num_parameters() < 700_000

    def test_lstm_classifier_dict_batches(self, rng):
        model = SequenceLSTMClassifier(feature_dim=5, hidden_dim=6, num_classes=4, seed=0)
        batch = {"x": rng.normal(size=(3, 7, 5)), "lengths": np.array([7, 2, 5])}
        out = model.forward(batch)
        assert out.shape == (3, 4)
        y = rng.integers(0, 4, 3)
        numerical_gradient_check(model, batch, y, SoftmaxCrossEntropyLoss(), rng, tol=1e-3)

    def test_transformer_classifier(self, rng):
        model = TransformerClassifier(
            vocab_size=30, dim=8, num_heads=2, num_layers=1, num_classes=3,
            max_len=16, seed=0,
        )
        batch = {"tokens": rng.integers(0, 30, (2, 6)), "lengths": np.array([6, 3])}
        out = model.forward(batch)
        assert out.shape == (2, 3)
        y = rng.integers(0, 3, 2)
        numerical_gradient_check(model, batch, y, SoftmaxCrossEntropyLoss(), rng, tol=1e-3)

    def test_transformer_rejects_too_long(self, rng):
        model = TransformerClassifier(vocab_size=10, dim=8, max_len=4, seed=0)
        with pytest.raises(ValueError):
            model.forward({"tokens": rng.integers(0, 10, (1, 8))})

    def test_identical_seeds_give_identical_models(self):
        a = resnet_cifar(width=4, seed=9)
        b = resnet_cifar(width=4, seed=9)
        assert np.allclose(flatten_parameters(a), flatten_parameters(b))
