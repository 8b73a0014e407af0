"""Tests for the neural-network layers (forward shapes + gradient checks)."""

import numpy as np
import pytest

from conftest import numerical_gradient_check
from repro.nn import (
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
from repro.nn.losses import MSELoss
from repro.nn.module import Module, Parameter


class _WrapLoss:
    """MSE over outputs of any shape, for grad checks of unflattened layers."""

    def __init__(self):
        self.loss = MSELoss()

    def __call__(self, outputs, targets):
        loss, grad = self.loss(outputs.reshape(outputs.shape[0], -1), targets)
        return loss, grad.reshape(outputs.shape)


class TestModuleBasics:
    def test_parameter_registration_and_count(self):
        layer = Dense(4, 3, seed=0)
        names = dict(layer.named_parameters())
        assert set(names) == {"W", "b"}
        assert layer.num_parameters() == 4 * 3 + 3

    def test_nested_module_names(self):
        seq = Sequential(Dense(2, 3, seed=0), ReLU(), Dense(3, 1, seed=0))
        names = [n for n, _ in seq.named_parameters()]
        assert "layer0/W" in names and "layer2/b" in names

    def test_train_eval_propagates(self):
        seq = Sequential(Dense(2, 2, seed=0), Dropout(0.5, seed=0))
        seq.eval()
        assert not seq.layers[1].training
        seq.train()
        assert seq.layers[1].training

    def test_zero_grad(self):
        layer = Dense(3, 2, seed=0)
        layer.forward(np.ones((4, 3)))
        layer.backward(np.ones((4, 2)))
        assert np.any(layer.W.grad != 0)
        layer.zero_grad()
        assert np.all(layer.W.grad == 0)

    def test_setattr_before_init_raises(self):
        class Bad(Module):
            def __init__(self):
                self.x = Parameter(np.zeros(1))  # missing super().__init__()

        with pytest.raises(AttributeError):
            Bad()


class TestDense:
    def test_forward_shape_and_values(self):
        layer = Dense(3, 2, seed=0)
        out = layer(np.zeros((5, 3)))
        assert out.shape == (5, 2)
        assert np.allclose(out, 0.0)  # zero input, zero bias

    def test_gradcheck(self, rng):
        layer = Dense(6, 4, seed=1)
        x = rng.normal(size=(3, 6))
        y = rng.normal(size=(3, 4))
        numerical_gradient_check(layer, x, y, MSELoss(), rng)

    def test_three_dimensional_input(self, rng):
        layer = Dense(5, 2, seed=1)
        out = layer(rng.normal(size=(2, 7, 5)))
        assert out.shape == (2, 7, 2)
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.shape == (2, 7, 5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dense(3, 2, seed=0)(np.zeros((4, 5)))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Dense(3, 2, seed=0).backward(np.zeros((1, 2)))


class TestActivations:
    def test_gradcheck(self, rng):
        model = Sequential(Dense(4, 4, seed=2), ReLU(), Dense(4, 2, seed=3))
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 2))
        numerical_gradient_check(model, x, y, MSELoss(), rng)

    def test_relu_masks_negative(self):
        relu = ReLU()
        out = relu(np.array([-1.0, 2.0]))
        assert np.allclose(out, [0.0, 2.0])
        assert np.allclose(relu.backward(np.ones(2)), [0.0, 1.0])


class TestConvAndPooling:
    def test_conv_output_shape(self):
        conv = Conv2D(3, 8, kernel_size=3, stride=2, padding=1, seed=0)
        out = conv(np.zeros((2, 3, 8, 8)))
        assert out.shape == (2, 8, 4, 4)

    def test_conv_gradcheck(self, rng):
        model = Conv2D(2, 3, kernel_size=3, seed=1)
        x = rng.normal(size=(2, 2, 5, 5))
        y = rng.normal(size=(2, 3 * 5 * 5))
        numerical_gradient_check(model, x, y, _WrapLoss(), rng)

    def test_conv_rejects_wrong_channels(self):
        with pytest.raises(ValueError):
            Conv2D(3, 4, seed=0)(np.zeros((1, 2, 6, 6)))

    def test_global_avgpool(self):
        x = np.ones((2, 3, 4, 4))
        out = GlobalAvgPool2D()(x)
        assert out.shape == (2, 3)
        assert np.allclose(out, 1.0)


class TestNormalization:
    def test_batchnorm_normalises(self, rng):
        bn = BatchNorm(4)
        x = rng.normal(3.0, 2.0, size=(64, 4))
        out = bn(x)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        bn = BatchNorm(2, momentum=0.0)
        x = rng.normal(5.0, 1.0, size=(32, 2))
        bn(x)  # training forward updates running stats (momentum=0 -> copy)
        bn.eval()
        out = bn(np.full((4, 2), 5.0))
        assert np.allclose(out, 0.0, atol=0.3)

    def test_batchnorm_gradcheck_dense_and_conv(self, rng):
        model = Sequential(Dense(3, 4, seed=0), BatchNorm(4), Dense(4, 2, seed=1))
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 2))
        numerical_gradient_check(model, x, y, MSELoss(), rng)
        conv_model = Sequential(Conv2D(1, 3, seed=0), BatchNorm(3))
        xc = rng.normal(size=(4, 1, 4, 4))
        yc = rng.normal(size=(4, 3 * 16))
        numerical_gradient_check(conv_model, xc, yc, _WrapLoss(), rng)

    def test_batchnorm_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BatchNorm(3)(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            BatchNorm(3)(np.zeros((2, 3, 4)))


class TestDropout:
    def test_dropout_eval_identity(self, rng):
        drop = Dropout(0.5, seed=0)
        drop.eval()
        x = rng.normal(size=(10, 10))
        assert np.allclose(drop(x), x)

    def test_dropout_training_scales(self, rng):
        drop = Dropout(0.5, seed=0)
        x = np.ones((2000,))
        out = drop(x)
        # Inverted dropout keeps the expectation.
        assert out.mean() == pytest.approx(1.0, abs=0.1)
        assert np.any(out == 0.0)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestResidual:
    def test_identity_shortcut(self, rng):
        block = Residual(Sequential(Dense(4, 4, seed=0)))
        x = rng.normal(size=(3, 4))
        out = block(x)
        assert out.shape == (3, 4)

    def test_shape_mismatch_raises(self, rng):
        block = Residual(Sequential(Dense(4, 3, seed=0)))
        with pytest.raises(ValueError):
            block(rng.normal(size=(2, 4)))

    def test_gradcheck_with_projection(self, rng):
        block = Residual(Dense(4, 6, seed=0), shortcut=Dense(4, 6, seed=1))
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 6))
        numerical_gradient_check(block, x, y, MSELoss(), rng)


class TestLSTM:
    def test_cell_step_shapes(self, rng):
        cell = LSTMCell(3, 5, seed=0)
        h, c = cell.forward(rng.normal(size=(2, 3)))
        assert h.shape == (2, 5) and c.shape == (2, 5)

    def test_lstm_masking_equivalence(self, rng):
        """Padding beyond a sequence's length must not change its output."""
        lstm = LSTM(3, 4, seed=0)
        x_short = rng.normal(size=(1, 3, 3))
        out_short = lstm.forward(x_short, lengths=np.array([3]))
        x_padded = np.concatenate([x_short, rng.normal(size=(1, 4, 3))], axis=1)
        out_padded = lstm.forward(x_padded, lengths=np.array([3]))
        assert np.allclose(out_short, out_padded)

    def test_lstm_gradcheck_variable_lengths(self, rng):
        class Wrapper(Module):
            def __init__(self):
                super().__init__()
                self.lstm = LSTM(3, 4, seed=1)
                self.head = Dense(4, 2, seed=2)
                self.lengths = np.array([5, 2, 4])

            def forward(self, x):
                return self.head(self.lstm.forward(x, lengths=self.lengths))

            def backward(self, grad):
                return self.lstm.backward(self.head.backward(grad))

        model = Wrapper()
        x = rng.normal(size=(3, 5, 3))
        y = rng.normal(size=(3, 2))
        numerical_gradient_check(model, x, y, MSELoss(), rng, tol=1e-3)

    def test_lstm_return_sequences(self, rng):
        lstm = LSTM(2, 3, return_sequences=True, seed=0)
        out = lstm.forward(rng.normal(size=(2, 6, 2)))
        assert out.shape == (2, 6, 3)
        grad_in = lstm.backward(np.ones_like(out))
        assert grad_in.shape == (2, 6, 2)

    def test_invalid_lengths(self, rng):
        lstm = LSTM(2, 3, seed=0)
        with pytest.raises(ValueError):
            lstm.forward(rng.normal(size=(2, 4, 2)), lengths=np.array([5, 1]))
