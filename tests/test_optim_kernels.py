"""The update path allocates nothing gradient-sized, and changes no bit.

Each optimizer rule is one blocked in-place kernel (``repro.nn.optim``);
the exchanges reduce the vector they are given in place
(``tests/test_parameter_arena.py`` holds that contract).  These tests
hold the kernels to an oracle that spells every rule out as the textbook
expression, hold windows to the dense step, and bound what a steady-state
call may allocate.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import launch
from repro.nn import optim
from repro.nn.module import Module
from repro.nn.optim import SGD, Adam, MomentumSGD
from repro.nn.parameters import flatten_gradients, flatten_parameters
from repro.training import GradientBucketer, SynchronousExchange

BLOCK = optim._BLOCK
LR = 0.01

RULES = {
    "sgd": lambda model, wd: SGD(model, LR, weight_decay=wd),
    "momentum": lambda model, wd: MomentumSGD(model, LR, momentum=0.9, weight_decay=wd),
    "nesterov": lambda model, wd: MomentumSGD(
        model, LR, momentum=0.9, weight_decay=wd, nesterov=True
    ),
    "adam": lambda model, wd: Adam(model, LR, weight_decay=wd),
}


def _model(values: np.ndarray) -> Module:
    model = Module()
    model.add_parameter("theta", np.array(values, dtype=np.float64))
    return model


# ---------------------------------------------------------------------------
# (a) the oracle: every rule as one straight-line expression
# ---------------------------------------------------------------------------
class Oracle:
    """The update rules as allocating expressions; the reference the kernels must equal."""

    def __init__(self, rule: str, weight_decay: float) -> None:
        self.rule = rule
        self.weight_decay = weight_decay
        self.momentum, self.beta1, self.beta2, self.eps = 0.9, 0.9, 0.999, 1e-8
        self.state = None
        self.t = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        if self.weight_decay:
            grad = grad + self.weight_decay * param
        if self.rule == "sgd":
            return param - LR * grad
        if self.rule in ("momentum", "nesterov"):
            vel = np.zeros_like(param) if self.state is None else self.state
            vel = self.momentum * vel + grad
            self.state = vel
            update = grad + self.momentum * vel if self.rule == "nesterov" else vel
            return param - LR * update
        m, v = (np.zeros_like(param),) * 2 if self.state is None else self.state
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad**2
        self.state = (m, v)
        m_hat = m / (1 - self.beta1**self.t)
        v_hat = v / (1 - self.beta2**self.t)
        return param - LR * m_hat / (np.sqrt(v_hat) + self.eps)


@pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
@pytest.mark.parametrize("rule", sorted(RULES))
def test_kernels_are_bit_identical_to_the_expressions(rule, weight_decay, size):
    rng = np.random.default_rng(size)
    expected = rng.standard_normal(size)
    model = _model(expected)
    optimizer = RULES[rule](model, weight_decay)
    oracle = Oracle(rule, weight_decay)
    for _ in range(5):
        grad = rng.standard_normal(size)
        model.theta.grad[...] = grad
        optimizer.step()
        expected = oracle.step(expected, grad)
        assert np.array_equal(model.theta.data, expected)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_non_contiguous_parameter_is_updated_in_place(rule):
    """``reshape(-1)`` of a transposed view is a copy: the kernel must not write there."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal((5, 3))
    model = _model(values)
    backing = np.ascontiguousarray(values.T)  # (3, 5); the parameter is its transpose
    model.theta.data = backing.T
    assert not model.theta.data.flags.c_contiguous
    optimizer = RULES[rule](model, 1e-2)
    oracle = Oracle(rule, 1e-2)
    expected = values
    for _ in range(3):
        grad = rng.standard_normal((5, 3))
        model.theta.grad[...] = grad
        optimizer.step()
        expected = oracle.step(expected, grad)
        assert np.array_equal(model.theta.data, expected)
    assert np.shares_memory(model.theta.data, backing)
    assert np.array_equal(backing.T, expected)


# ---------------------------------------------------------------------------
# (b) any partition into windows equals the dense step
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    rule=st.sampled_from(sorted(RULES)),
    weight_decay=st.sampled_from([0.0, 1e-2]),
    size=st.integers(1, 40),
    cuts=st.sets(st.integers(1, 39)),
    seed=st.integers(0, 2**16),
)
def test_any_window_partition_equals_the_dense_step(rule, weight_decay, size, cuts, seed):
    # A block of 8 elements puts block edges inside the windows.
    with mock.patch.object(optim, "_BLOCK", 8):
        rng = np.random.default_rng(seed)
        start = rng.standard_normal(size)
        dense_model, window_model = _model(start), _model(start)
        dense = RULES[rule](dense_model, weight_decay)
        windowed = RULES[rule](window_model, weight_decay)
        flat = start.copy()
        edges = [0, *sorted(c for c in cuts if c < size), size]
        windows = list(zip(edges, edges[1:]))
        for _ in range(3):
            grad = rng.standard_normal(size)
            dense_model.theta.grad[...] = grad
            dense.step()
            windowed.step_windows(
                [flat[lo:hi] for lo, hi in windows],
                [grad[lo:hi] for lo, hi in windows],
                [f"{lo}:{hi}" for lo, hi in windows],
            )
            assert np.array_equal(flat, dense_model.theta.data)
        assert dense.step_count == windowed.step_count == 3


# ---------------------------------------------------------------------------
# (c) checkpoints: bitwise continuation, no aliasing with the live state
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("rule", ["momentum", "nesterov", "adam"])
def test_state_dict_is_a_snapshot_and_resumes_bitwise(rule):
    rng = np.random.default_rng(3)
    size = BLOCK + 5
    start = rng.standard_normal(size)
    grads = [rng.standard_normal(size) for _ in range(6)]
    model = _model(start)
    optimizer = RULES[rule](model, 1e-2)
    window = start.copy()
    windowed = RULES[rule](_model(start), 1e-2)
    for grad in grads[:3]:
        model.theta.grad[...] = grad
        optimizer.step()
        windowed.step_windows([window], [grad], [f"0:{size}"])
    saved, saved_windows = optimizer.state_dict(), windowed.state_dict()
    frozen = {
        slot: arr.copy()
        for state in (saved["param_state"]["theta"], saved_windows["window_state"][f"0:{size}"])
        for slot, arr in state.items()
    }
    assert frozen

    resumed_model = _model(model.theta.data)
    resumed = RULES[rule](resumed_model, 1e-2)
    resumed.load_state_dict(saved)
    resumed_window = window.copy()
    resumed_windowed = RULES[rule](_model(start), 1e-2)
    resumed_windowed.load_state_dict(saved_windows)
    for grad in grads[3:]:
        for m, opt in ((model, optimizer), (resumed_model, resumed)):
            m.theta.grad[...] = grad
            opt.step()
        windowed.step_windows([window], [grad], [f"0:{size}"])
        resumed_windowed.step_windows([resumed_window], [grad], [f"0:{size}"])
        assert np.array_equal(resumed_model.theta.data, model.theta.data)
        assert np.array_equal(resumed_window, window)
        assert np.array_equal(window, model.theta.data)
    # Three in-place steps on the saver and on the loader later, the
    # checkpoint still reads what it read when it was taken.
    for state in (saved["param_state"]["theta"], saved_windows["window_state"][f"0:{size}"]):
        for slot, arr in state.items():
            assert np.array_equal(arr, frozen[slot])


def test_load_rejects_an_entry_without_its_slots():
    optimizer = Adam(_model(np.zeros(4)), LR)
    with pytest.raises(ValueError, match=r"lacks slot\(s\) \['v'\]"):
        optimizer.load_state_dict({"param_state": {"theta": {"m": np.zeros(4)}}})


# ---------------------------------------------------------------------------
# flat helpers: out= recycles, and says what it cannot take
# ---------------------------------------------------------------------------
def test_flatten_and_unpack_fill_the_vector_they_are_given():
    model = Module()
    model.add_parameter("b", np.arange(6.0).reshape(2, 3))
    model.add_parameter("a", np.arange(6.0, 10.0))
    model.a.grad[...] = 1.0
    model.b.grad[...] = 2.0
    out = np.empty(10)
    assert flatten_parameters(model, out=out) is out
    assert np.array_equal(out, [6, 7, 8, 9, 0, 1, 2, 3, 4, 5])
    assert flatten_gradients(model, out=out) is out
    assert np.array_equal(out, [1] * 4 + [2] * 6)
    assert np.array_equal(flatten_gradients(model), out)
    bucketer = GradientBucketer.fixed_count(10, 3)
    assert bucketer.unpack(bucketer.pack(np.arange(10.0)), out=out) is out
    assert np.array_equal(out, np.arange(10.0))
    for bad in (np.empty(9), np.empty(10, dtype=np.float32), np.empty((2, 5)), np.empty(20)[::2]):
        with pytest.raises(ValueError, match="float64 vector|has 9 elements"):
            flatten_gradients(model, out=bad)
    for bad in (np.empty(9), np.empty(10, dtype=np.float32), np.empty((2, 5))):
        with pytest.raises(ValueError, match="float64 vector of 10 elements"):
            bucketer.unpack(bucketer.pack(np.arange(10.0)), out=bad)


def test_duplicate_parameter_names_are_reported():
    model, child = Module(), Module()
    model.add_parameter("a/b", np.zeros(1))
    child.add_parameter("b", np.zeros(1))
    model.add_module("a", child)
    with pytest.raises(ValueError, match=r"duplicate parameter names: \['a/b'\]"):
        flatten_parameters(model)


# ---------------------------------------------------------------------------
# (d) steady state allocates nothing the size of the gradient
# ---------------------------------------------------------------------------
ELEMENTS = (1 << 20) // 8  # a 1 MB model
ALLOWANCE = ELEMENTS * 8 // 4


def _peak_over(calls, repeats=3) -> int:
    """Peak traced bytes above the level at entry, over ``repeats`` rounds of ``calls``."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(repeats):
            calls()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rule", sorted(RULES))
def test_steady_state_step_allocates_no_gradient_sized_array(rule):
    rng = np.random.default_rng(0)
    model = _model(rng.standard_normal(ELEMENTS))
    model.theta.grad[...] = rng.standard_normal(ELEMENTS)
    optimizer = RULES[rule](model, 1e-2)
    optimizer.step()  # allocates the state
    assert _peak_over(optimizer.step) < ALLOWANCE

    flat, grad = flatten_parameters(model), flatten_gradients(model)
    cuts = [0, ELEMENTS // 3, ELEMENTS]
    windows = [flat[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    grads = [grad[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    keys = [f"{lo}:{hi}" for lo, hi in zip(cuts, cuts[1:])]
    optimizer.step_windows(windows, grads, keys)
    assert _peak_over(lambda: optimizer.step_windows(windows, grads, keys)) < ALLOWANCE


def test_steady_state_exchange_allocates_no_gradient_sized_array():
    """P=2 on the thread backend: both ranks' allocations land in one trace."""

    def worker(comm):
        model = _model(np.zeros(ELEMENTS))
        model.theta.grad[...] = comm.rank + 1.0
        # 64 KiB buckets: a message in flight (the transport's copy) is 32 KiB.
        exchange = SynchronousExchange(comm, algorithm="ring", fusion_threshold_bytes=1 << 16)
        flat = flatten_gradients(model)
        result = None

        def call():
            nonlocal result
            result = exchange.exchange(flatten_gradients(model, out=flat))

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
        assert np.array_equal(result.gradient, np.full(ELEMENTS, 1.5))
        return peak

    try:
        peak = launch(worker, 2)[0]
    finally:
        tracemalloc.stop()
    assert peak < ALLOWANCE
