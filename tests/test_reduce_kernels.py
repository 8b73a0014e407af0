"""Vectorised narrow-dtype reduction kernels (repro.comm.reduce_kernels).

Two contracts are under test:

* the single binary ``combine_into`` is **bit-identical** to NumPy's
  native narrow-dtype loop (both round the exact result to nearest even
  once), so swapping the kernel in can never change collective results;
* the widened accumulator matches the **float64 reference** within the
  narrow dtype's ulp bounds — it accumulates at float32 and narrows
  once, so it is *more* accurate than stepwise fp16, never less.
"""

import numpy as np
import pytest

from repro.comm import reduce_kernels
from repro.comm.reduce_ops import AVG, MAX, MIN, PROD, SUM, get_op
from repro.compression import get_codec


def _random(dtype, n=4096, seed=0, scale=1.0):
    values = np.random.default_rng(seed).standard_normal(n) * scale
    return values.astype(dtype)


def _ulp_bound(dtype, reference):
    """Absolute tolerance of one target-dtype ulp around ``reference``."""
    return np.maximum(
        np.spacing(np.abs(reference).astype(dtype)).astype(np.float64),
        float(np.finfo(dtype).tiny),
    )


class TestCombineInto:
    @pytest.mark.parametrize("op", [SUM, PROD, MAX, MIN, AVG])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_native_fp16_loop(self, op, seed):
        a = _random(np.float16, seed=seed)
        b = _random(np.float16, seed=seed + 100)
        kernel = a.copy()
        handled = reduce_kernels.combine_into(op.ufunc, kernel, b)
        assert handled
        native = op.ufunc(a.copy(), b)
        assert np.array_equal(
            kernel.view(np.uint16), native.view(np.uint16)
        ), "widen-combine-narrow must round exactly like the native loop"

    def test_special_values(self):
        a = np.array([np.inf, -np.inf, np.nan, 0.0, 65504.0, 6e-8], dtype=np.float16)
        b = np.array([1.0, 1.0, 1.0, -0.0, 65504.0, 6e-8], dtype=np.float16)
        kernel = a.copy()
        assert reduce_kernels.combine_into(np.add, kernel, b)
        native = np.add(a.copy(), b)
        assert np.array_equal(
            np.nan_to_num(kernel.astype(np.float64), nan=123.0),
            np.nan_to_num(native.astype(np.float64), nan=123.0),
        )

    def test_wide_dtype_falls_back(self):
        a = np.ones(8, dtype=np.float64)
        assert not reduce_kernels.combine_into(np.add, a, np.ones(8))

    def test_mixed_dtype_falls_back(self):
        a = np.ones(8, dtype=np.float16)
        assert not reduce_kernels.combine_into(np.add, a, np.ones(8, dtype=np.float64))

    def test_reduce_op_dispatches_by_dtype_at_call_time(self):
        op = get_op("sum")
        narrow = _random(np.float16)
        wide = narrow.astype(np.float64)
        other16 = _random(np.float16, seed=5)
        expected16 = np.add(narrow.copy(), other16)
        got16 = op.combine_into(narrow.copy(), other16)
        assert got16.dtype == np.float16
        assert np.array_equal(got16.view(np.uint16), expected16.view(np.uint16))
        # The same call on float64 keeps the plain in-place ufunc path.
        got64 = op.combine_into(wide.copy(), other16.astype(np.float64))
        assert got64.dtype == np.float64
        np.testing.assert_array_equal(got64, wide + other16.astype(np.float64))


class TestWidenedAccumulator:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_accumulate_within_ulp_of_float64_reference(self, k):
        out = _random(np.float16, seed=0)
        segments = [_random(np.float16, seed=i + 1) for i in range(k)]
        reference = out.astype(np.float64)
        for segment in segments:
            reference = reference + segment.astype(np.float64)

        result = reduce_kernels.reduce_segments(np.add, out.copy(), segments)
        assert result.dtype == np.float16
        finite = np.isfinite(reference)
        error = np.abs(result.astype(np.float64) - reference)[finite]
        # float32 accumulation then one fp16 rounding: within one fp16
        # ulp of the float64 reference plus float32's own drift.
        bound = 1.001 * _ulp_bound(np.float16, reference)[finite] + np.abs(
            reference[finite]
        ) * k * np.finfo(np.float32).eps
        assert np.all(error <= bound)

    @pytest.mark.parametrize("k", [3, 7])
    def test_more_accurate_than_stepwise_fp16(self, k):
        out = _random(np.float16, seed=0, scale=10.0)
        segments = [_random(np.float16, seed=i + 1, scale=10.0) for i in range(k)]
        reference = out.astype(np.float64)
        stepwise = out.copy()
        for segment in segments:
            reference = reference + segment.astype(np.float64)
            np.add(stepwise, segment, out=stepwise)
        widened = reduce_kernels.reduce_segments(np.add, out.copy(), segments)
        err_widened = float(
            np.mean(np.abs(widened.astype(np.float64) - reference))
        )
        err_stepwise = float(
            np.mean(np.abs(stepwise.astype(np.float64) - reference))
        )
        assert err_widened <= err_stepwise * 1.0001

    def test_reduce_op_accumulator_narrow_only(self):
        assert SUM.accumulator(np.ones(4, dtype=np.float16)) is not None
        assert SUM.accumulator(np.ones(4, dtype=np.float64)) is None

    def test_wide_out_reduces_in_place(self):
        out = np.ones(16, dtype=np.float64)
        segments = [np.full(16, 2.0), np.full(16, 3.0)]
        result = reduce_kernels.reduce_segments(np.add, out, segments)
        assert result is out
        np.testing.assert_array_equal(out, np.full(16, 6.0))


class TestDtypeSweepAgainstFloat64:
    """Equivalence across the dtype sweep the collectives actually see."""

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("opname", ["sum", "max", "min"])
    def test_combine_matches_reference_within_ulp(self, dtype, opname):
        op = get_op(opname)
        a = _random(dtype, seed=3)
        b = _random(dtype, seed=4)
        reference = op.fn(a.astype(np.float64), b.astype(np.float64))
        got = op.combine_into(a.copy(), b).astype(np.float64)
        bound = 1.001 * _ulp_bound(dtype, reference)
        assert np.all(np.abs(got - reference) <= bound)


class TestBf16Kernels:
    def test_widen_narrow_roundtrip_is_codec_wire_format(self):
        dense = np.random.default_rng(0).standard_normal(2048)
        codec = get_codec("bf16")
        encoded = codec.encode(dense)
        bits = reduce_kernels.bf16_narrow(dense.astype(np.float32))
        assert np.array_equal(np.asarray(encoded.payload), bits)
        np.testing.assert_array_equal(
            codec.decode(encoded),
            reduce_kernels.bf16_widen(bits, dtype=np.float64),
        )

    def test_narrow_rounds_to_nearest_even(self):
        # bf16 keeps 7 mantissa bits: 1 + 2^-7 is exactly representable,
        # 1 + 2^-8 is halfway and must round to even (down to 1.0).
        values = np.array([1.0 + 2.0**-7, 1.0 + 2.0**-8], dtype=np.float32)
        decoded = reduce_kernels.bf16_widen(reduce_kernels.bf16_narrow(values))
        assert decoded[0] == np.float32(1.0 + 2.0**-7)
        assert decoded[1] == np.float32(1.0)

    def test_widen_within_ulp_of_float64(self):
        dense = np.random.default_rng(1).standard_normal(2048)
        wire = reduce_kernels.bf16_narrow(dense)
        decoded = reduce_kernels.bf16_widen(wire, dtype=np.float64)
        # bf16 has an 8-bit significand: relative error <= 2^-9 + RNE.
        assert np.max(np.abs(decoded - dense) / np.abs(dense)) <= 2.0**-8


class TestAccumulateWire:
    def test_fp16_wire_matches_decode_then_add(self):
        acc = np.random.default_rng(0).standard_normal(1024)
        wire = _random(np.float16, n=1024, seed=9)
        expected = acc + wire.astype(np.float64)
        got = acc.copy()
        assert reduce_kernels.accumulate_wire(got, wire)
        np.testing.assert_array_equal(got, expected)

    def test_bit_pattern_wire_is_rejected(self):
        acc = np.zeros(8)
        assert not reduce_kernels.accumulate_wire(acc, np.zeros(8, dtype=np.uint16))
        np.testing.assert_array_equal(acc, np.zeros(8))


class TestCollectiveIntegration:
    """The kernels observed through the public collective API."""

    @pytest.mark.parametrize("algorithm", ["ring", "recursive_doubling"])
    def test_fp16_allreduce_replicas_agree_and_track_reference(self, algorithm):
        from repro.collectives.sync import allreduce
        from repro.comm import launch

        n, size = 1024, 4
        inputs = [_random(np.float16, n=n, seed=r) for r in range(size)]
        reference = np.sum([x.astype(np.float64) for x in inputs], axis=0)

        def worker(comm):
            return allreduce(comm, inputs[comm.rank], algorithm=algorithm)

        results = launch(worker, size, backend="thread")
        for result in results:
            assert result.dtype == np.float16
            assert np.array_equal(
                result.view(np.uint16), results[0].view(np.uint16)
            ), "replicas must agree bit-for-bit"
        finite = np.isfinite(reference)
        error = np.abs(results[0].astype(np.float64) - reference)[finite]
        # Each intermediate combine rounds at the magnitude of the
        # *partial* sum (which cancellation can make far larger than the
        # final value), so the bound uses the cancellation-free scale.
        scale = np.sum([np.abs(x.astype(np.float64)) for x in inputs], axis=0)
        bound = (size + 1) * _ulp_bound(np.float16, scale)[finite]
        assert np.all(error <= bound)

    def test_fp16_tree_reduce_tracks_float64_reference(self):
        from repro.collectives.sync import reduce
        from repro.comm import launch

        n, size = 512, 8
        inputs = [_random(np.float16, n=n, seed=10 + r) for r in range(size)]
        reference = np.sum([x.astype(np.float64) for x in inputs], axis=0)

        def worker(comm):
            return reduce(comm, inputs[comm.rank], op="sum", root=0)

        results = launch(worker, size, backend="thread")
        got = results[0].astype(np.float64)
        finite = np.isfinite(reference)
        scale = np.sum([np.abs(x.astype(np.float64)) for x in inputs], axis=0)
        bound = (size + 1) * _ulp_bound(np.float16, scale)[finite]
        assert np.all(np.abs(got - reference)[finite] <= bound)
        assert all(r is None for r in results[1:])

    def test_compressed_ring_unchanged_by_fast_path(self):
        """allreduce_compressed_ring's fused fp16 hop == decode-then-add."""
        from repro.collectives.sync import allreduce_compressed_ring
        from repro.comm import launch

        n, size = 2048, 4
        inputs = [
            np.random.default_rng(20 + r).standard_normal(n) for r in range(size)
        ]
        codec = get_codec("fp16")
        # Reference: the documented schedule by hand — encoded hops,
        # dense accumulation, averaged chunks encoded once.
        def worker(comm):
            return allreduce_compressed_ring(comm, inputs[comm.rank], codec)

        results = launch(worker, size, backend="thread")
        for result in results[1:]:
            np.testing.assert_array_equal(result, results[0])
        dense_avg = np.mean(inputs, axis=0)
        # fp16 wire: within a few fp16 ulp of the dense average.
        bound = (size + 2) * _ulp_bound(np.float16, dense_avg)
        assert np.all(np.abs(results[0] - dense_avg) <= bound)
