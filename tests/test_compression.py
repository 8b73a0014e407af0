"""Tests of the gradient-compression subsystem (:mod:`repro.compression`).

Covers the codec registry, per-codec round-trip properties (exactness
for lossless paths, bounded error and residual accounting for lossy
ones), error feedback, the exchange integration on the thread backend,
the simtime cost-model terms, the per-codec autotuner and the
``TrainingConfig`` plumbing.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compression import (
    BucketCompressor,
    EncodedGradient,
    GradientCodec,
    available_codecs,
    get_codec,
    parse_codec_spec,
)
from repro.simtime.collective_model import (
    NO_COMPRESSION,
    CompressionModel,
    partial_round,
    synchronous_allreduce_latencies,
)
from repro.simtime.network import DEFAULT_NETWORK, LogGPParams
from repro.training.config import TrainingConfig
from repro.tuning.autotune import predict_exchange_time


def _walk(nbytes, size, algorithm="ring", params=DEFAULT_NETWORK, compression=None, **knobs):
    """One bucket of the exchange's schedule, walked at 8 bytes per element."""
    return predict_exchange_time(
        params, size, nbytes, algorithm, None, compression=compression, **knobs
    )

ALL_CODECS = ["none", "fp16", "bf16", "int8", "topk"]
LOSSY_CODECS = ["fp16", "bf16", "int8", "topk"]


def _gradient(n=4096, seed=0, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(n)


# ---------------------------------------------------------------------------
# registry and spec parsing
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert set(ALL_CODECS) <= set(available_codecs())

    def test_unknown_codec_raises(self):
        with pytest.raises(ValueError, match="unknown compression codec"):
            get_codec("gzip")

    def test_none_resolves_to_none_codec(self):
        assert get_codec(None).name == "none"
        assert get_codec("none").name == "none"

    def test_instances_are_fresh(self):
        # Codecs carry per-use configuration, so resolution must not
        # return shared singletons (unlike comm backends).
        assert get_codec("topk") is not get_codec("topk")

    def test_codec_instance_passthrough(self):
        codec = get_codec("fp16")
        assert get_codec(codec) is codec
        with pytest.raises(ValueError, match="options"):
            get_codec(codec, error_feedback=True)

    def test_spec_parsing(self):
        assert parse_codec_spec("fp16") == ("fp16", {})
        name, options = parse_codec_spec("topk:ratio=0.05,error_feedback=off")
        assert name == "topk"
        assert options == {"ratio": 0.05, "error_feedback": False}
        assert parse_codec_spec("topk:k=32")[1] == {"k": 32}

    def test_malformed_spec_raises(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_codec_spec("topk:ratio")
        with pytest.raises(ValueError, match="non-empty"):
            parse_codec_spec("")

    def test_keyword_options_override_inline(self):
        codec = get_codec("topk:ratio=0.5", ratio=0.25)
        assert codec.ratio == 0.25

    def test_unknown_options_rejected(self):
        with pytest.raises(ValueError, match="options"):
            get_codec("fp16:volume=11")

    def test_invalid_topk_options(self):
        with pytest.raises(ValueError, match="ratio"):
            get_codec("topk", ratio=0.0)
        with pytest.raises(ValueError, match="ratio"):
            get_codec("topk", ratio=1.5)
        with pytest.raises(ValueError, match="k must be"):
            get_codec("topk", k=0)

    def test_lossless_error_feedback_rejected(self):
        with pytest.raises(ValueError, match="lossless"):
            get_codec("none", error_feedback=True)

    def test_describe_mentions_configuration(self):
        assert "ratio=0.05" in get_codec("topk:ratio=0.05").describe()
        assert "fp16" in get_codec("fp16").describe()


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------
class TestRoundTrips:
    @pytest.mark.parametrize("seed", range(5))
    def test_none_is_bit_exact(self, seed):
        codec = get_codec("none")
        x = _gradient(seed=seed)
        out = codec.decode(codec.encode(x))
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 100.0])
    def test_fp16_relative_error_bound(self, seed, scale):
        codec = get_codec("fp16")
        x = _gradient(seed=seed, scale=scale)
        out = codec.decode(codec.encode(x))
        # binary16: 10-bit mantissa -> one-ulp relative error bound of
        # 2^-10, plus one subnormal ulp (2^-24) of absolute slack for
        # values that flush below the normal range.
        assert np.all(np.abs(out - x) <= np.abs(x) * 2.0 ** -10 + 2.0 ** -24)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_bf16_relative_error_bound(self, seed, scale):
        codec = get_codec("bf16")
        x = _gradient(seed=seed, scale=scale)
        out = codec.decode(codec.encode(x))
        # bfloat16: 8-bit mantissa -> one-ulp bound of 2^-8 (the encode
        # double-rounds through float32, so the half-ulp bound of a
        # single rounding does not apply).
        assert np.all(np.abs(out - x) <= np.abs(x) * 2.0 ** -8 + 1e-300)

    def test_bf16_survives_fp16_overflow_range(self):
        codec = get_codec("bf16")
        x = np.array([1e5, -7e4, 1e30])
        out = codec.decode(codec.encode(x))
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out - x) <= np.abs(x) * 2.0 ** -8)

    @pytest.mark.parametrize("seed", range(5))
    def test_int8_absolute_error_bound(self, seed):
        codec = get_codec("int8")
        x = _gradient(seed=seed)
        encoded = codec.encode(x)
        codes, scale = codec.split_payload(encoded.payload)
        assert codes.dtype == np.int8
        assert scale == pytest.approx(np.max(np.abs(x)) / 127.0)
        out = codec.decode(encoded)
        assert np.all(np.abs(out - x) <= scale / 2 + 1e-12)

    def test_int8_all_zero_bucket(self):
        codec = get_codec("int8")
        out = codec.decode(codec.encode(np.zeros(16)))
        assert np.array_equal(out, np.zeros(16))

    def test_topk_keeps_largest_magnitudes(self):
        codec = get_codec("topk", k=3, error_feedback=False)
        x = np.array([0.1, -5.0, 0.2, 3.0, -0.3, 4.0])
        out = codec.decode(codec.encode(x))
        expected = np.array([0.0, -5.0, 0.0, 3.0, 0.0, 4.0])
        assert np.array_equal(out, expected)

    def test_topk_ratio_keeps_ceil_fraction(self):
        codec = get_codec("topk", ratio=0.01, error_feedback=False)
        encoded = codec.encode(_gradient(1000))
        idx, values = codec.split_payload(encoded.payload, encoded.num_elements)
        assert len(idx) == 10
        assert idx.dtype == np.int32 and values.dtype == np.float32
        assert encoded.nbytes == 10 * (4 + 4)

    def test_topk_full_ratio_is_exact_in_float32(self):
        codec = get_codec("topk", ratio=1.0, error_feedback=False)
        x = np.arange(1.0, 9.0)
        assert np.array_equal(codec.decode(codec.encode(x)), x)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_wire_bytes_matches_encoded_size(self, name):
        codec = get_codec(name)
        x = _gradient(2048)
        assert codec.encode(x).nbytes == codec.wire_bytes(x.size)

    @pytest.mark.parametrize("name", LOSSY_CODECS)
    def test_lossy_codecs_shrink_the_wire(self, name):
        codec = get_codec(name)
        assert codec.wire_bytes_per_element < 8.0

    def test_empty_bucket_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            get_codec("fp16").encode(np.array([]))

    def test_cross_codec_payload_rejected(self):
        fp16 = get_codec("fp16")
        encoded = fp16.encode(_gradient(8))
        with pytest.raises(ValueError, match="encoded by"):
            get_codec("bf16").decode(encoded)


REDUCE_CLOSED_CODECS = [
    name for name in available_codecs() if get_codec(name).reduce_closed
]


class TestReduceClosedContract:
    """Reduce-closed means encode is ``astype(wire_dtype)`` and decode is
    ``astype(float64)``: the ring collectives rely on exactly that when
    they carry the codec as a wire dtype instead of calling it."""

    def test_none_and_fp16_are_reduce_closed(self):
        assert {"none", "fp16"} <= set(REDUCE_CLOSED_CODECS)

    @pytest.mark.parametrize("name", REDUCE_CLOSED_CODECS)
    @given(values=st.lists(
        st.one_of(st.floats(), st.floats(width=32), st.floats(width=16)),
        min_size=1, max_size=64,
    ))
    @example(values=[
        np.inf, -np.inf, 0.0, -0.0, 2.0**-24, -(2.0**-20), 3e-8, 5e-324,
        65504.0, 65520.0, -1e300,
    ])
    @settings(max_examples=60, deadline=None)
    def test_encode_and_decode_are_casts(self, name, values):
        codec = get_codec(name)
        dense = np.array(values, dtype=np.float64)
        with np.errstate(over="ignore"):  # fp16 overflows to inf, as astype does
            encoded = codec.encode(dense)
            cast = dense.astype(codec.wire_dtype)
        payload = np.asarray(encoded.payload)
        assert payload.dtype == codec.wire_dtype
        assert payload.tobytes() == cast.tobytes()
        decoded = codec.decode(encoded)
        assert decoded.dtype == np.float64
        assert decoded.tobytes() == payload.astype(np.float64).tobytes()


# ---------------------------------------------------------------------------
# error feedback
# ---------------------------------------------------------------------------
class TestErrorFeedback:
    @pytest.mark.parametrize("spec", ["topk:ratio=0.1", "int8:error_feedback=on"])
    def test_residual_accounting_is_exact(self, spec):
        """decode(encode(c)) + residual == compensated gradient, exactly."""
        codec = get_codec(spec)
        assert codec.error_feedback
        compressor = BucketCompressor(codec)
        x = _gradient(512, seed=1)
        encoded = compressor.encode_bucket(0, x)
        decoded = compressor.decode_bucket(encoded)
        np.testing.assert_allclose(
            decoded + compressor._residuals[0], x, rtol=0, atol=1e-12
        )

    def test_residual_reinjected_next_step(self):
        codec = get_codec("topk", ratio=0.25)
        compressor = BucketCompressor(codec)
        x = _gradient(64, seed=2)
        first = compressor.decode_bucket(compressor.encode_bucket(0, x))
        carried = x - first
        second_encoded = compressor.encode_bucket(0, x)
        second = compressor.decode_bucket(second_encoded)
        np.testing.assert_allclose(
            second + compressor._residuals[0], x + carried, rtol=0, atol=1e-12
        )

    def test_no_mass_lost_over_many_steps(self):
        """Sum of decoded contributions + final residual == sum of inputs."""
        codec = get_codec("topk", ratio=0.05)
        compressor = BucketCompressor(codec)
        total_in = np.zeros(256)
        total_out = np.zeros(256)
        for step in range(20):
            x = _gradient(256, seed=step)
            total_in += x
            total_out += compressor.decode_bucket(compressor.encode_bucket(0, x))
        np.testing.assert_allclose(
            total_out + compressor._residuals[0], total_in, rtol=0, atol=1e-9
        )

    def test_residuals_are_per_bucket(self):
        codec = get_codec("topk", ratio=0.1)
        compressor = BucketCompressor(codec)
        compressor.encode_bucket(0, _gradient(64, seed=3))
        compressor.encode_bucket(1, _gradient(64, seed=4))
        assert set(compressor._residuals) == {0, 1}
        assert compressor.residual_norm() > 0

    def test_disabled_error_feedback_keeps_no_state(self):
        compressor = BucketCompressor(get_codec("fp16"))
        compressor.encode_bucket(0, _gradient(64))
        assert compressor._residuals == {}
        assert compressor.residual_norm() == 0.0

    def test_bytes_encoded_accumulates(self):
        compressor = BucketCompressor(get_codec("fp16"))
        compressor.encode_bucket(0, _gradient(64))
        compressor.encode_bucket(1, _gradient(64))
        assert compressor.bytes_encoded == 2 * 64 * 2


# ---------------------------------------------------------------------------
# exchange integration (thread backend)
# ---------------------------------------------------------------------------
class TestExchangeIntegration:
    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_sync_exchange_averages_correctly(self, codec):
        from repro.comm import launch
        from repro.training.exchange import SynchronousExchange

        spec = "topk:ratio=1.0" if codec == "topk" else codec

        def worker(comm):
            exchange = SynchronousExchange(
                comm,
                algorithm="ring",
                fusion_threshold_bytes=4 * 1024,
                compression=spec,
            )
            # Constant buckets: every codec here is exact on constants.
            result = exchange.exchange(np.full(4096, comm.rank + 1.0))
            return float(np.max(np.abs(result.gradient - 2.5))), result.wire_bytes

        for err, wire in launch(worker, 4):
            assert err < 1e-9
            assert wire > 0

    def test_sync_exchange_wire_bytes_accounting(self):
        from repro.comm import launch
        from repro.training.exchange import SynchronousExchange

        def worker(comm, spec):
            exchange = SynchronousExchange(comm, compression=spec)
            result = exchange.exchange(np.ones(1024))
            return result.wire_bytes

        assert launch(worker, 2, None) == [1024 * 8] * 2
        assert launch(worker, 2, "fp16") == [1024 * 2] * 2
        assert launch(worker, 2, "int8") == [1024 + 8] * 2

    def test_compressed_threshold_budgets_encoded_bytes(self):
        from repro.comm import launch
        from repro.training.exchange import SynchronousExchange

        def worker(comm, spec):
            exchange = SynchronousExchange(
                comm, fusion_threshold_bytes=8 * 1024, compression=spec
            )
            result = exchange.exchange(np.ones(4096))
            return len(result.bucket_waits)

        # Dense: 4096 * 8 B / 8 KiB = 4 buckets; fp16 packs 4x more
        # elements per wire buffer.
        assert launch(worker, 2, None) == [4, 4]
        assert launch(worker, 2, "fp16") == [1, 1]

    def test_sync_exchange_error_feedback_catches_up(self):
        """With EF, repeated top-k exchanges recover the full mean."""
        from repro.comm import launch
        from repro.training.exchange import SynchronousExchange

        def worker(comm):
            exchange = SynchronousExchange(
                comm, compression="topk:ratio=0.25"
            )
            rng = np.random.default_rng(7)  # same gradient on every rank
            x = rng.standard_normal(64)
            total = np.zeros(64)
            for _ in range(40):
                total += exchange.exchange(x).gradient
            # Sum of decoded averages approaches 40 * x (all ranks equal).
            return float(np.max(np.abs(total - 40 * x)))

        for drift in launch(worker, 2):
            # Without error feedback the dropped 75% of coordinates would
            # leave a drift of ~40 * |x| ~ 40; with EF only the last few
            # steps' residuals are outstanding.
            assert drift < 5.0

    @pytest.mark.parametrize("codec", ["fp16", "topk:ratio=1.0"])
    def test_partial_exchange_with_compression(self, codec):
        from repro.comm import launch
        from repro.training.exchange import PartialExchange

        def worker(comm):
            exchange = PartialExchange(comm, 512, mode="solo", compression=codec)
            values = []
            for _ in range(3):
                result = exchange.exchange(np.ones(512))
                values.append(float(result.gradient[0]))
            exchange.close()
            # Stale accumulation semantics: each round's average is a
            # multiple of 1/P of some number of accumulated rounds.
            return all(0.0 <= v <= 3.0 + 1e-6 for v in values)

        assert all(launch(worker, 4, timeout=120))

    def test_compressed_ring_survives_tiny_buckets(self):
        """Buckets smaller than the world leave some ranks empty chunks."""
        from repro.comm import launch
        from repro.training.exchange import SynchronousExchange

        def worker(comm):
            exchange = SynchronousExchange(comm, compression="fp16")
            result = exchange.exchange(np.full(2, comm.rank + 1.0))
            return float(np.max(np.abs(result.gradient - 2.5)))

        assert max(launch(worker, 4, timeout=60)) < 1e-9

    def test_reduce_closed_model_pins_the_ring_schedule(self):
        """The cost model scores what the exchange runs: the compressed
        ring, whatever allreduce algorithm the caller configured."""
        model = CompressionModel(name="fp16", wire_scale=0.25)
        nbytes = 4 << 20
        times = {
            algo: _walk(nbytes, 8, algo, compression=model)
            for algo in ("ring", "recursive_doubling", "rabenseifner")
        }
        assert times["ring"] == times["recursive_doubling"] == times["rabenseifner"]

    def test_build_exchange_threads_compression(self):
        from repro.comm import launch
        from repro.training.exchange import build_exchange

        def worker(comm):
            exchange = build_exchange(
                comm, 256, "sync", compression="fp16"
            )
            return exchange.codec.name

        assert launch(worker, 2) == ["fp16", "fp16"]

    def test_horovod_negotiated_order_with_compression(self):
        from repro.comm import launch
        from repro.training.exchange import SynchronousExchange

        def worker(comm):
            exchange = SynchronousExchange(
                comm,
                style="horovod",
                fusion_threshold_bytes=2 * 1024,
                compression="int8",
            )
            result = exchange.exchange(np.full(2048, comm.rank + 1.0))
            return float(np.max(np.abs(result.gradient - 1.5)))

        assert max(launch(worker, 2)) < 1e-9


    @pytest.mark.parametrize("spec, digest", [
        ("topk:ratio=0.25", "8e4291d6ffd021f9c93b217b215b50c64306dab072855298cd8849fece48d848"),
        ("int8", "13bd49bdaba1ed85d264d277e88f946945fae68915121f097dc3c7c7173bd62a"),
        ("bf16", "85fd7da8251f749de49d1a04e4a99bc0f3f19cb5fc83550832bad75d3694fbdc"),
    ])
    def test_decode_reduce_encode_results_are_frozen(self, spec, digest):
        """SHA-256 of every rank's two exchange results at P = 3 (two
        buckets, error feedback on for topk), frozen from the object
        allgather the ``uint8`` payload table replaced."""
        import hashlib

        from repro.comm import launch
        from repro.training.exchange import SynchronousExchange

        def worker(comm):
            rng = np.random.default_rng(100 + comm.rank)
            exchange = SynchronousExchange(
                comm, algorithm="ring", fusion_threshold_bytes=8 * 20, compression=spec
            )
            return b"".join(
                exchange.exchange(rng.normal(scale=2.0, size=37)).gradient.tobytes()
                for _ in range(2)
            )

        results = launch(worker, 3, backend="thread")
        assert hashlib.sha256(b"".join(results)).hexdigest() == digest


# ---------------------------------------------------------------------------
# simtime cost model
# ---------------------------------------------------------------------------
class TestCompressionModel:
    def test_codec_cost_model_conversion(self):
        model = get_codec("fp16").cost_model()
        assert model.name == "fp16"
        assert model.wire_scale == pytest.approx(0.25)
        assert model.reduce_closed
        sparse = get_codec("topk:ratio=0.01").cost_model()
        assert sparse.wire_scale == pytest.approx(0.01, rel=0.05)
        assert not sparse.reduce_closed

    def test_validation(self):
        with pytest.raises(ValueError, match="wire_scale"):
            CompressionModel(wire_scale=0.0)
        with pytest.raises(ValueError, match="wire_scale"):
            CompressionModel(wire_scale=float("inf"))
        with pytest.raises(ValueError, match="encode_seconds_per_byte"):
            CompressionModel(encode_seconds_per_byte=-1.0)

    def test_identity_model_matches_no_compression(self):
        nbytes = 1 << 20
        base = _walk(nbytes, 8)
        assert _walk(nbytes, 8, compression=NO_COMPRESSION) == base
        assert NO_COMPRESSION.is_identity

    def test_reduce_closed_scales_wire_bytes(self):
        """A codec shrinks the bytes on the wire; the ring still combines
        the dense float64 values, so gamma is charged on dense bytes."""
        nbytes = 4 << 20
        model = CompressionModel(name="fp16", wire_scale=0.25)
        no_gamma = LogGPParams(gamma=0.0)
        compressed = _walk(nbytes, 8, params=no_gamma, compression=model)
        quarter = _walk(nbytes // 4, 8, params=no_gamma)
        assert compressed == pytest.approx(quarter)
        assert _walk(nbytes, 8, compression=model) > _walk(nbytes // 4, 8)

    def test_transform_overhead_is_charged(self):
        nbytes = 4 << 20
        free = CompressionModel(name="fp16", wire_scale=0.25)
        costly = CompressionModel(
            name="fp16", wire_scale=0.25,
            encode_seconds_per_byte=1e-9, decode_seconds_per_byte=1e-9,
        )
        delta = _walk(nbytes, 8, compression=costly) - _walk(nbytes, 8, compression=free)
        assert delta == pytest.approx(2e-9 * nbytes)

    def test_non_reduce_closed_uses_gather_model(self):
        nbytes = 1 << 20
        model = CompressionModel(name="topk", wire_scale=0.01, reduce_closed=False)
        params = DEFAULT_NETWORK
        expected = (
            params.collective_overhead
            + 7 * (params.alpha + nbytes * 0.01 * params.beta)
            + 7 * nbytes * params.gamma
        )
        assert _walk(nbytes, 8, compression=model) == pytest.approx(expected)

    def test_exchange_price_with_compression(self):
        """The threshold budgets wire bytes: 4 MiB of float64 under fp16
        is one 1 MiB wire bucket, priced as one compressed allreduce."""
        model = CompressionModel(name="fp16", wire_scale=0.25)
        compressed = predict_exchange_time(
            DEFAULT_NETWORK, 8, 4 << 20, "ring", 1 << 20, compression=model
        )
        assert compressed == _walk(4 << 20, 8, compression=model)
        sparse = CompressionModel(name="topk", wire_scale=0.01, reduce_closed=False)
        assert predict_exchange_time(
            DEFAULT_NETWORK, 8, 4 << 20, "ring", 1 << 20, compression=sparse
        ) > 0

    def test_latency_functions_take_the_walked_price(self):
        """A codec reaches the latency models only through the walk of
        the variant's own schedule."""
        arrivals = np.array([0.0, 0.001, 0.002, 0.003])
        model = CompressionModel(name="fp16", wire_scale=0.25)
        nbytes = 4 << 20
        sync_dense = synchronous_allreduce_latencies(arrivals, _walk(nbytes, 4))
        sync_fp16 = synchronous_allreduce_latencies(
            arrivals, _walk(nbytes, 4, compression=model)
        )
        assert sync_fp16.completion_time < sync_dense.completion_time
        solo = partial_round(arrivals, 0, _walk(nbytes, 4, compression=model, mode="solo"))
        assert solo.completion_time < sync_fp16.completion_time


# ---------------------------------------------------------------------------
# autotuner
# ---------------------------------------------------------------------------
class TestAutotuneWithCompression:
    def test_plan_records_codec(self):
        from repro.tuning.autotune import autotune

        plan = autotune(DEFAULT_NETWORK, 8, 4 << 20, compression="fp16")
        assert plan.compression == "fp16"
        assert plan.speedup >= 1.0  # baseline under the same codec

    def test_plan_defaults_to_uncompressed(self):
        from repro.tuning.autotune import autotune

        plan = autotune(DEFAULT_NETWORK, 8, 4 << 20)
        assert plan.compression == "none"

    def test_plan_roundtrips_through_dict(self):
        from repro.tuning.autotune import TunedPlan, autotune

        plan = autotune(DEFAULT_NETWORK, 4, 1 << 20, compression="topk:ratio=0.1")
        clone = TunedPlan.from_dict(plan.to_dict())
        assert clone.compression == "topk"
        assert clone.fusion_threshold_bytes == plan.fusion_threshold_bytes
        # The codec's wire scale survives serialisation, so the encoded
        # bucket count does not silently fall back to the dense one.
        assert clone.num_buckets == plan.num_buckets

    def test_sparse_codec_collapses_buckets(self):
        from repro.collectives.topology import HostTopology
        from repro.training.exchange import exchange_schedule

        model = CompressionModel(name="topk", wire_scale=0.01, reduce_closed=False)
        flat = HostTopology.single_host(4)
        dense = exchange_schedule(flat, fusion_threshold_bytes=64 * 1024).cut(1 << 19)
        sparse = exchange_schedule(
            flat, codec=model, fusion_threshold_bytes=64 * 1024
        ).cut(1 << 19)
        assert sparse.num_buckets < dense.num_buckets


# ---------------------------------------------------------------------------
# TrainingConfig plumbing
# ---------------------------------------------------------------------------
class TestConfigPlumbing:
    def test_validate_accepts_codecs(self):
        for spec in (None, "none", "fp16", "topk:ratio=0.05"):
            TrainingConfig(compression=spec).validate()

    def test_validate_rejects_unknown_codec(self):
        with pytest.raises(ValueError, match="unknown compression codec"):
            TrainingConfig(compression="gzip").validate()

    def test_validate_rejects_bad_options(self):
        with pytest.raises(ValueError, match="ratio"):
            TrainingConfig(compression="topk:ratio=2.0").validate()

    def test_describe_mentions_codec(self):
        config = TrainingConfig(compression="fp16")
        assert "compression=fp16" in config.describe()
        assert "compression" not in TrainingConfig().describe()

    def test_train_distributed_with_compression(self):
        from repro.data.hyperplane import HyperplaneDataset
        from repro.nn.losses import MSELoss
        from repro.nn.models import HyperplaneMLP
        from repro.training.runner import train_distributed

        dataset = HyperplaneDataset(num_examples=64, input_dim=8, seed=0)

        def model_factory():
            return HyperplaneMLP(input_dim=8, seed=1)

        config = TrainingConfig(
            world_size=2,
            epochs=1,
            global_batch_size=16,
            mode="sync",
            compression="fp16",
            model_sync_period_epochs=None,
        )
        result = train_distributed(
            model_factory, dataset, MSELoss(), config, classification=False
        )
        assert len(result.epochs) == 1
        assert np.isfinite(result.epochs[-1].train_loss)

    def test_topk_error_feedback_converges_near_uncompressed(self):
        """Fig. 10's hyperplane task, sync SGD at P = 4: top-k with error
        feedback ends within 5 % of the uncompressed final eval loss."""
        from repro.data.hyperplane import HyperplaneDataset
        from repro.nn.losses import MSELoss
        from repro.nn.models import HyperplaneMLP
        from repro.training.runner import train_distributed

        dataset = HyperplaneDataset(
            num_examples=2048, input_dim=256, noise_std=1.0, seed=0
        )
        train, val = dataset.split(validation_fraction=0.2, seed=0)

        def final_loss(spec):
            config = TrainingConfig(
                world_size=4,
                epochs=8,
                global_batch_size=256,
                learning_rate=0.5,
                mode="sync",
                compression=spec,
                model_sync_period_epochs=None,
                seed=0,
            )
            result = train_distributed(
                lambda: HyperplaneMLP(input_dim=256, seed=1), train, MSELoss(),
                config, eval_dataset=val, classification=False,
            )
            return float(result.epochs[-1].eval_loss)

        assert final_loss("topk") <= final_loss(None) * 1.05

    def test_runner_projection_prices_the_fp16_ring(self):
        """A synchronous fp16 run configured ``recursive_doubling`` rides
        the ring (the codec is its ring phases' wire dtype), so its
        projection prices the ring at 2 bytes per parameter plus the
        codec's encode and decode of the 4-byte dense gradient: the walk
        of the run's schedule, replayed over the run's own durations."""
        from repro.data.hyperplane import HyperplaneDataset
        from repro.imbalance.cost_model import FixedCostModel
        from repro.nn.losses import MSELoss
        from repro.nn.models import HyperplaneMLP
        from repro.simtime import StepTimeline, project_training_time
        from repro.simtime.collective_model import collective_time
        from repro.training.runner import GRADIENT_BYTES_PER_PARAMETER, train_distributed

        dataset = HyperplaneDataset(num_examples=64, input_dim=4096, seed=0)

        def model_factory():
            return HyperplaneMLP(input_dim=4096, seed=1)

        config = TrainingConfig(
            world_size=2, epochs=1, global_batch_size=16, mode="sync",
            allreduce_algorithm="recursive_doubling", compression="fp16",
            cost_model=FixedCostModel(0.01), model_sync_period_epochs=None, seed=3,
        )
        result = train_distributed(
            model_factory, dataset, MSELoss(), config, classification=False
        )
        n = model_factory().num_parameters()
        width = GRADIENT_BYTES_PER_PARAMETER
        fp16 = get_codec("fp16")
        cost = predict_exchange_time(
            DEFAULT_NETWORK, 2, n * width, "recursive_doubling", None, 1,
            fp16.cost_model(), bytes_per_element=width,
        )
        ring = collective_time("allreduce", "ring", 2, n, 1, DEFAULT_NETWORK, None, None, width, 2.0)
        transform = n * width * (fp16.encode_seconds_per_byte + fp16.decode_seconds_per_byte)
        assert cost == ring + transform
        replayed = project_training_time(
            StepTimeline(result.step_durations), "sync", exchange_cost=cost
        )
        assert np.array_equal(
            result.projection.step_completion_times, replayed.step_completion_times
        )


class TestCliCompression:
    def test_rejects_unknown_codec(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["fusion", "--compression", "gzip"])
        assert "unknown compression codec" in capsys.readouterr().err

    def test_fig9_with_compression_runs(self, capsys):
        from repro.cli import main

        assert main(["fig9", "--world-size", "4", "--iterations", "2",
                     "--compression", "fp16"]) == 0
        assert "Solo" in capsys.readouterr().out
