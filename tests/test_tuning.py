"""Tests for the calibrated LogGP + auto-tuned fusion subsystem.

Covers the tuning PR: parameter validation on construction, element-width
consistency of the gradient bucketer (property-style round trips), the
least-squares calibration fit (synthetic recovery), the profile cache,
the fusion grid search, and the resolution of ``"auto"`` config values
through the stack.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import available_backends, launch
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.simtime.collective_model import allreduce_time, collective_time
from repro.simtime.network import DEFAULT_NETWORK, LogGPParams
from repro.training import GradientBucketer
from repro.training.config import TrainingConfig
from repro.training.exchange import PartialExchange, ShardedExchange, SynchronousExchange
from repro.tuning import (
    CalibratedProfile,
    CalibrationSample,
    ProfileCacheError,
    TunedPlan,
    autotune,
    calibrate,
    fit_loggp,
    load_profile,
    profile_path,
    resolve_auto_fusion,
)
from repro.tuning.autotune import (
    DEFAULT_FIXED_THRESHOLD_BYTES,
    predict_exchange_time,
    tune_with_profile,
)
from repro.tuning.calibration import max_relative_error, predict_sample


# ---------------------------------------------------------------------------
# satellite: LogGPParams validates on construction
# ---------------------------------------------------------------------------
class TestLogGPParamsValidation:
    def test_defaults_are_valid(self):
        LogGPParams().validate()

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "collective_overhead"])
    @pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf")])
    def test_invalid_values_rejected_at_construction(self, field, bad):
        """Regression: validate() used to exist but was never called, so
        negative or NaN parameters flowed straight into allreduce_time."""
        with pytest.raises(ValueError, match=field):
            LogGPParams(**{field: bad})

    def test_zero_parameters_allowed(self):
        params = LogGPParams(alpha=0.0, beta=0.0, gamma=0.0, collective_overhead=0.0)
        assert allreduce_time(1024, 4, "ring", params) == 0.0

    def test_numpy_scalars_accepted(self):
        LogGPParams(alpha=np.float32(2e-6), beta=np.float64(1e-10)).validate()
        with pytest.raises(ValueError):
            LogGPParams(alpha=np.float32("nan"))
        with pytest.raises(ValueError):
            LogGPParams(alpha="2e-6")


# ---------------------------------------------------------------------------
# satellite: missing cost-model input guards
# ---------------------------------------------------------------------------
class TestCostModelGuards:
    def test_allreduce_time_rejects_negative_nbytes(self):
        with pytest.raises(ValueError, match="non-negative"):
            allreduce_time(-1, 4)

    def test_collective_time_rejects_bad_size_chunks_and_length(self):
        with pytest.raises(ValueError, match="size must be >= 1"):
            collective_time("allreduce", "ring", 0, 128, 1, DEFAULT_NETWORK)
        with pytest.raises(ValueError, match="n_chunks must be >= 1"):
            collective_time("allreduce", "ring", 4, 128, 0, DEFAULT_NETWORK)
        with pytest.raises(ValueError, match="non-negative"):
            collective_time("allreduce", "ring", 4, -4, 1, DEFAULT_NETWORK)

    def test_valid_calls_unchanged(self):
        assert (
            collective_time("allreduce", "ring", 1, 128, 1, DEFAULT_NETWORK)
            == DEFAULT_NETWORK.collective_overhead
        )
        assert collective_time("allreduce", "ring", 4, 0, 1, DEFAULT_NETWORK) > 0
        assert predict_exchange_time(DEFAULT_NETWORK, 4, 1024) > 0


# ---------------------------------------------------------------------------
# satellite: bucketer element width consistency + round-trip properties
# ---------------------------------------------------------------------------
class TestBucketerBytesPerElement:
    def test_from_flat_budgets_the_element_width(self):
        """The threshold is divided by the element width the bucketer was
        built for, not a hardcoded 8 bytes."""
        b = GradientBucketer.from_flat(12, fusion_threshold_bytes=12, bytes_per_element=3)
        assert [spec.num_elements for spec in b.buckets] == [4, 4, 4]
        wire = GradientBucketer.from_flat(12, 12, 8, wire_bytes_per_element=2.0)
        assert [spec.num_elements for spec in wire.buckets] == [6, 6]

    @settings(max_examples=30, deadline=None)
    @given(
        total=st.integers(min_value=1, max_value=136),
        bytes_per_element=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12]),
        threshold=st.integers(min_value=1, max_value=256),
        count=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_pack_unpack_round_trip_property(
        self, total, bytes_per_element, threshold, count, seed
    ):
        """pack -> unpack is a bit-exact inverse over every layout the two
        builders cut, the ranges tile the vector in order, and from_flat's
        buckets are the fewest that each fit the threshold."""
        by_threshold = GradientBucketer.from_flat(total, threshold, bytes_per_element)
        capacity = max(1, threshold // bytes_per_element)
        assert by_threshold.num_buckets == -(-total // capacity)
        for spec in by_threshold.buckets:
            assert spec.num_elements * bytes_per_element <= max(threshold, bytes_per_element)
        by_count = GradientBucketer.fixed_count(total, count)
        assert by_count.num_buckets == min(count, total)
        flat = np.random.default_rng(seed).normal(size=total)
        for b in (by_threshold, by_count):
            stops = [0] + [spec.stop for spec in b.buckets]
            assert [(spec.index, spec.start) for spec in b.buckets] == list(
                enumerate(stops[:-1])
            )
            assert stops[-1] == total
            buffers = b.pack(flat)
            assert sum(buf.size for buf in buffers) == total
            assert np.array_equal(b.unpack(buffers), flat)

    def test_invalid_element_width_rejected(self):
        with pytest.raises(ValueError):
            GradientBucketer.from_flat(4, bytes_per_element=0)
        with pytest.raises(ValueError):
            GradientBucketer.from_flat(4, wire_bytes_per_element=0.0)
        with pytest.raises(ValueError):
            GradientBucketer.from_flat(4, wire_bytes_per_element=float("nan"))


# ---------------------------------------------------------------------------
# calibration: synthetic fit recovery
# ---------------------------------------------------------------------------
def _synthetic_samples(true: LogGPParams, world_size: int, algorithm: str):
    samples = []
    for nbytes in (4096, 65536, 262144, 1048576):
        samples.append(
            CalibrationSample(
                "pingpong", world_size, nbytes, true.alpha + nbytes * true.beta
            )
        )
        samples.append(
            CalibrationSample("reduce", world_size, nbytes, nbytes * true.gamma)
        )
        samples.append(
            CalibrationSample(
                "allreduce",
                world_size,
                nbytes,
                allreduce_time(nbytes, world_size, algorithm, true),
                algorithm,
            )
        )
    return samples


class TestFitLogGP:
    @pytest.mark.parametrize("algorithm", ["ring", "recursive_doubling", "rabenseifner"])
    @pytest.mark.parametrize("world_size", [4, 8])
    def test_recovers_known_parameters(self, algorithm, world_size):
        true = LogGPParams(
            alpha=3.5e-6, beta=2.2e-10, gamma=6.0e-11, collective_overhead=9.0e-6
        )
        fit = fit_loggp(_synthetic_samples(true, world_size, algorithm))
        assert fit.alpha == pytest.approx(true.alpha, rel=0.05)
        assert fit.beta == pytest.approx(true.beta, rel=0.05)
        assert fit.gamma == pytest.approx(true.gamma, rel=0.05)
        assert fit.collective_overhead == pytest.approx(
            true.collective_overhead, rel=0.05
        )

    def test_fitted_model_predicts_synthetic_sweep(self):
        true = LogGPParams(
            alpha=5e-6, beta=8e-10, gamma=3e-10, collective_overhead=2e-4
        )
        samples = _synthetic_samples(true, 8, "ring")
        fit = fit_loggp(samples)
        assert max_relative_error(samples, fit) < 1e-6

    def test_fit_is_always_valid(self):
        # Wildly inconsistent measurements must still produce a valid
        # (non-negative, finite) parameter set.
        samples = [
            CalibrationSample("pingpong", 4, 1024, 5.0),
            CalibrationSample("reduce", 4, 1024, 1e-9),
            CalibrationSample("allreduce", 4, 1024, 1e-3, "ring"),
            CalibrationSample("allreduce", 4, 4096, 2.0, "ring"),
            CalibrationSample("allreduce", 4, 65536, 1e-4, "ring"),
        ]
        fit_loggp(samples).validate()

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_loggp([CalibrationSample("pingpong", 2, 64, 1e-6)])

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            CalibrationSample("bogus", 2, 64, 1e-6)
        with pytest.raises(ValueError):
            CalibrationSample("pingpong", 2, -1, 1e-6)
        with pytest.raises(ValueError):
            CalibrationSample("pingpong", 2, 64, float("nan"))
        with pytest.raises(ValueError):
            CalibrationSample("pingpong", 2, 64, 0.0)


# ---------------------------------------------------------------------------
# profile cache
# ---------------------------------------------------------------------------
def _profile(world_size=2, **overrides) -> CalibratedProfile:
    defaults = dict(
        backend="thread",
        world_size=world_size,
        params=LogGPParams(),
        algorithm="ring",
        samples=(CalibrationSample("allreduce", world_size, 4096, 1e-4, "ring"),),
        max_rel_error=0.1,
    )
    defaults.update(overrides)
    return CalibratedProfile(**defaults)


class TestProfileCache:
    def test_json_round_trip(self, tmp_path):
        profile = _profile()
        path = profile.save(profile_path(2, cache_dir=tmp_path))
        loaded = CalibratedProfile.load(path)
        assert loaded == profile

    def test_load_profile_missing_returns_none(self, tmp_path):
        assert load_profile(2, cache_dir=tmp_path) is None

    def test_corrupt_cache_raises(self, tmp_path):
        path = profile_path(2, cache_dir=tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        with pytest.raises(ProfileCacheError):
            load_profile(2, cache_dir=tmp_path)

    def test_stale_version_triggers_recalibration_path(self, tmp_path):
        path = profile_path(2, cache_dir=tmp_path)
        data = _profile().to_dict()
        data["version"] = 0
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data))
        assert load_profile(2, cache_dir=tmp_path) is None

    def test_wrong_key_rejected(self, tmp_path):
        _profile(world_size=4).save(profile_path(2, cache_dir=tmp_path))
        with pytest.raises(ProfileCacheError, match="keyed"):
            load_profile(2, cache_dir=tmp_path)

    def test_calibrate_measures_fits_and_caches(self, tmp_path):
        profile = calibrate(
            2,
            sizes=(1024, 8192, 32768),
            base_iterations=2,
            cache_dir=tmp_path,
            force=True,
        )
        profile.params.validate()
        assert profile.world_size == 2 and profile.backend == "thread"
        assert math.isfinite(profile.max_rel_error)
        assert any(s.kind == "allreduce" for s in profile.samples)
        # Second call with the same sweep must come from the cache:
        # identical object contents even though the thread backend would
        # never measure identically twice.
        again = calibrate(2, sizes=(1024, 8192, 32768), cache_dir=tmp_path)
        assert again == profile
        # A subset sweep is covered by the cached profile too.
        subset = calibrate(2, sizes=(1024, 32768), cache_dir=tmp_path)
        assert subset == profile

    def test_cached_quick_profile_does_not_satisfy_full_sweep(self, tmp_path):
        """Regression: the cache was keyed only by (backend, world size),
        so a 3-point quick profile silently satisfied a full calibration
        and the 4 KiB - 4 MiB accuracy claim went unmeasured."""
        quick = calibrate(
            2, sizes=(1024, 8192), base_iterations=2, cache_dir=tmp_path, force=True
        )
        full = calibrate(
            2, sizes=(1024, 8192, 32768), base_iterations=2, cache_dir=tmp_path
        )
        assert full != quick
        assert {s.nbytes for s in full.samples if s.kind == "allreduce"} == {
            1024, 8192, 32768,
        }
        # The fuller profile replaced the quick one in the cache.
        assert load_profile(2, cache_dir=tmp_path) == full

    def test_calibrate_rejects_bad_world_and_backend(self, tmp_path):
        with pytest.raises(ValueError, match="world_size"):
            calibrate(1, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="backend"):
            calibrate(2, backend="mpi", cache_dir=tmp_path)


# ---------------------------------------------------------------------------
# autotune grid search
# ---------------------------------------------------------------------------
class TestAutotune:
    @pytest.mark.parametrize("world_size", [2, 4, 8])
    def test_never_loses_to_fixed_default(self, world_size):
        plan = autotune(DEFAULT_NETWORK, world_size, 4 * 1024 * 1024)
        assert plan.speedup >= 1.0
        assert plan.predicted_time <= plan.baseline_time

    def test_plan_matches_model_prediction(self):
        plan = autotune(DEFAULT_NETWORK, 8, 2 * 1024 * 1024, algorithm="ring")
        assert plan.predicted_time == pytest.approx(
            predict_exchange_time(
                DEFAULT_NETWORK, 8, 2 * 1024 * 1024, "ring",
                plan.fusion_threshold_bytes, plan.pipeline_chunks,
            )
        )
        assert plan.baseline_time == pytest.approx(
            predict_exchange_time(
                DEFAULT_NETWORK, 8, 2 * 1024 * 1024, "ring",
                DEFAULT_FIXED_THRESHOLD_BYTES, 1,
            )
        )

    def test_restricted_grids_are_honoured(self):
        plan = autotune(
            DEFAULT_NETWORK, 4, 1024 * 1024,
            thresholds=[256 * 1024], chunks=[2, 4],
        )
        assert plan.fusion_threshold_bytes == 256 * 1024
        assert plan.pipeline_chunks in (2, 4)

    def test_plan_json_round_trip(self):
        plan = autotune(DEFAULT_NETWORK, 4, 1024 * 1024)
        original = plan.to_dict()
        restored = TunedPlan.from_dict(json.loads(json.dumps(original))).to_dict()
        for key, value in original.items():
            if isinstance(value, float) and math.isnan(value):
                assert math.isnan(restored[key])  # no live trials ran
            else:
                assert restored[key] == value

    def test_live_cross_check_runs_real_exchanges(self):
        plan = autotune(
            DEFAULT_NETWORK, 2, 64 * 1024,
            thresholds=[16 * 1024, 64 * 1024], chunks=[1, 2],
            live_trials=2, live_iterations=1,
        )
        assert math.isfinite(plan.measured_time)
        assert math.isfinite(plan.measured_baseline_time)
        assert plan.measured_time > 0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            autotune(DEFAULT_NETWORK, 0, 1024)
        with pytest.raises(ValueError):
            autotune(DEFAULT_NETWORK, 4, 0)
        with pytest.raises(ValueError):
            autotune(DEFAULT_NETWORK, 4, 1024, thresholds=[0])
        with pytest.raises(ValueError):
            autotune(DEFAULT_NETWORK, 4, 1024, chunks=[0])
        with pytest.raises(ValueError):
            autotune(DEFAULT_NETWORK, 4, 1024, live_trials=-1)

    def test_tune_with_profile_uses_profile_world_size(self):
        plan = tune_with_profile(_profile(world_size=4), 1024 * 1024)
        assert plan.world_size == 4


# ---------------------------------------------------------------------------
# two-tier fabrics: per-link-class profiles and topology-aware tuning
# ---------------------------------------------------------------------------
SLOW_INTER = LogGPParams(
    alpha=50e-6, beta=10e-9, gamma=1e-9, collective_overhead=20e-6
)


def _two_tier_profile(world_size=4):
    intra = LogGPParams()
    return _profile(
        world_size=world_size,
        backend="hier",
        link_params={"intra": intra, "inter": SLOW_INTER},
    )


class TestTwoTierProfiles:
    def test_link_accessor_and_two_tier_flag(self):
        flat = _profile()
        assert not flat.is_two_tier
        assert flat.link("intra") == flat.params  # fallback, no link table
        two = _two_tier_profile()
        assert two.is_two_tier
        assert two.link("inter") == SLOW_INTER
        with pytest.raises(ValueError, match="link class"):
            two.link("warp")

    def test_two_tier_json_round_trip(self, tmp_path):
        profile = _two_tier_profile()
        path = profile.save(profile_path(4, backend="hier", cache_dir=tmp_path))
        loaded = CalibratedProfile.load(path)
        assert loaded == profile
        assert loaded.link("inter") == SLOW_INTER
        assert loaded.is_two_tier

    def test_autotune_validates_ranks_per_host(self):
        with pytest.raises(ValueError, match="ranks_per_host"):
            autotune(DEFAULT_NETWORK, 4, 1024 * 1024, ranks_per_host=(3, 2))

    def test_plan_scores_hierarchical_model(self):
        plan = autotune(
            DEFAULT_NETWORK, 8, 2 * 1024 * 1024,
            ranks_per_host=(4, 4), inter_params=SLOW_INTER,
        )
        assert plan.ranks_per_host == (4, 4)
        assert plan.predicted_time == pytest.approx(
            predict_exchange_time(
                DEFAULT_NETWORK, 8, 2 * 1024 * 1024, "ring",
                plan.fusion_threshold_bytes, plan.pipeline_chunks,
                ranks_per_host=(4, 4), inter_params=SLOW_INTER,
            )
        )
        assert plan.speedup >= 1.0

    def test_slower_inter_link_costs_more(self):
        flat = predict_exchange_time(DEFAULT_NETWORK, 8, 4 * 1024 * 1024)
        hier_fast = predict_exchange_time(
            DEFAULT_NETWORK, 8, 4 * 1024 * 1024,
            ranks_per_host=(4, 4), inter_params=DEFAULT_NETWORK,
        )
        hier_slow = predict_exchange_time(
            DEFAULT_NETWORK, 8, 4 * 1024 * 1024,
            ranks_per_host=(4, 4), inter_params=SLOW_INTER,
        )
        assert hier_slow > hier_fast
        assert flat > 0 and hier_fast > 0

    def test_ranks_per_host_round_trips_in_plan(self):
        plan = autotune(
            DEFAULT_NETWORK, 4, 1024 * 1024,
            ranks_per_host=[3, 1], inter_params=SLOW_INTER,
        )
        restored = TunedPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored.ranks_per_host == (3, 1)
        flat_plan = autotune(DEFAULT_NETWORK, 4, 1024 * 1024)
        assert TunedPlan.from_dict(
            json.loads(json.dumps(flat_plan.to_dict()))
        ).ranks_per_host is None

    def test_tune_with_profile_threads_inter_link(self):
        plan = tune_with_profile(_two_tier_profile(), 1024 * 1024,
                                 ranks_per_host=(2, 2))
        assert plan.ranks_per_host == (2, 2)
        assert plan.predicted_time == pytest.approx(
            predict_exchange_time(
                _two_tier_profile().params, 4, 1024 * 1024, "ring",
                plan.fusion_threshold_bytes, plan.pipeline_chunks,
                ranks_per_host=(2, 2), inter_params=SLOW_INTER,
            )
        )


# ---------------------------------------------------------------------------
# "auto" resolution through config / runner / exchange
# ---------------------------------------------------------------------------
class TestAutoResolution:
    def test_config_accepts_auto_and_rejects_other_strings(self):
        TrainingConfig(fusion_threshold_bytes="auto", pipeline_chunks="auto").validate()
        with pytest.raises(ValueError):
            TrainingConfig(fusion_threshold_bytes="fast").validate()
        with pytest.raises(ValueError):
            TrainingConfig(pipeline_chunks="fast").validate()
        with pytest.raises(ValueError):
            TrainingConfig(fusion_threshold_bytes=0).validate()
        with pytest.raises(ValueError):
            TrainingConfig(pipeline_chunks=0).validate()

    def test_resolution_uses_cached_profile(self, tmp_path):
        _profile(world_size=2).save(profile_path(2, cache_dir=tmp_path))
        config = TrainingConfig(
            world_size=2,
            fusion_threshold_bytes="auto",
            pipeline_chunks="auto",
            allreduce_algorithm="ring",
            tuning_cache_dir=str(tmp_path),
        )
        config.validate()
        resolved = resolve_auto_fusion(config, num_parameters=1 << 16)
        assert isinstance(resolved.fusion_threshold_bytes, int)
        assert isinstance(resolved.pipeline_chunks, int)
        resolved.validate()
        # The original is untouched (the runner resolves a copy).
        assert config.fusion_threshold_bytes == "auto"

    def test_pinned_values_survive_partial_auto(self, tmp_path):
        _profile(world_size=2).save(profile_path(2, cache_dir=tmp_path))
        config = TrainingConfig(
            world_size=2,
            fusion_threshold_bytes=128 * 1024,
            pipeline_chunks="auto",
            tuning_cache_dir=str(tmp_path),
        )
        resolved = resolve_auto_fusion(config, num_parameters=1 << 16)
        assert resolved.fusion_threshold_bytes == 128 * 1024
        assert isinstance(resolved.pipeline_chunks, int)

    def test_hier_backend_tunes_for_its_host_layout(self, tmp_path, monkeypatch):
        """On ``hier`` with a two-host REPRO_HOST_TOPOLOGY the exchange runs
        the hierarchical plans, so the "auto" knobs are tuned on that
        layout with the profile's inter-host link."""
        if "hier" not in available_backends():
            pytest.skip("hier backend unavailable")
        from repro.tuning.calibration import QUICK_SIZES

        # A cached profile covering the quick sweep: no live calibration.
        samples = tuple(
            CalibrationSample("allreduce", 4, nbytes, 1e-3, "ring") for nbytes in QUICK_SIZES
        )
        profile = _profile(
            world_size=4, backend="hier", samples=samples,
            link_params={"intra": LogGPParams(), "inter": SLOW_INTER},
        )
        profile.save(profile_path(4, backend="hier", cache_dir=tmp_path))
        monkeypatch.setenv("REPRO_HOST_TOPOLOGY", "0,0,1,1")
        config = TrainingConfig(
            world_size=4,
            comm_backend="hier",
            fusion_threshold_bytes="auto",
            pipeline_chunks="auto",
            allreduce_algorithm="ring",
            tuning_cache_dir=str(tmp_path),
        )
        num_parameters = 1 << 18
        resolved = resolve_auto_fusion(config, num_parameters=num_parameters)
        expected = autotune(
            LogGPParams(), 4, num_parameters * 8, "ring",
            ranks_per_host=(2, 2), inter_params=SLOW_INTER,
        )
        picked = (resolved.fusion_threshold_bytes, resolved.pipeline_chunks)
        assert picked == (expected.fusion_threshold_bytes, expected.pipeline_chunks)
        flat = autotune(LogGPParams(), 4, num_parameters * 8, "ring")
        assert picked != (flat.fusion_threshold_bytes, flat.pipeline_chunks)

    def test_world_of_one_resolves_to_inert_values(self):
        config = TrainingConfig(
            world_size=1, fusion_threshold_bytes="auto", pipeline_chunks="auto"
        )
        resolved = resolve_auto_fusion(config, num_parameters=64)
        assert resolved.fusion_threshold_bytes is None
        assert resolved.pipeline_chunks == 1

    def test_concrete_config_passes_through_unchanged(self):
        config = TrainingConfig(world_size=4, fusion_threshold_bytes=1024)
        assert resolve_auto_fusion(config, num_parameters=64) is config


def _exchange_bucket_count(comm, kind, threshold, codec, num_parameters):
    """Buckets the exchange of ``kind`` runs: one wait per bucket's collective."""
    knobs = dict(fusion_threshold_bytes=threshold, compression=codec)
    gradient = np.ones(num_parameters)
    if kind is ShardedExchange:
        model = Module()
        model.add_parameter("theta", np.zeros(num_parameters))
        exchange = ShardedExchange(comm, **knobs)
        return len(exchange.exchange_update(gradient, model, SGD(model, 0.1)).bucket_waits)
    if kind is PartialExchange:
        exchange = PartialExchange(comm, num_parameters, "majority", **knobs)
    else:
        exchange = SynchronousExchange(comm, algorithm="ring", **knobs)
    with exchange:
        return len(exchange.exchange(gradient).bucket_waits)


class TestTunerPricesTheExchangesBuckets:
    """``resolve_auto_fusion`` prices the buckets every exchange cuts: the
    threshold it hands the tuner (``None`` mapped to one bucket) and its
    codec model give ``bucketer_for`` the exchange's own bucket count."""

    @pytest.mark.parametrize("codec", [None, "fp16", "int8"])
    @pytest.mark.parametrize("threshold", [None, 1024, 1 << 20])
    @pytest.mark.parametrize(
        "kind", [SynchronousExchange, ShardedExchange, PartialExchange],
        ids=lambda kind: kind.__name__,
    )
    def test_bucket_counts_agree(self, tmp_path, kind, threshold, codec):
        import importlib
        from unittest import mock

        if kind is ShardedExchange and codec == "int8":
            pytest.skip("the sharded exchange rejects non-reduce-closed codecs")
        # The package re-exports the autotune *function* under the same
        # name as the submodule; fetch the submodule explicitly.
        autotune_module = importlib.import_module("repro.tuning.autotune")
        _profile(world_size=2).save(profile_path(2, cache_dir=tmp_path))
        num_parameters = 1500
        config = TrainingConfig(
            world_size=2,
            mode="majority" if kind is PartialExchange else "sync",
            sharding="zero1" if kind is ShardedExchange else "none",
            fusion_threshold_bytes=threshold,
            pipeline_chunks="auto",
            compression=codec,
            tuning_cache_dir=str(tmp_path),
        )
        captured = {}
        real_autotune = autotune_module.autotune

        def spy(*args, **kwargs):
            captured.update(kwargs)
            return real_autotune(*args, **kwargs)

        with mock.patch.object(autotune_module, "autotune", side_effect=spy):
            resolve_auto_fusion(config, num_parameters=num_parameters)
        (priced_threshold,) = captured["thresholds"]
        priced = autotune_module.bucketer_for(
            num_parameters * 8, priced_threshold, captured["compression_model"]
        ).num_buckets
        counts = launch(
            _exchange_bucket_count, 2, kind, threshold, codec, num_parameters,
            backend="thread",
        )
        assert counts == [priced, priced]
        if threshold == 1024 and codec is None:
            assert priced == 12  # the grid is not all one-bucket cells


# ---------------------------------------------------------------------------
# experiments harness
# ---------------------------------------------------------------------------
class TestTuneHarness:
    def test_run_and_report(self, tmp_path):
        from repro.experiments import autotune as harness

        result = harness.run(
            world_sizes=(2,), gradient_mb=1.0, quick=True, cache_dir=tmp_path
        )
        assert len(result.profiles) == 1 and len(result.plans) == 1
        assert result.plans[0].speedup >= 1.0
        text = harness.report(result)
        assert "calibrated LogGP parameters" in text
        assert "auto-tuned fusion recommendation" in text
        assert "model vs. measured allreduce latency" in text
        # The cached profile written by the harness must be readable.
        cached = load_profile(2, cache_dir=tmp_path)
        assert cached is not None
        assert predict_sample(cached.samples[-1], cached.params) > 0

    def test_run_validates_inputs(self, tmp_path):
        from repro.experiments import autotune as harness

        with pytest.raises(ValueError):
            harness.run(world_sizes=(), cache_dir=tmp_path)
        with pytest.raises(ValueError):
            harness.run(world_sizes=(1,), cache_dir=tmp_path)
        with pytest.raises(ValueError):
            harness.run(world_sizes=(2,), gradient_mb=0.0, cache_dir=tmp_path)


@pytest.mark.parametrize("backend", available_backends())
def test_quick_calibration_per_backend(backend, tmp_path):
    """``tune --quick`` on every backend, in one test: a P = 2 profile
    cached under the backend's name, both link classes on ``hier``,
    measured codec costs, and a pick never priced above the default."""
    profile = calibrate(2, backend=backend, quick=True, cache_dir=tmp_path)
    assert profile.backend == backend
    assert load_profile(2, backend=backend, cache_dir=tmp_path) == profile
    profile.params.validate()
    if backend == "hier":
        assert set(profile.link_params) == {"intra", "inter"}
        for link_class in ("intra", "inter"):
            profile.link(link_class).validate()
    assert profile.codec_costs and "fp16" in profile.codec_costs
    plan = tune_with_profile(profile, 4 * 1024 * 1024)
    assert plan.predicted_time <= plan.baseline_time


class TestCodecCostCalibration:
    """Live-measured codec transform costs in the cached tuning profile."""

    def test_measure_codec_costs_shape_and_sanity(self):
        from repro.tuning.calibration import measure_codec_costs

        costs = measure_codec_costs(nbytes=1 << 16, base_iterations=2)
        assert "none" not in costs  # identity codec is free by definition
        for name in ("fp16", "bf16", "int8", "topk"):
            assert name in costs
            for key in ("encode_seconds_per_byte", "decode_seconds_per_byte"):
                value = costs[name][key]
                # Per dense byte on any real machine: positive, far
                # below a microsecond (that would be < 1 MB/s).
                assert 0.0 < value < 1e-6, (name, key, value)

    def test_profile_roundtrips_codec_costs(self, tmp_path):
        costs = {
            "fp16": {
                "encode_seconds_per_byte": 3.25e-10,
                "decode_seconds_per_byte": 1.5e-10,
            }
        }
        profile = _profile(codec_costs=costs)
        path = profile.save(tmp_path / "thread-p2.json")
        loaded = CalibratedProfile.load(path)
        assert loaded.codec_costs == costs

    def test_compression_model_uses_measured_costs(self):
        from repro.compression import get_codec

        codec = get_codec("fp16")
        measured = {
            "fp16": {
                "encode_seconds_per_byte": 9.9e-9,
                "decode_seconds_per_byte": 8.8e-9,
            }
        }
        model = _profile(codec_costs=measured).compression_model(codec)
        assert model.encode_seconds_per_byte == 9.9e-9
        assert model.decode_seconds_per_byte == 8.8e-9
        assert model.name == "fp16"
        assert model.wire_scale == codec.cost_model().wire_scale

    def test_compression_model_falls_back_to_constants(self):
        from repro.compression import get_codec

        codec = get_codec("bf16")
        model = _profile(codec_costs={}).compression_model(codec)
        assert model.encode_seconds_per_byte == codec.encode_seconds_per_byte
        assert model.decode_seconds_per_byte == codec.decode_seconds_per_byte

    def test_calibrate_stores_costs_in_cache(self, tmp_path):
        from repro.tuning.calibration import calibrate, load_profile

        profile = calibrate(2, backend="thread", quick=True, cache_dir=tmp_path)
        assert profile.codec_costs and "fp16" in profile.codec_costs
        cached = load_profile(2, backend="thread", cache_dir=tmp_path)
        assert cached is not None
        assert cached.codec_costs == profile.codec_costs

    def test_tune_with_profile_threads_measured_costs(self):
        from repro.tuning.autotune import tune_with_profile

        # An absurd measured encode cost must dominate the tuned plan's
        # predicted time, proving the measured (not hardcoded) numbers
        # reach the grid search.
        slow = {
            "fp16": {
                "encode_seconds_per_byte": 1e-7,
                "decode_seconds_per_byte": 1e-7,
            }
        }
        fast = {
            "fp16": {
                "encode_seconds_per_byte": 1e-12,
                "decode_seconds_per_byte": 1e-12,
            }
        }
        plan_slow = tune_with_profile(
            _profile(codec_costs=slow), 1 << 20, compression="fp16"
        )
        plan_fast = tune_with_profile(
            _profile(codec_costs=fast), 1 << 20, compression="fp16"
        )
        assert plan_slow.predicted_time > plan_fast.predicted_time * 10
