"""Calibrated LogGP + auto-tuned fusion: the ``tune`` CLI harness.

Runs :func:`repro.tuning.calibration.calibrate` for every requested
world size (through the profile cache), then searches the fusion grid
with :func:`repro.tuning.autotune.autotune` at the requested gradient
size.  The report shows three tables:

1. the fitted LogGP parameters per world size and the worst relative
   error of the fitted model against the measured allreduce sweep;
2. the model-vs-measured validation rows behind that error — this is
   where the "reproduce the measured thread-backend allreduce latency"
   acceptance is visible size by size;
3. the per-world-size recommendation: the auto-tuned
   ``(fusion_threshold_bytes, pipeline_chunks)`` and its modelled
   speedup over the fixed 64 KiB / 1-chunk default.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, List, Literal, Optional, Sequence

from repro.experiments.report import format_table
from repro.tuning.autotune import TunedPlan, resolve_ranks_per_host, tune_with_profile
from repro.tuning.calibration import CalibratedProfile, calibrate, predict_sample
from repro.utils.argtypes import comma_list, int_at_least, positive_float

MB = 1024 * 1024


@dataclass
class AutotuneResult:
    """Profiles and recommendations produced by one ``tune`` invocation."""

    profiles: List[CalibratedProfile]
    plans: List[TunedPlan]
    gradient_mb: float
    algorithm: str
    quick: bool = False


def run(
    world_sizes: Annotated[Sequence[int], comma_list(int_at_least(2))] = (2, 4, 8),
    gradient_mb: Annotated[float, positive_float] = 4.0,
    algorithm: Literal["ring", "recursive_doubling", "rabenseifner"] = "ring",
    quick: bool = False,
    cache_dir: Optional[Path] = None,
    force: bool = False,
    live_trials: Annotated[int, int_at_least(0)] = 0,
    backend: Optional[str] = None,
    compression: Optional[str] = None,
) -> AutotuneResult:
    """Calibrate every world size and auto-tune the fusion knobs.

    Calibrates every world size of ``world_sizes`` (each >= 2) and tunes
    the fusion grid for a ``gradient_mb`` MB gradient exchanged by the
    ``algorithm`` allreduce.  ``backend`` selects the communication
    backend the measurements run on (``None`` = the process-wide
    default) — profiles cache separately per backend, under
    ``cache_dir`` (default: ``$REPRO_TUNING_CACHE_DIR`` or
    ``~/.cache/repro/tuning``).  ``quick`` runs the reduced measurement
    sweep (CI smoke); ``force`` remeasures even when a cached profile
    exists; ``live_trials`` makes the grid search cross-check this many
    best candidates against live exchanges on the same backend.
    ``compression`` names a gradient codec: the grid is then
    tuned under the codec's wire/transform cost model, so the
    recommended fusion threshold is per codec (a compressing codec
    shifts the knee — more elements fit one wire buffer).
    """
    if not world_sizes:
        raise ValueError(f"world_sizes must not be empty, got {world_sizes!r}")
    if any(p < 2 for p in world_sizes):
        raise ValueError(f"calibration needs world sizes >= 2, got {list(world_sizes)}")
    if gradient_mb <= 0:
        raise ValueError(f"gradient_mb must be > 0, got {gradient_mb}")
    gradient_bytes = max(1, int(gradient_mb * MB))
    profiles = []
    plans = []
    for world_size in world_sizes:
        profile = calibrate(
            world_size, backend=backend, quick=quick, cache_dir=cache_dir, force=force
        )
        profiles.append(profile)
        plans.append(
            tune_with_profile(
                profile, gradient_bytes, algorithm, live_trials=live_trials,
                compression=compression,
                ranks_per_host=resolve_ranks_per_host(profile.backend, world_size),
            )
        )
    return AutotuneResult(
        profiles=profiles,
        plans=plans,
        gradient_mb=gradient_mb,
        algorithm=algorithm,
        quick=quick,
    )


def report(result: AutotuneResult) -> str:
    """Render the fitted parameters, validation and recommendation tables."""
    backends = "/".join(sorted({p.backend for p in result.profiles}))
    parts = [
        format_table(
            ["P", "alpha [us]", "beta [ns/B]", "gamma [ns/B]", "overhead [us]",
             "fit algo", "max rel err"],
            [
                (
                    p.world_size,
                    p.params.alpha * 1e6,
                    p.params.beta * 1e9,
                    p.params.gamma * 1e9,
                    p.params.collective_overhead * 1e6,
                    p.algorithm,
                    f"{p.max_rel_error:.1%}",
                )
                for p in result.profiles
            ],
            title=f"calibrated LogGP parameters ({backends} backend)",
        ),
        "",
        format_table(
            ["P", "size [KiB]", "measured [us]", "model [us]", "rel err"],
            [
                (
                    s.world_size,
                    s.nbytes / 1024,
                    s.seconds * 1e6,
                    predict_sample(s, p.params) * 1e6,
                    f"{abs(predict_sample(s, p.params) - s.seconds) / s.seconds:.1%}",
                )
                for p in result.profiles
                for s in p.samples
                if s.kind == "allreduce"
            ],
            title="model vs. measured allreduce latency (calibration sweep)",
        ),
        "",
        format_table(
            ["P", "gradient", "codec", "threshold", "chunks", "buckets",
             "tuned [us]", "64KiB/1 [us]", "speedup"],
            [
                (
                    plan.world_size,
                    f"{result.gradient_mb:g} MB",
                    plan.compression,
                    _format_bytes(plan.fusion_threshold_bytes),
                    plan.pipeline_chunks,
                    plan.num_buckets,
                    plan.predicted_time * 1e6,
                    plan.baseline_time * 1e6,
                    plan.speedup,
                )
                for plan in result.plans
            ],
            title=f"auto-tuned fusion recommendation ({result.algorithm} exchange) "
            "vs. fixed 64 KiB / 1-chunk default (same codec)",
        ),
    ]
    two_tier = [p for p in result.profiles if p.is_two_tier]
    if two_tier:
        parts.append("")
        parts.append(
            format_table(
                ["P", "link", "alpha [us]", "beta [ns/B]", "gamma [ns/B]",
                 "overhead [us]"],
                [
                    (
                        p.world_size,
                        link_class,
                        p.link(link_class).alpha * 1e6,
                        p.link(link_class).beta * 1e9,
                        p.link(link_class).gamma * 1e9,
                        p.link(link_class).collective_overhead * 1e6,
                    )
                    for p in two_tier
                    for link_class in ("intra", "inter")
                ],
                title="per-link-class LogGP parameters (two-tier fabric)",
            )
        )
    live = [p for p in result.plans if p.measured_time == p.measured_time]
    if live:
        parts.append("")
        parts.append(
            format_table(
                ["P", "threshold", "chunks", "measured [us]",
                 "measured 64KiB/1 [us]", "live speedup"],
                [
                    (
                        plan.world_size,
                        _format_bytes(plan.fusion_threshold_bytes),
                        plan.pipeline_chunks,
                        plan.measured_time * 1e6,
                        plan.measured_baseline_time * 1e6,
                        plan.measured_speedup,
                    )
                    for plan in live
                ],
                title=f"live {backends}-backend cross-check",
            )
        )
    worst = max(p.max_rel_error for p in result.profiles)
    min_speedup = min(p.speedup for p in result.plans)
    parts.append("")
    parts.append(
        f"headline: fitted model within {worst:.1%} of measured allreduce "
        f"latency (worst case); auto-tuned exchange >= {min_speedup:.2f}x the "
        f"fixed 64 KiB / 1-chunk default at every calibrated world size"
    )
    return "\n".join(parts)


def _format_bytes(nbytes: int) -> str:
    if nbytes % MB == 0:
        return f"{nbytes // MB} MiB"
    if nbytes % 1024 == 0:
        return f"{nbytes // 1024} KiB"
    return f"{nbytes} B"
