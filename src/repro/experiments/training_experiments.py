"""Shared machinery for the training-based experiments (Figs. 10-13).

Each of those figures compares several SGD variants (synch-SGD flavours
and eager-SGD with solo/majority allreduce) on one workload and reports
throughput and/or accuracy as a function of training time.  A figure is a
:class:`FigureSpec` — scales, a workload builder, a variant list, the
curves to print and the paper's numbers as :class:`Claim` rows — and this
module holds the one :func:`run_figure` / :func:`report_figure` pair that
drives :func:`run_comparison` from it, so the per-figure modules only
declare.
"""

from __future__ import annotations

import copy
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.data.loader import Dataset
from repro.experiments.report import FidelityRow, format_table, subsample
from repro.imbalance.cost_model import CostModel
from repro.imbalance.injection import DelayInjector, RandomSubsetDelay
from repro.training.config import TrainingConfig
from repro.training.metrics import TrainingResult
from repro.training.runner import LossFn, ModelFactory, train_distributed


@dataclass
class VariantSpec:
    """One line of a figure: a named SGD variant of the figure's base config."""

    #: Label used in reports (e.g. ``"synch-SGD-300 (Deep500)"``).
    name: str
    #: Exchange mode: ``sync`` / ``solo`` / ``majority`` / ``quorum``.
    mode: str
    #: Synchronous style when ``mode == "sync"``.
    sync_style: str = "deep500"
    #: Delay injector override (``None`` keeps the base config's injector).
    delay_injector: Optional[DelayInjector] = None


@dataclass
class ComparisonResult:
    """Results of all variants of one figure."""

    results: Dict[str, TrainingResult]
    #: The variant speedups are quoted against by default (the first one).
    baseline: str

    def speedup_over(self, name: str, baseline: Optional[str] = None) -> float:
        """Speedup of ``name`` over the baseline in projected training time."""
        base = self.results[baseline or self.baseline]
        other = self.results[name]
        if other.total_sim_time <= 0:
            return float("inf")
        return base.total_sim_time / other.total_sim_time


@dataclass(frozen=True)
class Workload:
    """What a figure trains and compares, built for one scale, seed and
    set of the figure's own keyword arguments."""

    dataset: Dataset
    model_factory: ModelFactory
    loss_fn: LossFn
    cost_model: CostModel
    #: The lines of the figure; the first one is the comparison's baseline.
    variants: Sequence[VariantSpec]
    #: :class:`TrainingConfig` fields this workload sets (optimizer, ...).
    config: Mapping[str, object] = field(default_factory=dict)
    classification: bool = True


def run_comparison(
    workload: Workload, base_config: TrainingConfig, train: Dataset, evaluation: Dataset
) -> ComparisonResult:
    """Train every variant of ``base_config`` and collect the results."""
    results: Dict[str, TrainingResult] = {}
    for spec in workload.variants:
        config = copy.deepcopy(base_config)
        config.mode = spec.mode
        config.sync_style = spec.sync_style
        if spec.delay_injector is not None:
            config.delay_injector = spec.delay_injector
        config.validate()
        results[spec.name] = train_distributed(
            workload.model_factory,
            train,
            workload.loss_fn,
            config,
            eval_dataset=evaluation,
            classification=workload.classification,
        )
    return ComparisonResult(results=results, baseline=workload.variants[0].name)


@dataclass(frozen=True)
class Claim:
    """One result the paper reports for a variant of a training figure.

    The fidelity table holds the speedup over ``baseline`` to
    ``tolerance``; a claim the paper quotes no speedup for (Fig. 12's
    solo: fastest, but inaccurate) is held on its final ``metric``
    instead, which is otherwise printed as context.
    """

    variant: str
    baseline: str
    paper_speedup: Optional[float]
    #: :class:`~repro.training.metrics.EpochRecord` field read at the last epoch.
    metric: str
    paper_value: float
    tolerance: float = 0.25
    #: First cell of the claim's row in the figure's headline table
    #: (default: the variant); claims sharing a label share a row.
    label: str = ""


@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one training figure."""

    #: ``"Fig. 10"``: prefix of the claims' source in the fidelity table.
    figure: str
    #: Title of the summary table; formatted with ``scale`` and the
    #: figure's keyword arguments.
    title: str
    #: Per scale: ``world_size``, ``global_batch_size``, ``epochs`` and
    #: whatever ``build`` reads.
    scales: Mapping[str, Mapping[str, object]]
    #: ``build(params, seed, **keywords) -> Workload``: its keywords and
    #: their defaults are the figure's own ``run`` keywords.
    build: Callable[..., Workload]
    #: ``(metric, title)`` of every metric-vs-time table.
    curves: Tuple[Tuple[str, str], ...]
    #: Title, then header cells of the paper-vs-ours table; after the
    #: first cell, ``headline_fields`` name what each claim of a row
    #: contributes (``speedup`` / ``paper_speedup`` / ``value`` / ``paper_value``).
    headline: Tuple[str, ...]
    headline_fields: Tuple[str, ...]
    claims: Tuple[Claim, ...]

    def params(self, scale: str) -> Mapping[str, object]:
        if scale not in self.scales:
            raise ValueError(f"scale must be one of {sorted(self.scales)}, got {scale!r}")
        return self.scales[scale]


@dataclass
class FigureResult:
    spec: FigureSpec
    comparison: ComparisonResult
    scale: str
    #: The figure's keyword arguments as run (defaults filled in).
    args: Dict[str, object]

    def speedup(self, claim: Claim) -> float:
        return self.comparison.speedup_over(claim.variant, claim.baseline)

    def value(self, claim: Claim) -> float:
        return getattr(self.comparison.results[claim.variant].final_epoch, claim.metric)

    def claims(self) -> List[Claim]:
        """The spec's claims whose variant was part of this run."""
        return [c for c in self.spec.claims if c.variant in self.comparison.results]


def run_figure(
    spec: FigureSpec,
    scale: str = "small",
    seed: int = 0,
    comm_backend: Optional[str] = None,
    compression: Optional[str] = None,
    **keywords: object,
) -> FigureResult:
    """Train every variant of ``spec`` at ``scale``; ``keywords`` are the builder's."""
    params = spec.params(scale)
    # The builder's parameters after (params, seed) are the figure's keywords.
    own = list(inspect.signature(spec.build).parameters.values())[2:]
    args = {**{p.name: p.default for p in own}, **keywords}
    workload = spec.build(params, seed, **args)
    train, val = workload.dataset.split(validation_fraction=0.2, seed=seed)
    config = TrainingConfig(
        world_size=params["world_size"],
        comm_backend=comm_backend,
        compression=compression,
        epochs=params["epochs"],
        global_batch_size=params["global_batch_size"],
        cost_model=workload.cost_model,
        seed=seed,
        **workload.config,
    )
    comparison = run_comparison(workload, config, train, val)
    return FigureResult(spec=spec, comparison=comparison, scale=scale, args=args)


def injected_delay_variants(
    delays_ms: Sequence[float], sync_styles: Sequence[str], num_delayed: int, seed: int
) -> List[VariantSpec]:
    """Figs. 10/11: per delay, synch-SGD in each style and eager-SGD (solo),
    all under the same ``num_delayed``-of-P random injection."""
    variants = []
    for delay in delays_ms:
        injector = RandomSubsetDelay(
            num_delayed=num_delayed, delay_ms=delay, seed=seed + int(delay)
        )
        for style in sync_styles:
            variants.append(
                VariantSpec(
                    name=f"synch-SGD-{int(delay)} ({style})",
                    mode="sync",
                    sync_style=style.lower(),
                    delay_injector=injector,
                )
            )
        variants.append(
            VariantSpec(
                name=f"eager-SGD-{int(delay)} (solo)", mode="solo", delay_injector=injector
            )
        )
    return variants


def horovod_solo_majority(injector: Optional[DelayInjector] = None) -> List[VariantSpec]:
    """Figs. 12/13: Horovod-style synch-SGD against both eager variants."""
    return [
        VariantSpec(
            name="synch-SGD (Horovod)", mode="sync", sync_style="horovod",
            delay_injector=injector,
        ),
        VariantSpec(name="eager-SGD (solo)", mode="solo", delay_injector=injector),
        VariantSpec(name="eager-SGD (majority)", mode="majority", delay_injector=injector),
    ]


#: Header and :meth:`TrainingResult.summary_row` key of the summary table's columns.
_SUMMARY_COLUMNS = (
    ("train time (s, projected)", "total_sim_time_s"),
    ("throughput (steps/s)", "throughput_steps_per_s"),
    ("final eval loss", "final_eval_loss"),
    ("final top-1", "final_eval_top1"),
    ("final top-5", "final_eval_top5"),
    ("mean active ranks", "mean_num_active"),
)


def comparison_table(comparison: ComparisonResult, title: str) -> str:
    """The per-variant summary table printed by every training figure."""
    rows = []
    for name, result in comparison.results.items():
        summary = result.summary_row()
        rows.append(
            (
                name,
                *(summary[key] for _, key in _SUMMARY_COLUMNS),
                round(comparison.speedup_over(name), 2),
            )
        )
    headers = ["variant", *(h for h, _ in _SUMMARY_COLUMNS), f"speedup vs {comparison.baseline}"]
    return format_table(headers, rows, title=title)


def metric_vs_time_table(comparison: ComparisonResult, metric: str, title: str) -> str:
    """Per-variant series of (projected time, metric) at epoch boundaries."""
    rows = []
    for name, result in comparison.results.items():
        series = result.accuracy_vs_time(metric)
        for i in subsample(len(series), max_points=12):
            t, v = series[i]
            rows.append((name, i, round(t, 2), round(v, 4)))
    return format_table(["variant", "epoch", "time (s)", metric], rows, title=title)


def headline_table(result: FigureResult) -> str:
    """The figure's paper-vs-ours table: one row per claim label."""
    spec = result.spec
    cell = {
        "speedup": lambda c: round(result.speedup(c), 2),
        "paper_speedup": lambda c: math.nan if c.paper_speedup is None else c.paper_speedup,
        "value": lambda c: round(result.value(c), 3),
        "paper_value": lambda c: c.paper_value,
    }
    rows: Dict[str, List[object]] = {}
    for claim in result.claims():
        label = claim.label or claim.variant
        rows.setdefault(label, [label]).extend(cell[f](claim) for f in spec.headline_fields)
    return format_table(spec.headline[1:], rows.values(), title=spec.headline[0])


def report_figure(result: FigureResult) -> str:
    """Summary table, metric-vs-time curves, then the paper-vs-ours table."""
    spec = result.spec
    parts = [
        comparison_table(
            result.comparison, title=spec.title.format(scale=result.scale, **result.args)
        )
    ]
    for metric, title in spec.curves:
        parts += ["", metric_vs_time_table(result.comparison, metric, title)]
    parts += ["", headline_table(result)]
    return "\n".join(parts)


def fidelity_rows(result: FigureResult) -> List[FidelityRow]:
    """One fidelity-table row per claim of a figure that was run."""
    rows = []
    for claim in result.claims():
        value = result.value(claim)
        if claim.paper_speedup is not None:
            what = f"{claim.variant} speedup over {claim.baseline}"
            paper, ours = claim.paper_speedup, result.speedup(claim)
        else:
            what = f"{claim.variant} final {claim.metric}"
            paper, ours = claim.paper_value, value
        rows.append(
            FidelityRow(
                source=f"{result.spec.figure} ({result.scale})",
                claim=what,
                paper=paper,
                ours=ours,
                tolerance=claim.tolerance,
                context=f"{claim.metric} {value:.3g} / {claim.paper_value:g}",
            )
        )
    return rows
