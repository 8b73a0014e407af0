"""Paper fidelity: every number the paper claims next to the reproduction's.

``python -m repro speedups`` trains each training figure (Figs. 10-13)
once at the requested scale, runs the deterministic harnesses (Fig. 9's
latency model, the scaling projections, the workload distributions of
Figs. 2-4) and prints one table: claim, paper's value, ours, and whether
ours is inside the claim's stated tolerance — including the abstract's
"1.27x speedup over state-of-the-art synchronous SGD without losing
accuracy" (majority allreduce on UCF101).

:data:`FIGURES` is the table of training figures the CLI reads; adding a
figure is one :class:`~repro.experiments.training_experiments.FigureSpec`
module and one entry here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal

from repro.experiments import (
    fig2_workload,
    fig3_wmt_runtime,
    fig4_cloud_runtime,
    fig9_microbenchmark,
    fig10_hyperplane,
    fig11_imagenet,
    fig12_cifar_severe,
    fig13_ucf101_lstm,
    scaling,
)
from repro.experiments.report import FidelityRow, fidelity_table
from repro.experiments.training_experiments import FigureResult, fidelity_rows, run_figure

#: CLI name -> spec of every training figure.
FIGURES = {
    "fig10": fig10_hyperplane.SPEC,
    "fig11": fig11_imagenet.SPEC,
    "fig12": fig12_cifar_severe.SPEC,
    "fig13": fig13_ucf101_lstm.SPEC,
}
#: The scales every training figure defines, in the first one's order.
SHARED_SCALES = tuple(
    scale
    for scale in fig10_hyperplane.SPEC.scales
    if all(scale in spec.scales for spec in FIGURES.values())
)


@dataclass
class FidelityTable:
    scale: str
    rows: List[FidelityRow]
    #: The training runs behind the rows, by CLI name.
    figures: Dict[str, FigureResult]


def run(scale: Literal[SHARED_SCALES] = "tiny", seed: int = 0) -> FidelityTable:
    """Run every harness once and collect its claims.

    ``scale`` is the training figures' scale, one every figure defines:
    ``"tiny"`` keeps them inside a quarter of a minute on CPU threads;
    ``"small"`` trades minutes for closer-to-paper behaviour.  ``seed``
    seeds every harness.
    """
    for spec in FIGURES.values():
        spec.params(scale)  # reject a scale some figure lacks before training any
    figures = {name: run_figure(spec, scale=scale, seed=seed) for name, spec in FIGURES.items()}
    rows = fig9_microbenchmark.fidelity(fig9_microbenchmark.run(seed=seed))
    for result in figures.values():
        rows += fidelity_rows(result)
    rows += scaling.fidelity(scaling.run(seed=seed))
    rows += fig2_workload.fidelity(fig2_workload.run(seed=seed))
    rows += fig3_wmt_runtime.fidelity(fig3_wmt_runtime.run(seed=seed))
    rows += fig4_cloud_runtime.fidelity(fig4_cloud_runtime.run(seed=seed))
    return FidelityTable(scale=scale, rows=rows, figures=figures)


def report(table: FidelityTable) -> str:
    inside = sum(row.inside for row in table.rows)
    return fidelity_table(
        table.rows,
        title=(
            f"Paper fidelity: {inside} of {len(table.rows)} claims inside tolerance "
            f"(training figures at scale={table.scale})"
        ),
    )
