"""Fig. 4 — runtime variability of ResNet-50 training on a cloud instance.

ResNet-50 on ImageNet has identical per-batch input sizes, so any runtime
spread is system-induced.  The paper measures 399 ms to 1,892 ms (mean
454 ms, std 116 ms) over five epochs on a Google Cloud ``n1-standard-16``
with two V100 GPUs.  The reproduction combines the fixed ResNet step cost
with the long-tailed cloud-noise injector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.report import FidelityRow, distribution_rows, paper_vs_ours_table
from repro.imbalance.cost_model import cloud_noise_for_resnet50, resnet50_cloud_cost_model
from repro.utils.stats import DistributionSummary, summarize

#: Section 2.3's numbers as ``statistic: (paper's value, tolerance)``: the
#: noise injector's tail is longer and its body narrower than measured.
PAPER_RUNTIME_MS = {
    "min": (399, 0.05),
    "max": (1892, 0.75),
    "mean": (454, 0.05),
    "std": (116, 0.35),
}


@dataclass
class Fig4Result:
    """Measured runtime distribution for the cloud ResNet-50 workload."""

    num_batches: int
    runtime_summary_ms: DistributionSummary


def run(num_batches: int = 30_000, seed: int = 0) -> Fig4Result:
    """Sample per-batch runtimes: fixed compute + long-tailed cloud noise.

    ``num_batches`` runtimes (the paper measures five epochs) with the
    noise seeded by ``seed``.
    """
    base = resnet50_cloud_cost_model().seconds_per_batch
    noise = cloud_noise_for_resnet50(seed=seed)
    runtimes_ms = []
    for step in range(num_batches):
        extra = noise.delays(step, 1)[0]
        runtimes_ms.append((base + extra) * 1000.0)
    return Fig4Result(num_batches=num_batches, runtime_summary_ms=summarize(runtimes_ms))


def fidelity(result: Fig4Result) -> List[FidelityRow]:
    return distribution_rows(
        "Fig. 4", "runtime (ms)", PAPER_RUNTIME_MS, result.runtime_summary_ms
    )


def report(result: Fig4Result) -> str:
    return paper_vs_ours_table(
        fidelity(result), title="Fig. 4  ResNet-50 batch runtimes on a cloud instance"
    )
