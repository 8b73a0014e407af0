"""Fig. 2 — load imbalance in LSTM training on UCF101.

Fig. 2a of the paper shows the distribution of video lengths over the
9,537 training videos of UCF101 (29 to 1,776 frames, median 167, standard
deviation 97).  Fig. 2b shows the resulting distribution of per-batch
runtimes (batch size 16, bucketed by length) on a P100 GPU: 201 ms to
3,410 ms.

The reproduction samples synthetic video lengths from the calibrated
distribution, buckets them exactly as the paper describes and maps each
batch to a runtime with the LSTM cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.data.bucketing import BucketBatchSampler
from repro.data.ucf101 import UCF101_LENGTH_STATS, sample_video_lengths
from repro.experiments.report import (
    FidelityRow,
    distribution_rows,
    format_table,
    paper_vs_ours_table,
)
from repro.imbalance.cost_model import lstm_ucf101_cost_model
from repro.utils.stats import DistributionSummary, summarize

#: Section 2.1's numbers as ``statistic: (paper's value, tolerance)``.  The
#: length statistics are the ones the sampler is calibrated to; a sample
#: of 9,537 clipped lognormal draws does not reach the 1,776-frame maximum.
PAPER_LENGTH = {
    "min": (UCF101_LENGTH_STATS.min_frames, 0.05),
    "max": (UCF101_LENGTH_STATS.max_frames, 0.5),
    "median": (UCF101_LENGTH_STATS.median_frames, 0.05),
    "std": (UCF101_LENGTH_STATS.std_frames, 0.1),
}
PAPER_RUNTIME_MS = {
    "min": (201, 1.0),
    "max": (3410, 0.1),
    "mean": (1235, 0.05),
    "std": (706, 0.15),
}
#: Epochs sampled: the paper samples 1,192 batches over two epochs.
EPOCHS = 2


@dataclass
class Fig2Result:
    """Measured distributions for Fig. 2a (lengths) and Fig. 2b (runtimes)."""

    num_videos: int
    batch_size: int
    length_summary: DistributionSummary
    #: ``(bin centers, counts)`` of the video lengths, 100-frame bins.
    length_histogram: Tuple[np.ndarray, np.ndarray]
    runtime_summary_ms: DistributionSummary


def run(
    num_videos: int = UCF101_LENGTH_STATS.num_videos,
    batch_size: int = 16,
    seed: int = 0,
) -> Fig2Result:
    """Generate the synthetic workload and measure both distributions.

    Samples ``num_videos`` video lengths (UCF101 has 9,537 training
    videos), buckets them into batches of ``batch_size`` and prices
    :data:`EPOCHS` epochs of batches with the LSTM cost model; ``seed``
    seeds the lengths and the sampler.
    """
    lengths = sample_video_lengths(num_videos, seed=seed)
    bins, counts = np.unique(np.floor(lengths / 100.0), return_counts=True)

    cost_model = lstm_ucf101_cost_model(batch_size=batch_size)
    # drop_last: the paper's runtime distribution is over full batches of
    # 16 bucketed videos; ragged trailing batches would add artificially
    # cheap outliers below the paper's 201 ms minimum.
    sampler = BucketBatchSampler(
        lengths, batch_size=batch_size, num_buckets=16, seed=seed, drop_last=True
    )
    runtimes_ms = []
    for epoch in range(EPOCHS):
        for batch_indices in sampler.epoch_batches(epoch):
            total_frames = float(lengths[batch_indices].sum())
            runtimes_ms.append(cost_model.cost_from_size(total_frames) * 1000.0)

    return Fig2Result(
        num_videos=num_videos,
        batch_size=batch_size,
        length_summary=summarize(lengths),
        length_histogram=(bins * 100.0 + 50.0, counts),
        runtime_summary_ms=summarize(runtimes_ms),
    )


def fidelity(result: Fig2Result) -> List[FidelityRow]:
    """Fig. 2a's rows followed by Fig. 2b's."""
    return distribution_rows(
        "Fig. 2a", "frames", PAPER_LENGTH, result.length_summary
    ) + distribution_rows(
        "Fig. 2b", "runtime (ms)", PAPER_RUNTIME_MS, result.runtime_summary_ms
    )


def report(result: Fig2Result) -> str:
    """Side-by-side comparison with the numbers quoted in the paper."""
    rows = fidelity(result)
    parts = [
        paper_vs_ours_table(
            rows[: len(PAPER_LENGTH)],
            title="Fig. 2a  UCF101 video-length distribution",
            extra=[("num videos", UCF101_LENGTH_STATS.num_videos, result.num_videos)],
        ),
        "",
        paper_vs_ours_table(
            rows[len(PAPER_LENGTH) :],
            title=f"Fig. 2b  LSTM batch runtimes (batch size {result.batch_size})",
        ),
        "",
        format_table(
            ["frames (bin center)", "num videos"],
            list(zip(*(series.tolist() for series in result.length_histogram))),
            title="Fig. 2a histogram (reproduction)",
        ),
    ]
    return "\n".join(parts)
