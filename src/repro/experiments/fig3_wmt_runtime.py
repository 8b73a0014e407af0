"""Fig. 3 — runtime distribution of Transformer training on WMT16.

The paper samples 20,653 batches (batch size 64, one third of an epoch)
and reports runtimes from 179 ms to 3,482 ms with a mean of 475 ms and a
standard deviation of 144 ms — inherent load imbalance caused by variable
sentence lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.data.bucketing import BucketBatchSampler
from repro.data.wmt import sample_sentence_lengths
from repro.experiments.report import FidelityRow, distribution_rows, paper_vs_ours_table
from repro.imbalance.cost_model import transformer_wmt_cost_model
from repro.utils.stats import DistributionSummary, summarize

#: Section 2.2's numbers as ``statistic: (paper's value, tolerance)``: the
#: synthetic sentence lengths give a wider body and a shorter tail.
PAPER_RUNTIME_MS = {
    "min": (179, 0.25),
    "max": (3482, 0.6),
    "mean": (475, 0.25),
    "std": (144, 1.25),
}
PAPER_NUM_BATCHES = 20_653
#: Sentences per batch, as in the paper.
BATCH_SIZE = 64


@dataclass
class Fig3Result:
    """Measured batch-runtime distribution for the Transformer workload."""

    num_sentences: int
    batch_size: int
    num_batches: int
    runtime_summary_ms: DistributionSummary


def run(num_sentences: int = 200_000, seed: int = 0) -> Fig3Result:
    """Sample sentence lengths, bucket them and measure batch runtimes.

    ``num_sentences`` sentence lengths (seeded by ``seed``) are bucketed
    into batches of :data:`BATCH_SIZE`; one epoch of batches is priced
    with the Transformer cost model.
    """
    lengths = sample_sentence_lengths(num_sentences, seed=seed)
    cost_model = transformer_wmt_cost_model(batch_size=BATCH_SIZE)
    sampler = BucketBatchSampler(
        lengths, batch_size=BATCH_SIZE, num_buckets=16, seed=seed, drop_last=True
    )
    runtimes_ms = [
        cost_model.cost_from_size(float(lengths[batch].sum())) * 1000.0
        for batch in sampler.epoch_batches(0)
    ]
    return Fig3Result(
        num_sentences=num_sentences,
        batch_size=BATCH_SIZE,
        num_batches=len(runtimes_ms),
        runtime_summary_ms=summarize(runtimes_ms),
    )


def fidelity(result: Fig3Result) -> List[FidelityRow]:
    return distribution_rows(
        "Fig. 3", "runtime (ms)", PAPER_RUNTIME_MS, result.runtime_summary_ms
    )


def report(result: Fig3Result) -> str:
    return paper_vs_ours_table(
        fidelity(result),
        title=f"Fig. 3  Transformer/WMT batch runtimes (batch size {result.batch_size})",
        extra=[("num batches", PAPER_NUM_BATCHES, result.num_batches)],
    )
