"""Table 1 — neural networks used for the evaluation.

The paper's Table 1 lists, per task: the model, its parameter count, the
training-set size, the global batch size, the number of epochs and the
number of processes.  The reproduction instantiates its scaled-down
counterpart of each model and reports both the paper's numbers and the
reproduction's actual parameter counts / dataset sizes, making the scaling
factor explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal

from repro.experiments.report import format_table
from repro.nn.models import (
    HyperplaneMLP,
    SequenceLSTMClassifier,
    resnet_cifar,
    resnet_imagenet_lite,
)


@dataclass(frozen=True)
class NetworkRow:
    """One row of Table 1 (paper numbers + reproduction numbers)."""

    task: str
    model: str
    paper_parameters: int
    repro_parameters: int
    paper_train_size: str
    repro_train_size: str
    paper_batch: int
    repro_batch: int
    paper_epochs: int
    paper_processes: int


@dataclass
class Table1Result:
    rows: List[NetworkRow]


def run(scale: Literal["small", "paper"] = "small") -> Table1Result:
    """Instantiate every evaluated network and collect the table rows.

    ``scale="small"`` builds the CPU-sized models used throughout the
    reproduction; ``scale="paper"`` builds the hyperplane MLP at the
    paper's exact dimensionality (the only model whose exact size is
    feasible on a CPU) and the largest practical versions of the others.
    """
    if scale not in ("small", "paper"):
        raise ValueError(f"scale must be 'small' or 'paper', got {scale!r}")
    paper_scale = scale == "paper"

    mlp = HyperplaneMLP(input_dim=8192 if paper_scale else 256)
    hyperplane_examples = 32_768 if paper_scale else 2_048

    cifar_model = resnet_cifar(
        width=16 if paper_scale else 8,
        blocks_per_stage=5 if paper_scale else 1,
    )
    cifar_examples = 50_000 if paper_scale else 2_000

    imagenet_model = resnet_imagenet_lite(
        num_classes=1000 if paper_scale else 100,
        width=16 if paper_scale else 8,
        blocks_per_stage=2 if paper_scale else 1,
    )
    imagenet_examples = 1_281_167 if paper_scale else 4_000

    lstm_model = SequenceLSTMClassifier(
        feature_dim=2048 if paper_scale else 32,
        hidden_dim=2048 if paper_scale else 32,
        num_classes=101,
    )
    ucf_examples = 9_537 if paper_scale else 1_000

    rows = [
        NetworkRow(
            task="Hyperplane regression",
            model="One-layer MLP",
            paper_parameters=8_193,
            repro_parameters=mlp.num_parameters(),
            paper_train_size="32,768 points",
            repro_train_size=f"{hyperplane_examples:,} points",
            paper_batch=2_048,
            repro_batch=2_048 if paper_scale else 256,
            paper_epochs=48,
            paper_processes=8,
        ),
        NetworkRow(
            task="Cifar-10",
            model="ResNet-32",
            paper_parameters=467_194,
            repro_parameters=cifar_model.num_parameters(),
            paper_train_size="50,000 images",
            repro_train_size=f"{cifar_examples:,} images",
            paper_batch=512,
            repro_batch=512 if paper_scale else 64,
            paper_epochs=190,
            paper_processes=8,
        ),
        NetworkRow(
            task="ImageNet",
            model="ResNet-50",
            paper_parameters=25_559_081,
            repro_parameters=imagenet_model.num_parameters(),
            paper_train_size="1,281,167 images",
            repro_train_size=f"{imagenet_examples:,} images",
            paper_batch=8_192,
            repro_batch=8_192 if paper_scale else 128,
            paper_epochs=90,
            paper_processes=64,
        ),
        NetworkRow(
            task="UCF101",
            model="Inception+LSTM",
            paper_parameters=34_663_525,
            repro_parameters=lstm_model.num_parameters(),
            paper_train_size="9,537 videos",
            repro_train_size=f"{ucf_examples:,} videos",
            paper_batch=128,
            repro_batch=128 if paper_scale else 32,
            paper_epochs=50,
            paper_processes=8,
        ),
    ]
    return Table1Result(rows=rows)


def report(result: Table1Result) -> str:
    table_rows = [
        (
            r.task,
            r.model,
            f"{r.paper_parameters:,}",
            f"{r.repro_parameters:,}",
            r.paper_train_size,
            r.repro_train_size,
            r.paper_batch,
            r.repro_batch,
            r.paper_epochs,
            r.paper_processes,
        )
        for r in result.rows
    ]
    return format_table(
        [
            "Task",
            "Model",
            "Params (paper)",
            "Params (repro)",
            "Train data (paper)",
            "Train data (repro)",
            "Batch (paper)",
            "Batch (repro)",
            "Epochs (paper)",
            "Processes (paper)",
        ],
        table_rows,
        title="Table 1  Neural networks used for evaluation",
    )
