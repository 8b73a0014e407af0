"""Fig. 10 — hyperplane regression under light (simulated) load imbalance.

Setup of the paper (Section 6.2.1): an 8,192-dimensional hyperplane, a
one-layer MLP, 8 processes with a total batch size of 2,048, 48 epochs.
At every step one randomly selected process is delayed by 200, 300 or
400 ms.  Results: eager-SGD with solo allreduce achieves 1.50x, 1.75x and
2.01x speedup over synch-SGD (Deep500) while converging to the same
validation loss (~4.7).

The reproduction keeps the structure (1-of-P random delay of the same
magnitudes; same model family; same comparison) and scales the problem
size so it runs on CPU threads; the time axis is projected to paper scale
from the per-step workload trace.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping

from repro.data.hyperplane import HyperplaneDataset
from repro.experiments.training_experiments import (
    Claim,
    FigureSpec,
    Workload,
    injected_delay_variants,
    report_figure,
    run_figure,
)
from repro.imbalance.cost_model import FixedCostModel
from repro.nn.losses import MSELoss
from repro.nn.models import HyperplaneMLP

#: Single-GPU step time implied by the paper ("0.64 steps/s with batch
#: size 2,048" on one node): roughly 195 ms of compute per local batch at
#: 8-way parallelism.
STEP_COMPUTE_SECONDS = 0.195

#: Injected delay (ms) -> speedup of eager-SGD (solo) over synch-SGD
#: (Deep500) quoted in 6.2.1, and the validation loss both converge to.
PAPER_SPEEDUPS = {200.0: 1.50, 300.0: 1.75, 400.0: 2.01}
PAPER_FINAL_LOSS = 4.7


def _workload(
    p: Mapping[str, object], seed: int, delays_ms=tuple(PAPER_SPEEDUPS), time_scale=0.001
) -> Workload:
    return Workload(
        dataset=HyperplaneDataset(
            num_examples=p["num_examples"], input_dim=p["input_dim"], noise_std=1.0, seed=seed
        ),
        model_factory=lambda: HyperplaneMLP(input_dim=p["input_dim"], seed=seed + 1),
        loss_fn=MSELoss(),
        cost_model=FixedCostModel(STEP_COMPUTE_SECONDS),
        # At every step one randomly selected process is delayed.
        variants=injected_delay_variants(delays_ms, ("Deep500",), num_delayed=1, seed=seed),
        config=dict(
            learning_rate=0.5, optimizer="sgd", model_sync_period_epochs=10,
            time_scale=time_scale,
        ),
        classification=False,
    )


SPEC = FigureSpec(
    figure="Fig. 10",
    title="Fig. 10  Hyperplane regression, synch-SGD vs eager-SGD (scale={scale})",
    scales={
        "tiny": dict(
            input_dim=64, num_examples=512, global_batch_size=128, epochs=3, world_size=4
        ),
        "small": dict(
            input_dim=256, num_examples=2048, global_batch_size=256, epochs=8, world_size=8
        ),
        "paper": dict(
            input_dim=8192, num_examples=32768, global_batch_size=2048, epochs=48, world_size=8
        ),
    },
    build=_workload,
    curves=(("eval_loss", "Fig. 10 (bottom)  validation loss vs projected training time"),),
    headline=(
        "Fig. 10 (top)  throughput speedups",
        "injection",
        "measured speedup (solo vs Deep500)",
        "paper speedup",
    ),
    headline_fields=("speedup", "paper_speedup"),
    claims=tuple(
        Claim(
            f"eager-SGD-{int(delay)} (solo)", f"synch-SGD-{int(delay)} (Deep500)", speedup,
            "eval_loss", PAPER_FINAL_LOSS, label=f"{int(delay)} ms injection",
        )
        for delay, speedup in PAPER_SPEEDUPS.items()
    ),
)

#: ``run(scale="small", seed=0, comm_backend=None, compression=None,
#: delays_ms=(200.0, 300.0, 400.0), time_scale=0.001)``: synch-SGD vs
#: eager-SGD (solo) for every injected delay.
run = partial(run_figure, SPEC)
report = report_figure
