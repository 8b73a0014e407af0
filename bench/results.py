"""From a worker's raw observations to metrics, and the output checks.

Pure functions: everything here works on plain lists and dicts, so the
definitions of the end-to-end metrics can be tested without a world.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench import stats

REFERENCES_PATH = Path(__file__).resolve().parent / "references.json"
#: Relative tolerance of a synchronous run's final loss against its frozen
#: reference: far above cross-machine rounding, far below any real change.
REFERENCE_RTOL = 1e-6
#: Stale gradients may cost majority eager-SGD at most this factor in final loss.
MAJORITY_LOSS_FACTOR = 1.10
#: Workload whose frozen final loss a workload must reproduce.
REFERENCE_WORKLOAD = {
    "skew_sync": "skew_sync",
    "bulk_dense": "bulk_dense",
    # PR 10's guarantee: the ZeRO-1 path is bitwise the dense ring path.
    "bulk_zero1": "bulk_dense",
}


def end_to_end_metrics(
    raw: dict, setups: Sequence[float], steps_per_epoch: int, target_loss: float
) -> Dict[str, float]:
    """The five end-to-end metrics of one run.

    ``raw`` is the worker's observation of the full run; ``setups`` are the
    set-up times of every world started for it (the full run's included).
    Epoch 0 belongs to set-up, so ``time_to_target_s`` counts epochs from
    the loss epoch 0 left behind.  It is the epochs to the target times the
    median timed epoch, not the sum of the epochs up to the crossing: over
    ten runs the sum spread 16% where the median epoch spread 6.5%.  A run
    that never reaches the target counts all its timed epochs.
    """
    epoch_s = stats.median(timed_epochs(raw))
    return {
        "setup_s": stats.median(list(setups)),
        "steps_per_s": steps_per_epoch / epoch_s,
        "time_to_target_s": epochs_to_target(raw, target_loss) * epoch_s,
        "final_loss": raw["eval_losses"][-1],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def timed_epochs(raw: dict) -> List[float]:
    """Seconds of every epoch after epoch 0, at the quiet host's speed.

    Where the run carried a host-speed sentinel (``bulk_*``), each epoch's
    wall time is divided by how much slower than ``sentinel.REFERENCE_MS``
    the host ran the sentinel's kernel during that epoch.
    """
    walls = raw["epoch_walls"][1:]
    slowdowns = raw.get("host_slowdowns")
    if not slowdowns:
        return list(walls)
    return [wall / slow for wall, slow in zip(walls, slowdowns[1:])]


def epochs_to_target(raw: dict, target_loss: float) -> float:
    """Timed epochs until eval loss <= ``target_loss``, interpolated."""
    losses = raw["eval_losses"]
    crossing = stats.time_to_target(range(len(losses)), losses, target_loss)
    return float(len(losses) - 1 if crossing is None else crossing)


def reached_target(raw: dict, target_loss: float) -> bool:
    return min(raw["eval_losses"]) <= target_loss


def load_references(path: Path = REFERENCES_PATH) -> Dict[str, Dict[str, float]]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def reference_key(seed: int, epochs: int) -> str:
    return f"seed{seed}:epochs{epochs}"


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REFERENCE_RTOL * abs(reference)


def check_run(
    name: str, synchronous: bool, world_size: int, raw: dict,
    reference: Optional[float], sync_reference: Optional[float] = None,
) -> List[str]:
    """Failures of one run's outputs (empty = correct).

    ``reference`` is the frozen final loss this workload must reproduce,
    ``sync_reference`` the synchronous final loss a majority run is held
    against; either is ``None`` when nothing is frozen for the seed.
    """
    failures: List[str] = []
    losses = raw["eval_losses"]
    if not all(math.isfinite(x) for x in losses):
        failures.append(f"{name}: non-finite eval loss in {losses}")
        return failures
    if synchronous:
        if len(set(raw["model_hashes"])) != 1:
            failures.append(f"{name}: ranks ended on different models {raw['model_hashes']}")
        if reference is not None and not _close(losses[-1], reference):
            failures.append(
                f"{name}: final_loss {losses[-1]!r} differs from the frozen {reference!r}"
            )
    else:
        if raw["mean_num_active"] < world_size / 2:
            failures.append(
                f"{name}: mean_num_active {raw['mean_num_active']:.3f} < P/2 = {world_size / 2}"
            )
        if sync_reference is not None and losses[-1] > MAJORITY_LOSS_FACTOR * sync_reference:
            failures.append(
                f"{name}: final_loss {losses[-1]:.4f} > {MAJORITY_LOSS_FACTOR} x "
                f"synchronous {sync_reference:.4f}"
            )
    return failures


def check_pairs(final_loss: Dict[str, float]) -> List[str]:
    """Checks that need two workloads of one set (same seed, same length)."""
    failures: List[str] = []
    dense, zero1 = final_loss.get("bulk_dense"), final_loss.get("bulk_zero1")
    if dense is not None and zero1 is not None and dense != zero1:
        failures.append(f"bulk_zero1 final_loss {zero1!r} != bulk_dense {dense!r} (bitwise)")
    sync, majority = final_loss.get("skew_sync"), final_loss.get("skew_majority")
    if sync is not None and majority is not None and majority > MAJORITY_LOSS_FACTOR * sync:
        failures.append(
            f"skew_majority final_loss {majority:.4f} > {MAJORITY_LOSS_FACTOR} x "
            f"skew_sync {sync:.4f}"
        )
    return failures
