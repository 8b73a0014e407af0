"""Driver subprocess: builds one workload's inputs and runs one world.

``run.py`` starts a fresh ``python bench/worker.py`` per world, so every
world pays its own imports and ``getrusage(RUSAGE_CHILDREN)`` sees only
that world's ranks.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from bench.pins import BLAS_PINS  # noqa: E402

os.environ.update(BLAS_PINS)  # before NumPy loads; rank processes inherit it

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from bench import layers, stats  # noqa: E402
from bench.sentinel import REFERENCE_MS, HostSpeedSentinel  # noqa: E402
from bench.workloads import BY_NAME, STEPS_PER_EPOCH, build_inputs, training_config  # noqa: E402
from repro.comm.backend import launch  # noqa: E402
from repro.training.runner import train_distributed  # noqa: E402

#: Wall-clock limit of one world; a deadlock becomes an error, not a hang.
_WORLD_TIMEOUT = 150.0
#: Base repeat count of the layer run's standalone timings.
_STANDALONE_REPEATS = 20


def fingerprint(workload, seed: int) -> dict:
    cpus = os.cpu_count() or 1
    return {
        "cpu_count": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PINS},
        "backend": workload.backend,
        "ranks_per_cpu": workload.world_size / cpus,
        "loadavg_at_start": os.getloadavg()[0],
        "seed": seed,
    }


def _train(workload, inputs, epochs: int, world_size=None, no_delay=None):
    return train_distributed(
        inputs.model_factory,
        inputs.train,
        inputs.loss_fn,
        training_config(workload, inputs, epochs, world_size=world_size, no_delay=no_delay),
        eval_dataset=inputs.eval,
        run_timeout=_WORLD_TIMEOUT,
    )


def run_e2e(workload, seed: int, epochs: int, started: float) -> dict:
    """One untraced ``train_distributed`` run; raw observations only."""
    inputs = build_inputs(workload, seed)
    # Where nothing sleeps the step is processor-bound and follows the
    # shared host's speed; the sentinel measures that speed per epoch.
    sentinel = None
    if not workload.skewed:
        sentinel = HostSpeedSentinel(workload.world_size, STEPS_PER_EPOCH * epochs)
    result = _train(workload, inputs, epochs, no_delay=sentinel)
    ended = time.time()
    walls = [e.wall_time for e in result.epochs]
    return {
        # Per epoch, kernel time over REFERENCE_MS (None: wall clock as read).
        "host_slowdowns": sentinel.epoch_slowdowns(STEPS_PER_EPOCH) if sentinel else None,
        "host_speed_reference_ms": REFERENCE_MS if sentinel else None,
        # Everything but the timed epochs: imports, dataset, launch and
        # rendezvous, exchange construction, epoch 0 and reaping the world.
        "setup_s": (ended - started) - sum(walls[1:]),
        "epoch_walls": walls,
        "eval_losses": [e.eval_loss for e in result.epochs],
        "model_hashes": [s.final_model_hash for s in result.rank_summaries],
        "mean_num_active": min(s.mean_num_active for s in result.rank_summaries),
        # Largest rank: the world has been reaped, so its ranks are counted.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "steps": STEPS_PER_EPOCH * epochs,
    }


def _noop(comm) -> int:
    return comm.rank


def run_layers(workload, seed: int, epochs: int, trace_path: Path) -> dict:
    """The traced layer run: one world of ``epochs`` epochs, the first unmeasured."""
    builds = []
    for _ in range(3):
        start = time.perf_counter()
        inputs = build_inputs(workload, seed)
        builds.append(time.perf_counter() - start)
    launches = layers.timed(lambda: launch(
        _noop, workload.world_size, backend=workload.backend, timeout=_WORLD_TIMEOUT
    ), 3)
    outputs = launch(
        layers.rank_main, workload.world_size, workload, inputs, epochs, _STANDALONE_REPEATS,
        backend=workload.backend, timeout=_WORLD_TIMEOUT,
    )
    head = outputs[0]
    metrics = head["metrics"]
    metrics["data.build_s"] = stats.median(builds)
    metrics["comm.launch_s"] = stats.median(launches)
    single = _train(workload, inputs, 3, world_size=1)
    metrics["runner.single_worker_steps_per_s"] = STEPS_PER_EPOCH / stats.median(
        [e.wall_time for e in single.epochs[1:]]
    )

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(
        {"workload": workload.name, "seed": seed,
         "spans": [span for out in outputs for span in out["spans"]]}
    ))
    return {
        "metrics": metrics,
        "samples": head["samples"],
        "steps": STEPS_PER_EPOCH * epochs,
        "trace_file": str(trace_path.relative_to(_ROOT)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("e2e", "layers"))
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--started", type=float, default=None,
                        help="time.time() just before this process was started")
    args = parser.parse_args()
    started = time.time() if args.started is None else args.started
    workload = BY_NAME[args.workload]
    if args.role == "e2e":
        raw = run_e2e(workload, args.seed, args.epochs, started)
    else:
        raw = run_layers(
            workload, args.seed, args.epochs,
            _ROOT / "bench" / "results" / f"trace_{workload.name}.json",
        )
    raw["fingerprint"] = fingerprint(workload, args.seed)
    print(json.dumps(raw))


if __name__ == "__main__":
    main()
