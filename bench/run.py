#!/usr/bin/env python3
"""The benchmark's one command.

    python bench/run.py                     all four workloads, one set, tracing off
    python bench/run.py --sets 2 --layers   two sets, then the traced layer run
    python bench/run.py --sets 0 --layers   the traced layer run alone
    python bench/run.py --check             validate BENCHMARK.json and exit

    python bench/run.py --workload skew_sync --seed 3 --seconds 20 --trace 0

is the form the driver uses: one workload, and as the last line of standard
output one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric, or with ``--trace 1`` every per-layer
metric).  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.pins import BLAS_PINS  # noqa: E402

os.environ.update(BLAS_PINS)  # before NumPy loads; every worker inherits it

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from bench import manifest, results, stats  # noqa: E402
from bench.workloads import BY_NAME, STEPS_PER_EPOCH, WORKLOADS, Workload  # noqa: E402

#: Worlds started per end-to-end run; ``setup_s`` is the median of their
#: set-up times.  All but the last stop after epoch 0 and double as warm-up.
SETUP_WORLDS = 3
#: Measured epochs of the layer run per second of ``--seconds`` (at least 4);
#: half of their steps are traced, half are the runner's own.
LAYER_EPOCHS_PER_SECOND = 2 / 3
#: Above this ``step.unattributed_share`` or ``trace.overhead_share`` the
#: layer numbers do not describe the program's step, and the run fails.
LAYER_SHARE_LIMIT = 0.10
WORKER_TIMEOUT_SECONDS = 170


class WorkerFailed(RuntimeError):
    pass


def run_worker(role: str, workload: Workload, seed: int, epochs: int) -> dict:
    """One fresh driver subprocess, one world at a time; returns its JSON."""
    cmd = [
        sys.executable, str(ROOT / "bench" / "worker.py"), role,
        "--workload", workload.name, "--seed", str(seed), "--epochs", str(epochs),
        "--started", repr(time.time()),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload.name}: worker timed out") from None
    finally:
        # The worker leads its own process group: nothing it started survives.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload.name}: worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _failed_run(epochs: int, reason: str) -> dict:
    steps = STEPS_PER_EPOCH * epochs
    return {"metrics": None, "attempted": steps, "failed": steps, "failures": [reason]}


def _emitted_names_match(metrics: Dict[str, float], trace: bool) -> List[str]:
    declared = set(manifest.metric_table(trace))
    failures = []
    if set(metrics) != declared:
        failures.append(
            f"emitted metrics differ from the manifest: missing "
            f"{sorted(declared - set(metrics))}, extra {sorted(set(metrics) - declared)}"
        )
    failures += [f"{k} is not finite: {v!r}" for k, v in metrics.items() if not math.isfinite(v)]
    return failures


def measure_end_to_end(workload: Workload, seed: int, seconds: float, references: dict) -> dict:
    """SETUP_WORLDS worlds, the last one full length, tracing off."""
    epochs = workload.epochs_for(seconds)
    try:
        setups = [
            run_worker("e2e", workload, seed, 1)["setup_s"] for _ in range(SETUP_WORLDS - 1)
        ]
        raw = run_worker("e2e", workload, seed, epochs)
    except WorkerFailed as exc:
        return _failed_run(epochs, str(exc))
    setups.append(raw["setup_s"])
    metrics = results.end_to_end_metrics(raw, setups, STEPS_PER_EPOCH, workload.target_loss)
    key = results.reference_key(seed, epochs)
    failures = results.check_run(
        workload.name, workload.synchronous, workload.world_size, raw,
        reference=references.get(results.REFERENCE_WORKLOAD.get(workload.name), {}).get(key),
        sync_reference=references.get("skew_sync", {}).get(key),
    )
    failures += _emitted_names_match(metrics, trace=False)
    return {
        "metrics": metrics,
        "attempted": raw["steps"],
        "failed": raw["steps"] if failures else 0,
        "failures": failures,
        "samples": {
            "epochs_timed": epochs - 1,
            "setup_worlds": len(setups),
            "target_loss": workload.target_loss,
            "target_reached": results.reached_target(raw, workload.target_loss),
            "epochs_to_target": results.epochs_to_target(raw, workload.target_loss),
            "epoch_walls": raw["epoch_walls"],
            "host_slowdowns": raw["host_slowdowns"],
            "host_speed_reference_ms": raw["host_speed_reference_ms"],
        },
        "fingerprint": raw["fingerprint"],
    }


def measure_layers(workload: Workload, seed: int, seconds: float) -> dict:
    """The separate traced run that produces the per-layer numbers."""
    epochs = 1 + max(4, round(seconds * LAYER_EPOCHS_PER_SECOND))
    try:
        raw = run_worker("layers", workload, seed, epochs)
    except WorkerFailed as exc:
        return _failed_run(epochs, str(exc))
    failures = _emitted_names_match(raw["metrics"], trace=True)
    failures += [
        f"{workload.name}: {share} = {raw['metrics'][share]:.3f} exceeds {LAYER_SHARE_LIMIT}"
        for share in ("step.unattributed_share", "trace.overhead_share")
        if raw["metrics"].get(share, 0.0) > LAYER_SHARE_LIMIT
    ]
    return {
        "metrics": raw["metrics"],
        "attempted": raw["steps"],
        "failed": raw["steps"] if failures else 0,
        "failures": failures,
        "samples": raw["samples"],
        "trace_file": raw["trace_file"],
        "fingerprint": raw["fingerprint"],
    }


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------
def _print_matrix(title: str, trace: bool, columns: Dict[str, Dict[str, float]]) -> None:
    """Rows are metrics (name [unit]), columns are workloads."""
    table = manifest.metric_table(trace)
    labels = [f"{m.name} [{m.unit}]" for m in table.values()]
    width = max(len(label) for label in labels)
    print(f"\n{title}")
    print(" " * width + "".join(f"{name:>16}" for name in columns))
    for label, metric in zip(labels, table):
        cells = "".join(
            f"{values[metric]:>16.6g}" if values else f"{'failed':>16}"
            for values in columns.values()
        )
        print(f"{label:<{width}}{cells}")


def _driver_line(run: dict, trace: bool) -> str:
    table = manifest.metric_table(trace)
    return json.dumps({
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": run["metrics"][name], "unit": table[name].unit} for name in table
        },
    })


def _git_sha() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


# ---------------------------------------------------------------------------
# the two ways to run
# ---------------------------------------------------------------------------
def run_for_driver(args) -> int:
    """One workload; the last line of standard output is the driver's JSON."""
    workload = BY_NAME[args.workload]
    if args.trace:
        run = measure_layers(workload, args.seed, args.seconds)
    else:
        run = measure_end_to_end(workload, args.seed, args.seconds, results.load_references())
    for failure in run["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if run["metrics"] is None:
        return 1
    _print_matrix(
        f"{workload.name}, seed {args.seed}, {args.seconds} s", bool(args.trace),
        {workload.name: run["metrics"]},
    )
    print(f"ops_attempted {run['attempted']}  ops_failed {run['failed']}  {run['samples']}")
    print(_driver_line(run, bool(args.trace)))
    return 1 if run["failures"] else 0


def _end_to_end_sets(args, workloads, references) -> tuple:
    """``--sets`` rounds over the workloads; per-workload cells and failures."""
    if not args.sets:
        return {}, []
    failures: List[str] = []
    sets: List[Dict[str, dict]] = []
    for index in range(args.sets):
        runs = {w.name: measure_end_to_end(w, args.seed, args.seconds, references) for w in workloads}
        sets.append(runs)
        final = {n: r["metrics"]["final_loss"] for n, r in runs.items() if r["metrics"]}
        failures += [f"set {index}: {f}" for r in runs.values() for f in r["failures"]]
        failures += [f"set {index}: {f}" for f in results.check_pairs(final)]
        _print_matrix(
            f"end to end, set {index + 1} of {args.sets} (seed {args.seed}, "
            f"{args.seconds} s runs, tracing off)",
            False, {n: r["metrics"] for n, r in runs.items()},
        )
    cells = {}
    for w in workloads:
        runs = [s[w.name] for s in sets]
        good = [r for r in runs if r["metrics"]]
        cells[w.name] = {
            "ops_attempted": sum(r["attempted"] for r in runs),
            "ops_failed": sum(r["failed"] for r in runs),
            "samples": good[-1]["samples"] if good else None,
            "fingerprint": good[-1]["fingerprint"] if good else None,
            "metrics": {
                m.name: {
                    "unit": m.unit,
                    "values": [r["metrics"][m.name] for r in good],
                    **stats.summarise([r["metrics"][m.name] for r in good]),
                }
                for m in manifest.END_TO_END
            } if good else None,
        }
    return cells, failures


def _print_sets_summary(cells: Dict[str, dict], sets: int) -> Dict[str, float]:
    """Operation counts, agreement between sets, and the paper's ordering."""
    print("\nworkload            ops_attempted  ops_failed")
    for name, cell in cells.items():
        print(f"{name:<20}{cell['ops_attempted']:>13}{cell['ops_failed']:>12}")
    if sets > 1:
        print("\nlargest difference between sets, as a share of the median (bound)")
        for name, cell in cells.items():
            shares = []
            for m in manifest.END_TO_END if cell["metrics"] else ():
                v = cell["metrics"][m.name]["values"]
                shares.append(f"{m.name} {(max(v) - min(v)) / stats.median(v):.3f} ({m.bound})")
            print(f"{name:<16}" + "  ".join(shares))
    derived = {}
    if all(cells.get(n, {}).get("metrics") for n in ("skew_sync", "skew_majority")):
        ratio = (
            cells["skew_majority"]["metrics"]["steps_per_s"]["median"]
            / cells["skew_sync"]["metrics"]["steps_per_s"]["median"]
        )
        derived["skew_majority.steps_per_s/skew_sync.steps_per_s"] = ratio
        print(f"\nskew_majority.steps_per_s / skew_sync.steps_per_s = {ratio:.3f} "
              f"(eager-SGD speedup; the paper reports 1.27x; not gated)")
    return derived


def _layer_runs(args, workloads) -> tuple:
    runs = {w.name: measure_layers(w, args.seed, args.seconds) for w in workloads}
    _print_matrix(
        f"per layer (seed {args.seed}, traced run, rank 0 medians)",
        True, {n: r["metrics"] for n, r in runs.items()},
    )
    failures = [f"layers: {f}" for r in runs.values() for f in r["failures"]]
    keep = ("metrics", "samples", "trace_file", "fingerprint", "attempted", "failed")
    return {n: {k: r.get(k) for k in keep} for n, r in runs.items()}, failures


def _freeze_references(args, cells: Dict[str, dict], references: dict) -> None:
    """Store this seed's synchronous final losses for later runs to match."""
    for name in set(results.REFERENCE_WORKLOAD.values()) & set(cells):
        key = results.reference_key(args.seed, BY_NAME[name].epochs_for(args.seconds))
        references.setdefault(name, {})[key] = cells[name]["metrics"]["final_loss"]["values"][-1]
    results.REFERENCES_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Every requested workload, ``--sets`` times, then the printed matrix."""
    workloads = [BY_NAME[name] for name in args.workloads]
    references = results.load_references()
    summary: dict = {
        "fingerprint": {"git_sha": _git_sha(), "seed": args.seed, "run_seconds": args.seconds},
    }
    summary["end_to_end"], failures = _end_to_end_sets(args, workloads, references)
    if args.sets:
        summary["derived"] = _print_sets_summary(summary["end_to_end"], args.sets)
    summary["per_layer"] = {}
    if args.layers:
        summary["per_layer"], layer_failures = _layer_runs(args, workloads)
        failures += layer_failures
    if args.freeze and failures:
        print("not freezing references: the run failed its checks", file=sys.stderr)
    elif args.freeze:
        _freeze_references(args, summary["end_to_end"], references)

    summary["checks_failed"] = failures
    summary["claim"] = None  # this benchmark measures; it claims no gain
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"\n{'all output checks passed' if not failures else f'{len(failures)} check(s) failed'}"
          f"; results written to {out}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS,
                        help="run length; scales every workload's epoch count")
    parser.add_argument("--check", action="store_true", help="validate BENCHMARK.json and exit")
    driver = parser.add_argument_group("one workload, driver output")
    driver.add_argument("--workload", choices=sorted(BY_NAME))
    driver.add_argument("--trace", type=int, choices=(0, 1), default=0)
    full = parser.add_argument_group("all workloads, printed matrix")
    full.add_argument("--workloads", nargs="+", choices=sorted(BY_NAME),
                      default=[w.name for w in WORKLOADS])
    full.add_argument("--sets", type=int, default=1, help="end-to-end sets (0 = none)")
    full.add_argument("--layers", action="store_true", help="also make the traced layer run")
    full.add_argument("--freeze", action="store_true",
                      help="store this seed's synchronous final losses as references")
    full.add_argument("--out", default=str(ROOT / "bench" / "results" / "latest.json"))
    args = parser.parse_args()

    problems = manifest.check()
    for problem in problems:
        print(f"BENCHMARK.json: {problem}", file=sys.stderr)
    if problems:
        return 2
    if args.check:
        print("BENCHMARK.json matches bench/ and the driver's schema")
        return 0
    return run_for_driver(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
