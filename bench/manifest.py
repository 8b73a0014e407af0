"""The metric tables, and the self-check that ``BENCHMARK.json`` matches them.

The runner emits exactly the metrics declared here; ``BENCHMARK.json`` is
the same declaration in the driver's schema.  ``check()`` proves the two
agree and that the file stays inside the schema's limits, which is what a
hand-edited manifest got wrong before.
"""

from __future__ import annotations

import json
import re
import subprocess
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MANIFEST_PATH = ROOT / "BENCHMARK.json"

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 20


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median the metric may worsen by (end to end only).
    bound: Optional[float] = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("steps_per_s", "steps/s", "higher", 0.20),
    Metric("time_to_target_s", "s", "lower", 0.20),
    Metric("final_loss", "nats", "lower", 0.05),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

PER_LAYER = (
    # comm
    Metric("comm.launch_s", "s", "lower"),
    Metric("comm.p2p_small_us", "us", "lower"),
    Metric("comm.p2p_bulk_mbps", "MB/s", "higher"),
    Metric("comm.combine_gbps", "GB/s", "higher"),
    Metric("comm.sends_per_step", "count", "lower"),
    Metric("comm.wire_bytes_per_step", "bytes", "lower"),
    # collectives
    Metric("collectives.allreduce_ms", "ms", "lower"),
    Metric("collectives.reduce_scatter_ms", "ms", "lower"),
    Metric("collectives.allgather_ms", "ms", "lower"),
    Metric("collectives.partial_solo_ms", "ms", "lower"),
    Metric("collectives.partial_majority_ms", "ms", "lower"),
    Metric("collectives.fresh_share", "ratio", "higher"),
    Metric("collectives.partial_rounds", "count", "lower"),
    # training.bucketing
    Metric("bucketing.pack_ms", "ms", "lower"),
    Metric("bucketing.unpack_ms", "ms", "lower"),
    Metric("bucketing.buckets", "count", "lower"),
    # training.exchange
    Metric("exchange.call_ms", "ms", "lower"),
    Metric("exchange.wait_ms", "ms", "lower"),
    Metric("exchange.self_ms", "ms", "lower"),
    Metric("exchange.included_share", "ratio", "higher"),
    # nn
    Metric("nn.fwd_bwd_ms", "ms", "lower"),
    Metric("nn.flatten_ms", "ms", "lower"),
    Metric("nn.assign_ms", "ms", "lower"),
    Metric("nn.optim_ms", "ms", "lower"),
    Metric("nn.optim_state_mb", "MB", "lower"),
    # data
    Metric("data.build_s", "s", "lower"),
    Metric("data.batch_ms", "ms", "lower"),
    # training.runner
    Metric("step.ms_p50", "ms", "lower"),
    Metric("step.ms_p95", "ms", "lower"),
    Metric("step.injected_ms", "ms", "lower"),
    Metric("step.unattributed_share", "ratio", "lower"),
    Metric("runner.eval_ms", "ms", "lower"),
    Metric("runner.single_worker_steps_per_s", "steps/s", "higher"),
    # obs
    Metric("trace.overhead_share", "ratio", "lower"),
)


def expected_manifest() -> dict:
    """``BENCHMARK.json`` as the tables above declare it."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


# ---------------------------------------------------------------------------
# the driver's schema
# ---------------------------------------------------------------------------
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
#: Runs the driver makes and the seconds they must all fit in.
_FIXED_RUNS, _RUNS_PER_WORKLOAD, _TOTAL_SECONDS = 4, 22, 3420
#: What a run takes beyond its timed epochs: three interpreters, three
#: worlds launched and reaped, three epochs 0 (4.5-8 s measured).
_SETUP_SECONDS_PER_RUN = 8
#: Timed epochs take longer than ``run_seconds`` when the shared host is
#: slow (``bulk_dense`` up to 2.2 times; the ``skew_*`` sleeps do not
#: stretch): the allowance for the four workloads together.
_HOST_SLOWDOWN = 1.25


def _outside_repo(text: str) -> bool:
    return text.startswith("/") or ".." in Path(text).parts


def validate(manifest: dict) -> List[str]:
    """Every way ``manifest`` breaks the driver's schema (empty = valid)."""
    errors: List[str] = []
    if set(manifest) != _KEYS:
        return [f"keys must be exactly {sorted(_KEYS)}, got {sorted(manifest)}"]

    paths = manifest["paths"]
    if not 1 <= len(paths) <= 16:
        errors.append(f"paths: need 1 to 16 directories, got {len(paths)}")
    for path in paths:
        if not _PATH.fullmatch(path) or _outside_repo(path):
            errors.append(f"paths: {path!r} is not a relative path inside the repo")

    command = manifest["command"]
    if not 1 <= len(command) <= 32 or any(len(part) > 200 for part in command):
        errors.append("command: 1 to 32 strings of at most 200 characters each")
    for part in command[1:]:
        if _outside_repo(part):
            errors.append(f"command: {part!r} leads out of the repo")
        elif "/" in part and not any(
            part == p or part.startswith(p.rstrip("/") + "/") for p in paths
        ):
            errors.append(f"command: {part!r} names a file outside paths")

    seconds = manifest["run_seconds"]
    if isinstance(seconds, bool) or not isinstance(seconds, int) or not 1 <= seconds <= 60:
        errors.append(f"run_seconds: whole number from 1 to 60, got {seconds!r}")

    workloads = manifest["workloads"]
    if not 2 <= len(workloads) <= 8:
        errors.append(f"workloads: need 2 to 8, got {len(workloads)}")
    for w in workloads:
        if set(w) != {"name", "why"}:
            errors.append(f"workload {w.get('name')!r}: keys must be name and why")
        elif "\n" in w["why"] or not 1 <= len(w["why"]) <= 200:
            errors.append(f"workload {w['name']!r}: why must be one line of <= 200 chars")

    e2e, layers = manifest["end_to_end"], manifest["per_layer"]
    if not 1 <= len(e2e) <= 16:
        errors.append(f"end_to_end: need 1 to 16 metrics, got {len(e2e)}")
    if not 1 <= len(layers) <= 128:
        errors.append(f"per_layer: need 1 to 128 metrics, got {len(layers)}")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            errors.append(f"end_to_end {m.get('name')!r}: wrong keys {sorted(m)}")
        elif not isinstance(m["bound"], (int, float)) or not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end {m['name']!r}: bound must be in (0, 0.25]")
    for m in layers:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer {m.get('name')!r}: wrong keys {sorted(m)}")
    for m in list(e2e) + list(layers):
        if not _UNIT.fullmatch(str(m.get("unit", ""))):
            errors.append(f"metric {m.get('name')!r}: bad unit {m.get('unit')!r}")
        if m.get("better") not in ("lower", "higher"):
            errors.append(f"metric {m.get('name')!r}: better must be lower or higher")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errors.append("end_to_end: setup_s (unit s, better lower) is required")

    names = [x.get("name", "") for x in list(workloads) + list(e2e) + list(layers)]
    for name in names:
        if not _NAME.fullmatch(name):
            errors.append(f"name {name!r} breaks the alphabet or the length limit")
    for name in sorted({n for n in names if names.count(n) > 1}):
        errors.append(f"name {name!r} is used more than once")

    if len(json.dumps(manifest)) > 64 * 1024:
        errors.append("the manifest is larger than 64 KiB")
    return errors


def _changed_files(root: Path) -> Optional[List[str]]:
    """Files that differ from the parent commit, or ``None`` outside git."""
    try:
        tracked = subprocess.run(
            ["git", "diff", "--name-only", "HEAD"], cwd=root, check=True,
            capture_output=True, text=True,
        ).stdout
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"], cwd=root,
            check=True, capture_output=True, text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return sorted(set(tracked.split()) | set(untracked.split()))


#: Files outside ``paths`` the benchmark-defining change may also touch.
_ALSO_ALLOWED = {
    "BENCHMARK.json", ".gitignore", "CHANGES.md", "ISSUE.md", "REVIEW.md", "BENCHMARK_REFUSED.md",
}


def check(root: Path = ROOT) -> List[str]:
    """Everything wrong with the committed manifest (empty = exit 0)."""
    try:
        manifest = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"BENCHMARK.json cannot be read: {exc}"]
    errors = validate(manifest)
    if errors:
        return errors
    expected = expected_manifest()
    for key in sorted(_KEYS):
        if manifest[key] != expected[key]:
            errors.append(f"{key}: BENCHMARK.json differs from what bench/ emits")
    for path in manifest["paths"]:
        if not (root / path).is_dir():
            errors.append(f"paths: {path!r} is not a directory")
    runs = _FIXED_RUNS + _RUNS_PER_WORKLOAD * len(manifest["workloads"])
    each = _HOST_SLOWDOWN * manifest["run_seconds"] + _SETUP_SECONDS_PER_RUN
    if runs * each > _TOTAL_SECONDS:
        errors.append(f"{runs} runs of {each:g} s exceed {_TOTAL_SECONDS} s")
    # A change to the benchmark is its own change: it alters no other code.
    changed = _changed_files(root) or []
    inside = [
        name for name in changed
        if name == "BENCHMARK.json"
        or any(name.startswith(p.rstrip("/") + "/") for p in manifest["paths"])
    ]
    if inside:
        for name in sorted(set(changed) - set(inside) - _ALSO_ALLOWED):
            errors.append(f"diff changes the benchmark and also {name!r} outside paths")
    return errors


def metric_table(trace: bool) -> Dict[str, Metric]:
    return {m.name: m for m in (PER_LAYER if trace else END_TO_END)}
