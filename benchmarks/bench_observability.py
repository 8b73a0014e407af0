"""Benchmark: flight-recorder overhead (ISSUE 9 deliverable).

Two measurements:

* **per-event microbench** — nanoseconds per recorded span/instant, and
  per *disabled* instrumentation site (no recorder bound), which is the
  cost every hot path pays when tracing is off;
* **end-to-end gate** — the ``DistributedSGD`` step that
  ``python -m repro train`` traces, timed in alternating untraced/traced
  step blocks *inside one launch* (barrier before each block).  Each
  adjacent (untraced, traced) block pair yields one paired difference;
  the overhead estimate is the **median paired difference** over all
  pairs, ranks, and launches, relative to the median untraced block.
  Pairing cancels launch overhead, warm-up, and the slow drift a shared
  CI box exhibits; the median sheds the multi-x scheduler blowups a
  timeshared core inflicts on individual blocks.  The estimate must
  stay within ``MAX_OVERHEAD_PCT``.

``python benchmarks/bench_observability.py`` prints the table and writes
machine-readable ``BENCH_observability.json`` at the repo root; with
``--check`` it exits non-zero when the end-to-end overhead gate fails
(the CI process-backend-smoke job runs that mode).

Note on substrate: single-core containers timeshare every rank, so the
recorded-event cost is amplified by scheduler switches landing inside
instrumented comm hops — the measured per-step tracing cost is a few
hundred microseconds regardless of step size.  The gate therefore runs
a representatively sized workload (the paper's 8192-dimensional model
at batch 256 per rank, ~10 ms steps) rather than a toy one whose
sub-millisecond steps would measure scheduler noise, not the recorder.
"""

import json
import statistics
import sys
import time
from pathlib import Path

from repro.comm.backend import launch
from repro.experiments.report import format_table
from repro.obs import recorder as _obs
from repro.obs.recorder import FlightRecorder

#: End-to-end overhead bound enforced by ``--check`` (percent).
MAX_OVERHEAD_PCT = 5.0

WORLD_SIZE = 2
#: Steps per timed block and alternating untraced/traced blocks per
#: launch (half each).  More, smaller blocks give the paired-difference
#: median more draws to vote down scheduler outliers.
BLOCK_STEPS = 5
BLOCKS = 12
#: Independent launches; pairs are pooled across all of them.
REPEATS = 2
MICRO_ITERS = 50_000
#: Workload size — the paper's Fig. 10 model (8192-dimensional) at a
#: realistic per-rank batch, so steps carry representative compute
#: weight (~10 ms).  Against a toy model with sub-millisecond steps the
#: fixed few-hundred-microsecond per-step recorder cost (GIL/scheduler
#: amplified on this single-core substrate) would dominate and the gate
#: would measure the container, not the recorder.
INPUT_DIM = 8_192
PER_RANK_BATCH = 256

#: Output file (repo root), committed as the observability perf anchor.
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_observability.json"


# ---------------------------------------------------------------------------
# per-event microbench
# ---------------------------------------------------------------------------
def _best_of(fn, repeats: int = 5) -> float:
    """Minimum elapsed seconds of ``fn()`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def micro_bench() -> dict:
    _obs.bind(None)

    def disabled_sites():
        for _ in range(MICRO_ITERS):
            with _obs.span("x", "bench"):
                pass

    disabled_s = _best_of(disabled_sites)

    rec = FlightRecorder(rank=0, capacity=8192)
    _obs.bind(rec)

    def enabled_spans():
        for _ in range(MICRO_ITERS):
            with _obs.span("x", "bench"):
                pass

    def enabled_instants():
        for _ in range(MICRO_ITERS):
            rec.instant("x", "bench")

    span_s = _best_of(enabled_spans)
    instant_s = _best_of(enabled_instants)
    _obs.bind(None)
    return {
        "iterations": MICRO_ITERS,
        "disabled_site_ns": 1e9 * disabled_s / MICRO_ITERS,
        "span_ns": 1e9 * span_s / MICRO_ITERS,
        "instant_ns": 1e9 * instant_s / MICRO_ITERS,
    }


# ---------------------------------------------------------------------------
# end-to-end: traced vs untraced training steps, paired within one launch
# ---------------------------------------------------------------------------
def _train_rank(comm):
    """Alternate untraced/traced step blocks; return both block-time lists."""
    from repro.data.hyperplane import HyperplaneDataset
    from repro.data.loader import ShardedLoader
    from repro.nn.losses import MSELoss
    from repro.nn.models.mlp import HyperplaneMLP
    from repro.nn.optim import SGD
    from repro.training.distributed_sgd import DistributedSGD
    from repro.training.exchange import build_exchange

    model = HyperplaneMLP(INPUT_DIM, seed=0)
    n = max(1, model.num_parameters())
    # Two buckets: a threshold of half the float64 gradient.
    exchange = build_exchange(comm, n, "sync", fusion_threshold_bytes=8 * -(-n // 2))
    sgd = DistributedSGD(
        model, SGD(model, 0.05), exchange, MSELoss(),
        world_size=comm.size, classification=False,
    )
    global_batch = PER_RANK_BATCH * comm.size
    total_steps = BLOCK_STEPS * (BLOCKS + 1)  # +1 warm-up block
    dataset = HyperplaneDataset(
        num_examples=global_batch * total_steps, input_dim=INPUT_DIM,
        noise_std=0.5, seed=0,
    )
    loader = ShardedLoader(
        dataset, global_batch, rank=comm.rank,
        world_size=comm.size, seed=0,
    )
    batches = iter(list(loader.epoch_batches(0)))
    try:
        for _ in range(BLOCK_STEPS):  # warm-up: numpy buffers, tag mints
            sgd.step(next(batches))
        untraced, traced = [], []
        recorder = FlightRecorder(rank=comm.rank)
        for block in range(BLOCKS):
            is_traced = block % 2 == 1
            if is_traced:
                _obs.bind(recorder)
            comm.barrier()  # pair block starts across ranks
            t0 = time.perf_counter()
            for _ in range(BLOCK_STEPS):
                sgd.step(next(batches))
            elapsed = time.perf_counter() - t0
            _obs.bind(None)
            (traced if is_traced else untraced).append(elapsed)
        sgd.close()
        return untraced, traced
    finally:
        _obs.bind(None)


def end_to_end_bench() -> dict:
    # One paired difference per adjacent (untraced, traced) block pair,
    # pooled over every rank and launch; the median pair beats both the
    # mean (multi-x scheduler blowups) and min-of-floors (two
    # independent minima straddle the gate run to run).
    diffs: list = []
    untraced_all: list = []
    for _ in range(REPEATS):
        results = launch(_train_rank, WORLD_SIZE, backend="thread", timeout=300.0)
        for rank_untraced, rank_traced in results:
            untraced_all.extend(rank_untraced)
            diffs.extend(
                t - u for u, t in zip(rank_untraced, rank_traced)
            )
    median_diff = statistics.median(diffs)
    median_untraced = statistics.median(untraced_all)
    overhead_pct = 100.0 * median_diff / median_untraced
    return {
        "world_size": WORLD_SIZE,
        "block_steps": BLOCK_STEPS,
        "blocks": BLOCKS,
        "repeats": REPEATS,
        "pairs": len(diffs),
        "untraced_block_s": median_untraced,
        "median_pair_diff_s": median_diff,
        "untraced_step_ms": 1e3 * median_untraced / BLOCK_STEPS,
        "overhead_step_us": 1e6 * median_diff / BLOCK_STEPS,
        "overhead_pct": overhead_pct,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    check = "--check" in argv

    micro = micro_bench()
    e2e = end_to_end_bench()

    print(format_table(
        ["measurement", "value"],
        [
            ("disabled site (ns/event)", f"{micro['disabled_site_ns']:.0f}"),
            ("recorded span (ns/event)", f"{micro['span_ns']:.0f}"),
            ("recorded instant (ns/event)", f"{micro['instant_ns']:.0f}"),
            ("untraced step, median (ms)", f"{e2e['untraced_step_ms']:.2f}"),
            ("tracing cost/step, median pair (us)", f"{e2e['overhead_step_us']:+.0f}"),
            ("end-to-end overhead (%)", f"{e2e['overhead_pct']:+.2f}"),
        ],
        title=f"Flight-recorder overhead (P={WORLD_SIZE}, "
        f"{BLOCKS}x{BLOCK_STEPS}-step paired blocks, {REPEATS} launches)",
    ))

    payload = {
        "benchmark": "observability",
        "micro": micro,
        "end_to_end": e2e,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")

    if e2e["overhead_pct"] > MAX_OVERHEAD_PCT:
        print(
            f"OVERHEAD GATE FAILED: {e2e['overhead_pct']:+.2f}% > "
            f"{MAX_OVERHEAD_PCT}%"
        )
        return 1 if check else 0
    print(f"overhead gate: {e2e['overhead_pct']:+.2f}% <= {MAX_OVERHEAD_PCT}% OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
