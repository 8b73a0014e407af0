"""Benchmark: gradient compression — wire bytes, wall-clock, convergence.

Acceptance bars of the compression subsystem (ISSUE 4):

1. **Wall-clock**: with a 4 MB gradient at P = 8 on the ``process``
   backend, the ``fp16`` exchange must be >= 1.3x faster than the
   uncompressed (``none``) exchange under the *default*
   ``TrainingConfig`` exchange configuration — i.e. exactly what a user
   gets by adding ``--compression fp16`` to a run.  (Uncompressed
   defaults run the seed's single-buffer recursive-doubling allreduce;
   reduce-closed codecs run the ring of
   :func:`repro.collectives.sync.allreduce` with the codec as its wire
   dtype.)
2. **Convergence**: on the Fig. 10 hyperplane workload, error-feedback
   top-k sparsification must reach a final validation loss within 5% of
   the uncompressed run.

``python benchmarks/bench_compression.py`` prints the wire-byte /
wall-clock sweep over both backends at P in {2, 4, 8} plus the
convergence table, and PASS/FAIL for both bars.  Under pytest-benchmark
the same harnesses are timed and asserted.

Note on substrate: wall-clock numbers on a single-core container mix
scheduling latency into every message round, so the measured speedups
are a *lower bound* on what byte savings buy when ranks own real cores;
the wire-byte column is the hardware-independent signal.
"""

import time

import numpy as np

from repro.comm import launch
from repro.compression import get_codec
from repro.data.hyperplane import HyperplaneDataset
from repro.nn.losses import MSELoss
from repro.nn.models import HyperplaneMLP
from repro.training.config import TrainingConfig
from repro.training.exchange import SynchronousExchange
from repro.training.runner import train_distributed

#: Acceptance threshold: fp16 vs none, process backend, P = 8, 4 MB.
TARGET_SPEEDUP = 1.3
#: Acceptance threshold: top-k(EF) final loss within 5% of uncompressed.
CONVERGENCE_TOLERANCE = 0.05

#: 4 MB of float64 gradient.
WORKLOAD_ELEMENTS = 1 << 19
CODECS = (None, "fp16", "bf16", "int8", "topk:ratio=0.01")
BACKENDS = ("thread", "process")
WORLD_SIZES = (2, 4, 8)


def _exchange_worker(comm, codec, elements, iterations):
    exchange = SynchronousExchange(comm, compression=codec)
    gradient = np.random.default_rng(comm.rank).standard_normal(elements)
    for _ in range(2):
        result = exchange.exchange(gradient)
    times = []
    for _ in range(iterations):
        comm.barrier()
        start = time.perf_counter()
        result = exchange.exchange(gradient)
        times.append(time.perf_counter() - start)
    return float(np.median(times)), int(result.wire_bytes)


def measure_exchange(backend, codec, world_size, elements=WORKLOAD_ELEMENTS,
                     iterations=10):
    """Median wall-clock and per-rank wire bytes of one default exchange."""
    outputs = launch(
        _exchange_worker, world_size, codec, elements, iterations,
        backend=backend, timeout=600,
    )
    return max(o[0] for o in outputs), outputs[0][1]


def run_sweep(backends=BACKENDS, world_sizes=WORLD_SIZES, codecs=CODECS,
              elements=WORKLOAD_ELEMENTS, iterations=10):
    """(backend, P, codec, seconds, wire bytes, speedup-vs-none) rows."""
    rows = []
    for backend in backends:
        for world_size in world_sizes:
            baseline = None
            for codec in codecs:
                seconds, wire = measure_exchange(
                    backend, codec, world_size, elements, iterations
                )
                if codec is None:
                    baseline = seconds
                rows.append({
                    "backend": backend,
                    "world_size": world_size,
                    "codec": codec or "none",
                    "seconds": seconds,
                    "wire_bytes": wire,
                    "speedup": baseline / seconds,
                })
    return rows


def run_convergence(seed=0, epochs=8, input_dim=256, world_size=4):
    """Fig. 10 hyperplane workload: dense vs (EF / no-EF) top-k.

    Returns ``{variant: final_eval_loss}`` for the uncompressed run,
    error-feedback top-k, and the no-error-feedback ablation (expected
    to be the worst — that is *why* the residuals exist).
    """
    dataset = HyperplaneDataset(
        num_examples=2048, input_dim=input_dim, noise_std=1.0, seed=seed
    )
    train, val = dataset.split(validation_fraction=0.2, seed=seed)

    def model_factory():
        return HyperplaneMLP(input_dim=input_dim, seed=seed + 1)

    losses = {}
    for label, spec in (
        ("uncompressed", None),
        ("topk (error feedback)", "topk"),
        ("topk (no error feedback)", "topk:error_feedback=off"),
    ):
        config = TrainingConfig(
            world_size=world_size,
            epochs=epochs,
            global_batch_size=256,
            learning_rate=0.5,
            mode="sync",
            compression=spec,
            model_sync_period_epochs=None,
            seed=seed,
        )
        result = train_distributed(
            model_factory, train, MSELoss(), config,
            eval_dataset=val, classification=False,
        )
        losses[label] = float(result.epochs[-1].eval_loss)
    return losses


def _acceptance_speedup(rows):
    by_key = {(r["backend"], r["world_size"], r["codec"]): r for r in rows}
    return by_key[("process", 8, "fp16")]["speedup"]


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------
def bench_compression_wall_clock(benchmark):
    """fp16 vs none at the acceptance point (process backend, P=8, 4 MB)."""
    rows = benchmark(
        lambda: run_sweep(backends=("process",), world_sizes=(8,),
                          codecs=(None, "fp16"))
    )
    speedup = _acceptance_speedup(rows)
    wire = {r["codec"]: r["wire_bytes"] for r in rows}
    assert wire["fp16"] * 4 == wire["none"], wire
    assert speedup >= TARGET_SPEEDUP, (
        f"fp16 exchange only {speedup:.2f}x faster than none on the process "
        f"backend at P=8 (need >= {TARGET_SPEEDUP}x)"
    )


def bench_compression_convergence(benchmark):
    """Error-feedback top-k reaches seed-comparable loss on fig10."""
    losses = benchmark(run_convergence)
    dense = losses["uncompressed"]
    ef = losses["topk (error feedback)"]
    assert ef <= dense * (1 + CONVERGENCE_TOLERANCE), (
        f"top-k with error feedback converged to {ef:.4f}, more than "
        f"{CONVERGENCE_TOLERANCE:.0%} above the uncompressed {dense:.4f}"
    )


def bench_codec_transforms(benchmark):
    """Raw encode+decode throughput of every codec on a 4 MB buffer."""
    gradient = np.random.default_rng(0).standard_normal(WORKLOAD_ELEMENTS)

    def roundtrips():
        out = {}
        for spec in CODECS:
            codec = get_codec(spec)
            encoded = codec.encode(gradient)
            out[codec.name] = (encoded.nbytes, codec.decode(encoded))
        return out

    results = benchmark(roundtrips)
    assert results["fp16"][0] == WORKLOAD_ELEMENTS * 2
    assert results["topk"][0] < WORKLOAD_ELEMENTS  # 1% of 8 B/elem


# ---------------------------------------------------------------------------
# standalone report
# ---------------------------------------------------------------------------
def _format_rows(rows):
    dense_bytes = WORKLOAD_ELEMENTS * 8
    lines = [
        f"{'backend':8s} {'P':>2s} {'codec':16s} {'ms/exchange':>12s} "
        f"{'wire B/rank':>12s} {'ratio':>6s} {'speedup':>8s}",
        "-" * 70,
    ]
    for r in rows:
        lines.append(
            f"{r['backend']:8s} {r['world_size']:2d} {r['codec']:16s} "
            f"{r['seconds'] * 1e3:12.2f} {r['wire_bytes']:12d} "
            f"{dense_bytes / max(1, r['wire_bytes']):5.1f}x {r['speedup']:7.2f}x"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(f"gradient-compression sweep ({WORKLOAD_ELEMENTS * 8 / 2**20:g} MB "
          f"gradient, default TrainingConfig exchange)\n")
    rows = run_sweep()
    print(_format_rows(rows))

    speedup = _acceptance_speedup(rows)
    ok_speed = speedup >= TARGET_SPEEDUP
    print(f"\nacceptance 1: fp16 vs none, process backend, P=8: "
          f"{speedup:.2f}x (need >= {TARGET_SPEEDUP}x): "
          f"{'PASS' if ok_speed else 'FAIL'}")

    print("\nconvergence check (fig10 hyperplane workload, synch-SGD, P=4):")
    losses = run_convergence()
    for label, loss in losses.items():
        print(f"  {label:26s} final eval loss {loss:.4f}")
    dense = losses["uncompressed"]
    ef = losses["topk (error feedback)"]
    ok_conv = ef <= dense * (1 + CONVERGENCE_TOLERANCE)
    print(f"\nacceptance 2: top-k(EF) within {CONVERGENCE_TOLERANCE:.0%} of "
          f"uncompressed ({ef:.4f} vs {dense:.4f}, "
          f"{(ef / dense - 1) * 100:+.1f}%): {'PASS' if ok_conv else 'FAIL'}")
    raise SystemExit(0 if (ok_speed and ok_conv) else 1)
