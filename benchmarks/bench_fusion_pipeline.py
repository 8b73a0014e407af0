"""Benchmark: fused/chunked gradient exchange vs. unfused single buffer.

The acceptance bar for the fusion-pipeline subsystem: for a >= 4 MB
simulated gradient at P = 8, the best chunked/fused configuration must be
at least 1.3x faster than the seed's unfused single-buffer exchange (one
blocking recursive-doubling allreduce of the whole flat gradient).  Not
every configuration clears it: four 1 MB buckets pay four collectives'
fixed overhead and latency rounds back to back.

``python benchmarks/bench_fusion_pipeline.py`` prints the comparison
table; under pytest-benchmark the same harness is timed and asserted.
"""

import numpy as np

from repro.comm import launch
from repro.experiments import fusion_pipeline
from repro.training.exchange import SynchronousExchange

#: The acceptance threshold on the modelled speedup at P = 8.
TARGET_SPEEDUP = 1.3
WORKLOAD_MB = 4.0


def _run_model():
    return fusion_pipeline.run(
        world_sizes=(4, 8, 16), gradient_mb=WORKLOAD_MB, bucket_mb=(1.0, 4.0), pipeline_chunks=8
    )


def bench_fusion_pipeline_model(benchmark):
    result = benchmark(_run_model)
    print()
    print(fusion_pipeline.report(result))
    headline = result.headline_speedup(world_size=8)
    assert headline >= TARGET_SPEEDUP, (
        f"chunked/fused exchange only {headline:.2f}x faster than the unfused "
        f"single-buffer baseline at P=8 (need >= {TARGET_SPEEDUP}x)"
    )


def bench_fused_exchange_functional(benchmark):
    """Thread-backed fused exchange: correctness + wall-clock statistics."""
    elements = 1 << 14

    def once():
        def worker(comm):
            exchange = SynchronousExchange(
                comm,
                algorithm="ring",
                fusion_threshold_bytes=32 * 1024,
                pipeline_chunks=4,
            )
            result = exchange.exchange(np.full(elements, comm.rank + 1.0))
            return float(result.gradient[0]), len(result.bucket_waits)

        return launch(worker, 4)

    results = benchmark(once)
    for value, buckets in results:
        assert abs(value - 2.5) < 1e-12
        assert buckets == elements * 8 // (32 * 1024)


if __name__ == "__main__":
    result = _run_model()
    result.functional_rows = fusion_pipeline.run_functional()
    print(fusion_pipeline.report(result))
    headline = result.headline_speedup(world_size=8)
    status = "PASS" if headline >= TARGET_SPEEDUP else "FAIL"
    print(f"\nacceptance ({TARGET_SPEEDUP}x at P=8, {WORKLOAD_MB:g} MB): {status}")
