#!/usr/bin/env python
"""Microbenchmark of the partial collectives (paper Fig. 8 / Fig. 9).

Shows both views of the microbenchmark:

1. the paper-scale sweep (32 processes, 64 B - 4 MB, linear 1 ms/rank
   skew) through the calibrated latency model, reporting average latency
   and the Number of Active Processes per operation; and
2. a direct measurement of the thread-backed solo / majority / synchronous
   allreduce at a reduced scale, demonstrating the same ordering with the
   real implementation.

Run:  python examples/partial_allreduce_microbenchmark.py
"""

from repro.experiments import fig9_microbenchmark


def main() -> None:
    model_result = fig9_microbenchmark.run(world_size=32, iterations=64, skew_ms=1.0)
    model_result.functional_rows = fig9_microbenchmark.run_functional(
        world_size=8, iterations=8, skew_ms=6.0, message_elements=1024
    )
    print(fig9_microbenchmark.report(model_result))


if __name__ == "__main__":
    main()
