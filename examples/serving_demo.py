#!/usr/bin/env python
"""Serve-while-train: online inference riding the training fabric.

One world, three roles on the same comm backend: a trainer rank runs
the training runner's rank loop on the hyperplane workload (any
``TrainingConfig``: synch- or eager-SGD) and publishes its weights
every few steps; two replica ranks serve inference with dynamic
batching, hot-swapping to each published parameter set between batches;
the frontend rank batches incoming requests under a latency SLO and
routes them to the least-loaded replica.

The script uses the interactive :class:`~repro.serving.InferenceServer`
handle (thread backend) so the client loop below can watch the served
model version advance live — the same request stream keeps completing
while the weights underneath it change.

Run:  python examples/serving_demo.py
"""

import numpy as np

from repro.serving import InferenceServer, ServingConfig
from repro.training import TrainingConfig
from repro.training.preset import INPUT_DIM


def main() -> None:
    config = ServingConfig(
        replicas=2,
        train_ranks=1,          # co-scheduled trainer publishing weights
        max_batch_size=8,
        max_queue_delay_s=0.002,  # SLO knob: hold a partial batch <= 2 ms
        train_steps=300,
        # The trainer's run; the layout owns its world size and backend.
        training=TrainingConfig(world_size=1, epochs=1, global_batch_size=16),
        publish_every_steps=10,  # hot-swap period, in trainer steps
    )
    print(config.describe())
    print()

    rng = np.random.default_rng(0)
    transitions = []
    last_version = None
    with InferenceServer(config) as server:
        for index in range(400):
            output, version = server.infer(rng.standard_normal(INPUT_DIM))
            if version != last_version:
                transitions.append(version)
                print(
                    f"request {index:>4}: now served by model version "
                    f"{version:>4} (prediction {output[0]:+.4f})"
                )
                last_version = version
            if version >= config.train_steps:
                break
    report = server.report

    print()
    print(f"served versions        : {report.versions_served}")
    print(f"completed requests     : {report.frontend['completed_requests']}")
    print(f"hot swaps applied      : "
          f"{sum(r['swaps_applied'] for r in report.replicas)}")
    print(f"final training loss    : {report.trainers[0]['final_loss']:.4f}")
    if len(transitions) > 1:
        print("\nThe served version advanced mid-stream without dropping a "
              "request — that is the whole trick.")


if __name__ == "__main__":
    main()
