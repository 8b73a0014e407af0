"""One model replica: serve batches, hot-swap weights between them.

A replica is a rank of the serving world running a plain serve loop:

1. drain the swap channel (stage weight payloads, record announcements);
2. apply the newest staged weights — *between* batches only, so an
   in-flight batch always finishes on the weights it started with;
3. block (briefly) for the next message from the frontend;
4. on a batch: refuse it if the bounded-staleness knob says the applied
   weights are too far behind the announced frontier, otherwise run the
   eval-mode forward pass and return the predictions tagged with the
   applied model version;
5. on a stop message: drain the swap channel once more and exit,
   returning the health counters as the rank result.

The model runs in eval mode (:meth:`repro.nn.module.Module.eval`), so
the layer forwards skip the backward-pass caches entirely — serving
keeps no gradient-side state.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.comm.communicator import CommTimeoutError
from repro.obs import recorder as _obs
from repro.serving import protocol
from repro.serving.config import ServingConfig
from repro.serving.versioning import VersionedWeights, WeightStore
from repro.training.preset import preset_model

#: How long the serve loop blocks for frontend traffic before it wakes
#: to drain the swap channel again.
REPLICA_POLL_S = 0.05


def _drain_swap(
    swap, publisher: Optional[int], store: WeightStore
) -> None:
    """Consume every queued swap message without blocking."""
    if publisher is None:
        return
    while True:
        msg = swap.poll(source=publisher)
        if msg is None:
            return
        kind = msg[0]
        if kind == protocol.MSG_WEIGHTS:
            _, version, flat, model_hash = msg
            store.stage(VersionedWeights(version, flat, model_hash))
        elif kind == protocol.MSG_ANNOUNCE:
            store.announce(msg[1])


def run_replica(comm, config: ServingConfig) -> Dict[str, int]:
    """Serve loop of one replica rank, from the trainers' version-0 model;
    returns its health counters."""
    serve = comm.dup(protocol.SERVE_CHANNEL)
    swap = comm.dup(protocol.SWAP_CHANNEL)
    model = preset_model(config.training)()
    model.eval()
    store = WeightStore(0)
    publisher = config.publisher_rank
    frontend = config.frontend_rank
    health: Dict[str, int] = {
        "rank": comm.rank,
        "served_batches": 0,
        "served_requests": 0,
        "rejected_batches": 0,
        "swaps_applied": 0,
    }

    running = True
    while running:
        _drain_swap(swap, publisher, store)
        if store.apply_pending(model) is not None:
            health["swaps_applied"] += 1
        try:
            msg = serve.recv(source=frontend, timeout=REPLICA_POLL_S)
        except CommTimeoutError:
            continue
        kind = msg[0]
        if kind == protocol.MSG_STOP:
            running = False
            continue
        if kind != protocol.MSG_BATCH:  # pragma: no cover - protocol guard
            raise RuntimeError(f"replica {comm.rank}: unexpected message {kind!r}")
        _, batch_seq, request_ids, inputs = msg
        # Freshest possible weights for this batch — but never mid-batch.
        _drain_swap(swap, publisher, store)
        if store.apply_pending(model) is not None:
            health["swaps_applied"] += 1
        if store.too_stale(config.max_staleness_versions):
            health["rejected_batches"] += 1
            _obs.instant(
                "stale-reject", "serving",
                batch_seq=batch_seq,
                applied=store.applied_version,
                staleness=store.staleness(),
            )
            protocol.send_reject(
                serve,
                frontend,
                batch_seq,
                request_ids,
                f"applied version {store.applied_version} is "
                f"{store.staleness()} behind announced "
                f"{store.announced_version} (K={config.max_staleness_versions})",
                store.applied_version,
                store.announced_version,
                health,
            )
            continue
        with _obs.span(
            "serve-batch", "serving",
            batch_seq=batch_seq, batch_size=int(request_ids.size),
        ):
            outputs = np.asarray(model.forward(inputs))
        health["served_batches"] += 1
        health["served_requests"] += int(request_ids.size)
        protocol.send_result(
            serve,
            frontend,
            batch_seq,
            request_ids,
            outputs,
            store.applied_version,
            health,
        )

    # Consume any swap traffic that raced the stop so nothing lingers
    # unread in the mailboxes at world teardown.
    _drain_swap(swap, publisher, store)
    store.apply_pending(model)
    health["applied_version"] = store.applied_version
    health["announced_version"] = store.announced_version
    return health
