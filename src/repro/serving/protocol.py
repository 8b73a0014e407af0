"""Wire protocol of the serving tier.

All serving traffic runs on two dynamic sub-channels of the application
channel, so it never interferes with the collectives of a co-scheduled
training world:

* ``app.serve`` — frontend → replica inference batches, replica →
  frontend results/rejections, and the frontend's stop fan-out (stop
  must travel on the channel the replica's blocked receive listens on);
* ``app.swap`` — publisher → replica weight payloads and publisher →
  everyone version announcements.

Messages are small picklable tuples whose first element is the kind, and
every tag is minted from the ``serving`` region of the global tag map
(:mod:`repro.comm.tags`).  Request/response pairing is by the batch
sequence number *in the payload*; the tags merely keep the matches
unambiguous while fewer than the region capacity of batches are in
flight.  A version is announced either explicitly (``announce``) or
implicitly by shipping its weights — the publisher never sends both for
one version to one destination, so swap tags stay unique per (source,
destination) pair.

The static schedule verifier (:mod:`repro.analysis.schedule_verifier`)
runs these senders in one deterministic serving round — request fan-out,
response fan-in, hot-swap publishes/announces and the stop fan-out, all
with explicit sources — so match-completeness, tag soundness and
deadlock freedom of the serving schedule are machine-checked like every
collective.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.comm import tags

#: Dynamic sub-channel carrying requests, responses and stop messages.
SERVE_CHANNEL = "app.serve"
#: Dynamic sub-channel carrying weight payloads and version announcements.
SWAP_CHANNEL = "app.swap"

MSG_BATCH = "batch"
MSG_RESULT = "result"
MSG_REJECT = "reject"
MSG_WEIGHTS = "weights"
MSG_ANNOUNCE = "announce"
MSG_STOP = "stop"

#: Control-tag kind of the stop message.
CONTROL_STOP = 0


# ---------------------------------------------------------------------------
# senders (comm must already be dup'ed onto the right channel)
# ---------------------------------------------------------------------------
def send_request(
    comm,
    dest: int,
    batch_seq: int,
    request_ids: Sequence[int],
    inputs: np.ndarray,
) -> None:
    """Frontend -> replica: one fused inference batch."""
    payload = (
        MSG_BATCH,
        int(batch_seq),
        np.asarray(request_ids, dtype=np.int64),
        np.ascontiguousarray(inputs),
    )
    comm.send(payload, dest, tag=tags.serving_request_tag(batch_seq))


def send_result(
    comm,
    dest: int,
    batch_seq: int,
    request_ids: np.ndarray,
    outputs: np.ndarray,
    version: int,
    health: Dict[str, int],
) -> None:
    """Replica -> frontend: predictions tagged with the serving version."""
    payload = (
        MSG_RESULT,
        int(batch_seq),
        np.asarray(request_ids, dtype=np.int64),
        np.ascontiguousarray(outputs),
        int(version),
        dict(health),
    )
    comm.send(payload, dest, tag=tags.serving_response_tag(batch_seq))


def send_reject(
    comm,
    dest: int,
    batch_seq: int,
    request_ids: np.ndarray,
    reason: str,
    applied_version: int,
    announced_version: int,
    health: Dict[str, int],
) -> None:
    """Replica -> frontend: refusal (e.g. bounded-staleness violation)."""
    payload = (
        MSG_REJECT,
        int(batch_seq),
        np.asarray(request_ids, dtype=np.int64),
        str(reason),
        int(applied_version),
        int(announced_version),
        dict(health),
    )
    comm.send(payload, dest, tag=tags.serving_response_tag(batch_seq))


def send_weights(
    comm,
    dest: int,
    version: int,
    flat: np.ndarray,
    model_hash: str = "",
) -> None:
    """Publisher -> replica: a full parameter set for hot swap."""
    payload = (
        MSG_WEIGHTS,
        int(version),
        np.ascontiguousarray(flat, dtype=np.float64),
        str(model_hash),
    )
    comm.send(payload, dest, tag=tags.serving_swap_tag(version))


def send_announce(comm, dest: int, version: int) -> None:
    """Publisher -> replica/frontend: version ``version`` now exists."""
    comm.send((MSG_ANNOUNCE, int(version)), dest, tag=tags.serving_swap_tag(version))


def send_stop(comm, dest: int) -> None:
    """Frontend -> replica: shut down after the current batch."""
    comm.send((MSG_STOP,), dest, tag=tags.serving_control_tag(CONTROL_STOP))
