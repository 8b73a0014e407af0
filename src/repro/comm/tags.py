"""The global tag-region map: every reserved tag range, declared once.

Several subsystems of this codebase number their messages out of disjoint
integer tag ranges: the partial-collective progress thread
(:mod:`repro.collectives.partial`), the serving tier, telemetry and the
synchronous collectives — dense, split and sharded alike, the barrier
included (:mod:`repro.collectives.sync`,
:mod:`repro.collectives.sharding`).
Historically each declared its own
magic base constant, and nothing asserted that the ranges stay disjoint —
PR 1 fixed one silent collision found the hard way at P > 512.

This module is now the single source of truth.  Every reserved region is
a :class:`TagRegion` row in :data:`TAG_REGIONS`; the owning modules
import their bases from here, tags are minted through the helpers below
(which refuse to leave their region), and
:func:`check_region_disjointness` — run at import time and again by
``python -m repro verify`` — proves the table is pairwise disjoint.

Layout (all bounds half-open)::

    [0,           100_000_000)   free for applications (user tags)
    [100_000_000, 300_000_000)   partial-collective activation channel
                                 (arrivals, activation broadcast, close)
    [300_000_000, 400_000_000)   serving tier (requests, responses,
                                 weight hot-swap, control)
    [400_000_000, 500_000_000)   telemetry (clock-sync ping/pong,
                                 trace-buffer shipment to rank 0)
    [1_000_000_000, 2_000_000_000)   unassigned (the retired
                                 dissemination barrier's; the barrier
                                 is a synchronous collective now)
    [2_000_000_000, 2_000_000_000 + 2^62)   synchronous collectives
                                 (allreduces, reduce-scatter,
                                 allgather-flat, the barrier)

The synchronous region additionally carries an internal ``(epoch,
phase, round, chunk)`` field layout, declared here so both the
collectives and the static schedule verifier
(:mod:`repro.analysis.schedule_verifier`) can mint *and* decode tags from
the same constants, and a receive that misses its deadline names the
fields it waited on (:func:`describe_tag`).  The epoch is the
communicator's one collective counter; the phase ids are the one phase
table of :mod:`repro.collectives.sync`.  The layout tops out below
``2^63``, so every tag stays exact in the int64/u64 headers of the
framing transports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

# ---------------------------------------------------------------------------
# region table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TagRegion:
    """One reserved, half-open ``[lo, hi)`` range of the global tag space."""

    name: str
    lo: int
    hi: int
    description: str

    def __contains__(self, tag: int) -> bool:
        return self.lo <= tag < self.hi

    @property
    def span(self) -> int:
        """Number of distinct tags the region can hold."""
        return self.hi - self.lo

    def check(self, tag: int, what: str) -> int:
        """Return ``tag`` if it lies inside this region, else raise."""
        if tag not in self:
            raise ValueError(
                f"{what} tag {tag} escapes the {self.name!r} region "
                f"[{self.lo}, {self.hi})"
            )
        return tag


# -- partial collectives (repro.collectives.partial) ------------------------
PARTIAL_ACTIVATION_TAG_BASE = 100_000_000

# -- serving tier (repro.serving) -------------------------------------------
SERVING_TAG_BASE = 300_000_000
#: Inference batch requests, frontend -> replica; one tag slot per batch
#: sequence number, reused modulo the capacity.
SERVING_REQUEST_TAG_BASE = SERVING_TAG_BASE
SERVING_REQUEST_CAPACITY = 40_000_000
#: Inference batch responses, replica -> frontend; a response echoes the
#: sequence number (and thus the tag slot) of the request it answers.
SERVING_RESPONSE_TAG_BASE = SERVING_REQUEST_TAG_BASE + SERVING_REQUEST_CAPACITY
SERVING_RESPONSE_CAPACITY = 40_000_000
#: Weight hot-swap payloads and version announcements, publisher ->
#: replica/frontend; one tag slot per model version, reused modulo the
#: capacity.
SERVING_SWAP_TAG_BASE = SERVING_RESPONSE_TAG_BASE + SERVING_RESPONSE_CAPACITY
SERVING_SWAP_CAPACITY = 10_000_000
#: Serving control messages (stop, health probes).
SERVING_CONTROL_TAG_BASE = SERVING_SWAP_TAG_BASE + SERVING_SWAP_CAPACITY
#: Control kinds addressable within the control block.
SERVING_CONTROL_CAPACITY = 10_000_000

# -- telemetry (repro.obs.collect) ------------------------------------------
TELEMETRY_TAG_BASE = 400_000_000
#: Clock-sync pings, rank 0 -> peer; one tag slot per (peer, round) so
#: repeated estimation rounds can never steal each other's messages.
TELEMETRY_PING_TAG_BASE = TELEMETRY_TAG_BASE
TELEMETRY_PING_CAPACITY = 40_000_000
#: Clock-sync pongs, peer -> rank 0, echoing the (peer, round) slot.
TELEMETRY_PONG_TAG_BASE = TELEMETRY_PING_TAG_BASE + TELEMETRY_PING_CAPACITY
TELEMETRY_PONG_CAPACITY = 40_000_000
#: Flight-recorder buffer shipment, rank r -> rank 0; one slot per rank.
TELEMETRY_BUFFER_TAG_BASE = TELEMETRY_PONG_TAG_BASE + TELEMETRY_PONG_CAPACITY
TELEMETRY_BUFFER_CAPACITY = 20_000_000
#: Clock-sync rounds addressable per peer within the ping/pong blocks.
TELEMETRY_SYNC_MAX_ROUNDS = 1_024

# -- synchronous collectives (repro.collectives.sync) -----------------------
SYNC_TAG_BASE = 2_000_000_000
#: Pipeline segments addressable within one round.
SYNC_MAX_CHUNKS = 4_096
#: Rounds addressable within one phase (supports ring worlds to P = 2^17).
SYNC_MAX_ROUNDS = 1 << 17
#: Algorithm phases addressable within one epoch (the phase table of
#: repro.collectives.sync spans all 16, ids 0, 1 and 2 retired).
SYNC_MAX_PHASES = 16
#: Tag stride between consecutive rounds (one slot per pipeline chunk).
SYNC_ROUND_STRIDE = SYNC_MAX_CHUNKS
#: Tag stride between consecutive phases.
SYNC_PHASE_STRIDE = SYNC_MAX_ROUNDS * SYNC_ROUND_STRIDE
#: Tag stride reserved per collective invocation (epoch).
SYNC_EPOCH_STRIDE = SYNC_MAX_PHASES * SYNC_PHASE_STRIDE
#: Collective invocations addressable per communicator.  2^29 epochs keep
#: the largest sync tag below 2^63, so tags stay exact in the int64/u64
#: headers of the framing transports; at one collective per millisecond
#: that is ~17 years of uptime before the (loud) overflow error.
SYNC_MAX_EPOCHS = 1 << 29

PARTIAL_ACTIVATION = TagRegion(
    "partial-activation",
    PARTIAL_ACTIVATION_TAG_BASE,
    SERVING_TAG_BASE,
    "arrivals, dissemination-broadcast activations and close of the "
    "partial collectives",
)
SERVING = TagRegion(
    "serving",
    SERVING_TAG_BASE,
    SERVING_CONTROL_TAG_BASE + SERVING_CONTROL_CAPACITY,
    "serving tier: inference requests/responses, weight hot-swap, control",
)
TELEMETRY = TagRegion(
    "telemetry",
    TELEMETRY_TAG_BASE,
    TELEMETRY_BUFFER_TAG_BASE + TELEMETRY_BUFFER_CAPACITY,
    "telemetry: clock-sync ping/pong, trace-buffer shipment to rank 0",
)
SYNC = TagRegion(
    "sync-collectives",
    SYNC_TAG_BASE,
    SYNC_TAG_BASE + SYNC_MAX_EPOCHS * SYNC_EPOCH_STRIDE,
    "synchronous collectives: (epoch, phase, round, chunk) layout",
)

#: Every reserved region, in ascending order of base.  ``[0, 100_000_000)``
#: is deliberately absent: it is free for application-level tags.
TAG_REGIONS: Tuple[TagRegion, ...] = (
    PARTIAL_ACTIVATION,
    SERVING,
    TELEMETRY,
    SYNC,
)


def region(name: str) -> TagRegion:
    """Look up a region by name."""
    for reg in TAG_REGIONS:
        if reg.name == name:
            return reg
    raise KeyError(f"unknown tag region {name!r}; known: "
                   f"{[r.name for r in TAG_REGIONS]}")


def region_of(tag: int) -> Optional[TagRegion]:
    """The reserved region containing ``tag``, or ``None`` (user space)."""
    for reg in TAG_REGIONS:
        if tag in reg:
            return reg
    return None


def check_region_disjointness() -> None:
    """Prove the region table is well-formed and pairwise disjoint.

    Raises :class:`ValueError` on any malformed or overlapping pair; runs
    at import time so a bad edit to the table can never ship silently.
    """
    for reg in TAG_REGIONS:
        if reg.lo < 0 or reg.hi <= reg.lo:
            raise ValueError(
                f"malformed tag region {reg.name!r}: [{reg.lo}, {reg.hi})"
            )
    ordered = sorted(TAG_REGIONS, key=lambda r: r.lo)
    for a, b in zip(ordered, ordered[1:]):
        if b.lo < a.hi:
            raise ValueError(
                f"tag regions {a.name!r} [{a.lo}, {a.hi}) and "
                f"{b.name!r} [{b.lo}, {b.hi}) overlap"
            )


# ---------------------------------------------------------------------------
# tag minting helpers (each refuses to leave its region)
# ---------------------------------------------------------------------------
class SyncTagFields(NamedTuple):
    """Decoded ``(epoch, phase, round, chunk)`` fields of a sync tag."""

    epoch: int
    phase: int
    round_index: int
    chunk: int


def sync_tag(epoch: int, phase: int, round_index: int, chunk: int = 0) -> int:
    """Tag of pipeline segment ``chunk`` of ``round_index`` in ``phase``.

    Raises :class:`ValueError` when any field — including ``epoch`` —
    overflows its stride: an overflow would alias another phase/epoch's
    messages (the tag-collision bug this layout replaces), so it must
    never be silent.
    """
    if not 0 <= epoch < SYNC_MAX_EPOCHS:
        raise ValueError(
            f"collective epoch {epoch} outside [0, {SYNC_MAX_EPOCHS}); "
            f"the per-communicator collective counter overflowed its tag field"
        )
    if not 0 <= phase < SYNC_MAX_PHASES:
        raise ValueError(f"collective phase {phase} outside [0, {SYNC_MAX_PHASES})")
    if not 0 <= round_index < SYNC_MAX_ROUNDS:
        raise ValueError(
            f"collective round {round_index} outside [0, {SYNC_MAX_ROUNDS}); "
            f"world size exceeds the tag layout's round capacity"
        )
    if not 0 <= chunk < SYNC_MAX_CHUNKS:
        raise ValueError(f"pipeline chunk {chunk} outside [0, {SYNC_MAX_CHUNKS})")
    return (
        SYNC_TAG_BASE
        + epoch * SYNC_EPOCH_STRIDE
        + phase * SYNC_PHASE_STRIDE
        + round_index * SYNC_ROUND_STRIDE
        + chunk
    )


def decode_sync_tag(tag: int) -> SyncTagFields:
    """Invert :func:`sync_tag`; raises if ``tag`` is not a sync tag."""
    SYNC.check(tag, "sync-collective")
    offset = tag - SYNC_TAG_BASE
    epoch, rest = divmod(offset, SYNC_EPOCH_STRIDE)
    phase, rest = divmod(rest, SYNC_PHASE_STRIDE)
    round_index, chunk = divmod(rest, SYNC_ROUND_STRIDE)
    return SyncTagFields(epoch, phase, round_index, chunk)


def describe_tag(tag: int) -> str:
    """``tag`` as an error message names it: a reserved tag with its
    region and, for a sync tag, its ``(epoch, phase, round, chunk)``
    fields; a user tag (or ``ANY_TAG``) as the bare integer."""
    reg = region_of(tag)
    if reg is None:
        return str(tag)
    if reg is not SYNC:
        return f"{tag} ({reg.name})"
    epoch, phase, round_index, chunk = decode_sync_tag(tag)
    return (
        f"{tag} ({reg.name}: epoch {epoch}, phase {phase}, round {round_index}, "
        f"chunk {chunk})"
    )


def partial_activation_tag(round_index: int) -> int:
    """Tag of partial-collective round ``round_index``: its arrivals,
    activations and the ``close`` sent while it is the next round."""
    if round_index < 0:
        raise ValueError(f"partial-collective round must be >= 0, got {round_index}")
    return PARTIAL_ACTIVATION.check(
        PARTIAL_ACTIVATION_TAG_BASE + round_index, "partial-activation"
    )


def serving_request_tag(batch_seq: int) -> int:
    """Tag of inference batch request ``batch_seq`` (frontend -> replica).

    Unlike the collective layouts, serving tags *reuse* their slot block
    modulo the capacity: the frontend pairs a response with its request by
    the batch sequence number carried in the payload (not by tag), so tag
    aliasing is only possible with more than ``SERVING_REQUEST_CAPACITY``
    batches simultaneously in flight — far above any admissible queue
    depth.  The tag identifies the message *kind* for mailbox matching and
    for the static schedule verifier's region-soundness check.
    """
    if batch_seq < 0:
        raise ValueError(f"serving batch sequence must be >= 0, got {batch_seq}")
    return SERVING.check(
        SERVING_REQUEST_TAG_BASE + batch_seq % SERVING_REQUEST_CAPACITY,
        "serving-request",
    )


def serving_response_tag(batch_seq: int) -> int:
    """Tag of the response to batch ``batch_seq`` (replica -> frontend)."""
    if batch_seq < 0:
        raise ValueError(f"serving batch sequence must be >= 0, got {batch_seq}")
    return SERVING.check(
        SERVING_RESPONSE_TAG_BASE + batch_seq % SERVING_RESPONSE_CAPACITY,
        "serving-response",
    )


def serving_swap_tag(version: int) -> int:
    """Tag of weight payload / announcement for model ``version``.

    Slots wrap modulo the capacity (see :func:`serving_request_tag`);
    subscribers order swaps by the monotonic version number carried in the
    payload, so a reused tag can never roll a replica backwards.
    """
    if version < 0:
        raise ValueError(f"serving model version must be >= 0, got {version}")
    return SERVING.check(
        SERVING_SWAP_TAG_BASE + version % SERVING_SWAP_CAPACITY,
        "serving-swap",
    )


def serving_control_tag(kind: int) -> int:
    """Tag of serving control message kind ``kind`` (stop, health, ...)."""
    if not 0 <= kind < SERVING_CONTROL_CAPACITY:
        raise ValueError(
            f"serving control kind {kind} outside [0, {SERVING_CONTROL_CAPACITY})"
        )
    return SERVING.check(SERVING_CONTROL_TAG_BASE + kind, "serving-control")


def _telemetry_sync_slot(peer: int, round_index: int, capacity: int, what: str) -> int:
    """Slot of clock-sync round ``round_index`` with ``peer`` (strided
    layout: ``peer * TELEMETRY_SYNC_MAX_ROUNDS + round_index``)."""
    if peer <= 0:
        raise ValueError(
            f"{what} peer must be a non-zero rank (rank 0 drives the "
            f"estimation), got {peer}"
        )
    if not 0 <= round_index < TELEMETRY_SYNC_MAX_ROUNDS:
        raise ValueError(
            f"{what} round {round_index} outside [0, {TELEMETRY_SYNC_MAX_ROUNDS})"
        )
    slot = peer * TELEMETRY_SYNC_MAX_ROUNDS + round_index
    if slot >= capacity:
        raise ValueError(
            f"{what} peer {peer} overflows the telemetry clock-sync block "
            f"(capacity {capacity} slots at {TELEMETRY_SYNC_MAX_ROUNDS} "
            f"rounds per peer)"
        )
    return slot


def telemetry_ping_tag(peer: int, round_index: int) -> int:
    """Tag of clock-sync ping ``round_index``, rank 0 -> ``peer``."""
    slot = _telemetry_sync_slot(
        peer, round_index, TELEMETRY_PING_CAPACITY, "telemetry-ping"
    )
    return TELEMETRY.check(TELEMETRY_PING_TAG_BASE + slot, "telemetry-ping")


def telemetry_pong_tag(peer: int, round_index: int) -> int:
    """Tag of clock-sync pong ``round_index``, ``peer`` -> rank 0."""
    slot = _telemetry_sync_slot(
        peer, round_index, TELEMETRY_PONG_CAPACITY, "telemetry-pong"
    )
    return TELEMETRY.check(TELEMETRY_PONG_TAG_BASE + slot, "telemetry-pong")


def telemetry_buffer_tag(rank: int) -> int:
    """Tag of rank ``rank``'s trace-buffer shipment to rank 0."""
    if not 0 < rank < TELEMETRY_BUFFER_CAPACITY:
        raise ValueError(
            f"telemetry buffer rank {rank} outside "
            f"(0, {TELEMETRY_BUFFER_CAPACITY}) — rank 0 collects, it never ships"
        )
    return TELEMETRY.check(TELEMETRY_BUFFER_TAG_BASE + rank, "telemetry-buffer")


# Prove the table is sound before anyone mints a tag from it.
check_region_disjointness()
