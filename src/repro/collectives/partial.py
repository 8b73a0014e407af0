"""Partial collective operations: solo, majority and quorum allreduce.

This module is the runtime half of the paper's contribution.  Each rank
owns a :class:`PartialAllreduce` object which spawns a *progress thread*
(the communication library of Section 4.3) and exposes a single blocking
call to the application:

    ``result = partial.reduce(gradient)``

The call semantics follow Algorithm 2 / Fig. 7 of the paper:

* the gradient is added into the rank's **send buffer** (so gradients that
  miss their round are not lost: they become *stale gradients* contributed
  to a later round);
* the current round is *activated* — eagerly by this rank in solo mode, by
  the randomly designated initiator in majority mode, or once ``Q`` ranks
  have arrived in quorum mode;
* the call returns the reduced value of the current round together with
  bookkeeping (whether this rank's fresh gradient was included, how many
  ranks contributed fresh data — the "number of active processes" of
  Fig. 9 — and who initiated).

The activation phase is the binomial broadcast rooted at the round's
initiator (so over all initiators the union of ``P`` binomial trees):
each progress thread sends ``("activate", round, initiator)`` to the
peers of its send steps in :func:`repro.collectives.sync.activation_plan`,
on the dedicated ``activation`` channel.  A rank's place in that tree
follows from its offset to the initiator, so the message carries nothing
else.  The reduction itself is a recursive-doubling allreduce among the
progress threads on the ``lib`` channel.  Progress threads always
participate immediately, so a slow application thread never delays the
collective — it merely contributes null (or stale) data, which is
exactly the paper's relaxation.

The progress thread is the only execution model of the partial
collectives; the paper's schedule of Fig. 6 (Section 4.1.1) maps onto it
as follows:

==================================  =====================================
Fig. 6                              this module
==================================  =====================================
``N0`` internal activation          :meth:`PartialAllreduce.reduce` sends
                                    its own rank an ``arrival`` message
``R_k`` / ``S_k``, *or* dependency  ``_wait_for_activation`` /
                                    ``_forward_activation``: the receive
                                    from the tree parent and the sends
                                    of ``sync.activation_plan``
consumable operations               one tag per round
                                    (``tags.partial_activation_tag``);
                                    the one receive drops an earlier
                                    round's duplicates and late arrivals
persistent schedule                 the ``while`` of ``_progress_loop``,
                                    blocked in one receive per message:
                                    arrival, activation or ``close``
single receive buffer               ``overwrite_recvbuff``
==================================  =====================================

Deadlines: the background reduction's receives wait at most the
communicator's ``default_timeout`` (the world's receive deadline).
Progress threads join an activated round immediately, so a partner
silent that long has died: the progress thread fails, and
:meth:`PartialAllreduce.reduce`, which itself waits at most twice that
deadline, raises with the transport's timeout as the cause.  The wait
for activation has no deadline — an idle collective may wait any time
for its next round — so its receive is re-armed when the deadline
passes, and :meth:`PartialAllreduce.close` ends it with a message.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.comm import tags
from repro.comm.communicator import CommTimeoutError, Communicator
from repro.comm.mailbox import MailboxClosed
from repro.comm.message import ANY_TAG
from repro.comm.router import Channel
from repro.collectives.sync import _allreduce, activation_plan
from repro.obs import recorder as _obs
from repro.utils.rng import seeded_rng


class PartialMode(str, enum.Enum):
    """Which partial-collective flavour to run."""

    #: Wait-free: the first process to arrive initiates (Section 4.1).
    SOLO = "solo"
    #: A randomly designated initiator guarantees that on average at least
    #: half of the processes contribute fresh data (Section 4.2).
    MAJORITY = "majority"
    #: Generalised quorum: the round is initiated once ``quorum`` ranks
    #: have arrived (the solo--majority--full spectrum mentioned in the
    #: paper's conclusions).
    QUORUM = "quorum"


@dataclass(frozen=True)
class PartialAllreduceResult:
    """Outcome of one partial allreduce round for one rank."""

    #: The reduced vector (divided by the world size when ``average``).
    data: np.ndarray
    #: Whether this rank's freshly computed gradient was part of the round
    #: (the ``s_i^t`` bit of the ADS object in Section 5.1.1).
    included: bool
    #: Number of processes that contributed fresh (non-stale, non-null)
    #: data to this round — the "number of active processes" of Fig. 9.
    num_active: int
    #: Rank that initiated the round this call contributed to — that
    #: round's own initiator even when ``overwrite_recvbuff`` hands a
    #: lagging rank a later round's data (-1 if unknown on this rank).
    initiator: int


@dataclass
class _RoundRecord:
    """Internal per-round bookkeeping kept by the progress thread."""

    result: np.ndarray
    num_active: int
    initiator: int
    swap_marker: int


class PartialAllreduce:
    """Per-rank handle for an asynchronously progressed partial allreduce.

    Parameters
    ----------
    comm:
        Any communicator of the target world; the object derives its own
        communicators on the ``lib`` and ``activation`` channels from it,
        leaving the caller's channel untouched.
    shape:
        Shape of the contribution vector (e.g. the flattened gradient).
    mode:
        :class:`PartialMode` or its string value.
    average:
        Divide the reduced sum by the world size (Algorithm 2, line 6).
    seed:
        Seed of the shared PRNG used to designate initiators in majority
        mode; it must be identical on every rank (the paper achieves
        consensus "by using the same seed for all the processes").
    quorum:
        Required number of arrivals in quorum mode (no default):
        ``quorum=1`` approximates solo, ``quorum=P/2`` gives a hard (not
        just statistical) majority guarantee, ``quorum=P`` degenerates to
        a synchronous allreduce — the solo--majority--full spectrum of
        the paper's conclusions.
    overwrite_recvbuff:
        Paper-faithful receive-buffer semantics (default).  The persistent
        schedule of Section 4.1.1 reuses a single receive buffer, so a
        process that lags behind by more than one round only sees the
        *latest* completed round's result ("the data in the receive buffer
        will be overwritten and only the latest data can be seen"), which
        is what makes replicas drift apart under severe imbalance and why
        eager-SGD periodically re-synchronises the models.  Set to
        ``False`` for exact per-round results (an ablation of that design
        choice).
    channel_suffix:
        Suffix appended to the ``lib``/``activation`` channel names.  One
        :class:`PartialAllreduce` per channel pair: the fused gradient
        exchange opens a distinct suffix per fusion bucket so per-bucket
        rounds can progress independently without tag cross-talk.
    n_chunks:
        Pipeline the background reduction in this many segments (see
        :func:`repro.collectives.sync.allreduce`).
    """

    def __init__(
        self,
        comm: Communicator,
        shape: Tuple[int, ...] | int,
        mode: PartialMode | str = PartialMode.SOLO,
        *,
        average: bool = True,
        seed: int = 12345,
        quorum: Optional[int] = None,
        overwrite_recvbuff: bool = True,
        dtype=np.float64,
        channel_suffix: str = "",
        n_chunks: int = 1,
    ) -> None:
        self.mode = PartialMode(mode)
        self.comm_lib = comm.dup(Channel.LIB + channel_suffix)
        self.comm_act = comm.dup(Channel.ACTIVATION + channel_suffix)
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        self.n_chunks = int(n_chunks)
        self.rank = comm.rank
        self.size = comm.size
        self.shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self.average = bool(average)
        self.dtype = dtype

        if np.issubdtype(np.dtype(self.dtype), np.floating):
            # The piggybacked arrival counter (see _run_round) is summed
            # in this dtype; its sums-of-ones stay exact only up to
            # 2^(mantissa+1) (2048 for float16, 2^53 for float64).
            exact_limit = 2 ** (np.finfo(np.dtype(self.dtype)).nmant + 1)
            if self.size > exact_limit:
                raise ValueError(
                    f"world size {self.size} exceeds the exact-integer range "
                    f"of dtype {np.dtype(self.dtype).name} ({exact_limit}); "
                    f"the active-process counter would be silently absorbed"
                )
        if self.mode is PartialMode.QUORUM and (
            quorum is None or not 1 <= quorum <= self.size
        ):
            raise ValueError(
                f"quorum mode needs quorum in [1, {self.size}], got {quorum!r}"
            )
        self.quorum = quorum
        self.overwrite_recvbuff = bool(overwrite_recvbuff)

        # Shared PRNG stream for initiator designation (majority / quorum
        # coordinator).  All ranks draw the same sequence.
        self._initiator_rng = seeded_rng(seed)

        # --- state shared between the application thread and the
        # --- progress thread, guarded by _lock / _cond.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._send_acc = np.zeros(self.shape, dtype=self.dtype)
        self._add_counter = 0
        self._last_arrival_round = -1
        self._rounds_done = 0
        self._records: Dict[int, _RoundRecord] = {}
        self._latest_record: Optional[_RoundRecord] = None
        self._caller_round = -1
        self._stop = False
        #: ``(round, exception)`` of the progress thread's death, if any.
        self._failure: Optional[Tuple[int, BaseException]] = None

        # The progress thread inherits the owning rank's flight recorder
        # (thread-local bindings do not propagate to spawned threads).
        self._recorder = _obs.current()
        self._thread = threading.Thread(
            target=self._progress_loop,
            name=f"partial-allreduce-rank{self.rank}",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # application-thread API
    # ------------------------------------------------------------------
    def reduce(self, contribution: np.ndarray) -> PartialAllreduceResult:
        """Contribute to the next round and return that round's result.

        This is the ``partial_allreduce`` call of Algorithm 2.  The call
        blocks until the round completes, but the round can complete
        without this rank's fresh contribution (which then stays in the
        send buffer as a stale gradient for the following round).

        Raises :class:`RuntimeError` naming the rank and the round when
        the progress thread died — for instance because a peer stayed
        silent past the world's receive deadline, in which case the
        transport's timeout is the ``__cause__`` — and ``TimeoutError``
        when the round is not done within twice that deadline.
        """
        contribution = np.asarray(contribution, dtype=self.dtype)
        if contribution.shape != self.shape:
            raise ValueError(
                f"contribution shape {contribution.shape} does not match "
                f"collective shape {self.shape}"
            )
        with self._cond:
            self._raise_if_failed()
            self._caller_round += 1
            round_index = self._caller_round
            # Add the fresh gradient to the send buffer; whatever was left
            # there from previous rounds (stale gradients) rides along.
            self._send_acc += contribution
            self._add_counter += 1
            my_marker = self._add_counter
            self._last_arrival_round = round_index
            if round_index >= self._rounds_done:
                # The round is still open: tell the progress thread, which
                # may (or, for majority, may not) initiate it.
                self.comm_act.send(
                    ("arrival", round_index), self.rank,
                    tag=tags.partial_activation_tag(round_index),
                )
            # Wait until the progress thread has finished the round; its
            # receives give up after one deadline, so its failure comes first.
            # It notifies on both, so each wake is an event, not a poll.
            limit = 2 * self.comm_lib.default_timeout
            deadline = time.monotonic() + limit
            while self._rounds_done <= round_index:
                self._raise_if_failed()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"rank {self.rank}: partial allreduce round {round_index} "
                        f"did not complete within {limit}s"
                    )
                self._cond.wait(timeout=remaining)
            # Each round is consumed exactly once by the application
            # thread; popping keeps memory bounded over long trainings.
            record = self._records.pop(round_index)
            included = my_marker <= record.swap_marker
            # Persistent-schedule semantics: the receive buffer holds the
            # result of the *latest* completed execution, so a rank that
            # lagged behind reads newer data than its own round
            # (Section 5, "only the latest data ... can be seen").
            effective = self._latest_record if self.overwrite_recvbuff else record
        # One pass from the round's payload into the caller-owned array.
        if self.average:
            data = np.divide(effective.result, self.size)
        else:
            data = effective.result.copy()
        return PartialAllreduceResult(
            data=data,
            included=included,
            num_active=effective.num_active,
            initiator=record.initiator,
        )

    @property
    def rounds_completed(self) -> int:
        with self._lock:
            return self._rounds_done

    def close(self) -> None:
        """Stop the progress thread.  Call after the last ``reduce``; a
        round in flight ends within one receive deadline."""
        with self._lock:
            first, self._stop = not self._stop, True
            round_index = self._rounds_done
        if first:
            # Wakes the thread's receive; a round in flight finishes
            # first, and the next wait takes the message.
            try:
                self.comm_act.send(
                    ("close", round_index), self.rank,
                    tag=tags.partial_activation_tag(round_index),
                )
            except MailboxClosed:
                pass  # the world is down, and the thread's receive with it
        self._thread.join(timeout=self.comm_lib.default_timeout)

    def __enter__(self) -> "PartialAllreduce":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _raise_if_failed(self) -> None:
        if self._failure is not None:
            round_index, cause = self._failure
            raise RuntimeError(
                f"rank {self.rank}: partial-allreduce progress thread failed "
                f"in round {round_index}"
            ) from cause

    # ------------------------------------------------------------------
    # active-process counter decode
    # ------------------------------------------------------------------
    def _decode_num_active(self, raw: float) -> int:
        """Decode (and validate) the reduced arrival counter."""
        num_active = int(round(raw))
        if abs(raw - num_active) > 1e-6 or not 0 <= num_active <= self.size:
            raise RuntimeError(
                f"rank {self.rank}: corrupted active-process counter "
                f"{raw!r} (world size {self.size}); the counter must reduce "
                f"to an exact integer in [0, {self.size}]"
            )
        return num_active

    # ------------------------------------------------------------------
    # progress thread
    # ------------------------------------------------------------------
    def _designated_initiator(self, round_index: int) -> int:
        """Initiator (majority) / coordinator (quorum) of ``round_index``.

        Consensus across ranks comes from the shared seed: every rank
        draws the same pseudo-random sequence (Section 4.2).
        """
        return int(self._initiator_rng.integers(0, self.size))

    def _progress_loop(self) -> None:
        _obs.bind(self._recorder)
        round_index = 0
        try:
            while self._run_round(round_index):
                round_index += 1
        except BaseException as exc:  # noqa: BLE001 - reported to the app thread
            with self._cond:
                self._failure = (round_index, exc)
                self._cond.notify_all()

    # -- round phases ---------------------------------------------------
    def _run_round(self, round_index: int) -> bool:
        """Execute one round; returns False when asked to stop."""
        designated = -1
        if self.mode in (PartialMode.MAJORITY, PartialMode.QUORUM):
            designated = self._designated_initiator(round_index)

        initiator = self._wait_for_activation(round_index, designated)
        if initiator is None:
            return False
        _obs.instant(
            "partial-activation", "partial", round=round_index,
            initiator=initiator, external=initiator != self.rank,
        )
        self._forward_activation(round_index, initiator)

        # Atomically take the send buffer: everything accumulated so far
        # (fresh gradient and/or stale gradients) is this round's
        # contribution; late additions stay for the next round.  It moves
        # straight into the round's one fresh ``[data..., counter]``
        # payload, which is reduced in place and then *is* the round's
        # result — the record keeps a view of it, so the payload must not
        # be reused.  Allocating it in the collective's dtype keeps a
        # narrow (compressed) send buffer narrow on the wire.
        n = self._send_acc.size
        payload = np.empty(n + 1, dtype=self.dtype)
        with self._lock:
            payload[:n] = self._send_acc.reshape(-1)
            self._send_acc[:] = 0
            swap_marker = self._add_counter
            fresh = self._last_arrival_round >= round_index
        _obs.instant("partial-staleness", "partial", round=round_index, fresh=fresh)

        # Piggyback the number of active processes onto the reduction.  The
        # payload is summed, and the counter is decoded *before* any
        # averaging (the ``average`` division in :meth:`reduce` applies to
        # the data part only), so the count stays an exact integer in the
        # collective's dtype: sums of ones are exact up to 2^(mantissa+1)
        # — 2^53 for float64, 2048 for a float16 (compressed) collective —
        # and the constructor rejects world sizes beyond that range.
        payload[n] = 1.0 if fresh else 0.0
        reduced = _allreduce(
            self.comm_lib, payload, n_chunks=self.n_chunks, copy=False
        )
        result = reduced[:n].reshape(self.shape)
        num_active = self._decode_num_active(float(reduced[n]))
        _obs.counter("partial-num-active", num_active, cat="partial")

        with self._cond:
            record = _RoundRecord(
                result=result,
                num_active=num_active,
                initiator=initiator,
                swap_marker=swap_marker,
            )
            self._records[round_index] = record
            self._latest_record = record
            self._rounds_done = round_index + 1
            self._cond.notify_all()
        return True

    def _wait_for_activation(self, round_index: int, designated: int) -> Optional[int]:
        """Block until the round is activated.

        Every message of the activation channel comes through one blocking
        receive: this rank's own arrival (sent by :meth:`reduce`), another
        rank's arrival at a quorum coordinator, an activation, or
        ``close``.  Returns the round's initiator (this rank when it
        initiates), or ``None`` when the collective is being shut down.
        """
        arrivals = 0
        while True:
            try:
                kind, msg_round, *initiator = self.comm_act.recv(tag=ANY_TAG)
            except CommTimeoutError:
                continue  # between rounds the wait has no deadline
            if kind == "close":
                return None
            if msg_round != round_index:
                continue  # an earlier round's duplicate activation or late arrival
            if kind == "activate":
                return initiator[0]
            if self.mode is PartialMode.SOLO or self.rank == designated:
                arrivals += 1
                if arrivals >= (self.quorum if self.mode is PartialMode.QUORUM else 1):
                    return self.rank
            elif self.mode is PartialMode.QUORUM:
                # This rank's own arrival, forwarded to the coordinator.
                self.comm_act.send(
                    ("arrival", round_index), designated,
                    tag=tags.partial_activation_tag(round_index),
                )

    def _forward_activation(self, round_index: int, initiator: int) -> None:
        """Send the activation to this rank's children in the binomial
        broadcast rooted at ``initiator``: the send steps of its plan."""
        act_tag = tags.partial_activation_tag(round_index)
        message = ("activate", round_index, initiator)
        for _name, steps in activation_plan(self.size, initiator)[self.rank]:
            for step in steps:
                if step.send:
                    self.comm_act.send(message, step.peer, tag=act_tag)


def make_partial_allreduce(
    comm: Communicator,
    shape,
    mode: PartialMode | str,
    **kwargs,
) -> PartialAllreduce:
    """A :class:`PartialAllreduce` of flavour ``mode`` (name or enum)."""
    return PartialAllreduce(comm, shape, mode, **kwargs)
