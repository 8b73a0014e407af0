"""Pluggable message-passing substrate.

This package plays the role of the MPI layer in the original paper: it
provides tagged point-to-point communication between *ranks* behind a
backend registry (:mod:`repro.comm.backend`), so the same SPMD code runs
on an in-process thread transport or on one OS process per rank.

Design
------
* :func:`~repro.comm.backend.launch` is the ``mpiexec`` of the library:
  ``launch(fn, P, backend="thread"|"process")`` runs ``fn(comm, ...)``
  on ``P`` ranks of the chosen :class:`~repro.comm.backend.CommBackend`
  and collects results or re-raises failures as a
  :class:`~repro.comm.backend.WorldError`.
* A :class:`~repro.comm.communicator.Communicator` is the per-rank handle
  exposing ``send`` / ``recv`` / ``recv_into`` / ``poll`` / ``barrier`` and
  rank/size queries, in the spirit of ``mpi4py``'s ``Comm`` objects.  It
  is shared by both transports: each implements the small
  :class:`~repro.comm.backend.RouterLike` surface underneath it.
* The thread backend's :class:`~repro.comm.router.Router` owns one
  :class:`~repro.comm.mailbox.Mailbox` per ``(rank, channel)`` pair.
  Channels separate the *application* traffic (synchronous collectives
  issued by the compute thread) from the *library* traffic (partial
  collectives progressed by the communication thread, mirroring the
  library-offloading design of Section 4.3 of the paper).
* The process backends (:mod:`repro.comm.process_backend`) run one OS
  process per rank behind one launcher, one mesh builder and one
  endpoint; ``process``, ``shm``, ``tcp`` and ``hier`` differ only in
  their :class:`~repro.comm.process_backend.MeshPlan` — who serves the
  seed rendezvous, and whether a rank pair rides a TCP socket or a
  shared-memory ring.  Control messages are pickled, NumPy payloads
  travel as zero-copy frames.

All payloads are either NumPy arrays (copied on send to avoid shared
mutation, as a real network would) or small picklable Python objects —
pickle-safety is part of the payload contract so the same program runs
on every transport.
"""

from repro.comm import tags
from repro.comm.message import Message, ANY_SOURCE, ANY_TAG
from repro.comm.mailbox import Mailbox, MailboxClosed
from repro.comm.router import Router, Channel
from repro.comm.reduce_ops import ReduceOp, SUM, PROD, MAX, MIN, AVG, get_op
from repro.comm.communicator import Communicator, CommTimeoutError
from repro.comm.backend import (
    BackendUnavailableError,
    CommBackend,
    CommunicatorLike,
    RouterLike,
    WorldError,
    available_backends,
    backend_unavailable_reason,
    default_backend_name,
    get_backend,
    launch,
    mark_backend_unavailable,
    register_backend,
)
from repro.comm.subworld import SubsetCommunicator
from repro.comm.world import ThreadBackend, ThreadWorld

__all__ = [
    "tags",
    "Message",
    "ANY_SOURCE",
    "ANY_TAG",
    "Mailbox",
    "MailboxClosed",
    "Router",
    "Channel",
    "ReduceOp",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "AVG",
    "get_op",
    "Communicator",
    "CommTimeoutError",
    "BackendUnavailableError",
    "CommBackend",
    "CommunicatorLike",
    "RouterLike",
    "WorldError",
    "available_backends",
    "backend_unavailable_reason",
    "default_backend_name",
    "get_backend",
    "launch",
    "mark_backend_unavailable",
    "register_backend",
    "SubsetCommunicator",
    "ThreadBackend",
    "ThreadWorld",
]
