"""Static analysis and verification of the communication layer.

Three tools, one goal: catch schedule and protocol bugs *before* they
need a 512-rank deployment and a lucky race to reproduce.

* :mod:`repro.analysis.schedule_verifier` — interprets the synchronous
  collectives' plans without threads at P up to 1024, records what is
  not a plan (serving, telemetry, a live partial round) on a thread per
  rank and reads its global send/recv multigraph off the flight recorder
  (:mod:`repro.analysis.recording`), and
  proves match-completeness, tag-space soundness, deadlock freedom and
  exact reduction coverage, swept over world sizes and host topologies.
* :mod:`repro.analysis.ring_model` — bounded model checker of the
  shared-memory SPSC ring doorbell protocol and empty-ring rewind:
  explores every interleaving of the producer/consumer step machines
  and proves no torn frame and no lost wakeup.
* :mod:`repro.analysis.lint` — repo-specific AST lint for invariants a
  generic linter cannot know (tag discipline, shm cleanup, zero-copy
  framing, silent array copies, actionable ValueErrors).

``python -m repro verify`` and ``python -m repro lint`` are the entry
points; both are CI gates.
"""
