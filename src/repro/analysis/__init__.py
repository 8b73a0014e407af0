"""Static analysis and verification of the communication layer.

Three tools, one goal: catch schedule and protocol bugs *before* they
need a 512-rank deployment and a lucky race to reproduce.

* :mod:`repro.analysis.schedule_verifier` — records every registered
  collective's global send/recv multigraph on a per-rank recording
  communicator (:mod:`repro.analysis.recording`) and proves
  match-completeness, tag-space soundness, deadlock freedom and exact
  reduction coverage, swept over world sizes and host topologies.
* :mod:`repro.analysis.ring_model` — bounded model checker of the
  shared-memory SPSC ring doorbell protocol: explores every
  interleaving of the producer/consumer step machines and proves no
  torn frame and no lost wakeup.
* :mod:`repro.analysis.lint` — repo-specific AST lint for invariants a
  generic linter cannot know (tag discipline, shm cleanup, zero-copy
  framing, silent array copies, actionable ValueErrors).

``python -m repro verify`` and ``python -m repro lint`` are the entry
points; both are CI gates.
"""

from repro.analysis.lint import LintFinding, lint_paths, lint_source
from repro.analysis.recording import (
    CommEvent,
    RecordingCommunicator,
    RecordingWorld,
    RunRecord,
    record_run,
)
from repro.analysis.ring_model import (
    ExploreResult,
    RingConfig,
    explore,
    verify_ring_protocol,
)
from repro.analysis.schedule_verifier import (
    CaseResult,
    VerificationReport,
    VerifyCase,
    Violation,
    build_cases,
    check_deadlock_freedom,
    check_dissemination,
    check_match_completeness,
    check_reduction_coverage,
    check_tag_layout,
    check_tag_soundness,
    partial_round_case,
    run_case,
    self_test,
    verify,
)

__all__ = [
    "LintFinding",
    "lint_paths",
    "lint_source",
    "CommEvent",
    "RecordingCommunicator",
    "RecordingWorld",
    "RunRecord",
    "record_run",
    "ExploreResult",
    "RingConfig",
    "explore",
    "verify_ring_protocol",
    "CaseResult",
    "VerificationReport",
    "VerifyCase",
    "Violation",
    "build_cases",
    "check_deadlock_freedom",
    "check_dissemination",
    "check_match_completeness",
    "check_reduction_coverage",
    "check_tag_layout",
    "check_tag_soundness",
    "partial_round_case",
    "run_case",
    "self_test",
    "verify",
]
