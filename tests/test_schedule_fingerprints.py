"""Message-schedule fingerprints: every collective sends what it always sent.

``tests/data/schedule_fingerprints.json`` holds, for each deterministic
case of :mod:`repro.analysis.schedule_verifier` at P in {2, 3, 4, 5, 8},
a SHA-256 over the per-rank ordered ``(kind, peer, tag, elements)``
event lists of the case's record.  A plan case
(:func:`~repro.analysis.schedule_verifier.build_plan_cases`: every
allreduce, reduce-scatter and allgather, the interleaved sequence and the
deep500 / sharded exchanges' bucket plans) is hashed from
:func:`~repro.analysis.schedule_verifier.interpret`'s record, without
threads; only what is not a plan
(:func:`~repro.analysis.schedule_verifier.build_cases`: broadcast,
reduce, the object allgather, the barrier, serving, telemetry and
Horovod's exchange) is recorded by :mod:`repro.analysis.recording`.
``tests/test_plans.py`` proves each plan case's interpreted lists equal
those of a recorded run of the live collective or exchange, so a green
run here proves the live code too mints the same tags, talks to the same
peers, moves the same element counts and does so in the same per-rank
order.

Every hash but the 56 below was frozen from a recorded run.  The file
was generated *before* the collective layer was collapsed onto one body
per phase.
The reduce-scatter and sharded-exchange entries were re-frozen when the
``sharding`` tag region merged into ``sync``: their per-rank ``(kind,
peer, elements)`` lists are unchanged, only the phase ids in their tags
moved to sync's phase table.  The 25 Rabenseifner / halving entries
(``allreduce[rabenseifner,*]``, ``reduce_scatter+allgather[halving,*]``,
``sharded-exchange[zero1,halving,*]`` at every P) were re-frozen when the
phases became plans: the doubling allgather (phase 7) now sends plain
array windows instead of pickled ``(lo, hi, data)`` tuples.  Across all
35 halving-family cases the per-rank ``(kind, peer, tag)`` lists are
unchanged; only the ``elements`` field of the 528 phase-7 events moved,
from 0 (a tuple) to the window length.  The 142 plan cases' interpreted
records reproduce the recorded hashes byte for byte.  The 56
``allreduce[hierarchical,*,chunks=1|3]`` and
``reduce_scatter+allgather[hierarchical,*,chunks=1|3]`` entries were
added when the table took the hierarchical schedule at 1 and 3 chunks
too, from the interpreted record, which equals a recorded run of the
live collective for each of them.

Regenerate (only when a schedule is changed on purpose) with
``PYTHONPATH=src python tests/test_schedule_fingerprints.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.analysis.schedule_verifier import PlanCase, VerifyCase, build_cases, build_plan_cases

WORLD_SIZES = (2, 3, 4, 5, 8)
DATA_FILE = Path(__file__).parent / "data" / "schedule_fingerprints.json"


def fingerprint(case: VerifyCase | PlanCase) -> str:
    """Hash of the per-rank ordered message lists of one case's record."""
    record = case.record()
    assert not record.crashed and not record.starved(), (case.name, record.errors)
    per_rank = [[] for _ in range(case.world_size)]
    for event in sorted(record.events, key=lambda e: (e.rank, e.order)):
        per_rank[event.rank].append(
            [event.kind, event.peer, event.tag, event.elements]
        )
    blob = json.dumps(per_rank, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


_CASES: Dict[str, VerifyCase | PlanCase] = {
    f"P={size}/{case.name}": case
    for size in WORLD_SIZES
    for case in build_cases(size) + build_plan_cases(size)
}
_FROZEN: Dict[str, str] = json.loads(DATA_FILE.read_text()) if DATA_FILE.exists() else {}


def all_fingerprints() -> Dict[str, str]:
    return {key: fingerprint(case) for key, case in _CASES.items()}


def test_every_case_has_a_frozen_fingerprint():
    assert _FROZEN, f"{DATA_FILE} is missing or empty"
    assert sorted(_CASES) == sorted(_FROZEN)


@pytest.mark.parametrize("key", sorted(_FROZEN))
def test_schedule_matches_frozen_fingerprint(key):
    assert fingerprint(_CASES[key]) == _FROZEN[key]


if __name__ == "__main__":
    first, second = all_fingerprints(), all_fingerprints()
    unstable = sorted(k for k in first if first[k] != second[k])
    assert not unstable, f"non-deterministic cases cannot be frozen: {unstable}"
    DATA_FILE.parent.mkdir(exist_ok=True)
    DATA_FILE.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
    print(f"froze {len(first)} fingerprints in {DATA_FILE}")
