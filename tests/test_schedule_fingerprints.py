"""Message-schedule fingerprints: every collective sends what it always sent.

``tests/data/schedule_fingerprints.json`` holds, for each deterministic
case of :func:`repro.analysis.schedule_verifier.build_cases` at
P in {2, 3, 4, 5, 8}, a SHA-256 over the per-rank ordered
``(kind, peer, tag, elements)`` event lists recorded by
:mod:`repro.analysis.recording`.  The file was generated *before* the
collective layer was collapsed onto one body per phase, so a green run
proves the refactored code mints the same tags, talks to the same peers,
moves the same element counts and does so in the same per-rank order.

Regenerate (only when a schedule is changed on purpose) with
``PYTHONPATH=src python tests/test_schedule_fingerprints.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.analysis.recording import RecordingWorld
from repro.analysis.schedule_verifier import VerifyCase, build_cases

WORLD_SIZES = (2, 3, 4, 5, 8)
DATA_FILE = Path(__file__).parent / "data" / "schedule_fingerprints.json"


def fingerprint(case: VerifyCase) -> str:
    """Hash of the per-rank ordered message lists of one recorded run."""
    record = RecordingWorld(
        case.world_size, host_topology=case.host_topology,
        recv_timeout=case.recv_timeout,
    ).run(case.fn)
    assert not record.crashed and not record.starved(), (case.name, record.errors)
    per_rank = [[] for _ in range(case.world_size)]
    for event in sorted(record.events, key=lambda e: (e.rank, e.order)):
        per_rank[event.rank].append(
            [event.kind, event.peer, event.tag, event.elements]
        )
    blob = json.dumps(per_rank, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


_CASES: Dict[str, VerifyCase] = {
    f"P={size}/{case.name}": case
    for size in WORLD_SIZES
    for case in build_cases(size)
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
