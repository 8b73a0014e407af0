"""SPSC ring model checker: healthy protocol safe, mutations caught."""

import pytest

from repro.analysis.ring_model import (
    HEALTHY_CONFIGS,
    MUTATION_CONFIGS,
    RingConfig,
    explore,
    verify_ring_protocol,
)


@pytest.mark.parametrize(
    "config", HEALTHY_CONFIGS, ids=[c.label for c in HEALTHY_CONFIGS]
)
def test_healthy_protocol_has_no_violations(config):
    result = explore(config)
    assert result.ok, [str(v) for v in result.violations]
    assert result.states > 0


@pytest.mark.parametrize(
    "config, expected_kind",
    MUTATION_CONFIGS,
    ids=[c.label for c, _ in MUTATION_CONFIGS],
)
def test_each_mutation_is_caught(config, expected_kind):
    result = explore(config)
    kinds = {v.kind for v in result.violations}
    assert expected_kind in kinds, (
        f"expected {expected_kind}, saw {sorted(kinds)}"
    )


def test_violations_carry_a_trace():
    config, expected_kind = MUTATION_CONFIGS[0]
    result = explore(config)
    bad = [v for v in result.violations if v.kind == expected_kind]
    assert bad and bad[0].trace, "counterexample must include an interleaving"
    # the trace is made of model step labels
    assert all(step.startswith(("p_", "c_", "(")) for step in bad[0].trace)


def test_capacity_one_forces_the_full_ring_path():
    result = explore(RingConfig(capacity=1, frame_sizes=(3,)))
    assert result.ok, [str(v) for v in result.violations]


def test_invalid_configs_are_rejected():
    with pytest.raises(ValueError, match="capacity"):
        explore(RingConfig(capacity=0, frame_sizes=(1,)))
    with pytest.raises(ValueError, match="frame sizes"):
        explore(RingConfig(capacity=2, frame_sizes=(0,)))


def test_verify_ring_protocol_rollup():
    rows = verify_ring_protocol()
    assert len(rows) == len(HEALTHY_CONFIGS) + len(MUTATION_CONFIGS)
    for row in rows:
        assert row.ok, [str(v) for v in row.violations]


@pytest.mark.parametrize(
    "config",
    [c for c, _ in MUTATION_CONFIGS if c.rewind_tail_first or c.load_head_first],
    ids=lambda c: c.label,
)
def test_rewind_mutations_tear_across_a_rewind(config):
    result = explore(config)
    torn = [v for v in result.violations if v.kind == "torn-frame"]
    assert torn and any(step.startswith("p_rewind") for step in torn[0].trace)
