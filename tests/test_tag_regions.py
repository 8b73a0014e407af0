"""The global tag-region map: disjointness, bounds, round-trips."""

import pytest

from repro.comm import tags


def test_regions_are_pairwise_disjoint():
    tags.check_region_disjointness()  # must not raise
    for a in tags.TAG_REGIONS:
        for b in tags.TAG_REGIONS:
            if a is b:
                continue
            assert a.hi <= b.lo or b.hi <= a.lo, (a.name, b.name)


def test_region_of_maps_each_base_and_user_space():
    for reg in tags.TAG_REGIONS:
        assert tags.region_of(reg.lo) is reg
        assert tags.region_of(reg.hi - 1) is reg
    assert tags.region_of(0) is None
    assert tags.region_of(99_999_999) is None


def test_region_bases_are_pinned():
    """Bases are wire protocol: retiring a region must not move another."""
    assert {reg.name: reg.lo for reg in tags.TAG_REGIONS} == {
        "partial-activation": 100_000_000,
        "partial-arrival": 200_000_000,
        "serving": 300_000_000,
        "telemetry": 400_000_000,
        "barrier": 1_000_000_000,
        "sync-collectives": 2_000_000_000,
        "sharding": 2_000_000_000 + 2 ** 62,
    }


def test_region_lookup_by_name():
    assert tags.region("sync-collectives") is tags.SYNC
    with pytest.raises(KeyError, match="unknown tag region"):
        tags.region("nope")


def test_sync_tag_round_trip():
    for fields in [
        (0, 0, 0, 0),
        (3, 11, 99, 7),
        (tags.SYNC_MAX_EPOCHS - 1, tags.SYNC_MAX_PHASES - 1,
         tags.SYNC_MAX_ROUNDS - 1, tags.SYNC_MAX_CHUNKS - 1),
    ]:
        tag = tags.sync_tag(*fields)
        assert tag in tags.SYNC
        assert tuple(tags.decode_sync_tag(tag)) == fields


def test_sync_tag_validates_every_field():
    with pytest.raises(ValueError, match="epoch"):
        tags.sync_tag(tags.SYNC_MAX_EPOCHS, 0, 0, 0)
    with pytest.raises(ValueError, match="epoch"):
        tags.sync_tag(-1, 0, 0, 0)
    with pytest.raises(ValueError, match="phase"):
        tags.sync_tag(0, tags.SYNC_MAX_PHASES, 0, 0)
    with pytest.raises(ValueError, match="round"):
        tags.sync_tag(0, 0, tags.SYNC_MAX_ROUNDS, 0)
    with pytest.raises(ValueError, match="chunk"):
        tags.sync_tag(0, 0, 0, tags.SYNC_MAX_CHUNKS)


def test_max_sync_tag_is_int64_safe():
    top = tags.sync_tag(
        tags.SYNC_MAX_EPOCHS - 1, tags.SYNC_MAX_PHASES - 1,
        tags.SYNC_MAX_ROUNDS - 1, tags.SYNC_MAX_CHUNKS - 1,
    )
    assert top < 2 ** 63


def test_barrier_tag_bounds():
    assert tags.barrier_tag(0, 0) == tags.BARRIER_TAG_BASE
    assert tags.barrier_tag(1, 2) == tags.BARRIER_TAG_BASE + 64 + 2
    max_epochs = tags.BARRIER.span // tags.BARRIER_TAGS_PER_EPOCH
    assert tags.barrier_tag(max_epochs - 1, 63) in tags.BARRIER
    with pytest.raises(ValueError, match="barrier epoch"):
        tags.barrier_tag(max_epochs, 0)
    with pytest.raises(ValueError, match="barrier round"):
        tags.barrier_tag(0, tags.BARRIER_TAGS_PER_EPOCH)


def test_partial_tags_stay_in_their_regions():
    assert tags.partial_activation_tag(0) in tags.PARTIAL_ACTIVATION
    assert tags.partial_arrival_tag(5) in tags.PARTIAL_ARRIVAL
    with pytest.raises(ValueError):
        tags.partial_activation_tag(-1)
    with pytest.raises(ValueError):
        tags.partial_activation_tag(tags.PARTIAL_ACTIVATION.span)


def test_owning_modules_import_from_the_table():
    from repro.collectives import sync
    from repro.comm import communicator

    assert sync._SYNC_TAG_BASE == tags.SYNC_TAG_BASE
    assert sync._EPOCH_STRIDE == tags.SYNC_EPOCH_STRIDE
    assert communicator._BARRIER_TAG_BASE == tags.BARRIER_TAG_BASE
