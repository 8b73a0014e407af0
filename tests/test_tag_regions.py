"""The global tag-region map: disjointness, bounds, round-trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import tags

#: Mint, decode, region and per-field capacity of each four-field layout.
_LAYOUTS = {
    "sync": (
        tags.sync_tag, tags.decode_sync_tag, tags.SYNC,
        (tags.SYNC_MAX_EPOCHS, tags.SYNC_MAX_PHASES,
         tags.SYNC_MAX_ROUNDS, tags.SYNC_MAX_CHUNKS),
    ),
}
_FIELD_WORDS = ("epoch", "phase", "round", "chunk")


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
        "serving": 300_000_000,
        "telemetry": 400_000_000,
        "sync-collectives": 2_000_000_000,
    }
    # The retired barrier region stays unassigned.
    assert tags.region_of(1_000_000_000) is None


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


def test_describe_tag_decodes_reserved_tags_only():
    from repro.comm.message import ANY_TAG

    assert tags.describe_tag(5) == "5"
    assert tags.describe_tag(ANY_TAG) == str(ANY_TAG)
    serving = tags.serving_request_tag(3)
    assert tags.describe_tag(serving) == f"{serving} (serving)"
    sync = tags.sync_tag(1, 2, 3, 4)
    assert tags.describe_tag(sync) == (
        f"{sync} (sync-collectives: epoch 1, phase 2, round 3, chunk 4)"
    )


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


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_property_tag_round_trips_over_every_field_range(layout, data):
    mint, decode, region, limits = _LAYOUTS[layout]
    fields = tuple(data.draw(st.integers(0, limit - 1)) for limit in limits)
    tag = mint(*fields)
    assert tag in region
    assert tuple(decode(tag)) == fields


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_property_out_of_range_field_raises_with_its_value(layout, data):
    mint, _, _, limits = _LAYOUTS[layout]
    fields = [data.draw(st.integers(0, limit - 1)) for limit in limits]
    field = data.draw(st.integers(0, len(limits) - 1))
    bad = data.draw(
        st.integers(max_value=-1) | st.integers(min_value=limits[field])
    )
    fields[field] = bad
    pattern = rf"{_FIELD_WORDS[field]} {re.escape(str(bad))} outside"
    with pytest.raises(ValueError, match=pattern):
        mint(*fields)


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_decode_rejects_a_tag_outside_its_region(layout):
    _, decode, region, _ = _LAYOUTS[layout]
    for tag in (region.lo - 1, region.hi):
        with pytest.raises(ValueError, match=str(tag)):
            decode(tag)


def test_max_sync_tag_is_int64_safe():
    top = tags.sync_tag(
        tags.SYNC_MAX_EPOCHS - 1, tags.SYNC_MAX_PHASES - 1,
        tags.SYNC_MAX_ROUNDS - 1, tags.SYNC_MAX_CHUNKS - 1,
    )
    assert top < 2 ** 63


def test_partial_tags_stay_in_their_regions():
    assert tags.partial_activation_tag(0) in tags.PARTIAL_ACTIVATION
    assert tags.PARTIAL_ACTIVATION.hi == tags.SERVING_TAG_BASE
    with pytest.raises(ValueError):
        tags.partial_activation_tag(-1)
    with pytest.raises(ValueError):
        tags.partial_activation_tag(tags.PARTIAL_ACTIVATION.span)


def test_phase_ids_are_pinned():
    """Every collective's phase ids come from sync's one table.  Ids are
    wire protocol: the retired 0, 1 and 2 (the rooted broadcast and
    reduce, the object allgather) stay unused, and no other id moved when
    they went."""
    from repro.collectives import sync

    ids = {name: value for name, value in vars(sync).items() if name.startswith("_PHASE_")}
    assert ids == {
        "_PHASE_RD": 3,
        "_PHASE_RING_RS": 4,
        "_PHASE_RING_AG": 5,
        "_PHASE_HALVING_RS": 6,
        "_PHASE_DOUBLING_AG": 7,
        "_PHASE_FOLD_IN": 8,
        "_PHASE_FOLD_OUT": 9,
        "_PHASE_HIER_REDUCE": 10,
        "_PHASE_HIER_BCAST": 11,
        "_PHASE_LEADER_RS": 12,
        "_PHASE_LEADER_AG": 13,
        "_PHASE_HIER_SCATTER": 14,
        "_PHASE_HIER_GATHER": 15,
    }
    assert max(ids.values()) < tags.SYNC_MAX_PHASES


# ---------------------------------------------------------------------------
# one collective epoch per communicator group
# ---------------------------------------------------------------------------
def test_pass_through_proxy_shares_the_collective_epoch():
    """A wire-counting proxy and the communicator it wraps draw one epoch
    sequence, so the sharded exchange's collectives and the runner's raw
    ones can never mint the same tag."""
    from repro.comm import ThreadWorld
    from repro.training.exchange import _WireCountingComm

    with ThreadWorld(1) as world:
        comm = world.communicator(0)
        proxy = _WireCountingComm(comm)
        drawn = [
            proxy.next_collective_epoch(),
            comm.next_collective_epoch(),
            proxy.next_collective_epoch(),
        ]
    assert drawn == [0, 1, 2]


def test_subset_view_keeps_its_own_collective_epoch():
    from repro.comm import ThreadWorld
    from repro.comm.subworld import SubsetCommunicator

    with ThreadWorld(2) as world:
        comm = world.communicator(0)
        view = SubsetCommunicator(comm, [0])
        drawn = [view.next_collective_epoch(), view.next_collective_epoch()]
        assert drawn == [0, 1]
        assert comm.next_collective_epoch() == 0


def _proxied_and_raw_collectives(comm):
    """The sharded halves through a proxy, dense allreduces on the raw comm."""
    from repro.collectives.sharding import allgather_flat, reduce_scatter
    from repro.collectives.sync import allreduce
    from repro.training.exchange import _WireCountingComm

    proxy = _WireCountingComm(comm)
    allreduce(comm, np.ones(6), algorithm="ring")
    flat, _ = reduce_scatter(proxy, np.ones(6))
    allreduce(comm, np.ones(6))
    allgather_flat(proxy, flat)


def test_proxied_and_raw_collectives_draw_distinct_epochs():
    from repro.analysis import recording

    record = recording.record(_proxied_and_raw_collectives, 3)
    assert not record.crashed and not record.starved()
    epochs = {tags.decode_sync_tag(e.tag).epoch for e in record.sends()}
    assert epochs == {0, 1, 2, 3}
