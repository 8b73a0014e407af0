"""One exchange schedule: the exchanges run it, ``validate()`` and the tuner read it.

``training.exchange.exchange_schedule`` says what each fusion bucket of a
synchronous exchange runs.  These tests pin that

* the tuner's price of every exchange on a grid is the price it had when
  it re-derived the routing itself (``tests/data/exchange_prices.json``,
  frozen from that pricer), except where the schedule refuses what no
  exchange can run;
* the collectives a live exchange issues are the schedule's, on the
  thread world and on two simulated hosts of ``hier``;
* a combination the exchanges refuse is refused at the boundary:
  ``TrainingConfig.validate()`` (so ``repro train`` exits 2) and the tuner.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro.training.exchange as exchange_module
from repro.collectives.topology import HostTopology
from repro.comm import available_backends, launch
from repro.compression import get_codec
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.simtime.collective_model import collective_time
from repro.simtime.network import DEFAULT_NETWORK, LogGPParams
from repro.training.config import TrainingConfig
from repro.training.exchange import ShardedExchange, SynchronousExchange, exchange_schedule
from repro.tuning.autotune import predict_exchange_time

PRICES = json.loads(
    (Path(__file__).parent / "data" / "exchange_prices.json").read_text()
)
#: The grid's constants (the keys carry the rest).
SLOW_INTER = LogGPParams(alpha=100e-6, beta=20e-9, gamma=2e-9, collective_overhead=10e-6)
GRADIENT_BYTES = 100_000
CODECS = {"none": None}
CODECS.update((name, get_codec(name).cost_model()) for name in ("fp16", "topk"))


def _refused(key):
    """ZeRO-1 under a codec rides the flat ring only.  The frozen pricer
    priced it on two hosts (the hierarchical reduce-scatter, which carries
    no codec) and under Rabenseifner (halving): ``validate()`` refused the
    second and ``ShardedExchange`` both, on every rank."""
    _, algorithm, codec, sharding, layout = key.split("/")[:5]
    return (
        sharding == "zero1" and codec == "fp16"
        and (layout == "two-hosts" or algorithm == "rabenseifner")
    )


def _price(key):
    size, algorithm, codec, sharding, layout, threshold, chunks = key.split("/")
    size = int(size.split("=")[1])
    hosts = None
    if layout == "two-hosts":
        hosts = HostTopology.from_hosts((size - size // 2, size // 2))
    return predict_exchange_time(
        DEFAULT_NETWORK, size, GRADIENT_BYTES, algorithm,
        int(threshold.split("=")[1]), int(chunks.split("=")[1]),
        CODECS[codec], hosts, SLOW_INTER, sharding,
    )


def test_prices_match_the_frozen_table_bit_for_bit():
    mismatched, unrefused = [], []
    for key, frozen in PRICES.items():
        if frozen == "raises" or _refused(key):
            try:
                _price(key)
            except ValueError:
                continue
            unrefused.append(key)
        elif _price(key) != frozen:
            mismatched.append((key, _price(key), frozen))
    assert len(PRICES) == 864
    assert mismatched == [] and unrefused == []


def test_payload_allgather_prices_its_cross_host_hops():
    """The topk payload ring is flat over the global ranks, so on two hosts
    its cross-host hops ride the slower inter link."""
    shape = (DEFAULT_NETWORK, 4, GRADIENT_BYTES, "ring", 1 << 20, 1, CODECS["topk"])
    one_host = predict_exchange_time(*shape)
    two_hosts = predict_exchange_time(*shape, HostTopology.from_hosts((2, 2)), SLOW_INTER)
    assert two_hosts > one_host


def test_no_threshold_prices_one_bucket():
    """``fusion_threshold_bytes=None`` is one bucket, as the schedule reads
    it: the dense allreduce over the whole gradient's float64 elements."""
    one_bucket = collective_time(
        "allreduce", "ring", 4, GRADIENT_BYTES // 8, 1, DEFAULT_NETWORK, None, None, 8
    )
    assert predict_exchange_time(DEFAULT_NETWORK, 4, GRADIENT_BYTES, "ring", None) == one_bucket
    assert predict_exchange_time(
        DEFAULT_NETWORK, 4, GRADIENT_BYTES, "ring", GRADIENT_BYTES
    ) == one_bucket


@pytest.mark.parametrize("mode", ["solo", "majority"])
def test_eager_modes_price_recursive_doubling(mode):
    """An eager mode's partial allreduce is the recursive doubling
    ``PartialAllreduce`` runs, whatever algorithm the run configures."""
    doubling = collective_time(
        "allreduce", "recursive_doubling", 4, GRADIENT_BYTES // 8, 1, DEFAULT_NETWORK,
        None, None, 8,
    )
    for algorithm in ("ring", "recursive_doubling", "rabenseifner"):
        assert predict_exchange_time(
            DEFAULT_NETWORK, 4, GRADIENT_BYTES, algorithm, None, mode=mode
        ) == doubling


def test_tuner_refuses_zero1_fp16_on_two_hosts():
    with pytest.raises(ValueError, match="'fp16'.*'0,0,1,1'"):
        predict_exchange_time(
            DEFAULT_NETWORK, 4, 4_000_000, "ring", 1 << 20, 2, CODECS["fp16"],
            HostTopology.from_hosts((2, 2)), None, "zero1",
        )


@pytest.fixture
def two_hosts(monkeypatch):
    if "hier" not in available_backends():
        pytest.skip("hier backend unavailable")
    monkeypatch.setenv("REPRO_HOST_TOPOLOGY", "0,0,1,1")


def test_validate_refuses_zero1_fp16_on_two_hosts(two_hosts):
    config = TrainingConfig(
        world_size=4, comm_backend="hier", sharding="zero1", compression="fp16",
        allreduce_algorithm="ring",
    )
    with pytest.raises(ValueError, match="'fp16'.*'0,0,1,1'"):
        config.validate()


def test_train_cli_refuses_zero1_fp16_on_two_hosts(two_hosts, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as info:
        main([
            "train", "--backend", "hier", "--sharding", "zero1", "--compression",
            "fp16", "--allreduce-algorithm", "ring", "--world-size", "4", "--steps", "2",
        ])
    assert info.value.code == 2
    assert "'0,0,1,1'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# what a live exchange runs is the schedule the pricer walks
# ---------------------------------------------------------------------------
NUM_ELEMENTS = 3000
THRESHOLD = 4000  # dense: 6 buckets of 500; fp16: 2 of 1 500
#: (sharding, allreduce algorithm, codec) per live exchange.
LIVE = [
    (sharding, algorithm, codec)
    for sharding, algorithms in (
        ("none", ("recursive_doubling", "ring", "rabenseifner")),
        ("zero1", ("recursive_doubling", "ring", "rabenseifner")),
    )
    for algorithm in algorithms
    for codec in (None, "fp16")
    if not (sharding == "zero1" and codec and algorithm == "rabenseifner")
]
_CALLS = []


def _recording(kind, collective):
    def record(comm, data, *args, algorithm="ring", codec=None, **kwargs):
        wire = None if codec is None else codec.wire_bytes_per_element
        _CALLS.append((comm.rank, kind, algorithm, np.asarray(data).size, wire))
        return collective(comm, data, *args, algorithm=algorithm, codec=codec, **kwargs)
    return record


@pytest.fixture
def recorded(monkeypatch):
    _CALLS.clear()
    for kind, name in (
        ("allreduce", "allreduce"),
        ("reduce_scatter", "reduce_scatter"),
        ("allgather", "allgather_flat"),
    ):
        monkeypatch.setattr(
            exchange_module, name, _recording(kind, getattr(exchange_module, name))
        )


def _run_live(comm):
    ran = {}
    for sharding, algorithm, codec in LIVE:
        knobs = dict(fusion_threshold_bytes=THRESHOLD, pipeline_chunks=2, compression=codec)
        before = len(_CALLS)
        gradient = np.full(NUM_ELEMENTS, comm.rank + 1.0)
        if sharding == "zero1":
            try:
                exchange = ShardedExchange(comm, algorithm=algorithm, **knobs)
            except ValueError as exc:  # the schedule's refusal, on every rank
                ran[sharding, algorithm, codec] = str(exc)
                continue
            model = Module()
            model.add_parameter("theta", np.zeros(NUM_ELEMENTS))
            exchange.exchange_update(gradient, model, SGD(model, 0.1))
        else:
            SynchronousExchange(comm, algorithm=algorithm, **knobs).exchange(gradient)
        ran[sharding, algorithm, codec] = [
            call[1:] for call in _CALLS[before:] if call[0] == comm.rank
        ]
    return ran


def _priced(hosts, sharding, algorithm, codec):
    schedule = exchange_schedule(
        hosts, "sync", algorithm, sharding, CODECS[codec or "none"], THRESHOLD, 2
    )
    buckets = schedule.cut(NUM_ELEMENTS).buckets
    return [
        (c.kind, c.algorithm, bucket.num_elements, c.wire)
        for c in schedule.collectives
        for bucket in buckets
    ]


def _check(ranks, hosts):
    for ran in ranks:
        for case, calls in ran.items():
            if isinstance(calls, str):
                with pytest.raises(ValueError):
                    _priced(hosts, *case)
                continue
            assert calls == _priced(hosts, *case), case


def test_thread_exchanges_run_the_priced_schedule(recorded):
    ranks = launch(_run_live, 4, backend="thread")
    _check(ranks, HostTopology.single_host(4))
    assert not any(isinstance(calls, str) for ran in ranks for calls in ran.values())


def test_hier_exchanges_run_the_priced_schedule(recorded, two_hosts):
    ranks = launch(_run_live, 4, backend="hier")
    _check(ranks, HostTopology.from_hosts((2, 2)))
    refused = {case for case, calls in ranks[0].items() if isinstance(calls, str)}
    assert refused == {("zero1", name, "fp16") for name in ("recursive_doubling", "ring")}
