"""Observability stack: flight recorder, metrics, Chrome trace, collection.

Covers the tentpole pieces end to end: ring overflow / drop accounting,
span nesting, the Chrome trace-event JSON schema round-trip, clock-offset
alignment across two real processes, the cross-rank histogram merge
over the thread/process/shm transports, and the tracing session: every
world launched inside it becomes tracks of one trace, on every CLI row,
with the report read back from the trace it writes.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.schedule_verifier import telemetry_round_trip
from repro.comm.backend import WorldError, available_backends, launch
from repro.comm.communicator import CommTimeoutError
from repro import obs
from repro.obs import recorder as rec_mod
from repro.obs.collect import estimate_clock_offsets, gather_traces
from repro.obs.metrics import LogHistogram, straggler_attribution
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder, bind, current
from repro.obs.trace import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracing import format_summary, trace_report

MERGE_BACKENDS = ["thread", "process", "shm"]


def _skip_if_unavailable(name):
    if name not in available_backends():
        from repro.comm.backend import backend_unavailable_reason

        pytest.skip(
            f"backend {name!r} unavailable: {backend_unavailable_reason(name)}"
        )


@pytest.fixture(autouse=True)
def _unbound_recorder():
    """Every test starts and ends with no recorder on the main thread."""
    bind(None)
    yield
    bind(None)


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_overflow_drops_oldest_and_counts(self):
        rec = FlightRecorder(rank=0, capacity=8)
        for i in range(20):
            rec.instant(f"ev{i}")
        assert len(rec) == 8
        assert rec.total_recorded == 20
        assert rec.dropped == 12
        names = [ev[1] for ev in rec.events()]
        # Oldest-first, and exactly the 8 newest survive.
        assert names == [f"ev{i}" for i in range(12, 20)]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_span_nesting_timestamps_contained(self):
        rec = bind(FlightRecorder(rank=0))
        with rec_mod.span("outer", "test"):
            with rec_mod.span("inner", "test"):
                pass
        events = {ev[1]: ev for ev in rec.events()}
        assert set(events) == {"outer", "inner"}
        _, _, _, o_ts, o_dur, _, _ = events["outer"]
        _, _, _, i_ts, i_dur, _, _ = events["inner"]
        assert o_ts <= i_ts
        assert i_ts + i_dur <= o_ts + o_dur
        # The inner span exits first, so it lands in the ring first.
        assert [ev[1] for ev in rec.events()] == ["inner", "outer"]

    def test_module_helpers_are_noops_when_unbound(self):
        assert current() is None
        # No recorder: the shared null span is returned, nothing recorded.
        s1 = rec_mod.span("a")
        s2 = rec_mod.span("b")
        assert s1 is s2
        with s1:
            rec_mod.instant("nothing")
            rec_mod.counter("nothing", 1.0)

    def test_binding_is_thread_local(self):
        rec = bind(FlightRecorder(rank=3))
        seen = {}

        def worker():
            seen["other-thread"] = current()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["other-thread"] is None
        assert current() is rec

    def test_dump_round_trips_through_json(self):
        rec = FlightRecorder(rank=1, capacity=16)
        with rec.span("phase", "cat", nbytes=128):
            rec.instant("tick", "cat", round=2)
        rec.counter("depth", 3)
        dump = rec.dump()
        restored = json.loads(json.dumps(dump))
        assert restored["rank"] == 1
        assert restored["dropped"] == 0
        assert len(restored["events"]) == 3


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    @pytest.mark.parametrize("p", [50, 99])
    def test_histogram_percentiles_within_1pct(self, p, rng):
        # Latency-shaped data: lognormal around a few milliseconds.
        sample = np.exp(rng.normal(np.log(3e-3), 0.8, size=20_000))
        hist = LogHistogram()
        hist.extend(sample)
        exact = float(np.percentile(sample, p))
        approx = hist.percentile(p)
        assert abs(approx - exact) / exact < 0.01
        assert hist.count == sample.size
        assert hist.mean == pytest.approx(float(sample.mean()))

    def test_histogram_rejects_bad_values(self):
        hist = LogHistogram()
        with pytest.raises(ValueError):
            hist.push(-1.0)
        with pytest.raises(ValueError):
            hist.push(float("nan"))
        with pytest.raises(ValueError, match="growth"):
            LogHistogram(growth=1.0)

    def test_histogram_merge_matches_pooled_percentiles(self, rng):
        a, b = LogHistogram(), LogHistogram()
        xs = np.exp(rng.normal(0.0, 1.0, size=8_000))
        ys = np.exp(rng.normal(1.0, 0.5, size=8_000))
        a.extend(xs)
        b.extend(ys)
        a.merge(b)
        pooled = np.concatenate([xs, ys])
        assert a.count == pooled.size
        for p in (50, 99):
            exact = float(np.percentile(pooled, p))
            assert abs(a.percentile(p) - exact) / exact < 0.01

    @given(
        values=st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=200
        ),
        cuts=st.lists(st.integers(0, 200), max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_merged_parts_equal_the_whole_stream(self, values, cuts):
        whole = LogHistogram()
        whole.extend(values)
        bounds = sorted({min(c, len(values)) for c in cuts} | {0, len(values)})
        merged = LogHistogram()
        for lo, hi in zip(bounds, bounds[1:]):
            part = LogHistogram()
            part.extend(values[lo:hi])
            merged.merge(part)
        assert merged.to_dict()["buckets"] == whole.to_dict()["buckets"]
        assert (merged.count, merged.min, merged.max) == (
            whole.count, whole.min, whole.max,
        )
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)

    def test_histogram_merge_rejects_another_layout(self):
        with pytest.raises(ValueError, match="growth 1.015 vs 1.02"):
            LogHistogram().merge(LogHistogram(growth=1.02))
        with pytest.raises(ValueError, match="min_value 1e-09 vs 1e-06"):
            LogHistogram().merge(LogHistogram(min_value=1e-6))

    def test_straggler_attribution_shares_sum_to_one(self):
        dumps = []
        # Per step, in microseconds: compute, bucket collective, exchange.
        for rank, (compute, bucket, exchange) in enumerate([(1000, 500, 700), (2000, 100, 100)]):
            rec = FlightRecorder(rank=rank)
            for step in range(4):
                rec._append("X", "compute", "step", 0, compute * 1000, {"step": step})
                rec._append("X", "bucket-wait", "exchange", 0, bucket * 1000, {"bucket": 0})
                rec._append("X", "exchange", "step", 0, exchange * 1000, {"step": step})
            # Neither a step nor a bucket span: not attributed.
            rec._append("X", "rd-exchange", "collective", 0, 10**6, None)
            rec._append("X", "shard-update", "exchange", 0, 10**6, None)
            dumps.append(rec.dump())
        report = straggler_attribution(to_chrome_trace(dumps))
        assert [(r["rank"], r["steps"]) for r in report] == [(0, 4), (1, 4)]
        for record in report:
            total = (
                record["compute_share"]
                + record["collective_share"]
                + record["overhead_share"]
            )
            assert total == pytest.approx(1.0)
        assert report[0]["collective_s"] == pytest.approx(4 * 500e-6)
        assert report[0]["overhead_s"] == pytest.approx(4 * 200e-6)
        assert report[1]["overhead_s"] == pytest.approx(0.0)
        # Rank 1 computes more and spends less in the collective than rank 0.
        assert report[1]["compute_share"] > report[0]["compute_share"]
        assert report[1]["collective_share"] < report[0]["collective_share"]


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------
def _recorded_rank(rank: int) -> dict:
    rec = FlightRecorder(rank=rank, capacity=64)
    with rec.span("compute", "step", step=0):
        pass
    rec.instant("partial-activation", "partial", round=1)
    rec.counter("queue-depth", 5, cat="serving")
    rec.flow_out(1234)
    rec.flow_in(1234)
    return rec.dump()


class TestChromeTrace:
    def test_schema_round_trip(self, tmp_path):
        dumps = [_recorded_rank(0), _recorded_rank(1)]
        trace = to_chrome_trace(dumps, clock_offsets_ns={0: 0, 1: -500})
        assert validate_chrome_trace(trace) == []
        path = tmp_path / "trace.json"
        write_chrome_trace(path, trace)
        restored = json.loads(path.read_text())
        events = restored["traceEvents"]
        assert {e["ph"] for e in events} >= {"X", "i", "C", "s", "f", "M"}
        assert sorted({e["pid"] for e in events if e["ph"] != "M"}) == [0, 1]
        assert all(e["ts"] >= 0 for e in events if e["ph"] != "M")
        assert restored["otherData"]["clock_offsets_ns"] == {"0": 0, "1": -500}

    def test_clock_offsets_shift_timestamps(self):
        dumps = [_recorded_rank(0), _recorded_rank(1)]
        base = to_chrome_trace(dumps)
        shifted = to_chrome_trace(dumps, clock_offsets_ns={0: 0, 1: 5_000_000})
        def first_x(trace, pid):
            return min(
                e["ts"] for e in trace["traceEvents"]
                if e["ph"] == "X" and e["pid"] == pid
            )
        # +5 ms on rank 1's clock moves its events 5000 us later relative
        # to rank 0's (modulo the common rebase to the earliest event).
        delta_base = first_x(base, 1) - first_x(base, 0)
        delta_shift = first_x(shifted, 1) - first_x(shifted, 0)
        assert delta_shift - delta_base == pytest.approx(5_000.0, abs=1.0)

    def test_validator_rejects_malformed_events(self):
        trace = to_chrome_trace([_recorded_rank(0)])
        trace["traceEvents"].append({"ph": "X", "pid": 0})  # no name/ts/dur
        errors = validate_chrome_trace(trace)
        assert errors

    def test_write_refuses_invalid_trace(self, tmp_path):
        with pytest.raises(ValueError):
            write_chrome_trace(
                tmp_path / "bad.json",
                {"traceEvents": [{"ph": "?"}], "otherData": {}},
            )

    def test_tag_regions_enriched_at_export(self):
        from repro.comm import tags

        rec = FlightRecorder(rank=0)
        rec._append(
            "X", "send", "comm", 0, 10,
            {"peer": 1, "tag": tags.telemetry_buffer_tag(1), "nbytes": 8},
        )
        trace = to_chrome_trace([rec.dump()])
        send = [e for e in trace["traceEvents"] if e.get("name") == "send"][0]
        assert send["args"]["region"] == "telemetry"


# ---------------------------------------------------------------------------
# cross-rank collection over the fabric
# ---------------------------------------------------------------------------
class TestCollection:
    def test_clock_offsets_across_two_processes(self):
        _skip_if_unavailable("process")

        def fn(comm):
            return estimate_clock_offsets(comm, rounds=4)

        results = launch(fn, 2, backend="process", timeout=120.0)
        offsets = results[0]
        assert results[1] is None
        assert sorted(offsets) == [0, 1]
        assert offsets[0] == 0
        # Same host, same monotonic clock domain: the midpoint estimate
        # must land within a generous 50 ms even on a loaded CI box.
        assert abs(offsets[1]) < 50_000_000

    def test_round_trip_rejects_bad_rounds(self):
        from repro.comm import tags

        class _Comm:
            rank, size = 0, 2

        with pytest.raises(ValueError, match="rounds"):
            estimate_clock_offsets(_Comm(), rounds=0)
        with pytest.raises(ValueError, match="rounds"):
            estimate_clock_offsets(
                _Comm(), rounds=tags.TELEMETRY_SYNC_MAX_ROUNDS + 1
            )

    @pytest.mark.parametrize("backend", MERGE_BACKENDS)
    @pytest.mark.parametrize("size", [2, 4])
    def test_telemetry_round_trip(self, backend, size):
        _skip_if_unavailable(backend)
        results = launch(
            telemetry_round_trip, size, backend=backend, timeout=120.0
        )
        assert results[0] == size * (size + 1) // 2
        assert all(r is None for r in results[1:])

    @pytest.mark.parametrize("backend", MERGE_BACKENDS)
    def test_metrics_merge_across_ranks(self, backend):
        """Per-rank histograms shipped as ``to_dict`` merge on rank 0."""
        _skip_if_unavailable(backend)
        size = 3

        def fn(comm):
            hist = LogHistogram()
            hist.extend([1e-3 * (comm.rank + 1)] * 10)
            collected = gather_traces(comm, hist.to_dict(), rounds=2)
            if collected is None:
                return None
            shipped, offsets = collected
            assert sorted(offsets) == list(range(comm.size))
            merged = LogHistogram()
            for data in shipped:
                merged.merge(LogHistogram.from_dict(data))
            return merged.to_dict(), merged.quantile(0.50)

        results = launch(fn, size, backend=backend, timeout=120.0)
        merged, p50 = results[0]
        assert merged["count"] == 30
        assert (merged["min"], merged["max"]) == (1e-3, 3e-3)
        # Bucket midpoints of 1/2/3 ms: the median is the 2 ms bucket.
        assert p50 == pytest.approx(2e-3, rel=0.01)


# ---------------------------------------------------------------------------
# the compute slice: one span per layer and direction
# ---------------------------------------------------------------------------
def test_sequential_records_a_span_per_layer_and_direction():
    from repro.nn import Dense, ReLU, Sequential

    net = Sequential(Dense(6, 4, seed=0), ReLU(), Dense(4, 2, seed=1)).input_is_data()
    out = net.forward(np.ones((3, 6)))  # unbound: nothing to record into
    rec = bind(FlightRecorder(rank=0))
    net.forward(np.ones((3, 6)))
    assert net.backward(np.ones_like(out)) is None
    kinds = {"layer0": "Dense", "layer1": "ReLU", "layer2": "Dense"}
    assert [(ev[1], ev[2], ev[5]) for ev in rec.events()] == [
        (name, "nn", {"layer": layer, "kind": kinds[layer]})
        for name, order in (("layer-fwd", sorted(kinds)), ("layer-bwd", sorted(kinds, reverse=True)))
        for layer in order
    ]


# ---------------------------------------------------------------------------
# the comm slice: traced sends carry their payload bytes
# ---------------------------------------------------------------------------
def _traced_rabenseifner_send_bytes(comm):
    from repro.collectives.sync import allreduce

    rec = bind(FlightRecorder(rank=comm.rank))
    try:
        allreduce(comm, np.ones(8), algorithm="rabenseifner")
    finally:
        bind(None)
    return [ev[5]["nbytes"] for ev in rec.events() if ev[0] == "X" and ev[1] == "send"]


def test_traced_tuple_sends_report_their_array_bytes():
    """Halving sends 4 then 2 of 8 float64s; the doubling allgather sends
    them back as ``(lo, hi, array)`` tuples, which count their array."""
    for sent in launch(_traced_rabenseifner_send_bytes, 4, backend="thread"):
        assert sent == [32, 16, 16, 32]


def test_payload_nbytes_sums_nested_tuples():
    payload = (0, 4, np.ones(4), (np.ones(2, dtype=np.float32), "meta"))
    assert rec_mod.payload_nbytes(payload) == 32 + 8
    assert rec_mod.payload_nbytes(np.ones(3)) == 24
    assert rec_mod.payload_nbytes(("barrier", 0, 1)) == 0


# ---------------------------------------------------------------------------
# what a receive records: polls, deadline misses, short timeouts
# ---------------------------------------------------------------------------
def _polled_send(comm):
    """Rank 0 sends rank 1 an array, which rank 1 takes with ``poll``."""
    if comm.rank == 0:
        comm.send(np.ones(3), 1, tag=7)
        return None
    while (payload := comm.poll(source=0, tag=7)) is None:
        time.sleep(0.001)
    return payload.size


def test_a_polled_receive_is_a_recv_span_with_its_flow(tmp_path):
    with obs.session(str(tmp_path / "poll.json")):
        assert launch(_polled_send, 2, backend="thread") == [None, 3]
    trace = json.loads((tmp_path / "poll.json").read_text())
    polled = [
        e["args"] for e in trace["traceEvents"]
        if e["ph"] == "X" and e["name"] == "recv" and e["pid"] == 1
        and e["args"]["tag"] == 7
    ]
    assert polled == [
        {"peer": 0, "tag": 7, "nbytes": 24, "channel": "app", "elements": 3}
    ]
    flows = {
        ph: Counter(e["id"] for e in trace["traceEvents"] if e["ph"] == ph)
        for ph in "sf"
    }
    assert flows["s"] == flows["f"] and flows["s"]


def _starve_after_a_short_timeout(comm, recorders):
    """Rank 1's short-timeout receive expires, then its receive with the
    world's deadline runs it out."""
    recorders[comm.rank] = bind(FlightRecorder(rank=comm.rank))
    if comm.rank == 1:
        with pytest.raises(CommTimeoutError):
            comm.recv(source=0, tag=6, timeout=0.01)
        comm.recv(source=0, tag=7)


def test_a_deadline_miss_is_one_recv_timeout_span_and_still_raises():
    recorders = {}
    with pytest.raises(WorldError) as failed:
        launch(
            _starve_after_a_short_timeout, 2, recorders, backend="thread",
            default_recv_timeout=0.2,
        )
    assert list(failed.value.failures) == [1]
    assert isinstance(failed.value.failures[1], CommTimeoutError)
    spans = [ev for ev in recorders[1].events() if ev[0] == "X" and ev[2] == "comm"]
    assert [(ev[1], ev[5]) for ev in spans] == [
        ("recv-timeout", {"peer": 0, "tag": 7, "channel": "app"})
    ]
    assert spans[0][4] >= 0.19e9


def _miss_the_deadline(comm):
    """Rank 1 runs out the world's deadline, then tells rank 0, which waits
    on a timeout of its own."""
    if comm.rank == 1:
        with pytest.raises(CommTimeoutError):
            comm.recv(source=0, tag=7)
        comm.send("missed", 0, tag=8)
        return None
    return comm.recv(source=1, tag=8, timeout=30.0)


def test_the_report_counts_receive_timeouts_per_track(tmp_path):
    out = tmp_path / "missed.json"
    with obs.session(str(out)) as traced:
        assert launch(
            _miss_the_deadline, 2, backend="thread", default_recv_timeout=0.5
        ) == ["missed", None]
    assert traced.report["recv_timeouts"] == {1: 1}
    assert "timeouts   : 1 receive(s) ran out the world's deadline" in format_summary(
        traced.report, str(out)
    )
    assert trace_report(json.loads(out.read_text()))["recv_timeouts"] == {1: 1}


# ---------------------------------------------------------------------------
# tracing is a switch: `obs.session` traces every world launched inside it
# ---------------------------------------------------------------------------
def _traced_train(path, steps, capacity=DEFAULT_CAPACITY, **fields):
    """``repro train``'s run of ``steps`` steps under a session into ``path``:
    the session and the run's :class:`TrainingResult`."""
    from repro.cli import PRESET, train_preset

    with obs.session(str(path), capacity) as traced:
        result = train_preset(replace(PRESET, **fields), steps)
    return traced, result


def _tracks(trace):
    """``{pid: track name}`` of a Chrome trace."""
    return {
        e["pid"]: e["args"]["name"] for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }


def _ping_rank_sum(comm, offset):
    """Rank 0 sends rank 1 an array on a user-space tag; every rank returns
    its rank plus ``offset``."""
    if comm.rank == 0:
        comm.send(np.ones(4), 1, tag=7)
    elif comm.rank == 1:
        comm.recv(source=0, tag=7)
    return comm.rank + offset


class _LaunchSpy:
    """Wraps ``launch`` in a module, recording each world's function and size."""

    def __init__(self, monkeypatch, module):
        self.worlds, self._launch = [], module.launch
        monkeypatch.setattr(module, "launch", self)

    def __call__(self, fn, world_size, *args, **kwargs):
        self.worlds.append((fn.__name__, world_size))
        return self._launch(fn, world_size, *args, **kwargs)


class TestTraceSession:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_tracing_leaves_the_models_unchanged(self, tmp_path, backend):
        from repro.cli import PRESET, train_preset

        _skip_if_unavailable(backend)
        config = replace(PRESET, world_size=2, comm_backend=backend, seed=5)
        untraced = train_preset(config, steps=3)
        _, traced = _traced_train(
            tmp_path / "trace.json", steps=3, world_size=2, comm_backend=backend, seed=5
        )
        hashes = [[s.final_model_hash for s in r.rank_summaries] for r in (untraced, traced)]
        assert hashes[0] == hashes[1] and len(set(hashes[0])) == 1

    def test_launch_returns_the_results_and_traces_spawned_ranks(self, tmp_path):
        _skip_if_unavailable("process")
        out = tmp_path / "spawn.json"
        with obs.session(str(out)) as traced:
            results = launch(
                _ping_rank_sum, 2, 10, backend="process",
                backend_opts={"start_method": "spawn"}, timeout=120,
            )
            assert results == [10, 11]
            assert launch(_ping_rank_sum, 3, 0, backend="thread") == [0, 1, 2]
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        assert [w["ranks"] for w in trace["otherData"]["worlds"]] == [2, 3]
        assert sorted(_tracks(trace)) == [0, 1, 2, 3, 4]
        assert _tracks(trace)[4] == "_ping_rank_sum on thread #1 rank 2"
        assert traced.report["worlds"] == trace["otherData"]["worlds"]
        # Rank 0's sends land on rank 1 in each world: their arrows pair up,
        # spawned ranks included (each interpreter salts str hashes anew).
        for first in (0, 2):
            ids = {
                ph: {e["id"] for e in trace["traceEvents"] if e["ph"] == ph and e["pid"] == pid}
                for ph, pid in (("s", first), ("f", first + 1))
            }
            assert ids["s"] & ids["f"]

    def test_one_session_at_a_time(self, tmp_path):
        with obs.session(str(tmp_path / "a.json")):
            with pytest.raises(RuntimeError, match="already active"):
                with obs.session(str(tmp_path / "b.json")):
                    pass
        assert not (tmp_path / "a.json").exists()


# ---------------------------------------------------------------------------
# `repro train`'s run under a session, and `--trace PATH` on every row
# ---------------------------------------------------------------------------
class TestTraceCommand:
    def test_traced_run_thread_backend(self, tmp_path):
        out = tmp_path / "trace.json"
        traced, _ = _traced_train(
            out, steps=3, capacity=4096, world_size=2, comm_backend="thread"
        )
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["worlds"] == [
            {"label": "_rank_main on thread", "first_track": 0, "ranks": 2}
        ]
        assert _tracks(trace) == {
            0: "_rank_main on thread #0 rank 0", 1: "_rank_main on thread #0 rank 1"
        }
        events = trace["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"compute", "exchange", "update", "bucket-wait", "send", "recv"} <= names
        assert {e["pid"] for e in events if e["ph"] == "X" and e["cat"] == "nn"} == {0, 1}
        assert any(e["ph"] == "s" for e in events)
        assert any(e["ph"] == "f" for e in events)
        # The runner's own loop: one update and two buckets per step.
        for rank in (0, 1):
            per_rank = [e["name"] for e in events if e["ph"] == "X" and e["pid"] == rank]
            assert per_rank.count("update") == 3
            assert per_rank.count("bucket-wait") == 6
        report = traced.report
        assert report["exchanges"] == 6
        assert 0 < report["exchange_p50_s"] <= report["exchange_p99_s"]
        assert set(report["optimizer_state_bytes"]) == {0, 1}
        assert report["runs"] == {r: {"mode": "sync", "sharding": "none"} for r in (0, 1)}
        text = format_summary(report, str(out))
        assert "trace report" in text and "collective" in text

    def test_report_is_read_back_from_the_written_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        traced, result = _traced_train(out, steps=2, world_size=2, comm_backend="thread")
        with open(out) as handle:
            assert trace_report(json.load(handle)) == traced.report
        assert traced.report["model_hashes"] == {
            s.rank: s.final_model_hash for s in result.rank_summaries
        }

    @pytest.mark.parametrize(
        "mode, sharding", [("sync", "none"), ("solo", "none"), ("sync", "zero1")]
    )
    def test_shares_split_each_ranks_steps(self, tmp_path, mode, sharding):
        from repro.training.preset import INPUT_DIM
        from repro.nn.models.mlp import MLPClassifier

        traced, _ = _traced_train(
            tmp_path / "trace.json", steps=3, world_size=2, mode=mode,
            sharding=sharding, comm_backend="thread",
        )
        report = traced.report
        assert [r["rank"] for r in report["straggler"]] == [0, 1]
        for record in report["straggler"]:
            assert record["steps"] == 3
            assert record["collective_s"] <= record["exchange_s"]
            total = (
                record["compute_share"]
                + record["collective_share"]
                + record["overhead_share"]
            )
            assert total == pytest.approx(1.0)
        # One float64 of momentum per parameter, or per owned parameter.
        dense = 8 * MLPClassifier(
            INPUT_DIM, hidden_dims=(INPUT_DIM,), num_classes=1
        ).num_parameters()
        for nbytes in report["optimizer_state_bytes"].values():
            if sharding == "zero1":
                assert nbytes < 0.6 * dense
            else:
                assert nbytes == dense

    def test_traced_run_carries_the_transport_counters(self, tmp_path):
        _skip_if_unavailable("process")
        out = tmp_path / "trace.json"
        _traced_train(out, steps=3, world_size=2, comm_backend="process")
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        counters = {
            (e["pid"], e["name"]): e["args"]["value"]
            for e in trace["traceEvents"] if e["ph"] == "C" and e["cat"] == "comm"
        }
        for rank in (0, 1):
            assert counters[rank, "transport.frames_parsed"] > 0
            assert counters[rank, "transport.frames_in_place"] > 0
            assert counters[rank, "transport.departed_peers"] == 0
            for name in ("parks", "send_stalls", "frames_staged"):
                assert (rank, f"transport.{name}") in counters

    def test_recorder_capacity_truncation_is_reported(self, tmp_path):
        traced, _ = _traced_train(
            tmp_path / "tiny.json", steps=3, capacity=32, world_size=2,
            comm_backend="thread",
        )
        # A 32-event ring cannot hold a 3-step traced run: the exporter
        # must surface the drop counts instead of silently truncating.
        assert sum(traced.report["dropped_events"].values()) > 0

    @pytest.mark.parametrize(
        "backend, world_size, flags, collective_span",
        [
            ("thread", 2, [], "bucket-wait"),
            ("thread", 2, ["--sharding", "zero1"], "shard-scatter"),
            ("process", 4, ["--mode", "solo"], "bucket-wait"),
        ],
    )
    def test_train_cli_writes_aligned_rank_tracks(
        self, tmp_path, capsys, backend, world_size, flags, collective_span
    ):
        from repro.cli import main

        _skip_if_unavailable(backend)
        out = tmp_path / "train.json"
        code = main([
            "train", "--backend", backend, "--world-size", str(world_size),
            "--steps", "4", *flags, "--trace", str(out),
        ])
        assert code == 0
        assert "trace report" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        ranks = set(range(world_size))
        assert {e["pid"] for e in events if e["ph"] == "X"} == ranks
        names = {e["name"] for e in events}
        assert {"compute", "exchange", collective_span, "send", "recv"} <= names
        assert {e["pid"] for e in events if e["ph"] == "X" and e["cat"] == "nn"} == ranks
        assert len(trace["otherData"]["clock_offsets_ns"]) == world_size
        if backend == "process":
            # Every rank parsed frames, and each landed in place or was
            # staged.  Which one is timing: a rank whose receive is posted
            # after its peers' segments arrived stages them all, so a
            # per-rank in-place count can read 0 (the P = 2 sync count is
            # test_traced_run_carries_the_transport_counters).
            counters = {
                (e["pid"], e["name"][len("transport."):]): e["args"]["value"]
                for e in events if e["ph"] == "C" and e["name"].startswith("transport.")
            }
            for rank in ranks:
                parsed = counters[rank, "frames_parsed"]
                assert parsed > 0
                assert counters[rank, "frames_in_place"] + counters[
                    rank, "frames_staged"] <= parsed

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("world_size", [1, 2, 4])
    def test_train_cli_prints_the_report_of_the_written_trace(
        self, tmp_path, capsys, backend, world_size
    ):
        from repro.cli import main

        _skip_if_unavailable(backend)
        out = tmp_path / "train.json"
        assert main([
            "train", "--backend", backend, "--world-size", str(world_size),
            "--steps", "2", "--trace", str(out),
        ]) == 0
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        assert sorted(_tracks(trace)) == list(range(world_size))
        report = trace_report(trace)
        printed = capsys.readouterr().out
        assert format_summary(report, str(out)) in printed
        assert "    models     : all ranks agree (r0=" in printed
        label = "in-process" if world_size == 1 else backend
        assert trace["otherData"]["worlds"] == [
            {"label": f"_rank_main on {label}", "first_track": 0, "ranks": world_size}
        ]

    def test_train_cli_checks_the_ranks_end_on_one_model(self, capsys, monkeypatch):
        """The run's final model hash per rank rides in the trace; a
        synchronous run whose replicas diverged exits 1."""
        import repro.training.runner as runner
        from repro.cli import main

        argv = ["train", "--backend", "thread", "--world-size", "2", "--steps", "2"]
        assert main(argv) == 0
        assert "models     : all ranks agree (r0=" in capsys.readouterr().out
        monkeypatch.setattr(runner, "model_hash", lambda model: threading.current_thread().name)
        assert main(argv) == 1
        assert "models     : ranks differ (r0=" in capsys.readouterr().out

    def test_train_cli_runs_quorum_mode(self, capsys):
        from repro.cli import main

        code = main([
            "train", "--backend", "thread", "--world-size", "2", "--steps", "2",
            "--mode", "quorum", "--quorum", "1",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "eager-SGD (quorum=1)" in printed and "trace report" not in printed

    def test_train_cli_rejects_quorum_without_a_quorum(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "quorum.json"
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--backend", "thread", "--world-size", "2",
                "--mode", "quorum", "--trace", str(out),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "quorum" in err and "got None" in err
        assert not out.exists()

    def test_figure_row_traces_every_world(self, tmp_path, capsys, monkeypatch):
        import repro.training.runner as runner
        from repro.cli import main

        spy = _LaunchSpy(monkeypatch, runner)
        out = tmp_path / "fig10.json"
        assert main(["fig10", "--scale", "tiny", "--trace", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        worlds = trace["otherData"]["worlds"]
        assert len(spy.worlds) > 1
        assert [(w["label"].split(" on ")[0], w["ranks"]) for w in worlds] == spy.worlds
        assert sorted(_tracks(trace)) == list(range(sum(p for _, p in spy.worlds)))
        assert {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"} == set(
            _tracks(trace)
        )
        # Every world mints the same flow ids; no arrow may join two worlds.
        world_of = {
            w["first_track"] + r: i for i, w in enumerate(worlds) for r in range(w["ranks"])
        }
        flows = {}
        for e in trace["traceEvents"]:
            if e["ph"] in "sf":
                flows.setdefault(e["id"], set()).add(world_of[e["pid"]])
        assert flows and all(len(w) == 1 for w in flows.values())
        assert f"{len(worlds)} world(s)" in capsys.readouterr().out

    def test_serve_row_traces_every_rank(self, tmp_path, capsys, monkeypatch):
        import repro.serving.server as server
        from repro.cli import main

        spy = _LaunchSpy(monkeypatch, server)
        out = tmp_path / "serve.json"
        assert main([
            "serve", "--backend", "thread", "--replicas", "1", "--train-ranks", "1",
            "--num-requests", "8", "--clients", "2", "--trace", str(out),
        ]) == 0
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        assert spy.worlds == [("_serving_main", 3)]
        assert sorted(_tracks(trace)) == [0, 1, 2]
        assert {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"} == {0, 1, 2}
        assert "trace report" in capsys.readouterr().out

    def test_traced_serve_lists_the_trainers_runs_and_models(self, tmp_path, capsys):
        """A serve world's trainers are the runner's ranks: the trace report
        carries their ``run`` instants and final model hashes."""
        from repro.cli import main

        out = tmp_path / "serve.json"
        assert main([
            "serve", "--backend", "thread", "--replicas", "1", "--train-ranks", "2",
            "--mode", "solo", "--train-steps", "10", "--num-requests", "8",
            "--clients", "2", "--trace", str(out),
        ]) == 0
        report = trace_report(json.loads(out.read_text()))
        assert {pid: run["mode"] for pid, run in report["runs"].items()} == {0: "solo", 1: "solo"}
        assert sorted(report["model_hashes"]) == [0, 1]
        assert "models     : " in capsys.readouterr().out

    def test_row_without_a_world_writes_nothing(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "table1.json"
        assert main(["table1", "--trace", str(out)]) == 0
        assert f"nothing traced: table1 launched no world, {out} not written" in (
            capsys.readouterr().out
        )
        assert not out.exists()


# ---------------------------------------------------------------------------
# serving latency accounting rides the histogram
# ---------------------------------------------------------------------------
class TestServingHistogram:
    @pytest.mark.slow
    def test_serve_report_carries_histogram(self):
        from repro.serving import ServingConfig, Workload, serve

        report = serve(
            ServingConfig(replicas=1, train_ranks=0, comm_backend="thread"),
            Workload(num_requests=12, clients=2),
            timeout=120.0,
        )
        w = report.workload
        assert w["completed"] == 12
        hist = w["latency_histogram"]
        assert hist["type"] == "histogram"
        assert hist["count"] == 12
        restored = LogHistogram.from_dict(hist)
        assert restored.percentile(50) == pytest.approx(
            w["latency_p50_s"], rel=1e-6
        )
        assert w["latency_p50_s"] <= w["latency_p99_s"]
        # The frontend's own accounting carries the histogram too.
        assert report.frontend["latency_histogram"]["count"] == 12
