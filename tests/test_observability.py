"""Observability stack: flight recorder, metrics, Chrome trace, collection.

Covers the tentpole pieces end to end: ring overflow / drop accounting,
span nesting, the Chrome trace-event JSON schema round-trip, clock-offset
alignment across two real processes, and the cross-rank metrics merge
over the thread/process/shm transports.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.backend import available_backends, launch
from repro.obs import recorder as rec_mod
from repro.obs.collect import (
    estimate_clock_offsets,
    gather_traces,
    telemetry_round_trip,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    merge_snapshots,
    straggler_attribution,
)
from repro.obs.recorder import FlightRecorder, bind, current
from repro.obs.trace import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

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
    def test_counter_rejects_negative_increment(self):
        c = Counter()
        c.inc(2.5)
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)
        assert c.value == 2.5

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(4)
        g.set(2)
        assert g.value == 2.0

    def test_registry_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")
        assert reg.counter("x") is reg.counter("x")

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

    def test_merge_snapshots_across_ranks(self, rng):
        snaps = []
        pooled = []
        for rank in range(3):
            reg = MetricsRegistry()
            reg.counter("steps").inc(10 + rank)
            reg.gauge("num-active").set(rank)
            lat = rng.exponential(2e-3, size=1_000)
            reg.histogram("latency-s").extend(lat)
            pooled.append(lat)
            snaps.append(reg.snapshot())
        merged = merge_snapshots(snaps)
        assert merged["steps"]["value"] == 33
        assert merged["num-active"]["value"] == 2
        hist = merged["latency-s"]
        exact = float(np.percentile(np.concatenate(pooled), 50))
        assert abs(hist["p50"] - exact) / exact < 0.01
        assert hist["count"] == 3_000

    def test_merge_snapshots_type_conflict(self):
        with pytest.raises(TypeError, match="conflicting types"):
            merge_snapshots([
                {"x": {"type": "counter", "value": 1.0}},
                {"x": {"type": "gauge", "value": 1.0}},
            ])

    def test_straggler_attribution_shares_sum_to_one(self):
        steps = [
            [{"compute_s": 1.0, "wait_s": 0.5, "exchange_s": 0.7}] * 4,
            [{"compute_s": 2.0, "wait_s": 0.1, "exchange_s": 0.1}] * 4,
        ]
        report = straggler_attribution(steps)
        assert len(report) == 2
        for record in report:
            total = (
                record["compute_share"]
                + record["wait_share"]
                + record["wire_share"]
            )
            assert total == pytest.approx(1.0)
        # Rank 1 computes more and waits less than rank 0.
        assert report[1]["compute_share"] > report[0]["compute_share"]
        assert report[1]["wait_share"] < report[0]["wait_share"]

    def test_straggler_attribution_windows(self):
        steps = [[{"compute_s": 1.0, "wait_s": 0.0, "exchange_s": 0.0}] * 6]
        report = straggler_attribution(steps, window=2)
        assert [r["window"] for r in report] == [0, 1, 2]
        assert all(r["steps"] == 2 for r in report)


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
            {"peer": 1, "tag": tags.barrier_tag(0, 0), "nbytes": 8},
        )
        trace = to_chrome_trace([rec.dump()])
        send = [e for e in trace["traceEvents"] if e.get("name") == "send"][0]
        assert send["args"]["region"] == "barrier"


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
        _skip_if_unavailable(backend)
        size = 3

        def fn(comm):
            reg = MetricsRegistry()
            reg.counter("steps").inc(comm.rank + 1)
            reg.gauge("rank").set(comm.rank)
            reg.histogram("wait-s").extend([1e-3 * (comm.rank + 1)] * 10)
            collected = gather_traces(comm, reg.snapshot(), rounds=2)
            if collected is None:
                return None
            snapshots, offsets = collected
            assert sorted(offsets) == list(range(comm.size))
            return merge_snapshots(snapshots)

        results = launch(fn, size, backend=backend, timeout=120.0)
        merged = results[0]
        assert merged["steps"]["value"] == 6.0
        assert merged["rank"]["value"] == 2.0
        assert merged["wait-s"]["count"] == 30
        # Bucket midpoints of 1/2/3 ms: the median is the 2 ms bucket.
        assert merged["wait-s"]["p50"] == pytest.approx(2e-3, rel=0.01)


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
# the traced training run behind `python -m repro trace`
# ---------------------------------------------------------------------------
class TestTraceCommand:
    def test_traced_run_thread_backend(self, tmp_path):
        from repro.obs.tracecmd import TraceConfig, format_summary, run_trace

        out = tmp_path / "trace.json"
        summary = run_trace(
            TraceConfig(world_size=2, steps=3, fusion_buckets=2, capacity=4096),
            backend="thread",
            out=str(out),
        )
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        pids = sorted({e["pid"] for e in events if e["ph"] != "M"})
        assert pids == [0, 1]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"compute", "exchange", "update", "bucket-wait", "send", "recv"} <= names
        assert {e["pid"] for e in events if e["ph"] == "X" and e["cat"] == "nn"} == {0, 1}
        assert any(e["ph"] == "s" for e in events)
        assert any(e["ph"] == "f" for e in events)
        assert summary["metrics"]["steps"]["value"] == 6.0
        assert len(summary["straggler"]) == 2
        assert "trace report" in format_summary(summary)

    def test_traced_run_carries_the_transport_counters(self, tmp_path):
        from repro.obs.tracecmd import TraceConfig, run_trace

        _skip_if_unavailable("process")
        out = tmp_path / "trace.json"
        run_trace(TraceConfig(world_size=2, steps=3), backend="process", out=str(out))
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

    def test_trace_cli_entrypoint(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "cli-trace.json"
        code = main([
            "trace", "--backend", "thread", "--world-size", "2",
            "--steps", "2", "--out", str(out),
        ])
        assert code == 0
        assert "trace report" in capsys.readouterr().out
        assert validate_chrome_trace(json.loads(out.read_text())) == []

    def test_recorder_capacity_truncation_is_reported(self, tmp_path):
        from repro.obs.tracecmd import TraceConfig, run_trace

        out = tmp_path / "tiny.json"
        summary = run_trace(
            TraceConfig(world_size=2, steps=3, capacity=32),
            backend="thread",
            out=str(out),
        )
        # A 32-event ring cannot hold a 3-step traced run: the exporter
        # must surface the drop counts instead of silently truncating.
        assert sum(summary["dropped_events"].values()) > 0


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
