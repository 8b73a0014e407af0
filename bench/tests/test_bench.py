"""The benchmark's pure functions: estimators, span arithmetic, counts, manifest."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import manifest, results, sentinel, stats  # noqa: E402
from bench.spans import CountingComm, SpanRecorder  # noqa: E402


class TestEstimators:
    def test_percentile_interpolates_between_ranks(self):
        assert stats.median([3.0, 1.0, 2.0]) == 2.0
        assert stats.median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert stats.percentile([10.0, 20.0, 30.0, 40.0, 50.0], 75.0) == 40.0
        assert stats.percentile([5.0], 99.0) == 5.0
        with pytest.raises(ValueError):
            stats.percentile([], 50.0)

    def test_summary_carries_quartiles_and_sample_count(self):
        summary = stats.summarise([float(v) for v in range(1, 11)])
        assert (summary["q1"], summary["median"], summary["q3"], summary["n"]) == (2.75, 5.5, 8.25, 10)
        assert stats.summarise([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}


class TestTimeToTarget:
    clock = [0.0, 1.0, 2.0, 3.0]

    def test_crossing_inside_the_first_timed_epoch(self):
        assert stats.time_to_target(self.clock, [2.0, 1.0, 0.5, 0.4], 1.5) == pytest.approx(0.5)

    def test_later_crossing_is_interpolated(self):
        assert stats.time_to_target(self.clock, [2.0, 1.0, 0.5, 0.4], 0.6) == pytest.approx(1.8)

    def test_never_reached(self):
        assert stats.time_to_target(self.clock, [2.0, 1.5, 1.2, 1.1], 1.0) is None

    def test_exact_hit_lands_on_the_epoch_end(self):
        assert stats.time_to_target(self.clock, [2.0, 1.5, 1.0, 0.9], 1.0) == 2.0

    def test_end_to_end_metrics_start_the_clock_after_epoch_zero(self):
        raw = {"epoch_walls": [9.0, 2.0, 2.0, 2.0], "eval_losses": [2.0, 1.0, 0.5, 0.4],
               "peak_rss_mb": 100.0}
        m = results.end_to_end_metrics(raw, [3.0, 1.0, 2.0], steps_per_epoch=56, target_loss=0.75)
        assert m["setup_s"] == 2.0
        assert m["steps_per_s"] == 28.0
        assert m["time_to_target_s"] == pytest.approx(3.0)
        assert m["final_loss"] == 0.4
        assert set(m) == {metric.name for metric in manifest.END_TO_END}
        never = results.end_to_end_metrics(raw, [1.0], steps_per_epoch=56, target_loss=0.1)
        assert never["time_to_target_s"] == 6.0 and not results.reached_target(raw, 0.1)


class TestHostSpeed:
    def test_epoch_slowdown_is_the_rank_mean_of_step_medians(self):
        quiet, slow = sentinel.REFERENCE_MS / 1e3, 2 * sentinel.REFERENCE_MS / 1e3
        durations = [[quiet, quiet, 9.0, slow, slow, slow],   # rank 0: one outlier step
                     [quiet, quiet, quiet, quiet, quiet, slow]]
        assert sentinel.epoch_slowdowns(durations, 3) == pytest.approx([1.0, 1.5])

    def test_timed_epochs_are_stated_at_the_quiet_hosts_speed(self):
        raw = {"epoch_walls": [9.0, 2.0, 3.0, 4.0], "eval_losses": [2.0, 1.0, 0.5, 0.4],
               "peak_rss_mb": 100.0, "host_slowdowns": [3.0, 1.0, 1.5, 2.0]}
        assert results.timed_epochs(raw) == [2.0, 2.0, 2.0]
        assert results.end_to_end_metrics(raw, [1.0], 56, 0.75)["steps_per_s"] == 28.0
        raw["host_slowdowns"] = None  # a run without a sentinel keeps its wall clock
        assert results.timed_epochs(raw) == [2.0, 3.0, 4.0]


class TestSpans:
    def test_self_time_is_duration_minus_child_cover(self):
        spans = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},   # overlaps span 1
            {"id": 3, "parent": 0, "start": 9.0, "end": 12.0},  # clipped at 10
            {"id": 4, "parent": 1, "start": 1.5, "end": 2.0},
        ]
        self_times = stats.span_self_times(spans)
        assert self_times[0] == pytest.approx(10.0 - (5.0 + 1.0))
        assert self_times[1] == pytest.approx(2.5)
        assert self_times[2] == pytest.approx(3.0)
        assert self_times[4] == pytest.approx(0.5)

    def test_recorder_links_children_to_the_open_span(self):
        rec = SpanRecorder(rank=3)
        with rec.span("step", step=7) as outer:
            with rec.span("nn.fwd_bwd", step=7) as inner:
                pass
        assert inner["parent"] == outer["id"] and outer["parent"] is None
        assert outer["rank"] == 3 and outer["step"] == 7
        assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
        assert len(rec.durations("step", range(7, 8))) == 1
        assert rec.durations("step", range(0, 7)) == []


class _FakeComm:
    rank, size = 0, 2

    def __init__(self):
        self.sent = []

    def send(self, data, dest, tag=0):
        self.sent.append((dest, tag))

    def isend(self, data, dest, tag=0):
        self.sent.append((dest, tag))

    def dup(self, channel=None):
        return self


def test_counting_proxy_totals_a_hand_made_send_sequence():
    inner = _FakeComm()
    comm = CountingComm(inner)
    comm.send(np.zeros(10), 1, tag=5)                              # 80 bytes
    comm.send((3, 7, np.zeros(4, dtype=np.float32)), 1)            # 16 bytes
    comm.isend(("barrier", 0, 1), 1)                               # metadata only
    comm.dup("lib").send([np.zeros(2), np.zeros(3)], 1)            # 40 bytes, shared counters
    assert comm.snapshot() == {"sends": 4, "bytes": 136}
    assert inner.sent[0] == (1, 5) and len(inner.sent) == 4
    assert comm.size == 2  # everything else passes through


class TestManifest:
    def test_declared_manifest_fits_the_schema(self):
        assert manifest.validate(manifest.expected_manifest()) == []

    def test_committed_manifest_is_the_declared_one(self):
        committed = json.loads(manifest.MANIFEST_PATH.read_text())
        assert committed == manifest.expected_manifest()
        assert "claim" not in committed  # the schema has no such field: nothing is claimed

    def test_schema_violations_are_reported(self):
        bad = manifest.expected_manifest()
        bad["workloads"] = bad["workloads"][:1]
        bad["end_to_end"] = [m for m in bad["end_to_end"] if m["name"] != "setup_s"]
        bad["per_layer"][0]["name"] = "has space"
        bad["end_to_end"][0]["bound"] = 0.5
        text = "\n".join(manifest.validate(bad))
        for fragment in ("2 to 8", "setup_s", "has space", "bound"):
            assert fragment in text
        assert manifest.validate({**manifest.expected_manifest(), "claim": None})

    def test_every_per_layer_name_is_emitted_by_the_layer_run(self):
        source = (ROOT / "bench" / "layers.py").read_text() + (ROOT / "bench" / "worker.py").read_text()
        missing = [m.name for m in manifest.PER_LAYER if f'"{m.name}"' not in source]
        assert missing == []


class TestOutputChecks:
    raw = {"eval_losses": [2.0, 1.0], "model_hashes": ["a", "a"], "mean_num_active": 2.6}

    def test_synchronous_run_must_match_its_reference_and_agree_on_the_model(self):
        assert results.check_run("w", True, 4, self.raw, reference=1.0 + 5e-7) == []
        assert results.check_run("w", True, 4, self.raw, reference=1.001)
        assert results.check_run("w", True, 4, {**self.raw, "model_hashes": ["a", "b"]}, None)
        assert results.check_run("w", True, 4, {**self.raw, "eval_losses": [2.0, float("nan")]}, None)

    def test_majority_run_needs_half_the_ranks_fresh_and_a_close_loss(self):
        assert results.check_run("w", False, 4, self.raw, None, sync_reference=0.95) == []
        assert results.check_run("w", False, 4, self.raw, None, sync_reference=0.9)
        assert results.check_run("w", False, 4, {**self.raw, "mean_num_active": 1.9}, None)

    def test_pair_checks(self):
        assert results.check_pairs({"bulk_dense": 0.5, "bulk_zero1": 0.5, "skew_sync": 1.0,
                                    "skew_majority": 1.09}) == []
        assert len(results.check_pairs({"bulk_dense": 0.5, "bulk_zero1": 0.5000001,
                                        "skew_sync": 1.0, "skew_majority": 1.2})) == 2
        assert results.check_pairs({"bulk_dense": 0.5}) == []
