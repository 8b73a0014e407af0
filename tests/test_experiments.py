"""Tests for the experiment harnesses (one per paper table/figure)."""

import pytest

from repro.experiments import (
    fig2_workload,
    fig3_wmt_runtime,
    fig4_cloud_runtime,
    fig9_microbenchmark,
    fig10_hyperplane,
    fig12_cifar_severe,
    fig13_ucf101_lstm,
    table1_networks,
)
from repro.experiments.report import format_table, ratio_line


class TestReportHelpers:
    def test_format_table_alignment_and_title(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("x", "y")], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [(1, 2)])

    def test_ratio_line(self):
        line = ratio_line("speedup", 1.5, 1.27)
        assert "1.50x" in line and "1.27x" in line


class TestWorkloadFigures:
    def test_fig2_distributions_match_paper_shape(self):
        result = fig2_workload.run(num_videos=4000, seed=0)
        # Length distribution: bounds and median close to the paper.
        assert result.length_summary.min >= 29
        assert result.length_summary.max <= 1776
        assert abs(result.length_summary.median - 167) < 25
        # Runtime distribution: right order of magnitude and long tail.
        assert 150 < result.runtime_summary_ms.min < 600
        assert 2500 < result.runtime_summary_ms.max <= 3500
        assert result.runtime_summary_ms.std > 300
        report = fig2_workload.report(result)
        assert "Fig. 2a" in report and "Fig. 2b" in report

    def test_fig3_runtime_distribution(self):
        result = fig3_wmt_runtime.run(num_sentences=30_000, seed=0)
        assert 120 < result.runtime_summary_ms.min < 300
        assert result.runtime_summary_ms.mean == pytest.approx(475, rel=0.4)
        assert result.runtime_summary_ms.max > 2 * result.runtime_summary_ms.mean
        assert "Fig. 3" in fig3_wmt_runtime.report(result)

    def test_fig4_cloud_distribution(self):
        result = fig4_cloud_runtime.run(num_batches=4000, seed=0)
        assert result.runtime_summary_ms.min >= 399
        assert result.runtime_summary_ms.mean == pytest.approx(454, rel=0.15)
        assert result.runtime_summary_ms.max > 1000
        assert "Fig. 4" in fig4_cloud_runtime.report(result)

    def test_table1_rows(self):
        result = table1_networks.run(scale="small")
        assert len(result.rows) == 4
        tasks = [r.task for r in result.rows]
        assert "UCF101" in tasks and "ImageNet" in tasks
        # The hyperplane MLP parameter count is exact at paper scale.
        paper = table1_networks.run(scale="paper")
        mlp_row = next(r for r in paper.rows if "Hyperplane" in r.task)
        assert mlp_row.repro_parameters == mlp_row.paper_parameters == 8193
        assert "Table 1" in table1_networks.report(result)

    def test_table1_invalid_scale(self):
        with pytest.raises(ValueError):
            table1_networks.run(scale="huge")


class TestFig9Microbenchmark:
    def test_latency_ordering_and_nap(self):
        result = fig9_microbenchmark.run(world_size=32, iterations=32)
        for row in result.rows:
            assert row.solo_latency_ms < row.majority_latency_ms < row.mpi_latency_ms
            assert row.solo_nap <= 2
            assert 10 <= row.majority_nap <= 22
        # Headline ratios land in the paper's regime.
        assert result.solo_speedup > 10
        assert 1.5 < result.majority_speedup < 4.5
        report = fig9_microbenchmark.report(result)
        assert "Fig. 9" in report and "NAP" in report

    def test_functional_backend_ordering(self):
        rows = fig9_microbenchmark.run_functional(
            world_size=4, iterations=4, skew_ms=8.0, message_elements=64
        )
        row = rows[0]
        # The thread backend must preserve the ordering solo <= majority <= sync.
        assert row.solo_latency_ms <= row.majority_latency_ms * 1.5
        assert row.solo_latency_ms < row.mpi_latency_ms
        assert row.solo_nap <= row.majority_nap <= 4


class TestTrainingFigures:
    """Tiny-scale smoke runs of the training figures (shape, not numbers)."""

    def test_fig10_speedup_direction(self):
        result = fig10_hyperplane.run(scale="tiny", delays_ms=(300.0,), seed=0)
        (claim,) = result.claims()
        assert result.speedup(claim) > 1.0
        # Both variants converge to a similar validation loss.
        sync_loss = result.comparison.results["synch-SGD-300 (Deep500)"].final_epoch.eval_loss
        solo_loss = result.comparison.results["eager-SGD-300 (solo)"].final_epoch.eval_loss
        assert solo_loss == pytest.approx(sync_loss, rel=0.5)
        assert "Fig. 10" in fig10_hyperplane.report(result)

    def test_fig12_majority_between_solo_and_sync(self):
        result = fig12_cifar_severe.run(scale="tiny", seed=0)
        comp = result.comparison
        t_sync = comp.results["synch-SGD (Horovod)"].total_sim_time
        t_solo = comp.results["eager-SGD (solo)"].total_sim_time
        t_majority = comp.results["eager-SGD (majority)"].total_sim_time
        assert t_solo < t_sync
        assert t_solo <= t_majority <= t_sync
        # Solo sees far fewer fresh contributors than majority under the
        # severe rotating skew.
        nap_solo = comp.results["eager-SGD (solo)"].epochs[-1].mean_num_active
        nap_majority = comp.results["eager-SGD (majority)"].epochs[-1].mean_num_active
        assert nap_solo < nap_majority
        assert "Fig. 12" in fig12_cifar_severe.report(result)

    def test_fig13_inherent_imbalance_speedup(self):
        result = fig13_ucf101_lstm.run(scale="tiny", seed=0)
        comp = result.comparison
        assert comp.speedup_over("eager-SGD (solo)") > 1.0
        # The workload trace must actually be imbalanced across ranks.
        durations = comp.results["synch-SGD (Horovod)"].step_durations
        ratio = (durations.max(axis=1) / durations.mean(axis=1)).mean()
        assert ratio > 1.1
        assert "Fig. 13" in fig13_ucf101_lstm.report(result)

    def test_invalid_scales(self):
        with pytest.raises(ValueError):
            fig10_hyperplane.run(scale="giant")
        with pytest.raises(ValueError):
            fig12_cifar_severe.run(scale="giant")
        with pytest.raises(ValueError):
            fig13_ucf101_lstm.run(scale="giant")
