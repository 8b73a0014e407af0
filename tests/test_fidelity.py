"""The training figures as a spec table, and the paper-fidelity table built from it."""

import ast
import json
import re
from pathlib import Path

import pytest

from repro.cli import COMMANDS, main
from repro.experiments import speedups
from repro.experiments.training_experiments import fidelity_rows, report_figure

EXPERIMENTS_DIR = Path(speedups.__file__).parent
#: Source column of a fidelity row -> the module that states its paper number.
MODULE_OF_SOURCE = {
    "Fig. 9": "fig9_microbenchmark",
    "Fig. 10 (tiny)": "fig10_hyperplane",
    "Fig. 11 (tiny)": "fig11_imagenet",
    "Fig. 12 (tiny)": "fig12_cifar_severe",
    "Fig. 13 (tiny)": "fig13_ucf101_lstm",
    "Section 6": "scaling",
    "Fig. 2a": "fig2_workload",
    "Fig. 2b": "fig2_workload",
    "Fig. 3": "fig3_wmt_runtime",
    "Fig. 4": "fig4_cloud_runtime",
}


@pytest.fixture(scope="module")
def table():
    """Every harness once: the training figures at tiny, seed 0."""
    return speedups.run(scale="tiny", seed=0)


def report_shape(text):
    """Title, header cells and first cell of every row of each table, in order."""
    def cells(line):
        return re.split(r"\s{2,}", line.strip())

    tables = []
    for block in text.split("\n\n"):
        lines = block.splitlines()
        assert set(lines[1]) == {"="}
        tables.append(
            {"title": lines[0], "headers": cells(lines[2]), "rows": [cells(l)[0] for l in lines[4:]]}
        )
    return tables


def test_report_shapes_match_the_parent_commit(table):
    # Pin generated before fig10-fig13 became specs; numbers are excluded
    # because the eager variants are not bit-reproducible.
    pinned = json.loads((Path(__file__).parent / "data" / "figure_report_shapes.json").read_text())
    assert set(pinned) == set(table.figures)
    for name, result in table.figures.items():
        assert report_shape(report_figure(result)) == pinned[name], name


def test_fig11_solo_beats_both_synchronous_styles(table):
    results = table.figures["fig11"].comparison.results
    for delay in (300, 460):
        solo = results[f"eager-SGD-{delay} (solo)"].total_sim_time
        assert solo < results[f"synch-SGD-{delay} (Deep500)"].total_sim_time
        assert solo < results[f"synch-SGD-{delay} (Horovod)"].total_sim_time
    # More injected delay costs the synchronous baseline more.
    assert (
        results["synch-SGD-460 (Deep500)"].total_sim_time
        > results["synch-SGD-300 (Deep500)"].total_sim_time
    )


def test_every_cli_figure_is_a_spec_and_every_claim_is_one_row(table):
    cli_figures = [c.name for c in COMMANDS if re.fullmatch(r"fig1\d", c.name)]
    assert cli_figures == list(speedups.FIGURES) == list(table.figures)
    for name, spec in speedups.FIGURES.items():
        assert len(set(spec.claims)) == len(spec.claims) > 0
        rows = fidelity_rows(table.figures[name])
        assert len(rows) == len(spec.claims)
        for row in rows:
            assert table.rows.count(row) == 1
    assert {row.source for row in table.rows} == set(MODULE_OF_SOURCE)
    assert len({(row.source, row.claim) for row in table.rows}) == len(table.rows)


def test_each_paper_number_is_written_once(table):
    literals = {}
    for module in set(MODULE_OF_SOURCE.values()):
        tree = ast.parse((EXPERIMENTS_DIR / f"{module}.py").read_text())
        literals[module] = [
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) in (int, float)
        ]
    for source, module in MODULE_OF_SOURCE.items():
        for paper in {row.paper for row in table.rows if row.source == source}:
            # Fig. 2a's numbers are the sampler's calibration constants,
            # stated in repro.data.ucf101 and imported.
            expected = 0 if source == "Fig. 2a" else 1
            assert literals[module].count(paper) == expected, (source, paper)


def test_deterministic_rows_are_inside_their_tolerance(table):
    deterministic = [row for row in table.rows if "(tiny)" not in row.source]
    assert len(deterministic) == 2 + 4 + 8 + 4 + 4
    for row in deterministic:
        assert row.inside, row
    # The projected speedups of the training figures are deterministic too
    # (the accuracies are not): majority under severe skew is the headline.
    fig12 = {row.claim: row for row in table.rows if row.source == "Fig. 12 (tiny)"}
    assert fig12["eager-SGD (majority) speedup over synch-SGD (Horovod)"].inside


def test_every_eager_variant_beats_its_baseline_in_projected_time(table):
    speedup_rows = [row for row in table.rows if " speedup over " in row.claim]
    assert len(speedup_rows) == 3 + 4 + 1 + 2  # Figs. 10, 11, 12, 13
    for row in speedup_rows:
        assert row.ours > 1.0, row


#: ``ours`` of every projected row, as the fidelity table prints it.  These
#: are the analytic models' numbers (Fig. 9's latency model and the
#: training-time projection over each run's durations and initiators), so
#: they are deterministic: a change that moves one updates this pin and
#: lists what moved.
PROJECTED_OURS = {
    ("Fig. 9", "solo latency reduction"): "75.24",
    ("Fig. 9", "majority latency reduction"): "2.612",
    ("Fig. 10 (tiny)", "eager-SGD-200 (solo) speedup over synch-SGD-200 (Deep500)"): "1.391",
    ("Fig. 10 (tiny)", "eager-SGD-300 (solo) speedup over synch-SGD-300 (Deep500)"): "1.508",
    ("Fig. 10 (tiny)", "eager-SGD-400 (solo) speedup over synch-SGD-400 (Deep500)"): "1.289",
    ("Fig. 11 (tiny)", "eager-SGD-300 (solo) speedup over synch-SGD-300 (Deep500)"): "1.381",
    ("Fig. 11 (tiny)", "eager-SGD-300 (solo) speedup over synch-SGD-300 (Horovod)"): "1.381",
    ("Fig. 11 (tiny)", "eager-SGD-460 (solo) speedup over synch-SGD-460 (Deep500)"): "1.441",
    ("Fig. 11 (tiny)", "eager-SGD-460 (solo) speedup over synch-SGD-460 (Horovod)"): "1.441",
    ("Fig. 12 (tiny)", "eager-SGD (majority) speedup over synch-SGD (Horovod)"): "1.2",
    ("Fig. 13 (tiny)", "eager-SGD (solo) speedup over synch-SGD (Horovod)"): "1.135",
    ("Fig. 13 (tiny)", "eager-SGD (majority) speedup over synch-SGD (Horovod)"): "1.099",
    ("Section 6", "hyperplane strong scaling, 8 ranks, eager (solo, 400 ms)"): "6.026",
    ("Section 6", "resnet50 weak scaling, 64 ranks, eager (solo, 460 ms)"): "56.86",
    ("Section 6", "ucf101 weak scaling (inherent imbalance), synch-SGD"): "6.456",
    ("Section 6", "ucf101 weak scaling (inherent imbalance), eager (majority)"): "7.246",
}


def test_projected_rows_are_pinned(table):
    printed = {
        (row.source, row.claim): f"{round(row.ours, 3):.4g}"
        for row in table.rows
        if row.source in ("Fig. 9", "Section 6") or " speedup over " in row.claim
    }
    assert printed == PROJECTED_OURS


def test_fidelity_report_is_one_table(table):
    text = speedups.report(table)
    assert "\n\n" not in text
    assert text.startswith("Paper fidelity: ")
    lines = text.splitlines()
    assert len(lines) == 4 + len(table.rows)
    for source in MODULE_OF_SOURCE:
        assert any(line.startswith(source) for line in lines[4:])


@pytest.mark.parametrize("scale", ["paper", "large"])
def test_speedups_rejects_a_scale_some_figure_lacks(scale, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["speedups", "--scale", scale])
    assert exit_info.value.code == 2
    assert repr(scale) in capsys.readouterr().err
    # The library entry point rejects it before training anything.
    with pytest.raises(ValueError, match=scale):
        speedups.run(scale=scale)
