"""Tests for the command-line interface and the scaling projections."""

import argparse
import dataclasses
import inspect

import pytest

from repro.cli import COMMANDS, main
from repro.experiments import scaling
from repro.serving import ServingConfig, Workload
from repro.training.config import TrainingConfig


class TestScalingExperiment:
    def test_injected_imbalance_projections(self):
        result = scaling.run(steps=120, seed=0)
        by_name = {r.name: r for r in result.rows}
        solo = by_name["hyperplane strong scaling, 8 ranks, eager (solo, 400 ms)"]
        sync = by_name["hyperplane strong scaling, 8 ranks, synch-SGD (400 ms)"]
        assert solo.speedup > sync.speedup > 1.0
        assert solo.speedup <= 8.0
        resnet = by_name["resnet50 weak scaling, 64 ranks, eager (solo, 460 ms)"]
        assert 30 < resnet.speedup <= 64
        assert "scaling" in scaling.report(result).lower()

    def test_inherent_imbalance_ordering(self):
        result = scaling.run_with_inherent_imbalance(steps=60, seed=0)
        speeds = {r.mode: r.speedup for r in result.rows}
        assert speeds["solo"] >= speeds["majority"] >= speeds["sync"]
        assert all(0 < s <= 8.0 + 1e-9 for s in speeds.values())


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for command in COMMANDS:
            assert command.name in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_fig9_command(self, capsys):
        assert main(["fig9", "--world-size", "16", "--iterations", "8"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out and "Solo" in out

    def test_fig2_command(self, capsys):
        assert main(["fig2", "--num-videos", "2000"]) == 0
        assert "Fig. 2a" in capsys.readouterr().out

    def test_table1_command(self, capsys):
        assert main(["table1", "--scale", "paper"]) == 0
        assert "8,193" in capsys.readouterr().out

    def test_scaling_command(self, capsys):
        assert main(["scaling", "--steps", "60"]) == 0
        assert "weak scaling" in capsys.readouterr().out

    def test_fig10_tiny_command(self, capsys):
        assert main(["fig10", "--scale", "tiny"]) == 0
        assert "Fig. 10" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])


def _flag(field_name):
    return "--backend" if field_name == "comm_backend" else "--" + field_name.replace("_", "-")


#: Rows whose flags are the parameters of a function.
SIGNATURE_ROWS = [c for c in COMMANDS if c.fn is not None]
#: ``(row, parameter)`` of the object-valued parameters, which take no flag.
OBJECTS = {("fusion", "params")}


def _help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestCommandTable:
    def test_every_row_is_listed(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:]] == [c.name for c in COMMANDS]

    def test_every_harness_row_is_a_signature_row(self):
        assert {c.name for c in SIGNATURE_ROWS} == {
            "fig2", "fig3", "fig4", "table1", "fig9", "speedups", "scaling", "fusion", "tune",
            "verify",
        }

    @pytest.mark.parametrize("command", SIGNATURE_ROWS, ids=lambda c: c.name)
    def test_cli_defaults_are_the_run_defaults(self, command):
        """Parsing ``[name]`` alone gives ``run``'s own defaults: no default
        is written twice (``repro fig3`` once sampled half as many
        sentences as ``fig3_wmt_runtime.run``)."""
        parser = argparse.ArgumentParser()
        command.add_args(parser)
        parsed = vars(parser.parse_args([]))

        def plain(value):
            return tuple(value) if isinstance(value, (list, tuple)) else value

        defaults = {
            name: plain(parameter.default)
            for name, parameter in inspect.signature(command.fn).parameters.items()
            if (command.name, name) not in OBJECTS
        }
        assert {name: plain(value) for name, value in parsed.items()} == defaults

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.name)
    def test_every_row_has_help_and_a_flag_per_parameter(self, capsys, command):
        text = _help(capsys, command.name)
        if command.fn is not None:
            assert inspect.cleandoc(command.fn.__doc__).splitlines()[0] in text
            for name in inspect.signature(command.fn).parameters:
                listed = f"{_flag(name)} " in text or f"{_flag(name)}," in text
                assert listed != ((command.name, name) in OBJECTS), (command.name, name)

    def test_train_has_a_flag_per_scalar_config_field(self, capsys):
        text = _help(capsys, "train")
        objects = {"delay_injector", "cost_model"}
        for field in dataclasses.fields(TrainingConfig):
            assert (_flag(field.name) in text) != (field.name in objects), field.name

    def test_serve_has_a_flag_per_config_field(self, capsys):
        text = _help(capsys, "serve")
        for cls in (ServingConfig, Workload):
            for field in dataclasses.fields(cls):
                assert _flag(field.name) in text, field.name

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["train", "--capacity", "0"], "'0'"),
            (["train", "--steps", "0"], "'0'"),
            (["train", "--timeout", "-1"], "'-1'"),
            (["train", "--timeout", "nan"], "'nan'"),
            (["train", "--pipeline-chunks", "zero"], "'zero'"),
            (["serve", "--timeout", "0"], "'0'"),
            (["fusion", "--bucket-mb", "1,0"], "'0'"),
            (["fusion", "--gradient-mb", "inf"], "'inf'"),
            (["tune", "--world-sizes", "2,1"], "'1'"),
            (["tune", "--live-trials", "-1"], "'-1'"),
            (["verify", "--world-sizes", "2,x"], "'x'"),
        ],
    )
    def test_bounds_are_checked_while_parsing(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}: must be" in err and f"got {value}" in err

    def test_config_errors_are_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--world-size", "3"])
        assert exc.value.code == 2
        assert "divisible by world_size (3), got 32" in capsys.readouterr().err
