"""Command-line interface: run any paper experiment from the shell.

Examples
--------
::

    python -m repro list
    python -m repro fig9  --world-size 32 --iterations 64
    python -m repro fig10 --scale tiny
    python -m repro train --mode quorum --quorum 3 --trace trace.json

Each sub-command is a :class:`Command` row of :data:`COMMANDS`.  An
experiment row is its harness: its flags are the parameters of the
harness's ``run`` (:func:`add_flags` — the annotation gives a flag's type,
choices or bound, the default its default), ``run``'s docstring is the
sub-command's description, and the row prints the harness's ``report``
of the run.  ``train`` and ``serve`` take their flags from their config
dataclasses' fields the same way.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import typing
from pathlib import Path
from typing import (
    Annotated, Any, Callable, Dict, List, Literal, NamedTuple, Optional, Sequence, Union,
)

from repro.analysis.schedule_verifier import DEFAULT_WORLD_SIZES, verify
from repro.experiments import (
    autotune as autotune_experiment,
    fig2_workload,
    fig3_wmt_runtime,
    fig4_cloud_runtime,
    fig9_microbenchmark,
    fusion_pipeline,
    scaling,
    speedups,
    table1_networks,
)
from repro.experiments.training_experiments import report_figure, run_figure
from repro.obs.recorder import DEFAULT_CAPACITY
from repro.obs.tracecmd import PRESET, format_summary, run_trace
from repro.serving import ServingConfig, Workload, serve
from repro.serving.server import format_report
from repro.utils.argtypes import (
    codec_spec, comma_list, int_at_least, int_or_auto, positive_float,
)


class Command(NamedTuple):
    """One sub-command: ``add_args(parser)`` declares its flags and
    ``run(args, parser)`` runs it, returning the exit code (``None`` = 0).
    ``fn`` is the function whose parameters are the flags, if any."""

    name: str
    help: str
    add_args: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace, argparse.ArgumentParser], Optional[int]]
    fn: Optional[Callable] = None


def _add_shared(p: argparse.ArgumentParser, dest: str, default: Optional[str] = None) -> None:
    """Add the shared ``--compression`` flag, or for ``dest`` ``backend`` /
    ``comm_backend`` the shared ``--backend`` flag, to a sub-command parser."""
    from repro.comm.backend import available_backends
    from repro.compression import available_codecs

    if dest == "compression":
        p.add_argument(
            "--compression", type=codec_spec, default=default, metavar="CODEC[:k=v,...]",
            help=f"gradient codec; codecs: {', '.join(available_codecs())} "
            "(inline options allowed, e.g. topk:ratio=0.05) (default: uncompressed)",
        )
    else:
        p.add_argument(
            "--backend", dest=dest, choices=list(available_backends()), default=default,
            help="comm backend (default: the process-wide default backend, "
            "'thread' unless REPRO_COMM_BACKEND overrides it)",
        )


def _flag_type(hint: Any) -> Any:
    """argparse ``type`` of a parameter annotated ``hint``: the parser of
    ``Annotated[T, parser]``, the choices tuple of a ``Literal``, ``X`` for
    ``X`` or ``Optional[X]`` (``bool`` / ``int`` / ``float`` / ``str`` /
    ``Path``), an integer >= 1 or ``auto`` for an ``int``-or-``str``, and
    ``None`` (no flag) for anything else: an object."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        return hint.__metadata__[0]
    if origin is Literal:
        return args
    if origin is Union:
        members = set(args) - {type(None)}
        if members == {int, str}:
            return int_or_auto
        return _flag_type(members.pop()) if len(members) == 1 else None
    return hint if hint in (bool, int, float, str, Path) else None


def flag_types(fn: Callable) -> Dict[str, Any]:
    """``{parameter: argparse type}`` of every parameter of ``fn`` (a
    function, or a dataclass for its fields) that takes a flag."""
    hints = typing.get_type_hints(fn, include_extras=True)
    types = {name: _flag_type(hints[name]) for name in inspect.signature(fn).parameters}
    return {name: kind for name, kind in types.items() if kind is not None}


def add_flags(parser: argparse.ArgumentParser, fn: Callable, defaults: Any = None) -> None:
    """One ``--name`` flag per parameter of ``fn`` in :func:`flag_types`,
    defaulting to ``fn``'s default, or to the attribute of ``defaults`` (an
    instance of the dataclass ``fn``): ``--x`` / ``--no-x`` for a ``bool``,
    ``choices`` for a ``Literal``, and the shared ``--backend`` /
    ``--compression`` for ``backend`` / ``comm_backend`` / ``compression``.
    ``fn``'s docstring, which documents the parameters, joins the description."""
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.description = "\n\n".join(
        filter(None, (parser.description, inspect.cleandoc(fn.__doc__)))
    )
    signature = inspect.signature(fn).parameters
    for name, kind in flag_types(fn).items():
        flag = "--" + name.replace("_", "-")
        default = signature[name].default if defaults is None else getattr(defaults, name)
        if name in ("backend", "comm_backend", "compression"):
            _add_shared(parser, name, default)
        elif kind is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, default=default)
        elif isinstance(kind, tuple):
            parser.add_argument(flag, choices=kind, default=default, help="default: %(default)s")
        else:
            parser.add_argument(flag, type=kind, default=default, help="default: %(default)s")


def keywords(args: argparse.Namespace, fn: Callable) -> Dict[str, Any]:
    """The values of :func:`add_flags`' flags of ``fn``, by parameter."""
    return {name: getattr(args, name) for name in flag_types(fn)}


def config_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser, defaults: Any
) -> Any:
    """Inverse of ``add_flags(parser, type(defaults), defaults)``: ``defaults``
    with every flag's value, validated (a ``ValueError`` is a usage error,
    exit 2)."""
    config = dataclasses.replace(defaults, **keywords(args, type(defaults)))
    try:
        config.validate()
    except ValueError as exc:
        parser.error(str(exc))
    return config


def _list(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    width = max(len(command.name) for command in COMMANDS)
    print("available experiments:")
    for command in COMMANDS:
        print(f"  {command.name.ljust(width)}  {command.help}")


def _row(name: str, help_text: str, harness: Any = None, fn: Optional[Callable] = None) -> Command:
    """The row whose flags are the parameters of ``fn`` (default:
    ``harness.run``), described by its docstring.  It calls ``fn`` with
    them and prints ``harness.report`` of the result; without a harness,
    the result is the exit code."""
    fn = fn or harness.run

    def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Optional[int]:
        result = fn(**keywords(args, fn))
        if harness is None:
            return result
        print(harness.report(result))

    return Command(name, help_text, lambda p: add_flags(p, fn), run, fn)


def _figure_row(name: str, help_text: str) -> Command:
    """The row of one training figure of :data:`speedups.FIGURES`."""
    spec = speedups.FIGURES[name]

    def add_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", choices=tuple(spec.scales), default="tiny")
        p.add_argument("--seed", type=int, default=0)
        _add_shared(p, "backend")
        _add_shared(p, "compression")

    def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
        print(report_figure(run_figure(
            spec, scale=args.scale, seed=args.seed,
            comm_backend=args.backend, compression=args.compression)))

    return Command(name, help_text, add_args, run)


#: What ``serve`` runs unless its flags say otherwise: one co-scheduled
#: trainer, so the served version advances mid-run.
SERVE_DEFAULTS = (ServingConfig(train_ranks=1), Workload())


def _serve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=positive_float, default=300.0,
                   help="whole-world timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="print the full report as JSON instead of the table")
    p.add_argument("--assert-p99-s", type=float, default=None,
                   help="exit non-zero unless request p99 latency is under "
                   "this many seconds (CI smoke gate)")
    p.add_argument("--assert-version-advance", action="store_true",
                   help="exit non-zero unless the served model version "
                   "advanced beyond 0 mid-run (CI smoke gate)")
    for defaults in SERVE_DEFAULTS:
        add_flags(p, type(defaults), defaults)


def _serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config, workload = (config_from_args(args, parser, d) for d in SERVE_DEFAULTS)
    report = serve(config, workload, timeout=args.timeout)
    print(json.dumps(report.to_dict(), indent=2) if args.json
          else format_report(report))
    failures = []
    p99, versions = report.p99_s, report.versions_served
    if args.assert_p99_s is not None and (p99 is None or p99 > args.assert_p99_s):
        failures.append(f"p99 latency {p99} s exceeds bound {args.assert_p99_s} s")
    if args.assert_version_advance and not (versions and versions[-1] > 0):
        failures.append(f"served versions {versions} never advanced beyond the seed weights")
    ci_mode = args.assert_p99_s is not None or args.assert_version_advance
    if ci_mode and report.completed_requests < workload.num_requests:
        failures.append(
            f"only {report.completed_requests}/{workload.num_requests} requests completed"
        )
    for failure in failures:
        print(f"ASSERTION FAILED: {failure}")
    return 0 if not failures else 1


def _train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int_at_least(1), default=8,
                   help="training steps per rank (one epoch of exactly this many)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write the run's Chrome trace-event JSON (Perfetto) here")
    p.add_argument("--capacity", type=int_at_least(1), default=DEFAULT_CAPACITY,
                   help="flight-recorder ring capacity in events per rank "
                   "(overflow drops oldest; default: %(default)s)")
    p.add_argument("--timeout", type=positive_float, default=300.0,
                   help="whole-world timeout in seconds")
    add_flags(p, type(PRESET), PRESET)


def _train(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    report = run_trace(
        config_from_args(args, parser, PRESET), steps=args.steps,
        capacity=args.capacity, out=args.trace, timeout=args.timeout,
    )
    print(format_summary(report, args.trace))


def _verify(
    world_sizes: Annotated[Sequence[int], comma_list(int_at_least(2))] = DEFAULT_WORLD_SIZES,
    quiet: bool = False,
) -> int:
    """Record what is not a plan at every world size of ``world_sizes``,
    interpret the plans there and at 64, 256 and 1024, check the tag
    layout and the shm ring, and self-test the checkers; ``--quiet``
    prints the violations only, not the per-case table."""
    report = verify(world_sizes, progress=None if quiet else print)
    if quiet:
        for violation in report.violations:
            print(violation)
        passed = sum(1 for r in report.results if r.ok)
        print(f"verified {len(report.results)} case(s): {passed} passed, "
              f"{len(report.results) - passed} failed")
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _lint(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.analysis.lint import lint_paths

    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding)
    print(f"linted {', '.join(args.paths)}: {len(findings)} finding(s)")
    return 0 if not findings else 1


#: Every sub-command, in ``python -m repro list`` order.
COMMANDS: List[Command] = [
    Command("list", "list the available sub-commands", lambda p: None, _list),
    _row("fig2", "UCF101 video-length and LSTM batch-runtime distributions", fig2_workload),
    _row("fig3", "Transformer/WMT batch-runtime distribution", fig3_wmt_runtime),
    _row("fig4", "cloud ResNet-50 batch-runtime distribution", fig4_cloud_runtime),
    _row("table1", "evaluated networks (parameter counts, dataset sizes)", table1_networks),
    _row("fig9", "partial allreduce latency microbenchmark + NAP", fig9_microbenchmark),
    _figure_row("fig10", "hyperplane regression: synch-SGD vs eager-SGD (solo)"),
    _figure_row("fig11", "ResNet/ImageNet-like: Deep500/Horovod vs eager-SGD (solo)"),
    _figure_row("fig12", "ResNet/CIFAR-like under severe imbalance: Horovod/solo/majority"),
    _figure_row("fig13", "LSTM/UCF101-like video classification: Horovod/solo/majority"),
    _row("speedups", "paper fidelity: every claim of the paper, its value and "
         "ours, inside tolerance or not (trains fig10-fig13 once)", speedups),
    _row("scaling", "strong/weak scaling projections", scaling),
    _row("fusion", "fused/chunked gradient-exchange pipeline vs. unfused baseline",
         fusion_pipeline),
    _row("tune", "calibrate the LogGP model to a comm backend and auto-tune fusion",
         autotune_experiment),
    Command("serve", "online inference tier: dynamic batching + replica routing + "
            "live weight hot-swap (serve-while-train on any backend)",
            _serve_args, _serve),
    Command("train", "train the hyperplane MLP, one flag per TrainingConfig field; "
            "--trace PATH writes its Perfetto (Chrome trace-event) timeline",
            _train_args, _train),
    _row("verify", "statically verify collective schedules, tags and the shm ring", fn=_verify),
    Command("lint", "repo-specific AST lint (tag discipline, shm cleanup, framing)",
            lambda p: p.add_argument("paths", nargs="*", default=["src"],
                                     help="files or directories to lint (default: src)"),
            _lint),
]


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro`` (returns an exit code)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of eager-SGD with partial collective operations "
        "(Li et al., PPoPP 2020).",
    )
    sub = parser.add_subparsers(dest="command")
    parsers = {}
    for command in COMMANDS:
        parsers[command.name] = sub.add_parser(command.name, help=command.help)
        command.add_args(parsers[command.name])
    args = parser.parse_args(argv)
    name = args.command or "list"
    return next(c for c in COMMANDS if c.name == name).run(args, parsers[name]) or 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
