"""Command-line interface: run any paper experiment from the shell.

Examples
--------
::

    python -m repro list
    python -m repro fig9  --world-size 32 --iterations 64
    python -m repro fig2
    python -m repro fig10 --scale tiny
    python -m repro fig13 --scale small
    python -m repro scaling
    python -m repro table1 --scale paper
    python -m repro train --mode quorum --quorum 3 --trace trace.json

Each sub-command is a :class:`Command` row of :data:`COMMANDS`; ``train``
and ``serve`` take their flags from their config dataclasses.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import json
import math
import sys
import typing
from typing import Any, Callable, Dict, List, NamedTuple, Optional

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


class Command(NamedTuple):
    """One sub-command: ``add_args(parser)`` declares its flags and
    ``run(args, parser)`` runs it, returning the exit code (``None`` = 0)."""

    name: str
    help: str
    add_args: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace, argparse.ArgumentParser], Optional[int]]


def _bounded(convert: Callable[[str], Any], ok: Callable[[Any], bool], what: str):
    """An argparse ``type``: ``convert(value)`` when ``ok`` accepts it,
    otherwise a usage error (exit 2) naming ``value``."""

    def parse(value: str) -> Any:
        with contextlib.suppress(ValueError):
            if ok(converted := convert(value)):
                return converted
        raise argparse.ArgumentTypeError(f"must be {what}, got {value!r}")

    return parse


def _int_at_least(k: int):
    return _bounded(int, lambda n: n >= k, f"an integer >= {k}")


_positive_float = _bounded(float, lambda x: 0 < x < math.inf, "a finite number > 0")
_int_or_auto = _bounded(lambda v: v if v == "auto" else int(v),
                        lambda v: v == "auto" or v >= 1, "an integer >= 1 or 'auto'")


def _comma_list(item: Callable[[str], Any]):
    """An argparse ``type``: a comma-separated list of ``item`` values."""
    return lambda value: [item(part) for part in value.split(",")]


def _codec_spec(value: str) -> str:
    """argparse type for ``--compression``: validate the codec spec eagerly."""
    from repro.compression import get_codec

    try:
        get_codec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_backend_argument(p: argparse.ArgumentParser, help_text: str, dest: str = "backend"):
    """Add the shared ``--backend`` option to a sub-command parser."""
    from repro.comm.backend import available_backends

    p.add_argument(
        "--backend",
        dest=dest,
        choices=list(available_backends()),
        default=None,
        help=f"{help_text} (default: the process-wide default backend, "
        "'thread' unless REPRO_COMM_BACKEND overrides it)",
    )


def _add_compression_argument(p: argparse.ArgumentParser, help_text: str) -> None:
    """Add the shared ``--compression`` option to a sub-command parser."""
    from repro.compression import available_codecs

    p.add_argument(
        "--compression",
        type=_codec_spec,
        default=None,
        metavar="CODEC[:k=v,...]",
        help=f"{help_text}; codecs: {', '.join(available_codecs())} "
        "(inline options allowed, e.g. topk:ratio=0.05) "
        "(default: uncompressed)",
    )


def _scalar_fields(cls: type) -> Dict[str, Any]:
    """``{field name: argparse type}`` of the dataclass ``cls``'s scalar
    fields; an object-valued field gets no flag."""
    hints, scalars = typing.get_type_hints(cls), {}
    for field in dataclasses.fields(cls):
        members = set(typing.get_args(hints[field.name])) - {type(None)}
        if members == {int, str}:
            scalars[field.name] = _int_or_auto
            continue
        kind = members.pop() if len(members) == 1 else hints[field.name]
        if kind in (bool, int, float, str):
            scalars[field.name] = kind
    return scalars


def config_arguments(parser: argparse.ArgumentParser, defaults: Any) -> None:
    """Add one ``--field-name`` flag per scalar field of the dataclass
    instance ``defaults``, defaulting to its value: ``--x`` / ``--no-x``
    for a ``bool``, ``X`` for ``Optional[X]``, an integer >= 1 or ``auto``
    for ``int``-or-``str``, and the shared ``--backend`` for
    ``comm_backend``.  The class docstring documents the fields."""
    cls = type(defaults)
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.description = "\n\n".join(
        filter(None, (parser.description, inspect.cleandoc(cls.__doc__)))
    )
    for name, kind in _scalar_fields(cls).items():
        flag = "--" + name.replace("_", "-")
        default = getattr(defaults, name)
        if name == "comm_backend":
            _add_backend_argument(parser, "comm backend carrying the ranks", dest=name)
        elif kind is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, default=default)
        else:
            parser.add_argument(flag, type=kind, default=default, help="default: %(default)s")


def config_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser, defaults: Any
) -> Any:
    """Inverse of :func:`config_arguments`: ``defaults`` with every flag's
    value, validated (a ``ValueError`` is a usage error, exit 2)."""
    config = dataclasses.replace(
        defaults, **{name: getattr(args, name) for name in _scalar_fields(type(defaults))}
    )
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


def _report(harness: Any) -> Callable[[argparse.Namespace, argparse.ArgumentParser], None]:
    """``run`` of a row whose flags are the keywords of ``harness.run``:
    print ``harness.report`` of the run."""

    def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
        keywords = {k: v for k, v in vars(args).items() if k != "command"}
        print(harness.report(harness.run(**keywords)))

    return run


def _fig2_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--num-videos", type=int, default=9_537)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)


def _fig3_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--num-sentences", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)


def _fig4_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--num-batches", type=int, default=30_000)
    p.add_argument("--seed", type=int, default=0)


def _fig9_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--world-size", type=int, default=32)
    p.add_argument("--iterations", type=int, default=64)
    p.add_argument("--skew-ms", type=float, default=1.0)
    p.add_argument("--functional", action="store_true",
                   help="also measure the real collectives at reduced scale")
    _add_backend_argument(p, "comm backend of the functional measurements")
    _add_compression_argument(p, "gradient codec carried by the collectives")


def _fig9(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    result = fig9_microbenchmark.run(
        world_size=args.world_size,
        iterations=args.iterations,
        skew_step_ms=args.skew_ms,
        compression=args.compression,
    )
    if args.functional or args.backend is not None:
        # An explicit --backend implies the caller wants the real
        # transport exercised, not just the analytic model rows.
        result.functional_rows = fig9_microbenchmark.run_functional(
            backend=args.backend, compression=args.compression
        )
    print(fig9_microbenchmark.report(result))


def _figure_row(name: str, help_text: str) -> Command:
    """The row of one training figure of :data:`speedups.FIGURES`."""
    spec = speedups.FIGURES[name]

    def add_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", choices=tuple(spec.scales), default="tiny")
        p.add_argument("--seed", type=int, default=0)
        _add_backend_argument(p, "comm backend carrying the training ranks")
        _add_compression_argument(p, "gradient codec of the exchange")

    def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
        print(report_figure(run_figure(
            spec, scale=args.scale, seed=args.seed,
            comm_backend=args.backend, compression=args.compression)))

    return Command(name, help_text, add_args, run)


def _speedups_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", choices=speedups.SHARED_SCALES, default="tiny")
    p.add_argument("--seed", type=int, default=0)


def _scaling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)


def _scaling(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    print(scaling.report(scaling.run(steps=args.steps, seed=args.seed)))
    print()
    print(scaling.report(scaling.run_with_inherent_imbalance(steps=args.steps, seed=args.seed)))


def _fusion_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--world-sizes", type=_comma_list(_int_at_least(1)), default="4,8,16,32",
                   help="comma-separated world sizes for the analytic comparison")
    p.add_argument("--gradient-mb", type=_positive_float, default=4.0,
                   help="simulated gradient size in MB")
    p.add_argument("--bucket-mb", type=_comma_list(_positive_float), default="1,4",
                   help="comma-separated fusion-buffer sizes in MB")
    p.add_argument("--pipeline-chunks", type=_int_at_least(1), default=8,
                   help="segments per collective round (chunk pipelining)")
    p.add_argument("--functional", action="store_true",
                   help="also run the real exchange at reduced scale")
    p.add_argument("--functional-world-size", type=_int_at_least(1), default=4,
                   help="world size of the functional (real-transport) validation")
    p.add_argument("--sharding", default="none", choices=["none", "zero1"],
                   help="add a ZeRO-1 sharded-exchange functional row (reduce-scatter, "
                   "shard-local update, parameter allgather)")
    _add_backend_argument(p, "comm backend of the functional exchange rows")
    _add_compression_argument(p, "gradient codec of the fused exchange")


def _fusion(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    result = fusion_pipeline.run(
        world_sizes=args.world_sizes,
        gradient_mb=args.gradient_mb,
        bucket_mb=args.bucket_mb,
        n_chunks=args.pipeline_chunks,
        compression=args.compression,
    )
    if args.functional or args.backend is not None:
        # An explicit --backend implies the caller wants the real
        # transport exercised, not just the analytic model rows.
        result.functional_rows = fusion_pipeline.run_functional(
            world_size=args.functional_world_size,
            n_chunks=args.pipeline_chunks,
            backend=args.backend,
            compression=args.compression,
            sharding=args.sharding,
        )
    print(fusion_pipeline.report(result))


def _tune_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--world-sizes", type=_comma_list(_int_at_least(2)), default="2,4,8",
                   help="comma-separated world sizes to calibrate (each >= 2)")
    p.add_argument("--gradient-mb", type=_positive_float, default=4.0,
                   help="gradient size the fusion grid is tuned for, in MB")
    p.add_argument("--algorithm", default="ring",
                   choices=["ring", "recursive_doubling", "rabenseifner"],
                   help="allreduce algorithm of the tuned exchange")
    p.add_argument("--quick", action="store_true",
                   help="reduced measurement sweep (CI smoke mode)")
    p.add_argument("--force", action="store_true",
                   help="remeasure even when a cached profile exists")
    p.add_argument("--cache-dir", type=str, default=None,
                   help="profile-cache directory (default: $REPRO_TUNING_CACHE_DIR "
                   "or ~/.cache/repro/tuning)")
    p.add_argument("--live-trials", type=_int_at_least(0), default=0,
                   help="cross-check this many best grid candidates with live "
                   "exchanges on the calibrated backend")
    _add_backend_argument(p, "comm backend the calibration sweep measures")
    _add_compression_argument(p, "gradient codec the fusion grid is tuned for")


#: What ``serve`` runs unless its flags say otherwise: one co-scheduled
#: trainer, so the served version advances mid-run.
SERVE_DEFAULTS = (ServingConfig(train_ranks=1), Workload())


def _serve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=_positive_float, default=300.0,
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
        config_arguments(p, defaults)


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
    p.add_argument("--steps", type=_int_at_least(1), default=8,
                   help="training steps per rank (one epoch of exactly this many)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write the run's Chrome trace-event JSON (Perfetto) here")
    p.add_argument("--capacity", type=_int_at_least(1), default=DEFAULT_CAPACITY,
                   help="flight-recorder ring capacity in events per rank "
                   "(overflow drops oldest; default: %(default)s)")
    p.add_argument("--timeout", type=_positive_float, default=300.0,
                   help="whole-world timeout in seconds")
    config_arguments(p, PRESET)


def _train(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    report = run_trace(
        config_from_args(args, parser, PRESET), steps=args.steps,
        capacity=args.capacity, out=args.trace, timeout=args.timeout,
    )
    print(format_summary(report, args.trace))


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--world-sizes", type=_comma_list(_int_at_least(2)),
                   default="2,3,4,5,7,8,16,64",
                   help="comma-separated world sizes of the schedule sweep")
    p.add_argument("--no-exchange", action="store_true",
                   help="skip the fused SynchronousExchange plan cases")
    p.add_argument("--no-ring-model", action="store_true",
                   help="skip the shm SPSC ring protocol model checker")
    p.add_argument("--no-self-test", action="store_true",
                   help="skip the seeded-mutant checker self-tests")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="print violations only, not the per-case table")


def _verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.analysis import schedule_verifier

    report = schedule_verifier.verify(
        world_sizes=args.world_sizes,
        include_exchange=not args.no_exchange,
        include_ring_model=not args.no_ring_model,
        include_self_test=not args.no_self_test,
        progress=None if args.quiet else print,
    )
    if args.quiet:
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
    Command("fig2", "UCF101 video-length and LSTM batch-runtime distributions",
            _fig2_args, _report(fig2_workload)),
    Command("fig3", "Transformer/WMT batch-runtime distribution",
            _fig3_args, _report(fig3_wmt_runtime)),
    Command("fig4", "cloud ResNet-50 batch-runtime distribution",
            _fig4_args, _report(fig4_cloud_runtime)),
    Command("table1", "evaluated networks (parameter counts, dataset sizes)",
            lambda p: p.add_argument("--scale", choices=["small", "paper"], default="small"),
            _report(table1_networks)),
    Command("fig9", "partial allreduce latency microbenchmark + NAP", _fig9_args, _fig9),
    _figure_row("fig10", "hyperplane regression: synch-SGD vs eager-SGD (solo)"),
    _figure_row("fig11", "ResNet/ImageNet-like: Deep500/Horovod vs eager-SGD (solo)"),
    _figure_row("fig12", "ResNet/CIFAR-like under severe imbalance: Horovod/solo/majority"),
    _figure_row("fig13", "LSTM/UCF101-like video classification: Horovod/solo/majority"),
    Command("speedups", "paper fidelity: every claim of the paper, its value and "
            "ours, inside tolerance or not (trains fig10-fig13 once)",
            _speedups_args, _report(speedups)),
    Command("scaling", "strong/weak scaling projections", _scaling_args, _scaling),
    Command("fusion", "fused/chunked gradient-exchange pipeline vs. unfused baseline",
            _fusion_args, _fusion),
    Command("tune", "calibrate the LogGP model to a comm backend and auto-tune fusion",
            _tune_args, _report(autotune_experiment)),
    Command("serve", "online inference tier: dynamic batching + replica routing + "
            "live weight hot-swap (serve-while-train on any backend)",
            _serve_args, _serve),
    Command("train", "train the hyperplane MLP, one flag per TrainingConfig field; "
            "--trace PATH writes its Perfetto (Chrome trace-event) timeline",
            _train_args, _train),
    Command("verify", "statically verify collective schedules, tags and the shm ring",
            _verify_args, _verify),
    Command("lint", "repo-specific AST lint (tag discipline, shm cleanup, framing)",
            lambda p: p.add_argument("paths", nargs="*", default=["src"],
                                     help="files or directories to lint (default: src)"),
            _lint),
]

#: Description of every sub-command, shown by ``python -m repro list``.
EXPERIMENTS: Dict[str, str] = {command.name: command.help for command in COMMANDS}


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
