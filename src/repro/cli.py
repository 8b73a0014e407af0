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

Each sub-command runs the corresponding harness from
:mod:`repro.experiments` and prints its paper-vs-reproduction report.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

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

#: Description of every sub-command, shown by ``python -m repro list``.
EXPERIMENTS: Dict[str, str] = {
    "fig2": "UCF101 video-length and LSTM batch-runtime distributions",
    "fig3": "Transformer/WMT batch-runtime distribution",
    "fig4": "cloud ResNet-50 batch-runtime distribution",
    "table1": "evaluated networks (parameter counts, dataset sizes)",
    "fig9": "partial allreduce latency microbenchmark + NAP",
    "fig10": "hyperplane regression: synch-SGD vs eager-SGD (solo)",
    "fig11": "ResNet/ImageNet-like: Deep500/Horovod vs eager-SGD (solo)",
    "fig12": "ResNet/CIFAR-like under severe imbalance: Horovod/solo/majority",
    "fig13": "LSTM/UCF101-like video classification: Horovod/solo/majority",
    "speedups": "paper fidelity: every claim of the paper, its value and ours, "
    "inside tolerance or not (trains fig10-fig13 once)",
    "scaling": "strong/weak scaling projections",
    "fusion": "fused/chunked gradient-exchange pipeline vs. unfused baseline",
    "tune": "calibrate the LogGP model to a comm backend and auto-tune fusion",
    "serve": "online inference tier: dynamic batching + replica routing + "
    "live weight hot-swap (serve-while-train on any backend)",
    "trace": "flight-recorder a small training run and export a Perfetto "
    "(Chrome trace-event) JSON timeline with per-rank tracks",
    "verify": "statically verify collective schedules, tags and the shm ring",
    "lint": "repo-specific AST lint (tag discipline, shm cleanup, framing)",
}


def _add_backend_argument(p: argparse.ArgumentParser, help_text: str) -> None:
    """Add the shared ``--backend`` option to a sub-command parser."""
    from repro.comm.backend import available_backends

    p.add_argument(
        "--backend",
        choices=list(available_backends()),
        default=None,
        help=f"{help_text} (default: the process-wide default backend, "
        "'thread' unless REPRO_COMM_BACKEND overrides it)",
    )


def _codec_spec(value: str) -> str:
    """argparse type for ``--compression``: validate the codec spec eagerly."""
    from repro.compression import get_codec

    try:
        get_codec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of eager-SGD with partial collective operations "
        "(Li et al., PPoPP 2020).",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list the available experiments")

    p = sub.add_parser("fig2", help=EXPERIMENTS["fig2"])
    p.add_argument("--num-videos", type=int, default=9_537)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig3", help=EXPERIMENTS["fig3"])
    p.add_argument("--num-sentences", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fig4", help=EXPERIMENTS["fig4"])
    p.add_argument("--num-batches", type=int, default=30_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("table1", help=EXPERIMENTS["table1"])
    p.add_argument("--scale", choices=["small", "paper"], default="small")

    p = sub.add_parser("fig9", help=EXPERIMENTS["fig9"])
    p.add_argument("--world-size", type=int, default=32)
    p.add_argument("--iterations", type=int, default=64)
    p.add_argument("--skew-ms", type=float, default=1.0)
    p.add_argument(
        "--functional",
        action="store_true",
        help="also measure the real collectives at reduced scale",
    )
    _add_backend_argument(p, "comm backend of the functional measurements")
    _add_compression_argument(p, "gradient codec carried by the collectives")

    for name, spec in speedups.FIGURES.items():
        p = sub.add_parser(name, help=EXPERIMENTS[name])
        p.add_argument("--scale", choices=tuple(spec.scales), default="tiny")
        p.add_argument("--seed", type=int, default=0)
        _add_backend_argument(p, "comm backend carrying the training ranks")
        _add_compression_argument(p, "gradient codec of the exchange")

    p = sub.add_parser("speedups", help=EXPERIMENTS["speedups"])
    p.add_argument("--scale", choices=speedups.SHARED_SCALES, default="tiny")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scaling", help=EXPERIMENTS["scaling"])
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fusion", help=EXPERIMENTS["fusion"])
    p.add_argument(
        "--world-sizes", type=str, default="4,8,16,32",
        help="comma-separated world sizes for the analytic comparison",
    )
    p.add_argument("--gradient-mb", type=float, default=4.0,
                   help="simulated gradient size in MB")
    p.add_argument("--bucket-mb", type=str, default="1,4",
                   help="comma-separated fusion-buffer sizes in MB")
    p.add_argument("--pipeline-chunks", type=int, default=8,
                   help="segments per collective round (chunk pipelining)")
    p.add_argument(
        "--functional", action="store_true",
        help="also run the real exchange at reduced scale",
    )
    p.add_argument(
        "--functional-world-size", type=int, default=4,
        help="world size of the functional (real-transport) validation",
    )
    p.add_argument(
        "--sharding", default="none", choices=["none", "zero1"],
        help="add a ZeRO-1 sharded-exchange functional row (reduce-scatter, "
        "shard-local update, parameter allgather)",
    )
    _add_backend_argument(p, "comm backend of the functional exchange rows")
    _add_compression_argument(p, "gradient codec of the fused exchange")

    p = sub.add_parser("tune", help=EXPERIMENTS["tune"])
    p.add_argument(
        "--world-sizes", type=str, default="2,4,8",
        help="comma-separated world sizes to calibrate (each >= 2)",
    )
    p.add_argument("--gradient-mb", type=float, default=4.0,
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
    p.add_argument("--live-trials", type=int, default=0,
                   help="cross-check this many best grid candidates with live "
                   "exchanges on the calibrated backend")
    _add_backend_argument(p, "comm backend the calibration sweep measures")
    _add_compression_argument(p, "gradient codec the fusion grid is tuned for")

    p = sub.add_parser("serve", help=EXPERIMENTS["serve"])
    p.add_argument("--replicas", type=int, default=2,
                   help="number of model-replica ranks")
    p.add_argument("--train-ranks", type=int, default=1,
                   help="training ranks co-scheduled on the fabric "
                   "(0 = serve-only, weights stay at version 0)")
    p.add_argument("--requests", type=int, default=64,
                   help="total closed-loop requests the workload offers")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent closed-loop client threads")
    p.add_argument("--max-batch-size", type=int, default=8,
                   help="dynamic-batching size bound")
    p.add_argument("--max-queue-delay-ms", type=float, default=5.0,
                   help="dynamic-batching latency bound (SLO knob)")
    p.add_argument("--max-queue-depth", type=int, default=256,
                   help="admission-control queue bound (backpressure beyond it)")
    p.add_argument("--max-staleness", type=int, default=None,
                   help="refuse to serve when more than K versions behind "
                   "(default: serve at any staleness)")
    p.add_argument("--train-steps", type=int, default=50,
                   help="steps each trainer runs before leaving the world")
    p.add_argument("--publish-every", type=int, default=5,
                   help="hot-swap publish period in trainer steps")
    p.add_argument("--input-dim", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=300.0,
                   help="whole-world timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="print the full report as JSON instead of the table")
    p.add_argument("--assert-p99-s", type=float, default=None,
                   help="exit non-zero unless request p99 latency is under "
                   "this many seconds (CI smoke gate)")
    p.add_argument("--assert-version-advance", action="store_true",
                   help="exit non-zero unless the served model version "
                   "advanced beyond 0 mid-run (CI smoke gate)")
    _add_backend_argument(p, "comm backend hosting trainers, replicas and frontend")

    p = sub.add_parser("trace", help=EXPERIMENTS["trace"])
    p.add_argument("--world-size", type=int, default=4,
                   help="training ranks of the traced run")
    p.add_argument("--steps", type=int, default=8,
                   help="traced training steps per rank")
    p.add_argument("--mode", default="sync",
                   choices=["sync", "solo", "majority", "quorum"],
                   help="gradient-exchange mode of the traced run")
    p.add_argument("--fusion-buckets", type=int, default=2,
                   help="fusion buckets of the traced exchange")
    p.add_argument("--sharding", default="none", choices=["none", "zero1"],
                   help="optimizer-state sharding of the traced exchange "
                   "(zero1 = reduce-scatter/allgather update path)")
    p.add_argument("--capacity", type=int, default=None,
                   help="flight-recorder ring capacity in events "
                   "(default: 65536; overflow drops oldest)")
    p.add_argument("--out", type=str, default="trace.json",
                   help="output path of the Chrome trace-event JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=300.0,
                   help="whole-world timeout in seconds")
    _add_backend_argument(p, "comm backend carrying the traced ranks")

    p = sub.add_parser("verify", help=EXPERIMENTS["verify"])
    p.add_argument(
        "--world-sizes", type=str, default="2,3,4,5,7,8,16,64",
        help="comma-separated world sizes of the schedule sweep",
    )
    p.add_argument("--no-exchange", action="store_true",
                   help="skip the fused SynchronousExchange plan cases")
    p.add_argument("--no-ring-model", action="store_true",
                   help="skip the shm SPSC ring protocol model checker")
    p.add_argument("--no-self-test", action="store_true",
                   help="skip the seeded-mutant checker self-tests")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="print violations only, not the per-case table")

    p = sub.add_parser("lint", help=EXPERIMENTS["lint"])
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    return parser


def _parse_int_list(
    parser: argparse.ArgumentParser, option: str, value: str, min_value: int
) -> List[int]:
    """Parse a comma-separated integer option, enforcing a lower bound."""
    try:
        items = [int(s) for s in value.split(",") if s.strip()]
    except ValueError:
        parser.error(f"{option} must be comma-separated integers, got {value!r}")
    if not items:
        parser.error(f"{option} must not be empty")
    if any(i < min_value for i in items):
        parser.error(f"{option} entries must be >= {min_value}")
    return items


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro`` (returns an exit code)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        width = max(len(k) for k in EXPERIMENTS)
        print("available experiments:")
        for name, description in EXPERIMENTS.items():
            print(f"  {name.ljust(width)}  {description}")
        return 0

    if args.command == "fig2":
        result = fig2_workload.run(
            num_videos=args.num_videos, batch_size=args.batch_size, seed=args.seed
        )
        print(fig2_workload.report(result))
    elif args.command == "fig3":
        print(fig3_wmt_runtime.report(
            fig3_wmt_runtime.run(num_sentences=args.num_sentences, seed=args.seed)))
    elif args.command == "fig4":
        print(fig4_cloud_runtime.report(
            fig4_cloud_runtime.run(num_batches=args.num_batches, seed=args.seed)))
    elif args.command == "table1":
        print(table1_networks.report(table1_networks.run(scale=args.scale)))
    elif args.command == "fig9":
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
    elif args.command in speedups.FIGURES:
        print(report_figure(run_figure(
            speedups.FIGURES[args.command], scale=args.scale, seed=args.seed,
            comm_backend=args.backend, compression=args.compression)))
    elif args.command == "speedups":
        print(speedups.report(speedups.run(scale=args.scale, seed=args.seed)))
    elif args.command == "scaling":
        print(scaling.report(scaling.run(steps=args.steps, seed=args.seed)))
        print()
        print(scaling.report(scaling.run_with_inherent_imbalance(steps=args.steps, seed=args.seed)))
    elif args.command == "fusion":
        world_sizes = _parse_int_list(parser, "--world-sizes", args.world_sizes, 1)
        try:
            bucket_mb = [float(s) for s in args.bucket_mb.split(",") if s.strip()]
        except ValueError:
            parser.error(
                f"--bucket-mb must be comma-separated numbers, got {args.bucket_mb!r}"
            )
        if not bucket_mb or any(b <= 0 for b in bucket_mb):
            parser.error("--bucket-mb entries must be > 0 and not empty")
        if args.gradient_mb <= 0:
            parser.error("--gradient-mb must be > 0")
        if args.pipeline_chunks < 1:
            parser.error("--pipeline-chunks must be >= 1")
        if args.functional_world_size < 1:
            parser.error("--functional-world-size must be >= 1")
        result = fusion_pipeline.run(
            world_sizes=world_sizes,
            gradient_mb=args.gradient_mb,
            bucket_mb=bucket_mb,
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
    elif args.command == "tune":
        world_sizes = _parse_int_list(parser, "--world-sizes", args.world_sizes, 2)
        if args.gradient_mb <= 0:
            parser.error("--gradient-mb must be > 0")
        if args.live_trials < 0:
            parser.error("--live-trials must be >= 0")
        result = autotune_experiment.run(
            world_sizes=world_sizes,
            gradient_mb=args.gradient_mb,
            algorithm=args.algorithm,
            quick=args.quick,
            cache_dir=args.cache_dir,
            force=args.force,
            live_trials=args.live_trials,
            backend=args.backend,
            compression=args.compression,
        )
        print(autotune_experiment.report(result))
    elif args.command == "serve":
        import json

        from repro.serving import ServingConfig, Workload, serve
        from repro.serving.server import format_report

        if args.max_queue_delay_ms < 0:
            parser.error("--max-queue-delay-ms must be >= 0")
        config = ServingConfig(
            replicas=args.replicas,
            train_ranks=args.train_ranks,
            comm_backend=args.backend,
            max_batch_size=args.max_batch_size,
            max_queue_delay_s=args.max_queue_delay_ms / 1e3,
            max_queue_depth=args.max_queue_depth,
            max_staleness_versions=args.max_staleness,
            train_steps=args.train_steps,
            publish_every_steps=args.publish_every,
            input_dim=args.input_dim,
            seed=args.seed,
        )
        try:
            config.validate()
        except ValueError as exc:
            parser.error(str(exc))
        report = serve(
            config,
            Workload(num_requests=args.requests, clients=args.clients),
            timeout=args.timeout,
        )
        print(json.dumps(report.to_dict(), indent=2) if args.json
              else format_report(report))
        failures = []
        if args.assert_p99_s is not None:
            p99 = report.p99_s
            if p99 is None or p99 > args.assert_p99_s:
                failures.append(
                    f"p99 latency {p99} s exceeds bound {args.assert_p99_s} s"
                )
        if args.assert_version_advance:
            if not report.versions_served or report.versions_served[-1] <= 0:
                failures.append(
                    f"served versions {report.versions_served} never advanced "
                    "beyond the seed weights"
                )
        ci_mode = args.assert_p99_s is not None or args.assert_version_advance
        if ci_mode and report.completed_requests < args.requests:
            failures.append(
                f"only {report.completed_requests}/{args.requests} requests "
                "completed"
            )
        for failure in failures:
            print(f"ASSERTION FAILED: {failure}")
        return 0 if not failures else 1
    elif args.command == "trace":
        from repro.obs.recorder import DEFAULT_CAPACITY
        from repro.obs.tracecmd import format_summary, run_trace, trace_config

        config = trace_config(
            world_size=args.world_size,
            mode=args.mode,
            sharding=args.sharding,
            fusion_buckets=args.fusion_buckets,
            seed=args.seed,
            backend=args.backend,
        )
        try:
            config.validate()
        except ValueError as exc:
            parser.error(str(exc))
        if args.steps < 1:
            parser.error(f"--steps must be >= 1, got {args.steps}")
        capacity = args.capacity or DEFAULT_CAPACITY
        if capacity < 1:
            parser.error(f"--capacity must be >= 1, got {capacity}")
        report = run_trace(
            config, steps=args.steps, capacity=capacity, out=args.out,
            timeout=args.timeout,
        )
        print(format_summary(report, args.out))
    elif args.command == "verify":
        from repro.analysis import schedule_verifier

        world_sizes = _parse_int_list(parser, "--world-sizes", args.world_sizes, 2)
        report = schedule_verifier.verify(
            world_sizes=world_sizes,
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
    elif args.command == "lint":
        from repro.analysis.lint import lint_paths

        findings = lint_paths(args.paths)
        for finding in findings:
            print(finding)
        print(f"linted {', '.join(args.paths)}: {len(findings)} finding(s)")
        return 0 if not findings else 1
    else:  # pragma: no cover - argparse already rejects unknown commands
        parser.error(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
