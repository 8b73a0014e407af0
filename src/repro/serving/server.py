"""Launching and driving a serving world.

Two ways to run one:

* :func:`serve` — batch mode: launch the world on any registered comm
  backend, drive it with a built-in :class:`Workload` (client threads
  living inside the frontend rank, so the traffic generator works on
  process transports too) and return a :class:`ServingReport`.  This is
  what ``python -m repro serve`` and the serving benchmark call.
* :class:`InferenceServer` — interactive mode on the thread backend: the
  world runs in a background thread and the caller submits requests from
  its own thread via a shared in-process bridge.  Tests use this to
  interleave submissions with hot swaps deterministically.

Both run the same SPMD entry, :func:`_serving_main`, which dispatches on
rank into a trainer (:func:`_train`: the runner's rank loop with a
publish hook), the replica loop (:mod:`repro.serving.replica`) or the
frontend (:mod:`repro.serving.frontend`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.comm.backend import launch
from repro.comm.subworld import SubsetCommunicator
from repro.nn.losses import MSELoss
from repro.nn.parameters import flatten_parameters
from repro.obs.metrics import LogHistogram
from repro.serving import protocol
from repro.serving.batching import BackpressureError, StaleReplicaError
from repro.serving.config import ServingConfig
from repro.serving.frontend import Frontend
from repro.serving.replica import run_replica
from repro.training.model_sync import model_hash
from repro.training.preset import INPUT_DIM, preset_model, preset_workload
from repro.training.runner import _rank_main
from repro.tuning.autotune import resolve_auto_fusion


@dataclass
class Workload:
    """The built-in traffic generator (threads inside the frontend rank).

    ``clients`` threads submit ``num_requests`` single-example requests
    round-robin, each waiting for its response before sending the next
    (closed-loop clients).  Backpressure rejections are retried after
    ``backpressure_retry_s``; staleness failures and timeouts are
    counted, not retried.
    """

    num_requests: int = 64
    clients: int = 4
    timeout_s: float = 60.0
    backpressure_retry_s: float = 0.002
    #: Seconds each client sleeps between its requests (0 = closed loop
    #: at full speed).
    think_time_s: float = 0.0

    def validate(self) -> None:
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")


@dataclass
class ServingReport:
    """Merged outcome of one serving run."""

    config: Dict[str, Any]
    frontend: Dict[str, Any]
    replicas: List[Dict[str, Any]] = field(default_factory=list)
    trainers: List[Dict[str, Any]] = field(default_factory=list)
    workload: Optional[Dict[str, Any]] = None

    # Convenience views used by the CLI assertions and the tests.
    @property
    def completed_requests(self) -> int:
        return int(self.workload["completed"]) if self.workload else 0

    @property
    def p99_s(self) -> Optional[float]:
        return self.workload.get("latency_p99_s") if self.workload else None

    @property
    def versions_served(self) -> List[int]:
        return sorted(int(v) for v in self.frontend.get("versions_served", {}))

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def format_report(report: ServingReport) -> str:
    """Human-readable summary of a serving run (used by the CLI)."""
    cfg = report.config
    lines = [
        "serving report",
        f"  world      : {cfg['train_ranks']} trainer(s) + "
        f"{cfg['replicas']} replica(s) + 1 frontend on "
        f"{cfg['comm_backend'] or 'default'} backend",
        f"  batching   : max_batch_size={cfg['max_batch_size']}, "
        f"max_queue_delay={1e3 * cfg['max_queue_delay_s']:.1f} ms, "
        f"max_queue_depth={cfg['max_queue_depth']}",
        f"  staleness  : K={cfg['max_staleness_versions']}",
    ]
    if report.workload:
        w = report.workload
        lines.append(
            f"  workload   : {w['completed']}/{w['offered']} completed by "
            f"{w['clients']} client(s) in {w['elapsed_s']:.2f} s "
            f"({w['requests_per_s']:.0f} req/s); "
            f"{w['stale_failures']} stale, {w['timeouts']} timeout(s), "
            f"{w['backpressure_retries']} backpressure retrie(s)"
        )
        if "latency_p50_s" in w:
            lines.append(
                f"  latency    : p50 {1e3 * w['latency_p50_s']:.2f} ms, "
                f"p99 {1e3 * w['latency_p99_s']:.2f} ms, "
                f"mean {1e3 * w['latency_mean_s']:.2f} ms"
            )
    lines.append(
        f"  versions   : served {report.versions_served or [0]}, "
        f"announced {report.frontend.get('announced_version')}"
    )
    for replica in report.replicas:
        lines.append(
            f"  replica {replica['rank']:>3}: "
            f"{replica['served_requests']} request(s) in "
            f"{replica['served_batches']} batch(es), "
            f"{replica['rejected_batches']} rejected, "
            f"{replica['swaps_applied']} swap(s) applied "
            f"(version {replica['applied_version']})"
        )
    for trainer in report.trainers:
        lines.append(
            f"  trainer {trainer['rank']:>3}: {trainer['steps']} step(s), "
            f"final version {trainer['final_version']}, "
            f"{trainer['published_versions']} publish(es), "
            f"final loss {trainer['final_loss']:.4f}"
        )
    return "\n".join(lines)


def _request_inputs(config: ServingConfig, index: int) -> np.ndarray:
    """Deterministic input vector of request ``index``."""
    rng = np.random.default_rng(config.training.seed * 1_000_003 + index)
    return rng.standard_normal(INPUT_DIM)


def _run_workload(
    frontend: Frontend, config: ServingConfig, workload: Workload
) -> Dict[str, Any]:
    """Drive the frontend with closed-loop client threads; merge stats."""
    # One shared streaming histogram instead of per-client raw lists:
    # O(1) per request, bounded memory, and p50/p99 within 1% of the
    # exact sample percentiles (LogHistogram is thread-safe).
    latencies = LogHistogram()
    versions: List[set] = [set() for _ in range(workload.clients)]
    stale: List[int] = [0] * workload.clients
    timeouts: List[int] = [0] * workload.clients
    backpressure: List[int] = [0] * workload.clients

    def client(c: int) -> None:
        for index in range(c, workload.num_requests, workload.clients):
            inputs = _request_inputs(config, index)
            start = time.perf_counter()
            while True:
                try:
                    future = frontend.submit(inputs)
                    break
                except BackpressureError:
                    backpressure[c] += 1
                    time.sleep(workload.backpressure_retry_s)
            try:
                _, version = future.wait(timeout=workload.timeout_s)
            except StaleReplicaError:
                stale[c] += 1
                continue
            except TimeoutError:
                timeouts[c] += 1
                continue
            latencies.push(time.perf_counter() - start)
            versions[c].add(int(version))
            if workload.think_time_s:
                time.sleep(workload.think_time_s)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(c,), name=f"serving-client-{c}")
        for c in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    completed = latencies.count
    stats: Dict[str, Any] = {
        "offered": workload.num_requests,
        "completed": int(completed),
        "stale_failures": int(sum(stale)),
        "timeouts": int(sum(timeouts)),
        "backpressure_retries": int(sum(backpressure)),
        "clients": workload.clients,
        "elapsed_s": elapsed,
        "requests_per_s": float(completed / elapsed) if elapsed > 0 else 0.0,
        "versions_seen": sorted(set().union(*versions)) if versions else [],
    }
    if completed:
        stats["latency_p50_s"] = latencies.percentile(50)
        stats["latency_p99_s"] = latencies.percentile(99)
        stats["latency_mean_s"] = latencies.mean
        stats["latency_histogram"] = latencies.to_dict()
    return stats


class _FrontendBridge:
    """In-process handle linking :class:`InferenceServer` to its frontend.

    Only meaningful on the thread backend, where the SPMD ranks share the
    launcher's address space and the bridge object can be passed through
    ``launch`` without pickling.
    """

    def __init__(self) -> None:
        self.ready = threading.Event()
        self.stop = threading.Event()
        self.frontend: Optional[Frontend] = None
        self.report: Optional[Dict[str, Any]] = None


def _train(comm, config: ServingConfig) -> Dict[str, Any]:
    """A trainer rank: the runner's rank loop of ``config.training`` on the
    trainers' subset view (size 1 for one trainer).  Its per-step hook on
    trainer rank 0 ships every ``publish_every_steps``-th version to the
    replicas and announces every other ``announce_every_steps``-th; the
    frontend hears of both.  ``final_loss`` is the last epoch's mean."""
    swap, published = comm.dup(protocol.SWAP_CHANNEL), []

    def publish(version: int, model) -> None:
        if comm.rank != config.publisher_rank:
            return
        if version % config.publish_every_steps == 0:
            # Live storage: each send copies or frames it before returning.
            flat, digest = flatten_parameters(model), model_hash(model)
            for replica in config.replica_ranks:
                protocol.send_weights(swap, replica, version, flat, digest)
            published.append(version)
        elif version % config.announce_every_steps == 0:
            for replica in config.replica_ranks:
                protocol.send_announce(swap, replica, version)
        else:
            return
        protocol.send_announce(swap, config.frontend_rank, version)

    out = _rank_main(
        SubsetCommunicator(comm, config.trainer_ranks),
        *preset_workload(config.training, config.train_steps), None, MSELoss(),
        config.training, False, on_step=publish,
    )
    steps = len(out.step_durations)
    return {
        "rank": comm.rank, "steps": steps, "final_version": steps,
        "published_versions": len(published),
        "final_loss": out.epoch_records[-1].train_loss,
        "model_hash": out.summary.final_model_hash, "role": "trainer",
    }


def _serving_main(
    comm,
    config: ServingConfig,
    workload: Optional[Workload] = None,
    bridge: Optional[_FrontendBridge] = None,
) -> Dict[str, Any]:
    """SPMD entry of the serving world: dispatch on rank into a role."""
    rank = comm.rank
    if rank in config.trainer_ranks:
        return _train(comm, config)
    if rank in config.replica_ranks:
        result = run_replica(comm, config)
        result["role"] = "replica"
        return result

    frontend = Frontend(comm, config).start()
    stats: Optional[Dict[str, Any]] = None
    if bridge is not None:
        bridge.frontend = frontend
        bridge.ready.set()
        bridge.stop.wait()
    elif workload is not None:
        stats = _run_workload(frontend, config, workload)
    report = frontend.shutdown()
    report["role"] = "frontend"
    if stats is not None:
        report["workload"] = stats
    if bridge is not None:
        bridge.report = report
    return report


def _prepared(config: ServingConfig) -> ServingConfig:
    """``config`` validated, with its trainers' ``"auto"`` fusion knobs
    resolved once before the world spawns, as ``train_distributed`` does."""
    config.validate()
    parameters = preset_model(config.training)().num_parameters()
    return replace(config, training=resolve_auto_fusion(config.training, parameters))


def _assemble(config: ServingConfig, results: List[Any]) -> ServingReport:
    frontend = results[config.frontend_rank]
    data = asdict(config)  # JSON-ready: the imbalance objects by their description
    data["training"].update(
        delay_injector=config.training.delay_injector.describe(),
        cost_model=config.training.cost_model and config.training.cost_model.describe(),
    )
    return ServingReport(
        config=data,
        frontend=frontend,
        replicas=[results[r] for r in config.replica_ranks],
        trainers=[results[r] for r in config.trainer_ranks],
        workload=frontend.get("workload"),
    )


def serve(
    config: ServingConfig,
    workload: Optional[Workload] = None,
    timeout: Optional[float] = 300.0,
) -> ServingReport:
    """Launch a serving world, drive it with ``workload``, return the report."""
    config = _prepared(config)
    workload = workload or Workload()
    workload.validate()
    results = launch(
        _serving_main,
        config.world_size,
        config,
        workload,
        backend=config.comm_backend,
        timeout=timeout,
    )
    return _assemble(config, results)


class InferenceServer:
    """Interactive serving handle on the thread backend.

    >>> with InferenceServer(ServingConfig(replicas=2)) as server:
    ...     output, version = server.infer(np.zeros(64))

    The world (trainers, replicas, frontend) runs in a background thread;
    :meth:`submit` and :meth:`infer` hand requests straight to the
    frontend's batcher.  :meth:`stop` (or leaving the ``with`` block)
    drains in-flight work, stops the replicas and stores the final
    :class:`ServingReport` in :attr:`report`.
    """

    def __init__(
        self,
        config: Optional[ServingConfig] = None,
        timeout: Optional[float] = 300.0,
    ) -> None:
        config = config or ServingConfig()
        if config.comm_backend not in (None, "thread"):
            raise ValueError(
                f"InferenceServer requires the thread backend (the bridge is "
                f"an in-process object), got {config.comm_backend!r}"
            )
        config.validate()
        thread = replace(config, comm_backend="thread")
        self.config = _prepared(replace(thread, training=thread.at_layout(config.training)))
        self.report: Optional[ServingReport] = None
        self._timeout = timeout
        self._bridge = _FrontendBridge()
        self._error: Optional[BaseException] = None
        self._results: Optional[List[Any]] = None
        self._thread = threading.Thread(
            target=self._run, name="serving-world", daemon=True
        )

    def _run(self) -> None:
        try:
            self._results = launch(
                _serving_main,
                self.config.world_size,
                self.config,
                None,
                self._bridge,
                backend="thread",
                timeout=self._timeout,
            )
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
            self._bridge.ready.set()

    # ---------------------------------------------------------- lifecycle
    def start(self, ready_timeout: float = 60.0) -> "InferenceServer":
        self._thread.start()
        if not self._bridge.ready.wait(ready_timeout):
            raise RuntimeError("serving world failed to come up in time")
        if self._error is not None:
            raise RuntimeError("serving world crashed on startup") from self._error
        return self

    def stop(self, join_timeout: float = 60.0) -> ServingReport:
        self._bridge.stop.set()
        self._thread.join(join_timeout)
        if self._error is not None:
            raise RuntimeError("serving world crashed") from self._error
        if self._results is None:
            raise RuntimeError("serving world did not shut down in time")
        self.report = _assemble(self.config, self._results)
        return self.report

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._thread.is_alive() or self.report is None:
            self.stop()

    # ----------------------------------------------------------- requests
    @property
    def frontend(self) -> Frontend:
        if self._bridge.frontend is None:
            raise RuntimeError("serving world is not running (call start())")
        return self._bridge.frontend

    def submit(self, inputs: np.ndarray):
        """Admit one request; returns its RequestFuture."""
        return self.frontend.submit(inputs)

    def infer(self, inputs: np.ndarray, timeout: Optional[float] = None):
        """Submit one request and wait; returns ``(output, version)``."""
        timeout = self.config.request_timeout_s if timeout is None else timeout
        return self.submit(inputs).wait(timeout=timeout)
