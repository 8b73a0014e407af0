"""Calibrate :class:`~repro.simtime.network.LogGPParams` to a comm backend.

The default LogGP parameters approximate a Cray Aries interconnect; the
thread backend's "network" is queue handoffs, numpy copies and the GIL,
and the process backend's is loopback TCP — costs that are orders of
magnitude different from each other and from real interconnects.  This
module measures the selected backend directly (``backend=`` on
:func:`calibrate`, resolved through the
:mod:`repro.comm.backend` registry) and fits the four model parameters so
that the LogGP walk of the plans that run
(:func:`~repro.simtime.collective_model.allreduce_time` for one
collective, :func:`repro.tuning.autotune.predict_exchange_time` for a
bucketed exchange) predicts the *measured* latencies, making simtime
predictions and backend measurements comparable in absolute terms.

Measurement design
------------------
The two distributed sweeps share one world of the selected backend
(:func:`measure_world`, one launch, so the contention a real exchange
sees at world size *P* is present in the measurements); the local
sweeps run in the launcher:

* **ping-pong** (in the world) — ranks are paired ``(0,1), (2,3), ...``
  and all pairs bounce a message concurrently; half the round trip
  estimates ``alpha + nbytes * beta``;
* **allreduce** (in the world, after the ping-pong) — full ring
  allreduces across message sizes; the walk :func:`allreduce_time`
  prices the ring plan along one critical path whatever the parameters,
  so it is *linear* in the four of them and each measurement
  contributes one least-squares row (:func:`design_row`);
  ``collective_overhead`` absorbs the fixed cost the point-to-point
  benchmarks cannot see;
* **reduce** (in the launcher) — local timing of the reduction operator
  over ``nbytes`` arrays estimates ``nbytes * gamma``;
* **codec** (in the launcher) — each codec's encode/decode cost
  (:func:`measure_codec_costs`).

The joint weighted least-squares fit (:func:`fit_loggp`) minimises
*relative* error so the 4 KiB samples are not drowned out by the 4 MiB
ones, and clamps the parameters non-negative (a
:class:`~repro.simtime.network.LogGPParams` rejects negative values).

Per-link-class calibration (two-tier fabrics)
---------------------------------------------
The ``hier`` backend's links come in two classes with wildly different
costs: shm rings within a host, sockets between hosts.  One LogGP fit
cannot describe both, so version-3 profiles carry ``link_params`` — the
standard sweep (run under the backend's default single-host topology,
i.e. pure shm) fits the ``"intra"`` class, and a second world — the same
:func:`measure_world`, ping-pong only, under :func:`cross_host_topology`
(every pair straddling a simulated host boundary) — fits the
``"inter"`` class.  The autotuner prices the
hierarchical plans with both — intra-host pairs at ``"intra"``, the
leader ring at ``"inter"`` — to pick per-tier fusion thresholds;
single-tier backends expose the same parameters under both keys.

A profile's JSON is its dataclass's own (``dataclasses.asdict``), cached
under a configurable directory
(``REPRO_TUNING_CACHE_DIR`` or ``~/.cache/repro/tuning``), keyed by
backend and world size, so a training run pays the measurement cost once
per (machine, world size).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simtime.collective_model import allreduce_time
from repro.simtime.network import LogGPParams

#: Serialisation format version; bump when the profile schema changes.
#: Version 2 added measured per-codec transform costs (``codec_costs``);
#: version 3 added per-link-class parameters (``link_params``: separate
#: ``intra``/``inter`` LogGP fits for two-tier fabrics).  Old-version
#: caches are treated as absent and remeasured once.
PROFILE_VERSION = 3

#: The link classes a two-tier profile distinguishes.
LINK_CLASSES = ("intra", "inter")

#: Message sizes (bytes) of the full calibration sweep: 4 KiB - 4 MiB.
DEFAULT_SIZES: Tuple[int, ...] = tuple(4 * 1024 * 4 ** i for i in range(6))
#: Reduced sweep for ``--quick`` runs (CI smoke, auto-resolution).  A
#: strict subset of :data:`DEFAULT_SIZES`, so a cached full profile
#: satisfies a quick request while a quick profile never short-circuits
#: a full calibration.
QUICK_SIZES: Tuple[int, ...] = (4 * 1024, 64 * 1024, 1024 * 1024)

_SAMPLE_KINDS = ("pingpong", "reduce", "allreduce")

#: The allreduce of the calibration sweep: the bandwidth-optimal ring the
#: fused exchange pipelines, whose measured cost curve is the closest to
#: affine in size, so the LogGP family fits it tightest (recursive
#: doubling's full-payload rounds hit a cache knee the model cannot
#: follow).  The fitted parameters apply to every algorithm.
_ALGORITHM = "ring"

#: Extra least-squares weight on allreduce rows: the profile's purpose is
#: to predict collective latency, so those residuals matter most.
_ALLREDUCE_WEIGHT = 3.0


class ProfileCacheError(RuntimeError):
    """A cached profile exists but cannot be read or parsed."""


@dataclass(frozen=True)
class CalibrationSample:
    """One measured data point of a calibration sweep."""

    #: ``"pingpong"``, ``"reduce"`` or ``"allreduce"``.
    kind: str
    #: World size the measurement ran under.
    world_size: int
    #: Payload size in bytes.
    nbytes: int
    #: Measured duration in seconds.
    seconds: float
    #: Allreduce algorithm (empty for ping-pong / reduce samples).
    algorithm: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _SAMPLE_KINDS:
            raise ValueError(f"kind must be one of {_SAMPLE_KINDS}, got {self.kind!r}")
        if self.nbytes < 0:
            raise ValueError(f"message size must be non-negative, got {self.nbytes}")
        if not math.isfinite(self.seconds) or self.seconds <= 0:
            raise ValueError(f"seconds must be finite and positive, got {self.seconds}")


# ---------------------------------------------------------------------------
# least-squares fit
# ---------------------------------------------------------------------------
#: Unit vectors of the parameter space; evaluating the (linear) model at
#: each of them yields the design-matrix row of a measurement.
_BASIS = (
    LogGPParams(alpha=1.0, beta=0.0, gamma=0.0, collective_overhead=0.0),
    LogGPParams(alpha=0.0, beta=1.0, gamma=0.0, collective_overhead=0.0),
    LogGPParams(alpha=0.0, beta=0.0, gamma=1.0, collective_overhead=0.0),
    LogGPParams(alpha=0.0, beta=0.0, gamma=0.0, collective_overhead=1.0),
)


def design_row(sample: CalibrationSample) -> np.ndarray:
    """Coefficients of ``(alpha, beta, gamma, collective_overhead)`` for one sample.

    The cost of every sample kind is linear in the four parameters (an
    allreduce sample is the walk of its one-chunk plan), so the
    predicted time of a sample is ``design_row(sample) @ params_vector``.
    """
    if sample.kind == "pingpong":
        # One-way message: alpha + nbytes * beta.
        return np.array([1.0, float(sample.nbytes), 0.0, 0.0])
    if sample.kind == "reduce":
        # Pure reduction arithmetic: nbytes * gamma.
        return np.array([0.0, 0.0, float(sample.nbytes), 0.0])
    return np.array(
        [
            allreduce_time(sample.nbytes, sample.world_size, sample.algorithm, basis)
            for basis in _BASIS
        ]
    )


def predict_sample(sample: CalibrationSample, params: LogGPParams) -> float:
    """Model-predicted duration of ``sample`` under ``params``."""
    vec = np.array([params.alpha, params.beta, params.gamma, params.collective_overhead])
    return float(design_row(sample) @ vec)


def _solve_clamped(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Non-negative least squares via a one-at-a-time active-set pass.

    The most negative parameter is pinned to zero and the reduced system
    re-solved until the solution is feasible (4 unknowns, so at most 4
    passes).
    """
    free = [True] * a.shape[1]
    solution = np.zeros(a.shape[1])
    for _ in range(a.shape[1]):
        idx = [i for i in range(a.shape[1]) if free[i]]
        if not idx:
            break
        sub, *_ = np.linalg.lstsq(a[:, idx], b, rcond=None)
        solution[:] = 0.0
        solution[idx] = sub
        negative = [i for i in idx if solution[i] < 0]
        if not negative:
            break
        free[min(negative, key=lambda i: solution[i])] = False
        solution[:] = 0.0
    return np.maximum(solution, 0.0)


def _minimax_affine(ns: np.ndarray, ts: np.ndarray) -> Tuple[float, float, float]:
    """Best ``t ~ C + S * n`` fit under *worst-case relative* error.

    Returns ``(C, S, e)`` minimising ``max_i |C + S*n_i - t_i| / t_i``
    subject to ``C, S >= 0``.  The optimum of this tiny linear program
    has at most three active constraints, so it is found exactly by
    enumerating the candidate active sets (point triples with
    alternating residual signs, plus the ``C = 0`` / ``S = 0`` boundary
    pairs) — no solver dependency, fully deterministic.
    """

    def error(c: float, s: float) -> float:
        return float(np.max(np.abs(c + s * ns - ts) / ts))

    candidates: List[Tuple[float, float]] = []
    m = len(ns)
    for i in range(m):
        for j in range(i + 1, m):
            # Boundary optima: one parameter pinned at zero, residuals of
            # the two points equioscillating.
            for si, sj in ((1.0, -1.0), (-1.0, 1.0)):
                b = np.array([ts[i], ts[j]])
                # C = 0 boundary: S*n - t = sign * e * t at both points.
                a = np.array([[ns[i], -si * ts[i]], [ns[j], -sj * ts[j]]])
                try:
                    s, _e = np.linalg.solve(a, b)
                    candidates.append((0.0, float(s)))
                except np.linalg.LinAlgError:
                    pass
                # S = 0 boundary: C - t = sign * e * t at both points.
                a = np.array([[1.0, -si * ts[i]], [1.0, -sj * ts[j]]])
                try:
                    c, _e = np.linalg.solve(a, b)
                    candidates.append((float(c), 0.0))
                except np.linalg.LinAlgError:
                    pass
            for k in range(j + 1, m):
                # Interior optima: three points, alternating signs.
                for signs in ((1.0, -1.0, 1.0), (-1.0, 1.0, -1.0)):
                    a = np.array(
                        [
                            [1.0, ns[i], -signs[0] * ts[i]],
                            [1.0, ns[j], -signs[1] * ts[j]],
                            [1.0, ns[k], -signs[2] * ts[k]],
                        ]
                    )
                    b = np.array([ts[i], ts[j], ts[k]])
                    try:
                        c, s, _e = np.linalg.solve(a, b)
                    except np.linalg.LinAlgError:
                        continue
                    candidates.append((float(c), float(s)))
    # Least-squares seed covers the degenerate cases (m < 3, collinear).
    a = np.stack([1.0 / ts, ns / ts], axis=1)
    seed = _solve_clamped(a, np.ones_like(ts))
    candidates.append((float(seed[0]), float(seed[1])))

    best = None
    for c, s in candidates:
        if c < 0 or s < 0 or not np.isfinite(c) or not np.isfinite(s):
            continue
        e = error(c, s)
        if best is None or e < best[2]:
            best = (c, s, e)
    return best if best is not None else (0.0, 0.0, float("inf"))


def fit_loggp(samples: Sequence[CalibrationSample]) -> LogGPParams:
    """Fit the four LogGP parameters to a calibration sweep.

    Two stages:

    1. A joint least-squares solve over *all* rows, scaled by
       ``1 / seconds`` so it minimises relative residuals (the sweep
       spans three decades of absolute time), with allreduce rows
       up-weighted by ``_ALLREDUCE_WEIGHT``.  On self-consistent
       (synthetic) samples this recovers the generating parameters
       exactly and stage 2 cannot improve on it.
    2. When every allreduce sample shares one (world size, algorithm) —
       the shape :func:`calibrate` produces — the model restricted to
       those rows is *affine in the message size*: ``t = C + S*n`` with
       ``C = a*alpha + collective_overhead`` and ``S = k*(beta+gamma)``.
       The exact minimax-relative affine fit (:func:`_minimax_affine`)
       pins ``(C, S)`` to the Chebyshev optimum, and the stage-1
       solution's ping-pong/reduce-informed ratios split ``C`` between
       ``alpha`` and ``collective_overhead`` and ``S`` between ``beta``
       and ``gamma``.  The stage whose worst allreduce error is smaller
       wins.

    Stage 2 is what makes the fitted model track the measured allreduce
    latency across the full size range even though the thread backend's
    cost curve has a cache knee an affine model cannot follow: the
    Chebyshev fit spreads the knee's error evenly instead of sacrificing
    the tail.
    """
    if len(samples) < 4:
        raise ValueError(f"need at least 4 samples to fit 4 parameters, got {len(samples)}")
    rows = np.stack([design_row(s) for s in samples])
    target = np.array([s.seconds for s in samples])
    is_allreduce = np.array([s.kind == "allreduce" for s in samples])
    weights = np.where(is_allreduce, _ALLREDUCE_WEIGHT, 1.0) / target
    joint = _solve_clamped(rows * weights[:, None], target * weights)

    def allreduce_error(vec: np.ndarray) -> float:
        if not is_allreduce.any():
            return float(np.max(np.abs(rows @ vec - target) / target))
        pred = rows[is_allreduce] @ vec
        meas = target[is_allreduce]
        return float(np.max(np.abs(pred - meas) / meas))

    best = joint
    ar_samples = [s for s in samples if s.kind == "allreduce"]
    shapes = {(s.world_size, s.algorithm) for s in ar_samples}
    if len(ar_samples) >= 2 and len(shapes) == 1:
        ar_rows = rows[is_allreduce]
        ns = np.array([float(s.nbytes) for s in ar_samples])
        # t = (a*alpha + d*overhead) + (kb*beta + kg*gamma) * n: the
        # per-message counts a, d and per-byte factors kb, kg are
        # size-independent for a fixed (world size, algorithm) shape.
        a_coeff = float(ar_rows[0, 0])
        d_coeff = float(ar_rows[0, 3])
        kb = float(ar_rows[0, 1] / max(ns[0], 1.0))
        kg = float(ar_rows[0, 2] / max(ns[0], 1.0))
        affine_shape = (
            np.all(ns > 0)
            and np.allclose(ar_rows[:, 0], a_coeff)
            and np.allclose(ar_rows[:, 3], d_coeff)
            and np.allclose(ar_rows[:, 1], kb * ns)
            and np.allclose(ar_rows[:, 2], kg * ns)
            and d_coeff > 0
        )
        if affine_shape and kb + kg > 0:
            c, s, _e = _minimax_affine(ns, target[is_allreduce])
            split = joint[1] + joint[2]
            beta_share = joint[1] / split if split > 0 else 0.5
            denom = kb * beta_share + kg * (1.0 - beta_share)
            if denom <= 0:  # the shape only exercises the other parameter
                beta_share = 1.0 if kb > 0 else 0.0
                denom = kb * beta_share + kg * (1.0 - beta_share)
            scale = s / denom
            alpha = min(joint[0], c / a_coeff) if a_coeff > 0 else joint[0]
            refined = np.array(
                [
                    alpha,
                    scale * beta_share,
                    scale * (1.0 - beta_share),
                    max(0.0, (c - a_coeff * alpha) / d_coeff),
                ]
            )
            if allreduce_error(refined) < allreduce_error(best):
                best = refined
    return LogGPParams(
        alpha=float(best[0]),
        beta=float(best[1]),
        gamma=float(best[2]),
        collective_overhead=float(best[3]),
    )


def max_relative_error(
    samples: Sequence[CalibrationSample], params: LogGPParams, kind: str = "allreduce"
) -> float:
    """Worst ``|predicted - measured| / measured`` over samples of ``kind``."""
    errors = [
        abs(predict_sample(s, params) - s.seconds) / s.seconds
        for s in samples
        if s.kind == kind
    ]
    return max(errors) if errors else float("nan")


# ---------------------------------------------------------------------------
# microbenchmarks
# ---------------------------------------------------------------------------
def _iterations_for(nbytes: int, base: int) -> int:
    """More repetitions for small (noisy, fast) payloads, fewer for huge ones."""
    return max(2, min(4 * base, base * (256 * 1024) // max(nbytes, 1) + base))


def _world_worker(comm, sizes: Sequence[int], base_iterations: int, allreduce: bool):
    """Per rank: the concurrent ping-pong's best one-way time per size (its
    lower partner only), then, with ``allreduce``, every repetition of the
    ring allreduce per size."""
    from repro.collectives.sync import allreduce as ring_allreduce

    pingpong: Dict[int, float] = {}
    partner = comm.rank ^ 1
    active = partner < comm.size
    for size_index, nbytes in enumerate(sizes):
        payload = np.zeros(max(1, nbytes // 8), dtype=np.float64)
        comm.barrier()
        if not active:
            continue
        iterations = _iterations_for(nbytes, base_iterations)
        best = float("inf")
        for it in range(iterations + 1):
            tag = size_index * 10_000 + it
            if comm.rank < partner:
                start = time.perf_counter()
                comm.send(payload, partner, tag=tag)
                comm.recv(source=partner, tag=tag)
                elapsed = (time.perf_counter() - start) / 2.0
                if it > 0:  # first round trip is warmup
                    best = min(best, elapsed)
            else:
                comm.recv(source=partner, tag=tag)
                comm.send(payload, partner, tag=tag)
        if comm.rank < partner:
            pingpong[nbytes] = best
    reductions: Dict[int, List[float]] = {}
    for nbytes in sizes if allreduce else ():
        payload = np.full(max(1, nbytes // 8), float(comm.rank), dtype=np.float64)
        comm.barrier()
        ring_allreduce(comm, payload, algorithm=_ALGORITHM)  # warmup
        times = reductions[nbytes] = []
        for _ in range(_iterations_for(nbytes, base_iterations)):
            start = time.perf_counter()
            ring_allreduce(comm, payload, algorithm=_ALGORITHM)
            times.append(time.perf_counter() - start)
    return pingpong, reductions


def measure_world(
    world_size: int,
    sizes: Sequence[int],
    base_iterations: int,
    backend: Optional[str],
    backend_opts: Optional[Dict] = None,
    allreduce: bool = True,
) -> List[CalibrationSample]:
    """The distributed sweeps, in one ``world_size`` world of ``backend``.

    **Ping-pong:** all pairs exchange simultaneously so the per-message
    cost includes the scheduling (and, on the thread backend, GIL)
    contention a collective at this world size sees; a sample is the
    median over pairs.  **Allreduce** (unless ``allreduce=False``): the
    ranks run ring allreduces in lockstep (each is a full
    synchronisation point), so the completion time of repetition *i* is
    the maximum across ranks of its per-rank duration; a sample is the
    *median* completion over repetitions — minima reward one lucky
    scheduler interleaving, means are dragged by preemption outliers,
    the median is what a training step actually sees.
    ``backend_opts`` is forwarded to the launch (e.g. a ``host_topology``
    that makes every pair an inter-host pair, :func:`cross_host_topology`).
    """
    from repro.comm.backend import launch

    outputs = launch(
        _world_worker, world_size, sizes, base_iterations, allreduce,
        backend=backend, backend_opts=backend_opts,
    )
    samples = []
    for nbytes in sizes:
        times = [pingpong[nbytes] for pingpong, _ in outputs if nbytes in pingpong]
        samples.append(
            CalibrationSample("pingpong", world_size, int(nbytes), float(np.median(times)))
        )
    for nbytes in sizes if allreduce else ():
        per_rank = np.array([reductions[nbytes] for _, reductions in outputs])
        samples.append(
            CalibrationSample(
                "allreduce", world_size, int(nbytes),
                float(np.median(per_rank.max(axis=0))), _ALGORITHM,
            )
        )
    return samples


def measure_reduce(
    sizes: Sequence[int], base_iterations: int = 8, world_size: int = 1
) -> List[CalibrationSample]:
    """Local cost of the reduction operator over ``nbytes`` operands.

    Only sizes of at least 64 KiB are measured (below that the constant
    numpy-dispatch overhead, which the model attributes to ``alpha`` /
    ``collective_overhead``, dominates the per-byte term the sample is
    supposed to estimate).
    """
    samples = []
    for nbytes in sizes:
        if nbytes < 64 * 1024:
            continue
        a = np.random.default_rng(0).normal(size=max(1, nbytes // 8))
        b = np.random.default_rng(1).normal(size=a.size)
        np.add(a, b)  # warmup
        best = float("inf")
        for _ in range(_iterations_for(nbytes, base_iterations)):
            start = time.perf_counter()
            np.add(a, b)
            best = min(best, time.perf_counter() - start)
        samples.append(
            CalibrationSample(
                kind="reduce", world_size=world_size, nbytes=int(nbytes), seconds=best
            )
        )
    return samples


def measure_codec_costs(
    nbytes: int = 1 << 20, base_iterations: int = 4
) -> Dict[str, Dict[str, float]]:
    """Measured encode/decode seconds-per-dense-byte of each codec.

    The class-attribute constants on :class:`~repro.compression.base.
    GradientCodec` are rough numpy-throughput numbers for a commodity
    CPU; this measures the *live* machine (the box the tuning profile
    describes) so the autotuner's compression terms use real transform
    costs.  Costs are per dense byte — the unit the simtime
    :class:`~repro.simtime.collective_model.CompressionModel` charges.

    Every registered codec is measured but the identity (``"none"``):
    its wire path moves the dense buffer untransformed and the model
    charges it nothing.
    """
    from repro.compression import available_codecs, get_codec

    dense = np.random.default_rng(0).standard_normal(max(1, nbytes // 8))
    dense_bytes = float(dense.nbytes)
    costs: Dict[str, Dict[str, float]] = {}
    for name in available_codecs():
        if name == "none":
            continue
        codec = get_codec(name)
        encoded = codec.encode(dense)  # warmup (and the decode operand)
        encode_best = float("inf")
        decode_best = float("inf")
        codec.decode(encoded)  # warmup
        for _ in range(max(2, base_iterations)):
            start = time.perf_counter()
            encoded = codec.encode(dense)
            encode_best = min(encode_best, time.perf_counter() - start)
            start = time.perf_counter()
            codec.decode(encoded)
            decode_best = min(decode_best, time.perf_counter() - start)
        costs[codec.name] = {
            "encode_seconds_per_byte": encode_best / dense_bytes,
            "decode_seconds_per_byte": decode_best / dense_bytes,
        }
    return costs


def cross_host_topology(world_size: int) -> str:
    """A rank -> host spec under which every ping-pong pair crosses hosts.

    The ping-pong pairs ranks ``(0, 1), (2, 3), ...`` (partner =
    ``rank ^ 1``), so alternating host labels put each pair's ranks on
    different hosts: every measured message travels an inter-host link
    of the ``hier`` transport (a loopback socket when the topology is
    simulated on one machine, the real fabric across machines).
    """
    return ",".join(str(r % 2) for r in range(world_size))


# ---------------------------------------------------------------------------
# profiles and the cache
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CalibratedProfile:
    """Fitted LogGP parameters for one (backend, world size) pair."""

    backend: str
    world_size: int
    params: LogGPParams
    #: Allreduce algorithm the calibration sweep measured.
    algorithm: str
    #: The raw measurements the fit was computed from.
    samples: Tuple[CalibrationSample, ...] = ()
    #: Worst relative error of the fitted model on the allreduce samples.
    max_rel_error: float = float("nan")
    #: Live-measured codec transform costs on this machine, keyed by
    #: codec name: ``{"fp16": {"encode_seconds_per_byte": ...,
    #: "decode_seconds_per_byte": ...}, ...}`` (see
    #: :func:`measure_codec_costs`).  Used by :meth:`compression_model`
    #: so the autotuner charges measured — not hardcoded — costs.
    codec_costs: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per-link-class parameters of a two-tier fabric, keyed by
    #: :data:`LINK_CLASSES` (``"intra"``/``"inter"``).  Single-tier
    #: backends store ``params`` under both keys (or leave the dict
    #: empty — :meth:`link` falls back to ``params``), so every profile
    #: answers per-tier queries.
    link_params: Dict[str, LogGPParams] = field(default_factory=dict)
    version: int = PROFILE_VERSION

    def link(self, link_class: str) -> LogGPParams:
        """Parameters of one link class (``params`` when unmeasured)."""
        if link_class not in LINK_CLASSES:
            raise ValueError(
                f"unknown link class {link_class!r}; expected one of {LINK_CLASSES}"
            )
        return self.link_params.get(link_class, self.params)

    @property
    def is_two_tier(self) -> bool:
        """Whether the intra and inter tiers were measured separately."""
        return self.link("intra") != self.link("inter")

    def compression_model(self, codec):
        """Cost-model view of ``codec`` with this machine's measured costs.

        Falls back to the codec's class-attribute constants for any
        codec the profile has no measurement for (e.g. one registered
        after the profile was cached).
        """
        model = codec.cost_model()
        measured = (self.codec_costs or {}).get(codec.name)
        if not measured:
            return model
        return replace(
            model,
            encode_seconds_per_byte=float(measured["encode_seconds_per_byte"]),
            decode_seconds_per_byte=float(measured["decode_seconds_per_byte"]),
        )

    @classmethod
    def from_dict(cls, data: Dict) -> Optional["CalibratedProfile"]:
        """The profile :meth:`save` wrote as ``data``; ``None`` when another
        schema :data:`PROFILE_VERSION` wrote it (checked before anything is
        built, so an old file's fields never matter)."""
        if data.get("version") != PROFILE_VERSION:
            return None
        return cls(**{
            **data,
            "params": LogGPParams(**data["params"]),
            "samples": tuple(CalibrationSample(**s) for s in data["samples"]),
            "link_params": {
                name: LogGPParams(**p) for name, p in data["link_params"].items()
            },
        })

    def save(self, path: Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(asdict(self), indent=2, sort_keys=True))
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: Path) -> Optional["CalibratedProfile"]:
        """The profile saved at ``path`` (``None`` for an old schema)."""
        path = Path(path)
        try:
            return cls.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ProfileCacheError(f"cannot read cached profile {path}: {exc}") from exc


def default_cache_dir() -> Path:
    """Profile-cache directory: ``$REPRO_TUNING_CACHE_DIR`` or ``~/.cache/repro/tuning``."""
    env = os.environ.get("REPRO_TUNING_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "tuning"


def profile_path(
    world_size: int, backend: str = "thread", cache_dir: Optional[Path] = None
) -> Path:
    """Cache file of the profile for ``(backend, world_size)``."""
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / f"{backend}-p{world_size}.json"


def load_profile(
    world_size: int, backend: str = "thread", cache_dir: Optional[Path] = None
) -> Optional[CalibratedProfile]:
    """Load a cached profile; ``None`` if absent or written by an old schema.

    A file that exists but cannot be parsed raises
    :class:`ProfileCacheError` — silent recalibration would mask cache
    corruption (the CI smoke job fails on exactly this).
    """
    path = profile_path(world_size, backend, cache_dir)
    if not path.exists():
        return None
    profile = CalibratedProfile.load(path)
    if profile is None:
        return None
    if profile.backend != backend or profile.world_size != world_size:
        raise ProfileCacheError(
            f"cached profile {path} is keyed for "
            f"({profile.backend!r}, P={profile.world_size}), expected "
            f"({backend!r}, P={world_size})"
        )
    return profile


def calibrate(
    world_size: int,
    backend: Optional[str] = None,
    quick: bool = False,
    cache_dir: Optional[Path] = None,
    force: bool = False,
) -> CalibratedProfile:
    """Measure, fit and cache the LogGP profile for one world size.

    Parameters
    ----------
    world_size:
        Ranks of the world the measurements run under (>= 2).
    backend:
        Communication backend the measurements run *on* — the profile is
        keyed by the resolved live handle's name, so ``"thread"`` and
        ``"process"`` profiles cache separately.  ``None`` uses the
        process-wide default backend.
    quick:
        The reduced sweep (:data:`QUICK_SIZES`, 3 base iterations) for CI
        smoke tests and on-the-fly resolution of ``"auto"`` config
        values; otherwise :data:`DEFAULT_SIZES` at 6.
    cache_dir, force:
        Profile-cache location and whether to remeasure despite a cached
        profile being present.
    """
    from repro.comm.backend import get_backend

    # Resolve through the registry and key the cache by the *live*
    # handle's name (not the raw argument): an unknown backend fails here,
    # and a ``None``/default argument still lands in the right cache slot.
    backend = get_backend(backend).name
    if world_size < 2:
        raise ValueError(f"calibration needs world_size >= 2, got {world_size}")
    sizes = QUICK_SIZES if quick else DEFAULT_SIZES
    base_iterations = 3 if quick else 6
    if not force:
        cached = load_profile(world_size, backend, cache_dir)
        # A cache hit must cover the requested sweep: a quick profile
        # (three sizes) must not silently satisfy a full calibration —
        # the 4 KiB - 4 MiB accuracy claim would then go unmeasured.
        if cached is not None and cached.algorithm == _ALGORITHM:
            covered = {s.nbytes for s in cached.samples if s.kind == "allreduce"}
            if set(sizes) <= covered:
                return cached

    world = measure_world(world_size, sizes, base_iterations, backend)
    reduce_samples = measure_reduce(sizes, base_iterations, world_size)
    samples = sorted(world + reduce_samples, key=lambda s: _SAMPLE_KINDS.index(s.kind))
    params = fit_loggp(samples)
    # Per-link-class parameters.  The main sweep above ran the backend's
    # default topology — single-host for ``hier``, i.e. pure shm rings —
    # so its fit IS the intra-host tier.  Two-tier backends additionally
    # measure the inter-host tier: a ping-pong world under a topology
    # whose every pair crosses hosts, fitted with the (link-independent)
    # reduce samples.  Its ``collective_overhead`` has no inter-link
    # anchor (the hierarchical collective arms once, on the intra tier),
    # so it is the intra fit's.  Single-tier backends see the same
    # parameters through both keys.
    link_params = {"intra": params, "inter": params}
    if backend == "hier":
        inter = measure_world(
            world_size, sizes, base_iterations, backend,
            {"host_topology": cross_host_topology(world_size)}, allreduce=False,
        )
        link_params["inter"] = replace(
            fit_loggp(inter + reduce_samples),
            collective_overhead=params.collective_overhead,
        )
    codec_costs = measure_codec_costs(max(sizes), base_iterations)
    profile = CalibratedProfile(
        backend=backend,
        world_size=world_size,
        params=params,
        algorithm=_ALGORITHM,
        samples=tuple(samples),
        max_rel_error=max_relative_error(samples, params),
        codec_costs=codec_costs,
        link_params=link_params,
    )
    profile.save(profile_path(world_size, backend, cache_dir))
    return profile
