"""Observability layer: flight recorder, trace export, histograms.

``repro.obs`` is the cross-cutting instrumentation layer of the repo:

* :mod:`repro.obs.recorder` — a low-overhead per-rank **flight recorder**
  (preallocated ring buffer of span/instant/counter/flow events stamped
  with ``perf_counter_ns``; drop-oldest with a dropped-events counter;
  near-zero cost when no recorder is bound).
* :mod:`repro.obs.metrics` — log-bucketed streaming histograms with
  cross-rank merge, and the per-rank straggler attribution read from a
  Chrome trace.
* :mod:`repro.obs.trace` — Chrome trace-event JSON export (loadable in
  Perfetto / ``chrome://tracing``) and a structural schema validator.
* :mod:`repro.obs.collect` — cross-rank collection over the comm fabric:
  clock-offset estimation (ping-pong midpoint) and trace-buffer shipment
  to rank 0 on the ``telemetry`` tag region.
* :mod:`repro.obs.tracecmd` — what ``python -m repro train`` runs: the
  training runner's own loop under a recorder on every rank, collected
  and (with ``--trace PATH``) exported, and a report read back from the
  trace.

The hot paths (communicator send/recv, collective phases, the fused
exchange, the trainer step, the serving tier) consult
:func:`repro.obs.recorder.current` — a thread-local lookup returning
``None`` unless :func:`repro.obs.recorder.bind` installed a recorder on
that thread — so instrumentation costs one attribute lookup per site
when tracing is off.
"""

from repro.obs.recorder import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    bind,
    current,
    instant,
    span,
)
from repro.obs.metrics import LogHistogram, straggler_attribution
from repro.obs.trace import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.collect import (
    estimate_clock_offsets,
    gather_traces,
    telemetry_round_trip,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "bind",
    "current",
    "instant",
    "span",
    "LogHistogram",
    "straggler_attribution",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "estimate_clock_offsets",
    "gather_traces",
    "telemetry_round_trip",
]
