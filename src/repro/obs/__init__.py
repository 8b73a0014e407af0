"""Observability layer: flight recorder, trace export, histograms.

* :mod:`repro.obs.recorder` — the per-rank **flight recorder**, a
  preallocated drop-oldest ring of span / instant / counter / flow events.
  Hot paths call :func:`~repro.obs.recorder.current`, a thread-local
  lookup that is ``None`` unless :func:`~repro.obs.recorder.bind`
  installed a recorder, so a site costs one attribute lookup when off.
* :mod:`repro.obs.metrics` — log-bucketed streaming histograms and the
  per-rank straggler attribution read from a Chrome trace.
* :mod:`repro.obs.trace` — Chrome trace-event JSON export (Perfetto,
  ``chrome://tracing``) and its structural validator.
* :mod:`repro.obs.collect` — clock-offset estimation and shipment of the
  ranks' buffers to rank 0 on the ``telemetry`` tag region.
* :mod:`repro.obs.tracing` — tracing as a switch: inside
  :func:`session`, every world :func:`~repro.comm.backend.launch` starts
  runs each rank under a recorder, and on exit the worlds become one
  Chrome trace with a labelled track per rank of each, plus a report read
  back from that trace alone.  ``python -m repro ROW --trace PATH`` is a
  session around any row.
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
)
from repro.obs.tracing import session, trace_report

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
    "session",
    "trace_report",
]
