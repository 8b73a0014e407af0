"""Cost-model calibration and fusion auto-tuning.

The LogGP parameters shipped in :mod:`repro.simtime.network` are
Piz-Daint-flavoured guesses: good enough to reproduce the *shape* of the
paper's latency figures, but not comparable in absolute terms with the
thread-backend measurements.  This package closes that gap:

``repro.tuning.calibration``
    Runs ping-pong / reduce / allreduce microbenchmarks on the selected
    communication backend (``"thread"`` or ``"process"``, resolved
    through the :mod:`repro.comm.backend` registry) and
    least-squares-fits ``alpha``, ``beta``, ``gamma`` and
    ``collective_overhead`` into a JSON-cacheable
    :class:`~repro.tuning.calibration.CalibratedProfile` keyed by
    world size and the live backend name.
``repro.tuning.autotune``
    Searches the ``fusion_threshold_bytes x pipeline_chunks`` grid,
    pricing each candidate's buckets as the exchange cuts and runs them
    (:func:`~repro.tuning.autotune.predict_exchange_time`, the LogGP walk
    of their plans under the calibrated parameters; optionally
    cross-checked against live trials)
    and returns a :class:`~repro.tuning.autotune.TunedPlan` per
    (world size, gradient bytes, algorithm).  ``TrainingConfig`` values
    of ``"auto"`` are resolved through this path.
"""

from repro.tuning.calibration import (
    CalibratedProfile,
    CalibrationSample,
    ProfileCacheError,
    calibrate,
    default_cache_dir,
    fit_loggp,
    load_profile,
    profile_path,
)
from repro.tuning.autotune import (
    DEFAULT_CHUNK_GRID,
    DEFAULT_FIXED_THRESHOLD_BYTES,
    DEFAULT_THRESHOLD_GRID,
    TunedPlan,
    autotune,
    predict_exchange_time,
    resolve_auto_fusion,
)

__all__ = [
    "CalibratedProfile",
    "CalibrationSample",
    "ProfileCacheError",
    "calibrate",
    "default_cache_dir",
    "fit_loggp",
    "load_profile",
    "profile_path",
    "DEFAULT_CHUNK_GRID",
    "DEFAULT_FIXED_THRESHOLD_BYTES",
    "DEFAULT_THRESHOLD_GRID",
    "TunedPlan",
    "autotune",
    "predict_exchange_time",
    "resolve_auto_fusion",
]
