"""Double-buffered, monotonically versioned weights with bounded staleness.

Each replica owns one :class:`WeightStore`.  The replica's collector
stages incoming weight payloads and records version announcements; the
serving loop applies the newest staged version *between* batches, so any
in-flight batch finishes on the weights it started with (double
buffering) and a batch never observes a half-written parameter vector.

Versions are monotonic: staging an older (or equal) version than the one
already applied or staged is a no-op, so replicas converge on the newest
version regardless of message interleaving.

The bounded-staleness knob compares the *announced* frontier against the
*applied* version: the trainer announces every new version cheaply but
ships full weights less often, so a replica can know it is behind without
having the bytes to catch up.  When ``staleness() > K`` the replica
refuses to serve (the frontend re-routes or fails the request) rather
than return predictions from weights more than ``K`` versions old.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs import recorder as _obs


@dataclass(frozen=True)
class VersionedWeights:
    """One immutable published parameter set."""

    version: int
    flat: np.ndarray
    model_hash: str = ""


class WeightStore:
    """Thread-safe staging area for hot-swappable model weights.

    The collector thread calls :meth:`stage` / :meth:`announce`; the
    serving loop calls :meth:`apply_pending` between batches and
    :meth:`staleness` before each one.  Only the newest staged version is
    kept — intermediate versions a slow replica never applied are
    skipped, which is exactly what a converging replica wants.
    """

    def __init__(self, initial_version: int = 0) -> None:
        self._lock = threading.Lock()
        self._applied_version = int(initial_version)
        self._announced_version = int(initial_version)
        self._pending: Optional[VersionedWeights] = None
        #: Number of weight sets actually swapped in via :meth:`apply_pending`.
        self.swaps_applied = 0
        #: Number of staged payloads discarded as stale (version <= applied).
        self.swaps_discarded = 0
        # Stage runs on the replica's collector path; capture the owning
        # rank's recorder at construction rather than per call.
        self._recorder = _obs.current()

    # ------------------------------------------------------------- ingest
    def stage(self, weights: VersionedWeights) -> bool:
        """Record an incoming weight payload; newest version wins.

        Returns ``True`` if the payload became the pending set, ``False``
        if it was discarded as stale.  Also advances the announced
        frontier (a shipped version is implicitly announced).
        """
        with self._lock:
            self._announced_version = max(self._announced_version, weights.version)
            if weights.version <= self._applied_version:
                self.swaps_discarded += 1
                staged = False
            elif self._pending is not None and weights.version <= self._pending.version:
                self.swaps_discarded += 1
                staged = False
            else:
                self._pending = weights
                staged = True
        if self._recorder is not None:
            self._recorder.instant(
                "swap-stage", "serving", version=weights.version, staged=staged
            )
        return staged

    def announce(self, version: int) -> None:
        """Advance the announced-version frontier (no payload)."""
        with self._lock:
            self._announced_version = max(self._announced_version, int(version))

    # -------------------------------------------------------------- apply
    def apply_pending(self, model) -> Optional[int]:
        """Swap the pending weights into ``model`` if any are staged.

        Called between batches only.  Returns the newly applied version,
        or ``None`` if nothing was pending.
        """
        with self._lock:
            pending = self._pending
            self._pending = None
            if pending is not None:
                # Claim the version before the unlocked assignment below: a
                # concurrent ``stage`` of an older version must be discarded
                # now, not staged and applied *after* this newer one.
                self._applied_version = pending.version
                self.swaps_applied += 1
        if pending is None:
            return None
        from repro.nn.parameters import assign_flat_parameters

        assign_flat_parameters(model, pending.flat)
        if self._recorder is not None:
            self._recorder.instant(
                "swap-apply", "serving", version=pending.version
            )
        return pending.version

    # ------------------------------------------------------------- status
    @property
    def applied_version(self) -> int:
        with self._lock:
            return self._applied_version

    @property
    def announced_version(self) -> int:
        with self._lock:
            return self._announced_version

    def staleness(self) -> int:
        """Announced versions this store has not yet applied."""
        with self._lock:
            return self._announced_version - self._applied_version

    def too_stale(self, max_staleness_versions: Optional[int]) -> bool:
        """Whether serving should be refused under the bounded-staleness knob."""
        if max_staleness_versions is None:
            return False
        return self.staleness() > max_staleness_versions
