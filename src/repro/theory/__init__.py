"""Staleness and quorum bookkeeping for the partial collectives."""

from repro.theory.staleness import StalenessTracker, QuorumTracker

__all__ = ["StalenessTracker", "QuorumTracker"]
