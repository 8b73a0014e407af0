"""Tests for :mod:`repro.training.model_sync` and hot-swap versioning.

Covers the three contracts the serving tier leans on:

* :func:`synchronize_model` round-trips across transports — divergent
  replicas end up on the exact average, batch-norm statistics included;
* :func:`model_hash` is stable across ranks and input dtypes (it is the
  cross-rank consistency certificate, so any canonicalisation gap would
  produce false drift alarms);
* :class:`~repro.serving.versioning.WeightStore` hot-swap versions are
  monotonic under concurrent updates.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.comm import available_backends, launch
from repro.nn.layers.norm import BatchNorm
from repro.nn.losses import MSELoss
from repro.nn.models.mlp import HyperplaneMLP
from repro.nn.module import Module
from repro.nn.parameters import assign_flat_parameters, flatten_parameters
from repro.serving.versioning import VersionedWeights, WeightStore
from repro.training.model_sync import model_hash, synchronize_model

BACKENDS = ["thread", "process"]


def _skip_if_unavailable(name: str) -> None:
    if name not in available_backends():
        from repro.comm.backend import backend_unavailable_reason

        pytest.skip(f"backend {name!r} unavailable: {backend_unavailable_reason(name)}")


# ---------------------------------------------------------------------------
# SPMD bodies (module-level: the process backend pickles them)
# ---------------------------------------------------------------------------
def _divergent_sync(comm, input_dim):
    model = HyperplaneMLP(input_dim, seed=1000 + comm.rank)
    before = flatten_parameters(model).copy()
    synchronize_model(comm, model)
    return before, flatten_parameters(model), model_hash(model)


def _hash_of_shared_seed(comm, input_dim):
    model = HyperplaneMLP(input_dim, seed=7)
    return model_hash(model)


class _BNModel(Module):
    def __init__(self, features: int, fill: float) -> None:
        super().__init__()
        self.bn = BatchNorm(features)
        self.bn.running_mean[...] = fill
        self.bn.running_var[...] = 2.0 * fill + 1.0

    def forward(self, x):  # pragma: no cover - structure-only model
        return self.bn(x)


def _bn_sync(comm, features):
    model = _BNModel(features, fill=float(comm.rank))
    synchronize_model(comm, model)
    return model.bn.running_mean.copy(), model.bn.running_var.copy()


# ---------------------------------------------------------------------------
# synchronize_model
# ---------------------------------------------------------------------------
class TestSynchronizeModel:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trip_averages_divergent_replicas(self, backend):
        _skip_if_unavailable(backend)
        world = 3
        results = launch(_divergent_sync, world, 12, backend=backend)
        befores = np.stack([r[0] for r in results])
        expected = befores.mean(axis=0)
        for before, after, digest in results:
            np.testing.assert_allclose(after, expected, rtol=1e-12, atol=1e-12)
        assert len({r[2] for r in results}) == 1
        # The sync actually changed something (the replicas diverged).
        assert not np.allclose(results[0][0], results[0][1])

    def test_averages_batch_norm_statistics(self):
        world = 4
        results = launch(_bn_sync, world, 5, backend="thread")
        want_mean = np.full(5, np.mean(range(world)))
        want_var = 2.0 * want_mean + 1.0
        for mean, var in results:
            np.testing.assert_allclose(mean, want_mean, rtol=1e-12)
            np.testing.assert_allclose(var, want_var, rtol=1e-12)

    def test_noop_without_communicator(self):
        model = HyperplaneMLP(8, seed=3)
        before = model_hash(model)
        synchronize_model(None, model)
        assert model_hash(model) == before


# ---------------------------------------------------------------------------
# model_hash
# ---------------------------------------------------------------------------
class TestModelHash:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stable_across_ranks(self, backend):
        _skip_if_unavailable(backend)
        hashes = launch(_hash_of_shared_seed, 3, 10, backend=backend)
        assert len(set(hashes)) == 1

    def test_stable_across_dtypes(self):
        model = HyperplaneMLP(16, seed=11)
        flat64 = flatten_parameters(model)
        # Assigning a float32 (or fortran-ordered) vector must hash the
        # same as assigning its float64-cast values: the hash is over the
        # canonical contiguous float64 parameters, not the input buffer.
        reference = HyperplaneMLP(16, seed=11)
        assign_flat_parameters(reference, flat64.astype(np.float32).astype(np.float64))
        assign_flat_parameters(model, np.asfortranarray(flat64.astype(np.float32)))
        assert model_hash(model) == model_hash(reference)

    def test_detects_single_parameter_change(self):
        a = HyperplaneMLP(16, seed=5)
        b = HyperplaneMLP(16, seed=5)
        assert model_hash(a) == model_hash(b)
        flat = flatten_parameters(b)
        flat[3] += 1e-9
        assign_flat_parameters(b, flat)
        assert model_hash(a) != model_hash(b)


# ---------------------------------------------------------------------------
# hot-swap version monotonicity
# ---------------------------------------------------------------------------
class TestWeightStoreMonotonicity:
    def test_stale_stage_is_discarded(self):
        model = HyperplaneMLP(4, seed=0)
        n = flatten_parameters(model).size
        store = WeightStore(0)
        assert store.stage(VersionedWeights(3, np.full(n, 3.0)))
        assert not store.stage(VersionedWeights(2, np.full(n, 2.0)))
        assert store.apply_pending(model) == 3
        assert store.applied_version == 3
        # Older than applied: discarded even with no pending set.
        assert not store.stage(VersionedWeights(3, np.full(n, 9.0)))
        assert store.apply_pending(model) is None
        np.testing.assert_array_equal(flatten_parameters(model), np.full(n, 3.0))
        assert store.swaps_discarded == 2

    def test_concurrent_updates_keep_versions_monotonic(self):
        model = HyperplaneMLP(4, seed=0)
        n = flatten_parameters(model).size
        store = WeightStore(0)
        num_writers, versions_per_writer = 4, 50
        start = threading.Barrier(num_writers + 1)

        def writer(w: int) -> None:
            start.wait()
            rng = np.random.default_rng(w)
            versions = rng.permutation(num_writers * versions_per_writer) + 1
            for version in versions[:versions_per_writer]:
                store.stage(VersionedWeights(int(version), np.full(n, float(version))))

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(num_writers)]
        for t in threads:
            t.start()
        applied = []
        start.wait()
        while any(t.is_alive() for t in threads) or True:
            version = store.apply_pending(model)
            if version is not None:
                applied.append(version)
                # The swapped-in parameters match the version exactly:
                # never a torn mix of two parameter sets.
                np.testing.assert_array_equal(
                    flatten_parameters(model), np.full(n, float(version))
                )
            if not any(t.is_alive() for t in threads):
                final = store.apply_pending(model)
                if final is not None:
                    applied.append(final)
                break
        for t in threads:
            t.join()
        assert applied == sorted(applied)
        assert len(set(applied)) == len(applied)
        assert store.applied_version == applied[-1]
        assert store.staleness() >= 0

    def test_older_version_staged_mid_apply_is_discarded(self, monkeypatch):
        """The interleaving the concurrent test hits once in a while, made
        deterministic: an older version arrives while a newer one is being
        assigned; it must be discarded, never applied after it."""
        import repro.nn.parameters as parameters

        model = HyperplaneMLP(4, seed=0)
        n = flatten_parameters(model).size
        store = WeightStore(0)
        staged_mid_apply = []

        def assign_with_late_stage(target, flat):
            staged_mid_apply.append(
                store.stage(VersionedWeights(3, np.full(n, 3.0)))
            )
            assign_flat_parameters(target, flat)

        monkeypatch.setattr(parameters, "assign_flat_parameters", assign_with_late_stage)
        assert store.stage(VersionedWeights(5, np.full(n, 5.0)))
        assert store.apply_pending(model) == 5
        assert staged_mid_apply == [False]
        assert store.apply_pending(model) is None
        assert store.applied_version == 5

    def test_announce_only_staleness(self):
        store = WeightStore(0)
        store.announce(5)
        assert store.staleness() == 5
        assert store.too_stale(4)
        assert not store.too_stale(5)
        assert not store.too_stale(None)
        model = HyperplaneMLP(4, seed=0)
        n = flatten_parameters(model).size
        store.stage(VersionedWeights(5, np.zeros(n)))
        store.apply_pending(model)
        assert store.staleness() == 0
