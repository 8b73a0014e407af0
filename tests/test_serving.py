"""Tests for the online serving tier (:mod:`repro.serving`).

Unit level: config validation, the dynamic batcher's SLO/backpressure
policy, subset communicators, the serving tag region.  End to end: a
serve-only world returns exact version-0 predictions; a serve-while-train
world hot-swaps weights without dropping requests; an announce-only
trainer drives the bounded-staleness refusal all the way to
:class:`~repro.serving.StaleReplicaError` at the client.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.collectives.sync import allreduce
from repro.comm import ANY_SOURCE, SubsetCommunicator, launch, tags
from repro.nn.models.mlp import HyperplaneMLP
from repro.nn.optim import SGD
from repro.nn.parameters import flatten_gradients, flatten_parameters
from repro.serving import (
    BackpressureError,
    DynamicBatcher,
    InferenceServer,
    ServingConfig,
    StaleReplicaError,
    Workload,
    serve,
)
from repro.serving import protocol
from repro.serving.server import _request_inputs
from repro.training.model_sync import model_hash


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------
class TestServingConfig:
    def test_layout(self):
        cfg = ServingConfig(replicas=3, train_ranks=2)
        assert cfg.world_size == 6
        assert list(cfg.trainer_ranks) == [0, 1]
        assert list(cfg.replica_ranks) == [2, 3, 4]
        assert cfg.frontend_rank == 5
        assert cfg.publisher_rank == 0

    def test_serve_only_has_no_publisher(self):
        cfg = ServingConfig(replicas=2, train_ranks=0)
        assert cfg.publisher_rank is None
        assert cfg.world_size == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replicas": 0},
            {"train_ranks": -1},
            {"max_batch_size": 0},
            {"max_queue_delay_s": -0.1},
            {"max_queue_depth": 0},
            {"max_staleness_versions": -1},
            {"request_timeout_s": 0},
            {"publish_every_steps": 0},
            {"announce_every_steps": 0},
            {"train_ranks": 1, "train_steps": 0},
            {"train_ranks": 4, "train_batch_size": 2},
            {"input_dim": 0},
            {"comm_backend": "no-such-backend"},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises((ValueError, KeyError)):
            ServingConfig(**kwargs).validate()

    def test_describe_mentions_shape(self):
        text = ServingConfig(replicas=2, train_ranks=1).describe()
        assert "2 replica(s)" in text and "train_ranks=1" in text


# ---------------------------------------------------------------------------
# dynamic batcher
# ---------------------------------------------------------------------------
class TestDynamicBatcher:
    def test_dispatches_at_max_batch_size(self):
        b = DynamicBatcher(max_batch_size=3, max_queue_delay_s=10.0, max_queue_depth=16)
        futures = [b.submit(np.array([i])) for i in range(3)]
        start = time.perf_counter()
        batch = b.next_batch()
        assert time.perf_counter() - start < 1.0  # no SLO wait: batch was full
        assert [p.future for p in batch] == futures
        assert b.depth == 0

    def test_dispatches_at_queue_delay(self):
        b = DynamicBatcher(max_batch_size=8, max_queue_delay_s=0.03, max_queue_depth=16)
        b.submit(np.array([1.0]))
        start = time.perf_counter()
        batch = b.next_batch(poll_timeout=1.0)
        waited = time.perf_counter() - start
        assert batch is not None and len(batch) == 1
        assert waited >= 0.02  # held for stragglers until the SLO clock ran out

    def test_partial_batch_keeps_remainder(self):
        b = DynamicBatcher(max_batch_size=2, max_queue_delay_s=0.0, max_queue_depth=16)
        for i in range(5):
            b.submit(np.array([i]))
        sizes = [len(b.next_batch()) for _ in range(3)]
        assert sizes == [2, 2, 1]

    def test_backpressure(self):
        b = DynamicBatcher(max_batch_size=4, max_queue_delay_s=1.0, max_queue_depth=2)
        b.submit(np.zeros(1))
        b.submit(np.zeros(1))
        with pytest.raises(BackpressureError):
            b.submit(np.zeros(1))
        assert b.rejected == 1
        b.next_batch()  # drains the queue
        b.submit(np.zeros(1))  # admitted again

    def test_close_drains_and_refuses(self):
        b = DynamicBatcher(max_batch_size=4, max_queue_delay_s=10.0, max_queue_depth=8)
        b.submit(np.zeros(1))
        drained = b.close()
        assert len(drained) == 1
        with pytest.raises(RuntimeError):
            b.submit(np.zeros(1))
        assert b.next_batch(poll_timeout=0.01) is None

    def test_future_timeout_and_exception(self):
        b = DynamicBatcher(max_batch_size=1, max_queue_delay_s=0.0, max_queue_depth=8)
        future = b.submit(np.zeros(1))
        with pytest.raises(TimeoutError):
            future.wait(timeout=0.01)
        future.set_exception(StaleReplicaError("nope"))
        with pytest.raises(StaleReplicaError):
            future.wait(timeout=0.1)
        done = b.submit(np.zeros(1))
        done.set_result(np.ones(1), 7)
        out, version = done.wait(timeout=0.1)
        assert version == 7 and out[0] == 1.0


# ---------------------------------------------------------------------------
# subset communicator
# ---------------------------------------------------------------------------
def _split_collectives(comm):
    sub = SubsetCommunicator(comm, [0, 1, 2] if comm.rank < 3 else [3, 4])
    # Independent allreduce per subset, concurrently on one fabric.
    total = allreduce(sub, np.array([float(comm.rank)]), average=False)
    sub.barrier()
    return sub.rank, sub.size, float(total[0]), sub.global_ranks


def _wildcard_rejected(comm):
    sub = SubsetCommunicator(comm, [0, 1])
    if comm.rank == 0:
        try:
            sub.recv(source=ANY_SOURCE, timeout=0.1)
        except ValueError:
            return "rejected"
        return "accepted"
    return None


class TestSubsetCommunicator:
    def test_disjoint_subset_collectives_are_independent(self):
        results = launch(_split_collectives, 5, backend="thread")
        for rank in (0, 1, 2):
            view_rank, size, total, members = results[rank]
            assert (view_rank, size) == (rank, 3)
            assert total == 0.0 + 1.0 + 2.0
            assert members == (0, 1, 2)
        for rank in (3, 4):
            view_rank, size, total, members = results[rank]
            assert (view_rank, size) == (rank - 3, 2)
            assert total == 3.0 + 4.0
            assert members == (3, 4)

    def test_wildcard_receive_rejected(self):
        results = launch(_wildcard_rejected, 2, backend="thread")
        assert results[0] == "rejected"

    def test_membership_validation(self):
        class FakeComm:
            rank, size = 0, 4

        with pytest.raises(ValueError):
            SubsetCommunicator(FakeComm(), [1, 2])  # rank 0 not a member
        with pytest.raises(ValueError):
            SubsetCommunicator(FakeComm(), [0, 0])  # duplicate
        with pytest.raises(ValueError):
            SubsetCommunicator(FakeComm(), [0, 9])  # outside world


# ---------------------------------------------------------------------------
# serving tag region
# ---------------------------------------------------------------------------
class TestServingTags:
    def test_region_membership(self):
        for tag in (
            tags.serving_request_tag(0),
            tags.serving_response_tag(123),
            tags.serving_swap_tag(1),
            tags.serving_control_tag(0),
        ):
            region = tags.region_of(tag)
            assert region is not None and region.name == "serving"

    def test_sequence_recycling(self):
        cap = tags.SERVING_REQUEST_CAPACITY
        assert tags.serving_request_tag(cap + 5) == tags.serving_request_tag(5)
        assert tags.serving_response_tag(0) != tags.serving_request_tag(0)

    def test_negative_inputs_raise(self):
        for mint in (
            tags.serving_request_tag,
            tags.serving_response_tag,
            tags.serving_swap_tag,
            tags.serving_control_tag,
        ):
            with pytest.raises(ValueError):
                mint(-1)


# ---------------------------------------------------------------------------
# publishing the live parameter vector
# ---------------------------------------------------------------------------
def _publish_then_train(comm):
    """Rank 0 publishes its live arena and keeps training; rank 1 reads afterwards."""
    swap = comm.dup(protocol.SWAP_CHANNEL)
    if comm.rank == 0:
        model = HyperplaneMLP(8, seed=4)
        optimizer = SGD(model, 0.5)
        flat = flatten_parameters(model)
        published = flat.copy()
        protocol.send_weights(swap, 1, 1, flat, model_hash(model))
        # The trainer's next step, before the replica has looked at the message.
        flatten_gradients(model)[...] = 1.0
        optimizer.step()
        assert not np.array_equal(flat, published)
        comm.send("stepped", 1)
        return published
    assert comm.recv(source=0) == "stepped"
    kind, version, received, digest = swap.recv(source=0, tag=tags.serving_swap_tag(1))
    assert (kind, version) == (protocol.MSG_WEIGHTS, 1)
    assert hashlib.sha256(received).hexdigest()[:16] == digest
    return received


def test_published_version_is_not_changed_by_the_trainers_next_step():
    published, received = launch(_publish_then_train, 2, backend="thread")
    assert np.array_equal(received, published)


# ---------------------------------------------------------------------------
# end to end (thread backend)
# ---------------------------------------------------------------------------
class TestServingEndToEnd:
    def test_serve_only_returns_exact_version0_predictions(self):
        cfg = ServingConfig(
            replicas=2,
            comm_backend="thread",
            input_dim=12,
            max_batch_size=4,
            max_queue_delay_s=0.002,
        )
        reference = HyperplaneMLP(cfg.input_dim, seed=cfg.seed).eval()
        with InferenceServer(cfg) as server:
            for index in range(10):
                x = _request_inputs(cfg, index)
                out, version = server.infer(x)
                assert version == 0
                np.testing.assert_allclose(
                    out, reference.forward(x[None, :])[0], rtol=1e-12
                )
        report = server.report
        assert report.frontend["completed_requests"] == 10
        assert report.versions_served == [0]
        assert sum(r["served_requests"] for r in report.replicas) == 10

    def test_serve_while_train_hot_swaps_without_drops(self):
        cfg = ServingConfig(
            replicas=2,
            train_ranks=1,
            comm_backend="thread",
            input_dim=32,
            max_batch_size=4,
            max_queue_delay_s=0.002,
            train_steps=200,
            train_batch_size=16,
            publish_every_steps=5,
        )
        report = serve(cfg, Workload(num_requests=150, clients=4, timeout_s=60))
        assert report.completed_requests == 150  # no drops across swaps
        assert report.workload["stale_failures"] == 0
        assert report.trainers[0]["final_version"] == 200
        # The replicas ended on published weights, identically.
        assert all(r["swaps_applied"] >= 1 for r in report.replicas)
        versions = report.versions_served
        assert versions and versions == sorted(versions)
        assert versions[-1] > 0  # served version advanced beyond the seed

    def test_trainer_digest_is_that_of_an_unmarked_model(self):
        """The trainer declares its input to be data; what it publishes is
        bit for bit what the full backward pass (every flag true) trains."""
        from repro.data.hyperplane import HyperplaneDataset
        from repro.data.loader import ShardedLoader
        from repro.nn.losses import MSELoss

        cfg = ServingConfig(
            replicas=1,
            train_ranks=1,
            comm_backend="thread",
            input_dim=16,
            train_steps=20,
            train_batch_size=8,
            publish_every_steps=5,
        )
        report = serve(cfg, Workload(num_requests=4, clients=1, timeout_s=60))

        model = HyperplaneMLP(cfg.input_dim, seed=cfg.seed)
        dataset = HyperplaneDataset(
            num_examples=max(4 * cfg.train_batch_size, 256),
            input_dim=cfg.input_dim, noise_std=0.5, seed=cfg.seed,
        )
        loader = ShardedLoader(dataset, cfg.train_batch_size, rank=0, world_size=1, seed=cfg.seed)
        loss_fn, optimizer = MSELoss(), SGD(model, cfg.learning_rate)
        steps = epoch = 0
        while steps < cfg.train_steps:
            for batch in loader.epoch_batches(epoch):
                if steps == cfg.train_steps:
                    break
                model.zero_grad()
                _, grad = loss_fn(model.forward(batch.inputs), batch.targets)
                assert model.backward(grad) is not None
                optimizer.step()
                steps += 1
            epoch += 1
        assert report.trainers[0]["model_hash"] == model_hash(model)

    def test_bounded_staleness_rejection_reaches_client(self):
        # The trainer only ever announces (publish period beyond its
        # lifetime), so the replicas fall behind the announced frontier
        # with no payload to catch up on; K=2 must turn into refusals.
        cfg = ServingConfig(
            replicas=2,
            train_ranks=1,
            comm_backend="thread",
            input_dim=8,
            max_queue_delay_s=0.001,
            max_staleness_versions=2,
            train_steps=20,
            train_batch_size=8,
            publish_every_steps=10_000,
            announce_every_steps=1,
        )
        with InferenceServer(cfg) as server:
            deadline = time.monotonic() + 30.0
            saw_stale = False
            while time.monotonic() < deadline and not saw_stale:
                try:
                    server.infer(np.zeros(cfg.input_dim), timeout=10.0)
                except StaleReplicaError:
                    saw_stale = True
            assert saw_stale, "bounded-staleness refusal never reached the client"
        report = server.report
        assert report.frontend["stale_failures"] >= 1
        assert any(r["rejected_batches"] >= 1 for r in report.replicas)
        assert all(r["applied_version"] == 0 for r in report.replicas)

    def test_interactive_server_observes_version_advance(self):
        cfg = ServingConfig(
            replicas=1,
            train_ranks=1,
            comm_backend="thread",
            input_dim=32,
            max_queue_delay_s=0.001,
            train_steps=400,
            train_batch_size=16,
            publish_every_steps=2,
        )
        observed = []
        with InferenceServer(cfg) as server:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                _, version = server.infer(np.zeros(cfg.input_dim), timeout=10.0)
                observed.append(version)
                if version >= cfg.train_steps:
                    break
        assert observed == sorted(observed)  # versions never move backwards
        assert observed[-1] > 0
        assert server.report.replicas[0]["swaps_applied"] >= 1

    def test_concurrent_submitters_all_complete(self):
        cfg = ServingConfig(
            replicas=2,
            comm_backend="thread",
            input_dim=8,
            max_batch_size=8,
            max_queue_delay_s=0.002,
            max_queue_depth=512,
        )
        with InferenceServer(cfg) as server:
            results = []
            errors = []

            def client(c):
                try:
                    for i in range(20):
                        out, version = server.infer(np.full(8, float(c)))
                        results.append((c, version))
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(c,)) for c in range(5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert len(results) == 100
        assert server.report.frontend["completed_requests"] == 100


@pytest.mark.slow
class TestServingProcessBackend:
    def test_serve_while_train_on_process_backend(self):
        from repro.comm import available_backends

        if "process" not in available_backends():
            pytest.skip("process backend unavailable")
        cfg = ServingConfig(
            replicas=2,
            train_ranks=1,
            comm_backend="process",
            input_dim=16,
            max_batch_size=4,
            max_queue_delay_s=0.002,
            train_steps=30,
            train_batch_size=8,
            publish_every_steps=5,
        )
        report = serve(
            cfg, Workload(num_requests=60, clients=4, timeout_s=120), timeout=240
        )
        assert report.completed_requests == 60
        assert report.versions_served[-1] > 0
