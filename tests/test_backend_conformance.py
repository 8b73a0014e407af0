"""Cross-backend conformance suite: one contract, every transport.

Every registered communication backend must provide the same SPMD
semantics through :func:`repro.comm.launch`: MPI-like point-to-point
messaging with tag/source matching, the channel system (dynamic
sub-channels included), the synchronous and partial collectives, and the
``WorldError`` failure contract.  The tests below parametrize the core
behaviours over ``["thread", "process", "shm", "tcp", "hier"]`` so a new
transport (or a regression in an existing one) is caught by a single
suite; the shm-based transports (``shm`` and the hierarchical ``hier``)
are skip-marked on platforms whose capability probe rejected them (no
POSIX shared memory / no fork).  The ``tcp`` backend runs here in its
single-launcher shape (ephemeral loopback seed) and ``hier`` under its
default single-host topology; :class:`TestMixedFabric` adds the
topologies that mix rings and sockets and the two-launcher ``tcp``
world, :class:`TestProgressEngine` what the process-model transports
promise about inbound progress (one engine, no transport threads, the
EOF cases, receives landing in place), and :class:`TestFailures` the
hard-crash hygiene contract.

The pickle-safety tests are part of the contract: payloads and results
cross a process boundary on the socket transport, so everything a rank
sends or returns must survive a pickle round-trip.
"""

import gc
import json
import multiprocessing
import os
import pickle
import re
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    AVG,
    MAX,
    MIN,
    PROD,
    SUM,
    CommBackend,
    Message,
    ReduceOp,
    WorldError,
    available_backends,
    default_backend_name,
    get_backend,
    get_op,
    launch,
)
from repro.comm.process_backend import _MAX_HEADER_BYTES
from repro.comm.tags import TAG_REGIONS

BACKENDS = ["thread", "process", "shm", "tcp", "hier"]

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _skip_if_unavailable(name):
    if name not in available_backends():
        from repro.comm.backend import backend_unavailable_reason

        pytest.skip(
            f"backend {name!r} unavailable: {backend_unavailable_reason(name)}"
        )


@pytest.fixture(params=BACKENDS)
def backend(request):
    _skip_if_unavailable(request.param)
    return request.param


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert "thread" in names and "process" in names and "tcp" in names
        # shm (and hier, which rides on it) is platform-gated: either
        # registered, or absent with a recorded reason (and resolving it
        # raises the typed error).
        for gated in ("shm", "hier"):
            if gated not in names:
                from repro.comm.backend import (
                    BackendUnavailableError,
                    backend_unavailable_reason,
                )

                assert backend_unavailable_reason(gated)
                with pytest.raises(BackendUnavailableError):
                    get_backend(gated)

    def test_get_backend_live_handle(self, backend):
        handle = get_backend(backend)
        assert isinstance(handle, CommBackend)
        assert handle.name == backend
        # Resolution is stable: the same live handle every time.
        assert get_backend(backend) is handle

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown comm backend"):
            get_backend("mpi")
        with pytest.raises(ValueError, match="unknown comm backend"):
            launch(lambda comm: None, 2, backend="smoke-signal")

    def test_default_backend_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMM_BACKEND", raising=False)
        assert default_backend_name() == "thread"
        monkeypatch.setenv("REPRO_COMM_BACKEND", "process")
        assert default_backend_name() == "process"
        assert get_backend(None).name == "process"
        monkeypatch.setenv("REPRO_COMM_BACKEND", "bogus")
        with pytest.raises(ValueError, match="bogus"):
            get_backend(None)

    def test_world_size_validated(self, backend):
        with pytest.raises(ValueError, match="world_size"):
            launch(lambda comm: None, 0, backend=backend)

    def test_backend_opts_forwarded_separately_from_fn_kwargs(self):
        import threading

        def worker(comm, suffix):
            return threading.current_thread().name + suffix

        # backend_opts reaches CommBackend.run; **kwargs reaches fn.
        results = launch(
            worker, 2, backend="thread",
            backend_opts={"thread_name_prefix": "conf-rank"},
            suffix="!",
        )
        assert results == ["conf-rank0!", "conf-rank1!"]


# ---------------------------------------------------------------------------
# point-to-point
# ---------------------------------------------------------------------------
def _ring_worker(comm):
    dest = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    comm.send(np.full(32, comm.rank, dtype=np.float64), dest, tag=1)
    got = comm.recv(source=src, tag=1, timeout=30)
    return float(got[0])


class TestPointToPoint:
    def test_results_indexed_by_rank(self, backend):
        assert launch(lambda comm: comm.rank * 10, 4, backend=backend) == [0, 10, 20, 30]

    def test_rank_and_size(self, backend):
        assert launch(lambda comm: (comm.rank, comm.size), 3, backend=backend) == [
            (0, 3), (1, 3), (2, 3),
        ]

    @pytest.mark.parametrize("size", [2, 4])
    def test_ring(self, backend, size):
        assert launch(_ring_worker, size, backend=backend) == [
            float((r - 1) % size) for r in range(size)
        ]

    def test_tag_matching_out_of_order(self, backend):
        def worker(comm):
            if comm.rank == 0:
                comm.send("first", 1, tag=7)
                comm.send("second", 1, tag=8)
                return None
            # Receive in reverse tag order: matching must be by tag, not
            # arrival, with the unmatched message staying queued.
            second = comm.recv(source=0, tag=8, timeout=30)
            first = comm.recv(source=0, tag=7, timeout=30)
            return (first, second)

        assert launch(worker, 2, backend=backend)[1] == ("first", "second")

    def test_any_source_gather(self, backend):
        def worker(comm):
            if comm.rank == 0:
                got = sorted(comm.recv(tag=3, timeout=30) for _ in range(comm.size - 1))
                return got
            comm.send(comm.rank * 11, 0, tag=3)
            return None

        assert launch(worker, 4, backend=backend)[0] == [11, 22, 33]

    def test_send_returns_before_the_recv_is_posted(self, backend):
        """``send`` is eager: it returns before the peer posts its receive,
        which here comes only after a barrier the sender enters after
        sending."""

        def worker(comm):
            if comm.rank == 0:
                comm.send({"k": [1, 2]}, 1, tag=4)
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(source=0, tag=4, timeout=30)

        assert launch(worker, 2, backend=backend, timeout=60)[1] == {"k": [1, 2]}

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_recv_takes_the_communicator_deadline(self, name):
        """``recv()`` gives up after the communicator's default timeout
        with ``CommTimeoutError`` naming source and tag; an explicit
        ``recv(timeout=...)`` still wins."""

        def worker(comm):
            from repro.comm import CommTimeoutError

            peer = 1 - comm.rank
            started = time.monotonic()
            try:
                comm.recv(source=peer, tag=5)
                outcome = "received"
            except CommTimeoutError as exc:
                outcome = str(exc)
            waited = time.monotonic() - started
            time.sleep(0.4)  # longer than the default deadline
            comm.send("late", peer, tag=6)
            return outcome, waited, comm.recv(source=peer, tag=6, timeout=30)

        results = launch(worker, 2, backend=name, default_recv_timeout=0.2, timeout=60)
        for rank, (outcome, waited, late) in enumerate(results):
            assert f"source={1 - rank} tag=5" in outcome
            assert 0.2 <= waited < 10 and late == "late"

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_sync_tag_timeout_names_phase_and_round(self, name):
        """A collective's receive that misses the deadline says which
        phase, round and chunk it starved in, not a bare integer."""

        def worker(comm):
            from repro.comm import CommTimeoutError, tags

            tag = tags.sync_tag(7, 4, 3, 2)
            try:
                comm.recv(source=1 - comm.rank, tag=tag)
            except CommTimeoutError as exc:
                return str(exc)
            return "received"

        results = launch(worker, 2, backend=name, default_recv_timeout=0.2, timeout=60)
        for outcome in results:
            assert "(sync-collectives: epoch 7, phase 4, round 3, chunk 2)" in outcome

    def test_poll(self, backend):
        def worker(comm):
            if comm.rank == 0:
                comm.send(5, 1, tag=9)
                return True
            # Delivery may be asynchronous (socket transport): poll until
            # the message lands, bounded by a deadline.
            deadline = time.monotonic() + 30
            while (got := comm.poll(tag=9)) is None:
                if time.monotonic() > deadline:
                    return False
                time.sleep(0.001)
            return got == 5 and comm.poll(tag=8) is None and comm.poll(tag=9) is None

        assert all(launch(worker, 2, backend=backend))

    def test_same_rank_send_wakes_a_blocked_receiver(self, backend):
        """A receiver asleep on the transport's wake source (not on the
        mailbox condition) must hear a local delivery from another
        thread of its own rank at once, not a park slice later."""

        def worker(comm):
            latencies = []
            for tag in range(5):
                sent_at = []

                def sender():
                    time.sleep(0.02)  # the receiver is asleep by now
                    sent_at.append(time.perf_counter())
                    comm.send("wake", comm.rank, tag=tag)

                thread = threading.Thread(target=sender)
                thread.start()
                comm.recv(source=comm.rank, tag=tag, timeout=30)
                latencies.append(time.perf_counter() - sent_at[0])
                thread.join(timeout=30)
            return sorted(latencies)[len(latencies) // 2]

        assert max(launch(worker, 2, backend=backend)) < 0.005

    def test_send_copy_isolation(self, backend):
        def worker(comm):
            if comm.rank == 0:
                data = np.zeros(8)
                comm.send(data, 1, tag=2)
                data[:] = 99  # mutation after send must not be visible
                return None
            return float(np.max(np.abs(comm.recv(source=0, tag=2, timeout=30))))

        assert launch(worker, 2, backend=backend)[1] == 0.0

    def test_barrier(self, backend):
        def worker(comm):
            if comm.rank == 0:
                time.sleep(0.05)
            comm.barrier()
            comm.barrier()
            return comm.rank

        assert launch(worker, 4, backend=backend) == [0, 1, 2, 3]

    @pytest.mark.parametrize("name", ["thread", "process"])
    @pytest.mark.parametrize("sleeper", [0, 1, 2])
    def test_barrier_waits_for_a_sleeping_rank(self, name, sleeper):
        """At P = 3 rank 2 folds into rank 0: whichever rank sleeps, no
        rank leaves the barrier before it wakes."""
        _skip_if_unavailable(name)

        def worker(comm, sleeper):
            woke = None
            if comm.rank == sleeper:
                time.sleep(0.3)
                woke = time.monotonic()
            comm.barrier()
            return woke, time.monotonic()

        results = launch(worker, 3, sleeper, backend=name)
        woke = results[sleeper][0]
        assert all(left >= woke for _, left in results), results

    def test_dup_channel_isolation(self, backend):
        def worker(comm):
            from repro.comm.router import Channel

            lib = comm.dup(Channel.LIB)
            if comm.rank == 0:
                lib.send("lib", 1, tag=0)
                comm.send("app", 1, tag=0)
                return None
            return (comm.recv(source=0, tag=0, timeout=30),
                    lib.recv(source=0, tag=0, timeout=30))

        assert launch(worker, 2, backend=backend)[1] == ("app", "lib")

    def test_dynamic_subchannels(self, backend):
        def worker(comm):
            bucket = comm.dup("lib.bucket3")
            if comm.rank == 0:
                bucket.send(np.arange(4.0), 1, tag=1)
                return None
            return float(bucket.recv(source=0, tag=1, timeout=30)[2])

        assert launch(worker, 2, backend=backend)[1] == 2.0

    def test_unknown_channel_fails_fast(self, backend):
        def worker(comm):
            try:
                comm.dup("bogus").send(1, (comm.rank + 1) % comm.size, tag=0)
            except KeyError:
                return "keyerror"
            return "sent"

        assert launch(worker, 2, backend=backend) == ["keyerror", "keyerror"]


# ---------------------------------------------------------------------------
# payload round-trips
# ---------------------------------------------------------------------------
def _payload_roundtrip_worker(comm, payloads):
    if comm.rank == 0:
        for i, payload in enumerate(payloads):
            comm.send(payload, 1, tag=100 + i)
        return None
    return [comm.recv(source=0, tag=100 + i, timeout=30) for i in range(len(payloads))]


class TestPayloads:
    def test_array_dtype_and_shape_preserved(self, backend):
        payloads = [
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.ones((3, 1, 2), dtype=np.float32),
            np.array(3.25),                      # 0-d
            np.empty((0, 4), dtype=np.float64),  # empty
            np.arange(12).reshape(3, 4).T,       # non-contiguous view
            np.array([True, False]),
            np.array(                            # structured/record dtype
                [(1, 2.5), (3, 4.5)], dtype=[("a", "<i4"), ("b", "<f8")]
            ),
        ]
        got = launch(_payload_roundtrip_worker, 2, payloads, backend=backend)[1]
        for sent, received in zip(payloads, got):
            assert isinstance(received, np.ndarray)
            assert received.dtype == sent.dtype
            assert received.shape == sent.shape
            assert np.array_equal(received, np.ascontiguousarray(sent).reshape(sent.shape))
        assert got[-1]["a"].tolist() == [1, 3]  # field names survive the wire

    def test_object_payloads(self, backend):
        payloads = [
            ("activate", 3, 0),               # activation control tuple
            ("arrival", 2, 5),                # quorum arrival notification
            ("barrier", 0, 1),                # small control tuple
            {"order": [2, 0, 1], "epoch": 4}, # negotiation-style dict
            None,
            "text",
            12345,
        ]
        got = launch(_payload_roundtrip_worker, 2, payloads, backend=backend)[1]
        assert got == payloads

    def test_large_array(self, backend):
        def worker(comm):
            data = np.arange(1 << 17, dtype=np.float64)  # 1 MiB
            if comm.rank == 0:
                comm.send(data * 2, 1, tag=1)
                return True
            got = comm.recv(source=0, tag=1, timeout=60)
            return bool(np.array_equal(got, data * 2))

        assert all(launch(worker, 2, backend=backend))


# ---------------------------------------------------------------------------
# collectives
# ---------------------------------------------------------------------------
def _allreduce_worker(comm, algorithm):
    from repro.collectives.sync import allreduce

    data = np.full(513, comm.rank + 1.0)
    out = allreduce(comm, data, algorithm=algorithm)
    return float(out[0])


class TestCollectives:
    @pytest.mark.parametrize("algorithm", ["ring", "recursive_doubling", "rabenseifner"])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_allreduce(self, backend, algorithm, size):
        expected = float(size * (size + 1) // 2)
        assert launch(_allreduce_worker, size, algorithm, backend=backend) == [
            expected
        ] * size

    def test_allgather_flat_of_a_byte_table(self, backend):
        """Each rank enters with its ring window of a ``uint8`` table (the
        gather of encoded payloads and of Horovod's readiness rows)."""
        def worker(comm):
            from repro.collectives.sharding import allgather_flat, shard_bounds

            table = np.zeros(4 * 5, dtype=np.uint8)
            lo, hi = shard_bounds(table.size, comm.size)[comm.rank]
            table[lo:hi] = 200 - np.arange(lo, hi)
            out = allgather_flat(comm, table)
            return str(out.dtype), out.tolist()

        expected = ("uint8", list(range(200, 180, -1)))
        assert launch(worker, 4, backend=backend) == [expected] * 4

    @pytest.mark.parametrize("mode", ["solo", "majority"])
    def test_partial_allreduce(self, backend, mode):
        def worker(comm):
            from repro.collectives.partial import make_partial_allreduce

            partial = make_partial_allreduce(comm, (64,), mode, seed=1)
            values = []
            for _ in range(3):
                result = partial.reduce(np.ones(64))
                assert 0 <= result.num_active <= comm.size
                values.append(float(result.data[0]))
            partial.close()
            # Every reduced value is an average of >= 0 fresh/stale ones
            # over P; bounded by the number of rounds contributed to.
            return all(0.0 <= v <= 3.0 + 1e-9 for v in values)

        assert all(launch(worker, 4, backend=backend, timeout=120))

    def test_fused_synchronous_exchange(self, backend):
        def worker(comm):
            from repro.training.exchange import SynchronousExchange

            exchange = SynchronousExchange(
                comm,
                algorithm="ring",
                fusion_threshold_bytes=16 * 1024,
                pipeline_chunks=2,
            )
            result = exchange.exchange(np.full(1 << 13, comm.rank + 1.0))
            return float(result.gradient[0]), len(result.bucket_waits)

        expected_avg = (1.0 + 4.0) / 2.0
        for value, buckets in launch(worker, 4, backend=backend, timeout=120):
            assert abs(value - expected_avg) < 1e-12
            assert buckets == (1 << 13) * 8 // (16 * 1024)

    @pytest.mark.parametrize(
        "codec", ["none", "fp16", "bf16", "int8", "topk:ratio=1.0"]
    )
    def test_fused_exchange_with_compression(self, backend, codec):
        """Compressed fused exchange: same contract on every transport.

        Constant-valued buckets make every codec's round trip exact, so
        the averaged gradient can be asserted bit-tight while the wire
        payload (ndarray for reduce-closed codecs, composite tuples for
        int8/topk) crosses the real transport.
        """

        def worker(comm):
            from repro.compression import get_codec
            from repro.training.exchange import SynchronousExchange

            exchange = SynchronousExchange(
                comm,
                algorithm="ring",
                fusion_threshold_bytes=16 * 1024,
                pipeline_chunks=2,
                compression=codec,
            )
            result = exchange.exchange(np.full(1 << 13, comm.rank + 1.0))
            dense_bytes = (1 << 13) * 8
            expected_wire = sum(
                get_codec(codec).wire_bytes(b.num_elements)
                for b in exchange._bucketer.buckets
            )
            return (
                float(np.max(np.abs(result.gradient - 2.5))),
                result.wire_bytes,
                expected_wire,
                dense_bytes,
            )

        for err, wire_bytes, expected_wire, dense in launch(
            worker, 4, backend=backend, timeout=120
        ):
            assert err < 1e-9
            assert wire_bytes == expected_wire
            if codec not in ("none", "topk:ratio=1.0"):
                assert wire_bytes < dense

    @pytest.mark.parametrize("codec", ["fp16", "topk:ratio=0.5"])
    def test_partial_exchange_with_compression(self, backend, codec):
        def worker(comm):
            from repro.training.exchange import PartialExchange

            exchange = PartialExchange(
                comm, 512, mode="solo", compression=codec
            )
            values = []
            for _ in range(3):
                result = exchange.exchange(np.ones(512))
                assert 0 <= result.num_active <= comm.size
                values.append(float(result.gradient[0]))
            exchange.close()
            # Bounded stale accumulation, as in the uncompressed test.
            return all(0.0 <= v <= 3.0 + 1e-6 for v in values)

        assert all(launch(worker, 4, backend=backend, timeout=120))


# ---------------------------------------------------------------------------
# mixed fabric: rings and sockets in one world, two launchers in one world
# ---------------------------------------------------------------------------
#: ``(world size, host_topology)``: two hosts of two ranks (every rank has
#: a ring peer and two socket peers), a rank alone on its host beside a
#: ring pair, and one host per rank (all sockets).
_MIXED_TOPOLOGIES = [(4, "0,0,1,1"), (3, "0,0,1"), (2, "0,1")]

#: One launcher of a two-launcher ``tcp`` world: ``argv = [seed, ranks]``.
_TCP_LAUNCHER_SCRIPT = """
import json, sys
import numpy as np
from repro.comm import launch

def worker(comm):
    from repro.collectives.sync import allreduce
    return float(allreduce(comm, np.full(8, comm.rank + 1.0))[0])

print(json.dumps(launch(
    worker, 4, backend="tcp", timeout=90,
    backend_opts={"seed_addr": sys.argv[1],
                  "local_ranks": [int(r) for r in sys.argv[2].split(",")]},
)))
"""


def _barrier_failure_worker(comm):
    if comm.rank == 0:
        raise RuntimeError("early exit")
    comm.barrier()
    return comm.rank


def _hard_crash_worker(comm):
    """Rank 1 dies without reporting while rank 0 is mid-send to it (a
    payload larger than the ring) and the others wait on it."""
    if comm.rank == 1:
        comm.recv(source=0, tag=1, timeout=60)
        os._exit(7)
    if comm.rank == 0:
        comm.send("go", 1, tag=1)
        for _ in range(8):
            comm.send(np.zeros(1 << 19), 1, tag=2)  # 4 MB each, never received
    comm.recv(source=1, tag=99, timeout=60)


class TestMixedFabric:
    @pytest.fixture(params=_MIXED_TOPOLOGIES, ids=[spec for _, spec in _MIXED_TOPOLOGIES])
    def fabric(self, request):
        _skip_if_unavailable("hier")
        size, spec = request.param
        return size, {"host_topology": spec}

    def test_ring_of_sends(self, fabric):
        size, opts = fabric
        assert launch(_ring_worker, size, backend="hier", backend_opts=opts) == [
            float((r - 1) % size) for r in range(size)
        ]

    def test_tag_matching_out_of_order(self, fabric):
        def worker(comm):
            if comm.rank == 0:
                for peer in range(1, comm.size):
                    comm.send("first", peer, tag=7)
                    comm.send("second", peer, tag=8)
                return None
            second = comm.recv(source=0, tag=8, timeout=30)
            first = comm.recv(source=0, tag=7, timeout=30)
            return (first, second)

        size, opts = fabric
        assert launch(worker, size, backend="hier", backend_opts=opts)[1:] == [
            ("first", "second")
        ] * (size - 1)

    def test_payload_larger_than_ring_crosses_both_link_kinds(self, fabric):
        n = 1 << 19  # 4 MB of float64 through 64 KiB rings and the sockets

        def worker(comm):
            # Every rank sends at once: under "0,0,1,1" the ring of sends
            # alternates ring, socket, ring, socket.
            data = np.arange(n, dtype=np.float64) + comm.rank
            comm.send(data, (comm.rank + 1) % comm.size, tag=1)
            src = (comm.rank - 1) % comm.size
            got = comm.recv(source=src, tag=1, timeout=60)
            return bool(np.array_equal(got, np.arange(n, dtype=np.float64) + src))

        size, opts = fabric
        assert all(
            launch(
                worker, size, backend="hier", timeout=120,
                backend_opts={**opts, "ring_bytes": 64 * 1024},
            )
        )

    def test_hierarchical_allreduce(self, fabric):
        size, opts = fabric
        assert launch(
            _allreduce_worker, size, "hierarchical", backend="hier", backend_opts=opts
        ) == [float(size * (size + 1) // 2)] * size

    def test_dynamic_subchannel(self, fabric):
        def worker(comm):
            bucket = comm.dup("lib.bucket3")
            if comm.rank == 0:
                for peer in range(1, comm.size):
                    bucket.send(np.arange(4.0), peer, tag=1)
                return None
            return float(bucket.recv(source=0, tag=1, timeout=30)[2])

        size, opts = fabric
        assert launch(worker, size, backend="hier", backend_opts=opts)[1:] == [
            2.0
        ] * (size - 1)

    def test_endpoint_exposes_the_topology(self, fabric):
        size, opts = fabric
        expected = tuple(int(h) for h in opts["host_topology"].split(","))
        assert launch(
            lambda comm: comm.router.host_topology.host_of, size,
            backend="hier", backend_opts=opts,
        ) == [expected] * size

    def test_failure_unblocks_barrier(self, fabric):
        # The raising rank's peers are blocked behind both link kinds.
        size, opts = fabric
        with pytest.raises(WorldError) as excinfo:
            launch(
                _barrier_failure_worker, size, backend="hier",
                backend_opts=opts, timeout=90,
            )
        assert isinstance(excinfo.value.failures[0], RuntimeError)

    def test_two_tcp_launchers_join_one_world(self):
        import repro

        with socket.socket() as probe:  # a free port: bind 0, read it, close
            probe.bind(("127.0.0.1", 0))
            seed = f"127.0.0.1:{probe.getsockname()[1]}"
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        launchers = [
            subprocess.Popen(
                [sys.executable, "-c", _TCP_LAUNCHER_SCRIPT, seed, ranks],
                stdout=subprocess.PIPE, env=env, text=True,
            )
            for ranks in ("0,1", "2,3")
        ]
        try:
            outputs = [proc.communicate(timeout=120)[0] for proc in launchers]
        finally:
            for proc in launchers:
                proc.kill()
                proc.wait()
        assert [proc.returncode for proc in launchers] == [0, 0]
        # Each launcher sees results only for the ranks it owns.
        assert json.loads(outputs[0]) == [10.0, 10.0, None, None]
        assert json.loads(outputs[1]) == [None, None, 10.0, 10.0]


# ---------------------------------------------------------------------------
# inbound progress on the process-model transports
# ---------------------------------------------------------------------------
#: Every fabric of the process launcher: sockets only, rings only, mixed.
_PROCESS_FABRICS = [
    ("process", 2, {}),
    ("shm", 2, {"ring_bytes": 256 * 1024}),
    ("tcp", 2, {}),
    ("hier", 4, {"host_topology": "0,0,1,1", "ring_bytes": 256 * 1024}),
]


def _tcp_pair():
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        ours = socket.create_connection(listener.getsockname())
        theirs, _ = listener.accept()
    return ours, theirs


def _frame(payload, tag, channel="app"):
    from repro.comm.process_backend import pack_frame

    head, body = pack_frame(Message(source=1, dest=0, tag=tag, payload=payload), channel)
    return head + bytes(body)


class TestProgressEngine:
    @pytest.fixture(params=_PROCESS_FABRICS, ids=["process", "shm", "tcp", "hier-0,0,1,1"])
    def fabric(self, request):
        name, size, opts = request.param
        _skip_if_unavailable(name)
        return name, size, opts

    @pytest.fixture
    def raw_peer(self):
        """Rank 0's endpoint of a two-rank world whose rank 1 is this
        test, holding the other end of the socket."""
        from repro.comm.communicator import Communicator
        from repro.comm.process_backend import MeshEndpoint, _SocketLink

        endpoint = MeshEndpoint(0, 2)
        ours, theirs = _tcp_pair()
        endpoint.attach(1, _SocketLink(endpoint, 1, ours))
        try:
            yield endpoint, Communicator(endpoint, 0), theirs
        finally:
            theirs.close()
            endpoint.close()

    def test_mutual_flood_does_not_deadlock(self, fabric):
        """Every rank sends several times what a ring or the kernel's
        socket buffers hold before anyone receives: senders must drain
        their own inbound while they wait for room."""
        name, size, opts = fabric
        n, rounds = 1 << 20, 3  # 3 x 8 MiB to every peer

        def worker(comm):
            peers = [p for p in range(comm.size) if p != comm.rank]
            chunk = np.arange(n, dtype=np.float64) + comm.rank
            for i in range(rounds):
                for peer in peers:
                    comm.send(chunk, peer, tag=i)
            ok = True
            for i in range(rounds):
                for peer in peers:
                    got = comm.recv(source=peer, tag=i, timeout=60)
                    ok = ok and got[0] == peer and got[-1] == n - 1 + peer
                    ok = ok and float(got.sum()) == float(chunk.sum()) + n * (peer - comm.rank)
            return bool(ok)

        assert all(launch(worker, size, backend=name, backend_opts=opts, timeout=180))

    def test_no_transport_threads(self, fabric):
        name, size, opts = fabric

        def worker(comm):
            comm.barrier()  # the mesh is built and has carried traffic
            return sorted(t.name for t in threading.enumerate())

        assert launch(worker, size, backend=name, backend_opts=opts) == [
            ["MainThread", f"abort-listener-r{rank}"] for rank in range(size)
        ]

    def test_spawn_start_method(self, fabric):
        """Nothing handed to a rank needs fork: the plan, ring doorbells
        included, pickles; a socket-only world makes its wake source
        inside the rank."""
        name, size, opts = fabric
        assert launch(
            _ring_worker, size, backend=name, timeout=120,
            backend_opts={**opts, "start_method": "spawn"},
        ) == [float((r - 1) % size) for r in range(size)]

    def test_finishing_with_unread_inbound_keeps_what_was_sent(self, fabric):
        """Rank 0 exits while a message it never receives sits in its
        inbound link; what it sent before must still reach rank 1."""
        name, size, opts = fabric
        n = 100_000  # 800 kB: in flight in the link, not yet read by rank 1

        def worker(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=1, timeout=30)
                comm.send(np.arange(n, dtype=np.float64), 1, tag=2)
                time.sleep(0.2)  # rank 1's stray message arrives; nobody reads it
                return None
            if comm.rank == 1:
                comm.send("go", 0, tag=1)
                time.sleep(0.1)
                comm.send(np.zeros(1000), 0, tag=3)  # never received
                time.sleep(0.3)  # rank 0 is gone by now
                return float(comm.recv(source=0, tag=2, timeout=30)[-1])
            return None

        assert launch(worker, size, backend=name, backend_opts=opts)[1] == n - 1.0

    # ----------------------------------------- the three ways a stream ends
    def test_eof_at_a_frame_boundary_is_a_departure(self, raw_peer):
        endpoint, comm, peer = raw_peer
        peer.sendall(_frame(np.arange(4.0), tag=7))
        peer.close()
        assert comm.recv(source=1, tag=7, timeout=10).tolist() == [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(TimeoutError):
            comm.recv(source=1, tag=8, timeout=0.2)
        assert endpoint._departed == {1} and not endpoint._closed
        comm.send("to nobody", 1)  # evaporates, like a send to a finished thread

    @pytest.mark.parametrize("reset", [False, True], ids=["eof", "reset"])
    def test_end_of_stream_inside_a_frame_is_a_departure_too(self, raw_peer, reset):
        endpoint, comm, peer = raw_peer
        frame = _frame(np.arange(1000.0), tag=7)
        peer.sendall(frame[: len(frame) // 2])
        if reset:  # close() with SO_LINGER 0 answers RST instead of FIN
            peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        peer.close()
        with pytest.raises(TimeoutError):
            comm.recv(source=1, tag=7, timeout=0.5)
        # The launcher owns crash detection; the rank itself carries on.
        assert endpoint._departed == {1} and not endpoint._closed

    @pytest.mark.parametrize(
        "garbage",
        [b"\x00\x00\x00\x10" + b"\xff" * 16, b"\xff\xff\xff\xff"],
        ids=["short-header", "absurd-header-length"],
    )
    def test_an_unparseable_header_aborts_the_local_rank(self, raw_peer, garbage):
        from repro.comm.mailbox import MailboxClosed

        endpoint, comm, peer = raw_peer
        peer.sendall(garbage)
        with pytest.raises(MailboxClosed):
            comm.recv(source=1, tag=7, timeout=10)
        assert "corrupted stream from rank 1" in endpoint._abort_reason

    # ------------------------------------------- a frame landing in place
    def test_a_receive_abandoned_mid_body_is_not_written_after(self, raw_peer):
        from repro.comm import CommTimeoutError

        from repro.comm.communicator import Communicator

        endpoint, comm, peer = raw_peer
        frame = _frame(np.arange(10_000.0), tag=7)
        peer.sendall(frame[:4000])  # the header and a start of the body
        out = np.full(10_000, _CANARY)
        with pytest.raises(CommTimeoutError):
            Communicator(endpoint, 0, default_timeout=0.3).recv_into(out, 1, 7)
        landed = out.copy()
        assert np.all(landed[-5000:] == _CANARY)
        peer.sendall(frame[4000:] + _frame(np.ones(3), tag=8))
        second = np.empty(3)
        comm.recv_into(second, 1, 8)  # the stream went on
        assert second.tolist() == [1.0] * 3 and out.tobytes() == landed.tobytes()

    def test_a_frame_claimed_by_one_thread_completes_whoever_pumps(self, raw_peer):
        endpoint, comm, peer = raw_peer
        frame = _frame(np.arange(10_000.0), tag=7)
        peer.sendall(frame[:4000])
        out, got = np.empty(10_000), []
        app = threading.Thread(target=comm.recv_into, args=(out, 1, 7))
        app.start()
        time.sleep(0.1)  # the app thread claimed the frame and starved mid-body
        lib = threading.Thread(target=lambda: got.append(comm.dup("lib").recv(1, 9, 10)))
        lib.start()
        peer.sendall(frame[4000:] + _frame("lib", 9, channel="lib"))
        app.join(timeout=10)
        lib.join(timeout=10)
        assert not app.is_alive() and not lib.is_alive()
        assert np.array_equal(out, np.arange(10_000.0)) and got == ["lib"]

    @pytest.mark.parametrize(
        "name, size, opts",
        [("process", 2, {}), ("shm", 2, {}), ("hier", 2, {})],
        ids=["process", "shm", "hier"],
    )
    def test_steady_state_exchange_receives_in_place(self, name, size, opts):
        """50 fused exchange steps at the bulk shape (ring, 1 MiB buckets,
        two chunks, a 4.2 MB gradient): after step 1, at least 95 % of the
        array frames land straight in the gradient instead of a staging
        buffer."""
        _skip_if_unavailable(name)
        steps = 50

        def worker(comm):
            from repro.training.exchange import SynchronousExchange

            exchange = SynchronousExchange(
                comm, algorithm="ring", fusion_threshold_bytes=1 << 20, pipeline_chunks=2,
            )
            gradient = np.empty(529_730)
            for step in range(steps):
                gradient[:] = comm.rank + 1.0
                exchange.exchange(gradient)
                if step == 0:
                    first = comm.router.stats()
            assert np.all(gradient == (size + 1) / 2)
            last = comm.router.stats()
            return {key: last[key] - first[key] for key in ("frames_in_place", "frames_staged")}

        for counts in launch(worker, size, backend=name, backend_opts=opts, timeout=180):
            frames = counts["frames_in_place"] + counts["frames_staged"]
            # 5 buckets x (scatter, gather) x 2 chunks, every step.
            assert frames == (steps - 1) * 5 * 2 * 2
            assert counts["frames_in_place"] >= 0.95 * frames, counts


# ---------------------------------------------------------------------------
# receiving into caller memory, on every fabric
# ---------------------------------------------------------------------------
#: Every fabric: threads, sockets only, rings only, the tcp launcher, mixed.
_ALL_FABRICS = [("thread", 2, {}), *_PROCESS_FABRICS]

_CANARY = -7.25


def _ring_peers(comm):
    return (comm.rank - 1) % comm.size, (comm.rank + 1) % comm.size


def _guard_band_worker(comm):
    """Receive three segments from the ring predecessor into windows of a
    canary-filled buffer: one contiguous (read straight in), one combined
    with SUM, one strided; nothing outside the windows may change."""
    from repro.comm import SUM

    n, guard = 1000, 16
    pred, succ = _ring_peers(comm)
    for tag in (1, 2, 3):
        comm.send(np.arange(n, dtype=np.float64) + comm.rank, succ, tag=tag)
    windows = [
        (slice(guard, guard + n), None, 0.0),
        (slice(2 * guard + n, 2 * guard + 2 * n), SUM, 1.0),
        (slice(3 * guard + 2 * n, 3 * guard + 4 * n, 2), None, 0.0),
    ]
    buf = np.full(4 * n + 4 * guard, _CANARY)
    expected = buf.copy()
    for tag, (window, op, start) in enumerate(windows, 1):
        if op is not None:
            buf[window] = start
        comm.recv_into(buf[window], pred, tag, op=op)
        expected[window] = np.arange(n) + pred + start
    return buf.tobytes() == expected.tobytes()


def _mismatch_worker(comm):
    pred, succ = _ring_peers(comm)
    comm.send(np.ones(5, dtype=np.float32), succ, tag=1)
    comm.send(np.ones(6), succ, tag=2)
    comm.send(np.arange(5.0), succ, tag=3)
    out = np.full(5, _CANARY)
    errors = []
    for tag in (1, 2):
        try:
            comm.recv_into(out, pred, tag)
        except ValueError as exc:
            errors.append(str(exc))
    untouched = bool(np.all(out == _CANARY))
    comm.recv_into(out, pred, 3)  # the stream is intact
    return errors, untouched, out.tolist()


def _staged_worker(comm):
    pred, succ = _ring_peers(comm)
    data = np.arange(300.0) * (comm.rank + 1)
    comm.send(data, succ, tag=1)
    comm.send("go", succ, tag=2)
    comm.recv(source=pred, tag=2, timeout=30)  # pumping for this staged tag 1
    comm.send(data, succ, tag=3)
    staged, direct = np.empty(300), np.empty(300)
    comm.recv_into(staged, pred, 1)
    comm.recv_into(direct, pred, 3)
    stats = getattr(comm.router, "stats", dict)()
    return staged.tobytes() == direct.tobytes(), stats.get("frames_staged", 1)


def _concurrent_worker(comm):
    """A second application thread runs synchronous allreduces (receives
    into place on its channel) while the partial allreduce's progress
    thread receives on the library channels."""
    from repro.collectives.partial import make_partial_allreduce
    from repro.collectives.sync import allreduce

    sync_comm = comm.dup("app.sync")
    sums = []

    def app_thread():
        for _ in range(10):
            data = np.full(20_000, 1.0)
            sums.append(float(allreduce(sync_comm, data, algorithm="ring", n_chunks=2)[0]))

    thread = threading.Thread(target=app_thread)
    thread.start()
    partial = make_partial_allreduce(comm, (4096,), "solo", seed=1)
    try:
        rounds = [partial.reduce(np.ones(4096)).num_active for _ in range(10)]
    finally:
        partial.close()
    thread.join(timeout=60)
    return not thread.is_alive(), sums, len(rounds)


class TestReceiveIntoPlace:
    @pytest.fixture(params=_ALL_FABRICS, ids=["thread", "process", "shm", "tcp", "hier-0,0,1,1"])
    def fabric(self, request):
        name, size, opts = request.param
        _skip_if_unavailable(name)
        return name, size, opts

    def test_writes_exactly_the_window(self, fabric):
        name, size, opts = fabric
        assert all(launch(_guard_band_worker, size, backend=name, backend_opts=opts))

    def test_a_frame_of_another_dtype_or_size_raises_and_writes_nothing(self, fabric):
        name, size, opts = fabric
        for errors, untouched, out in launch(
            _mismatch_worker, size, backend=name, backend_opts=opts
        ):
            assert errors == [
                "received float32 x 5 for a receive into float64 x 5",
                "received float64 x 6 for a receive into float64 x 5",
            ]
            assert untouched and out == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_a_staged_frame_matches_and_equals_an_in_place_one(self, fabric):
        name, size, opts = fabric
        for equal, staged in launch(_staged_worker, size, backend=name, backend_opts=opts):
            assert equal and staged >= 1

    def test_an_app_thread_and_a_progress_thread_both_complete(self, fabric):
        name, size, opts = fabric
        for finished, sums, rounds in launch(
            _concurrent_worker, size, backend=name, backend_opts=opts, timeout=180
        ):
            assert finished and sums == [float(size)] * 10 and rounds == 10


# ---------------------------------------------------------------------------
# the frame codec, piece by piece
# ---------------------------------------------------------------------------
class _Pieces:
    """A link whose ``read_some`` hands ``data`` out in the given piece
    sizes (a 0 starves the parser once), then in whole."""

    def __init__(self, data, sizes):
        self.data, self.sizes, self.pos, self.eof = data, iter(sizes), 0, False

    def read_some(self, view):
        n = min(len(view), next(self.sizes, len(view)), len(self.data) - self.pos)
        view[:n] = self.data[self.pos : self.pos + n]
        self.pos += n
        return n


def _next_frame(frames):
    for _ in range(10_000):
        outcome = next(frames)
        if outcome is not None:
            return outcome
    raise AssertionError("the parser never completed a frame")


_MAX_TAG = max(region.hi for region in TAG_REGIONS) - 1


class TestFrameCodec:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        channel=st.sampled_from(["app", "lib", "activation"]) | st.builds(
            "lib.{}".format, st.text(min_size=1, max_size=12)
        ),
        tag=st.integers(0, _MAX_TAG),
        dtype=st.sampled_from(["<f8", "<f4", "<f2", "<u2", "<i8"]),
        shape=st.lists(st.integers(0, 4), max_size=3).map(tuple),
        pieces=st.lists(st.integers(0, 97), max_size=40),
        in_place=st.booleans(),
    )
    def test_round_trip_in_arbitrary_pieces(
        self, data, channel, tag, dtype, shape, pieces, in_place
    ):
        from types import SimpleNamespace

        from repro.comm.mailbox import Mailbox
        from repro.comm.process_backend import _frames, _Receive

        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * int(np.prod(shape))
        raw = data.draw(st.binary(min_size=nbytes, max_size=nbytes))
        payload = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        control = ("activate", tag, channel)
        stream = _frame(control, 1, channel) + _frame(payload, tag, channel)
        out = np.full(shape, 7, dtype=dtype)
        receive = _Receive(Mailbox(0, channel), out, 1, tag, None) if in_place else None
        frames = _frames(_Pieces(stream, pieces), SimpleNamespace(want=receive))

        message, got_channel = _next_frame(frames)
        assert (message.payload, message.tag, got_channel) == (control, 1, channel)
        outcome = _next_frame(frames)
        if in_place:
            assert outcome is receive and receive.done
            received = out
        else:
            message, got_channel = outcome
            assert (message.tag, message.source, got_channel) == (tag, 1, channel)
            received = message.payload
        assert received.dtype == dtype and received.shape == shape
        assert received.tobytes() == payload.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        need=st.integers(_MAX_HEADER_BYTES + 1, (1 << 32) - 1),
        pieces=st.lists(st.integers(0, 3)),
    )
    def test_an_absurd_length_prefix_aborts_with_its_value(self, need, pieces):
        from types import SimpleNamespace

        from repro.comm.process_backend import _HEADER_LEN, _frames

        frames = _frames(_Pieces(_HEADER_LEN.pack(need), pieces), SimpleNamespace(want=None))
        with pytest.raises(ValueError, match=f"frame header of {need} bytes"):
            _next_frame(frames)

    @settings(max_examples=50, deadline=None)
    @given(code=st.integers(12, 255))
    def test_an_unknown_dtype_code_aborts_with_its_value(self, code):
        from types import SimpleNamespace

        from repro.comm.process_backend import _DTYPES, _frames

        assert len(_DTYPES) == 12
        frame = bytearray(_frame(np.arange(3.0), 5))
        frame[5] = code  # after the 4-byte length prefix and the kind byte
        frames = _frames(_Pieces(bytes(frame), []), SimpleNamespace(want=None))
        with pytest.raises(ValueError, match=f"dtype code {code}"):
            _next_frame(frames)


# ---------------------------------------------------------------------------
# one receive deadline per world
# ---------------------------------------------------------------------------
def _skipped_allreduce_worker(comm):
    """Rank 1 never joins the ring allreduce; the others report how their
    receive gave up and after how long (returned, not raised, so no abort
    wakes anyone before their own deadline)."""
    from repro.collectives.sync import allreduce

    if comm.rank == 1:
        return None
    started = time.monotonic()
    try:
        allreduce(comm, np.ones(64), algorithm="ring")
        outcome = "completed"
    except Exception as exc:  # noqa: BLE001 - the outcome is the result
        outcome = type(exc).__name__
    return outcome, time.monotonic() - started


class TestDeadlines:
    @pytest.mark.parametrize("name", ["thread", "process"])
    @pytest.mark.parametrize("value", [None, 0, -1, float("nan"), float("inf")])
    def test_launch_rejects_a_deadline_that_is_not_finite_and_positive(
        self, name, value, tmp_path
    ):
        def worker(comm):
            (tmp_path / f"rank{comm.rank}").touch()

        with pytest.raises(ValueError, match=re.escape(f"got {value!r}")):
            launch(worker, 2, backend=name, default_recv_timeout=value)
        assert list(tmp_path.iterdir()) == []  # no rank ran

    @pytest.mark.parametrize(
        "fabric", _ALL_FABRICS, ids=["thread", "process", "shm", "tcp", "hier-0,0,1,1"]
    )
    def test_a_collective_waits_on_the_world_deadline(self, fabric):
        name, size, opts = fabric
        _skip_if_unavailable(name)
        deadline = 0.5
        results = launch(
            _skipped_allreduce_worker, size, backend=name, backend_opts=opts,
            default_recv_timeout=deadline, timeout=60,
        )
        outcome, elapsed = results[0]
        assert outcome == "CommTimeoutError"
        assert deadline <= elapsed < deadline + 5.0

    def test_no_collective_barrier_or_telemetry_call_takes_a_timeout(self):
        import inspect

        from repro.collectives import sharding, sync
        from repro.comm import Communicator, CommunicatorLike, SubsetCommunicator
        from repro.obs import collect

        # inspect.unwrap: the cached plan builders are lru_cache wrappers.
        callables = [
            (f"{module.__name__}.{name}", inspect.unwrap(obj))
            for module in (sync, sharding, collect)
            for name, obj in vars(module).items()
            if inspect.isfunction(inspect.unwrap(obj))
            and obj.__module__ == module.__name__
        ]
        callables += [
            (f"{cls.__name__}.{method}", getattr(cls, method))
            for cls in (Communicator, SubsetCommunicator, CommunicatorLike)
            for method in ("barrier", "recv_into")
        ]
        # The scan must reach the entry points it exists to check.
        assert {
            "repro.collectives.sync.allreduce",
            "repro.collectives.sync.run_plan",
            "repro.collectives.sharding.reduce_scatter",
            "repro.collectives.sharding.allgather_flat",
            "repro.obs.collect.gather_traces",
            "Communicator.barrier", "Communicator.recv_into",
            "SubsetCommunicator.barrier", "SubsetCommunicator.recv_into",
            "CommunicatorLike.barrier", "CommunicatorLike.recv_into",
        } <= {name for name, _ in callables}
        offenders = [
            name for name, fn in callables
            if "timeout" in inspect.signature(fn).parameters
        ]
        assert offenders == []


# ---------------------------------------------------------------------------
# failure contract
# ---------------------------------------------------------------------------
class TestFailures:
    def test_world_error_collects_failures(self, backend):
        def worker(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            # Other ranks block on a message that never arrives; the abort
            # must wake them instead of hanging the test.
            try:
                comm.recv(source=1, tag=99, timeout=60)
            except Exception:
                pass
            return comm.rank

        with pytest.raises(WorldError) as excinfo:
            launch(worker, 3, backend=backend, timeout=90)
        assert 1 in excinfo.value.failures
        assert isinstance(excinfo.value.failures[1], ValueError)
        assert "boom" in str(excinfo.value.failures[1])

    def test_failure_unblocks_barrier(self, backend):
        with pytest.raises(WorldError) as excinfo:
            launch(_barrier_failure_worker, 2, backend=backend, timeout=90)
        assert isinstance(excinfo.value.failures[0], RuntimeError)

    @pytest.mark.parametrize("name", ["process", "shm"])
    def test_a_rank_that_reported_gets_the_grace_to_exit(self, name):
        """A non-daemon thread keeps a rank's interpreter alive for ~1 s
        after it returned: the rank is exiting, not hung."""
        _skip_if_unavailable(name)

        def worker(comm):
            threading.Thread(target=time.sleep, args=(1.0,)).start()
            return comm.rank

        assert launch(worker, 2, backend=name, timeout=60) == [0, 1]

    @pytest.mark.parametrize("name", ["process", "shm"])
    def test_a_rank_that_never_exits_is_reaped(self, name, monkeypatch):
        from repro.comm.process_backend import ProcessBackend

        _skip_if_unavailable(name)
        monkeypatch.setattr(ProcessBackend, "abort_grace", 0.3)

        def worker(comm):
            if comm.rank == 1:
                threading.Thread(target=threading.Event().wait).start()
            return comm.rank

        with pytest.raises(WorldError) as excinfo:
            launch(worker, 2, backend=name, timeout=60)
        assert "did not finish" in str(excinfo.value.failures[-1])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "name, opts",
        [
            ("process", {}),
            ("shm", {"ring_bytes": 64 * 1024}),
            ("tcp", {}),
            ("hier", {"ring_bytes": 64 * 1024}),
            ("hier", {"ring_bytes": 64 * 1024, "host_topology": "0,0,1,1"}),
        ],
        ids=["process", "shm", "tcp", "hier", "hier-0,0,1,1"],
    )
    def test_hard_crash_leaves_nothing_behind(self, name, opts):
        """A rank that dies without reporting: prompt ``WorldError``, and
        no segment, child process or launcher fd outlives the world."""
        _skip_if_unavailable(name)
        from repro.comm.process_backend import ProcessCrashError

        def crashed_run():
            start = time.monotonic()
            with pytest.raises(WorldError) as excinfo:
                launch(_hard_crash_worker, 4, backend=name, backend_opts=opts, timeout=90)
            elapsed = time.monotonic() - start
            # Checked here so the exception (whose traceback pins the
            # launcher's frames, process sentinels included) dies with
            # this frame instead of skewing the fd count below.
            assert isinstance(excinfo.value.failures[1], ProcessCrashError)
            return elapsed

        def clean_run():
            assert launch(
                lambda comm: comm.rank, 4, backend=name, backend_opts=opts, timeout=90
            ) == [0, 1, 2, 3]

        def open_fds():
            gc.collect()
            return len(os.listdir("/proc/self/fd"))

        clean_run()  # warm-up: lazy imports and caches open their fds once
        fds_before = open_fds()
        assert crashed_run() < 20.0
        for _ in range(2):
            crashed_run()
        for _ in range(3):
            clean_run()
        assert [
            f for f in os.listdir("/dev/shm")
            if f.startswith(f"repro-shm-{os.getpid()}-")
        ] == []
        assert multiprocessing.active_children() == []
        assert open_fds() == fds_before


# ---------------------------------------------------------------------------
# pickle-safety (process-transport payload contract)
# ---------------------------------------------------------------------------
class TestPickleSafety:
    @pytest.mark.parametrize("op", [SUM, PROD, MAX, MIN, AVG])
    def test_registered_reduce_ops_roundtrip_to_singletons(self, op):
        clone = pickle.loads(pickle.dumps(op))
        assert clone is op  # registered ops deserialise to the registry instance

    def test_reduce_op_by_name_matches_get_op(self):
        for name in ("sum", "prod", "max", "min", "avg"):
            assert pickle.loads(pickle.dumps(get_op(name))) is get_op(name)

    def test_unregistered_reduce_op_roundtrip(self):
        custom = ReduceOp("absmax", np.fmax, 0.0, ufunc=np.fmax)
        clone = pickle.loads(pickle.dumps(custom))
        assert clone is not custom
        assert clone.name == "absmax" and clone.identity == 0.0
        assert np.allclose(clone(np.array([1.0]), np.array([-3.0])), [1.0])

    def test_message_roundtrip(self):
        msg = Message(source=2, dest=0, tag=7, payload=np.arange(5.0), seq=11)
        clone = pickle.loads(pickle.dumps(msg))
        assert (clone.source, clone.dest, clone.tag, clone.seq) == (2, 0, 7, 11)
        assert np.array_equal(clone.payload, msg.payload)

    def test_reduce_op_usable_after_cross_process_trip(self):
        def worker(comm):
            if comm.rank == 0:
                comm.send(SUM, 1, tag=1)
                return True
            op = comm.recv(source=0, tag=1, timeout=30)
            return op is SUM and float(op(np.array([2.0]), np.array([3.0]))[0]) == 5.0

        assert all(launch(worker, 2, backend="process"))
