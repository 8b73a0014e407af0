"""Shared-memory transport internals (repro.comm.shm_backend).

The cross-backend semantics are covered by the conformance suite
(``tests/test_backend_conformance.py`` parametrizes over ``shm``); this
module tests what is specific to the shm transport: the SPSC ring
(wrap-around, streaming frames larger than the ring, the rewind of an
empty ring to offset 0 and the untearable cursor cells it relies on),
the capability probe / unavailability bookkeeping, segment hygiene
(session sweep, stale-segment sweep keyed on dead PIDs), and the backend
options.
"""

import os
import time

import numpy as np
import pytest

from repro.comm import available_backends, launch
from repro.comm.backend import backend_unavailable_reason

shm_backend = pytest.importorskip("repro.comm.shm_backend")

SHM_AVAILABLE = "shm" in available_backends()

needs_shm = pytest.mark.skipif(
    not SHM_AVAILABLE,
    reason=f"shm backend unavailable: {backend_unavailable_reason('shm')}",
)


def _make_ring(tmp_name, capacity):
    return shm_backend._Ring.create(tmp_name, capacity)


def _tail(ring):
    """The ring's ``tail`` cursor, read from the segment layout (byte 64)."""
    return int.from_bytes(ring._shm.buf[64:72], "little")


def _rss_shmem_bytes():
    """This process's resident shared-memory pages (``None``: not reported)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("RssShmem:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _destroy_ring(ring):
    """Detach and unlink a test ring (its owner PID is alive, so the
    stale sweep deliberately will not touch it)."""
    segment = ring._shm
    ring.detach()
    shm_backend._unlink_segment(segment)


@needs_shm
class TestRing:
    def test_write_read_roundtrip_with_wraparound(self):
        ring = _make_ring(shm_backend._session_name() + "-t1", 4096)
        try:
            payload = np.arange(1024, dtype=np.uint8).tobytes() * 3  # 3072 B
            # Two passes leave the cursors mid-ring, forcing a wrap on
            # the second write.
            for _ in range(3):
                view = memoryview(payload)
                wrote = ring.write_some(view)
                assert wrote == len(payload)
                out = bytearray(len(payload))
                got = ring.read_some(memoryview(out))
                assert got == len(payload)
                assert bytes(out) == payload
            assert ring.readable() == 0
        finally:
            _destroy_ring(ring)

    def test_write_respects_capacity(self):
        ring = _make_ring(shm_backend._session_name() + "-t2", 4096)
        try:
            big = bytes(10_000)
            wrote = ring.write_some(memoryview(big))
            assert wrote == 4096  # only the capacity fits
            out = bytearray(4096)
            assert ring.read_some(memoryview(out)) == 4096
            # Freed space admits the next capacity's worth.
            assert ring.write_some(memoryview(big)[wrote:]) == 4096
        finally:
            _destroy_ring(ring)

    def test_every_burst_starts_at_offset_zero(self):
        capacity, frame = 64 * 1024, 10_000
        ring = _make_ring(shm_backend._session_name() + "-t4", capacity)
        try:
            payload = bytes(range(1, 251)) * (frame // 250)
            out = bytearray(frame)
            for _ in range(200):
                assert ring.write_some(memoryview(payload)) == frame
                assert (_tail(ring) - frame) % capacity == 0
                assert ring.read_some(memoryview(out)) == frame
                assert bytes(out) == payload
            # The pages past the largest burst were never written.
            assert not any(ring._data[frame:])
        finally:
            _destroy_ring(ring)

    def test_rewinds_mid_frame_round_trip_bit_exact(self):
        capacity = 64 * 1024
        ring = _make_ring(shm_backend._session_name() + "-t5", capacity)
        rng = np.random.default_rng(7)
        try:
            payload = rng.integers(0, 256, 3 * capacity, dtype=np.uint8).tobytes()
            out = bytearray(len(payload))
            sent = got = rewinds = 0
            while got < len(payload):
                if sent < len(payload):
                    before = _tail(ring)
                    chunk = int(rng.integers(1, 24 * 1024))
                    wrote = ring.write_some(memoryview(payload)[sent : sent + chunk])
                    rewinds += _tail(ring) - before > wrote
                    sent += wrote
                # Reads drain the ring about half the time, so the next
                # write finds it empty at an odd offset inside the frame.
                drain = rng.random() < 0.5
                want = ring.readable() if drain else int(rng.integers(1, 16 * 1024))
                got += ring.read_some(memoryview(out)[got : got + want])
            assert rewinds > 0
            assert bytes(out) == payload
        finally:
            _destroy_ring(ring)

    def test_cursor_cells_do_not_tear_across_processes(self):
        # Every byte of the two values differs, so a store or load made of
        # narrower pieces shows up as a third value (``struct``'s "<Q"
        # pack/unpack tore about one read in six on a 2-vCPU x86-64 host).
        import multiprocessing

        name = shm_backend._session_name() + "-t6"
        ring = _make_ring(name, 4096)
        values = (0x0123456789ABCDEF, 0xFEDCBA9876543210)
        cursors = ring._cursors
        cursors[shm_backend._HEAD] = cursors[shm_backend._TAIL] = values[0]
        ctx = multiprocessing.get_context("fork")
        started = ctx.Event()

        def store(seconds):
            producer = shm_backend._Ring.attach(name, 4096)
            cells = producer._cursors
            started.set()
            stop = time.perf_counter() + seconds
            while time.perf_counter() < stop:
                for _ in range(500):
                    for value in values:
                        cells[shm_backend._HEAD] = value
                        cells[shm_backend._TAIL] = value
            producer.detach()

        writer = ctx.Process(target=store, args=(0.25,))
        writer.start()
        try:
            assert started.wait(30)
            reads = torn = 0
            seen = set()
            stop = time.perf_counter() + 0.25
            while time.perf_counter() < stop:
                for _ in range(1000):
                    for value in (cursors[shm_backend._TAIL], cursors[shm_backend._HEAD]):
                        if value not in values:
                            torn += 1
                        seen.add(value)
                reads += 2000
            writer.join(30)
            assert writer.exitcode == 0
            assert torn == 0, f"{torn} torn cursor reads of {reads}"
            assert seen == set(values)  # the reader raced the writer
        finally:
            if writer.is_alive():  # pragma: no cover - only on a failed wait
                writer.kill()
            _destroy_ring(ring)

    def test_flags_roundtrip(self):
        ring = _make_ring(shm_backend._session_name() + "-t3", 4096)
        try:
            assert not ring.consumer_waiting and not ring.producer_waiting
            ring.set_consumer_waiting(True)
            ring.set_producer_waiting(True)
            assert ring.consumer_waiting and ring.producer_waiting
            assert not ring.producer_closed and not ring.consumer_closed
            ring.close_producer()
            ring.close_consumer()
            assert ring.producer_closed and ring.consumer_closed
        finally:
            _destroy_ring(ring)


@needs_shm
class TestTransport:
    def test_payload_larger_than_ring_streams_through(self):
        n = 1 << 18  # 2 MiB of float64 through 64 KiB rings

        def worker(comm):
            if comm.rank == 0:
                comm.send(np.arange(n, dtype=np.float64), 1, tag=1)
                return True
            got = comm.recv(source=0, tag=1, timeout=60)
            return bool(np.array_equal(got, np.arange(n, dtype=np.float64)))

        assert all(
            launch(
                worker, 2, backend="shm", timeout=120,
                backend_opts={"ring_bytes": 64 * 1024},
            )
        )

    def test_resident_ring_pages_are_the_bytes_in_flight(self):
        # 100 allreduces of a skew workload's 49 866-element gradient
        # stream 40 MB through each ring of a rank's two recursive-doubling
        # peers; free-running cursors would leave all four 4 MiB rings
        # resident.  A rank computes between exchanges (1 ms here), so
        # each message is a burst of its own: back to back, a consumer
        # that lags lets up to three messages queue on one ring before it
        # next runs empty.
        def worker(comm):
            from repro.collectives.sync import allreduce

            data = np.full(49_866, float(comm.rank))
            for _ in range(100):
                out = allreduce(comm, data, algorithm="recursive_doubling")
                time.sleep(0.001)
            assert out[0] == 6.0
            return _rss_shmem_bytes()

        resident = launch(worker, 4, backend="shm", timeout=120)
        if any(r is None for r in resident):
            pytest.skip("/proc/self/status reports no RssShmem")
        assert max(resident) <= 4 * 1024 * 1024, resident

    def test_majority_exchange_with_epoch_allreduces_finishes(self):
        # The skew_majority shape: a partial exchange's progress threads
        # stream through the rings while the application thread sleeps
        # out uneven compute and, once per epoch, runs a sync allreduce.
        steps, n = 300, 49_866

        def worker(comm):
            from repro.collectives.sync import allreduce
            from repro.training.exchange import PartialExchange

            exchange = PartialExchange(comm, n, mode="majority", seed=5)
            gradient = np.ones(n)
            try:
                for step in range(steps):
                    time.sleep(0.0058 + (0.009 if step % comm.size == comm.rank else 0.0))
                    result = exchange.exchange(gradient)
                    assert 1 <= result.num_active <= comm.size
                    assert np.isfinite(result.gradient).all()
                    if step % 56 == 55:
                        summary = allreduce(
                            comm, np.full(3, float(step)), algorithm="recursive_doubling",
                            average=True,
                        )
                        assert np.array_equal(summary, np.full(3, float(step)))
            finally:
                exchange.close()
            return True

        assert launch(
            worker, 4, backend="shm", timeout=180, default_recv_timeout=60.0
        ) == [True] * 4

    def test_ring_bytes_validated(self):
        with pytest.raises(ValueError, match="ring_bytes"):
            launch(lambda comm: None, 2, backend="shm",
                   backend_opts={"ring_bytes": 16})

    def test_unknown_backend_opt_rejected(self):
        with pytest.raises(TypeError, match="unexpected options"):
            launch(lambda comm: None, 2, backend="shm",
                   backend_opts={"bogus": 1})

    def test_world_size_one_needs_no_segments(self):
        assert launch(lambda comm: comm.size, 1, backend="shm") == [1]


@needs_shm
class TestSegmentHygiene:
    def test_run_leaves_no_segments_behind(self):
        before = {
            f for f in os.listdir("/dev/shm")
            if f.startswith(shm_backend._NAME_PREFIX)
        }
        launch(lambda comm: comm.rank, 3, backend="shm", timeout=60)
        after = {
            f for f in os.listdir("/dev/shm")
            if f.startswith(shm_backend._NAME_PREFIX)
        }
        assert after <= before

    def test_stale_sweep_removes_dead_owner_segments(self, tmp_path):
        # Forge a segment whose embedded launcher PID is certainly dead.
        pid = 2**22 - 1
        while shm_backend._pid_alive(pid):  # pragma: no cover - unlucky host
            pid -= 1
        name = f"{shm_backend._NAME_PREFIX}-{pid}-deadbeef-0to1"
        segment = shm_backend._open_segment(name, create=True, size=4096)
        segment.close()
        removed = shm_backend.sweep_stale_segments()
        assert name in removed
        assert name not in os.listdir("/dev/shm")

    def test_stale_sweep_keeps_live_owner_segments(self):
        name = f"{shm_backend._NAME_PREFIX}-{os.getpid()}-cafef00d-0to1"
        segment = shm_backend._open_segment(name, create=True, size=4096)
        try:
            assert name not in shm_backend.sweep_stale_segments()
            assert name in os.listdir("/dev/shm")
        finally:
            segment.close()
            shm_backend._unlink_segment(segment)

    def test_malformed_names_ignored(self):
        path = f"/dev/shm/{shm_backend._NAME_PREFIX}-notapid-xyz"
        with open(path, "wb") as fh:
            fh.write(b"\0" * 16)
        try:
            assert os.path.basename(path) not in shm_backend.sweep_stale_segments()
        finally:
            os.unlink(path)


class TestAvailabilityBookkeeping:
    def test_probe_agrees_with_registry(self):
        reason = shm_backend._UNAVAILABLE_REASON
        if SHM_AVAILABLE:
            assert reason is None
            assert backend_unavailable_reason("shm") is None
        else:  # pragma: no cover - only on platforms without shm
            assert reason
            assert backend_unavailable_reason("shm") == reason

    def test_mark_backend_unavailable_reports_typed_error(self):
        from repro.comm.backend import (
            BackendUnavailableError,
            _UNAVAILABLE,
            get_backend,
            mark_backend_unavailable,
        )

        mark_backend_unavailable("imaginary-fabric", "no such hardware")
        try:
            assert backend_unavailable_reason("imaginary-fabric") == "no such hardware"
            with pytest.raises(BackendUnavailableError, match="no such hardware"):
                get_backend("imaginary-fabric")
            # Unmarked unknown names keep the plain unknown-name error.
            with pytest.raises(ValueError, match="unknown comm backend"):
                get_backend("definitely-not-registered")
        finally:
            _UNAVAILABLE.pop("imaginary-fabric", None)


@needs_shm
class TestDoorbell:
    def test_ring_then_wait_returns_immediately(self):
        import time

        bell = shm_backend._Doorbell()
        bell.ring()
        start = time.perf_counter()
        bell.wait(1.0)
        assert time.perf_counter() - start < 0.5

    def test_wait_times_out_without_signal(self):
        import time

        bell = shm_backend._Doorbell()
        start = time.perf_counter()
        bell.wait(0.05)
        assert 0.03 <= time.perf_counter() - start < 1.0

    def test_many_rings_drain_in_one_wait(self):
        import time

        bell = shm_backend._Doorbell()
        for _ in range(100):
            bell.ring()
        bell.wait(0.5)
        start = time.perf_counter()
        bell.wait(0.05)  # drained: must time out, not return instantly
        assert time.perf_counter() - start >= 0.03
