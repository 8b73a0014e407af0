"""Tests for the message-passing substrate (repro.comm), thread transport."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    ANY_SOURCE,
    ANY_TAG,
    AVG,
    MAX,
    MIN,
    PROD,
    SUM,
    CommTimeoutError,
    Communicator,
    Mailbox,
    MailboxClosed,
    Message,
    Router,
    ThreadWorld,
    WorldError,
    get_op,
    launch,
)
from repro.comm.router import Channel


class TestMessage:
    def test_matches_wildcards(self):
        msg = Message(source=2, dest=0, tag=7, payload=None)
        assert msg.matches(ANY_SOURCE, ANY_TAG)
        assert msg.matches(2, 7)
        assert not msg.matches(1, 7)
        assert not msg.matches(2, 8)

    def test_nbytes(self):
        msg = Message(0, 1, 0, np.zeros(10))
        assert msg.nbytes() == 80
        assert Message(0, 1, 0, "hello").nbytes() == 0


class TestReduceOps:
    def test_sum_prod_max_min(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, -1.0])
        assert np.allclose(SUM(a, b), [4, 1])
        assert np.allclose(PROD(a, b), [3, -2])
        assert np.allclose(MAX(a, b), [3, 2])
        assert np.allclose(MIN(a, b), [1, -1])

    def test_reduce_many_and_identity(self):
        arrays = [np.full(3, i) for i in range(1, 5)]
        assert np.allclose(SUM.reduce_many(arrays), np.full(3, 10))
        assert np.allclose(MAX.identity_like((2,)), [-np.inf, -np.inf])
        with pytest.raises(ValueError):
            SUM.reduce_many([])

    def test_get_op(self):
        assert get_op("sum") is SUM
        assert get_op(AVG) is AVG
        with pytest.raises(ValueError):
            get_op("median")


class TestMailbox:
    def test_fifo_per_key_and_out_of_order_matching(self):
        mb = Mailbox(0, "app")
        mb.put(Message(1, 0, 5, "a"))
        mb.put(Message(2, 0, 6, "b"))
        mb.put(Message(1, 0, 5, "c"))
        assert mb.get(source=2, tag=6, timeout=1).payload == "b"
        assert mb.get(source=1, tag=5, timeout=1).payload == "a"
        assert mb.get(source=1, tag=5, timeout=1).payload == "c"

    def test_timeout(self):
        mb = Mailbox(0, "app")
        with pytest.raises(TimeoutError):
            mb.get(timeout=0.01)

    def test_unmatched_traffic_does_not_extend_the_deadline(self):
        mb = Mailbox(0, "app")
        stop = threading.Event()

        def chatter():
            while not stop.is_set():
                mb.put(Message(1, 0, 9, None))  # wakes the receiver, never matches
                time.sleep(0.01)

        thread = threading.Thread(target=chatter)
        thread.start()
        started = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                mb.get(tag=5, timeout=0.2)
        finally:
            stop.set()
            thread.join(timeout=5)
        assert time.monotonic() - started < 2.0 and not thread.is_alive()

    def test_probe_and_poll(self):
        mb = Mailbox(0, "app")
        assert not mb.probe()
        assert mb.poll() is None
        mb.put(Message(0, 0, 1, "x"))
        assert mb.probe(tag=1)
        assert mb.poll(tag=2) is None
        assert mb.poll(tag=1).payload == "x"

    def test_closed_mailbox(self):
        mb = Mailbox(0, "app")
        mb.close()
        with pytest.raises(MailboxClosed):
            mb.get(timeout=0.01)
        with pytest.raises(MailboxClosed):
            mb.put(Message(0, 0, 0, None))

    def test_close_wakes_blocked_receiver(self):
        mb = Mailbox(0, "app")
        errors = []

        def blocked():
            try:
                mb.get(timeout=5)
            except MailboxClosed:
                errors.append("closed")

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)
        mb.close()
        t.join(timeout=1)
        assert errors == ["closed"]


class TestRouter:
    def test_deliver_and_stats(self):
        router = Router(2)
        comm0 = Communicator(router, 0)
        comm0.send(np.ones(4), dest=1, tag=3)
        assert router.message_count == 1
        assert router.byte_count == 32
        assert router.pending_messages() == 1
        msg = router.mailbox(1, Channel.APP).get(timeout=1)
        assert np.allclose(msg.payload, 1)

    def test_invalid_rank_and_channel(self):
        router = Router(2)
        with pytest.raises(ValueError):
            router.mailbox(5, Channel.APP)
        with pytest.raises(ValueError):
            Router(0)

    def test_dynamic_channels_created_on_first_use(self):
        # "<known>.<suffix>" channels are created lazily (one mailbox per
        # rank) so higher layers can open private lanes per fusion bucket.
        router = Router(2)
        assert "lib.bucket3" not in router.channels
        box = router.mailbox(1, "lib.bucket3")
        assert box.channel == "lib.bucket3"
        assert "lib.bucket3" in router.channels
        # Both ranks share the dynamically created channel.
        assert router.mailbox(0, "lib.bucket3") is not box
        assert router.mailbox(1, "lib.bucket3") is box
        # Typos still fail fast: only suffixes of declared channels are
        # auto-created, never brand-new base names.
        with pytest.raises(KeyError):
            router.mailbox(0, "bogus")
        with pytest.raises(KeyError):
            router.mailbox(0, "activaton.bucket1")

    def test_dynamic_channels_born_closed_after_router_close(self):
        router = Router(2)
        router.close()
        box = router.mailbox(0, "lib.bucket9")
        with pytest.raises(MailboxClosed):
            box.put(Message(source=1, dest=0, tag=0, payload=1))


class TestCommunicator:
    def test_send_copies_arrays(self):
        world = ThreadWorld(2)
        c0, c1 = world.communicator(0), world.communicator(1)
        data = np.zeros(3)
        c0.send(data, dest=1)
        data[:] = 99  # mutation after send must not be visible
        received = c1.recv(source=0, timeout=1)
        assert np.allclose(received, 0)

    def test_recv_waits_for_a_later_send(self):
        world = ThreadWorld(2)
        c0, c1 = world.communicator(0), world.communicator(1)
        with pytest.raises(CommTimeoutError):
            c1.recv(source=0, tag=4, timeout=0.05)
        c0.send({"k": 1}, dest=1, tag=4)
        assert c1.recv(source=0, tag=4, timeout=1) == {"k": 1}
        assert c1.poll(tag=4) is None

    def test_poll(self):
        world = ThreadWorld(2)
        c0, c1 = world.communicator(0), world.communicator(1)
        assert c1.poll() is None
        c0.send(5, dest=1, tag=9)
        assert c1.poll(tag=4) is None
        assert c1.poll(tag=9) == 5
        assert c1.poll(tag=9) is None

    def test_dup_channel_isolation(self):
        world = ThreadWorld(2)
        c0, c1 = world.communicator(0), world.communicator(1)
        lib1 = c1.dup(Channel.LIB)
        c0.dup(Channel.LIB).send("lib", dest=1, tag=0)
        c0.send("app", dest=1, tag=0)
        assert lib1.recv(source=0, timeout=1) == "lib"
        assert c1.recv(source=0, timeout=1) == "app"

    def test_rank_size(self):
        world = ThreadWorld(3)
        comm = world.communicator(2)
        assert comm.rank == 2 and comm.size == 3

    def test_barrier(self):
        # Transport-agnostic check (no shared-memory side channel, so it
        # also runs under REPRO_COMM_BACKEND=process): after the barrier,
        # a message sent *before* it by the slow rank must be receivable.
        def worker(comm):
            if comm.rank == 0:
                time.sleep(0.05)
                for dest in range(1, comm.size):
                    comm.send("pre-barrier", dest, tag=77)
            comm.barrier()
            if comm.rank != 0:
                assert comm.recv(source=0, tag=77, timeout=5) == "pre-barrier"
            comm.barrier()
            return comm.rank

        results = launch(worker, 4)
        assert sorted(results) == [0, 1, 2, 3]


class TestRunWorld:
    def test_results_indexed_by_rank(self):
        results = launch(lambda comm: comm.rank * 10, 5)
        assert results == [0, 10, 20, 30, 40]

    def test_exception_propagates_as_world_error(self):
        def worker(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            # Other ranks block on a message that never arrives; closing
            # the router must wake them instead of hanging the test.
            try:
                comm.recv(source=0, tag=99, timeout=10)
            except Exception:
                pass
            return comm.rank

        with pytest.raises(WorldError) as excinfo:
            launch(worker, 3, timeout=30)
        assert 1 in excinfo.value.failures
        assert isinstance(excinfo.value.failures[1], ValueError)

    def test_ring_message_passing(self):
        def worker(comm):
            dest = (comm.rank + 1) % comm.size
            src = (comm.rank - 1) % comm.size
            comm.send(comm.rank, dest, tag=1)
            return comm.recv(source=src, tag=1, timeout=5)

        results = launch(worker, 6)
        assert results == [(r - 1) % 6 for r in range(6)]

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_property_world_sizes(self, size):
        assert launch(lambda comm: comm.size, size) == [size] * size
