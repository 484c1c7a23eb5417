"""White-box tests of server internals: write paths, reentrancy, failure
injection (clients vanishing mid-response, memory exhaustion, huge files).
"""

import pytest

from repro.http import HttpSemantics, Request
from repro.net import Connection, ListenSocket
from repro.net.link import DuplexLink
from repro.osmodel import Machine, MachineSpec, MemoryExhausted
from repro.servers import (
    AmpedServer,
    EventDrivenServer,
    StagedServer,
    ThreadPoolServer,
)
from repro.sim import Simulator


#: One small instance of each architecture, keyed by its ServerSpec kind.
ARCHITECTURES = {
    "nio": lambda sim, m, lsn: EventDrivenServer(sim, m, lsn, workers=1),
    "httpd": lambda sim, m, lsn: ThreadPoolServer(sim, m, lsn, pool_size=2),
    "staged": lambda sim, m, lsn: StagedServer(sim, m, lsn),
    "amped": lambda sim, m, lsn: AmpedServer(sim, m, lsn, helpers=1),
}


def make_stack(cpus=1, bandwidth=1e7, memory=2 * 1024**3, sndbuf=64 * 1024):
    sim = Simulator()
    machine = Machine(sim, MachineSpec(cpus=cpus, memory_bytes=memory))
    listener = ListenSocket(sim, machine)
    duplex = DuplexLink(sim, bandwidth, 0.0002)
    return sim, machine, listener, duplex


def client_fetch(sim, duplex, listener, requests, results, sndbuf=None):
    """Simple scripted client: fetch each request sequentially."""

    def proc():
        conn = Connection(sim, duplex, listener)
        if sndbuf is not None:
            conn.sndbuf = sndbuf
        yield from conn.connect()
        for request in requests:
            pending = yield from conn.send_request(request)
            done = yield from conn.await_response(
                pending, ttfb_timeout=50.0, stall_timeout=500.0
            )
            results.append((done, pending.bytes_received))
        conn.client_close()

    return sim.process(proc())


def test_event_server_serves_huge_file_in_chunks():
    sim, machine, listener, duplex = make_stack()
    server = EventDrivenServer(sim, machine, listener, workers=1)
    server.start()
    results = []
    big = Request(path="/big", response_bytes=1_000_000)
    client_fetch(sim, duplex, listener, [big], results)
    sim.run(until=30.0)
    assert len(results) == 1
    assert results[0][1] == big.response_bytes + server.semantics.response_head_bytes
    assert server.requests_served == 1


def test_event_server_multiworker_single_connection_ordering():
    sim, machine, listener, duplex = make_stack(cpus=4)
    server = EventDrivenServer(sim, machine, listener, workers=4)
    server.start()
    results = []
    reqs = [Request(path=f"/f{i}", response_bytes=50_000) for i in range(5)]

    def proc():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        pendings = []
        for request in reqs:
            p = yield from conn.send_request(request)
            pendings.append(p)
        for p in pendings:
            done = yield from conn.await_response(p, 50.0, 500.0)
            results.append((done, p.bytes_received))
        conn.client_close()

    sim.process(proc())
    sim.run(until=60.0)
    assert len(results) == 5
    # Responses completed in request order with correct byte counts.
    times = [t for t, _b in results]
    assert times == sorted(times)
    for (_t, nbytes), request in zip(results, reqs):
        assert nbytes == request.response_bytes + server.semantics.response_head_bytes


def test_event_server_handles_client_vanishing_mid_response():
    sim, machine, listener, duplex = make_stack(bandwidth=20_000.0)
    server = EventDrivenServer(sim, machine, listener, workers=1)
    server.start()

    def proc():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        yield from conn.send_request(Request(path="/big", response_bytes=500_000))
        yield sim.timeout(2.0)
        conn.client_close()  # abandon mid-transfer

    sim.process(proc())
    sim.run(until=120.0)
    # The server noticed and cleaned up: no channels left registered and
    # only the server's own thread stacks (acceptor + worker) remain.
    assert server.selector.registered_count == 0
    assert machine.memory.used_bytes == (
        2 * machine.threads.default_stack_bytes
    )


def test_thread_server_client_vanishing_mid_response():
    sim, machine, listener, duplex = make_stack(bandwidth=20_000.0)
    server = ThreadPoolServer(sim, machine, listener, pool_size=2)
    server.start()

    def proc():
        conn = Connection(sim, duplex, listener)
        yield from conn.connect()
        yield from conn.send_request(Request(path="/big", response_bytes=500_000))
        yield sim.timeout(2.0)
        conn.client_close()

    sim.process(proc())
    sim.run(until=120.0)
    # The worker freed itself and kernel memory for the socket is gone.
    assert machine.memory.used_bytes == server.pool_size * machine.threads.default_stack_bytes


#: case -> (link bandwidth, close times).  On the slow link the server
#: end closes while the writer waits for socket-buffer room; on gigabit
#: the reply is CPU-bound, so most close times land while a chunk's
#: write(2) burst is on the CPU.
CLOSE_CASES = {
    "waiting": (1e7, (0.05,)),
    "writing": (1e9, tuple(0.001 + 0.0004 * k for k in range(20))),
}


@pytest.mark.parametrize("case", sorted(CLOSE_CASES))
@pytest.mark.parametrize("kind", sorted(ARCHITECTURES))
def test_server_end_closed_from_outside_mid_reply(kind, case):
    # A cluster replica dying server-closes its connections while a
    # reply is still being written; the writer must notice, not crash.
    bandwidth, close_times = CLOSE_CASES[case]
    for close_at in close_times:
        sim, machine, listener, duplex = make_stack(bandwidth=bandwidth)
        server = ARCHITECTURES[kind](sim, machine, listener)
        server.start()
        conn = Connection(sim, duplex, listener)

        def proc(conn=conn):
            yield from conn.connect()
            pending = yield from conn.send_request(
                Request(path="/big", response_bytes=2_000_000)
            )
            yield from conn.await_response(pending, 50.0, 500.0)

        sim.process(proc())
        sim.call_later(close_at, conn.server_close)
        sim.run(until=5.0)
        assert server.requests_served == 0


def test_event_server_partial_writes_with_tiny_sndbuf():
    sim, machine, listener, duplex = make_stack()
    server = EventDrivenServer(sim, machine, listener, workers=1)
    server.start()
    results = []

    def proc():
        conn = Connection(sim, duplex, listener)
        conn.sndbuf = 4096  # tiny buffer: many EWOULDBLOCK round trips
        yield from conn.connect()
        p = yield from conn.send_request(Request(path="/f", response_bytes=100_000))
        yield from conn.await_response(p, 50.0, 500.0)
        results.append(p.bytes_received)
        conn.client_close()

    sim.process(proc())
    sim.run(until=60.0)
    assert results == [100_000 + server.semantics.response_head_bytes]


def test_thread_server_pool_memory_exhaustion_raises():
    sim, machine, listener, _duplex = make_stack(memory=8 * 1024 * 1024)
    server = ThreadPoolServer(sim, machine, listener, pool_size=6000)
    with pytest.raises(MemoryExhausted):
        server.start()
    # Roll-back: no stray threads or memory.
    assert machine.threads.live == 0
    assert machine.memory.used_bytes == 0


def test_event_server_respects_jvm_thread_limit():
    sim = Simulator()
    machine = Machine(sim, MachineSpec(max_threads=4))
    listener = ListenSocket(sim, machine)
    server = EventDrivenServer(sim, machine, listener, workers=8)
    from repro.osmodel import ThreadLimitExceeded

    with pytest.raises(ThreadLimitExceeded):
        server.start()


@pytest.mark.parametrize("kind", sorted(ARCHITECTURES))
def test_server_start_twice_rejected(kind):
    sim, machine, listener, _d = make_stack()
    server = ARCHITECTURES[kind](sim, machine, listener)
    server.start()
    with pytest.raises(RuntimeError):
        server.start()


def test_thread_server_custom_semantics_chunking():
    sim, machine, listener, duplex = make_stack()
    sem = HttpSemantics(chunk_bytes=1024)
    server = ThreadPoolServer(
        sim, machine, listener, pool_size=2, semantics=sem
    )
    server.start()
    results = []
    client_fetch(
        sim, duplex, listener,
        [Request(path="/f", response_bytes=10_000)], results,
    )
    sim.run(until=30.0)
    assert results[0][1] == 10_000 + sem.response_head_bytes


def test_stats_shape_consistency():
    sim, machine, listener, duplex = make_stack()
    for server in (
        EventDrivenServer(sim, machine, listener, workers=1),
        ThreadPoolServer(sim, machine, listener, pool_size=2),
    ):
        stats = server.stats()
        for key in ("requests_served", "connections_handled",
                    "threads_live", "syns_dropped", "memory_pressure"):
            assert key in stats
