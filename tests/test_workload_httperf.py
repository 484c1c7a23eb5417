"""Unit tests for the httperf-style emulated client against scripted servers."""

import numpy as np

from repro.http import FilePopulation
from repro.metrics import CLIENT_TIMEOUT, CONNECTION_RESET, MetricsHub
from repro.net import EOF, ListenSocket
from repro.net.link import DuplexLink
from repro.osmodel import Machine, MachineSpec
from repro.sim import Simulator
from repro.workload import (
    EmulatedClient,
    HttperfConfig,
    SurgeConfig,
    SurgeWorkload,
)


def make_stack(warmup=0.0, duration=100.0, surge=None):
    sim = Simulator()
    machine = Machine(sim, MachineSpec(cpus=1))
    listener = ListenSocket(sim, machine)
    duplex = DuplexLink(sim, 1e7, 0.0005)
    rng = np.random.default_rng(5)
    files = FilePopulation(rng, n_files=50)
    workload = SurgeWorkload(files, surge or SurgeConfig())
    metrics = MetricsHub(sim, warmup=warmup, duration=duration)
    return sim, machine, listener, duplex, workload, metrics


def spawn_client(sim, listener, duplex, workload, metrics, config=None):
    client = EmulatedClient(
        sim, 0, listener, duplex, workload, metrics,
        np.random.default_rng(17), config,
    )
    sim.process(client.run())
    return client


def echo_server(sim, listener, reply_bytes=2000, delay=0.0):
    """Accept everything; answer every request with a fixed-size reply."""

    def handle(conn):
        while True:
            req = yield from conn.server_recv()
            if req is EOF:
                conn.server_close()
                return
            if delay:
                yield sim.timeout(delay)
            yield from conn.wait_writable(reply_bytes)
            if not conn.peer_alive:
                conn.server_close()
                return
            conn.server_send_chunk(reply_bytes, last=True)

    def acceptor():
        while True:
            conn = yield from listener.accept()
            sim.process(handle(conn))

    sim.process(acceptor())


def test_client_completes_sessions_and_records_metrics():
    sim, _m, listener, duplex, workload, metrics = make_stack()
    echo_server(sim, listener)
    client = spawn_client(sim, listener, duplex, workload, metrics)
    sim.run(until=60.0)
    assert metrics.replies > 10
    assert metrics.sessions_completed >= 1
    assert metrics.connections_established >= metrics.sessions_completed
    assert metrics.errors == {}
    assert client.sessions_attempted >= metrics.sessions_completed


def test_sessions_limit_ends_the_client_process():
    sim, _m, listener, duplex, workload, metrics = make_stack(duration=1e4)
    echo_server(sim, listener)
    client = EmulatedClient(
        sim, 0, listener, duplex, workload, metrics,
        np.random.default_rng(17), sessions_limit=2,
    )
    process = sim.process(client.run())
    sim.run(until=1e4)
    assert not process.is_alive
    assert client.sessions_attempted == 2
    assert metrics.sessions_completed == 2


def test_client_timeout_on_silent_server():
    sim, _m, listener, duplex, workload, metrics = make_stack()

    def acceptor():  # accept but never reply
        while True:
            yield from listener.accept()

    sim.process(acceptor())
    spawn_client(
        sim, listener, duplex, workload, metrics,
        HttperfConfig(client_timeout=2.0),
    )
    sim.run(until=30.0)
    assert metrics.errors[CLIENT_TIMEOUT] >= 1
    assert metrics.replies == 0


def test_client_counts_reset_and_recovers():
    sim, _m, listener, duplex, workload, metrics = make_stack(
        surge=SurgeConfig(
            think_k=3.0, think_max=4.0, groups_per_session=3.0
        ),
    )

    # A server that reaps after 1 s idle: every think gap causes a reset.
    def handle(conn):
        while True:
            req = yield from conn.server_recv(idle_timeout=1.0)
            if req is None or req is EOF:
                conn.server_close()
                return
            yield from conn.wait_writable(1000)
            if not conn.peer_alive:
                conn.server_close()
                return
            conn.server_send_chunk(1000, last=True)

    def acceptor():
        while True:
            conn = yield from listener.accept()
            sim.process(handle(conn))

    sim.process(acceptor())
    spawn_client(sim, listener, duplex, workload, metrics)
    sim.run(until=120.0)
    assert metrics.errors[CONNECTION_RESET] >= 2
    # Despite resets, replies keep flowing (client reconnects).
    assert metrics.replies > 10


def test_client_gives_up_after_reset_retry_budget():
    sim, _m, listener, duplex, workload, metrics = make_stack(
        surge=SurgeConfig(think_k=2.0, think_max=3.0, groups_per_session=3.0),
    )

    # Pathological server: immediately closes every accepted connection.
    def acceptor():
        while True:
            conn = yield from listener.accept()
            conn.server_close()

    sim.process(acceptor())
    spawn_client(
        sim, listener, duplex, workload, metrics,
        HttperfConfig(client_timeout=2.0, max_reset_retries=1),
    )
    sim.run(until=40.0)
    assert metrics.errors[CONNECTION_RESET] >= 1
    assert metrics.replies == 0
    assert metrics.sessions_completed == 0


def test_connect_timeout_counts_client_timeout():
    sim, _m, listener, duplex, workload, metrics = make_stack()
    # Fill the backlog with junk connections and never accept, so SYNs drop.
    small = ListenSocket(sim, Machine(sim, MachineSpec()), backlog=1)

    from repro.net import Connection

    filler = Connection(sim, duplex, small)
    sim.process(filler.connect())
    spawn_client(
        sim, small, duplex, workload, metrics,
        HttperfConfig(client_timeout=5.0),
    )
    sim.run(until=30.0)
    assert metrics.errors[CLIENT_TIMEOUT] >= 1


def test_pipelined_group_counts_every_reply():
    surge = SurgeConfig(
        groups_per_session=1.0,  # geometric mean 1 -> mostly single groups
        embedded_alpha=0.8,  # heavy: big groups, capped at max_group_size
        max_group_size=4,
    )
    sim, _m, listener, duplex, workload, metrics = make_stack(surge=surge)
    echo_server(sim, listener)
    spawn_client(sim, listener, duplex, workload, metrics)
    sim.run(until=40.0)
    assert metrics.replies > 20
    assert metrics.errors == {}
