"""Micro-benchmarks of the simulation substrate itself.

These bound the cost of the hot paths every figure regeneration leans on:
raw event dispatch, processor-sharing completions, fluid-link
transmissions, and timeout cancellation.  Useful for catching performance regressions in the kernel
(the full figure suite runs ~10^7 events).
"""

from repro.net import Link
from repro.osmodel import CPU
from repro.sim import Simulator


def run_timeout_chain(n):
    sim = Simulator()
    count = [0]

    def chain():
        for _ in range(n):
            yield sim.timeout(0.001)
            count[0] += 1

    sim.process(chain())
    sim.run()
    return count[0]


def run_cpu_bursts(n):
    sim = Simulator()
    cpu = CPU(sim, nproc=2, smp_efficiency=1.0)
    done = [0]

    def fin():
        done[0] += 1

    for i in range(n):
        sim.call_later(i * 1e-4, cpu.execute_call, 5e-4, fin)
    sim.run()
    return done[0]


def run_link_transmissions(n):
    sim = Simulator()
    link = Link(sim, 1e9, 0.0002)
    done = [0]
    for _ in range(n):
        link.transmit(16_384).callbacks.append(
            lambda _e: done.__setitem__(0, done[0] + 1)
        )
    sim.run()
    return done[0]


def run_timeout_cancel_storm(n):
    """httpd-4096 idle-timeout storm (mirrors repro.core.perf).

    4096 standing 15 s idle-reap timeouts; every batch of arrivals
    pushes its connections' deadlines back out with the race-loser
    pattern of repro.net.tcp: ``Timeout.cancel()`` (a heap tombstone,
    reclaimed by amortised compaction) plus a fresh ``sim.timeout``.
    """
    sim = Simulator()
    conns, batch, interval, idle = 4096, 128, 0.25, 15.0
    reaped = [0]

    def reap(_event):
        reaped[0] += 1

    def arm():
        timeout = sim.timeout(idle)
        timeout.callbacks.append(reap)
        return timeout

    timers = [arm() for _ in range(conns)]
    state = [0, 0]

    def driver():
        pos, done = state
        take = batch if batch <= n - done else n - done
        for k in range(pos, pos + take):
            i = k % conns
            timers[i].cancel()
            timers[i] = arm()
        state[0] = (pos + take) % conns
        state[1] = done + take
        if state[1] < n:
            sim.call_later(interval, driver)

    sim.call_later(interval, driver)
    sim.run(until=interval * ((n + batch - 1) // batch + 1))
    return state[1]


def test_kernel_event_dispatch(benchmark):
    n = 20_000
    result = benchmark(run_timeout_chain, n)
    assert result == n


def test_cpu_processor_sharing_station(benchmark):
    n = 10_000
    result = benchmark(run_cpu_bursts, n)
    assert result == n


def test_link_fluid_transmissions(benchmark):
    n = 20_000
    result = benchmark(run_link_transmissions, n)
    assert result == n


def test_kernel_timeout_cancel_storm(benchmark):
    n = 60_000
    result = benchmark(run_timeout_cancel_storm, n)
    assert result == n
