"""Unit tests for the processor-sharing CPU model."""

import pytest

from repro.osmodel import CPU
from repro.sim import SimulationError, Simulator


def finish_times(sim, cpu, costs, submit_times=None):
    """Submit bursts and return their completion times."""
    done = {}
    submit_times = submit_times or [0.0] * len(costs)

    def submit(idx, cost):
        ev = cpu.execute(cost)
        ev.callbacks.append(lambda _e, i=idx: done.__setitem__(i, sim.now))

    for idx, (cost, at) in enumerate(zip(costs, submit_times)):
        if at == 0.0:
            submit(idx, cost)
        else:
            sim.call_later(at, submit, idx, cost)
    sim.run()
    return [done[i] for i in range(len(costs))]


def test_single_burst_runs_at_full_speed():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    assert finish_times(sim, cpu, [0.5]) == [0.5]


def test_two_bursts_share_one_processor():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    # Two equal bursts sharing one CPU both finish at 2 * cost.
    times = finish_times(sim, cpu, [1.0, 1.0])
    assert times == pytest.approx([2.0, 2.0])


def test_unequal_bursts_processor_sharing():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    # Burst A cost 1, burst B cost 2: A finishes at 2 (half rate while B
    # runs), then B has 1 unit left at full rate -> finishes at 3.
    times = finish_times(sim, cpu, [1.0, 2.0])
    assert times == pytest.approx([2.0, 3.0])


def test_two_processors_run_two_bursts_in_parallel():
    sim = Simulator()
    cpu = CPU(sim, nproc=2, smp_efficiency=1.0)
    times = finish_times(sim, cpu, [1.0, 1.0])
    assert times == pytest.approx([1.0, 1.0])


def test_burst_rate_capped_at_one_processor():
    sim = Simulator()
    cpu = CPU(sim, nproc=4, smp_efficiency=1.0)
    # A single burst cannot exploit 4 processors.
    assert finish_times(sim, cpu, [1.0]) == [1.0]


def test_late_arrival_shares_remaining_work():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    # A(cost 2) starts at 0; B(cost 1) arrives at 1. A has 1 left; they
    # share: A finishes at 3, B at 3.
    times = finish_times(sim, cpu, [2.0, 1.0], submit_times=[0.0, 1.0])
    assert times == pytest.approx([3.0, 3.0])


def test_smp_efficiency_reduces_capacity():
    sim = Simulator()
    cpu = CPU(sim, nproc=4, smp_efficiency=1.0 / 3.0)
    # capacity = 1 + 3 * 1/3 = 2 processors for 4 bursts -> rate 1/2 each.
    times = finish_times(sim, cpu, [1.0] * 4)
    assert times == pytest.approx([2.0] * 4)


def test_capacity_factor_degrades_service():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    cpu.set_capacity_factor(0.5)
    assert finish_times(sim, cpu, [1.0]) == pytest.approx([2.0])


def test_capacity_factor_change_mid_burst():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    done = []
    ev = cpu.execute(1.0)
    ev.callbacks.append(lambda _e: done.append(sim.now))
    # After 0.5s halve capacity: remaining 0.5 work takes 1.0s -> ends 1.5.
    sim.call_later(0.5, cpu.set_capacity_factor, 0.5)
    sim.run()
    assert done == pytest.approx([1.5])


def test_zero_cost_completes_immediately():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    ev = cpu.execute(0.0)
    assert ev.triggered


def test_negative_cost_rejected():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    with pytest.raises(SimulationError):
        cpu.execute(-1.0)


def test_invalid_construction():
    sim = Simulator()
    with pytest.raises(SimulationError):
        CPU(sim, nproc=0)
    with pytest.raises(SimulationError):
        CPU(sim, nproc=2, smp_efficiency=1.5)
    cpu = CPU(sim, nproc=1)
    with pytest.raises(SimulationError):
        cpu.set_capacity_factor(0.0)


def test_utilization_tracking():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    cpu.execute(1.0)
    sim.run(until=4.0)
    # 1 CPU-second of work over 4 seconds = 25% utilisation.
    assert cpu.utilization(4.0) == pytest.approx(0.25)


def test_utilization_saturated():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    for _ in range(8):
        cpu.execute(1.0)
    sim.run(until=8.0)
    assert cpu.utilization(8.0) == pytest.approx(1.0)


def test_run_helper_in_process():
    # A process yields the burst's completion event directly.
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    trace = []

    def proc():
        yield cpu.execute(0.25)
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == pytest.approx([0.25])


def test_many_bursts_complete_and_conserve_work():
    sim = Simulator()
    cpu = CPU(sim, nproc=2, smp_efficiency=1.0)
    n = 200
    done = []
    for i in range(n):
        ev = cpu.execute(0.01)
        ev.callbacks.append(lambda _e: done.append(sim.now))
    sim.run()
    assert len(done) == n
    # Total work = 2.0 CPU-seconds on 2 CPUs -> finish at ~1.0s.
    assert max(done) == pytest.approx(1.0, rel=1e-6)


def test_interleaved_arrivals_conserve_total_work():
    sim = Simulator()
    cpu = CPU(sim, nproc=1)
    done = []
    for i in range(10):
        sim.call_later(
            0.05 * i,
            lambda: cpu.execute(0.1).callbacks.append(
                lambda _e: done.append(sim.now)
            ),
        )
    sim.run()
    assert len(done) == 10
    # 1.0 CPU-seconds total, first arrival at 0 -> last completion at 1.0.
    assert max(done) == pytest.approx(1.0, rel=1e-9)
