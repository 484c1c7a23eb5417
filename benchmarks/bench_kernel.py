"""Micro-benchmarks of the simulation substrate itself.

These bound the cost of the hot paths every figure regeneration leans on:
raw event dispatch, processor-sharing completions, fluid-link
transmissions, and timeout cancellation.  Useful for catching performance regressions in the kernel
(the full figure suite runs ~10^7 events).

The workloads are the runners of :func:`repro.core.perf.measure_kernel`
(``repro bench``), so pytest-benchmark and the trajectory time the same
code.
"""

from repro.core.perf import _kernel_runner


def test_kernel_event_dispatch(benchmark):
    n = 20_000
    result = benchmark(_kernel_runner("timeout_chain"), n)
    assert result == n


def test_cpu_processor_sharing_station(benchmark):
    n = 10_000
    result = benchmark(_kernel_runner("cpu_bursts"), n)
    assert result == n


def test_link_fluid_transmissions(benchmark):
    n = 20_000
    result = benchmark(_kernel_runner("link_transmissions"), n)
    assert result == n


def test_kernel_timeout_cancel_storm(benchmark):
    n = 60_000
    result = benchmark(_kernel_runner("timeout_cancel_storm"), n)
    assert result == n
