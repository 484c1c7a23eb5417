"""Kernel fast paths: free lists, bare callbacks, lazy interrupt.

The fast paths (see the :mod:`repro.sim.core` docstring and DESIGN.md)
must be invisible to model code: same scheduling order, same values, same
failure propagation — just fewer allocations.  These tests pin the
recycling rules, the tombstone cancel and interrupt semantics, and the
dispatch order against a sorted-``(time, seq)`` oracle directly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupted, Simulator
from repro.sim.core import SimulationError, Timeout


# -- call_later bare-callback path ------------------------------------------

def test_call_later_runs_in_schedule_order():
    sim = Simulator()
    order = []
    sim.call_later(2.0, order.append, "late")
    sim.call_later(1.0, order.append, "early")
    sim.call_later(1.0, order.append, "early-tie")  # FIFO on ties
    sim.run()
    assert order == ["early", "early-tie", "late"]
    assert sim.now == 2.0


def test_call_later_interleaves_with_timeouts_deterministically():
    sim = Simulator()
    order = []

    def proc():
        yield sim.timeout(1.0)
        order.append("timeout")

    sim.process(proc())
    sim.call_later(1.0, order.append, "callback")
    sim.run()
    # The timeout is only created when the process boots at t=0, i.e.
    # *after* the callback entered the heap: FIFO tie-break at t=1 runs
    # the callback first.  (This also pins the boot-at-time-0 semantics.)
    assert order == ["callback", "timeout"]


def test_call_later_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-0.1, lambda: None)


def test_callback_entries_are_recycled():
    sim = Simulator()
    fired = [0]

    def tick():
        fired[0] += 1
        if fired[0] < 100:
            sim.call_later(0.1, tick)

    sim.call_later(0.1, tick)
    sim.run()
    assert fired[0] == 100
    # A self-rescheduling callback reuses one pooled entry, not 100.
    assert len(sim._cbpool) == 1


def test_callback_may_schedule_from_within_itself():
    # The entry is recycled *before* fn runs; scheduling inside fn must
    # not clobber the in-flight invocation's fn/args.
    sim = Simulator()
    seen = []

    def outer(tag):
        seen.append(tag)
        sim.call_later(0.5, seen.append, f"{tag}-child")

    sim.call_later(1.0, outer, "a")
    sim.call_later(2.0, outer, "b")
    sim.run()
    assert seen == ["a", "a-child", "b", "b-child"]


# -- timeout free list -------------------------------------------------------

def test_yielded_timeouts_are_recycled():
    sim = Simulator()

    def proc():
        for _ in range(50):
            yield sim.timeout(0.01)

    sim.process(proc())
    sim.run()
    # The single-use `yield sim.timeout(d)` pattern cycles one pooled
    # object (plus the generation in flight), never 50 live Timeouts.
    assert 1 <= len(sim._tpool) <= 2


def test_recycled_timeout_object_is_reused():
    sim = Simulator()
    identities = []

    def proc():
        for _ in range(4):
            t = sim.timeout(0.01)
            identities.append(id(t))
            yield t

    sim.process(proc())
    sim.run()
    # A processed timeout enters the pool right *after* the waiter has
    # asked for its next one, so reuse skips one generation: timeout N+2
    # is timeout N's object coming back from the free list.
    assert identities[2] == identities[0]
    assert identities[3] == identities[1]


def test_timeout_with_user_callback_is_not_pooled():
    sim = Simulator()
    got = []
    t = sim.timeout(1.0, value="v")
    t.callbacks.append(lambda ev: got.append(ev.value))
    sim.run()
    assert got == ["v"]
    assert sim._tpool == []
    # Still safe to inspect after processing: it was never recycled.
    assert t.processed and t.value == "v"


def test_condition_children_are_not_pooled():
    sim = Simulator()
    results = []

    def proc():
        # any_of registers _check on each child; the loser keeps firing
        # after the condition resolved and must NOT be recycled while the
        # condition still references it.
        winner = sim.timeout(0.1, value="fast")
        loser = sim.timeout(5.0, value="slow")
        got = yield sim.any_of([winner, loser])
        results.append(list(got.values()))

    sim.process(proc())
    sim.run()
    assert results == [["fast"]]
    assert sim._tpool == []


def test_pool_respects_negative_delay_check():
    sim = Simulator()

    def proc():
        yield sim.timeout(0.01)  # populate the free list

    sim.process(proc())
    sim.run()
    assert sim._tpool
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_pooled_timeout_resets_value_and_state():
    sim = Simulator()
    values = []

    def proc():
        got = yield sim.timeout(0.01, value="first")
        values.append(got)
        got = yield sim.timeout(0.01)  # recycled object, default value
        values.append(got)
        got = yield sim.timeout(0.01, value="third")
        values.append(got)

    sim.process(proc())
    sim.run()
    assert values == ["first", None, "third"]


# -- lazy (tombstone) interrupt ---------------------------------------------

def test_interrupt_delivers_cause_and_allows_recovery():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("overslept")
        except Interrupted as exc:
            log.append(("interrupted", exc.cause, sim.now))
            yield sim.timeout(1.0)
            log.append(("recovered", sim.now))

    proc = sim.process(sleeper())
    sim.call_later(2.0, proc.interrupt, "wake up")
    sim.run()
    assert log == [("interrupted", "wake up", 2.0), ("recovered", 3.0)]


def test_interrupt_does_not_scan_or_disturb_other_waiters():
    """Satellite requirement: interrupting one process among thousands of
    waiters on a shared event is O(1) and leaves every other waiter
    intact."""
    sim = Simulator()
    n = 3000
    gate = sim.event()
    woken = []
    interrupted = []

    def waiter(i):
        try:
            value = yield gate
            woken.append((i, value))
        except Interrupted:
            interrupted.append(i)

    procs = [sim.process(waiter(i)) for i in range(n)]
    sim.run()  # boot everyone onto the gate

    victim = procs[1234]
    victim.interrupt()
    # Lazy cancellation: the gate's callback list was not scanned.
    assert len(gate.callbacks) == n
    sim.call_later(1.0, gate.succeed, "open")
    sim.run()

    assert interrupted == [1234]
    assert len(woken) == n - 1
    assert all(value == "open" for _i, value in woken)
    assert {i for i, _v in woken} == set(range(n)) - {1234}


def test_stale_timeout_wakeup_is_ignored_after_interrupt():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(5.0)
            log.append("timeout fired into process")
        except Interrupted:
            log.append("interrupted")
            # Wait past the abandoned timeout's expiry: its wakeup at
            # t=5 must be discarded as stale, not resume us early.
            yield sim.timeout(10.0)
            log.append(("slept", sim.now))

    proc = sim.process(sleeper())
    sim.call_later(1.0, proc.interrupt)
    sim.run()
    assert log == ["interrupted", ("slept", 11.0)]


def test_interrupted_process_timeout_not_recycled_while_pending():
    # The abandoned (tombstoned) timeout still sits in the heap; when it
    # fires its sole callback is the stale _resume, which returns early.
    # It must still be recycled safely *after* firing without corrupting
    # the process's new wait.
    sim = Simulator()
    done = []

    def sleeper():
        try:
            yield sim.timeout(5.0)
        except Interrupted:
            yield sim.timeout(100.0)
            done.append(sim.now)

    proc = sim.process(sleeper())
    sim.call_later(1.0, proc.interrupt)
    sim.run()
    assert done == [101.0]


def test_interrupt_terminated_process_raises():
    sim = Simulator()

    def quick():
        yield sim.timeout(0.1)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


# -- cancellation: tombstones and compaction ---------------------------------

def test_timeout_cancel_leaves_a_tombstone_on_the_heap():
    sim = Simulator()
    fired = []
    ev = sim.timeout(10.0)
    ev.callbacks.append(fired.append)
    assert ev.cancel() is True
    assert ev.cancel() is False  # idempotent
    assert sim.timer_stats()["tombstones"] == 1
    sim.run()
    assert fired == []
    assert sim.now == 10.0  # the tombstone still pops (sequence slot kept)
    assert ev.cancel() is False  # processed


def test_tombstone_compaction_bounds_heap_growth():
    sim = Simulator()
    for _ in range(1000):
        sim.timeout(50.0).cancel()
    stats = sim.timer_stats()
    assert stats["tombstones_compacted"] >= 1
    # Without compaction the heap would hold ~1000 dead entries.
    assert stats["heap_pending"] < 200


def test_interrupt_cancels_a_private_timeout():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupted:
            pass

    proc = sim.process(sleeper())
    sim.call_later(1.0, proc.interrupt)
    sim.run()
    assert sim.timer_stats()["tombstones"] == 1
    assert not proc.is_alive


# -- dispatch order against a sorted-(time, seq) oracle ----------------------

def _oracle_history(ops):
    """What a plain sorted list of ``(time, seq)`` keys dispatches.

    Mirrors :func:`_kernel_history` op for op: every schedule takes the
    next sequence number, cancelled entries never run, and ``run(until)``
    dispatches every live entry due by ``until`` in key order, then sets
    the clock to ``until``.
    """
    now, seq = 0.0, 0
    pending = []  # [time, seq, tag, child_delay, cancelled]
    cancellable = []
    fired = []

    def schedule(at, tag, child):
        nonlocal seq
        seq += 1
        entry = [at, seq, tag, child, False]
        pending.append(entry)
        return entry

    def run(until):
        nonlocal now
        while pending:
            pending.sort(key=lambda e: (e[0], e[1]))
            if pending[0][0] > until:
                break
            at, _seq, tag, child, cancelled = pending.pop(0)
            now = at
            if cancelled:
                continue
            fired.append((round(at, 9), tag))
            if child is not None:
                schedule(at + child, (tag, "child"), None)
        now = until

    for i, (kind, delay, pick) in enumerate(ops):
        if kind == 0:
            schedule(now + delay, ("cb", i), None)
        elif kind == 1:
            cancellable.append(schedule(now + delay, ("timeout", i), None))
        elif kind == 2:
            schedule(now + delay, ("parent", i), pick * 2.0)
        elif kind == 3 and cancellable:
            entry = cancellable[int(pick * len(cancellable)) % len(cancellable)]
            expected = entry in pending and not entry[4]
            entry[4] = True
            fired.append(("cancel", i, expected))
        elif kind == 4:
            run(now + delay)
            fired.append(("now", round(now, 9)))
    run(now + 1000.0)
    fired.append(("end", round(now, 9)))
    return fired


def _kernel_history(ops):
    """Drive the kernel through ``ops``; return what it dispatched."""
    sim = Simulator()
    timeouts = []
    fired = []

    def fire(tag):
        fired.append((round(sim.now, 9), tag))

    def parent(tag, child):
        fire(tag)
        sim.call_later(child, fire, (tag, "child"))

    for i, (kind, delay, pick) in enumerate(ops):
        if kind == 0:
            sim.call_later(delay, fire, ("cb", i))
        elif kind == 1:
            ev = sim.timeout(delay)
            ev.callbacks.append(lambda _e, tag=("timeout", i): fire(tag))
            timeouts.append(ev)
        elif kind == 2:
            sim.call_later(delay, parent, ("parent", i), pick * 2.0)
        elif kind == 3 and timeouts:
            ev = timeouts[int(pick * len(timeouts)) % len(timeouts)]
            fired.append(("cancel", i, ev.cancel()))
        elif kind == 4:
            sim.run(until=sim.now + delay)
            fired.append(("now", round(sim.now, 9)))
    sim.run(until=sim.now + 1000.0)
    fired.append(("end", round(sim.now, 9)))
    return fired, sim


#: Few distinct delays, so equal deadlines (ties) are common.
_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 4.0])
_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        _delays,
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


@given(ops=_ops)
@settings(max_examples=60, deadline=None)
def test_random_interleavings_dispatch_in_key_order(ops):
    """Every live entry runs in ``(time, seq)`` order; no cancelled one runs."""
    fired, _sim = _kernel_history(ops)
    assert fired == _oracle_history(ops)


def test_cancel_heavy_storm_matches_oracle_through_compaction():
    rng = random.Random(11)
    ops = [
        (1, rng.choice([0.5, 1.0, 2.5, 4.0]), rng.random())
        for _ in range(600)
    ]
    ops += [(3, 0.0, rng.random()) for _ in range(600)]
    ops += [
        (rng.randrange(5), rng.choice([0.0, 0.25, 1.0, 4.0]), rng.random())
        for _ in range(600)
    ]
    fired, sim = _kernel_history(ops)
    assert sim.timer_stats()["tombstones_compacted"] >= 1
    assert fired == _oracle_history(ops)


# -- workload caching (rides along with the perf work) -----------------------

def test_shared_population_matches_direct_construction():
    import numpy as np

    from repro.http.files import FilePopulation, clear_population_cache
    from repro.sim.rng import RandomStreams

    clear_population_cache()
    shared = FilePopulation.shared(42, n_files=500)
    direct = FilePopulation(RandomStreams(42).stream("files"), n_files=500)
    assert np.array_equal(shared.sizes, direct.sizes)
    assert np.array_equal(shared._popularity_order, direct._popularity_order)
    # Second call returns the same memoized object; different keys do not.
    assert FilePopulation.shared(42, n_files=500) is shared
    assert FilePopulation.shared(43, n_files=500) is not shared
    clear_population_cache()


def test_population_cache_can_be_disabled(monkeypatch):
    from repro.http.files import FilePopulation, clear_population_cache

    clear_population_cache()
    monkeypatch.setenv("REPRO_NO_WORKLOAD_CACHE", "1")
    a = FilePopulation.shared(42, n_files=200)
    b = FilePopulation.shared(42, n_files=200)
    assert a is not b


def test_shared_population_arrays_are_immutable():
    import numpy as np

    from repro.http.files import FilePopulation, clear_population_cache

    clear_population_cache()
    population = FilePopulation.shared(42, n_files=200)
    with pytest.raises(ValueError):
        population.sizes[0] = 1
    assert isinstance(population.sizes, np.ndarray)
    clear_population_cache()


def test_shared_workload_is_memoized_per_population():
    from repro.http.files import FilePopulation, clear_population_cache
    from repro.workload.surge import SurgeWorkload

    clear_population_cache()
    files = FilePopulation.shared(42, n_files=200)
    w1 = SurgeWorkload.shared(files)
    w2 = SurgeWorkload.shared(files)
    assert w1 is w2
    assert w1.files is files
    clear_population_cache()


def test_yielded_timeout_type_check_is_exact():
    # Subclasses of Timeout must not enter the free list: the pool
    # resets only Timeout's own slots.
    sim = Simulator()

    class TracedTimeout(Timeout):
        pass

    def proc():
        yield TracedTimeout(sim, 0.01)

    sim.process(proc())
    sim.run()
    assert sim._tpool == []
