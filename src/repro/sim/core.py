"""Discrete-event simulation kernel.

This module implements a small, fast, dependency-free event-driven
simulation core in the style of SimPy: a :class:`Simulator` owns a binary
heap of scheduled :class:`Event` objects and advances a simulated clock by
processing them in timestamp order.  Model logic is written as Python
generator functions wrapped in :class:`Process`; a process suspends by
yielding an event and is resumed with the event's value once it triggers.

Design notes
------------
* Events carry ``__slots__`` and the hot path avoids attribute lookups
  where it matters; the kernel comfortably processes around a million
  events per second, which is what the full figure-regeneration sweeps in
  :mod:`repro.core.figures` need (~10^7 events per sweep point at the top
  client counts).
* Fast paths (see DESIGN.md "Kernel fast-path invariants"):

  - :meth:`Simulator.call_later` schedules a pooled bare-callback heap
    entry instead of a :class:`Timeout` + lambda + callbacks list; the
    entry is recycled through a free list after it fires.
  - :meth:`Simulator.timeout` recycles :class:`Timeout` objects through a
    free list.  A timeout is recycled only when, at processing time, its
    sole callback is the :meth:`Process._resume` that was appended when a
    process yielded it — i.e. the single-use ``yield sim.timeout(d)``
    pattern.  Timeouts with user callbacks, condition memberships, or
    multiple waiters are never recycled.  Corollary: a timeout a process
    has *yielded* must not be stored and re-inspected after a later
    resume — create an :class:`Event` or keep a condition for that.
  - ``run()`` inlines the dispatch loop; :meth:`Simulator.step` is the
    single-event reference implementation of the same logic.
  - Cancellation is lazy: :meth:`Timeout.cancel` and the interrupt
    path clear the entry's callbacks and leave it in the heap as a
    tombstone that pops as a no-op.  The heap is compacted in place once
    tombstones exceed half the live entries (see
    ``tombstones_compacted``), so cancel-heavy runs do not grow the heap
    without bound.

  None of the fast paths changes scheduling order: every former push maps
  one-to-one onto a push with the same sequence number, so tie-breaking
  (and therefore determinism for a fixed seed) is unchanged.
* Failures propagate: an event that fails with no registered callbacks and
  that nobody *defused* re-raises inside :meth:`Simulator.step`, so model
  bugs surface in tests instead of being silently dropped.
* Determinism: ties in time are broken by a monotonically increasing
  sequence number, so runs are exactly reproducible for a fixed seed.
* Interruption is *lazy*: :meth:`Process.interrupt` does not scan the old
  target's callback list (which could hold thousands of waiters); it just
  retargets the process and the stale callback is ignored when the old
  event eventually fires.  This makes interrupt O(1) instead of O(n).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AnyOf",
    "AllOf",
    "Interrupted",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, bad yield, ...)."""


#: Sentinel marking an event that has not triggered yet.
_PENDING = object()

#: Cap on the per-simulator free lists (steady-state working sets are
#: tiny; the cap only bounds pathological churn).
_POOL_MAX = 1024


class _Callback:
    """Internal heap entry: a bare scheduled callback.

    Scheduled by :meth:`Simulator.call_later`; carries no Event
    bookkeeping (no callbacks list, no value, no failure state) and is
    recycled through ``Simulator._cbpool`` after it fires.  The dispatch
    loop recognises it by ``callbacks is None``, which can never be true
    of a heap-resident :class:`Event` (events enter the heap only when
    triggered and leave it processed).
    """

    __slots__ = ("fn", "args")

    #: Read by the dispatch loop; distinguishes us from Event entries.
    callbacks = None


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules it on the simulator queue.  When the
    simulator pops it, the event is *processed*: every registered callback
    is invoked with the event as its sole argument.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_pooled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callbacks run at processing time; ``None`` once processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._defused = False
        self._pooled = False

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the simulator has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of a triggered event."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is delivered to waiting processes (thrown into their
        generators).  If nothing waits on the event and nobody calls
        :meth:`defuse`, the exception re-raises from :meth:`Simulator.step`.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = exc
        self._ok = False
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so it does not crash the simulation."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    ``_cancelled`` marks a timeout withdrawn by :meth:`cancel` (or by the
    interrupt path): it stays in the heap as a tombstone until it pops
    or compaction reclaims it.
    """

    __slots__ = ("_cancelled",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # Flattened Event.__init__ + Simulator._push: a Timeout is born
        # triggered, and this constructor is the hottest allocation site
        # in the kernel.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._pooled = False
        self._cancelled = False
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now + delay, seq, self))

    def cancel(self) -> bool:
        """Cancel a timeout that is guaranteed not to be observed firing.

        Returns True if the timeout was still pending dispatch.  The
        callback list is cleared and the entry pops later as a tombstone
        (reclaimed early by compaction when tombstones pile up).
        Contract: the caller must ensure nothing would observe the
        firing — the canonical site is the *losing* timeout of a settled
        ``any_of`` race, whose only callback is a dead condition check.
        """
        callbacks = self.callbacks
        if self._cancelled or callbacks is None:
            return False  # already cancelled or processed
        callbacks.clear()
        self._cancelled = True
        self.sim._note_tombstone()
        return True


class Interrupted(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Boot:
    """Pseudo-event that bootstraps a process generator.

    Only ``_ok``/``_value`` are ever read (by :meth:`Process._resume` on
    the success path), so one immutable module-level instance serves every
    process — no per-process bootstrap Event allocation.
    """

    __slots__ = ()

    _ok = True
    _value = None


_BOOT = _Boot()


class Process(Event):
    """Wraps a generator; the process event triggers when it returns.

    The generator may ``yield`` any :class:`Event` belonging to the same
    simulator; it is resumed with the event's value (or has the failure
    exception thrown into it).  The generator's return value becomes the
    process event's value.
    """

    __slots__ = ("_gen", "_target", "name")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(f"process requires a generator, got {gen!r}")
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Bootstrap: resume the generator at the current time.  _target
        # must point at the boot entry so the stale-wakeup check in
        # _resume lets it through.
        self._target: Any = _BOOT
        sim.call_later(0.0, self._resume, _BOOT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time.

        The event the process currently waits on is abandoned *lazily*:
        its callback list is left untouched (removing from it would be
        O(waiters)) and :meth:`_resume` discards the stale wakeup when the
        old event eventually fires.  The process itself decides how to
        recover inside an ``except Interrupted`` block.
        """
        if self._value is not _PENDING:
            raise SimulationError("cannot interrupt a terminated process")
        sim = self.sim
        target = self._target
        poke = Event(sim)
        poke._value = Interrupted(cause)
        poke._ok = False
        poke._defused = True
        poke.callbacks.append(self._resume)
        sim._push(poke)
        self._target = poke
        # Cancel the abandoned wait when it is provably private: a plain
        # yielded timeout whose sole callback is our now-stale _resume.
        # (The recycling contract already forbids model code from
        # re-inspecting a yielded timeout, so nothing can observe the
        # difference between "fired stale" and "never fired".)  Anything
        # shared — gates, conditions, user callbacks — keeps the lazy
        # stale-wakeup semantics: no O(waiters) scan.
        if (
            type(target) is Timeout
            and target._pooled
            and target.callbacks is not None
            and len(target.callbacks) == 1
        ):
            target.callbacks.clear()
            target._cancelled = True
            sim._note_tombstone()

    # -- internal --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if event is not self._target:
            # Stale wakeup: interrupt() switched targets while this event
            # was still pending (lazy cancellation tombstone).
            return
        self._target = None
        try:
            if event._ok:
                nxt = self._gen.send(event._value)
            else:
                event._defused = True
                nxt = self._gen.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(nxt, Event):
            err = SimulationError(
                f"process {self.name!r} yielded non-event {nxt!r}"
            )
            self._gen.close()
            self.fail(err)
            return
        if nxt.sim is not self.sim:
            self._gen.close()
            self.fail(SimulationError("yielded event from another simulator"))
            return
        callbacks = nxt.callbacks
        if callbacks is not None:
            if not callbacks and type(nxt) is Timeout:
                # Sole waiter of a plain timeout: recyclable after it
                # fires (the dispatch loop re-checks the waiter count).
                nxt._pooled = True
            callbacks.append(self._resume)
            self._target = nxt
        else:
            # Already processed: relay its outcome on the next step.
            relay = Event(self.sim)
            relay._value = nxt._value
            relay._ok = nxt._ok
            if not nxt._ok:
                relay._defused = True
            relay.callbacks.append(self._resume)
            self.sim._push(relay)
            self._target = relay


class Condition(Event):
    """Triggers based on the outcome of a set of child events.

    ``need`` children must succeed for the condition to succeed.  The value
    is a dict mapping each *triggered-so-far* child to its value, in child
    order.  Any child failure fails the condition immediately (the child is
    defused; the exception is the condition's value).
    """

    __slots__ = ("_events", "_need", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event], need: int) -> None:
        super().__init__(sim)
        self._events = list(events)
        if need < 0 or need > len(self._events):
            raise SimulationError("invalid condition threshold")
        self._need = need
        self._done = 0
        if not self._events or need == 0:
            self.succeed({})
            return
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes simulators")
            if ev.callbacks is None:
                # Already processed child.
                self._check(ev)
                if self.triggered:
                    break
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict:
        # Only *processed* children count: a Timeout pre-sets its value at
        # creation, so "triggered" alone would claim future timeouts fired.
        return {
            ev: ev._value
            for ev in self._events
            if ev.callbacks is None and ev._ok
        }

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._done >= self._need:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Condition triggering when *any* child succeeds."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        events = list(events)
        super().__init__(sim, events, need=min(1, len(events)))


class AllOf(Condition):
    """Condition triggering when *all* children succeed."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        events = list(events)
        super().__init__(sim, events, need=len(events))


class Simulator:
    """The event loop: a clock plus a heap of (time, seq, entry) tuples.

    Entries are triggered :class:`Event` objects or internal
    :class:`_Callback` fast-path entries (see :meth:`call_later`).
    """

    __slots__ = (
        "_now",
        "_heap",
        "_seq",
        "_tpool",
        "_cbpool",
        "_tombstones",
        "tombstones_compacted",
    )

    #: Read by ``perfbench/``, which predates the single kernel; remove
    #: with those reads.
    backend = "python"
    wheel_enabled = False

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list = []
        self._seq = 0
        #: Free lists: recycled Timeouts / bare-callback entries.
        self._tpool: list = []
        self._cbpool: list = []
        #: Cancelled-but-heap-resident entries awaiting dispatch, and how
        #: many times compaction reclaimed them early.
        self._tombstones = 0
        self.tombstones_compacted = 0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention in this library)."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def timer_stats(self) -> dict:
        """Kernel timer counters: heap size, tombstones, compactions.

        ``wheel_scheduled``/``wheel_cancelled`` are always 0; they are
        kept for ``perfbench/``, which reads them.
        """
        return {
            "heap_pending": len(self._heap),
            "tombstones": self._tombstones,
            "tombstones_compacted": self.tombstones_compacted,
            "wheel_scheduled": 0,
            "wheel_cancelled": 0,
        }

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` from now.

        Recycles processed single-waiter timeouts from the free list (see
        the module docstring for the exact recycling rule).
        """
        # One check for both branches: the pooled and non-pooled paths
        # must reject a negative delay at the same point, with the same
        # error, regardless of the free list's state.
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        pool = self._tpool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev._value = value
            ev._ok = True
            ev._defused = False
            ev._pooled = False
            ev._cancelled = False
            self._seq = seq = self._seq + 1
            heappush(self._heap, (self._now + delay, seq, ev))
            return ev
        return Timeout(self, delay, value)

    def process(
        self, gen: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a generator as a process."""
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition triggering when any child succeeds."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition triggering when every child succeeds."""
        return AllOf(self, events)

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` as a bare callback ``delay`` from now.

        This is the kernel's cheapest way to schedule work: no
        :class:`Event` is allocated (no callbacks list, no value/failure
        bookkeeping) and the internal heap entry is recycled after it
        fires.  Use :meth:`timeout` plus ``callbacks.append`` when the
        caller needs an event handle to wait on, compose or cancel.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        pool = self._cbpool
        if pool:
            cb = pool.pop()
        else:
            cb = _Callback()
        cb.fn = fn
        cb.args = args
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, seq, cb))

    # -- scheduling --------------------------------------------------------
    def _push(self, event: Event, delay: float = 0.0) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, seq, event))

    def _note_tombstone(self) -> None:
        """Account one cancelled heap-resident timeout; compact if due.

        Compaction triggers when tombstones exceed half the live entries
        (3t > heap size  <=>  t > (heap - t) / 2) and rebuilds the heap
        in place, so cancel-heavy runs stay O(live) instead of growing
        without bound.  In-place matters: the inlined run() loop holds a
        local reference to the heap list.
        """
        self._tombstones = count = self._tombstones + 1
        heap = self._heap
        if count >= 64 and count * 3 > len(heap):
            heap[:] = [
                entry
                for entry in heap
                if not (type(entry[2]) is Timeout and entry[2]._cancelled)
            ]
            heapify(heap)
            self._tombstones = 0
            self.tombstones_compacted += 1

    def step(self) -> None:
        """Process exactly one event.

        Reference implementation of the dispatch logic that ``run()``
        inlines; behavioural changes must be mirrored there.
        """
        when, _seq, event = heappop(self._heap)
        self._now = when
        callbacks = event.callbacks
        if callbacks is None:
            # Bare-callback fast-path entry: recycle it before invoking
            # (fn/args are captured locally) so the callback itself can
            # reuse the slot when it schedules follow-up work.
            fn = event.fn
            args = event.args
            if len(self._cbpool) < _POOL_MAX:
                event.fn = event.args = None
                self._cbpool.append(event)
            fn(*args)
            return
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            raise event._value
        if (
            event._pooled
            and len(callbacks) == 1
            and len(self._tpool) < _POOL_MAX
        ):
            # Single-use awaited timeout: nothing can reference it any
            # more (its sole waiter has moved on), so recycle it.
            self._tpool.append(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if no event falls on it, so back-to-back ``run`` calls compose.
        """
        if until is None:
            bound = float("inf")
        elif until < self._now:
            raise SimulationError(f"cannot run backwards to {until!r}")
        else:
            bound = until
        # Inlined step(): this loop dispatches ~10^7 events per sweep
        # point, so locals replace attribute lookups and the per-event
        # method call.  Keep in sync with step() above.
        heap = self._heap
        tpool = self._tpool
        cbpool = self._cbpool
        pop = heappop
        while heap:
            if heap[0][0] > bound:
                break
            when, _seq, event = pop(heap)
            self._now = when
            callbacks = event.callbacks
            if callbacks is None:
                fn = event.fn
                args = event.args
                if len(cbpool) < _POOL_MAX:
                    event.fn = event.args = None
                    cbpool.append(event)
                fn(*args)
                continue
            event.callbacks = None
            for cb in callbacks:
                cb(event)
            if not event._ok and not event._defused:
                raise event._value
            if (
                event._pooled
                and len(callbacks) == 1
                and len(tpool) < _POOL_MAX
            ):
                tpool.append(event)
        if until is not None:
            self._now = until

    def run_process(self, proc: Process) -> Any:
        """Run until ``proc`` finishes; return its value or raise its error."""
        heap = self._heap
        while heap and proc._value is _PENDING:
            self.step()
        if proc._value is _PENDING:
            raise SimulationError(
                f"simulation ran out of events before {proc.name!r} finished"
            )
        if not proc._ok:
            proc._defused = True
            raise proc._value
        return proc._value
