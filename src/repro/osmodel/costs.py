"""Per-operation CPU cost model.

All server models charge CPU through a :class:`CostModel`, which lists the
cost in CPU-seconds of each primitive operation a 2004-era server performs
(accept, parse, file service, copy, syscalls, selector operations, ...).

The Java servers use :meth:`CostModel.scaled` with a JVM factor > 1: a
2004 JIT-compiled JVM executed this kind of systems code somewhat slower
than native C (the paper's nio server is Java, Apache is native).

Defaults are calibrated so that a single ~1.4 GHz-class processor serves
roughly 2.5-3k requests/s of the SURGE mix, matching the orders of
magnitude in the paper's testbed; see ``repro.core.params`` for the
scenario-level knobs layered on top.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """CPU-seconds charged per primitive server operation."""

    #: Accept a new TCP connection (accept(2) + allocation + bookkeeping).
    accept: float = 35e-6
    #: Reject/drop a SYN when the backlog is full (softirq + RST path).
    reject: float = 12e-6
    #: Read an incoming request off a socket (read(2) + buffer handling).
    read_syscall: float = 20e-6
    #: Parse an HTTP request head and resolve the target resource.
    parse_request: float = 90e-6
    #: Open/stat/locate the requested file (warm cache).
    file_lookup: float = 85e-6
    #: Copy/checksum cost per byte sent (kernel + NIC interaction).
    per_byte: float = 3.4e-9
    #: One write(2)/send(2) invocation (per chunk written).
    write_syscall: float = 22e-6
    #: Close a connection (close(2) + TCP teardown bookkeeping).
    close: float = 18e-6
    #: Keep-alive bookkeeping between requests on a persistent connection.
    keepalive_check: float = 8e-6
    #: One select()/poll() style readiness query (event-driven servers).
    select_call: float = 18e-6
    #: Per ready-event cost inside a select() result scan.
    select_per_event: float = 6e-6
    #: Dispatch one ready event to handler code (event-driven servers).
    dispatch: float = 9e-6
    #: Hand a unit of work between pipeline stages (staged servers).
    stage_handoff: float = 7e-6
    #: One load-balancer routing decision (cluster front end).  The front
    #: tier is modelled as uncapacitated, so this cost is attribution-only:
    #: it lands in the observer's CPU ledger, never on a Machine.
    balance: float = 5e-6
    #: One front-cache LRU lookup (cluster front end; attribution-only,
    #: same as :attr:`balance`).
    cache_lookup: float = 4e-6

    def scaled(self, factor: float) -> "CostModel":
        """A copy with every cost multiplied by ``factor`` (e.g. JVM tax)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        fields = {
            name: getattr(self, name) * factor
            for name in self.__dataclass_fields__
        }
        return CostModel(**fields)

    def with_overrides(self, **overrides: float) -> "CostModel":
        """A copy with selected fields replaced."""
        return replace(self, **overrides)

    # -- composite helpers ---------------------------------------------------
    def request_service(self, response_bytes: int, nchunks: int) -> float:
        """Total CPU to serve one request excluding accept/close/selector."""
        return (
            self.read_syscall
            + self.parse_request
            + self.file_lookup
            + self.per_byte * response_bytes
            + self.write_syscall * max(1, nchunks)
        )
