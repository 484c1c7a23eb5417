"""Experiment-level configuration: server, workload and sweep specs.

The reconstructed numeric configurations from the paper (OCR-damaged
digits are documented in DESIGN.md):

* client range 60-6000 emulated clients;
* nio worker counts {1, 4, 8} on the uniprocessor, {2, 3, 4} on SMP;
* httpd2 pool sizes {512, 896, 4096, 6000} on UP, {2048, 4096, 6000} on
  SMP; best configurations nio-1 / nio-2 and httpd-4096;
* 10 s client socket timeout, 15 s server idle timeout, ~6.5 requests per
  session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..overload import OverloadControl
from ..workload.fluid import FluidConfig
from ..workload.httperf import HttperfConfig
from ..workload.surge import SurgeConfig

__all__ = [
    "ServerSpec",
    "WorkloadSpec",
    "PAPER_CLIENT_RANGE",
    "NIO_UP_WORKERS",
    "NIO_SMP_WORKERS",
    "HTTPD_UP_POOLS",
    "HTTPD_SMP_POOLS",
    "BEST_NIO_UP",
    "BEST_NIO_SMP",
    "BEST_HTTPD",
]

#: The paper's workload-intensity sweep (clients), 60 to 6000.
PAPER_CLIENT_RANGE: Tuple[int, ...] = (
    60, 600, 1200, 1800, 2400, 3000, 3600, 4200, 4800, 5400, 6000,
)

NIO_UP_WORKERS: Tuple[int, ...] = (1, 4, 8)
NIO_SMP_WORKERS: Tuple[int, ...] = (2, 3, 4)
HTTPD_UP_POOLS: Tuple[int, ...] = (512, 896, 4096, 6000)
HTTPD_SMP_POOLS: Tuple[int, ...] = (2048, 4096, 6000)


@dataclass(frozen=True)
class ServerSpec:
    """Which server architecture to run, and its sizing."""

    kind: str  # "nio" | "httpd" | "staged" | "amped"
    threads: int  # worker threads (nio/staged) or pool size (httpd)
    idle_timeout: float = 15.0  # httpd Timeout/KeepAliveTimeout
    jvm_factor: float = 1.05  # Java CPU tax for the Java servers
    helpers: int = 2  # AMPED helper threads
    backlog: int = 511  # kernel listen backlog (Apache ListenBackLog)
    #: httpd only: manage the pool dynamically (Min/MaxSpareThreads)
    #: instead of spawning ``threads`` workers up front.
    dynamic_pool: bool = False
    #: nio only: "shared" (one selector, the paper's design) or
    #: "partitioned" (one selector per worker, Netty-style).
    selector_strategy: str = "shared"
    #: HTTP/1.1 persistent connections (False = HTTP/1.0 close-per-reply;
    #: pair with HttperfConfig(new_connection_per_request=True)).
    keep_alive: bool = True
    #: Overload-control policies to mount (admission, queue discipline,
    #: adaptive timeout).  The control's state is reset at the start of
    #: every Experiment.run(), so one spec can be swept deterministically.
    overload: Optional[OverloadControl] = None
    #: Mount request-lifecycle observability (a fresh
    #: :class:`~repro.obs.SpanRecorder` + :class:`~repro.obs.PhaseProfiler`
    #: per run).  Off by default: the disabled path costs one attribute
    #: load per instrumentation site.
    observe: bool = False

    def __post_init__(self) -> None:
        if self.kind not in {"nio", "httpd", "staged", "amped"}:
            raise ValueError(f"unknown server kind {self.kind!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    @property
    def label(self) -> str:
        unit = "t" if self.kind == "httpd" else "w"
        base = f"{self.kind}-{self.threads}{unit}"
        if self.overload is not None and self.overload.tag:
            base += f"+{self.overload.tag}"
        return base

    # -- convenience constructors -----------------------------------------
    @staticmethod
    def nio(workers: int = 1, jvm_factor: float = 1.05) -> "ServerSpec":
        return ServerSpec("nio", workers, jvm_factor=jvm_factor)

    @staticmethod
    def httpd(pool: int = 4096, idle_timeout: float = 15.0) -> "ServerSpec":
        return ServerSpec("httpd", pool, idle_timeout=idle_timeout)

    @staticmethod
    def staged(threads_per_stage: int = 1) -> "ServerSpec":
        return ServerSpec("staged", threads_per_stage)

    @staticmethod
    def amped(helpers: int = 2) -> "ServerSpec":
        return ServerSpec("amped", 1, helpers=helpers)


#: The best configurations the paper converges on.
BEST_NIO_UP = ServerSpec.nio(1)
BEST_NIO_SMP = ServerSpec.nio(2)
BEST_HTTPD = ServerSpec.httpd(4096)


@dataclass(frozen=True)
class WorkloadSpec:
    """Offered load and measurement window for one run.

    The paper measured 5-minute windows; the simulation reaches steady
    state in seconds, so shorter windows (default 10 s after an 8 s
    warmup) reproduce the same steady-state rates at a fraction of the
    wall-clock.  Both are configurable for higher-fidelity runs.
    """

    clients: int
    duration: float = 10.0
    warmup: float = 8.0
    n_files: int = 2000
    surge: SurgeConfig = field(default_factory=SurgeConfig)
    httperf: HttperfConfig = field(default_factory=HttperfConfig)
    ramp: Optional[float] = None  # client start stagger; default: warmup/2
    #: Aggregated fluid client population (million-client scale mode);
    #: ``None`` = the discrete per-client generator.  Part of the spec,
    #: so the store key covers it.
    fluid: Optional[FluidConfig] = None

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.duration <= 0 or self.warmup < 0:
            raise ValueError("bad measurement window")

    @property
    def effective_ramp(self) -> float:
        return self.warmup / 2.0 if self.ramp is None else self.ramp
