"""CI guard: fail when kernel events/sec regresses >30% below the floor.

Usage (as in .github/workflows/ci.yml)::

    PYTHONPATH=src pytest benchmarks/bench_kernel.py \\
        --benchmark-disable-gc --benchmark-json=bench.json
    python benchmarks/check_perf_floor.py bench.json

Reads the pytest-benchmark JSON report, converts each micro-benchmark's
fastest round into events/second, and compares against the checked-in
``benchmarks/perf_floor.json``.  The floors are deliberately set at
about half the measured rates, and the check only fails below 70% of a
floor — so CI noise passes but a real kernel regression does not.

Observability overhead is not guarded here: a kernel loop crosses no
instrumentation site.  The exact zero-call check in
``tests/test_obs_pay_for_use.py`` (tier-1) proves that a run with
observability off makes no call into ``repro.obs``.

Exit status: 0 = all benches clear the bar, 1 = regression, 2 = bad input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: pytest-benchmark test name -> (bench key, events dispatched per round).
#: Counts must match benchmarks/bench_kernel.py.
BENCH_EVENTS = {
    "test_kernel_event_dispatch": ("timeout_chain", 20_000),
    "test_cpu_processor_sharing_station": ("cpu_bursts", 10_000),
    "test_link_fluid_transmissions": ("link_transmissions", 20_000),
    "test_kernel_timeout_cancel_storm": ("timeout_cancel_storm", 60_000),
    # "events" here are population sessions (benchmarks/bench_scale.py).
    "test_fluid_scale_smoke": ("scale_smoke", 50_000),
}

#: A bench fails only below this fraction of its floor (>30% regression).
TOLERANCE = 0.7

FLOOR_PATH = Path(__file__).resolve().parent / "perf_floor.json"


def check(report_path: str, floor_path: Path = FLOOR_PATH) -> int:
    try:
        report = json.loads(Path(report_path).read_text())
        floors = json.loads(floor_path.read_text())["floors"]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"check_perf_floor: cannot read inputs: {exc}", file=sys.stderr)
        return 2

    seen = set()
    failed = False
    for bench in report.get("benchmarks", []):
        name = bench.get("name", "")
        if name not in BENCH_EVENTS:
            continue
        key, events = BENCH_EVENTS[name]
        best = bench["stats"]["min"]
        rate = events / best
        floor = floors[key]
        bar = TOLERANCE * floor
        verdict = "ok" if rate >= bar else "REGRESSION"
        print(
            f"{key:>20s}: {rate:>12,.0f} ev/s "
            f"(floor {floor:,}, fail below {bar:,.0f}) {verdict}"
        )
        if rate < bar:
            failed = True
        seen.add(key)

    missing = set(floors) - seen
    if missing:
        print(
            f"check_perf_floor: report is missing benches: {sorted(missing)}",
            file=sys.stderr,
        )
        return 2
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    return check(argv[0])


if __name__ == "__main__":
    sys.exit(main())
