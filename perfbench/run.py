"""The repository's benchmark: host time per sweep point, by layer.

Run from the repository root::

    python3 perfbench/run.py --workload up-nio-sat --seed 42 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

Each point runs in a fresh, single-threaded process (:mod:`point`), one
after another, never in parallel.  Points repeat until ``--seconds``
have passed (at least three untimed points with ``--trace 0``), and
every point's row is checked (:mod:`checks`); all repeats must give one
row digest.

``--trace 0`` reports the end-to-end metrics, medians over the untimed
points: ``point_s``, ``setup_s`` and ``peak_rss_mb``.  ``--trace 1``
runs one point under :mod:`cProfile` and then untimed points, and
reports the per-layer metrics of :mod:`layers` plus ``trace.overhead``,
the traced point's time over the untimed median.

Before the result, stdout carries the provenance (kernel backend, timing
wheel, client regime, ``REPRO_*`` variables, Python, ``nproc``, seed,
git commit), one line per point and the checked model row.  The last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every point passed its
checks; without ``src/repro`` it is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Untimed points per run at least, by ``--trace``.
MIN_UNTIMED = {0: 3, 1: 1}
#: Wall-clock budget of one run, start-up to result.
BUDGET_S = 170.0

END_TO_END = {"point_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    """The unit of a per-layer metric."""
    if name.endswith(".self_s") or name == "sim.run_s":
        return "s"
    if name == "sim.us_per_event":
        return "us"
    if name.endswith((".share", "_util", "_rate", ".overhead", "_per_burst")):
        return "ratio"
    return "count"


def _git_commit(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn_point(root: Path, workload: str, seed: int, trace: bool,
                smoke: bool, timeout: float):
    """Run one point in a fresh process; its record, or ``None`` and why."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "point.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)], cwd=root, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"point timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"point exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"point printed no record: {proc.stdout[-500:]!r}"


def _median(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(untimed) -> dict:
    return {
        "point_s": _median(untimed, "point_s"),
        "setup_s": _median(untimed, "setup_s"),
        "peak_rss_mb": _median(untimed, "peak_rss_mb"),
    }


def per_layer(traced: dict, untimed) -> dict:
    """Every per-layer metric from one traced point and the untimed ones."""
    out = {}
    for layer in layers.LAYERS:
        for kind in ("self_s", "share", "calls"):
            out[f"{layer}.{kind}"] = traced["layers"][layer][kind]
    out.update(traced["counters"])
    counters = traced["counters"]
    out["sim.run_s"] = _median(untimed, "sim_run_s")
    out["sim.us_per_event"] = out["sim.run_s"] / counters["sim.events"] * 1e6
    bursts = counters["osmodel.cpu_bursts"]
    out["osmodel.arms_per_burst"] = (
        counters["osmodel.timer_arms"] / bursts if bursts else 0.0
    )
    out["trace.overhead"] = traced["point_s"] / _median(untimed, "point_s")
    return {name: out[name] for name in layers.PREDICTS}


def provenance(root: Path, workload: str, seed: int, first: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        **(first["regime"] if first else {}),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "jobs": 1,
        "commit": _git_commit(root),
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int, smoke: bool) -> dict:
    """One run of one workload; prints its points and returns the result."""
    started = time.monotonic()
    records, failed, errors = [], 0, []
    traced_pending = bool(trace)
    untimed = 0
    longest = 0.0
    while True:
        now = time.monotonic() - started
        if not traced_pending and untimed >= MIN_UNTIMED[trace] and now >= seconds:
            break
        if records and now + 1.5 * longest > BUDGET_S:
            break
        record, error = spawn_point(
            root, workload, seed, traced_pending, smoke,
            timeout=max(1.0, BUDGET_S - now),
        )
        traced_pending = False
        if record is None:
            failed += 1
            errors.append(error)
            print(f"point failed: {error}", file=sys.stderr)
            break
        if records and record["digest"] != records[0]["digest"]:
            record["failures"].append("row digest differs from the first point")
        failed += bool(record["failures"])
        records.append(record)
        untimed += not record["traced"]
        longest = max(longest, record["point_s"])
        kind = "traced" if record["traced"] else "untimed"
        print(f"point {len(records)} {kind}: point_s={record['point_s']:.3f} "
              f"setup_s={record['setup_s']:.3f} cpu_s={record['cpu_s']:.3f} "
              f"events={record['counters']['sim.events']} "
              f"peak_rss_mb={record['peak_rss_mb']:.1f} "
              f"digest={record['digest'][:12]} "
              f"checks={'; '.join(record['failures']) or 'ok'}")

    first = records[0] if records else None
    print("provenance " + json.dumps(provenance(root, workload, seed, first)))
    if first:
        print("row " + json.dumps({
            **first["row"],
            "bandwidth_law_ratio": first["bandwidth_law_ratio"],
            "digest": first["digest"],
        }))
    timed = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    values = {}
    if timed and not trace:
        values = end_to_end(timed)
    elif timed and traced:
        values = per_layer(traced[0], timed)
    units = END_TO_END if not trace else {n: unit_of(n) for n in values}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": failed == 0 and bool(values),
        "attempted": max(len(records) + len(errors), 1),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all': each one untimed, "
                             "then traced")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny client counts, for the benchmark's tests")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so a running point is killed and
    # reaped on the way out instead of being left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {root}: run from the repository root",
              file=sys.stderr)
        return 2
    # Compile once up front, so the first point's set-up does not pay it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/repro"],
                   cwd=root, check=True, timeout=BUDGET_S)

    if args.workload != "all":
        result = run_workload(root, args.workload, args.seed, args.seconds,
                              args.trace, args.smoke)
    else:
        results = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                print(f"== {name} --trace {trace}")
                results[name, trace] = run_workload(
                    root, name, args.seed, args.seconds, trace, args.smoke
                )
                print(json.dumps(results[name, trace]))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for (name, _), r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
