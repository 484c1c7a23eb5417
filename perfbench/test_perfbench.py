"""Tests of the benchmark itself, on smoke-sized points.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from checks import check_record, row_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke_record(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "point.py"), "--workload", workload,
         "--seed", "42", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in layers.PREDICTS
    }
    for workload in WORKLOADS.values():
        assert set(workload.stresses) <= set(layers.LAYERS)
        assert set(workload.bypasses) <= set(layers.LAYERS)
    for metrics, workloads in layers.PREDICTS.values():
        assert set(metrics) <= set(run.END_TO_END)
        assert set(workloads) <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_and_passes(workload, trace):
    proc = _bench("--workload", workload, "--seed", "42", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    expected = run.END_TO_END if not trace else layers.PREDICTS
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name
        assert metric["unit"], name
    provenance = json.loads(
        next(ln for ln in lines if ln.startswith("provenance "))[len("provenance "):]
    )
    assert provenance["backend"] in {"python", "turbo"}
    assert {"wheel", "fluid", "repro_env", "python", "nproc", "seed",
            "commit"} <= set(provenance)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_rows_fail_the_check(workload):
    spec = WORKLOADS[workload]
    record = _smoke_record(workload)
    assert check_record(spec, record) == []

    def corrupt(field, value):
        bad = copy.deepcopy(record)
        bad["row"][field] = value
        bad["digest"] = row_digest(bad["row"])
        return check_record(spec, bad)

    assert corrupt("cpu%", 100.5)
    assert corrupt("replies", 0)
    assert corrupt("resp_ms", 1e9)

    tampered = copy.deepcopy(record)
    tampered["row"]["replies/s"] += 1.0
    assert "row digest does not match the row" in check_record(spec, tampered)

    if spec.zero_resets:
        assert corrupt("reset/s", 0.5)
    if spec.cluster:
        bad = copy.deepcopy(record)
        bad["histograms"]["merged_tiers"]["exact"] = "0" * 64
        assert check_record(spec, bad)


def test_points_repeat_the_same_digest():
    first, second = (_smoke_record("up-nio-sat") for _ in range(2))
    assert first["digest"] == second["digest"]
    assert first["counters"] == second["counters"]


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _Stats:
    """A hand-built ``pstats.Stats`` stand-in."""

    def __init__(self, table):
        self.stats = table


def test_attribution_charges_foreign_code_to_the_calling_layer(tmp_path):
    root = str(tmp_path / "repro")
    sim_fn = (os.path.join(root, "sim", "core.py"), 1, "run")
    net_fn = (os.path.join(root, "net", "tcp.py"), 1, "send")
    core_fn = (os.path.join(root, "core", "experiment.py"), 1, "run")
    stdlib = ("/usr/lib/python3/random.py", 1, "random")
    builtin = ("~", 0, "<built-in method builtins.len>")
    table = {
        sim_fn: (1, 1, 1.0, 9.0, {core_fn: (1, 1, 1.0, 9.0)}),
        net_fn: (4, 4, 2.0, 5.0, {sim_fn: (4, 4, 2.0, 5.0)}),
        core_fn: (1, 1, 0.5, 10.0, {}),
        # The stdlib function is called from sim and net alike ...
        stdlib: (2, 2, 1.0, 3.0, {sim_fn: (1, 1, 0.25, 0.5),
                                  net_fn: (1, 1, 0.75, 2.5)}),
        # ... and the builtin only from the stdlib one.
        builtin: (6, 6, 2.0, 2.0, {stdlib: (6, 6, 2.0, 2.0)}),
    }
    out = layers.attribute(_Stats(table), root)
    assert out["sim"]["self_s"] == pytest.approx(1.0 + 0.25 + 2.0 * 0.25)
    assert out["net"]["self_s"] == pytest.approx(2.0 + 0.75 + 2.0 * 0.75)
    assert out["other"]["self_s"] == pytest.approx(0.5)
    assert out["sim"]["calls"] == 1 and out["net"]["calls"] == 4
    assert sum(v["share"] for v in out.values()) == pytest.approx(1.0)
