"""Unit tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


def test_profiles_command(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    assert "quick" in out and "standard" in out and "full" in out


def test_run_command_prints_metrics(capsys):
    rc = main([
        "run", "--server", "nio", "--threads", "1",
        "--clients", "20", "--cpu-speed", "0.2",
        "--duration", "5", "--warmup", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "replies/s" in out
    assert "conn_ms" in out


def test_run_command_with_stats(capsys):
    rc = main([
        "run", "--server", "httpd", "--threads", "16",
        "--clients", "10", "--duration", "4", "--warmup", "2",
        "--stats",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pool_size" in out


def test_sweep_command(capsys):
    rc = main([
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "5,15", "--duration", "4", "--warmup", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nio-1w" in out
    assert out.count("\n") >= 4  # title + header + separator + 2 rows


def test_sweep_with_store_resumes(tmp_path, capsys):
    argv = [
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "5,15", "--duration", "4", "--warmup", "2",
        "--store", str(tmp_path / "store"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "2 points executed+stored" in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "2 hits, 0 misses, 0 points executed+stored" in warm
    # The table itself is identical either way.
    table = [ln for ln in cold.splitlines() if ln.strip().startswith("5 ")]
    assert table and all(ln in warm for ln in table)


def test_sweep_adaptive_replication(capsys):
    rc = main([
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "10", "--duration", "3", "--warmup", "2",
        "--reps", "2:3", "--ci", "5.0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "adaptive" in out
    assert "±ci95" in out and "reps" in out


def test_sweep_rejects_bad_reps(capsys):
    rc = main([
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "10", "--duration", "3", "--warmup", "2",
        "--reps", "nope",
    ])
    assert rc == 2
    assert "bad --reps" in capsys.readouterr().err


def test_cache_ls_and_gc(tmp_path, capsys, monkeypatch):
    store_dir = str(tmp_path / "store")
    assert main([
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "5", "--duration", "3", "--warmup", "2",
        "--store", store_dir,
    ]) == 0
    capsys.readouterr()

    assert main(["cache", "ls", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "nio-1w" in out and "1 entries" in out

    # A different fingerprint sees the entry as stale and gc drops it.
    monkeypatch.setenv("REPRO_FINGERPRINT", "some-other-version")
    assert main(["cache", "gc", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "removed 1 stale entries" in out

    assert main(["cache", "ls", "--store", store_dir]) == 0
    assert "empty store" in capsys.readouterr().out


def test_cache_gc_all(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    assert main([
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "5,15", "--duration", "3", "--warmup", "2",
        "--store", store_dir,
    ]) == 0
    capsys.readouterr()
    assert main(["cache", "gc", "--store", store_dir, "--all"]) == 0
    assert "removed 2 entries" in capsys.readouterr().out


def test_resume_flag_uses_default_store(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "default-store"))
    assert main([
        "sweep", "--server", "nio", "--threads", "1",
        "--clients", "5", "--duration", "3", "--warmup", "2",
        "--resume",
    ]) == 0
    out = capsys.readouterr().out
    assert "default-store" in out and "1 points executed+stored" in out


def test_figure_rejects_out_of_range(capsys):
    assert main(["figure", "11"]) == 2


def test_parser_rejects_unknown_server():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--server", "iis"])


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_run_command_with_trace(capsys):
    # Event counts moved from `run --trace` to the `observe` report.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--trace"])
    rc = main([
        "observe", "--server", "nio", "--threads", "1",
        "--clients", "15", "--cpu-speed", "0.2",
        "--duration", "4", "--warmup", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "connection-lifecycle event counts" in out
    assert "conn/established: " in out
    assert "conn/server_close: " in out


def test_observe_command_report(capsys):
    rc = main([
        "observe", "--server", "httpd", "--threads", "16",
        "--clients", "30", "--cpu-speed", "0.5",
        "--duration", "5", "--warmup", "3",
        "--slowest", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "CPU seconds by phase" in out
    assert "req_service" in out
    assert "queue-wait vs service breakdown" in out
    assert "includes failed conns" in out
    assert "slowest connections" in out


def test_observe_command_writes_exports(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    chrome = tmp_path / "trace.json"
    rc = main([
        "observe", "--server", "nio", "--threads", "1",
        "--clients", "20", "--cpu-speed", "0.2",
        "--duration", "4", "--warmup", "2",
        "--spans", str(spans), "--chrome", str(chrome),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out

    from repro.obs import spans_from_jsonl
    parsed = spans_from_jsonl(spans.read_text())
    assert len(parsed) > 0
    assert all(s.status is not None for s in parsed)

    import json
    trace = json.loads(chrome.read_text())
    assert trace["traceEvents"]
    assert any(e["ph"] == "X" for e in trace["traceEvents"])
