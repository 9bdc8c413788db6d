"""tools/bench_pairs.py summarizes paired benchmark runs; no run starts here."""

import importlib.util
import json
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "job_s", "better": "lower", "bound": 0.25},
           {"name": "success_rate", "better": "higher", "bound": 0.01},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
           {"name": "setup_s", "better": "lower", "bound": 0.25}]


def _pairs():
    # four pairs of (parent, change) runs of one workload
    job = [(1.0, 0.8), (1.0, 0.9), (1.0, 1.1), (1.0, 0.7)]
    success = [(1.0, 1.0), (1.0, 0.9), (1.0, 0.9), (1.0, 0.9)]
    rss = [(50.0, 50.0)] * 4
    setup = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
    return [({"job_s": j[0], "success_rate": s[0], "peak_rss_mb": r[0], "setup_s": u[0]},
             {"job_s": j[1], "success_rate": s[1], "peak_rss_mb": r[1], "setup_s": u[1]})
            for j, s, r, u in zip(job, success, rss, setup)]


def test_summary_of_hand_made_pairs():
    rows = {row["metric"]: row for row in bench_pairs.summarize(_pairs(), METRICS)}
    # lower is better: the median fell from 1.0 to 0.85, won in 3 of 4 pairs
    job = rows["job_s"]
    assert job["parent"] == (1.0, 1.0, 1.0) and job["change"][1] == pytest.approx(0.85)
    assert job["gain"] == pytest.approx(0.15) and job["wins"] == 3 and job["flags"] == []
    # higher is better: the median fell by 10%, past the 1% bound
    success = rows["success_rate"]
    assert success["gain"] == pytest.approx(-0.1) and success["wins"] == 0
    assert success["flags"] == ["worse"]
    # a tie in every pair counts for neither side
    rss = rows["peak_rss_mb"]
    assert rss["gain"] == 0.0 and rss["wins"] == 0 and rss["flags"] == []
    # the parent's quartiles 1.75 and 3.25 span 60% of its median 2.5
    setup = rows["setup_s"]
    assert setup["parent"] == (1.75, 2.5, 3.25) and setup["flags"] == ["unresolved"]
    line = bench_pairs.format_row("desk", setup)
    assert line.startswith("desk    setup_s") and line.endswith("won 0/4 unresolved")


def test_an_incorrect_run_stops_with_exit_1(tmp_path, monkeypatch, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    calls = []

    def incorrect(argv, **kwargs):
        calls.append(argv)
        summary = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(summary), stderr="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", incorrect)
    assert bench_pairs.main(["--parent", str(tmp_path), "--pairs", "2",
                             "--workloads", "bound"]) == 1
    # pair 1 runs the change first, and the first incorrect run stops the script
    assert len(calls) == 1 and calls[0][1] == str(bench_pairs.ROOT / "perfbench" / "run.py")
    assert calls[0][2:] == ["--workload", "bound", "--seed", "1", "--seconds", "35",
                            "--trace", "0"]
    assert "run failed" in capsys.readouterr().err
