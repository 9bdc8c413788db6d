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


def _fake_run(tree, job_samples, calls):
    # a run that exits 0 with a correct summary and writes its detail file
    def run(argv, **kwargs):
        calls.append(argv)
        out = tree / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        (out / "bound-seed3-trace0.json").write_text(
            json.dumps({"summary": {"job_samples_s": job_samples}}))
        summary = {"correct": True, "attempted": 4, "failed": 0,
                   "metrics": {"peak_rss_mb": {"value": 52.5, "unit": "MB"}}}
        return subprocess.CompletedProcess(argv, 0, stdout="bound ...\n" + json.dumps(summary),
                                           stderr="")
    return run


def test_a_run_reports_the_passes_its_detail_file_holds(tmp_path, monkeypatch):
    (tmp_path / "perfbench").mkdir()
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        _fake_run(tmp_path, [0.01, 0.02, 0.015], calls))
    got = bench_pairs.run_once(tmp_path, "bound", 3, 35)
    assert got == {"peak_rss_mb": 52.5, "passes": 3} and len(calls) == 1


def test_a_run_whose_detail_file_holds_no_pass_list_fails(tmp_path, monkeypatch):
    (tmp_path / "perfbench").mkdir()
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_run(tmp_path, None, []))
    with pytest.raises(bench_pairs.RunFailed, match="no pass count"):
        bench_pairs.run_once(tmp_path, "bound", 3, 35)


def test_the_rss_row_shows_both_sides_median_pass_counts():
    pairs = [({**p, "passes": n}, {**c, "passes": m})
             for (p, c), n, m in zip(_pairs(), [1700, 1676, 1735, 1690],
                                     [2350, 2327, 2372, 2330])]
    rows = {row["metric"]: row for row in bench_pairs.summarize(pairs, METRICS)}
    assert rows["peak_rss_mb"]["passes"] == (1695.0, 2340.0)
    assert all("passes" not in row for name, row in rows.items() if name != "peak_rss_mb")
    line = bench_pairs.format_row("bound", rows["peak_rss_mb"])
    assert line.endswith("won 0/4 passes 1695 -> 2340")
