"""tools/bench_pairs.py summarizes paired benchmark runs; no run starts here."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import numpy as np
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
    # every run read 50 MB, so the RSS does not grow with the passes
    assert rows["peak_rss_mb"]["mb_per_pass"] == 0.0
    line = bench_pairs.format_row("bound", rows["peak_rss_mb"])
    assert line.endswith("won 0/4 passes 1695 -> 2340 0 MB/pass, change at 1695 passes 50")


def test_the_rss_row_prices_the_passes_the_harness_keeps():
    # RSS is 40 MB plus 0.01 MB per pass on the parent's runs and 1 MB
    # more on the change's: the slope is fitted over all eight runs, and
    # the change moved to the parent's median pass count reads 1 MB more
    parent_passes, change_passes = [100, 120, 110, 90], [150, 160, 140, 155]
    pairs = [({"peak_rss_mb": 40 + 0.01 * n, "passes": n},
              {"peak_rss_mb": 41 + 0.01 * m, "passes": m})
             for n, m in zip(parent_passes, change_passes)]
    metric = [m for m in METRICS if m["name"] == "peak_rss_mb"]
    row = bench_pairs.summarize(pairs, metric)[0]
    # least squares over runs on two lines 1 MB apart, not the line itself
    passes = np.array(parent_passes + change_passes, dtype=float)
    rss = np.array([40 + 0.01 * n for n in parent_passes] + [41 + 0.01 * m for m in change_passes])
    assert row["mb_per_pass"] == pytest.approx(np.polyfit(passes, rss, 1)[0], rel=1e-12)
    moved = [41 + 0.01 * m - row["mb_per_pass"] * (m - 105) for m in change_passes]
    assert row["passes"] == (105.0, 152.5)
    assert row["rss_at_parent_passes"] == pytest.approx(np.median(moved), rel=1e-12)
    # A/A copies enter the fit once each, and the parent runs they share
    # with the real pairs are not counted again
    copy_passes = [95, 130, 105, 115]
    aa_pairs = [(p, {"peak_rss_mb": 40 + 0.01 * n, "passes": n})
                for (p, _), n in zip(pairs, copy_passes)]
    row = bench_pairs.summarize(pairs, metric, aa_pairs)[0]
    passes = np.concatenate([passes, copy_passes])
    rss = np.concatenate([rss, [40 + 0.01 * n for n in copy_passes]])
    assert row["mb_per_pass"] == pytest.approx(np.polyfit(passes, rss, 1)[0], rel=1e-12)
    # with every run at one pass count no slope can be fitted
    same = [({"peak_rss_mb": 40.0, "passes": 7}, {"peak_rss_mb": 41.0, "passes": 7})] * 3
    row = bench_pairs.summarize(same, metric)[0]
    assert row["mb_per_pass"] is None and row["rss_at_parent_passes"] is None
    assert bench_pairs.format_row("desk", row).endswith("passes 7 -> 7")


def test_an_aa_row_flags_a_change_inside_the_aa_range():
    # A/A per-pair changes of job_s span -20%..+10%, so the real +15%
    # lies outside; those of success_rate span -10%..0%, so its real -10%
    # lies inside; and peak_rss_mb did not change at all
    pairs = _pairs()
    aa_pairs = [(p, {**p, "job_s": p["job_s"] * f, "success_rate": g})
                for (p, _), f, g in zip(pairs, [1.2, 0.9, 1.0, 1.05], [1.0, 0.9, 0.95, 1.0])]
    rows = {row["metric"]: row for row in bench_pairs.summarize(pairs, METRICS, aa_pairs)}
    job = rows["job_s"]
    assert job["aa"][1:] == (pytest.approx(-0.2), pytest.approx(0.1))
    assert job["aa"][0] == pytest.approx(-0.025) and job["flags"] == []
    assert "a/a -2.5% [-20.0%, +10.0%]" in bench_pairs.format_row("desk", job)
    success = rows["success_rate"]
    assert success["aa"] == (pytest.approx(-0.025), pytest.approx(-0.1), 0.0)
    assert success["flags"] == ["worse", "unresolved"]
    assert rows["peak_rss_mb"]["aa"] == (0.0, 0.0, 0.0) and rows["peak_rss_mb"]["flags"] == []


def test_aa_runs_a_copy_of_the_parent_in_every_pair(tmp_path, monkeypatch, capsys):
    # a stub workload: each tree's run.py is never started; the change is
    # 20% faster than the parent, and the copy as fast as the parent
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "perfbench" / "out").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("")
    (parent / "perfbench" / "out" / "stale.json").write_text("{}")
    (change / "BENCHMARK.json").write_bytes((bench_pairs.ROOT / "BENCHMARK.json").read_bytes())
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    trees, stale = [], []

    def run(argv, cwd, **kwargs):
        tree = Path(cwd)
        trees.append(tree)
        stale.append((tree / "perfbench" / "out" / "stale.json").exists())
        seed = argv[argv.index("--seed") + 1]
        out = tree / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        (out / f"desk-seed{seed}-trace0.json").write_text(
            json.dumps({"summary": {"job_samples_s": [0.1] * 5}}))
        job = 0.8 if tree == change else 1.0
        values = {"setup_s": 0.5, "peak_rss_mb": 50.0, "success_rate": 1.0, "job_s": job,
                  "request_ms_p90": 3.0}
        summary = {"correct": True,
                   "metrics": {name: {"value": v} for name, v in values.items()}}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(summary), stderr="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.main(["--parent", str(parent), "--pairs", "3", "--workloads", "desk",
                             "--aa"]) == 0
    copy = [t for t in trees if t not in (parent.resolve(), change)]
    assert len(trees) == 9 and len(set(copy)) == 1 and len(copy) == 3
    # the copy sits in a new temporary directory, without the parent's
    # outputs, and is gone when the script ends
    assert copy[0].name == "parent" and not copy[0].exists()
    assert stale == [t == parent.resolve() for t in trees]
    # pair s runs the copy at position s % 3
    assert [trees[3 * (s - 1) + s % 3] for s in (1, 2, 3)] == copy
    lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["job_s"].endswith("+20.0% better, won 3/3 a/a +0.0% [+0.0%, +0.0%]")
    assert lines["setup_s"].endswith("+0.0% better, won 0/3 a/a +0.0% [+0.0%, +0.0%]")
