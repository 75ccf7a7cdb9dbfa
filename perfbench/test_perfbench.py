"""Tests of the benchmark itself: span arithmetic, metric names and output checks.

Run with ``python3 -m pytest perfbench``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

import run
from checks import CheckError, check_sweep, check_trajectories
from spans import Recorder, by_name, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_self_times_nested_and_sibling_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),  # inside a
        ("c", 5.0, 7.0, 0),  # sibling of a
        ("b", 5.5, 6.0, 3),  # inside c
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.5, 0.5])
    totals = by_name(spans)
    assert totals["b"] == {"calls": 2, "self_s": pytest.approx(1.5)}
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_recorder_wraps_the_looked_up_name(monkeypatch):
    mod = types.ModuleType("toy_layer")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", mod.__dict__)
    monkeypatch.setitem(sys.modules, "toy_layer", mod)
    rec = Recorder()
    rec.wrap("toy_layer", "inner", "toy.inner",
             count=lambda r, args, kwargs, result: r.counters.__setitem__(
                 "toy.sum", r.counters["toy.sum"] + args[0]))
    rec.wrap("toy_layer", "outer", "toy.outer")
    assert mod.outer(1) == 4 and mod.outer(2) == 6
    names = [(s[0], s[3]) for s in rec.spans]
    assert names == [("toy.outer", -1), ("toy.inner", 0), ("toy.outer", -1), ("toy.inner", 2)]
    assert rec.counters["toy.sum"] == 3


def test_metric_names_are_valid_and_match_what_the_benchmark_computes():
    spec = _declared()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)

    calls = [{"run_s": 2.0, "setup_s": 0.2, "ref_s": run.REF_S, "gap_db": 0.3,
              "peak_rss_mb": 40.0}]
    spans = [("cli.main", 0.0, 2.2, -1), ("ppe.weights", 1.0, 1.5, 0)]
    traced = [{"run_s": 2.2, "ref_s": run.REF_S, "spans": spans, "counters": {}}]
    computed = set()
    for workload in run.WORKLOADS:
        e2e = run.end_to_end(workload, calls)
        assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
        layers = run.per_layer(workload, calls, traced)
        computed |= {f"{workload}.{k}" for k in layers}
        assert layers["trace.overhead_s"] == [pytest.approx(0.2)]
    assert computed == {m["name"] for m in spec["per_layer"]}
    assert run.per_layer("sweep-ula", calls, traced)["ppe.weights.self_s"] == [pytest.approx(0.5)]


def test_end_to_end_times_are_scaled_to_the_reference_host_speed():
    # A call on a host half as fast: the kernel and the call both take twice as long.
    calls = [{"run_s": 4.0, "setup_s": 0.4, "ref_s": 2 * run.REF_S, "peak_rss_mb": 40.0}]
    e2e = run.end_to_end("sweep-ula", calls)
    assert e2e["work_per_s"] == [pytest.approx(run.WORKLOADS["sweep-ula"].units / 2.0)]
    assert e2e["setup_s"] == [pytest.approx(0.2)]
    assert e2e["peak_rss_mb"] == [40.0]


def test_every_metric_reads_the_median_of_its_calls(capsys):
    samples = {"work_per_s": [2.0, 5.0, 3.0, 4.0], "setup_s": [0.1, 0.3, 0.2]}
    metrics = run.summarize(samples, {"work_per_s": "1/s", "setup_s": "s"})
    assert metrics["work_per_s"] == {"value": 3.5, "unit": "1/s"}
    assert metrics["setup_s"] == {"value": 0.2, "unit": "s"}
    assert "work_per_s = 3.5 1/s (4 samples, quartiles" in capsys.readouterr().out


def _write(path, rows):
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def _sweep(tmp_path, mse2_top=-33.0, ls_top=-20.0, extra=None):
    _write(tmp_path / "mse.csv", [["snr_db", "mse_db_1", "mse_db_2"],
                                  [0, -10.0, -5.0], [20, -30.0, mse2_top]])
    _write(tmp_path / "crb.csv", [["snr_db", "crb_db_1", "crb_db_2", "ls_db"],
                                  [0, -15.0, -13.29, -0.1], [20, -35.0, -33.29, ls_top]])
    if extra:
        extra(tmp_path)
    return check_sweep(str(tmp_path), (-1.5, 1.5), ls_tol_db=0.5)


def test_sweep_check_accepts_a_good_file_and_returns_the_gap(tmp_path):
    assert _sweep(tmp_path) == pytest.approx(0.29)


@pytest.mark.parametrize("corrupt", [
    dict(mse2_top=-30.0),  # 3.3 dB above the CRB
    dict(ls_top=-18.0),  # LS 2 dB off -SNR
    dict(mse2_top="nan"),
    dict(extra=lambda d: _write(d / "crb.csv", [["snr_db", "crb_db_2", "ls_db"], [0, -13.29]])),
    dict(extra=lambda d: (d / "mse.csv").write_text("")),
    dict(extra=lambda d: (d / "crb.csv").unlink()),
])
def test_sweep_check_rejects_corrupted_csv(tmp_path, corrupt):
    with pytest.raises(CheckError):
        _sweep(tmp_path, **corrupt)


def _trajectories(tmp_path, rows=None, header=None):
    header = header or ["Iteration", "Best_1_Cost_dB", "Best_2_Cost_dB", "Proxy_Cost_dB"]
    rows = rows or [[0, 0.4, 0.41, -9.9], [1, 0.2, 0.3, -9.95], [2, 0.1, 0.2, -9.96]]
    _write(tmp_path / "trajectories.csv", [header, *rows])
    return check_trajectories(str(tmp_path), iterations=2, starts=2, snr_db=10.0, tol_db=0.7)


def test_trajectory_check_accepts_a_good_file(tmp_path):
    assert _trajectories(tmp_path) == pytest.approx(0.1)


@pytest.mark.parametrize("corrupt", [
    dict(rows=[[0, 0.4, 0.41, -9.9], [1, 0.2, 0.3, -9.95]]),  # a row missing
    dict(rows=[[0, 0.4, 0.41, -8.0], [1, 0.2, 0.3, -9.95], [2, 0.1, 0.2, -9.96]]),  # genie off
    dict(rows=[[0, 0.4, 0.41, -9.9], [1, 0.2, 0.3, -9.95], [2, 0.3, 0.2, -9.96]]),  # unranked
    dict(header=["Iteration", "Best_1_Cost_dB", "Proxy_Cost_dB", "Extra"]),
])
def test_trajectory_check_rejects_corrupted_csv(tmp_path, corrupt):
    with pytest.raises(CheckError):
        _trajectories(tmp_path, **corrupt)


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-ula",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
