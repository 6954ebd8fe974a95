import json
import os
import shutil
import subprocess
import sys

from conftest import BENCH


def run_worker(tmp_path, calls, trace):
    out = tmp_path / "worker.json"
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    job = json.dumps({"calls": calls, "trace": trace, "out": str(out)})
    subprocess.run([sys.executable, str(BENCH / "worker.py"), job], env=env, check=True,
                   timeout=120)
    return json.loads(out.read_text())


def test_traced_worker_counts_calls_where_callers_look_them_up(tmp_path):
    report = tmp_path / "report.json"
    result = run_worker(tmp_path, [["sample", "--n", "21", "--a", "2", "--layout", "static",
                                    "--samples", "3", "--out", str(report)]], True)
    assert result["calls"][0]["exit"] == 0
    funcs = result["trace"]["functions"]
    assert funcs["cli.main"]["calls"] == 1
    assert funcs["shor.sample_run"]["calls"] == 3
    assert len(result["trace"]["durations"]["shor.sample_run"]) == 3
    assert funcs["oracle.exact_distribution"]["calls"] == 1  # looked up in shormps.cli
    svd = funcs["tensor.svd_truncated"]  # looked up in shormps.mps
    assert svd["calls"] > 0
    assert result["trace"]["svd"]["computed_flops"] >= result["trace"]["svd"]["max_elements"] > 0
    for st in funcs.values():
        assert 0 <= st["self_s"] <= st["inclusive_s"] + 1e-9
    assert funcs["cli.main"]["inclusive_s"] <= result["calls"][0]["seconds"]


def test_untraced_worker_reports_times_and_rss(tmp_path):
    report = tmp_path / "report.json"
    result = run_worker(tmp_path, [["profile", "--n", "21", "--a", "2", "--out", str(report)],
                                   ["profile", "--n", "9"]], False)
    assert [c["exit"] for c in result["calls"]] == [0, 2]
    assert result["trace"] is None
    assert result["maxrss_kb"] > 0
    assert report.is_file()


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sample-1943",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
