"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

WORKLOADS = ("perft", "corpus", "random-play")

NAMED = {
    "perft": {"perft_nodes_per_s": "1/s"},
    "corpus": {"validate_plies_per_s": "1/s", "roundtrip_plies_per_s": "1/s"},
    "random-play": {"random_plies_per_s": "1/s", "ply_us_p50": "us", "ply_us_p99": "us"},
}


def _run_cli(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run_cli(workload, trace)
    assert done.returncode == 0, done.stderr
    report_line, result_line = done.stdout.splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = _benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))

    report = json.loads(report_line.removeprefix("report: "))
    for key in ("python", "nproc", "git_sha", "loadavg_before", "loadavg_after"):
        assert key in report["header"]
    assert {"wall_s", "cpu_s"} <= set(report["diagnostics"])
    named = {name: m["unit"] for name, m in report["named"].items()}
    expected = dict(NAMED[workload], error_rate="ratio")
    assert {name: named.get(name) for name in expected} == expected
    assert report["named"]["error_rate"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_the_traced_wall_time(workload):
    _, result = run.run(workload, seed=5, seconds=0, trace=True, size_name="tiny")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    self_total = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.wall_s"]
    assert metrics["trace.spans"] > 0


def _corrupt_perft(directory: Path):
    path = directory / "perft.json"
    table = json.loads(path.read_text())
    table["positions"][0]["nodes"][1] += 1
    path.write_text(json.dumps(table))


def _corrupt_validate(directory: Path):
    path = directory / "validate_corpus.txt"
    path.write_text(path.read_text().replace("engine result 0-1", "engine result 1-0", 1))


def _corrupt_random_play(directory: Path):
    path = directory / "random_play.json"
    data = json.loads(path.read_text())
    for game in data["games"]:
        game["final"] = game["final"].replace(".", "*", 1)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "workload, corrupt",
    [("perft", _corrupt_perft), ("corpus", _corrupt_validate), ("random-play", _corrupt_random_play)],
)
def test_a_corrupted_reference_is_counted_as_errors(workload, corrupt, tmp_path, monkeypatch):
    references = tmp_path / "reference"
    shutil.copytree(run.REFERENCE_DIR, references)
    corrupt(references)
    monkeypatch.setattr(run, "REFERENCE_DIR", references)
    report, result = run.run(workload, seed=5, seconds=0, trace=False, size_name="tiny")
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["named"]["error_rate"]["value"] > 0
    assert report["diagnostics"]["failures"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_cli("perft", 0, cwd=tmp_path, script=tmp_path / BENCH_DIR.name / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
