"""Tests of the benchmark harness itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import run
from workloads import WORKLOADS, digest, enc_complex, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _jobs(workload: str, command: str):
    return [job for job in make_jobs(workload, 7, smoke=True) if job.command == command]


def test_generator_gives_identical_documents_for_a_seed():
    for workload in WORKLOADS:
        first, again = make_jobs(workload, 11), make_jobs(workload, 11)
        assert [j.text for j in first] == [j.text for j in again]
        assert digest(first) == digest(again)
        assert digest(make_jobs(workload, 12)) != digest(first)


def test_round_shape_and_faults_do_not_depend_on_the_seed():
    for workload in WORKLOADS:
        rounds = [make_jobs(workload, seed) for seed in (1, 2)]
        assert [(j.command, j.rung) for j in rounds[0]] == [(j.command, j.rung) for j in rounds[1]]
        faults = [[j.text for j in r if j.fault] for r in rounds]
        assert faults[0] == faults[1]


def test_corrupted_pinv_entry_counts_as_failed():
    job = _jobs("dense-docs", "pinv")[0]
    good = np.array(job.expect["pinv"], dtype=complex)
    assert oracles.check(job, 0, {"result": {"pinv": enc_complex(good)}}) is None
    bad = good.copy()
    bad[0, 0] += 1e-6 * np.abs(good).max()
    assert oracles.check(job, 0, {"result": {"pinv": enc_complex(bad)}}) is not None


def test_height_off_by_one_counts_as_failed():
    job = _jobs("graded-ladder", "orbit-height")[0]
    height = job.expect["height"]
    assert oracles.check(job, 0, {"result": {"height": height}}) is None
    assert oracles.check(job, 0, {"result": {"height": height + 1}}) is not None
    assert oracles.check(job, 1, {"error": "boom"}) is not None


def test_jordan_inverse_checked_against_reference_and_pair_equations():
    job = _jobs("jordan-pairs", "jordan-mp")[0]
    good = job.expect["f"]
    assert oracles.check(job, 0, {"result": {"inverse": enc_complex(good)}}) is None
    assert oracles.check(job, 0, {"result": {"inverse": enc_complex(2 * good)}}) is not None


def test_known_faults_excuse_only_their_own_failure():
    f2 = next(j for j in make_jobs("graded-ladder", 7, smoke=True) if j.fault == "F2")
    f1 = next(j for j in make_jobs("graded-ladder", 7, smoke=True) if j.fault == "F1")
    height = f1.expect["height"]
    assert oracles.known_fault(f2, 1, {"error": "f-recovery residual 3.1e-05 above tolerance"})
    assert not oracles.known_fault(f2, 2, {"error": "f-recovery residual 3.1e-05 above tolerance"})
    assert not oracles.known_fault(f2, 1, {"error": "SVD did not converge"})
    assert oracles.known_fault(f1, 0, {"result": {"height": height - 3}})
    assert not oracles.known_fault(f1, 0, {"result": {"height": height + 1}})
    assert not oracles.known_fault(f1, 1, {"error": "boom"})
    job = _jobs("graded-ladder", "orbit-height")[0]
    assert not oracles.known_fault(job, 0, {"result": {"height": job.expect["height"] - 1}})
    jobs = [job, f2]
    assert run.judge(jobs, [(1, "exit 1", True)], 2)["correct"] is True
    assert run.judge(jobs, [(1, "exit 2", False)], 2)["correct"] is False


def test_smoke_run_reports_every_metric_of_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True  # every failure is the known fault of its job
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert result["metrics"][f"{workload}/{metric['name']}"]["unit"] == metric["unit"]
    for metric in spec["per_layer"]:  # a misspelt name would read 0 everywhere
        assert any(result["metrics"][f"{w}/{metric['name']}"]["value"] for w in WORKLOADS), metric


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-docs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

