"""End-to-end benchmark of the liepinv CLI as a batch user drives it.

    python3 bench/run.py --workload dense-docs --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Each job is one in-process ``liepinv.cli.main`` call (read, decode, solve,
verify, encode, write), run back to back by one client from one process with
the BLAS pinned to one thread.  A run attempts whole rounds of the workload's
job list, checks every output against ``oracles.py`` and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of ``tracing.py`` with ``--trace 1``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
MIN_TIMED_JOBS = 100  # the 90th percentile keeps at least ten samples beyond it


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def load_program():
    """Import the CLI from this checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "liepinv" / "cli.py").is_file():
        sys.exit(f"bench: {SRC / 'liepinv'} not found; run from a liepinv checkout")
    sys.path.insert(0, str(SRC))
    import liepinv.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "liepinv":
        sys.exit(f"bench: imported liepinv from {cli.__file__}, not from {SRC}")
    return cli


# Host speed on a shared machine drifts by up to 1.5x in phases of 10-60 s.
# A fixed calibration kernel with no program code runs before every job, and
# each job's wall time is scaled by ``ref_s`` over the rolling median of the
# five nearest kernel times.  Reported times are therefore wall times at the
# speed where the kernel takes ``ref_s``.  The kernel has to slow down as the
# workload does: a 64x64 complex SVD plus a 20k-step interpreter loop tracks
# graded-ladder and jordan-pairs, but not the JSON codec that dominates
# dense-docs, which a JSON round trip of a 40x40 complex array does track
# (README.md, "Speed normalization").
CALIBRATION_WINDOW = 5
CODEC_WORKLOADS = {"dense-docs"}


class Calibration:
    """The calibration kernel and the speed factors derived from its times."""

    def __init__(self, codec: bool):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((64, 64)) * (1 + 1j)
        self.text = json.dumps(rng.standard_normal((40, 40, 2)).tolist()) if codec else None
        self.ref_s = 9.0e-3 if codec else 3.0e-3

    def kernel(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        np.linalg.svd(self.matrix)
        acc = 0
        for i in range(20000):
            acc += i * i
        if self.text is not None:
            json.loads(json.dumps(json.loads(self.text)))
        return time.perf_counter() - t0

    def factors(self, kernel_times: list[float]) -> list[float]:
        half = CALIBRATION_WINDOW // 2
        return [
            self.ref_s / statistics.median(kernel_times[max(0, i - half): i + half + 1])
            for i in range(len(kernel_times))
        ]


class Runner:
    """Writes a workload's documents to a scratch directory and runs them as CLI jobs."""

    def __init__(self, cli, jobs, workdir: Path, calibration: Calibration):
        self.cli = cli
        self.jobs = jobs
        self.workdir = workdir
        self.calibration = calibration
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, job in enumerate(jobs):
            src, dst = workdir / f"{i:03d}.in.json", workdir / f"{i:03d}.out.json"
            src.write_text(job.text)
            self.paths.append((str(src), str(dst)))

    def argv(self, i: int) -> list[str]:
        src, dst = self.paths[i]
        return [self.jobs[i].command, src, "--output", dst]

    def round(self, tracer=None, first_id: int = 0):
        """One closed-loop pass over every job.

        Returns per-job wall seconds, speed-normalized seconds, speed factors
        and exit codes.  With a tracer, job i of the round gets span id
        ``first_id + i``.
        """
        wall, kernel, codes = [], [], []
        sink = io.StringIO()
        clock = time.perf_counter
        with contextlib.redirect_stderr(sink):
            for i in range(len(self.jobs)):
                kernel.append(self.calibration.kernel())
                argv = self.argv(i)
                if tracer is not None:
                    tracer.job = first_id + i
                t0 = clock()
                code = self.cli.main(argv)
                wall.append(clock() - t0)
                codes.append(code)
                sink.seek(0)
                sink.truncate()
        factors = self.calibration.factors(kernel)
        return Round(wall, [t * f for t, f in zip(wall, factors)], factors, codes)

    def output(self, i: int):
        try:
            return json.loads(Path(self.paths[i][1]).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def verdict(self, i: int, code: int):
        """None if job i answered right, else (i, why, whether it failed as its known fault)."""
        from oracles import check, known_fault

        out = self.output(i)
        why = check(self.jobs[i], code, out)
        return None if why is None else (i, why, known_fault(self.jobs[i], code, out))

    def check(self, codes) -> list[tuple[int, str, bool]]:
        return [v for v in (self.verdict(i, code) for i, code in enumerate(codes)) if v is not None]

    def setup_seconds(self, repeats: int) -> tuple[float, float, tuple | None]:
        """Median time of a fresh interpreter running the CLI on the first job.

        Returns the speed-normalized and the wall median, and the verdict of
        the first of these runs that answered wrong, if any.  The time goes to
        interpreter start-up and imports, not to the JSON codec, so every
        workload normalizes it with the kernel without the JSON part.
        """
        calibration = Calibration(codec=False)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env.update({var: "1" for var in THREAD_VARS})
        code_text = "import sys; from liepinv.cli import main; sys.exit(main())"
        wall, normalized, verdict = [], [], None
        for _ in range(repeats):
            before = [calibration.kernel() for _ in range(3)]
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code_text, *self.argv(0)], env=env,
                                  cwd=ROOT, capture_output=True, timeout=120)
            wall.append(time.perf_counter() - t0)
            after = [calibration.kernel() for _ in range(3)]
            normalized.append(wall[-1] * calibration.ref_s / statistics.median(before + after))
            verdict = verdict or self.verdict(0, proc.returncode)
        return statistics.median(normalized), statistics.median(wall), verdict


@dataclass
class Round:
    """Per-job figures of one pass over a workload."""

    wall: list[float]
    normalized: list[float]
    factors: list[float]
    codes: list[int]


def timed_rounds(runner: Runner, seconds: float, min_rounds: int):
    """Whole rounds until ``seconds`` of job wall time and ``min_rounds`` are reached."""
    rounds, failures = [], []
    while len(rounds) < min_rounds or sum(sum(r.wall) for r in rounds) < seconds:
        rounds.append(runner.round())
        failures.extend(runner.check(rounds[-1].codes))
    return rounds, failures


def judge(jobs, failures, attempted: int, untimed=()) -> dict:
    """``correct`` is false when a job failed other than as its known fault.

    ``failures`` come from the counted rounds; ``untimed`` from warm-up and
    set-up jobs, which must be right too but are not counted.
    """
    unexpected = sorted({(i, why) for i, why, known in [*failures, *untimed] if not known})
    for i, why in unexpected[:10]:
        print(f"UNEXPECTED FAILURE job {i} ({jobs[i].rung}): {why}")
    return {"correct": not unexpected, "attempted": attempted, "failed": len(failures)}


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_end_to_end(runner: Runner, jobs, seconds: float, smoke: bool) -> dict:
    setup_s, setup_wall, verdict = runner.setup_seconds(1 if smoke else SETUP_REPEATS)
    untimed = runner.check(runner.round().codes)
    if verdict is not None:
        i, why, known = verdict
        untimed.append((i, f"fresh interpreter: {why}", known))
    min_rounds = 1 if smoke else max(3, math.ceil(MIN_TIMED_JOBS / len(jobs)))
    rounds, failures = timed_rounds(runner, seconds, min_rounds)
    result = judge(jobs, failures, sum(len(r.wall) for r in rounds), untimed)
    flat = [t for r in rounds for t in r.normalized]
    values = {
        "jobs_per_s": len(jobs) / statistics.median(sum(r.normalized) for r in rounds),
        "job_p50_ms": 1e3 * percentile(flat, 0.5),
        "job_p90_ms": 1e3 * percentile(flat, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = [t for r in rounds for t in r.wall]
    print(f"timed pass: {len(rounds)} rounds, {len(wall)} jobs, {sum(wall):.2f} s of job wall time, "
          f"median speed factor {statistics.median(f for r in rounds for f in r.factors):.3f}")
    print(f"wall (not normalized): {len(jobs) / statistics.median(sum(r.wall) for r in rounds):.4f} jobs/s, "
          f"p50 {1e3 * percentile(wall, 0.5):.3f} ms, p90 {1e3 * percentile(wall, 0.9):.3f} ms, "
          f"setup {setup_wall:.4f} s")
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in metric_units("end_to_end").items()}
    return result


def run_traced(runner: Runner, jobs, seconds: float, trace_path: Path | None) -> dict:
    from tracing import Tracer

    untimed = runner.check(runner.round().codes)
    tracer = Tracer()
    plain, traced, failures, factors = [], [], [], []
    while not plain or sum(sum(r.wall) for r in plain + traced) < seconds:
        plain.append(runner.round())
        failures.extend(runner.check(plain[-1].codes))
        tracer.install()
        try:
            traced.append(runner.round(tracer, first_id=len(factors)))
        finally:
            tracer.uninstall()
        factors.extend(traced[-1].factors)
        failures.extend(runner.check(traced[-1].codes))
    result = judge(jobs, failures, sum(len(r.wall) for r in plain + traced), untimed)
    figures = tracer.summary(len(jobs) * len(traced), factors)
    overhead = statistics.median(sum(r.normalized) for r in traced) / statistics.median(
        sum(r.normalized) for r in plain)
    figures["trace.overhead_pct"] = 100.0 * (overhead - 1.0)
    print(f"traced pass: {len(traced)} traced and {len(plain)} untraced rounds; "
          f"overhead {figures['trace.overhead_pct']:.1f} %")
    rungs: dict[str, list[float]] = {}
    for r in plain:
        for job, t in zip(jobs, r.normalized):
            rungs.setdefault(job.rung, []).append(t)
    for rung, ts in rungs.items():
        print(f"rung {1e3 * statistics.median(ts):10.2f} ms  {rung}")
    for name in sorted(figures):
        if figures[name]:
            print(f"layer {figures[name]:12.4f}  {name}")
    if trace_path is not None:
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    result["metrics"] = {m: {"value": figures.get(m, 0.0), "unit": u} for m, u in metric_units("per_layer").items()}
    return result


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from workloads import digest, make_jobs, repeat_share

    jobs = make_jobs(workload, seed, smoke)
    faults = sum(job.fault is not None for job in jobs)
    print(f"workload {workload} seed {seed}: {len(jobs)} jobs per round, {faults} on known faults, "
          f"algebra repeat share {repeat_share(jobs):.2f}, input digest {digest(jobs)}")
    tag = f"{os.getpid()}-{workload}"
    runner = Runner(cli, jobs, OUT / f"work-{tag}", Calibration(codec=workload in CODEC_WORKLOADS))
    try:
        if trace:
            return run_traced(runner, jobs, seconds, None if smoke else OUT / f"trace-{workload}-seed{seed}.jsonl")
        return run_end_to_end(runner, jobs, seconds, smoke)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, untraced and traced, in a few seconds")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    cli = load_program()
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    if not args.smoke:
        result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace), False)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                part = run_workload(cli, workload, args.seed, 0.0, trace, True)
                result["correct"] &= part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                for name, metric in part["metrics"].items():
                    result["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
