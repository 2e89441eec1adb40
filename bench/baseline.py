"""The library-level baseline rows of ROADMAP item 1, timed with the benchmark's settings.

    python3 bench/baseline.py

One BLAS thread, as in run.py.  Each row prints the median wall time of its
repeats and the same time scaled by run.py's calibration kernel.  The
sl(10,10) ``mp_inverse_jordan`` row (about six minutes) is not run; the whole
script takes about a minute.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run


def timed(fn, repeats: int, calibration: run.Calibration) -> tuple[float, float]:
    wall, normalized = [], []
    for _ in range(repeats):
        before = calibration.kernel()
        t0 = time.perf_counter()
        fn()
        wall.append(time.perf_counter() - t0)
        after = calibration.kernel()
        normalized.append(wall[-1] * calibration.ref_s / statistics.median([before, after]))
    return statistics.median(wall), statistics.median(normalized)


def rows(tmp: Path):
    import numpy as np
    from liepinv import classical, cli, graded, jordan
    from workloads import graded_doc

    rng = np.random.default_rng(0)

    def jordan_row(n):
        alg = graded.GradedAlgebra("sl", (n, n))
        pair = jordan.JordanPair(alg)
        inv = jordan.standard_cartan_involution(pair)
        e = alg.random_element(1, rng)
        return lambda: jordan.mp_inverse_jordan(pair, inv, e)

    sl10 = graded.GradedAlgebra("sl", (10, 10))
    e10 = sl10.random_element(1, rng)
    block = e10[:10, 10:]
    yield "jordan.mp_inverse_jordan sl(4,4)", jordan_row(4), 3
    yield "jordan.mp_inverse_jordan sl(6,6)", jordan_row(6), 1
    yield "jordan.mp_inverse_jordan sl(8,8)", jordan_row(8), 1
    yield "graded.mp_inverse_short sl(10,10)", lambda: graded.mp_inverse_short(sl10, e10), 5
    yield "classical.pinv 10x10 block", lambda: classical.pinv(block), 50
    for n in (6, 8, 10):
        alg = graded.GradedAlgebra("sl", (n, n))
        e = alg.random_element(1, rng)
        yield f"graded.orbit_height sl({n},{n})", (lambda a=alg, x=e: graded.orbit_height(a, x)), 3 if n < 10 else 1
    yield "GradedAlgebra('so', (1,30,1))", lambda: graded.GradedAlgebra("so", (1, 30, 1)), 3
    yield "alg.ad(x) sl(10,10)", lambda: sl10.ad(e10), 5

    alg6 = graded.GradedAlgebra("sl", (6, 6))
    paths = []
    for i in range(16):
        path = tmp / f"job{i:02d}.json"
        path.write_text(json.dumps(graded_doc("sl", (6, 6), alg6.random_element(1, rng), 1)))
        paths.append(str(path))
    for jobs in (1, 2):
        yield (f"batch sl2-complete, 16 sl(6,6) jobs, --jobs {jobs}",
               (lambda j=jobs: cli.main(["sl2-complete", *paths, "--jobs", str(j), "--output", str(tmp / "out")])), 3)


def main() -> int:
    run.load_program()
    run.OUT.mkdir(exist_ok=True)
    calibration = run.Calibration(codec=False)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, fn, repeats in rows(Path(tmp)):
            wall, normalized = timed(fn, repeats, calibration)
            print(f"{name:55s} wall {wall * 1e3:10.2f} ms   normalized {normalized * 1e3:10.2f} ms",
                  flush=True)
    return 0


if __name__ == "__main__":
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
