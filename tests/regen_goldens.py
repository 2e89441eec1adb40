"""Regenerate the golden CLI outputs in tests/golden after an intended numerical change.

Run from the repository root:

    python tests/regen_goldens.py

Each golden job (``<command>.in.json``, no input for ``report-table``) runs
through ``liepinv.cli.run_job`` from the ``src`` tree next to this script.
Every fresh output must exit 0 and pass the golden drift gate,
``helpers.compare_documents`` (numbers within 1e-12 relative drift, everything
else equal), against the file it would replace.  If any output fails, nothing
is written, the failures are printed and the exit code is 1.  Otherwise only
the files whose bytes moved are rewritten, and their names are printed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from helpers import compare_documents  # noqa: E402
from liepinv.cli import COMMANDS, JobSpec, run_job, to_json  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"


class DriftError(Exception):
    """Some fresh outputs failed the drift gate; the golden files were left as they were."""


def regenerate(golden: Path = GOLDEN) -> list[str]:
    """Rewrite the golden outputs whose bytes moved and return their names, in command order."""
    fresh, failures = {}, []
    for command in sorted(COMMANDS):
        in_path = golden / f"{command}.in.json"
        out_path = golden / f"{command}.out.json"
        code, document = run_job(JobSpec(command, str(in_path) if in_path.exists() else None))
        fresh[out_path] = to_json(document) + "\n"
        try:
            assert code == 0, f"exit code {code}"
            compare_documents(json.loads(fresh[out_path]), json.loads(out_path.read_text()))
        except AssertionError as exc:
            failures.append(f"{out_path.name}: {exc}")
    if failures:
        raise DriftError("\n".join(failures))
    moved = [path for path, text in fresh.items() if path.read_text() != text]
    for path in moved:
        path.write_text(fresh[path])
    return [path.name for path in moved]


def main() -> int:
    try:
        moved = regenerate()
    except DriftError as exc:
        print(f"drift gate failed, nothing written:\n{exc}", file=sys.stderr)
        return 1
    print("\n".join(moved) if moved else "no golden file moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
