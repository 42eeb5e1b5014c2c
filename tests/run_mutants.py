"""Run the mutation list in ``tests/mutants.json``.

    python tests/run_mutants.py

Each mutant is one exact text edit to a file under ``src/anttrack/``,
with the test node ids that must catch it (mutation testing: DeMillo,
Lipton & Sayward, "Hints on test data selection", IEEE Computer 11(4),
1978).  The checkout's ``src/``, ``tests/``, ``scenarios/`` and
``pyproject.toml`` are copied to a temporary directory and pytest runs
there, since ``pythonpath = ["src"]`` would otherwise import the unmutated
checkout.  Every named test must first pass on the unmutated copy.  Then,
for each mutant, its old text must occur exactly once in its file, or the
mutant is stale, and pytest on its named tests must exit 1: exit 5 (no
tests collected) or any other code is an error, not a kill.  Exits 0 only
if every mutant is killed.  Standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/anttrack/"
TIMEOUT_S = 300


def pytest(work: Path, tests: list[str]) -> tuple[int | None, str]:
    """pytest's exit code and output on ``tests`` in ``work``; the code is
    None if it ran past ``TIMEOUT_S``, as a mutant that loops would.  No
    bytecode is cached, so an edited module is always recompiled, and
    hypothesis draws the same examples every run."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *tests]
    try:
        result = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True,
                                timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"pytest ran past {TIMEOUT_S} s\n"
    return result.returncode, result.stdout + result.stderr


def load_mutants() -> list[dict]:
    return json.loads((ROOT / "tests" / "mutants.json").read_text())


def stale_mutants(mutants: list[dict], root: Path = ROOT) -> list[str]:
    """Names of the mutants whose file is not under ``PACKAGE`` in ``root``,
    or whose old text does not occur in it exactly once."""
    return [
        m["name"] for m in mutants
        if not (m["file"].startswith(PACKAGE) and (root / m["file"]).is_file())
        or (root / m["file"]).read_text().count(m["old"]) != 1
    ]


def main() -> int:
    mutants = load_mutants()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests", "scenarios"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)

        stale = stale_mutants(mutants, work)
        if stale:
            print(f"stale mutants, old text not found exactly once under {PACKAGE}: {stale}")
            return 1

        code, output = pytest(work, sorted({t for m in mutants for t in m["tests"]}))
        if code != 0:
            print(output)
            print(f"the named tests do not pass without a mutation (pytest exit {code})")
            return 1

        failed = []
        for m in mutants:
            path = work / m["file"]
            original = path.read_text()
            path.write_text(original.replace(m["old"], m["new"]))
            try:
                code, output = pytest(work, m["tests"])
            finally:
                path.write_text(original)
            if code != 1:
                failed.append(m["name"])
                print(output)
            verdict = {1: "killed", 0: "SURVIVED", None: "timed out"}.get(code, f"error, pytest exit {code}")
            print(f"{m['name']}: {verdict}", flush=True)
    if failed:
        print(f"{len(failed)} of {len(mutants)} mutants not killed: {failed}")
        return 1
    print(f"all {len(mutants)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
