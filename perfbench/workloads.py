"""The benchmark's workloads: which ``anttrack`` command each one issues, on
which simulation seeds, and how its output files are checked.

Stdlib only, and it never imports ``anttrack``: the set-up probe imports
this module before it starts its clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# per process, so that runs in one checkout do not clobber each other
OUT = ROOT / ".perfbench_out" / str(os.getpid())
PINS = HERE / "pins.json"


@dataclass(frozen=True)
class Workload:
    """One workload. A pass issues ``anttrack run`` once per simulation seed,
    or ``anttrack sweep`` once over all of them; a run repeats passes."""

    name: str
    command: str  # "run" or "sweep"
    scenario: Path
    sim_seeds: Callable[[int], list[int]]

    def calls(self, seed: int, out: Path) -> list[tuple[list[str], list[int]]]:
        """``anttrack`` argument lists of one pass, each with the simulation
        seeds it runs, in order."""
        sims = self.sim_seeds(seed)
        if self.command == "run":
            return [
                (["run", "--scenario", str(self.scenario), "--out", str(out / f"seed{s}"),
                  "--seed", str(s)], [s])
                for s in sims
            ]
        return [(["sweep", "--scenario", str(self.scenario), "--out", str(out),
                  "--seeds", *map(str, sims)], sims)]

    def output_files(self, out: Path, sim_seed: int) -> dict[str, Path]:
        """The checked output files of one simulation."""
        if self.command == "run":
            return {name: out / f"seed{sim_seed}" / name for name in ("events.log", "metrics.csv")}
        return {"metrics.csv": out / f"metrics_seed{sim_seed}.csv"}

    def output_hashes(self, out: Path, sim_seed: int) -> dict[str, str]:
        """First 16 hex digits of each checked file's sha256."""
        return {name: sha256_prefix(path) for name, path in self.output_files(out, sim_seed).items()}


WORKLOADS = {
    # The paper's default run through `anttrack run`, writing events.log,
    # metrics.csv and summary.txt. It is the only workload whose output layer
    # does real work (303,221 log lines, 7.5 MB at seed 42). With 75 nodes,
    # routes repeat (reuse 0.91) and field writes outnumber reads about 20 to 1.
    # Seed 42 always runs, so the golden hashes are checked on every run.
    "run75": Workload("run75", "run", ROOT / "scenarios" / "default75.scn",
                      lambda n: [42, n]),
    # The same scenario through a serial `anttrack sweep`, which keeps only the
    # metrics: the same simulation without rendering or writing the event log.
    # Work that only the log needs shows here and not on run75. Topology
    # generation repeats for every seed.
    "sweep75": Workload("sweep75", "sweep", ROOT / "scenarios" / "default75.scn",
                        lambda n: list(range(5 * n, 5 * n + 5))),
    # 1000 sparse nodes, 200 ants, light traffic and a noisy detector, through
    # `anttrack sweep`. Routes hardly repeat (reuse 0.04), reads outnumber
    # writes about 8 to 1, and detection draws at every hop: the field digest,
    # the agents and the read path dominate, and a route cache cannot help.
    # 250 ticks keep the digest near half of the time and the agents plus reads
    # near a quarter, as at 500, while ten simulations fit in a run. The cost
    # per tick varies from seed to seed by up to 15%, so four fixed seeds
    # steady the median beside the one taken from --seed.
    "sparse1000": Workload("sparse1000", "sweep", HERE / "sparse1000.scn",
                           lambda n: [0, 1, 2, 3, n + 4]),
}


def sha256_prefix(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def remove_outputs() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        OUT.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def load_pins() -> dict[str, dict[str, dict[str, str]]]:
    """Pinned output hashes: workload -> simulation seed -> file -> hash."""
    return json.loads(PINS.read_text(encoding="utf-8"))


def missing_sources() -> str | None:
    """Why the checkout cannot be benchmarked, or None if it can."""
    for path in [SRC / "anttrack" / "__init__.py", PINS,
                 *(w.scenario for w in WORKLOADS.values())]:
        if not path.is_file():
            return f"{path.relative_to(ROOT)} is missing; run from a full checkout"
    return None


def import_anttrack():
    """Import the package from the checkout's src/ and return its cli and
    engine modules."""
    import sys

    sys.path.insert(0, str(SRC))
    from anttrack import cli, engine

    if Path(cli.__file__).resolve().parent != SRC / "anttrack":
        raise ImportError(f"anttrack was imported from {cli.__file__}, not from {SRC}")
    return cli, engine
