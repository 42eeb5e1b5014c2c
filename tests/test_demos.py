import ast
import io
import types
from dataclasses import replace
from pathlib import Path

import anttrack
from anttrack import cli

from conftest import scenario_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_import_only_names_the_package_exports():
    """Every name a demo takes from ``anttrack`` exists at the package top
    level, and every public name of the package other than ``__version__``
    and its submodules is taken by some demo, found without running the
    demos."""
    assert DEMOS
    imported = set()
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"), str(demo))):
            if isinstance(node, ast.ImportFrom) and node.module == "anttrack":
                imported.update((demo.name, alias.name) for alias in node.names)
    assert imported
    missing = sorted((demo, name) for demo, name in imported if not hasattr(anttrack, name))
    assert missing == []
    exported = {
        name for name, value in vars(anttrack).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    unused = sorted(exported - {name for _, name in imported})
    assert unused == []


def _fenced_block(text: str, heading: str) -> list[str]:
    """The lines of the first fenced block under the README's ``## heading``."""
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```", 2)[1].splitlines()[1:]


def _exit_codes(text: str) -> list[int]:
    """The codes of the first sentence that starts ``Exit codes:``."""
    sentence = text.split("Exit codes:", 1)[1].split(".", 1)[0]
    return [int(part.split()[0]) for part in sentence.split(",")]


def test_readme_names_every_scenario_key_log_record_and_exit_code():
    """The README's scenario block has a line, commented out for the other
    topology sources, for every key the scenario reader accepts; its
    event-log block has a line for exactly the records a logged run writes,
    PKT ones by event; and it gives the exit codes of ``cli``'s docstring."""
    text = README.read_text(encoding="utf-8")

    block = _fenced_block(text, "Scenario files")
    documented = {line.strip().removeprefix("# ").split(" ", 1)[0] for line in block}
    accepted = set(cli._SCALAR_KEYS) | {
        "nodes", "edge", "seed", "infected", "infect_at", "random_topology",
    }
    assert sorted(accepted - documented) == []

    def kinds(fields):
        return [fields[0]] if fields[0] != "PKT" else [f"PKT {e}" for e in fields[2].split("|")]

    formats = {k for line in _fenced_block(text, "Event log") for k in kinds(line.split(","))}
    log = io.StringIO()
    config = scenario_config("default75", ["max_ticks=30"])
    anttrack.run(replace(config, sink=anttrack.event_log(config.topology, log.write)))
    written = {k for line in log.getvalue().splitlines() for k in kinds(line.split(","))}
    assert formats == written

    assert _exit_codes(text) == _exit_codes(cli.__doc__) != []
