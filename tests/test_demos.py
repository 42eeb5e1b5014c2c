import ast
import re
import types
from pathlib import Path

import anttrack

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


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


def test_each_demo_has_one_stdout_pin_in_ci():
    """CI's ``sha256sum -c`` checks only the files it has pin lines for, so
    a demo without a pin would pass unchecked: each demo has exactly one
    pin line, and each pin names a demo."""
    text = WORKFLOW.read_text(encoding="utf-8")
    pins = re.findall(r"^ *[0-9a-f]{64}  (\S+)\.out$", text, re.MULTILINE)
    assert sorted(pins) == [demo.name for demo in DEMOS]
