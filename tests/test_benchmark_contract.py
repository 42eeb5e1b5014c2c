"""The benchmark's tracer (``perfbench/tracer.py``) wraps library functions
and methods by module and name.  A refactor that moves one of them leaves
the traced run exiting 0 while it skips the invariants that depend on the
moved name, so tier-1 checks here that every target is still found."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_target_but_the_deleted_render(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.absent == ["anttrack.engine.EventLog.render"]
    finally:
        tracer.uninstall()
