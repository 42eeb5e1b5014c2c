"""Grammar fuzz of the command line.  ``anttrack run`` gets scenario files
and ``--set`` lists built from the real key set, with values at and past
each bound, non-finite and malformed values, missing and extra tokens, and
repeated keys; ``anttrack sweep`` and ``trace`` get their flags' values at
and past each bound and malformed.  Whatever the input, a command exits 0,
2 or 3; a failure prints one error line (after its usage, when argparse
refuses the flags) and leaves no output file and no temp file."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from anttrack import cli, engine, traffic

BAD_TOKENS = ["", "x", "nan", "inf", "-inf", "1.5", "0x10", "1e400", "\x00", "é"]

# The values that run fast: small sizes, each count at its bound, and each
# size and count just past its bound, where it is refused.
INTS = {
    "seed": [0, -1, 10**30],
    "ant_count": [0, 1, 3, -1, engine.MAX_ANT_COUNT, engine.MAX_ANT_COUNT + 1, 99999999],
    "good_packets_per_tick": [0, 5, -1, traffic.MAX_GOOD_PACKETS_PER_TICK,
                              traffic.MAX_GOOD_PACKETS_PER_TICK + 1],
    "attack_packets_per_infected_per_tick": [
        0, 1, 2, -1, traffic.MAX_ATTACK_PACKETS_PER_INFECTED_PER_TICK,
        traffic.MAX_ATTACK_PACKETS_PER_INFECTED_PER_TICK + 1,
    ],
    "max_ticks": [0, 1, 3, -1],
}
FLOATS = [0.0, 0.3, 1.0, -1.0, 1.5, 20.0, 1e-300, 1e308]
NODE_IDS = [0, 1, 2, 3, 5, -1, 99999999999]
# the values each token of a key takes, in order; a scalar key not named
# here takes one of FLOATS
SHAPES = {
    **{key: [values] for key, values in INTS.items()},
    "ant_choice": [["greedy", "proportional"]],
    "topology_file": [["net.topo", "missing.topo", "sub", "bad.topo"]],
    "nodes": [[0, 1, 2, 4, 6, -1, 99999999999]],
    "edge": [NODE_IDS, NODE_IDS],
    "infect_at": [[0, 2, -1, 99999999999], NODE_IDS],
    "random_topology": [[0, 1, 2, 6, engine.MAX_RANDOM_TOPOLOGY_NODES + 1, 200000], FLOATS],
}
STRUCTURAL = ["nodes", "edge", "random_topology", "infected", "infect_at"]
BASES = [
    "nodes 4\nedge 0 1\nedge 1 2\nedge 2 3\n",
    "topology_file net.topo\n",
    "random_topology 6 0.3\n",
]


def _joined(values) -> str:
    return " ".join(map(str, values))


def _value(key: str, malformed: bool) -> st.SearchStrategy[str]:
    """The value text of one line or override of ``key``: each token from
    its place in the key's shape or, if ``malformed``, any of the key's
    values or a malformed token, with tokens missing or extra."""
    shape = [NODE_IDS] if key == "infected" else SHAPES.get(key, [FLOATS])
    if malformed:
        token = st.sampled_from([str(v) for values in shape for v in values] + BAD_TOKENS)
        return st.lists(token, max_size=len(shape) + 1).map(" ".join)
    if key == "infected":
        return st.lists(st.sampled_from(NODE_IDS), max_size=4).map(_joined)
    return st.tuples(*(st.sampled_from(values) for values in shape)).map(_joined)


@st.composite
def scenarios(draw) -> tuple[str, list[str]]:
    """A scenario file's text, on a small topology or none, and a
    ``--set`` list.  Only a malformed example has structural, unknown or
    repeated keys, or no or a second topology source."""
    malformed = draw(st.booleans())
    keys = sorted(cli._SCALAR_KEYS.keys() - {"topology_file"}) + ["infected", "infect_at"]
    if malformed:
        keys = sorted(cli._SCALAR_KEYS) + STRUCTURAL + ["mystery"]
    repeats = malformed and draw(st.booleans())
    keys = st.lists(st.sampled_from(keys), max_size=5, unique=not repeats)
    lines = [draw(st.sampled_from(BASES + ([""] if malformed else [])))]
    lines += [f"{key} {draw(_value(key, malformed))}\n" for key in draw(keys)]
    sets = [f"{key}={draw(_value(key, malformed))}" for key in draw(keys)[:3]]
    return "".join(lines), sets


def run_in(tmp: Path, text: str, sets: list[str]) -> tuple[int, str]:
    """``anttrack run`` on a scenario file of ``text`` in ``tmp``, with
    ``sets`` and at most 3 ticks; its exit code and stderr."""
    (tmp / "net.topo").write_text("nodes 3\nedge 0 1\nedge 1 2\n")
    (tmp / "bad.topo").write_text("nodes 3\nedge 0 1\n")
    (tmp / "sub").mkdir()
    scenario = tmp / "s.scn"
    scenario.write_text(text, encoding="utf-8")
    argv = ["run", "--scenario", str(scenario), "--out", str(tmp / "out")]
    argv += [f"--set={item}" for item in sets]
    if not any(item.startswith("max_ticks=") for item in sets):
        argv.append("--set=max_ticks=3")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenarios())
@example(("nodes 4\nedge 0 1\nedge 1 2\nedge 2 3\n", []))
@example(("nodes 99999999999\nedge 0 1\n", []))
@example(("random_topology 200000 0.0\n", []))
@example(("random_topology 1001 1.0\n", []))
@example(("topology_file sub\n", []))
# a NUL in a topology file's name once ended in a ValueError traceback
@example(("topology_file \x00\n", []))
@example(("nodes 4\nedge 0 1\nedge 1 2\nedge 2 3\n", ["topology_file=\x00"]))
def test_run_exits_0_2_or_3_and_a_failure_leaves_nothing(case):
    text, sets = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, err = run_in(tmp, text, sets)
        assert code in (0, 2, 3), err
        out = tmp / "out"
        if code == 0:
            assert sorted(path.name for path in out.iterdir()) == [
                "events.log", "metrics.csv", "summary.txt",
            ]
        else:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert err.startswith(("error: ", "i/o error: ")), err
            assert not out.exists() or list(out.iterdir()) == []
        assert list(tmp.rglob("*.tmp")) == []


SWEEP_SCENARIO = "nodes 3\nedge 0 1\nedge 1 2\ninfected 1\nmax_ticks 3\n"
# A huge seed range or packet count is at most one past its bound, or so
# large that building it without the bound fails at once (a range longer
# than a list can be); a count in between would fill memory first.
SEED_TOKENS = [
    "0", "1", "3", "-2", "0..1", "1..3", "2..2", "3..1", "1..2..3", "..5", "5..", "1...3",
    "x", "", "1.5", "0x10", f"0..{cli.MAX_SWEEP_SEEDS}", f"1..{10**20}", str(10**30),
]
FLAGS = {
    "--jobs": ["1", "2", "0", "-1", str(10**6), "x"],
    "--mode": ["fig1", "fig2", "custom", "fig3", ""],
    "--packets": ["1", "200", "0", "-1", str(cli.MAX_TRACE_PACKETS + 1), "1.5", "x"],
    "--events": ["GGB", "gbgbb", "", "GXB", "B" * 40],
}


@st.composite
def commands(draw) -> list[str]:
    """A ``sweep`` or ``trace`` argument list without ``--scenario`` and
    ``--out``; each flag but ``--mode`` is given or left out."""
    def maybe(flag):
        return draw(st.one_of(st.just([]), st.sampled_from(FLAGS[flag]).map(lambda v: [flag, v])))

    if draw(st.booleans()):
        seeds = draw(st.lists(st.sampled_from(SEED_TOKENS), min_size=1, max_size=3))
        return ["sweep", "--seeds", *seeds, *maybe("--jobs")]
    mode = draw(st.sampled_from(FLAGS["--mode"]))
    return ["trace", "--mode", mode, *maybe("--packets"), *maybe("--events")]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(commands())
@example(["sweep", "--seeds", "1..3", "--jobs", "2"])
@example(["sweep", "--seeds", f"0..{10**20}"])
@example(["sweep", "--seeds", "1..3", f"4..{cli.MAX_SWEEP_SEEDS + 1}"])
@example(["trace", "--mode", "fig2", "--packets", str(cli.MAX_TRACE_PACKETS + 1)])
def test_sweep_and_trace_exit_0_2_or_3_and_a_failure_leaves_nothing(argv):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        if argv[0] == "sweep":
            (tmp / "s.scn").write_text(SWEEP_SCENARIO)
            argv = [*argv, "--scenario", str(tmp / "s.scn"), "--out", str(out)]
        else:
            argv = [*argv, "--out", str(out / "trace.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refused the flags
                code = exc.code
        err = err.getvalue()
        assert code in (0, 2, 3), err
        if code == 0:
            names = sorted(path.name for path in out.iterdir())
            assert (names == ["trace.csv"]) if argv[0] == "trace" else ("aggregate.csv" in names)
        else:
            lines = err.splitlines()
            assert err.endswith("\n") and [line for line in lines if "error: " in line] == lines[-1:]
            assert not out.exists() or list(out.iterdir()) == []
        assert list(tmp.rglob("*.tmp")) == []
