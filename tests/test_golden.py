"""Golden outputs: `anttrack run` on the pinned scenarios and a serial
`anttrack sweep` over four seeds must reproduce these files byte for byte,
`anttrack trace` its fig1 and fig2 CSVs, and each script in `demos/` its
stdout; each is pinned by its sha256.  This file is the repo's one home for
these pins, and CI also runs it against the installed package.

A change that alters a hash changes observable behaviour and must say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anttrack
from anttrack.cli import main

from conftest import SCENARIOS

GOLDEN = {
    "default75": (
        "b2801059cd88c465f65261ab40d753c4668955d4fad8be8e80158c0d83b8172f",
        "5a1d452445585edf836555bd2c1be5a182c1afaeaee5ebd08e30efc3da0d8bf1",
        303_221,
    ),
    "noisy75": (
        "2db59696f4b2636d6eaac35e0bb919955170efe3f12a9f122bc7a659418ae2af",
        "a25b7a7c5d5c38f51588d63c73d2a1b8404e6a39bb8e153d5fe2aa14432ca5d3",
        91_712,
    ),
    "reinfection75": (
        "7c8a6cc262771c81d62d12af6f057541a8661bca9b350b3ff37f002001bd2b46",
        "b6d6ab1651f50355b84eff65b293e1b1c250e384908c2be2886e8e21ad14f61a",
        184_095,
    ),
    "star10": (
        "b1e08f66a4d85297fd2b3cff7068f48a94c6c62680e5e23d0f1f8c6830f6a288",
        "18cb4f5fd68f60f32d38c20ad9e295cf33c608cbe12fdc9054b4075a3d85297a",
        5_883,
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_run_outputs_match_golden_hashes(scenario, tmp_path):
    events_hash, metrics_hash, log_lines = GOLDEN[scenario]
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(SCENARIOS / f"{scenario}.scn"), "--out", str(out)]) == 0
    events = (out / "events.log").read_bytes()
    assert events.count(b"\n") == log_lines
    assert sha256(events) == events_hash
    assert sha256((out / "metrics.csv").read_bytes()) == metrics_hash


SWEEP_GOLDEN = {
    "aggregate.csv": "b633a8a29d20776378f357f95af1dd587d4e961d09db24884f1cc98a6c4f7f35",
    "metrics_seed1.csv": "f65af811308de132cc3f70c546d4ae426ba8a26a66f7223117f8ca711a6f0ded",
    "metrics_seed2.csv": "6986f4d2df5989ca2c692793f216e437227a41f0a8f4d2c89120a87a72ebdd7d",
    "metrics_seed3.csv": "23ab0fccb0e2086e46f1cfcaa7ced9e93feafc0fea21d1ed48c416329b07898a",
    "metrics_seed4.csv": "f1191f80e5322f8221e3585f8d34fa64cde2c6f25e24b230c04747c958252a37",
}


def test_sweep_outputs_match_golden_hashes(tmp_path):
    out = tmp_path / "sweep"
    argv = ["sweep", "--scenario", str(SCENARIOS / "default75.scn"), "--out", str(out),
            "--seeds", "1..4", "--set", "max_ticks=400"]
    assert main(argv) == 0
    assert {path.name: sha256(path.read_bytes()) for path in out.iterdir()} == SWEEP_GOLDEN


TRACE_GOLDEN = {
    "fig1": "7f63821b85c445745f9c8a28f10ef0e35b473473d94c639c62fc27aa1c7604aa",
    "fig2": "d08ea74c3c36217fe5d0feadd29f75f07f8f1619818e8b4e8664661fe263411e",
}


@pytest.mark.parametrize("mode", sorted(TRACE_GOLDEN))
def test_trace_output_matches_golden_hash(mode, tmp_path):
    out = tmp_path / f"{mode}.csv"
    assert main(["trace", "--mode", mode, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == TRACE_GOLDEN[mode]


DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_GOLDEN = {
    "01_affinity_function.py": "686421a60645cde6d858c465b8ebe140cec27e4d6b0b804da01aec1705953b9e",
    "02_single_infection.py": "c0090a4ff3793b0895af62e68f8571a241a0a73388e524309e676881091155d6",
    "03_default_scenario.py": "97ca18e5aefcb041d4f82e41205c4b24959a25c044956c49deec5d55a98fd6b4",
    "04_reinfection.py": "38ea418dc55c1800dea44e253b7bf069a3722a744e0b21fd6a99208835d9205d",
}


@pytest.mark.parametrize("demo", sorted(DEMO_GOLDEN.keys() | {p.name for p in DEMOS.glob("*.py")}))
def test_demo_stdout_matches_golden_hash(demo, tmp_path):
    """Each demo has one pin and each pin names a demo.  The demo runs in its
    own interpreter, importing the ``anttrack`` this test imported: the
    checkout's ``src/`` or the installed package."""
    assert demo in DEMO_GOLDEN and (DEMOS / demo).is_file()
    package_root = str(Path(anttrack.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, capture_output=True,
                            env=dict(os.environ, PYTHONPATH=path), check=True)
    assert sha256(result.stdout) == DEMO_GOLDEN[demo]
