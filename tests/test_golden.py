"""Golden outputs: `anttrack run` on the pinned scenarios and a serial
`anttrack sweep` over four seeds must reproduce these files byte for byte
(sha256, first 16 hex digits), and `anttrack trace` its fig1 and fig2 CSVs
(full sha256).

A change that alters a hash changes observable behaviour and must say why.
"""

import hashlib

import pytest

from anttrack.cli import main

from conftest import SCENARIOS

GOLDEN = {
    "default75": ("b2801059cd88c465", "5a1d452445585edf", 303_221),
    "noisy75": ("2db59696f4b2636d", "a25b7a7c5d5c38f5", 91_712),
    "reinfection75": ("7c8a6cc262771c81", "b6d6ab1651f50355", 184_095),
    "star10": ("b1e08f66a4d85297", "18cb4f5fd68f60f3", 5_883),
}


def sha256_prefix(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_run_outputs_match_golden_hashes(scenario, tmp_path):
    events_hash, metrics_hash, log_lines = GOLDEN[scenario]
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(SCENARIOS / f"{scenario}.scn"), "--out", str(out)]) == 0
    events = (out / "events.log").read_bytes()
    assert events.count(b"\n") == log_lines
    assert sha256_prefix(events) == events_hash
    assert sha256_prefix((out / "metrics.csv").read_bytes()) == metrics_hash


SWEEP_GOLDEN = {
    "aggregate.csv": "b633a8a29d207763",
    "metrics_seed1.csv": "f65af811308de132",
    "metrics_seed2.csv": "6986f4d2df5989ca",
    "metrics_seed3.csv": "23ab0fccb0e2086e",
    "metrics_seed4.csv": "f1191f80e5322f82",
}


def test_sweep_outputs_match_golden_hashes(tmp_path):
    out = tmp_path / "sweep"
    argv = ["sweep", "--scenario", str(SCENARIOS / "default75.scn"), "--out", str(out),
            "--seeds", "1..4", "--set", "max_ticks=400"]
    assert main(argv) == 0
    assert {path.name: sha256_prefix(path.read_bytes()) for path in out.iterdir()} == SWEEP_GOLDEN


TRACE_GOLDEN = {
    "fig1": "7f63821b85c445745f9c8a28f10ef0e35b473473d94c639c62fc27aa1c7604aa",
    "fig2": "d08ea74c3c36217fe5d0feadd29f75f07f8f1619818e8b4e8664661fe263411e",
}


@pytest.mark.parametrize("mode", sorted(TRACE_GOLDEN))
def test_trace_output_matches_golden_hash(mode, tmp_path):
    out = tmp_path / f"{mode}.csv"
    assert main(["trace", "--mode", mode, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRACE_GOLDEN[mode]
