"""Golden digests: every output of the CLI, byte for byte, at fixed seeds.

Each run's `report.json`, `events.csv` and stdout are hashed with sha256 and
held to the digests pinned below, so a refactor that must not change any
output is checked against the tree the digests were taken from, not only
against itself. The two 70,000-message runs span two chunks.
"""

import hashlib

import pytest

from sdcsim.cli import main

SIMULATE = {
    "a": ["--scenario", "a", "--n", "3000", "--seed", "11"],
    "b-send-as-is": ["--scenario", "b", "--n", "70000", "--seed", "12"],
    "c-erase-notes": ["--scenario", "c", "--erase-notes", "--n", "70000", "--seed", "13"],
    "b-clone-intended": ["--scenario", "b", "--clone-policy", "clone-intended",
                         "--n", "3000", "--seed", "14"],
    "a-message-list": ["--scenario", "a", "--messages", "hh,psi+,vv", "--n", "3000",
                       "--seed", "15"],
}

PINNED = {
    "a": {
        "report.json": "b4fbbdc71e5daa940e1fb9bf54e1bf090986ddcf8f64034caa56fdf96ddb1bb4",
        "events.csv": "f0bbaa9d6943ca84684fb545d95d5b55abbca3fe52761fcff1f44ee5beb82591",
        "stdout": "b4fbbdc71e5daa940e1fb9bf54e1bf090986ddcf8f64034caa56fdf96ddb1bb4",
    },
    "b-send-as-is": {
        "report.json": "ec9e21602c3971ecc387b18812f7953746ff3299c144b2f5265d41fe96a8c9be",
        "events.csv": "6167feb4f91e7a8e9e7670c5018c8c68fde1c647479a9412d22a407c6004325c",
        "stdout": "ec9e21602c3971ecc387b18812f7953746ff3299c144b2f5265d41fe96a8c9be",
    },
    "c-erase-notes": {
        "report.json": "65a0eeb433823a9c64418f4c3bcd7e784462e2bdc1157dc6cf9b02f5665b35f2",
        "events.csv": "592301ff6e88e8e2d72955280b554ca40f3161a3d83e8e2b68be21fb9c304d58",
        "stdout": "65a0eeb433823a9c64418f4c3bcd7e784462e2bdc1157dc6cf9b02f5665b35f2",
    },
    "b-clone-intended": {
        "report.json": "03f320de5c05ebac198791f2bfeef7512b43838f9492ce83c15b49cf8fe8bbf5",
        "events.csv": "d6ee2623a83ae42206e3b5c9060edfa8d97eeadd0e0b04df18aabd807a126317",
        "stdout": "03f320de5c05ebac198791f2bfeef7512b43838f9492ce83c15b49cf8fe8bbf5",
    },
    "a-message-list": {
        "report.json": "48c5a3271cdcfaed73dfd2debb5c5275fa8a7105de9d9bd986d5a09e3ef9f638",
        "events.csv": "d38fbc83aef44b50d3f944e3e37204ecdfbfa74dd37b1c7e5ebdf3bfa0e43eae",
        "stdout": "48c5a3271cdcfaed73dfd2debb5c5275fa8a7105de9d9bd986d5a09e3ef9f638",
    },
    "verify": {
        "stdout": "3ecc5960f0fb0d8e39cfd267061a5ce12cbe951448437d8a2b725b78db3b957e",
    },
    "signatures": {
        "stdout": "db5c039c02a3ee1e77ecae7c9b72dbebca0ea4b5b19d426a960292af7e0105cf",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", SIMULATE)
def test_simulate_outputs_are_pinned(name, tmp_path, capsys):
    report, log = tmp_path / "report.json", tmp_path / "events.csv"
    args = ["simulate", *SIMULATE[name], "--format", "json", "--out", str(report),
            "--log", str(log)]
    assert main(args) == 0
    digests = {
        "report.json": _digest(report.read_bytes()),
        "events.csv": _digest(log.read_bytes()),
        "stdout": _digest(capsys.readouterr().out.encode()),
    }
    assert digests == PINNED[name]


@pytest.mark.parametrize("name,args", [
    ("verify", ["verify", "--format", "json", "--seed", "9"]),
    ("signatures", ["signatures", "--format", "json"]),
])
def test_check_outputs_are_pinned(name, args, capsys):
    assert main(args) == 0
    assert {"stdout": _digest(capsys.readouterr().out.encode())} == PINNED[name]
