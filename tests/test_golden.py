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
        "report.json": "cf31048a2b4de03ebd135ffdd2191a10effccec4de2648035503221a5d65a0de",
        "events.csv": "cfbbbdbcd8f05b6e944bc5cae96f228ab47ce1a685941ce7b5e24659fbd4ad06",
        "stdout": "cf31048a2b4de03ebd135ffdd2191a10effccec4de2648035503221a5d65a0de",
    },
    "b-send-as-is": {
        "report.json": "c05cefd4c4d08144dc7fd41ecff362b3ecc0fb25af3e35a70fadc8e477ef2b47",
        "events.csv": "29ce7d8b65d1f05cf394a039519335ee6acae82fd36eb7d03f793b55d246cc01",
        "stdout": "c05cefd4c4d08144dc7fd41ecff362b3ecc0fb25af3e35a70fadc8e477ef2b47",
    },
    "c-erase-notes": {
        "report.json": "6e6c48cf1c39a14fc0ea3de12356d9a602d52bdd2f225f6ddefc849475b9148a",
        "events.csv": "7b36fd3625be298c567c7fca2bd2c567d727914fe88e2c01f2d2863636d14403",
        "stdout": "6e6c48cf1c39a14fc0ea3de12356d9a602d52bdd2f225f6ddefc849475b9148a",
    },
    "b-clone-intended": {
        "report.json": "5f4359ef5c90f0cd8aa5e06fd47489ce5080dfa88c1912064ebfa9f1545550f1",
        "events.csv": "f42f0d233e2ac94b0aabb2a1d54818aa9fb77aeb41b041e7a65cdd98e2d97abe",
        "stdout": "5f4359ef5c90f0cd8aa5e06fd47489ce5080dfa88c1912064ebfa9f1545550f1",
    },
    "a-message-list": {
        "report.json": "24cdf9a15e301e0c9de9ef5663ce3fdc7638a5fdfaed259a9c5e0c0bdf777e3f",
        "events.csv": "8d9edb90a3a32c691baf305f3695206668b5729e65b74ec1f9e99556306613f4",
        "stdout": "24cdf9a15e301e0c9de9ef5663ce3fdc7638a5fdfaed259a9c5e0c0bdf777e3f",
    },
    "verify": {
        "stdout": "b5a7bfe820e56ddd4a81ee4e5c85cd9933aded3dae632a599c4668e6823760f7",
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
