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
        "report.json": "453e4a9ddadfc20e3172845c7f3d50180e79afef98a135d74d529e095bb95c2e",
        "events.csv": "cfbbbdbcd8f05b6e944bc5cae96f228ab47ce1a685941ce7b5e24659fbd4ad06",
        "stdout": "453e4a9ddadfc20e3172845c7f3d50180e79afef98a135d74d529e095bb95c2e",
    },
    "b-send-as-is": {
        "report.json": "cd20ca3ef913a6bdd5dbfd45a68e1d8864ce1021aa92f8926fe2114b4d47df6a",
        "events.csv": "723f12411ab4bad41f9a639775bb7c7b5606fa9f06e2c13eccff739d7462b779",
        "stdout": "cd20ca3ef913a6bdd5dbfd45a68e1d8864ce1021aa92f8926fe2114b4d47df6a",
    },
    "c-erase-notes": {
        "report.json": "e7cc0f506b8f1411a44219aba9933911e2cfe1b3eb52c932e821a8623ef6d2b3",
        "events.csv": "7b36fd3625be298c567c7fca2bd2c567d727914fe88e2c01f2d2863636d14403",
        "stdout": "e7cc0f506b8f1411a44219aba9933911e2cfe1b3eb52c932e821a8623ef6d2b3",
    },
    "b-clone-intended": {
        "report.json": "7e48a9df2b0c8a369143e63eb86ebbae3d907ef4b6ddf6c97a50a34a8a7989cd",
        "events.csv": "36094be11ce38a4e84dd2d2c5bb8ee3815912837a518f219339aa1d1e854271c",
        "stdout": "7e48a9df2b0c8a369143e63eb86ebbae3d907ef4b6ddf6c97a50a34a8a7989cd",
    },
    "a-message-list": {
        "report.json": "f42bceeadf73e696ea7e83b8c26dfcafc672a5f6241e3e44b6f4052caa46821b",
        "events.csv": "8d9edb90a3a32c691baf305f3695206668b5729e65b74ec1f9e99556306613f4",
        "stdout": "f42bceeadf73e696ea7e83b8c26dfcafc672a5f6241e3e44b6f4052caa46821b",
    },
    "verify": {
        "stdout": "9820e3d8ec20c444e75afd48e74e3b7a58db4065b9f9527389392e7e815f2b83",
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
