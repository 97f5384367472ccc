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
        "report.json": "2ef0f4afa84dba9412e26e39ed5dcc313337679a85024a78faee466543f4253a",
        "events.csv": "cfbbbdbcd8f05b6e944bc5cae96f228ab47ce1a685941ce7b5e24659fbd4ad06",
        "stdout": "2ef0f4afa84dba9412e26e39ed5dcc313337679a85024a78faee466543f4253a",
    },
    "b-send-as-is": {
        "report.json": "ea88a643018d6d5a95a1dccae81b1e2e4a782e92062fa8eeffa25cdd833bd44f",
        "events.csv": "723f12411ab4bad41f9a639775bb7c7b5606fa9f06e2c13eccff739d7462b779",
        "stdout": "ea88a643018d6d5a95a1dccae81b1e2e4a782e92062fa8eeffa25cdd833bd44f",
    },
    "c-erase-notes": {
        "report.json": "6ca89a71cccb29fd11569ea5e2c207545b249ac17771e995159ece21bae1206c",
        "events.csv": "7b36fd3625be298c567c7fca2bd2c567d727914fe88e2c01f2d2863636d14403",
        "stdout": "6ca89a71cccb29fd11569ea5e2c207545b249ac17771e995159ece21bae1206c",
    },
    "b-clone-intended": {
        "report.json": "eb5f1d327a894f1651db127d3162cb99d03e3198d0b9bbab705b683a068f48f3",
        "events.csv": "36094be11ce38a4e84dd2d2c5bb8ee3815912837a518f219339aa1d1e854271c",
        "stdout": "eb5f1d327a894f1651db127d3162cb99d03e3198d0b9bbab705b683a068f48f3",
    },
    "a-message-list": {
        "report.json": "ed1af16029a0c430a7a929d5fae07f8a59fcc65df7773eb6e9a3b23a5d855d76",
        "events.csv": "8d9edb90a3a32c691baf305f3695206668b5729e65b74ec1f9e99556306613f4",
        "stdout": "ed1af16029a0c430a7a929d5fae07f8a59fcc65df7773eb6e9a3b23a5d855d76",
    },
    "verify": {
        "stdout": "64152c7b2632d26f662820775de0348b270ed45bde461ea1313680bf34e0766c",
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
