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
        "report.json": "8f91b9437c5685df9b1b8fa2767af5afd5cceb06571cbf91a79900becf3b0039",
        "events.csv": "f0bbaa9d6943ca84684fb545d95d5b55abbca3fe52761fcff1f44ee5beb82591",
        "stdout": "8f91b9437c5685df9b1b8fa2767af5afd5cceb06571cbf91a79900becf3b0039",
    },
    "b-send-as-is": {
        "report.json": "1d1a30c20cd1a51843336f03f3e3fe049581370be4e6ff2c7a144271d4ebdc0f",
        "events.csv": "6167feb4f91e7a8e9e7670c5018c8c68fde1c647479a9412d22a407c6004325c",
        "stdout": "1d1a30c20cd1a51843336f03f3e3fe049581370be4e6ff2c7a144271d4ebdc0f",
    },
    "c-erase-notes": {
        "report.json": "e30cce24528ba62acc06db144dc94d3d31d3e5b94cec3d242f193e473ca1c254",
        "events.csv": "592301ff6e88e8e2d72955280b554ca40f3161a3d83e8e2b68be21fb9c304d58",
        "stdout": "e30cce24528ba62acc06db144dc94d3d31d3e5b94cec3d242f193e473ca1c254",
    },
    "b-clone-intended": {
        "report.json": "f6b825d9ba5f49c598dbb998a866cdf7ec1ee2c6e5494b42e75e1c840574832b",
        "events.csv": "d6ee2623a83ae42206e3b5c9060edfa8d97eeadd0e0b04df18aabd807a126317",
        "stdout": "f6b825d9ba5f49c598dbb998a866cdf7ec1ee2c6e5494b42e75e1c840574832b",
    },
    "a-message-list": {
        "report.json": "e1c5776cd430fc0ec1aca028e0c3bfb9fba39baaf82c304fa6542d516c382add",
        "events.csv": "d38fbc83aef44b50d3f944e3e37204ecdfbfa74dd37b1c7e5ebdf3bfa0e43eae",
        "stdout": "e1c5776cd430fc0ec1aca028e0c3bfb9fba39baaf82c304fa6542d516c382add",
    },
    "verify": {
        "stdout": "5791984c56d20c84a4a16d47a535025fedbee03142969d3197ac613a233f1b7c",
    },
    "signatures": {
        "stdout": "143150d2e49ad949e669f3e2291b56b98f569df650a26192309bd0723198c29f",
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
