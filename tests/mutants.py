"""The mutation table: faults put into the program on purpose, each with the
check that must catch it.

    python tests/mutants.py [NAME]

copies `src`, `tests` and `pyproject.toml` into a temporary directory (no git
is needed) and, for each mutant or only the one named, replaces its exact old
text with its new text in that copy, runs its check there with the copy's
`src` first on the path, and puts the file back. A mutant is caught when the
check exits with the status it expects. It prints one line per mutant and
exits 1 if any was missed, or if its old text does not occur exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
# `sdcsim verify` exits 2 when a check fails
VERIFY = ("-m", "sdcsim.cli", "verify", "--trials", "5000")
ORDER_TEST = "tests/test_kernel.py::test_each_message_draws_its_retries_then_its_controlled_trial"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # from the repository's root
    old: str  # occurs exactly once in `file`
    new: str
    check: tuple[str, ...]  # the arguments to python that must catch it
    exits: int  # the status the check exits with when it does
    reason: str


MUTANTS = (
    Mutant("resent-as-lone", "src/sdcsim/session.py",
           "Scenario.B: ([b.resent_law if send_as_is", "Scenario.B: ([b.lone_law if send_as_is",
           VERIFY, 2,
           "scenario b's send-as-is wrong branch draws the receiver's lone photon, not the "
           "re-emitted pair; sampling_consistency holds each HH cell to the optics' law"),
    Mutant("wrong-cell-offset", "src/sdcsim/session.py",
           "[p + (1.0 - p) * s if cell & 1 else p * s", "[(1.0 - p) * s if cell & 1 else p * s",
           VERIFY, 2,
           "scenario b's wrong cell lacks its joint law's p + offset, so a wrong word lands "
           "past the cell's boundaries and draws its law's last pattern"),
    Mutant("one-attempt-too-many", "src/sdcsim/session.py",
           "attempts = [1 + bisect_right", "attempts = [2 + bisect_right",
           VERIFY, 2,
           "scenarios a and c send every message's first pair wrong, a Bell message's too, "
           "which never can; support holds each drawn row to the optics"),
    Mutant("controlled-first", "src/sdcsim/session.py",
           "piece[attempts.cumsum() - 1] = controlled",
           "piece[attempts.cumsum() - attempts] = controlled",
           ("-m", "pytest", "-q", ORDER_TEST), 1,
           "scenarios a and c lay each message's controlled trial on its first attempt; every "
           "row stays possible and `verify` passes, so only the per-message order test sees it"),
)


def run(mutants, copy: Path) -> list[str]:
    """Apply each mutant in turn to `copy`, run its check there; the names missed."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    missed = []
    for mutant in mutants:
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            print(f"{mutant.name}: its old text occurs {text.count(mutant.old)} times")
            missed.append(mutant.name)
            continue
        path.write_text(text.replace(mutant.old, mutant.new))
        try:
            status = subprocess.run([sys.executable, *mutant.check], cwd=copy, env=env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        finally:
            path.write_text(text)
        caught = status == mutant.exits
        print(f"{mutant.name}: {'caught' if caught else 'MISSED'} (exit {status}, "
              f"expected {mutant.exits}): {mutant.reason}")
        if not caught:
            missed.append(mutant.name)
    return missed


def main(argv: list[str]) -> int:
    names = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in names]
    if unknown:
        print(f"no mutant named {', '.join(unknown)}; the table has {', '.join(names)}")
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        missed = run([names[name] for name in argv] or MUTANTS, copy)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
