"""Command-line interface: `signatures`, `simulate`, and `verify`.

Exit codes: 0 success, 1 invalid configuration or arguments, 2 invariant
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import sys

import numpy as np

from . import capacity, session, verify
from .protocol import (
    ALPHABET,
    ClonePolicy,
    MessageSymbol,
    Owner,
    ReferenceState,
    Scenario,
    default_bench,
)
from .session import InvalidConfigError, RunConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_IO = 3

_STATES = (*MessageSymbol, *ReferenceState)


class _Parser(argparse.ArgumentParser):
    """argparse, but argument problems exit with the invalid-config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _parse_state(text: str):
    """A state by its value, any case, `_` ignored, `+`/`-` also spelt plus/minus."""
    key = text.strip().lower().replace("_", "").replace("plus", "+").replace("minus", "-")
    for state in _STATES:
        if state.value == key:
            return state
    raise argparse.ArgumentTypeError(
        f"unknown state {text!r}; choose from {' '.join(s.value for s in _STATES)}"
    )


def _parse_messages(text: str):
    if text.strip().lower() == "uniform":
        return "uniform"
    symbols = []
    for token in text.split(","):
        parsed = _parse_state(token)
        if not isinstance(parsed, MessageSymbol):
            raise argparse.ArgumentTypeError(f"{token!r} is not an encodable message")
        symbols.append(parsed)
    return tuple(symbols)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sdcsim",
        description="Linear-optics superdense coding simulator over the mixed "
        "message basis {psi+, psi-, hh, vv}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sig = sub.add_parser(
        "signatures",
        help="print the computed detector signature table and the phi+/phi- check",
    )
    sig.add_argument("--state", type=_parse_state, default=None,
                     help="print the analyzer distribution of one state instead")
    sig.add_argument("--format", choices=("text", "json"), default="text")
    sig.add_argument("--out", default=None, help="also write the output to this file")

    sim = sub.add_parser("simulate", help="run a protocol session and write reports")
    sim.add_argument("--scenario", choices=[s.value for s in Scenario], required=True)
    sim.add_argument("--owner", choices=[o.value for o in Owner], default=None,
                     help="pair-source owner (bookkeeping tag; default per scenario)")
    sim.add_argument("--messages", type=_parse_messages, default="uniform",
                     help="'uniform' or a comma list like 'hh,psi+,vv' cycled to --n")
    sim.add_argument("--n", type=int, default=None,
                     help="number of intended messages (default 1000, or the list length)")
    sim.add_argument("--seed", type=int, default=0, help="64-bit unsigned master seed")
    sim.add_argument("--clone-policy", choices=[c.value for c in ClonePolicy],
                     default=ClonePolicy.SEND_AS_IS.value,
                     help="scenario b: polarization carried by the re-emitted photon")
    sim.add_argument("--erase-notes", action="store_true",
                     help="scenario c: send Erase notes over the classical channel")
    sim.add_argument("--out", default="report.json", help="capacity report path")
    sim.add_argument("--log", default="events.csv", help="per-trial event log path")
    sim.add_argument("--format", choices=("text", "json"), default="text",
                     help="stdout summary format")

    ver = sub.add_parser("verify", help="run the invariant suite")
    ver.add_argument("--seed", type=int, default=20_260_810)
    ver.add_argument("--trials", type=int, default=100_000,
                     help="sample size for the statistical checks")
    ver.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _distribution_json(dist) -> dict:
    return {
        pattern.to_string(): prob
        for pattern, prob in sorted(dist.items(), key=lambda kv: kv[0].counts)
    }


@contextlib.contextmanager
def _written(*paths: str):
    """Yield a handle on `<path>.tmp` for each path; once every one is written,
    rename them all into place.

    Every destination is checked before anything is written: paths that
    collide, counting each `<path>.tmp`, are an invalid configuration, and a
    directory is an I/O error. A failed write leaves none of the files behind,
    and an I/O error on a temporary names the path it stands for.
    """
    tmps = [f"{path}.tmp" for path in paths]
    if len({os.path.realpath(p) for p in (*paths, *tmps)}) < 2 * len(paths):
        raise InvalidConfigError(
            f"{' and '.join(paths)} share a file or its temporary <path>.tmp"
        )
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, "cannot write output to a directory", path)
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(t, "w", encoding="utf-8", newline="")) for t in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename in tmps:
            path = paths[tmps.index(exc.filename)]
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def cmd_signatures(args) -> int:
    text = _signatures_text(default_bench(), args)
    if args.out is not None:
        with _written(args.out) as (handle,):
            handle.write(text)
    print(text, end="")
    return EXIT_OK


def _signatures_text(bench, args) -> str:
    if args.state is not None:
        dist = bench.analyze(bench.state_for(args.state))
        name = args.state.value
        if args.format == "json":
            payload = {"state": name, "distribution": _distribution_json(dist)}
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        lines = [f"analyzer distribution of {name}:"]
        for pattern, prob in sorted(dist.items(), key=lambda kv: kv[0].counts):
            lines.append(f"  {pattern.to_string():<16} {prob:.6f}")
        return "\n".join(lines) + "\n"

    table = bench.signature_table()
    phi_plus = bench.analyze(bench.state_for(ReferenceState.PHI_PLUS))
    phi_minus = bench.analyze(bench.state_for(ReferenceState.PHI_MINUS))
    tvd = capacity.total_variation_distance(phi_plus, phi_minus)
    if args.format == "json":
        payload = {
            "signatures": {
                symbol.value: sorted(p.to_string() for p in patterns)
                for symbol, patterns in table.items()
            },
            "phi+": _distribution_json(phi_plus),
            "phi-": _distribution_json(phi_minus),
            "phi_tvd": tvd,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = ["message signatures (disjoint detector patterns):"]
    for symbol in ALPHABET:
        pats = " | ".join(sorted(p.to_string() for p in table[symbol]))
        lines.append(f"  {symbol.value:<5} -> {pats}")
    lines.append("reference pair phi+/phi- (not encodable):")
    for name, dist in (("phi+", phi_plus), ("phi-", phi_minus)):
        pats = ", ".join(
            f"{p.to_string()}:{prob:.2f}"
            for p, prob in sorted(dist.items(), key=lambda kv: kv[0].counts)
        )
        lines.append(f"  {name:<5} -> {pats}")
    lines.append(f"  total variation distance = {tvd:.3e} (indistinguishable)")
    return "\n".join(lines) + "\n"


def _build_config(args) -> RunConfig:
    n = args.n
    if n is None:
        n = len(args.messages) if args.messages != "uniform" else 1000
    return RunConfig(
        scenario=Scenario(args.scenario),
        owner=Owner(args.owner) if args.owner else None,
        messages=args.messages,
        n_messages=n,
        seed=args.seed,
        clone_policy=ClonePolicy(args.clone_policy),
        erase_notes=args.erase_notes,
    )


def _config_dict(config: RunConfig) -> dict:
    return {
        "scenario": config.scenario.value,
        "owner": config.owner.value,
        "messages": "uniform"
        if config.messages == "uniform"
        else [m.value for m in config.messages],
        "n_messages": config.n_messages,
        "seed": config.seed,
        "clone_policy": config.clone_policy.value,
        "erase_notes": config.erase_notes,
    }


def _intended_distribution(config: RunConfig):
    """Symbol frequencies of the stream of n_messages, the list cycled to length."""
    if config.messages == "uniform":
        return None  # uniform default
    cycles, rest = divmod(config.n_messages, len(config.messages))
    weights = {}
    for i, m in enumerate(config.messages):
        weights[m] = weights.get(m, 0) + cycles + (i < rest)
    return {m: w / config.n_messages for m, w in weights.items()}


EVENT_HEADER = ["trial", "intended", "branch", "action", "pattern", "decoded", "note"]


def _event_suffix(record) -> str:
    """A record's event-log line after the trial number, rendered by csv."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(
        [
            record.intended.value,
            record.branch.value,
            record.action.value,
            record.bob_pattern.to_string() if record.bob_pattern else "",
            record.decoded.label if record.decoded else "",
            str(record.note) if record.note else "",
        ]
    )
    return buffer.getvalue()


_TWO_DIGITS = tuple(f"{r:02d}," for r in range(100))


def _event_lines(first: int, suffixes: list[str]) -> str:
    """The log lines of trials first, first + 1, ... with these suffixes.

    Trial 100·q + r is written as str(q) (empty for q = 0), then r from
    _TWO_DIGITS (unpadded for q = 0), then its suffix, so only one trial
    number in a hundred is formatted and no string is built per line.
    """
    n = len(suffixes)
    q_first, r_first = divmod(first, 100)
    highs = []
    for q in range(q_first, (first + n - 1) // 100 + 1):
        highs += [str(q) if q else ""] * 100
    lows = list(_TWO_DIGITS) * (len(highs) // 100)
    if first < 100:  # q = 0: no hundreds, no padding
        lows[first:100] = [f"{t}," for t in range(first, 100)]
    pieces = [""] * (3 * n)
    pieces[0::3] = highs[r_first:r_first + n]
    pieces[1::3] = lows[r_first:r_first + n]
    pieces[2::3] = suffixes
    return "".join(pieces)


def _write_events(handle, run: session.Session) -> np.ndarray:
    """Stream the session's event log chunk by chunk; return its summed tally.

    The line of a trial is its number, then the csv rendering of its other
    columns. That suffix carries no trial number and depends only on the
    trial's row, so it is rendered once per row of the session's table, and
    `_event_lines` joins each chunk's lines from strings that already exist.
    """
    csv.writer(handle).writerow(EVENT_HEADER)
    every_row = session.Trials(np.arange(len(run.table)), 0, run.table)
    suffixes = [_event_suffix(r) for r in every_row.records(run.config.classical_delay)]
    suffix_of = np.array(suffixes, dtype=object)
    tally = 0
    for trials in run.chunks():
        tally = tally + trials.tally()
        handle.write(_event_lines(trials.first, suffix_of[trials.row].tolist()))
    return tally


def cmd_simulate(args) -> int:
    config = _build_config(args)
    bench = default_bench()
    run = session.Session(config, bench)
    expected = capacity.expected_accounting(
        config.scenario, _intended_distribution(config), bench
    )
    with _written(args.out, args.log) as (report_handle, log_handle):
        report = session.build_report(_write_events(log_handle, run))
        payload = report.to_dict()
        payload["config"] = _config_dict(config)
        payload["expected"] = {
            "efficiency": expected.efficiency,
            "discard_fraction": expected.discard_fraction,
            "uncontrolled_fraction": expected.uncontrolled_fraction,
            "bits_per_pair": expected.bits_per_pair,
        }
        payload["rng"] = session.RNG_SCHEME
        json.dump(payload, report_handle, indent=2, sort_keys=True)
        report_handle.write("\n")

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"scenario {config.scenario.value} ({config.owner.value}-owned), "
            f"seed {config.seed}: {report.messages_delivered} messages over "
            f"{report.pairs_consumed} pairs"
        )
        print(
            f"  efficiency {report.efficiency:.4f} "
            f"(expected {expected.efficiency:.4f}), "
            f"bits/pair {report.bits_per_pair:.4f} "
            f"(rounded ref {report.rounded_reference.bits_per_pair:.4f})"
        )
        print(f"  report -> {args.out}, event log -> {args.log}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_verification(seed=args.seed, branch_trials=args.trials)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<28} {r.detail}")
        n_ok = sum(r.passed for r in results)
        print(f"{n_ok}/{len(results)} checks passed")
    return EXIT_OK if verify.all_passed(results) else EXIT_INVARIANT


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        if args.command == "signatures":
            return cmd_signatures(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_verify(args)
    except InvalidConfigError as exc:
        print(f"sdcsim: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"sdcsim: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
