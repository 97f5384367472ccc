"""Command-line interface: `signatures`, `simulate`, and `verify`.

Exit codes: 0 success, 1 invalid configuration or arguments, 2 invariant
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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

_STATE_ALIASES = {
    "psi+": MessageSymbol.PSI_PLUS,
    "psiplus": MessageSymbol.PSI_PLUS,
    "psi-": MessageSymbol.PSI_MINUS,
    "psiminus": MessageSymbol.PSI_MINUS,
    "hh": MessageSymbol.HH,
    "vv": MessageSymbol.VV,
    "phi+": ReferenceState.PHI_PLUS,
    "phiplus": ReferenceState.PHI_PLUS,
    "phi-": ReferenceState.PHI_MINUS,
    "phiminus": ReferenceState.PHI_MINUS,
}


class _Parser(argparse.ArgumentParser):
    """argparse, but argument problems exit with the invalid-config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _parse_state(text: str):
    key = text.strip().lower().replace("_", "")
    if key not in _STATE_ALIASES:
        raise argparse.ArgumentTypeError(
            f"unknown state {text!r}; choose from psi+ psi- hh vv phi+ phi-"
        )
    return _STATE_ALIASES[key]


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
    ver.add_argument("--inject-defect", action="store_true", help=argparse.SUPPRESS)

    return parser


def _distribution_json(dist) -> dict:
    return {
        pattern.to_string(): prob
        for pattern, prob in sorted(dist.items(), key=lambda kv: kv[0].counts)
    }


def _write_text(path: str | None, text: str) -> None:
    print(text, end="")
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_signatures(args) -> int:
    bench = default_bench()
    if args.state is not None:
        dist = bench.analyze(bench.state_for(args.state))
        name = args.state.value
        if args.format == "json":
            payload = {"state": name, "distribution": _distribution_json(dist)}
            _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            lines = [f"analyzer distribution of {name}:"]
            for pattern, prob in sorted(dist.items(), key=lambda kv: kv[0].counts):
                lines.append(f"  {pattern.to_string():<16} {prob:.6f}")
            _write_text(args.out, "\n".join(lines) + "\n")
        return EXIT_OK

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
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
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
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


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


def _write_events(handle, run: session.Session) -> np.ndarray:
    """Stream the session's event log chunk by chunk; return its summed tally.

    Each distinct row after the trial number is rendered once per chunk.
    """
    csv.writer(handle).writerow(EVENT_HEADER)
    tally = 0
    for trials in run.chunks():
        tally = tally + trials.tally()
        _, first, inverse = np.unique(
            trials.row_codes(), return_index=True, return_inverse=True
        )
        records = trials.records(run.config.classical_delay, first)
        suffix = np.array([_event_suffix(r) for r in records], dtype=object)[inverse]
        handle.write(
            "".join([f"{t},{s}" for t, s in zip(trials.trial.tolist(), suffix.tolist())])
        )
    return tally


def cmd_simulate(args) -> int:
    try:
        config = _build_config(args)
    except InvalidConfigError as exc:
        print(f"sdcsim: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # check both destinations before anything is written: no partial output
    report_tmp, log_tmp = f"{args.out}.tmp", f"{args.log}.tmp"
    if len({os.path.realpath(p) for p in (args.out, args.log, report_tmp, log_tmp)}) < 4:
        print(f"sdcsim: invalid configuration: --out {args.out} and --log {args.log} "
              "share a file or its temporary <path>.tmp", file=sys.stderr)
        return EXIT_CONFIG
    for path in filter(os.path.isdir, (args.out, args.log)):
        print(f"sdcsim: cannot write output: {path} is a directory", file=sys.stderr)
        return EXIT_IO
    run = session.Session(config)
    expected = capacity.expected_accounting(
        config.scenario, _intended_distribution(config)
    )
    # rename into place only once both files are written
    try:
        with open(log_tmp, "w", encoding="utf-8", newline="") as handle:
            report = session.build_report(config, _write_events(handle, run))
        payload = report.to_dict()
        payload["config"] = _config_dict(config)
        payload["expected"] = {
            "efficiency": expected.efficiency,
            "discard_fraction": expected.discard_fraction,
            "uncontrolled_fraction": expected.uncontrolled_fraction,
            "bits_per_pair": expected.bits_per_pair,
        }
        payload["rng"] = session.RNG_SCHEME
        with open(report_tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(report_tmp, args.out)
        os.replace(log_tmp, args.log)
    except OSError as exc:
        for tmp in (report_tmp, log_tmp):
            with contextlib.suppress(OSError):
                os.remove(tmp)
        print(f"sdcsim: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO

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
    extra = None
    if args.inject_defect:
        extra = {"injected_defect": np.array([[1.0, 0.1], [0.0, 1.0]])}
    results = verify.run_verification(
        seed=args.seed, branch_trials=args.trials, extra_matrices=extra
    )
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
