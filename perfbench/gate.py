"""Correctness gate: every output a workload produces is checked here.

The checks run outside the timed region. Each returns a list of failure
messages; an empty list means the output passed.

The pair-count band. In scenarios a and c a product-state message is
retried until its encoder takes the controlled branch, so with m product
messages among n the failures F = pairs - n follow a negative binomial
NB(m, p), p being the bench's controlled-branch probability. The band is the
set of pair counts whose exact two-sided tail probability under that law is
at least ALPHA, so a correct program fails it with probability at most ALPHA
per session. Its centre, n / efficiency, comes from
`capacity.expected_accounting`, so the band is an efficiency band around the
program's own expected accounting; the z-score is reported for reference.
Scenario b uses exactly one pair per message, so its band is the single
point pairs == n.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter

ALPHA = 1e-9
EVENT_HEADER = ["trial", "intended", "branch", "action", "pattern", "decoded", "note"]
DELIVERING_ACTIONS = ("sent", "cloned_resend")


def _binomial_tail(n: int, lo: int, hi: int, p: float) -> float:
    """P(lo <= Bin(n, p) <= hi), summed in log space."""
    if lo > hi:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    lg = math.lgamma
    base = lg(n + 1)
    logs = [base - lg(k + 1) - lg(n - k + 1) + k * lp + (n - k) * lq for k in range(lo, hi + 1)]
    top = max(logs)
    return min(1.0, math.exp(top) * math.fsum(math.exp(x - top) for x in logs))


def negbin_tails(m: int, p: float, f: int) -> tuple[float, float]:
    """(P(F <= f), P(F >= f)) for F failures before the m-th success, success prob p."""
    lower = _binomial_tail(m + f, m, m + f, p)
    upper = 1.0 if f == 0 else _binomial_tail(m + f - 1, 0, m - 1, p)
    return lower, upper


def controlled_probabilities(sdcsim) -> dict:
    """Controlled-branch probability per message, computed by the program's bench."""
    bench = sdcsim.default_bench()
    return {s: bench.encode_branches(s).controlled_probability for s in sdcsim.ALPHABET}


def pair_band(sdcsim, p_controlled: dict, scenario, stream: list, pairs: int) -> list[str]:
    """Check a session's pair count against the exact band described above."""
    n = len(stream)
    dist = {symbol: count / n for symbol, count in Counter(stream).items()}
    expected_pairs = n / sdcsim.capacity.expected_accounting(scenario, dist).efficiency
    if scenario is sdcsim.Scenario.B:
        if pairs != n or abs(expected_pairs - n) > 1e-9 * n:
            return [f"scenario b: {pairs} pairs (expected {expected_pairs:g}) for {n} messages"]
        return []
    risky = [p_controlled[s] for s in stream if p_controlled[s] < 1.0]
    if not risky:
        return [] if pairs == n else [f"{pairs} pairs for {n} messages that never retry"]
    p = risky[0]
    if any(abs(q - p) > 1e-12 for q in risky):
        return ["product messages have unequal branch probabilities; band undefined"]
    m = len(risky)
    model_pairs = n + m * (1.0 - p) / p
    if abs(model_pairs - expected_pairs) > 1e-9 * n:
        return [
            f"expected_accounting gives {expected_pairs:.6f} pairs, "
            f"bench branch probabilities give {model_pairs:.6f}"
        ]
    f = pairs - n
    if f < 0:
        return [f"{pairs} pairs for {n} messages"]
    lower, upper = negbin_tails(m, p, f)
    if min(lower, upper) < ALPHA / 2:
        z = (pairs - model_pairs) / math.sqrt(m * (1.0 - p) / p**2)
        return [
            f"{pairs} pairs for {n} messages lies outside the band "
            f"(z = {z:+.2f}, tail {min(lower, upper):.2e} < {ALPHA / 2:g})"
        ]
    return []


def check_session(sdcsim, p_controlled: dict, config, result) -> list[str]:
    """Gate one `run_session` result."""
    fails = []
    report = result.report
    stream = sdcsim.intended_stream(config)
    if report.messages_delivered != config.n_messages:
        fails.append(f"delivered {report.messages_delivered} of {config.n_messages} messages")
    if report.pairs_consumed != len(result.records):
        fails.append(f"report counts {report.pairs_consumed} pairs, log has {len(result.records)}")
    delivered = sdcsim.delivered_sequence(result.records)
    if delivered != stream:
        fails.append("delivered sequence differs from the intended stream")
    if sdcsim.bob_reconstruction(result.records, result.notes) != delivered:
        fails.append("receiver reconstruction differs from the delivered sequence")
    return fails + pair_band(sdcsim, p_controlled, config.scenario, stream, report.pairs_consumed)


def check_simulate(sdcsim, p_controlled: dict, config, report: dict, log_text: str) -> list[str]:
    """Gate one `sdcsim simulate` run from its report.json and events.csv."""
    fails = []
    rows = list(csv.reader(io.StringIO(log_text)))
    if not rows or rows[0] != EVENT_HEADER:
        return [f"event log header {rows[0] if rows else None} != {EVENT_HEADER}"]
    rows = rows[1:]
    if report["messages_delivered"] != config.n_messages:
        fails.append(f"delivered {report['messages_delivered']} of {config.n_messages} messages")
    if report["pairs_consumed"] != len(rows):
        fails.append(f"report counts {report['pairs_consumed']} pairs, log has {len(rows)} rows")
    if any(len(row) != len(EVENT_HEADER) for row in rows):
        return fails + ["event log has malformed rows"]
    stream = sdcsim.intended_stream(config)
    delivered = [row[1] for row in rows if row[3] in DELIVERING_ACTIONS]
    if delivered != [s.value for s in stream]:
        fails.append("delivered sequence in the log differs from the intended stream")
    alphabet = {s.value for s in sdcsim.ALPHABET}
    decoded = {row[0]: row[5] for row in rows if row[5] in alphabet}
    for row in rows:
        note = row[6]
        if note.startswith("CorrectTo(") and row[0] in decoded:
            decoded[row[0]] = note[len("CorrectTo(") : -1]
    if list(decoded.values()) != delivered:
        fails.append("receiver reconstruction from the log differs from the delivered sequence")
    return fails + pair_band(sdcsim, p_controlled, config.scenario, stream, report["pairs_consumed"])


def check_verify(results) -> list[str]:
    """Gate one `run_verification` result list: every check must pass."""
    if not results:
        return ["verification returned no checks"]
    return [f"{r.name}: {r.detail}" for r in results if not r.passed]
