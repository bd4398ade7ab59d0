"""The tml benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Workloads (see BENCHMARK.json for why each exists): ``decide``,
``semantics``, ``proofs``, ``cli``.  Inputs are generated from the seed
as text.  Every answer is checked; a wrong answer makes the run fail,
and an operation that times out, raises or lacks a checked certificate
counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured over ``--seconds`` of
operations.  With ``--trace 1`` they are the per-layer ones: spans are
recorded around the benchmark's calls into each tml module over a fixed
census (the first ``census_ops`` operations of the seed's corpus), then
the remaining time alternates untraced and traced executions of the same
operations to measure the tracing overhead.

The per-layer metrics in ``EXACT`` are counts, or shares of counts, and
repeat exactly on one seed (``selftest.py`` checks this).  The others
(``*_s``, ``*_ms``, ``matrix.ns_per_valuation``, ``trace.overhead_share``)
are timings.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from common import Unchecked, WrongAnswer
from tracer import NullTracer, OpTimeout, Patch, TimeLimit, Tracer

ROOT = Path(__file__).resolve().parent.parent
EXACT = frozenset((
    "syntax.parse_chars", "matrix.calls", "matrix.valuation_space",
    "algebra.calls", "translation.sequents_out", "sc.search_calls",
    "sc.search_timeouts", "sc.proof_nodes", "sc.valid_share",
    "signed.search_calls", "signed.search_timeouts", "signed.derivation_nodes",
    "gcalc.search_calls", "gcalc.found_share", "gcalc.proof_nodes",
    "check.nodes", "check.rejects", "transform.nodes_in", "transform.nodes_out",
    "json.bytes"))
SETUP_REPS = 3
SETUP_MIN_S = 1.5
# per-operation time limits in seconds, far above the slowest operation
# of the seed code seen in ~100,000 per workload
LIMIT_S = {"decide": 5.0, "semantics": 5.0, "proofs": 5.0, "cli": 10.0}


def _workload(name):
    if name == "decide":
        from decide import Decide as W
    elif name == "semantics":
        from semantics import Semantics as W
    elif name == "proofs":
        from proofs import Proofs as W
    else:
        from commands import Cli as W
    return W(ROOT)


class Outcome:
    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.wrong = []

    def run(self, wl, op, tr, limit):
        t0 = time.perf_counter()
        try:
            with limit:
                wl.run_op(op, tr)
        except OpTimeout:
            self.failed += 1
            wl.on_timeout(tr)
        except WrongAnswer as e:
            self.wrong.append(str(e))
        except Unchecked as e:
            self.failed += 1
            print(f"unchecked: {e}", file=sys.stderr)
        except Exception as e:   # an operation that raises is a failed operation
            self.failed += 1
            print(f"raised: {type(e).__name__}: {e}", file=sys.stderr)
        t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        return t1


def _setup(wl, seed):
    """Set up at least ``SETUP_REPS`` times, and for ``SETUP_MIN_S`` in
    all; the median is ``setup_s``.  Every repetition must produce the
    same corpus."""
    times, corpus = [], None
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S and len(times) < 15):
        t0 = time.perf_counter()
        ops = wl.setup(seed)
        for op in wl.warmup_ops(seed):
            wl.run_op(op, NullTracer())
        times.append(time.perf_counter() - t0)
        if corpus is not None and ops != corpus:
            raise SystemExit("set-up is not deterministic")
        corpus = ops
    return corpus, statistics.median(times)


def _peak_rss_mb(children):
    """Peak RSS of this process, or of the largest child for ``cli``.
    End-to-end runs read it after the census, a fixed amount of work,
    because the interning pools grow with every operation run."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, corpus, seconds, limit, setup_s):
    tr, res = NullTracer(), Outcome()
    start = time.perf_counter()
    deadline = start + seconds
    i, now, rss = 0, start, None
    while now < deadline:
        now = res.run(wl, corpus[i % len(corpus)], tr, limit)
        i += 1
        if i == wl.census_ops:
            rss = _peak_rss_mb(wl.name == "cli")
    lat = sorted(res.latencies)
    n = len(lat)
    metrics = {
        "throughput_ops_s": (n / (now - start), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p95_ms": (statistics.quantiles(lat, n=20)[-1] * 1e3, "ms"),
        "checked_share": ((n - res.failed - len(res.wrong)) / n, "share"),
        "peak_rss_mb": (rss or _peak_rss_mb(wl.name == "cli"), "MB"),
        "setup_s": (setup_s, "s"),
    }
    return res, metrics


def per_layer(wl, corpus, seconds, limit):
    tr, res = Tracer(), Outcome()
    start = time.perf_counter()
    census = corpus[:wl.census_ops]
    probes, command_ms = [], []
    with Patch(wl.trace_patches(tr)):
        for op in census:
            t0 = time.perf_counter()
            res.run(wl, op, tr, limit)
            if wl.name == "cli":
                command_ms.append((time.perf_counter() - t0) * 1e3)
                probes.append(wl.probe_ms(tr))

    # overhead: the same operations untraced and traced, alternating
    # which goes first, until the run's time is used
    plain, traced = 0.0, 0.0
    j = len(census)
    while j < len(census) + 8 or time.perf_counter() - start < seconds:
        op = corpus[j % len(corpus)]
        scratch = Tracer()
        pair = [(NullTracer(), []), (scratch, wl.trace_patches(scratch))]
        if j % 2:
            pair.reverse()
        for t, patches in pair:
            with Patch(patches):
                t0 = time.perf_counter()
                res.run(wl, op, t, limit)
                d = time.perf_counter() - t0
            if t.on:
                traced += d
            else:
                plain += d
        j += 1

    b, c = tr.busy, tr.counts
    ns_per_valuation = b["matrix"] * 1e9 / c["matrix.valuation_space"] \
        if c["matrix.valuation_space"] else 0.0
    metrics = {
        "syntax.parse_s": (b["syntax"], "s"),
        "syntax.parse_chars": (c["syntax.parse_chars"], "count"),
        "matrix.busy_s": (b["matrix"], "s"),
        "matrix.calls": (c["matrix.calls"], "count"),
        "matrix.valuation_space": (c["matrix.valuation_space"], "count"),
        "matrix.ns_per_valuation": (ns_per_valuation, "ns"),
        "algebra.busy_s": (b["algebra"], "s"),
        "algebra.calls": (c["algebra.calls"], "count"),
        "translation.busy_s": (b["translation"], "s"),
        "translation.sequents_out": (c["translation.sequents_out"], "count"),
        "sc.search_s": (b["sc"], "s"),
        "sc.search_calls": (c["sc.search_calls"], "count"),
        "sc.search_timeouts": (c["sc.search_timeouts"], "count"),
        "sc.proof_nodes": (c["sc.proof_nodes"], "count"),
        "sc.valid_share": (_share(c["sc.valid"], c["sc.search_calls"]), "share"),
        "signed.search_s": (b["signed"], "s"),
        "signed.search_calls": (c["signed.search_calls"], "count"),
        "signed.search_timeouts": (c["signed.search_timeouts"], "count"),
        "signed.derivation_nodes": (c["signed.derivation_nodes"], "count"),
        "gcalc.search_s": (b["gcalc"], "s"),
        "gcalc.search_calls": (c["gcalc.search_calls"], "count"),
        "gcalc.found_share": (_share(c["gcalc.found"], c["gcalc.search_calls"]), "share"),
        "gcalc.proof_nodes": (c["gcalc.proof_nodes"], "count"),
        "check.busy_s": (b["check"], "s"),
        "check.nodes": (c["check.nodes"], "count"),
        "check.rejects": (c["check.rejects"], "count"),
        "transform.busy_s": (b["transform"], "s"),
        "transform.nodes_in": (c["transform.nodes_in"], "count"),
        "transform.nodes_out": (c["transform.nodes_out"], "count"),
        "json.busy_s": (b["json"], "s"),
        "json.bytes": (c["json.bytes"], "count"),
        "trace.overhead_share": (traced / plain - 1.0 if plain else 0.0, "share"),
    }
    if wl.name == "cli":
        from commands import cli_layers
        layers = cli_layers(command_ms, probes)
    else:
        layers = dict.fromkeys(("cli.interpreter_ms", "cli.import_ms", "cli.command_ms"), 0.0)
    metrics.update({k: (v, "ms") for k, v in layers.items()})
    return res, metrics


def _share(part, whole):
    return part / whole if whole else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["decide", "semantics", "proofs", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tml" / "__init__.py").is_file():
        print(f"perfbench: no tml package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = _workload(args.workload)
    limit = TimeLimit(LIMIT_S[args.workload])
    try:
        corpus, setup_s = _setup(wl, args.seed)
        if args.trace:
            res, metrics = per_layer(wl, corpus, args.seconds, limit)
        else:
            res, metrics = end_to_end(wl, corpus, args.seconds, limit, setup_s)
    finally:
        wl.cleanup()
    for msg in res.wrong[:10]:
        print(f"wrong answer: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not res.wrong,
        "attempted": len(res.latencies),
        "failed": res.failed + len(res.wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if res.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
