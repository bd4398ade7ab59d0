"""Workload ``cli``: the README's ``tml`` commands, one subprocess at a
time, as ``python3 -m tml.cli`` with ``src`` on ``PYTHONPATH``.

Set-up compiles the package's bytecode (a cold compile adds ~40 ms to
``import tml``), writes the proof files the README commands read into a
work directory inside the checkout, and runs one warm-up command.  Each
command's exit code and standard output are checked against the README.
Outputs that are proofs are read back and passed through the library's
independent checkers.
"""

from __future__ import annotations

import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from common import Unchecked, Workload, WrongAnswer

WORKDIR = ".perfbench_work"
CORPUS_ROUNDS = 200

# (arguments, exit code, check of stdout)
COMMANDS = (
    (("parse", "p | ~#p"), 0, ("equal", "p | ~#p")),
    (("eval", "--valuation", "p=n", "#p"), 0, ("equal", "0")),
    (("valid", "p | ~#p"), 0, ("equal", "valid")),
    (("consequence", "p & q => p", "--relation", "degree"), 0, ("equal", "holds")),
    (("countermodel", "", "p | ~p"), 1, ("equal", "p=n")),
    (("prove", "--calculus", "sc", "=> #(p | ~#p)"), 0,
     ("last", "=> #(p | ~#p)   [box_r]")),
    (("prove", "--calculus", "g", "--depth", "12", "=> #(p | ~#p)"), 1,
     ("equal", "no cut-free proof within height 12")),
    (("prove", "--calculus", "sf4", "=> p | ~#p"), 0,
     ("last", "{1:p | ~#p, b:p | ~#p}   [or_0_b]")),
    (("prove", "--calculus", "sc", "--format", "json", "p & q => q & p"), 0,
     ("sc_proof", "p & q => q & p")),
    (("check", "--calculus", "sc", "proof.json"), 0, ("equal", "valid")),
    (("translate", "contrapose", "proof.json"), 0, ("sc_proof", "~(q & p) => ~(p & q)")),
    (("translate", "sc2nd", "proof.json"), 0, ("nd", "q & p")),
    (("check", "--calculus", "nd", "ded.json"), 0,
     ("equal", "valid: concludes q & p; open assumptions: p & q")),
    (("gen-rules", "--stage", "sf"), 0, ("lines", 42)),
    (("gen-rules", "--stage", "two"), 0, ("rule_sheet", None)),
    (("probe-cut", "--alpha", "p", "--depth", "12"), 0,
     ("contains", "cut-free G proof within height 12: False\n"
                  "cut-free two-sided proof: True")),
)


class Cli(Workload):
    name = "cli"
    census_ops = 64

    def __init__(self, root):
        from tml import nd, sc, signed, translation
        from tml.matrix import M4
        from tml.sequents import parse_sequent
        from tml.syntax import parse
        self.root, self.sc, self.nd = root, sc, nd
        self.parse, self.parse_sequent = parse, parse_sequent
        self.work = root / WORKDIR
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        calc = translation.two_of_calculus(signed.generate_sf_rules(M4),
                                           translation.m4_spec(), M4)
        self.rule_sheet = translation.render_rule_sheet(calc)

    def setup(self, seed):
        compileall.compile_dir(str(self.root / "src" / "tml"), force=True, quiet=1)
        self.work.mkdir(exist_ok=True)
        proof = self.sc.prove(self.parse_sequent("p & q => q & p"))
        (self.work / "proof.json").write_text(
            json.dumps(self.sc.proof_to_json(proof), indent=2) + "\n")
        (self.work / "ded.json").write_text(
            json.dumps(self.nd.nd_to_json(self.nd.sc_to_nd(proof)), indent=2) + "\n")
        rng = random.Random(seed)
        ops = []
        for _ in range(CORPUS_ROUNDS):
            order = list(range(len(COMMANDS)))
            rng.shuffle(order)
            ops.extend(order)
        return ops

    def warmup_ops(self, seed):
        return [0]

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _run(self, argv):
        return subprocess.run([sys.executable, *argv], cwd=self.work, env=self.env,
                              capture_output=True, text=True)

    def run_op(self, op, tr):
        args, code, (how, want) = COMMANDS[op]
        done = self._run(["-m", "tml.cli", *args])
        out = done.stdout.rstrip("\n")
        if done.returncode != code:
            raise WrongAnswer(f"tml {' '.join(args)} exited {done.returncode}: "
                              f"{done.stderr.strip()[-200:]}")
        if how == "equal":
            ok = out == want
        elif how == "last":
            ok = out.splitlines()[-1] == want
        elif how == "contains":
            ok = want in out
        elif how == "lines":
            ok = len(out.splitlines()) == want
        elif how == "rule_sheet":
            ok = out == self.rule_sheet
        elif how == "sc_proof":
            p = self.sc.proof_from_json(json.loads(out))
            try:
                self.sc.verify_sc_proof(p, allow_cut=True)
            except self.sc.ScCheckError as e:
                raise Unchecked(f"proof from tml {' '.join(args)} rejected: {e}")
            ok = p.sequent == self.parse_sequent(want)
        else:
            res = self.nd.check_nd(self.nd.nd_from_json(json.loads(out)))
            if not res.ok:
                raise Unchecked(f"deduction from tml {' '.join(args)} rejected: {res.error}")
            ok = res.conclusion is self.parse(want)
        if not ok:
            raise WrongAnswer(f"tml {' '.join(args)} printed {out[-300:]!r}")

    def probe_ms(self, tr):
        """Interpreter start and ``import tml.cli``, timed alone."""
        spans = {}
        for key, argv in (("pass", ["-c", "pass"]), ("import", ["-c", "import tml.cli"])):
            t0 = time.perf_counter()
            self._run(argv).check_returncode()
            spans[key] = (time.perf_counter() - t0) * 1e3
        return spans


def cli_layers(command_ms, probes):
    interp = statistics.median(p["pass"] for p in probes)
    start = statistics.median(p["import"] for p in probes)
    return {"cli.interpreter_ms": interp,
            "cli.import_ms": start - interp,
            "cli.command_ms": statistics.mean(command_ms) - start}
