"""Command-line interface.

Exit codes: 0 for affirmative results (valid, provable, proof checks),
1 for negative results, 2 for usage or parse errors and for any
internal failure.

Each command imports the modules it uses when it runs, so that, say,
``tml parse`` loads no proof calculus.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Optional, Sequence

from .syntax import SyntaxError_, parse, render

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2


class _CliError(Exception):
    pass


def _self_check(what: str, verify, result, *args, **kwargs):
    """Check what a command computed before printing it, and return what
    the checker returns.  A failure is the program's fault, so it exits
    2, never 0 or 1."""
    from .proofs import CheckError
    try:
        return verify(result, *args, **kwargs)
    except CheckError as e:
        raise _CliError(f"internal error: {what} fails its check: {e}") from None


def _self_expect(what: str, holds: bool) -> None:
    if not holds:
        raise _CliError(f"internal error: {what}")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tml",
                                 description="four-valued modal logic toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print it back")
    p.add_argument("formula")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("eval", help="evaluate a formula under a valuation")
    p.add_argument("--valuation", required=True, help='e.g. "p=n,q=b"')
    p.add_argument("formula")

    p = sub.add_parser("valid", help="is the formula designated under every valuation")
    p.add_argument("formula")

    p = sub.add_parser("consequence", help='does G entail D for "G => D"')
    p.add_argument("sequent")
    p.add_argument("--relation", choices=["matrix", "degree"], default="matrix")

    p = sub.add_parser("countermodel", help="find a refuting valuation")
    p.add_argument("sequent", nargs="+",
                   help='either "G => D" or two arguments G and D')

    p = sub.add_parser("prove", help="search for a proof of a sequent")
    p.add_argument("sequent")
    p.add_argument("--calculus", choices=["sc", "g", "sf4"], default="sc")
    p.add_argument("--depth", type=int, default=12,
                   help="height bound for the cut-free G search")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--stats", action="store_true",
                   help="print what the G search did on stderr")

    p = sub.add_parser("check", help="check a proof file")
    p.add_argument("file")
    p.add_argument("--calculus", choices=["sc", "g", "sf4", "nd"], required=True)
    p.add_argument("--allow-cut", action="store_true")

    p = sub.add_parser("translate", help="transform a proof file")
    p.add_argument("mode", choices=["contrapose", "sc2nd", "nd2sc", "necessitate"])
    p.add_argument("file")

    p = sub.add_parser("gen-rules", help="emit signed or translated rule sheets")
    p.add_argument("--matrix", help="matrix JSON file (defaults to the bundled one)")
    p.add_argument("--spec", help="expressiveness spec JSON file")
    p.add_argument("--stage", choices=["sf", "two"], default="two")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("probe-cut", help="probe cut necessity for => #(a | ~#a)")
    p.add_argument("--alpha", default="p")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--stats", action="store_true",
                   help="print what the G search did on stderr")

    return ap


def _load_json(path: str) -> dict:
    import json
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_parse(args) -> int:
    f = parse(args.formula)
    if args.format == "json":
        import json
        print(json.dumps({"ascii": render(f), "unicode": render(f, "unicode")}))
    else:
        print(render(f))
    return EXIT_YES


def _cmd_eval(args) -> int:
    from .matrix import M4, evaluate, parse_valuation
    f = parse(args.formula)
    v = parse_valuation(args.valuation)
    print(evaluate(f, v, M4))
    return EXIT_YES


def _cmd_valid(args) -> int:
    from .matrix import M4, matrix_consequence
    f = parse(args.formula)
    ok = matrix_consequence([], [f], M4)
    print("valid" if ok else "not valid")
    return EXIT_YES if ok else EXIT_NO


def _cmd_consequence(args) -> int:
    from .matrix import M4, degree_consequence, matrix_consequence
    from .sequents import parse_sequent
    seq = parse_sequent(args.sequent)
    if args.relation == "degree":
        if len(seq.right) != 1:
            raise _CliError("degree consequence needs exactly one conclusion")
        (phi,) = seq.right
        ok = degree_consequence(seq.left, phi, M4)
    else:
        ok = matrix_consequence(seq.left, seq.right, M4)
    print("holds" if ok else "does not hold")
    return EXIT_YES if ok else EXIT_NO


def _cmd_countermodel(args) -> int:
    from .matrix import M4, countermodel, render_valuation
    from .sequents import parse_sequent, sequent_satisfied
    if len(args.sequent) == 1:
        seq = parse_sequent(args.sequent[0])
    elif len(args.sequent) == 2:
        gamma, delta = args.sequent
        seq = parse_sequent(f"{gamma} => {delta}")
    else:
        raise _CliError("countermodel takes one sequent or two sides")
    v = countermodel(seq.left, seq.right, M4)
    if v is None:
        print("none")
        return EXIT_YES
    text = render_valuation(v)
    _self_expect(f"the valuation {text} does not refute the sequent",
                 not sequent_satisfied(v, seq, M4))
    print(text)
    return EXIT_NO


# characters per write of a proof's JSON
_BATCH = 1 << 16


def _print_chunks(pieces: Iterable[str]) -> None:
    """Write the pieces and a line break to stdout, joined in batches of
    about ``_BATCH`` characters: a proof's JSON can run to hundreds of
    megabytes, and ``print`` would hold it, and its encoded bytes, whole."""
    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            sys.stdout.write("".join(batch))
            batch.clear()
            size = 0
    batch.append("\n")
    sys.stdout.write("".join(batch))


def _print_proof(proof, fmt: str) -> int:
    from . import proofs
    if fmt == "json":
        _print_chunks(proofs.dump_chunks(proof))
    else:
        print(proofs.render(proof))
    return EXIT_YES


def _cmd_prove(args) -> int:
    from .sequents import parse_sequent
    seq = parse_sequent(args.sequent)
    if args.stats and args.calculus != "g":
        raise _CliError("--stats is available for the G search only")
    if args.calculus == "sc":
        from . import sc
        proof = sc.prove(seq)
        if proof is None:
            print("not provable")
            return EXIT_NO
        _self_check("the proof", sc.verify_sc_proof, proof)
        _self_expect("the proof is not of the sequent", proof.sequent == seq)
        return _print_proof(proof, args.format)
    if args.calculus == "g":
        from . import gcalc
        if len(seq.right) != 1:
            raise _CliError("the G calculus is single-conclusion")
        (phi,) = seq.right
        stats = gcalc.GSearchStats()
        goal = gcalc.GSequent(seq.left, phi)
        proof = gcalc.g_search_cutfree(goal, args.depth, stats)
        if args.stats:
            print(f"stats: {stats}", file=sys.stderr)
        if proof is None:
            print(f"no cut-free proof within height {args.depth}")
            return EXIT_NO
        _self_check("the proof", gcalc.verify_g_proof, proof)
        _self_expect("the proof is not of the sequent", proof.sequent == goal)
        return _print_proof(proof, args.format)
    # sf4: embed the two-sided sequent as a 4-sequent goal
    from . import signed
    from .matrix import M4
    goal = signed.embed_two_sided(seq.left, seq.right, M4).signed_set(M4)
    derivation = signed.sf_prove(goal, M4)
    if derivation is None:
        print("not provable")
        return EXIT_NO
    _self_check("the derivation", signed.verify_sf_derivation, derivation, M4)
    _self_expect("the derivation is not of the sequent", derivation.signed == goal)
    return _print_proof(derivation, args.format)


def _cmd_check(args) -> int:
    from .proofs import CheckError
    doc = _load_json(args.file)
    try:
        if args.calculus == "sc":
            from . import sc
            sc.verify_sc_proof(sc.proof_from_json(doc), allow_cut=args.allow_cut)
        elif args.calculus == "g":
            from . import gcalc
            gcalc.verify_g_proof(gcalc.g_proof_from_json(doc), allow_cut=args.allow_cut)
        elif args.calculus == "sf4":
            from . import signed
            from .matrix import M4
            signed.verify_sf_derivation(signed.derivation_from_json(doc), M4)
        else:
            from . import nd
            ded = nd.nd_from_json(doc)
            opens = ", ".join(sorted(f.text for f in nd.verify_nd(ded))) or "(none)"
            print(f"valid: concludes {ded.conclusion.text}; open assumptions: {opens}")
            return EXIT_YES
    except CheckError as e:
        print(f"invalid: {e}")
        return EXIT_NO
    print("valid")
    return EXIT_YES


def _cmd_translate(args) -> int:
    """Check the file read, transform it, and check what is printed: the
    transforms themselves check neither."""
    from . import nd, sc
    from .proofs import dump_chunks
    from .sequents import Sequent
    from .syntax import Box, Neg
    doc = _load_json(args.file)
    if args.mode == "nd2sc":
        ded = nd.nd_from_json(doc)
        goal = Sequent(nd.verify_nd(ded), frozenset({ded.conclusion}))
        out = nd.nd_to_sc(ded)
    else:
        proof = sc.proof_from_json(doc)
        left, right = proof.sequent.left, proof.sequent.right
        if args.mode == "necessitate":   # a wrong sequent is reported before a bad node
            goal = Sequent(frozenset(), frozenset({Box(sc.theorem_of(proof))}))
        sc.verify_sc_proof(proof)
        if args.mode == "contrapose":
            out = sc.contrapose(proof)
            goal = Sequent(frozenset(map(Neg, right)), frozenset(map(Neg, left)))
        elif args.mode == "necessitate":
            out = sc.necessitate(proof)
        else:
            out = nd.sc_to_nd(proof)
    if args.mode == "sc2nd":
        opens = _self_check("the deduction", nd.verify_nd, out)
        _self_expect("the deduction does not conclude the disjunction of the right side "
                     "from the left", out.conclusion is nd.disjunction_of(right)
                     and opens <= left)
    else:
        _self_check("the proof", sc.verify_sc_proof, out, allow_cut=True)
        _self_expect("the proof is not of the sequent the transform promises",
                     out.sequent == goal)
    _print_chunks(dump_chunks(out))
    return EXIT_YES


def _cmd_gen_rules(args) -> int:
    import json

    from . import signed, translation
    from .matrix import M4, load_matrix
    m = load_matrix(args.matrix) if args.matrix else M4
    rules = signed.generate_sf_rules(m)
    if args.stage == "sf":
        doc = [
            {"name": r.name, "kind": r.kind, "connective": r.connective,
             "arg_signs": list(r.arg_signs), "out_sign": r.out_sign}
            for r in rules
        ]
        if args.format == "json":
            print(json.dumps(doc, indent=2))
        else:
            for r in rules:
                if r.kind == "logical":
                    prem = "   ".join(f"W, {s}:x{i}" for i, s in enumerate(r.arg_signs))
                    print(f"[{r.name}]  {prem}  /  W, {r.out_sign}:{r.connective}(...)")
                else:
                    print(f"[{r.name}]  ({r.kind})")
        return EXIT_YES
    spec = translation.spec_from_json(_load_json(args.spec)) if args.spec \
        else translation.m4_spec()
    if not spec.condition_ii_holds(m):
        raise _CliError("expressiveness spec fails its defining condition for this matrix")
    calc = translation.two_of_calculus(rules, spec, m)
    if args.format == "json":
        print(json.dumps(translation.rule_sheet_json(calc), indent=2))
    else:
        print(translation.render_rule_sheet(calc))
    return EXIT_YES


def _cmd_probe_cut(args) -> int:
    import json

    from .gcalc import cut_necessity_probe
    alpha = parse(args.alpha)
    report = cut_necessity_probe(alpha, args.depth)
    if args.stats:
        print(f"stats: {report.stats}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps({
            "alpha": alpha.text,
            "depth": report.depth,
            "valid": report.valid,
            "g_cutfree_found": report.g_cutfree_found,
            "sc_cutfree_found": report.sc_cutfree_found,
            "vacuous_bound": report.vacuous_bound,
            "bound_hit": report.bound_hit,
            "exhausted": report.exhausted,
        }, indent=2))
    else:
        print(report)
    supported = report.valid and report.sc_cutfree_found and not report.g_cutfree_found
    return EXIT_YES if supported else EXIT_NO


_COMMANDS = {
    "parse": _cmd_parse,
    "eval": _cmd_eval,
    "valid": _cmd_valid,
    "consequence": _cmd_consequence,
    "countermodel": _cmd_countermodel,
    "prove": _cmd_prove,
    "check": _cmd_check,
    "translate": _cmd_translate,
    "gen-rules": _cmd_gen_rules,
    "probe-cut": _cmd_probe_cut,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:   # the reader closed stdout: main exits quietly
        raise
    except (SyntaxError_, ValueError, OSError, KeyError, _CliError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        # an internal failure (e.g. RecursionError on deep nesting) must
        # never read as the negative answer, exit 1
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; exit quietly
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_YES
    sys.exit(code)


if __name__ == "__main__":
    main()
