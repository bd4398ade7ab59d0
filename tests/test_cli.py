import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tml.cli import run
from tml.matrix import M4


@pytest.fixture
def capout(capsys):
    def grab():
        return capsys.readouterr().out.strip()
    return grab


class _Tally:
    """A stdout that keeps only the first and last characters written."""

    def __init__(self):
        self.head = self.tail = ""

    def write(self, text):
        if len(self.head) < 100:
            self.head = (self.head + text)[:100]
        self.tail = (self.tail + text[-100:])[-100:]
        return len(text)


class TestBasics:
    def test_parse(self, capout):
        assert run(["parse", "p|~#p"]) == 0
        assert capout() == "p | ~#p"

    def test_parse_error_exit_2(self, capsys):
        assert run(["parse", "p |"]) == 2
        assert "error" in capsys.readouterr().err

    def test_eval(self, capout):
        assert run(["eval", "--valuation", "p=n", "#p"]) == 0
        assert capout() == "0"

    def test_valid_modal_axiom(self, capout):
        assert run(["valid", "p | ~#p"]) == 0
        assert capout() == "valid"

    def test_invalid_excluded_middle(self, capout):
        assert run(["valid", "p | ~p"]) == 1

    def test_consequence_relations(self):
        assert run(["consequence", "p & q => p"]) == 0
        assert run(["consequence", "p => #p"]) == 1
        assert run(["consequence", "p & q => p", "--relation", "degree"]) == 0

    def test_internal_failure_exits_2_not_1(self, capsys, monkeypatch):
        # an internal failure, such as the recursion limit, must not read
        # as "not valid"
        def exhausted(*args):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr("tml.matrix.matrix_consequence", exhausted)
        assert run(["valid", "p | ~#p"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "not valid" not in captured.out

    def test_deep_nesting_is_decided(self, capout):
        assert run(["valid", "~" * 1200 + "p"]) == 1
        assert capout() == "not valid"

    def test_countermodel_two_arguments(self, capout):
        assert run(["countermodel", "", "p | ~p"]) == 1
        assert capout() == "p=n"

    def test_countermodel_single_argument(self, capout):
        assert run(["countermodel", "p => p"]) == 0
        assert capout() == "none"


class TestProve:
    def test_reader_closing_the_pipe_early(self):
        # `tml prove --format json ... | head -c 20`: the proof's JSON runs
        # to megabytes, so the command is still writing when the reader
        # goes, and must exit quietly, not report the broken pipe
        seq = ", ".join(f"x{i} & x{i}" for i in range(100)) + ", z & z => z"
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-c", "from tml.cli import main; main()",
             "prove", "--format", "json", seq],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (0, b"")

    def test_sc_boxed_modal_axiom(self, capout):
        assert run(["prove", "--calculus", "sc", "=> #(p | ~#p)"]) == 0
        out = capout()
        assert "[box_r]" in out and "[axiom]" in out

    def test_sc_unprovable(self):
        assert run(["prove", "--calculus", "sc", "~#p => p"]) == 1

    def test_g_modal_axiom(self):
        assert run(["prove", "--calculus", "g", "=> p | ~#p"]) == 0

    def test_g_depth_bounded_failure(self):
        assert run(["prove", "--calculus", "g", "--depth", "6",
                    "=> #(p | ~#p)"]) == 1

    def test_sf4(self):
        assert run(["prove", "--calculus", "sf4", "=> p | ~#p"]) == 0
        assert run(["prove", "--calculus", "sf4", "=> p"]) == 1

    def test_sc_proof_higher_than_the_recursion_limit(self, capsys):
        # 1101 conjunctions: one and_l step each, a 1102-high proof whose
        # text (about 20 MB) still prints
        sequent = ", ".join(f"x{i} & x{i}" for i in range(1100)) + ", z & z => z"
        assert run(["prove", "--calculus", "sc", sequent]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert len(lines) == 1103 and lines[-1] == ""
        assert lines[0].startswith("    " * 1101 + "x0, x1, x10, ")
        assert lines[0].endswith("   [axiom]")
        assert lines[-2].startswith("x0 & x0, x1 & x1, x10 & x10, ")
        assert lines[-2].endswith(", z & z => z   [and_l]")

    def test_json_proof_higher_than_the_recursion_limit(self, monkeypatch):
        # 501 conjunctions: a 502-high proof whose indented JSON (434 MB,
        # counted rather than kept) the standard library's encoder cannot
        # write without passing the recursion limit
        out = _Tally()
        monkeypatch.setattr("sys.stdout", out)
        sequent = ", ".join(f"x{i} & x{i}" for i in range(500)) + ", z & z => z"
        assert run(["prove", "--format", "json", sequent]) == 0
        assert out.head.startswith('{\n  "rule": "and_l",\n  "sequent": {\n')
        assert out.tail.endswith("\n      ]\n    }\n  ]\n}\n")

    def test_json_output_round_trips_through_check(self, capsys, tmp_path):
        for calculus, sequent in [("sc", "=> #(p | ~#p)"),
                                  ("g", "p & q => p"),
                                  ("sf4", "=> p | ~#p")]:
            capsys.readouterr()
            assert run(["prove", "--calculus", calculus, "--format", "json",
                        sequent]) == 0
            doc = capsys.readouterr().out
            path = tmp_path / f"proof_{calculus}.json"
            path.write_text(doc)
            assert run(["check", "--calculus", calculus, str(path)]) == 0

    def test_prove_agrees_with_valid(self):
        for formula in ["p | ~#p", "p | ~p", "#(p | ~#p)", "#p | ~#p", "p"]:
            assert (run(["prove", "--calculus", "sc", f"=> {formula}"])
                    == run(["valid", formula]))


class TestCheckAndTranslate:
    def _proof_file(self, tmp_path, sequent):
        import tml.sc as sc
        from tml.sequents import parse_sequent
        pr = sc.prove(parse_sequent(sequent))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(sc.proof_to_json(pr)))
        return path

    def test_check_rejects_cut_without_flag(self, tmp_path, capsys):
        import tml.sc as sc
        from tml.sequents import parse_sequent
        # the contraposed half of this necessitation bridges ~~p, so the
        # proof genuinely contains a cut node
        pr = sc.necessitate(sc.prove(parse_sequent("=> ~(~p & #p)")))
        assert not sc.is_cut_free(pr)
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(sc.proof_to_json(pr)))
        code_strict = run(["check", "--calculus", "sc", str(path)])
        code_lenient = run(["check", "--calculus", "sc", "--allow-cut", str(path)])
        assert code_lenient == 0
        assert code_strict == 1

    def test_contrapose(self, tmp_path, capsys):
        path = self._proof_file(tmp_path, "p & q => p")
        assert run(["translate", "contrapose", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sequent"] == {"left": ["~p"], "right": ["~(p & q)"]}

    def test_sc2nd_and_back(self, tmp_path, capsys):
        path = self._proof_file(tmp_path, "p | q => q | p")
        assert run(["translate", "sc2nd", str(path)]) == 0
        nd_doc = capsys.readouterr().out
        nd_path = tmp_path / "d.json"
        nd_path.write_text(nd_doc)
        assert run(["check", "--calculus", "nd", str(nd_path)]) == 0
        capsys.readouterr()  # drop the check output
        assert run(["translate", "nd2sc", str(nd_path)]) == 0
        back = json.loads(capsys.readouterr().out)
        sc_path = tmp_path / "back.json"
        sc_path.write_text(json.dumps(back))
        assert run(["check", "--calculus", "sc", "--allow-cut", str(sc_path)]) == 0

    def test_check_reports_the_first_bad_node(self, tmp_path, capsys):
        from tml import gcalc, nd, sc, signed
        from tml.sequents import parse_sequent
        from tml.syntax import And, Or, Var
        p, q, r = Var("p"), Var("q"), Var("r")

        pr = sc.prove(parse_sequent("p & q => q & p"))
        and_r = pr.premises[0]
        bad_leaf = sc.ScProof(sc.ScRule.WEAK_L, and_r.premises[1].sequent, (p,))
        bad_sc = sc.ScProof(pr.rule, pr.sequent, pr.principal, (sc.ScProof(
            and_r.rule, and_r.sequent, and_r.principal, (and_r.premises[0], bad_leaf)),))

        G, GS = gcalc.GRule, gcalc.GSequent
        pq = frozenset({p, q})
        bad_g = gcalc.GProof(G.AND_R, GS(pq, And(p, q)), (
            gcalc.GProof(G.WEAK, GS(pq, p), (gcalc.GProof(G.STRUCT_AX, GS.of([p], p)),)),
            gcalc.GProof(G.WEAK, GS(pq, q), (gcalc.GProof(G.MODAL_AX, GS.of([q], q)),))))

        seq = parse_sequent("p & q => q")
        d = signed.sf_prove(signed.embed_two_sided(seq.left, seq.right).signed_set(M4))
        second = d.premises[1]
        bad_sf = signed.SFDerivation(d.rule, d.signed, (d.premises[0], signed.SFDerivation(
            second.rule, second.signed,
            (second.premises[0], signed.SFDerivation("weaken", second.premises[1].signed)))))

        twice = nd.NDDeduction("or_e", r, (nd.hyp(Or(p, q), "w"), nd.hyp(r, "x"),
                                           nd.hyp(r, "y")),
                               discharges=(("u", p), ("u", q)))
        malformed = nd.NDDeduction("and_e1", q, (nd.hyp(And(p, q), "b"),))
        bad_nd = nd.NDDeduction("and_i", And(r, q), (twice, malformed))

        for calculus, doc, want in [
                ("sc", sc.proof_to_json(bad_sc),
                 "node [0, 1] (weak_l): weakening needs one premise and one principal"),
                ("g", gcalc.g_proof_to_json(bad_g),
                 "node [1, 0] (g.modal_ax): premises do not instantiate the schema"),
                ("sf4", signed.derivation_to_json(bad_sf),
                 "node [1, 1]: weakening takes exactly one premise"),
                ("nd", nd.nd_to_json(bad_nd), "node [0]: marker 'u' discharged twice")]:
            path = tmp_path / f"bad_{calculus}.json"
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run(["check", "--calculus", calculus, str(path)]) == 1, calculus
            assert capsys.readouterr().out == f"invalid: {want}\n"

    def test_formula_of_the_wrong_type(self, tmp_path, capsys):
        # a list where a formula text goes fails in the parser, with the
        # message the parser gives for it
        from tml.syntax import parse
        with pytest.raises(AttributeError) as exc:
            parse(["p"])
        doc = {"rule": "axiom", "sequent": {"left": [["p"]], "right": ["p"]},
               "principal": ["p"], "premises": []}
        path = tmp_path / "bad_type.json"
        path.write_text(json.dumps(doc))
        assert run(["check", "--calculus", "sc", str(path)]) == 2
        assert capsys.readouterr().err == f"error: AttributeError: {exc.value}\n"

    def test_necessitate(self, tmp_path, capsys):
        path = self._proof_file(tmp_path, "=> p | ~#p")
        assert run(["translate", "necessitate", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sequent"]["right"] == ["#(p | ~#p)"]

    def test_translate_rejects_an_invalid_input(self, tmp_path, capsys):
        # each mode checks the file it reads first: exit 2, nothing on
        # stdout, and the checker's message for the first bad node
        from tml import nd, sc
        from tml.sequents import Sequent, parse_sequent
        from tml.syntax import And, Or, Var
        p, q, r = Var("p"), Var("q"), Var("r")

        pq = And(p, q)
        with_cut = sc.ScProof(sc.ScRule.AND_L, Sequent.of([pq], [p]), (pq,), (sc.ScProof(
            sc.ScRule.CUT, Sequent.of([pq, p, q], [p]), (r,),
            (sc.axiom([pq, p, q], [p, r]), sc.axiom([pq, p, q, r], [p]))),))
        pr = sc.prove(parse_sequent("p & q => q & p"))
        and_r = pr.premises[0]
        bad_leaf = sc.ScProof(sc.ScRule.WEAK_L, and_r.premises[1].sequent, (p,))
        bad_sc = sc.ScProof(pr.rule, pr.sequent, pr.principal, (sc.ScProof(
            and_r.rule, and_r.sequent, and_r.principal, (and_r.premises[0], bad_leaf)),))
        theorem = sc.prove(parse_sequent("=> p | ~#p"))
        bad_theorem = sc.ScProof(theorem.rule, theorem.sequent, theorem.principal, (
            sc.ScProof(sc.ScRule.AXIOM, theorem.premises[0].sequent, (p,)),))
        twice = nd.NDDeduction("or_e", r, (nd.hyp(Or(p, q), "w"), nd.hyp(r, "x"),
                                           nd.hyp(r, "y")),
                               discharges=(("u", p), ("u", q)))
        bad_nd = nd.NDDeduction("and_i", And(r, q), (
            twice, nd.NDDeduction("and_e1", q, (nd.hyp(And(p, q), "b"),))))

        for mode, doc, want in [
                ("contrapose", sc.proof_to_json(with_cut),
                 "node [0] (cut): cut is not allowed here"),
                ("sc2nd", sc.proof_to_json(bad_sc),
                 "node [0, 1] (weak_l): weakening needs one premise and one principal"),
                ("necessitate", sc.proof_to_json(bad_theorem),
                 "node [0] (axiom): left and right sides do not share a formula"),
                ("nd2sc", nd.nd_to_json(bad_nd), "node [0]: marker 'u' discharged twice")]:
            path = tmp_path / f"bad_{mode}.json"
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run(["translate", mode, str(path)]) == 2, mode
            assert capsys.readouterr() == ("", f"error: {want}\n"), mode


class TestSelfChecks:
    """Each command checks what it computed before printing it.  A result
    that fails is the program's fault: exit 2 with a message, not 0 or 1,
    and nothing on stdout.  Here the search or transform is replaced by
    one that returns a broken object."""

    def _fails(self, capsys, argv, want):
        capsys.readouterr()
        assert run(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: internal error: {want}\n"), argv

    def test_prove(self, capsys, monkeypatch):
        from tml import gcalc, sc, signed
        from tml.syntax import Var
        p = Var("p")
        monkeypatch.setattr(sc, "prove", lambda seq: sc.ScProof(sc.ScRule.AXIOM, seq, (p,)))
        self._fails(capsys, ["prove", "=> p | ~#p"], "the proof fails its check: "
                    "node [] (axiom): left and right sides do not share a formula")
        monkeypatch.setattr(sc, "prove", lambda seq: sc.axiom([p], [p]))
        self._fails(capsys, ["prove", "q => q"], "the proof is not of the sequent")
        monkeypatch.setattr(gcalc, "g_search_cutfree",
                            lambda goal, depth, stats: gcalc.GProof(gcalc.GRule.STRUCT_AX, goal))
        self._fails(capsys, ["prove", "--calculus", "g", "=> p | ~#p"],
                    "the proof fails its check: "
                    "node [] (g.struct_ax): premises do not instantiate the schema")
        monkeypatch.setattr(signed, "sf_prove",
                            lambda goal, m: signed.SFDerivation("axiom", goal))
        self._fails(capsys, ["prove", "--calculus", "sf4", "=> p"],
                    "the derivation fails its check: node []: no formula carries every sign")

    def test_countermodel(self, capsys, monkeypatch):
        monkeypatch.setattr("tml.matrix.countermodel", lambda gamma, delta, m: {"p": "1"})
        self._fails(capsys, ["countermodel", "=> p | ~p"],
                    "the valuation p=1 does not refute the sequent")

    def test_translate(self, capsys, monkeypatch, tmp_path):
        from tml import nd, sc
        from tml.sequents import Sequent, parse_sequent
        from tml.syntax import Var
        files = {}
        for name, sequent in [("proof", "p & q => p"), ("theorem", "=> p | ~#p")]:
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(sc.proof_to_json(sc.prove(parse_sequent(sequent)))))
        files["deduction"] = tmp_path / "deduction.json"
        files["deduction"].write_text(json.dumps(nd.nd_to_json(
            nd.sc_to_nd(sc.prove(parse_sequent("p & q => p"))))))

        monkeypatch.setattr(sc, "contrapose", lambda proof: proof)
        self._fails(capsys, ["translate", "contrapose", str(files["proof"])],
                    "the proof is not of the sequent the transform promises")
        monkeypatch.setattr(sc, "necessitate", lambda proof: sc.ScProof(
            sc.ScRule.CUT, proof.sequent, (), (proof,)))
        self._fails(capsys, ["translate", "necessitate", str(files["theorem"])],
                    "the proof fails its check: "
                    "node [] (cut): cut needs two premises and a cut formula")
        monkeypatch.setattr(nd, "sc_to_nd", lambda proof: nd.hyp(Var("p"), "u"))
        self._fails(capsys, ["translate", "sc2nd", str(files["proof"])],
                    "the deduction does not conclude the disjunction of the right side "
                    "from the left")
        monkeypatch.setattr(nd, "nd_to_sc", lambda ded: sc.ScProof(
            sc.ScRule.WEAK_L, Sequent.of([ded.conclusion], [ded.conclusion])))
        self._fails(capsys, ["translate", "nd2sc", str(files["deduction"])],
                    "the proof fails its check: "
                    "node [] (weak_l): weakening needs one premise and one principal")


class TestGenRules:
    def test_sf_stage_counts(self, capsys):
        assert run(["gen-rules", "--stage", "sf", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len([r for r in doc if r["kind"] == "logical"]) == 40

    def test_two_stage_text(self, capsys):
        assert run(["gen-rules", "--stage", "two"]) == 0
        out = capsys.readouterr().out
        assert "[or_1_0]" in out

    def test_bundled_matrix_file_loads(self, capsys):
        from tml.matrix import bundled_m4_path
        assert run(["gen-rules", "--stage", "sf", "--format", "json",
                    "--matrix", str(bundled_m4_path())]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len([r for r in doc if r["kind"] == "logical"]) == 40

    def test_matrix_with_an_unknown_connective(self, tmp_path, capsys):
        from tml.matrix import bundled_m4_path
        doc = json.loads(bundled_m4_path().read_text())
        doc["connectives"]["imp"] = {"arity": 2, "table": {
            f"{a},{b}": "1" for a in doc["values"] for b in doc["values"]}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert run(["gen-rules", "--stage", "two", "--matrix", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown connective 'imp'\n"

    def test_spec_file_override(self, tmp_path, capsys):
        from tml.translation import m4_spec, spec_to_json
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(m4_spec())))
        assert run(["gen-rules", "--stage", "two", "--spec", str(path),
                    "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in doc["rules"]} >= {"or_1_0", "box_1"}

    def test_broken_spec_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "0": {"n_side": ["~p"], "d_side": ["p"]},
            "n": {"n_side": ["p", "~p"], "d_side": []},
            "b": {"n_side": [], "d_side": ["p", "~p"]},
            "1": {"n_side": ["~p"], "d_side": ["p"]},
        }))
        assert run(["gen-rules", "--stage", "two", "--spec", str(path)]) == 2

    def test_spec_with_a_deep_template(self, tmp_path, capsys):
        # substituting into a template 3000 conjunctions deep
        deep = " & ".join(["p"] * 3000)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "0": {"n_side": ["p"], "d_side": ["~p"]},
            "n": {"n_side": ["p", "~p"], "d_side": []},
            "b": {"n_side": [], "d_side": ["p", "~p"]},
            "1": {"n_side": ["~p"], "d_side": ["p", deep]},
        }))
        assert run(["gen-rules", "--stage", "two", "--spec", str(path)]) == 0
        assert "error" not in capsys.readouterr().err


class TestProbeCut:
    def test_probe_json(self, capsys):
        assert run(["probe-cut", "--alpha", "p", "--depth", "8",
                    "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True
        assert doc["g_cutfree_found"] is False
        assert doc["sc_cutfree_found"] is True
        assert doc["exhausted"] is True
        assert doc["bound_hit"] is False

    def test_readme_probe_text(self, capsys):
        assert run(["probe-cut", "--alpha", "p", "--depth", "12"]) == 0
        assert capsys.readouterr().out == (
            "goal: => #(p | ~#p)\n"
            "semantically valid: True\n"
            "cut-free G proof within height 12: False\n"
            "cut-free two-sided proof: True\n"
            "exhaustive: the G search explored every cut-free backward step "
            "or refuted it by a countermodel, without reaching the height bound, "
            "so no cut-free G proof exists at any height\n")

    def test_stats_go_to_stderr(self, capsys):
        for argv in [["probe-cut", "--alpha", "p"], ["probe-cut", "--depth", "1"],
                     ["prove", "--calculus", "g", "p & q => p"],
                     ["prove", "--calculus", "g", "=> #(p | ~#p)"]]:
            code = run(argv)
            plain = capsys.readouterr()
            assert run(argv + ["--stats"]) == code
            with_stats = capsys.readouterr()
            assert with_stats.out == plain.out and plain.err == ""
            assert with_stats.err.startswith("stats: expanded ")
        assert run(["probe-cut", "--stats"]) == 0
        assert capsys.readouterr().err == (
            "stats: expanded 1, memo hits 0, pruned 1, validity memo hits 0, "
            "bound hit False\n")
        assert run(["prove", "--calculus", "sc", "--stats", "p => p"]) == 2
