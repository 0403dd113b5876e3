"""Command-line surface: output golden files, JSON payloads, exit codes."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delaydist import cli
from delaydist.delay import NO
from delaydist.laws import LawEntry, LawReport

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
THEORIES = Path(__file__).resolve().parent.parent / "theories"

FAST_BOUNDS = ["--carrier-size", "1", "--max-steps", "1", "--max-depth", "1"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    @pytest.mark.parametrize("spec,golden", [
        ("magma", "classify_magma.txt"),
        ("monoid", "classify_monoid.txt"),
        ("cmonoid", "classify_cmonoid.txt"),
        ("semilattice", "classify_semilattice.txt"),
        ("convex(1/2)", "classify_convex.txt"),
        ("exceptions(E=2)", "classify_exceptions.txt"),
    ])
    def test_matches_golden(self, capsys, spec, golden):
        code, out, _ = run(capsys, "classify", spec)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "classify", "semilattice", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["theory"] == "semilattice"
        assert d["prediction"]["parSetoidLaw"] == "guaranteed"
        idem = next(e for e in d["equations"] if e["name"] == "idem")
        assert idem["classes"] == ["dup"]

    def test_theory_file(self, capsys, tmp_path):
        f = tmp_path / "band.th"
        f.write_text("op mul : 2\n"
                     "eq assoc : mul(mul(x, y), z) = mul(x, mul(y, z))\n"
                     "eq idem : mul(x, x) = x\n", encoding="utf-8")
        code, out, _ = run(capsys, "classify", str(f))
        assert code == 0
        assert out.startswith("theory band\n")

    def test_unknown_theory(self, capsys):
        code, _, err = run(capsys, "classify", "frobnitz")
        assert code == 3
        assert "frobnitz" in err

    def test_broken_theory_file(self, capsys, tmp_path):
        f = tmp_path / "broken.th"
        f.write_text("op mul : banana\n", encoding="utf-8")
        code, _, err = run(capsys, "classify", str(f))
        assert code == 3
        assert "error" in err


class TestCheck:
    def test_monoid_seq_passes(self, capsys):
        code, out, _ = run(capsys, "check", "monoid", "--lift", "seq", *FAST_BOUNDS)
        assert code == 0
        assert "theory monoid" in out
        assert "UNEXPECTED" not in out

    def test_predicted_failure_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "semilattice", "--lift", "seq",
                           "--carrier-size", "2", "--max-steps", "2", "--max-depth", "2")
        assert code == 0
        assert "[predicted]" in out

    def test_unknowns_exit_two(self, capsys):
        code, out, _ = run(capsys, "check", "monoid", "--lift", "seq",
                           "--carrier-size", "1", "--max-steps", "2",
                           "--max-depth", "1", "--fuel", "1", "--include-diverge")
        assert code == 2

    def test_unexpected_failure_exits_one(self, capsys, monkeypatch):
        from delaydist.laws import TestUniverse as Universe
        fake = LawReport("monoid", "seq", "strict", Universe().bounds_dict(), [
            LawEntry("UnitS", NO, 1)], 0.0)
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
        code, out, _ = run(capsys, "check", "monoid", "--lift", "seq", *FAST_BOUNDS)
        assert code == 1

    def test_custom_lift_by_name(self, capsys):
        code, out, _ = run(capsys, "check", "idempotent-unary",
                           "--lift", "custom:step-absorbing", *FAST_BOUNDS)
        assert code == 0
        assert "custom:step-absorbing" in out

    def test_unknown_custom_lift(self, capsys):
        code, _, err = run(capsys, "check", "monoid", "--lift", "custom:nope")
        assert code == 3
        assert "step-absorbing" in err  # message lists the known ones

    def test_custom_lift_rejects_missing_operations_before_scanning(self, capsys,
                                                                     tmp_path, monkeypatch):
        f = tmp_path / "band.th"
        f.write_text("op mul : 2\n"
                     "eq assoc : mul(mul(x, y), z) = mul(x, mul(y, z))\n"
                     "eq idem : mul(x, x) = x\n", encoding="utf-8")

        def no_scan(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "run_suite", no_scan)
        code, _, err = run(capsys, "check", str(f), "--lift", "custom:step-absorbing",
                           *FAST_BOUNDS)
        assert code == 3
        assert "bang:1" in err

    def test_bad_lift_mode(self, capsys):
        code, _, err = run(capsys, "check", "monoid", "--lift", "diagonal")
        assert code == 3

    def test_weak_relation_flag(self, capsys):
        code, out, _ = run(capsys, "check", "semilattice", "--lift", "par",
                           "--upto", "weak", *FAST_BOUNDS)
        assert code == 0
        assert "relation weak" in out

    def test_json_round_trips(self, capsys):
        from delaydist.laws import report_from_json_dict
        code, out, _ = run(capsys, "check", "monoid", "--lift", "seq",
                           "--json", *FAST_BOUNDS)
        assert code == 0
        r = report_from_json_dict(json.loads(out))
        assert r.theory == "monoid"
        assert r.all_yes

    def test_band_file_at_carrier_two(self, capsys):
        # universes large enough that the cost of deduplication shows
        code, out, _ = run(capsys, "check", str(THEORIES / "band.th"), "--lift", "par",
                           "--upto", "weak", "--carrier-size", "2", "--max-steps", "1",
                           "--max-depth", "2", "--json")
        assert code == 0
        d = json.loads(out)
        counts = {"UnitS": 4, "UnitT": 10, "MultS": 616, "MultT": 1086, "Naturality": 1010,
                  "EquationPreservation": 520, "MonadLaws": 10448}
        assert {a["name"]: a["verdict"] for a in d["axioms"]} == dict.fromkeys(counts, "yes")
        assert d["caseCounts"] == counts

    @pytest.mark.parametrize("eq,bad,cls", [
        ("mul(x, y) = z", "'z'", "drop"),
        ("mul(x, e) = mul(e, y)", "'y'", "drop"),
        ("x = mul(x, x)", "variable 'x'", "dup"),
    ])
    def test_rejects_equation_not_usable_left_to_right(self, capsys, tmp_path, eq, bad, cls):
        f = tmp_path / "bad.th"
        f.write_text(f"op mul : 2\nop e : 0\neq r : {eq}\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(f), "--lift", "seq", *FAST_BOUNDS)
        assert code == 3
        assert out == ""
        assert "equation 'r' cannot be rewritten left to right" in err and bad in err
        # classify builds no carrier, so it still reports the theory
        code, out, _ = run(capsys, "classify", str(f))
        assert code == 0
        assert f"eq r: {eq}  [{cls}]" in out

    def test_rejects_nonpositive_bounds(self, capsys):
        code, _, err = run(capsys, "check", "monoid", "--max-steps", "0")
        assert code == 3


class TestCombo:
    def test_reader(self, capsys):
        code, out, _ = run(capsys, "combo", "reader", *FAST_BOUNDS)
        assert code == 0
        assert "Naturality" in out

    def test_unknown_name_rejected_by_parser(self, capsys):
        code, _, _ = run(capsys, "combo", "frobnitz")
        assert code == 3

    @pytest.mark.parametrize("fuel", ["1", "2"])
    def test_state_out_of_fuel_exits_two(self, capsys, fuel):
        # an exhausted bind is Unknown, never an unexpected No, and an
        # undecided algebra law does not stop the extension
        code, out, _ = run(capsys, "combo", "state", "--carrier-size", "1", "--max-steps", "2",
                           "--max-depth", "1", "--fuel", fuel)
        assert code == 2
        assert "StepAdditivity         unknown" in out
        assert "UNEXPECTED" not in out

    @pytest.mark.parametrize("size", ["1", "2"])
    def test_continuation_matches_golden(self, capsys, size):
        # the golden files are the report with elapsedMs taken out
        code, out, _ = run(capsys, "combo", "continuation", "--carrier-size", size,
                           "--max-steps", "1", "--max-depth", "1", "--json")
        assert code == 0
        d = json.loads(out)
        del d["elapsedMs"]
        golden = GOLDEN / f"combo_continuation_c{size}s1d1.json"
        assert json.dumps(d, indent=2, ensure_ascii=False) + "\n" == golden.read_text(
            encoding="utf-8")

    def test_selection_matches_golden(self, capsys):
        # the report that tabulated predicates and bounded probes decide
        code, out, _ = run(capsys, "combo", "selection", "--carrier-size", "2",
                           "--max-steps", "3", "--max-depth", "2", "--json")
        assert code == 0
        d = json.loads(out)
        del d["elapsedMs"]
        golden = GOLDEN / "combo_selection_c2s3d2.json"
        assert json.dumps(d, indent=2, ensure_ascii=False) + "\n" == golden.read_text(
            encoding="utf-8")


class TestComboBudget:
    """Table and monad-law spaces past the case budget are refused before
    they are built or scanned; each command runs as a process with a
    timeout, so one that builds its space again fails here instead of
    exhausting memory."""

    @staticmethod
    def combo(name, size):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-m", "delaydist", "combo", name,
                               "--carrier-size", size, "--max-steps", "1", "--max-depth", "1"],
                              capture_output=True, text=True, env=env, timeout=60)

    @pytest.mark.parametrize("name,size,space,count", [
        ("continuation", "3", "retraction", 10 ** 8),
        ("selection", "4", "selector", 4 ** 16),
    ])
    def test_over_budget_space_exits_three(self, name, size, space, count):
        done = self.combo(name, size)
        assert done.returncode == 3, done.stderr
        assert done.stderr == (f"error: {space} table space: about {count} cases exceeds "
                               f"budget 1000000\n")
        assert done.stdout == ""

    @pytest.mark.parametrize("name,count", [("state", 12440502369), ("sum", 19921875)])
    def test_over_budget_monad_law_space_exits_three(self, name, count):
        done = self.combo(name, "4")
        assert done.returncode == 3, done.stderr
        assert done.stderr == (f"error: {name} monad laws: about {count} cases exceeds "
                               f"budget 1000000\n")
        assert done.stdout == ""

    @pytest.mark.parametrize("name,size", [("continuation", "2"), ("selection", "3")])
    def test_largest_space_in_budget_runs(self, name, size):
        done = self.combo(name, size)
        assert done.returncode == 0, done.stderr


class TestDemo:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "demo", "mogelberg-vezzosi")
        assert code == 0
        assert "step counts: 1 vs 2" in out
        assert "strict equality: no" in out
        assert "weak bisimilarity: yes" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "demo", "mogelberg-vezzosi", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["stepCounts"] == [1, 2]
        assert d["strict"]["verdict"] == "no"
        assert d["strict"]["predicted"] is True
        assert d["weak"]["verdict"] == "yes"

    def test_json_matches_golden(self, capsys):
        # the golden file is the report with elapsedMs taken out
        code, out, _ = run(capsys, "demo", "mogelberg-vezzosi", "--json")
        assert code == 0
        d = json.loads(out)
        del d["elapsedMs"]
        golden = GOLDEN / "demo_mogelberg_vezzosi.json"
        assert json.dumps(d, indent=2, ensure_ascii=False) + "\n" == golden.read_text(
            encoding="utf-8")


class TestNogo:
    def test_powerset_summary(self, capsys):
        code, out, _ = run(capsys, "nogo", "powerset")
        assert code == 0
        assert "32 candidate configurations, 32 refuted, 0 surviving" in out

    def test_powerset_json(self, capsys):
        code, out, _ = run(capsys, "nogo", "powerset", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["candidates"] == 32
        assert d["surviving"] == 0
        assert len(d["traces"]) == 32
        assert all("CLASH" not in t["derived"] for t in d["traces"])

    def test_powerset_rejects_p(self, capsys):
        code, _, err = run(capsys, "nogo", "powerset", "--p", "1/2")
        assert code == 3

    def test_distributions_runs_both_branches(self, capsys):
        code, out, _ = run(capsys, "nogo", "distributions", "--p", "2/3")
        assert code == 0
        assert "Eq1" in out and "Eq2" in out

    def test_distributions_json_meta(self, capsys):
        code, out, _ = run(capsys, "nogo", "distributions", "--p", "1/3", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["p"] == "1/3"
        assert [t["meta"]["branch"] for t in d["traces"]] == ["Eq1", "Eq2"]

    def test_distributions_requires_p(self, capsys):
        code, _, err = run(capsys, "nogo", "distributions")
        assert code == 3
        assert "--p" in err

    def test_unparsable_p(self, capsys):
        code, _, _ = run(capsys, "nogo", "distributions", "--p", "zebra")
        assert code == 3

    def test_out_of_range_p(self, capsys):
        code, _, err = run(capsys, "nogo", "distributions", "--p", "3/2")
        assert code == 3

    @pytest.mark.parametrize("argv,golden", [
        (("nogo", "powerset"), "nogo_powerset.txt"),
        (("nogo", "distributions", "--p", "1/3", "--json"), "nogo_distributions_1_3.json"),
    ])
    def test_matches_golden(self, capsys, argv, golden):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_weight_past_the_exponent_bound_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "nogo", "distributions", "--p", "1/1000")
        assert code == 3
        assert out == ""
        assert "error:" in err and "1/1000" in err and "64" in err


class TestParserPlumbing:
    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 3

    def test_a_later_call_leaves_no_cyclic_garbage(self, capsys):
        # the parser is built once per process, so a call after the first
        # builds nothing that only the cyclic collector could free
        run(capsys, "classify", "magma")
        gc.collect()
        gc.disable()
        try:
            code, _, _ = run(capsys, "classify", "magma")
            assert code == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "classify", "monoid", "--frob")
        assert code == 3

    def test_resolve_order_prefers_builtin(self, tmp_path, monkeypatch):
        # a file literally named "monoid" must not shadow the builtin
        monkeypatch.chdir(tmp_path)
        (tmp_path / "monoid").write_text("op weird : 7\n", encoding="utf-8")
        th = cli.resolve_theory("monoid")
        assert th.signature.arity("mul") == 2

    def test_weak_check_out_of_fuel_exits_two(self):
        # at fuel 1 the spot check of weak bisimilarity cannot compare its
        # two-step sample delay with itself: no answer, so no failure
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-m", "delaydist", "check", "monoid",
                               "--lift", "seq", "--upto", "weak", "--fuel", "1",
                               "--carrier-size", "1", "--max-steps", "1", "--max-depth", "1"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stderr == ""
        assert "MonadLaws              unknown(fuel_spent=1)" in done.stdout

    def test_operation_named_leaf_exits_three(self, tmp_path):
        # 'leaf' tags the leaves of term payloads, so it cannot also be a
        # node; classify builds no carrier and still reports the theory
        f = tmp_path / "leaf.th"
        f.write_text("op leaf : 1\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-m", "delaydist", "check", str(f),
                               "--lift", "seq", *FAST_BOUNDS],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: operation 'leaf' in theory 'leaf'")
        done = subprocess.run([sys.executable, "-m", "delaydist", "classify", str(f)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "op leaf : 1" in done.stdout

    def test_runs_as_module(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-m", "delaydist", "classify", "monoid"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == (GOLDEN / "classify_monoid.txt").read_text(encoding="utf-8")
