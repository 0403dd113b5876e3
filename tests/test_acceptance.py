"""Acceptance gate: the nine headline results, one test per criterion.

Each test prints a single PASS line; expensive law suites are computed
once in session fixtures and shared between criteria 1, 7 and 9."""

import itertools
import math
from fractions import Fraction

import pytest

from conftest import writer_steps_preserved
from delaydist import combos
from delaydist import freemodel as fm
from delaydist import nogo
from delaydist.delay import DIVERGE, delay_n, join, step, step_count, weak_bisim
from delaydist.laws import TestUniverse as Universe
from delaydist.laws import check_delay_monad_laws, check_equation_preservation, run_suite
from delaydist.lifting import par_lift_op, seq_lift_op
from delaydist.theory import classify_equation

DEFAULT = Universe()  # |X|=2, steps<=3, depth<=2, strict
PAR_WEAK = Universe(relation="weak")


@pytest.fixture(scope="session")
def seq_reports():
    return {name: run_suite(fm.builtin_theory(name), "seq", DEFAULT)
            for name in ("magma", "monoid", "cmonoid")}


@pytest.fixture(scope="session")
def par_weak_reports():
    return {name: run_suite(fm.builtin_theory(name), "par", PAR_WEAK)
            for name in ("semilattice", "cmonoid", "magma")}


@pytest.fixture(scope="session")
def idem_report():
    return nogo.idempotent_unary_demo(DEFAULT)


def test_criterion_1_sequential_lifting_is_a_distributive_law(seq_reports):
    for name, r in seq_reports.items():
        assert r.all_yes, f"{name}: {[e.axiom for e in r.entries if not e.verdict.is_yes]}"
        assert not r.has_unknown, name
        assert r.case_counts["MultT"] > 0, name
    print("PASS criterion 1: magma, monoid, cmonoid under seq/strict pass every "
          "axiom with zero Unknowns at the default bounds")


def test_criterion_2_parallel_lifting_separation_witness():
    demo = nogo.mogelberg_vezzosi_witness()
    assert demo.step_counts == (1, 2)
    assert demo.entry.verdict.is_no
    assert demo.weak_entry.verdict.is_yes
    print("PASS criterion 2: the two multiplication paths take 1 vs 2 steps, "
          "strictly distinct yet weakly bisimilar")


def test_criterion_3_equation_preservation_split():
    builtins = [fm.builtin_theory(n) for n in ("monoid", "cmonoid", "semilattice")]
    builtins += [fm.convex(), fm.exceptions()]
    for th in builtins:
        entry = check_equation_preservation(th, par_lift_op, DEFAULT)
        for eq in th.equations:
            if not classify_equation(eq).drop:
                v = dict(entry.details)[eq.name]
                assert v.is_yes, (th.name, eq.name, "par")
        entry = check_equation_preservation(th, seq_lift_op, DEFAULT)
        for eq in th.equations:
            if classify_equation(eq).balanced:
                v = dict(entry.details)[eq.name]
                assert v.is_yes, (th.name, eq.name, "seq")
    sl = fm.semilattice()
    entry = check_equation_preservation(sl, seq_lift_op, DEFAULT)
    assert dict(entry.details)["idem"].is_no
    assert "2·step" in entry.witness.lhs_render
    assert "1·step" in entry.witness.rhs_render
    print("PASS criterion 3: non-drop equations survive par and balanced ones "
          "survive seq; semilattice idempotence fails under seq at 2 vs 1 steps")


def test_criterion_4_powerset_refutation_search():
    results = nogo.powerset_nogo_search()
    assert len(results) == 32
    assert len({cfg for cfg, _ in results}) == 32
    renders = []
    for cfg, trace in results:
        assert trace.verify(), cfg.describe()
        renders.append(trace.render())
    assert any("derived: step(x) = step(step(x))" in r for r in renders)
    print("PASS criterion 4: all 32 powerset candidates refuted by verified "
          "traces, including the step-versus-double-step clash; none survive")


def test_criterion_5_distribution_refutations_all_denominators_to_64():
    def least_n(p):
        n, w = 0, Fraction(1)
        while w > 1 - p:
            n += 1
            w /= 2
        return n

    count = 0
    for den in range(2, 65):
        for num in range(1, den):
            if math.gcd(num, den) != 1:
                continue
            p = Fraction(num, den)
            tr = nogo.distributions_nogo_replay(p, "Eq1")
            assert tr.verify()
            assert tr.clash.kind == "StepEqNow"
            assert tr.meta["n"] == least_n(p)
            tr2 = nogo.distributions_nogo_replay(p, "Eq2")
            assert tr2.verify()
            assert tr2.clash.kind == "StepEqNow"
            count += 1
    assert count == 1259
    print("PASS criterion 5: every mixing weight with denominator <= 64 is "
          "refuted with a verified now-versus-step clash and the exact delay "
          "exponent")


def test_criterion_6_idempotent_unary_candidate(idem_report):
    assert idem_report.all_yes
    assert not idem_report.has_unknown
    lhs, rhs = nogo.idempotent_unary_witness()
    assert step_count(lhs) == 1
    assert step_count(rhs) == 1
    print("PASS criterion 6: the step-absorbing candidate passes the full "
          "strict suite and both witness paths land after exactly one step")


def test_criterion_7_parallel_setoid_law(par_weak_reports):
    for name, r in par_weak_reports.items():
        assert r.all_yes, name
        assert not r.has_unknown, name

    vals = ("a", "b", "c")
    flat = [delay_n(s, v) for s in range(5) for v in vals] + [DIVERGE]
    rel = lambda u, v: u == v
    fuel = 64
    for d in flat:
        assert weak_bisim(d, step(d), rel, fuel).is_yes
        assert weak_bisim(d, d, rel, fuel).is_yes
    table = {(i, j): weak_bisim(x, y, rel, fuel)
             for (i, x), (j, y) in itertools.product(enumerate(flat), repeat=2)}
    for (i, j), v in table.items():
        assert v.kind == table[(j, i)].kind
    for i, j, k in itertools.product(range(len(flat)), repeat=3):
        if table[(i, j)].is_yes and table[(j, k)].is_yes:
            assert table[(i, k)].is_yes

    nested = [delay_n(s, d) for s in range(5) for d in flat] + [DIVERGE]
    inner = lambda u, v: weak_bisim(u, v, rel, fuel)
    for x, y in itertools.product(nested, repeat=2):
        if weak_bisim(x, y, inner, fuel).is_yes:
            assert weak_bisim(join(x), join(y), rel, fuel).is_yes
    print("PASS criterion 7: semilattice, cmonoid and magma pass everything "
          "under par/weak; step closure, equivalence and flattening "
          "compatibility hold over 3-element carriers at <= 4 steps per layer")


def test_criterion_8_other_monad_pairings():
    u = Universe()
    r = combos.combo_report("exceptions", u)
    assert r.all_yes
    r = combos.combo_report("reader", u)
    assert r.all_yes
    r = combos.combo_report("writer", u)
    assert r.all_yes
    assert writer_steps_preserved(combos.bool_and_monoid(), ("a", "b"), 3).is_yes
    r = combos.combo_report("selection", u)
    assert r.all_yes
    e = combos.yang_baxter_check(u)
    assert e.verdict.is_yes and e.cases > 0
    r = combos.combo_report("state", u)
    assert r.all_yes
    assert r.entry("StepAdditivity").cases > 0
    assert r.entry("GsdExtension").verdict.is_yes
    assert r.entry("GsdHomomorphism").verdict.is_yes
    r = combos.combo_report("continuation", u)
    assert r.entry("RetractIdentity").verdict.is_yes
    mu = r.entry("MuSquare")
    assert mu.verdict.is_no and mu.predicted and mu.witness is not None
    print("PASS criterion 8: exceptions, reader, writer, selection and state "
          "pairings pass (with step additivity, the delayed-state algebra "
          "block and the hexagon); the continuation retraction holds and its "
          "multiplication square fails with a witness")


def test_criterion_9_composite_monad_laws(seq_reports, par_weak_reports, idem_report):
    out = check_delay_monad_laws()
    assert out.verdict.is_yes
    passing = list(seq_reports.values()) + list(par_weak_reports.values()) + [idem_report]
    for r in passing:
        assert r.entry("MonadLaws").verdict.is_yes, (r.theory, r.mode)
    print("PASS criterion 9: the delay monad laws hold and every passing "
          "candidate yields a lawful composite monad at the default bounds")
