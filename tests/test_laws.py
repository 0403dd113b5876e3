"""Axiom-suite engine behaviour: verdict bookkeeping, witnesses, JSON,
bound monotonicity, and the composite monad-law checks."""

import collections
import contextlib
import dataclasses
import gc
import itertools
import json
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from delaydist import freemodel as fm
from delaydist import combos, laws, lifting
from delaydist.delay import (DIVERGE, NO, YES, Verdict, _fold, bind, conjoin, delay_n, now,
                             prepend_steps, render_delay, step_count, strong_equal, unknown)
from delaydist.laws import (AXIOM_ORDER, LawEntry, LawReport, UniverseBudgetError,
                            check_delay_monad_laws, guaranteed_configuration, render_report,
                            report_from_json_dict, run_suite)
from delaydist.laws import TestUniverse as Universe
from delaydist.lifting import DistLawCandidate, induced_candidate, par_lift_op, seq_lift_op
from delaydist.nogo import idempotent_unary_theory, step_absorbing_lift
from delaydist.theory import App, Equation, TheorySemanticError, Var, free_vars, parse_theory

from conftest import peel, reference_equation_preservation, reference_monad_laws_kleisli

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"
THEORY_FILES = sorted(THEORY_DIR.glob("*.th"))


def _suite(th, mode, **bounds):
    return run_suite(th, mode, Universe(**bounds))


class TestUniverseConfig:
    def test_defaults(self):
        u = Universe()
        assert (u.carrier_size, u.max_steps, u.max_depth) == (2, 3, 2)
        assert u.relation == "strict"

    @pytest.mark.parametrize("kwargs", [
        {"carrier_size": 0}, {"carrier_size": 5}, {"max_steps": -1},
        {"max_depth": -1}, {"relation": "fuzzy"}, {"fuel": 0},
        {"case_budget": 0},
    ])
    def test_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ValueError):
            Universe(**kwargs)

    def test_bounds_dict_keys(self):
        d = Universe().bounds_dict()
        assert set(d) == {"carrierSize", "maxSteps", "maxDepth", "fuel", "includeDiverge"}


class TestScanPolicy:
    """The first No wins; the first Unknown is kept, the scan goes on past
    it, and an Unknown entry carries no witness."""

    def _scan(self, verdicts):
        return laws._scan("X", range(len(verdicts)), lambda i: i, lambda i: -i,
                          lambda a, b: verdicts[a])

    def test_a_no_after_an_unknown_wins(self):
        e = self._scan([YES, unknown(3), YES, NO, unknown(1)])
        assert (e.axiom, e.verdict, e.cases) == ("X", NO, 4)
        assert (e.witness.input_render, e.witness.lhs_render, e.witness.rhs_render) == (
            "3", "3", "-3")
        assert e.witness.replay() == ("3", "-3")

    def test_unknowns_count_every_case_and_carry_no_witness(self):
        e = self._scan([YES, unknown(3), YES, unknown(1)])
        assert (e.verdict, e.cases, e.witness) == (unknown(3), 4, None)

    def test_all_yes(self):
        assert self._scan([YES, YES]) == LawEntry("X", YES, 2)

    @staticmethod
    def _reference_fold(verdicts):
        """The count through the first No, and the first Unknown, else Yes."""
        kinds = [v.kind for v in verdicts]
        if "no" in kinds:
            return NO, kinds.index("no") + 1
        unknowns = [v for v in verdicts if v.is_unknown]
        return (unknowns[0] if unknowns else YES), len(verdicts)

    # each verdict built afresh, so that no scan can tell them apart by identity
    FRESH_VERDICTS = st.lists(st.one_of(st.builds(lambda: Verdict("yes")),
                                        st.builds(unknown, st.integers(0, 5)),
                                        st.builds(lambda: Verdict("no"))), max_size=12)

    @settings(max_examples=300, deadline=None)
    @given(FRESH_VERDICTS)
    def test_the_fold_is_the_reference(self, verdicts):
        def stream():
            for v in verdicts:
                yield v
                if v.is_no:
                    raise AssertionError("pulled past the first No")

        expected = self._reference_fold(verdicts)
        got = _fold(stream())
        assert got == expected
        assert got[0] is expected[0] or not got[0].is_unknown  # the first Unknown itself
        assert conjoin(stream()) == expected[0]

    def test_the_fold_pulls_nothing_past_the_first_no(self):
        def stream():
            yield Verdict("yes")
            yield unknown(2)
            yield NO
            raise AssertionError("pulled past the first No")

        assert _fold(stream()) == (NO, 3)
        assert _fold(iter([])) == (YES, 0)

    def test_beck_scan_rejects_an_unknown_axiom(self):
        pack = laws.delay_pack("strict", 8)
        with pytest.raises(ValueError, match="unknown axiom 'Frob'"):
            laws.beck_scan("Frob", pack, pack, lambda d: d, [], None)

    def test_check_axiom_rejects_an_unknown_axiom(self):
        cand = induced_candidate(fm.semilattice(), "seq")
        with pytest.raises(ValueError, match="unknown axiom 'Frob'"):
            laws.check_axiom(cand, "Frob", Universe(carrier_size=1, max_steps=1, max_depth=1))


class _Switch:
    """Forces a No, and turns ``on`` when it does."""

    def __init__(self):
        self.on = False

    def no(self, *args, **kwargs):
        self.on = True
        return NO

    def diverge_once_on(self, real):
        """``real``, giving DIVERGE in place of its result once the switch is on."""
        return lambda *args, **kwargs: DIVERGE if self.on else real(*args, **kwargs)


_SMALL = Universe(carrier_size=1, max_steps=1, max_depth=1)


def _beck_witness(monkeypatch, switch, patch):
    th = fm.monoid()
    apply = induced_candidate(th, "seq").apply
    monkeypatch.setattr(laws, "strong_equal", switch.no)
    return laws.beck_scan("UnitS", laws.theory_pack(th), laws.delay_pack("strict", 64),
                          switch.diverge_once_on(apply) if patch else apply,
                          laws.delay_values(("a",), 1), None, str, fm.value_str)


def _kleisli_witness(law):
    values, elements = ("a", "b"), [now("a"), delay_n(1, "b")]
    k_pool = [{"a": now("b"), "b": delay_n(1, "a")}]
    # the cases before the law's first: left unit's, then right unit's
    forced_at = [0, len(k_pool) * len(values), len(k_pool) * len(values) + len(elements)][law]

    def witness(monkeypatch, switch, patch):
        cases = itertools.count()

        def compare(a, b):
            return switch.no() if next(cases) == forced_at else YES

        bind_fn = switch.diverge_once_on(bind) if patch else bind
        return laws.check_monad_laws_kleisli(now, bind_fn, elements, values, k_pool, compare,
                                             render_delay)

    return witness


def _equation_witness(lift_op, forced):
    def witness(monkeypatch, switch, patch):
        monkeypatch.setattr(laws, forced, switch.no)
        if patch:
            monkeypatch.setattr(laws, "lift_term", switch.diverge_once_on(laws.lift_term))
        return laws.check_equation_preservation(fm.monoid(), lift_op, _SMALL)

    return witness


def _retract_witness(axiom, route):
    def witness(monkeypatch, switch, patch):
        monkeypatch.setattr(combos, "strong_equal", switch.no)
        if patch:
            real = getattr(combos, route)
            # a selector-valued route: its selectors answer DIVERGE once on
            monkeypatch.setattr(combos, route, lambda *args: (
                (lambda p: DIVERGE) if switch.on else real(*args)))
        return combos.retract_check(_SMALL).entry(axiom)

    return witness


class TestWitnessCrossCheck:
    """A witness built with the sides its scan computed records those
    sides, and its replay computes them by its own route.  Each case
    forces a No and, in a second run, makes the replay route give
    DIVERGE once the No has fallen: the recorded sides stay those of the
    first run, and the replay follows the patched route on the sides
    that route computes."""

    CASES = {
        # name: (the witness's entry, as a function of (monkeypatch, switch,
        # patch)), the sides the patched route computes, the side render
        "beck": (_beck_witness, (True, False), fm.value_str),
        "kleisli-left-unit": (_kleisli_witness(0), (True, False), render_delay),
        "kleisli-right-unit": (_kleisli_witness(1), (True, False), render_delay),
        "kleisli-associativity": (_kleisli_witness(2), (True, True), render_delay),
        "equation-node-path": (_equation_witness(seq_lift_op, "strong_equal"), (True, True),
                               fm.value_str),
        "equation-table-path": (_equation_witness("seq", "strong_equal"),
                                (True, True), fm.value_str),
        "retract-identity": (_retract_witness("RetractIdentity", "psi"), (True, False),
                             combos._short),
        "mu-square": (_retract_witness("MuSquare", "mu_composite"), (False, True),
                      combos._short),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_recorded_sides_are_the_scans_and_the_replay_its_own(self, monkeypatch, name):
        entry_of, patched, render = self.CASES[name]
        with monkeypatch.context() as m:
            own = entry_of(m, _Switch(), False)
        assert own.verdict.is_no
        recorded = (own.witness.lhs_render, own.witness.rhs_render)
        assert own.witness.replay() == recorded

        with monkeypatch.context() as m:
            entry = entry_of(m, _Switch(), True)
            want = tuple(render(DIVERGE) if p else r for p, r in zip(patched, recorded))
            assert want != recorded
            assert (entry.witness.lhs_render, entry.witness.rhs_render) == recorded
            assert entry.witness.input_render == own.witness.input_render
            assert entry.witness.replay() == want


class TestReportShape:
    def test_axioms_in_canonical_order(self):
        r = _suite(fm.semilattice(), "seq", carrier_size=1, max_steps=1, max_depth=1)
        assert tuple(e.axiom for e in r.entries) == AXIOM_ORDER

    def test_seq_semilattice_fails_where_predicted(self):
        r = _suite(fm.semilattice(), "seq", carrier_size=2, max_steps=2, max_depth=2)
        eqp = r.entry("EquationPreservation")
        assert eqp.verdict.is_no
        assert eqp.predicted
        assert "idem" in (eqp.witness.note or "") or any(
            "idem" in d[0] for d in eqp.details)
        assert not r.unexpected_failures

    def test_seq_monoid_all_yes(self):
        r = _suite(fm.monoid(), "seq", carrier_size=2, max_steps=1, max_depth=1)
        assert r.all_yes
        assert guaranteed_configuration(fm.monoid(), induced_candidate(fm.monoid(), "seq").induced,
                                        r.relation)

    def test_witness_replays_bit_for_bit(self):
        r = _suite(fm.semilattice(), "seq", carrier_size=2, max_steps=2, max_depth=2)
        seen = 0
        for e in r.entries:
            if e.witness is not None and e.witness.replay is not None:
                lhs, rhs = e.witness.replay()
                assert (lhs, rhs) == (e.witness.lhs_render, e.witness.rhs_render)
                seen += 1
        assert seen >= 1

    def test_case_counts_positive(self):
        r = _suite(fm.monoid(), "seq", carrier_size=2, max_steps=1, max_depth=1)
        counts = r.case_counts
        assert set(counts) == set(AXIOM_ORDER)
        assert all(c > 0 for c in counts.values())

    def test_no_equations_means_no_preservation_cases(self):
        r = _suite(fm.magma(), "seq", carrier_size=2, max_steps=1, max_depth=1)
        assert r.entry("EquationPreservation").cases == 0
        assert r.entry("EquationPreservation").verdict.is_yes


class TestMonotonicity:
    # growing any bound must not flip a Yes to a No on configurations the
    # theory guarantees
    SETTINGS = [
        dict(carrier_size=1, max_steps=1, max_depth=1),
        dict(carrier_size=2, max_steps=2, max_depth=1),
        dict(carrier_size=2, max_steps=2, max_depth=2),
    ]

    def test_monoid_seq_strict_stays_yes(self):
        for kw in self.SETTINGS:
            assert _suite(fm.monoid(), "seq", **kw).all_yes, kw

    def test_semilattice_par_weak_stays_yes(self):
        for kw in self.SETTINGS:
            r = _suite(fm.semilattice(), "par", relation="weak", **kw)
            assert r.all_yes, kw
            assert guaranteed_configuration(
                fm.semilattice(), induced_candidate(fm.semilattice(), "par").induced, r.relation)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("th,mode,relation", [
        (fm.monoid(), "seq", "strict"),
        (fm.semilattice(), "seq", "strict"),
        (fm.semilattice(), "par", "weak"),
    ])
    def test_parse_emit_identity(self, th, mode, relation):
        r = _suite(th, mode, carrier_size=2, max_steps=2, max_depth=2,
                   relation=relation)
        back = report_from_json_dict(json.loads(r.to_json()))
        assert back == r

    def test_schema_keys(self):
        r = _suite(fm.monoid(), "seq", carrier_size=1, max_steps=1, max_depth=1)
        d = r.to_json_dict()
        assert set(d) >= {"theory", "mode", "relation", "bounds", "axioms",
                          "caseCounts", "elapsedMs"}
        for a in d["axioms"]:
            assert {"name", "verdict"} <= set(a)
        assert set(d["caseCounts"]) == set(AXIOM_ORDER)


class TestUnknowns:
    def test_tiny_fuel_yields_unknown(self):
        # with include_diverge the strict comparison cannot settle bottom
        # against bottom without enough fuel
        r = _suite(fm.monoid(), "seq", carrier_size=1, max_steps=2, max_depth=1,
                   include_diverge=True, fuel=1)
        assert r.has_unknown
        for e in r.entries:
            if e.verdict.is_unknown:
                assert e.verdict.fuel_spent >= 1
                d = e.to_json_dict()
                assert d["fuelSpent"] == e.verdict.fuel_spent

    def test_case_budget_enforced(self):
        with pytest.raises(UniverseBudgetError):
            _suite(fm.monoid(), "seq", carrier_size=2, max_steps=3, max_depth=2,
                   case_budget=5000)


class TestWeakSpotCheck:
    """The spot check of weak bisimilarity fails only on definite answers;
    each test stands in a relation on the sample's step counts."""

    @staticmethod
    def _validate(monkeypatch, answer):
        steps = lambda d: 9 if d is DIVERGE else laws.step_count(d)
        monkeypatch.setattr(laws, "weak_bisim", lambda d1, d2, rel, fuel: answer(steps(d1),
                                                                                  steps(d2)))
        laws._validate_weak_relation(fm.monoid(), Universe(carrier_size=1, relation="weak"))

    def test_unknowns_fail_nothing(self, monkeypatch):
        # Unknown on the diagonal and one way round, Yes the other way
        self._validate(monkeypatch, lambda a, b: unknown(1) if a <= b else YES)

    @pytest.mark.parametrize("answer,law", [
        (lambda a, b: NO, "reflexivity"),
        (lambda a, b: YES if a <= b else NO, "symmetry"),
        (lambda a, b: YES if abs(a - b) <= 1 else NO, "transitivity"),
    ], ids=["reflexivity", "symmetry", "transitivity"])
    def test_a_definite_failure_is_refused(self, monkeypatch, answer, law):
        with pytest.raises(AssertionError, match=f"failed {law} on a sample"):
            self._validate(monkeypatch, answer)


def _eager_universe(th, u, shape):
    """Each shape built as whole lists, the nested TTD layer by layer."""
    vals = laws.base_values(u.carrier_size)
    delays = laws.delay_values(vals, u.max_steps, u.include_diverge)
    if shape == "D":
        return delays
    if shape == "T":
        return fm.enumerate_elements(th, vals, u.max_depth)
    if shape == "TDD":
        return fm.enumerate_elements(
            th, laws.double_delay_values(vals, u.max_steps, u.include_diverge), u.max_depth)
    out, seen = [], set()
    for outer in range(u.max_depth + 1):
        inner = fm.enumerate_elements(th, delays, u.max_depth - outer)
        for m in fm.enumerate_elements(th, inner, outer):
            key = (m.kind, m.payload)
            if key not in seen:
                seen.add(key)
                out.append(m)
    return out


class TestStreamedUniverses:
    @pytest.mark.parametrize("shape", ["D", "T", "TDD", "TTD"])
    @pytest.mark.parametrize("th", [fm.monoid(), fm.semilattice(), fm.magma(), fm.cmonoid(),
                                    fm.convex(), fm.exceptions()],
                             ids=lambda th: th.name)
    def test_stream_order_matches_whole_lists(self, th, shape):
        u = Universe(carrier_size=2, max_steps=1, max_depth=2, include_diverge=True)
        want = _eager_universe(th, u, shape)
        assert list(laws.iter_universe(th, u, shape)) == want

    @pytest.mark.parametrize("shape,size", [("TDD", 22621), ("TTD", 6149)])
    def test_refutation_stops_building_inputs(self, monkeypatch, shape, size):
        th = fm.monoid()
        u = Universe(carrier_size=2, max_steps=2, max_depth=2)
        calls = [0]
        apply_op = fm.apply_op

        def counting(*args):
            calls[0] += 1
            return apply_op(*args)

        monkeypatch.setattr(fm, "apply_op", counting)
        head = list(itertools.islice(laws.iter_universe(th, u, shape), 50))
        lazy = calls[0]
        calls[0] = 0
        full = list(laws.iter_universe(th, u, shape))
        assert head == full[:50]
        assert len(full) == size
        assert lazy * 100 < calls[0]

    def test_early_no_inside_an_over_budget_universe_is_reported(self):
        # the MultT universe has 22,621 inputs; the scan's first No comes
        # at input 44, long before the stream crosses the budget
        cand = induced_candidate(fm.monoid(), "par")
        u = Universe(carrier_size=2, max_steps=2, max_depth=2, case_budget=1000)
        entry = laws.check_axiom(cand, "MultT", u)
        assert entry.verdict.is_no
        assert entry.cases == 44

    def test_over_budget_universe_list_raises(self):
        u = Universe(carrier_size=2, max_steps=2, max_depth=2, case_budget=1000)
        with pytest.raises(UniverseBudgetError, match="TDD universe"):
            list(laws.iter_universe(fm.monoid(), u, "TDD"))

    def test_naturality_budget_is_the_exact_pair_count(self):
        th = fm.monoid()
        u = Universe(carrier_size=2, max_steps=1, max_depth=1)
        n = sum(1 for _ in laws._naturality_inputs(th, u))
        assert sum(1 for _ in laws._naturality_inputs(
            th, Universe(carrier_size=2, max_steps=1, max_depth=1, case_budget=n))) == n
        with pytest.raises(UniverseBudgetError, match="naturality"):
            # raised by the call itself, before any pair is produced
            laws._naturality_inputs(
                th, Universe(carrier_size=2, max_steps=1, max_depth=1, case_budget=n - 1))


@contextlib.contextmanager
def _unmemoised(apply):
    yield apply


@pytest.fixture
def apply_calls(monkeypatch):
    """Inputs handed to ``DistLawCandidate.apply``, counted by element."""
    calls = collections.Counter()
    apply = DistLawCandidate.apply

    def counting(self, m):
        calls[m] += 1
        return apply(self, m)

    monkeypatch.setattr(DistLawCandidate, "apply", counting)
    return calls


# the benchmark's canonical suites: every verdict yes, full scans
CANONICAL_SUITES = [
    ("magma", "seq", "strict", False),
    ("monoid", "seq", "strict", False),
    ("cmonoid", "seq", "strict", False),
    ("semilattice", "par", "weak", True),
    ("cmonoid", "par", "weak", False),
    ("magma", "par", "weak", False),
]


def _distributions(axiom, m):
    """How often one memoised check distributes the element ``m``: once,
    except under MultT, whose right side applies the candidate to its
    input directly.  An input whose values all diverge, or that has none
    (a constant), is also one of the left side's inputs there, so it is
    distributed twice."""
    twice = axiom == "MultT" and all(v is DIVERGE for v in fm.values_of(m))
    return 2 if twice else 1


def _memoising_candidate(th, axiom):
    """A seq candidate of ``th`` whose scan of ``axiom`` goes through the
    memo: MultT reads an induced candidate off two tables, so there the
    same lifting comes as a custom candidate."""
    if axiom == "MultT":
        return lifting.custom_candidate(th, "custom:seq", seq_lift_op)
    return induced_candidate(th, "seq")


class TestMemoisedDistribution:
    """Within one check the candidate is memoised by input element; the
    memo never outlives the check."""

    U = Universe(carrier_size=1, max_steps=2, max_depth=2)
    MEMOISED = ("UnitS", "UnitT", "MultS", "MultT", "Naturality", "MonadLaws")

    @pytest.mark.parametrize("axiom", MEMOISED)
    def test_each_distinct_input_distributes_once(self, apply_calls, monkeypatch, axiom):
        cand = _memoising_candidate(fm.magma(), axiom)
        memo_entry = laws.check_axiom(cand, axiom, self.U)
        # the magma has no constants, so no input is distributed twice
        assert apply_calls and set(apply_calls.values()) == {1}
        distinct = dict(apply_calls)
        apply_calls.clear()
        monkeypatch.setattr(laws, "_memoised", _unmemoised)
        assert laws.check_axiom(cand, axiom, self.U) == memo_entry
        # the unmemoised scan asks for the same inputs, repeats included
        assert set(apply_calls) == set(distinct)
        if axiom in ("MultS", "MultT", "MonadLaws"):
            assert sum(apply_calls.values()) > len(distinct)

    @pytest.mark.parametrize("axiom", MEMOISED)
    def test_no_cache_survives_a_check(self, apply_calls, axiom):
        cand = _memoising_candidate(fm.monoid(), axiom)
        first = laws.check_axiom(cand, axiom, self.U)
        once = sum(apply_calls.values())
        assert laws.check_axiom(cand, axiom, self.U) == first
        assert sum(apply_calls.values()) == 2 * once
        assert apply_calls == {m: 2 * _distributions(axiom, m) for m in apply_calls}

    @pytest.mark.parametrize("diverge", [False, True])
    def test_multt_distributes_each_input_once_and_a_constant_twice(self, apply_calls,
                                                                    monkeypatch, diverge):
        cand = _memoising_candidate(fm.monoid(), "MultT")
        u = dataclasses.replace(self.U, include_diverge=diverge)
        memo_entry = laws.check_axiom(cand, "MultT", u)
        th = cand.theory
        assert apply_calls[fm.apply_op(th, "unit", [])] == 2
        assert apply_calls[fm.unit(th, DIVERGE)] == (2 if diverge else 0)
        assert apply_calls == {m: _distributions("MultT", m) for m in apply_calls}
        distinct = dict(apply_calls)
        apply_calls.clear()
        monkeypatch.setattr(laws, "_memoised", _unmemoised)
        assert laws.check_axiom(cand, "MultT", u) == memo_entry
        assert set(apply_calls) == set(distinct)
        assert sum(apply_calls.values()) > sum(distinct.values())

    def test_replay_recomputes_from_the_candidate(self, apply_calls):
        cand = induced_candidate(fm.monoid(), "par")
        entry = laws.check_axiom(cand, "MultT", Universe(carrier_size=2, max_steps=2,
                                                         max_depth=2))
        assert entry.verdict.is_no
        w = entry.witness
        for _ in range(2):
            before = sum(apply_calls.values())
            assert w.replay() == (w.lhs_render, w.rhs_render)
            assert sum(apply_calls.values()) > before

    def test_a_raising_input_is_not_cached(self):
        th = fm.monoid()
        bad, good = fm.unit(th, "not a delay"), fm.unit(th, laws.delay_n(1, "a"))
        calls = collections.Counter()
        cand = induced_candidate(th, "seq")

        def apply(m):
            calls[m] += 1
            return cand.apply(m)

        with laws._memoised(apply) as z:
            for _ in range(2):
                with pytest.raises(TypeError, match="must hold Delay values"):
                    z(bad)
                assert z(good) == laws.delay_n(1, fm.unit(th, "a"))
        assert calls == {bad: 2, good: 1}

    @pytest.mark.parametrize("name,mode,relation,diverge", CANONICAL_SUITES)
    def test_canonical_suites_match_the_unmemoised_scan(self, monkeypatch, name, mode,
                                                        relation, diverge):
        th = fm.builtin_theory(name)
        u = Universe(carrier_size=1, max_steps=2, max_depth=2, relation=relation,
                     include_diverge=diverge)
        memo = run_suite(th, mode, u)
        monkeypatch.setattr(laws, "_memoised", _unmemoised)
        plain = run_suite(th, mode, u)
        assert memo.all_yes
        assert memo.entries == plain.entries

    @pytest.mark.parametrize("name,mode,relation", [
        ("semilattice", "seq", "strict"), ("monoid", "par", "strict"),
        ("magma", "par", "strict"),
    ])
    def test_refutations_match_the_unmemoised_scan(self, monkeypatch, name, mode, relation):
        th = fm.builtin_theory(name)
        u = Universe(carrier_size=2, max_steps=2, max_depth=1, relation=relation)
        memo = run_suite(th, mode, u)
        monkeypatch.setattr(laws, "_memoised", _unmemoised)
        plain = run_suite(th, mode, u)
        assert any(e.verdict.is_no and e.witness is not None for e in memo.entries)
        assert memo.entries == plain.entries  # witnesses compare by their renders


def _counting_scan(scan, calls):
    """``scan`` with its ``bind_fn`` counted; each call appends a record of
    its universe sizes and bind count to ``calls``."""

    def counted_scan(unit_fn, bind_fn, elements, value_set, k_pool, *rest):
        call = {"E": len(elements), "V": len(value_set), "K": len(k_pool), "binds": 0}
        calls.append(call)

        def counted(m, k):
            call["binds"] += 1
            return bind_fn(m, k)

        return scan(unit_fn, counted, elements, value_set, k_pool, *rest)

    return counted_scan


def _steps_bind(steps):
    """A bind on materialised delays whose result takes ``steps(n, p)``
    steps, with n the steps of the input and p those of the continuation's
    result; ``n + p`` is the delay monad's own bind."""

    def bnd(d, k):
        n, end = peel(d)
        if end is DIVERGE:
            return DIVERGE
        p, out = peel(k(end.value))
        if out is DIVERGE:
            return DIVERGE
        return delay_n(steps(n, p), out.value)

    return bnd


# the scan's first No for each of these is at the law it is named after
BROKEN_BINDS = {
    "left unit": _steps_bind(lambda n, p: n + p + 1),
    "right unit": _steps_bind(lambda n, p: 2 * n + p),
    "associativity": _steps_bind(lambda n, p: abs(n - p)),
}


def _generic_multt(cand, u):
    """MultT for ``cand`` by the generic scan: both sides built for every
    input and compared, the candidate memoised as ``check_axiom`` does."""
    th = cand.theory
    S, T = laws.theory_pack(th), laws.delay_pack(u.relation, u.derived_fuel(th))
    with laws._memoised(cand.apply) as z:
        return laws.beck_scan("MultT", S, T, z, laws.iter_universe(th, u, "TDD"), None,
                              fm.value_str, fm.value_str, cand.apply)


@pytest.fixture
def streams(monkeypatch):
    """The verdict stream of every scan, as far as ``_fold`` pulls it."""
    out = []

    def recording(verdicts):
        seen = []
        out.append(seen)

        def tee():
            for v in verdicts:
                seen.append(v)
                yield v

        return _fold(tee())

    monkeypatch.setattr(laws, "_fold", recording)
    return out


def _scrambled(a, b):
    """A value comparison that answers Yes or Unknown, with a fuel spent
    that differs from pair to pair of values: a scan that reads one
    pair's verdict for another's shows in its verdict stream."""
    h = zlib.crc32(f"{a}|{b}".encode())
    return YES if h % 3 == 0 else unknown(h % 1000)


# a carrier that keeps every value, one theory each
KEEPING = ("magma", "monoid", "cmonoid", "exceptions")
# the universes of the table-against-scan test, and its value comparison
# when not model_equal
MULTT_SCANS = {
    "c2s2d1": (dict(carrier_size=2, max_steps=2, max_depth=1), None),
    "c2s2d1-diverge": (dict(carrier_size=2, max_steps=2, max_depth=1, include_diverge=True),
                       None),
    "c1s2d2": (dict(carrier_size=1, max_steps=2, max_depth=2), None),
    "c1s2d2-diverge": (dict(carrier_size=1, max_steps=2, max_depth=2, include_diverge=True),
                       None),
    "c1s2d2-diverge-fuel1": (dict(carrier_size=1, max_steps=2, max_depth=2,
                                  include_diverge=True, fuel=1), None),
    "c2s1d2-diverge-scrambled": (dict(carrier_size=2, max_steps=1, max_depth=2,
                                      include_diverge=True), _scrambled),
}


class TestMultTTables:
    """MultT for an induced candidate on a carrier that keeps every value
    is read off a step table and a value table, and agrees with the
    generic scan case by case: verdict stream, entry, witness and
    replay."""

    @pytest.mark.parametrize("scan", MULTT_SCANS)
    @pytest.mark.parametrize("relation", ["strict", "weak"])
    @pytest.mark.parametrize("mode", ["seq", "par"])
    @pytest.mark.parametrize("name", KEEPING)
    def test_matches_the_generic_scan(self, monkeypatch, streams, name, mode, relation, scan):
        bounds, compare = MULTT_SCANS[scan]
        if compare is not None:
            # a value table that shares a verdict between two values shows
            monkeypatch.setattr(fm, "model_equal", compare)
        th = fm.builtin_theory(name)
        u = Universe(relation=relation, **bounds)
        cand = induced_candidate(th, mode)
        table = laws.check_axiom(cand, "MultT", u)
        generic = _generic_multt(cand, u)
        assert len(streams) == 2 and streams[0] == streams[1]
        assert table == generic  # verdict, cases, and witness renders
        if table.verdict.is_no:
            assert (table.witness.replay() == generic.witness.replay()
                    == (table.witness.lhs_render, table.witness.rhs_render))
        if u.fuel is not None:
            assert unknown(1) in streams[0]
        elif compare is not None:
            assert len({v for v in streams[0] if v.is_unknown}) > 1
        else:
            # par miscounts a binary operation's steps up to strict equality
            wide = any(op.arity >= 2 for op in th.signature.ops)
            assert table.verdict.is_no == (mode == "par" and relation == "strict" and wide)

    def test_the_candidate_distributes_only_on_a_value_table_miss(self, apply_calls):
        th = fm.magma()
        u = Universe(carrier_size=2, max_steps=2, max_depth=2)
        entry = laws.check_axiom(induced_candidate(th, "seq"), "MultT", u)
        assert entry.verdict.is_yes and entry.cases == 24_348
        ends = {fm.fmap(laws._end_of_both, m) for m in laws.iter_universe(th, u, "TDD")}
        # each side at the first input of each value: z, then z twice
        assert sum(apply_calls.values()) == 3 * len(ends) < entry.cases

    @pytest.mark.parametrize("name", KEEPING)
    def test_carriers_that_keep_every_value_read_the_tables(self, monkeypatch, name):
        th = fm.builtin_theory(name)
        read = []
        tables = laws._multt_tables
        monkeypatch.setattr(laws, "_multt_tables", lambda *a: read.append(a) or tables(*a))
        for mode in ("seq", "par"):
            laws.check_axiom(induced_candidate(th, mode), "MultT", Universe(1, 1, 1))
        assert len(read) == 2

    @pytest.mark.parametrize("name", sorted(conftest.CARRIERS))
    def test_merging_carriers_and_custom_candidates_keep_the_generic_scan(self, monkeypatch,
                                                                          name):
        th = conftest.CARRIERS[name]

        def refuse(*args):
            raise AssertionError("read MultT off the tables")

        monkeypatch.setattr(laws, "_multt_tables", refuse)
        u = Universe(1, 1, 1)
        cands = [lifting.custom_candidate(th, "custom:seq", seq_lift_op)]
        if name in ("finset", "dist", "quotient", "quotient-complete"):
            cands += [induced_candidate(th, "seq"), induced_candidate(th, "par")]
        for cand in cands:
            assert laws.check_axiom(cand, "MultT", u).cases > 0


class TestScanFootprint:
    """A scan frees what it builds by reference counting, and MultT keeps
    no per-input memory."""

    def test_a_scan_leaves_no_cyclic_garbage(self):
        text = (THEORY_DIR / "idempotent_unary.th").read_text(encoding="utf-8")
        gc.collect()
        gc.disable()
        try:
            # the theories stay referenced to the end: each keeps its
            # carrier, which refers back to it, and that cycle is freed
            # with the theory, not left by a scan
            theories = [fm.builtin_theory(name)
                        for name in ("magma", "monoid", "cmonoid", "semilattice")]
            idem = parse_theory(text)
            absorbing = lifting.custom_candidate(idem, "custom:step-absorbing",
                                                 step_absorbing_lift)
            for th in theories:
                for mode, relation in (("seq", "strict"), ("par", "weak")):
                    report = _suite(th, mode, carrier_size=1, max_steps=2, max_depth=2,
                                    relation=relation)
                    assert not report.unexpected_failures
            assert _suite(idem, absorbing, carrier_size=1, max_steps=1, max_depth=2).all_yes
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_multt_memory_peak(self):
        cand = induced_candidate(fm.magma(), "seq")
        u = Universe(carrier_size=2, max_steps=2, max_depth=2)
        tracemalloc.start()
        try:
            entry = laws.check_axiom(cand, "MultT", u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert entry.verdict.is_yes and entry.cases == 24_348
        assert peak < 8 * 2 ** 20


class TestSharedKleisliScan:
    """The monad-law scan binds once per (m, k) and once per (k, h, value)
    and still agrees, case by case, with computing every side afresh."""

    # (steps, values) of the benchmark's delay-law items, and composite
    # MonadLaws of monoid seq at c1s2d2: bind_fn calls shared and afresh
    PINNED_BINDS = [
        ("delay s2v2", lambda: check_delay_monad_laws(2, ("a", "b")), 38_864, 64_932),
        ("delay s3v2", lambda: check_delay_monad_laws(3, ("a", "b")), 48_568, 84_142),
        ("monoid seq c1s2d2",
         lambda: laws.check_axiom(induced_candidate(fm.monoid(), "seq"), "MonadLaws",
                                  Universe(carrier_size=1, max_steps=2, max_depth=2)),
         753, 1_311),
    ]

    @pytest.mark.parametrize("name,run,shared,plain", PINNED_BINDS,
                             ids=[p[0] for p in PINNED_BINDS])
    def test_bind_counts(self, monkeypatch, name, run, shared, plain):
        calls = []
        monkeypatch.setattr(laws, "check_monad_laws_kleisli",
                            _counting_scan(laws.check_monad_laws_kleisli, calls))
        out = run()
        (c,) = calls
        E, K, V = c["E"], c["K"], c["V"]
        units = K * V + E
        associativity = E * K + 2 * E * K * K
        assert units + associativity <= c["binds"] <= units + associativity + K * K * V
        assert c["binds"] == shared
        monkeypatch.setattr(laws, "check_monad_laws_kleisli",
                            _counting_scan(reference_monad_laws_kleisli, calls))
        assert run() == out
        assert calls[1]["binds"] == plain

    # composite MonadLaws: extensions computed, one per (continuation,
    # element) the scan reaches, against the binds of PINNED_BINDS
    PINNED_EXTENSIONS = [
        ("monoid seq c1s2d2", fm.monoid, Universe(carrier_size=1, max_steps=2, max_depth=2),
         135),
        ("leftzero seq c1s2d1", lambda: parse_theory(THEORY_DIR.joinpath("leftzero.th")
                                                     .read_text(encoding="utf-8")),
         Universe(carrier_size=1, max_steps=2, max_depth=1), 190),
    ]

    @pytest.mark.parametrize("name,theory,u,extensions", PINNED_EXTENSIONS,
                             ids=[p[0] for p in PINNED_EXTENSIONS])
    def test_extension_counts(self, monkeypatch, name, theory, u, extensions):
        cand = induced_candidate(theory(), "seq")
        calls = collections.Counter()
        extension = laws.composite_extension

        def counting(z):
            ext = extension(z)

            def counted(kt):
                calls[kt] += 1
                return ext(kt)

            return counted

        monkeypatch.setattr(laws, "composite_extension", counting)
        entry = laws.check_axiom(cand, "MonadLaws", u)
        assert entry.verdict.is_yes
        assert sum(calls.values()) == extensions
        assert set(calls.values()) == {1}

    def test_a_raising_extension_is_not_tabled(self):
        th = fm.monoid()
        cand = induced_candidate(th, "seq")
        ts = fm.enumerate_elements(th, ("a", "b"), 1)
        ks = [{"a": delay_n(1, ts[0]), "b": now(ts[1])}, {"a": now(ts[1]), "b": now(ts[0])}]
        poison = fm.fmap(ks[1].__getitem__, ts[4])  # a·b under ks[1]

        def z(mapped):
            if mapped == poison:
                raise RuntimeError("no distribution here")
            return cand.apply(mapped)

        plain = laws.composite_bind(laws.composite_extension(cand.apply))
        calls = collections.Counter()
        with laws._memoised(z) as zm:
            extension = laws.composite_extension(zm)

            def counted(kt):
                calls[ks.index(kt[0].__self__), kt[1]] += 1
                return extension(kt)

            with laws._memoised(counted) as ext:
                bnd = laws.composite_bind(ext)
                for _ in range(2):
                    for m in [delay_n(s, t) for s in (0, 1) for t in ts]:
                        for k in ks:
                            if k is ks[1] and m.value == ts[4]:
                                with pytest.raises(RuntimeError, match="no distribution"):
                                    bnd(m, k.__getitem__)
                            else:
                                assert bnd(m, k.__getitem__) == plain(m, k.__getitem__)
        bad = (1, ts[4])
        assert calls.pop(bad) == 4  # asked at two step counts, twice each
        assert len(calls) == 2 * len(ts) - 1 and set(calls.values()) == {1}

    @pytest.mark.parametrize("steps", [2, 3])
    @pytest.mark.parametrize("fuel", [64, 1])
    def test_delay_laws_match_the_reference(self, use_reference_kleisli, steps, fuel):
        out = check_delay_monad_laws(steps, ("a", "b"), fuel)
        assert out.verdict.kind == ("yes" if fuel == 64 else "unknown")
        use_reference_kleisli()
        assert check_delay_monad_laws(steps, ("a", "b"), fuel) == out

    @pytest.mark.parametrize("law", list(BROKEN_BINDS))
    def test_first_no_matches_the_reference(self, monkeypatch, use_reference_kleisli, law):
        monkeypatch.setattr(laws, "bind", BROKEN_BINDS[law])
        out = check_delay_monad_laws(2, ("a", "b"))
        assert out.verdict.is_no
        w = out.witness
        assert w.input_render.startswith(law)
        assert w.replay() == (w.lhs_render, w.rhs_render)
        use_reference_kleisli()
        assert check_delay_monad_laws(2, ("a", "b")) == out

    @pytest.mark.parametrize("name,mode,relation,diverge", CANONICAL_SUITES)
    def test_canonical_monad_laws_match_the_reference(self, use_reference_kleisli, name,
                                                      mode, relation, diverge):
        cand = induced_candidate(fm.builtin_theory(name), mode)
        u = Universe(carrier_size=1, max_steps=2, max_depth=2, relation=relation,
                     include_diverge=diverge)
        entry = laws.check_axiom(cand, "MonadLaws", u)
        assert entry.verdict.is_yes
        use_reference_kleisli()
        assert laws.check_axiom(cand, "MonadLaws", u) == entry

    def test_refuted_monad_laws_match_the_reference(self, apply_calls,
                                                    use_reference_kleisli):
        cand = induced_candidate(fm.semilattice(), "seq")
        u = Universe(carrier_size=2, max_steps=2, max_depth=2)
        entry = laws.check_axiom(cand, "MonadLaws", u)
        assert entry.verdict.is_no
        w = entry.witness
        before = sum(apply_calls.values())
        assert w.replay() == (w.lhs_render, w.rhs_render)
        assert sum(apply_calls.values()) > before  # recomputed from the candidate
        use_reference_kleisli()
        assert laws.check_axiom(cand, "MonadLaws", u) == entry

    def test_first_no_past_the_first_k_row_matches_the_reference(self):
        # a bind that drops the input's steps when the continuation ends in
        # "c": the unit laws hold, and associativity fails only where k
        # sends an input with steps to "c" and h sends "c" elsewhere, which
        # here is k = h = k_pool[1] at m = step(a)
        def bnd(d, k):
            n, end = peel(d)
            if end is DIVERGE:
                return DIVERGE
            out = k(end.value)
            return out if peel(out)[1] == now("c") else prepend_steps(n, out)

        k_pool = [{v: now(v) for v in "abc"}, {"a": now("c"), "b": delay_n(1, "b"), "c": now("a")}]
        elements = [now("a"), delay_n(1, "a"), delay_n(2, "b")]
        args = (now, bnd, elements, ("a", "b", "c"), k_pool, lambda a, b: strong_equal(a, b, 8))
        entry = laws.check_monad_laws_kleisli(*args)
        assert entry.verdict.is_no
        # 6 left unit, 3 right unit, 4 at m = now(a), then k_0's row and the
        # second case of k_1's row at m = step(a)
        assert entry.cases == 6 + 3 + 4 + 2 + 2
        assert entry.witness.input_render == "associativity at 1·step ▸ a"
        assert (entry.witness.lhs_render, entry.witness.rhs_render) == ("0·step ▸ a",
                                                                       "1·step ▸ a")
        assert entry.witness.replay() == (entry.witness.lhs_render, entry.witness.rhs_render)
        assert reference_monad_laws_kleisli(*args) == entry

    def test_a_raising_bind_is_not_tabled(self):
        k = {"a": laws.delay_n(1, "a"), "b": laws.delay_n(2, "b")}
        h = {"a": laws.now("x"), "b": laws.now("y")}
        calls = collections.Counter()

        def bnd(d, kk):
            calls[d] += 1
            if d == k["a"]:
                raise RuntimeError("no bind at a")
            return laws.bind(d, kk)

        kh = laws._tabled_continuation(bnd, k, h)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="no bind at a"):
                kh("a")
            assert kh("b") == laws.delay_n(2, "y")
        assert calls == {k["a"]: 2, k["b"]: 1}

    def test_equation_preservation_witness_replays(self):
        cand = induced_candidate(fm.semilattice(), "seq")
        entry = laws.check_axiom(cand, "EquationPreservation",
                                 Universe(carrier_size=2, max_steps=3, max_depth=2))
        assert entry.verdict.is_no
        w = entry.witness
        assert w.replay is not None
        assert w.replay() == (w.lhs_render, w.rhs_render)


# every built-in theory and theory file, by the name a test id shows
EQUATION_THEORIES = {
    **{name: (lambda name=name: fm.builtin_theory(name))
       for name in ("magma", "monoid", "cmonoid", "semilattice", "convex", "convex(1/3)",
                    "exceptions")},
    "idempotent-unary": idempotent_unary_theory,
    **{p.name: (lambda p=p: parse_theory(p.read_text(encoding="utf-8"))) for p in THEORY_FILES},
}


def _assert_same_entry(got, want):
    """Same verdict, cases, details, witness renders and replays."""
    assert got == want  # a witness compares by its renders and note
    assert got.details == want.details
    if want.witness is not None:
        g, w = got.witness, want.witness
        assert g.to_json_dict() == w.to_json_dict()
        assert g.replay() == w.replay() == (w.lhs_render, w.rhs_render)


# the composite monad-law checks of the quotient-rewrite theories: each
# under seq, under par up to weak bisimilarity (leftzero with divergence,
# as the benchmark runs it), and under the step-absorbing lifting where the
# signature is that lifting's
QUOTIENT_MONAD_LAWS = [
    (name, mode, relation, name == "leftzero.th" and mode == "par")
    for name in ("band.th", "leftzero.th", "idempotent_unary.th", "idempotent-unary")
    for mode, relation in (("seq", "strict"), ("par", "weak"),
                           ("custom:step-absorbing", "strict"))
    if mode != "custom:step-absorbing" or name.startswith("idempotent")
]


class TestCompositeMonadLawsOffCanonicalCarriers:
    """On the quotient carrier and under a custom lifting, the composite
    monad laws with their memos give the entry of the reference scan and
    of the scan that memoises nothing."""

    @pytest.mark.parametrize("bounds", [(1, 1, 2), (1, 2, 1)], ids=["c1s1d2", "c1s2d1"])
    @pytest.mark.parametrize("name,mode,relation,diverge", QUOTIENT_MONAD_LAWS,
                             ids=["-".join(c[:3]) for c in QUOTIENT_MONAD_LAWS])
    def test_matches_the_reference_and_the_unmemoised_scan(
            self, monkeypatch, use_reference_kleisli, name, mode, relation, diverge, bounds):
        th = EQUATION_THEORIES[name]()
        if mode == "custom:step-absorbing":
            cand = lifting.custom_candidate(th, mode, step_absorbing_lift)
        else:
            cand = induced_candidate(th, mode)
        c, s, d = bounds
        u = Universe(carrier_size=c, max_steps=s, max_depth=d, relation=relation,
                     include_diverge=diverge)
        entry = laws.check_axiom(cand, "MonadLaws", u)
        with monkeypatch.context() as patch:
            patch.setattr(laws, "_memoised", _unmemoised)
            _assert_same_entry(laws.check_axiom(cand, "MonadLaws", u), entry)
        use_reference_kleisli()
        _assert_same_entry(laws.check_axiom(cand, "MonadLaws", u), entry)


def _with_equations(th, *equations):
    return dataclasses.replace(th, equations=tuple(equations))


class TestInducedEquationPreservation:
    """Under an induced lifting, equation preservation counts each side's
    steps from its variables and evaluates its value once per value
    assignment; it agrees, case by case, with lifting both sides node by
    node."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(EQUATION_THEORIES)), mode=st.sampled_from(["seq", "par"]),
           relation=st.sampled_from(["strict", "weak"]), size=st.integers(1, 2),
           steps=st.integers(0, 3), depth=st.integers(0, 2), diverge=st.booleans(),
           fuel=st.sampled_from([None, 1, 2, 3]))
    def test_matches_the_per_node_scan(self, name, mode, relation, size, steps, depth,
                                       diverge, fuel):
        th = EQUATION_THEORIES[name]()
        u = Universe(carrier_size=size, max_steps=steps, max_depth=depth, relation=relation,
                     include_diverge=diverge, fuel=fuel)
        entry = laws.check_axiom(induced_candidate(th, mode), "EquationPreservation", u)
        _assert_same_entry(entry, reference_equation_preservation(th, mode, u))

    @pytest.mark.parametrize("name", sorted(EQUATION_THEORIES))
    @pytest.mark.parametrize("mode", ["seq", "par"])
    @pytest.mark.parametrize("relation", ["strict", "weak"])
    def test_matches_the_per_node_scan_on_every_theory(self, name, mode, relation):
        th = EQUATION_THEORIES[name]()
        for diverge, fuel in ((False, None), (True, 1)):
            u = Universe(carrier_size=2, max_steps=2, max_depth=1, relation=relation,
                         include_diverge=diverge, fuel=fuel)
            _assert_same_entry(laws.check_equation_preservation(th, mode, u),
                               reference_equation_preservation(th, mode, u))

    @pytest.mark.parametrize("name", sorted(EQUATION_THEORIES))
    @pytest.mark.parametrize("mode", ["seq", "par"])
    def test_each_side_is_the_lifted_term(self, name, mode):
        th = EQUATION_THEORIES[name]()
        models = fm.enumerate_elements(th, laws.base_values(2), 1)
        pool = [delay_n(n, m) for n in range(3) for m in models] + [DIVERGE]
        # each pool delay's step count and value key, as the check reads
        # them off the pool
        steps = [n for n in range(3) for _ in models] + [None]
        keys = [j for _ in range(3) for j in range(len(models))] + [None]
        for eq in th.equations:
            for t in (eq.lhs, eq.rhs):
                side = laws._InducedSide(t, eq.context, mode, th, models)
                for idx in itertools.product(range(len(pool)), repeat=len(eq.context)):
                    env = {k: pool[i] for k, i in zip(eq.context, idx)}
                    case_steps = tuple(steps[i] for i in idx)
                    case_keys = tuple(keys[i] for i in idx)
                    assert side.delay(case_steps, case_keys) == lifting.lift_term(t, env, mode,
                                                                                  th)

    def test_known_refutations_keep_their_witnesses(self):
        # the scans of the documented Nos, each with its first No
        for name, mode, relation in (("semilattice", "seq", "strict"),
                                     ("band.th", "seq", "strict"),
                                     ("leftzero.th", "par", "weak"),
                                     ("idempotent-unary", "seq", "strict")):
            th = EQUATION_THEORIES[name]()
            u = Universe(carrier_size=2, max_steps=3, max_depth=2, relation=relation,
                         include_diverge=True)
            entry = laws.check_equation_preservation(th, mode, u)
            assert entry.verdict.is_no and entry.witness is not None
            _assert_same_entry(entry, reference_equation_preservation(th, mode, u))

    @pytest.mark.parametrize("mode", ["seq", "par"])
    def test_no_lifted_operation_and_one_evaluation_per_assignment(self, monkeypatch, mode):
        lifted = collections.Counter()
        for lift in (seq_lift_op, par_lift_op):
            def counting(op, args, th, lift=lift):
                lifted[lift.__name__] += 1
                return lift(op, args, th)

            monkeypatch.setattr(lifting, lift.__name__, counting)
        evaluations = collections.Counter()
        depth = [0]
        eval_term = fm.eval_term

        def counting_eval(th, t, env):
            if depth[0] == 0:  # a side, not one of its subterms
                evaluations[id(t), tuple(sorted(env.items()))] += 1
            depth[0] += 1
            try:
                return eval_term(th, t, env)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(fm, "eval_term", counting_eval)
        semilattice = fm.semilattice()
        u = Universe(carrier_size=2, max_steps=3, max_depth=1, include_diverge=True)
        entries = []
        # one equation at a time, since equations may share a side's term
        for eq in semilattice.equations:
            th = _with_equations(semilattice, eq)
            evaluations.clear()
            # built after the patch, as under a tracer: its lift_op is the wrapper
            entry = laws.check_axiom(induced_candidate(th, mode), "EquationPreservation", u)
            assert not lifted
            assert evaluations and set(evaluations.values()) == {1}
            # the pool holds four values: ∅, {a}, {b} and {a, b}
            bound = sum(4 ** len(free_vars(t)) for t in (eq.lhs, eq.rhs))
            assert len(evaluations) <= bound < 2 * entry.cases
            entries.append((th, entry))
        monkeypatch.undo()
        for th, entry in entries:
            _assert_same_entry(entry, reference_equation_preservation(th, mode, u))

    def test_a_value_unknown_and_a_fuel_unknown_keep_their_order(self, monkeypatch):
        # held to joinability in zero steps, the quotient carrier's
        # model_equal says unknown() of any two different terms, so under
        # par idem's sides are unknown() from the first case while comm's
        # sides have equal values and only run out of fuel
        joinable = fm._joinable
        monkeypatch.setattr(fm, "_joinable", lambda c, p1, p2, bound: joinable(c, p1, p2, 0))
        comm = "eq comm : mul(x, y) = mul(y, x)\n"
        idem = "eq idem : mul(x, x) = x\n"
        u = Universe(carrier_size=1, max_steps=2, max_depth=0, include_diverge=True, fuel=1)
        for first, second in ((comm, idem), (idem, comm)):
            th = parse_theory("theory mixed\nop mul : 2\n" + first + second)
            entry = laws.check_equation_preservation(th, "par", u)
            assert dict(entry.details) == {"comm": unknown(1), "idem": unknown(0)}
            assert entry.verdict == entry.details[0][1]
            _assert_same_entry(entry, reference_equation_preservation(th, "par", u))
        # and on the theory files, whose first cases already differ in
        # value, with fuel Unknowns further on in their scans
        seen = set()
        for p in THEORY_FILES:
            th = parse_theory(p.read_text(encoding="utf-8"))
            for mode, relation, fuel in itertools.product(("seq", "par"), ("strict", "weak"),
                                                          (None, 1, 2)):
                u = Universe(carrier_size=2, max_steps=3, max_depth=1, relation=relation,
                             include_diverge=True, fuel=fuel)
                entry = laws.check_equation_preservation(th, mode, u)
                _assert_same_entry(entry, reference_equation_preservation(th, mode, u))
                seen.update(v for _, v in entry.details if v.is_unknown)
        assert unknown(0) in seen

    @pytest.mark.parametrize("mode", ["seq", "par"])
    @pytest.mark.parametrize("relation", ["strict", "weak"])
    def test_a_value_no_falls_at_the_reference_case(self, monkeypatch, mode, relation):
        # held to joinability in zero steps, comm's two sides are refuted
        # by a finite model where mul is the left projection whenever their
        # values differ, so the first No is the first case whose values
        # differ, wherever the step counts put it
        joinable = fm._joinable
        monkeypatch.setattr(fm, "_joinable", lambda c, p1, p2, bound: joinable(c, p1, p2, 0))
        left = fm.finite_model("left", (0, 1), {"mul": {(i, j): i for i in (0, 1)
                                                        for j in (0, 1)}})
        comm = parse_theory("theory comm\nop mul : 2\neq comm : mul(x, y) = mul(y, x)\n")
        th = dataclasses.replace(comm, finite_models=(left,))
        for size, steps in ((2, 2), (3, 1)):
            u = Universe(carrier_size=size, max_steps=steps, max_depth=0, relation=relation,
                         include_diverge=True)
            entry = laws.check_equation_preservation(th, mode, u)
            assert entry.verdict.is_no
            _assert_same_entry(entry, reference_equation_preservation(th, mode, u))

    @pytest.mark.parametrize("name", ["semilattice", "cmonoid", "band.th", "leftzero.th",
                                      "idempotent_unary.th"])
    @pytest.mark.parametrize("mode", ["seq", "par"])
    def test_model_equal_runs_once_per_pair_of_side_values(self, monkeypatch, name, mode):
        th = EQUATION_THEORIES[name]()
        u = Universe(carrier_size=2, max_steps=2, max_depth=1, include_diverge=True)
        want = reference_equation_preservation(th, mode, u)
        pairs = collections.Counter()
        model_equal = fm.model_equal

        def counting(a, b):
            pairs[a, b] += 1
            return model_equal(a, b)

        monkeypatch.setattr(fm, "model_equal", counting)
        entry = laws.check_equation_preservation(th, mode, u)
        monkeypatch.undo()
        assert pairs and set(pairs.values()) == {1}
        assert sum(pairs.values()) < entry.cases
        _assert_same_entry(entry, want)

    @pytest.mark.parametrize("name", ["monoid", "semilattice"])
    @pytest.mark.parametrize("relation", ["strict", "weak"])
    def test_the_tables_ask_the_comparison_the_node_path_asks(self, monkeypatch, name,
                                                               relation):
        # a kernel that cannot settle two finished delays with the same
        # step count past 0 reaches the tables as it reaches the node path
        for kernel in ("strong_equal", "weak_bisim"):
            def undecided(x, y, *rest, real=getattr(laws, kernel), **kw):
                if x is not DIVERGE and step_count(x) == step_count(y) >= 1:
                    return unknown(0)
                return real(x, y, *rest, **kw)

            monkeypatch.setattr(laws, kernel, undecided)
        th = getattr(fm, name)()
        u = Universe(carrier_size=1, max_steps=2, max_depth=1, relation=relation,
                     include_diverge=True)
        for table, node in (("seq", seq_lift_op), ("par", par_lift_op)):
            entry = laws.check_equation_preservation(th, table, u)
            assert unknown(0) in dict(entry.details).values()
            _assert_same_entry(entry, laws.check_equation_preservation(th, node, u))

    def test_a_callable_lifting_goes_node_by_node(self, monkeypatch):
        calls = collections.Counter()

        def counting(op, args, th):
            calls[op] += 1
            return seq_lift_op(op, args, th)

        th = fm.monoid()
        u = Universe(carrier_size=1, max_steps=1, max_depth=1)
        entry = laws.check_equation_preservation(th, counting, u)
        assert calls and entry == laws.check_equation_preservation(th, "seq", u)

    MALFORMED = [
        (Equation("unbound", ("x",), App("mul", (Var("x"), Var("y"))), Var("x")),
         r"^unbound variable 'y'$"),
        (Equation("arity", ("x",), App("mul", (Var("x"),)), Var("x")),
         r"^operation 'mul' expects 2 arguments, got 1$"),
        (Equation("unknown", ("x",), Var("x"), App("frob", (Var("x"),))),
         r"^unknown operation 'frob' in theory 'magma'$"),
        (Equation("mix", ("x", "y"), App("mix[1/3]", (Var("x"), Var("y"))), Var("x")),
         r"^unknown operation 'mix\[1/3\]' in theory 'magma'$"),
        (Equation("undeclared-mix", ("x",), App("mix[1/3]", (Var("x"),)), Var("x")),
         r"^operation 'mix\[1/3\]' expects 2 arguments, got 1$"),
        # post-order: the unknown operation is applied before its parent's
        # arity is checked
        (Equation("order", ("x",), App("mul", (App("frob", (Var("x"),)),)), Var("x")),
         r"^unknown operation 'frob' in theory 'magma'$"),
    ]

    @pytest.mark.parametrize("bad,message", MALFORMED, ids=[b.name for b, _ in MALFORMED])
    @pytest.mark.parametrize("mode", ["seq", "par"])
    def test_a_malformed_equation_raises_at_the_same_case(self, monkeypatch, bad, message,
                                                          mode):
        x, y, z = Var("x"), Var("y"), Var("z")
        same = App("mul", (x, App("mul", (y, z))))
        th = _with_equations(fm.magma(), Equation("refl", ("x", "y", "z"), same, same), bad)
        u = Universe(carrier_size=1, max_steps=1, max_depth=1, include_diverge=True)
        # the check: the cases each equation's scan pulls, node by node or
        # from the tables
        visited = []
        for name in ("_node_scan", "_table_scan"):
            def counting(first, cases, *rest, scan=getattr(laws, name)):
                visited.append(0)

                def pulled():
                    for case in cases:
                        visited[-1] += 1
                        yield case

                return scan(first, pulled(), *rest)

            monkeypatch.setattr(laws, name, counting)
        with pytest.raises(TheorySemanticError, match=message):
            laws.check_equation_preservation(th, mode, u)
        # the reference: its comparisons
        compared = 0
        strong_equal = conftest.strong_equal

        def comparing(*args, **kwargs):
            nonlocal compared
            compared += 1
            return strong_equal(*args, **kwargs)

        monkeypatch.setattr(conftest, "strong_equal", comparing)
        with pytest.raises(TheorySemanticError, match=message):
            reference_equation_preservation(th, mode, u)
        # every case of the good equation first, then the raise at the
        # first case of the bad one
        assert visited == [5 ** 3, 1] and compared == 5 ** 3

    def test_a_dist_arity_error_keeps_the_lifting_message(self):
        convex = fm.convex()
        bad = Equation("short", ("x",), App("mix[1/2]", (Var("x"),)), Var("x"))
        th = _with_equations(convex, bad)
        u = Universe(carrier_size=1, max_steps=1, max_depth=1)
        for check in (laws.check_equation_preservation, reference_equation_preservation):
            with pytest.raises(TheorySemanticError,
                               match=r"^operation 'mix\[1/2\]' expects 2 arguments, got 1$"):
                check(th, "seq", u)


class TestCompositeLaws:
    def test_delay_monad_laws_hold(self):
        out = check_delay_monad_laws()
        assert out.verdict.is_yes
        assert out.cases > 0

    def test_composite_laws_for_guaranteed_candidate(self):
        r = _suite(fm.monoid(), "seq", carrier_size=2, max_steps=1, max_depth=1)
        assert r.entry("MonadLaws").verdict.is_yes

    def test_composite_laws_fail_without_distributivity(self):
        r = _suite(fm.semilattice(), "seq", carrier_size=2, max_steps=2, max_depth=2)
        e = r.entry("MonadLaws")
        assert e.verdict.is_no
        assert e.predicted


class TestCustomCandidateEntry:
    def test_candidate_object_accepted(self):
        from delaydist.lifting import custom_candidate, seq_lift_op
        cand = custom_candidate(fm.monoid(), "mine", seq_lift_op)
        r = run_suite(fm.monoid(), cand,
                      Universe(carrier_size=1, max_steps=1, max_depth=1))
        assert r.mode == "mine"
        assert r.all_yes
        # only the structural liftings are vouched for
        assert not guaranteed_configuration(fm.monoid(), cand.induced, r.relation)

    @pytest.mark.parametrize("th", [fm.monoid(), fm.semilattice()], ids=lambda th: th.name)
    def test_the_name_does_not_change_the_predictions(self, th):
        # a custom lifting named like a structural one is still custom: its
        # Nos get a custom lifting's predictions, and none is guaranteed
        def slow_seq(op, args, th):
            return prepend_steps(1, seq_lift_op(op, args, th))  # one extra step per operation

        u = Universe(carrier_size=1, max_steps=1, max_depth=1)

        def entries(name):
            r = run_suite(th, lifting.custom_candidate(th, name, slow_seq), u)
            assert r.mode == name
            return [(e.axiom, e.verdict, e.cases,
                     e.witness and (e.witness.input_render, e.witness.lhs_render,
                                    e.witness.rhs_render),
                     e.predicted, e.prediction_note) for e in r.entries]

        want = entries("custom:x")
        nos = [e for e in want if e[1].is_no]
        assert nos and all(predicted for *_, predicted, _ in nos)
        assert entries("seq") == want
        assert entries("par") == want


class TestRendering:
    def test_render_mentions_every_axiom(self):
        r = _suite(fm.monoid(), "seq", carrier_size=1, max_steps=1, max_depth=1)
        text = render_report(r)
        for name in AXIOM_ORDER:
            assert name in text
        assert "monoid" in text

    def test_render_marks_predicted_failures(self):
        r = _suite(fm.semilattice(), "seq", carrier_size=2, max_steps=2, max_depth=2)
        text = render_report(r)
        assert "no" in text
        assert "predicted" in text
