"""Machine-checked refutation traces and the two step-count witnesses.

Every trace must replay rewrite by rewrite; tampering with any step has
to be caught.  The distribution family's delay exponent is pinned to an
independent least-power computation done with plain Fractions."""

import dataclasses
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ReferencePathError, peel, reference_at, reference_instantiate,
                      reference_match, reference_replace, tuple_term)
from delaydist import nogo
from delaydist.delay import (DIVERGE, Now, Step, prepend_steps, step_count, strong_equal,
                             weak_bisim)
from delaydist.laws import TestUniverse as Universe
from delaydist.lifting import DistLawCandidate
from delaydist import freemodel as fm
from delaydist.theory import App, Var, match, replace, substitute, subterm


@pytest.fixture(scope="module")
def powerset_results():
    return nogo.powerset_nogo_search()


class TestPowersetSearch:
    def test_exactly_32_candidates(self, powerset_results):
        assert len(powerset_results) == 32
        assert len({cfg for cfg, _ in powerset_results}) == 32

    def test_every_trace_verifies(self, powerset_results):
        for cfg, trace in powerset_results:
            assert trace.verify(), cfg.describe()

    def test_no_survivors_means_all_clash(self, powerset_results):
        for _, trace in powerset_results:
            assert trace.clash.kind in ("ModelRefutation", "StepEqNow", "StepEqDoubleStep")

    def test_clash_kind_distribution(self, powerset_results):
        kinds = [t.clash.kind for _, t in powerset_results]
        assert kinds.count("ModelRefutation") == 27
        assert kinds.count("StepEqNow") == 3
        assert kinds.count("StepEqDoubleStep") == 2

    def test_double_step_trace_present(self, powerset_results):
        # at least one candidate is refuted by x after one step equalling
        # x after two
        found = []
        for cfg, trace in powerset_results:
            if trace.clash.kind == "StepEqDoubleStep":
                found.append(trace.render())
        assert found
        assert any("step(x) = step(step(x))" in r for r in found)

    def test_titles_carry_configuration(self, powerset_results):
        for cfg, trace in powerset_results:
            assert trace.title == f"powerset candidate {cfg.describe()}"
            assert cfg.branch in ("Eq1", "Eq2")

    def test_render_shape(self, powerset_results):
        _, trace = powerset_results[0]
        text = trace.render()
        assert "assuming:" in text
        assert re.search(r"\d+\. .*--\[.*\]-->", text)
        assert "derived:" in text
        assert "CLASH:" in text


class TestTraceIntegrity:
    def test_tampered_step_rejected(self, powerset_results):
        _, trace = powerset_results[0]
        bad_step = dataclasses.replace(trace.steps[-1], result=nogo.var("zz"))
        tampered = dataclasses.replace(trace, steps=trace.steps[:-1] + [bad_step])
        with pytest.raises(nogo.TraceError):
            tampered.verify()

    def test_wrong_clash_rejected(self, powerset_results):
        for _, trace in powerset_results:
            if trace.clash.kind == "StepEqNow":
                tampered = dataclasses.replace(trace, clash=nogo.Clash("StepEqDoubleStep"))
                with pytest.raises(nogo.TraceError):
                    tampered.verify()
                return
        pytest.fail("no StepEqNow trace found")

    def test_empty_trace_rejected(self, powerset_results):
        _, trace = powerset_results[0]
        with pytest.raises(nogo.TraceError):
            dataclasses.replace(trace, steps=[]).verify()

    def test_non_contradiction_is_an_error(self):
        with pytest.raises(nogo.TraceError):
            nogo.derive_clash(nogo.var("x"), nogo.var("x"))

    def test_derive_clash_kinds(self):
        x = nogo.var("x")
        assert nogo.derive_clash(nogo.step_t(x), nogo.now_t(x)).kind == "StepEqNow"
        assert nogo.derive_clash(nogo.step_t(x), nogo.step_t(nogo.step_t(x))).kind == \
            "StepEqDoubleStep"
        c = nogo.derive_clash(nogo.union_t(x, nogo.var("y")), x)
        assert c.kind == "ModelRefutation"
        assert c.model == "diamond"


class TestConvexRuleSoundness:
    def test_sound_rule_accepted(self):
        x, y = nogo.var("x"), nogo.var("y")
        r = nogo.convex_rule("comm", nogo.mix_t(Fraction(1, 2), x, y),
                             nogo.mix_t(Fraction(1, 2), y, x))
        assert r.name == "comm"

    def test_unsound_rule_rejected(self):
        x, y = nogo.var("x"), nogo.var("y")
        with pytest.raises(nogo.TraceError):
            nogo.convex_rule("bogus", nogo.mix_t(Fraction(1, 2), x, y),
                             nogo.mix_t(Fraction(1, 3), x, y))

    def test_degenerate_weight_rejected(self):
        x, y = nogo.var("x"), nogo.var("y")
        with pytest.raises(nogo.TraceError):
            nogo.convex_rule("w", nogo.mix_t(Fraction(1), x, y),
                             nogo.mix_t(Fraction(1), x, y))


def _least_n(p: Fraction, branch: str) -> int:
    # oracle: least n with (1/2)^n <= 1-p for Eq1, with (1-p)^n <= 1/2
    # for the mirrored branch; exact Fraction arithmetic throughout
    base, bound = (Fraction(1, 2), 1 - p) if branch == "Eq1" else (1 - p, Fraction(1, 2))
    n, w = 0, Fraction(1)
    while w > bound:
        n += 1
        w *= base
    return n


class TestDistributionsFamily:
    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(2, 3), Fraction(1, 3),
                                   Fraction(3, 4), Fraction(63, 64), Fraction(1, 64)])
    @pytest.mark.parametrize("branch", ["Eq1", "Eq2"])
    def test_trace_verifies_with_pinned_exponent(self, p, branch):
        trace = nogo.distributions_nogo_replay(p, branch)
        assert trace.verify()
        assert trace.meta["p"] == p
        assert trace.meta["branch"] == branch
        assert trace.meta["n"] == _least_n(p, branch)

    def test_zero_slack_omits_leftover_weight(self):
        trace = nogo.distributions_nogo_replay(Fraction(1, 2), "Eq1")
        assert trace.meta["z_weight"] is None

    def test_positive_slack_records_leftover_weight(self):
        p = Fraction(1, 3)
        trace = nogo.distributions_nogo_replay(p, "Eq1")
        w = trace.meta["z_weight"]
        assert w is not None and 0 < w < 1

    def test_all_denominators_up_to_eight(self):
        for den in range(2, 9):
            for num in range(1, den):
                p = Fraction(num, den)
                for branch in ("Eq1", "Eq2"):
                    assert nogo.distributions_nogo_replay(p, branch).verify()

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(1), Fraction(5, 4),
                                     Fraction(-1, 2)])
    def test_degenerate_probability_rejected(self, bad):
        with pytest.raises(ValueError):
            nogo.distributions_nogo_replay(bad)

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError):
            nogo.distributions_nogo_replay(Fraction(1, 2), "Eq3")

    def test_clash_is_step_eq_now(self):
        trace = nogo.distributions_nogo_replay(Fraction(1, 2), "Eq1")
        assert trace.clash.kind == "StepEqNow"


class TestStepCountWitness:
    def test_paths_differ_by_one_step(self):
        demo = nogo.mogelberg_vezzosi_witness()
        assert demo.step_counts == (1, 2)
        assert demo.entry.verdict.is_no
        assert demo.entry.predicted
        assert demo.weak_entry.verdict.is_yes

    def test_the_multt_witness_replays_both_paths(self, monkeypatch):
        demo = nogo.mogelberg_vezzosi_witness()
        w = demo.entry.witness
        assert (w.lhs_render, w.rhs_render) == ("1·step ▸ mul(x, y)", "2·step ▸ mul(x, y)")
        assert w.replay() == (w.lhs_render, w.rhs_render)
        # the replay runs the candidate again
        monkeypatch.setattr(DistLawCandidate, "apply", lambda self, m: DIVERGE)
        assert w.replay() == ("⊥", "⊥")


class TestIdempotentUnary:
    def test_theory_shape(self):
        th = nogo.idempotent_unary_theory()
        assert th.rewrite_complete
        assert th.signature.arity("mul") == 2
        assert th.signature.arity("bang") == 1

    def test_witness_single_step_both_paths(self):
        lhs, rhs = nogo.idempotent_unary_witness()
        assert step_count(lhs) == 1
        assert step_count(rhs) == 1
        assert strong_equal(lhs, rhs, 64, value_eq=lambda a, b: fm.model_equal(a, b).is_yes).is_yes

    def test_lift_rejects_unknown_op(self):
        th = nogo.idempotent_unary_theory()
        with pytest.raises(ValueError):
            nogo.step_absorbing_lift("frob", [], th)

    def test_demo_passes_reduced_bounds_strict_and_weak(self):
        # weak consistency: whatever passes strictly must pass weakly too
        strict = nogo.idempotent_unary_demo(
            Universe(carrier_size=2, max_steps=1, max_depth=1))
        assert strict.all_yes
        weak = nogo.idempotent_unary_demo(
            Universe(carrier_size=2, max_steps=1, max_depth=1, relation="weak"))
        assert weak.all_yes


def _ref_bang(d, th):
    if isinstance(d, Now):
        return Now(fm.apply_op(th, "bang", [d.value]))
    return d if d is DIVERGE else d.tail


def _ref_mul(a, b, th):
    """The step-absorbing product one lockstep step at a time."""
    steps = 0
    while True:
        if a is DIVERGE or b is DIVERGE:
            return prepend_steps(steps, DIVERGE)
        if isinstance(a, Now) and isinstance(b, Now):
            return prepend_steps(steps, Now(fm.apply_op(th, "mul", [a.value, b.value])))
        if isinstance(a, Step):
            a, b = a.tail, _ref_bang(b, th)
        else:
            a, b = _ref_bang(a, th), b.tail
        steps += 1


def test_step_absorbing_product_matches_the_lockstep_loop():
    th = nogo.idempotent_unary_theory()
    shapes = [(n, end) for n in range(4)
              for end in (Now(fm.unit(th, "x")), Now(fm.unit(th, "y")), DIVERGE)]
    for (na, ea), (nb, eb) in itertools.product(shapes, repeat=2):
        a, b = prepend_steps(na, ea), prepend_steps(nb, eb)
        want = peel(_ref_mul(a, b, th))
        assert peel(nogo.step_absorbing_lift("mul", [a, b], th)) == want


class TestExponentBound:
    @pytest.mark.parametrize("p,branch", [(Fraction(1, 1000), "Eq2"), (Fraction(1, 2000), "Eq2"),
                                          (1 - Fraction(1, 2 ** 70), "Eq1"),
                                          (1 - Fraction(1, 2 ** 65), "Eq1")])
    def test_weight_past_the_bound_is_a_value_error(self, p, branch):
        with pytest.raises(ValueError, match=f"n > {nogo.MAX_EXPONENT} on branch {branch}"):
            nogo.distributions_nogo_replay(p, branch)

    def test_weight_at_the_bound_replays(self):
        trace = nogo.distributions_nogo_replay(1 - Fraction(1, 2 ** 64), "Eq1")
        assert trace.meta["n"] == nogo.MAX_EXPONENT
        assert trace.verify()


# ---------------------------------------------------------------------------
# the theory walkers against the tuple walkers the traces used before

_LEAVES = [nogo.var("x"), nogo.var("y"), nogo.EMPTY]
_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


def _nogo_terms(leaves):
    def extend(sub):
        return st.one_of(
            sub.map(nogo.now_t), sub.map(nogo.step_t),
            st.tuples(sub, sub).map(lambda ab: nogo.union_t(*ab)),
            sub.map(lambda a: nogo.union_t(a, a)),
            st.tuples(sub, sub).map(lambda ab: nogo.op1_t(*ab)),
            st.tuples(sub, sub).map(lambda ab: nogo.mix_t(_HALF, *ab)),
            st.tuples(sub, sub).map(lambda ab: nogo.mix_t(_THIRD, *ab)),
            # an arity no trace uses, so patterns and terms can disagree on it
            st.tuples(sub, sub).map(lambda ab: App("now", ab)))

    return st.recursive(st.sampled_from(leaves), extend, max_leaves=8)


def _abstract(draw, t, chosen=None):
    """A pattern that ``t`` often matches: some subterms become the
    metavariable a or b, each distinct subterm the same one wherever it
    occurs, so that repeated subterms give non-linear patterns."""
    chosen = {} if chosen is None else chosen
    if t not in chosen:
        chosen[t] = draw(st.sampled_from([Var("a"), Var("b"), None, None, None]))
    if chosen[t] is not None:
        return chosen[t]
    if isinstance(t, Var) or not t.args:
        return t
    return App(t.op, tuple(_abstract(draw, a, chosen) for a in t.args))


_paths = st.lists(st.integers(0, 2), max_size=4).map(tuple)
_subjects = _nogo_terms(_LEAVES)
_patterns = _nogo_terms(_LEAVES + [Var("a"), Var("b")])


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_match_and_substitute_agree_with_the_tuple_reference(data):
    term = data.draw(_subjects)
    pattern = _abstract(data.draw, term) if data.draw(st.booleans()) else data.draw(_patterns)
    binding, ref_binding = {}, {}
    ok = match(pattern, term, binding)
    tp = tuple_term(pattern, pattern=True)
    assert ok == reference_match(tp, tuple_term(term), ref_binding)
    if ok:
        assert {k: tuple_term(v) for k, v in binding.items()} == ref_binding
        assert substitute(pattern, binding) == term
        assert tuple_term(substitute(pattern, binding)) == reference_instantiate(tp, ref_binding)


@given(_subjects, _paths, _subjects)
@settings(max_examples=400, deadline=None)
def test_subterm_and_replace_agree_with_the_tuple_reference(term, path, new):
    tt = tuple_term(term)
    try:
        want = reference_at(tt, path)
    except ReferencePathError:
        assert subterm(term, path) is None
        return
    assert tuple_term(subterm(term, path)) == want
    assert tuple_term(replace(term, path, new)) == reference_replace(tt, path, tuple_term(new))


def test_non_linear_pattern_needs_equal_arguments():
    a, x, y = Var("a"), nogo.var("x"), nogo.var("y")
    pattern = nogo.union_t(a, a)
    binding = {}
    assert match(pattern, nogo.union_t(x, x), binding) and binding == {"a": x}
    assert not match(pattern, nogo.union_t(x, y), {})
    assert not reference_match(tuple_term(pattern, pattern=True), tuple_term(nogo.union_t(x, y)),
                               {})


def test_trace_variables_are_constants():
    x = nogo.var("x")
    # a subject's variable matches a metavariable or itself, nothing else
    assert match(Var("x"), nogo.now_t(x), {})
    assert not match(nogo.now_t(Var("a")), x, {})
    assert subterm(x, (0,)) is None
