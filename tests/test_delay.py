"""Delay values pinned against plain step arithmetic.

Each derived behavior gets an oracle computed without the library: step
counts are integers added by hand, weak bisimilarity over finite chains
is "same value, divergence only matches divergence"."""

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaydist.delay import (DIVERGE, EXHAUSTED, KNOWN_DIVERGENT, NO, YES, Delay, Now, Step,
                             Terminated, bind, delay_n, dmap, force, join, now, prepend_steps,
                             render_delay, resolve, step, step_count, strong_equal, unknown,
                             weak_bisim)
from delaydist.freemodel import canon_key

from conftest import (peel, reference_canon_key, reference_dmap, reference_join,
                      reference_strong_equal, reference_weak_bisim)

VALUES = ("a", "b", "c")


def chains(values=VALUES, max_steps=4, with_diverge=True):
    out = [delay_n(n, v) for n in range(max_steps + 1) for v in values]
    if with_diverge:
        out.append(DIVERGE)
    return out


class TestConstructors:
    def test_delay_n_shapes(self):
        assert delay_n(0, "a") == Now("a")
        assert delay_n(2, "a") == Step(Step(Now("a")))

    def test_delay_n_rejects_negative(self):
        with pytest.raises(ValueError):
            delay_n(-1, "a")

    def test_step_requires_delay(self):
        with pytest.raises(TypeError):
            step("a")

    def test_every_step_constructor_names_a_non_delay_tail(self):
        # not an AttributeError from deep inside the node layout
        for build, name in ((lambda: step("a"), "step"), (lambda: Step("a"), "Step"),
                            (lambda: prepend_steps(1, "a"), "prepend_steps"),
                            (lambda: prepend_steps(0, 3), "prepend_steps")):
            with pytest.raises(TypeError, match=rf"^{name} needs a Delay tail, got (str|int)$"):
                build()

    def test_diverge_is_the_marker(self):
        assert isinstance(DIVERGE, Delay) and step_count(DIVERGE) is None


class TestForce:
    def test_exact_step_count(self):
        assert force(delay_n(3, "a"), 5) == Terminated("a", 3)

    def test_fuel_exhaustion(self):
        assert force(delay_n(3, "a"), 2) is EXHAUSTED

    def test_boundary_fuel_suffices(self):
        assert force(delay_n(3, "a"), 3) == Terminated("a", 3)

    def test_divergence_marker(self):
        assert force(DIVERGE, 100) is KNOWN_DIVERGENT
        assert force(Step(DIVERGE), 100) is KNOWN_DIVERGENT

    def test_step_built_chains_force(self):
        d = step(step(Now("v")))
        assert force(d, 4) == Terminated("v", 2)
        assert resolve(d) is d


class TestBindJoin:
    def test_left_unit_clause(self):
        k = lambda v: delay_n(2, v.upper())
        assert bind(now("a"), k) == delay_n(2, "A")

    def test_step_clause_keeps_guard(self):
        out = resolve(bind(delay_n(1, "a"), now))
        assert isinstance(out, Step)

    def test_diverge_clause(self):
        assert bind(DIVERGE, now) is DIVERGE

    def test_join_adds_layer_counts(self):
        # oracle: integer addition of the two layers' counts
        for m in range(5):
            for n in range(5):
                d = delay_n(m, delay_n(n, "v"))
                assert step_count(join(d)) == m + n
                assert force(join(d), 16).value == "v"

    def test_flattening_the_two_one_step_nestings(self):
        assert step_count(join(now(step(now("x"))))) == 1
        assert step_count(join(step(now(now("y"))))) == 1

    def test_divergent_continuation_absorbs_the_steps(self):
        assert bind(delay_n(2, "a"), lambda _: DIVERGE) is DIVERGE
        assert join(delay_n(3, DIVERGE)) is DIVERGE


class TestStrongEqual:
    def test_equal_chains(self):
        assert strong_equal(delay_n(2, "a"), delay_n(2, "a"), 16).is_yes

    def test_count_mismatch(self):
        assert strong_equal(delay_n(1, "a"), delay_n(2, "a"), 16).is_no

    def test_value_mismatch(self):
        assert strong_equal(delay_n(2, "a"), delay_n(2, "b"), 16).is_no

    def test_divergence_matches_itself_only(self):
        assert strong_equal(DIVERGE, DIVERGE, 4).is_yes
        assert strong_equal(DIVERGE, now("a"), 4).is_no

    def test_fuel_zero_on_suspended_tails(self):
        # the values behind one step each are out of reach at fuel 0
        x = Step(Now("a"))
        y = Step(Now("a"))
        v = strong_equal(x, y, 0)
        assert v.is_unknown and v.fuel_spent == 0

    def test_custom_value_relation(self):
        rel = lambda u, v: u.lower() == v.lower()
        assert strong_equal(now("A"), now("a"), 4, value_eq=rel).is_yes

    def test_exhaustive_against_oracle(self):
        # oracle: chains are (count, value) pairs; equal iff both match
        pool = chains()
        for x, y in itertools.product(pool, repeat=2):
            if x is DIVERGE or y is DIVERGE:
                expected = x is y
            else:
                expected = (step_count(x) == step_count(y)
                            and force(x, 9).value == force(y, 9).value)
            assert strong_equal(x, y, 16).is_yes == expected


class TestWeakBisim:
    def test_ignores_finite_step_differences(self):
        assert weak_bisim(now("a"), delay_n(4, "a"), lambda u, v: u == v, 10).is_yes

    def test_divergence_never_meets_now(self):
        assert weak_bisim(DIVERGE, now("a"), lambda u, v: u == v, 10).is_no

    def test_reflexive_without_fuel(self):
        assert weak_bisim(now("a"), now("a"), lambda u, v: u == v, 0).is_yes

    def test_value_mismatch_after_stripping(self):
        assert weak_bisim(delay_n(2, "a"), delay_n(5, "b"), lambda u, v: u == v, 10).is_no

    def test_exhaustive_against_termination_oracle(self):
        # oracle: equal iff both diverge, or both terminate on equal values
        pool = chains()
        for x, y in itertools.product(pool, repeat=2):
            if x is DIVERGE or y is DIVERGE:
                expected = x is y
            else:
                expected = force(x, 9).value == force(y, 9).value
            assert weak_bisim(x, y, lambda u, v: u == v, 16).is_yes == expected

    def test_step_closure_exhaustive(self):
        rel = lambda u, v: u == v
        pool = chains()
        for d in pool:
            assert weak_bisim(d, Step(d), rel, 16).is_yes
        for x, y in itertools.product(pool, repeat=2):
            if weak_bisim(x, y, rel, 16).is_yes:
                assert weak_bisim(Step(x), y, rel, 16).is_yes

    def test_equivalence_exhaustive(self):
        rel = lambda u, v: u == v
        pool = chains()
        for d in pool:
            assert weak_bisim(d, d, rel, 16).is_yes
        for x, y in itertools.product(pool, repeat=2):
            assert weak_bisim(x, y, rel, 16).kind == weak_bisim(y, x, rel, 16).kind
        for x, y, z in itertools.product(pool, repeat=3):
            if weak_bisim(x, y, rel, 16).is_yes and weak_bisim(y, z, rel, 16).is_yes:
                assert weak_bisim(x, z, rel, 16).is_yes

    def test_join_preserves_bisimilarity(self):
        rel = lambda u, v: u == v
        inner = lambda d1, d2: weak_bisim(d1, d2, rel, 32)
        nested = [delay_n(m, delay_n(n, v))
                  for m in range(5) for n in range(5) for v in ("a", "b")]
        nested += [DIVERGE, delay_n(1, DIVERGE)]
        for x, y in itertools.product(nested, repeat=2):
            if weak_bisim(x, y, inner, 32).is_yes:
                assert weak_bisim(join(x), join(y), rel, 32).is_yes


class TestMonadLaws:
    def test_exhaustive_small(self):
        pool = chains(max_steps=3)
        k_table = {v: delay_n(i, v.upper()) for i, v in enumerate(VALUES)}
        h_table = {v: delay_n(1, v + v) for v in VALUES}
        h_table["A"] = DIVERGE
        h_table["B"] = now("b")
        h_table["C"] = delay_n(2, "c")
        k = lambda v: k_table[v]
        h = lambda v: h_table[v]
        for v in VALUES:
            assert strong_equal(bind(now(v), k), k(v), 32).is_yes
        for m in pool:
            assert strong_equal(bind(m, now), m, 32).is_yes
        for m in pool:
            lhs = bind(bind(m, k), h)
            rhs = bind(m, lambda v: bind(k(v), h))
            assert strong_equal(lhs, rhs, 32).is_yes


class TestObservation:
    def test_step_count(self):
        assert step_count(delay_n(7, "a")) == 7
        assert step_count(DIVERGE) is None

    def test_render(self):
        assert render_delay(delay_n(2, "a")) == "2·step ▸ a"
        assert render_delay(now("a")) == "0·step ▸ a"
        assert render_delay(DIVERGE) == "⊥"
        assert render_delay(Step(DIVERGE)) == "⊥"


@st.composite
def delays(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return DIVERGE
    return delay_n(n, draw(st.sampled_from(VALUES)))


@given(delays(), st.integers(0, 3), st.sampled_from(VALUES))
@settings(max_examples=200, deadline=None)
def test_bind_step_counts_add(d, extra, v):
    k = lambda _: delay_n(extra, v)
    out = bind(d, k)
    if step_count(d) is None:
        assert step_count(out) is None
    else:
        assert step_count(out) == step_count(d) + extra
        assert force(out, 32).value == v


@given(delays())
@settings(max_examples=200, deadline=None)
def test_dmap_preserves_counts(d):
    out = dmap(d, lambda v: v.upper())
    assert step_count(out) == step_count(d)
    if step_count(d) is not None:
        assert force(out, 32).value == force(d, 32).value.upper()


class TestFlatNormalForm:
    def test_step_chains_are_one_node(self):
        d = Step(Step(Now("a")))
        assert isinstance(d, Step)
        assert (d.steps, d.value) == (2, "a")
        assert Step(d) == delay_n(3, "a")
        assert d.tail == delay_n(1, "a")
        assert hash(d) == hash(delay_n(2, "a"))

    def test_steps_in_front_of_divergence_are_absorbed(self):
        # never = step(never): stepⁿ(⊥) is ⊥ itself, however it is built
        assert Step(Step(DIVERGE)) is DIVERGE
        assert step(DIVERGE) is DIVERGE
        assert prepend_steps(3, DIVERGE) is DIVERGE
        assert bind(Step(Step(DIVERGE)), now) is DIVERGE
        assert render_delay(Step(Step(DIVERGE))) == "⊥"
        assert canon_key(Step(Step(DIVERGE))) == canon_key(DIVERGE)
        assert step_count(Step(DIVERGE)) is None

    def test_fuel_zero_before_stepped_divergence(self):
        assert strong_equal(Step(DIVERGE), DIVERGE, 0).is_yes
        assert weak_bisim(Step(DIVERGE), DIVERGE, lambda u, v: u == v, 0).is_yes
        assert force(Step(DIVERGE), 0) is KNOWN_DIVERGENT

    def test_right_unit_is_exact_on_stepped_divergence(self):
        # bind(m, now) = m with no fuel at all, stepped divergence included
        assert strong_equal(bind(step(DIVERGE), now), step(DIVERGE), 0).is_yes
        for m in chains(max_steps=2) + [step(DIVERGE)]:
            assert strong_equal(bind(m, now), m, 0).kind != "no"

    def test_divergence_sorts_after_every_finished_delay(self):
        pool = chains(max_steps=2)
        assert sorted(pool, key=canon_key)[-1] is DIVERGE
        assert canon_key(delay_n(10 ** 6, "a")) < canon_key(DIVERGE)


# Reference loops: the observations as they were written before delays had
# a flat form, stepping one node at a time through .tail.

def _ref_force(d, fuel):
    steps = 0
    while True:
        if isinstance(d, Now):
            return Terminated(d.value, steps)
        if d is DIVERGE:
            return KNOWN_DIVERGENT
        if steps >= fuel:
            return EXHAUSTED
        steps += 1
        d = d.tail


def _ref_strong_equal(x, y, fuel):
    spent = 0
    while True:
        x_now, y_now = isinstance(x, Now), isinstance(y, Now)
        if x_now and y_now:
            return YES if x.value == y.value else NO
        if x is DIVERGE and y is DIVERGE:
            return YES
        if x_now or y_now:
            return NO
        if spent >= fuel:
            return unknown(spent)
        spent += 1
        if isinstance(x, Step):
            x = x.tail
        if isinstance(y, Step):
            y = y.tail


def _ref_weak_bisim(x, y, fuel):
    spent = 0
    while True:
        x_now, y_now = isinstance(x, Now), isinstance(y, Now)
        if x_now and y_now:
            return YES if x.value == y.value else NO
        if (x_now and y is DIVERGE) or (y_now and x is DIVERGE):
            return NO
        if x is DIVERGE and y is DIVERGE:
            return YES
        if spent >= fuel:
            return unknown(spent)
        spent += 1
        if isinstance(x, Step):
            x = x.tail
        if isinstance(y, Step):
            y = y.tail


def _one_at_a_time(n, end):
    """stepⁿ(end) built one ``Step`` at a time."""
    return end if n == 0 else Step(_one_at_a_time(n - 1, end))


ends = st.one_of(st.just(DIVERGE), st.sampled_from(VALUES).map(Now))
shapes = st.tuples(st.integers(0, 6), ends)


@given(shapes, shapes, st.integers(0, 8))
@settings(max_examples=400, deadline=None)
def test_flat_delays_observe_like_the_step_loops(x, y, fuel):
    flat_x, flat_y = prepend_steps(*x), prepend_steps(*y)
    d, e = _one_at_a_time(*x), _one_at_a_time(*y)
    assert d == flat_x and e == flat_y
    assert (flat_x is DIVERGE) == (x[1] is DIVERGE)
    assert force(flat_x, fuel) == _ref_force(flat_x, fuel)
    assert step_count(flat_x) == (None if x[1] is DIVERGE else x[0])
    assert render_delay(d) == render_delay(flat_x)
    assert canon_key(d) == canon_key(flat_x)
    assert strong_equal(flat_x, flat_y, fuel) == _ref_strong_equal(flat_x, flat_y, fuel)
    assert (weak_bisim(flat_x, flat_y, lambda u, v: u == v, fuel)
            == _ref_weak_bisim(flat_x, flat_y, fuel))


# The kernels against their definitions, kept in conftest: dmap and join
# through bind, the comparisons through peel.

KERNEL_CHAINS = chains(max_steps=4)
VALUE_RELS = [
    lambda u, v: u == v,
    lambda u, v: u <= v,
    # a relation that answers with verdicts, passed through unchanged
    lambda u, v: YES if u == v else unknown(9) if "c" in (u, v) else NO,
]


@given(delays(), st.sampled_from([str.upper, lambda v: "a", lambda v: (v, v)]))
@settings(max_examples=200, deadline=None)
def test_dmap_matches_bind_through_now(d, f):
    out = dmap(d, f)
    assert out == reference_dmap(d, f)
    assert type(out) is type(reference_dmap(d, f))


@pytest.mark.parametrize("outer_steps", range(5))
def test_join_matches_bind_of_identity(outer_steps):
    inners = KERNEL_CHAINS + [Step(DIVERGE)]
    for inner in inners:
        dd = delay_n(outer_steps, inner)
        assert join(dd) == reference_join(dd)
        assert (join(dd) is DIVERGE) == (inner is DIVERGE)
    # divergence of the outer layer absorbs it all
    assert join(DIVERGE) is reference_join(DIVERGE) is DIVERGE


def test_join_step_counts_add_across_layers():
    for n, m in itertools.product(range(4), repeat=2):
        out = join(delay_n(n, delay_n(m, "a")))
        assert out == reference_join(delay_n(n, delay_n(m, "a"))) == delay_n(n + m, "a")
        assert join(delay_n(n, prepend_steps(m, DIVERGE))) is DIVERGE


@pytest.mark.parametrize("fuel", range(6))
def test_strong_equal_matches_the_peel_form(fuel):
    # chains up to 4 steps at fuel 0-5 reach n == fuel and n == fuel + 1
    for x, y in itertools.product(KERNEL_CHAINS, repeat=2):
        assert strong_equal(x, y, fuel) == reference_strong_equal(x, y, fuel)
        for rel in VALUE_RELS:
            assert (strong_equal(x, y, fuel, value_eq=rel)
                    == reference_strong_equal(x, y, fuel, value_eq=rel))


@pytest.mark.parametrize("fuel", range(6))
def test_weak_bisim_matches_the_peel_form(fuel):
    for x, y in itertools.product(KERNEL_CHAINS, repeat=2):
        for rel in VALUE_RELS:
            assert weak_bisim(x, y, rel, fuel) == reference_weak_bisim(x, y, rel, fuel)


@pytest.mark.parametrize("fuel", range(6))
def test_the_bare_comparison_is_the_comparison_up_to_its_values(fuel):
    # the comparison of two bare delays, their values taken as equal: a
    # Yes on finite delays where the comparison asks the value relation,
    # and otherwise the comparison's verdict without asking it
    for x, y in itertools.product(KERNEL_CHAINS, repeat=2):
        bare_x, bare_y = dmap(x, lambda v: None), dmap(y, lambda v: None)
        for strict in (True, False):
            asked = []

            def rel(u, v):
                asked.append((u, v))
                return unknown(7)

            def compare(a, b, rel):
                return strong_equal(a, b, fuel, value_eq=rel) if strict else weak_bisim(
                    a, b, rel, fuel)

            got = compare(x, y, rel)
            v = compare(bare_x, bare_y, lambda u, v: True)
            if v.is_yes and x is not DIVERGE:
                assert asked == [(x.value, y.value)] and got == unknown(7)
            else:
                assert not asked and got == v


def test_kernel_comparisons_cover_each_verdict():
    kinds = {(v.kind, v.fuel_spent)
             for fuel in range(6) for x, y in itertools.product(KERNEL_CHAINS, repeat=2)
             for v in (strong_equal(x, y, fuel), weak_bisim(x, y, VALUE_RELS[2], fuel))}
    assert {("yes", 0), ("no", 0), ("unknown", 0), ("unknown", 3), ("unknown", 9)} <= kinds


# A finished delay is one node: a Step holds its step count and the final
# value, never a Now or another Step.  Chains are built by every
# constructor and kernel in turn, each result checked against the
# references and against step arithmetic by hand.

def _assert_flat(d):
    """``d`` is one node: a Now or DIVERGE, or a Step of at least one
    step whose value, over these chains, is not a delay."""
    if isinstance(d, Step):
        assert d.steps >= 1 and not isinstance(d.value, Delay)
    else:
        assert isinstance(d, Now) or d is DIVERGE
        assert d is DIVERGE or not isinstance(d.value, Delay)


def test_step_is_its_count_and_its_value():
    assert [f.name for f in dataclasses.fields(Step)] == ["steps", "value"]
    assert Step.__slots__ == ("steps", "value")
    d = delay_n(3, "a")
    assert not hasattr(d, "end")
    assert (d.steps, d.value) == (3, "a")
    assert Step(Now(Now("a"))).value == Now("a")  # a delayed delay keeps its inner delay
    assert delay_n(1, delay_n(2, "a")).value == delay_n(2, "a")


_chain_ops = st.one_of(
    st.just(("step",)),
    st.tuples(st.just("prepend"), st.integers(0, 3)),
    st.tuples(st.just("delay_n"), st.integers(0, 3)),  # nested n deep, then joined
    st.tuples(st.just("bind"), st.integers(0, 3), st.sampled_from(VALUES + (None,))),
    st.tuples(st.just("dmap"), st.sampled_from(["upper", "pair"])),
)
_FS = {"upper": str.upper, "pair": lambda v: f"({v},{v})"}


@given(st.one_of(st.sampled_from(VALUES), st.none()), st.lists(_chain_ops, max_size=6))
@settings(max_examples=300, deadline=None)
def test_built_chains_are_one_node(start, ops):
    # shape: (steps, value) by hand, or None for divergence
    d, shape = (DIVERGE, None) if start is None else (Now(start), (0, start))
    for op in ops:
        kind = op[0]
        if kind == "step":
            d = step(d)
            shape = shape and (shape[0] + 1, shape[1])
        elif kind == "prepend":
            d = prepend_steps(op[1], d)
            shape = shape and (shape[0] + op[1], shape[1])
        elif kind == "delay_n":
            nested = delay_n(op[1], d)
            d = join(nested)
            assert d == reference_join(nested)
            shape = shape and (shape[0] + op[1], shape[1])
        elif kind == "bind":
            n, v = op[1], op[2]
            k = (lambda _: DIVERGE) if v is None else (lambda _: delay_n(n, v))
            d = bind(d, k)
            shape = None if v is None else shape and (shape[0] + n, v)
        else:
            f = _FS[op[1]]
            out = dmap(d, f)
            assert out == reference_dmap(d, f)
            assert type(out) is type(reference_dmap(d, f))
            d = out
            shape = shape and (shape[0], f(shape[1]))
        _assert_flat(d)
        if shape is None:
            assert d is DIVERGE
        else:
            assert step_count(d) == shape[0] and d.value == shape[1]
            assert type(d) is (Step if shape[0] else Now)
            assert d == delay_n(*shape)
        assert canon_key(d) == reference_canon_key(d)
        for e in (d, Step(d), Now(start) if start is not None else DIVERGE):
            assert strong_equal(d, e, 8) == reference_strong_equal(d, e, 8)


ROUND_TRIP_DELAYS = chains(max_steps=3, with_diverge=False) + [
    Now(Now("a")), Step(Now(Now("a"))), delay_n(2, delay_n(1, "b")), Now(DIVERGE),
    delay_n(1, DIVERGE)]


@pytest.mark.parametrize("d", ROUND_TRIP_DELAYS, ids=repr)
def test_copies_and_pickles_keep_equality_and_hash(d):
    copies = [copy.copy(d), copy.deepcopy(d)]
    copies += [pickle.loads(pickle.dumps(d, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(d)
        assert c == d and hash(c) == hash(d)
        assert canon_key(c) == canon_key(d) and render_delay(c) == render_delay(d)
        if isinstance(d, Step):
            assert (c.steps, c.value) == (d.steps, d.value)


def test_divergence_keeps_its_identity_through_copies():
    assert copy.copy(DIVERGE) is DIVERGE
    assert copy.deepcopy(DIVERGE) is DIVERGE
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(DIVERGE, protocol)) is DIVERGE
    # inside a pickled delay too
    assert pickle.loads(pickle.dumps(Now(DIVERGE))).value is DIVERGE


class TestNodeContracts:
    """``Step(tail)``, ``Step.tail`` and ``resolve``, which callers
    outside the kernels step through delays with, and the tests' ``peel``."""

    @pytest.mark.parametrize("n", range(4))
    def test_peel_splits_off_an_end(self, n):
        d = delay_n(n, "a")
        count, end = peel(d)
        assert (count, end) == (n, Now("a"))
        assert type(end) is Now
        if n == 0:
            assert end is d  # a Now is its own end
        assert peel(DIVERGE) == (0, DIVERGE) and peel(DIVERGE)[1] is DIVERGE
        # a delayed delay's end holds the inner delay
        assert peel(delay_n(n, delay_n(2, "b"))) == (n, Now(delay_n(2, "b")))

    @pytest.mark.parametrize("n", range(4))
    def test_step_of_a_tail_adds_one_step(self, n):
        d = delay_n(n, "a")
        assert Step(d) == delay_n(n + 1, "a")
        assert type(Step(d)) is Step
        assert Step(DIVERGE) is DIVERGE

    @pytest.mark.parametrize("n", range(1, 5))
    def test_tail_removes_one_step(self, n):
        d = delay_n(n, "a")
        assert d.tail == delay_n(n - 1, "a")
        assert type(d.tail) is (Step if n > 1 else Now)
        # stepping through with resolve and tail reaches the end in n steps
        cur, seen = resolve(d), 0
        while isinstance(cur, Step):
            cur, seen = resolve(cur.tail), seen + 1
        assert (seen, cur) == (n, Now("a"))

    def test_resolve_is_the_identity(self):
        for d in ROUND_TRIP_DELAYS + [DIVERGE]:
            assert resolve(d) is d
