"""Delay values pinned against plain step arithmetic.

Each derived behavior gets an oracle computed without the library: step
counts are integers added by hand, weak bisimilarity over finite chains
is "same value, divergence only matches divergence"."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaydist.delay import (DIVERGE, EXHAUSTED, KNOWN_DIVERGENT, NO, YES, DelayFuelError,
                             Deferred, Now, Step, Terminated, bind, defer, delay_n,
                             diverge, dmap, force, join, now, prepend_steps, reify,
                             render_delay, resolve, step, step_count, strong_equal,
                             unknown, weak_bisim)
from delaydist.freemodel import canon_key

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

    def test_diverge_is_the_marker(self):
        assert diverge() is DIVERGE


class TestForce:
    def test_exact_step_count(self):
        assert force(delay_n(3, "a"), 5) == Terminated("a", 3)

    def test_fuel_exhaustion(self):
        assert force(delay_n(3, "a"), 2) is EXHAUSTED

    def test_boundary_fuel_suffices(self):
        assert force(delay_n(3, "a"), 3) == Terminated("a", 3)

    def test_divergence_marker(self):
        assert force(diverge(), 100) is KNOWN_DIVERGENT
        assert force(Step(DIVERGE), 100) is KNOWN_DIVERGENT

    def test_deferred_chains_resolve(self):
        d = defer(lambda: Step(defer(lambda: Now("v"))))
        assert force(d, 4) == Terminated("v", 1)


class TestBindJoin:
    def test_left_unit_clause(self):
        k = lambda v: delay_n(2, v.upper())
        assert reify(bind(now("a"), k)) == delay_n(2, "A")

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

    def test_bind_suspends_at_unforced_nodes(self):
        forced = []

        def tail():
            forced.append(True)
            return Now("a")

        d = Step(defer(tail))
        out = bind(d, now)
        assert not forced  # building the bind must not run the suspension
        assert step_count(out) == 1
        assert forced


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
        x = Step(defer(lambda: Now("a")))
        y = Step(defer(lambda: Now("a")))
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
        assert weak_bisim(diverge(), now("a"), lambda u, v: u == v, 10).is_no

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

    def test_reify_materializes(self):
        lazy = defer(lambda: Step(defer(lambda: Step(Now("a")))))
        assert reify(lazy) == delay_n(2, "a")

    def test_reify_absorbs_steps_into_divergence(self):
        assert reify(Step(Step(DIVERGE))) is DIVERGE

    def test_reify_limit(self):
        def spin():
            return Step(defer(spin))

        with pytest.raises(DelayFuelError):
            reify(defer(spin), limit=50)

    def test_render(self):
        assert render_delay(delay_n(2, "a")) == "2·step ▸ a"
        assert render_delay(now("a")) == "0·step ▸ a"
        assert render_delay(DIVERGE) == "⊥"
        assert render_delay(Step(DIVERGE)) == "1·step ▸ ⊥"

    def test_deferred_forces_once(self):
        calls = []

        def thunk():
            calls.append(1)
            return Now("x")

        d = Deferred(thunk)
        assert d.peek() is None
        assert d.forced() is d.forced()
        assert calls == [1]


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
        assert (d.steps, d.end) == (2, Now("a"))
        assert Step(d) == delay_n(3, "a")
        assert d.tail == delay_n(1, "a")
        assert hash(d) == hash(delay_n(2, "a"))

    def test_steps_in_front_of_divergence_are_kept(self):
        # stepⁿ(⊥) stays apart from ⊥: only reify and bind absorb the steps
        d = Step(Step(DIVERGE))
        assert (d.steps, d.end) == (2, DIVERGE)
        assert d != DIVERGE
        assert canon_key(d) == ("dx", 2) and canon_key(DIVERGE) == ("dx", 0)
        assert reify(d) is DIVERGE
        assert bind(d, now) is DIVERGE
        assert render_delay(d) == "2·step ▸ ⊥"

    def test_fuel_zero_before_stepped_divergence(self):
        assert strong_equal(Step(DIVERGE), DIVERGE, 0) == unknown(0)
        assert strong_equal(Step(DIVERGE), DIVERGE, 1).is_yes
        assert weak_bisim(Step(DIVERGE), DIVERGE, lambda u, v: u == v, 0) == unknown(0)
        assert force(Step(DIVERGE), 0) is EXHAUSTED


# Reference loops: the observations as they were written before delays had
# a flat form, stepping one node at a time through resolve and .tail.

def _ref_force(d, fuel):
    steps = 0
    d = resolve(d)
    while True:
        if isinstance(d, Now):
            return Terminated(d.value, steps)
        if d is DIVERGE:
            return KNOWN_DIVERGENT
        if steps >= fuel:
            return EXHAUSTED
        steps += 1
        d = resolve(d.tail)


def _ref_strong_equal(x, y, fuel):
    spent = 0
    x, y = resolve(x), resolve(y)
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
            x = resolve(x.tail)
        if isinstance(y, Step):
            y = resolve(y.tail)


def _ref_weak_bisim(x, y, fuel):
    spent = 0
    x, y = resolve(x), resolve(y)
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
            x = resolve(x.tail)
        if isinstance(y, Step):
            y = resolve(y.tail)


def _lazy(n, end):
    """stepⁿ(end) with every node behind its own suspension."""
    if n == 0:
        return defer(lambda: end)
    return defer(lambda: Step(_lazy(n - 1, end)))


ends = st.one_of(st.just(DIVERGE), st.sampled_from(VALUES).map(Now))
shapes = st.tuples(st.integers(0, 6), ends)


@given(shapes, shapes, st.integers(0, 8))
@settings(max_examples=400, deadline=None)
def test_flat_and_lazy_delays_observe_alike(x, y, fuel):
    flat_x, flat_y = prepend_steps(*x), prepend_steps(*y)
    for d in (flat_x, _lazy(*x)):
        assert force(d, fuel) == _ref_force(flat_x, fuel)
        assert step_count(d) == (None if x[1] is DIVERGE else x[0])
        assert reify(d) == reify(flat_x)
        assert render_delay(d) == render_delay(flat_x)
        assert canon_key(d) == canon_key(flat_x)
        for e in (flat_y, _lazy(*y)):
            assert strong_equal(d, e, fuel) == _ref_strong_equal(flat_x, flat_y, fuel)
            assert (weak_bisim(d, e, lambda u, v: u == v, fuel)
                    == _ref_weak_bisim(flat_x, flat_y, fuel))
