"""Free-model carriers pinned against container oracles.

Lists, multisets, sets and exact-rational distributions are computed
independently with plain Python containers; the quotient carrier is
checked against a freestanding innermost rewriter written here."""

import copy
import dataclasses
import itertools
import pickle
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as ref
from delaydist import combos
from delaydist import freemodel as fm
from delaydist.delay import DIVERGE, delay_n, now
from delaydist.nogo import idempotent_unary_theory
from delaydist.theory import (App, Operation, Signature, Theory, TheorySemanticError, Var,
                              make_equation, parse_theory, validate_theory)

VALS = ("a", "b", "c")
THEORIES = Path(__file__).resolve().parent.parent / "theories"


class TestUnitAndOps:
    def test_unit_shapes(self):
        assert fm.unit(fm.monoid(), "a").payload == ("a",)
        assert fm.unit(fm.semilattice(), "a").payload == ("a",)
        assert fm.unit(fm.convex(), "a").payload == (("a", Fraction(1)),)
        assert fm.unit(fm.exceptions(), "a").payload == ("val", "a")
        assert fm.unit(fm.magma(), "a").payload == ("leaf", "a")

    def test_monoid_is_list_concat(self):
        th = fm.monoid()
        xs = [fm.unit(th, v) for v in VALS]
        m = fm.apply_op(th, "mul", [fm.apply_op(th, "mul", [xs[0], xs[1]]), xs[2]])
        assert list(m.payload) == ["a", "b", "c"]  # oracle: list concatenation
        assert fm.apply_op(th, "unit", []).payload == ()

    def test_cmonoid_is_multiset(self):
        th = fm.cmonoid()
        ab = fm.apply_op(th, "mul", [fm.unit(th, "b"), fm.unit(th, "a")])
        ba = fm.apply_op(th, "mul", [fm.unit(th, "a"), fm.unit(th, "b")])
        assert Counter(ab.payload) == Counter(("a", "b"))  # oracle: Counter
        assert ab.payload == ba.payload

    def test_semilattice_is_finite_set(self):
        th = fm.semilattice()
        x, y = fm.unit(th, "x"), fm.unit(th, "y")
        u = fm.apply_op(th, "union", [x, fm.apply_op(th, "union", [y, x])])
        assert set(u.payload) == {"x", "y"}  # oracle: Python set
        assert len(u.payload) == 2

    def test_convex_is_exact_mixture(self):
        th = fm.convex()
        a, b = fm.unit(th, "a"), fm.unit(th, "b")
        half = fm.apply_op(th, "mix[1/2]", [a, b])
        assert dict(half.payload) == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        again = fm.apply_op(th, "mix[1/2]", [half, a])
        # oracle: 1/2·{a:1/2, b:1/2} + 1/2·{a:1}
        assert dict(again.payload) == {"a": Fraction(3, 4), "b": Fraction(1, 4)}

    def test_convex_idempotence_collapses(self):
        th = fm.convex()
        a = fm.unit(th, "a")
        assert fm.apply_op(th, "mix[1/2]", [a, a]).payload == ((("a", Fraction(1))),)

    def test_values_ordered_by_address_are_refused(self):
        # the repr of a class that keeps object's is its memory address,
        # which would order a finset or multiset differently in each run
        class Plain:
            pass

        for th, op in ((fm.semilattice(), "union"), (fm.cmonoid(), "mul")):
            with pytest.raises(TypeError, match="^values of type Plain have no canonical order"):
                fm.apply_op(th, op, [fm.unit(th, Plain()), fm.unit(th, Plain())])
        # the combination leaves have reprs of their own, so they are ordered
        leaves = [combos.DIV_LEAF, combos.PureLeaf("a"),
                  combos.LaterLeaf(fm.unit(fm.monoid(), "b"))]
        th = fm.semilattice()
        m = fm.apply_op(th, "union", [fm.unit(th, leaves[0]), fm.unit(th, leaves[1])])
        m = fm.apply_op(th, "union", [m, fm.unit(th, leaves[2])])
        assert m.payload == tuple(sorted(leaves, key=repr))

    def test_magma_keeps_shape(self):
        th = fm.magma()
        x = fm.unit(th, "x")
        l = fm.apply_op(th, "mul", [fm.apply_op(th, "mul", [x, x]), x])
        r = fm.apply_op(th, "mul", [x, fm.apply_op(th, "mul", [x, x])])
        assert l.payload != r.payload  # no associativity in the free magma


class TestEvalTerm:
    def test_semilattice_idempotence(self):
        th = fm.semilattice()
        x = Var("x")
        env = {"x": fm.unit(th, "a")}
        assert fm.eval_term(th, App("union", (x, x)), env).payload == ("a",)

    def test_convex_weighted_mixture(self):
        th = fm.convex()
        t = App("mix[1/2]", (Var("x"), Var("y")))
        env = {"x": fm.unit(th, "a"), "y": fm.unit(th, "b")}
        assert dict(fm.eval_term(th, t, env).payload) == \
            {"a": Fraction(1, 2), "b": Fraction(1, 2)}

    def test_every_builtin_equation_holds(self):
        # each theory's own equations, on all assignments from 3 generators
        for th in (fm.magma(), fm.monoid(), fm.cmonoid(), fm.semilattice(),
                   fm.convex(), fm.exceptions()):
            pool = fm.enumerate_elements(th, VALS, 1)
            for eq in th.equations:
                for assignment in itertools.product(pool, repeat=len(eq.context)):
                    env = dict(zip(eq.context, assignment))
                    lhs = fm.eval_term(th, eq.lhs, env)
                    rhs = fm.eval_term(th, eq.rhs, env)
                    assert fm.model_equal(th, lhs, rhs).is_yes, (th.name, eq.name)


class TestBind:
    def test_list_bind(self):
        th = fm.monoid()
        m = fm.apply_op(th, "mul", [fm.unit(th, "a"), fm.unit(th, "b")])
        out = fm.free_bind(th, m, lambda v: fm.apply_op(th, "mul",
                                                        [fm.unit(th, v), fm.unit(th, v)]))
        assert list(out.payload) == ["a", "a", "b", "b"]

    def test_finset_bind_dedups(self):
        th = fm.semilattice()
        m = fm.apply_op(th, "union", [fm.unit(th, "a"), fm.unit(th, "b")])
        out = fm.free_bind(th, m, lambda v: fm.unit(th, "c"))
        assert out.payload == ("c",)

    def test_dist_bind_total_probability(self):
        th = fm.convex()
        m = fm.apply_op(th, "mix[1/2]", [fm.unit(th, "a"), fm.unit(th, "b")])
        out = fm.free_bind(th, m, lambda v: fm.unit(th, "c"))
        assert dict(out.payload) == {"c": Fraction(1)}

    def test_exceptions_bind_short_circuits(self):
        th = fm.exceptions()
        exc = fm.apply_op(th, "e0", [])
        assert fm.free_bind(th, exc, lambda v: fm.unit(th, "z")).payload == ("exc", "e0")
        ok = fm.unit(th, "a")
        assert fm.free_bind(th, ok, lambda v: exc).payload == ("exc", "e0")

    def test_monad_laws_small_universes(self):
        for th in (fm.monoid(), fm.cmonoid(), fm.semilattice(), fm.convex(),
                   fm.magma(), fm.exceptions()):
            pool = fm.enumerate_elements(th, ("a", "b"), 1)
            assert len(pool) <= 30
            k = lambda v: fm.unit(th, v.upper())
            h_img = {vv: fm.unit(th, vv * 2) for vv in ("A", "B")}
            h = lambda v: h_img[v]
            for v in ("a", "b"):
                assert fm.model_equal(th, fm.free_bind(th, fm.unit(th, v), k),
                                      k(v)).is_yes
            for m in pool:
                assert fm.model_equal(th, fm.free_bind(th, m, lambda v: fm.unit(th, v)),
                                      m).is_yes
                lhs = fm.free_bind(th, fm.free_bind(th, m, k), h)
                rhs = fm.free_bind(th, m, lambda v: fm.free_bind(th, k(v), h))
                assert fm.model_equal(th, lhs, rhs).is_yes


class TestModelEqual:
    def test_canonical_decisive(self):
        th = fm.cmonoid()
        ab = fm.apply_op(th, "mul", [fm.unit(th, "a"), fm.unit(th, "b")])
        ba = fm.apply_op(th, "mul", [fm.unit(th, "b"), fm.unit(th, "a")])
        assert fm.model_equal(th, ab, ba).is_yes
        assert fm.model_equal(th, ab, fm.unit(th, "a")).is_no

    def test_dist_exact(self):
        th = fm.convex()
        a, b = fm.unit(th, "a"), fm.unit(th, "b")
        m1 = fm.apply_op(th, "mix[1/2]", [a, b])
        m2 = fm.apply_op(th, "mix[1/2]", [b, a])
        assert fm.model_equal(th, m1, m2).is_yes

    def test_mixed_carriers_rejected(self):
        with pytest.raises(ValueError):
            fm.model_equal(fm.monoid(), fm.unit(fm.monoid(), "a"),
                           fm.unit(fm.cmonoid(), "a"))

    def test_equivalence_on_small_universe(self):
        th = fm.semilattice()
        pool = fm.enumerate_elements(th, ("a", "b"), 2)
        rel = {}
        for m1, m2 in itertools.product(pool, repeat=2):
            rel[(id(m1), id(m2))] = fm.model_equal(th, m1, m2).is_yes
        for m in pool:
            assert rel[(id(m), id(m))]
        for m1, m2 in itertools.product(pool, repeat=2):
            assert rel[(id(m1), id(m2))] == rel[(id(m2), id(m1))]

    def test_quotient_three_valued(self):
        # commutativity alone: joinable pairs say yes, others unknown
        th = _comm_only()
        a, b = fm.unit(th, "a"), fm.unit(th, "b")
        ab = fm.apply_op(th, "mul", [a, b])
        ba = fm.apply_op(th, "mul", [b, a])
        assert fm.model_equal(th, ab, ba).is_yes
        assert fm.model_equal(th, ab, fm.apply_op(th, "mul", [a, a])).is_unknown

    def test_registered_finite_model_refutes(self):
        th = _comm_only_xor()
        a, b = fm.unit(th, "a"), fm.unit(th, "b")
        ab = fm.apply_op(th, "mul", [a, b])
        aa = fm.apply_op(th, "mul", [a, a])
        assert fm.model_equal(th, ab, aa).is_no

    def test_joinability_bound_counts_steps_per_side(self):
        # f and g erase themselves one layer per step, so f^n(a) and g^m(a)
        # meet at a iff both n and m are within the bound
        th = parse_theory("theory erase\nop f : 1\nop g : 1\n"
                          "eq ef : f(x) = x\neq eg : g(x) = x")

        def tower(op, n):
            m = fm.unit(th, "a")
            for _ in range(n):
                m = fm.apply_op(th, op, [m])
            return m

        bound = fm.JOINABILITY_BOUND
        assert fm.model_equal(th, tower("f", bound), tower("g", bound)).is_yes
        assert fm.model_equal(th, tower("f", bound + 1), tower("g", bound)).is_unknown
        assert fm.model_equal(th, tower("f", bound + 1), tower("g", bound + 1),
                              join_bound=bound + 1).is_yes


GROW = "theory grow\nop f : 2\nop g : 1\neq grow : g(y) = f(g(y), g(y))\n"
JOIN_THEORIES = {**{name: (THEORIES / name).read_text(encoding="utf-8")
                    for name in ("band.th", "idempotent_unary.th", "leftzero.th")},
                 "grow": GROW}


def _payloads(th):
    """Ground payload terms over the leaves a and b and the theory's
    operations."""
    ops = th.signature.ops
    base = st.sampled_from([("leaf", "a"), ("leaf", "b")]
                           + [(op.name,) for op in ops if op.arity == 0])
    return st.recursive(base, lambda kids: st.one_of(
        [st.tuples(st.just(op.name), *[kids] * op.arity) for op in ops if op.arity > 0]),
        max_leaves=5)


def _rewrite_walk(th, p, choices):
    """``p`` rewritten one step per choice, each choice picking among the
    term's one-step rewrites, until a term has none."""
    for c in choices:
        rewrites = fm._rewrite_positions(th, p)
        if not rewrites:
            break
        p = rewrites[c % len(rewrites)]
    return p


class TestLockstepJoinability:
    """``_joinable`` grows both sides a level at a time and stops at the
    first common term; its answers are those of the two full reach sets."""

    @pytest.mark.parametrize("name", sorted(JOIN_THEORIES))
    def test_agrees_with_the_full_reach_sets(self, name):
        th = parse_theory(JOIN_THEORIES[name])
        terms = _payloads(th)
        steps = st.lists(st.integers(0, 7), max_size=4)
        # unrelated terms, and two rewrite walks from one term, which
        # often join within the bound or just past it
        walks = st.builds(lambda p, w1, w2: (_rewrite_walk(th, p, w1), _rewrite_walk(th, p, w2)),
                          terms, steps, steps)
        pairs = st.one_of(st.tuples(terms, terms), walks)

        @settings(max_examples=120, deadline=None)
        @given(pair=pairs, bound=st.integers(0, 3))
        def agree(pair, bound):
            p1, p2 = pair
            assert fm._joinable(th, p1, p2, bound) == ref.reference_joinable(th, p1, p2, bound)

        agree()

    def test_each_side_joins_itself_and_its_reducts(self):
        th = parse_theory(GROW)
        g = ("g", ("leaf", "a"))
        for bound in range(4):
            assert fm._joinable(th, g, g, bound)
            assert fm._joinable(th, ("f", g, g), g, bound) == (bound > 0)

    def test_a_one_step_join_stops_after_one_level(self, monkeypatch):
        # the full 8-step closures of both sides hold thousands of terms
        th = parse_theory(GROW)
        a = fm.unit(th, "a")
        g = fm.apply_op(th, "g", [a])
        fgg = fm.apply_op(th, "f", [g, g])
        calls = 0
        rewrite_positions = fm._rewrite_positions

        def counting(th, p):
            nonlocal calls
            calls += 1
            return rewrite_positions(th, p)

        monkeypatch.setattr(fm, "_rewrite_positions", counting)
        assert fm.model_equal(th, g, fgg).is_yes
        assert 0 < calls <= 3


class TestRuleIndex:
    """The quotient carrier tries at each node only the rules headed by
    its operation; the rewrites and their order are those of trying every
    equation in declaration order."""

    @pytest.mark.parametrize("name", sorted(JOIN_THEORIES) + ["comm_only"])
    def test_rewrites_are_the_equation_scan(self, name):
        th = _comm_only() if name == "comm_only" else parse_theory(JOIN_THEORIES[name])
        terms = _payloads(th)
        # a node whose arguments coincide, where a rule like mul(x, x) = x
        # and another rule for the same operation both apply at the root
        twins = terms.flatmap(lambda t: st.sampled_from(
            [(op.name,) + (t,) * op.arity for op in th.signature.ops if op.arity]))

        @settings(max_examples=150, deadline=None)
        @given(p=st.one_of(terms, twins))
        def agree(p):
            assert fm._rewrite_positions(th, p) == ref.reference_rewrite_positions(th, p)

        agree()

    def test_band_tries_its_rules_in_declaration_order(self):
        th = parse_theory(JOIN_THEORIES["band.th"])
        ab = ("mul", ("leaf", "a"), ("leaf", "b"))
        # assoc, then idem, at the root
        assert fm._rewrite_positions(th, ("mul", ab, ab))[:2] == [
            ("mul", ("leaf", "a"), ("mul", ("leaf", "b"), ab)), ab]


class TestReservedLeaf:
    """Term payloads tag their leaves ``leaf``, so an operation of that
    name would build nodes that read as leaves."""

    @pytest.mark.parametrize("oracle", [None, "tree"])
    def test_an_operation_named_leaf_is_refused(self, oracle):
        th = dataclasses.replace(parse_theory("theory tagged\nop leaf : 1\n"), oracle=oracle)
        with pytest.raises(TheorySemanticError, match="operation 'leaf'") as err:
            fm.unit(th, "a")
        assert err.value.name == "leaf"


# freestanding innermost rewriter used as the quotient-normalization oracle
def _oracle_normalize(th, p):
    if p[0] == "leaf":
        return p
    args = tuple(_oracle_normalize(th, a) for a in p[1:])
    t = (p[0],) + args
    while True:
        for eq in th.equations:
            b = _oracle_match(eq.lhs, t, {})
            if b is not None:
                t = _oracle_inst(eq.rhs, b)
                t = _oracle_normalize(th, t) if t[0] != "leaf" else t
                break
        else:
            return t


def _oracle_match(pat, p, b):
    if isinstance(pat, Var):
        if pat.name in b:
            return b if b[pat.name] == p else None
        return {**b, pat.name: p}
    if p[0] == "leaf" or p[0] != pat.op or len(p) - 1 != len(pat.args):
        return None
    for sp, sq in zip(pat.args, p[1:]):
        b = _oracle_match(sp, sq, b)
        if b is None:
            return None
    return b


def _oracle_inst(t, b):
    if isinstance(t, Var):
        return b[t.name]
    return (t.op,) + tuple(_oracle_inst(a, b) for a in t.args)


def _rewrite_complete_theory():
    x = Var("x")
    th = Theory(Signature("idem_bang", (Operation("mul", 2), Operation("bang", 1))),
                (make_equation("idem", App("mul", (x, x)), x),),
                rewrite_complete=True)
    validate_theory(th)
    return th


class TestQuotientNormalization:
    def test_outputs_are_normal_forms(self):
        th = _rewrite_complete_theory()
        pool = fm.enumerate_elements(th, ("a", "b"), 2)
        assert pool, "enumeration came back empty"
        for m in pool:
            assert m.payload == _oracle_normalize(th, m.payload)

    def test_apply_op_matches_oracle(self):
        th = _rewrite_complete_theory()
        pool = fm.enumerate_elements(th, ("a", "b"), 1)
        for m1, m2 in itertools.product(pool, repeat=2):
            got = fm.apply_op(th, "mul", [m1, m2]).payload
            want = _oracle_normalize(th, ("mul", m1.payload, m2.payload))
            assert got == want

    def test_bind_matches_oracle(self):
        th = _rewrite_complete_theory()
        pool = fm.enumerate_elements(th, ("a", "b"), 2)
        targets = fm.enumerate_elements(th, ("c", "d"), 1)
        table = {"a": targets[0], "b": targets[-1]}

        def graft(p):
            if p[0] == "leaf":
                return table[p[1]].payload
            return (p[0],) + tuple(graft(a) for a in p[1:])

        for m in pool:
            got = fm.free_bind(th, m, lambda v: table[v]).payload
            assert got == _oracle_normalize(th, graft(m.payload))

    def test_decisive_no_from_distinct_normal_forms(self):
        th = _rewrite_complete_theory()
        a, b = fm.unit(th, "a"), fm.unit(th, "b")
        assert fm.model_equal(th, fm.apply_op(th, "mul", [a, b]), a).is_no
        assert fm.model_equal(th, fm.apply_op(th, "mul", [a, a]), a).is_yes


class TestEnumeration:
    def test_semilattice_four_elements(self):
        th = fm.semilattice()
        pool = fm.enumerate_elements(th, ("x", "y"), 2)
        assert sorted(set(p.payload for p in pool)) == \
            sorted({(), ("x",), ("y",), ("x", "y")})

    def test_magma_single_generator_depth_two(self):
        th = fm.magma()
        pool = fm.enumerate_elements(th, ("x",), 2)
        assert len(pool) == 5  # x, xx, (xx)x, x(xx), (xx)(xx)

    def test_dist_depth_one(self):
        th = fm.convex()
        pool = fm.enumerate_elements(th, ("x", "y"), 1)
        payloads = {dict(p.payload) and tuple(sorted(dict(p.payload).items()))
                    for p in pool}
        assert payloads == {
            (("x", Fraction(1)),),
            (("y", Fraction(1)),),
            (("x", Fraction(1, 2)), ("y", Fraction(1, 2))),
        }

    def test_budget_enforced(self):
        th = fm.magma()
        with pytest.raises(Exception):
            fm.enumerate_elements(th, ("a", "b", "c"), 3, max_elements=50)


# the round-by-round enumeration written plainly: every round re-applies
# every operation to every tuple of the elements so far, and a new element
# is kept unless it is provably equal to one already kept
def _eager_elements(th, generators, max_depth):
    elems = []

    def add(m):
        if not any(fm.model_equal(th, have, m).is_yes for have in elems):
            elems.append(m)

    for g in generators:
        add(fm.unit(th, g))
    for op in th.signature.ops:
        if op.arity == 0:
            add(fm.apply_op(th, op.name, []))
    for _ in range(max_depth):
        snapshot = list(elems)
        for op in th.signature.ops:
            if op.arity:
                for args in itertools.product(snapshot, repeat=op.arity):
                    add(fm.apply_op(th, op.name, list(args)))
        if len(elems) == len(snapshot):
            break
    return elems


def _band():
    return parse_theory("theory band\nop mul : 2\n"
                        "eq assoc : mul(mul(x, y), z) = mul(x, mul(y, z))\n"
                        "eq idem : mul(x, x) = x")


def _comm_only():
    return parse_theory("theory comm_only\nop mul : 2\neq comm : mul(x, y) = mul(y, x)")


def _comm_only_xor():
    base = _comm_only()
    xor = fm.finite_model("xor", (0, 1), {
        "mul": {(i, j): i ^ j for i in (0, 1) for j in (0, 1)}})
    return Theory(base.signature, base.equations, finite_models=(xor,))


def _expanding():
    # f(a) is kept in round one; g(g(a)) comes later and joins it only
    # through f(a)'s reducts
    return parse_theory("theory expanding\nop f : 1\nop g : 1\neq e : f(x) = g(g(x))")


def _theory_file(name):
    return lambda: parse_theory((THEORIES / f"{name}.th").read_text(encoding="utf-8"))


class TestStreaming:
    @pytest.mark.parametrize("make,depth", [
        (fm.magma, 2), (fm.monoid, 2), (fm.cmonoid, 2), (fm.semilattice, 2),
        (fm.convex, 2), (fm.exceptions, 2), (_band, 2), (_rewrite_complete_theory, 2),
        (_theory_file("leftzero"), 2), (_theory_file("idempotent_unary"), 2),
        (_comm_only, 2), (_comm_only_xor, 2), (_expanding, 2),
    ], ids=["tree", "list", "multiset", "finset", "dist", "either", "quotient",
            "quotient-complete", "quotient-leftzero", "quotient-idempotent-unary",
            "quotient-comm", "quotient-comm-xor", "quotient-expanding"])
    def test_stream_order_matches_plain_enumeration(self, make, depth):
        th = make()
        want = _eager_elements(th, ("a", "b"), depth)
        # generators may arrive as a one-shot stream
        streamed = list(fm.iter_elements(th, iter(("a", "b")), depth))
        assert [m.payload for m in streamed] == [m.payload for m in want]
        assert [m.payload for m in fm.enumerate_elements(th, ("a", "b"), depth)] == \
            [m.payload for m in want]

    def test_each_candidate_closure_is_expanded_once(self, monkeypatch):
        th = _band()
        rewrites = 0
        real_rewrite = fm._rewrite_positions

        def counted(th_, p):
            nonlocal rewrites
            rewrites += 1
            return real_rewrite(th_, p)

        candidates = []
        real_unit, real_apply = fm.unit, fm.apply_op

        def unit(th_, g):
            candidates.append(real_unit(th_, g))
            return candidates[-1]

        def apply_op(th_, op, args):
            candidates.append(real_apply(th_, op, args))
            return candidates[-1]

        monkeypatch.setattr(fm, "_rewrite_positions", counted)
        monkeypatch.setattr(fm, "unit", unit)
        monkeypatch.setattr(fm, "apply_op", apply_op)
        kept = list(fm.iter_elements(th, ("a", "b"), 2))
        spent = rewrites

        def closure_cost(p):
            # rewrite calls of one plain breadth-first closure walk
            nonlocal rewrites
            rewrites = 0
            seen, frontier = {p}, [p]
            for _ in range(fm.JOINABILITY_BOUND):
                nxt = []
                for t in frontier:
                    for r in fm._rewrite_positions(th, t):
                        if r not in seen:
                            seen.add(r)
                            nxt.append(r)
                frontier = nxt
            return rewrites

        assert (len(candidates), len(kept)) == (18, 10)
        # at most one closure per candidate, however many elements are kept
        budget = sum(closure_cost(m.payload) for m in candidates)
        assert 0 < spent <= budget

    @settings(max_examples=200, deadline=None)
    @given(arity=st.integers(1, 3), n=st.integers(0, 7), data=st.data())
    def test_fresh_tuples_are_the_filtered_product(self, arity, n, data):
        stale = data.draw(st.integers(0, n), label="stale")
        want = [t for t in itertools.product(range(n), repeat=arity)
                if any(i >= stale for i in t)]
        assert list(fm._fresh_index_tuples(n, stale, arity)) == want

    def test_a_ternary_theory_enumerates_as_the_filtered_product(self, monkeypatch):
        # every round applies each operation to every tuple of the elements
        # so far that uses one from the last round, in itertools.product
        # order, and keeps what is new
        th = parse_theory("theory ternary\nop k : 0\nop t : 3\nop u : 1")
        calls = []
        real_apply = fm.apply_op

        def apply_op(th_, op, args):
            calls.append((op, tuple(args)))
            return real_apply(th_, op, args)

        monkeypatch.setattr(fm, "apply_op", apply_op)
        got = list(fm.iter_elements(th, ("a",), 2))
        got_calls, calls[:] = list(calls), []
        elems, seen, stale = [fm.unit(th, "a"), fm.apply_op(th, "k", [])], set(), 0
        seen.update(elems)
        for _ in range(2):
            snapshot = list(elems)
            for op, arity in (("t", 3), ("u", 1)):
                for idxs in itertools.product(range(len(snapshot)), repeat=arity):
                    if all(i < stale for i in idxs):
                        continue
                    m = fm.apply_op(th, op, [snapshot[i] for i in idxs])
                    if m not in seen:
                        seen.add(m)
                        elems.append(m)
            stale = len(snapshot)
        assert [m.payload for m in got] == [m.payload for m in elems]
        assert got_calls == calls
        assert len(got) == 2 + (2 ** 3 + 2) + (12 ** 3 - 2 ** 3) + (12 - 2)

    def test_budget_fires_when_the_stream_crosses_it(self):
        th = fm.magma()
        head = list(itertools.islice(fm.iter_elements(th, ("a", "b", "c"), 3, 50), 50))
        assert len(head) == 50
        with pytest.raises(fm.EnumerationBudgetError):
            list(fm.iter_elements(th, ("a", "b", "c"), 3, 50))


class TestBuiltinLookup:
    def test_names(self):
        assert fm.builtin_theory("magma").name == "magma"
        assert fm.builtin_theory("exceptions(E=3)").signature.arity("e2") == 0
        assert fm.builtin_theory("convex(1/3)").signature.arity("mix[1/3]") == 2

    def test_unknown(self):
        from delaydist.theory import TheorySemanticError
        with pytest.raises(TheorySemanticError):
            fm.builtin_theory("frobnitz")

    def test_rendering(self):
        th = fm.semilattice()
        x, y = fm.unit(th, "x"), fm.unit(th, "y")
        assert fm.value_str(fm.apply_op(th, "union", [x, y])) == "{x, y}"
        assert fm.value_str(fm.apply_op(th, "empty", [])) == "∅"


@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=6),
       st.lists(st.sampled_from("ab"), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_monoid_concat_homomorphism(u, v):
    th = fm.monoid()

    def embed(values):
        out = fm.apply_op(th, "unit", [])
        for x in values:
            out = fm.apply_op(th, "mul", [out, fm.unit(th, x)])
        return out

    joined = fm.apply_op(th, "mul", [embed(u), embed(v)])
    assert list(joined.payload) == u + v


# ---------------------------------------------------------------------------
# the carrier classes against the string-dispatch reference in conftest


def _file_theory(name, **changes):
    th = parse_theory((THEORIES / f"{name}.th").read_text(encoding="utf-8"))
    return dataclasses.replace(th, **changes)


# every built-in theory, and two theory files on the quotient carrier: the
# parser never marks a file rewrite-complete, so leftzero (one rule, no
# overlaps) is marked by hand, and band stays incomplete
REFERENCE_THEORIES = [
    fm.magma, fm.monoid, fm.cmonoid, fm.semilattice, fm.convex,
    lambda: fm.convex([Fraction(1, 3), Fraction(2, 3)]), fm.exceptions,
    idempotent_unary_theory, lambda: _file_theory("leftzero", rewrite_complete=True),
    lambda: _file_theory("band"),
]
REFERENCE_IDS = ["magma", "monoid", "cmonoid", "semilattice", "convex", "convex-thirds",
                 "exceptions", "idempotent-unary", "leftzero-complete", "band"]
# strings, delays of each shape and a nested element, so every branch of
# canon_key and of rendering is reached
GENERATORS = ("a", now("b"), delay_n(2, "a"), DIVERGE, fm.unit(fm.monoid(), "c"))


def _twins(th, depth):
    """Every element built from GENERATORS by at most ``depth`` rounds of
    operations, each built twice, by the carriers and by the reference,
    as (carrier-built, reference-built) pairs, first occurrences only."""
    pairs = [(fm.unit(th, g), ref.reference_unit(th, g)) for g in GENERATORS]
    pairs += [(fm.apply_op(th, op.name, []), ref.reference_apply_op(th, op.name, []))
              for op in th.signature.ops if op.arity == 0]
    for _ in range(depth):
        layer = list(pairs)
        for op in th.signature.ops:
            for combo in itertools.product(layer, repeat=op.arity) if op.arity else ():
                pairs.append((fm.apply_op(th, op.name, [n for n, _ in combo]),
                              ref.reference_apply_op(th, op.name, [r for _, r in combo])))
        kept = {}
        for n, r in pairs:
            kept.setdefault(repr(r.payload), (n, r))
        pairs = list(kept.values())
    return pairs


def _assert_same(n, r):
    """Byte for byte: payload, render, representative, values and key."""
    assert (n.kind, repr(n.payload)) == (r.kind, repr(r.payload))
    assert n == r and hash(n) == hash(r)
    assert str(n) == fm.value_str(n) == ref.reference_render_element(r)
    assert repr(fm.representative(n)) == repr(ref.reference_representative(r))
    assert repr(fm.values_of(n)) == repr(ref.reference_values_of(r))
    assert repr(fm.canon_key(n)) == repr(ref.reference_canon_key(r))


class TestAgainstStringDispatch:
    @pytest.mark.parametrize("make", REFERENCE_THEORIES, ids=REFERENCE_IDS)
    def test_elements_match_the_reference(self, make):
        th = make()
        pairs = _twins(th, 2)
        assert len(pairs) > len(GENERATORS) or not any(op.arity for op in th.signature.ops)
        for n, r in pairs:
            _assert_same(n, r)
        # a second pass reads the hash and key each element has cached
        for n, r in pairs:
            _assert_same(n, r)

    @pytest.mark.parametrize("make", REFERENCE_THEORIES, ids=REFERENCE_IDS)
    def test_bind_and_flatten_match_the_reference(self, make):
        th = make()
        pairs = _twins(th, 2)
        # two values share a target, so grafting makes new redexes (for
        # mul(x, x) = x), and one target is the first element past the
        # generators: a constant where there is one (for mul(zero, y) = zero)
        targets = [pairs[-1], pairs[-1], pairs[min(len(GENERATORS), len(pairs) - 1)],
                   pairs[0], pairs[-2]]
        slot = {repr(g): i for i, g in enumerate(GENERATORS)}

        def k_new(v):
            return targets[slot[repr(v)]][0]

        def k_ref(v):
            return targets[slot[repr(v)]][1]

        for n, r in pairs:
            _assert_same(fm.free_bind(th, n, k_new), ref.reference_free_bind(th, r, k_ref))
            nested_new = fm.fmap(th, k_new, n)
            nested_ref = ref.reference_free_bind(th, r, lambda v: ref.reference_unit(th, k_ref(v)))
            _assert_same(nested_new, nested_ref)
            _assert_same(fm.mu(th, nested_new), ref.reference_mu(th, nested_ref))

    @pytest.mark.parametrize("make", REFERENCE_THEORIES, ids=REFERENCE_IDS)
    def test_model_equal_matches_the_reference(self, make):
        th = make()
        pairs = _twins(th, 1)[:24]
        for (n1, r1), (n2, r2) in itertools.product(pairs, repeat=2):
            assert fm.model_equal(th, n1, n2) == ref.reference_model_equal(th, r1, r2)

    @pytest.mark.parametrize("make,op,nargs", [
        (fm.convex, "plus", 2), (fm.convex, "mix[1/2]", 1), (fm.convex, "mix[1/2]", 3),
        (fm.convex, "mix[1/3]", 1), (fm.monoid, "frob", 0), (fm.monoid, "mul", 1),
        (fm.exceptions, "e0", 1), (_band, "mul", 3),
    ])
    def test_operation_errors_match_the_reference(self, make, op, nargs):
        th = make()
        args = [fm.unit(th, "a")] * nargs
        with pytest.raises(TheorySemanticError) as got:
            fm.apply_op(th, op, args)
        with pytest.raises(TheorySemanticError) as want:
            ref.reference_apply_op(th, op, args)
        assert (str(got.value), got.value.name) == (str(want.value), want.value.name)

    def test_dist_error_messages(self):
        th = fm.convex()
        a = fm.unit(th, "a")
        with pytest.raises(TheorySemanticError,
                           match=r"^operation 'plus' has no distribution semantics$"):
            fm.apply_op(th, "plus", [a, a])
        with pytest.raises(TheorySemanticError, match=r"^'mix\[1/2\]' expects 2 arguments, got 1$"):
            fm.apply_op(th, "mix[1/2]", [a])

    def test_undeclared_mix_weight_still_mixes(self):
        th = fm.convex()
        a, b = fm.unit(th, "a"), fm.unit(th, "b")
        _assert_same(fm.apply_op(th, "mix[1/3]", [a, b]),
                     ref.reference_apply_op(th, "mix[1/3]", [a, b]))


class TestModelElementContract:
    def test_fields_stay_frozen_once_hash_and_key_are_cached(self):
        th = fm.cmonoid()
        m = fm.apply_op(th, "mul", [fm.unit(th, "b"), fm.unit(th, "a")])
        for cached in (False, True):
            if cached:
                hash(m)
                fm.canon_key(m)
            for name in ("kind", "payload", "theory", "carrier"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(m, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(m, name)
        assert (m.kind, m.payload, m.theory) == ("multiset", ("a", "b"), th)

    def test_the_theory_takes_no_part_in_equality_or_hash(self):
        payload = (("x", Fraction(1, 2)), ("y", Fraction(1, 2)))
        a = fm.ModelElement("dist", payload, fm.convex())
        b = fm.ModelElement("dist", payload, fm.convex())
        c = fm.ModelElement("dist", payload, fm.convex([Fraction(1, 3), Fraction(1, 2)]))
        assert a.theory is not b.theory and a.theory != c.theory
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert fm.canon_key(a) == fm.canon_key(c)

    def test_equal_payloads_of_different_kinds_differ(self):
        elems = [fm.ModelElement(kind, ("x",), th) for kind, th in (
            ("list", fm.monoid()), ("multiset", fm.cmonoid()), ("finset", fm.semilattice()))]
        for e1, e2 in itertools.combinations(elems, 2):
            assert e1 != e2
        assert len(set(elems)) == 3
        assert [e.kind for e in elems] == ["list", "multiset", "finset"]

    def test_unknown_kind_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="unknown carrier kind 'bogus'"):
            fm.ModelElement("bogus", (), fm.monoid())

    def test_only_the_theorys_own_kind_is_constructed(self):
        for kind, th in (("multiset", fm.monoid()), ("list", fm.cmonoid()),
                         ("tree", ref.CARRIERS["quotient"]), ("quotient", fm.magma())):
            own = fm._carrier_of(th).kind
            with pytest.raises(ValueError, match=f"has '{own}' elements, not '{kind}'$"):
                fm.ModelElement(kind, ("leaf", "x") if own == "tree" else ("x",), th)

    @pytest.mark.parametrize("weights", [
        (Fraction(1), Fraction(1, 2)),     # sums past 1
        (Fraction(1, 2),),                 # sums short of 1
        (Fraction(3, 2), Fraction(-1, 2)),  # sums to 1 through a negative weight
        (Fraction(1), Fraction(0)),        # a zero weight
        (1,),                              # not a Fraction
        (),                                # nothing to sum
    ])
    def test_dist_payloads_are_checked_at_construction(self, weights):
        th = fm.convex()
        payload = tuple(zip((now("a"), now("b")), weights))
        with pytest.raises(ValueError, match="positive Fractions summing to 1"):
            fm.ModelElement("dist", payload, th)

    @pytest.mark.parametrize("payload", [("foo", "e0"), ("val",), "val", ("val", "a", "b"),
                                         # exceptions the theory does not declare
                                         ("exc", "zzz"), ("exc", "e2"), ("exc", ("e0",))])
    def test_either_payloads_are_checked_at_construction(self, payload):
        with pytest.raises(ValueError, match="^either payload (must be|.* does not declare$)"):
            fm.ModelElement("either", payload, fm.exceptions(2))

    @pytest.mark.parametrize("payload", [
        (), "leaf", ("leaf",), ("leaf", "a", "b"), (("leaf", "a"),), ("mul", ("leaf", "a"), "b"),
    ])
    def test_terms_must_be_leaves_or_nodes(self, payload):
        with pytest.raises(ValueError, match="is not"):
            fm.ModelElement("tree", payload, fm.magma())

    # (theory, a payload out of canonical form, the element the carrier
    # builds for it), one per kind whose carrier decides equality by payload
    NON_CANONICAL = {
        "finset-order": (fm.semilattice, ("b", "a"), lambda th: fm.apply_op(
            th, "union", [fm.unit(th, "b"), fm.unit(th, "a")])),
        "finset-repeat": (fm.semilattice, ("a", "a"), lambda th: fm.unit(th, "a")),
        "multiset": (fm.cmonoid, ("b", "a"), lambda th: fm.apply_op(
            th, "mul", [fm.unit(th, "b"), fm.unit(th, "a")])),
        "dist": (fm.convex, (("b", Fraction(1, 2)), ("a", Fraction(1, 2))),
                 lambda th: fm.apply_op(th, "mix[1/2]", [fm.unit(th, "b"), fm.unit(th, "a")])),
        "quotient": (idempotent_unary_theory, ("mul", ("leaf", "a"), ("leaf", "a")),
                     lambda th: fm.unit(th, "a")),
    }

    @pytest.mark.parametrize("name", NON_CANONICAL)
    def test_non_canonical_payloads_are_refused_at_construction(self, name):
        make_theory, scrambled, build = self.NON_CANONICAL[name]
        th = make_theory()
        built = build(th)
        kind = fm._carrier_of(th).kind
        with pytest.raises(ValueError, match="is not in canonical form"):
            fm.ModelElement(kind, scrambled, th)
        twin = fm.ModelElement(kind, built.payload, th)
        assert twin == built and fm.model_equal(th, twin, built).is_yes
        assert pickle.loads(pickle.dumps(built)) == built

    def test_terms_kept_as_built_accept_any_payload(self):
        # a tree carrier, and a quotient carrier that is not rewrite
        # complete, compare terms by more than their payloads
        file_theory = parse_theory((THEORIES / "idempotent_unary.th").read_text(encoding="utf-8"))
        payload = ("mul", ("leaf", "a"), ("leaf", "a"))
        for th in (fm.magma(), file_theory):
            m = fm.ModelElement(fm._carrier_of(th).kind, payload, th)
            assert m.payload == payload and pickle.loads(pickle.dumps(m)) == m

    def test_checked_constructor_accepts_what_carriers_build(self):
        cv, ex = fm.convex(), fm.exceptions(2)
        mixed = fm.apply_op(cv, "mix[1/3]", [fm.unit(cv, "a"), fm.unit(cv, now("b"))])
        raised = fm.apply_op(ex, "e1", [])
        for m in (mixed, fm.unit(cv, "a"), raised, fm.unit(ex, "a")):
            twin = fm.ModelElement(m.kind, m.payload, m.theory)
            assert twin == m and str(twin) == str(m)
            assert pickle.loads(pickle.dumps(m)) == m
        # the carriers' own elements are not checked on the way
        assert fm._carrier_of(cv).element(((now("a"), Fraction(1, 2)),)).payload[0][1] == \
            Fraction(1, 2)

    @pytest.mark.parametrize("carrier", sorted(ref.CARRIERS))
    @given(generators=st.lists(st.sampled_from(
        [now("a"), now("b"), delay_n(1, "a"), delay_n(2, "b"), DIVERGE]), min_size=1, max_size=3,
        unique=True))
    @settings(max_examples=10, deadline=None)
    def test_the_checked_constructor_admits_every_element_built(self, carrier, generators):
        # every element enumeration builds passes the checks, whose twin
        # is equal, and survives a pickle round trip
        th = ref.CARRIERS[carrier]
        for m in fm.iter_elements(th, generators, 2):
            twin = fm.ModelElement(m.kind, m.payload, th)
            assert twin == m and fm.canon_key(twin) == fm.canon_key(m)
            assert pickle.loads(pickle.dumps(m)) == m

    def test_copies_are_equal(self):
        th = fm.semilattice()
        m = fm.apply_op(th, "union", [fm.unit(th, now("a")), fm.unit(th, "b")])
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and hash(twin) == hash(m) and str(twin) == str(m)
        assert repr(m) == "ModelElement(kind='finset', payload=(Now(value='a'), 'b'))"
        # divergence keeps its identity, so an element over it stays equal
        for d in (copy.copy(DIVERGE), copy.deepcopy(DIVERGE),
                  pickle.loads(pickle.dumps(DIVERGE))):
            assert d is DIVERGE
        e = fm.unit(fm.monoid(), DIVERGE)
        for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e and hash(twin) == hash(e)
            assert fm.value_str(twin) == fm.value_str(e) == "[⊥]"
