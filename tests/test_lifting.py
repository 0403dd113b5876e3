"""Step-count arithmetic of the two liftings, pinned to integer oracles.

The sequential lifting must take the sum of its arguments' step counts,
the parallel lifting the max; both facts are checked exhaustively for
binary operations at up to three steps per argument.  Induced candidates
build one element per distribution: a payload walk over tree
representatives, the values' step counts and one ``fmap`` on the other
carriers.  The per-node interpretation through the lifted operations,
which custom candidates take, is their reference, and ``fmap`` is
checked against its definition by binding."""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaydist import freemodel as fm
from delaydist import lifting
from delaydist.delay import (DIVERGE, Now, Step, delay_n, dmap, now, prepend_steps, step_count,
                             strong_equal, weak_bisim)
from delaydist.lifting import (DistLawCandidate, custom_candidate, induced_candidate,
                               lift_term, par_lift_op, seq_lift_op)
from delaydist.nogo import idempotent_unary_theory
from delaydist.theory import (App, Operation, Signature, Theory, TheorySemanticError, Var,
                              make_equation, parse_theory, validate_theory)

from conftest import (reference_apply_op, reference_fmap, reference_free_bind, reference_unit,
                      reference_walk)

THEORIES = Path(__file__).resolve().parent.parent / "theories"

STEPS = range(4)


def _band():
    return parse_theory((THEORIES / "band.th").read_text(encoding="utf-8"))


def _per_node(th, mode, m):
    """The reference distribution: a custom candidate over the same lifted
    operation, which interprets the representative with it at every
    node."""
    lift = {"seq": seq_lift_op, "par": par_lift_op}[mode]
    return custom_candidate(th, f"per-node {mode}", lift).apply(m)


def _outcome(f):
    try:
        return f()
    except (TypeError, TheorySemanticError) as e:
        return type(e).__name__, str(e)


def _el(th, v):
    return fm.unit(th, v)


def _value(d):
    assert isinstance(d, Now) or d is DIVERGE or step_count(d) is not None
    cur = d
    while not isinstance(cur, Now):
        cur = cur.tail
    return cur.value


class TestStepArithmetic:
    def test_seq_steps_add(self):
        th = fm.magma()
        for m, n in itertools.product(STEPS, repeat=2):
            out = seq_lift_op("mul", [delay_n(m, _el(th, "a")), delay_n(n, _el(th, "b"))], th)
            assert step_count(out) == m + n

    def test_par_steps_max(self):
        th = fm.magma()
        for m, n in itertools.product(STEPS, repeat=2):
            out = par_lift_op("mul", [delay_n(m, _el(th, "a")), delay_n(n, _el(th, "b"))], th)
            assert step_count(out) == max(m, n)

    def test_values_agree(self):
        th = fm.magma()
        want = fm.apply_op(th, "mul", [fm.unit(th, "a"), fm.unit(th, "b")])
        for m, n in itertools.product(STEPS, repeat=2):
            for lift in (seq_lift_op, par_lift_op):
                out = lift("mul", [delay_n(m, _el(th, "a")), delay_n(n, _el(th, "b"))], th)
                assert _value(out).payload == want.payload

    def test_diverge_propagates(self):
        th = fm.magma()
        for lift in (seq_lift_op, par_lift_op):
            assert step_count(lift("mul", [DIVERGE, now(_el(th, "b"))], th)) is None
            assert step_count(lift("mul", [delay_n(2, _el(th, "a")), DIVERGE], th)) is None

    def test_nullary_op_is_immediate(self):
        th = fm.monoid()
        assert step_count(seq_lift_op("unit", [], th)) == 0
        assert step_count(par_lift_op("unit", [], th)) == 0

    def test_arity_mismatch_rejected(self):
        th = fm.magma()
        with pytest.raises(TheorySemanticError):
            seq_lift_op("mul", [now(_el(th, "a"))], th)

    @pytest.mark.parametrize("lift", [seq_lift_op, par_lift_op])
    def test_arity_errors_by_argument_kind(self, lift):
        th = fm.magma()
        a = _el(th, "a")
        # a wrong count is refused before any argument is looked at
        for arg in (now(a), DIVERGE, delay_n(1, a)):
            with pytest.raises(TheorySemanticError,
                               match=r"^operation 'mul' expects 2 arguments, got 1$"):
                lift("mul", [arg], th)
        # an undeclared operation fails only where the model applies it
        with pytest.raises(TheorySemanticError,
                           match=r"^unknown operation 'frob' in theory 'magma'$"):
            lift("frob", [now(a)], th)
        assert lift("frob", [DIVERGE], th) is DIVERGE
        with pytest.raises(TheorySemanticError, match="unknown operation 'frob'"):
            lift("frob", [delay_n(1, a)], th)

        # through a candidate, one pass or per node, the same messages come
        # from the same node as through the lifted operation
        mode = {seq_lift_op: "seq", par_lift_op: "par"}[lift]
        cases = [(fm.ModelElement("tree", ("mul", ("leaf", arg)), th),
                  r"^operation 'mul' expects 2 arguments, got 1$")
                 for arg in (now(a), DIVERGE, delay_n(1, a))]
        # the first faulty node or leaf in post-order raises
        cases.append((fm.ModelElement("tree", ("mul", ("mul", ("leaf", now(a))),
                                               ("leaf", "bare")), th),
                      r"^operation 'mul' expects 2 arguments, got 1$"))
        cases.append((fm.ModelElement("tree", ("mul", ("leaf", "bare"),
                                               ("mul", ("leaf", now(a)))), th),
                      r"^distribution input must hold Delay values, found str$"))
        cases.append((fm.ModelElement("tree", ("mul", ("leaf", delay_n(1, a)),
                                               ("mul", ("leaf", now(a)))), th),
                      r"^operation 'mul' expects 2 arguments, got 1$"))
        # an unknown operation on a quotient payload fails where it is applied
        q = _band()
        frob = lambda d: ("frob", ("leaf", d))
        cases += [
            (fm.ModelElement("quotient", frob(now(a)), q),
             r"^unknown operation 'frob' in theory 'band'$"),
            (fm.ModelElement("quotient", frob(delay_n(1, a)), q),
             r"^unknown operation 'frob' in theory 'band'$"),
            (fm.ModelElement("quotient", ("mul", frob(DIVERGE), frob(delay_n(2, a))), q),
             r"^unknown operation 'frob' in theory 'band'$"),
            (fm.ModelElement("quotient", ("mul", frob(now(a)), ("leaf", "bare")), q),
             r"^unknown operation 'frob' in theory 'band'$"),
        ]
        # over a stepping leaf the operation applies at once, so it raises
        # before the bare leaf after it
        cases.append((fm.ModelElement("quotient", ("mul", frob(delay_n(1, a)), ("leaf", "bare")),
                                      q),
                      r"^unknown operation 'frob' in theory 'band'$"))
        for m, message in cases:
            for cand in (induced_candidate(m.theory, mode),
                         custom_candidate(m.theory, "mine", lift)):
                with pytest.raises((TheorySemanticError, TypeError), match=message):
                    cand.apply(m)
            assert _outcome(lambda: induced_candidate(m.theory, mode).apply(m)) \
                == _outcome(lambda: _per_node(m.theory, mode, m))
        # a divergent argument makes the node divergent before it is applied
        m = fm.ModelElement("quotient", frob(DIVERGE), q)
        assert induced_candidate(q, mode).apply(m) is DIVERGE


class TestSeqOrderInsensitivity:
    def test_left_then_right_equals_interleaved_total(self):
        # the sequential lifting's step total does not depend on which
        # argument carries the steps, only on the sum
        th = fm.magma()
        for total in range(5):
            counts = set()
            for m in range(total + 1):
                out = seq_lift_op("mul", [delay_n(m, _el(th, "a")),
                                          delay_n(total - m, _el(th, "b"))], th)
                counts.add(step_count(out))
            assert counts == {total}


class TestTermInterpretation:
    def test_shared_variable_reads_independently(self):
        th = fm.magma()
        t = App("mul", (Var("x"), Var("x")))
        env = {"x": delay_n(2, _el(th, "a"))}
        out = lift_term(t, env, "seq", th)
        assert step_count(out) == 4  # both occurrences pay their own steps
        out_par = lift_term(t, env, "par", th)
        assert step_count(out_par) == 2

    def test_unbound_variable(self):
        th = fm.magma()
        with pytest.raises(TheorySemanticError):
            lift_term(Var("y"), {"x": now(_el(th, "a"))}, "seq", th)

    def test_bad_mode(self):
        th = fm.magma()
        with pytest.raises(ValueError):
            lift_term(Var("x"), {"x": now(_el(th, "a"))}, "zigzag", th)

    def test_lifter_resolved_once_per_term(self, monkeypatch):
        th = fm.magma()
        resolved = []
        lifter = lifting._lifter
        monkeypatch.setattr(lifting, "_lifter", lambda mode: resolved.append(mode) or lifter(mode))
        t = App("mul", (App("mul", (Var("x"), Var("y"))), Var("x")))
        env = {"x": delay_n(1, _el(th, "a")), "y": delay_n(2, _el(th, "b"))}
        assert step_count(lift_term(t, env, "seq", th)) == 4
        assert resolved == ["seq"]


class TestIdempotenceBreaksSeq:
    def test_two_versus_one_step(self):
        # union(x, x) under seq doubles the delay while the right side
        # keeps it, so the candidate fails equation preservation on the nose
        th = fm.semilattice()
        x = delay_n(1, _el(th, "v"))
        lhs = lift_term(App("union", (Var("x"), Var("x"))), {"x": x}, "seq", th)
        rhs = lift_term(Var("x"), {"x": x}, "seq", th)
        assert step_count(lhs) == 2
        assert step_count(rhs) == 1
        eq = lambda a, b: fm.model_equal(th, a, b)
        assert strong_equal(lhs, rhs, 16, value_eq=lambda a, b: eq(a, b).is_yes).is_no
        assert weak_bisim(lhs, rhs, eq, 16).is_yes

    def test_par_keeps_idempotence(self):
        th = fm.semilattice()
        x = delay_n(3, _el(th, "v"))
        lhs = lift_term(App("union", (Var("x"), Var("x"))), {"x": x}, "par", th)
        assert step_count(lhs) == 3


class TestCandidates:
    def test_unit_law_on_the_nose(self):
        # distributing a singleton model element is just mapping unit
        for th in (fm.monoid(), fm.semilattice(), fm.magma()):
            cand = induced_candidate(th, "seq")
            for n in STEPS:
                d = delay_n(n, "a")
                m = fm.unit(th, d)
                out = cand.apply(m)
                want = dmap(d, lambda v: fm.unit(th, v))
                ok = strong_equal(out, want, 16,
                                  value_eq=lambda a, b: fm.model_equal(th, a, b).is_yes)
                assert ok.is_yes

    def test_apply_seq_counts(self):
        th = fm.magma()
        cand = induced_candidate(th, "seq")
        m = fm.apply_op(th, "mul", [fm.unit(th, delay_n(1, "a")),
                                    fm.unit(th, delay_n(2, "b"))])
        assert step_count(cand.apply(m)) == 3
        cand_par = induced_candidate(th, "par")
        assert step_count(cand_par.apply(m)) == 2

    def test_rejects_non_delay_leaves(self):
        th = fm.magma()
        message = r"^distribution input must hold Delay values, found str$"
        bare = fm.unit(th, "bare")
        # after a divergent or a stepping sibling, the bare leaf still raises
        beside = [fm.apply_op(th, "mul", [fm.unit(th, d), bare])
                  for d in (DIVERGE, delay_n(1, "a"))]
        for mode, lift in (("seq", seq_lift_op), ("par", par_lift_op)):
            for cand in (induced_candidate(th, mode), custom_candidate(th, "mine", lift)):
                for m in (bare, *beside):
                    with pytest.raises(TypeError, match=message):
                        cand.apply(m)

    def test_induced_mode_names(self):
        th = fm.magma()
        assert induced_candidate(th, "seq").name == "seq"
        assert induced_candidate(th, "par").name == "par"
        with pytest.raises(ValueError):
            induced_candidate(th, "diagonal")

    def test_custom_candidate_passthrough(self):
        th = fm.magma()
        cand = custom_candidate(th, "mine", seq_lift_op)
        assert isinstance(cand, DistLawCandidate)
        m = fm.apply_op(th, "mul", [fm.unit(th, delay_n(1, "a")),
                                    fm.unit(th, delay_n(1, "b"))])
        assert step_count(cand.apply(m)) == 2

    def test_a_custom_lifting_must_return_a_delay(self):
        th = fm.magma()

        def plain(op, args, th):
            return fm.apply_op(th, op, [a.value for a in args])

        m = fm.apply_op(th, "mul", [fm.unit(th, now("a")), fm.unit(th, now("b"))])
        message = r"^lifting '{}' returned ModelElement for operation 'mul', not a Delay$"
        with pytest.raises(TypeError, match=message.format("mine")):
            custom_candidate(th, "mine", plain).apply(m)
        t = App("mul", (Var("x"), Var("y")))
        with pytest.raises(TypeError, match=message.format("plain")):
            lift_term(t, {"x": now(fm.unit(th, "a")), "y": now(fm.unit(th, "b"))}, plain, th)

    def test_diverging_leaf_diverges(self):
        th = fm.magma()
        m = fm.apply_op(th, "mul", [fm.unit(th, DIVERGE), fm.unit(th, now("b"))])
        for mode in ("seq", "par"):
            assert step_count(induced_candidate(th, mode).apply(m)) is None


# ---------------------------------------------------------------------------
# one-pass distribution against the per-node reference

CARRIERS = {
    "tree": fm.magma(),
    "list": fm.monoid(),
    "multiset": fm.cmonoid(),
    "finset": fm.semilattice(),
    "dist": fm.convex([Fraction(1, 3), Fraction(1, 2)]),
    "either": fm.exceptions(2),
    "quotient-complete": idempotent_unary_theory(),
    "quotient": _band(),
}

_values = st.sampled_from(["a", "b"])
# leaf specs: finished, stepping, divergent, and divergent built with steps
_leaf_specs = st.one_of(
    st.tuples(st.just("now"), _values),
    st.tuples(st.just("steps"), st.integers(1, 3), _values),
    st.just(("div",)),
    st.tuples(st.just("stepdiv"), st.integers(1, 2)),
)


def _delay(spec):
    kind = spec[0]
    if kind == "now":
        return now(spec[1])
    if kind == "steps":
        return delay_n(spec[1], spec[2])
    if kind == "div":
        return DIVERGE
    return Step(DIVERGE) if spec[1] == 1 else prepend_steps(spec[1], DIVERGE)


def _terms(th):
    ops = [(o.name, o.arity) for o in th.signature.ops]
    base = st.one_of(st.tuples(st.just("leaf"), _leaf_specs),
                     *[st.just((name,)) for name, arity in ops if arity == 0])
    applied = [name for name, arity in ops if arity > 0]
    if not applied:
        return base

    def extend(kids):
        return st.one_of(*[st.tuples(st.just(name), *[kids] * arity)
                           for name, arity in ops if arity > 0])

    return st.recursive(base, extend, max_leaves=6)


def _element(th, t):
    """The element for the term spec ``t``."""
    if t[0] == "leaf":
        return fm.unit(th, _delay(t[1]))
    return fm.apply_op(th, t[0], [_element(th, c) for c in t[1:]])


def _involution():
    """A rewrite-complete theory with a rule rooted at a unary node, so
    that fixing a unary node can change it."""
    x = Var("x")
    th = Theory(Signature("involution", (Operation("mul", 2), Operation("neg", 1))),
                (make_equation("invol", App("neg", (App("neg", (x,)),)), x),
                 make_equation("idem", App("mul", (x, x)), x)),
                rewrite_complete=True)
    validate_theory(th)
    return th


TREE_CARRIERS = {name: CARRIERS[name] for name in ("quotient", "quotient-complete", "tree")}
TREE_CARRIERS["quotient-unary-rule"] = _involution()


# Representatives the public constructors refuse, built as payloads of the
# theory's own carrier: nodes of the wrong arity, undeclared mix[p/q] and
# other operations, and leaves over values that are not delays.  The tree
# walks handle unary and binary nodes apart from the rest, so these must
# fail, or not, as the n-ary walk does.
_ODD_OPS = ["mix[1/3]", "zzz"]


def _odd_terms(th):
    names = [o.name for o in th.signature.ops if o.arity > 0] + _ODD_OPS
    leaf = st.one_of(st.tuples(st.just("leaf"), _leaf_specs),
                     st.tuples(st.just("raw"), _values),
                     st.sampled_from([(name,) for name in names]))

    def extend(kids):
        return st.builds(lambda op, cs: (op, *cs), st.sampled_from(names),
                         st.lists(kids, min_size=1, max_size=3))

    return st.recursive(leaf, extend, max_leaves=6)


def _payload(t):
    if t[0] == "leaf":
        return ("leaf", _delay(t[1]))
    if t[0] == "raw":
        return ("leaf", t[1])
    return (t[0], *[_payload(c) for c in t[1:]])


def _odd_element(th, t):
    return fm._carrier_of(th).element(_payload(t))


_A, _B, _D = ("leaf", ("now", "a")), ("leaf", ("steps", 2, "b")), ("leaf", ("div",))
ODD_CASES = {
    "binary op given one argument": ("mul", _A),
    "binary op given three arguments": ("mul", _A, _B, _A),
    "unary op given two arguments": ("bang", _A, _B),
    "undeclared mix with two arguments": ("mix[1/3]", _A, _B),
    "undeclared mix with one argument": ("mix[1/3]", _A),
    "undeclared binary op": ("zzz", _A, _B),
    "undeclared unary op": ("zzz", _A),
    "leaf that is not a delay": ("mul", _A, ("raw", "a")),
    "leaf that is not a delay under an undeclared op": ("zzz", ("raw", "a")),
    "divergent child beside an undeclared op": ("zzz", _D, _A),
    "divergent child of an undeclared unary op": ("zzz", _D),
    "undeclared op beside a divergent child": ("mul", _D, ("zzz", _A)),
    "divergent child of a node of the wrong arity": ("mul", _D),
    "redex on the fast path": ("mul", _A, _A),
    "redex under a unary node": ("bang", ("mul", _B, _B)),
    "unary redex": ("neg", ("neg", _B)),
}


def _odd_outcomes(th, mode, t):
    """The induced candidate's and the walk's outcomes next to the
    per-node path's and the n-ary walk's."""
    m, carrier, total = _odd_element(th, t), fm._carrier_of(th), lifting._TOTAL[mode]
    return ((_outcome(lambda: induced_candidate(th, mode).apply(m)),
             _outcome(lambda: lifting._walk(m.payload, carrier, total))),
            (_outcome(lambda: _per_node(th, mode, m)),
             _outcome(lambda: reference_walk(m.payload, carrier, total))))


class TestOnePass:
    @pytest.mark.parametrize("mode", ["seq", "par"])
    @pytest.mark.parametrize("case", sorted(ODD_CASES))
    @pytest.mark.parametrize("carrier", sorted(TREE_CARRIERS))
    def test_odd_nodes_match_the_n_ary_walk(self, carrier, case, mode):
        got, want = _odd_outcomes(TREE_CARRIERS[carrier], mode, ODD_CASES[case])
        assert got == want

    def test_odd_nodes_fail_where_the_n_ary_walk_fails(self):
        # the outcomes the cases above agree on, pinned on the
        # rewrite-complete carrier, which declares mul : 2 and bang : 1
        th = CARRIERS["quotient-complete"]
        arity = lambda op, k, n: ("TheorySemanticError",
                                  f"operation '{op}' expects {k} arguments, got {n}")
        unknown = lambda op: ("TheorySemanticError",
                              f"unknown operation '{op}' in theory 'idempotent-unary'")
        not_delay = ("TypeError", "distribution input must hold Delay values, found str")
        a = th._carrier.element(("leaf", "a"))
        pinned = {
            "binary op given one argument": arity("mul", 2, 1),
            "binary op given three arguments": arity("mul", 2, 3),
            "unary op given two arguments": arity("bang", 1, 2),
            "undeclared mix with two arguments": unknown("mix[1/3]"),
            "undeclared mix with one argument": arity("mix[1/3]", 2, 1),
            "undeclared binary op": unknown("zzz"),
            "undeclared unary op": unknown("zzz"),
            "leaf that is not a delay": not_delay,
            "leaf that is not a delay under an undeclared op": not_delay,
            "divergent child beside an undeclared op": DIVERGE,
            "divergent child of an undeclared unary op": DIVERGE,
            "undeclared op beside a divergent child": unknown("zzz"),
            "divergent child of a node of the wrong arity": arity("mul", 2, 1),
            # mul(x, x) = x contracts on the way up
            "redex on the fast path": now(a),
        }
        for case, want in pinned.items():
            for mode in ("seq", "par"):
                (got, _), _ = _odd_outcomes(th, mode, ODD_CASES[case])
                assert got == want, case
        # neg(neg(x)) = x contracts at the unary root
        th = TREE_CARRIERS["quotient-unary-rule"]
        for mode in ("seq", "par"):
            (got, _), _ = _odd_outcomes(th, mode, ODD_CASES["unary redex"])
            assert got == delay_n(2, fm.unit(th, "b"))
        th = CARRIERS["quotient-complete"]
        # the contracted mul(b, b) keeps both arguments' steps under seq
        bang_b = fm.apply_op(th, "bang", [fm.unit(th, "b")])
        for mode, steps in (("seq", 4), ("par", 2)):
            (got, _), _ = _odd_outcomes(th, mode, ODD_CASES["redex under a unary node"])
            assert got == delay_n(steps, bang_b)

    @pytest.mark.parametrize("mode", ["seq", "par"])
    @pytest.mark.parametrize("carrier", sorted(TREE_CARRIERS))
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_odd_trees_match_the_n_ary_walk(self, carrier, mode, data):
        th = TREE_CARRIERS[carrier]
        got, want = _odd_outcomes(th, mode, data.draw(_odd_terms(th)))
        assert got == want


    @pytest.mark.parametrize("mode", ["seq", "par"])
    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_node_reference(self, carrier, mode, data):
        th = CARRIERS[carrier]
        t = data.draw(_terms(th))
        out = induced_candidate(th, mode).apply(_element(th, t))
        ref = _per_node(th, mode, _element(th, t))
        assert out == ref
        assert fm.canon_key(out) == fm.canon_key(ref)
        assert step_count(out) == step_count(ref)

    @pytest.mark.parametrize("mode", ["seq", "par"])
    def test_stepped_divergence_absorbs(self, mode):
        th = fm.monoid()
        cand = induced_candidate(th, mode)
        assert cand.apply(fm.unit(th, Step(DIVERGE))) is DIVERGE
        m = fm.apply_op(th, "mul", [fm.unit(th, delay_n(2, "a")), fm.unit(th, Step(DIVERGE))])
        assert cand.apply(m) is DIVERGE

    def test_materialised_input_skips_the_lifted_operations(self, monkeypatch):
        # a tracer swaps the module's lifted operations for wrappers before
        # candidates are built; the one-pass walk must not depend on which
        # function lift_op holds
        calls = []

        def counting(lift):
            def wrapper(op, args, th):
                calls.append(op)
                return lift(op, args, th)

            return wrapper

        monkeypatch.setattr(lifting, "seq_lift_op", counting(seq_lift_op))
        monkeypatch.setattr(lifting, "par_lift_op", counting(par_lift_op))
        th = fm.monoid()
        el = lambda d: fm.unit(th, d)
        inputs = [fm.apply_op(th, "mul", [el(delay_n(1, "a")), el(delay_n(2, "b"))]),
                  fm.apply_op(th, "mul", [el(now("a")), el(Step(DIVERGE))]),
                  fm.apply_op(th, "unit", []), el(DIVERGE)]
        want = {"seq": [3, None, 0, None], "par": [2, None, 0, None]}
        for mode in ("seq", "par"):
            cand = lifting.induced_candidate(th, mode)
            assert cand.lift_op is getattr(lifting, f"{mode}_lift_op")
            assert [step_count(cand.apply(m)) for m in inputs] == want[mode]
        assert calls == []
        # every custom candidate, whatever its name, goes through the
        # lifted operation
        for name in ("mine", "seq"):
            calls.clear()
            cand = lifting.custom_candidate(th, name, lifting.seq_lift_op)
            assert step_count(cand.apply(inputs[0])) == 3
            assert calls == ["mul"]

    @pytest.mark.parametrize("mode", ["seq", "par"])
    def test_undeclared_exception_raises(self, mode):
        # an exception the theory does not declare has no values to map,
        # yet it fails where the per-node path applies it
        th = fm.exceptions(2)
        m = fm.ModelElement("either", ("exc", "zzz"), th)
        lift = {"seq": seq_lift_op, "par": par_lift_op}[mode]
        for cand in (induced_candidate(th, mode), custom_candidate(th, "mine", lift)):
            with pytest.raises(TheorySemanticError,
                               match=r"^unknown operation 'zzz' in theory 'exceptions2'$"):
                cand.apply(m)
        declared = fm.ModelElement("either", ("exc", "e1"), th)
        assert induced_candidate(th, mode).apply(declared) == _per_node(th, mode, declared)

    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    def test_one_element_per_distribution(self, carrier, monkeypatch):
        # an induced candidate builds no unit element per leaf and applies
        # no model operation; the result's element is made once, at most
        th = CARRIERS[carrier]
        leaves = [now("a"), delay_n(2, "b"), DIVERGE, delay_n(1, "a")]
        inputs = list(itertools.islice(fm.iter_elements(th, leaves, 2), 80))
        want = {mode: [_per_node(th, mode, m) for m in inputs] for mode in ("seq", "par")}
        calls = {"unit": 0, "apply_op": 0, "element": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(fm, "unit", counting("unit", fm.unit))
        monkeypatch.setattr(fm, "apply_op", counting("apply_op", fm.apply_op))
        monkeypatch.setattr(fm.Carrier, "element", counting("element", fm.Carrier.element))
        for mode in ("seq", "par"):
            cand = induced_candidate(th, mode)
            for m, ref in zip(inputs, want[mode]):
                calls["element"] = 0
                assert cand.apply(m) == ref
                assert calls["element"] <= 1
        assert (calls["unit"], calls["apply_op"]) == (0, 0)
        # the per-node path, which custom candidates take, makes a unit
        # element per leaf, so the counters do see it
        _per_node(th, "seq", inputs[0])
        assert calls["unit"] == 1


# ---------------------------------------------------------------------------
# fmap against its definition by binding

_MAPS = {
    "tagged": lambda d: ("tagged", d),  # injective
    "end": lambda d: "⊥" if d is DIVERGE else _value(d),  # merges delays with one end
    "steps": step_count,
    "constant": lambda d: "c",
}


class TestFmap:
    @pytest.mark.parametrize("f", sorted(_MAPS))
    @pytest.mark.parametrize("carrier", sorted(CARRIERS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_its_definition(self, carrier, f, data):
        th = CARRIERS[carrier]
        m = _element(th, data.draw(_terms(th)))
        got, want = fm.fmap(th, _MAPS[f], m), reference_fmap(th, _MAPS[f], m)
        assert (got.kind, repr(got.payload)) == (want.kind, repr(want.payload))
        assert got.payload == want.payload
        assert fm.canon_key(got) == fm.canon_key(want)
        assert fm.render_element(got) == fm.render_element(want)

    @pytest.mark.parametrize("f", ["constant", "steps", "tagged"])
    @pytest.mark.parametrize("carrier", sorted(TREE_CARRIERS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_odd_trees_match_the_n_ary_graft(self, carrier, f, data):
        # relabel and graft handle unary and binary nodes apart from the
        # rest; on odd trees both must build what the n-ary graft builds
        th = TREE_CARRIERS[carrier]
        m = _odd_element(th, data.draw(st.one_of(_odd_terms(th),
                                                 st.sampled_from(list(ODD_CASES.values())))))
        fn = _MAPS[f]
        pairs = [
            (lambda: fm.fmap(th, fn, m),
             lambda: reference_free_bind(th, m, lambda v: reference_unit(th, fn(v)))),
            (lambda: fm.free_bind(th, m, lambda v: fm.apply_op(
                th, "mul", [fm.unit(th, fn(v)), fm.unit(th, "b")])),
             lambda: reference_free_bind(th, m, lambda v: reference_apply_op(
                 th, "mul", [reference_unit(th, fn(v)), reference_unit(th, "b")]))),
        ]
        for fast, ref in pairs:
            got, want = fast(), ref()
            assert (got.kind, repr(got.payload)) == (want.kind, repr(want.payload))
            assert fm.canon_key(got) == fm.canon_key(want)

    def test_merging_values_renormalises(self):
        # mapping both leaves of mul(a, b) to one value makes a redex of
        # mul(x, x) = x, which the rewrite-complete carrier contracts
        th = CARRIERS["quotient-complete"]
        m = fm.apply_op(th, "mul", [fm.unit(th, "a"), fm.unit(th, "b")])
        assert fm.fmap(th, _MAPS["constant"], m).payload == ("leaf", "c")
        for carrier, merged in (("finset", ("c",)), ("multiset", ("c", "c"))):
            th = CARRIERS[carrier]
            op = [o.name for o in th.signature.ops if o.arity == 2][0]
            m = fm.apply_op(th, op, [fm.unit(th, "a"), fm.unit(th, "b")])
            assert fm.fmap(th, _MAPS["constant"], m).payload == merged
        th = CARRIERS["dist"]
        m = fm.apply_op(th, "mix[1/3]", [fm.unit(th, "a"), fm.unit(th, "b")])
        assert fm.fmap(th, _MAPS["constant"], m).payload == (("c", Fraction(1)),)
