"""Signatures, terms, the theory-file grammar, and equation classes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaydist.theory import (App, Equation, Operation, Signature, TheorySemanticError,
                              TheorySyntaxError, Var, classify_equation, free_vars,
                              make_equation, parse_theory, predict_composability,
                              substitute, term_str, validate_theory, var_counts)

X, Y, Z = Var("x"), Var("y"), Var("z")


def mul(a, b):
    return App("mul", (a, b))


class TestTerms:
    def test_term_str(self):
        assert term_str(mul(X, App("e", ()))) == "mul(x, e)"
        assert term_str(X) == "x"

    def test_free_vars_first_occurrence_order(self):
        assert free_vars(mul(Y, mul(X, Y))) == ["y", "x"]

    def test_substitute(self):
        assert substitute(mul(X, Y), {"x": App("e", ()), "y": Z}) == mul(App("e", ()), Z)
        assert substitute(X, {"x": mul(X, Y)}) == mul(X, Y)
        assert substitute(mul(X, X), {"x": Z}) == mul(Z, Z)

    def test_substitute_requires_bindings(self):
        with pytest.raises(TheorySemanticError):
            substitute(mul(X, Y), {"x": Z})


class TestSignature:
    def test_arity_reads_the_first_declaration(self):
        sig = Signature("t", (Operation("f", 1), Operation("g", 0), Operation("f", 2)))
        assert (sig.arity("f"), sig.arity("g"), sig.arity("h")) == (1, 0, None)
        assert sig.arity("g") is not None and sig.arity("h") is None

    def test_lookup_index_stays_out_of_equality(self):
        a = Signature("t", (Operation("mul", 2),))
        b = Signature("t", (Operation("mul", 2),))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "Signature(name='t', ops=(Operation(name='mul', arity=2),))"


class TestValidation:
    def test_duplicate_op(self):
        sig = Signature("t", (Operation("f", 1), Operation("f", 2)))
        with pytest.raises(TheorySemanticError):
            validate_theory(_theory(sig, ()))

    def test_arity_mismatch_in_equation(self):
        sig = Signature("t", (Operation("mul", 2),))
        eq = make_equation("bad", App("mul", (X,)), X)
        with pytest.raises(TheorySemanticError):
            validate_theory(_theory(sig, (eq,)))

    def test_undeclared_op(self):
        sig = Signature("t", (Operation("mul", 2),))
        eq = make_equation("bad", App("frob", (X,)), X)
        with pytest.raises(TheorySemanticError):
            validate_theory(_theory(sig, (eq,)))


def _theory(sig, eqs):
    from delaydist.theory import Theory
    return Theory(sig, tuple(eqs))


class TestClassification:
    def test_table(self):
        # occurrence-count classes on the standard shapes
        cases = [
            (make_equation("assoc", mul(mul(X, Y), Z), mul(X, mul(Y, Z))),
             dict(linear=True, balanced=True, dup=False, drop=False)),
            (make_equation("comm", mul(X, Y), mul(Y, X)),
             dict(linear=True, balanced=True, dup=False, drop=False)),
            (make_equation("idem", mul(X, X), X),
             dict(linear=False, balanced=False, dup=True, drop=False)),
            (make_equation("absorb", mul(App("zero", ()), X), App("zero", ())),
             dict(linear=False, balanced=False, dup=False, drop=True)),
            (make_equation("dupdrop", mul(X, X), Y),
             dict(linear=False, balanced=False, dup=True, drop=True)),
        ]
        for eq, expected in cases:
            c = classify_equation(eq)
            got = dict(linear=c.linear, balanced=c.balanced, dup=c.dup, drop=c.drop)
            assert got == expected, eq.name

    def test_labels(self):
        c = classify_equation(make_equation("comm", mul(X, Y), mul(Y, X)))
        assert c.labels() == ("linear", "balanced")


# random terms over one binary and one unary operation
def _terms(var_names):
    leaf = st.sampled_from([Var(n) for n in var_names])
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: App("mul", p)),
            sub.map(lambda t: App("bang", (t,)))),
        max_leaves=6)


@given(_terms("xyz"), _terms("xyz"))
@settings(max_examples=300, deadline=None)
def test_linear_implies_balanced(lhs, rhs):
    c = classify_equation(make_equation("e", lhs, rhs))
    if c.linear:
        assert c.balanced


@given(_terms("xyz"), _terms("xyz"), st.permutations(["x", "y", "z"]))
@settings(max_examples=300, deadline=None)
def test_classification_stable_under_renaming(lhs, rhs, perm):
    table = dict(zip("xyz", perm))

    def rename(t):
        if isinstance(t, Var):
            return Var(table[t.name])
        return App(t.op, tuple(rename(a) for a in t.args))

    assert classify_equation(make_equation("e", lhs, rhs)) == \
        classify_equation(make_equation("e", rename(lhs), rename(rhs)))


class TestPrediction:
    def test_balanced_theory_guarantees_seq(self):
        th = parse_theory("op mul : 2\neq comm : mul(x, y) = mul(y, x)")
        p = predict_composability(th)
        assert p.seq_dist_law == "guaranteed"
        assert p.par_setoid_law == "guaranteed"
        assert p.guarded_no_go == "unknown"

    def test_idempotence_breaks_seq_guarantee(self):
        th = parse_theory("op mul : 2\neq idem : mul(x, x) = x")
        p = predict_composability(th)
        assert p.seq_dist_law == "unknown"
        assert p.par_setoid_law == "guaranteed"

    def test_drop_breaks_par_guarantee(self):
        th = parse_theory("op mul : 2\nop zero : 0\neq ab : mul(zero, x) = zero")
        assert predict_composability(th).par_setoid_law == "unknown"

    def test_comm_plus_idem_rules_out_guarded(self):
        text = ("op mul : 2\n"
                "eq comm : mul(x, y) = mul(y, x)\n"
                "eq idem : mul(x, x) = x\n")
        assert predict_composability(parse_theory(text)).guarded_no_go == "impossible"


class TestParser:
    GOOD = """\
# a monoid, written out
theory mon
op e : 0
op mul : 2
eq lunit : mul(e, x) = x        # comments allowed here too
eq assoc : mul(mul(x, y), z) = mul(x, mul(y, z))
"""

    def test_round_trip(self):
        th = parse_theory(self.GOOD)
        assert th.name == "mon"
        assert [(op.name, op.arity) for op in th.signature.ops] == [("e", 0), ("mul", 2)]
        assert [eq.name for eq in th.equations] == ["lunit", "assoc"]
        assert term_str(th.equations[0].lhs) == "mul(e, x)"
        # a bare declared constant parses as the constant, not a variable
        assert th.equations[0].lhs.args[0] == App("e", ())

    def test_default_name(self):
        assert parse_theory("op f : 1").name == "theory"

    def test_errors(self):
        with pytest.raises(TheorySyntaxError):
            parse_theory("theory 123")
        with pytest.raises(TheorySyntaxError):
            parse_theory("theory a\ntheory b")
        with pytest.raises(TheorySyntaxError):
            parse_theory("op mul : two")
        with pytest.raises(TheorySyntaxError):
            parse_theory("frobnicate everything")
        with pytest.raises(TheorySyntaxError):
            parse_theory("op f : 1\neq e : f(x) = ")
        with pytest.raises(TheorySyntaxError):
            parse_theory("op f : 1\neq e : f(x) y = x")
        with pytest.raises(TheorySemanticError):
            parse_theory("op f : 1\neq e : g(x) = x")
        with pytest.raises(TheorySemanticError):
            parse_theory("op f : 1\neq e : f(x, y) = x")
        with pytest.raises(TheorySemanticError):
            parse_theory("op f : 1\neq e : f = x")
