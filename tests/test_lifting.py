"""Step-count arithmetic of the two liftings, pinned to integer oracles.

The sequential lifting must take the sum of its arguments' step counts,
the parallel lifting the max; both facts are checked exhaustively for
binary operations at up to three steps per argument.  Induced candidates
build one element per distribution, on every carrier from the values'
step counts and one ``fmap``.  The per-node interpretation through the
lifted operations, which custom candidates take, is their reference, and
``fmap`` is checked against its definition by binding.  What reaches a
candidate is what the checked constructor admits: a tree carrier refuses
undeclared operations and wrong argument counts there."""

import dataclasses
import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaydist import freemodel as fm
from delaydist import lifting
from delaydist.delay import (DIVERGE, Now, Step, delay_n, dmap, now, prepend_steps, step_count,
                             strong_equal, weak_bisim)
from delaydist.lifting import (DistLawCandidate, custom_candidate, induced_candidate,
                               lift_term, par_lift_op, seq_lift_op)
from delaydist.theory import (App, Operation, Signature, Theory, TheorySemanticError, Var,
                              make_equation, parse_theory, validate_theory)

from conftest import (CARRIERS, THEORIES, reference_apply_op, reference_fmap,
                      reference_free_bind, reference_root_fix, reference_unit)

STEPS = range(4)


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
        assert strong_equal(lhs, rhs, 16,
                            value_eq=lambda a, b: fm.model_equal(a, b).is_yes).is_no
        assert weak_bisim(lhs, rhs, fm.model_equal, 16).is_yes

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
                                  value_eq=lambda a, b: fm.model_equal(a, b).is_yes)
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

    def test_a_candidate_holds_its_lifting_once(self):
        th = fm.magma()
        for mode in ("seq", "par"):
            cand = induced_candidate(th, mode)
            assert (cand.lift, cand.induced) == (mode, mode)
        cand = custom_candidate(th, "seq", seq_lift_op)
        assert (cand.lift, cand.induced) == (seq_lift_op, None)
        # a string would make a custom candidate induced
        with pytest.raises(TypeError, match="op-lifting callable, not 'seq'"):
            custom_candidate(th, "mine", "seq")
        with pytest.raises(ValueError, match="unknown lift mode 'diagonal'"):
            DistLawCandidate(th, "mine", "diagonal")

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

    def test_an_element_of_another_kind_is_refused(self):
        # as model_equal refuses one
        m = fm.apply_op(fm.monoid(), "mul", [fm.unit(fm.monoid(), now("a")),
                                             fm.unit(fm.monoid(), delay_n(1, "b"))])
        th = fm.semilattice()
        message = r"^an element of theory 'monoid' is not an element of theory 'semilattice'$"
        for mode in ("seq", "par"):
            with pytest.raises(ValueError, match=message):
                induced_candidate(th, mode).apply(m)
        with pytest.raises(ValueError, match=message):
            fm.model_equal(m, fm.unit(th, now("a")))

    def test_diverging_leaf_diverges(self):
        th = fm.magma()
        m = fm.apply_op(th, "mul", [fm.unit(th, DIVERGE), fm.unit(th, now("b"))])
        for mode in ("seq", "par"):
            assert step_count(induced_candidate(th, mode).apply(m)) is None


# ---------------------------------------------------------------------------
# one theory per element


def _neg_only():
    th = Theory(Signature("negonly", (Operation("neg", 1),)), (), oracle="tree")
    validate_theory(th)
    return th


def _theory_file(name):
    return lambda: parse_theory((THEORIES / name).read_text(encoding="utf-8"))


def _mul(th, x, y):
    return fm.apply_op(th, "mul", [fm.unit(th, x), fm.unit(th, y)])


# an element of one theory read under another of its carrier kind: a magma
# term under a tree theory that declares only neg, and band's mul(a, a),
# which band's rules join with a and leftzero's do not
FOREIGN = {
    "tree": (fm.magma, _neg_only, lambda th: _mul(th, now("a"), delay_n(1, "b"))),
    "quotient": (_theory_file("band.th"), _theory_file("leftzero.th"),
                 lambda th: _mul(th, now("a"), now("a"))),
}


class TestOneTheory:
    """An element holds its theory; where it meets a theory or another
    element, the same theory built again is accepted and any other is
    refused with ``ValueError``."""

    @pytest.mark.parametrize("kind", sorted(FOREIGN))
    def test_an_element_of_another_theory_is_refused(self, kind):
        make_own, make_other, build = FOREIGN[kind]
        own, other = make_own(), make_other()
        m = build(own)
        message = (rf"^an element of theory '{own.name}' is not an element of "
                   rf"theory '{other.name}'$")
        with pytest.raises(ValueError, match=message):
            fm.model_equal(m, fm.unit(other, now("a")))
        for cand in (induced_candidate(other, "seq"), induced_candidate(other, "par"),
                     custom_candidate(other, "custom:seq", seq_lift_op)):
            with pytest.raises(ValueError, match=message):
                cand.apply(m)

    @pytest.mark.parametrize("kind", sorted(FOREIGN))
    def test_an_equal_theory_built_again_is_accepted(self, kind):
        make_own, _, build = FOREIGN[kind]
        own, again = make_own(), make_own()
        m, twin = build(own), build(again)
        assert m.carrier is not twin.carrier and own == again
        assert fm.model_equal(m, twin).is_yes
        for cand, cand_again in ((induced_candidate(own, "seq"), induced_candidate(again, "seq")),
                                 (induced_candidate(own, "par"), induced_candidate(again, "par")),
                                 (custom_candidate(own, "c", seq_lift_op),
                                  custom_candidate(again, "c", seq_lift_op))):
            assert cand_again.apply(m) == cand.apply(m) == cand.apply(twin)
        # band's rules, which the twin's theory holds too, join mul(a, a)
        # with a
        if kind == "quotient":
            a = fm.unit(own, now("a"))
            assert fm.model_equal(m, a).is_yes and fm.model_equal(a, twin).is_yes

    @pytest.mark.parametrize("name", sorted(CARRIERS))
    def test_a_pickled_element_is_accepted(self, name):
        th = CARRIERS[name]
        m = fm.unit(th, now("a"))
        back = pickle.loads(pickle.dumps(m))
        assert back.carrier is not m.carrier
        assert fm.model_equal(m, back).is_yes and fm.model_equal(back, m).is_yes
        for mode in ("seq", "par"):
            assert induced_candidate(th, mode).apply(back) == now(fm.unit(th, "a"))

    def test_a_foreign_graft_or_argument_is_refused(self):
        magma, negonly = fm.magma(), _neg_only()
        neg_a = fm.apply_op(negonly, "neg", [fm.unit(negonly, "a")])
        message = r"^an element of theory 'negonly' is not an element of theory 'magma'$"
        with pytest.raises(ValueError, match=message):
            fm.mu(fm.unit(magma, neg_a))
        with pytest.raises(ValueError, match=message):
            fm.apply_op(magma, "mul", [neg_a, fm.unit(magma, "b")])

    @pytest.mark.parametrize("name", sorted(CARRIERS))
    def test_every_carrier_refuses_a_foreign_graft_or_argument(self, name):
        th = CARRIERS[name]
        other = dataclasses.replace(th, signature=Signature("other", th.signature.ops))
        foreign = fm.unit(other, "a")
        message = rf"^an element of theory 'other' is not an element of theory '{th.name}'$"
        with pytest.raises(ValueError, match=message):
            fm.mu(fm.unit(th, foreign))
        with pytest.raises(ValueError, match=message):
            fm.free_bind(fm.unit(th, "b"), lambda v: foreign)
        wide = [op for op in th.signature.ops if op.arity]
        for op in wide:
            with pytest.raises(ValueError, match=message):
                fm.apply_op(th, op.name, [foreign] * op.arity)
        # an element of the same theory built again is grafted and combined
        twin = fm.unit(dataclasses.replace(th), "a")
        assert fm.mu(fm.unit(th, twin)) == fm.unit(th, "a")
        for op in wide:
            assert fm.apply_op(th, op.name, [twin] * op.arity) == fm.apply_op(
                th, op.name, [fm.unit(th, "a")] * op.arity)

    def test_theories_that_differ_only_in_finite_models_are_refused(self):
        x, y = Var("x"), Var("y")
        comm = Theory(Signature("comm", (Operation("mul", 2),)),
                      (make_equation("comm", App("mul", (x, y)), App("mul", (y, x))),))
        validate_theory(comm)

        def left_projection():
            return fm.finite_model("left", (0, 1), {"mul": {(p, q): p for p in (0, 1)
                                                            for q in (0, 1)}})

        modelled = dataclasses.replace(comm, finite_models=(left_projection(),))
        assert modelled == comm  # Theory equality leaves the finite models out
        ab = fm.apply_op(modelled, "mul", [fm.unit(modelled, "a"), fm.unit(modelled, "b")])
        b = fm.unit(comm, "b")
        message = (r"^an element of theory 'comm' is not an element of theory 'comm': "
                   r"their finite models differ$")
        for first, second in ((ab, b), (b, ab)):
            with pytest.raises(ValueError, match=message):
                fm.model_equal(first, second)
        # the same finite models, built again, are the same theory
        again = dataclasses.replace(comm, finite_models=(left_projection(),))
        ba = fm.apply_op(again, "mul", [fm.unit(again, "b"), fm.unit(again, "a")])
        assert fm.model_equal(ab, ba).is_yes and fm.model_equal(ba, ab).is_yes
        assert fm.model_equal(ab, fm.unit(again, "b")).is_no


# ---------------------------------------------------------------------------
# one-pass distribution against the per-node reference

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


def _terms(th, raw=False):
    """Well-formed term specs over the theory's operations; with ``raw``,
    leaves may also hold values other than delays."""
    ops = [(o.name, o.arity) for o in th.signature.ops]
    leaves = [st.tuples(st.just("leaf"), _leaf_specs)]
    if raw:
        leaves.append(st.tuples(st.just("raw"), _values))
    base = st.one_of(*leaves, *[st.just((name,)) for name, arity in ops if arity == 0])
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


def _ternary():
    """A tree carrier with a constant and a ternary operation, so that
    terms have nodes of every argument count from 0 to 3."""
    ops = (Operation("mul", 2), Operation("neg", 1), Operation("if3", 3), Operation("zero", 0))
    th = Theory(Signature("ternary", ops), (), oracle="tree")
    validate_theory(th)
    return th


TREE_CARRIERS["tree-ternary"] = _ternary()


# Terms that also apply undeclared operations, mix[p/q] among them, and
# give operations any argument count, over leaves that may hold values
# other than delays ("raw").
_ODD_OPS = ["mix[1/3]", "zzz"]


def _odd_terms(th):
    names = [o.name for o in th.signature.ops] + _ODD_OPS
    leaf = st.one_of(st.tuples(st.just("leaf"), _leaf_specs),
                     st.tuples(st.just("raw"), _values),
                     st.sampled_from([(name,) for name in names]))

    def extend(kids):
        return st.builds(lambda op, cs: (op, *cs), st.sampled_from(names),
                         st.lists(kids, min_size=1, max_size=3))

    return st.recursive(leaf, extend, max_leaves=6)


def _fault(th, t):
    """How the checked constructor should refuse the term spec ``t``: the
    message for its first node, in pre-order, that applies an undeclared
    operation or gives an operation the wrong argument count; None when
    there is none."""
    if t[0] in ("leaf", "raw"):
        return None
    declared = th.signature.arity(t[0])
    if declared is None:
        return f"applies '{t[0]}', which theory '{th.name}' does not declare"
    if declared != len(t) - 1:
        return f"applies '{t[0]}' to {len(t) - 1} arguments; it takes {declared}"
    return next(filter(None, (_fault(th, c) for c in t[1:])), None)


def _payload(t):
    if t[0] == "leaf":
        return ("leaf", _delay(t[1]))
    if t[0] == "raw":
        return ("leaf", t[1])
    return (t[0], *[_payload(c) for c in t[1:]])


def _normal(th, p):
    """``p`` rewritten bottom-up to normal form, by the reference root fix."""
    if p[0] == "leaf":
        return p
    return reference_root_fix(th, (p[0], *[_normal(th, c) for c in p[1:]]))


def _odd_payload(th, t):
    """The payload for the term spec ``t``, in normal form where the
    theory's carrier keeps terms normal."""
    p = _payload(t)
    return _normal(th, p) if fm._carrier_of(th).normalise else p


def _odd_element(th, t):
    """The element for a well-formed term spec ``t``, through the checked
    constructor."""
    return fm.ModelElement(fm._carrier_of(th).kind, _odd_payload(th, t), th)


_A, _B, _D = ("leaf", ("now", "a")), ("leaf", ("steps", 2, "b")), ("leaf", ("div",))
# terms no tree carrier builds, each refused at the checked constructor
MALFORMED = {
    "binary op given one argument": ("mul", _A),
    "binary op given three arguments": ("mul", _A, _B, _A),
    "unary op given two arguments": ("bang", _A, _B),
    "other unary op given two arguments": ("neg", _A, _B),
    "undeclared mix with two arguments": ("mix[1/3]", _A, _B),
    "undeclared mix with one argument": ("mix[1/3]", _A),
    "undeclared binary op": ("zzz", _A, _B),
    "undeclared unary op": ("zzz", _A),
    "leaf that is not a delay under an undeclared op": ("zzz", ("raw", "a")),
    "divergent child beside an undeclared op": ("zzz", _D, _A),
    "divergent child of an undeclared unary op": ("zzz", _D),
    "undeclared op beside a divergent child": ("mul", _D, ("zzz", _A)),
    "divergent child of a node of the wrong arity": ("mul", _D),
    "binary op as a constant": ("mul",),
}

_A1, _B1 = ("leaf", ("steps", 1, "a")), ("leaf", ("steps", 1, "b"))
# terms the checked constructor admits on the carriers that declare their
# operations: leaves that are not delays, divergent children, redexes in
# the payload and redexes that only form once the leaves' steps are taken
WELL_FORMED = {
    "leaf that is not a delay": ("mul", _A, ("raw", "a")),
    "leaf that is not a delay before a divergent one": ("mul", ("raw", "a"), _D),
    "divergent child of a binary node": ("mul", _D, _B),
    "redex on the fast path": ("mul", _A, _A),
    "redex formed by distribution": ("mul", _A, _A1),
    "redex under a unary node": ("bang", ("mul", _B, _B)),
    "redex formed under a unary node": ("bang", ("mul", _B1, _B)),
    "unary redex": ("neg", ("neg", _B)),
    "ternary node over every kind of leaf": ("if3", _A, _B, _D),
    "constant beside a stepping leaf": ("mul", ("zero",), _B),
}
# each case on every tree carrier whose theory declares its operations
WELL_FORMED_ON = [(carrier, case) for carrier in sorted(TREE_CARRIERS)
                  for case in sorted(WELL_FORMED)
                  if _fault(TREE_CARRIERS[carrier], WELL_FORMED[case]) is None]


class TestOnePass:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("carrier", sorted(TREE_CARRIERS))
    def test_malformed_terms_are_refused_at_construction(self, carrier, case):
        th = TREE_CARRIERS[carrier]
        fault = _fault(th, MALFORMED[case])
        with pytest.raises(ValueError, match=re.escape(fault) + "$"):
            fm.ModelElement(fm._carrier_of(th).kind, _payload(MALFORMED[case]), th)

    @pytest.mark.parametrize("mode", ["seq", "par"])
    @pytest.mark.parametrize("carrier,case", WELL_FORMED_ON)
    def test_well_formed_terms_distribute_as_per_node(self, carrier, case, mode):
        th = TREE_CARRIERS[carrier]
        m = _odd_element(th, WELL_FORMED[case])
        assert _outcome(lambda: induced_candidate(th, mode).apply(m)) \
            == _outcome(lambda: _per_node(th, mode, m))

    @pytest.mark.parametrize("mode", ["seq", "par"])
    def test_well_formed_outcomes_are_pinned(self, mode):
        # the outcomes the cases above agree on, pinned on the
        # rewrite-complete carriers
        th = CARRIERS["quotient-complete"]
        a, b = fm.unit(th, "a"), fm.unit(th, "b")
        bang_b = fm.apply_op(th, "bang", [b])
        apply = lambda th, case: induced_candidate(th, mode).apply(
            _odd_element(th, WELL_FORMED[case]))
        # mul(x, x) = x contracts in the payload, and again once the
        # leaves' steps are taken: 0 + 1 steps under seq, max(0, 1) under par
        assert apply(th, "redex on the fast path") == now(a)
        assert apply(th, "redex formed by distribution") == delay_n(1, a)
        assert apply(th, "redex under a unary node") == delay_n(2, bang_b)
        assert apply(th, "redex formed under a unary node") \
            == delay_n({"seq": 3, "par": 2}[mode], bang_b)
        assert apply(th, "divergent child of a binary node") is DIVERGE
        # neg(neg(x)) = x contracts at the unary root
        th = TREE_CARRIERS["quotient-unary-rule"]
        assert apply(th, "unary redex") == delay_n(2, fm.unit(th, "b"))
        # a leaf that is not a delay fails the same way on both paths
        th = CARRIERS["quotient-complete"]
        m = _odd_element(th, WELL_FORMED["leaf that is not a delay"])
        lift = {"seq": seq_lift_op, "par": par_lift_op}[mode]
        for cand in (induced_candidate(th, mode), custom_candidate(th, "mine", lift)):
            with pytest.raises(TypeError,
                               match=r"^distribution input must hold Delay values, found str$"):
                cand.apply(m)

    @pytest.mark.parametrize("mode", ["seq", "par"])
    @pytest.mark.parametrize("carrier", sorted(TREE_CARRIERS))
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_what_enters_distributes_as_per_node(self, carrier, mode, data):
        # the checked constructor refuses a term exactly when it applies an
        # undeclared operation or a wrong argument count; on every term it
        # accepts, the induced candidate raises or returns what the
        # per-node path does
        th = TREE_CARRIERS[carrier]
        t = data.draw(st.one_of(_odd_terms(th), _terms(th, raw=True)))
        fault = _fault(th, t)
        if fault is not None:
            with pytest.raises(ValueError, match=re.escape(fault) + "$"):
                _odd_element(th, t)
            return
        m = _odd_element(th, t)
        assert _outcome(lambda: induced_candidate(th, mode).apply(m)) \
            == _outcome(lambda: _per_node(th, mode, m))

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
            assert cand.lift == mode
            assert [step_count(cand.apply(m)) for m in inputs] == want[mode]
        assert calls == []
        # every custom candidate, whatever its name, goes through the
        # lifted operation
        for name in ("mine", "seq"):
            calls.clear()
            cand = lifting.custom_candidate(th, name, lifting.seq_lift_op)
            assert step_count(cand.apply(inputs[0])) == 3
            assert calls == ["mul"]

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
        got, want = fm.fmap(_MAPS[f], m), reference_fmap(th, _MAPS[f], m)
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
        # rest; on trees with nodes of every argument count the theory
        # declares, over any leaf values, both must build what the n-ary
        # graft builds
        th = TREE_CARRIERS[carrier]
        m = _odd_element(th, data.draw(_terms(th, raw=True)))
        fn = _MAPS[f]
        pairs = [
            (lambda: fm.fmap(fn, m),
             lambda: reference_free_bind(th, m, lambda v: reference_unit(th, fn(v)))),
            (lambda: fm.free_bind(m, lambda v: fm.apply_op(
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
        assert fm.fmap(_MAPS["constant"], m).payload == ("leaf", "c")
        for carrier, merged in (("finset", ("c",)), ("multiset", ("c", "c"))):
            th = CARRIERS[carrier]
            op = [o.name for o in th.signature.ops if o.arity == 2][0]
            m = fm.apply_op(th, op, [fm.unit(th, "a"), fm.unit(th, "b")])
            assert fm.fmap(_MAPS["constant"], m).payload == merged
        th = CARRIERS["dist"]
        m = fm.apply_op(th, "mix[1/3]", [fm.unit(th, "a"), fm.unit(th, "b")])
        assert fm.fmap(_MAPS["constant"], m).payload == (("c", Fraction(1)),)
