"""Step-count arithmetic of the two liftings, pinned to integer oracles.

The sequential lifting must take the sum of its arguments' step counts,
the parallel lifting the max; both facts are checked exhaustively for
binary operations at up to three steps per argument."""

import itertools

import pytest

from delaydist import freemodel as fm
from delaydist.delay import (DIVERGE, Now, bind, defer, delay_n, dmap, now,
                             reify, step_count, strong_equal, weak_bisim)
from delaydist.lifting import (DistLawCandidate, custom_candidate, induced_candidate,
                               lift_term, par_lift_op, seq_lift_op)
from delaydist.theory import App, TheorySemanticError, Var

STEPS = range(4)


def _el(th, v):
    return fm.unit(th, v)


def _value(d):
    r = reify(d)
    assert isinstance(r, Now) or r is DIVERGE or step_count(d) is not None
    cur = r
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

    def test_suspended_arguments_still_counted(self):
        th = fm.magma()

        def lazy(n, v):
            e = _el(th, v)
            return defer(lambda: delay_n(n, e)) if n else now(e)

        for m, n in itertools.product(STEPS, repeat=2):
            assert step_count(seq_lift_op("mul", [lazy(m, "a"), lazy(n, "b")], th)) == m + n
            assert step_count(par_lift_op("mul", [lazy(m, "a"), lazy(n, "b")], th)) == max(m, n)

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
        for arg in (now(a), DIVERGE, defer(lambda: now(a))):
            with pytest.raises(TheorySemanticError,
                               match=r"^operation 'mul' expects 2 arguments, got 1$"):
                lift("mul", [arg], th)
        # an undeclared operation fails only where the model applies it
        with pytest.raises(TheorySemanticError,
                           match=r"^unknown operation 'frob' in theory 'magma'$"):
            lift("frob", [now(a)], th)
        assert lift("frob", [DIVERGE], th) is DIVERGE
        lazy = lift("frob", [defer(lambda: delay_n(1, a))], th)
        with pytest.raises(TheorySemanticError, match="unknown operation 'frob'"):
            reify(lazy)


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
        cand = induced_candidate(th, "seq")
        with pytest.raises(TypeError):
            cand.apply(fm.unit(th, "bare"))

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

    def test_diverging_leaf_diverges(self):
        th = fm.magma()
        m = fm.apply_op(th, "mul", [fm.unit(th, DIVERGE), fm.unit(th, now("b"))])
        for mode in ("seq", "par"):
            assert step_count(induced_candidate(th, mode).apply(m)) is None
