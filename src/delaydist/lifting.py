"""Lifting model operations over delayed arguments.

Two structural liftings are provided.  The parallel lifting advances all
unfinished arguments together, so the lifted operation takes as many
steps as its slowest argument.  The sequential lifting strips the
leftmost unfinished argument first, so steps add up across arguments.
Either lifting induces a candidate transformation from model-of-delays
to delayed-model by interpreting an element's representative term with
lifted operations; whether the candidate is an actual distributive law
is what the axiom checkers decide.

Every delay is in the normal form D X ≅ ℕ × X + 1, so both liftings are
plain arithmetic on step counts, and an induced candidate runs in one
walk over the representative: the sequential lifting sums the leaves'
step counts, the parallel lifting takes their max, the model operations
act on the leaves' values, and a divergent leaf makes the result
divergent, absorbing the steps.  Custom liftings go through the lifted
operation at every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from . import freemodel as fm
from .delay import DIVERGE, Delay, Step, delay_n, dmap
from .theory import Term, Theory, TheorySemanticError, Var

OpLifter = Callable[[str, List[Delay], Theory], Delay]


def _longest(counts: Sequence[int]) -> int:
    return max(counts, default=0)


# how each structural lifting combines its arguments' step counts
_TOTAL: Dict[str, Callable[[Sequence[int]], int]] = {"seq": sum, "par": _longest}


def _eager_ends(args, total: Callable[[Sequence[int]], int]):
    """The arguments' step counts, combined by ``total``, and final
    values, or DIVERGE when one of them diverges.  An argument is a Delay
    or, from the one-pass walk, a ``(steps, value)`` pair already read
    off one."""
    counts, values, diverges = [], [], False
    for a in args:
        if isinstance(a, tuple):
            n, v = a
        elif a is DIVERGE:
            diverges = True
            continue
        else:
            n, end = (a.steps, a.end) if isinstance(a, Step) else (0, a)
            v = end.value
        counts.append(n)
        values.append(v)
    return DIVERGE if diverges else (total(counts), values)


def _check_arity(op: str, args: Sequence[Delay], th: Theory) -> None:
    """Refuse a wrong argument count: the arity the theory's carrier
    resolved for ``op``, or 2 for an undeclared ``mix[p/q]``."""
    declared = fm._carrier_of(th).arities.get(op)
    if declared is None and fm.mix_weight(op) is not None:
        declared = 2
    if declared is not None and declared != len(args):
        raise TheorySemanticError(
            f"operation '{op}' expects {declared} arguments, got {len(args)}", op)


def _lift_op(op: str, args: Sequence[Delay], th: Theory,
             total: Callable[[Sequence[int]], int]) -> Delay:
    _check_arity(op, args, th)
    ends = _eager_ends(args, total)
    if ends is DIVERGE:
        return DIVERGE
    n, values = ends
    return delay_n(n, fm.apply_op(th, op, values))


def par_lift_op(op: str, args: Sequence[Delay], th: Theory) -> Delay:
    """Advance every unfinished argument together, so the application
    takes as many steps as its slowest argument.  A divergent argument
    makes the whole application divergent."""
    return _lift_op(op, args, th, _longest)


def seq_lift_op(op: str, args: Sequence[Delay], th: Theory) -> Delay:
    """Strip the leftmost unfinished argument one step at a time; steps
    add up across arguments.  A divergent argument makes the whole
    application divergent."""
    return _lift_op(op, args, th, sum)


def lift_term(t: Term, env: Dict[str, Delay], mode, th: Theory) -> Delay:
    """Interpret a term over delayed values.

    ``mode`` is "seq", "par", or an op-lifting callable, resolved once per
    term.  Each variable occurrence reads the (possibly shared) delayed
    value independently.
    """
    lifter = _lifter(mode)

    def go(t: Term) -> Delay:
        if isinstance(t, Var):
            if t.name not in env:
                raise TheorySemanticError(f"unbound variable '{t.name}'", t.name)
            return env[t.name]
        return lifter(t.op, [go(a) for a in t.args], th)

    return go(t)


def _lifter(mode) -> OpLifter:
    if mode == "seq":
        return seq_lift_op
    if mode == "par":
        return par_lift_op
    if callable(mode):
        return mode
    raise ValueError(f"unknown lift mode {mode!r}")


def _leaf_delay(x) -> Delay:
    if not isinstance(x, Delay):
        raise TypeError(f"distribution input must hold Delay values, found {type(x).__name__}")
    return x


def _walk(node, th: Theory, total: Callable[[Sequence[int]], int]):
    """``(steps, element)`` for a representative term over delays, or
    DIVERGE.  Leaves give their step count and unit element,
    nodes combine their children's counts by ``total`` and apply the
    model operation to their elements; a divergent child makes the node
    divergent without applying it.  Errors come from the same leaf or
    node, in the same order, as on the per-node path."""
    if node[0] == "leaf":
        d = _leaf_delay(node[1])
        if d is DIVERGE:
            return DIVERGE
        n, end = (d.steps, d.end) if isinstance(d, Step) else (0, d)
        return n, fm.unit(th, end.value)
    op = node[0]
    args = [_walk(child, th, total) for child in node[1:]]
    _check_arity(op, args, th)
    ends = _eager_ends(args, total)
    if ends is DIVERGE:
        return DIVERGE
    n, values = ends
    return n, fm.apply_op(th, op, values)


@dataclass
class DistLawCandidate:
    """A candidate transformation from model-over-delays to delayed-model.

    ``apply`` sends an element whose values are Delays to a Delay of an
    element over the inner values.  ``lift_op`` is the underlying
    op-level lifting, with which a custom candidate's equation
    preservation check interprets terms.  A custom ``lift_op`` must
    return delays in normal form, built from ``Now``, ``step``,
    ``prepend_steps``, ``delay_n`` and ``DIVERGE``.

    ``induced`` names the structural lifting ("seq" or "par") that an
    induced candidate comes from, and is None for a custom one.  An
    induced candidate distributes an element in one walk over its
    representative, without calling ``lift_op``: seq sums the leaves'
    step counts, par takes their max, and a divergent leaf makes the
    result DIVERGE, absorbing the steps.  A custom candidate sends every
    node through ``lift_op``.  For an induced candidate both routes give
    the same result and raise the same errors.  Its equation preservation
    check counts steps and evaluates values the same way, once per value
    assignment (:func:`delaydist.laws.check_equation_preservation`).
    """

    theory: Theory
    name: str
    lift_op: OpLifter
    induced: Optional[str] = None

    def apply(self, m: fm.ModelElement) -> Delay:
        return self._distribute(m)

    def _distribute(self, m: fm.ModelElement) -> Delay:
        th = self.theory
        rep = fm.representative(m)
        if self.induced is not None:
            out = _walk(rep, th, _TOTAL[self.induced])
            return DIVERGE if out is DIVERGE else delay_n(*out)

        def go(node) -> Delay:
            if node[0] == "leaf":
                return dmap(_leaf_delay(node[1]), lambda v: fm.unit(th, v))
            args = [go(child) for child in node[1:]]
            return self.lift_op(node[0], args, th)

        return go(rep)


def induced_candidate(th: Theory, mode: str) -> DistLawCandidate:
    if mode not in _TOTAL:
        raise ValueError(f"induced candidates exist for 'seq' and 'par', not {mode!r}")
    return DistLawCandidate(th, mode, _lifter(mode), induced=mode)


def custom_candidate(th: Theory, name: str, lift_op: OpLifter) -> DistLawCandidate:
    return DistLawCandidate(th, name, lift_op)
