"""Lifting model operations over delayed arguments.

Two structural liftings are provided.  The parallel lifting advances all
unfinished arguments together, so the lifted operation takes as many
steps as its slowest argument.  The sequential lifting strips the
leftmost unfinished argument first, so steps add up across arguments.
Either lifting induces a candidate transformation from model-of-delays
to delayed-model by interpreting an element's representative term with
lifted operations; whether the candidate is an actual distributive law
is what the axiom checkers decide.

On materialised input, where D X ≅ ℕ × X + 1, an induced candidate is
plain arithmetic and runs in one walk over the representative: the
sequential lifting sums the leaves' step counts, the parallel lifting
takes their max, the model operations act on the leaves' values, and a
divergent leaf makes the result divergent, absorbing the steps.  Lazy
input and custom liftings go through the lifted operation at every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from . import freemodel as fm
from .delay import (DIVERGE, Delay, Deferred, Now, Step, delay_n, dmap, reify, resolve)
from .theory import Term, Theory, TheorySemanticError, Var

OpLifter = Callable[[str, List[Delay], Theory], Delay]


def _longest(counts: Sequence[int]) -> int:
    return max(counts, default=0)


# how each structural lifting combines its arguments' step counts
_TOTAL: Dict[str, Callable[[Sequence[int]], int]] = {"seq": sum, "par": _longest}


def _eager_ends(args, total: Callable[[Sequence[int]], int]):
    """The arguments' step counts, combined by ``total``, and final values
    when all are materialised: DIVERGE when one of them diverges, None
    when one is still suspended.  An argument is a Delay or, from the
    one-pass walk, a ``(steps, value)`` pair already read off one."""
    counts, values, diverges = [], [], False
    for a in args:
        if isinstance(a, tuple):
            n, v = a
        else:
            n, end = (a.steps, a.end) if isinstance(a, Step) else (0, a)
            if isinstance(end, Now):
                v = end.value
            elif end is DIVERGE:
                diverges = True
                continue
            else:
                return None
        counts.append(n)
        values.append(v)
    return DIVERGE if diverges else (total(counts), values)


def _check_arity(op: str, args: Sequence[Delay], th: Theory) -> None:
    declared = th.signature.arity(op)
    if declared is None and fm.mix_weight(op) is not None:
        declared = 2
    if declared is not None and declared != len(args):
        raise TheorySemanticError(
            f"operation '{op}' expects {declared} arguments, got {len(args)}", op)


def par_lift_op(op: str, args: Sequence[Delay], th: Theory) -> Delay:
    """All-finished: apply now.  Otherwise one step, advancing every
    unfinished argument together.  A divergent argument makes the whole
    application divergent."""
    _check_arity(op, args, th)
    ends = _eager_ends(args, _longest)
    if ends is None:
        return _par(op, [resolve(a) for a in args], th)
    if ends is DIVERGE:
        return DIVERGE
    n, values = ends
    return delay_n(n, fm.apply_op(th, op, values))


def _par(op: str, args: List[Delay], th: Theory) -> Delay:
    if any(a is DIVERGE for a in args):
        return DIVERGE
    if all(isinstance(a, Now) for a in args):
        return Now(fm.apply_op(th, op, [a.value for a in args]))
    nexts = [a.tail if isinstance(a, Step) else a for a in args]
    return Step(Deferred(lambda: _par(op, [resolve(a) for a in nexts], th)))


def seq_lift_op(op: str, args: Sequence[Delay], th: Theory) -> Delay:
    """Strip the leftmost unfinished argument one step at a time; steps
    add up across arguments."""
    _check_arity(op, args, th)
    ends = _eager_ends(args, sum)
    if ends is None:
        return _seq(op, [resolve(a) for a in args], th)
    if ends is DIVERGE:
        return DIVERGE
    n, values = ends
    return delay_n(n, fm.apply_op(th, op, values))


def _seq(op: str, args: List[Delay], th: Theory) -> Delay:
    for i, a in enumerate(args):
        if isinstance(a, Now):
            continue
        if a is DIVERGE:
            return DIVERGE

        def advance(i=i, tail=a.tail, frozen=tuple(args)):
            rest = list(frozen)
            rest[i] = resolve(tail)
            return _seq(op, rest, th)

        return Step(Deferred(advance))
    return Now(fm.apply_op(th, op, [a.value for a in args]))


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


class _Suspended(Exception):
    """A representative leaf ends in a Deferred node, so the one-pass walk
    gives way to the lifted operations."""


def _leaf_delay(x) -> Delay:
    if not isinstance(x, Delay):
        raise TypeError(f"distribution input must hold Delay values, found {type(x).__name__}")
    return x


def _walk(node, th: Theory, total: Callable[[Sequence[int]], int]):
    """``(steps, element)`` for a representative term over materialised
    delays, or DIVERGE.  Leaves give their step count and unit element,
    nodes combine their children's counts by ``total`` and apply the
    model operation to their elements; a divergent child makes the node
    divergent without applying it.  Errors come from the same leaf or
    node, in the same order, as on the per-node path."""
    if node[0] == "leaf":
        d = _leaf_delay(node[1])
        n, end = (d.steps, d.end) if isinstance(d, Step) else (0, d)
        if isinstance(end, Now):
            return n, fm.unit(th, end.value)
        if end is DIVERGE:
            return DIVERGE
        raise _Suspended
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
    element over the inner values; results are reified so they can be
    embedded in canonical payloads.  ``lift_op`` is the underlying
    op-level lifting, also used for term interpretation in equation
    preservation checks.

    ``induced`` names the structural lifting ("seq" or "par") that an
    induced candidate comes from, and is None for a custom one.  An
    induced candidate distributes input whose leaves are all materialised
    in one walk over the representative, without calling ``lift_op``:
    seq sums the leaves' step counts, par takes their max, and a divergent
    leaf makes the result DIVERGE, absorbing the steps.  When a leaf ends
    in a Deferred node, and for custom candidates, every node goes through
    ``lift_op``.  Both routes give the same result and raise the same
    errors.
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
            try:
                out = _walk(rep, th, _TOTAL[self.induced])
            except _Suspended:
                pass
            else:
                return DIVERGE if out is DIVERGE else delay_n(*out)

        def go(node) -> Delay:
            if node[0] == "leaf":
                return dmap(_leaf_delay(node[1]), lambda v: fm.unit(th, v))
            args = [go(child) for child in node[1:]]
            return self.lift_op(node[0], args, th)

        return reify(go(rep))


def induced_candidate(th: Theory, mode: str) -> DistLawCandidate:
    if mode not in _TOTAL:
        raise ValueError(f"induced candidates exist for 'seq' and 'par', not {mode!r}")
    return DistLawCandidate(th, mode, _lifter(mode), induced=mode)


def custom_candidate(th: Theory, name: str, lift_op: OpLifter) -> DistLawCandidate:
    return DistLawCandidate(th, name, lift_op)
