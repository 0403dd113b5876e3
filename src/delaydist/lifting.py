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
plain arithmetic on step counts, and an induced candidate builds one
element per distribution: the sequential lifting sums the leaves' step
counts, the parallel lifting takes their max, and a divergent leaf makes
the result divergent, absorbing the steps.  The value is the element
with each leaf replaced by its end value.  On a tree carrier one
post-order walk over the representative builds the counts and the
payload together and makes the element at the root; on the other
carriers the counts come from the element's values and the value from
one :meth:`~delaydist.freemodel.Carrier.fmap`.  Custom liftings go
through the lifted operation at every node.
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
    or, from the payload walk, a ``(steps, payload)`` pair already read
    off one."""
    counts, values, diverges = [], [], False
    for a in args:
        if isinstance(a, tuple):
            n, v = a
        elif a is DIVERGE:
            diverges = True
            continue
        else:
            n, v = (a.steps if isinstance(a, Step) else 0), a.value
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
    # a custom lifting's results are checked where they are used
    name = None if isinstance(mode, str) else getattr(mode, "__name__", repr(mode))
    return _lift_term(t, env, lifter, name, th)


def _lift_term(t: Term, env: Dict[str, Delay], lifter: OpLifter, name: Optional[str],
               th: Theory) -> Delay:
    """:func:`lift_term` with the lifting resolved: ``lifter`` at every
    node, its result checked to be a Delay when ``name`` is given."""
    if isinstance(t, Var):
        if t.name not in env:
            raise TheorySemanticError(f"unbound variable '{t.name}'", t.name)
        return env[t.name]
    out = lifter(t.op, [_lift_term(a, env, lifter, name, th) for a in t.args], th)
    return out if name is None else _lifted(out, name, t.op)


def _lifted(out, lifting: str, op: str) -> Delay:
    """``out``, the result of lifting ``op`` with a custom lifting, once
    it is known to be a Delay."""
    if not isinstance(out, Delay):
        raise TypeError(f"lifting {lifting!r} returned {type(out).__name__} for "
                        f"operation '{op}', not a Delay")
    return out


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


def _end(d: Delay):
    """The final value of a delay that finishes."""
    return d.value


def _walk(node, carrier: fm.TreeCarrier, total: Callable[[Sequence[int]], int]):
    """``(steps, payload)`` for a representative term over delays, or
    DIVERGE, in the tree carrier ``carrier``, the theory's own.  Leaves
    give their step count and a leaf over their value, nodes combine
    their children's counts by ``total`` and build the model operation's
    payload over theirs; a divergent child makes the node divergent
    without applying it.  Errors come from the same leaf or node, in the
    same order, as on the per-node path: the children, the argument
    count, divergence, then an undeclared operation.  Unary and binary
    nodes take that order without building an argument list."""
    op = node[0]
    if op == "leaf":
        d = _leaf_delay(node[1])
        if d is DIVERGE:
            return DIVERGE
        return (d.steps if isinstance(d, Step) else 0), ("leaf", d.value)
    declared = carrier.arities.get(op)
    arity = len(node) - 1
    if arity == 2:
        a = _walk(node[1], carrier, total)
        b = _walk(node[2], carrier, total)
        if declared != 2:
            _check_arity(op, (a, b), carrier.theory)
        if a is DIVERGE or b is DIVERGE:
            return DIVERGE
        n, payload = total((a[0], b[0])), (op, a[1], b[1])
    elif arity == 1:
        a = _walk(node[1], carrier, total)
        if declared != 1:
            _check_arity(op, (a,), carrier.theory)
        if a is DIVERGE:
            return DIVERGE
        n, payload = a[0], (op, a[1])
    else:
        args = [_walk(child, carrier, total) for child in node[1:]]
        _check_arity(op, args, carrier.theory)
        ends = _eager_ends(args, total)
        if ends is DIVERGE:
            return DIVERGE
        n, payloads = ends
        payload = (op, *payloads)
    if declared is None:
        # an undeclared operation fails where it would be applied
        raise carrier.unknown_operation(op)
    # the children are normal, so fixing the node keeps the payload normal
    return n, carrier.normalise(payload) if carrier.normalise else payload


@dataclass
class DistLawCandidate:
    """A candidate transformation from model-over-delays to delayed-model.

    ``apply`` sends an element whose values are Delays to a Delay of an
    element over the inner values.  ``lift_op`` is the underlying
    op-level lifting, with which a custom candidate's equation
    preservation check interprets terms.  A custom ``lift_op`` must
    return delays in normal form, built from ``Now``, ``step``,
    ``prepend_steps``, ``delay_n`` and ``DIVERGE``; a result that is not
    a ``Delay`` raises a ``TypeError`` naming the lifting and the
    operation, in :meth:`apply` and in :func:`lift_term`.

    ``induced`` names the structural lifting ("seq" or "par") that an
    induced candidate comes from, and is None for a custom one.  An
    induced candidate distributes an element without calling ``lift_op``
    and makes one element per result: seq sums the leaves' step counts,
    par takes their max, and a divergent leaf makes the result DIVERGE,
    absorbing the steps.  On a tree or quotient carrier one post-order
    walk over the representative builds ``(steps, payload)``, with the
    checks of the per-node path in its order (argument count, divergence
    before the operation is applied, an unknown operation where it is
    applied, a non-Delay leaf); on the other carriers the counts come
    from the element's values and the value is ``fmap`` of their end
    values.  A custom candidate, and an induced one given an element of
    another carrier kind than its theory's, sends every node through
    ``lift_op``.  For an induced candidate both routes give the same
    result and raise the same errors.  Its equation preservation check
    counts each side's steps with the same rule, ``_TOTAL[induced]``,
    and evaluates each side's value once per value assignment, reading
    each case's verdict from two caches of the relation's comparison: a
    table of the sides' bare delays by step counts and a table of value
    comparisons (:func:`delaydist.laws.check_equation_preservation`).
    """

    theory: Theory
    name: str
    lift_op: OpLifter
    induced: Optional[str] = None

    def apply(self, m: fm.ModelElement) -> Delay:
        th = self.theory
        if self.induced is not None:
            total = _TOTAL[self.induced]
            carrier = fm._carrier_of(th)
            if isinstance(carrier, fm.TreeCarrier):
                out = _walk(fm.representative(m), carrier, total)
                return DIVERGE if out is DIVERGE else delay_n(out[0], carrier.element(out[1]))
            if m.carrier.__class__ is carrier.__class__:
                return _distribute_values(m, carrier, total)
        return _lift_representative(fm.representative(m), self.lift_op, self.name, th)


def _lift_representative(node, lift_op: OpLifter, name: str, th: Theory) -> Delay:
    """A representative term over delays interpreted with ``lift_op`` at
    every node, each result checked to be a Delay; a leaf gives its delay
    of the unit element."""
    if node[0] == "leaf":
        return dmap(_leaf_delay(node[1]), lambda v: fm.unit(th, v))
    args = [_lift_representative(child, lift_op, name, th) for child in node[1:]]
    return _lifted(lift_op(node[0], args, th), name, node[0])


def _distribute_values(m: fm.ModelElement, carrier: fm.Carrier,
                       total: Callable[[Sequence[int]], int]) -> Delay:
    """An induced candidate on an element of a carrier that is not a tree:
    the values' step counts combined by ``total``, over the element with
    each value replaced by its end, or DIVERGE when a value diverges.
    Every value is checked to be a delay, as every leaf of the
    representative is.  An element without values is a constant: its
    representative is one nullary operation, checked as the walk checks
    a node."""
    values = carrier.values_of(m)
    if not values:
        op = fm.representative(m)[0]
        _check_arity(op, (), carrier.theory)
        if op not in carrier.arities:
            raise carrier.unknown_operation(op)
    counts, diverges = [], False
    for v in values:
        d = _leaf_delay(v)
        if d is DIVERGE:
            diverges = True
        else:
            counts.append(d.steps if isinstance(d, Step) else 0)
    if diverges:
        return DIVERGE
    return delay_n(total(counts), carrier.fmap(m, _end))


def induced_candidate(th: Theory, mode: str) -> DistLawCandidate:
    if mode not in _TOTAL:
        raise ValueError(f"induced candidates exist for 'seq' and 'par', not {mode!r}")
    return DistLawCandidate(th, mode, _lifter(mode), induced=mode)


def custom_candidate(th: Theory, name: str, lift_op: OpLifter) -> DistLawCandidate:
    return DistLawCandidate(th, name, lift_op)
