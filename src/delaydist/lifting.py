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
element per distribution, the same way on every carrier: the sequential
lifting sums the step counts of the element's values, the parallel
lifting takes their max, and a divergent value makes the result
divergent, absorbing the steps.  The value is one
:meth:`~delaydist.freemodel.Carrier.fmap` of the element to its values'
ends.  No operation needs checking on the way: the checked constructor of
:class:`~delaydist.freemodel.ModelElement` refuses a payload that the
theory's carrier would not build.  Custom liftings go through the lifted
operation at every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from . import freemodel as fm
from .delay import DIVERGE, Delay, delay_n, dmap
from .theory import Term, Theory, TheorySemanticError, Var

OpLifter = Callable[[str, List[Delay], Theory], Delay]


def _longest(counts: Sequence[int]) -> int:
    return max(counts, default=0)


# how each structural lifting combines its arguments' step counts
_TOTAL: Dict[str, Callable[[Sequence[int]], int]] = {"seq": sum, "par": _longest}


def _check_arity(op: str, args: Sequence[Delay], th: Theory) -> None:
    """Refuse a wrong argument count: the arity the theory's signature
    declares for ``op``, or 2 for an undeclared ``mix[p/q]``."""
    declared = th.signature.arities.get(op)
    if declared is None and fm.mix_weight(op) is not None:
        declared = 2
    if declared is not None and declared != len(args):
        raise TheorySemanticError(
            f"operation '{op}' expects {declared} arguments, got {len(args)}", op)


def _lift_op(op: str, args: Sequence[Delay], th: Theory,
             total: Callable[[Sequence[int]], int]) -> Delay:
    """``op`` applied to the arguments' final values after their step
    counts combined by ``total``, or DIVERGE when an argument diverges."""
    _check_arity(op, args, th)
    if any(a is DIVERGE for a in args):
        return DIVERGE
    return delay_n(total([a.steps for a in args]), fm.apply_op(th, op, [a.value for a in args]))


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


@dataclass
class DistLawCandidate:
    """A candidate transformation from model-over-delays to delayed-model.

    ``apply`` sends an element whose values are Delays to a Delay of an
    element over the inner values.  ``lift`` is the value :func:`lift_term`
    takes: "seq" or "par" for an induced candidate, else a custom
    op-lifter, which must return delays in normal form, built from
    ``Now``, ``step``, ``prepend_steps``, ``delay_n`` and ``DIVERGE``; a
    result that is not a ``Delay`` raises a ``TypeError`` naming the
    lifting and the operation, in :meth:`apply` and in :func:`lift_term`.
    ``induced`` is read off ``lift``: the theorems' guarantees and
    predictions (:func:`delaydist.laws.mark_prediction`) apply to the two
    structural liftings, whatever a custom candidate is named.

    An induced candidate distributes an element without calling an
    op-lifter and makes one element per result, on every carrier the same
    way: seq sums the step counts of the element's values, par takes
    their max, a divergent value makes the result DIVERGE, absorbing the
    steps, and the value is ``fmap`` of their end values.  It gives the
    result of the per-node path, and raises its ``TypeError`` for a value
    that is not a Delay.  A custom candidate sends every node of the
    element's representative through ``lift``.  Either kind refuses with
    ``ValueError`` an element of a theory other than ``theory``, by the
    rule :func:`~delaydist.freemodel.model_equal` applies to two elements:
    an element of an equal, separately built theory is accepted.  An
    induced candidate's equation preservation check counts each side's
    steps with the same rule, ``_TOTAL[induced]``, and evaluates each
    side's value once per value assignment, reading each case's verdict
    from two caches of the relation's comparison: a table of the sides'
    bare delays by step counts and a table of value comparisons
    (:func:`delaydist.laws.check_equation_preservation`).  Its MultT
    check reads the same two tables on a carrier that keeps every value
    (:func:`delaydist.laws.check_axiom`).
    """

    theory: Theory
    name: str
    lift: Union[str, OpLifter]

    def __post_init__(self) -> None:
        _lifter(self.lift)  # refuses anything else

    @property
    def induced(self) -> Optional[str]:
        """The structural lifting, "seq" or "par", or None for a custom one."""
        return self.lift if isinstance(self.lift, str) else None

    def apply(self, m: fm.ModelElement) -> Delay:
        carrier = fm._shared_carrier(m, self.theory)
        if isinstance(self.lift, str):
            return _distribute_values(m, carrier, _TOTAL[self.lift])
        return _lift_representative(fm.representative(m), self.lift, self.name, self.theory)


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
    """An induced candidate on ``m``, an element of ``carrier``: the step
    counts of its values combined by ``total``, over the element with each
    value replaced by its end, or DIVERGE when a value diverges.  Every
    value is checked to be a delay, as every leaf of the representative
    is on the per-node path."""
    counts, diverges = [], False
    for v in carrier.values_of(m):
        d = _leaf_delay(v)
        if d is DIVERGE:
            diverges = True
        else:
            counts.append(d.steps)
    if diverges:
        return DIVERGE
    return delay_n(total(counts), carrier.fmap(m, _end))


def induced_candidate(th: Theory, mode: str) -> DistLawCandidate:
    if mode not in _TOTAL:
        raise ValueError(f"induced candidates exist for 'seq' and 'par', not {mode!r}")
    return DistLawCandidate(th, mode, mode)


def custom_candidate(th: Theory, name: str, lift_op: OpLifter) -> DistLawCandidate:
    if not callable(lift_op):
        raise TypeError(f"a custom lifting is an op-lifting callable, not {lift_op!r}")
    return DistLawCandidate(th, name, lift_op)
