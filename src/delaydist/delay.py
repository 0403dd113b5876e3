"""Delayed computations: values guarded by zero or more computation steps.

Every ``Delay`` is in one normal form, the classical D X ≅ ℕ × X + 1:

* ``Now(v)``, a finished computation,
* ``Step``, n ≥ 1 visible steps and the final value, held as one node,
* ``DIVERGE``, the computation that never finishes.

Divergence absorbs its steps when it is built.  Coinductively never =
step(never), so ``Step(DIVERGE)``, :func:`step`, :func:`prepend_steps`
and :func:`bind` all return ``DIVERGE`` for stepⁿ(⊥).  A checker that
observes delays up to fuel needs nothing lazier than this form.

:func:`dmap`, :func:`join` and the comparisons are direct on this form:
they read the step count and the value in place, with no closure.

All observations are fuel bounded.  Comparisons are three valued
(:class:`Verdict`): strong equality counts steps exactly, weak
bisimilarity ignores finite step differences but still separates
termination from divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Tuple


class Delay:
    __slots__ = ()

    def __str__(self) -> str:
        return render_delay(self)


@dataclass(frozen=True, slots=True)
class Now(Delay):
    value: Any


@dataclass(frozen=True, slots=True, init=False)
class Step(Delay):
    """``steps`` ≥ 1 visible steps, then the final ``value``.
    ``Step(tail)`` puts one step in front of ``tail``, so
    ``Step(Step(Now(v)))`` is the single node ``steps=2, value=v``, and
    ``Step(DIVERGE)`` is ``DIVERGE`` itself."""

    steps: int
    value: Any

    # copy and pickle call __new__ with no tail
    def __new__(cls, tail: Optional[Delay] = None):
        return DIVERGE if tail is DIVERGE else _new(cls)

    def __init__(self, tail: Delay):
        _fill(self, 1, _checked(tail, "Step"))

    @property
    def tail(self) -> Delay:
        """The delayed value after the first step."""
        n = self.steps - 1
        return _steps(n, self.value) if n else Now(self.value)


# the slot setters, which build a frozen Step without the cost of its
# frozen __setattr__
_set_steps, _set_value = Step.steps.__set__, Step.value.__set__
_new = object.__new__


def _steps(n: int, value: Any) -> Step:
    """stepⁿ(now value), for n ≥ 1."""
    s = _new(Step)
    _set_steps(s, n)
    _set_value(s, value)
    return s


def _fill(s: Step, n: int, d: Delay) -> Step:
    """``s`` made stepⁿ(d), for ``d`` other than ``DIVERGE``."""
    if isinstance(d, Step):
        n += d.steps
    _set_steps(s, n)
    _set_value(s, d.value)
    return s


def _checked(d: Delay, what: str) -> Delay:
    if not isinstance(d, Delay):
        raise TypeError(f"{what} needs a Delay tail, got {type(d).__name__}")
    return d


class _Diverge(Delay):
    __slots__ = ()

    def __repr__(self) -> str:
        return "DIVERGE"

    # copy and pickle return the module's one DIVERGE, so divergence
    # keeps being recognised by identity
    def __reduce__(self) -> str:
        return "DIVERGE"


DIVERGE = _Diverge()


def now(value: Any) -> Delay:
    return Now(value)


def step(tail: Delay) -> Delay:
    return Step(_checked(tail, "step"))


def delay_n(n: int, value: Any) -> Delay:
    """step^n(now value)."""
    if n < 0:
        raise ValueError("negative step count")
    return _steps(n, value) if n else Now(value)


def resolve(d: Delay) -> Delay:
    """``d`` itself, since every delay is in normal form.  Kept for
    callers that step through a delay with ``resolve`` and ``Step.tail``,
    the benchmark's own tests among them."""
    return d


def prepend_steps(n: int, d: Delay) -> Delay:
    """stepⁿ(d), as one node; ``DIVERGE`` when ``d`` diverges."""
    _checked(d, "prepend_steps")
    return _fill(_new(Step), n, d) if n > 0 and d is not DIVERGE else d


def bind(d: Delay, k: Callable[[Any], Delay]) -> Delay:
    """Substitute into the final value, keeping every step of ``d``;
    divergence, of ``d`` or of ``k``'s result, absorbs them.  ``k`` must
    return a ``Delay``: this kernel does not check it, since it runs on
    every bind of every scan, and a plain value fails later, or not at
    all when ``d`` is a ``Now``."""
    if isinstance(d, Step):
        out = k(d.value)
        return DIVERGE if out is DIVERGE else _fill(_new(Step), d.steps, out)
    return DIVERGE if d is DIVERGE else k(d.value)


def dmap(d: Delay, f: Callable[[Any], Any]) -> Delay:
    """``f`` applied to the final value; the step count is kept."""
    if isinstance(d, Step):
        return _steps(d.steps, f(d.value))
    return DIVERGE if d is DIVERGE else Now(f(d.value))


def join(dd: Delay) -> Delay:
    """Flatten a delayed delayed value; steps of both layers add up."""
    if isinstance(dd, Step):
        inner = dd.value
        return DIVERGE if inner is DIVERGE else _fill(_new(Step), dd.steps, inner)
    return DIVERGE if dd is DIVERGE else dd.value


# ---------------------------------------------------------------------------
# observation


@dataclass(frozen=True, slots=True)
class Terminated:
    value: Any
    steps: int


class _Exhausted:
    __slots__ = ()

    def __repr__(self) -> str:
        return "EXHAUSTED"


class _KnownDivergent:
    __slots__ = ()

    def __repr__(self) -> str:
        return "KNOWN_DIVERGENT"


EXHAUSTED = _Exhausted()
KNOWN_DIVERGENT = _KnownDivergent()


def force(d: Delay, fuel: int):
    """Run for at most ``fuel`` steps.

    Returns ``Terminated(value, steps)``, ``KNOWN_DIVERGENT`` for
    divergence, or ``EXHAUSTED``.
    """
    n = d.steps if isinstance(d, Step) else 0
    if n > fuel:
        return EXHAUSTED
    return KNOWN_DIVERGENT if d is DIVERGE else Terminated(d.value, n)


def step_count(d: Delay) -> Optional[int]:
    """Number of steps before Now, or None for divergence."""
    if isinstance(d, Step):
        return d.steps
    return None if d is DIVERGE else 0


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True, slots=True)
class Verdict:
    kind: str  # "yes" | "no" | "unknown"
    fuel_spent: int = 0

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_no(self) -> bool:
        return self.kind == "no"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def __str__(self) -> str:
        if self.kind == "unknown":
            return f"unknown(fuel_spent={self.fuel_spent})"
        return self.kind


YES = Verdict("yes")
NO = Verdict("no")


def unknown(fuel_spent: int = 0) -> Verdict:
    return Verdict("unknown", fuel_spent)


def as_verdict(x) -> Verdict:
    if isinstance(x, Verdict):
        return x
    return YES if x else NO


def conjoin(verdicts: Iterable[Verdict]) -> Verdict:
    """No dominates, then Unknown, else Yes: :func:`_fold` without its count."""
    return _fold(verdicts)[0]


def _fold(verdicts: Iterable[Verdict]) -> Tuple[Verdict, int]:
    """The policy of every scan: the verdict of a stream of case verdicts,
    and how many of them it pulled.  The first No wins and nothing past it
    is pulled, so the generator of the stream stands at the No's case,
    where the scan builds its witness.  Otherwise the first Unknown is
    kept and the stream runs to its end; all Yes is Yes."""
    cases = 0
    first_unknown = None
    for v in verdicts:
        cases += 1
        if v is YES:
            continue
        if v.is_no:
            return v, cases
        if first_unknown is None and v.is_unknown:
            first_unknown = v
    return first_unknown or YES, cases


# ---------------------------------------------------------------------------
# comparisons

ValueRel = Callable[[Any, Any], Any]  # returns bool or Verdict


def strong_equal(x: Delay, y: Delay, fuel: int, value_eq: Optional[ValueRel] = None) -> Verdict:
    """Step-exact equality: same step count and equal final values.

    Divergence equals divergence, whatever the fuel.  Otherwise both
    sides advance one step per unit of fuel, and the verdict falls at the
    first depth where one side has finished; Unknown when fuel runs out
    first.
    """
    nx = x.steps if isinstance(x, Step) else 0
    ny = y.steps if isinstance(y, Step) else 0
    # NO where the first side finishes, the other still stepping there
    if x is DIVERGE:
        return YES if y is DIVERGE else NO if ny <= fuel else unknown(fuel)
    if y is DIVERGE:
        return NO if nx <= fuel else unknown(fuel)
    if nx != ny:
        return NO if min(nx, ny) <= fuel else unknown(fuel)
    if nx > fuel:
        return unknown(fuel)
    if value_eq is None:
        return YES if x.value == y.value else NO
    return as_verdict(value_eq(x.value, y.value))


def weak_bisim(x: Delay, y: Delay, rel: ValueRel, fuel: int) -> Verdict:
    """Bounded weak bisimilarity over a base value relation.

    Finite step differences are ignored; termination never matches
    divergence.  Both sides advance together, so the verdict falls once
    the longer one has ended; Unknown when that is beyond ``fuel``.
    """
    nx = x.steps if isinstance(x, Step) else 0
    ny = y.steps if isinstance(y, Step) else 0
    if nx > fuel or ny > fuel:
        return unknown(fuel)
    if x is DIVERGE or y is DIVERGE:
        return YES if x is y else NO
    return as_verdict(rel(x.value, y.value))


# ---------------------------------------------------------------------------
# rendering


def render_delay(d: Delay, value_render: Callable[[Any], str] = str) -> str:
    """``step^n(now v)`` prints as ``n·step ▸ v``; divergence as ``⊥``."""
    if d is DIVERGE:
        return "⊥"
    n = d.steps if isinstance(d, Step) else 0
    return f"{n}·step ▸ {value_render(d.value)}"
