"""Delayed computations: values guarded by zero or more computation steps.

A ``Delay`` is one of

* ``Now(v)``, a finished computation,
* ``Step``, n ≥ 1 visible steps in front of a ``Now``, ``DIVERGE`` or
  ``Deferred`` end, held as one node,
* ``DIVERGE``, the computation that never finishes,

plus ``Deferred``, a lazy node whose tail is produced on demand.  Every
value the checkers build is materialised, so it is ``Now(v)``, one
``Step`` node for stepⁿ(now v) or stepⁿ(⊥), or ``DIVERGE``: the classical
D X ≅ ℕ × X + 1 with the step count kept in front of divergence.
``Deferred`` shows up only in corecursive definitions (custom liftings
and the lazy paths of the structural ones) and is resolved away by
:func:`reify`.  :func:`peel` is the one walker over lazy input.

All observations are fuel bounded.  Comparisons are three valued
(:class:`Verdict`): strong equality counts steps exactly, weak
bisimilarity ignores finite step differences but still separates
termination from divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Tuple

REIFY_LIMIT = 100_000


class DelayFuelError(RuntimeError):
    """An internal observation exceeded its step budget."""


class Delay:
    __slots__ = ()

    def map(self, f: Callable[[Any], Any]) -> "Delay":
        return dmap(self, f)

    def bind(self, k: Callable[[Any], "Delay"]) -> "Delay":
        return bind(self, k)

    def __str__(self) -> str:
        return render_delay(self)


@dataclass(frozen=True, slots=True)
class Now(Delay):
    value: Any


@dataclass(frozen=True, slots=True, init=False)
class Step(Delay):
    """``steps`` ≥ 1 visible steps in front of ``end``, which is never
    itself a ``Step``.  ``Step(tail)`` puts one step in front of ``tail``,
    so ``Step(Step(Now(v)))`` is the single node ``steps=2, end=Now(v)``."""

    steps: int
    end: Delay

    def __init__(self, tail: Delay):
        _fill(self, 1, tail)

    @property
    def tail(self) -> Delay:
        """The delayed value after the first step."""
        return prepend_steps(self.steps - 1, self.end)


# the slot setters, which build a frozen Step without the cost of its
# frozen __setattr__
_set_steps, _set_end = Step.steps.__set__, Step.end.__set__
_new = object.__new__


def _fill(s: Step, n: int, d: Delay) -> Step:
    if isinstance(d, Step):
        n += d.steps
        d = d.end
    _set_steps(s, n)
    _set_end(s, d)
    return s


class Deferred(Delay):
    """A delayed value produced on demand.

    The thunk must be pure; its result is cached, so forcing twice yields
    the same value.  ``Deferred`` compares by identity.  Semantic
    comparisons always go through :func:`strong_equal` or
    :func:`weak_bisim`, which resolve deferred nodes as they walk.
    """

    __slots__ = ("_thunk", "_cached")

    def __init__(self, thunk: Callable[[], Delay]):
        self._thunk = thunk
        self._cached: Optional[Delay] = None

    def forced(self) -> Delay:
        if self._cached is None:
            self._cached = self._thunk()
            self._thunk = None
        return self._cached

    def peek(self) -> Optional[Delay]:
        """The cached result, or None while still suspended."""
        return self._cached

    def __repr__(self) -> str:
        return "Deferred(<suspended>)" if self._cached is None else f"Deferred({self._cached!r})"


class _Diverge(Delay):
    __slots__ = ()

    def __repr__(self) -> str:
        return "DIVERGE"


DIVERGE = _Diverge()


def now(value: Any) -> Delay:
    return Now(value)


def step(tail: Delay) -> Delay:
    if not isinstance(tail, Delay):
        raise TypeError(f"step needs a Delay tail, got {type(tail).__name__}")
    return Step(tail)


def defer(thunk: Callable[[], Delay]) -> Delay:
    return Deferred(thunk)


def diverge() -> Delay:
    return DIVERGE


def delay_n(n: int, value: Any) -> Delay:
    """step^n(now value)."""
    if n < 0:
        raise ValueError("negative step count")
    return prepend_steps(n, Now(value))


def resolve(d: Delay) -> Delay:
    """Peel Deferred wrappers until a constructor is visible."""
    while isinstance(d, Deferred):
        d = d.forced()
    return d


def prepend_steps(n: int, d: Delay) -> Delay:
    """stepⁿ(d), as one node."""
    return _fill(_new(Step), n, d) if n > 0 else d


def peel(d: Delay, fuel: int = -1) -> Tuple[int, Delay]:
    """Split ``d`` into its count of visible steps and what follows them.

    Returns ``(n, end)`` with ``end`` a ``Now``, ``DIVERGE`` or, only when
    ``n`` exceeds ``fuel``, an unforced ``Deferred``.  Deferred nodes met
    within ``fuel`` steps are forced; the default -1 forces none.
    """
    n = 0
    while True:
        if isinstance(d, Step):
            n += d.steps
            d = d.end
        if n > fuel or not isinstance(d, Deferred):
            return n, d
        d = d.forced()


def bind(d: Delay, k: Callable[[Any], Delay]) -> Delay:
    """Substitute into the final value, keeping every step of ``d``.

    Steps in front of a finished value are kept, steps in front of
    divergence are absorbed.  A suspension is only built at the first
    unforced node, so productivity is unaffected.
    """
    n = 0
    if isinstance(d, Step):
        n, d = d.steps, d.end
    if isinstance(d, Now):
        out = k(d.value)
        return _fill(_new(Step), n, out) if n else out
    if d is DIVERGE:
        return DIVERGE
    return prepend_steps(n, Deferred(lambda: bind(d.forced(), k)))


def dmap(d: Delay, f: Callable[[Any], Any]) -> Delay:
    return bind(d, lambda v: Now(f(v)))


def join(dd: Delay) -> Delay:
    """Flatten a delayed delayed value; steps of both layers add up."""
    return bind(dd, lambda inner: inner)


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

    Returns ``Terminated(value, steps)``, ``KNOWN_DIVERGENT`` when the
    divergence marker is reached within budget, or ``EXHAUSTED``.
    """
    n, end = peel(d, fuel)
    if n > fuel:
        return EXHAUSTED
    return Terminated(end.value, n) if isinstance(end, Now) else KNOWN_DIVERGENT


def _peel_within(d: Delay, limit: int, caller: str) -> Tuple[int, Delay]:
    n, end = peel(d, limit)
    if n > limit:
        raise DelayFuelError(f"{caller} exceeded {limit} steps")
    return n, end


def reify(d: Delay, limit: int = REIFY_LIMIT) -> Delay:
    """Normalise to one materialised node; trailing DIVERGE absorbs steps.

    Only safe on values known to be total at desk scale; raises
    DelayFuelError when the chain exceeds ``limit`` steps.
    """
    n, end = _peel_within(d, limit, "reify")
    if end is DIVERGE:
        return DIVERGE
    if isinstance(d, Step) and d.end is end:
        return d  # already one materialised node
    return prepend_steps(n, end)


def step_count(d: Delay, limit: int = REIFY_LIMIT) -> Optional[int]:
    """Number of steps before Now, or None for divergence."""
    n, end = _peel_within(d, limit, "step_count")
    return None if end is DIVERGE else n


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
    """No dominates, then Unknown, else Yes."""
    saw_unknown = None
    for v in verdicts:
        if v.is_no:
            return v
        if v.is_unknown and saw_unknown is None:
            saw_unknown = v
    return saw_unknown if saw_unknown is not None else YES


# ---------------------------------------------------------------------------
# comparisons

ValueRel = Callable[[Any, Any], Any]  # returns bool or Verdict


def strong_equal(x: Delay, y: Delay, fuel: int, value_eq: Optional[ValueRel] = None) -> Verdict:
    """Step-exact equality: same step count and equal final values.

    Divergence equals divergence.  Both sides advance one step per unit
    of fuel, and the verdict falls at the first depth where one side has
    finished (or both have diverged); Unknown when fuel runs out first.
    Deferred nodes within ``fuel`` steps are forced.
    """
    (nx, x), (ny, y) = peel(x, fuel), peel(y, fuel)
    x_now, y_now = isinstance(x, Now), isinstance(y, Now)
    if x_now and y_now and nx == ny:
        if nx > fuel:
            return unknown(fuel)
        if value_eq is None:
            return as_verdict(x.value == y.value)
        return as_verdict(value_eq(x.value, y.value))
    if x_now or y_now:
        # NO where the first side finishes, the other still stepping there
        decided_at, verdict = min(n for n, done in ((nx, x_now), (ny, y_now)) if done), NO
    elif x is DIVERGE and y is DIVERGE:
        decided_at, verdict = max(nx, ny), YES
    else:
        return unknown(fuel)
    return verdict if decided_at <= fuel else unknown(fuel)


def weak_bisim(x: Delay, y: Delay, rel: ValueRel, fuel: int) -> Verdict:
    """Bounded weak bisimilarity over a base value relation.

    Finite step differences are ignored; termination never matches
    divergence.  Both sides advance together, so the verdict falls once
    the longer one has ended; Unknown when that is beyond ``fuel``.
    """
    (nx, x), (ny, y) = peel(x, fuel), peel(y, fuel)
    if max(nx, ny) > fuel:
        return unknown(fuel)
    if isinstance(x, Now) and isinstance(y, Now):
        return as_verdict(rel(x.value, y.value))
    return as_verdict(x is DIVERGE and y is DIVERGE)


# ---------------------------------------------------------------------------
# rendering


def render_delay(d: Delay, value_render: Callable[[Any], str] = str, limit: int = 4096) -> str:
    """``step^n(now v)`` prints as ``n·step ▸ v``; divergence as ``⊥``."""
    n, end = peel(d, limit)
    if n > limit:
        return f"{limit + 1}·step ▸ …"
    if end is DIVERGE:
        return "⊥" if n == 0 else f"{n}·step ▸ ⊥"
    return f"{n}·step ▸ {value_render(end.value)}"
