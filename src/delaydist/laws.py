"""Bounded-exhaustive checking of the composition axioms.

Given a candidate transformation ``z : S(T X) -> T(S X)`` between two
monads, the four compatibility axioms (two unit, two multiplication),
naturality, equation preservation and the composite monad laws are
checked over enumerated finite universes.  Verdicts are three valued;
every No comes with a replayable witness.  The checkers are generic in
the two monads so the same engine serves both the algebraic-over-delay
candidates and the other monad pairings in :mod:`delaydist.combos`.

Universes are bounded by a :class:`TestUniverse`: carrier size, step and
term-depth budgets.  Where a shape nests two layers of the same monad,
the budget is split across the layers (all partitions of the step budget
across delay layers, all partitions of the depth budget across model
layers), which keeps case counts at desk scale while still containing
every witness the documented failures need.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import freemodel as fm
from .delay import (DIVERGE, Delay, Now, Verdict, _fold, as_verdict, bind, conjoin, delay_n,
                    dmap, join, now, render_delay, step_count, strong_equal, weak_bisim)
from .lifting import _TOTAL, DistLawCandidate, _check_arity, induced_candidate, lift_term
from .theory import (Term, Theory, TheorySemanticError, Var, classify_equation,
                     predict_composability, var_counts)

AXIOM_ORDER = ("UnitS", "UnitT", "MultS", "MultT", "Naturality",
               "EquationPreservation", "MonadLaws")

CASE_BUDGET = 1_000_000


class UniverseBudgetError(RuntimeError):
    def __init__(self, what: str, estimate: int, budget: int):
        super().__init__(f"{what}: about {estimate} cases exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


# ---------------------------------------------------------------------------
# configuration and report types


@dataclass(frozen=True)
class TestUniverse:
    """Bounds for one checking run.

    ``fuel=None`` derives a budget large enough that no comparison inside
    the stated bounds can run out; pass an explicit fuel to study Unknown
    verdicts.
    """

    carrier_size: int = 2
    max_steps: int = 3
    max_depth: int = 2
    relation: str = "strict"  # "strict" | "weak"
    fuel: Optional[int] = None
    include_diverge: bool = False
    case_budget: int = CASE_BUDGET

    def __post_init__(self):
        if self.relation not in ("strict", "weak"):
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.carrier_size < 1 or self.carrier_size > 4:
            raise ValueError("carrier_size must be between 1 and 4")
        if self.max_steps < 0 or self.max_depth < 0:
            raise ValueError("step and depth bounds must be nonnegative")
        if self.fuel is not None and self.fuel < 1:
            raise ValueError("explicit fuel must be positive")
        if self.case_budget < 1:
            raise ValueError("case_budget must be positive")

    def derived_fuel(self, th: Optional[Theory] = None) -> int:
        if self.fuel is not None:
            return self.fuel
        max_arity = 2
        if th is not None:
            max_arity = max([op.arity for op in th.signature.ops] + [1])
        leaves = (max_arity ** self.max_depth) ** 2
        return 16 + 2 * self.max_steps * max(leaves, 4)

    def bounds_dict(self) -> dict:
        return {
            "carrierSize": self.carrier_size,
            "maxSteps": self.max_steps,
            "maxDepth": self.max_depth,
            "fuel": self.fuel,
            "includeDiverge": self.include_diverge,
        }


@dataclass
class Witness:
    input_render: str
    lhs_render: str
    rhs_render: str
    note: str = ""
    replay: Optional[Callable[[], Tuple[str, str]]] = field(default=None, repr=False,
                                                            compare=False)

    def to_json_dict(self) -> dict:
        d = {"input": self.input_render, "lhs": self.lhs_render, "rhs": self.rhs_render}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class LawEntry:
    axiom: str
    verdict: Verdict
    cases: int
    witness: Optional[Witness] = None
    predicted: bool = False
    prediction_note: str = ""
    details: Optional[List[Tuple[str, Verdict]]] = None

    def to_json_dict(self) -> dict:
        d: dict = {"name": self.axiom, "verdict": self.verdict.kind}
        if self.verdict.is_unknown:
            d["fuelSpent"] = self.verdict.fuel_spent
        if self.witness is not None:
            d["witness"] = self.witness.to_json_dict()
        if self.verdict.is_no:
            d["predicted"] = self.predicted
            if self.prediction_note:
                d["predictionNote"] = self.prediction_note
        if self.details is not None:
            d["details"] = [{"name": n, "verdict": v.kind} if not v.is_unknown else
                            {"name": n, "verdict": v.kind, "fuelSpent": v.fuel_spent}
                            for n, v in self.details]
        return d


@dataclass
class LawReport:
    theory: str
    mode: str
    relation: str
    bounds: dict
    entries: List[LawEntry]
    elapsed_ms: float

    @property
    def case_counts(self) -> Dict[str, int]:
        return {e.axiom: e.cases for e in self.entries}

    def entry(self, axiom: str) -> LawEntry:
        for e in self.entries:
            if e.axiom == axiom:
                return e
        raise KeyError(axiom)

    @property
    def all_yes(self) -> bool:
        return all(e.verdict.is_yes for e in self.entries)

    @property
    def has_unknown(self) -> bool:
        return any(e.verdict.is_unknown for e in self.entries)

    @property
    def unexpected_failures(self) -> List[LawEntry]:
        return [e for e in self.entries if e.verdict.is_no and not e.predicted]

    def to_json_dict(self) -> dict:
        return {
            "theory": self.theory,
            "mode": self.mode,
            "relation": self.relation,
            "bounds": self.bounds,
            "axioms": [e.to_json_dict() for e in self.entries],
            "caseCounts": self.case_counts,
            "elapsedMs": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, ensure_ascii=False)


def report_from_json_dict(d: dict) -> LawReport:
    entries = []
    for a in d["axioms"]:
        verdict = Verdict(a["verdict"], a.get("fuelSpent", 0))
        w = None
        if "witness" in a:
            wd = a["witness"]
            w = Witness(wd["input"], wd["lhs"], wd["rhs"], wd.get("note", ""))
        details = None
        if "details" in a:
            details = [(x["name"], Verdict(x["verdict"], x.get("fuelSpent", 0)))
                       for x in a["details"]]
        entries.append(LawEntry(a["name"], verdict, d["caseCounts"][a["name"]], w,
                                a.get("predicted", False), a.get("predictionNote", ""), details))
    return LawReport(d["theory"], d["mode"], d["relation"], d["bounds"], entries,
                     d["elapsedMs"])


# ---------------------------------------------------------------------------
# generic monad packaging for the axiom checks


@dataclass
class MonadPack:
    """Just enough monad structure to state the axioms.

    ``equal(a, b, inner_rel)`` compares two F-shaped values given a
    relation on whatever sits inside, returning a Verdict.
    """

    unit: Callable[[Any], Any]
    mu: Callable[[Any], Any]
    fmap: Callable[[Callable[[Any], Any], Any], Any]
    equal: Callable[[Any, Any, Callable[[Any, Any], Any]], Verdict]


def delay_pack(relation: str, fuel: int) -> MonadPack:
    """The delay monad, its ``equal`` being ``strong_equal`` under the
    "strict" relation and ``weak_bisim`` under any other, chosen here."""
    if relation == "strict":
        equal = lambda a, b, inner_rel: strong_equal(a, b, fuel, value_eq=inner_rel)
    else:
        equal = lambda a, b, inner_rel: weak_bisim(a, b, inner_rel, fuel)
    return MonadPack(now, join, lambda f, d: dmap(d, f), equal)


def theory_pack(th: Theory) -> MonadPack:
    def equal(a, b, inner_rel):
        # canonical payloads embed their values, so provable equality of
        # elements over a decidably-equal value set needs no inner relation
        return fm.model_equal(a, b)

    return MonadPack(lambda x: fm.unit(th, x), fm.mu, fm.fmap, equal)


def _entry(axiom: str, verdicts: Iterable[Verdict], witness: Callable[[], Witness]) -> LawEntry:
    """The entry of every scan: the stream ``verdicts`` folded by
    :func:`_fold`, and on a No the witness ``witness()`` builds, called
    while the stream stands at the No's case."""
    verdict, cases = _fold(verdicts)
    return LawEntry(axiom, verdict, cases, witness() if verdict.is_no else None)


def _witness(input_render: str, lhs: Callable[[], Any], rhs: Callable[[], Any],
             render: Callable[[Any], str] = str, seen: Optional[Tuple[Any, Any]] = None,
             note: str = "") -> Witness:
    """The one replayable witness: its replay renders ``lhs()`` and
    ``rhs()`` afresh.  Its recorded sides are the renders of ``seen``,
    the two sides the scan computed, so that a replay by another route
    cross-checks them; without ``seen`` they are the replay's own."""
    def replay() -> Tuple[str, str]:
        return render(lhs()), render(rhs())

    sides = replay() if seen is None else (render(seen[0]), render(seen[1]))
    return Witness(input_render, *sides, note=note, replay=replay)


def _scan(axiom: str,
          inputs: Iterable,
          lhs_fn: Callable[[Any], Any],
          rhs_fn: Callable[[Any], Any],
          compare: Callable[[Any, Any], Verdict],
          render_input: Callable[[Any], str] = str,
          render_result: Callable[[Any], str] = str,
          witness_sides: Optional[Tuple[Callable[[Any], Any], Callable[[Any], Any]]] = None
          ) -> LawEntry:
    """Evaluate both sides on every input and compare them, under the
    policy of :func:`_fold`.  A No's witness (:func:`_witness`) records
    the sides the scan computed, and its replay computes them again.
    ``witness_sides``, where the scan compares another form of the two
    sides, gives the sides a No's witness computes, records and
    replays instead."""
    x = lhs = rhs = None

    def verdicts():
        nonlocal x, lhs, rhs
        for x in inputs:
            lhs = lhs_fn(x)
            rhs = rhs_fn(x)
            yield compare(lhs, rhs)

    lhs_w, rhs_w = witness_sides or (lhs_fn, rhs_fn)
    return _entry(axiom, verdicts(), lambda: _witness(
        render_input(x), partial(lhs_w, x), partial(rhs_w, x), render_result,
        seen=None if witness_sides else (lhs, rhs)))


BECK_AXIOMS = ("UnitS", "UnitT", "MultS", "MultT", "Naturality")


def beck_scan(axiom: str, S: MonadPack, T: MonadPack, z, inputs, inner_rel,
              render_input=str, render_result=str, apply=None) -> LawEntry:
    """One Beck axiom for ``z : S(T X) -> T(S X)``, chosen by name:

    - UnitS: ``z(unit_S(t)) = fmap_T(unit_S)(t)`` for t in T X;
    - UnitT: ``z(fmap_S(unit_T)(s)) = unit_T(s)`` for s in S X;
    - MultS: ``z(mu_S(M)) = fmap_T(mu_S)(z(fmap_S(z)(M)))`` for M in S(S(T X));
    - MultT: ``z(fmap_S(mu_T)(M)) = mu_T(fmap_T(z)(z(M)))`` for M in S(T(T X));
    - Naturality: on ``(f, m)`` pairs with m in S(T X), the f-image taken
      after ``z`` and the one taken before.

    Both sides are compared in T, with S values compared inside under
    ``inner_rel``.  ``apply`` is the candidate MultT's right side applies
    to the input itself (see :func:`beck_sides`).
    """
    return _scan(axiom, inputs, *beck_sides(axiom, S, T, z, apply),
                 lambda a, b: T.equal(a, b, lambda s1, s2: S.equal(s1, s2, inner_rel)),
                 render_input, render_result)


def beck_sides(axiom: str, S: MonadPack, T: MonadPack, z,
               apply=None) -> Tuple[Callable, Callable]:
    """The two sides of the Beck axiom named ``axiom`` (see
    :func:`beck_scan`), each a function of the axiom's input.

    MultT's right side applies ``apply`` (by default ``z``) to the input
    ``M`` and ``z`` to what that gives.  ``apply`` must be the same
    candidate as ``z``; it lets a memoised ``z`` skip the inputs of the
    scan itself, each of which it would see once."""
    if axiom not in BECK_AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}")
    if apply is None:
        apply = z
    return {
        "UnitS": (lambda t: z(S.unit(t)), lambda t: T.fmap(S.unit, t)),
        "UnitT": (lambda s: z(S.fmap(T.unit, s)), lambda s: T.unit(s)),
        "MultS": (lambda M: z(S.mu(M)), lambda M: T.fmap(S.mu, z(S.fmap(z, M)))),
        "MultT": (lambda M: z(S.fmap(T.mu, M)), lambda M: T.mu(T.fmap(z, apply(M)))),
        "Naturality": (lambda p: T.fmap(lambda s: S.fmap(p[0], s), z(p[1])),
                       lambda p: z(S.fmap(lambda t: T.fmap(p[0], t), p[1]))),
    }[axiom]


# ---------------------------------------------------------------------------
# universes for the algebraic-over-delay instantiation


def base_values(n: int) -> Tuple[str, ...]:
    return ("a", "b", "c", "d")[:n]


def delay_values(values: Sequence[Any], max_steps: int, include_diverge: bool = False) -> List[Delay]:
    out = [delay_n(k, v) for k in range(max_steps + 1) for v in values]
    if include_diverge:
        out.append(DIVERGE)
    return out


def double_delay_values(values: Sequence[Any], max_steps: int,
                        include_diverge: bool = False) -> List[Delay]:
    """Delays of delays; the step budget is split across the two layers."""
    out: List[Delay] = []
    for outer in range(max_steps + 1):
        for inner in range(max_steps + 1 - outer):
            for v in values:
                out.append(delay_n(outer, delay_n(inner, v)))
    if include_diverge:
        out.append(DIVERGE)
        out.append(delay_n(0, DIVERGE))
    return out


def iter_universe(th: Theory, u: TestUniverse, shape: str) -> Iterator[Any]:
    """Enumerated inputs for one axiom shape over theory ``th``, yielded
    in a fixed order as they are built.

    Shapes: ``D`` (delays over the base carrier), ``T`` (model elements),
    ``TTD`` and ``TDD`` (the nested multiplication shapes).  Raises
    UniverseBudgetError when the stream would pass the universe's case
    budget, so a consumer that stops early never sees an over-budget
    universe reported.
    """
    vals = base_values(u.carrier_size)
    budget = u.case_budget

    def enum(generators, depth):
        try:
            yield from fm.iter_elements(th, generators, depth, budget)
        except fm.EnumerationBudgetError as err:
            raise UniverseBudgetError(f"{shape} universe", err.estimate, budget) from err

    if shape == "D":
        yield from delay_values(vals, u.max_steps, u.include_diverge)
    elif shape == "T":
        yield from enum(vals, u.max_depth)
    elif shape == "TDD":
        yield from enum(double_delay_values(vals, u.max_steps, u.include_diverge), u.max_depth)
    elif shape == "TTD":
        pool = delay_values(vals, u.max_steps, u.include_diverge)
        seen = set()
        for outer_depth in range(u.max_depth + 1):
            inner = enum(pool, u.max_depth - outer_depth)
            for m in enum(inner, outer_depth):
                if m not in seen:
                    seen.add(m)
                    if len(seen) > budget:
                        raise UniverseBudgetError("TTD universe", len(seen), budget)
                    yield m
    else:
        raise ValueError(f"unknown universe shape {shape!r}")


def _bounded_elements(th: Theory, generators, depth: int, u: TestUniverse,
                      what: str) -> List[fm.ModelElement]:
    try:
        return fm.enumerate_elements(th, generators, depth, u.case_budget)
    except fm.EnumerationBudgetError as err:
        raise UniverseBudgetError(what, err.estimate, u.case_budget) from err


# ---------------------------------------------------------------------------
# the seven checks for an algebraic-over-delay candidate


@contextmanager
def _memoised(apply: Callable[[Any], Any]) -> Iterator[Callable[[Any], Any]]:
    """``apply`` memoised by (hashable) input while the ``with`` block runs.

    Every call stores its input, so a memo pays off only on inputs that
    recur; a lookup of a freshly built element hashes its payload once.
    An input whose ``apply`` raises is not stored, so it raises again.
    On leaving the block the cache is emptied, and later calls go to
    ``apply`` without storing anything.
    """
    cache: Dict[Any, Any] = {}
    live = True

    def z(m):
        if not live:
            return apply(m)
        d = cache.get(m)
        if d is None:
            d = cache[m] = apply(m)
        return d

    try:
        yield z
    finally:
        live = False
        cache.clear()


# the universe shape each Beck axiom other than Naturality ranges over
BECK_SHAPES = {"UnitS": "D", "UnitT": "T", "MultS": "TTD", "MultT": "TDD"}


def check_axiom(cand: DistLawCandidate, axiom: str, u: TestUniverse) -> LawEntry:
    """One axiom for ``cand`` over the universe ``u``.

    MultT for an induced candidate on a carrier that keeps every value
    (``Carrier.keeps_values``: tree, list, multiset, either) is read from
    two tables, the protocol of equation preservation (:func:`_multt_tables`).
    The scan visits the same inputs in the same order, and its verdicts,
    case counts and witnesses are those of the generic scan below.

    The other Beck axioms, and MultT for a custom candidate or on a
    carrier that may merge values (finset, dist, quotient), compose the
    candidate ``z`` with itself, so a scan hands it the same element many
    times.  UnitS, UnitT, MultS, MultT and Naturality therefore call
    ``cand.apply`` through a memo created for this call and emptied when
    it returns; MonadLaws does the same in
    :func:`check_composite_monad_laws`.  The key is exact: an element's
    equality and hash are its carrier kind and canonical payload, which is
    all that a distribution reads, and its theory is the candidate's own.
    MultT's right side ``μ(D(z)(z(M)))`` calls ``cand.apply`` on the
    input ``M`` itself, bypassing the memo: the universe holds each input
    once, so storing them would only hold memory (leftzero.th's seq check
    at the CLI's default bounds peaks at 61 MB so, 188 MB through the
    memo).  Only an input whose values all diverge, or that has none, is
    also a left-side input, and it is then distributed once more.  So
    verdicts, case counts and witnesses are those of calling
    ``cand.apply`` every time, and a witness's replay recomputes through
    ``cand.apply`` rather than reading cached results.

    EquationPreservation gets the candidate's ``lift``, the value
    :func:`lift_term` takes: "seq", "par" or a custom op-lifter.  The
    path is chosen by that value, never by comparing an op-lifter with a
    lifting function, which a wrapper would defeat.
    """
    th = cand.theory
    if axiom == "EquationPreservation":
        return check_equation_preservation(th, cand.lift, u)
    if axiom == "MonadLaws":
        return check_composite_monad_laws(cand, u)
    S = theory_pack(th)
    T = delay_pack(u.relation, u.derived_fuel(th))
    if axiom == "MultT" and cand.induced and fm._carrier_of(th).keeps_values:
        return _multt_tables(cand, S, T, iter_universe(th, u, BECK_SHAPES[axiom]))
    with _memoised(cand.apply) as z:
        if axiom == "Naturality":
            return beck_scan(axiom, S, T, z, _naturality_inputs(th, u), None,
                             lambda p: f"f={p[0]} on {fm.value_str(p[1])}", fm.value_str)
        # the universe is built lazily, so beck_scan rejects an unknown
        # axiom before any input is enumerated
        return beck_scan(axiom, S, T, z, iter_universe(th, u, BECK_SHAPES.get(axiom)), None,
                         fm.value_str, fm.value_str, cand.apply)


def _multt_tables(cand: DistLawCandidate, S: MonadPack, T: MonadPack,
                  inputs: Iterable[fm.ModelElement]) -> LawEntry:
    """MultT for the induced candidate ``cand`` over ``inputs``, on a
    carrier that keeps every value, each case read from two tables
    (:func:`_read_tables`).

    The step key is the two sides' step counts (:func:`_multt_steps`),
    and the step table holds ``T.equal`` of the sides' bare delays.  Where
    it leaves the verdict to the values, the value key is the input with
    each value replaced by its end, ``fmap(M, _end_of_both)``.  Both sides'
    values are images of that element: the left side's is ``fmap`` of
    ``D(μ)(M)`` to its ends, the right side's ``fmap`` of ``M`` to its
    inner delays and then to their ends.  The value table holds the
    comparison of the values of the sides that :func:`beck_sides`
    computes at the first input of each key, so nothing assumes that the
    values are equal.  A No's witness records those sides at its input
    and replays through ``cand.apply``."""
    carrier = fm._carrier_of(cand.theory)
    total = _TOTAL[cand.induced]
    lhs_fn, rhs_fn = beck_sides("MultT", S, T, cand.apply)
    m = None

    def cases():
        nonlocal m
        for m in inputs:
            yield _multt_steps(m, carrier, total), m

    verdicts = _read_tables(
        cases(), _bare_sides, lambda x: carrier.fmap(x, _end_of_both),
        lambda x: (lhs_fn(x).value, rhs_fn(x).value),
        partial(T.equal, inner_rel=lambda a, b: True),
        lambda a, b: as_verdict(S.equal(a, b, None)))
    return _entry("MultT", verdicts, lambda: _witness(
        fm.value_str(m), partial(lhs_fn, m), partial(rhs_fn, m), fm.value_str))


def _multt_steps(m: fm.ModelElement, carrier: fm.Carrier,
                 total: Callable[[Sequence[int]], int]) -> Tuple[Optional[int], Optional[int]]:
    """MultT's two step counts at ``m``, an element over delays of delays,
    for an induced candidate whose lifting combines counts by ``total``:
    None for a side that diverges.

    One walk of ``m``'s values gives each one's outer count ``o`` and
    inner count ``i``.  The left side ``z(D(μ)(m))`` distributes the
    joined values, so it takes ``total(o + i)``.  The right side
    ``μ(D(z)(z(m)))`` adds ``z(m)``'s ``total(o)`` to the distribution of
    its inner delays, ``total(i)``.  The carrier keeps every value, so
    each side counts over every value once.  The left side diverges when
    a joined value does, that is when a value diverges in either layer;
    the right side when ``z(m)`` does (an outer divergence) or its inner
    distribution does (an inner one): the same condition."""
    outer: List[int] = []
    inner: List[int] = []
    joined: List[int] = []
    for d in carrier.values_of(m):
        if d is DIVERGE:
            return None, None
        end = d.value
        if end is DIVERGE:
            return None, None
        o, i = d.steps, end.steps
        outer.append(o)
        inner.append(i)
        joined.append(o + i)
    return total(joined), total(outer) + total(inner)


def _bare_sides(steps: Tuple[Optional[int], Optional[int]]) -> Tuple[Delay, Delay]:
    """The bare delays of two step counts: DIVERGE for None, else the
    count's steps over no value."""
    return tuple(DIVERGE if n is None else delay_n(n, None) for n in steps)


def _end_of_both(dd: Delay) -> Any:
    """The end value of a delay of a delay that finishes in both layers."""
    return dd.value.value


class _Renaming:
    """A function between base carriers, printable for witnesses."""

    def __init__(self, table: Dict[str, str]):
        self.table = table

    def __call__(self, x):
        return self.table[x]

    def __str__(self):
        return "{" + ", ".join(f"{k}↦{v}" for k, v in self.table.items()) + "}"


def _naturality_inputs(th: Theory, u: TestUniverse) -> Iterator[Tuple[Callable, fm.ModelElement]]:
    """(f, m) pairs: every function between base carriers of the chosen
    sizes, against every element over the domain's delays.  The pair count
    is checked against the case budget before any pair is produced."""
    sizes = sorted({1, min(2, u.carrier_size), u.carrier_size})
    depth = min(u.max_depth, 2)
    pools = [_bounded_elements(th, delay_values(base_values(nx), min(u.max_steps, 2),
                                                u.include_diverge), depth, u,
                               "naturality universe")
             for nx in sizes]
    count = sum(len(pool) * sum(ny ** nx for ny in sizes) for nx, pool in zip(sizes, pools))
    if count > u.case_budget:
        raise UniverseBudgetError("naturality universe", count, u.case_budget)

    def pairs():
        for nx, pool in zip(sizes, pools):
            dom = base_values(nx)
            for ny in sizes:
                for image in itertools.product(base_values(ny), repeat=nx):
                    f = _Renaming(dict(zip(dom, image)))
                    for m in pool:
                        yield f, m

    return pairs()


def check_equation_preservation(th: Theory, lift_op, u: TestUniverse) -> LawEntry:
    """Interpret both sides of every equation over delayed model values
    and compare under the universe's relation.

    ``lift_op`` is what :func:`lift_term` takes: "seq", "par" or an
    op-lifting callable.  A callable lifts both sides node by node for
    every case and compares them with the relation's comparison, the
    ``equal`` of :func:`delay_pack`.  Under "seq" or "par" each side of a
    case is a step count, or divergence, and a value (see
    :class:`_InducedSide`), so a case's verdict is read from two tables
    that cache that same comparison as the scan reaches them.  One is
    indexed by the variables' step counts and holds the comparison of the
    two sides' bare delays, their values taken as equal, where a Yes on
    finite sides means that the values decide.  The other is indexed by
    the variables' value keys and holds the verdict of ``model_equal`` on
    the two sides' values, which runs at most once per distinct pair of
    values.  Both routes visit the cases in the same order and give the
    same verdicts, case counts, details and witnesses.  Each equation's
    scan gives that equation's entry; the check's details are their
    verdicts, its verdict their conjunction, its case count their sum and
    its witness the first equation's (:func:`_equation_witness`).
    """
    fuel = u.derived_fuel(th)
    vals = base_values(u.carrier_size)
    model_pool = _bounded_elements(th, vals, min(u.max_depth, 1), u,
                                   "equation preservation universe")
    env_pool = delay_values(model_pool, u.max_steps, u.include_diverge)
    rel = fm.model_equal
    induced = lift_op if isinstance(lift_op, str) and lift_op in ("seq", "par") else None
    # each pool delay's step count (None for DIVERGE) and value key (None
    # for DIVERGE); equal values share a key
    keys: Dict[fm.ModelElement, int] = {}
    pool_steps = [step_count(d) for d in env_pool]
    pool_keys = [None if d is DIVERGE else keys.setdefault(d.value, len(keys))
                 for d in env_pool]
    values = list(keys)
    pair_verdicts: Dict[Tuple[fm.ModelElement, fm.ModelElement], Verdict] = {}

    def compare_values(a: fm.ModelElement, b: fm.ModelElement) -> Verdict:
        v = pair_verdicts.get((a, b))
        if v is None:
            v = pair_verdicts[a, b] = as_verdict(rel(a, b))
        return v

    pack = delay_pack(u.relation, fuel)
    compare_delays = partial(pack.equal, inner_rel=rel)
    compare_steps = partial(pack.equal, inner_rel=lambda a, b: True)
    entries: List[LawEntry] = []
    for eq in th.equations:
        n = len(eq.context)
        estimate = len(env_pool) ** n
        if estimate > u.case_budget:
            raise UniverseBudgetError(f"equation '{eq.name}'", estimate, u.case_budget)
        cases = itertools.product(env_pool, repeat=n)
        if induced is not None and all(_liftable(t, set(eq.context), th)
                                       for t in (eq.lhs, eq.rhs)):
            entries.append(_table_scan(
                eq, cases, itertools.product(pool_steps, repeat=n),
                itertools.product(pool_keys, repeat=n), induced, th, values, compare_steps,
                compare_values))
        else:
            entries.append(_node_scan(eq, cases, lift_op, th, compare_delays))
    details = [(e.axiom, e.verdict) for e in entries]
    return LawEntry("EquationPreservation", conjoin(v for _, v in details),
                    sum(e.cases for e in entries),
                    next((e.witness for e in entries if e.witness is not None), None),
                    details=details)


def _equation_witness(eq, case: tuple, lhs: Delay, rhs: Delay, lift_op, th: Theory) -> Witness:
    """The witness of a No of ``eq`` at ``case``, its variables' delays in
    context order: it records the scan's sides ``lhs`` and ``rhs``, and
    its replay lifts both again with :func:`lift_term`."""
    env = dict(zip(eq.context, case))
    env_r = ", ".join(f"{k}={fm.value_str(d)}" for k, d in env.items())
    return _witness(f"{eq.name} with {env_r}", partial(lift_term, eq.lhs, env, lift_op, th),
                    partial(lift_term, eq.rhs, env, lift_op, th), fm.value_str, seen=(lhs, rhs),
                    note=f"equation '{eq.name}' not preserved")


def _node_scan(eq, cases: Iterable[tuple], lift_op, th: Theory,
               compare: Callable[[Delay, Delay], Verdict]) -> LawEntry:
    """The entry of ``eq``: both sides lifted node by node with
    :func:`lift_term` and compared, case by case, under the policy of
    :func:`_fold`."""
    case = lhs = rhs = None

    def verdicts():
        nonlocal case, lhs, rhs
        for case in cases:
            env = dict(zip(eq.context, case))
            lhs = lift_term(eq.lhs, env, lift_op, th)
            rhs = lift_term(eq.rhs, env, lift_op, th)
            yield compare(lhs, rhs)

    return _entry(eq.name, verdicts(),
                  lambda: _equation_witness(eq, case, lhs, rhs, lift_op, th))


# a step-table entry: the step counts leave the verdict to the values
_VALUES_DECIDE = object()


def _read_tables(cases: Iterable[Tuple[Any, Any]],
                 bare_sides: Callable[[Any], Tuple[Delay, Delay]],
                 value_key: Callable[[Any], Any],
                 value_sides: Callable[[Any], Tuple[Any, Any]],
                 compare_steps: Callable[[Delay, Delay], Verdict],
                 compare_values: Callable[[Any, Any], Verdict]) -> Iterator[Verdict]:
    """The verdict of each case of ``cases``, a stream of (step key, case)
    pairs, read from two tables that cache the relation's comparison as
    the scan reaches them.

    The step table holds, by step key, ``compare_steps`` (the relation's
    comparison with the values taken as equal) of the two sides' bare
    delays, ``bare_sides(step key)``.  A Yes on finite sides leaves the
    verdict to the values: the value table holds, by ``value_key(case)``,
    ``compare_values`` of the sides' values, ``value_sides(case)``.  A
    comparison of bare delays gives the full comparison's No or Unknown
    and fuel, and a Yes only where the values decide, so the verdicts are
    the full comparison's wherever the step key fixes both sides' step
    counts and divergence and the value key fixes both sides' values."""
    step_table: Dict[Any, Any] = {}
    value_table: Dict[Any, Verdict] = {}
    for steps, case in cases:
        v = step_table.get(steps)
        if v is None:
            lhs, rhs = bare_sides(steps)
            v = compare_steps(lhs, rhs)
            v = step_table[steps] = _VALUES_DECIDE if v.is_yes and lhs is not DIVERGE else v
        if v is _VALUES_DECIDE:
            key = value_key(case)
            v = value_table.get(key)
            if v is None:
                v = value_table[key] = compare_values(*value_sides(case))
        yield v


def _table_scan(eq, cases: Iterable[tuple], step_cases: Iterable[tuple],
                key_cases: Iterable[tuple], mode: str, th: Theory,
                values: Sequence[fm.ModelElement],
                compare_steps: Callable[[Delay, Delay], Verdict],
                compare_values: Callable[[Any, Any], Verdict]) -> LawEntry:
    """The entry of ``eq`` under the induced lifting ``mode``, each case
    read from two tables (:func:`_read_tables`): the step key is the
    variables' step counts, the value key their value keys (indices into
    ``values``).  ``cases``, ``step_cases`` and ``key_cases`` run in step,
    one tuple per case each.

    The first case gives every variable the pool's first delay, which has
    no steps, so its values decide and both sides are evaluated there,
    left then right: every error that evaluation can raise is raised at
    the first case, as on the node path.  The verdicts go through
    :func:`_fold`, and a No's two delays reuse the sides' values."""
    lhs, rhs = (_InducedSide(t, eq.context, mode, th, values) for t in (eq.lhs, eq.rhs))
    case = steps = keys = None

    def keyed():
        nonlocal case, steps, keys
        for case, steps, keys in zip(cases, step_cases, key_cases):
            yield steps, keys

    verdicts = _read_tables(keyed(), lambda s: (lhs.delay(s), rhs.delay(s)), fm._identity,
                            lambda k: (lhs.value(k), rhs.value(k)), compare_steps,
                            compare_values)
    return _entry(eq.name, verdicts, lambda: _equation_witness(
        eq, case, lhs.delay(steps, keys), rhs.delay(steps, keys), mode, th))


class _InducedSide:
    """The side ``t`` of an equation over ``context``, lifted by the
    induced lifting ``mode``, read off a case: the step counts (None for
    DIVERGE) and the value keys (indices into ``values``) of the
    context's variables, in order.  ``t`` must pass :func:`_liftable`.

    Every delay is in normal form, so lifting ``t`` node by node gives
    DIVERGE when a variable on it diverges, and otherwise
    ``delay_n(steps, eval_term(t))``, where ``steps`` is the lifting's
    own rule, ``lifting._TOTAL[mode]``, over the step counts of the
    variable occurrences on ``t``, one per occurrence (0 on a ground
    side).  The value depends only on the values of the variables on
    ``t``, so it is evaluated once per assignment of them and kept for
    the life of the side.  Its only errors come from ``apply_op``, which
    ``eval_term`` calls in the node-by-node order.
    """

    def __init__(self, t: Term, context: Sequence[str], mode: str, th: Theory,
                 values: Sequence[fm.ModelElement]):
        # a repeated context name is bound at its last position, as by dict(zip(...))
        position = {name: i for i, name in enumerate(context)}
        occurrences = var_counts(t)
        self._term, self._theory, self._values = t, th, values
        self._names = list(occurrences)
        self._slots = [position[n] for n in self._names]
        self._occurrences = [position[n] for n in self._names for _ in range(occurrences[n])]
        self._total = _TOTAL[mode]
        self._memo: Dict[tuple, fm.ModelElement] = {}

    def value(self, keys: tuple) -> fm.ModelElement:
        """The side's value, for a case where none of its variables diverges."""
        key = tuple([keys[i] for i in self._slots])
        value = self._memo.get(key)
        if value is None:
            env = {n: self._values[k] for n, k in zip(self._names, key)}
            value = self._memo[key] = fm.eval_term(self._theory, self._term, env)
        return value

    def delay(self, steps: tuple, keys: Optional[tuple] = None) -> Delay:
        """The side lifted at the case, as :func:`lift_term` gives it;
        without ``keys``, its bare delay, whose value is None."""
        picked = [steps[i] for i in self._occurrences]
        if None in picked:
            return DIVERGE
        return delay_n(self._total(picked), None if keys is None else self.value(keys))


def _liftable(t: Term, bound: set, th: Theory) -> bool:
    """Whether every variable of ``t`` is in ``bound`` and every operation
    of ``t`` has an argument count the structural liftings accept."""
    if isinstance(t, Var):
        return t.name in bound
    try:
        _check_arity(t.op, t.args, th)
    except TheorySemanticError:
        return False
    return all(_liftable(a, bound, th) for a in t.args)


# ---------------------------------------------------------------------------
# monad laws (Kleisli form)


def check_monad_laws_kleisli(unit_fn, bind_fn, elements, value_set, k_pool, compare,
                             render=str) -> LawEntry:
    """Left unit, right unit and associativity in Kleisli form, as one
    MonadLaws entry: one stream of cases under the policy of
    :func:`_fold`.

    ``k_pool`` is a list of dicts mapping each value to a monadic result;
    associativity quantifies over every (m, k, h) with k and h from the
    pool, in the order m, then k, then h.

    Associativity shares work between its cases.  ``bind_fn(m, k)`` is
    computed once per (m, k) and bound to each h for the left side.  For
    the right side each (k, h) pair has one continuation whose table maps
    a value ``v`` to ``bind_fn(k[v], h)``; the table is filled the first
    time ``v`` is reached, lives for this call only, and stores nothing
    when ``bind_fn`` raises, so that input raises again.  This is exact
    only because ``bind_fn`` must be pure: the same arguments give equal
    results, and a result may be used again.  Verdicts, case counts, the
    first Unknown and the first No's witness are then those of computing
    both sides afresh for every case.  A No's witness holds the sides the
    scan computed; its replay recomputes both by the plain formula.
    """
    # rows[i][j]: the (k_i, h_j) continuation, built when first needed
    rows: List[List[Optional[Callable[[Any], Any]]]] = [[None] * len(k_pool) for _ in k_pool]
    law = m = k = h = x = lhs = rhs = None

    def verdicts():
        nonlocal law, m, k, h, x, lhs, rhs
        law = "left unit"
        for k in k_pool:
            for x in value_set:
                lhs = bind_fn(unit_fn(x), k.__getitem__)
                rhs = k[x]
                yield compare(lhs, rhs)
        law = "right unit"
        for m in elements:
            lhs, rhs = bind_fn(m, unit_fn), m
            yield compare(lhs, rhs)
        law = "associativity"
        for m in elements:
            for k, row in zip(k_pool, rows):
                mk = bind_fn(m, k.__getitem__)
                for j, h in enumerate(k_pool):
                    lhs = bind_fn(mk, h.__getitem__)
                    kh = row[j]
                    if kh is None:
                        kh = row[j] = _tabled_continuation(bind_fn, k, h)
                    rhs = bind_fn(m, kh)
                    yield compare(lhs, rhs)

    def witness() -> Witness:
        if law == "left unit":
            return _witness(f"left unit at {x!r}", lambda: bind_fn(unit_fn(x), k.__getitem__),
                            lambda: k[x], render, seen=(lhs, rhs))
        if law == "right unit":
            return _witness(f"right unit at {render(m)}", lambda: bind_fn(m, unit_fn),
                            lambda: m, render, seen=(lhs, rhs))
        return _witness(f"associativity at {render(m)}",
                        lambda: bind_fn(bind_fn(m, k.__getitem__), h.__getitem__),
                        lambda: bind_fn(m, lambda v: bind_fn(k[v], h.__getitem__)),
                        render, seen=(lhs, rhs))

    return _entry("MonadLaws", verdicts(), witness)


def _tabled_continuation(bind_fn, k: dict, h: dict) -> Callable[[Any], Any]:
    """``v ↦ bind_fn(k[v], h)``, each value's result kept once computed."""
    table: Dict[Any, Any] = {}

    def kh(v):
        d = table.get(v)
        if d is None:
            d = table[v] = bind_fn(k[v], h.__getitem__)
        return d

    return kh


def composite_unit(cand: DistLawCandidate):
    th = cand.theory
    return lambda x: Now(fm.unit(th, x))


def composite_extension(z: Callable[[fm.ModelElement], Delay]):
    """The Kleisli extension of the composite delayed-model monad at one
    element: ``(k, t) ↦ dmap(z(T(k)(t)), μ)``, distribute the element of
    delayed elements with ``z``, then flatten the model layer.  Taking
    the pair as one argument lets the monad-law check memoise it."""
    def ext(kt: Tuple[Callable[[Any], Delay], fm.ModelElement]) -> Delay:
        k, t = kt
        return dmap(z(fm.fmap(k, t)), fm.mu)

    return ext


def composite_bind(ext: Callable[[tuple], Delay]):
    """Bind of the composite monad: the steps of ``m``, then the
    extension ``ext`` of :func:`composite_extension` at ``k`` and the
    element ``m`` ends in."""

    def bnd(m: Delay, k: Callable[[Any], Delay]) -> Delay:
        return bind(m, lambda t: ext((k, t)))

    return bnd


def check_kleisli_space(u: TestUniverse, what: str, elements: int, continuations: int) -> None:
    """Refuse a monad-law scan over ``elements`` elements and
    ``continuations`` continuation tables, whose associativity law alone
    has ``elements · continuations²`` cases, when that is over the case
    budget."""
    estimate = elements * continuations ** 2
    if estimate > u.case_budget:
        raise UniverseBudgetError(what, estimate, u.case_budget)


def check_composite_monad_laws(cand: DistLawCandidate, u: TestUniverse) -> LawEntry:
    """Monad laws of the composite delayed-model monad on enumerated
    inputs.  Continuation tables draw from a reduced value pool (one step,
    depth one, first few elements) to keep the product space finite.

    Every scanned element ends in one of a few model elements, and the
    scan binds the same continuations again and again, so both ``z`` and
    the extension (k, t) ↦ bind's result at t are memoised for the
    length of this check (see :func:`_memoised`).  The extension's key is
    exact: the scan's continuations are the pool's ``k.__getitem__``,
    which hashes and compares by its dict's identity, and its own row
    closures and unit, which hash by theirs; the key holds them, so no
    identity is reused while the table lives.  A fresh lambda (a replay,
    the reference scan) only misses.  So each continuation is extended
    at an element once per check, not once per bind, and verdicts, case
    counts and witnesses are those of extending afresh."""
    th = cand.theory
    fuel = u.derived_fuel(th)
    vals = base_values(u.carrier_size)
    compare = partial(delay_pack(u.relation, fuel).equal, inner_rel=fm.model_equal)
    base_pool = _bounded_elements(th, vals, min(u.max_depth, 1), u,
                                  "composite monad-law universe")
    elements = [delay_n(s, m) for s in range(min(u.max_steps, 2) + 1) for m in base_pool]
    small_models = base_pool[:3]
    k_values = [delay_n(s, m) for s in (0, 1) for m in small_models]
    k_pool = [dict(zip(vals, combo))
              for combo in itertools.product(k_values, repeat=len(vals))]
    check_kleisli_space(u, "composite monad laws", len(elements), len(k_pool))

    with _memoised(cand.apply) as z, _memoised(composite_extension(z)) as ext:
        return check_monad_laws_kleisli(composite_unit(cand), composite_bind(ext),
                                        elements, vals, k_pool, compare, fm.value_str)


def check_delay_monad_laws(max_steps: int = 5, values: Sequence[Any] = ("a", "b", "c"),
                           fuel: int = 64) -> LawEntry:
    """Monad laws of the delay monad itself up to strong equality, as a
    MonadLaws entry."""
    elements = delay_values(values, max_steps, include_diverge=True)
    k_values = [delay_n(s, v) for s in (0, 1, 2) for v in values] + [DIVERGE]
    k_pool = [dict(zip(values, combo))
              for combo in itertools.islice(itertools.product(k_values, repeat=len(values)), 400)]
    return check_monad_laws_kleisli(now, bind, elements, values, k_pool,
                                    lambda a, b: strong_equal(a, b, fuel), render_delay)


# ---------------------------------------------------------------------------
# predictions and the full suite


def guaranteed_configuration(th: Theory, mode: Optional[str], relation: str) -> bool:
    """Configurations the theory's classification promises will pass;
    ``mode`` is "seq", "par", or None for a custom lifting."""
    p = predict_composability(th)
    if mode == "seq" and p.seq_dist_law == "guaranteed":
        return True
    if mode == "par" and relation == "weak" and p.par_setoid_law == "guaranteed":
        return True
    return False


def prediction_for_failure(th: Theory, mode: Optional[str], relation: str, axiom: str) -> str:
    """A short reason when a No verdict is the documented expectation;
    ``mode`` as in :func:`guaranteed_configuration`."""
    classes = {eq.name: classify_equation(eq) for eq in th.equations}
    has_wide_op = any(op.arity >= 2 for op in th.signature.ops)
    unbalanced = [n for n, c in classes.items() if not c.balanced]
    dropping = [n for n, c in classes.items() if c.drop]
    if mode == "par" and relation == "strict" and has_wide_op and axiom in ("MultT", "MonadLaws"):
        return ("parallel lifting always miscounts steps on the second multiplication "
                "axiom when an operation takes two or more arguments")
    if axiom == "EquationPreservation":
        if mode == "seq" and unbalanced:
            return f"sequential lifting cannot preserve unbalanced equations ({', '.join(unbalanced)})"
        if dropping:
            return f"dropped variables can hide divergence ({', '.join(dropping)})"
    if not guaranteed_configuration(th, mode, relation):
        return "no general guarantee covers this configuration"
    return ""


def run_suite(th: Theory, mode, u: TestUniverse) -> LawReport:
    """Naturality, the four axioms, equation preservation and composite
    monad laws for one candidate, in a fixed order."""
    cand = mode if isinstance(mode, DistLawCandidate) else induced_candidate(th, mode)
    return _run(th.name, cand.name, u, lambda: _suite(th, cand, u))


def _suite(th: Theory, cand: DistLawCandidate, u: TestUniverse) -> List[LawEntry]:
    """The entries of :func:`run_suite`, each No marked predicted or not."""
    if u.relation == "weak":
        _validate_weak_relation(th, u)
    return [mark_prediction(check_axiom(cand, axiom, u), th, cand.induced, u.relation)
            for axiom in AXIOM_ORDER]


def mark_prediction(entry: LawEntry, th: Theory, mode: Optional[str], relation: str) -> LawEntry:
    """``entry``, a No of a candidate whose structural lifting is ``mode``
    ("seq", "par", or None for a custom lifting), marked predicted when a
    reason documents it and no guarantee covers the configuration."""
    if entry.verdict.is_no:
        note = prediction_for_failure(th, mode, relation, entry.axiom)
        entry.predicted = bool(note) and not guaranteed_configuration(th, mode, relation)
        entry.prediction_note = note
    return entry


def _run(theory: str, mode: str, u: TestUniverse, check: Callable[[], List[LawEntry]]) -> LawReport:
    """The report of every suite and pairing: the entries ``check()``
    returns under ``theory`` and ``mode``, timed from before the call."""
    t0 = time.perf_counter()
    entries = check()
    return LawReport(theory, mode, u.relation, u.bounds_dict(), entries,
                     (time.perf_counter() - t0) * 1000.0)


def _validate_weak_relation(th: Theory, u: TestUniverse) -> None:
    """Spot-check that bounded weak bisimilarity behaves like an
    equivalence on a small sample before trusting it in a suite.  Only
    definite answers can fail it: a comparison that runs out of fuel says
    nothing about the relation."""
    fuel = u.derived_fuel(th)
    rel = fm.model_equal
    sample_vals = [fm.unit(th, v) for v in base_values(u.carrier_size)]
    sample = [delay_n(s, m) for s in (0, 1, 2) for m in sample_vals] + [DIVERGE]
    for d in sample:
        if weak_bisim(d, d, rel, fuel).is_no:
            raise AssertionError("weak bisimilarity failed reflexivity on a sample")
    for d1, d2 in itertools.product(sample, repeat=2):
        kinds = {weak_bisim(d1, d2, rel, fuel).kind, weak_bisim(d2, d1, rel, fuel).kind}
        if kinds == {"yes", "no"}:
            raise AssertionError("weak bisimilarity failed symmetry on a sample")
    for d1, d2, d3 in itertools.islice(itertools.product(sample, repeat=3), 2000):
        if weak_bisim(d1, d2, rel, fuel).is_yes and weak_bisim(d2, d3, rel, fuel).is_yes:
            if weak_bisim(d1, d3, rel, fuel).is_no:
                raise AssertionError("weak bisimilarity failed transitivity on a sample")


def render_report(report: LawReport) -> str:
    lines = [f"theory {report.theory}  lift {report.mode}  relation {report.relation}"]
    b = report.bounds
    lines.append(f"bounds: |X|={b['carrierSize']} maxSteps={b['maxSteps']} "
                 f"maxDepth={b['maxDepth']} fuel={b['fuel'] or 'auto'} "
                 f"includeDiverge={b['includeDiverge']}")
    for e in report.entries:
        flag = ""
        if e.verdict.is_no:
            flag = "  [predicted]" if e.predicted else "  [UNEXPECTED]"
        lines.append(f"  {e.axiom:<22} {str(e.verdict):<28} cases={e.cases}{flag}")
        if e.verdict.is_no and e.witness is not None:
            lines.append(f"    input: {e.witness.input_render}")
            lines.append(f"    lhs:   {e.witness.lhs_render}")
            lines.append(f"    rhs:   {e.witness.rhs_render}")
            if e.prediction_note:
                lines.append(f"    note:  {e.prediction_note}")
        if e.details:
            for name, v in e.details:
                lines.append(f"    eq {name:<18} {v}")
    lines.append(f"elapsed: {report.elapsed_ms:.1f} ms")
    return "\n".join(lines)
