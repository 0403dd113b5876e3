"""Concrete monad pairings with the delay monad.

Each pairing here carries a hand-written transformation rather than one
induced by lifting operations of a free theory: exceptions, reader and
writer (plus their Yang-Baxter compatibility), the delayed-state monad
with its algebra-extension operator, the selection monad, delay algebras
on continuations, the retraction between the two delayed-selection
monads, and the free sum of a theory monad with delay.  The axiom checks
reuse the Beck scan and the Kleisli monad-law scan of
:mod:`delaydist.laws`; function spaces are tabulated over small finite
carriers, and selection-style higher-order values are compared pointwise
over a declared finite predicate family, since their full function
space is unenumerable.

Every scan here ends in :func:`delaydist.laws._entry`, which turns its
comparisons into a verdict by :func:`delaydist.delay._fold`: the first
No wins, and only then is its witness built; the first Unknown is kept
and the scan goes on past it, so an Unknown entry counts every case and
carries no witness.  Every witness is made by
:func:`delaydist.laws._witness` and replays both sides; where a scan
computed them by a faster route, the witness records the scan's sides
and replays by the plain route.  A check whose cases come in several
kinds chains them into one stream (:func:`_scan_kinds`).  Uniqueness is
a search rather than a scan: it is Yes when it finds an element that
separates the extension from a guard-blind map, and that element's
witness replays the guard-blind map.  GsdAlgebraLaws conjoins its six
laws' verdicts without a scan.  Every pairing's report is made by
:func:`delaydist.laws._run`, which times the pairing's entries.

A selector built from a table by :func:`sel_from_table` answers a
predicate from its table: its answers to the predicate tables over its
value domain, found by the predicate's values on that domain.  ``phi``
and ``psi`` are plain predicate transformers (the lambda path).  The
retraction check reads ``psi . phi`` as one row map per check and each
of its cases from a table of verdicts on pairs of pooled delays.  Its
multiplication square tabulates the left side on the predicate tables
and computes the right side in one bind (:func:`mu_square_rhs`); the
witness replays take the lambda path.  ``check_selection`` reads each
side of each Beck axiom as an answer vector, its answers to the
predicates that ``selection_pack``'s ``equal`` asks, from the
candidate's answers tabulated once per delayed selector table
(:func:`selection_scans`); a No's witness builds both sides on the
lambda path.  Table spaces that can outgrow the case budget are
counted before they are built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import freemodel as fm
from .delay import (DIVERGE, EXHAUSTED, KNOWN_DIVERGENT, Delay, Now, Terminated, Verdict,
                    YES, NO, as_verdict, bind, conjoin, delay_n, dmap, force, join,
                    render_delay, step, strong_equal, unknown)
from .laws import (BECK_AXIOMS, LawEntry, LawReport, MonadPack, TestUniverse,
                   UniverseBudgetError, Witness, base_values, beck_scan, beck_sides,
                   check_kleisli_space, check_monad_laws_kleisli, delay_pack, delay_values,
                   double_delay_values, _entry, _memoised, _run, _scan, _suite, _witness)
from .lifting import custom_candidate, seq_lift_op
from .theory import Theory

# Each pairing is checked at one choice of its parameters: the
# environments a reader reads, the states of delayed state, the results
# of a selection predicate (also the carrier of the continuation
# algebra), the fuel within which such a predicate or a delay algebra
# observes a delayed value, and how many samples probe a GSD algebra.
R_DOMAIN = (0, 1)
STATES = (0, 1)
RESULTS = (0, 1)
PRED_FUEL = 2
ALGEBRA_FUEL = 4096
GSD_PROBES = 40


def _eq(u, v) -> bool:
    return u == v


def _same(u, v) -> Verdict:
    return as_verdict(u == v)


def _scan_kinds(axiom: str, cases: Iterable[Tuple[str, Any]],
                kinds: Dict[str, Tuple[Callable, Callable, Callable]],
                compare: Callable[[Any, Any], Verdict]) -> LawEntry:
    """:func:`_scan` over ``(kind, input)`` cases, where ``kinds`` maps
    each kind to its input render and its two sides."""
    return _scan(axiom, cases,
                 lambda c: kinds[c[0]][1](c[1]), lambda c: kinds[c[0]][2](c[1]), compare,
                 lambda c: kinds[c[0]][0](c[1]))


def _beck_entries(S: MonadPack, T: MonadPack, z, inputs: Dict[str, Sequence],
                  render_result) -> List[LawEntry]:
    """The five Beck axioms for ``z``, each over its own inputs; values
    inside S are compared by ``==``."""
    return [beck_scan(axiom, S, T, z, inputs[axiom], _eq,
                      _nat_render if axiom == "Naturality" else _short, render_result)
            for axiom in BECK_AXIOMS]


# ---------------------------------------------------------------------------
# finite function tables


@dataclass(frozen=True, slots=True)
class FinFun:
    """A total function on a small finite domain, compared extensionally.
    :meth:`tabulate` covers its domain by construction, unchecked."""

    domain: Tuple[Any, ...]
    values: Tuple[Any, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.values):
            raise ValueError("FinFun table must cover its whole domain")

    def __call__(self, a):
        return self.values[self.domain.index(a)]

    @staticmethod
    def tabulate(domain: Sequence[Any], f: Callable[[Any], Any]) -> "FinFun":
        dom = tuple(domain)
        return _table(dom, tuple([f(a) for a in dom]))

    def items(self):
        return zip(self.domain, self.values)

    def __str__(self) -> str:
        return "[" + ", ".join(f"{_short(a)}↦{_short(v)}" for a, v in self.items()) + "]"


# _table fills a FinFun's slots past its frozen __setattr__ and __post_init__
_set_domain, _set_values = FinFun.domain.__set__, FinFun.values.__set__


def _table(dom: Tuple[Any, ...], values: Tuple[Any, ...]) -> FinFun:
    """The table of ``values`` over ``dom``, which the caller makes the
    same length: unchecked, and equal to ``FinFun(dom, values)``."""
    t = object.__new__(FinFun)
    _set_domain(t, dom)
    _set_values(t, values)
    return t


def fun_space(domain: Sequence[Any], codomain: Sequence[Any]) -> List[FinFun]:
    """Every table from ``domain`` to ``codomain``, |codomain|^|domain| of
    them, in ``itertools.product`` order; filled unchecked as
    :meth:`FinFun.tabulate` fills its tables.  A check whose space can
    outgrow its case budget counts it first (:func:`_check_space`)."""
    dom = tuple(domain)
    return [_table(dom, vals) for vals in itertools.product(codomain, repeat=len(dom))]


def _check_space(u: TestUniverse, what: str, domain: Sequence[Any],
                 codomain: Sequence[Any]) -> None:
    """Refuse a table space larger than the case budget before it is built."""
    count = len(codomain) ** len(domain)
    if count > u.case_budget:
        raise UniverseBudgetError(f"{what} table space", count, u.case_budget)


def _short(v) -> str:
    if isinstance(v, Delay):
        return render_delay(v, _short)
    if isinstance(v, FinFun):
        return str(v)
    if isinstance(v, tuple):
        return "(" + ", ".join(_short(x) for x in v) + ")"
    return str(v)


def _nat_render(p) -> str:
    return f"f={p[0]} on {_short(p[1])}"


# ---------------------------------------------------------------------------
# the hand-written transformations


def reader_dist(d: Delay, domain: Sequence[Any]) -> FinFun:
    """Delayed environment-reader to pointwise-delayed reader: the number
    of steps is replicated at every environment."""
    return FinFun.tabulate(domain, lambda r: dmap(d, lambda f: f(r)))


def writer_dist(m: Any, d: Delay, monoid: "FiniteMonoid") -> Delay:
    """Output paired with a delayed value; the output waits for the value."""
    if m not in monoid.elements:
        raise ValueError(f"{m!r} is not in the monoid")
    return dmap(d, lambda x: (m, x))


def selection_dist(d: Delay) -> "Sel":
    """Delayed selector to selector over delayed values.

    A finished selector consults its predicate only on instantly finished
    values; an unfinished one re-emits its steps around the recursive
    choice, for every predicate.
    """
    return Sel(lambda g: dmap(d, lambda f: f(lambda x: g(Now(x)))),
               lambda: f"dist({_short(d)})")


# ---------------------------------------------------------------------------
# reader


def reader_pack(domain: Sequence[Any]) -> MonadPack:
    dom = tuple(domain)

    def unit(x):
        return FinFun(dom, (x,) * len(dom))

    def mu(ff: FinFun) -> FinFun:
        return FinFun.tabulate(dom, lambda r: ff(r)(r))

    def fmap(f, F: FinFun) -> FinFun:
        return FinFun.tabulate(dom, lambda r: f(F(r)))

    def equal(F: FinFun, G: FinFun, rel) -> Verdict:
        rel = rel or _eq
        return conjoin(as_verdict(rel(F(r), G(r))) for r in dom)

    return MonadPack(unit, mu, fmap, equal)


def check_reader(u: TestUniverse) -> LawReport:
    """Beck axioms for the delayed-reader transformation, exhaustively
    over tabulated environments."""
    return _run("reader", "custom:reader", u, lambda: _reader_entries(u))


def _reader_entries(u: TestUniverse) -> List[LawEntry]:
    xs = base_values(u.carrier_size)
    S = delay_pack(u.relation, u.derived_fuel())
    T = reader_pack(R_DOMAIN)
    tables = fun_space(R_DOMAIN, xs)
    inputs = {
        "UnitS": tables,
        "UnitT": delay_values(xs, u.max_steps, u.include_diverge),
        "MultS": double_delay_values(tables, u.max_steps, u.include_diverge),
        "MultT": delay_values(fun_space(R_DOMAIN, tables), u.max_steps, u.include_diverge),
        "Naturality": [(f, d) for f in fun_space(xs, xs)
                       for d in delay_values(tables, u.max_steps, u.include_diverge)],
    }
    return _beck_entries(S, T, lambda d: reader_dist(d, R_DOMAIN), inputs, str)


# ---------------------------------------------------------------------------
# writer


@dataclass(frozen=True)
class FiniteMonoid:
    name: str
    elements: Tuple[Any, ...]
    unit: Any
    table: FinFun  # (m, n) -> m*n

    def mul(self, a, b):
        return self.table((a, b))


def bool_and_monoid() -> FiniteMonoid:
    elems = (True, False)
    pairs = tuple(itertools.product(elems, repeat=2))
    return FiniteMonoid("bool-and", elems, True,
                        FinFun(pairs, tuple(a and b for a, b in pairs)))


def writer_pack(monoid: FiniteMonoid) -> MonadPack:
    def unit(x):
        return (monoid.unit, x)

    def mu(mmx):
        m, (n, x) = mmx
        return (monoid.mul(m, n), x)

    def fmap(f, mx):
        m, x = mx
        return (m, f(x))

    def equal(a, b, rel) -> Verdict:
        rel = rel or _eq
        if a[0] != b[0]:
            return NO
        return as_verdict(rel(a[1], b[1]))

    return MonadPack(unit, mu, fmap, equal)


def check_writer(u: TestUniverse) -> LawReport:
    """Beck axioms for the delayed-writer transformation over the boolean
    monoid of outputs."""
    return _run("writer", "custom:writer", u, lambda: _writer_entries(u))


def _writer_entries(u: TestUniverse) -> List[LawEntry]:
    monoid = bool_and_monoid()
    ms = monoid.elements
    xs = base_values(u.carrier_size)
    S = writer_pack(monoid)
    T = delay_pack(u.relation, u.derived_fuel())
    delays = delay_values(xs, u.max_steps, u.include_diverge)
    inputs = {
        "UnitS": delays,
        "UnitT": [(m, x) for m in ms for x in xs],
        "MultS": [(m, (n, d)) for m in ms for n in ms for d in delays],
        "MultT": [(m, dd) for m in ms
                  for dd in double_delay_values(xs, u.max_steps, u.include_diverge)],
        "Naturality": [(f, (m, d)) for f in fun_space(xs, xs) for m in ms for d in delays],
    }
    return _beck_entries(S, T, lambda mx: writer_dist(mx[0], mx[1], monoid), inputs, _short)


# ---------------------------------------------------------------------------
# Yang-Baxter for reader, writer and delay


def yang_baxter_check(u: TestUniverse) -> LawEntry:
    """Hexagon equality of the two composite rearrangements of
    output-delayed-reader triples; both must land on the same
    reader-of-delayed-writer value."""
    monoid = bool_and_monoid()
    xs = base_values(u.carrier_size)
    fuel = u.derived_fuel()
    tables = fun_space(R_DOMAIN, xs)
    delays = delay_values(tables, u.max_steps, True)

    def rw(m, F: FinFun) -> FinFun:
        # writer over reader: emit the output pointwise
        return FinFun.tabulate(R_DOMAIN, lambda r: (m, F(r)))

    def path_read_first(m, d: Delay) -> FinFun:
        f1 = reader_dist(d, R_DOMAIN)            # reader of delayed tables
        f2 = rw(m, f1)                             # pair the output pointwise
        return FinFun.tabulate(R_DOMAIN, lambda r: writer_dist(f2(r)[0], f2(r)[1], monoid))

    def path_write_first(m, d: Delay) -> FinFun:
        d1 = writer_dist(m, d, monoid)             # delay of (m, table)
        d2 = dmap(d1, lambda mf: rw(mf[0], mf[1]))  # delay of reader-of-pairs
        return reader_dist(d2, R_DOMAIN)

    def compare(F: FinFun, G: FinFun) -> Verdict:
        return conjoin(strong_equal(F(r), G(r), fuel) for r in R_DOMAIN)

    return _scan("YangBaxter", [(m, d) for m in monoid.elements for d in delays],
                 lambda p: path_read_first(*p), lambda p: path_write_first(*p), compare,
                 lambda p: f"({p[0]}, {_short(p[1])})")


def check_yang_baxter(u: TestUniverse) -> LawReport:
    """The hexagon of :func:`yang_baxter_check` as a report."""
    return _run("yang-baxter", "custom:yang-baxter", u, lambda: [yang_baxter_check(u)])


# ---------------------------------------------------------------------------
# delayed state


@dataclass(frozen=True)
class DelayedState:
    """State transformer whose run produces a delayed (state, value) pair."""

    run: FinFun  # state -> Delay[(state, value)]

    def __str__(self) -> str:
        return str(self.run)


@dataclass(frozen=True)
class StateOps:
    states: Tuple[Any, ...]

    def unit(self, x) -> DelayedState:
        return DelayedState(FinFun.tabulate(self.states, lambda s: Now((s, x))))

    def bind(self, m: DelayedState, k: Callable[[Any], DelayedState]) -> DelayedState:
        def at(s):
            return bind(m.run(s), lambda sx: k(sx[1]).run(sx[0]))

        return DelayedState(FinFun.tabulate(self.states, at))

    def equal(self, m: DelayedState, n: DelayedState, fuel: int) -> Verdict:
        return conjoin(strong_equal(m.run(s), n.run(s), fuel) for s in self.states)

    def step(self, m: DelayedState) -> DelayedState:
        return DelayedState(FinFun.tabulate(self.states, lambda s: step(m.run(s))))


@dataclass(frozen=True)
class _Stages:
    """The two stages of a state bind at one state, each forced; the
    second is None when the first does not finish.  It prints as what the
    whole bind should do."""

    first: Any
    second: Any

    def __str__(self) -> str:
        if self.first is EXHAUSTED:
            return "expected more steps than the fuel: the first stage runs out of it"
        if self.second is None:
            return "no termination: the first stage diverges"
        if self.second is KNOWN_DIVERGENT:
            return "no termination: the second stage diverges"
        if self.second is EXHAUSTED:
            return (f"expected {self.first.steps} steps plus more than the fuel: "
                    "the second stage runs out of it")
        return f"expected {self.first.steps}+{self.second.steps} steps"


def check_state(u: TestUniverse) -> LawReport:
    """Monad laws of the delayed-state monad plus per-state step
    additivity of its bind.  A monad-law space over the case budget is
    refused before it is built."""
    return _run("state", "custom:state", u, lambda: _state_entries(u))


def _state_entries(u: TestUniverse) -> List[LawEntry]:
    ops = StateOps(STATES)
    xs = base_values(u.carrier_size)
    fuel = u.derived_fuel()
    pairs = [(s, x) for s in ops.states for x in xs]
    max_steps = min(u.max_steps, 2)
    components = [delay_n(n, p) for n in range(max_steps + 1) for p in pairs] + [DIVERGE]
    small = ([ops.unit(x) for x in xs]
             + [ops.step(ops.unit(x)) for x in xs]
             + [DelayedState(FinFun(ops.states, (DIVERGE,) * len(ops.states)))])
    # both spaces are counted before either is built
    check_kleisli_space(u, "state monad laws", len(components) ** len(ops.states),
                        len(small) ** len(xs))
    elements = [DelayedState(FinFun(ops.states, combo))
                for combo in itertools.product(components, repeat=len(ops.states))]
    k_pool = [dict(zip(xs, combo)) for combo in itertools.product(small, repeat=len(xs))]

    entries = [check_monad_laws_kleisli(ops.unit, ops.bind, elements, xs, k_pool,
                                        lambda a, b: ops.equal(a, b, fuel), str)]

    # step additivity: the bind of m and k at state s takes the steps of
    # m at s plus those of k's result from there, and diverges when either
    # stage does.  A case is ((i, j), s) for m = ms[i], k = ks[j]; the scan
    # binds once per (m, k), and a witness's replay binds afresh.
    ms, ks = elements[:60], k_pool[:12]

    def stages(c) -> _Stages:
        (i, j), s = c
        first = force(ms[i].run(s), fuel)
        if not isinstance(first, Terminated):
            return _Stages(first, None)
        s1, x1 = first.value
        return _Stages(first, force(ks[j][x1].run(s1), fuel))

    def additive(whole, st: _Stages) -> Verdict:
        # a delay past the fuel still finishes, in more than `fuel` steps,
        # so step arithmetic can refute a case that involves one
        if st.first is EXHAUSTED or st.second is EXHAUSTED:
            return NO if isinstance(whole, Terminated) else unknown(fuel)
        if st.second is None or st.second is KNOWN_DIVERGENT:
            return unknown(fuel) if whole is EXHAUSTED else as_verdict(
                not isinstance(whole, Terminated))
        expected = st.first.steps + st.second.steps
        if whole is EXHAUSTED:
            return NO if expected <= fuel else unknown(fuel)
        return as_verdict(isinstance(whole, Terminated) and whole.steps == expected)

    with _memoised(lambda ij: ops.bind(ms[ij[0]], ks[ij[1]].__getitem__)) as bound:
        entries.append(_scan("StepAdditivity",
                             (((i, j), s) for i in range(len(ms)) for j in range(len(ks))
                              for s in ops.states),
                             lambda c: force(bound(c[0]).run(c[1]), fuel), stages, additive,
                             lambda c: f"m={ms[c[0][0]]}, s={c[1]}"))
    return entries + _gsd_entries(u)


# ---------------------------------------------------------------------------
# GSD algebras and the extension operator


class GsdAlgebraError(ValueError):
    def __init__(self, failed: Sequence[str]):
        super().__init__("algebra violates: " + ", ".join(failed))
        self.failed = tuple(failed)


@dataclass(frozen=True)
class GsdAlgebra:
    """State-and-delay algebra: lookup/update with the four state
    equations, a step endomap, and a divergence default.

    ``samples`` is a finite probe set used to validate the equations;
    ``equal`` may return a bool or a Verdict.  An algebra is immutable,
    so its equations are validated once and the verdicts kept on it
    (:func:`_laws`).
    """

    name: str
    states: Tuple[Any, ...]
    lookup: Callable[[Callable[[Any], Any]], Any]
    update: Callable[[Any, Any], Any]   # (element, new state) -> element
    step: Callable[[Any], Any]
    div: Any
    equal: Callable[[Any, Any], Any]
    samples: Tuple[Any, ...]


GSD_LAWS = ("lookup-lookup", "lookup-update", "update-lookup",
            "update-update", "step-lookup", "step-update")


def validate_gsd(alg: GsdAlgebra) -> Dict[str, Verdict]:
    """Each equation's verdict on the algebra's probe set, by name in
    :data:`GSD_LAWS` order: No at its first failing probe, else Unknown
    if a probe could not be decided, else Yes."""
    eq = lambda a, b: as_verdict(alg.equal(a, b))
    gs = [FinFun(alg.states, combo)
          for combo in itertools.islice(itertools.product(alg.samples,
                                                          repeat=len(alg.states)), GSD_PROBES)]
    fs = list(itertools.islice(itertools.product(gs, repeat=len(alg.states)), GSD_PROBES))
    probes = {
        "lookup-lookup": (eq(alg.lookup(lambda s, f=f: alg.lookup(dict(zip(alg.states, f))[s])),
                             alg.lookup(lambda s, f=f: dict(zip(alg.states, f))[s](s)))
                          for f in fs),
        "lookup-update": (eq(alg.lookup(lambda s, y=y: alg.update(y, s)), y)
                          for y in alg.samples),
        "update-lookup": (eq(alg.update(alg.lookup(g), s), alg.update(g(s), s))
                          for g in gs for s in alg.states),
        "update-update": (eq(alg.update(alg.update(y, s), t), alg.update(y, s))
                          for y in alg.samples for s in alg.states for t in alg.states),
        "step-lookup": (eq(alg.step(alg.lookup(g)), alg.lookup(lambda s, g=g: alg.step(g(s))))
                        for g in gs),
        "step-update": (eq(alg.update(alg.step(y), s), alg.step(alg.update(y, s)))
                        for y in alg.samples for s in alg.states),
    }
    return {law: conjoin(probes[law]) for law in GSD_LAWS}


def _laws(alg: GsdAlgebra) -> Dict[str, Verdict]:
    """``validate_gsd(alg)``, computed on first use and kept on the
    algebra, so that checking the laws and extending share one
    validation."""
    verdicts = getattr(alg, "_verdicts", None)
    if verdicts is None:
        verdicts = validate_gsd(alg)
        object.__setattr__(alg, "_verdicts", verdicts)
    return verdicts


def _failed_laws(verdicts: Dict[str, Verdict]) -> List[str]:
    return [law for law, v in verdicts.items() if v.is_no]


def gsd_extend(f: Dict[Any, Any], alg: GsdAlgebra) -> Callable[[DelayedState], Any]:
    """The unique algebra map out of the delayed-state monad determined
    by where the generators go: read the state, run the delayed pair,
    then write back and continue in the algebra.  Raises GsdAlgebraError
    when the algebra definitely fails an equation; one its probes cannot
    decide does not stop the extension."""
    failed = _failed_laws(_laws(alg))
    if failed:
        raise GsdAlgebraError(failed)

    def into(d: Delay):
        if d is DIVERGE:
            return alg.div
        s1, x1 = d.value
        out = alg.update(f[x1], s1)
        for _ in range(d.steps):
            out = alg.step(out)
        return out

    return lambda m: alg.lookup(lambda s: into(m.run(s)))


def canonical_gsd(states: Sequence[Any], xs: Sequence[Any], fuel: int) -> GsdAlgebra:
    """The delayed-state carrier as an algebra over itself."""
    ops = StateOps(tuple(states))

    def lookup(g):
        return DelayedState(FinFun.tabulate(ops.states, lambda s: g(s).run(s)))

    def update(y: DelayedState, s) -> DelayedState:
        return DelayedState(FinFun.tabulate(ops.states, lambda _s: y.run(s)))

    pairs = [(s, x) for s in ops.states for x in xs]
    components = [delay_n(n, p) for n in range(2) for p in pairs] + [DIVERGE]
    samples = tuple(DelayedState(FinFun(ops.states, c))
                    for c in itertools.islice(itertools.product(components,
                                                                repeat=len(ops.states)), 24))
    return GsdAlgebra(
        name="delayed-state",
        states=ops.states,
        lookup=lookup,
        update=update,
        step=ops.step,
        div=DelayedState(FinFun(ops.states, (DIVERGE,) * len(ops.states))),
        equal=lambda a, b: ops.equal(a, b, fuel),
        samples=samples,
    )


def check_gsd(u: TestUniverse) -> LawReport:
    """Algebra laws of the canonical delayed-state algebra, the
    generator equation of the extension, identity extension, and
    homomorphism behaviour on sampled inputs."""
    return _run("gsd", "custom:state", u, lambda: _gsd_entries(u))


def _gsd_entries(u: TestUniverse) -> List[LawEntry]:
    ops = StateOps(STATES)
    fuel = u.derived_fuel()
    xs = ("x0",)  # one generator keeps the identity extension readable
    alg = canonical_gsd(STATES, xs, fuel)
    equal = lambda a, b: ops.equal(a, b, fuel)

    verdicts = _laws(alg)
    algebra = LawEntry("GsdAlgebraLaws", conjoin(verdicts.values()), len(GSD_LAWS))
    if algebra.verdict.is_no:
        algebra.witness = _witness(
            "canonical algebra", lambda: ", ".join(_failed_laws(validate_gsd(alg))),
            lambda: "all laws", seen=(", ".join(_failed_laws(verdicts)), "all laws"))

    # the extension fixes the generators and, being the identity here,
    # every sample
    ext = gsd_extend({x: ops.unit(x) for x in xs}, alg)
    extension = _scan("GsdExtension",
                      [("generator", x, ops.unit(x)) for x in xs]
                      + [("sample", m, m) for m in alg.samples],
                      lambda c: ext(c[2]), lambda c: c[2], equal,
                      lambda c: f"{c[0]} {c[1]}")

    # the extension commutes with lookup, update and step
    def hom_cases():
        for c in itertools.islice(itertools.product(alg.samples[:6], repeat=len(alg.states)),
                                  16):
            yield "lookup", FinFun(alg.states, c)
        for m in alg.samples[:8]:
            for s in alg.states:
                yield "update", (m, s)
            yield "step", m

    homomorphism = _scan_kinds("GsdHomomorphism", hom_cases(), {
        "lookup": (lambda g: f"lookup {g}", lambda g: ext(alg.lookup(g)),
                   lambda g: alg.lookup(lambda s: ext(g(s)))),
        "update": (lambda ms: f"update {ms[0]} at {ms[1]}", lambda ms: ext(alg.update(*ms)),
                   lambda ms: alg.update(ext(ms[0]), ms[1])),
        "step": (lambda m: f"step {m}", lambda m: ext(ops.step(m)),
                 lambda m: ops.step(ext(m))),
    }, equal)
    return [algebra, extension, homomorphism]


# ---------------------------------------------------------------------------
# selection


@dataclass
class Sel:
    """A selection-style value: a callable from predicates to results,
    carried with a printable description.  The description is a thunk,
    rendered only when the value is printed: scans build thousands of
    selectors and print at most the one in a witness."""

    fn: Callable
    describe: Callable[[], str]

    def __call__(self, p):
        return self.fn(p)

    def __str__(self) -> str:
        return self.describe()


def pred_index(preds: Sequence[Any], dom: Sequence[Any]) -> Dict[Tuple[Any, ...], int]:
    """Each predicate table's values to its first row, for a selector
    table whose domain ``preds`` holds tables over ``dom``; empty when a
    row is not such a table or has an unhashable value."""
    dom = tuple(dom)
    index: Dict[Tuple[Any, ...], int] = {}
    for row, t in enumerate(preds):
        if type(t) is not FinFun or t.domain != dom:
            return {}
        try:
            index.setdefault(t.values, row)
        except TypeError:
            return {}
    return index


def sel_from_table(table: FinFun, value_domain: Sequence[Any],
                   index: Optional[Dict[Tuple[Any, ...], int]] = None) -> Sel:
    """The selector with the given answers to the predicate tables over
    the value domain.  Asked a predicate ``p``, it looks up the tuple of
    ``p``'s values on the domain in ``index`` (:func:`pred_index` of the
    table's domain, unless the caller shares one across a table space):
    the row ``table(FinFun(dom, values))`` reads, since predicate tables
    over one domain are equal exactly when their values are.  A tuple
    missing from the index goes through ``table(...)``, which raises
    ``ValueError`` for a predicate that is not in the table."""
    dom = tuple(value_domain)
    if index is None:
        index = pred_index(table.domain, dom)
    values, row_of = table.values, index.get

    def ask(p):
        key = tuple(map(p, dom))
        try:
            row = row_of(key)
        except TypeError:  # an unhashable value: only the table's scan can place it
            row = None
        if row is None:
            return table(_table(dom, key))
        return values[row]

    return Sel(ask, lambda: str(table))


@dataclass(frozen=True)
class PredFn:
    """A predicate over delayed values factoring through bounded
    observation, read in place as :func:`force` would: terminated values
    within fuel go through the table, anything else gets the default."""

    table: FinFun
    default: Any
    fuel: int

    def __call__(self, d: Delay):
        n = d.steps
        if n > self.fuel or d is DIVERGE:
            return self.default
        return self.table(d.value)

    def __str__(self) -> str:
        return f"{self.table} else {self.default} (fuel {self.fuel})"


def predicate_family(xs: Sequence[Any], rs: Sequence[Any], fuels: Sequence[int]) -> List[PredFn]:
    return [PredFn(t, r0, k) for t in fun_space(xs, rs) for r0 in rs for k in fuels]


def selection_pack(xs: Sequence[Any], rs: Sequence[Any]) -> MonadPack:
    preds = predicate_family(xs, rs, (PRED_FUEL,))

    def unit(x):
        return Sel(lambda p: x, lambda: f"always {_short(x)}")

    def mu(FF: Sel) -> Sel:
        return Sel(lambda p: FF(lambda f: p(f(p)))(p), lambda: f"mu({FF})")

    def fmap(f, F: Sel) -> Sel:
        return Sel(lambda p: f(F(lambda x: p(f(x)))), lambda: f"map({F})")

    def equal(a: Sel, b: Sel, rel) -> Verdict:
        # selections over delayed values are compared pointwise on the
        # bounded-observation predicate family
        rel = rel or _eq
        return conjoin(as_verdict(rel(a(g), b(g))) for g in preds)

    return MonadPack(unit, mu, fmap, equal)


def check_selection(u: TestUniverse) -> LawReport:
    """Beck axioms for the delayed-selection transformation; selector
    tables are exhaustive, two-level selectors are sampled from constants
    and single-probe branches.  Each side of each axiom is read as its
    answer vector (:func:`selection_scans`); a No's witness computes both
    sides again as selectors (:func:`delaydist.laws.beck_sides`).

    The delays in its inputs take at most ``min(u.max_steps, 2)`` steps,
    whatever ``u.max_steps`` is: a report at carrier 2 that says
    ``maxSteps 3`` has 6 UnitT cases, two values at 0, 1 and 2 steps."""
    return _run("selection", "custom:selection", u, lambda: _selection_entries(u))


def _selection_entries(u: TestUniverse) -> List[LawEntry]:
    scans = selection_scans(u)
    S = delay_pack(u.relation, u.derived_fuel())
    T = selection_pack(base_values(u.carrier_size), RESULTS)

    def same(a, b) -> Verdict:
        # T.equal on two answer vectors: entry by entry, compared in S
        return conjoin(S.equal(x, y, _eq) for x, y in zip(a, b))

    return [_scan(axiom, inputs, lhs, rhs, same,
                  _nat_render if axiom == "Naturality" else _short, _short,
                  beck_sides(axiom, S, T, selection_dist))
            for axiom, (inputs, lhs, rhs) in scans.items()]


def selection_scans(u: TestUniverse) -> Dict[str, Tuple[List[Any], Callable, Callable]]:
    """Each Beck axiom of :func:`selection_dist`: its inputs, and its two
    sides as functions from an input to an answer vector, the side's
    answers to the predicates that ``selection_pack``'s ``equal`` asks,
    in that order.

    A J X value is read as the selector table that answers each predicate
    table as it does, and a D(J X) value is keyed by its step count
    (None when it diverges) and that table's position.  The candidate is
    only ever called, through this module's name: once per key met, on
    that key's delayed table selector, whose answers to the predicates
    are tabulated.  MultS's ``z(dmap(M, z))`` and MultT's ``z(M)`` apply
    it at a nested type, once per case: the inner selectors of the first
    are the keyed ones, and the predicates that MultT's right side hands
    the second read the tabulated answers.  Everything else follows from
    the definitions:

    - a predicate asked at ``Now(x)`` reads its table at ``x``;
    - ``λy. g(dmap(y, f))`` is the predicate with table ``g.table ∘ f``
      and ``g``'s default and fuel;
    - J's ``unit``, ``mu`` and ``fmap`` are computed on tables.
    """
    xs = base_values(u.carrier_size)
    p_tables = fun_space(xs, RESULTS)
    _check_space(u, "selector", p_tables, xs)
    row = pred_index(p_tables, xs)
    space = fun_space(p_tables, xs)
    sel_tables = [sel_from_table(t, xs, row) for t in space]
    preds = predicate_family(xs, RESULTS, (PRED_FUEL,))
    max_steps = min(u.max_steps, 2)

    two_level = [Sel(lambda q, f=f: f, lambda f=f: f"always {f}") for f in sel_tables[:6]]
    probes = []
    for f0 in sel_tables[:3]:
        for r0 in RESULTS:
            for f1, f2 in itertools.islice(itertools.combinations(sel_tables[:5], 2), 4):
                probes.append(Sel(lambda q, f0=f0, r0=r0, f1=f1, f2=f2:
                                  f1 if q(f0) == r0 else f2,
                                  lambda f0=f0, r0=r0, f1=f1, f2=f2:
                                  f"if q({f0})={r0} then {f1} else {f2}"))

    # selector table i answers predicate table r with vals[i][r]; the
    # scan's own table selectors are known by identity, any other is
    # asked the predicate tables
    vals = [t.values for t in space]
    table_at = {v: i for i, v in enumerate(vals)}
    built = {id(s): i for i, s in enumerate(sel_tables)}

    def table_of(s) -> int:
        i = built.get(id(s))
        return table_at[tuple([s(t) for t in p_tables])] if i is None else i

    def key(d, table=table_of):
        if d is DIVERGE:
            return None
        return d.steps, table(d.value)

    sels: Dict[Any, Sel] = {}
    answers: Dict[Any, Tuple[Delay, ...]] = {}

    def candidate(k) -> Sel:
        z = sels.get(k)
        if z is None:
            d = DIVERGE if k is None else delay_n(k[0], sel_tables[k[1]])
            z = sels[k] = selection_dist(d)
        return z

    def answer(k) -> Tuple[Delay, ...]:
        a = answers.get(k)
        if a is None:
            z = candidate(k)
            a = answers[k] = tuple([z(g) for g in preds])
        return a

    # UnitS: fmap(now, t) asks t each predicate at Now(x), its table
    probe = [row[g.table.values] for g in preds]

    def unit_s_rhs(t):
        v = vals[table_of(t)]
        return tuple([Now(v[r]) for r in probe])

    # UnitT: unit(x) is the constant table
    unit = {x: table_at[(x,) * len(p_tables)] for x in xs}

    def mult_s_rhs(M):
        G = selection_dist(dmap(M, lambda d: candidate(key(d))))
        return tuple([join(G(lambda dd, g=g: g(join(dd)))) for g in preds])

    def mu(FF) -> int:
        def at(r, t):  # J's mu(FF) asked predicate table t: FF(λf. t(f(t)))(t)
            return vals[table_of(FF(lambda f: t(vals[table_of(f)][r])))][r]

        return table_at[tuple([at(r, t) for r, t in enumerate(p_tables)])]

    def mult_t_rhs(M):
        # mu(fmap(z, z(M))) asked g: z(z(M)(λy. g(z(y)(g))))(g)
        zM = selection_dist(M)
        return tuple([answer(key(zM(lambda y, j=j, g=g: g(answer(key(y))[j]))))[j]
                      for j, g in enumerate(preds)])

    # Naturality, once per f: the position of λy. g(dmap(y, f)) for each
    # predicate g, and the row of t ∘ f for each predicate table t, which
    # fmap(f, s) asks s for t
    pred_at = {(g.table.values, g.default, g.fuel): j for j, g in enumerate(preds)}
    precomposed: Dict[FinFun, Tuple[List[int], List[int]]] = {}

    def precompose(f):
        got = precomposed.get(f)
        if got is None:
            got = precomposed[f] = (
                [pred_at[tuple([g.table(f(x)) for x in xs]), g.default, g.fuel] for g in preds],
                [row[tuple([t(f(x)) for x in xs])] for t in p_tables])
        return got

    def nat_lhs(c):
        f, d = c
        a = answer(key(d))
        return tuple([dmap(a[j], f) for j in precompose(f)[0]])

    def nat_rhs(c):
        f, d = c
        rows_of = precompose(f)[1]

        def mapped(s) -> int:  # fmap(f, s)
            v = vals[table_of(s)]
            return table_at[tuple([f(v[r]) for r in rows_of])]

        return answer(key(d, mapped))

    return {
        "UnitS": (sel_tables, lambda t: answer((0, table_of(t))), unit_s_rhs),
        "UnitT": (delay_values(xs, max_steps, u.include_diverge),
                  lambda s: answer(key(s, unit.__getitem__)), lambda s: (s,) * len(preds)),
        "MultS": (double_delay_values(sel_tables[:8], max_steps, u.include_diverge),
                  lambda M: answer(key(join(M))), mult_s_rhs),
        "MultT": (delay_values(two_level + probes, max_steps, u.include_diverge),
                  lambda M: answer(key(M, mu)), mult_t_rhs),
        "Naturality": ([(f, d) for f in fun_space(xs, xs)
                        for d in delay_values(sel_tables[:6], max_steps, u.include_diverge)],
                       nat_lhs, nat_rhs),
    }


# ---------------------------------------------------------------------------
# delay algebras on finite carriers and on continuations


@dataclass(frozen=True)
class DelayAlgebra:
    """Step-erasing algebra on a finite carrier: finished values come out
    unchanged however long they took; divergence maps to a default.  It
    keeps no state between checks: the retraction check computes its row
    map once per check (:func:`_row_map`)."""

    carrier: Tuple[Any, ...]
    default: Any

    def alg(self, d: Delay):
        out = force(d, ALGEBRA_FUEL)
        if isinstance(out, Terminated):
            return out.value
        return self.default

    def score(self, p) -> Callable[[Delay], Any]:
        """``psi``'s predicate transformer: ``p`` becomes the predicate
        that runs a delayed value through ``p`` and then this algebra."""
        return lambda d: self.alg(dmap(d, p))


def continuation_step_lift(ralg: DelayAlgebra, xs: Sequence[Any]) -> Callable[[Delay], FinFun]:
    """Delay algebra on tabulated continuations, built pointwise from the
    carrier's algebra."""
    g_tables = fun_space(xs, ralg.carrier)

    def alg_cx(d: Delay) -> FinFun:
        return FinFun.tabulate(g_tables, lambda g: ralg.alg(dmap(d, lambda c: c(g))))

    return alg_cx


def check_continuation(u: TestUniverse) -> LawReport:
    """Delay-algebra structure on continuations: unit and step-erasure
    laws, flattening agreement, and recovery of the carrier's algebra by
    instantiating at the identity continuation."""
    return _run("continuation", "custom:continuation", u, lambda: _continuation_entries(u))


def _continuation_entries(u: TestUniverse) -> List[LawEntry]:
    _retract_spaces(u)  # the retraction's budget, before the first scan here
    xs = base_values(u.carrier_size)
    ralg = DelayAlgebra(RESULTS, RESULTS[0])
    alg_cx = continuation_step_lift(ralg, xs)
    g_tables = fun_space(xs, ralg.carrier)
    c_tables = fun_space(g_tables, ralg.carrier)

    def ffeq(F: FinFun, G: FinFun) -> Verdict:
        return as_verdict(all(F(g) == G(g) for g in g_tables))

    # unit and step erasure on each continuation, then flattening a
    # delayed delayed continuation against algebra-then-algebra
    def flat(cd):
        return delay_n(cd[1], delay_n(cd[2], cd[0]))

    algebra = _scan_kinds("AlgebraLaws", itertools.chain(
        (("now", c) for c in c_tables),
        (("steps", cn) for cn in itertools.product(c_tables[:6], range(6))),
        (("flat", cd) for cd in itertools.product(c_tables[:4], range(3), range(3)))), {
        "now": (str, lambda c: alg_cx(Now(c)), lambda c: c),
        "steps": (lambda cn: f"{cn[1]} steps on {cn[0]}",
                  lambda cn: alg_cx(delay_n(cn[1], cn[0])), lambda cn: cn[0]),
        "flat": (lambda cd: f"{cd[1]}+{cd[2]} steps on {cd[0]}",
                 lambda cd: alg_cx(join(flat(cd))), lambda cd: alg_cx(dmap(flat(cd), alg_cx))),
    }, ffeq)

    # extracting the carrier algebra back out: send each result to the
    # evaluate-here continuation, then apply at the identity table
    gr_tables = fun_space(RESULTS, ralg.carrier)
    ident = FinFun.tabulate(RESULTS, lambda r: r)
    alg_cr = continuation_step_lift(ralg, RESULTS)

    def eval_at(r) -> FinFun:
        return FinFun.tabulate(gr_tables, lambda g: g(r))

    recovery = _scan("CarrierRecovery", delay_values(RESULTS, min(u.max_steps, 3), True),
                     lambda d: alg_cr(dmap(d, eval_at))(ident), ralg.alg,
                     _same, render_delay)
    return [algebra, recovery] + _retract_entries(u)


# ---------------------------------------------------------------------------
# the two delayed selection monads and their retraction


def probe_now(g) -> Callable[[Any], Any]:
    """``phi``'s predicate transformer: ``g`` precomposed with ``Now``,
    so only immediately finished values are probed."""
    return lambda x: g(Now(x))


def phi(f) -> Sel:
    """Selector-of-delays from delayed-result selector: ``f`` precomposed
    with :func:`probe_now`."""
    return Sel(lambda g: f(probe_now(g)), lambda: f"phi({f})")


def psi(F, ralg: DelayAlgebra) -> Sel:
    """Delayed-result selector from selector-of-delays: ``F`` precomposed
    with :meth:`DelayAlgebra.score`, which scores delayed candidates
    through the carrier algebra."""
    return Sel(lambda p: F(ralg.score(p)), lambda: f"psi({F})")


def mu_delayed_result(FF, ralg: DelayAlgebra) -> Sel:
    """Multiplication of the delayed-result selection monad."""
    def at(q):
        inner = FF(lambda f: ralg.alg(dmap(f(q), q)))
        return bind(inner, lambda f: f(q))

    return Sel(at, lambda: f"muJD({FF})")


def jd_fmap(h, m) -> Sel:
    return Sel(lambda p: dmap(m(lambda x: p(h(x))), h), lambda: f"mapJD({m})")


def mu_composite(G) -> Sel:
    """Multiplication of selection-over-delay built from the
    transformation: distribute, then multiply both layers."""
    def at(p):
        def p_dd(dd):
            return p(join(dd))

        def j_zeta(q):
            return selection_dist(G(lambda d: q(selection_dist(d))))

        chosen = j_zeta(lambda f: p_dd(f(p_dd)))
        return join(chosen(p_dd))

    return Sel(at, lambda: f"muJ∘D({G})")


def _retract_spaces(u: TestUniverse):
    """The retraction's value domain, predicate tables and delay pool,
    once its table space (every predicate table to a pooled delay) is
    known to fit the case budget."""
    xs = base_values(u.carrier_size)
    p_tables = tuple(fun_space(xs, RESULTS))
    d_pool = delay_values(xs, 2, True)
    _check_space(u, "retraction", p_tables, d_pool)
    return xs, p_tables, d_pool


def _row_map(p_tables: Tuple[FinFun, ...], xs: Sequence[Any], ralg: DelayAlgebra,
             index) -> Tuple[int, ...]:
    """For each predicate table, the row of a selector table that
    ``psi(phi(-))`` answers it from: ``psi . phi`` of the selector whose
    answer to each predicate table is that table's position."""
    positions = sel_from_table(_table(p_tables, tuple(range(len(p_tables)))), xs, index)
    return tuple(map(psi(phi(positions), ralg), p_tables))


def mu_square_inputs(xs: Sequence[Any], rs: Sequence[Any]) -> List[Sel]:
    """MuSquare's two-level selectors ``FF``: five constant selector
    tables, each now and after one step, and single-probe branches
    between them."""
    p_tables = fun_space(xs, rs)
    index = pred_index(p_tables, xs)
    simple = [sel_from_table(t, xs, index)
              for t in [FinFun(tuple(p_tables), (d,) * len(p_tables))
                        for d in [Now(x) for x in xs[:2]] + [delay_n(1, xs[0]),
                                                              delay_n(2, xs[0]), DIVERGE]]]
    ffs = []
    for f0 in simple:
        ffs.append(Sel(lambda q, f0=f0: Now(f0), lambda f0=f0: f"now({f0})"))
        ffs.append(Sel(lambda q, f0=f0: delay_n(1, f0), lambda f0=f0: f"1·step({f0})"))
    for f0 in simple:
        for r0 in rs:
            for f1, f2 in itertools.islice(itertools.combinations(simple, 2), 3):
                ffs.append(Sel(lambda q, f0=f0, r0=r0, f1=f1, f2=f2:
                               Now(f1 if q(f0) == r0 else f2),
                               lambda f0=f0, r0=r0, f1=f1, f2=f2:
                               f"now(if q({f0})={r0} then {f1} else {f2})"))
    return ffs


def mu_square_lhs(ff, ralg: DelayAlgebra, p_tables: Tuple[FinFun, ...], xs: Sequence[Any],
                  index) -> Sel:
    """MuSquare's left side ``phi(mu_delayed_result(ff))``, answered from
    ``mu_delayed_result(ff)``'s answers to the predicate tables over
    ``xs``."""
    return phi(sel_from_table(FinFun.tabulate(p_tables, mu_delayed_result(ff, ralg)), xs, index))


def mu_square_rhs(ff, p) -> Delay:
    """MuSquare's right side ``mu_composite(phi(jd_fmap(phi, ff)))``
    asked ``p``, as one bind: ``bind(ff(λx. p(x(q))), λx. x(q))`` with
    ``q = probe_now(p)``.

    Write ``G = phi(jd_fmap(phi, ff))``, ``p_dd = p ∘ join``, ``sd`` for
    :func:`selection_dist` and ``Q(f) = p_dd(f(p_dd))``, so that
    ``mu_composite(G)(p) = join(sd(G(Q ∘ sd))(p_dd))``.  Using only
    ``join(Now d) = d`` and the functor laws of ``dmap``:

    1. For a delayed-result selector ``x``, ``phi(x)(p_dd ∘ Now) =
       x(λz. p(join(Now(Now z)))) = x(q)``.
    2. ``sd(Now(phi(x)))(p_dd) = Now(phi(x)(p_dd ∘ Now)) = Now(x(q))``, so
       ``Q(sd(Now(phi(x)))) = p(join(Now(x(q)))) = p(x(q))``.  Hence
       ``G(Q ∘ sd) = jd_fmap(phi, ff)(λx. Q(sd(Now(x))))`` is
       ``dmap(ff(λx. p(x(q))), phi)``.
    3. ``sd`` of that, asked ``p_dd``, maps each ``phi(x)`` to
       ``phi(x)(p_dd ∘ Now)``: by composition of maps and step 1 it is
       ``dmap(ff(λx. p(x(q))), λx. x(q))``.
    4. ``join`` of a ``dmap`` is a ``bind``.

    A MuSquare witness replays through ``mu_composite`` instead, so a
    replay cross-checks this form."""
    q = probe_now(p)
    return bind(ff(lambda x: p(x(q))), lambda x: x(q))


def retract_check(u: TestUniverse) -> LawReport:
    """The delayed-result selection monad sits inside selection-over-
    delay: one direction after the other is the identity, exhaustively
    over selector tables.  Neither embedding commutes with the two
    multiplications; the search returns the first witness.

    RetractIdentity computes ``psi . phi``'s row map once
    (:func:`_row_map`) and compares row ``row[i]`` of each table with row
    ``i``.  A table picks one pooled delay per predicate table, so each
    case is read from the verdicts on ordered pairs of pooled delays,
    computed once per check; the table itself is built only for a No's
    witness, whose replay recomputes both sides through ``psi`` and
    ``phi``.  MuSquare's left side is tabulated on the predicate tables
    (:func:`mu_square_lhs`): ``phi`` probes a predicate only at
    ``Now(x)`` and ``mu_delayed_result(FF)`` calls it only on the values,
    so those answers fix every other.  Its right side is one bind
    (:func:`mu_square_rhs`); a No's replay computes it through
    ``mu_composite`` instead.  A table space over the case budget is
    refused before it is built."""
    return _run("retract", "custom:continuation", u, lambda: _retract_entries(u))


def _retract_entries(u: TestUniverse) -> List[LawEntry]:
    xs, p_tables, d_pool = _retract_spaces(u)
    ralg = DelayAlgebra(RESULTS, RESULTS[0])
    fuel = u.derived_fuel()
    index = pred_index(p_tables, xs)

    # psi . phi = id over every table (X -> R) -> D X, read through the
    # row map: a table is a choice of pooled delay per predicate table,
    # and its case i compares the delays picked at rows row[i] and i,
    # decided once per ordered pair of pooled delays.  A witness builds
    # its table and replays through psi and phi
    rows = tuple(enumerate(_row_map(p_tables, xs, ralg, index)))
    same = [[strong_equal(a, b, fuel) for b in d_pool] for a in d_pool]
    picks = i = j = None

    def verdicts():
        nonlocal picks, i, j
        for picks in itertools.product(range(len(d_pool)), repeat=len(p_tables)):
            for i, j in rows:
                yield same[picks[j]][picks[i]]

    def identity_witness() -> Witness:
        table = _table(p_tables, tuple(d_pool[k] for k in picks))
        p = p_tables[i]
        return _witness(f"{table} at {p}", lambda: psi(phi(sel_from_table(table, xs)), ralg)(p),
                        lambda: sel_from_table(table, xs)(p), _short,
                        seen=(table.values[j], table.values[i]))

    identity = _entry("RetractIdentity", verdicts(), identity_witness)

    # mu-square for the embedding: phi(mu(FF)) vs mu(phi-image of FF),
    # over the cases (FF, g) in FF-major order.  The scan builds each
    # left side once per FF and computes the right side in one bind
    # (mu_square_rhs); a witness's replay rebuilds both sides from FF,
    # the right one through mu_composite, so it cross-checks the bind
    preds = predicate_family(xs, RESULTS, (0, 1, 2))
    ffs = mu_square_inputs(xs, RESULTS)
    ff = g = lhs = rhs = None

    def square_verdicts():
        nonlocal ff, g, lhs, rhs
        for ff in ffs:
            left = mu_square_lhs(ff, ralg, p_tables, xs, index)
            for g in preds:
                lhs, rhs = left(g), mu_square_rhs(ff, g)
                yield strong_equal(lhs, rhs, fuel)

    square = _entry("MuSquare", square_verdicts(), lambda: _witness(
        f"{ff} under {g}", lambda: mu_square_lhs(ff, ralg, p_tables, xs, index)(g),
        lambda: mu_composite(phi(jd_fmap(phi, ff)))(g), _short, seen=(lhs, rhs),
        note="the embedding is not a monad map"))
    if square.verdict.is_no:
        square.predicted = True
        square.prediction_note = ("the two delayed selection monads multiply differently; "
                                  "a failure witness is the expected outcome")
    return [identity, square]


# ---------------------------------------------------------------------------
# free sum of an algebraic monad with delay


@dataclass(frozen=True)
class PureLeaf:
    value: Any

    def __str__(self) -> str:
        return _short(self.value)


@dataclass(frozen=True)
class LaterLeaf:
    tail: fm.ModelElement

    def __str__(self) -> str:
        return f"later({fm.value_str(self.tail)})"


class _DivLeaf:
    __slots__ = ()

    def __repr__(self):
        return "DIV_LEAF"

    def __str__(self):
        return "⊥"


DIV_LEAF = _DivLeaf()


@dataclass(frozen=True)
class SumOps:
    """Free combination of a theory monad with delay: theory elements
    whose leaves are either finished values or guarded tails.  Finite
    approximants keep their tails strict; the divergence marker stands in
    for the fully unproductive tail."""

    theory: Theory

    def pure(self, x) -> fm.ModelElement:
        return fm.unit(self.theory, PureLeaf(x))

    def later(self, e: fm.ModelElement) -> fm.ModelElement:
        return fm.unit(self.theory, LaterLeaf(e))

    def div(self) -> fm.ModelElement:
        return fm.unit(self.theory, DIV_LEAF)

    def node(self, op: str, args: Sequence[fm.ModelElement]) -> fm.ModelElement:
        return fm.apply_op(self.theory, op, list(args))

    def bind(self, e: fm.ModelElement, k: Callable[[Any], fm.ModelElement]) -> fm.ModelElement:
        def at_leaf(leaf):
            if isinstance(leaf, PureLeaf):
                return k(leaf.value)
            if isinstance(leaf, LaterLeaf):
                return self.later(self.bind(leaf.tail, k))
            return self.div()

        return fm.mu(fm.fmap(at_leaf, e))

    def equal(self, a: fm.ModelElement, b: fm.ModelElement) -> Verdict:
        return fm.model_equal(a, b)

    def guard_depths(self, e: fm.ModelElement) -> List[int]:
        """Number of guards above each finished or divergent leaf."""
        return _guard_depths(e, 0, [])


def _guard_depths(m: fm.ModelElement, depth: int, out: List[int]) -> List[int]:
    """``out`` extended by the guard count above each finished or divergent
    leaf of ``m``, which sits under ``depth`` guards, left to right."""
    for leaf in fm.values_of(m):
        if isinstance(leaf, LaterLeaf):
            _guard_depths(leaf.tail, depth + 1, out)
        else:
            out.append(depth)
    return out


def sum_free_extension(model: fm.FiniteModel, step_y: Callable[[Any], Any], div_y: Any,
                       f: Dict[Any, Any]) -> Callable[[fm.ModelElement], Any]:
    """Evaluate a guarded tree into any carrier with both structures:
    interpret nodes in the finite model, finished leaves through ``f``,
    guards through ``step_y``."""
    return _SumExtension(model, step_y, div_y, f)


@dataclass(frozen=True, eq=False)
class _SumExtension:
    """The extension of :func:`sum_free_extension`, as a callable."""

    model: fm.FiniteModel
    step_y: Callable[[Any], Any]
    div_y: Any
    f: Dict[Any, Any]

    def __call__(self, e: fm.ModelElement):
        return self.model.eval_payload(fm.representative(e), self._leaf)

    def _leaf(self, leaf):
        if isinstance(leaf, PureLeaf):
            return self.f[leaf.value]
        if isinstance(leaf, LaterLeaf):
            return self.step_y(self(leaf.tail))
        return self.div_y


def _or_of_finished(e: fm.ModelElement, f: Dict[Any, int]) -> int:
    """The bitwise or of ``f`` over the finished leaves of ``e`` reachable
    through any number of guards: ``e`` evaluated directly in the diamond
    join model, whose union is bitwise or and whose empty is 0."""
    out = 0
    for leaf in fm.values_of(e):
        if isinstance(leaf, PureLeaf):
            out |= f[leaf.value]
        elif isinstance(leaf, LaterLeaf):
            out |= _or_of_finished(leaf.tail, f)
    return out


def _counting_model() -> fm.FiniteModel:
    """The join model on 0..63 with max as union, which counts guards."""
    ct_elems = tuple(range(64))
    return fm.finite_model("counting", ct_elems,
                           {"union": _op_rows(ct_elems, 2, max), "empty": {(): 0}})


def _op_rows(elements: Sequence[Any], arity: int, f: Callable) -> Dict[tuple, Any]:
    return {args: f(*args) for args in itertools.product(elements, repeat=arity)}


def check_sum(u: TestUniverse) -> LawReport:
    """Monad laws of the free combination, agreement of the extension
    operator with direct evaluation, failure of a guard-blind alternative
    homomorphism, and guard preservation under bind.  A monad-law space
    over the case budget is refused before its scan."""
    return _run("sum", "custom:sum", u, lambda: _sum_entries(u))


def _sum_entries(u: TestUniverse) -> List[LawEntry]:
    ops = SumOps(fm.semilattice())
    xs = base_values(u.carrier_size)

    base = [ops.pure(x) for x in xs]
    lvl1 = base + [ops.later(e) for e in base] + [ops.div()]
    elements = list(lvl1)
    seen = {fm.canon_key(e.payload) for e in elements}
    for a, b in itertools.product(lvl1, repeat=2):
        e = ops.node("union", [a, b])
        key = fm.canon_key(e.payload)
        if key not in seen:
            seen.add(key)
            elements.append(e)
    elements += [ops.later(e) for e in elements[len(lvl1):len(lvl1) + 6]]

    small = base + [ops.later(base[0]), ops.div(), ops.node("union", [base[0], base[-1]])]
    check_kleisli_space(u, "sum monad laws", len(elements), len(small[:5]) ** len(xs))
    k_pool = [dict(zip(xs, combo)) for combo in itertools.product(small[:5], repeat=len(xs))]

    entries = [check_monad_laws_kleisli(ops.pure, ops.bind, elements, xs, k_pool,
                                        lambda a, b: ops.equal(a, b), fm.value_str)]

    # extension vs direct evaluation into the diamond join model
    dm_elems = (0, 1, 2, 3)
    diamond = fm.finite_model("diamond", dm_elems,
                              {"union": _op_rows(dm_elems, 2, lambda a, b: a | b),
                               "empty": {(): 0}})

    def step_y(v):
        return v  # step-blind carrier; guards observed separately below

    f = {x: i + 1 for i, x in enumerate(xs)}
    ext = sum_free_extension(diamond, step_y, 0, f)

    entries.append(_scan_kinds("FreeExtension", itertools.chain(
        (("element", e) for e in elements), (("generator", x) for x in xs)), {
        "element": (fm.value_str, ext, lambda e: _or_of_finished(e, f)),
        "generator": (lambda x: f"generator {x}", lambda x: ext(ops.pure(x)), f.__getitem__),
    }, _same))

    # a guard-counting carrier separates the real extension from a
    # guard-blind alternative, so the alternative is not a homomorphism
    def step_count(v):
        return v + 10

    fc = {x: 1 for x in xs}
    counting = _counting_model()
    ext_c = sum_free_extension(counting, step_count, 0, fc)
    # the same evaluation with every guard dropped
    blind = _SumExtension(counting, step_y, 0, fc)

    uniq_cases = 0
    sep_witness = None
    for e in elements:
        uniq_cases += 1
        if blind(e) != ext_c(e) or blind(ops.later(e)) != step_count(blind(e)):
            # the replay drops the guards again in a fresh counting model,
            # so that the report does not keep this one's 4,096-entry table
            lhs = lambda b: f"guard-blind gives {b(ops.later(e))} on the guarded tree"
            rhs = lambda b: f"a guard-respecting map must give {step_count(b(e))}"
            again = lambda: _SumExtension(_counting_model(), step_y, 0, fc)
            sep_witness = _witness(fm.value_str(e), lambda: lhs(again()), lambda: rhs(again()),
                                   seen=(lhs(blind), rhs(blind)))
            break
    entries.append(LawEntry("Uniqueness", YES if sep_witness is not None else NO,
                            uniq_cases, sep_witness))

    # bind never loses a guard: the bound tree's shallowest leaf is no
    # shallower than the original's
    def keeps_guards(got: List[int], base_depths: List[int]) -> Verdict:
        return as_verdict(not (got and base_depths and min(got) < min(base_depths)))

    # the original's depths are walked once per element during the scan
    with _memoised(ops.guard_depths) as base_depths:
        entries.append(_scan("GuardInvariant", itertools.product(elements, k_pool[:6]),
                             lambda ek: ops.guard_depths(ops.bind(ek[0], ek[1].__getitem__)),
                             lambda ek: base_depths(ek[0]), keeps_guards,
                             lambda ek: fm.value_str(ek[0])))
    return entries


# ---------------------------------------------------------------------------
# exceptions as a full suite, and the combo dispatcher


def check_exceptions(u: TestUniverse) -> LawReport:
    """The exception transformation as a candidate over its free theory
    of two exceptions; the whole suite applies since the theory is plain
    constants."""
    th = fm.exceptions(2)
    cand = custom_candidate(th, "custom:exceptions", seq_lift_op)
    return _run("exceptions", cand.name, u, lambda: _suite(th, cand, u))


# each pairing's checker, by the name the CLI and combo_report take
COMBOS: Dict[str, Callable[[TestUniverse], LawReport]] = {
    "exceptions": check_exceptions, "reader": check_reader, "writer": check_writer,
    "yang-baxter": check_yang_baxter, "state": check_state, "selection": check_selection,
    "continuation": check_continuation, "sum": check_sum,
}
COMBO_NAMES = tuple(COMBOS)


def combo_report(name: str, u: TestUniverse) -> LawReport:
    if name not in COMBOS:
        raise ValueError(f"unknown combination {name!r}; choose from {', '.join(COMBO_NAMES)}")
    return COMBOS[name](u)
