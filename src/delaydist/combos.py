"""Concrete monad pairings with the delay monad.

Each pairing here carries a hand-written transformation rather than one
induced by lifting operations of a free theory: exceptions, reader and
writer (plus their Yang-Baxter compatibility), the delayed-state monad
with its algebra-extension operator, the selection monad, delay algebras
on continuations, the retraction between the two delayed-selection
monads, and the free sum of a theory monad with delay.  The axiom checks
reuse the generic Beck machinery from :mod:`delaydist.laws`; function
spaces are tabulated over small finite carriers, and selection-style
higher-order values are compared pointwise over a declared finite
predicate family, since their full function space is unenumerable.

A selector built from a table by :func:`sel_from_table` keeps the table:
its answers to the predicate tables over its value domain.  ``phi`` and
``psi`` are predicate transformers, so on such a selector they keep the
table too, and ``psi(phi(f))`` has ``f``'s rows reindexed by a row map
computed once per algebra.  The retraction check reads those rows.  Every
selector also answers arbitrary callables by its plain definition (the
lambda path), which the multiplications and the witness replays use.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import freemodel as fm
from .delay import (DIVERGE, Delay, Now, Terminated, Verdict, YES, NO, as_verdict,
                    bind, conjoin, delay_n, dmap, force, join, peel, render_delay,
                    step, strong_equal)
from .laws import (LawEntry, LawReport, MonadPack, TestUniverse, Witness,
                   base_values, beck_mult_s, beck_mult_t, beck_naturality, beck_unit_s,
                   beck_unit_t, check_monad_laws_kleisli, delay_pack, delay_values,
                   double_delay_values, _scan)
from .lifting import custom_candidate, seq_lift_op
from .theory import Theory


def _eq(u, v) -> bool:
    return u == v


def _replayable(input_render: str, lhs: Callable[[], Any], rhs: Callable[[], Any],
                note: str = "", seen: Optional[Tuple[str, str]] = None) -> Witness:
    """A witness whose two sides are the renders of ``lhs()`` and
    ``rhs()``; its replay computes both sides again.  ``seen`` gives the
    renders the scan itself produced instead, so that a replay by another
    route cross-checks them."""
    def replay() -> Tuple[str, str]:
        return str(lhs()), str(rhs())

    return Witness(input_render, *(seen or replay()), note=note, replay=replay)


# ---------------------------------------------------------------------------
# finite function tables


@dataclass(frozen=True)
class FinFun:
    """A total function on a small finite domain, compared extensionally."""

    domain: Tuple[Any, ...]
    values: Tuple[Any, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.values):
            raise ValueError("FinFun table must cover its whole domain")

    def __call__(self, a):
        return self.values[self.domain.index(a)]

    @staticmethod
    def tabulate(domain: Sequence[Any], f: Callable[[Any], Any]) -> "FinFun":
        return FinFun(tuple(domain), tuple(f(a) for a in domain))

    def items(self):
        return zip(self.domain, self.values)

    def __str__(self) -> str:
        return "[" + ", ".join(f"{_short(a)}↦{_short(v)}" for a, v in self.items()) + "]"


def fun_space(domain: Sequence[Any], codomain: Sequence[Any]) -> List[FinFun]:
    dom = tuple(domain)
    return [FinFun(dom, vals) for vals in itertools.product(codomain, repeat=len(dom))]


def _short(v) -> str:
    if isinstance(v, Delay):
        return render_delay(v, _short)
    if isinstance(v, FinFun):
        return str(v)
    if isinstance(v, tuple):
        return "(" + ", ".join(_short(x) for x in v) + ")"
    return str(v)


def _delay_eq(fuel: int):
    return lambda a, b: strong_equal(a, b, fuel)


# ---------------------------------------------------------------------------
# the hand-written transformations


def exceptions_dist(m: fm.ModelElement) -> Delay:
    """Exception element over a delayed value, pushed inside the delay.

    Plain values keep their steps; raised exceptions need none.
    """
    if not isinstance(m.carrier, fm.EitherCarrier):
        raise ValueError("exceptions_dist expects an exception-monad element")
    if m.payload[0] == "exc":
        return Now(m)
    d = m.payload[1]
    return dmap(d, lambda x: fm.unit(m.theory, x))


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
               lambda: f"dist({render_delay(d, _short)})")


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

    return MonadPack("reader", unit, mu, fmap, equal)


def check_reader(u: TestUniverse, r_domain: Sequence[Any] = (0, 1)) -> LawReport:
    """Beck axioms for the delayed-reader transformation, exhaustively
    over tabulated environments."""
    t0 = time.perf_counter()
    xs = base_values(u.carrier_size)
    fuel = u.derived_fuel()
    S = delay_pack(u.relation, fuel)
    T = reader_pack(r_domain)
    rel = _eq

    def z(d: Delay) -> FinFun:
        return reader_dist(d, r_domain)

    tables = fun_space(r_domain, xs)
    delays = delay_values(tables, u.max_steps, u.include_diverge)
    rr = str

    entries = []
    out = beck_unit_s(S, T, z, tables, rel, _short, rr)
    entries.append(LawEntry("UnitS", out.verdict, out.cases, out.witness))
    out = beck_unit_t(S, T, z, delay_values(xs, u.max_steps, u.include_diverge), rel, _short, rr)
    entries.append(LawEntry("UnitT", out.verdict, out.cases, out.witness))
    out = beck_mult_s(S, T, z, double_delay_values(tables, u.max_steps, u.include_diverge),
                      rel, _short, rr)
    entries.append(LawEntry("MultS", out.verdict, out.cases, out.witness))
    nested = fun_space(r_domain, tables)
    out = beck_mult_t(S, T, z, delay_values(nested, u.max_steps, u.include_diverge),
                      rel, _short, rr)
    entries.append(LawEntry("MultT", out.verdict, out.cases, out.witness))
    renamings = [FinFun(tuple(xs), img) for img in itertools.product(xs, repeat=len(xs))]
    nat_inputs = [(f, d) for f in renamings for d in delays]
    out = beck_naturality(S, T, z, nat_inputs, rel,
                          lambda p: f"f={p[0]} on {_short(p[1])}", rr)
    entries.append(LawEntry("Naturality", out.verdict, out.cases, out.witness))
    return LawReport("reader", "custom:reader", u.relation, u.bounds_dict(), entries,
                     (time.perf_counter() - t0) * 1000.0)


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

    return MonadPack("writer", unit, mu, fmap, equal)


def check_writer(u: TestUniverse, monoid: Optional[FiniteMonoid] = None) -> LawReport:
    """Beck axioms for the delayed-writer transformation over a finite
    monoid of outputs."""
    t0 = time.perf_counter()
    monoid = monoid or bool_and_monoid()
    xs = base_values(u.carrier_size)
    fuel = u.derived_fuel()
    S = writer_pack(monoid)
    T = delay_pack(u.relation, fuel)
    rel = _eq

    def z(mx) -> Delay:
        return writer_dist(mx[0], mx[1], monoid)

    delays = delay_values(xs, u.max_steps, u.include_diverge)
    wd = [(m, d) for m in monoid.elements for d in delays]
    rr = lambda d: render_delay(d, _short)

    entries = []
    out = beck_unit_s(S, T, z, delays, rel, _short, rr)
    entries.append(LawEntry("UnitS", out.verdict, out.cases, out.witness))
    out = beck_unit_t(S, T, z, [(m, x) for m in monoid.elements for x in xs], rel, _short, rr)
    entries.append(LawEntry("UnitT", out.verdict, out.cases, out.witness))
    out = beck_mult_s(S, T, z, [(m, (n, d)) for m in monoid.elements
                                for n in monoid.elements for d in delays], rel, _short, rr)
    entries.append(LawEntry("MultS", out.verdict, out.cases, out.witness))
    out = beck_mult_t(S, T, z, [(m, dd) for m in monoid.elements
                                for dd in double_delay_values(xs, u.max_steps,
                                                              u.include_diverge)],
                      rel, _short, rr)
    entries.append(LawEntry("MultT", out.verdict, out.cases, out.witness))
    renamings = [FinFun(tuple(xs), img) for img in itertools.product(xs, repeat=len(xs))]
    out = beck_naturality(S, T, z, [(f, p) for f in renamings for p in wd], rel,
                          lambda p: f"f={p[0]} on {_short(p[1])}", rr)
    entries.append(LawEntry("Naturality", out.verdict, out.cases, out.witness))
    return LawReport("writer", "custom:writer", u.relation, u.bounds_dict(), entries,
                     (time.perf_counter() - t0) * 1000.0)


def writer_steps_preserved(monoid: FiniteMonoid, xs: Sequence[Any], max_steps: int) -> Verdict:
    """Output through the writer transformation takes exactly as many
    steps as the delayed value it waited for."""
    for m in monoid.elements:
        for n in range(max_steps + 1):
            for x in xs:
                out = force(writer_dist(m, delay_n(n, x), monoid), max_steps + 1)
                if not isinstance(out, Terminated) or out.steps != n or out.value != (m, x):
                    return NO
    return YES


# ---------------------------------------------------------------------------
# Yang-Baxter for reader, writer and delay


def yang_baxter_check(u: TestUniverse, monoid: Optional[FiniteMonoid] = None,
                      r_domain: Sequence[Any] = (0, 1)) -> LawEntry:
    """Hexagon equality of the two composite rearrangements of
    output-delayed-reader triples; both must land on the same
    reader-of-delayed-writer value."""
    monoid = monoid or bool_and_monoid()
    xs = base_values(u.carrier_size)
    fuel = u.derived_fuel()
    tables = fun_space(r_domain, xs)
    delays = delay_values(tables, u.max_steps, True)

    def rw(m, F: FinFun) -> FinFun:
        # writer over reader: emit the output pointwise
        return FinFun.tabulate(r_domain, lambda r: (m, F(r)))

    def path_read_first(m, d: Delay) -> FinFun:
        f1 = reader_dist(d, r_domain)              # reader of delayed tables
        f2 = rw(m, f1)                             # pair the output pointwise
        return FinFun.tabulate(r_domain, lambda r: writer_dist(f2(r)[0], f2(r)[1], monoid))

    def path_write_first(m, d: Delay) -> FinFun:
        d1 = writer_dist(m, d, monoid)             # delay of (m, table)
        d2 = dmap(d1, lambda mf: rw(mf[0], mf[1]))  # delay of reader-of-pairs
        return reader_dist(d2, r_domain)

    def compare(F: FinFun, G: FinFun) -> Verdict:
        return conjoin(strong_equal(F(r), G(r), fuel) for r in r_domain)

    out = _scan([(m, d) for m in monoid.elements for d in delays],
                lambda p: path_read_first(*p),
                lambda p: path_write_first(*p),
                compare,
                lambda p: f"({p[0]}, {_short(p[1])})",
                str)
    return LawEntry("YangBaxter", out.verdict, out.cases, out.witness)


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


def state_monad(states: Sequence[Any]) -> StateOps:
    return StateOps(tuple(states))


def check_state(u: TestUniverse, states: Sequence[Any] = (0, 1)) -> LawReport:
    """Monad laws of the delayed-state monad plus per-state step
    additivity of its bind."""
    t0 = time.perf_counter()
    ops = state_monad(states)
    xs = base_values(u.carrier_size)
    fuel = u.derived_fuel()
    pairs = [(s, x) for s in ops.states for x in xs]
    max_steps = min(u.max_steps, 2)
    components = [delay_n(n, p) for n in range(max_steps + 1) for p in pairs] + [DIVERGE]
    elements = [DelayedState(FinFun(ops.states, combo))
                for combo in itertools.product(components, repeat=len(ops.states))]

    small = ([ops.unit(x) for x in xs]
             + [ops.step(ops.unit(x)) for x in xs]
             + [DelayedState(FinFun(ops.states, (DIVERGE,) * len(ops.states)))])
    k_pool = [dict(zip(xs, combo)) for combo in itertools.product(small, repeat=len(xs))]

    out = check_monad_laws_kleisli(ops.unit, ops.bind, elements, xs, k_pool,
                                   lambda a, b: ops.equal(a, b, fuel), str)
    entries = [LawEntry("MonadLaws", out.verdict, out.cases, out.witness)]

    def step_additivity():
        cases = 0
        for m in elements[:60]:
            for k in k_pool[:12]:
                mk = ops.bind(m, lambda v: k[v])
                for s in ops.states:
                    cases += 1
                    r1 = force(m.run(s), fuel)
                    whole = force(mk.run(s), fuel)
                    if not isinstance(r1, Terminated):
                        if isinstance(whole, Terminated):
                            return cases, Witness(f"m={m}, s={s}", str(whole),
                                                  "no termination: the first stage diverges")
                        continue
                    s1, x1 = r1.value
                    r2 = force(k[x1].run(s1), fuel)
                    if not isinstance(r2, Terminated):
                        continue
                    if not (isinstance(whole, Terminated)
                            and whole.steps == r1.steps + r2.steps):
                        return cases, Witness(f"m={m}, s={s}", str(whole),
                                              f"expected {r1.steps}+{r2.steps} steps")
        return cases, None

    add_cases, add_witness = step_additivity()
    entries.append(LawEntry("StepAdditivity", YES if add_witness is None else NO,
                            add_cases, add_witness))

    entries.extend(check_gsd(u, states).entries)
    return LawReport("state", "custom:state", u.relation, u.bounds_dict(), entries,
                     (time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# GSD algebras and the extension operator


class GsdAlgebraError(ValueError):
    def __init__(self, failed: Sequence[str]):
        super().__init__("algebra violates: " + ", ".join(failed))
        self.failed = tuple(failed)


@dataclass
class GsdAlgebra:
    """State-and-delay algebra: lookup/update with the four state
    equations, a step endomap, and a divergence default.

    ``samples`` is a finite probe set used to validate the equations;
    ``equal`` may return a bool or a Verdict.
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


def validate_gsd(alg: GsdAlgebra, g_budget: int = 40) -> List[str]:
    """Names of the equations the algebra fails on its probe set."""
    eq = lambda a, b: as_verdict(alg.equal(a, b)).is_yes
    failed = []
    gs = [FinFun(alg.states, combo)
          for combo in itertools.islice(itertools.product(alg.samples,
                                                          repeat=len(alg.states)), g_budget)]
    fs = list(itertools.islice(itertools.product(gs, repeat=len(alg.states)), g_budget))

    if not all(eq(alg.lookup(lambda s, f=f: alg.lookup(dict(zip(alg.states, f))[s])),
                  alg.lookup(lambda s, f=f: dict(zip(alg.states, f))[s](s)))
               for f in fs):
        failed.append("lookup-lookup")
    if not all(eq(alg.lookup(lambda s, y=y: alg.update(y, s)), y) for y in alg.samples):
        failed.append("lookup-update")
    if not all(eq(alg.update(alg.lookup(g), s), alg.update(g(s), s))
               for g in gs for s in alg.states):
        failed.append("update-lookup")
    if not all(eq(alg.update(alg.update(y, s), t), alg.update(y, s))
               for y in alg.samples for s in alg.states for t in alg.states):
        failed.append("update-update")
    if not all(eq(alg.step(alg.lookup(g)), alg.lookup(lambda s, g=g: alg.step(g(s))))
               for g in gs):
        failed.append("step-lookup")
    if not all(eq(alg.update(alg.step(y), s), alg.step(alg.update(y, s)))
               for y in alg.samples for s in alg.states):
        failed.append("step-update")
    return failed


def gsd_extend(f: Dict[Any, Any], alg: GsdAlgebra) -> Callable[[DelayedState], Any]:
    """The unique algebra map out of the delayed-state monad determined
    by where the generators go: read the state, run the delayed pair,
    then write back and continue in the algebra."""
    failed = validate_gsd(alg)
    if failed:
        raise GsdAlgebraError(failed)

    def into(d: Delay):
        steps, end = peel(d)
        if end is DIVERGE:
            out = alg.div
        else:
            s1, x1 = end.value
            out = alg.update(f[x1], s1)
        for _ in range(steps):
            out = alg.step(out)
        return out

    return lambda m: alg.lookup(lambda s: into(m.run(s)))


def canonical_gsd(states: Sequence[Any], xs: Sequence[Any], fuel: int) -> GsdAlgebra:
    """The delayed-state carrier as an algebra over itself."""
    ops = state_monad(states)

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


def check_gsd(u: TestUniverse, states: Sequence[Any] = (0, 1)) -> LawReport:
    """Algebra laws of the canonical delayed-state algebra, the
    generator equation of the extension, identity extension, and
    homomorphism behaviour on sampled inputs."""
    t0 = time.perf_counter()
    ops = state_monad(states)
    fuel = u.derived_fuel()
    xs = ("x0",)  # one generator keeps the identity extension readable
    alg = canonical_gsd(states, xs, fuel)
    entries = []

    failed = validate_gsd(alg)
    entries.append(LawEntry("GsdAlgebraLaws", YES if not failed else NO,
                            6, None if not failed else
                            Witness("canonical algebra", ", ".join(failed), "all laws")))

    ext = gsd_extend({x: ops.unit(x) for x in xs}, alg)
    cases = 0
    verdict: Verdict = YES
    witness = None
    for x in xs:
        cases += 1
        v = ops.equal(ext(ops.unit(x)), ops.unit(x), fuel)
        if not v.is_yes:
            verdict = v
            witness = Witness(f"generator {x}", str(ext(ops.unit(x))), str(ops.unit(x)))
            break
    if verdict.is_yes:
        for m in alg.samples:
            cases += 1
            v = ops.equal(ext(m), m, fuel)
            if not v.is_yes:
                verdict = v
                witness = Witness(f"sample {m}", str(ext(m)), str(m))
                break
    entries.append(LawEntry("GsdExtension", verdict, cases, witness))

    hom_cases = 0
    hom: Verdict = YES
    hom_witness = None
    sample_gs = [FinFun(alg.states, c)
                 for c in itertools.islice(itertools.product(alg.samples[:6],
                                                             repeat=len(alg.states)), 16)]
    for g in sample_gs:
        hom_cases += 1
        v = ops.equal(ext(alg.lookup(g)),
                      alg.lookup(lambda s: ext(g(s))), fuel)
        if not v.is_yes:
            hom, hom_witness = v, _replayable(f"lookup {g}", lambda: ext(alg.lookup(g)),
                                              lambda: alg.lookup(lambda s: ext(g(s))))
            break
    if hom.is_yes:
        for m in alg.samples[:8]:
            for s in alg.states:
                hom_cases += 1
                v = ops.equal(ext(alg.update(m, s)), alg.update(ext(m), s), fuel)
                if not v.is_yes:
                    hom, hom_witness = v, _replayable(f"update {m} at {s}",
                                                      lambda: ext(alg.update(m, s)),
                                                      lambda: alg.update(ext(m), s))
                    break
            if not hom.is_yes:
                break
            hom_cases += 1
            v = ops.equal(ext(ops.step(m)), ops.step(ext(m)), fuel)
            if not v.is_yes:
                hom, hom_witness = v, _replayable(f"step {m}", lambda: ext(ops.step(m)),
                                                  lambda: ops.step(ext(m)))
                break
    entries.append(LawEntry("GsdHomomorphism", hom, hom_cases, hom_witness))
    return LawReport("gsd", "custom:state", u.relation, u.bounds_dict(), entries,
                     (time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# selection


@dataclass
class Sel:
    """A selection-style value: a callable from predicates to results,
    carried with a printable description.  The description is a thunk,
    rendered only when the value is printed: scans build thousands of
    selectors and print at most the one in a witness.

    A table-backed selector also keeps ``table``, answers indexed by the
    predicate tables over the value domain ``dom``, and ``pre``, the
    predicate transformers it applies, first to last, to a predicate it
    is asked before reading the answer from the table.  ``fn`` is always
    the plain definition (the lambda path)."""

    fn: Callable
    describe: Callable[[], str]
    table: Optional[FinFun] = None
    dom: Tuple[Any, ...] = ()
    pre: Tuple[Callable, ...] = ()

    def __call__(self, p):
        return self.fn(p)

    def __str__(self) -> str:
        return self.describe()


def sel_from_table(table: FinFun, value_domain: Sequence[Any]) -> Sel:
    """The selector with the given answers to the predicate tables over
    the value domain.  It keeps its table and domain, so ``phi`` and
    ``psi`` on it are table-backed too; asked an arbitrary callable, it
    tabulates the callable over the domain first."""
    dom = tuple(value_domain)
    return Sel(lambda p: table(FinFun.tabulate(dom, p)), lambda: str(table), table, dom)


def _precompose(F, h: Callable, describe: Callable[[], str]) -> Sel:
    """The selector that answers ``q`` with ``F``'s answer to ``h(q)``;
    on a table-backed ``F`` it keeps the table and puts ``h`` in front of
    ``F``'s transformers."""
    if isinstance(F, Sel) and F.table is not None:
        return Sel(lambda q: F(h(q)), describe, F.table, F.dom, (h,) + F.pre)
    return Sel(lambda q: F(h(q)), describe)


def _row_map(sel: Sel) -> Tuple[int, ...]:
    """For each predicate table of ``sel``'s table, the position in that
    table of the predicate ``sel``'s transformers turn it into."""
    preds = sel.table.domain

    def row(p) -> int:
        for h in sel.pre:
            p = h(p)
        return preds.index(FinFun.tabulate(sel.dom, p))

    return tuple(row(p) for p in preds)


@dataclass(frozen=True)
class PredFn:
    """A predicate over delayed values factoring through bounded
    observation: terminated values within fuel go through the table,
    anything else gets the default."""

    table: FinFun
    default: Any
    fuel: int

    def __call__(self, d: Delay):
        out = force(d, self.fuel)
        if isinstance(out, Terminated):
            return self.table(out.value)
        return self.default

    def __str__(self) -> str:
        return f"{self.table} else {self.default} (fuel {self.fuel})"


def predicate_family(xs: Sequence[Any], rs: Sequence[Any], fuels: Sequence[int]) -> List[PredFn]:
    return [PredFn(t, r0, k) for t in fun_space(xs, rs) for r0 in rs for k in fuels]


def selection_pack(xs: Sequence[Any], rs: Sequence[Any], pred_fuel: int,
                   delay_fuel: int) -> MonadPack:
    preds = predicate_family(xs, rs, (pred_fuel,))

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

    return MonadPack("selection", unit, mu, fmap, equal)


def check_selection(u: TestUniverse, rs: Sequence[Any] = (0, 1), pred_fuel: int = 2) -> LawReport:
    """Beck axioms for the delayed-selection transformation; selector
    tables are exhaustive, two-level selectors are sampled from constants
    and single-probe branches."""
    t0 = time.perf_counter()
    xs = base_values(u.carrier_size)
    fuel = u.derived_fuel()
    S = delay_pack(u.relation, fuel)
    T = selection_pack(xs, rs, pred_fuel, fuel)
    rel = _eq
    z = selection_dist

    p_tables = fun_space(xs, rs)
    sel_tables = [sel_from_table(t, xs) for t in fun_space(p_tables, xs)]
    max_steps = min(u.max_steps, 2)
    rr = lambda d: render_delay(d, _short) if isinstance(d, Delay) else str(d)

    entries = []
    out = beck_unit_s(S, T, z, sel_tables, rel, str, rr)
    entries.append(LawEntry("UnitS", out.verdict, out.cases, out.witness))
    out = beck_unit_t(S, T, z, delay_values(xs, max_steps, u.include_diverge), rel, _short, rr)
    entries.append(LawEntry("UnitT", out.verdict, out.cases, out.witness))
    out = beck_mult_s(S, T, z, double_delay_values(sel_tables[:8], max_steps,
                                                   u.include_diverge), rel, str, rr)
    entries.append(LawEntry("MultS", out.verdict, out.cases, out.witness))

    two_level = [Sel(lambda q, f=f: f, lambda f=f: f"always {f}") for f in sel_tables[:6]]
    probes = []
    for f0 in sel_tables[:3]:
        for r0 in rs:
            for f1, f2 in itertools.islice(itertools.combinations(sel_tables[:5], 2), 4):
                probes.append(Sel(lambda q, f0=f0, r0=r0, f1=f1, f2=f2:
                                  f1 if q(f0) == r0 else f2,
                                  lambda f0=f0, r0=r0, f1=f1, f2=f2:
                                  f"if q({f0})={r0} then {f1} else {f2}"))
    out = beck_mult_t(S, T, z, delay_values(two_level + probes, max_steps,
                                            u.include_diverge), rel, str, rr)
    entries.append(LawEntry("MultT", out.verdict, out.cases, out.witness))

    renamings = [FinFun(tuple(xs), img) for img in itertools.product(xs, repeat=len(xs))]
    nat_inputs = [(f, d) for f in renamings
                  for d in delay_values(sel_tables[:6], max_steps, u.include_diverge)]
    out = beck_naturality(S, T, z, nat_inputs, rel,
                          lambda p: f"f={p[0]} on {_short(p[1])}", rr)
    entries.append(LawEntry("Naturality", out.verdict, out.cases, out.witness))
    return LawReport("selection", "custom:selection", u.relation, u.bounds_dict(), entries,
                     (time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# delay algebras on finite carriers and on continuations


@dataclass(frozen=True)
class DelayAlgebra:
    """Step-erasing algebra on a finite carrier: finished values come out
    unchanged however long they took; divergence maps to a default.

    ``row_maps`` holds, for each transformer chain, the predicate domain
    ``psi`` last reindexed through this algebra and its row map, so a
    check that builds one algebra computes it once."""

    carrier: Tuple[Any, ...]
    default: Any
    fuel: int = 4096
    row_maps: Dict[Tuple[Callable, ...], Tuple[Tuple[FinFun, ...], Tuple[int, ...]]] = field(
        default_factory=dict, repr=False, compare=False, hash=False)

    def alg(self, d: Delay):
        out = force(d, self.fuel)
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


def check_continuation(u: TestUniverse, rs: Sequence[Any] = (0, 1)) -> LawReport:
    """Delay-algebra structure on continuations: unit and step-erasure
    laws, flattening agreement, and recovery of the carrier's algebra by
    instantiating at the identity continuation."""
    t0 = time.perf_counter()
    xs = base_values(u.carrier_size)
    ralg = DelayAlgebra(tuple(rs), rs[0])
    alg_cx = continuation_step_lift(ralg, xs)
    g_tables = fun_space(xs, ralg.carrier)
    c_tables = fun_space(g_tables, ralg.carrier)
    entries = []

    def ffeq(F: FinFun, G: FinFun) -> bool:
        return all(F(g) == G(g) for g in g_tables)

    cases = 0
    verdict: Verdict = YES
    witness = None
    for c in c_tables:
        cases += 1
        if not ffeq(alg_cx(Now(c)), c):
            verdict, witness = NO, _replayable(str(c), lambda: alg_cx(Now(c)), lambda: c)
            break
    if verdict.is_yes:
        for c, n in itertools.product(c_tables[:6], range(6)):
            cases += 1
            if not ffeq(alg_cx(delay_n(n, c)), c):
                verdict = NO
                witness = _replayable(f"{n} steps on {c}", lambda: alg_cx(delay_n(n, c)),
                                      lambda: c)
                break
    if verdict.is_yes:
        # flattening a delayed delayed continuation agrees with algebra-then-algebra
        for c, outer, inner in itertools.product(c_tables[:4], range(3), range(3)):
            cases += 1
            dd = delay_n(outer, delay_n(inner, c))
            lhs = alg_cx(join(dd))
            rhs = alg_cx(dmap(dd, alg_cx))
            if not ffeq(lhs, rhs):
                verdict = NO
                witness = _replayable(f"{outer}+{inner} steps on {c}",
                                      lambda: alg_cx(join(dd)), lambda: alg_cx(dmap(dd, alg_cx)))
                break
    entries.append(LawEntry("AlgebraLaws", verdict, cases, witness))

    # extracting the carrier algebra back out: send each result to the
    # evaluate-here continuation, then apply at the identity table
    gr_tables = fun_space(rs, ralg.carrier)
    ident = FinFun.tabulate(rs, lambda r: r)
    alg_cr = continuation_step_lift(ralg, rs)

    def eval_at(r) -> FinFun:
        return FinFun.tabulate(gr_tables, lambda g: g(r))

    rec_cases = 0
    rec: Verdict = YES
    rec_witness = None
    for d in delay_values(rs, min(u.max_steps, 3), True):
        rec_cases += 1
        recovered = alg_cr(dmap(d, eval_at))(ident)
        if recovered != ralg.alg(d):
            rec, rec_witness = NO, _replayable(render_delay(d),
                                               lambda: alg_cr(dmap(d, eval_at))(ident),
                                               lambda: ralg.alg(d))
            break
    entries.append(LawEntry("CarrierRecovery", rec, rec_cases, rec_witness))

    ret = retract_check(u, rs)
    entries.extend(ret.entries)
    return LawReport("continuation", "custom:continuation", u.relation, u.bounds_dict(),
                     entries, (time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# the two delayed selection monads and their retraction


def probe_now(g) -> Callable[[Any], Any]:
    """``phi``'s predicate transformer: ``g`` precomposed with ``Now``,
    so only immediately finished values are probed."""
    return lambda x: g(Now(x))


def phi(f) -> Sel:
    """Selector-of-delays from delayed-result selector: ``f`` precomposed
    with :func:`probe_now`.  On a table-backed ``f`` the result keeps
    ``f``'s table; its predicates range over delays, so its rows are
    reindexed only when ``psi`` brings it back to predicate tables."""
    return _precompose(f, probe_now, lambda: f"phi({f})")


def psi(F, ralg: DelayAlgebra) -> Sel:
    """Delayed-result selector from selector-of-delays: ``F`` precomposed
    with :meth:`DelayAlgebra.score`, which scores delayed candidates
    through the carrier algebra.

    On a table-backed ``F`` with transformers still to apply (``phi`` of
    a table-backed selector), the predicates asked range over ``F``'s
    value domain again, so the result is table-backed with the rows
    reindexed: row ``i`` is ``F``'s answer to what predicate table ``i``
    becomes.  The row map comes from running the transformers on each
    predicate table, and is kept in ``ralg`` while the predicate domain
    stays the same object.  Any other ``F`` gets the lambda path only."""
    back = _precompose(F, ralg.score, lambda: f"psi({F})")
    if back.table is None or not F.pre:
        return Sel(back.fn, back.describe)
    preds = back.table.domain
    known = ralg.row_maps.get(F.pre)
    if known is None or known[0] is not preds:
        known = ralg.row_maps[F.pre] = (preds, _row_map(back))
    table = FinFun(preds, tuple(map(F.table.values.__getitem__, known[1])))
    return Sel(back.fn, back.describe, table, F.dom)


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


def retract_check(u: TestUniverse, rs: Sequence[Any] = (0, 1)) -> LawReport:
    """The delayed-result selection monad sits inside selection-over-
    delay: one direction after the other is the identity, exhaustively
    over selector tables.  Neither embedding commutes with the two
    multiplications; the search returns the first witness."""
    t0 = time.perf_counter()
    xs = base_values(u.carrier_size)
    ralg = DelayAlgebra(tuple(rs), rs[0])
    fuel = u.derived_fuel()
    p_tables = fun_space(xs, rs)
    d_pool = delay_values(xs, 2, True)
    entries = []

    # psi . phi = id over every table (X -> R) -> D X, read row by row
    # from the table-backed selectors; a witness replays on the lambda path
    def retract_witness(table: FinFun, i: int, back: Sel) -> Witness:
        p = table.domain[i]
        return _replayable(f"{table} at {p}",
                           lambda: render_delay(psi(phi(sel_from_table(table, xs)), ralg)(p),
                                                _short),
                           lambda: render_delay(sel_from_table(table, xs)(p), _short),
                           seen=(render_delay(back.table.values[i], _short),
                                 render_delay(table.values[i], _short)))

    cases = 0
    verdict: Verdict = YES
    witness = None
    for table in fun_space(p_tables, d_pool):
        back = psi(phi(sel_from_table(table, xs)), ralg)
        for i, d in enumerate(table.values):
            cases += 1
            v = strong_equal(back.table.values[i], d, fuel)
            if not v.is_yes:
                verdict, witness = v, retract_witness(table, i, back)
                break
        if not verdict.is_yes:
            break
    entries.append(LawEntry("RetractIdentity", verdict, cases, witness))

    # mu-square for the embedding: phi(mu(FF)) vs mu(phi-image of FF)
    preds = predicate_family(xs, rs, (0, 1, 2))
    simple = [sel_from_table(t, xs)
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

    mu_cases = 0
    mu_verdict: Verdict = YES
    mu_witness = None
    for FF in ffs:
        lhs = phi(mu_delayed_result(FF, ralg))
        rhs = mu_composite(phi(jd_fmap(phi, FF)))
        for g in preds:
            mu_cases += 1
            v = strong_equal(lhs(g), rhs(g), fuel)
            if v.is_no:
                mu_verdict = NO
                mu_witness = _replayable(
                    f"{FF} under {g}",
                    lambda: render_delay(phi(mu_delayed_result(FF, ralg))(g), _short),
                    lambda: render_delay(mu_composite(phi(jd_fmap(phi, FF)))(g), _short),
                    note="the embedding is not a monad map")
                break
        if mu_verdict.is_no:
            break
    entry = LawEntry("MuSquare", mu_verdict, mu_cases, mu_witness)
    if mu_verdict.is_no:
        entry.predicted = True
        entry.prediction_note = ("the two delayed selection monads multiply differently; "
                                 "a failure witness is the expected outcome")
    entries.append(entry)
    return LawReport("retract", "custom:continuation", u.relation, u.bounds_dict(), entries,
                     (time.perf_counter() - t0) * 1000.0)


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

        return fm.mu(self.theory, fm.fmap(self.theory, at_leaf, e))

    def equal(self, a: fm.ModelElement, b: fm.ModelElement) -> Verdict:
        return fm.model_equal(self.theory, a, b)

    def guard_depths(self, e: fm.ModelElement) -> List[int]:
        """Number of guards above each finished or divergent leaf."""
        out: List[int] = []

        def walk(m: fm.ModelElement, depth: int):
            for leaf in fm.values_of(m):
                if isinstance(leaf, LaterLeaf):
                    walk(leaf.tail, depth + 1)
                else:
                    out.append(depth)

        walk(e, 0)
        return out


def sum_monad(th: Theory) -> SumOps:
    return SumOps(th)


def sum_free_extension(ops: SumOps, model: fm.FiniteModel, step_y: Callable[[Any], Any],
                       div_y: Any, f: Dict[Any, Any]) -> Callable[[fm.ModelElement], Any]:
    """Evaluate a guarded tree into any carrier with both structures:
    interpret nodes in the finite model, finished leaves through ``f``,
    guards through ``step_y``."""
    def ext(e: fm.ModelElement):
        def leaf_val(leaf):
            if isinstance(leaf, PureLeaf):
                return f[leaf.value]
            if isinstance(leaf, LaterLeaf):
                return step_y(ext(leaf.tail))
            return div_y

        return _eval_into_model(ops.theory, model, e, leaf_val)

    return ext


def _eval_into_model(th: Theory, model: fm.FiniteModel, e: fm.ModelElement,
                     leaf_val: Callable[[Any], Any]):
    rep = fm.representative(e)

    def go(node):
        if node[0] == "leaf":
            return leaf_val(node[1])
        return model.op(node[0], tuple(go(c) for c in node[1:]))

    return go(rep)


def _op_rows(elements: Sequence[Any], arity: int, f: Callable) -> Dict[tuple, Any]:
    return {args: f(*args) for args in itertools.product(elements, repeat=arity)}


def check_sum(u: TestUniverse, th: Optional[Theory] = None) -> LawReport:
    """Monad laws of the free combination, agreement of the extension
    operator with direct evaluation, failure of a guard-blind alternative
    homomorphism, and guard preservation under bind."""
    t0 = time.perf_counter()
    ops = sum_monad(th or fm.semilattice())
    th = ops.theory
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
    k_pool = [dict(zip(xs, combo)) for combo in itertools.product(small[:5], repeat=len(xs))]

    out = check_monad_laws_kleisli(ops.pure, ops.bind, elements, xs, k_pool,
                                   lambda a, b: ops.equal(a, b), fm.value_str)
    entries = [LawEntry("MonadLaws", out.verdict, out.cases, out.witness)]

    # extension vs direct evaluation into the diamond join model
    dm_elems = (0, 1, 2, 3)
    diamond = fm.finite_model("diamond", dm_elems,
                              {"union": _op_rows(dm_elems, 2, lambda a, b: a | b),
                               "empty": {(): 0}})

    def step_y(v):
        return v  # step-blind carrier; guards observed separately below

    f = {x: i + 1 for i, x in enumerate(xs)}
    ext = sum_free_extension(ops, diamond, step_y, 0, f)
    ext_cases = 0
    ext_verdict: Verdict = YES
    ext_witness = None
    for e in elements:
        ext_cases += 1
        got = ext(e)
        want = _eval_into_model(th, diamond, e,
                                lambda leaf: (f[leaf.value] if isinstance(leaf, PureLeaf)
                                              else step_y(ext(leaf.tail))
                                              if isinstance(leaf, LaterLeaf) else 0))
        if got != want:
            ext_verdict = NO
            ext_witness = Witness(fm.value_str(e), str(got), str(want))
            break
    if ext_verdict.is_yes:
        for x in xs:
            ext_cases += 1
            if ext(ops.pure(x)) != f[x]:
                ext_verdict = NO
                ext_witness = Witness(f"generator {x}", str(ext(ops.pure(x))), str(f[x]))
                break
    entries.append(LawEntry("FreeExtension", ext_verdict, ext_cases, ext_witness))

    # a guard-counting carrier separates the real extension from a
    # guard-blind alternative, so the alternative is not a homomorphism
    def step_count(v):
        return v + 10

    fc = {x: 1 for x in xs}
    ct_elems = tuple(range(64))
    counting = fm.finite_model("counting", ct_elems,
                               {"union": _op_rows(ct_elems, 2, max), "empty": {(): 0}})
    ext_c = sum_free_extension(ops, counting, step_count, 0, fc)

    def blind(e: fm.ModelElement):
        def leaf_val(leaf):
            if isinstance(leaf, PureLeaf):
                return fc[leaf.value]
            if isinstance(leaf, LaterLeaf):
                return blind(leaf.tail)  # drops the guard
            return 0

        return _eval_into_model(th, counting, e, leaf_val)

    uniq_cases = 0
    sep_witness = None
    for e in elements:
        uniq_cases += 1
        if blind(e) != ext_c(e) or blind(ops.later(e)) != step_count(blind(e)):
            sep_witness = Witness(fm.value_str(e),
                                  f"guard-blind gives {blind(ops.later(e))} on the guarded tree",
                                  f"a guard-respecting map must give {step_count(blind(e))}")
            break
    entries.append(LawEntry("Uniqueness", YES if sep_witness is not None else NO,
                            uniq_cases, sep_witness))

    # bind never loses a guard
    g_cases = 0
    g_verdict: Verdict = YES
    g_witness = None
    for e in elements:
        base_depths = ops.guard_depths(e)
        for k in k_pool[:6]:
            g_cases += 1
            bound = ops.bind(e, lambda v: k[v])
            got = ops.guard_depths(bound)
            if got and base_depths and min(got) < min(base_depths):
                g_verdict = NO
                g_witness = Witness(fm.value_str(e), str(got), str(base_depths))
                break
        if not g_verdict.is_yes:
            break
    entries.append(LawEntry("GuardInvariant", g_verdict, g_cases, g_witness))
    return LawReport("sum", "custom:sum", u.relation, u.bounds_dict(), entries,
                     (time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# exceptions as a full suite, and the combo dispatcher


def check_exceptions(u: TestUniverse, n_exceptions: int = 2) -> LawReport:
    """The exception transformation as a candidate over its free theory;
    the whole suite applies since the theory is plain constants."""
    from .laws import run_suite
    th = fm.exceptions(n_exceptions)
    cand = custom_candidate(th, "custom:exceptions", seq_lift_op)
    report = run_suite(th, cand, u)
    report = LawReport("exceptions", "custom:exceptions", report.relation, report.bounds,
                       report.entries, report.elapsed_ms, report.guaranteed)
    return report


COMBO_NAMES = ("exceptions", "reader", "writer", "yang-baxter", "state",
               "selection", "continuation", "sum")


def combo_report(name: str, u: TestUniverse) -> LawReport:
    if name == "exceptions":
        return check_exceptions(u)
    if name == "reader":
        return check_reader(u)
    if name == "writer":
        return check_writer(u)
    if name == "yang-baxter":
        t0 = time.perf_counter()
        entry = yang_baxter_check(u)
        return LawReport("yang-baxter", "custom:yang-baxter", u.relation, u.bounds_dict(),
                         [entry], (time.perf_counter() - t0) * 1000.0)
    if name == "state":
        return check_state(u)
    if name == "selection":
        return check_selection(u)
    if name == "continuation":
        return check_continuation(u)
    if name == "sum":
        return check_sum(u)
    raise ValueError(f"unknown combination {name!r}; choose from {', '.join(COMBO_NAMES)}")
