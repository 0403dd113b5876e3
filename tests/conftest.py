"""Helpers shared by the test modules."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from delaydist import combos, laws
from delaydist import freemodel as fm
from delaydist.delay import (DIVERGE, NO, YES, Delay, Now, Step, Terminated, as_verdict, bind,
                             conjoin, delay_n, dmap, force, render_delay, strong_equal, unknown,
                             weak_bisim)
from delaydist.laws import LawEntry, Witness
from delaydist.lifting import lift_term
from delaydist.nogo import idempotent_unary_theory
from delaydist.theory import TheorySemanticError, Var, parse_theory

THEORIES = Path(__file__).resolve().parent.parent / "theories"

# one theory per carrier kind, the quotient carrier both with a complete
# rewrite system and without one
CARRIERS = {
    "tree": fm.magma(),
    "list": fm.monoid(),
    "multiset": fm.cmonoid(),
    "finset": fm.semilattice(),
    "dist": fm.convex([Fraction(1, 3), Fraction(1, 2)]),
    "either": fm.exceptions(2),
    "quotient-complete": idempotent_unary_theory(),
    "quotient": parse_theory((THEORIES / "band.th").read_text(encoding="utf-8")),
}


def reference_monad_laws_kleisli(unit_fn, bind_fn, elements, value_set, k_pool, compare,
                                 render=str) -> LawEntry:
    """The Kleisli monad-law scan with both sides of every case computed
    afresh: the reference that :func:`laws.check_monad_laws_kleisli`,
    which shares binds between cases, must agree with."""
    cases = 0
    first_unknown = None

    def record(v, make_witness):
        nonlocal first_unknown
        if v.is_no:
            return LawEntry("MonadLaws", NO, cases, make_witness())
        if v.is_unknown and first_unknown is None:
            first_unknown = v
        return None

    for k in k_pool:
        for x in value_set:
            cases += 1
            lhs = bind_fn(unit_fn(x), lambda v: k[v])
            rhs = k[x]
            bad = record(compare(lhs, rhs),
                         lambda: Witness(f"left unit at {x!r}", render(lhs), render(rhs)))
            if bad:
                return bad
    for m in elements:
        cases += 1
        lhs = bind_fn(m, unit_fn)
        bad = record(compare(lhs, m),
                     lambda: Witness(f"right unit at {render(m)}", render(lhs), render(m)))
        if bad:
            return bad
    for m in elements:
        for k in k_pool:
            for h in k_pool:
                cases += 1
                lhs = bind_fn(bind_fn(m, lambda v: k[v]), lambda v: h[v])
                rhs = bind_fn(m, lambda v: bind_fn(k[v], lambda w: h[w]))
                bad = record(compare(lhs, rhs),
                             lambda: Witness(f"associativity at {render(m)}",
                                             render(lhs), render(rhs)))
                if bad:
                    return bad
    return LawEntry("MonadLaws", YES if first_unknown is None else first_unknown, cases)


def reference_equation_preservation(th, lift_op, u):
    """The equation-preservation scan with both sides of every case lifted
    node by node through :func:`lift_term`: the reference that
    :func:`laws.check_equation_preservation`, which counts steps and
    evaluates each side's value once per value assignment under an
    induced lifting, must agree with."""
    fuel = u.derived_fuel(th)
    vals = laws.base_values(u.carrier_size)
    model_pool = laws._bounded_elements(th, vals, min(u.max_depth, 1), u,
                                        "equation preservation universe")
    env_pool = laws.delay_values(model_pool, u.max_steps, u.include_diverge)
    rel = fm.model_equal
    render = fm.value_str

    details = []
    witness = None
    total = 0
    for eq in th.equations:
        estimate = len(env_pool) ** len(eq.context)
        if estimate > u.case_budget:
            raise laws.UniverseBudgetError(f"equation '{eq.name}'", estimate, u.case_budget)
        eq_verdicts = []
        for assignment in itertools.product(env_pool, repeat=len(eq.context)):
            total += 1
            env = dict(zip(eq.context, assignment))
            lhs = lift_term(eq.lhs, env, lift_op, th)
            rhs = lift_term(eq.rhs, env, lift_op, th)
            if u.relation == "strict":
                v = strong_equal(lhs, rhs, fuel, value_eq=rel)
            else:
                v = weak_bisim(lhs, rhs, rel, fuel)
            if v.is_no and witness is None:
                env_r = ", ".join(f"{k}={render(d)}" for k, d in env.items())

                def replay(eq=eq, env=env):
                    return (render(lift_term(eq.lhs, env, lift_op, th)),
                            render(lift_term(eq.rhs, env, lift_op, th)))

                witness = Witness(f"{eq.name} with {env_r}", render(lhs), render(rhs),
                                  note=f"equation '{eq.name}' not preserved", replay=replay)
            eq_verdicts.append(v)
            if v.is_no:
                break
        details.append((eq.name, conjoin(eq_verdicts)))
    overall = conjoin(v for _, v in details)
    return LawEntry("EquationPreservation", overall, total, witness, details=details)


# ---------------------------------------------------------------------------
# the delay and table kernels as they were written before they read the
# delay normal form and fill tables directly: dmap and join through bind
# with a fresh closure, the comparisons and predicates through peel and
# force, tables through the checking constructor.  The kernels must agree
# with them exactly.


def peel(d):
    """Split ``d`` into its count of visible steps and its end, a ``Now``
    or ``DIVERGE``; a ``Step``'s end is a new ``Now``."""
    if isinstance(d, Step):
        return d.steps, Now(d.value)
    return 0, d


def reference_dmap(d, f):
    return bind(d, lambda v: Now(f(v)))


def reference_join(dd):
    return bind(dd, lambda inner: inner)


def reference_strong_equal(x, y, fuel, value_eq=None):
    (nx, x), (ny, y) = peel(x), peel(y)
    x_now, y_now = isinstance(x, Now), isinstance(y, Now)
    if x_now and y_now and nx == ny:
        if nx > fuel:
            return unknown(fuel)
        if value_eq is None:
            return as_verdict(x.value == y.value)
        return as_verdict(value_eq(x.value, y.value))
    if not (x_now or y_now):
        return YES
    decided_at = min(n for n, done in ((nx, x_now), (ny, y_now)) if done)
    return NO if decided_at <= fuel else unknown(fuel)


def reference_weak_bisim(x, y, rel, fuel):
    (nx, x), (ny, y) = peel(x), peel(y)
    if max(nx, ny) > fuel:
        return unknown(fuel)
    if isinstance(x, Now) and isinstance(y, Now):
        return as_verdict(rel(x.value, y.value))
    return as_verdict(x is DIVERGE and y is DIVERGE)


def writer_steps_preserved(monoid, xs, max_steps):
    """Output through the writer transformation takes exactly as many
    steps as the delayed value it waited for."""
    for m in monoid.elements:
        for n in range(max_steps + 1):
            for x in xs:
                out = force(combos.writer_dist(m, delay_n(n, x), monoid), max_steps + 1)
                if not isinstance(out, Terminated) or out.steps != n or out.value != (m, x):
                    return NO
    return YES


def reference_tabulate(domain, f):
    return combos.FinFun(tuple(domain), tuple(map(f, domain)))


def reference_pred_call(pred, d):
    out = force(d, pred.fuel)
    if isinstance(out, Terminated):
        return pred.table(out.value)
    return pred.default


@pytest.fixture
def use_reference_kleisli(monkeypatch):
    """Call to route every monad-law scan, in laws and in combos, through
    the reference scan for the rest of the test."""

    def use():
        for module in (laws, combos):
            monkeypatch.setattr(module, "check_monad_laws_kleisli",
                                reference_monad_laws_kleisli)

    return use


# ---------------------------------------------------------------------------
# the string-dispatch carrier operations that the carrier classes of
# freemodel replaced, kept as the reference they must agree with byte for
# byte.  They build elements through the public constructor and compute
# every hash and sort key afresh.


def _reference_kind(th):
    return th.oracle if th.oracle is not None else "quotient"


def reference_canon_key(v):
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    if isinstance(v, str):
        return ("s", v)
    if isinstance(v, Fraction):
        return ("q", v.numerator, v.denominator)
    if isinstance(v, tuple):
        return ("t", tuple(reference_canon_key(x) for x in v))
    if isinstance(v, fm.ModelElement):
        return ("m", v.kind, reference_canon_key(v.payload))
    if isinstance(v, Delay):
        n, end = peel(v)
        if end is DIVERGE:
            return ("d", math.inf)
        return ("d", n, reference_canon_key(end.value))
    return ("r", repr(v))


def reference_value_str(v):
    if isinstance(v, fm.ModelElement):
        return reference_render_element(v)
    if isinstance(v, Delay):
        return render_delay(v, reference_value_str)
    return str(v)


def _reference_term_str(p):
    if p[0] == "leaf":
        return reference_value_str(p[1])
    op, args = p[0], p[1:]
    if not args:
        return op
    return f"{op}({', '.join(_reference_term_str(a) for a in args)})"


def reference_render_element(m):
    k = m.kind
    if k in ("tree", "quotient"):
        return _reference_term_str(m.payload)
    if k == "list":
        return "[" + ", ".join(reference_value_str(v) for v in m.payload) + "]"
    if k == "multiset":
        return "⟦" + ", ".join(reference_value_str(v) for v in m.payload) + "⟧"
    if k == "finset":
        if not m.payload:
            return "∅"
        return "{" + ", ".join(reference_value_str(v) for v in m.payload) + "}"
    if k == "dist":
        return "{" + ", ".join(f"{reference_value_str(v)} ↦ {w}" for v, w in m.payload) + "}"
    if k == "either":
        tag, x = m.payload
        return f"inl {reference_value_str(x)}" if tag == "val" else f"inr {x}"
    raise ValueError(f"unknown carrier kind {k!r}")


def reference_unit(th, x):
    k = _reference_kind(th)
    if k in ("tree", "quotient"):
        return fm.ModelElement(k, ("leaf", x), th)
    if k in ("list", "multiset", "finset"):
        return fm.ModelElement(k, (x,), th)
    if k == "dist":
        return fm.ModelElement(k, ((x, Fraction(1)),), th)
    if k == "either":
        return fm.ModelElement(k, ("val", x), th)
    raise ValueError(f"unknown carrier kind {k!r}")


def _reference_dist_merge(parts):
    acc = {}
    order = []
    for w, payload in parts:
        for v, q in payload:
            if v in acc:
                acc[v] += w * q
            else:
                acc[v] = w * q
                order.append(v)
    items = [(v, acc[v]) for v in order if acc[v] != 0]
    items.sort(key=lambda it: reference_canon_key(it[0]))
    return tuple(items)


def _reference_match(pattern, p, binding):
    """Match an equation side against a ground payload term, copying the
    binding at each variable: the new binding, or None."""
    if binding is None:
        return None
    if isinstance(pattern, Var):
        b = dict(binding)
        if pattern.name in b:
            return b if b[pattern.name] == p else None
        b[pattern.name] = p
        return b
    if p[0] == "leaf" or p[0] != pattern.op or len(p) - 1 != len(pattern.args):
        return None
    b = binding
    for sub_pattern, sub_p in zip(pattern.args, p[1:]):
        b = _reference_match(sub_pattern, sub_p, b)
        if b is None:
            return None
    return b


def _reference_instantiate(t, binding):
    if isinstance(t, Var):
        return binding[t.name]
    return (t.op,) + tuple(_reference_instantiate(a, binding) for a in t.args)


def reference_rewrite_positions(th, p):
    """All one-step left-to-right rewrites of a ground payload term: at
    the root by every equation of the theory, in declaration order, then
    inside each argument, left to right."""
    results = []
    for eq in th.equations:
        b = _reference_match(eq.lhs, p, {})
        if b is not None:
            results.append(_reference_instantiate(eq.rhs, b))
    if p[0] != "leaf":
        for i, child in enumerate(p[1:]):
            for r in reference_rewrite_positions(th, child):
                results.append(p[:i + 1] + (r,) + p[i + 2:])
    return results


def reference_root_fix(th, t):
    while t[0] != "leaf":
        for eq in th.equations:
            b = _reference_match(eq.lhs, t, {})
            if b is not None:
                t = _reference_build_normal(th, eq.rhs, b)
                break
        else:
            return t
    return t


def _reference_build_normal(th, t, binding):
    if isinstance(t, Var):
        return binding[t.name]
    return reference_root_fix(
        th, (t.op,) + tuple(_reference_build_normal(th, a, binding) for a in t.args))


def reference_apply_op(th, op, args):
    k = _reference_kind(th)
    declared = th.signature.arity(op)
    if k == "dist":
        w = fm.mix_weight(op)
        if w is None:
            raise TheorySemanticError(f"operation '{op}' has no distribution semantics", op)
        if len(args) != 2:
            raise TheorySemanticError(f"'{op}' expects 2 arguments, got {len(args)}", op)
        payload = _reference_dist_merge([(w, args[0].payload), (1 - w, args[1].payload)])
        return fm.ModelElement(k, payload, th)
    if declared is None:
        raise TheorySemanticError(f"unknown operation '{op}' in theory '{th.name}'", op)
    if declared != len(args):
        raise TheorySemanticError(
            f"operation '{op}' expects {declared} arguments, got {len(args)}", op)
    if k == "tree" or k == "quotient":
        payload = (op,) + tuple(a.payload for a in args)
        if k == "quotient" and th.rewrite_complete:
            payload = reference_root_fix(th, payload)
        return fm.ModelElement(k, payload, th)
    if k == "list":
        if declared == 0:
            return fm.ModelElement(k, (), th)
        return fm.ModelElement(k, args[0].payload + args[1].payload, th)
    if k == "multiset":
        if declared == 0:
            return fm.ModelElement(k, (), th)
        merged = sorted(args[0].payload + args[1].payload, key=reference_canon_key)
        return fm.ModelElement(k, tuple(merged), th)
    if k == "finset":
        if declared == 0:
            return fm.ModelElement(k, (), th)
        seen = dict()
        for v in args[0].payload + args[1].payload:
            seen.setdefault(reference_canon_key(v), v)
        vals = sorted(seen.values(), key=reference_canon_key)
        return fm.ModelElement(k, tuple(vals), th)
    if k == "either":
        return fm.ModelElement(k, ("exc", op), th)
    raise ValueError(f"unknown carrier kind {k!r}")


def reference_free_bind(th, m, k):
    kind = m.kind
    if kind == "list":
        out = []
        for v in m.payload:
            out.extend(k(v).payload)
        return fm.ModelElement(kind, tuple(out), th)
    if kind == "multiset":
        out = []
        for v in m.payload:
            out.extend(k(v).payload)
        return fm.ModelElement(kind, tuple(sorted(out, key=reference_canon_key)), th)
    if kind == "finset":
        seen = dict()
        for v in m.payload:
            for w in k(v).payload:
                seen.setdefault(reference_canon_key(w), w)
        return fm.ModelElement(kind, tuple(sorted(seen.values(), key=reference_canon_key)), th)
    if kind == "dist":
        payload = _reference_dist_merge([(w, k(v).payload) for v, w in m.payload])
        return fm.ModelElement(kind, payload, th)
    if kind == "either":
        tag, x = m.payload
        return k(x) if tag == "val" else m
    if kind in ("tree", "quotient"):
        renorm = kind == "quotient" and th.rewrite_complete

        def graft(p):
            if p[0] == "leaf":
                return k(p[1]).payload
            out = (p[0],) + tuple(graft(a) for a in p[1:])
            return reference_root_fix(th, out) if renorm else out

        return fm.ModelElement(kind, graft(m.payload), th)
    raise ValueError(f"unknown carrier kind {kind!r}")


def reference_mu(th, mm):
    return reference_free_bind(th, mm, lambda inner: inner)


def reference_fmap(th, f, m):
    """``fmap`` by its definition: bind each value to the unit element
    over its image."""
    return fm.free_bind(m, lambda v: fm.unit(th, f(v)))


def reference_values_of(m):
    kind = m.kind
    if kind in ("list", "multiset", "finset"):
        return list(m.payload)
    if kind == "dist":
        return [v for v, _ in m.payload]
    if kind == "either":
        tag, x = m.payload
        return [x] if tag == "val" else []
    out = []

    def walk(p):
        if p[0] == "leaf":
            out.append(p[1])
        else:
            for a in p[1:]:
                walk(a)

    walk(m.payload)
    return out


def reference_representative(m):
    kind = m.kind
    if kind in ("tree", "quotient"):
        return m.payload
    if kind in ("list", "multiset"):
        if not m.payload:
            return ("unit",)
        rep = ("leaf", m.payload[0])
        for v in m.payload[1:]:
            rep = ("mul", rep, ("leaf", v))
        return rep
    if kind == "finset":
        if not m.payload:
            return ("empty",)
        rep = ("leaf", m.payload[0])
        for v in m.payload[1:]:
            rep = ("union", rep, ("leaf", v))
        return rep
    if kind == "dist":
        items = list(m.payload)

        def build(entries):
            if len(entries) == 1:
                return ("leaf", entries[0][0])
            (v, w) = entries[0]
            rest = entries[1:]
            scale = 1 - w
            rescaled = [(u, q / scale) for u, q in rest]
            return (fm.mix_op_name(w), ("leaf", v), build(rescaled))

        return build(items)
    if kind == "either":
        tag, x = m.payload
        return ("leaf", x) if tag == "val" else (x,)
    raise ValueError(f"unknown carrier kind {kind!r}")


def reference_joinable(th, p1, p2, bound):
    """Whether the two terms rewrite to a common term, each in at most
    ``bound`` steps: both full reach sets, then their intersection.  The
    reference that :func:`fm._joinable`, which grows the two sides in
    lockstep and stops at the first common term, must agree with."""
    def reach(p):
        seen = {p}
        frontier = {p}
        for _ in range(bound):
            frontier = {r for t in frontier for r in fm._rewrite_positions(fm._carrier_of(th), t)} - seen
            seen |= frontier
        return seen

    return not reach(p1).isdisjoint(reach(p2))


def reference_model_equal(th, a, b, join_bound=fm.JOINABILITY_BOUND):
    if a.kind != b.kind:
        raise ValueError(f"cannot compare carriers {a.kind!r} and {b.kind!r}")
    if a.kind != "quotient":
        return YES if a.payload == b.payload else NO
    if a.payload == b.payload:
        return YES
    if th.rewrite_complete:
        return NO
    if fm._joinable(fm._carrier_of(th), a.payload, b.payload, join_bound):
        return YES
    for model in th.finite_models:
        if fm._model_refutes(model, a.payload, b.payload):
            return NO
    return unknown()


# ---------------------------------------------------------------------------
# the nested-tuple term walkers that the no-go traces ran on before they
# moved to theory terms, kept as the reference that theory.match,
# substitute, subterm and replace must agree with.  ("var", name) is a
# constant, ("?", name) a metavariable, ("mix", q, a, b) a mixture with
# weight q; every other node is (head, child, ...).


class ReferencePathError(Exception):
    """A path leaves the term."""


def _reference_children(t: tuple) -> tuple:
    if t[0] in ("var", "empty", "?"):
        return ()
    if t[0] == "mix":
        return t[2:]
    return t[1:]


def _reference_rebuild(t: tuple, kids: tuple) -> tuple:
    if t[0] == "mix":
        return ("mix", t[1]) + kids
    return (t[0],) + kids


def reference_at(t: tuple, path) -> tuple:
    for i in path:
        kids = _reference_children(t)
        if i >= len(kids):
            raise ReferencePathError(f"path {path} leaves {t}")
        t = kids[i]
    return t


def reference_replace(t: tuple, path, new: tuple) -> tuple:
    if not path:
        return new
    kids = list(_reference_children(t))
    kids[path[0]] = reference_replace(kids[path[0]], path[1:], new)
    return _reference_rebuild(t, tuple(kids))


def reference_match(pat: tuple, term: tuple, binding: dict) -> bool:
    if pat[0] == "?":
        prev = binding.get(pat[1])
        if prev is None:
            binding[pat[1]] = term
            return True
        return prev == term
    if pat[0] != term[0] or len(pat) != len(term):
        return False
    if pat[0] == "var":
        return pat[1] == term[1]
    if pat[0] == "mix" and pat[1] != term[1]:
        return False
    return all(reference_match(p, s, binding)
               for p, s in zip(_reference_children(pat), _reference_children(term)))


def reference_instantiate(pat: tuple, binding: dict) -> tuple:
    if pat[0] == "?":
        return binding[pat[1]]
    kids = tuple(reference_instantiate(k, binding) for k in _reference_children(pat))
    return _reference_rebuild(pat, kids)


_TUPLE_HEADS = {"∅": "empty", "∪": "union", "now": "now", "step": "step",
                "∨₁": "op1", "∨′": "opP"}


def tuple_term(t, pattern: bool = False) -> tuple:
    """A no-go theory term in the tuple language; its variables become
    metavariables when ``pattern`` is set, constants otherwise."""
    if isinstance(t, Var):
        return ("?" if pattern else "var", t.name)
    kids = tuple(tuple_term(a, pattern) for a in t.args)
    if t.op.startswith("⊕["):
        return ("mix", Fraction(t.op[2:-1])) + kids
    return (_TUPLE_HEADS[t.op],) + kids


# ---------------------------------------------------------------------------
# the RetractIdentity scan as it ran before selectors kept their tables:
# phi and psi as plain lambdas, each case tabulating its predicate afresh.
# It is the reference that the row map of combos.retract_check must agree
# with.


def reference_sel_query(table, xs, p):
    """A selector table's answer to ``p``: the predicate tabulated over
    ``xs`` and found in the table's domain by ``tuple.index``, the query
    that :func:`combos.sel_from_table` answers by value tuple."""
    return table(combos.FinFun.tabulate(xs, p))


def reference_sel(table, xs):
    return combos.Sel(lambda p: reference_sel_query(table, xs, p), lambda: str(table))


def reference_phi(f):
    return combos.Sel(lambda g: f(lambda x: g(Now(x))), lambda: f"phi({f})")


def reference_psi(F, ralg):
    return combos.Sel(lambda p: F(lambda d: ralg.alg(dmap(d, p))), lambda: f"psi({F})")


def reference_retract_identity(u, rs=(0, 1)) -> LawEntry:
    xs = laws.base_values(u.carrier_size)
    ralg = combos.DelayAlgebra(tuple(rs), rs[0])
    fuel = u.derived_fuel()
    p_tables = combos.fun_space(xs, rs)
    d_pool = laws.delay_values(xs, 2, True)
    cases = 0
    first_unknown = None
    for table in combos.fun_space(p_tables, d_pool):
        f = reference_sel(table, xs)
        back = reference_psi(reference_phi(f), ralg)
        for p in p_tables:
            cases += 1
            v = strong_equal(back(p), f(p), fuel)
            if v.is_no:
                return LawEntry("RetractIdentity", v, cases,
                                Witness(f"{table} at {p}",
                                        render_delay(back(p), combos._short),
                                        render_delay(f(p), combos._short)))
            if v.is_unknown and first_unknown is None:
                first_unknown = v
    return LawEntry("RetractIdentity", YES if first_unknown is None else first_unknown, cases)
