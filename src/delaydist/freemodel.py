"""Free models of algebraic theories over finite generator sets.

Each built-in theory gets a canonical carrier in which provably equal
terms share a representation:

* one bare binary operation: syntax trees,
* monoid: lists,
* commutative monoid: multisets,
* semilattice with empty: finite sets,
* convex combinations: finitely supported exact-rational distributions,
* a family of exception constants: value-or-exception sums.

User theories fall back to a term carrier compared by bounded rewriting
(left-to-right orientation, joinability search), with registered finite
models available to refute equalities the rewriter cannot join.
Enumeration deduplicates such a carrier through one index of bounded
rewrite closures rather than a joinability search per pair.  Only
theories flagged ``rewrite_complete`` get decisive No answers from
distinct normal forms.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .delay import DIVERGE, Delay, Verdict, YES, NO, unknown, peel, render_delay
from .theory import (App, Equation, Operation, Signature, Term, Theory, TheorySemanticError,
                     Var, make_equation, validate_theory)

JOINABILITY_BOUND = 8


class EnumerationBudgetError(RuntimeError):
    def __init__(self, estimate: int, budget: int):
        super().__init__(f"enumeration would produce about {estimate} elements, budget {budget}")
        self.estimate = estimate
        self.budget = budget


# ---------------------------------------------------------------------------
# canonical ordering of heterogeneous carrier values


def canon_key(v: Any):
    """Total deterministic sort key across all value types the carriers hold."""
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    if isinstance(v, str):
        return ("s", v)
    if isinstance(v, Fraction):
        return ("q", v.numerator, v.denominator)
    if isinstance(v, tuple):
        return ("t", tuple(canon_key(x) for x in v))
    if isinstance(v, ModelElement):
        return ("m", v.kind, canon_key(v.payload))
    if isinstance(v, Delay):
        n, end = peel(v, 100_000)
        if n > 100_000:
            raise RuntimeError("canon_key on an unreasonably deep delay")
        if end is DIVERGE:
            return ("dx", n)
        return ("d", n, canon_key(end.value))
    return ("r", repr(v))


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class ModelElement:
    """A free-model element, tagged by carrier kind.

    Payloads are canonical hashable structures; two elements of a
    canonical carrier are provably-equal iff their payloads coincide.
    """

    kind: str
    payload: Any
    theory: Theory = field(compare=False, repr=False)

    def __str__(self) -> str:
        return render_element(self)


def value_str(v: Any) -> str:
    if isinstance(v, ModelElement):
        return render_element(v)
    if isinstance(v, Delay):
        return render_delay(v, value_str)
    if isinstance(v, Fraction):
        return str(v)
    return str(v)


def _term_payload_str(p) -> str:
    if p[0] == "leaf":
        return value_str(p[1])
    op, args = p[0], p[1:]
    if not args:
        return op
    return f"{op}({', '.join(_term_payload_str(a) for a in args)})"


def render_element(m: "ModelElement") -> str:
    k = m.kind
    if k in ("tree", "quotient"):
        return _term_payload_str(m.payload)
    if k == "list":
        return "[" + ", ".join(value_str(v) for v in m.payload) + "]"
    if k == "multiset":
        return "⟦" + ", ".join(value_str(v) for v in m.payload) + "⟧"
    if k == "finset":
        if not m.payload:
            return "∅"
        return "{" + ", ".join(value_str(v) for v in m.payload) + "}"
    if k == "dist":
        return "{" + ", ".join(f"{value_str(v)} ↦ {w}" for v, w in m.payload) + "}"
    if k == "either":
        tag, x = m.payload
        return f"inl {value_str(x)}" if tag == "val" else f"inr {x}"
    raise ValueError(f"unknown carrier kind {k!r}")


def carrier_kind(th: Theory) -> str:
    return th.oracle if th.oracle is not None else "quotient"


# ---------------------------------------------------------------------------
# built-in theories

_V = Var


def _mk(name: str, ops, eqs, oracle) -> Theory:
    th = Theory(Signature(name, tuple(Operation(n, a) for n, a in ops)), tuple(eqs), oracle=oracle)
    validate_theory(th)
    return th


def magma() -> Theory:
    return _mk("magma", [("mul", 2)], [], "tree")


def monoid() -> Theory:
    x, y, z = _V("x"), _V("y"), _V("z")
    eqs = [
        make_equation("lunit", App("mul", (App("unit", ()), x)), x),
        make_equation("runit", App("mul", (x, App("unit", ()))), x),
        make_equation("assoc", App("mul", (App("mul", (x, y)), z)), App("mul", (x, App("mul", (y, z))))),
    ]
    return _mk("monoid", [("unit", 0), ("mul", 2)], eqs, "list")


def cmonoid() -> Theory:
    x, y = _V("x"), _V("y")
    base = monoid()
    eqs = base.equations + (make_equation("comm", App("mul", (x, y)), App("mul", (y, x))),)
    return _mk("cmonoid", [("unit", 0), ("mul", 2)], eqs, "multiset")


def semilattice() -> Theory:
    x, y, z = _V("x"), _V("y"), _V("z")
    eqs = [
        make_equation("lunit", App("union", (App("empty", ()), x)), x),
        make_equation("runit", App("union", (x, App("empty", ()))), x),
        make_equation("assoc", App("union", (App("union", (x, y)), z)),
                      App("union", (x, App("union", (y, z))))),
        make_equation("comm", App("union", (x, y)), App("union", (y, x))),
        make_equation("idem", App("union", (x, x)), x),
    ]
    return _mk("semilattice", [("empty", 0), ("union", 2)], eqs, "finset")


def mix_op_name(p: Fraction) -> str:
    return f"mix[{p.numerator}/{p.denominator}]"


_MIX_RE = re.compile(r"mix\[(\d+)/(\d+)\]")


def mix_weight(op: str) -> Optional[Fraction]:
    m = _MIX_RE.fullmatch(op)
    if not m:
        return None
    return Fraction(int(m.group(1)), int(m.group(2)))


def convex(weights: Sequence[Fraction] = (Fraction(1, 2),)) -> Theory:
    """Binary convex-combination operations for a finite weight family.

    Equations are emitted only when every operation they mention lies in
    the family; the canonical distribution carrier satisfies the full
    convex laws regardless.
    """
    ws = sorted({Fraction(w) for w in weights})
    if any(not (0 < w < 1) for w in ws):
        raise ValueError("convex weights must lie strictly between 0 and 1")
    x, y = _V("x"), _V("y")
    ops = [(mix_op_name(w), 2) for w in ws]
    eqs: List[Equation] = []
    for w in ws:
        eqs.append(make_equation(f"idem[{w}]", App(mix_op_name(w), (x, x)), x))
        if 1 - w in ws:
            eqs.append(make_equation(f"comm[{w}]", App(mix_op_name(w), (x, y)),
                                     App(mix_op_name(1 - w), (y, x))))
    name = "convex" if ws == [Fraction(1, 2)] else "convex_" + "_".join(
        f"{w.numerator}d{w.denominator}" for w in ws)
    return _mk(name, ops, eqs, "dist")


def exceptions(n: int = 2) -> Theory:
    if n < 0:
        raise ValueError("exception count must be nonnegative")
    ops = [(f"e{i}", 0) for i in range(n)]
    return _mk(f"exceptions{n}", ops, [], "either")


_BUILTIN_RE = re.compile(r"(?P<base>[a-z]+)(\((?P<args>[^)]*)\))?")


def builtin_theory(name: str) -> Theory:
    """Resolve a CLI theory name such as ``monoid`` or ``exceptions(E=2)``."""
    m = _BUILTIN_RE.fullmatch(name.strip())
    if not m:
        raise TheorySemanticError(f"unknown built-in theory '{name}'", name)
    base, args = m.group("base"), m.group("args")
    if base == "magma" and args is None:
        return magma()
    if base == "monoid" and args is None:
        return monoid()
    if base == "cmonoid" and args is None:
        return cmonoid()
    if base == "semilattice" and args is None:
        return semilattice()
    if base == "convex":
        if args is None:
            return convex()
        weights = []
        for part in args.split(","):
            num, _, den = part.strip().partition("/")
            weights.append(Fraction(int(num), int(den)))
        return convex(weights)
    if base == "exceptions":
        if args is None:
            return exceptions()
        am = re.fullmatch(r"\s*E\s*=\s*(\d+)\s*", args)
        if not am:
            raise TheorySemanticError(f"bad exception count in '{name}'", name)
        return exceptions(int(am.group(1)))
    raise TheorySemanticError(f"unknown built-in theory '{name}'", name)


BUILTIN_NAMES = ("magma", "monoid", "cmonoid", "semilattice", "convex", "exceptions(E=n)")


# ---------------------------------------------------------------------------
# carrier operations


def unit(th: Theory, x: Any) -> ModelElement:
    k = carrier_kind(th)
    if k in ("tree", "quotient"):
        return ModelElement(k, ("leaf", x), th)
    if k in ("list", "multiset", "finset"):
        return ModelElement(k, (x,), th)
    if k == "dist":
        return ModelElement(k, ((x, Fraction(1)),), th)
    if k == "either":
        return ModelElement(k, ("val", x), th)
    raise ValueError(f"unknown carrier kind {k!r}")


def _dist_merge(parts: Iterable[Tuple[Fraction, Any]]) -> tuple:
    """parts: (weight, payload) pairs of distributions; weights sum to 1."""
    acc: Dict[Any, Fraction] = {}
    order: List[Any] = []
    for w, payload in parts:
        for v, q in payload:
            if v in acc:
                acc[v] += w * q
            else:
                acc[v] = w * q
                order.append(v)
    items = [(v, acc[v]) for v in order if acc[v] != 0]
    items.sort(key=lambda it: canon_key(it[0]))
    return tuple(items)


def _root_fix(th: Theory, t):
    """Rewrite at the root until no rule applies.  Argument payloads must
    already be in normal form, so rule instantiation rebuilds only the
    right-hand-side skeleton instead of renormalizing whole terms."""
    while t[0] != "leaf":
        for eq in th.equations:
            b = _match_payload(eq.lhs, t, {})
            if b is not None:
                t = _build_normal(th, eq.rhs, b)
                break
        else:
            return t
    return t


def _build_normal(th: Theory, t: Term, binding: dict):
    if isinstance(t, Var):
        return binding[t.name]
    return _root_fix(th, (t.op,) + tuple(_build_normal(th, a, binding) for a in t.args))


def apply_op(th: Theory, op: str, args: Sequence[ModelElement]) -> ModelElement:
    k = carrier_kind(th)
    declared = th.signature.arity(op)
    if k == "dist":
        w = mix_weight(op)
        if w is None:
            raise TheorySemanticError(f"operation '{op}' has no distribution semantics", op)
        if len(args) != 2:
            raise TheorySemanticError(f"'{op}' expects 2 arguments, got {len(args)}", op)
        payload = _dist_merge([(w, args[0].payload), (1 - w, args[1].payload)])
        return ModelElement(k, payload, th)
    if declared is None:
        raise TheorySemanticError(f"unknown operation '{op}' in theory '{th.name}'", op)
    if declared != len(args):
        raise TheorySemanticError(
            f"operation '{op}' expects {declared} arguments, got {len(args)}", op)
    if k == "tree" or k == "quotient":
        payload = (op,) + tuple(a.payload for a in args)
        if k == "quotient" and th.rewrite_complete:
            # argument payloads are normal by construction
            payload = _root_fix(th, payload)
        return ModelElement(k, payload, th)
    if k == "list":
        if declared == 0:
            return ModelElement(k, (), th)
        return ModelElement(k, args[0].payload + args[1].payload, th)
    if k == "multiset":
        if declared == 0:
            return ModelElement(k, (), th)
        merged = sorted(args[0].payload + args[1].payload, key=canon_key)
        return ModelElement(k, tuple(merged), th)
    if k == "finset":
        if declared == 0:
            return ModelElement(k, (), th)
        seen = dict()
        for v in args[0].payload + args[1].payload:
            seen.setdefault(canon_key(v), v)
        vals = sorted(seen.values(), key=canon_key)
        return ModelElement(k, tuple(vals), th)
    if k == "either":
        # only the exception constants
        return ModelElement(k, ("exc", op), th)
    raise ValueError(f"unknown carrier kind {k!r}")


def eval_term(th: Theory, t: Term, env: Dict[str, Any]) -> ModelElement:
    """Interpret a term in the free model; env values may be raw carrier
    values (wrapped by unit) or ModelElements."""
    if isinstance(t, Var):
        if t.name not in env:
            raise TheorySemanticError(f"unbound variable '{t.name}'", t.name)
        v = env[t.name]
        return v if isinstance(v, ModelElement) else unit(th, v)
    return apply_op(th, t.op, [eval_term(th, a, env) for a in t.args])


def free_bind(th: Theory, m: ModelElement, k: Callable[[Any], ModelElement]) -> ModelElement:
    """Homomorphic extension of ``k`` over the element's values."""
    kind = m.kind
    if kind == "list":
        out: List[Any] = []
        for v in m.payload:
            out.extend(k(v).payload)
        return ModelElement(kind, tuple(out), th)
    if kind == "multiset":
        out = []
        for v in m.payload:
            out.extend(k(v).payload)
        return ModelElement(kind, tuple(sorted(out, key=canon_key)), th)
    if kind == "finset":
        seen = dict()
        for v in m.payload:
            for w in k(v).payload:
                seen.setdefault(canon_key(w), w)
        return ModelElement(kind, tuple(sorted(seen.values(), key=canon_key)), th)
    if kind == "dist":
        payload = _dist_merge([(w, k(v).payload) for v, w in m.payload])
        return ModelElement(kind, payload, th)
    if kind == "either":
        tag, x = m.payload
        return k(x) if tag == "val" else m
    if kind in ("tree", "quotient"):
        renorm = kind == "quotient" and th.rewrite_complete

        def graft(p):
            if p[0] == "leaf":
                return k(p[1]).payload
            out = (p[0],) + tuple(graft(a) for a in p[1:])
            # grafted subtrees are normal, so fixing each node on the way
            # up keeps the whole payload normal
            return _root_fix(th, out) if renorm else out

        return ModelElement(kind, graft(m.payload), th)
    raise ValueError(f"unknown carrier kind {kind!r}")


def fmap(th: Theory, f: Callable[[Any], Any], m: ModelElement) -> ModelElement:
    return free_bind(th, m, lambda v: unit(th, f(v)))


def mu(th: Theory, mm: ModelElement) -> ModelElement:
    """Flatten an element whose values are themselves elements."""
    return free_bind(th, mm, lambda inner: inner)


def values_of(m: ModelElement) -> List[Any]:
    """The carrier values in canonical traversal order, with repeats."""
    kind = m.kind
    if kind in ("list", "multiset", "finset"):
        return list(m.payload)
    if kind == "dist":
        return [v for v, _ in m.payload]
    if kind == "either":
        tag, x = m.payload
        return [x] if tag == "val" else []
    out: List[Any] = []

    def walk(p):
        if p[0] == "leaf":
            out.append(p[1])
        else:
            for a in p[1:]:
                walk(a)

    walk(m.payload)
    return out


# ---------------------------------------------------------------------------
# representatives (used to interpret elements with lifted operations)


def representative(m: ModelElement):
    """A term over the element's values that evaluates back to the element.

    Nodes are ``(op_name, child, ...)``, leaves are ``("leaf", value)``.
    The shape is canonical per carrier: left fold over the canonical value
    order for lists/multisets/finsets, weight-ordered binary mixtures for
    distributions, the stored term for tree and quotient carriers.
    """
    kind = m.kind
    th = m.theory
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
            return (mix_op_name(w), ("leaf", v), build(rescaled))

        return build(items)
    if kind == "either":
        tag, x = m.payload
        return ("leaf", x) if tag == "val" else (x,)
    raise ValueError(f"unknown carrier kind {kind!r}")


# ---------------------------------------------------------------------------
# equality


def _match_payload(pattern: Term, p, binding: Optional[dict]) -> Optional[dict]:
    """Match an equation side against a ground payload term."""
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
        b = _match_payload(sub_pattern, sub_p, b)
        if b is None:
            return None
    return b


def _instantiate_payload(t: Term, binding: dict):
    if isinstance(t, Var):
        return binding[t.name]
    return (t.op,) + tuple(_instantiate_payload(a, binding) for a in t.args)


def _rewrite_positions(th: Theory, p) -> List[Any]:
    """All one-step left-to-right rewrites of a ground payload term."""
    results = []
    for eq in th.equations:
        b = _match_payload(eq.lhs, p, {})
        if b is not None:
            results.append(_instantiate_payload(eq.rhs, b))
    if p[0] != "leaf":
        for i, child in enumerate(p[1:]):
            for r in _rewrite_positions(th, child):
                results.append(p[:i + 1] + (r,) + p[i + 2:])
    return results


def _reach(th: Theory, p, bound: int) -> set:
    """The terms reachable from ``p`` in at most ``bound`` left-to-right
    rewrite steps, ``p`` included."""
    seen = {p}
    frontier = [p]
    for _ in range(bound):
        nxt = []
        for t in frontier:
            for r in _rewrite_positions(th, t):
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        if not nxt:
            break
        frontier = nxt
    return seen


def _joinable(th: Theory, p1, p2, bound: int) -> bool:
    """Whether the two terms rewrite to a common term, each in at most
    ``bound`` steps."""
    return not _reach(th, p1, bound).isdisjoint(_reach(th, p2, bound))


@dataclass(frozen=True)
class FiniteModel:
    """A finite algebra given by operation tables, used to refute equalities."""

    name: str
    elements: tuple
    tables: tuple  # ((op_name, ((args, result), ...)), ...)

    def op(self, name: str, args: tuple):
        for op_name, rows in self.tables:
            if op_name == name:
                for row_args, result in rows:
                    if row_args == args:
                        return result
                raise KeyError(f"{name}{args} not in table of model {self.name}")
        raise KeyError(f"model {self.name} has no operation {name}")

    def eval_payload(self, p, valuation: dict):
        if p[0] == "leaf":
            return valuation[p[1]]
        return self.op(p[0], tuple(self.eval_payload(a, valuation) for a in p[1:]))


def finite_model(name: str, elements: Sequence[Any], tables: Dict[str, Dict[tuple, Any]]) -> FiniteModel:
    packed = tuple((op, tuple(sorted(rows.items()))) for op, rows in sorted(tables.items()))
    return FiniteModel(name, tuple(elements), packed)


def _leaf_values(p, acc: List[Any]):
    if p[0] == "leaf":
        if p[1] not in acc:
            acc.append(p[1])
    else:
        for a in p[1:]:
            _leaf_values(a, acc)


def _model_refutes(model: FiniteModel, p1, p2) -> bool:
    leaves: List[Any] = []
    _leaf_values(p1, leaves)
    _leaf_values(p2, leaves)
    for assignment in itertools.product(model.elements, repeat=len(leaves)):
        valuation = dict(zip(leaves, assignment))
        if model.eval_payload(p1, valuation) != model.eval_payload(p2, valuation):
            return True
    return False


def model_equal(th: Theory, a: ModelElement, b: ModelElement,
                join_bound: int = JOINABILITY_BOUND) -> Verdict:
    """Provable equality in the free model.

    Canonical carriers answer decisively by payload.  Quotient carriers
    try bounded joinability (Yes), then registered finite models (No),
    and otherwise return Unknown; rewrite-complete theories answer No
    from distinct normal forms.
    """
    if a.kind != b.kind:
        raise ValueError(f"cannot compare carriers {a.kind!r} and {b.kind!r}")
    if a.kind != "quotient":
        return YES if a.payload == b.payload else NO
    if a.payload == b.payload:
        return YES
    if th.rewrite_complete:
        return NO
    if _joinable(th, a.payload, b.payload, join_bound):
        return YES
    for model in th.finite_models:
        if _model_refutes(model, a.payload, b.payload):
            return NO
    return unknown()


# ---------------------------------------------------------------------------
# enumeration


def iter_elements(th: Theory, generators: Iterable[Any], max_depth: int,
                  max_elements: int = 200_000) -> Iterator[ModelElement]:
    """All distinct elements built from the generators by at most
    ``max_depth`` rounds of operation application, yielded as they are
    found: generators first, then constants, then one round at a time.

    ``generators`` is consumed lazily, so it may itself be a stream.
    Deduplication is by canonical payload.  Quotient carriers without a
    complete rewrite system keep a closure index instead: the union of the
    terms each kept element reaches in ``JOINABILITY_BOUND`` rewrite
    steps.  A candidate is a duplicate iff its own closure meets that
    union, which is exactly when :func:`model_equal` says Yes against some
    kept element (equal or joinable payloads), so the kept elements and
    their order are those of the pairwise comparison, Unknown counting
    as distinct.  EnumerationBudgetError is raised when the stream would
    pass ``max_elements``.
    """
    elems: List[ModelElement] = []
    seen: set = set()  # payloads, or on slow_dedup the closure index
    kind = carrier_kind(th)
    slow_dedup = kind == "quotient" and not th.rewrite_complete
    # with no equations every application builds a fresh tree, so the
    # payload-dedup set would only burn time hashing deep tuples
    free_tree = kind == "tree" and not th.equations

    def add(m: ModelElement) -> bool:
        if not free_tree:
            if m.payload in seen:
                return False
            if slow_dedup:
                closure = _reach(th, m.payload, JOINABILITY_BOUND)
                if not closure.isdisjoint(seen):
                    return False
                seen.update(closure)
            else:
                seen.add(m.payload)
        elems.append(m)
        if len(elems) > max_elements:
            raise EnumerationBudgetError(len(elems), max_elements)
        return True

    for g in generators:
        m = unit(th, g)
        if add(m):
            yield m
    for op in th.signature.ops:
        if op.arity == 0:
            m = apply_op(th, op.name, [])
            if add(m):
                yield m

    stale = 0  # combos drawn entirely from before the previous round were already applied
    for _ in range(max_depth):
        snapshot = list(elems)
        before = len(elems)
        for op in th.signature.ops:
            if op.arity == 0:
                continue
            for idxs in itertools.product(range(len(snapshot)), repeat=op.arity):
                if all(i < stale for i in idxs):
                    continue
                m = apply_op(th, op.name, [snapshot[i] for i in idxs])
                if add(m):
                    yield m
        stale = len(snapshot)
        if len(elems) == before:
            break


def enumerate_elements(th: Theory, generators: Sequence[Any], max_depth: int,
                       max_elements: int = 200_000) -> List[ModelElement]:
    """The elements of :func:`iter_elements`, as a list."""
    return list(iter_elements(th, generators, max_depth, max_elements))
