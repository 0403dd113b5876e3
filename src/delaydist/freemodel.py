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
models available to refute equalities the rewriter cannot join.  This
quotient carrier indexes its rules by head operation.  Enumeration
deduplicates it through one index of bounded rewrite closures rather
than a joinability search per pair.  A theory flagged
``rewrite_complete`` makes it canonical: distinct normal forms are
decisive Nos.  ``leaf`` is reserved: it tags the leaves of term payloads.

Each kind of carrier is one :class:`Carrier` subclass, and ``CARRIERS``
maps each kind's name to it.  A theory's carrier is built on first use
and resolves once what is fixed per theory: operation arities, the
weights of the ``mix[p/q]`` operations, whether terms are kept normal.
The module functions delegate to it.  A carrier maps an element's values
directly, without the unit element per value that binding would build.  A
:class:`ModelElement` holds its carrier, and so its theory, and computes
its hash and :func:`canon_key` once, when first asked.

Build from values, take the theory; read an element, take only the
element.  :func:`unit`, :func:`apply_op`, :func:`eval_term` and
:func:`iter_elements` build elements and take the theory they build in.
:func:`model_equal`, :func:`fmap`, :func:`free_bind`, :func:`mu`,
:func:`values_of`, :func:`representative` and :func:`render_element` read
the theory from the element.  Where an element meets a theory or another
element, compared, distributed, grafted or passed to an operation, one
rule (:func:`_shared_carrier`) accepts the same theory, built once or
again, and refuses any other with ``ValueError``.

Whether a payload is well formed for its theory is decided in one place:
the :class:`ModelElement` constructor, which outside input and unpickling
go through.  It takes only the theory's own carrier kind and refuses what
that carrier would not build, so nothing downstream checks an element's
operations again.  Carriers build their elements unchecked.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .delay import DIVERGE, Delay, Verdict, YES, NO, unknown, render_delay
from .theory import (App, Equation, Operation, Signature, Term, Theory, TheorySemanticError,
                     Var, free_vars, make_equation, validate_theory)

JOINABILITY_BOUND = 8


class EnumerationBudgetError(RuntimeError):
    def __init__(self, estimate: int, budget: int):
        super().__init__(f"enumeration would produce about {estimate} elements, budget {budget}")
        self.estimate = estimate
        self.budget = budget


# ---------------------------------------------------------------------------
# canonical ordering of heterogeneous carrier values


# divergence sorts after every finished delay, as if its step count were
# infinite
_DIVERGE_KEY = ("d", math.inf)


def canon_key(v: Any):
    """Total deterministic sort key across all value types the carriers
    hold.  An element's key is computed once and kept on the element.
    The types are tested most frequent first; no value has two of them,
    except a bool, which is tested before int."""
    if isinstance(v, str):
        return ("s", v)
    if isinstance(v, ModelElement):
        key = v._key
        if key is None:
            key = ("m", v.carrier.kind, canon_key(v.payload))
            _set_key(v, key)
        return key
    if isinstance(v, Delay):
        if v is DIVERGE:
            return _DIVERGE_KEY
        return ("d", v.steps, canon_key(v.value))
    if isinstance(v, tuple):
        return ("t", tuple([canon_key(x) for x in v]))
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    if isinstance(v, Fraction):
        return ("q", v.numerator, v.denominator)
    if type(v).__repr__ is object.__repr__:
        # that repr is the value's address, which differs from run to run
        raise TypeError(f"values of type {type(v).__name__} have no canonical order: "
                        "their repr is their memory address")
    return ("r", repr(v))


# ---------------------------------------------------------------------------
# elements


class ModelElement:
    """A free-model element: a payload of one carrier kind.

    Payloads are canonical hashable structures; two elements of a
    canonical carrier are provably equal iff their payloads coincide.
    Equality and hash are the kind and the payload, never the theory.
    An element holds its carrier, which knows its kind and theory, and is
    immutable.  It computes its hash and its :func:`canon_key` the first
    time each is asked for and keeps them, so an element nested in many
    payloads is hashed and ordered once: the per-node cache of
    hash-consing (Filliâtre & Conchon 2006) without a global table.

    The constructor, for outside input and unpickling, refuses with
    ``ValueError`` a ``kind`` other than the theory's own carrier kind,
    and a payload that carrier would not build (``Carrier.check_payload``):
    a term with an undeclared operation, a node with the wrong argument
    count or a leaf that is not ``("leaf", value)``, an exception the
    theory does not declare, a payload out of canonical form.  Carriers
    build elements unchecked.
    """

    __slots__ = ("carrier", "payload", "_hash", "_key")

    def __new__(cls, kind: str, payload: Any, theory: Theory) -> "ModelElement":
        c = _carrier_of(theory)
        if _carrier_class(kind) is not c.__class__:
            raise ValueError(f"theory '{theory.name}' has {c.kind!r} elements, not {kind!r}")
        c.check_payload(payload)
        return c.element(payload)

    @property
    def kind(self) -> str:
        return self.carrier.kind

    @property
    def theory(self) -> Theory:
        return self.carrier.theory

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any):
        if other.__class__ is not ModelElement:
            return NotImplemented
        # one carrier class per kind, so equal classes mean equal kinds
        return self.carrier.__class__ is other.carrier.__class__ and self.payload == other.payload

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.carrier.kind, self.payload))
            _set_hash(self, h)
        return h

    def __repr__(self) -> str:
        return f"ModelElement(kind={self.kind!r}, payload={self.payload!r})"

    def __str__(self) -> str:
        return render_element(self)

    def __reduce__(self):
        return ModelElement, (self.kind, self.payload, self.theory)


# the slot setters, with which Carrier.element fills an element without
# its frozen __setattr__
_set_carrier = ModelElement.carrier.__set__
_set_payload = ModelElement.payload.__set__
_set_hash = ModelElement._hash.__set__
_set_key = ModelElement._key.__set__
_new = object.__new__


def value_str(v: Any) -> str:
    if isinstance(v, ModelElement):
        return render_element(v)
    if isinstance(v, Delay):
        return render_delay(v, value_str)
    return str(v)


def _term_payload_str(p) -> str:
    if p[0] == "leaf":
        return value_str(p[1])
    op, args = p[0], p[1:]
    if not args:
        return op
    return f"{op}({', '.join(_term_payload_str(a) for a in args)})"


def render_element(m: ModelElement) -> str:
    return m.carrier.render(m)


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
# carriers


class Carrier:
    """The free model of one theory in the carrier of one kind.

    A carrier is built once per theory and resolves then what is fixed
    per theory: the arity of each operation, and in subclasses the mix
    weights or the rewrite rules.  It builds, combines, walks and prints
    the payloads of its elements.  ``canonical`` says that distinct
    payloads are provably distinct, so that equality is decided by payload
    alone.  Only the quotient carrier has ``rules``.  ``keeps_values`` says
    that ``fmap`` keeps every value: ``values_of(fmap(m, f))`` is ``f`` of
    each of ``values_of(m)``, repeats kept, in some order.  Finset and
    dist merge equal values, and a rewrite-complete quotient may rewrite
    them away.

    Each kind implements ``unit(x)``, ``apply_op(op, args)`` (or
    ``_apply(op, arity, payloads)`` behind the checks here),
    ``free_bind(m, k)``, ``fmap(m, f)``, ``values_of(m)``,
    ``representative(m)`` and ``render(m)``.  ``fmap(m, f)`` gives the
    payload of ``free_bind(m, λv. unit(f(v)))`` without building an
    element per value.
    """

    kind = ""
    canonical = True
    keeps_values = False
    rules: Dict[str, Tuple[Tuple[App, Term], ...]] = {}

    def __init__(self, th: Theory):
        self.theory = th
        self.arities = th.signature.arities

    def element(self, payload: Any) -> ModelElement:
        e = _new(ModelElement)
        _set_carrier(e, self)
        _set_payload(e, payload)
        _set_hash(e, None)
        _set_key(e, None)
        return e

    def check_payload(self, payload: Any) -> None:
        """Raise ``ValueError`` for a payload this carrier would not build."""

    def _refuse_unless(self, payload: Any, canonical: Any) -> None:
        """Refuse ``payload`` unless it is ``canonical``, its canonical
        form: a canonical carrier decides equality by payload alone."""
        if payload != canonical:
            raise ValueError(f"{self.kind} payload {payload!r} is not in canonical form; "
                             f"the carrier builds {canonical!r}")

    def own(self, e: ModelElement) -> Any:
        """``e``'s payload, once ``e`` is known to be an element of this
        carrier's theory (:func:`_shared_carrier`)."""
        if e.carrier is not self:
            _shared_carrier(e, self.theory)
        return e.payload

    def apply_op(self, op: str, args: Sequence[ModelElement]) -> ModelElement:
        declared = self.arities.get(op)
        if declared is None:
            raise TheorySemanticError(
                f"unknown operation '{op}' in theory '{self.theory.name}'", op)
        if declared != len(args):
            raise TheorySemanticError(
                f"operation '{op}' expects {declared} arguments, got {len(args)}", op)
        return self._apply(op, declared, [self.own(a) for a in args])


class TreeCarrier(Carrier):
    """Syntax trees: nodes ``(op, child, ...)``, leaves ``("leaf", value)``,
    so a theory declaring an operation ``leaf`` is refused."""

    kind = "tree"
    keeps_values = True
    # brings a node whose children are normal into normal form; None keeps
    # terms as built
    normalise: Optional[Callable[[Any], Any]] = None

    def __init__(self, th: Theory):
        super().__init__(th)
        if "leaf" in self.arities:
            raise TheorySemanticError(
                f"operation 'leaf' in theory '{th.name}' cannot be a term node: 'leaf' "
                "tags the values at a term's leaves", "leaf")

    def unit(self, x: Any) -> ModelElement:
        return self.element(("leaf", x))

    def check_payload(self, payload: Any) -> None:
        self._check_term(payload)
        # terms kept normal must be given normal, as the carrier rebuilds them
        if self.normalise is not None:
            self._refuse_unless(payload, _relabel(payload, _identity, self.normalise))

    def _check_term(self, p: Any) -> None:
        """Refuse ``p`` unless it is ``("leaf", value)`` or a declared
        operation over as many such terms as its arity."""
        if not (isinstance(p, tuple) and p and isinstance(p[0], str)):
            raise ValueError(f"{self.kind} payload {p!r} is not a term")
        op = p[0]
        if op == "leaf":
            if len(p) != 2:
                raise ValueError(f"{self.kind} leaf {p!r} is not ('leaf', value)")
            return
        declared = self.arities.get(op)
        if declared is None:
            raise ValueError(f"{self.kind} payload applies '{op}', which theory "
                             f"'{self.theory.name}' does not declare")
        if declared != len(p) - 1:
            raise ValueError(f"{self.kind} payload applies '{op}' to {len(p) - 1} "
                             f"arguments; it takes {declared}")
        for child in p[1:]:
            self._check_term(child)

    def _apply(self, op: str, arity: int, payloads: List[Any]) -> ModelElement:
        payload = (op, *payloads)
        # argument payloads are normal by construction
        return self.element(self.normalise(payload) if self.normalise else payload)

    def free_bind(self, m: ModelElement, k: Callable[[Any], ModelElement]) -> ModelElement:
        return self.element(_graft(m.payload, k, self))

    def fmap(self, m: ModelElement, f: Callable[[Any], Any]) -> ModelElement:
        return self.element(_relabel(m.payload, f, self.normalise))

    def values_of(self, m: ModelElement) -> List[Any]:
        return _leaves(m.payload, [])

    def representative(self, m: ModelElement):
        return m.payload

    def render(self, m: ModelElement) -> str:
        return _term_payload_str(m.payload)


def _graft(p, k: Callable[[Any], ModelElement], c: TreeCarrier):
    """The payload ``p`` with each leaf replaced by the payload of ``k``
    at its value, an element of ``c``'s theory, each node built passed
    through ``c.normalise`` (when set)."""
    op = p[0]
    if op == "leaf":
        return c.own(k(p[1]))
    if len(p) == 3:
        out = (op, _graft(p[1], k, c), _graft(p[2], k, c))
    elif len(p) == 2:
        out = (op, _graft(p[1], k, c))
    else:
        out = (op, *[_graft(a, k, c) for a in p[1:]])
    # grafted subtrees are normal, so fixing each node on the way up keeps
    # the whole payload normal
    fix = c.normalise
    return fix(out) if fix else out


def _relabel(p, f: Callable[[Any], Any], fix: Optional[Callable[[Any], Any]]):
    """The payload ``p`` with ``f`` applied to each leaf's value, each node
    built passed through ``fix`` (when given)."""
    op = p[0]
    if op == "leaf":
        return ("leaf", f(p[1]))
    if len(p) == 3:
        out = (op, _relabel(p[1], f, fix), _relabel(p[2], f, fix))
    elif len(p) == 2:
        out = (op, _relabel(p[1], f, fix))
    else:
        out = (op, *[_relabel(a, f, fix) for a in p[1:]])
    # as in _graft: a merged pair of leaves may make a redex
    return fix(out) if fix else out


def _identity(v: Any) -> Any:
    return v


def _leaves(p, out: List[Any]) -> List[Any]:
    """``out`` extended by ``p``'s leaf values, left to right, with repeats."""
    if p[0] == "leaf":
        out.append(p[1])
    else:
        for a in p[1:]:
            _leaves(a, out)
    return out


class QuotientCarrier(TreeCarrier):
    """Terms modulo the equations oriented left to right.  Each equation
    must be usable as a rule: its left side is not a variable, and its
    right side uses no variable the left side lacks.  ``rules`` indexes
    them by the head of their left side, in declaration order.  A
    ``rewrite_complete`` theory makes the carrier ``canonical``: every
    payload is kept in normal form.  Otherwise equality is three valued
    (:func:`model_equal`)."""

    kind = "quotient"
    # a rewrite-complete theory's rules may merge values; an incomplete
    # one's elements are classes of terms, compared by search
    keeps_values = False

    def __init__(self, th: Theory):
        super().__init__(th)
        rules: Dict[str, List[Tuple[App, Term]]] = {}
        for eq in th.equations:
            if isinstance(eq.lhs, Var):
                raise TheorySemanticError(
                    f"equation '{eq.name}' cannot be rewritten left to right: its left "
                    f"side is the variable '{eq.lhs.name}'", eq.lhs.name)
            lhs_vars = free_vars(eq.lhs)
            for v in free_vars(eq.rhs):
                if v not in lhs_vars:
                    raise TheorySemanticError(
                        f"equation '{eq.name}' cannot be rewritten left to right: its "
                        f"right side uses '{v}', which its left side lacks", v)
            rules.setdefault(eq.lhs.op, []).append((eq.lhs, eq.rhs))
        self.rules = {op: tuple(rs) for op, rs in rules.items()}
        self.canonical = th.rewrite_complete
        if self.canonical:
            self.normalise = self._normal_at_root

    def _normal_at_root(self, t):
        """Rewrite at the root until no rule applies.  Argument payloads
        must already be in normal form, so instantiation normalises only
        the right-hand-side skeleton instead of whole terms."""
        rules = self.rules
        while True:
            for lhs, rhs in rules.get(t[0], ()):
                b = _match_payload(lhs, t, {})
                if b is not None:
                    t = _instantiate_payload(rhs, b, self.normalise)
                    break
            else:
                return t


class ListCarrier(Carrier):
    """Monoid: tuples of values, ``mul`` concatenating them."""

    kind = "list"
    keeps_values = True
    # the constant and the binary operation a representative folds with
    empty_op, join_op = "unit", "mul"
    brackets = ("[", "]")

    def unit(self, x: Any) -> ModelElement:
        return self.element((x,))

    def check_payload(self, payload: Any) -> None:
        self._refuse_unless(payload, self._collect(payload))

    def _apply(self, op: str, arity: int, payloads: List[Any]) -> ModelElement:
        if arity == 0:
            return self.element(())
        return self.element(self._collect(payloads[0] + payloads[1]))

    def free_bind(self, m: ModelElement, k: Callable[[Any], ModelElement]) -> ModelElement:
        own = self.own
        out: List[Any] = []
        for v in m.payload:
            out.extend(own(k(v)))
        return self.element(self._collect(out))

    def fmap(self, m: ModelElement, f: Callable[[Any], Any]) -> ModelElement:
        return self.element(self._collect([f(v) for v in m.payload]))

    @staticmethod
    def _collect(values) -> tuple:
        """The payload holding ``values``, in order."""
        return tuple(values)

    def values_of(self, m: ModelElement) -> List[Any]:
        return list(m.payload)

    def representative(self, m: ModelElement):
        values = m.payload
        if not values:
            return (self.empty_op,)
        rep = ("leaf", values[0])
        for v in values[1:]:
            rep = (self.join_op, rep, ("leaf", v))
        return rep

    def render(self, m: ModelElement) -> str:
        return self.brackets[0] + ", ".join(value_str(v) for v in m.payload) + self.brackets[1]


class MultisetCarrier(ListCarrier):
    """Commutative monoid: tuples of values sorted by :func:`canon_key`."""

    kind = "multiset"
    brackets = ("⟦", "⟧")

    @staticmethod
    def _collect(values) -> tuple:
        return tuple(sorted(values, key=canon_key))


class FinsetCarrier(ListCarrier):
    """Semilattice with empty: tuples of distinct values sorted by
    :func:`canon_key`."""

    kind = "finset"
    keeps_values = False
    empty_op, join_op = "empty", "union"
    brackets = ("{", "}")

    @staticmethod
    def _collect(values) -> tuple:
        seen: Dict[Any, Any] = {}
        for v in values:
            seen.setdefault(canon_key(v), v)
        # the keys are distinct, so sorting the pairs on them orders the
        # values without computing a key twice
        return tuple([v for _, v in sorted(seen.items(), key=itemgetter(0))])

    def render(self, m: ModelElement) -> str:
        return super().render(m) if m.payload else "∅"


_ONE = Fraction(1)


class DistCarrier(Carrier):
    """Convex combinations: ``((value, weight), ...)`` with exact rational
    weights summing to 1, sorted by the values' :func:`canon_key`."""

    kind = "dist"

    def __init__(self, th: Theory):
        super().__init__(th)
        # each declared mix[p/q] with its two weights, p and 1 - p
        self.weights: Dict[str, Tuple[Fraction, Fraction]] = {}
        for op in self.arities:
            w = mix_weight(op)
            if w is not None:
                self.weights[op] = (w, 1 - w)

    def unit(self, x: Any) -> ModelElement:
        return self.element(((x, _ONE),))

    def check_payload(self, payload: Any) -> None:
        weights = [w for _, w in payload]
        if not all(isinstance(w, Fraction) and w > 0 for w in weights) or sum(weights) != 1:
            raise ValueError(f"dist weights must be positive Fractions summing to 1: {payload!r}")
        self._refuse_unless(payload, _dist_merge([(_ONE, payload)]))

    def apply_op(self, op: str, args: Sequence[ModelElement]) -> ModelElement:
        weights = self.weights.get(op)
        if weights is None:
            # a mix[p/q] the signature does not declare means the same
            w = mix_weight(op)
            if w is None:
                raise TheorySemanticError(f"operation '{op}' has no distribution semantics", op)
            weights = (w, 1 - w)
        if len(args) != 2:
            raise TheorySemanticError(f"'{op}' expects 2 arguments, got {len(args)}", op)
        p, q = weights
        return self.element(_dist_merge([(p, self.own(args[0])), (q, self.own(args[1]))]))

    def free_bind(self, m: ModelElement, k: Callable[[Any], ModelElement]) -> ModelElement:
        own = self.own
        return self.element(_dist_merge([(w, own(k(v))) for v, w in m.payload]))

    def fmap(self, m: ModelElement, f: Callable[[Any], Any]) -> ModelElement:
        return self.element(_dist_merge([(w, ((f(v), _ONE),)) for v, w in m.payload]))

    def values_of(self, m: ModelElement) -> List[Any]:
        return [v for v, _ in m.payload]

    def representative(self, m: ModelElement):
        def build(entries):
            if len(entries) == 1:
                return ("leaf", entries[0][0])
            (v, w) = entries[0]
            rest = entries[1:]
            scale = 1 - w
            rescaled = [(u, q / scale) for u, q in rest]
            return (mix_op_name(w), ("leaf", v), build(rescaled))

        return build(list(m.payload))

    def render(self, m: ModelElement) -> str:
        return "{" + ", ".join(f"{value_str(v)} ↦ {w}" for v, w in m.payload) + "}"


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


class EitherCarrier(Carrier):
    """Exceptions: ``("val", x)`` or ``("exc", name)``; the operations are
    the exception constants."""

    kind = "either"
    keeps_values = True

    def unit(self, x: Any) -> ModelElement:
        return self.element(("val", x))

    def check_payload(self, payload: Any) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 2 and payload[0] in ("val", "exc")):
            raise ValueError(f"either payload must be ('val', x) or ('exc', name): {payload!r}")
        if payload[0] == "exc" and not (isinstance(payload[1], str)
                                        and payload[1] in self.arities):
            raise ValueError(f"either payload {payload!r} raises an exception that theory "
                             f"'{self.theory.name}' does not declare")

    def _apply(self, op: str, arity: int, payloads: List[Any]) -> ModelElement:
        return self.element(("exc", op))

    def free_bind(self, m: ModelElement, k: Callable[[Any], ModelElement]) -> ModelElement:
        tag, x = m.payload
        if tag != "val":
            return m
        e = k(x)
        self.own(e)
        return e

    def fmap(self, m: ModelElement, f: Callable[[Any], Any]) -> ModelElement:
        tag, x = m.payload
        return self.element(("val", f(x))) if tag == "val" else m

    def values_of(self, m: ModelElement) -> List[Any]:
        tag, x = m.payload
        return [x] if tag == "val" else []

    def representative(self, m: ModelElement):
        tag, x = m.payload
        return ("leaf", x) if tag == "val" else (x,)

    def render(self, m: ModelElement) -> str:
        tag, x = m.payload
        return f"inl {value_str(x)}" if tag == "val" else f"inr {x}"


# the one map from a carrier kind's name to its carrier
CARRIERS: Dict[str, type] = {c.kind: c for c in (
    TreeCarrier, QuotientCarrier, ListCarrier, MultisetCarrier, FinsetCarrier, DistCarrier,
    EitherCarrier)}


def _carrier_class(kind: str) -> type:
    cls = CARRIERS.get(kind)
    if cls is None:
        raise ValueError(f"unknown carrier kind {kind!r}")
    return cls


def _carrier_of(th: Theory) -> Carrier:
    """The theory's carrier: ``th.oracle``, or the quotient carrier.  It is
    built on first use and kept on the theory, which is immutable, so what
    it resolves is resolved once per theory.  ``unit`` and ``apply_op``
    read the kept carrier directly and call this only the first time."""
    c = getattr(th, "_carrier", None)
    if c is None:
        c = _carrier_class(th.oracle if th.oracle is not None else "quotient")(th)
        object.__setattr__(th, "_carrier", c)
    return c


def _shared_carrier(m: ModelElement, th: Theory) -> Carrier:
    """``m``'s carrier, once ``th`` is known to be its theory: the same
    object, or an equal ``Theory`` value with the same finite models (a
    second build, a pickle round trip), since ``Theory`` equality leaves
    its finite models out.  Any other theory raises ``ValueError`` naming
    both."""
    c = m.carrier
    if c.theory is not th and (c.theory != th or c.theory.finite_models != th.finite_models):
        why = ": their finite models differ" if c.theory == th else ""
        raise ValueError(f"an element of theory '{c.theory.name}' is not an element of "
                         f"theory '{th.name}'{why}")
    return c


# ---------------------------------------------------------------------------
# carrier operations


def unit(th: Theory, x: Any) -> ModelElement:
    return (getattr(th, "_carrier", None) or _carrier_of(th)).unit(x)


def apply_op(th: Theory, op: str, args: Sequence[ModelElement]) -> ModelElement:
    return (getattr(th, "_carrier", None) or _carrier_of(th)).apply_op(op, args)


def eval_term(th: Theory, t: Term, env: Dict[str, Any]) -> ModelElement:
    """Interpret a term in the free model; env values may be raw carrier
    values (wrapped by unit) or ModelElements."""
    if isinstance(t, Var):
        if t.name not in env:
            raise TheorySemanticError(f"unbound variable '{t.name}'", t.name)
        v = env[t.name]
        return v if isinstance(v, ModelElement) else unit(th, v)
    return apply_op(th, t.op, [eval_term(th, a, env) for a in t.args])


def free_bind(m: ModelElement, k: Callable[[Any], ModelElement]) -> ModelElement:
    """Homomorphic extension of ``k`` over the element's values."""
    return m.carrier.free_bind(m, k)


def fmap(f: Callable[[Any], Any], m: ModelElement) -> ModelElement:
    """The element with ``f`` applied to each value: the payload of
    ``free_bind(m, λv. unit(m.theory, f(v)))``, without a unit element per
    value."""
    return m.carrier.fmap(m, f)


def mu(mm: ModelElement) -> ModelElement:
    """Flatten an element whose values are themselves elements."""
    return free_bind(mm, _identity)


def values_of(m: ModelElement) -> List[Any]:
    """The carrier values in canonical traversal order, with repeats."""
    return m.carrier.values_of(m)


# ---------------------------------------------------------------------------
# representatives (used to interpret elements with lifted operations)


def representative(m: ModelElement):
    """A term over the element's values that evaluates back to the element.

    Nodes are ``(op_name, child, ...)``, leaves are ``("leaf", value)``.
    The shape is canonical per carrier: left fold over the canonical value
    order for lists/multisets/finsets, weight-ordered binary mixtures for
    distributions, the stored term for tree and quotient carriers.
    """
    return m.carrier.representative(m)


# ---------------------------------------------------------------------------
# equality


def _match_payload(pattern: Term, p, binding: dict) -> Optional[dict]:
    """Match an equation side against a ground payload term, extending
    ``binding`` in place as :func:`delaydist.theory.match` does: the
    binding, or None.  No pattern is headed ``leaf``."""
    if isinstance(pattern, Var):
        prev = binding.get(pattern.name)
        if prev is None:
            binding[pattern.name] = p
            return binding
        return binding if prev == p else None
    if p[0] != pattern.op or len(p) - 1 != len(pattern.args):
        return None
    for sub_pattern, sub_p in zip(pattern.args, p[1:]):
        if _match_payload(sub_pattern, sub_p, binding) is None:
            return None
    return binding


def _instantiate_payload(t: Term, binding: dict, fix: Optional[Callable[[Any], Any]] = None):
    """``t`` instantiated by ``binding``, each node built passed through ``fix``."""
    if isinstance(t, Var):
        return binding[t.name]
    node = (t.op,) + tuple([_instantiate_payload(a, binding, fix) for a in t.args])
    return fix(node) if fix else node


def _rewrite_positions(c: Carrier, p) -> List[Any]:
    """All one-step left-to-right rewrites of a ground payload term: at
    the root by each of the carrier ``c``'s rules for its operation, in
    declaration order, then inside each argument, left to right."""
    results = []
    if p[0] == "leaf":
        return results
    for lhs, rhs in c.rules.get(p[0], ()):
        b = _match_payload(lhs, p, {})
        if b is not None:
            results.append(_instantiate_payload(rhs, b))
    for i, child in enumerate(p[1:]):
        for r in _rewrite_positions(c, child):
            results.append(p[:i + 1] + (r,) + p[i + 2:])
    return results


def _grow(c: Carrier, frontier: List[Any], seen: set, stop) -> Optional[List[Any]]:
    """One breadth-first rewrite level by ``c``'s rules: the new terms
    from ``frontier``, added to ``seen``; None at the first in ``stop``."""
    nxt = []
    for t in frontier:
        for r in _rewrite_positions(c, t):
            if r not in seen:
                if r in stop:
                    return None
                seen.add(r)
                nxt.append(r)
    return nxt


def _reach(c: Carrier, p, bound: int) -> set:
    """The terms reachable from ``p`` in at most ``bound`` left-to-right
    rewrite steps by ``c``'s rules, ``p`` included."""
    seen = {p}
    frontier = [p]
    for _ in range(bound):
        frontier = _grow(c, frontier, seen, ())
        if not frontier:
            break
    return seen


def _joinable(c: Carrier, p1, p2, bound: int) -> bool:
    """Whether the two terms rewrite to a common term by ``c``'s rules,
    each in at most ``bound`` steps.

    Both sides grow breadth-first in lockstep, one rewrite level of the
    first and then one of the second, and the answer is True at the
    first term that one side reaches and the other has already seen.
    Every common term of the two ``bound``-step reach sets is found
    when the later side reaches it, so the answer is that of
    intersecting the full reach sets; False comes only after both sides
    have run out of levels or of new terms."""
    if p1 == p2:
        return True
    seen = ({p1}, {p2})
    frontiers = [[p1], [p2]]
    for _ in range(bound):
        for side in (0, 1):
            nxt = _grow(c, frontiers[side], seen[side], seen[1 - side])
            if nxt is None:
                return True
            frontiers[side] = nxt
        if not (frontiers[0] or frontiers[1]):
            break
    return False


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

    def eval_payload(self, p, leaf: Callable[[Any], Any]):
        """``p``'s value in this model, each leaf's value given by ``leaf``."""
        if p[0] == "leaf":
            return leaf(p[1])
        return self.op(p[0], tuple([self.eval_payload(a, leaf) for a in p[1:]]))


def finite_model(name: str, elements: Sequence[Any], tables: Dict[str, Dict[tuple, Any]]) -> FiniteModel:
    packed = tuple((op, tuple(sorted(rows.items()))) for op, rows in sorted(tables.items()))
    return FiniteModel(name, tuple(elements), packed)


def _model_refutes(model: FiniteModel, p1, p2) -> bool:
    leaves = list(dict.fromkeys(_leaves(p2, _leaves(p1, []))))
    for assignment in itertools.product(model.elements, repeat=len(leaves)):
        valuation = dict(zip(leaves, assignment)).__getitem__
        if model.eval_payload(p1, valuation) != model.eval_payload(p2, valuation):
            return True
    return False


def model_equal(a: ModelElement, b: ModelElement) -> Verdict:
    """Provable equality in the free model of the theory the elements
    hold; elements of two different theories raise ``ValueError``.

    Canonical carriers, the quotient carrier of a rewrite-complete theory
    among them, answer decisively by payload.  Other quotient carriers
    try joinability within ``JOINABILITY_BOUND`` steps (Yes), then the
    theory's registered finite models (No), and otherwise return Unknown.
    Joinability grows both payloads' rewrite closures in lockstep and
    stops at their first common term, so a pair that joins in a few steps
    costs a few rewrite levels, however large its closures are
    (:func:`_joinable`).
    """
    c = _shared_carrier(a, b.carrier.theory)
    if a.payload == b.payload:
        return YES
    if c.canonical:
        return NO
    if _joinable(c, a.payload, b.payload, JOINABILITY_BOUND):
        return YES
    for model in c.theory.finite_models:
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
    Deduplication is by element, that is by canonical payload.  Quotient
    carriers without a complete rewrite system keep a closure index
    instead: the union of the terms each kept element reaches in
    ``JOINABILITY_BOUND`` rewrite steps.  A candidate is a duplicate iff
    its own closure meets that union, which is exactly when
    :func:`model_equal` says Yes against some kept element (equal or
    joinable payloads), so the kept elements and their order are those of
    the pairwise comparison, Unknown counting as distinct.
    EnumerationBudgetError is raised when the stream would pass
    ``max_elements``.
    """
    elems: List[ModelElement] = []
    # the elements, or on slow_dedup the closure index of payloads; an
    # element keeps the hash its membership test computes, for later lookups
    seen: set = set()
    carrier = _carrier_of(th)
    slow_dedup = not carrier.canonical
    # with no equations every application builds a fresh tree, so the
    # dedup set would only burn time hashing deep tuples
    free_tree = carrier.__class__ is TreeCarrier and not th.equations

    def add(m: ModelElement) -> bool:
        if slow_dedup:
            if m.payload in seen:
                return False
            closure = _reach(carrier, m.payload, JOINABILITY_BOUND)
            if not closure.isdisjoint(seen):
                return False
            seen.update(closure)
        elif not free_tree:
            if m in seen:
                return False
            seen.add(m)
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
            for idxs in _fresh_index_tuples(len(snapshot), stale, op.arity):
                m = apply_op(th, op.name, [snapshot[i] for i in idxs])
                if add(m):
                    yield m
        stale = len(snapshot)
        if len(elems) == before:
            break


def _fresh_index_tuples(n: int, stale: int, arity: int) -> Iterator[tuple]:
    """The ``arity``-tuples over ``range(n)`` with some index at least
    ``stale``, in ``itertools.product`` order: first those whose head is
    below ``stale``, followed by a fresh tail, then every tuple whose head
    is ``stale`` or more.  ``arity`` is positive."""
    if arity == 1:
        return zip(range(stale, n))
    older = ((i, *tail) for i in range(stale)
             for tail in _fresh_index_tuples(n, stale, arity - 1))
    return itertools.chain(older, itertools.product(range(stale, n), *[range(n)] * (arity - 1)))


def enumerate_elements(th: Theory, generators: Sequence[Any], max_depth: int,
                       max_elements: int = 200_000) -> List[ModelElement]:
    """The elements of :func:`iter_elements`, as a list."""
    return list(iter_elements(th, generators, max_depth, max_elements))
