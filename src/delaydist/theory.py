"""Signatures, terms and equations of algebraic theories.

Equations are classified by variable occurrence counts (linear, balanced,
duplicating, dropping); the classification drives the composition
predictions checked elsewhere in the package.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union


class TheoryError(Exception):
    pass


class TheorySyntaxError(TheoryError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


class TheorySemanticError(TheoryError):
    def __init__(self, msg: str, name: str):
        super().__init__(msg)
        self.name = name


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class App:
    op: str
    args: Tuple["Term", ...]


Term = Union[Var, App]


def term_str(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.op
    return f"{t.op}({', '.join(term_str(a) for a in t.args)})"


def free_vars(t: Term) -> List[str]:
    """Variable names in order of first occurrence."""
    return _first_occurrences(t, set(), [])


def _first_occurrences(t: Term, seen: set, out: List[str]) -> List[str]:
    """``out`` extended by the variable names of ``t`` not in ``seen``, in
    order of first occurrence; ``seen`` is extended by them too."""
    if isinstance(t, Var):
        if t.name not in seen:
            seen.add(t.name)
            out.append(t.name)
    else:
        for a in t.args:
            _first_occurrences(a, seen, out)
    return out


def var_counts(t: Term) -> Counter:
    return _count_vars(t, Counter())


def _count_vars(t: Term, c: Counter) -> Counter:
    """``c`` with each variable occurrence of ``t`` counted."""
    if isinstance(t, Var):
        c[t.name] += 1
    else:
        for a in t.args:
            _count_vars(a, c)
    return c


def substitute(t: Term, env: Dict[str, Term]) -> Term:
    """Simultaneous substitution; every variable of ``t`` must be bound."""
    if isinstance(t, Var):
        if t.name not in env:
            raise TheorySemanticError(f"unbound variable '{t.name}' in substitution", t.name)
        return env[t.name]
    return App(t.op, tuple(substitute(a, env) for a in t.args))


def match(pattern: Term, term: Term, binding: Dict[str, Term]) -> bool:
    """First-order matching: extend ``binding`` so that substituting it
    into ``pattern`` gives ``term``.  The pattern's variables are
    metavariables; the term's variables are constants.  On failure
    ``binding`` may hold part of an attempted extension."""
    if isinstance(pattern, Var):
        prev = binding.get(pattern.name)
        if prev is None:
            binding[pattern.name] = term
            return True
        return prev == term
    if not isinstance(term, App) or term.op != pattern.op or len(term.args) != len(pattern.args):
        return False
    for p, s in zip(pattern.args, term.args):
        if not match(p, s, binding):
            return False
    return True


def subterm(t: Term, path: Sequence[int]) -> Optional[Term]:
    """The subterm at ``path``, a sequence of argument indices from the
    root; None when the path leaves the term."""
    for i in path:
        if isinstance(t, Var) or not 0 <= i < len(t.args):
            return None
        t = t.args[i]
    return t


def replace(t: Term, path: Sequence[int], new: Term) -> Term:
    """``t`` with its subterm at ``path`` (which must lie in ``t``)
    replaced by ``new``."""
    if not path:
        return new
    i = path[0]
    return App(t.op, t.args[:i] + (replace(t.args[i], path[1:], new),) + t.args[i + 1:])


@dataclass(frozen=True, slots=True)
class Operation:
    name: str
    arity: int


@dataclass(frozen=True, slots=True)
class Signature:
    name: str
    ops: Tuple[Operation, ...]
    # name -> arity of the first declaration, built once; read-only
    arities: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arities: Dict[str, int] = {}
        for o in self.ops:
            arities.setdefault(o.name, o.arity)
        object.__setattr__(self, "arities", arities)

    def arity(self, op: str) -> Optional[int]:
        return self.arities.get(op)


@dataclass(frozen=True, slots=True)
class Equation:
    name: str
    context: Tuple[str, ...]
    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.name}: {term_str(self.lhs)} = {term_str(self.rhs)}"


@dataclass(frozen=True, slots=True)
class EquationClass:
    linear: bool
    balanced: bool
    dup: bool
    drop: bool

    def labels(self) -> Tuple[str, ...]:
        out = []
        if self.linear:
            out.append("linear")
        if self.balanced:
            out.append("balanced")
        if self.dup:
            out.append("dup")
        if self.drop:
            out.append("drop")
        return tuple(out) if out else ("none",)


@dataclass(frozen=True)
class Theory:
    """A signature with equations.

    ``oracle`` names the canonical carrier family used by the free model
    (``tree``, ``list``, ``multiset``, ``finset``, ``dist``, ``either``);
    user theories leave it None and get a term carrier with bounded
    rewriting.  ``rewrite_complete`` asserts that orienting the equations
    left to right yields a terminating confluent system, which upgrades
    equality on that carrier from three valued to decisive.
    ``finite_models`` is a tuple of registered finite algebras used to
    refute equalities the rewriter cannot join.
    """

    signature: Signature
    equations: Tuple[Equation, ...]
    oracle: Optional[str] = None
    rewrite_complete: bool = False
    finite_models: tuple = field(default=(), compare=False)

    @property
    def name(self) -> str:
        return self.signature.name


def _check_term(sig: Signature, t: Term, eq_name: str) -> None:
    """Refuse an operation of ``t`` that ``sig`` does not declare, or
    applies to the wrong number of arguments, outermost and leftmost
    first."""
    if isinstance(t, Var):
        return
    arity = sig.arity(t.op)
    if arity is None:
        raise TheorySemanticError(
            f"equation '{eq_name}' uses undeclared operation '{t.op}'", t.op)
    if arity != len(t.args):
        raise TheorySemanticError(
            f"equation '{eq_name}': '{t.op}' expects {arity} arguments, got {len(t.args)}",
            t.op)
    for a in t.args:
        _check_term(sig, a, eq_name)


def make_equation(name: str, lhs: Term, rhs: Term) -> Equation:
    ctx = free_vars(lhs)
    for v in free_vars(rhs):
        if v not in ctx:
            ctx.append(v)
    return Equation(name, tuple(ctx), lhs, rhs)


def validate_theory(th: Theory) -> None:
    seen = set()
    for op in th.signature.ops:
        if op.name in seen:
            raise TheorySemanticError(f"duplicate operation '{op.name}'", op.name)
        if op.arity < 0:
            raise TheorySemanticError(f"negative arity for '{op.name}'", op.name)
        seen.add(op.name)

    eq_names = set()
    for eq in th.equations:
        if eq.name in eq_names:
            raise TheorySemanticError(f"duplicate equation name '{eq.name}'", eq.name)
        eq_names.add(eq.name)
        _check_term(th.signature, eq.lhs, eq.name)
        _check_term(th.signature, eq.rhs, eq.name)
        used = set(free_vars(eq.lhs)) | set(free_vars(eq.rhs))
        if used - set(eq.context):
            missing = sorted(used - set(eq.context))[0]
            raise TheorySemanticError(
                f"equation '{eq.name}' uses variable '{missing}' outside its context", missing)


# ---------------------------------------------------------------------------
# classification


def classify_equation(eq: Equation) -> EquationClass:
    """Occurrence-count classes; stable under renaming variables."""
    cl = var_counts(eq.lhs)
    cr = var_counts(eq.rhs)
    drop = set(cl) != set(cr)
    balanced = cl == cr
    dup = any(n >= 2 for n in cl.values()) or any(n >= 2 for n in cr.values())
    linear = balanced and all(n == 1 for n in cl.values())
    return EquationClass(linear=linear, balanced=balanced, dup=dup, drop=drop)


@dataclass(frozen=True, slots=True)
class Prediction:
    seq_dist_law: str   # "guaranteed" | "unknown"
    par_setoid_law: str  # "guaranteed" | "unknown"
    guarded_no_go: str  # "impossible" | "unknown"

    def __str__(self) -> str:
        return (f"seqDistLaw={self.seq_dist_law} parSetoidLaw={self.par_setoid_law} "
                f"guardedNoGo={self.guarded_no_go}")


def _is_commutativity(eq: Equation, op: str) -> bool:
    l, r = eq.lhs, eq.rhs
    return (isinstance(l, App) and l.op == op and len(l.args) == 2
            and isinstance(r, App) and r.op == op
            and all(isinstance(a, Var) for a in l.args + r.args)
            and l.args[0].name != l.args[1].name
            and (r.args[0].name, r.args[1].name) == (l.args[1].name, l.args[0].name))


def _is_idempotence(eq: Equation, op: str) -> bool:
    def shape(a: Term, b: Term) -> bool:
        return (isinstance(a, App) and a.op == op and len(a.args) == 2
                and all(isinstance(x, Var) for x in a.args)
                and a.args[0].name == a.args[1].name
                and isinstance(b, Var) and b.name == a.args[0].name)

    return shape(eq.lhs, eq.rhs) or shape(eq.rhs, eq.lhs)


def predict_composability(th: Theory) -> Prediction:
    """Syntactic predictions about composing the free-model monad with
    delayed computations.

    * all equations balanced: the sequential lifting is a distributive
      law up to strict equality;
    * no equation drops variables: the parallel lifting is a distributive
      law on setoids up to weak bisimilarity;
    * a binary operation that is literally commutative and idempotent
      rules out any guarded interpretation of the equations.
    """
    classes = [classify_equation(eq) for eq in th.equations]
    seq = "guaranteed" if all(c.balanced for c in classes) else "unknown"
    par = "guaranteed" if not any(c.drop for c in classes) else "unknown"
    nogo = "unknown"
    for op in th.signature.ops:
        if op.arity != 2:
            continue
        has_comm = any(_is_commutativity(eq, op.name) for eq in th.equations)
        has_idem = any(_is_idempotence(eq, op.name) for eq in th.equations)
        if has_comm and has_idem:
            nogo = "impossible"
            break
    return Prediction(seq, par, nogo)


# ---------------------------------------------------------------------------
# parsing

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _TermParser:
    """Recursive descent over ``ident`` / ``ident(t, ...)``."""

    def __init__(self, text: str, line: int, col_offset: int, sig: Signature):
        self.text = text
        self.pos = 0
        self.line = line
        self.col_offset = col_offset
        self.sig = sig

    def error(self, msg: str):
        raise TheorySyntaxError(msg, self.line, self.col_offset + self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def ident(self) -> str:
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            self.error("expected identifier")
        self.pos = m.end()
        return m.group(0)

    def term(self) -> Term:
        self.skip_ws()
        name = self.ident()
        self.skip_ws()
        if self.peek() == "(":
            self.pos += 1
            args: List[Term] = []
            self.skip_ws()
            if self.peek() == ")":
                self.pos += 1
            else:
                args.append(self.term())
                self.skip_ws()
                while self.peek() == ",":
                    self.pos += 1
                    args.append(self.term())
                    self.skip_ws()
                self.expect(")")
            arity = self.sig.arity(name)
            if arity is None:
                raise TheorySemanticError(
                    f"line {self.line}: unknown operation '{name}'", name)
            if arity != len(args):
                raise TheorySemanticError(
                    f"line {self.line}: operation '{name}' expects {arity} arguments, "
                    f"got {len(args)}", name)
            return App(name, tuple(args))
        # a bare identifier is the constant if declared, a variable otherwise
        arity = self.sig.arity(name)
        if arity == 0:
            return App(name, ())
        if arity is not None:
            raise TheorySemanticError(
                f"line {self.line}: operation '{name}' of arity {arity} used without arguments",
                name)
        return Var(name)


def parse_theory(text: str, default_name: str = "theory") -> Theory:
    """Parse the line-oriented theory format.

    ::

        theory <name>          (optional, at most once)
        op <name> : <arity>
        eq <name> : <term> = <term>

    ``#`` starts a comment.  Declarations may appear in any order as long
    as every operation is declared before an equation uses it.
    """
    name = default_name
    ops: List[Operation] = []
    raw_eqs: List[Tuple[int, str, str]] = []  # (line, eq name, body)
    saw_theory = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("theory"):
            if saw_theory:
                raise TheorySyntaxError("duplicate 'theory' line", lineno, 1)
            rest = line[len("theory"):].strip()
            if not _IDENT_RE.fullmatch(rest):
                raise TheorySyntaxError("expected identifier after 'theory'", lineno,
                                        len("theory") + 2)
            name = rest
            saw_theory = True
        elif line.startswith("op"):
            rest = line[len("op"):].strip()
            if ":" not in rest:
                raise TheorySyntaxError("expected 'op <name> : <arity>'", lineno, 1)
            op_name, arity_s = (p.strip() for p in rest.split(":", 1))
            if not _IDENT_RE.fullmatch(op_name):
                raise TheorySyntaxError(f"bad operation name '{op_name}'", lineno, 1)
            if not arity_s.isdigit():
                raise TheorySyntaxError(f"bad arity '{arity_s}'", lineno, 1)
            ops.append(Operation(op_name, int(arity_s)))
        elif line.startswith("eq"):
            rest = line[len("eq"):].strip()
            if ":" not in rest:
                raise TheorySyntaxError("expected 'eq <name> : <lhs> = <rhs>'", lineno, 1)
            eq_name, body = (p.strip() for p in rest.split(":", 1))
            if not _IDENT_RE.fullmatch(eq_name):
                raise TheorySyntaxError(f"bad equation name '{eq_name}'", lineno, 1)
            raw_eqs.append((lineno, eq_name, body))
        else:
            raise TheorySyntaxError(f"unrecognised directive '{line.split()[0]}'", lineno, 1)

    sig = Signature(name, tuple(ops))
    equations: List[Equation] = []
    for lineno, eq_name, body in raw_eqs:
        if "=" not in body:
            raise TheorySyntaxError("equation needs '='", lineno, 1)
        lhs_s, rhs_s = body.split("=", 1)
        lp = _TermParser(lhs_s, lineno, 0, sig)
        lhs = lp.term()
        lp.skip_ws()
        if lp.pos != len(lp.text):
            lp.error("trailing input after term")
        rp = _TermParser(rhs_s, lineno, len(lhs_s) + 1, sig)
        rhs = rp.term()
        rp.skip_ws()
        if rp.pos != len(rp.text):
            rp.error("trailing input after term")
        equations.append(make_equation(eq_name, lhs, rhs))

    th = Theory(sig, tuple(equations))
    validate_theory(th)
    return th
