"""Impossibility witnesses as replayable rewrite traces.

Combining an algebraic effect with the delay monad asks for a binary
operation on delayed values that respects both structures.  For finite
powersets and for finite probability distributions no such operation
exists up to strict step counting, and this module turns the informal
impossibility arguments into machine-checked artifacts: each refuted
candidate comes
with a :class:`ContradictionTrace`, an explicit chain of equational
rewrites from one term to another whose endpoints clash (a step-guarded
delay equals an immediate one, a delay equals itself with an extra step,
or a plain algebra equation that a hard-coded four-element model
refutes).  Traces replay mechanically: :meth:`ContradictionTrace.verify`
re-applies every rewrite and re-derives the clash.

The rewriter is deliberately tiny.  Terms are nested tuples over a fixed
vocabulary (variables, now, step, union, empty, convex mixtures with
exact `Fraction` weights, and the two candidate operations written
``op1`` and ``opP``); rules are concrete pattern pairs.  It is a trace
checker, not a prover: every derivation is spelled out where it can be
audited line by line.  Rules that reassociate convex mixtures are
validated at construction by flattening both sides to affine
combinations.

Also here: the two-path witness separating strict from weak equality for
the parallel lifting (`mogelberg_vezzosi_witness`), and the positive
counterpoint `idempotent_unary_demo`, a hand-written lifting for one
idempotent binary operation plus one unary step-absorbing operation that
passes the full strict law suite.  The guarded-recursion variant of the
impossibility results is intentionally not mechanized; the two
coinductive refutations above are the machine-checked ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from . import freemodel as fm
from .delay import (DIVERGE, Delay, Now, Step, dmap, join, peel, prepend_steps,
                    render_delay, step_count, strong_equal, weak_bisim)
from .laws import (LawEntry, LawReport, TestUniverse, Witness, prediction_for_failure,
                   run_suite)
from .lifting import custom_candidate, induced_candidate
from .theory import (App, Operation, Signature, Theory, Var, make_equation,
                     validate_theory)

HALF = Fraction(1, 2)


class TraceError(AssertionError):
    """A trace failed to replay, or a builder produced an invalid step."""


# ---------------------------------------------------------------------------
# the term language
#
# ("var", name) | ("now", t) | ("step", t) | ("empty",) | ("union", a, b)
# ("mix", Fraction, a, b) | ("op1", a, b) | ("opP", a, b) | ("?", name)


def var(name: str) -> tuple:
    return ("var", name)


def now_t(t: tuple) -> tuple:
    return ("now", t)


def step_t(t: tuple) -> tuple:
    return ("step", t)


def union_t(a: tuple, b: tuple) -> tuple:
    return ("union", a, b)


def mix_t(q: Fraction, a: tuple, b: tuple) -> tuple:
    return ("mix", q, a, b)


def op1_t(a: tuple, b: tuple) -> tuple:
    return ("op1", a, b)


def opp_t(a: tuple, b: tuple) -> tuple:
    return ("opP", a, b)


EMPTY = ("empty",)

_SYM = {"op1": "∨₁", "opP": "∨′"}


def render_term(t: tuple) -> str:
    k = t[0]
    if k in ("var", "?"):
        return t[1]
    if k == "empty":
        return "∅"
    if k in ("now", "step"):
        return f"{k}({render_term(t[1])})"
    if k == "union":
        return f"({render_term(t[1])} ∪ {render_term(t[2])})"
    if k == "mix":
        return f"⊕[{t[1]}]({render_term(t[2])}, {render_term(t[3])})"
    return f"{_SYM[k]}({render_term(t[1])}, {render_term(t[2])})"


def _children(t: tuple) -> tuple:
    if t[0] in ("var", "empty", "?"):
        return ()
    if t[0] == "mix":
        return t[2:]
    return t[1:]


def _rebuild(t: tuple, kids: tuple) -> tuple:
    if t[0] == "mix":
        return ("mix", t[1]) + kids
    return (t[0],) + kids


def _at(t: tuple, path: Tuple[int, ...]) -> tuple:
    for i in path:
        kids = _children(t)
        if i >= len(kids):
            raise TraceError(f"path {path} leaves {render_term(t)}")
        t = kids[i]
    return t


def _replace(t: tuple, path: Tuple[int, ...], new: tuple) -> tuple:
    if not path:
        return new
    kids = list(_children(t))
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return _rebuild(t, tuple(kids))


def _match(pat: tuple, term: tuple, binding: Dict[str, tuple]) -> bool:
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
    return all(_match(p, s, binding) for p, s in zip(_children(pat), _children(term)))


def _instantiate(pat: tuple, binding: Dict[str, tuple]) -> tuple:
    if pat[0] == "?":
        return binding[pat[1]]
    kids = tuple(_instantiate(k, binding) for k in _children(pat))
    return _rebuild(pat, kids)


def _q(name: str) -> tuple:
    return ("?", name)


@dataclass(frozen=True)
class RewriteRule:
    """A directed equation between term patterns."""

    name: str
    lhs: tuple
    rhs: tuple

    def render_eq(self) -> str:
        return f"{render_term(self.lhs)} = {render_term(self.rhs)}"


def apply_rule_at(term: tuple, rule: RewriteRule, path: Tuple[int, ...]) -> Optional[tuple]:
    """Left-to-right application at one position; None when it does not match."""
    sub = _at(term, path)
    binding: Dict[str, tuple] = {}
    if not _match(rule.lhs, sub, binding):
        return None
    return _replace(term, path, _instantiate(rule.rhs, binding))


def _affine(t: tuple, weight: Fraction, acc: Dict[tuple, Fraction]) -> None:
    if t[0] == "mix":
        _affine(t[2], weight * t[1], acc)
        _affine(t[3], weight * (1 - t[1]), acc)
    else:
        acc[t] = acc.get(t, Fraction(0)) + weight


def convex_rule(name: str, lhs: tuple, rhs: tuple) -> RewriteRule:
    """A mixture-reassociation rule, checked sound by flattening both
    sides to affine combinations over their non-mixture subterms."""
    for side in (lhs, rhs):
        stack = [side]
        while stack:
            u = stack.pop()
            if u[0] == "mix":
                if not (0 < u[1] < 1):
                    raise TraceError(f"rule '{name}': weight {u[1]} outside (0,1)")
            stack.extend(_children(u))
    la: Dict[tuple, Fraction] = {}
    ra: Dict[tuple, Fraction] = {}
    _affine(lhs, Fraction(1), la)
    _affine(rhs, Fraction(1), ra)
    if la != ra:
        raise TraceError(f"rule '{name}' is not a convex-algebra identity")
    return RewriteRule(name, lhs, rhs)


# ---------------------------------------------------------------------------
# traces and clashes


@dataclass(frozen=True)
class Clash:
    """Why a derived equation is absurd.

    ``StepEqNow``: after peeling common head constructors the two sides
    start with step and now.  ``StepEqDoubleStep``: the sides are the
    same core under a different number of steps.  ``ModelRefutation``:
    both sides are plain algebra terms and the recorded finite model
    tells them apart under the recorded valuation.
    """

    kind: str
    equation: str = ""
    model: str = ""
    valuation: Tuple[Tuple[str, int], ...] = ()
    lhs_value: Any = None
    rhs_value: Any = None

    def render(self) -> str:
        if self.kind == "ModelRefutation":
            val = ", ".join(f"{k}↦{v}" for k, v in self.valuation)
            return (f"CLASH: ModelRefutation ({self.equation} fails in the {self.model} "
                    f"model at {val}: {self.lhs_value} ≠ {self.rhs_value})")
        if self.kind == "StepEqNow":
            return "CLASH: StepEqNow (a step-guarded delay never equals an immediate value)"
        return "CLASH: StepEqDoubleStep (a delay never equals itself under extra steps)"


# 0 below 1 and 2, which are incomparable, with 3 on top; union is the
# least upper bound.  Encoded as bitmasks so union is bitwise or.
DIAMOND_ELEMENTS = (0, 1, 2, 3)


def _eval_diamond(t: tuple, env: Dict[str, int]) -> int:
    if t[0] == "var":
        return env[t[1]]
    if t[0] == "empty":
        return 0
    if t[0] == "union":
        return _eval_diamond(t[1], env) | _eval_diamond(t[2], env)
    raise TraceError(f"{render_term(t)} is not a plain set-algebra term")


def _free_vars(t: tuple) -> List[str]:
    out: List[str] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if u[0] == "var" and u[1] not in out:
            out.append(u[1])
        stack.extend(_children(u))
    return sorted(out)


def _strip_steps(t: tuple) -> Tuple[tuple, int]:
    n = 0
    while t[0] == "step":
        t = t[1]
        n += 1
    return t, n


_STANDARD_VALUATION = {"x": 1, "y": 2}


def derive_clash(start: tuple, end: tuple) -> Clash:
    """The mechanical reading of why ``start = end`` cannot hold."""
    a, b = start, end
    while a[0] == b[0] and a[0] in ("now", "step"):
        a, b = a[1], b[1]
    if {a[0], b[0]} == {"now", "step"}:
        return Clash("StepEqNow")
    ca, na = _strip_steps(a)
    cb, nb = _strip_steps(b)
    if ca == cb and na != nb:
        return Clash("StepEqDoubleStep")
    env = {v: _STANDARD_VALUATION[v] for v in _free_vars(a) + _free_vars(b)}
    va = _eval_diamond(a, env)
    vb = _eval_diamond(b, env)
    if va == vb:
        raise TraceError(f"no contradiction between {render_term(start)} and {render_term(end)}")
    return Clash("ModelRefutation", equation=f"{render_term(a)} = {render_term(b)}",
                 model="diamond", valuation=tuple(sorted(env.items())),
                 lhs_value=va, rhs_value=vb)


@dataclass(frozen=True)
class TraceStep:
    """One rewrite.  ``path`` addresses the subterm the rule's left side
    matches; for a reversed step that is a position in ``result``."""

    term: tuple
    rule: RewriteRule
    path: Tuple[int, ...]
    reversed: bool
    result: tuple


@dataclass
class ContradictionTrace:
    title: str
    assumptions: Tuple[Tuple[str, str], ...]
    steps: List[TraceStep]
    clash: Clash
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def start(self) -> tuple:
        return self.steps[0].term

    @property
    def end(self) -> tuple:
        return self.steps[-1].result

    def verify(self) -> bool:
        """Replay every rewrite and re-derive the clash; raises
        :class:`TraceError` on the first discrepancy."""
        if not self.steps:
            raise TraceError("empty trace")
        for i, s in enumerate(self.steps):
            if i and self.steps[i - 1].result != s.term:
                raise TraceError(f"step {i + 1} does not continue from step {i}")
            if s.reversed:
                got = apply_rule_at(s.result, s.rule, s.path)
                ok = got == s.term
            else:
                got = apply_rule_at(s.term, s.rule, s.path)
                ok = got == s.result
            if not ok:
                raise TraceError(f"step {i + 1} is not an application of '{s.rule.name}'")
        if derive_clash(self.start, self.end) != self.clash:
            raise TraceError("recorded clash does not match the derived one")
        return True

    def render(self) -> str:
        lines = [self.title]
        if self.assumptions:
            lines.append("assuming:")
            for name, eq in self.assumptions:
                lines.append(f"  {name}: {eq}")
        width = len(str(len(self.steps)))
        for i, s in enumerate(self.steps, 1):
            label = s.rule.name + (" ⁻¹" if s.reversed else "")
            lines.append(f"{i:>{width}}. {render_term(s.term)}  --[{label}]-->  "
                         f"{render_term(s.result)}")
        lines.append(f"derived: {render_term(self.start)} = {render_term(self.end)}")
        lines.append(self.clash.render())
        return "\n".join(lines)


class _TraceBuilder:
    def __init__(self, start: tuple):
        self.cur = start
        self.steps: List[TraceStep] = []

    def fwd(self, rule: RewriteRule, path: Tuple[int, ...] = ()) -> None:
        res = apply_rule_at(self.cur, rule, path)
        if res is None:
            raise TraceError(f"'{rule.name}' does not apply at {path} in {render_term(self.cur)}")
        self.steps.append(TraceStep(self.cur, rule, path, False, res))
        self.cur = res

    def rev(self, rule: RewriteRule, result: tuple, path: Tuple[int, ...] = ()) -> None:
        back = apply_rule_at(result, rule, path)
        if back != self.cur:
            raise TraceError(f"'{rule.name}' reversed does not reach {render_term(result)}")
        self.steps.append(TraceStep(self.cur, rule, path, True, result))
        self.cur = result

    def done(self, title: str, assumptions, meta=None) -> ContradictionTrace:
        trace = ContradictionTrace(title, tuple(assumptions), self.steps,
                                   derive_clash(self.steps[0].term, self.cur),
                                   meta or {})
        trace.verify()
        return trace


# ---------------------------------------------------------------------------
# shared rules

R_OP1_IDEM = RewriteRule("∨₁ idempotent", op1_t(_q("a"), _q("a")), _q("a"))
R_OP1_COMM = RewriteRule("∨₁ commutative", op1_t(_q("a"), _q("b")), op1_t(_q("b"), _q("a")))
R_UNION_IDEM = RewriteRule("∪ idempotent", union_t(_q("a"), _q("a")), _q("a"))
R_UNION_COMM = RewriteRule("∪ commutative", union_t(_q("a"), _q("b")), union_t(_q("b"), _q("a")))
R_NOW_UNION = RewriteRule("now preserves ∪",
                          union_t(now_t(_q("a")), now_t(_q("b"))),
                          now_t(union_t(_q("a"), _q("b"))))
R_NOW_EMPTY = RewriteRule("now preserves ∅", EMPTY, now_t(EMPTY))

# the step clauses a distributive law would force, one pair per branch
R_EQ1_LEFT = RewriteRule("Eq1 left-step clause",
                         union_t(step_t(_q("a")), _q("b")),
                         step_t(opp_t(_q("a"), _q("b"))))
R_EQ1_RIGHT = RewriteRule("Eq1 right-step clause",
                          opp_t(_q("a"), step_t(_q("b"))),
                          op1_t(_q("a"), _q("b")))
R_EQ2_LEFT = RewriteRule("Eq2 left-step clause",
                         union_t(step_t(_q("a")), _q("b")),
                         opp_t(_q("a"), _q("b")))
R_EQ2_RIGHT = RewriteRule("Eq2 right-step clause",
                          opp_t(_q("a"), step_t(_q("b"))),
                          step_t(op1_t(_q("a"), _q("b"))))


def _def_rule(symbol: str, head: str, body: tuple) -> RewriteRule:
    sub = {"x": _q("a"), "y": _q("b")}

    def walk(t: tuple) -> tuple:
        if t[0] == "var":
            return sub[t[1]]
        return _rebuild(t, tuple(walk(k) for k in _children(t)))

    return RewriteRule(f"{symbol} := {render_term(body)}",
                       (head, _q("a"), _q("b")), walk(body))


# ---------------------------------------------------------------------------
# finite powersets: all 32 candidate configurations refute themselves


@dataclass(frozen=True)
class CandidateConfig:
    """One shape a step-respecting binary operation could take: choices
    for the always-stepped combination (op1) and the mixed one (opP),
    drawn from the free semilattice model on {x, y}, plus which of the
    two possible mixed-clause orientations is assumed."""

    op1: fm.ModelElement
    op_prime: fm.ModelElement
    branch: str  # "Eq1" | "Eq2"

    def describe(self) -> str:
        return (f"∨₁ := {render_term(_element_term(self.op1))}, "
                f"∨′ := {render_term(_element_term(self.op_prime))}, {self.branch}")


def _element_term(e: fm.ModelElement) -> tuple:
    leaves = sorted(fm.values_of(e))
    if not leaves:
        return EMPTY
    if leaves == ["x"]:
        return var("x")
    if leaves == ["y"]:
        return var("y")
    return union_t(var("x"), var("y"))


def _powerset_assumptions(cfg: CandidateConfig, rules: List[RewriteRule]) -> List[Tuple[str, str]]:
    out = [("∨₁ candidate", f"∨₁(x, y) = {render_term(_element_term(cfg.op1))}"),
           ("∨′ candidate", f"∨′(x, y) = {render_term(_element_term(cfg.op_prime))}")]
    for r in rules:
        out.append((r.name, r.render_eq()))
    return out


def _powerset_trace(cfg: CandidateConfig) -> ContradictionTrace:
    t1 = _element_term(cfg.op1)
    tp = _element_term(cfg.op_prime)
    r1 = _def_rule("∨₁", "op1", t1)
    rp = _def_rule("∨′", "opP", tp)
    title = f"powerset candidate {cfg.describe()}"
    x, y = var("x"), var("y")

    # stage one: op1 must be idempotent and commutative because union is
    if t1 == EMPTY:
        b = _TraceBuilder(x)
        b.rev(R_OP1_IDEM, op1_t(x, x))
        b.fwd(r1)
        return b.done(title, _powerset_assumptions(cfg, [R_OP1_IDEM]))
    if t1 in (x, y):
        b = _TraceBuilder(t1)
        b.rev(r1, op1_t(x, y))
        b.fwd(R_OP1_COMM)
        b.fwd(r1)
        return b.done(title, _powerset_assumptions(cfg, [R_OP1_COMM]))

    left = R_EQ1_LEFT if cfg.branch == "Eq1" else R_EQ2_LEFT
    right = R_EQ1_RIGHT if cfg.branch == "Eq1" else R_EQ2_RIGHT
    assumptions = _powerset_assumptions(cfg, [left, right])

    # stage two, degenerate opP: pin down opP(now x, step(now y)) both ways
    if tp != union_t(x, y):
        probe = opp_t(now_t(x), step_t(now_t(y)))
        if tp == EMPTY:
            b = _TraceBuilder(now_t(EMPTY))
            b.rev(R_NOW_EMPTY, EMPTY)
            b.rev(rp, probe)
        elif tp == x:
            b = _TraceBuilder(now_t(x))
            b.rev(rp, probe)
        else:
            b = _TraceBuilder(step_t(now_t(y)))
            b.rev(rp, probe)
        if cfg.branch == "Eq1":
            b.fwd(right)
            b.fwd(r1)
            b.fwd(R_NOW_UNION)
        else:
            b.fwd(right)
            b.fwd(r1, (0,))
            b.fwd(R_NOW_UNION, (0,))
        return b.done(title, assumptions)

    # stage three, opP = union: one step equals two
    b = _TraceBuilder(step_t(x))
    b.rev(R_UNION_IDEM, union_t(step_t(x), step_t(x)))
    if cfg.branch == "Eq1":
        b.fwd(R_EQ1_LEFT)
        b.fwd(rp, (0,))
        b.fwd(R_UNION_COMM, (0,))
        b.fwd(R_EQ1_LEFT, (0,))
        b.fwd(rp, (0, 0))
        b.fwd(R_UNION_IDEM, (0, 0))
    else:
        b.rev(rp, opp_t(step_t(x), step_t(x)))
        b.fwd(R_EQ2_RIGHT)
        b.fwd(r1, (0,))
        b.fwd(R_UNION_COMM, (0,))
        b.rev(rp, step_t(opp_t(x, step_t(x))), (0,))
        b.fwd(R_EQ2_RIGHT, (0,))
        b.fwd(r1, (0, 0))
        b.fwd(R_UNION_IDEM, (0, 0))
    return b.done(title, assumptions)


def powerset_nogo_search() -> List[Tuple[CandidateConfig, ContradictionTrace]]:
    """Refute every candidate for a step-respecting binary operation on
    delayed finite sets: 4 choices for op1, 4 for opP, 2 clause
    orientations.  Each of the 32 configurations comes back with a
    verified trace; none survives."""
    th = fm.semilattice()
    ux, uy = fm.unit(th, "x"), fm.unit(th, "y")
    candidates = (fm.apply_op(th, "empty", []), ux, uy, fm.apply_op(th, "union", [ux, uy]))
    out: List[Tuple[CandidateConfig, ContradictionTrace]] = []
    for op1 in candidates:
        for opp in candidates:
            for branch in ("Eq1", "Eq2"):
                cfg = CandidateConfig(op1, opp, branch)
                out.append((cfg, _powerset_trace(cfg)))
    if len(out) != 32:
        raise TraceError(f"expected 32 configurations, built {len(out)}")
    return out


# ---------------------------------------------------------------------------
# finite distributions: exact-rational replay for any mixing weight


def _least_power(base: Fraction, bound: Fraction) -> int:
    n, cur = 1, base
    while cur > bound:
        n += 1
        cur *= base
        if n > 4096:
            raise TraceError("weight too extreme for a bounded replay")
    return n


def _mix_comm(q: Fraction) -> RewriteRule:
    return convex_rule(f"⊕[{q}] swap", mix_t(q, _q("a"), _q("b")),
                       mix_t(1 - q, _q("b"), _q("a")))


def _now_mix(q: Fraction) -> RewriteRule:
    return RewriteRule(f"now preserves ⊕[{q}]",
                       mix_t(q, now_t(_q("a")), now_t(_q("b"))),
                       now_t(mix_t(q, _q("a"), _q("b"))))


def _lmerge(q: Fraction, r: Fraction) -> RewriteRule:
    return convex_rule(f"⊕ regroup {q}·{r}",
                       mix_t(q, mix_t(r, _q("a"), _q("c")), _q("c")),
                       mix_t(q * r, _q("a"), _q("c")))


def _rmerge(q: Fraction, r: Fraction) -> RewriteRule:
    return convex_rule(f"⊕ regroup right {q},{r}",
                       mix_t(q, _q("c"), mix_t(r, _q("c"), _q("a"))),
                       mix_t(q + (1 - q) * r, _q("c"), _q("a")))


def _dist_rules(p: Fraction):
    r1 = RewriteRule("∨₁ := ⊕[1/2]", op1_t(_q("a"), _q("b")), mix_t(HALF, _q("a"), _q("b")))
    rp = RewriteRule(f"∨′ := ⊕[{p}]", opp_t(_q("a"), _q("b")), mix_t(p, _q("a"), _q("b")))
    e1a = RewriteRule("Eq1 left-step clause",
                      mix_t(HALF, step_t(_q("a")), _q("b")), step_t(opp_t(_q("a"), _q("b"))))
    e1b = RewriteRule("Eq1 right-step clause",
                      opp_t(_q("a"), step_t(_q("b"))), op1_t(_q("a"), _q("b")))
    e2a = RewriteRule("Eq2 left-step clause",
                      mix_t(HALF, step_t(_q("a")), _q("b")), opp_t(_q("a"), _q("b")))
    e2b = RewriteRule("Eq2 right-step clause",
                      opp_t(_q("a"), step_t(_q("b"))), step_t(op1_t(_q("a"), _q("b"))))
    return r1, rp, e1a, e1b, e2a, e2b


def distributions_nogo_replay(p, branch: str = "Eq1") -> ContradictionTrace:
    """Refute a step-respecting binary mixture of delayed distributions
    whose mixed clause carries weight ``p``.

    The always-stepped combination is forced to weight 1/2 (it must be
    commutative, and evaluating weights on the unit interval pins 1/2
    down exactly), so only ``p`` and the clause orientation remain free.
    The replay decomposes the probe term with exact rationals and ends
    in a now-versus-step clash.  ``branch`` selects which orientation of
    the mixed clause is assumed; the other branch is the mirror image.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"mixing weight must lie strictly between 0 and 1, got {p}")
    if branch not in ("Eq1", "Eq2"):
        raise ValueError(f"branch must be 'Eq1' or 'Eq2', got {branch!r}")
    r1, rp, e1a, e1b, e2a, e2b = _dist_rules(p)
    x, y = var("x"), var("y")
    nx, ny = now_t(x), now_t(y)
    stepped = step_t(nx)
    assume = [("∨₁ forced", r1.render_eq() + "  (commutativity on the unit interval)"),
              ("∨′ candidate", rp.render_eq())]

    if branch == "Eq1":
        assume += [(e1a.name, e1a.render_eq()), (e1b.name, e1b.render_eq())]
        n = _least_power(HALF, 1 - p)
        hn = HALF ** n
        w = ((1 - p) - hn) / (1 - hn)
        z = ny if w == 0 else mix_t(w, stepped, ny)
        b = _TraceBuilder(now_t(mix_t(HALF, x, y)))
        b.rev(_now_mix(HALF), mix_t(HALF, nx, ny))
        b.fwd(_mix_comm(HALF))
        b.rev(r1, op1_t(ny, nx))
        b.rev(e1b, opp_t(ny, stepped))
        b.fwd(rp)
        b.fwd(_mix_comm(p))
        if w != 0:
            b.fwd(convex_rule(f"⊕ split off ⊕[{w}]",
                              mix_t(1 - p, _q("a"), _q("b")),
                              mix_t(hn, _q("a"), mix_t(w, _q("a"), _q("b")))))
        core = nx
        for k in range(n, 1, -1):
            b.rev(_lmerge(HALF ** (k - 1), HALF),
                  mix_t(HALF ** (k - 1), mix_t(HALF, step_t(core), z), z))
            b.fwd(e1a, (0,))
            b.fwd(rp, (0, 0))
            core = mix_t(p, core, z)
        b.fwd(e1a)
        b.fwd(rp, (0,))
        acc = p
        for _ in range(n - 1):
            b.fwd(_lmerge(acc, p), (0,))
            acc *= p
        title = f"distribution candidate ∨′ := ⊕[{p}], Eq1"
        return b.done(title, assume,
                      {"p": p, "branch": branch, "n": n,
                       "z_weight": (w if w else None), "z": render_term(z)})

    assume += [(e2a.name, e2a.render_eq()), (e2b.name, e2b.render_eq())]
    n = _least_power(1 - p, HALF)
    gn = (1 - p) ** n
    w = (HALF - gn) / (1 - gn)
    z = ny if w == 0 else mix_t(1 - w, ny, stepped)
    b = _TraceBuilder(now_t(mix_t(p, x, y)))
    b.rev(_now_mix(p), mix_t(p, nx, ny))
    b.rev(rp, opp_t(nx, ny))
    b.rev(e2a, mix_t(HALF, stepped, ny))
    b.fwd(_mix_comm(HALF))
    if w != 0:
        b.fwd(convex_rule(f"⊕ split off ⊕[{1 - w}]",
                          mix_t(HALF, _q("c"), _q("a")),
                          mix_t(1 - gn, mix_t(1 - w, _q("c"), _q("a")), _q("a"))))
    core = nx
    for k in range(n, 1, -1):
        prev = 1 - (1 - p) ** (k - 1)
        b.rev(_rmerge(prev, p), mix_t(prev, z, mix_t(p, z, step_t(core))))
        b.rev(rp, mix_t(prev, z, opp_t(z, step_t(core))), (1,))
        b.fwd(e2b, (1,))
        b.fwd(r1, (1, 0))
        core = mix_t(HALF, z, core)
    b.rev(rp, opp_t(z, step_t(core)))
    b.fwd(e2b)
    b.fwd(r1, (0,))
    acc = HALF
    for _ in range(n - 1):
        b.fwd(_rmerge(acc, HALF), (0,))
        acc = acc + (1 - acc) * HALF
    title = f"distribution candidate ∨′ := ⊕[{p}], Eq2"
    return b.done(title, assume,
                  {"p": p, "branch": branch, "n": n,
                   "z_weight": (w if w else None), "z": render_term(z)})


# ---------------------------------------------------------------------------
# the strict/weak separation witness for the parallel lifting


@dataclass
class StepCountDemo:
    """Both multiplication paths on one input, with their step counts."""

    input_render: str
    path_fmap_first: Delay
    path_dist_first: Delay
    step_counts: Tuple[int, int]
    entry: LawEntry
    weak_entry: LawEntry
    elapsed_ms: float

    def report(self) -> LawReport:
        u = TestUniverse()
        return LawReport("magma", "par", "strict", u.bounds_dict(),
                         [self.entry], self.elapsed_ms)


def mogelberg_vezzosi_witness() -> StepCountDemo:
    """One binary operation over two nested delays where the parallel
    lifting sends the two multiplication paths to the same value at
    depths 1 and 2: strictly distinct, weakly bisimilar."""
    t0 = time.perf_counter()
    th = fm.magma()
    cand = induced_candidate(th, "par")
    inner = fm.apply_op(th, "mul", [fm.unit(th, Now(Step(Now("x")))),
                                    fm.unit(th, Step(Now(Now("y"))))])
    lhs = cand.apply(fm.fmap(th, join, inner))
    rhs = join(dmap(cand.apply(inner), cand.apply))
    rel = lambda a, b: fm.model_equal(th, a, b)
    strict = strong_equal(lhs, rhs, 4096, value_eq=rel)
    weak = weak_bisim(lhs, rhs, rel, 4096)
    render = lambda d: render_delay(d, fm.value_str)
    counts = (step_count(lhs), step_count(rhs))
    entry = LawEntry(
        "MultT", strict, 1,
        Witness(fm.value_str(inner), render(lhs), render(rhs),
                note=f"same value after {counts[0]} step vs {counts[1]} steps"),
        predicted=True,
        prediction_note=prediction_for_failure(th, "par", "strict", "MultT"))
    weak_entry = LawEntry("MultT", weak, 1)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return StepCountDemo(fm.value_str(inner), lhs, rhs, counts, entry, weak_entry, elapsed)


# ---------------------------------------------------------------------------
# the positive case: idempotent binary plus step-absorbing unary


def idempotent_unary_theory() -> Theory:
    x = Var("x")
    th = Theory(Signature("idempotent-unary", (Operation("mul", 2), Operation("bang", 1))),
                (make_equation("idem", App("mul", (x, x)), x),),
                rewrite_complete=True)
    validate_theory(th)
    return th


def _bang(d: Delay, th: Theory) -> Delay:
    n, end = peel(d)
    if n:
        return prepend_steps(n - 1, end)
    return end if end is DIVERGE else Now(fm.apply_op(th, "bang", [end.value]))


def _after(n: int, end: Now, t: int, th: Theory) -> Any:
    """The value of a finished factor of a product after ``t`` ≥ ``n``
    lockstep steps: its own ``n`` steps go first, then ``bang`` absorbs
    each further one."""
    v = end.value
    for _ in range(t - n):
        v = fm.apply_op(th, "bang", [v])
    return v


def _mul(a: Delay, b: Delay, th: Theory) -> Delay:
    # Each step strips one guard from each side, banging a finished side,
    # until both have finished; a divergent side makes the product diverge.
    if a is DIVERGE or b is DIVERGE:
        return DIVERGE
    (na, ea), (nb, eb) = peel(a), peel(b)
    t = max(na, nb)
    values = [_after(na, ea, t, th), _after(nb, eb, t, th)]
    return prepend_steps(t, Now(fm.apply_op(th, "mul", values)))


def step_absorbing_lift(op: str, args, th: Theory) -> Delay:
    """Hand-written lifting: the unary operation eats one step of its
    argument, and each step of a product consumes the other side's guard
    through it, so stepped products advance in lockstep."""
    if op == "bang":
        (d,) = args
        return _bang(d, th)
    if op == "mul":
        a, b = args
        return _mul(a, b, th)
    raise ValueError(f"unknown operation {op!r}")


def idempotent_unary_demo(u: Optional[TestUniverse] = None) -> LawReport:
    """Full strict law suite for the step-absorbing lifting; every entry
    comes back yes, making this the positive counterpoint to the two
    refutation searches above."""
    th = idempotent_unary_theory()
    cand = custom_candidate(th, "custom:step-absorbing", step_absorbing_lift)
    return run_suite(th, cand, u or TestUniverse())


def idempotent_unary_witness() -> Tuple[Delay, Delay]:
    """The same two multiplication paths that separate strict from weak
    for the parallel lifting, here landing on one step exactly."""
    th = idempotent_unary_theory()
    cand = custom_candidate(th, "custom:step-absorbing", step_absorbing_lift)
    inner = fm.apply_op(th, "mul", [fm.unit(th, Now(Step(Now("x")))),
                                    fm.unit(th, Step(Now(Now("y"))))])
    lhs = cand.apply(fm.fmap(th, join, inner))
    rhs = join(dmap(cand.apply(inner), cand.apply))
    return lhs, rhs
