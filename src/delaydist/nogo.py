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

The rewriter is deliberately tiny.  Terms are :mod:`theory` terms over a
fixed vocabulary (``∅``, ``∪``, ``now``, ``step``, convex mixtures
``⊕[q]`` whose exact `Fraction` weight is part of the operation's name,
and the two candidate operations ``∨₁`` and ``∨′``).  In a trace term a
variable is a constant; in a rule, a :class:`theory.Equation` applied
left to right, it is a metavariable.  It is a trace checker, not a
prover: every derivation is spelled out where it can be audited line by
line.  Rules that reassociate convex mixtures are validated at
construction by flattening both sides to affine combinations.

Also here: the two-path witness separating strict from weak equality for
the parallel lifting (`mogelberg_vezzosi_witness`), and the positive
counterpoint `idempotent_unary_demo`, a hand-written lifting for one
idempotent binary operation plus one unary step-absorbing operation that
passes the full strict law suite.  The guarded-recursion variant of the
impossibility results is intentionally not mechanized; the two
coinductive refutations above are the machine-checked ones.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import freemodel as fm
from .delay import (DIVERGE, Delay, Now, Step, delay_n, dmap, join, render_delay,
                    step_count, strong_equal, weak_bisim)
from .laws import (LawEntry, LawReport, TestUniverse, _entry, _witness, prediction_for_failure,
                   run_suite)
from .lifting import DistLawCandidate, custom_candidate, induced_candidate
from .theory import (App, Equation, Operation, Signature, Term, Theory, Var, free_vars,
                     make_equation, match, replace, substitute, subterm, term_str,
                     validate_theory)

HALF = Fraction(1, 2)


class TraceError(AssertionError):
    """A trace failed to replay, or a builder produced an invalid step."""


# ---------------------------------------------------------------------------
# the term language

UNION, NOW, STEP, OP1, OPP = "∪", "now", "step", "∨₁", "∨′"
EMPTY = App("∅", ())


def var(name: str) -> Var:
    return Var(name)


def now_t(t: Term) -> App:
    return App(NOW, (t,))


def step_t(t: Term) -> App:
    return App(STEP, (t,))


def union_t(a: Term, b: Term) -> App:
    return App(UNION, (a, b))


def mix_t(q: Fraction, a: Term, b: Term) -> App:
    return App(f"⊕[{q}]", (a, b))


def op1_t(a: Term, b: Term) -> App:
    return App(OP1, (a, b))


def opp_t(a: Term, b: Term) -> App:
    return App(OPP, (a, b))


def _head(t: Term) -> Optional[str]:
    return t.op if isinstance(t, App) else None


@functools.lru_cache(maxsize=1024)
def _op_weight(op: str) -> Optional[Fraction]:
    return Fraction(op[2:-1]) if op.startswith("⊕[") else None


def _weight(t: Term) -> Optional[Fraction]:
    """The weight of a mixture, None for any other term."""
    return _op_weight(t.op) if isinstance(t, App) else None


def render_term(t: Term) -> str:
    """:func:`theory.term_str` with ``∪`` written infix."""
    if isinstance(t, Var) or not t.args:
        return term_str(t)
    if t.op == UNION:
        return f"({render_term(t.args[0])} ∪ {render_term(t.args[1])})"
    return f"{t.op}({', '.join(render_term(a) for a in t.args)})"


def render_rule(rule: Equation) -> str:
    return f"{render_term(rule.lhs)} = {render_term(rule.rhs)}"


def apply_rule_at(term: Term, rule: Equation, path: Tuple[int, ...]) -> Optional[Term]:
    """Left-to-right application at one position; None when it does not match."""
    sub = subterm(term, path)
    binding: Dict[str, Term] = {}
    if sub is None or not match(rule.lhs, sub, binding):
        return None
    return replace(term, path, substitute(rule.rhs, binding))


def _affine(t: Term, weight: Fraction, acc: Dict[Term, Fraction]) -> None:
    q = _weight(t)
    if q is not None:
        _affine(t.args[0], weight * q, acc)
        _affine(t.args[1], weight * (1 - q), acc)
    else:
        acc[t] = acc.get(t, Fraction(0)) + weight


def convex_rule(name: str, lhs: Term, rhs: Term) -> Equation:
    """A mixture-reassociation rule, checked sound by flattening both
    sides to affine combinations over their non-mixture subterms."""
    for side in (lhs, rhs):
        stack = [side]
        while stack:
            u = stack.pop()
            q = _weight(u)
            if q is not None and not (0 < q < 1):
                raise TraceError(f"rule '{name}': weight {q} outside (0,1)")
            if isinstance(u, App):
                stack.extend(u.args)
    la: Dict[Term, Fraction] = {}
    ra: Dict[Term, Fraction] = {}
    _affine(lhs, Fraction(1), la)
    _affine(rhs, Fraction(1), ra)
    if la != ra:
        raise TraceError(f"rule '{name}' is not a convex-algebra identity")
    return make_equation(name, lhs, rhs)


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


def _eval_diamond(t: Term, env: Dict[str, int]) -> int:
    if isinstance(t, Var):
        return env[t.name]
    if t == EMPTY:
        return 0
    if t.op == UNION:
        return _eval_diamond(t.args[0], env) | _eval_diamond(t.args[1], env)
    raise TraceError(f"{render_term(t)} is not a plain set-algebra term")


def _strip_steps(t: Term) -> Tuple[Term, int]:
    n = 0
    while _head(t) == STEP:
        t = t.args[0]
        n += 1
    return t, n


_STANDARD_VALUATION = {"x": 1, "y": 2}


def derive_clash(start: Term, end: Term) -> Clash:
    """The mechanical reading of why ``start = end`` cannot hold."""
    a, b = start, end
    while _head(a) == _head(b) and _head(a) in (NOW, STEP):
        a, b = a.args[0], b.args[0]
    if {_head(a), _head(b)} == {NOW, STEP}:
        return Clash("StepEqNow")
    ca, na = _strip_steps(a)
    cb, nb = _strip_steps(b)
    if ca == cb and na != nb:
        return Clash("StepEqDoubleStep")
    env = {v: _STANDARD_VALUATION[v] for v in free_vars(a) + free_vars(b)}
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

    term: Term
    rule: Equation
    path: Tuple[int, ...]
    reversed: bool
    result: Term


@dataclass
class ContradictionTrace:
    title: str
    assumptions: Tuple[Tuple[str, str], ...]
    steps: List[TraceStep]
    clash: Clash
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def start(self) -> Term:
        return self.steps[0].term

    @property
    def end(self) -> Term:
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
    def __init__(self, start: Term):
        self.cur = start
        self.steps: List[TraceStep] = []

    def fwd(self, rule: Equation, path: Tuple[int, ...] = ()) -> None:
        res = apply_rule_at(self.cur, rule, path)
        if res is None:
            raise TraceError(f"'{rule.name}' does not apply at {path} in {render_term(self.cur)}")
        self.steps.append(TraceStep(self.cur, rule, path, False, res))
        self.cur = res

    def rev(self, rule: Equation, result: Term, path: Tuple[int, ...] = ()) -> None:
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
# shared rules; a, b and c are their metavariables

A, B, C = Var("a"), Var("b"), Var("c")

R_OP1_IDEM = make_equation("∨₁ idempotent", op1_t(A, A), A)
R_OP1_COMM = make_equation("∨₁ commutative", op1_t(A, B), op1_t(B, A))
R_UNION_IDEM = make_equation("∪ idempotent", union_t(A, A), A)
R_UNION_COMM = make_equation("∪ commutative", union_t(A, B), union_t(B, A))
R_NOW_UNION = make_equation("now preserves ∪", union_t(now_t(A), now_t(B)),
                            now_t(union_t(A, B)))
R_NOW_EMPTY = make_equation("now preserves ∅", EMPTY, now_t(EMPTY))

# the step clauses a distributive law would force, one pair per branch
R_EQ1_LEFT = make_equation("Eq1 left-step clause", union_t(step_t(A), B), step_t(opp_t(A, B)))
R_EQ1_RIGHT = make_equation("Eq1 right-step clause", opp_t(A, step_t(B)), op1_t(A, B))
R_EQ2_LEFT = make_equation("Eq2 left-step clause", union_t(step_t(A), B), opp_t(A, B))
R_EQ2_RIGHT = make_equation("Eq2 right-step clause", opp_t(A, step_t(B)), step_t(op1_t(A, B)))


def _def_rule(op: str, body: Term) -> Equation:
    return make_equation(f"{op} := {render_term(body)}", App(op, (A, B)),
                         substitute(body, {"x": A, "y": B}))


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


def _element_term(e: fm.ModelElement) -> Term:
    leaves = sorted(fm.values_of(e))
    if not leaves:
        return EMPTY
    if leaves == ["x"]:
        return var("x")
    if leaves == ["y"]:
        return var("y")
    return union_t(var("x"), var("y"))


def _powerset_assumptions(cfg: CandidateConfig, rules: List[Equation]) -> List[Tuple[str, str]]:
    out = [("∨₁ candidate", f"∨₁(x, y) = {render_term(_element_term(cfg.op1))}"),
           ("∨′ candidate", f"∨′(x, y) = {render_term(_element_term(cfg.op_prime))}")]
    for r in rules:
        out.append((r.name, render_rule(r)))
    return out


def _powerset_trace(cfg: CandidateConfig) -> ContradictionTrace:
    t1 = _element_term(cfg.op1)
    tp = _element_term(cfg.op_prime)
    r1 = _def_rule(OP1, t1)
    rp = _def_rule(OPP, tp)
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
# finite distributions: exact-rational replay for every mixing weight
# whose delay exponent stays within the bound

# A replay unrolls n steps of a term that grows with n, so its rendering
# grows about as n³; at n = 64 it still prints in a few megabytes.  Every
# weight with denominator at most 64 needs n <= 45.
MAX_EXPONENT = 64


def _least_power(base: Fraction, bound: Fraction) -> int:
    """The least n with ``base ** n <= bound``, or ``MAX_EXPONENT + 1``
    when that n is larger than the bound."""
    n, cur = 1, base
    while cur > bound and n <= MAX_EXPONENT:
        n += 1
        cur *= base
    return n


def _mix_comm(q: Fraction) -> Equation:
    return convex_rule(f"⊕[{q}] swap", mix_t(q, A, B), mix_t(1 - q, B, A))


def _now_mix(q: Fraction) -> Equation:
    return make_equation(f"now preserves ⊕[{q}]", mix_t(q, now_t(A), now_t(B)),
                         now_t(mix_t(q, A, B)))


def _lmerge(q: Fraction, r: Fraction) -> Equation:
    return convex_rule(f"⊕ regroup {q}·{r}", mix_t(q, mix_t(r, A, C), C), mix_t(q * r, A, C))


def _rmerge(q: Fraction, r: Fraction) -> Equation:
    return convex_rule(f"⊕ regroup right {q},{r}", mix_t(q, C, mix_t(r, C, A)),
                       mix_t(q + (1 - q) * r, C, A))


def _dist_rules(p: Fraction):
    r1 = make_equation("∨₁ := ⊕[1/2]", op1_t(A, B), mix_t(HALF, A, B))
    rp = make_equation(f"∨′ := ⊕[{p}]", opp_t(A, B), mix_t(p, A, B))
    e1a = make_equation("Eq1 left-step clause", mix_t(HALF, step_t(A), B), step_t(opp_t(A, B)))
    e1b = make_equation("Eq1 right-step clause", opp_t(A, step_t(B)), op1_t(A, B))
    e2a = make_equation("Eq2 left-step clause", mix_t(HALF, step_t(A), B), opp_t(A, B))
    e2b = make_equation("Eq2 right-step clause", opp_t(A, step_t(B)), step_t(op1_t(A, B)))
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
    A weight whose replay needs a delay exponent above
    :data:`MAX_EXPONENT` raises :class:`ValueError`.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"mixing weight must lie strictly between 0 and 1, got {p}")
    if branch not in ("Eq1", "Eq2"):
        raise ValueError(f"branch must be 'Eq1' or 'Eq2', got {branch!r}")
    n = _least_power(HALF, 1 - p) if branch == "Eq1" else _least_power(1 - p, HALF)
    if n > MAX_EXPONENT:
        raise ValueError(f"mixing weight {p} needs a delay exponent n > {MAX_EXPONENT} on "
                         f"branch {branch}; replays are bounded at n <= {MAX_EXPONENT} so "
                         f"that their traces stay printable")
    r1, rp, e1a, e1b, e2a, e2b = _dist_rules(p)
    x, y = var("x"), var("y")
    nx, ny = now_t(x), now_t(y)
    stepped = step_t(nx)
    assume = [("∨₁ forced", render_rule(r1) + "  (commutativity on the unit interval)"),
              ("∨′ candidate", render_rule(rp))]

    if branch == "Eq1":
        assume += [(e1a.name, render_rule(e1a)), (e1b.name, render_rule(e1b))]
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
            b.fwd(convex_rule(f"⊕ split off ⊕[{w}]", mix_t(1 - p, A, B),
                              mix_t(hn, A, mix_t(w, A, B))))
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

    assume += [(e2a.name, render_rule(e2a)), (e2b.name, render_rule(e2b))]
    gn = (1 - p) ** n
    w = (HALF - gn) / (1 - gn)
    z = ny if w == 0 else mix_t(1 - w, ny, stepped)
    b = _TraceBuilder(now_t(mix_t(p, x, y)))
    b.rev(_now_mix(p), mix_t(p, nx, ny))
    b.rev(rp, opp_t(nx, ny))
    b.rev(e2a, mix_t(HALF, stepped, ny))
    b.fwd(_mix_comm(HALF))
    if w != 0:
        b.fwd(convex_rule(f"⊕ split off ⊕[{1 - w}]", mix_t(HALF, C, A),
                          mix_t(1 - gn, mix_t(1 - w, C, A), A)))
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


def _multiplication_paths(cand: DistLawCandidate
                          ) -> Tuple[fm.ModelElement, Callable[[], Delay], Callable[[], Delay]]:
    """The input ``mul(now(step(now x)), step(now(now y)))`` of MultT
    and the axiom's two paths on it under ``cand``, each a function of
    nothing: flatten then distribute, and distribute then flatten."""
    th = cand.theory
    inner = fm.apply_op(th, "mul", [fm.unit(th, Now(Step(Now("x")))),
                                    fm.unit(th, Step(Now(Now("y"))))])
    return (inner, lambda: cand.apply(fm.fmap(th, join, inner)),
            lambda: join(dmap(cand.apply(inner), cand.apply)))


def mogelberg_vezzosi_witness() -> StepCountDemo:
    """One binary operation over two nested delays where the parallel
    lifting sends the two multiplication paths to the same value at
    depths 1 and 2: strictly distinct, weakly bisimilar.  The MultT
    witness replays both paths."""
    t0 = time.perf_counter()
    th = fm.magma()
    inner, lhs_path, rhs_path = _multiplication_paths(induced_candidate(th, "par"))
    lhs, rhs = lhs_path(), rhs_path()
    rel = lambda a, b: fm.model_equal(th, a, b)
    strict = strong_equal(lhs, rhs, 4096, value_eq=rel)
    weak = weak_bisim(lhs, rhs, rel, 4096)
    counts = (step_count(lhs), step_count(rhs))
    witness = lambda: _witness(fm.value_str(inner), lhs_path, rhs_path,
                               lambda d: render_delay(d, fm.value_str), seen=(lhs, rhs),
                               note=f"same value after {counts[0]} step vs {counts[1]} steps")
    entry = _entry("MultT", [strict], witness)
    entry.predicted = True
    entry.prediction_note = prediction_for_failure(th, "par", "strict", "MultT")
    weak_entry = _entry("MultT", [weak], witness)
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
    if isinstance(d, Step):
        return delay_n(d.steps - 1, d.value)
    return d if d is DIVERGE else Now(fm.apply_op(th, "bang", [d.value]))


def _after(n: int, v: Any, t: int, th: Theory) -> Any:
    """The value ``v`` of a finished factor of a product after ``t`` ≥ ``n``
    lockstep steps: its own ``n`` steps go first, then ``bang`` absorbs
    each further one."""
    for _ in range(t - n):
        v = fm.apply_op(th, "bang", [v])
    return v


def _mul(a: Delay, b: Delay, th: Theory) -> Delay:
    # Each step strips one guard from each side, banging a finished side,
    # until both have finished; a divergent side makes the product diverge.
    if a is DIVERGE or b is DIVERGE:
        return DIVERGE
    na = a.steps
    nb = b.steps
    t = max(na, nb)
    values = [_after(na, a.value, t, th), _after(nb, b.value, t, th)]
    return delay_n(t, fm.apply_op(th, "mul", values))


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
    _, lhs, rhs = _multiplication_paths(custom_candidate(
        idempotent_unary_theory(), "custom:step-absorbing", step_absorbing_lift))
    return lhs(), rhs()
