"""The expected table: what every benchmark item must return.

Verdicts, ``predicted`` flags and exit codes are written from the documented
outcomes: the README, ``tests/test_acceptance.py``, the comments in the
theory files and the prediction rules the README states (the sequential
lifting cannot preserve unbalanced equations; the parallel lifting always
miscounts steps on the second multiplication axiom under strict equality
when an operation takes two or more arguments; dropped variables can hide
divergence).  Case counts come from an independent count of each universe
below, which builds canonical forms directly (all lists up to a length, all
subsets up to a size, ...) instead of applying operations round by round as
the program does.  Nothing in this file is read from a run of delaydist.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Dict, Tuple

AXIOMS = ("UnitS", "UnitT", "MultS", "MultT", "Naturality",
          "EquationPreservation", "MonadLaws")

# the canonical carrier of each built-in theory the count model covers
CARRIER = {"magma": "tree", "monoid": "list", "cmonoid": "multiset",
           "semilattice": "finset"}

# equations of the built-ins as (name, number of distinct variables)
EQUATIONS = {
    "magma": (),
    "monoid": (("lunit", 1), ("runit", 1), ("assoc", 3)),
    "cmonoid": (("lunit", 1), ("runit", 1), ("assoc", 3), ("comm", 2)),
    "semilattice": (("lunit", 1), ("runit", 1), ("assoc", 3), ("comm", 2),
                    ("idem", 1)),
}


# ---------------------------------------------------------------------------
# independent universe-size model


def closure(kind: str, atoms: Tuple, depth: int) -> frozenset:
    """Every element of depth at most ``depth`` over ``atoms``, as canonical
    forms: trees for the free magma, tuples for lists, sorted tuples for
    multisets and frozensets for finite sets.  Lists, multisets and sets of
    depth d are exactly those with at most 2**d entries."""
    if kind == "tree":
        level = {("leaf", a) for a in atoms}
        for _ in range(depth):
            level = {("leaf", a) for a in atoms} | {("mul", l, r) for l in level for r in level}
        return frozenset(level)
    longest = 2 ** depth
    if kind == "list":
        return frozenset(t for n in range(longest + 1) for t in product(atoms, repeat=n))
    if kind == "multiset":
        return frozenset(t for n in range(longest + 1)
                         for t in combinations_with_replacement(atoms, n))
    if kind == "finset":
        return frozenset(frozenset(c) for n in range(min(longest, len(atoms)) + 1)
                         for c in combinations(atoms, n))
    raise ValueError(kind)


def size(kind: str, generators: int, depth: int) -> int:
    """Closed forms of ``len(closure(kind, range(generators), depth))``."""
    if kind == "tree":
        n = generators
        for _ in range(depth):
            n = generators + n * n
        return n
    longest = 2 ** depth
    if kind == "list":
        return sum(generators ** n for n in range(longest + 1))
    if kind == "multiset":
        return sum(comb(generators + n - 1, n) for n in range(longest + 1))
    if kind == "finset":
        return sum(comb(generators, n) for n in range(min(longest, generators) + 1))
    raise ValueError(kind)


def delays(values: int, steps: int, diverge: bool) -> int:
    """Delays of 0..steps steps over the values, plus divergence."""
    return values * (steps + 1) + int(diverge)


def double_delays(values: int, steps: int, diverge: bool) -> int:
    """Delays of delays whose two step counts add up to at most ``steps``;
    divergence appears at both layers."""
    return values * (steps + 1) * (steps + 2) // 2 + 2 * int(diverge)


@lru_cache(maxsize=None)
def nested_size(kind: str, generators: int, depth: int) -> int:
    """Elements of elements: the outer and inner depths add up to ``depth``,
    and the same nested element reached through two splits counts once."""
    atoms = tuple(range(generators))
    seen = set()
    for outer in range(depth + 1):
        inner = tuple(sorted(closure(kind, atoms, depth - outer), key=repr))
        seen.update(closure(kind, inner, outer))
    return len(seen)


def universe_sizes(theory: str, b: Dict) -> Dict[str, int]:
    """Case counts of a suite on a canonical carrier whose every axiom
    holds: each scan then visits its whole universe."""
    kind = CARRIER[theory]
    c, s, d = b["carrier_size"], b["max_steps"], b["max_depth"]
    div = b.get("include_diverge", False)
    sizes = sorted({1, min(2, c), c})
    naturality = sum(ny ** nx * size(kind, delays(nx, min(s, 2), div), min(d, 2))
                     for nx in sizes for ny in sizes)
    models = size(kind, c, min(d, 1))
    env = delays(models, s, div)
    eqpres = sum(env ** nvars for _, nvars in EQUATIONS[theory])
    # composite monad laws: continuation tables map each value to one of
    # the first three depth-one elements after 0 or 1 steps
    elements = (min(s, 2) + 1) * models
    tables = (2 * min(3, models)) ** c
    return {
        "UnitS": delays(c, s, div),
        "UnitT": size(kind, c, d),
        "MultS": nested_size(kind, delays(c, s, div), d),
        "MultT": size(kind, double_delays(c, s, div), d),
        "Naturality": naturality,
        "EquationPreservation": eqpres,
        "MonadLaws": kleisli_cases(c, elements, tables),
    }


def kleisli_cases(values: int, elements: int, tables: int) -> int:
    """Left unit per (table, value), right unit per element, associativity
    per (element, table, table)."""
    return tables * values + elements + elements * tables * tables


def delay_monad_law_cases(max_steps: int, values: int) -> int:
    elements = delays(values, max_steps, True)
    tables = min(400, (3 * values + 1) ** values)
    return kleisli_cases(values, elements, tables)


def state_monad_law_cases(values: int, max_steps: int, states: int = 2) -> int:
    components = (min(max_steps, 2) + 1) * states * values + 1
    small = 2 * values + 1
    return kleisli_cases(values, components ** states, small ** values)


# ---------------------------------------------------------------------------
# canonical-pass: every case checked, every verdict yes (acceptance
# criteria 1, 7, 8 and 9)

PASSING_COMBOS = {
    "exceptions": AXIOMS,
    "reader": AXIOMS[:5],
    "writer": AXIOMS[:5],
    "selection": AXIOMS[:5],
    "yang-baxter": ("YangBaxter",),
    "state": ("MonadLaws", "StepAdditivity", "GsdAlgebraLaws", "GsdExtension",
              "GsdHomomorphism"),
    "sum": ("MonadLaws", "FreeExtension", "Uniqueness", "GuardInvariant"),
}


# ---------------------------------------------------------------------------
# refute-early: documented counterexamples

# (theory, lift, axiom), all strict: every one is a No flagged as
# predicted; the sequential rows come from the unbalanced idempotence
# equations, the parallel rows from the strict step miscount
REFUTATIONS = (
    ("semilattice", "seq", "MultT"),
    ("semilattice", "seq", "EquationPreservation"),
    ("convex", "seq", "MultT"),
    ("monoid", "par", "MultT"),
    ("cmonoid", "par", "MultT"),
    ("magma", "par", "MultT"),
)

# Documented sizing: semilattice under the sequential lifting at the
# default bounds finds its MultT counterexample at case 64 of a 6,196-input
# universe.
DOCUMENTED_CASES = {("semilattice", "seq", "MultT", (2, 3, 2)): (64, 6196)}

# mixing weights for convex(p); every weight's theory has the same
# idempotence equation, so every weight refutes the same way
CONVEX_POOL = tuple(Fraction(n, d) for n, d in
                    ((1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5)))

CONTINUATION = {"AlgebraLaws": "yes", "CarrierRecovery": "yes",
                "RetractIdentity": "yes", "MuSquare": "no"}


def powerset_clash(op1: str, op_prime: str, branch: str) -> str:
    """Clash kind of the refutation of one powerset configuration, read off
    the shape of its derivation.  ``op1`` and ``op_prime`` are one of
    ``∅``, ``x``, ``y``, ``x ∪ y``.

    A non-union op1 derives a plain set-algebra equation (x = ∅ or x = y),
    refuted in the diamond model.  With op1 the union, a degenerate op'
    pins op'(now x, step(now y)) to two values: under Eq1 both sides are
    immediate unless op' picks the stepped y; under Eq2 the right-step
    clause adds a step, so the sides clash on steps unless op' already
    picked the stepped y.  Union for both operations derives one step
    equal to two."""
    if op1 != "x ∪ y":
        return "ModelRefutation"
    if op_prime == "x ∪ y":
        return "StepEqDoubleStep"
    stepped = op_prime == "y"
    if branch == "Eq1":
        return "StepEqNow" if stepped else "ModelRefutation"
    return "ModelRefutation" if stepped else "StepEqNow"


POWERSET_CONFIGS = 32


def distribution_exponent(p: Fraction, branch: str) -> int:
    """Delay exponent of the mixture replay: Eq1 needs the least n with
    2**-n <= 1 - p, Eq2 the least n with (1 - p)**n <= 1/2 (acceptance
    criterion 5 states the Eq1 form)."""
    base, bound = (Fraction(1, 2), 1 - p) if branch == "Eq1" else (1 - p, Fraction(1, 2))
    n, cur = 1, base
    while cur > bound:
        n += 1
        cur *= base
    return n


def distribution_pool(max_denominator: int = 64) -> Tuple[Fraction, ...]:
    return tuple(sorted({Fraction(n, d) for d in range(2, max_denominator + 1)
                         for n in range(1, d)}))


# ---------------------------------------------------------------------------
# quotient-rewrite: user theories through the CLI

EXIT_OK = 0

# (file, lift, relation) -> pinned verdicts; axioms left out are checked
# for agreement between presentations, not against a documented value
QUOTIENT = {
    # band.th: "the duplication breaks the sequential lifting ... while the
    # parallel one is fine"
    ("band", "seq", "strict"): {"EquationPreservation": "no"},
    ("band", "par", "weak"): {a: "yes" for a in AXIOMS},
    # leftzero.th: "the absorbing constant drops y, so the parallel lifting
    # cannot wait for y's steps"; with divergence in the universe the
    # dropped variable hides it
    ("leftzero", "seq", "strict"): {"EquationPreservation": "no"},
    ("leftzero", "par", "weak"): {"EquationPreservation": "no"},
    # idempotent_unary.th: "check it with --lift custom:step-absorbing to
    # see the positive case" (acceptance criterion 6 for the built-in)
    ("idempotent_unary", "custom:step-absorbing", "strict"): {a: "yes" for a in AXIOMS},
    ("idempotent_unary", "par", "weak"): {a: "yes" for a in AXIOMS},
    ("idempotent_unary", "seq", "strict"): {"EquationPreservation": "no"},
}

# The file version of idempotent-unary and the built-in must agree; at the
# parent commit they do not under the sequential lifting (the file version
# answers yes on MultS, MultT and Naturality where the built-in answers no).
KNOWN_DISCREPANCIES = {
    "idempotent-unary:file-vs-builtin:seq":
        "theories/idempotent_unary.th and the built-in idempotent-unary "
        "disagree under --lift seq",
}

