"""Helpers shared by the test modules."""

import pytest

from delaydist import combos, laws
from delaydist.delay import NO, YES
from delaydist.laws import AxiomOutcome, Witness


def reference_monad_laws_kleisli(unit_fn, bind_fn, elements, value_set, k_pool, compare,
                                 render=str) -> AxiomOutcome:
    """The Kleisli monad-law scan with both sides of every case computed
    afresh: the reference that :func:`laws.check_monad_laws_kleisli`,
    which shares binds between cases, must agree with."""
    cases = 0
    first_unknown = None

    def record(v, make_witness):
        nonlocal first_unknown
        if v.is_no:
            return AxiomOutcome(NO, cases, make_witness())
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
    if first_unknown is not None:
        return AxiomOutcome(first_unknown, cases)
    return AxiomOutcome(YES, cases)


@pytest.fixture
def use_reference_kleisli(monkeypatch):
    """Call to route every monad-law scan, in laws and in combos, through
    the reference scan for the rest of the test."""

    def use():
        for module in (laws, combos):
            monkeypatch.setattr(module, "check_monad_laws_kleisli",
                                reference_monad_laws_kleisli)

    return use
