"""Other monad pairings with the delay monad.

Each pairing runs through the same axiom engine; the continuation
pairing is the documented negative (its composite multiplication square
fails) and everything else passes at the default bounds."""

import pytest

from delaydist import combos
from delaydist.delay import YES, Now, Terminated, delay_n, dmap, force, peel
from delaydist.laws import AxiomOutcome, Witness
from delaydist.laws import TestUniverse as Universe

SMALL = Universe(carrier_size=2, max_steps=2, max_depth=2)


@pytest.fixture(scope="module")
def default_reports():
    u = Universe()
    return {name: combos.combo_report(name, u) for name in combos.COMBO_NAMES}


def test_every_combo_has_no_unexpected_failures(default_reports):
    for name, r in default_reports.items():
        assert not r.unexpected_failures, name
        assert not r.has_unknown, name


@pytest.mark.parametrize("name", ["exceptions", "reader", "writer", "selection"])
def test_beck_axioms_all_yes(default_reports, name):
    r = default_reports[name]
    for axiom in ("UnitS", "UnitT", "MultS", "MultT", "Naturality"):
        e = r.entry(axiom)
        assert e.verdict.is_yes, (name, axiom)
        assert e.cases > 0 or axiom == "EquationPreservation"


def test_yang_baxter_hexagon(default_reports):
    e = default_reports["yang-baxter"].entry("YangBaxter")
    assert e.verdict.is_yes
    assert e.cases > 0


def test_state_monad_laws_and_step_additivity(default_reports):
    r = default_reports["state"]
    assert r.entry("MonadLaws").verdict.is_yes
    add = r.entry("StepAdditivity")
    assert add.verdict.is_yes
    assert add.cases > 0


def test_state_includes_gsd_block(default_reports):
    r = default_reports["state"]
    for axiom in ("GsdAlgebraLaws", "GsdExtension", "GsdHomomorphism"):
        assert r.entry(axiom).verdict.is_yes


def test_continuation_retraction_and_failing_square(default_reports):
    r = default_reports["continuation"]
    assert r.entry("RetractIdentity").verdict.is_yes
    mu = r.entry("MuSquare")
    assert mu.verdict.is_no
    assert mu.predicted
    assert mu.witness is not None


def test_continuation_at_carrier_size_one():
    r = combos.combo_report("continuation", Universe(carrier_size=1, max_steps=1, max_depth=1))
    assert r.entry("RetractIdentity").verdict.is_yes
    assert r.entry("MuSquare").verdict.is_no
    assert not r.unexpected_failures


def test_sum_free_extension(default_reports):
    r = default_reports["sum"]
    for axiom in ("MonadLaws", "FreeExtension", "Uniqueness", "GuardInvariant"):
        assert r.entry(axiom).verdict.is_yes


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        combos.combo_report("frobnitz", Universe())


def test_writer_steps_preserved_exact():
    v = combos.writer_steps_preserved(combos.bool_and_monoid(), ("a", "b"), 4)
    assert v.is_yes


def test_gsd_standalone():
    r = combos.check_gsd(SMALL)
    assert r.entry("GsdAlgebraLaws").verdict.is_yes
    assert r.entry("GsdExtension").verdict.is_yes
    assert r.entry("GsdHomomorphism").verdict.is_yes


def test_continuation_scan_stops_at_its_first_failure(monkeypatch):
    # an algebra that sends every stepped input to the carrier's last value
    # first fails on the first table after one step: 16 tables finished
    # at once pass, then case 17 (no steps) passes and case 18 fails
    def wrong_alg(self, d):
        out = force(d, self.fuel)
        if isinstance(out, Terminated):
            return out.value if out.steps == 0 else self.carrier[-1]
        return self.default

    monkeypatch.setattr(combos.DelayAlgebra, "alg", wrong_alg)
    r = combos.check_continuation(Universe(carrier_size=2, max_steps=1, max_depth=1))
    e = r.entry("AlgebraLaws")
    first = combos.fun_space(combos.fun_space(combos.base_values(2), (0, 1)), (0, 1))[0]
    assert e.verdict.is_no
    assert e.cases == 18
    assert e.witness.input_render == f"1 steps on {first}"
    w = e.witness
    assert w.lhs_render and w.rhs_render == str(first)
    assert w.replay() == (w.lhs_render, w.rhs_render)


def test_gsd_homomorphism_scan_stops_at_its_first_failure(monkeypatch):
    # an extension that never writes the state back commutes with lookup
    # and step but not with update: the first update case fails, right
    # after the 16 lookup cases
    def forgetful_extend(f, alg):
        return lambda m: combos.DelayedState(combos.FinFun.tabulate(
            alg.states, lambda t: dmap(m.run(t), lambda sx: (t, sx[1]))))

    monkeypatch.setattr(combos, "gsd_extend", forgetful_extend)
    u = Universe(carrier_size=1, max_steps=2, max_depth=1)
    r = combos.check_gsd(u)
    e = r.entry("GsdHomomorphism")
    first = combos.canonical_gsd((0, 1), ("x0",), u.derived_fuel()).samples[0]
    assert e.verdict.is_no
    assert e.cases == 17
    assert e.witness.input_render == f"update {first} at 0"
    w = e.witness
    assert w.lhs_render and w.rhs_render
    assert w.replay() == (w.lhs_render, w.rhs_render)


def test_retract_standalone():
    r = combos.retract_check(SMALL)
    assert r.entry("RetractIdentity").verdict.is_yes
    assert r.entry("MuSquare").verdict.is_no


def test_yang_baxter_standalone_entry():
    e = combos.yang_baxter_check(SMALL)
    assert e.axiom == "YangBaxter"
    assert e.verdict.is_yes


def test_selector_descriptions_render_only_when_printed(monkeypatch):
    xs = ("a", "b")
    table = combos.fun_space(combos.fun_space(xs, (0, 1)), xs)[5]
    text = str(table)
    rendered = []
    finfun_str = combos.FinFun.__str__

    def counting(self):
        rendered.append(self is table)
        return finfun_str(self)

    monkeypatch.setattr(combos.FinFun, "__str__", counting)
    sel = combos.sel_from_table(table, xs)
    nested = combos.phi(combos.jd_fmap(combos.phi, sel))
    assert rendered == []
    assert str(sel) == text
    assert str(nested) == f"phi(mapJD({text}))"
    assert rendered.count(True) == 2


@pytest.mark.parametrize("name", ["state", "sum"])
def test_monad_laws_match_the_reference_scan(use_reference_kleisli, name):
    u = Universe(carrier_size=2, max_steps=1, max_depth=1)
    shared = combos.combo_report(name, u)
    assert shared.entry("MonadLaws").verdict.is_yes
    use_reference_kleisli()
    assert combos.combo_report(name, u).entries == shared.entries


def _lossy_state_bind(bind):
    """``StateOps.bind`` that loses one step of every result that takes
    two or more, which breaks right unit and step additivity."""

    def lossy(self, m, k):
        bound = bind(self, m, k)

        def at(s):
            n, end = peel(bound.run(s))
            return delay_n(n - 1, end.value) if n >= 2 and isinstance(end, Now) else bound.run(s)

        return combos.DelayedState(combos.FinFun.tabulate(self.states, at))

    return lossy


def test_state_first_no_matches_the_reference_scan(monkeypatch, use_reference_kleisli):
    monkeypatch.setattr(combos.StateOps, "bind", _lossy_state_bind(combos.StateOps.bind))
    r = combos.check_state(Universe())
    laws_entry, additivity = r.entry("MonadLaws"), r.entry("StepAdditivity")
    assert (laws_entry.verdict.kind, laws_entry.cases) == ("no", 59)
    assert laws_entry.witness.input_render.startswith("right unit at")
    assert laws_entry.witness.replay() == (laws_entry.witness.lhs_render,
                                           laws_entry.witness.rhs_render)
    # the first additivity failure, as found binding afresh for every state
    assert (additivity.verdict.kind, additivity.cases) == ("no", 118)
    assert additivity.witness == Witness("m=[0↦0·step ▸ (0, a), 1↦1·step ▸ (0, a)], s=1",
                                         "Terminated(value=(0, 'a'), steps=1)",
                                         "expected 1+1 steps")
    use_reference_kleisli()
    assert combos.check_state(Universe()).entries == r.entries


def test_step_additivity_binds_once_per_m_and_k(monkeypatch):
    calls = [0]
    bind = combos.StateOps.bind

    def counting(self, m, k):
        calls[0] += 1
        return bind(self, m, k)

    monkeypatch.setattr(combos.StateOps, "bind", counting)
    monkeypatch.setattr(combos, "check_monad_laws_kleisli",
                        lambda *args: AxiomOutcome(YES, 0))
    r = combos.check_state(Universe())
    assert r.entry("StepAdditivity").cases == 60 * 12 * 2
    assert calls[0] == 60 * 12  # the first 60 elements against the first 12 tables
