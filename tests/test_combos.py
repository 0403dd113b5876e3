"""Other monad pairings with the delay monad.

Each pairing runs through the same axiom engine; the continuation
pairing is the documented negative (its composite multiplication square
fails) and everything else passes at the default bounds."""

import dataclasses
import gc
import itertools
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (peel, reference_phi, reference_pred_call, reference_psi,
                      reference_retract_identity, reference_sel, reference_sel_query,
                      reference_tabulate, writer_steps_preserved)
from delaydist import combos
from delaydist import freemodel as fm
from delaydist.delay import (DIVERGE, NO, YES, Now, Step, Terminated, delay_n, dmap, force,
                             step_count, strong_equal)
from delaydist import laws
from delaydist.laws import LawEntry, Witness, report_from_json_dict
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


def test_the_uniqueness_witness_replays_the_separation(default_reports, monkeypatch):
    w = default_reports["sum"].entry("Uniqueness").witness
    recorded = ("guard-blind gives 1 on the guarded tree", "a guard-respecting map must give 11")
    assert (w.lhs_render, w.rhs_render) == recorded
    assert w.replay() == recorded
    # the replay evaluates a guard-blind map again; the recorded sides stay
    monkeypatch.setattr(combos, "_SumExtension", lambda *args: lambda e: 0)
    assert w.replay() == ("guard-blind gives 0 on the guarded tree",
                          "a guard-respecting map must give 10")
    assert (w.lhs_render, w.rhs_render) == recorded


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        combos.combo_report("frobnitz", Universe())


BECK = ["UnitS", "UnitT", "MultS", "MultT", "Naturality"]
REPORT_SHAPES = {
    "exceptions": ("exceptions", "custom:exceptions", BECK + ["EquationPreservation",
                                                              "MonadLaws"]),
    "reader": ("reader", "custom:reader", BECK),
    "writer": ("writer", "custom:writer", BECK),
    "yang-baxter": ("yang-baxter", "custom:yang-baxter", ["YangBaxter"]),
    "state": ("state", "custom:state", ["MonadLaws", "StepAdditivity", "GsdAlgebraLaws",
                                        "GsdExtension", "GsdHomomorphism"]),
    "selection": ("selection", "custom:selection", BECK),
    "continuation": ("continuation", "custom:continuation",
                     ["AlgebraLaws", "CarrierRecovery", "RetractIdentity", "MuSquare"]),
    "sum": ("sum", "custom:sum", ["MonadLaws", "FreeExtension", "Uniqueness", "GuardInvariant"]),
}


@pytest.mark.parametrize("name", combos.COMBO_NAMES)
def test_report_shape(name):
    u = Universe(carrier_size=1, max_steps=1, max_depth=1)
    r = combos.combo_report(name, u)
    assert (r.theory, r.mode, [e.axiom for e in r.entries]) == REPORT_SHAPES[name]
    assert (r.relation, r.bounds) == ("strict", u.bounds_dict())
    assert report_from_json_dict(json.loads(r.to_json())) == r


def test_the_parts_of_a_pairing_report_alone():
    u = Universe(carrier_size=1, max_steps=1, max_depth=1)
    for r, shape in [(combos.retract_check(u), ("retract", ["RetractIdentity", "MuSquare"])),
                     (combos.check_gsd(u), ("gsd", ["GsdAlgebraLaws", "GsdExtension",
                                                    "GsdHomomorphism"]))]:
        assert (r.theory, [e.axiom for e in r.entries]) == shape


def test_exceptions_is_the_suite_under_its_own_name():
    u = Universe(carrier_size=1, max_steps=1, max_depth=1)
    r = combos.check_exceptions(u)
    th = fm.exceptions(2)
    cand = combos.custom_candidate(th, "custom:exceptions", combos.seq_lift_op)
    suite = laws.run_suite(th, cand, u)
    assert (r.theory, suite.theory) == ("exceptions", th.name)
    assert not laws.guaranteed_configuration(th, cand.induced, u.relation)
    assert r.entries == suite.entries and (r.mode, r.relation, r.bounds) == (
        suite.mode, suite.relation, suite.bounds)


def test_writer_steps_preserved_exact():
    v = writer_steps_preserved(combos.bool_and_monoid(), ("a", "b"), 4)
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
        out = force(d, combos.ALGEBRA_FUEL)
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


def test_step_additivity_catches_a_bind_that_outruns_a_diverging_stage(monkeypatch):
    # a bind that finishes where its continuation diverges: the first such
    # case is m = [0↦(0, a), 1↦(0, b)] against the fifth table, which sends
    # b to divergence, at state 1
    bind = combos.StateOps.bind

    def finishing(self, m, k):
        bound = bind(self, m, k)
        return combos.DelayedState(combos.FinFun.tabulate(
            self.states, lambda s: Now((s, "a")) if bound.run(s) is DIVERGE else bound.run(s)))

    monkeypatch.setattr(combos.StateOps, "bind", finishing)
    e = combos.check_state(Universe()).entry("StepAdditivity")
    assert (e.verdict.kind, e.cases) == ("no", 12 * 2 + 4 * 2 + 2)
    assert e.witness.rhs_render == "no termination: the second stage diverges"
    assert e.witness.replay() == (e.witness.lhs_render, e.witness.rhs_render)


def test_step_additivity_witness_replays(monkeypatch):
    monkeypatch.setattr(combos.StateOps, "bind", _lossy_state_bind(combos.StateOps.bind))
    w = combos.check_state(Universe()).entry("StepAdditivity").witness
    assert w.replay() == (w.lhs_render, w.rhs_render)


def _state_bind_at(bind, reshape):
    """``StateOps.bind`` with each state's result passed through
    ``reshape(first-stage steps, bound steps, end)``."""

    def reshaped(self, m, k):
        bound = bind(self, m, k)

        def at(s):
            n, end = peel(bound.run(s))
            return reshape(peel(m.run(s))[0], n, end) if isinstance(end, Now) else bound.run(s)

        return combos.DelayedState(combos.FinFun.tabulate(self.states, at))

    return reshaped


@pytest.mark.parametrize("reshape,cases,lhs,rhs", [
    # a bind that drops every step of a first stage past the fuel finishes
    # within it; first at m = [0↦(0, a), 1↦2·step ▸ (0, a)], the first table, state 1
    (lambda first, n, end: end if first >= 2 else delay_n(n, end.value), 4 * 6 + 2,
     "Terminated(value=(0, 'a'), steps=0)",
     "expected more steps than the fuel: the first stage runs out of it"),
    # a bind that pads a one-step result to two outruns the fuel where
    # its stages finish within it: first at m = [0↦(0, a), 1↦(0, a)], the
    # second table (one step), state 0
    (lambda first, n, end: delay_n(2 if n == 1 else n, end.value), 3,
     "EXHAUSTED", "expected 0+1 steps"),
])
def test_step_additivity_refutes_past_the_fuel_by_arithmetic(monkeypatch, reshape, cases,
                                                             lhs, rhs):
    monkeypatch.setattr(combos.StateOps, "bind",
                        _state_bind_at(combos.StateOps.bind, reshape))
    r = combos.check_state(Universe(carrier_size=1, max_steps=2, max_depth=1, fuel=1))
    e = r.entry("StepAdditivity")
    assert (e.verdict.kind, e.cases) == ("no", cases)
    assert (e.witness.lhs_render, e.witness.rhs_render) == (lhs, rhs)
    assert e.witness.replay() == (lhs, rhs)


def test_step_additivity_replay_binds_afresh(monkeypatch):
    lossy = _lossy_state_bind(combos.StateOps.bind)
    monkeypatch.setattr(combos.StateOps, "bind", lossy)
    w = combos.check_state(Universe()).entry("StepAdditivity").witness
    # a bind restored after the scan shows in the replay, so the replay
    # did not reuse the scan's bind
    monkeypatch.undo()
    assert w.replay() != (w.lhs_render, w.rhs_render)


@pytest.mark.parametrize("fuel,algebra", [(1, "unknown"), (2, "yes")])
def test_state_out_of_fuel_is_unknown(fuel, algebra):
    # at fuel 2 a bind of 2 + 1 steps runs out; at fuel 1 the step laws
    # of the algebra cannot be decided either.  Neither is a No
    r = combos.check_state(Universe(carrier_size=1, max_steps=2, max_depth=1, fuel=fuel))
    add = r.entry("StepAdditivity")
    assert add.verdict.kind == "unknown" and add.witness is None
    assert add.cases == 294  # every case, not only those before the first Unknown
    assert r.entry("GsdAlgebraLaws").verdict.kind == algebra
    assert not any(e.verdict.is_no for e in r.entries)


def test_gsd_validation_keeps_unknowns_apart_from_failures():
    alg = combos.canonical_gsd((0, 1), ("x0",), 1)
    verdicts = combos.validate_gsd(alg)
    assert tuple(verdicts) == combos.GSD_LAWS
    assert {law for law, v in verdicts.items() if not v.is_yes} == {"step-lookup",
                                                                    "step-update"}
    assert not any(v.is_no for v in verdicts.values())
    combos.gsd_extend({"x0": combos.StateOps((0, 1)).unit("x0")}, alg)  # does not raise


def test_check_gsd_validates_its_algebra_once(monkeypatch):
    # the GsdAlgebraLaws entry and the extension share one validation
    calls = []
    validate = combos.validate_gsd
    monkeypatch.setattr(combos, "validate_gsd", lambda alg: calls.append(alg) or validate(alg))
    for fuel in (1, 2, None):
        calls.clear()
        r = combos.check_gsd(Universe(carrier_size=1, max_steps=2, max_depth=1, fuel=fuel))
        assert len(calls) == 1
        assert not r.entry("GsdAlgebraLaws").verdict.is_no
    # an algebra is validated once however often it is extended
    alg = combos.canonical_gsd((0, 1), ("x0",), 4)
    calls.clear()
    for _ in range(2):
        combos.gsd_extend({"x0": combos.StateOps((0, 1)).unit("x0")}, alg)
    assert len(calls) == 1


def test_wrong_gsd_algebra_raises():
    # an update that ignores the state it is given breaks update-lookup
    alg = dataclasses.replace(combos.canonical_gsd((0, 1), ("x0",), 64),
                              update=lambda y, s: y)
    with pytest.raises(combos.GsdAlgebraError) as err:
        combos.gsd_extend({"x0": combos.StateOps((0, 1)).unit("x0")}, alg)
    assert "update-lookup" in err.value.failed
    assert all(combos.validate_gsd(alg)[law].is_no for law in err.value.failed)


def test_gsd_extension_witness_replays(monkeypatch):
    # an extension that puts back the state it started from fixes the
    # generator but not a sample that changes the state
    def forgetful_extend(f, alg):
        return lambda m: combos.DelayedState(combos.FinFun.tabulate(
            alg.states, lambda t: dmap(m.run(t), lambda sx: (t, sx[1]))))

    monkeypatch.setattr(combos, "gsd_extend", forgetful_extend)
    e = combos.check_gsd(Universe(carrier_size=1, max_steps=2, max_depth=1)).entry(
        "GsdExtension")
    assert e.verdict.is_no
    assert e.witness.input_render.startswith("sample ")
    assert e.witness.replay() == (e.witness.lhs_render, e.witness.rhs_render)


def test_free_extension_and_guard_invariant_witnesses_replay(monkeypatch):
    u = Universe(carrier_size=2, max_steps=1, max_depth=1)
    monkeypatch.setattr(combos, "sum_free_extension", lambda *args: lambda e: 0)
    monkeypatch.setattr(combos.SumOps, "bind", lambda self, e, k: self.pure("a"))
    r = combos.check_sum(u)
    ext, guards = r.entry("FreeExtension"), r.entry("GuardInvariant")
    # the first element, pure a, evaluates to 1, not 0
    assert (ext.verdict.kind, ext.cases) == ("no", 1)
    # a bind that drops every guard keeps the 2 x 6 unguarded cases and
    # fails on the first guarded element
    assert (guards.verdict.kind, guards.cases) == ("no", 13)
    assert guards.witness.input_render == fm.value_str(combos.SumOps(fm.semilattice()).later(
        combos.SumOps(fm.semilattice()).pure("a")))
    for e in (ext, guards):
        assert e.witness.replay() == (e.witness.lhs_render, e.witness.rhs_render)


def test_guard_invariant_walks_each_original_once(monkeypatch):
    calls = [0]
    walk = combos.SumOps.guard_depths

    def counting(self, e):
        calls[0] += 1
        return walk(self, e)

    monkeypatch.setattr(combos.SumOps, "guard_depths", counting)
    e = combos.check_sum(Universe(carrier_size=2, max_steps=1, max_depth=1)).entry(
        "GuardInvariant")
    assert e.verdict.is_yes
    # one walk of each bound tree, and one of each original for its 6 tables
    assert calls[0] == e.cases + e.cases // 6


def test_sum_leaves_no_closure_in_cyclic_garbage():
    # the pairing builds its own theory, which keeps its carrier, which
    # refers back to it; no function or closure cell is part of a cycle.
    # The report's Uniqueness witness replays through that theory, so the
    # theory is garbage only once the report is dropped
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        r = combos.check_sum(Universe(carrier_size=2, max_steps=1, max_depth=1))
        unexpected = [e.axiom for e in r.unexpected_failures]
        del r
        gc.collect()
        kinds = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not unexpected
    assert kinds and not kinds & {"function", "cell"}


def test_mu_square_unknowns_are_not_a_yes(monkeypatch):
    # both multiplications answer every predicate after 2 steps, so under
    # fuel 1 no case is decided: the square is Unknown over all 40 x 24
    # cases, not a yes.  The scan's right side is mu_square_rhs, the
    # replay's is mu_composite: both answer the same two steps
    constant = lambda *args: combos.Sel(lambda p: delay_n(2, "a"), lambda: "two steps")
    monkeypatch.setattr(combos, "mu_composite", constant)
    monkeypatch.setattr(combos, "mu_square_rhs", lambda ff, p: delay_n(2, "a"))
    monkeypatch.setattr(combos, "mu_delayed_result", constant)
    e = combos.retract_check(Universe(carrier_size=2, max_steps=1, max_depth=1, fuel=1)).entry(
        "MuSquare")
    assert e.verdict.kind == "unknown"
    assert e.cases == 40 * 24
    assert e.witness is None and not e.predicted


@pytest.mark.parametrize("carrier_size", [1, 2])
def test_retract_identity_continues_past_an_unknown(carrier_size):
    u = Universe(carrier_size=carrier_size, max_steps=1, max_depth=1, fuel=1)
    entry = combos.retract_check(u).entry("RetractIdentity")
    assert entry.verdict.kind == "unknown"
    assert entry.cases == (32, 9604)[carrier_size - 1]
    assert entry.witness is None
    assert entry == reference_retract_identity(u)


def test_combo_report_dispatches_yang_baxter_like_any_pairing():
    r = combos.combo_report("yang-baxter", SMALL)
    assert (r.theory, r.mode) == ("yang-baxter", "custom:yang-baxter")
    assert r.entries == [combos.yang_baxter_check(SMALL)]
    assert combos.COMBO_NAMES == tuple(combos.COMBOS)


def test_step_additivity_binds_once_per_m_and_k(monkeypatch):
    calls = [0]
    bind = combos.StateOps.bind

    def counting(self, m, k):
        calls[0] += 1
        return bind(self, m, k)

    monkeypatch.setattr(combos.StateOps, "bind", counting)
    monkeypatch.setattr(combos, "check_monad_laws_kleisli",
                        lambda *args: LawEntry("MonadLaws", YES, 0))
    r = combos.check_state(Universe())
    assert r.entry("StepAdditivity").cases == 60 * 12 * 2
    assert calls[0] == 60 * 12  # the first 60 elements against the first 12 tables


# ---------------------------------------------------------------------------
# the retraction on table-backed selectors against the lambda reference


def _retract_pool(carrier_size, rs=(0, 1)):
    xs = combos.base_values(carrier_size)
    p_tables = combos.fun_space(xs, rs)
    return xs, combos.fun_space(p_tables, combos.delay_values(xs, 2, True))


@pytest.mark.parametrize("carrier_size", [1, 2])
def test_retract_rows_match_the_lambda_reference(carrier_size):
    xs, tables = _retract_pool(carrier_size)
    p_tables = tables[0].domain
    ralg = combos.DelayAlgebra((0, 1), 0)
    fuel = Universe(carrier_size=carrier_size).derived_fuel()
    rows = combos._row_map(p_tables, xs, ralg, combos.pred_index(p_tables, xs))
    assert rows == tuple(range(len(p_tables)))
    for table in tables:
        back = combos.psi(combos.phi(combos.sel_from_table(table, xs)), ralg)
        lam = reference_psi(reference_phi(reference_sel(table, xs)), ralg)
        for p, row in zip(p_tables, rows):
            assert strong_equal(table.values[row], lam(p), fuel).is_yes, (str(table), str(p))
            assert back(p) is lam(p) is table.values[row]


@pytest.mark.parametrize("carrier_size", [1, 2])
def test_retract_identity_matches_the_reference_scan(carrier_size):
    u = Universe(carrier_size=carrier_size, max_steps=1, max_depth=1)
    entry = combos.retract_check(u).entry("RetractIdentity")
    assert entry.verdict.is_yes
    assert entry.cases == (32, 9604)[carrier_size - 1]
    assert entry == reference_retract_identity(u)


def test_retract_transformer_runs_once_per_predicate_table(monkeypatch):
    calls = [0]
    score = combos.DelayAlgebra.score

    def counting(self, p):
        calls[0] += 1
        return score(self, p)

    monkeypatch.setattr(combos.DelayAlgebra, "score", counting)
    r = combos.retract_check(Universe(carrier_size=2, max_steps=1, max_depth=1))
    assert r.entry("RetractIdentity").cases == 9604
    assert calls[0] == 4  # the 4 predicate tables, not 9,604 cases


@pytest.mark.parametrize("carrier_size", [1, 2])
def test_retract_identity_compares_once_per_pair_of_pooled_delays(monkeypatch, carrier_size):
    calls = [0]
    before_square = []
    compare, inputs = combos.strong_equal, combos.mu_square_inputs

    def counting(*args):
        calls[0] += 1
        return compare(*args)

    def square_starts(*args):
        before_square.append(calls[0])
        return inputs(*args)

    monkeypatch.setattr(combos, "strong_equal", counting)
    monkeypatch.setattr(combos, "mu_square_inputs", square_starts)
    u = Universe(carrier_size=carrier_size, max_steps=1, max_depth=1)
    r = combos.retract_check(u)
    assert r.entry("RetractIdentity").cases == (32, 9604)[carrier_size - 1]
    pool = len(combos.delay_values(combos.base_values(carrier_size), 2, True))
    assert before_square == [pool ** 2] == [(16, 49)[carrier_size - 1]]  # not one per case


def _ordered(x, y, fuel):
    # an order, not an equality: it tells the two sides of a case apart
    def rank(d):
        n = step_count(d)
        return (float("inf") if n is None else n, str(getattr(d, "value", "")))
    return YES if rank(x) <= rank(y) else NO


def test_retract_identity_puts_the_psi_phi_side_first(monkeypatch):
    # under a wrong algebra the rows move, so a case compares two different
    # picks; an order-sensitive comparison shows that the scan compares
    # psi . phi's delay with the table's, as the reference does
    import conftest
    monkeypatch.setattr(combos.DelayAlgebra, "alg", _to_last)
    monkeypatch.setattr(combos, "strong_equal", _ordered)
    monkeypatch.setattr(conftest, "strong_equal", _ordered)
    u = Universe(carrier_size=2, max_steps=1, max_depth=1)
    e = combos.retract_check(u).entry("RetractIdentity")
    assert e.verdict.is_no and e.cases == 5
    assert e == reference_retract_identity(u)


def test_phi_and_psi_are_the_plain_transformers():
    xs, tables = _retract_pool(1)
    ralg = combos.DelayAlgebra((0, 1), 0)
    for table in tables:
        f = combos.sel_from_table(table, xs)
        for p in table.domain:
            assert combos.phi(f)(lambda d: p(d.value)) is reference_phi(f)(lambda d: p(d.value))
            assert combos.psi(combos.phi(f), ralg)(p) is reference_psi(reference_phi(f), ralg)(p)


def test_retract_identity_computes_one_row_map_per_check(monkeypatch):
    calls = []
    row_map = combos._row_map

    def counting(*args):
        calls.append(args[0])
        return row_map(*args)

    monkeypatch.setattr(combos, "_row_map", counting)
    u = Universe(carrier_size=2, max_steps=1, max_depth=1)
    assert combos.retract_check(u).entry("RetractIdentity").cases == 9604
    assert len(calls) == 1
    combos.check_continuation(u)
    assert len(calls) == 2 and calls[1] == calls[0]


def _to_last(self, d):
    out = force(d, combos.ALGEBRA_FUEL)
    return self.carrier[-1] if isinstance(out, Terminated) else self.default


def _swapped(self, d):
    out = force(d, combos.ALGEBRA_FUEL)
    return self.carrier[1 - out.value] if isinstance(out, Terminated) else self.default


@pytest.mark.parametrize("wrong_alg,cases", [(_to_last, 5), (_swapped, 5)])
def test_retract_identity_under_a_wrong_algebra_matches_the_reference(monkeypatch, wrong_alg,
                                                                      cases):
    # a wrong algebra moves psi . phi's rows: the first table whose rows
    # differ there fails, at the same case and with the same witness as
    # the lambda scan; the replay recomputes on the lambda path
    monkeypatch.setattr(combos.DelayAlgebra, "alg", wrong_alg)
    u = Universe(carrier_size=2, max_steps=1, max_depth=1)
    e = combos.retract_check(u).entry("RetractIdentity")
    assert e.verdict.is_no
    assert e.cases == cases
    assert e == reference_retract_identity(u)
    w = e.witness
    assert w.lhs_render != w.rhs_render
    assert w.replay() == (w.lhs_render, w.rhs_render)


def _outside(self, d):
    return "z"


def test_retract_algebra_outside_the_codomain_raises_as_the_reference(monkeypatch):
    # an algebra whose values are no predicate's: the first case cannot
    # find its predicate table, by value tuple or by the reference's scan
    monkeypatch.setattr(combos.DelayAlgebra, "alg", _outside)
    u = Universe(carrier_size=2, max_steps=1, max_depth=1)
    with pytest.raises(ValueError) as ref:
        reference_retract_identity(u)
    with pytest.raises(type(ref.value)) as got:
        combos.retract_check(u)
    assert str(got.value) == str(ref.value)


def test_retract_replay_recomputes_on_the_lambda_path(monkeypatch):
    monkeypatch.setattr(combos.DelayAlgebra, "alg", _to_last)
    w = combos.retract_check(Universe(carrier_size=2, max_steps=1, max_depth=1)).entry(
        "RetractIdentity").witness
    # with table rows read no more, the replay still reaches the same sides
    monkeypatch.setattr(combos, "_row_map", lambda sel: pytest.fail("replay read a row map"))
    assert w.replay() == (w.lhs_render, w.rhs_render)


def test_mu_square_witness_replays(default_reports):
    w = default_reports["continuation"].entry("MuSquare").witness
    assert w.note == "the embedding is not a monad map"
    assert w.replay() == (w.lhs_render, w.rhs_render)


def test_mu_square_replay_rebuilds_both_sides(monkeypatch):
    w = combos.retract_check(Universe(carrier_size=2, max_steps=1, max_depth=1)).entry(
        "MuSquare").witness
    # a multiplication changed after the scan shows in the replay, so the
    # replay built its selectors again from FF
    monkeypatch.setattr(combos, "mu_composite",
                        lambda *args: combos.Sel(lambda p: DIVERGE, lambda: "never"))
    lhs, rhs = w.replay()
    assert lhs == w.lhs_render and rhs != w.rhs_render


def test_unstepped_algebra_laws_and_carrier_recovery_witnesses_replay(monkeypatch):
    # a lift that ignores its input answers every continuation with the
    # carrier's last value: the first table finished at once fails, and
    # so does recovery of the first delay
    def constant_lift(ralg, xs):
        g_tables = combos.fun_space(xs, ralg.carrier)
        return lambda d: combos.FinFun(tuple(g_tables), (ralg.carrier[-1],) * len(g_tables))

    monkeypatch.setattr(combos, "continuation_step_lift", constant_lift)
    r = combos.check_continuation(Universe(carrier_size=2, max_steps=1, max_depth=1))
    for axiom in ("AlgebraLaws", "CarrierRecovery"):
        e = r.entry(axiom)
        assert e.verdict.is_no and e.cases == 1, axiom
        assert e.witness.replay() == (e.witness.lhs_render, e.witness.rhs_render)


def test_flattening_witness_replays(monkeypatch):
    # a join that loses the value sends every flattened input to the
    # algebra's default: the first table (all defaults) passes its 9
    # cases, the second fails at once, after 16 unstepped and 36 stepped
    monkeypatch.setattr(combos, "join", lambda dd: DIVERGE)
    r = combos.check_continuation(Universe(carrier_size=2, max_steps=1, max_depth=1))
    e = r.entry("AlgebraLaws")
    c1 = combos.fun_space(combos.fun_space(combos.base_values(2), (0, 1)), (0, 1))[1]
    assert e.verdict.is_no
    assert e.cases == 16 + 36 + 9 + 1
    assert e.witness.input_render == f"0+0 steps on {c1}"
    assert e.witness.replay() == (e.witness.lhs_render, e.witness.rhs_render)


# ---------------------------------------------------------------------------
# selectors answering from their tables against the tabulate-then-index
# query kept in conftest


def _answer(f, *args):
    """``f(*args)``, or the type and message of what it raised."""
    try:
        return ("value", f(*args))
    except Exception as e:  # noqa: BLE001 - compared as data
        return ("raised", type(e), str(e))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), carrier_size=st.integers(1, 3))
def test_table_selector_answers_as_the_reference(data, carrier_size):
    xs = combos.base_values(carrier_size)
    p_tables = combos.fun_space(xs, (0, 1))
    # a duplicated predicate table answers from its first row
    preds = p_tables + data.draw(st.lists(st.sampled_from(p_tables), max_size=2))
    answers = data.draw(st.lists(st.integers(0, 5), min_size=len(preds), max_size=len(preds)))
    table = combos.FinFun(tuple(preds), tuple(answers))
    shared = combos.pred_index(preds, xs)
    for sel in (combos.sel_from_table(table, xs), combos.sel_from_table(table, xs, shared)):
        for p in p_tables:
            assert _answer(sel, p) == _answer(reference_sel_query, table, xs, p)
            assert _answer(sel, lambda x: p(x)) == _answer(reference_sel_query, table, xs, p)
        # values outside the predicates' codomain, hashable or not
        pos = data.draw(st.integers(0, carrier_size - 1))
        for bad in (2, "z", [0], None):
            def p(x, bad=bad):
                return bad if x == xs[pos] else 0
            out = _answer(sel, p)
            assert out[0] == "raised" and out == _answer(reference_sel_query, table, xs, p)
    # tables whose domain is not predicate tables over the value domain
    others = [xs[::-1], xs + ("e",), tuple(range(carrier_size))]
    for dom in others:
        sel = combos.sel_from_table(table, dom)
        for p in p_tables:
            q = lambda x, p=p: p(x) if x in xs else 0
            assert _answer(sel, q) == _answer(reference_sel_query, table, dom, q)
    plain = combos.FinFun(tuple(range(len(preds))), tuple(answers))
    sel = combos.sel_from_table(plain, xs)
    for p in p_tables:
        assert _answer(sel, p) == _answer(reference_sel_query, plain, xs, p)


def test_pred_index_refuses_tables_it_cannot_key():
    xs = ("a", "b")
    p_tables = combos.fun_space(xs, (0, 1))
    assert combos.pred_index(p_tables + p_tables[:1], xs) == {t.values: i
                                                              for i, t in enumerate(p_tables)}
    assert combos.pred_index(p_tables, xs[::-1]) == {}
    assert combos.pred_index(p_tables + [combos.FinFun(xs, ([0], 1))], xs) == {}
    assert combos.pred_index(list(range(4)), xs) == {}


@pytest.mark.parametrize("carrier_size", [1, 2, 3])
def test_mu_delayed_result_probes_only_the_values(carrier_size):
    # MuSquare's left side is tabulated on the predicate tables; that is
    # exact because mu_delayed_result(FF) only ever calls its predicate on
    # the values, which phi probes at Now(x)
    xs = combos.base_values(carrier_size)
    rs = (0, 1)
    ralg = combos.DelayAlgebra(rs, 0)
    for ff in combos.mu_square_inputs(xs, rs):
        for t in combos.fun_space(xs, rs):
            seen = []

            def spy(x, t=t):
                seen.append(x)
                return t(x)

            assert combos.mu_delayed_result(ff, ralg)(spy) == combos.mu_delayed_result(ff, ralg)(t)
            assert seen and set(seen) <= set(xs), str(ff)


@pytest.mark.parametrize("carrier_size", [1, 2])
def test_mu_square_left_side_matches_the_lambda_path(carrier_size):
    xs = combos.base_values(carrier_size)
    rs = (0, 1)
    ralg = combos.DelayAlgebra(rs, 0)
    p_tables = tuple(combos.fun_space(xs, rs))
    preds = combos.predicate_family(xs, rs, (0, 1, 2))
    for ff in combos.mu_square_inputs(xs, rs):
        tabulated = combos.mu_square_lhs(ff, ralg, p_tables, xs,
                                         combos.pred_index(p_tables, xs))
        lam = reference_phi(combos.mu_delayed_result(ff, ralg))
        for g in preds:
            assert tabulated(g) == lam(g), (str(ff), str(g))


def _outer_shapes(xs, rs):
    """Two-level selectors answering divergence, two steps, and two-step
    probing branches, over selector tables that answer different
    predicates differently: outer shapes MuSquare's inputs lack."""
    p_tables = combos.fun_space(xs, rs)
    tables = combos.fun_space(p_tables, combos.delay_values(xs, 2, True))
    sels = [combos.sel_from_table(t, xs) for t in tables[::max(1, len(tables) // 12)]]
    ffs = [combos.Sel(lambda q: DIVERGE, lambda: "never")]
    for f0 in sels:
        ffs.append(combos.Sel(lambda q, f0=f0: delay_n(2, f0), lambda f0=f0: f"2·step({f0})"))
    for f0, f1 in zip(sels, sels[1:]):
        ffs.append(combos.Sel(lambda q, f0=f0, f1=f1: delay_n(2, f1 if q(f0) == rs[0] else f0),
                              lambda f0=f0, f1=f1: f"2·step(if q({f0}) then {f1} else {f0})"))
    return ffs


@pytest.mark.parametrize("carrier_size", [1, 2])
def test_mu_square_right_side_matches_the_lambda_path(carrier_size):
    xs = combos.base_values(carrier_size)
    rs = (0, 1)
    preds = combos.predicate_family(xs, rs, (0, 1, 2))
    for ff in combos.mu_square_inputs(xs, rs) + _outer_shapes(xs, rs):
        lam = combos.mu_composite(reference_phi(combos.jd_fmap(reference_phi, ff)))
        for g in preds:
            assert combos.mu_square_rhs(ff, g) == lam(g), (str(ff), str(g))


def test_mu_square_scan_matches_the_lambda_left_side(monkeypatch):
    u = Universe(carrier_size=2, max_steps=1, max_depth=1)
    e = combos.retract_check(u).entry("MuSquare")
    monkeypatch.setattr(combos, "mu_square_lhs",
                        lambda ff, ralg, *rest: reference_phi(combos.mu_delayed_result(ff, ralg)))
    ref = combos.retract_check(u).entry("MuSquare")
    assert e == ref and e.verdict.is_no
    assert e.witness.replay() == ref.witness.replay() == (e.witness.lhs_render,
                                                          e.witness.rhs_render)


@pytest.mark.parametrize("name,size", [("continuation", 3), ("selection", 4)])
def test_over_budget_table_space_is_refused_before_any_scan(monkeypatch, name, size):
    def no_scan(*args, **kwargs):
        pytest.fail("scanned before the budget check")

    monkeypatch.setattr(combos, "_scan", no_scan)
    monkeypatch.setattr(combos, "beck_scan", no_scan)
    fun_space = combos.fun_space

    def bounded(dom, cod):
        if len(cod) ** len(dom) > 10 ** 6:
            pytest.fail("built a table space past the budget")
        return fun_space(dom, cod)

    monkeypatch.setattr(combos, "fun_space", bounded)
    with pytest.raises(combos.UniverseBudgetError, match="table space: about"):
        combos.combo_report(name, Universe(carrier_size=size, max_steps=1, max_depth=1))


class _Scanned(Exception):
    """Raised in place of a monad-law scan, with what it would scan."""


def _stop_at_the_monad_laws(monkeypatch):
    def stop(unit, bind, elements, xs, k_pool, *rest):
        raise _Scanned(len(elements), len(k_pool))

    monkeypatch.setattr(combos, "check_monad_laws_kleisli", stop)


@pytest.mark.parametrize("name,size,count", [
    ("state", 3, 13 ** 2 * (7 ** 3) ** 2),
    ("state", 4, 17 ** 2 * (9 ** 4) ** 2),
    ("sum", 4, 51 * (5 ** 4) ** 2),
])
def test_over_budget_monad_law_space_is_refused_before_its_scan(monkeypatch, name, size,
                                                                count):
    _stop_at_the_monad_laws(monkeypatch)
    monkeypatch.setattr(combos, "_scan", lambda *a, **k: pytest.fail("scanned"))
    with pytest.raises(combos.UniverseBudgetError) as err:
        combos.combo_report(name, Universe(carrier_size=size, max_steps=1, max_depth=1))
    assert str(err.value) == (f"{name} monad laws: about {count} cases exceeds "
                              f"budget 1000000")


@pytest.mark.parametrize("name,size,steps", [
    ("state", 1, 1), ("state", 1, 2), ("state", 2, 3), ("sum", 1, 1), ("sum", 3, 1)])
def test_monad_law_space_count_is_what_the_scan_gets(monkeypatch, name, size, steps):
    # spaces in budget reach their scan, and the count the budget was
    # checked against is that scan's elements · continuations²
    counted = []
    check = combos.check_kleisli_space

    def spy(u, what, elements, continuations):
        counted.append((elements, continuations))
        return check(u, what, elements, continuations)

    monkeypatch.setattr(combos, "check_kleisli_space", spy)
    _stop_at_the_monad_laws(monkeypatch)
    with pytest.raises(_Scanned) as scanned:
        combos.combo_report(name, Universe(carrier_size=size, max_steps=steps, max_depth=1))
    assert counted == [scanned.value.args]
    elements, continuations = counted[0]
    assert elements * continuations ** 2 <= 10 ** 6


# Tables and bounded predicates against their definitions, kept in conftest:
# the checking constructor over a mapped domain, and force.

TABULATE_CASES = [
    ((), str),
    (("x",), str.upper),
    (("x", "y", "z"), lambda a: a * 2),
    ((0, 1), lambda r: (r, Now(r))),
    (("a", "b"), lambda a: delay_n(2, a)),
    ([DIVERGE, Now("a")], lambda d: peel(d)[0]),
    ((combos.FinFun(("x",), (0,)),), lambda t: combos.FinFun(("y",), t.values)),
]


@pytest.mark.parametrize("dom,f", TABULATE_CASES)
def test_tabulate_equals_the_checked_table(dom, f):
    t = combos.FinFun.tabulate(dom, f)
    ref = reference_tabulate(tuple(dom), f)
    assert t == ref and ref == t
    assert hash(t) == hash(ref)
    assert str(t) == str(ref)
    assert type(t.domain) is tuple and type(t.values) is tuple
    twin = pickle.loads(pickle.dumps(t))
    assert twin == t and hash(twin) == hash(t) and str(twin) == str(t)
    assert [t(a) for a in dom] == [f(a) for a in dom]


@pytest.mark.parametrize("dom,cod", [((), (0, 1)), (("x",), ()), (("a", "b"), (0, 1)),
                                     (("a", "b", "c"), (Now("a"), DIVERGE)),
                                     ((combos.FinFun(("x",), (0,)),), ("p", "q", "r"))])
def test_fun_space_equals_the_checked_tables(dom, cod):
    space = combos.fun_space(dom, cod)
    checked = [combos.FinFun(tuple(dom), vals) for vals in itertools.product(cod, repeat=len(dom))]
    assert len(space) == len(cod) ** len(dom) == len(checked)
    for t, ref in zip(space, checked):
        assert t == ref and ref == t
        assert hash(t) == hash(ref)
        assert str(t) == str(ref)
        twin = pickle.loads(pickle.dumps(t))
        assert twin == ref and hash(twin) == hash(ref) and str(twin) == str(ref)


def test_tables_stay_frozen_and_checked():
    t = combos.FinFun.tabulate(("x", "y"), str.upper)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.values = ("X",)
    with pytest.raises(ValueError, match="cover its whole domain"):
        combos.FinFun(("x", "y"), ("X",))
    assert len({t, reference_tabulate(("x", "y"), str.upper)}) == 1


@pytest.mark.parametrize("fuel", [0, 1, 2, 3])
def test_pred_fn_matches_force(fuel):
    table = combos.FinFun(("a", "b"), (0, 1))
    delays = [delay_n(n, v) for n in range(5) for v in ("a", "b")] + [DIVERGE]
    for default in (0, 1):
        p = combos.PredFn(table, default, fuel)
        for d in delays:
            assert p(d) == reference_pred_call(p, d), (d, fuel)
    # finished within fuel, exhausted and divergent all reached
    p = combos.PredFn(table, "other", fuel)
    assert p(delay_n(fuel, "b")) == 1
    assert p(delay_n(fuel + 1, "b")) == "other"
    assert p(DIVERGE) == "other"


# ---------------------------------------------------------------------------
# selection's Beck axioms, read as answer vectors, against the lambda path
# of beck_scan over selection_pack


SELECTION_UNIVERSES = [Universe(carrier_size=c, max_steps=2, max_depth=1, relation=rel,
                                include_diverge=div)
                       for c in (1, 2) for rel in ("strict", "weak") for div in (False, True)]


def _selection_packs(u):
    xs = combos.base_values(u.carrier_size)
    return (laws.delay_pack(u.relation, u.derived_fuel()),
            combos.selection_pack(xs, combos.RESULTS),
            combos.predicate_family(xs, combos.RESULTS, (combos.PRED_FUEL,)))


def _lambda_selection_entries(u, z):
    """Plain beck_scan over selection_pack, with ``z`` for the candidate,
    on the inputs the table scans read."""
    S, T, _ = _selection_packs(u)
    return [laws.beck_scan(axiom, S, T, z, inputs, combos._eq,
                           combos._nat_render if axiom == "Naturality" else combos._short,
                           combos._short)
            for axiom, (inputs, _, _) in combos.selection_scans(u).items()]


@pytest.mark.parametrize("u", SELECTION_UNIVERSES,
                         ids=lambda u: f"c{u.carrier_size}-{u.relation}-div{u.include_diverge:d}")
def test_selection_answer_vectors_match_the_lambda_path(u):
    S, T, preds = _selection_packs(u)
    scans = combos.selection_scans(u)
    assert tuple(scans) == laws.BECK_AXIOMS
    for axiom, (inputs, lhs, rhs) in scans.items():
        lam_lhs, lam_rhs = laws.beck_sides(axiom, S, T, combos.selection_dist)
        for x in inputs:
            assert lhs(x) == tuple(map(lam_lhs(x), preds)), (axiom, combos._short(x))
            assert rhs(x) == tuple(map(lam_rhs(x), preds)), (axiom, combos._short(x))
    assert combos.check_selection(u).entries == _lambda_selection_entries(u, combos.selection_dist)


def _drop_steps(d):
    """Forces the delay and drops its steps."""
    return combos.Sel(lambda g: d if d is DIVERGE else Now(d.value(lambda x: g(Now(x)))),
                      lambda: f"drop({d})")


def _add_step(d):
    """Adds a step in front of the right answer."""
    return combos.Sel(lambda g: Step(dmap(d, lambda f: f(lambda x: g(Now(x))))),
                      lambda: f"add({d})")


def _late_probe(d):
    """Probes with ``delay_n(3, x)`` instead of ``Now(x)``."""
    return combos.Sel(lambda g: dmap(d, lambda f: f(lambda x: g(delay_n(3, x)))),
                      lambda: f"late({d})")


def _rewrapped(d):
    """The right answer, with each selector it picks wrapped in a new one:
    the scans then find those selectors' tables by asking them."""
    def wrap(v):
        return combos.Sel(lambda p: v(p), lambda: f"wrap({v})") if isinstance(v, combos.Sel) else v

    return combos.Sel(lambda g: dmap(d, lambda f: wrap(f(lambda x: g(Now(x))))),
                      lambda: f"rewrapped({d})")


@pytest.mark.parametrize("wrong,nos", [
    (_drop_steps, {"UnitT": 3}),
    (_add_step, {"UnitS": 1, "UnitT": 1, "MultS": 1, "MultT": 1}),
    (_late_probe, {"UnitS": 2}),
    (_rewrapped, {}),
])
def test_selection_under_a_wrong_candidate_matches_a_plain_beck_scan(monkeypatch, wrong, nos):
    # the scans reach the candidate only by calling it: a patched one
    # gives the lambda path's entries, witnesses and replays included
    u = Universe()
    monkeypatch.setattr(combos, "selection_dist", wrong)
    got = combos.check_selection(u).entries
    ref = _lambda_selection_entries(u, wrong)
    assert got == ref
    assert {e.axiom: e.cases for e in got if e.verdict.is_no} == nos
    for e, r in zip(got, ref):
        if e.witness is not None:
            assert e.witness.replay() == r.witness.replay() == (e.witness.lhs_render,
                                                                e.witness.rhs_render)


@pytest.mark.parametrize("include_diverge", [False, True])
def test_selection_calls_the_candidate_once_per_key_and_nested_case(monkeypatch,
                                                                     include_diverge):
    # a delayed selector table is a key, and so is divergence; MultS and
    # MultT apply the candidate at a nested type, to delayed candidate
    # answers and to delayed two-level selectors, once per case (their
    # divergent inputs included)
    u = Universe(include_diverge=include_diverge)
    calls = []
    real = combos.selection_dist

    def spy(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(combos, "selection_dist", spy)
    r = combos.check_selection(u)
    keyed = [combos._short(d) for d in calls
             if d is not DIVERGE and str(d.value).startswith("[[")]
    assert len(keyed) == len(set(keyed))
    assert (len(calls) - len(keyed)
            == r.entry("MultS").cases + r.entry("MultT").cases + include_diverge)
