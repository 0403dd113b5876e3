"""The three workloads: seeded item lists and the checks of their results.

An item is one verdict-producing call into delaydist's public API or its
CLI.  ``build(workload, seed, out_dir, root)`` does all set-up (building
theories, parsing and renaming theory files, constructing candidates) and
returns the items in the order the seed chose.  ``check_pass`` compares one
pass's results with the expected table and replays the evidence.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from delaydist import cli, combos, nogo
from delaydist import freemodel as fm
from delaydist.laws import (LawEntry, LawReport, TestUniverse, check_axiom,
                            check_delay_monad_laws, guaranteed_configuration,
                            prediction_for_failure, report_from_json_dict, run_suite)
from delaydist.lifting import induced_candidate
from delaydist.theory import parse_theory

import expected as ex

WORKLOADS = ("canonical-pass", "refute-early", "quotient-rewrite")

Check = Callable[[Any, Dict[str, Any]], List[str]]


@dataclass
class Item:
    """One verdict-producing call and the check of its result.  ``check``
    sees the whole pass's results, so an item can be compared with
    another presentation of the same theory."""

    id: str
    run: Callable[[], Any]
    check: Check
    known: Optional[str] = None  # key of a recorded known discrepancy


def bounds(c: int = 2, s: int = 3, d: int = 2, **kw) -> Dict[str, Any]:
    return dict(carrier_size=c, max_steps=s, max_depth=d, **kw)


def _tag(b: Dict[str, Any]) -> str:
    tag = f"c{b['carrier_size']}s{b['max_steps']}d{b['max_depth']}"
    if b.get("include_diverge"):
        tag += "+div"
    if b.get("fuel"):
        tag += f"+fuel{b['fuel']}"
    return tag


# ---------------------------------------------------------------------------
# evidence shared by every law report


def report_evidence(report: LawReport) -> List[str]:
    """Replay every No witness and round-trip the report through JSON."""
    bad = entry_evidence(report.entries)
    back = report_from_json_dict(json.loads(report.to_json()))
    if back != report:
        bad.append("LawReport changed in a JSON round trip")
    return bad


def entry_evidence(entries: List[LawEntry]) -> List[str]:
    bad = []
    for e in entries:
        if not e.verdict.is_no:
            continue
        w = e.witness
        if w is None:
            bad.append(f"{e.axiom}: No without a witness")
        elif w.replay is not None and w.replay() != (w.lhs_render, w.rhs_render):
            bad.append(f"{e.axiom}: witness replay differs from the recorded lhs/rhs")
    return bad


def _verdicts(entries, want: Dict[str, str]) -> List[str]:
    got = {e.axiom: e.verdict.kind for e in entries}
    return [f"{a}: {got.get(a)} (expected {v})" for a, v in want.items() if got.get(a) != v]


def _unpredicted(entries) -> List[str]:
    return [f"{e.axiom}: No not flagged as predicted"
            for e in entries if e.verdict.is_no and not e.predicted]


# ---------------------------------------------------------------------------
# canonical-pass

CANONICAL_SUITES = (
    ("magma", "seq", "strict", bounds(1, 2, 2)),
    ("monoid", "seq", "strict", bounds(1, 2, 2)),
    ("cmonoid", "seq", "strict", bounds(1, 2, 2)),
    ("semilattice", "par", "weak", bounds(1, 2, 2, include_diverge=True)),
    ("cmonoid", "par", "weak", bounds(1, 2, 2)),
    ("magma", "par", "weak", bounds(1, 2, 2)),
)

COMBO_BOUNDS = {
    "exceptions": bounds(1, 2, 1),
    "reader": bounds(),
    "writer": bounds(),
    "selection": bounds(),
    "yang-baxter": bounds(),
    "state": bounds(1, 2, 1),
    "sum": bounds(1, 2, 1),
}

DELAY_LAWS = ((2, ("a", "b")), (3, ("a", "b")))


def _suite_item(theory: str, lift: str, relation: str, b: Dict[str, Any]) -> Item:
    th = fm.builtin_theory(theory)
    cand = induced_candidate(th, lift)
    u = TestUniverse(relation=relation, **b)

    def check(report: LawReport, _results) -> List[str]:
        want = ex.universe_sizes(theory, b)
        bad = []
        if tuple(e.axiom for e in report.entries) != ex.AXIOMS:
            bad.append(f"axioms {[e.axiom for e in report.entries]}")
        bad += _verdicts(report.entries, {a: "yes" for a in ex.AXIOMS})
        bad += [f"{a}: {report.case_counts.get(a)} cases (expected {n})"
                for a, n in want.items() if report.case_counts.get(a) != n]
        return bad + report_evidence(report)

    return Item(f"suite:{theory}:{lift}:{relation}:{_tag(b)}",
                lambda: run_suite(th, cand, u), check)


def _combo_item(name: str, b: Dict[str, Any], want: Dict[str, str]) -> Item:
    u = TestUniverse(**b)

    def check(report: LawReport, _results) -> List[str]:
        bad = []
        if tuple(e.axiom for e in report.entries) != tuple(want):
            bad.append(f"entries {[e.axiom for e in report.entries]}")
        bad += _verdicts(report.entries, want)
        bad += _unpredicted(report.entries)
        # the exceptions theory has no equations to preserve
        bad += [f"{e.axiom}: no cases" for e in report.entries
                if e.cases < 1 and not (name == "exceptions" and e.axiom == "EquationPreservation")]
        if name == "state":
            n = ex.state_monad_law_cases(b["carrier_size"], b["max_steps"])
            if report.case_counts["MonadLaws"] != n:
                bad.append(f"MonadLaws: {report.case_counts['MonadLaws']} cases (expected {n})")
        if name == "continuation":
            mu = report.entry("MuSquare")
            if mu.witness is None:
                bad.append("MuSquare: no witness")
        return bad + report_evidence(report)

    return Item(f"combo:{name}:{_tag(b)}", lambda: combos.combo_report(name, u), check)


def _delay_laws_item(steps: int, values: Tuple[str, ...]) -> Item:
    def check(out, _results) -> List[str]:
        want = ex.delay_monad_law_cases(steps, len(values))
        bad = [] if out.verdict.is_yes else [f"verdict {out.verdict.kind}"]
        if out.cases != want:
            bad.append(f"{out.cases} cases (expected {want})")
        return bad

    return Item(f"delay-monad-laws:s{steps}v{len(values)}",
                lambda: check_delay_monad_laws(steps, values), check)


def canonical_pass(rng: random.Random) -> List[Item]:
    items = [_suite_item(*spec) for spec in CANONICAL_SUITES]
    items += [_combo_item(name, COMBO_BOUNDS[name], {a: "yes" for a in axioms})
              for name, axioms in ex.PASSING_COMBOS.items()]
    items += [_delay_laws_item(*spec) for spec in DELAY_LAWS]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# refute-early

REFUTE_BOUNDS = {
    ("semilattice", "seq", "MultT"): bounds(2, 2, 2),
    ("semilattice", "seq", "EquationPreservation"): bounds(),
    ("convex", "seq", "MultT"): bounds(2, 2, 1),
    ("monoid", "par", "MultT"): bounds(2, 2, 2),
    ("cmonoid", "par", "MultT"): bounds(3, 2, 2),
    ("magma", "par", "MultT"): bounds(2, 2, 2),
}
CONTINUATION_BOUNDS = bounds(2, 1, 1)
UNKNOWN_BOUNDS = bounds(1, 2, 1, include_diverge=True, fuel=1)
DISTRIBUTION_WEIGHTS = 3


def _refutation_item(theory: str, lift: str, axiom: str, b: Dict[str, Any]) -> Item:
    """One axiom of a documented failing configuration, flagged the way
    ``run_suite`` flags it."""
    th = fm.builtin_theory(theory)
    cand = induced_candidate(th, lift)
    u = TestUniverse(**b)
    base = theory.split("(")[0]
    documented = ex.DOCUMENTED_CASES.get(
        (base, lift, axiom, (b["carrier_size"], b["max_steps"], b["max_depth"])))
    limit = None  # size of the MultT universe where the count model covers it
    if axiom == "MultT" and base in ex.CARRIER:
        limit = ex.size(ex.CARRIER[base], ex.double_delays(
            b["carrier_size"], b["max_steps"], b.get("include_diverge", False)), b["max_depth"])

    def run() -> LawEntry:
        entry = check_axiom(cand, axiom, u)
        if entry.verdict.is_no:
            note = prediction_for_failure(th, lift, u.relation, axiom)
            entry.predicted = bool(note) and not guaranteed_configuration(th, lift, u.relation)
            entry.prediction_note = note
        return entry

    def check(entry: LawEntry, _results) -> List[str]:
        bad = _verdicts([entry], {axiom: "no"}) + _unpredicted([entry])
        if documented is not None and (entry.cases, limit) != documented:
            bad.append(f"{entry.cases} cases of {limit} (documented {documented})")
        if limit is not None and not 1 <= entry.cases <= limit:
            bad.append(f"{entry.cases} cases outside a {limit}-input universe")
        if axiom == "EquationPreservation" and entry.witness is not None:
            # acceptance criterion 3: idempotence doubles the steps
            if "2·step" not in entry.witness.lhs_render or "1·step" not in entry.witness.rhs_render:
                bad.append("idempotence witness is not 2 steps against 1")
        return bad + entry_evidence([entry])

    return Item(f"refute:{theory}:{lift}:{axiom}:{_tag(b)}", run, check)


def _separation_item() -> Item:
    def check(demo, _results) -> List[str]:
        bad = []
        if demo.step_counts != (1, 2):
            bad.append(f"step counts {demo.step_counts}")
        if not (demo.entry.verdict.is_no and demo.entry.predicted):
            bad.append(f"strict verdict {demo.entry.verdict.kind}")
        if not demo.weak_entry.verdict.is_yes:
            bad.append(f"weak verdict {demo.weak_entry.verdict.kind}")
        return bad

    return Item("separation:mogelberg-vezzosi", nogo.mogelberg_vezzosi_witness, check)


_CONFIG_RE = re.compile(r"∨₁ := (.*), ∨′ := (.*), (Eq[12])")


def _powerset_item() -> Item:
    def check(results, _results) -> List[str]:
        bad = []
        if len(results) != ex.POWERSET_CONFIGS or len({c for c, _ in results}) != ex.POWERSET_CONFIGS:
            bad.append(f"{len(results)} configurations")
        for cfg, trace in results:
            op1, op_prime, branch = _CONFIG_RE.fullmatch(cfg.describe()).groups()
            want = ex.powerset_clash(op1.strip("()"), op_prime.strip("()"), branch)
            trace.verify()
            if trace.clash.kind != want:
                bad.append(f"{cfg.describe()}: {trace.clash.kind} (expected {want})")
        return bad

    return Item("nogo:powerset", nogo.powerset_nogo_search, check)


def _distribution_item(p: Fraction) -> Item:
    def run():
        return [nogo.distributions_nogo_replay(p, branch) for branch in ("Eq1", "Eq2")]

    def check(traces, _results) -> List[str]:
        bad = []
        for branch, trace in zip(("Eq1", "Eq2"), traces):
            trace.verify()
            if trace.clash.kind != "StepEqNow":
                bad.append(f"{branch}: clash {trace.clash.kind}")
            n = ex.distribution_exponent(p, branch)
            if trace.meta.get("n") != n:
                bad.append(f"{branch}: exponent {trace.meta.get('n')} (expected {n})")
        return bad

    return Item(f"nogo:distributions:{p}", run, check)


def _unknown_item() -> Item:
    """Fuel 1 with divergence in the universe: the documented exit-2 case."""
    th = fm.builtin_theory("monoid")
    cand = induced_candidate(th, "seq")
    u = TestUniverse(**UNKNOWN_BOUNDS)

    def check(report: LawReport, _results) -> List[str]:
        bad = [] if report.has_unknown else ["no Unknown verdict"]
        bad += _unpredicted(report.entries)
        return bad + report_evidence(report)

    return Item(f"fuel:monoid:seq:strict:{_tag(UNKNOWN_BOUNDS)}",
                lambda: run_suite(th, cand, u), check)


def refute_early(rng: random.Random) -> List[Item]:
    p = rng.choice(ex.CONVEX_POOL)
    items = [_refutation_item(f"convex({p})" if base == "convex" else base, lift, axiom,
                              REFUTE_BOUNDS[(base, lift, axiom)])
             for base, lift, axiom in ex.REFUTATIONS]
    items += [_combo_item("continuation", CONTINUATION_BOUNDS, ex.CONTINUATION),
              _separation_item(), _powerset_item(), _unknown_item()]
    items += [_distribution_item(w)
              for w in rng.sample(ex.distribution_pool(), DISTRIBUTION_WEIGHTS)]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# quotient-rewrite

THEORY_FILES = ("band", "leftzero", "idempotent_unary")

DEEP = ("--carrier-size", "1", "--max-steps", "1", "--max-depth", "2")
SHALLOW = ("--carrier-size", "1", "--max-steps", "2", "--max-depth", "1")

# (file, lift, relation, CLI bound flags)
QUOTIENT_RUNS = (
    ("band", "seq", "strict", DEEP),
    ("band", "par", "weak", DEEP),
    ("leftzero", "seq", "strict", SHALLOW),
    ("leftzero", "par", "weak", SHALLOW + ("--include-diverge",)),
    ("idempotent_unary", "seq", "strict", DEEP),
    ("idempotent_unary", "par", "weak", DEEP),
    ("idempotent_unary", "custom:step-absorbing", "strict", DEEP),
)
# renamed copies of the files whose verdicts nothing else pins; the
# step-absorbing lifting knows its operations by name, so they run only the
# structural liftings
RENAMED = ("band", "leftzero")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def rename_theory(text: str, rng: random.Random) -> str:
    """Rename every operation and variable of a theory file; the theory
    name and equation names stay, comments go."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    ops = [ln.split()[1].split(":")[0] for ln in lines if ln.startswith("op ")]
    used = set(ops)
    names: Dict[str, str] = {}

    def fresh(prefix: str) -> str:
        while True:
            name = prefix + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(5))
            if name not in used:
                used.add(name)
                return name

    for op in ops:
        names[op] = fresh("op_")
    out = []
    for ln in lines:
        if ln.startswith("op "):
            op, arity = ln[3:].split(":")
            out.append(f"op {names[op.strip()]} : {arity.strip()}")
        elif ln.startswith("eq "):
            eq_name, body = ln[3:].split(":", 1)

            def sub(m: re.Match) -> str:
                word = m.group(0)
                if word not in names:
                    names[word] = fresh("v_")
                return names[word]

            out.append(f"eq {eq_name.strip()} : {_IDENT.sub(sub, body)}")
        elif ln:
            out.append(ln)
    return "\n".join(out) + "\n"


def _cli_check(spec: str, lift: str, relation: str, flags: Tuple[str, ...]):
    argv = ["check", spec, "--lift", lift, "--upto", relation, *flags, "--json"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def _cli_report(result) -> Tuple[int, Optional[dict]]:
    code, text = result
    try:
        return code, json.loads(text)
    except ValueError:
        return code, None


def _same_outcome(a: dict, b: dict, counts: bool) -> List[str]:
    va = {x["name"]: x["verdict"] for x in a["axioms"]}
    vb = {x["name"]: x["verdict"] for x in b["axioms"]}
    bad = [f"{k}: {vb.get(k)} vs {v}" for k, v in va.items() if vb.get(k) != v]
    if counts:
        bad += [f"{k}: {b['caseCounts'].get(k)} cases vs {n}"
                for k, n in a["caseCounts"].items() if b["caseCounts"].get(k) != n]
    return bad


def _quotient_item(item_id: str, spec: str, lift: str, relation: str,
                   flags: Tuple[str, ...], pinned: Dict[str, str],
                   same_as: Optional[str] = None, counts: bool = True,
                   known: Optional[str] = None) -> Item:
    def check(result, results) -> List[str]:
        code, payload = _cli_report(result)
        if payload is None:
            return [f"exit {code} without a JSON report"]
        bad = [] if code == ex.EXIT_OK else [f"exit {code} (expected {ex.EXIT_OK})"]
        report = report_from_json_dict(payload)
        bad += _verdicts(report.entries, pinned) + _unpredicted(report.entries)
        bad += [f"{e.axiom}: unexpected Unknown" for e in report.entries if e.verdict.is_unknown]
        if report.to_json_dict() != payload:
            bad.append("CLI report changed in a JSON round trip")
        if same_as is not None:
            _, other = _cli_report(results[same_as])
            if other is None:
                bad.append(f"{same_as} gave no report to compare with")
            else:
                bad += [f"differs from {same_as}: {d}" for d in _same_outcome(other, payload, counts)]
        return bad

    return Item(item_id, _cli_check(spec, lift, relation, flags), check, known)


def quotient_rewrite(rng: random.Random, out_dir: Path, root: Path) -> List[Item]:
    files = {name: root / "theories" / f"{name}.th" for name in THEORY_FILES}
    renamed_dir = out_dir / "theories"
    renamed_dir.mkdir(parents=True, exist_ok=True)
    renamed = {}
    for name in RENAMED:
        path = files[name]
        text = rename_theory(path.read_text(encoding="utf-8"), rng)
        parse_theory(text, default_name=name)  # a renamed copy must still parse
        renamed[name] = renamed_dir / f"{name}.th"
        renamed[name].write_text(text, encoding="utf-8")

    items = []
    for name, lift, relation, flags in QUOTIENT_RUNS:
        pinned = ex.QUOTIENT[(name, lift, relation)]
        original = f"file:{name}:{lift}:{relation}"
        items.append(_quotient_item(original, str(files[name]), lift, relation, flags, pinned))
        if name in RENAMED:
            items.append(_quotient_item(f"renamed:{name}:{lift}:{relation}", str(renamed[name]),
                                        lift, relation, flags, pinned, same_as=original))
    # the built-in demo theory beside its file version; universes differ
    # (the built-in rewrites to normal form), so only verdicts must agree
    items.append(_quotient_item(
        "builtin:idempotent-unary:seq:strict", "idempotent-unary", "seq", "strict", DEEP,
        ex.QUOTIENT[("idempotent_unary", "seq", "strict")],
        same_as="file:idempotent_unary:seq:strict", counts=False,
        known="idempotent-unary:file-vs-builtin:seq"))
    items.append(_quotient_item(
        "builtin:idempotent-unary:custom:step-absorbing:strict", "idempotent-unary",
        "custom:step-absorbing", "strict", DEEP,
        ex.QUOTIENT[("idempotent_unary", "custom:step-absorbing", "strict")],
        same_as="file:idempotent_unary:custom:step-absorbing:strict", counts=False))
    rng.shuffle(items)
    return items


# Where each workload should spend its time, as a test on the traced run's
# shares of wall time (module self time, and the named groups' time).
LAYER_PREDICTIONS = {
    "canonical-pass": (
        "the scan layers (lifting, delay, freemodel) lead and enumeration stays under 0.25",
        lambda sh: max(("lifting", "delay", "freemodel", "laws", "combos", "nogo", "cli",
                        "theory"), key=sh.get) in ("lifting", "delay", "freemodel")
        and sh["freemodel.enumerate_s"] < 0.25),
    "refute-early": (
        "enumeration and nogo take at least half",
        lambda sh: sh["freemodel.enumerate_s"] + sh["nogo.build_s"] >= 0.5),
    "quotient-rewrite": (
        "model_equal leads every group outside the enumeration that calls it",
        lambda sh: sh["freemodel.model_equal_s"] > max(
            sh["freemodel.op_s"], sh["lifting.distribute_s"], sh["delay.compare_s"],
            sh["nogo.build_s"])),
}


def build(workload: str, seed: int, out_dir: Path, root: Path) -> List[Item]:
    """All set-up for one run: the seeded item list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "canonical-pass":
        return canonical_pass(rng)
    if workload == "refute-early":
        return refute_early(rng)
    if workload == "quotient-rewrite":
        return quotient_rewrite(rng, out_dir, root)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running and checking passes


@dataclass
class PassResult:
    wall_s: float  # the items' own time, calibrations left out
    samples_ms: List[float]
    calibrations: List[float]
    results: Dict[str, Any] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)


def run_pass(items: List[Item], calibrate: Callable[[], float]) -> PassResult:
    """Run every item once, back to back, calling ``calibrate`` before the
    first item and after each one, outside the items' time.  An exception
    is recorded as the item's result; the pass goes on.

    Results are kept for the checks after the pass.  Each is frozen out of
    the garbage collector as soon as it exists, so that what earlier items
    left behind does not make a later item's collections slower and item
    times do not depend on the seeded order.  The caller unfreezes once
    the pass is checked."""
    samples, results, errors = [], {}, {}
    calibrations = [calibrate()]
    for item in items:
        t0 = time.perf_counter()
        try:
            results[item.id] = item.run()
        except Exception as err:  # one failing item must not end the run
            errors[item.id] = f"{type(err).__name__}: {err}"
        samples.append((time.perf_counter() - t0) * 1000.0)
        gc.freeze()
        calibrations.append(calibrate())
    return PassResult(sum(samples) / 1000.0, samples, calibrations, results, errors)


def check_pass(items: List[Item], res: PassResult) -> Dict[str, List[str]]:
    """Deviations from the expected table, by item id; empty lists for
    items that matched."""
    out = {}
    for item in items:
        if item.id in res.errors:
            out[item.id] = [f"raised {res.errors[item.id]}"]
            continue
        try:
            out[item.id] = item.check(res.results[item.id], res.results)
        except Exception as err:  # a check that cannot run counts against the item
            out[item.id] = [f"check raised {type(err).__name__}: {err}"]
    return out
