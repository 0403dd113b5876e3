"""Command-line front end.

Subcommands mirror the library surface: ``classify`` prints a theory's
signature, per-equation occurrence classes and composability prediction;
``check`` runs the full law suite for one lifting; ``combo`` runs one of
the named monad pairings; ``demo`` and ``nogo`` replay the separation
witness and the two refutation searches.

Exit codes: 0 when everything passed or a documented failure fired as
predicted, 1 for an unexpected verdict (including a failed trace
replay), 2 when any verdict came back Unknown, 3 for input errors, 141
when stdout's consumer vanished mid-stream.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional

from . import freemodel as fm
from . import nogo
from .combos import COMBO_NAMES, combo_report
from .laws import TestUniverse, UniverseBudgetError, render_report, run_suite
from .lifting import OpLifter, custom_candidate
from .theory import (TheoryError, classify_equation, parse_theory,
                     predict_composability, term_str)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, matching the default disposition


class CustomLift(NamedTuple):
    """A hand-written lifting and the operations (name -> arity) it knows
    how to lift; a theory must declare exactly these."""

    lift: OpLifter
    ops: Dict[str, int]


CUSTOM_LIFTS = {"step-absorbing": CustomLift(nogo.step_absorbing_lift, {"mul": 2, "bang": 1})}

# demo theories addressable by name alongside the free-model builtins
NAMED_THEORIES = {"idempotent-unary": nogo.idempotent_unary_theory}


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit status 2 for usage errors; route them to
    the input-error status instead."""

    def error(self, message):
        raise InputError(message)


def _positive(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError("bounds must be positive")
    return n


def resolve_theory(spec: str):
    """A built-in name, a named demo theory, or a path to a theory file."""
    try:
        return fm.builtin_theory(spec)
    except TheoryError:
        pass
    if spec in NAMED_THEORIES:
        return NAMED_THEORIES[spec]()
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise InputError(f"cannot read theory file '{spec}': {err.strerror}") from err
        default = os.path.splitext(os.path.basename(spec))[0]
        return parse_theory(text, default_name=default)
    raise InputError(f"unknown theory '{spec}' (not a built-in, not a file)")


def _universe(ns: argparse.Namespace, relation: str = "strict") -> TestUniverse:
    return TestUniverse(carrier_size=ns.carrier_size, max_steps=ns.max_steps,
                        max_depth=ns.max_depth, relation=relation, fuel=ns.fuel,
                        include_diverge=ns.include_diverge)


def _add_bounds(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--carrier-size", type=_positive, default=2, metavar="N")
    sub.add_argument("--max-steps", type=_positive, default=3, metavar="S")
    sub.add_argument("--max-depth", type=_positive, default=2, metavar="D")
    sub.add_argument("--fuel", type=_positive, default=None, metavar="F")
    sub.add_argument("--include-diverge", action="store_true")


def _emit(ns: argparse.Namespace, text: str, payload: dict) -> None:
    if ns.json:
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        print(text)


def _report_exit(report) -> int:
    if report.unexpected_failures:
        return EXIT_UNEXPECTED
    if report.has_unknown:
        return EXIT_UNKNOWN
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def classify_text(th) -> str:
    lines = [f"theory {th.name}"]
    for op in th.signature.ops:
        lines.append(f"  op {op.name} : {op.arity}")
    for eq in th.equations:
        labels = ", ".join(classify_equation(eq).labels())
        lines.append(f"  eq {eq.name}: {term_str(eq.lhs)} = {term_str(eq.rhs)}  [{labels}]")
    lines.append(f"prediction: {predict_composability(th)}")
    return "\n".join(lines)


def classify_json(th) -> dict:
    p = predict_composability(th)
    return {
        "theory": th.name,
        "operations": [{"name": op.name, "arity": op.arity} for op in th.signature.ops],
        "equations": [{"name": eq.name,
                       "lhs": term_str(eq.lhs),
                       "rhs": term_str(eq.rhs),
                       "classes": list(classify_equation(eq).labels())}
                      for eq in th.equations],
        "prediction": {"seqDistLaw": p.seq_dist_law,
                       "parSetoidLaw": p.par_setoid_law,
                       "guardedNoGo": p.guarded_no_go},
    }


def _cmd_classify(ns: argparse.Namespace) -> int:
    th = resolve_theory(ns.theory)
    _emit(ns, classify_text(th), classify_json(th))
    return EXIT_OK


def _check_custom_ops(th, name: str, needed: Dict[str, int]) -> None:
    """Reject a theory whose operations a custom lifting cannot lift,
    before any universe is built."""
    have = {op.name: op.arity for op in th.signature.ops}
    if have == needed:
        return
    ops = lambda pairs: ", ".join(f"{op}:{n}" for op, n in pairs)
    problems = []
    missing = [(op, n) for op, n in needed.items() if have.get(op) != n]
    extra = [(op, n) for op, n in have.items() if needed.get(op) != n]
    if missing:
        problems.append(f"lacks {ops(missing)}")
    if extra:
        problems.append(f"declares {ops(extra)}, which it cannot lift")
    raise InputError(f"custom lifting '{name}' needs operations {ops(needed.items())}; "
                     f"theory '{th.name}' {' and '.join(problems)}")


def _cmd_check(ns: argparse.Namespace) -> int:
    th = resolve_theory(ns.theory)
    u = _universe(ns, relation=ns.upto)
    if ns.lift in ("seq", "par"):
        mode = ns.lift
    elif ns.lift.startswith("custom:"):
        name = ns.lift[len("custom:"):]
        if name not in CUSTOM_LIFTS:
            raise InputError(f"unknown custom lifting '{name}' "
                             f"(known: {', '.join(sorted(CUSTOM_LIFTS))})")
        custom = CUSTOM_LIFTS[name]
        _check_custom_ops(th, name, custom.ops)
        mode = custom_candidate(th, ns.lift, custom.lift)
    else:
        raise InputError(f"--lift must be seq, par or custom:<name>, got '{ns.lift}'")
    report = run_suite(th, mode, u)
    _emit(ns, render_report(report), report.to_json_dict())
    return _report_exit(report)


def _cmd_combo(ns: argparse.Namespace) -> int:
    u = _universe(ns)
    report = combo_report(ns.name, u)
    _emit(ns, render_report(report), report.to_json_dict())
    return _report_exit(report)


def _cmd_demo(ns: argparse.Namespace) -> int:
    demo = nogo.mogelberg_vezzosi_witness()
    lhs_r, rhs_r = fm.value_str(demo.path_fmap_first), fm.value_str(demo.path_dist_first)
    strict, weak = demo.entry.verdict, demo.weak_entry.verdict
    lines = [
        "demo mogelberg-vezzosi: parallel lifting of one binary operation",
        f"input: {demo.input_render}",
        f"flatten then distribute: {lhs_r}",
        f"distribute then flatten: {rhs_r}",
        f"step counts: {demo.step_counts[0]} vs {demo.step_counts[1]}",
        f"strict equality: {strict}" + ("  [predicted]" if demo.entry.predicted else ""),
    ]
    if demo.entry.prediction_note:
        lines.append(f"  note: {demo.entry.prediction_note}")
    lines.append(f"weak bisimilarity: {weak}")
    payload = {
        "demo": "mogelberg-vezzosi",
        "input": demo.input_render,
        "flattenThenDistribute": lhs_r,
        "distributeThenFlatten": rhs_r,
        "stepCounts": list(demo.step_counts),
        "strict": demo.entry.to_json_dict(),
        "weak": demo.weak_entry.to_json_dict(),
        "elapsedMs": demo.elapsed_ms,
    }
    _emit(ns, "\n".join(lines), payload)
    if strict.is_unknown or weak.is_unknown:
        return EXIT_UNKNOWN
    # the expected clash: strictly distinct, weakly bisimilar
    if strict.is_no and demo.entry.predicted and weak.is_yes:
        return EXIT_OK
    return EXIT_UNEXPECTED


def _clash_json(clash) -> dict:
    d = {"kind": clash.kind}
    if clash.kind == "ModelRefutation":
        d.update(equation=clash.equation, model=clash.model,
                 valuation={k: v for k, v in clash.valuation},
                 lhsValue=clash.lhs_value, rhsValue=clash.rhs_value)
    return d


def _trace_json(tr) -> dict:
    meta = {}
    for k, v in tr.meta.items():
        meta[k] = str(v) if isinstance(v, Fraction) else v
    return {
        "title": tr.title,
        "assumptions": [{"name": n, "equation": e} for n, e in tr.assumptions],
        "steps": [{"term": nogo.render_term(s.term),
                   "rule": s.rule.name,
                   "path": list(s.path),
                   "reversed": s.reversed,
                   "result": nogo.render_term(s.result)} for s in tr.steps],
        "derived": f"{nogo.render_term(tr.start)} = {nogo.render_term(tr.end)}",
        "clash": _clash_json(tr.clash),
        "meta": meta,
    }


def _cmd_nogo(ns: argparse.Namespace) -> int:
    if ns.name == "powerset":
        if ns.p is not None:
            raise InputError("--p only applies to 'nogo distributions'")
        results = nogo.powerset_nogo_search()
        blocks, traces = [], []
        for cfg, tr in results:
            tr.verify()
            blocks.append(tr.render())
            traces.append(dict(_trace_json(tr), config=cfg.describe()))
        summary = (f"{len(results)} candidate configurations, "
                   f"{len(results)} refuted, 0 surviving")
        payload = {"nogo": "powerset", "candidates": len(results),
                   "refuted": len(results), "surviving": 0, "traces": traces}
        _emit(ns, "\n\n".join(blocks) + f"\n\n{summary}", payload)
        return EXIT_OK
    # distributions
    if ns.p is None:
        raise InputError("'nogo distributions' needs --p <rational in (0,1)>")
    try:
        p = Fraction(ns.p)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse '{ns.p}' as a rational")
    traces = [nogo.distributions_nogo_replay(p, branch) for branch in ("Eq1", "Eq2")]
    for tr in traces:
        tr.verify()
    text = "\n\n".join(tr.render() for tr in traces)
    payload = {"nogo": "distributions", "p": str(p),
               "traces": [_trace_json(tr) for tr in traces]}
    _emit(ns, text, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="delaydist",
                     description="check distributive laws between free-model "
                                 "monads and the delay monad at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="signature, equation classes, prediction")
    p_cls.add_argument("theory", help="built-in name or path to a theory file")
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=_cmd_classify)

    p_chk = sub.add_parser("check", help="run the full law suite for one lifting")
    p_chk.add_argument("theory", help="built-in name or path to a theory file")
    p_chk.add_argument("--lift", default="seq", metavar="MODE",
                       help="seq | par | custom:<name>")
    p_chk.add_argument("--upto", default="strict", choices=("strict", "weak"))
    _add_bounds(p_chk)
    p_chk.add_argument("--json", action="store_true")
    p_chk.set_defaults(func=_cmd_check)

    p_cmb = sub.add_parser("combo", help="check one of the named monad pairings")
    p_cmb.add_argument("name", choices=COMBO_NAMES)
    _add_bounds(p_cmb)
    p_cmb.add_argument("--json", action="store_true")
    p_cmb.set_defaults(func=_cmd_combo)

    p_dem = sub.add_parser("demo", help="replay the strict/weak separation witness")
    p_dem.add_argument("name", choices=("mogelberg-vezzosi",))
    p_dem.add_argument("--json", action="store_true")
    p_dem.set_defaults(func=_cmd_demo)

    p_ng = sub.add_parser("nogo", help="replay a refutation search")
    p_ng.add_argument("name", choices=("powerset", "distributions"))
    p_ng.add_argument("--p", default=None, metavar="N/D",
                      help="mixing weight for 'distributions'")
    p_ng.add_argument("--json", action="store_true")
    p_ng.set_defaults(func=_cmd_nogo)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """:func:`main`'s parser, built once per process: parsing leaves no
    state on it, and every build leaves reference cycles behind."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        ns = _parser().parse_args(argv)
        code = ns.func(ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the consumer hung up (e.g. piped into head); silence the
        # interpreter's shutdown flush and report as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (TheoryError, UniverseBudgetError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except nogo.TraceError as e:
        print(f"trace verification failed: {e}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
