"""Monad composition at desk scale: free models of algebraic theories,
the coinductive delay monad, candidate distributive laws between them,
and bounded-exhaustive checks of the composition axioms up to strict
equality and weak bisimilarity."""

from .delay import (DIVERGE, Delay, Now, Step, bind, delay_n, dmap, force, join,
                    render_delay, step_count, strong_equal, weak_bisim)
from .freemodel import (BUILTIN_NAMES, ModelElement, builtin_theory, cmonoid, convex,
                        exceptions, magma, model_equal, monoid, semilattice, unit,
                        value_str)
from .laws import (LawEntry, LawReport, TestUniverse, Witness, check_axiom,
                   check_delay_monad_laws, render_report, report_from_json_dict,
                   run_suite)
from .lifting import DistLawCandidate, custom_candidate, induced_candidate
from .nogo import (ContradictionTrace, distributions_nogo_replay,
                   idempotent_unary_demo, idempotent_unary_theory,
                   mogelberg_vezzosi_witness, powerset_nogo_search)
from .theory import (App, Equation, Operation, Signature, Theory, Var,
                     classify_equation, make_equation, parse_theory,
                     predict_composability, validate_theory)

__all__ = [
    "DIVERGE", "Delay", "Now", "Step", "bind", "delay_n", "dmap", "force", "join",
    "render_delay", "step_count", "strong_equal", "weak_bisim",
    "BUILTIN_NAMES", "ModelElement", "builtin_theory", "cmonoid", "convex",
    "exceptions", "magma", "model_equal", "monoid", "semilattice", "unit",
    "value_str",
    "LawEntry", "LawReport", "TestUniverse", "Witness", "check_axiom",
    "check_delay_monad_laws", "render_report", "report_from_json_dict", "run_suite",
    "DistLawCandidate", "custom_candidate", "induced_candidate",
    "ContradictionTrace", "distributions_nogo_replay", "idempotent_unary_demo",
    "idempotent_unary_theory", "mogelberg_vezzosi_witness", "powerset_nogo_search",
    "App", "Equation", "Operation", "Signature", "Theory", "Var",
    "classify_equation", "make_equation", "parse_theory", "predict_composability",
    "validate_theory",
]
