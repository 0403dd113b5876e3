"""Per-layer tracing installed from outside the program.

``Tracer.install()`` wraps the public functions of each delaydist module
(and the methods named in ``METHODS``) and puts each wrapper wherever the
original is looked up: the defining module, every module that imported the
name, the package namespace and any module-level table holding it.  Each
call records a span (name, start, end, parent, item) and a count.  Spans are
kept in memory, up to ``SPAN_CAP`` of them individually and all of them in
per-name totals, and written out by ``write``.

A span's self time is its duration minus the time its child spans cover.
Group times (``op_s``, ``compare_s``, ...) count only the outermost call of
the group, so a recursive or nested call is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

MODULES = ("theory", "freemodel", "delay", "lifting", "laws", "nogo", "combos", "cli")
METHODS = {"lifting": {"DistLawCandidate": ("apply",)},
           "nogo": {"ContradictionTrace": ("verify",)}}
SPAN_CAP = 50_000

# metric group -> wrapped names whose outermost calls it times
GROUPS = {
    "theory.parse": ("theory.parse_theory",),
    "theory.classify": ("theory.classify_equation", "theory.predict_composability"),
    "freemodel.enumerate": ("freemodel.enumerate_elements",),
    "freemodel.model_equal": ("freemodel.model_equal",),
    "freemodel.op": ("freemodel.apply_op", "freemodel.free_bind", "freemodel.fmap",
                     "freemodel.mu"),
    "lifting.distribute": ("lifting.DistLawCandidate.apply",),
    "lifting.lift_op": ("lifting.seq_lift_op", "lifting.par_lift_op"),
    "delay.compare": ("delay.strong_equal", "delay.weak_bisim"),
    "delay.bind": ("delay.bind",),
    "delay.reify": ("delay.reify",),
    "laws.universe": ("laws.enumerate_universe",),
    "nogo.build": ("nogo.powerset_nogo_search", "nogo.distributions_nogo_replay",
                   "nogo.mogelberg_vezzosi_witness"),
    "nogo.verify": ("nogo.ContradictionTrace.verify",),
    "combos.report": ("combos.combo_report",),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.item: Optional[str] = None
        self.stack: List[list] = []  # [name, start, time covered by children]
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.group_s: Dict[str, float] = defaultdict(float)
        self.group_depth: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._group_of: Dict[str, List[str]] = defaultdict(list)
        for group, names in GROUPS.items():
            for n in names:
                self._group_of[n].append(group)
        self._use = [0, 0]  # cases scanned, inputs enumerated, by check_axiom
        self._originals: List[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self, callers=()) -> None:
        """Wrap delaydist's public functions in its own modules, its package
        namespace and the given caller modules."""
        mods = {name: importlib.import_module(f"delaydist.{name}") for name in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("delaydist"), *callers]
        for mod_name, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr}", fn)
                for ns in namespaces:
                    self._replace_in(ns, fn, wrapper)
            for cls_name, methods in METHODS.get(mod_name, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    fn = cls.__dict__[m]
                    self._originals.append((cls, m, fn, None))
                    setattr(cls, m, self._wrap(f"{mod_name}.{cls_name}.{m}", fn))

    def _replace_in(self, ns, fn, wrapper) -> None:
        for attr, value in list(vars(ns).items()):
            if value is fn:
                self._originals.append((ns, attr, fn, None))
                setattr(ns, attr, wrapper)
            elif isinstance(value, dict):
                for key, v in list(value.items()):
                    if v is fn:
                        self._originals.append((value, key, fn, "dict"))
                        value[key] = wrapper

    def uninstall(self) -> None:
        for target, attr, fn, kind in reversed(self._originals):
            if kind == "dict":
                target[attr] = fn
            else:
                setattr(target, attr, fn)
        self._originals.clear()

    # -- recording ----------------------------------------------------------

    def tag(self, item_id: str, run: Callable[[], Any]) -> Callable[[], Any]:
        """``run`` with its spans carrying ``item_id``, the request they
        belong to."""
        def tagged():
            self.item = item_id
            try:
                return run()
            finally:
                self.item = None

        return tagged

    def _wrap(self, name: str, fn: Callable) -> Callable:
        groups = self._group_of.get(name, ())
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            clock = time.perf_counter
            stack = tracer.stack
            parent = stack[-1] if stack else None
            outer = [g for g in groups if tracer.group_depth[g] == 0]
            for g in groups:
                tracer.group_depth[g] += 1
            use_mark = tracer.counts["laws.universe_size"]
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if parent is not None:
                    parent[2] += dur
                for g in groups:
                    tracer.group_depth[g] -= 1
                for g in outer:
                    tracer.group_s[g] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((name, frame[1], end,
                                         parent[0] if parent is not None else None, tracer.item))
            tracer._count(name, result, use_mark)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count(self, name: str, result: Any, use_mark: float) -> None:
        c = self.counts
        if name == "freemodel.enumerate_elements":
            c["freemodel.elements"] += len(result)
        elif name == "freemodel.model_equal":
            c["freemodel.model_equal_unknown"] += int(result.is_unknown)
        elif name == "laws.enumerate_universe":
            c["laws.universe_size"] += len(result)
        elif name in ("laws.check_axiom", "laws.check_delay_monad_laws"):
            c["laws.cases"] += result.cases
            built = c["laws.universe_size"] - use_mark
            if built:
                self._use[0] += result.cases
                self._use[1] += built
        elif name == "nogo.powerset_nogo_search":
            c["nogo.traces"] += len(result)
            c["nogo.trace_steps"] += sum(len(t.steps) for _, t in result)
        elif name == "nogo.distributions_nogo_replay":
            c["nogo.traces"] += 1
            c["nogo.trace_steps"] += len(result.steps)
        elif name == "combos.combo_report":
            c["combos.cases"] += sum(e.cases for e in result.entries)

    # -- results ------------------------------------------------------------

    def _calls(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)

    def _layer_self(self, layer: str) -> float:
        return sum(t for n, t in self.self_s.items() if n.split(".")[0] == layer)

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-layer metrics per traced pass."""
        g, c = self.group_s, self.counts
        m = {
            "theory.parse_s": g["theory.parse"],
            "theory.classify_s": g["theory.classify"],
            "freemodel.enumerate_s": g["freemodel.enumerate"],
            "freemodel.elements": c["freemodel.elements"],
            "freemodel.model_equal_s": g["freemodel.model_equal"],
            "freemodel.model_equal_calls": self._calls("freemodel.model_equal"),
            "freemodel.model_equal_unknown": c["freemodel.model_equal_unknown"],
            "freemodel.op_s": g["freemodel.op"],
            "freemodel.op_calls": self._calls(*GROUPS["freemodel.op"]),
            "lifting.distribute_s": g["lifting.distribute"],
            "lifting.distribute_calls": self._calls(*GROUPS["lifting.distribute"]),
            "lifting.lift_op_calls": self._calls(*GROUPS["lifting.lift_op"]),
            "delay.compare_s": g["delay.compare"],
            "delay.compare_calls": self._calls(*GROUPS["delay.compare"]),
            "delay.bind_s": g["delay.bind"],
            "delay.reify_s": g["delay.reify"],
            "laws.universe_s": g["laws.universe"],
            "laws.universe_size": c["laws.universe_size"],
            "laws.cases": c["laws.cases"],
            "laws.self_s": self._layer_self("laws"),
            "nogo.traces": c["nogo.traces"],
            "nogo.trace_steps": c["nogo.trace_steps"],
            "nogo.build_s": g["nogo.build"] - g["nogo.verify"],
            "nogo.verify_s": g["nogo.verify"],
            "combos.report_s": g["combos.report"],
            "combos.cases": c["combos.cases"],
            "cli.self_s": self._layer_self("cli"),
        }
        m = {k: v / passes for k, v in m.items()}
        scanned, enumerated = self._use
        m["laws.universe_use_ratio"] = scanned / enumerated if enumerated else 0.0
        return m

    def layer_shares(self, wall_s: float) -> Dict[str, float]:
        """Self time of each module, and of the named hot groups, as a share
        of the traced wall time."""
        shares = {layer: self._layer_self(layer) / wall_s for layer in MODULES}
        for group in ("freemodel.enumerate", "freemodel.model_equal", "freemodel.op",
                      "lifting.distribute", "delay.compare", "nogo.build"):
            shares[group + "_s"] = self.group_s[group] / wall_s
        return shares

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent", "item"]
        doc["spans_kept"] = len(self.spans)
        doc["spans_total"] = sum(self.calls.values())
        doc["calls"] = dict(self.calls)
        doc["self_s"] = dict(self.self_s)
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc), encoding="utf-8")
