"""delaydist benchmark: time to verdict on three checking workloads.

    python3 delaybench/run.py --workload canonical-pass --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One process, one thread, one client: the
workload's items (see workloads.py) run back to back in passes, each pass
every item once in the order the seed chose, until ``--seconds`` have gone
by; every pass is completed.  After each pass, outside its timing, every
result is compared with the expected table (expected.py) and its evidence
is replayed.  Times are scaled to a reference machine speed (speed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time, then installs the per-layer wrappers
(tracing.py), sets up again and runs traced passes, printing per-layer
metrics per traced pass and writing the spans under ``.bench_out/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 9
# The tail is p90: every workload's pass has 13 to 15 items and a run makes
# about ten passes, so p90 has at least ten samples beyond it; a short run
# falls back to the highest of TAIL_FALLBACKS that still has ten.  The
# percentile never rises with the sample count, so a faster program is not
# measured at a higher percentile than its parent.
TAIL_PERCENTILE = 90.0
TAIL_FALLBACKS = (75.0, 50.0)
# share of a traced run spent on untraced passes, which the tracing
# overhead is measured against
UNTRACED_SHARE = 0.5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up only, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def _require_program() -> None:
    if not (ROOT / "src" / "delaydist" / "__init__.py").is_file():
        print(f"error: no delaydist sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tail(samples):
    """(percentile, value, samples beyond it) by nearest rank, at
    TAIL_PERCENTILE or the highest fallback with ten samples beyond it;
    with fewer than eleven samples, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in (TAIL_PERCENTILE, *TAIL_FALLBACKS):
        rank = max(1, math.ceil(q * n / 100))
        if n - rank >= 10:
            return q, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def time_setup(args) -> float:
    """Median over fresh processes of the time from process start to the
    first item (interpreter start, imports, theories, parsing, candidates),
    each scaled by a calibration taken just before it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        scale = speed.REFERENCE_S / statistics.mean(speed.calibrate() for _ in range(5))
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed * scale)
    return statistics.median(times)


class Run:
    """Passes, their checks and the tallies the metrics come from."""

    def __init__(self, workloads, items, tracer=None):
        self.workloads = workloads
        self.items = items
        self.tracer = tracer
        self.walls, self.samples, self.calibrations = [], [], []
        # the same, scaled to the reference machine speed pass by pass
        self.scaled_walls, self.scaled_samples = [], []
        self.attempted = self.ok = self.failed = 0
        self.deviations = {}

    def passes(self, deadline: float) -> int:
        """Complete passes until ``deadline``, at least one."""
        n = 0
        while n == 0 or time.perf_counter() < deadline:
            res = self.workloads.run_pass(self.items, speed.calibrate)
            calibration = statistics.mean(res.calibrations)
            scale = speed.REFERENCE_S / calibration
            self.calibrations.append(calibration)
            self.walls.append(res.wall_s)
            self.samples += res.samples_ms
            self.scaled_walls.append(res.wall_s * scale)
            self.scaled_samples += [t * scale for t in res.samples_ms]
            self.check(res)
            del res
            gc.unfreeze()
            gc.collect()
            n += 1
        return n

    def check(self, res) -> None:
        if self.tracer is not None:
            self.tracer.enabled = False
        found = self.workloads.check_pass(self.items, res)
        for item in self.items:
            bad = found[item.id]
            self.attempted += 1
            if not bad:
                self.ok += 1
                continue
            self.deviations[item.id] = bad
            if item.known is None:
                self.failed += 1
        if self.tracer is not None:
            self.tracer.enabled = True


def report_deviations(run: Run, known: dict) -> None:
    for item_id, bad in sorted(run.deviations.items()):
        item = next(i for i in run.items if i.id == item_id)
        label = f"known discrepancy {item.known}" if item.known else "DEVIATION"
        print(f"{label}: {item_id}: {'; '.join(bad)}")
        if item.known:
            print(f"  recorded as: {known[item.known]}")


def main(argv=None) -> int:
    args = _parse(argv)
    _require_program()
    sys.path.insert(0, str(HERE))
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    import expected
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    items = workloads.build(args.workload, args.seed, OUT_DIR, ROOT)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    declared = _declared()
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    print(f"workload {args.workload} seed {args.seed}: {len(items)} items per pass")

    start = time.perf_counter()
    run = Run(workloads, items)
    if not args.trace:
        setup_s = time_setup(args)
        passes = run.passes(time.perf_counter() + args.seconds)
        p, tail_ms, beyond = tail(run.scaled_samples)
        calibration = statistics.median(run.calibrations)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(run.scaled_walls),
            "verdict_p50_ms": statistics.median(run.scaled_samples),
            "verdict_tail_ms": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": run.ok / run.attempted,
        }
        print(f"calibration loop median {calibration:.4f} s (reference {speed.REFERENCE_S} s); "
              f"unscaled: wall_s {statistics.median(run.walls):.6g}, "
              f"verdict_p50_ms {statistics.median(run.samples):.6g}, "
              f"verdict_tail_ms {tail(run.samples)[1]:.6g}")
        print(f"{passes} passes, {len(run.samples)} verdict samples; "
              f"tail is p{p:g} with {beyond} samples beyond it")
    else:
        untraced = run.passes(start + args.seconds * UNTRACED_SHARE)
        untraced_wall = statistics.median(run.scaled_walls)
        tracer.install([workloads])
        tracer.enabled = True
        traced_items = workloads.build(args.workload, args.seed, OUT_DIR, ROOT)
        for item in traced_items:
            item.run = tracer.tag(item.id, item.run)
        traced_run = Run(workloads, traced_items, tracer)
        traced = traced_run.passes(start + args.seconds)
        tracer.enabled = False
        traced_wall = statistics.median(traced_run.scaled_walls)
        metrics = tracer.metrics(traced)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        shares = tracer.layer_shares(sum(traced_run.walls))
        print(f"{untraced} untraced passes (scaled wall {untraced_wall:.3f} s), "
              f"{traced} traced passes (scaled wall {traced_wall:.3f} s)")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  share of traced wall: {name:<26} {share:7.3f}")
        claim, holds = workloads.LAYER_PREDICTIONS[args.workload]
        print(f"layer-share prediction ({claim}): {'held' if holds(shares) else 'FAILED'}")
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "traced_passes": traced,
                      "metrics": metrics, "layer_shares": shares})
        tracer.uninstall()
        run.attempted += traced_run.attempted
        run.ok += traced_run.ok
        run.failed += traced_run.failed
        run.deviations.update(traced_run.deviations)

    report_deviations(run, expected.KNOWN_DISCREPANCIES)
    missing = set(wanted) ^ set(metrics)
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    for name in wanted:
        print(f"  {name:<32} {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        print(f"  {'failed_share (1 - ok_share)':<32} {1 - metrics['ok_share']:.6g} share")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
