"""The benchmark's own tests.

    python3 -m pytest delaybench

They run the benchmark for a second or two and build item lists; none of
them is part of the program's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import expected as ex  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from delaydist.delay import Step, resolve  # noqa: E402
from delaydist.lifting import custom_candidate, seq_lift_op  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "delaybench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_exactly_the_declared_ones(trace, section):
    out = _bench("--workload", "quotient-rewrite", "--seed", "3", "--seconds", "1",
                 "--trace", trace)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in DECLARED[section]}
    for m in DECLARED[section]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_same_seed_same_items(tmp_path):
    for w in workloads.WORKLOADS:
        first = [i.id for i in workloads.build(w, 11, tmp_path / "a", ROOT)]
        again = [i.id for i in workloads.build(w, 11, tmp_path / "b", ROOT)]
        assert first == again, w
        assert len(first) == len(set(first)), w
    renamed = [(tmp_path / d / "theories" / f"{n}.th").read_text()
               for d in "ab" for n in workloads.RENAMED]
    assert renamed[:len(workloads.RENAMED)] == renamed[len(workloads.RENAMED):]


def test_seed_changes_order_not_content(tmp_path):
    a = [i.id for i in workloads.build("canonical-pass", 1, tmp_path, ROOT)]
    b = [i.id for i in workloads.build("canonical-pass", 2, tmp_path, ROOT)]
    assert a != b and sorted(a) == sorted(b)


def _dropping_lift(op, args, th):
    """The sequential lifting, minus one step whenever there is one."""
    d = resolve(seq_lift_op(op, args, th))
    return d.tail if isinstance(d, Step) else d


def test_wrong_candidate_raises_failed_share(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "induced_candidate",
                        lambda th, mode: custom_candidate(th, mode, _dropping_lift))
    items = [i for i in workloads.build("canonical-pass", 1, tmp_path, ROOT)
             if i.id.startswith("suite:magma:seq")]
    res = workloads.run_pass(items, run.speed.calibrate)
    bench = run.Run(workloads, items)
    bench.check(res)
    assert bench.attempted == 1 and bench.failed == 1
    assert 1 - bench.ok / bench.attempted > 0


def test_count_model_reproduces_documented_universes():
    # semilattice seq MultT: 6,196 inputs; monoid par: 168,421; magma seq
    # MultT: 176,420 (default bounds: two values, three steps, depth two)
    tdd = ex.double_delays(2, 3, False)
    assert ex.size("finset", tdd, 2) == 6196
    assert ex.size("list", tdd, 2) == 168421
    assert ex.size("tree", tdd, 2) == 176420
    for kind in ("tree", "list", "multiset", "finset"):
        for g, d in ((1, 2), (3, 1), (2, 2)):
            assert ex.size(kind, g, d) == len(ex.closure(kind, tuple(range(g)), d))


def test_documented_semilattice_counterexample_position():
    item = workloads._refutation_item("semilattice", "seq", "MultT", workloads.bounds())
    assert item.check(item.run(), {}) == []


def test_powerset_clash_table_covers_every_configuration():
    kinds = [ex.powerset_clash(a, b, br) for a in ("∅", "x", "y", "x ∪ y")
             for b in ("∅", "x", "y", "x ∪ y") for br in ("Eq1", "Eq2")]
    assert len(kinds) == ex.POWERSET_CONFIGS
    assert kinds.count("StepEqDoubleStep") == 2 and kinds.count("StepEqNow") == 3


def test_tail_has_ten_samples_beyond():
    q, value, beyond = run.tail(list(range(200)))
    assert (q, beyond) == (90.0, 20) and value == 179
    q, value, beyond = run.tail(list(range(60)))
    assert q == 75.0 and beyond >= 10
    assert run.tail([3.0, 1.0]) == (100.0, 3.0, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "delaybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "canonical-pass", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_design_notes_map_every_per_layer_metric():
    notes = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in DECLARED["per_layer"]}
    assert set(notes["per_layer_moves"]) == declared
    assert {w["name"] for w in DECLARED["workloads"]} == set(notes["workloads"])
