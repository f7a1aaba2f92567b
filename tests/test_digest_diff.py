"""ci/digest_diff.py, which makes the summaries of the digest-diff CI job,
run on small hand-made `perfbench/run.py --out` files and source trees."""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "ci" / "digest_diff.py"


def run(*args, stdin=None):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)], input=stdin,
                          capture_output=True, text=True)


def record(case, digest, span_us, **moved):
    return {"case": case, "digest": digest * 64, "span_us": span_us, "valid": True,
            "f_total": 0.9, "zone_util_pct": 50.0, "transports": 4,
            "breakdown_residual_us": 0.0, **moved}


def write_run(path, records):
    path.write_text(json.dumps({"workload": "ring", "seed": 1, "case_records": records}))
    return path


def test_digests_lists_changed_digests_and_metrics_moved_on_held_ones(tmp_path):
    base = write_run(tmp_path / "base.json", [
        record("a/k4/rolodex", "a", 10.0), record("b/k4/tilt", "b", 20.0),
        record("c/k4/plutarch", "c", 30.0)])
    change = write_run(tmp_path / "change.json", [
        record("a/k4/rolodex", "d", 12.0), record("b/k4/tilt", "b", 20.0, f_total=0.8),
        record("c/k4/plutarch", "c", 30.0)])
    out = run("digests", "ring", base, change)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "### ring",
        "```",
        "a/k4/rolodex: digest aaaaaaaaaaaa -> dddddddddddd, span 10.0 -> 12.0 us, valid True -> True",
        "1 of 3 cases changed",
        "",
        "b/k4/tilt: f_total 0.9 -> 0.8",
        "1 of 3 cases moved a metric with an unchanged digest",
        "```",
    ]


def test_digests_of_equal_runs(tmp_path):
    base = write_run(tmp_path / "base.json", [record("a/k4/rolodex", "a", 10.0)])
    out = run("digests", "grid", base, base)
    assert out.stdout.splitlines()[2:7] == [
        "no case changed its digest", "0 of 1 cases changed", "",
        "no metric moved on an unchanged digest",
        "0 of 1 cases moved a metric with an unchanged digest"]


def test_correct_reads_the_last_line_of_a_run():
    ok = run("correct", stdin='progress\n{"correct": true, "attempted": 3, "failed": 0}\n')
    assert (ok.returncode, ok.stdout) == (0, "True 3 0\n")
    bad = run("correct", stdin='{"correct": false, "attempted": 3, "failed": 1}\n')
    assert (bad.returncode, bad.stdout) == (1, "False 3 1\n")
    # a run that is correct but had a case raise or break the oracle fails too
    failed = run("correct", stdin='{"correct": true, "attempted": 3, "failed": 1}\n')
    assert (failed.returncode, failed.stdout) == (1, "True 3 1\n")


def test_size_counts_the_modules_of_both_trees(tmp_path):
    modules = {
        "base": {"a.py": '"""A module\ndocstring."""\nx = 1\n', "b.py": "x\n\n# a comment\ny  # code\n"},
        "change": {"a.py": 'class A:\n    """One line."""\n\n    def f(self):\n        """Two\n        lines."""\n'
                           '        return "#"\n'},
    }
    for root, texts in modules.items():
        src = tmp_path / root / "src" / "racetrack"
        src.mkdir(parents=True)
        for name, text in texts.items():
            (src / name).write_text(text)
    out = run("size", tmp_path / "base", tmp_path / "change")
    assert out.stdout.splitlines() == [
        "### source size (lines, and code lines: no blank, comment or docstring line)",
        "```",
        "                                lines                 code",
        "module             base change  delta   base change  delta",
        "a.py                  3      7     +4      1      3     +2",
        "b.py                  4      0     -4      2      0     -2",
        "total                 7      7     +0      3      3     +0",
        "```",
    ]


def test_public_api_lists_the_names_only_one_tree_has(tmp_path):
    trees = {
        "base": {"a.py": "import os\nX = 1\n_P = 2\nclass Gone:\n    def m(self): pass\n"
                         "class Kept:\n    f: int\n    def old(self): pass\n    def _h(self): pass\n"
                         "    def __init__(self):\n        self.flag: bool = True\n        self._p = 1\n"
                         "        self.kept = 0\n"
                         "def build(): pass\n",
                 "b.py": "def f(): pass\n"},
        "change": {"a.py": "import sys\nX = 2\nclass Kept:\n    f: int\n    g: int = 0\n"
                           "    def new(self): pass\n    def _i(self): pass\n"
                           "    def __init__(self):\n        self.kept = self.later = 0\n"
                           "    def other(self):\n        self.set_late = 1\n"
                           "class _Hidden:\n"
                           "    def m(self): pass\n",
                   "c.py": "Y: int = 0\n"},
    }
    for root, modules in trees.items():
        src = tmp_path / root / "src" / "racetrack"
        src.mkdir(parents=True)
        for name, text in modules.items():
            (src / name).write_text(text)
    out = run("public-api", tmp_path / "base", tmp_path / "change")
    assert out.returncode == 0, out.stderr
    # the first section; the second is held by the test below
    assert out.stdout.splitlines()[:13] == [
        "### public API (- only in base, + only in change)",
        "```",
        "- racetrack.a.Gone",
        "- racetrack.a.Kept.flag",
        "- racetrack.a.Kept.old",
        "- racetrack.a.build",
        "+ racetrack.a.Kept.g",
        "+ racetrack.a.Kept.later",
        "+ racetrack.a.Kept.new",
        "+ racetrack.a.Kept.other",
        "- racetrack.b.f",
        "+ racetrack.c.Y",
        "```",
    ]
    same = run("public-api", tmp_path / "base", tmp_path / "base")
    assert same.stdout.splitlines()[2] == "no public name added or removed"


def test_public_api_lists_the_names_nothing_calls(tmp_path):
    """A name counts as called where its last component is a word of a
    file under src/racetrack, perfbench or ci other than its definition;
    an Enum's members are skipped, its other names are not."""
    src = tmp_path / "tree" / "src" / "racetrack"
    src.mkdir(parents=True)
    (src / "m.py").write_text("from enum import Enum\n\n\nclass Kind(Enum):\n    A = 1\n\n"
                              "    def spare(self): pass\n\n\ndef used(): pass\n\n\ndef unused(): pass\n")
    (tmp_path / "tree" / "perfbench").mkdir()
    (tmp_path / "tree" / "perfbench" / "p.py").write_text("from racetrack import m\nm.used(m.Kind)\n")
    out = run("public-api", tmp_path / "tree", tmp_path / "tree")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[4:] == [
        "### public names of the change with no caller in src/racetrack, perfbench or ci",
        "```",
        "racetrack.m.Kind.spare",
        "racetrack.m.unused",
        "```",
    ]
    (tmp_path / "tree" / "ci").mkdir()
    (tmp_path / "tree" / "ci" / "c.py").write_text("# unused and spare are called here\n")
    assert run("public-api", tmp_path / "tree", tmp_path / "tree").stdout.splitlines()[6] == (
        "every public name has a caller")


def test_a_wrong_command_prints_the_usage():
    out = run("digests", "grid")
    assert out.returncode == 2 and "digest_diff.py size BASE CHANGE" in out.stderr


# a tree whose perfbench/pipeline.py schedules one small circuit, SK-QAOA on
# 8 qubits with LAYERS layers, with this checkout's racetrack; REVERSED plans
# every transition with its ops in reverse order, which keeps every op count
FAKE_PIPELINE = '''
import dataclasses
import sys
from types import SimpleNamespace

sys.path.insert(0, {src!r})
from racetrack import machine, schedulers, translate, workloads

WORKLOADS = {{"tiny": None}}
REVERSED = {reversed!r}
LAYERS = {layers!r}


def import_racetrack():
    if REVERSED:
        plan_reorder = schedulers.plan_reorder

        def reversed_ops(*args):
            plan = plan_reorder(*args)
            return dataclasses.replace(plan, ops=plan.ops[::-1])

        schedulers.plan_reorder = reversed_ops
    return SimpleNamespace(translate=translate, schedulers=schedulers)


def build_cases(rt, workload, seed):
    circuit = workloads.gen_qaoa(workloads.GraphSpec(workloads.GraphKind.SK, 8), LAYERS)
    return [SimpleNamespace(circuit_name="sk8", circuit=circuit, machine=machine.make_machine(4),
                            policy=policy, flags=None)
            for policy in ("rolodex", "tilt", "plutarch")]
'''


def fake_tree(path, reversed_ops=False, layers=1):
    (path / "perfbench").mkdir(parents=True)
    src = str(SCRIPT.parent.parent / "src")
    (path / "perfbench" / "pipeline.py").write_text(
        FAKE_PIPELINE.format(src=src, reversed=reversed_ops, layers=layers))
    return path


def test_translations_list_each_changed_circuit_once_per_expand_mode(tmp_path):
    base = fake_tree(tmp_path / "base")
    same = run("translations", base, base)
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines() == [
        "### translations", "```", "no translation changed",
        "0 of 2 circuit translations changed", "```"]
    # reordered plans leave the translations as they are
    reordered = run("translations", base, fake_tree(tmp_path / "reversed", reversed_ops=True))
    assert reordered.stdout == same.stdout
    deeper = run("translations", base, fake_tree(tmp_path / "deeper", layers=2))
    assert deeper.returncode == 0, deeper.stderr
    assert deeper.stdout.splitlines() == [
        "### translations", "```", "tiny/sk8 expand_rzz=False", "tiny/sk8 expand_rzz=True",
        "2 of 2 circuit translations changed", "```"]


def test_plan_call_counts_give_calls_ops_and_a_plan_hash(tmp_path):
    from racetrack import machine, schedulers, translate, workloads

    calls = ops = 0
    plan_reorder = schedulers.plan_reorder

    def counted(*args):
        nonlocal calls, ops
        plan = plan_reorder(*args)
        calls += 1
        ops += len(plan.ops)
        return plan

    circuit = translate.translate_to_native(workloads.gen_qaoa(workloads.GraphSpec(workloads.GraphKind.SK, 8), 1))
    schedulers.plan_reorder = counted
    try:
        for policy in ("rolodex", "tilt", "plutarch"):
            schedulers.schedule(circuit, machine.make_machine(4), policy)
    finally:
        schedulers.plan_reorder = plan_reorder
    tree = fake_tree(tmp_path / "tree")
    out = run("plan-call-counts", tree)
    assert out.returncode == 0, out.stderr
    name, n, n_ops, digest = out.stdout.split()
    assert (name, int(n), int(n_ops)) == ("tiny", calls, ops) and calls and ops
    assert len(digest) == 64 and run("plan-call-counts", tree).stdout == out.stdout


def test_plan_calls_see_a_reordered_op_sequence(tmp_path):
    base = fake_tree(tmp_path / "base")
    change = fake_tree(tmp_path / "change", reversed_ops=True)
    same = run("plan-calls", base, base)
    assert same.returncode == 0, same.stderr
    lines = same.stdout.splitlines()
    assert lines[:2] == ["### reorder plans per pass", "```"]
    assert lines[3].split() == ["workload", "base", "change", "delta", "base", "change", "delta", "plans"]
    assert lines[4].split()[-1] == "same" and lines[4].split()[3] == "+0"
    # the same calls and op counts, so the trace digests would not move
    changed = run("plan-calls", base, change).stdout.splitlines()
    row = changed[4].split()
    assert row[:7] == lines[4].split()[:7]
    base_hash = run("plan-call-counts", base).stdout.split()[3]
    change_hash = run("plan-call-counts", change).stdout.split()[3]
    assert base_hash != change_hash
    assert row[7:] == ["changed:", base_hash[:12], "->", change_hash[:12]]


def test_layer_call_counts_give_calls_gates_shared_key_calls_and_a_layer_hash(tmp_path):
    from racetrack import machine, schedulers, translate, workloads

    calls = gates = shared = 0
    list_layers = translate.list_layers

    def counted(gate_list, key, *args):
        nonlocal calls, gates, shared
        calls += 1
        gates += len(gate_list)
        shared += len({key(g) for g in gate_list}) < len(gate_list)
        return list_layers(gate_list, key, *args)

    circuit = translate.translate_to_native(workloads.gen_qaoa(workloads.GraphSpec(workloads.GraphKind.SK, 8), 1))
    with patch.object(translate, "list_layers", counted):
        for policy in ("rolodex", "tilt", "plutarch"):
            schedulers.schedule(circuit, machine.make_machine(4), policy)
    tree = fake_tree(tmp_path / "tree")
    out = run("layer-call-counts", tree)
    assert out.returncode == 0, out.stderr
    name, n, n_gates, n_shared, digest = out.stdout.split()
    assert (name, int(n), int(n_gates), int(n_shared)) == ("tiny", calls, gates, shared)
    assert 0 < shared < calls and len(digest) == 64
    assert run("layer-call-counts", tree).stdout == out.stdout


def test_layer_calls_see_moved_layers(tmp_path):
    base = fake_tree(tmp_path / "base")
    same = run("layer-calls", base, base)
    assert same.returncode == 0, same.stderr
    lines = same.stdout.splitlines()
    assert lines[:2] == ["### list_layers calls per pass", "```"] and lines[-1] == "```"
    assert lines[3].split() == ["workload", *3 * ["base", "change", "delta"], "layers"]
    row = lines[4].split()
    assert row[0] == "tiny" and row[3] == row[6] == row[9] == "+0" and row[10:] == ["same"]
    # reordered plans move no batch
    reordered = run("layer-calls", base, fake_tree(tmp_path / "reversed", reversed_ops=True))
    assert reordered.stdout == same.stdout
    deeper = fake_tree(tmp_path / "deeper", layers=2)
    changed = run("layer-calls", base, deeper).stdout.splitlines()[4].split()
    base_hash = run("layer-call-counts", base).stdout.split()[4]
    deeper_hash = run("layer-call-counts", deeper).stdout.split()[4]
    assert int(changed[2]) > int(changed[1]) and base_hash != deeper_hash
    assert changed[10:] == ["changed:", base_hash[:12], "->", deeper_hash[:12]]


def test_host_ab_runs_this_checkout_against_itself():
    root = SCRIPT.parent.parent
    out = run("host-ab", root, root, "--rounds", "1", "ring")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:2] == ["### host time, base against change (1 interleaved rounds, "
                         "each in both slot assignments, seed 1)", "```"]
    assert lines[3].split() == ["workload", "cases"] + ["base", "change", "fwd", "rev", "ratio"] * 3
    row = lines[4].split()
    assert row[:2] == ["ring", "10"] and len(row) == 17 and lines[5] == "```"
    assert all(float(x) > 0 for x in row[2:])
    for base, change, fwd, rev, ratio in zip(*[iter(map(float, row[2:]))] * 5):
        assert ratio == pytest.approx(math.sqrt(fwd / rev), abs=2e-3)
    assert lines[6].startswith("base and change: each tree over both slots.") and len(lines) == 7


def test_host_ab_needs_relative_imports(tmp_path):
    src = tmp_path / "tree" / "src" / "racetrack"
    src.mkdir(parents=True)
    (src / "gates.py").write_text("import math\nfrom . import circuit\n")
    (src / "circuit.py").write_text("from racetrack.gates import Gate\n")
    root = SCRIPT.parent.parent
    out = run("host-ab", tmp_path / "tree", root, "--rounds", "1")
    assert out.returncode == 1 and out.stdout == ""
    assert "imports racetrack by name (circuit.py:1)" in out.stderr


def test_host_ab_rejects_an_unknown_workload():
    root = SCRIPT.parent.parent
    out = run("host-ab", root, root, "nowhere")
    assert out.returncode == 2 and "unknown workload(s) ['nowhere']" in out.stderr


def mutant_tree(path, old, new):
    """A copy of this checkout's src/racetrack and perfbench, with `old`
    replaced by `new` in metrics.py."""
    root = SCRIPT.parent.parent
    for d in ("src/racetrack", "perfbench"):
        shutil.copytree(root / d, path / d, ignore=shutil.ignore_patterns("__pycache__"))
    metrics = path / "src" / "racetrack" / "metrics.py"
    text = metrics.read_text()
    assert text.count(old) == 1
    metrics.write_text(text.replace(old, new))
    return path


def test_metrics_list_each_case_and_field_that_differs(tmp_path):
    # the mutant moves the idle time of the 56-ion cases at k=4 alone: three
    # grid circuits and the ring circuit, while deep runs at k8sc only
    change = mutant_tree(tmp_path / "change", "idle=span - busy,",
                         "idle=span - busy + (tr.width == 56 and tr.gate_zones == 4),")
    out = run("metrics", SCRIPT.parent.parent, change)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    configs = ("plutarch", "plutarch-noblocks", "plutarch-nopipe", "rolodex", "tilt")
    # every benchmark schedule covers its span without a gap, so idle is 0.0
    moved = [f"{w}/{circuit}/k4/{config}: runtime_breakdown.idle 0.0 -> 1.0"
             for w, circuits in (("grid", ("ghz_logical8", "msd7to1", "steane8")), ("ring", ("vqe_su2_56",)))
             for circuit in circuits for config in configs]
    assert lines[:2] == ["### trace metrics (runtime_breakdown, zone_utilization, fidelity_report), by repr",
                         "```"]
    assert sorted(lines[2:17]) == sorted(moved[:15]) and sorted(lines[19:24]) == sorted(moved[15:])
    assert lines[17:19] == ["grid: 15 of 150 cases differ", "deep: 0 of 10 cases differ"]
    assert lines[24:] == ["ring: 5 of 10 cases differ", "```"]
