"""ci/digest_diff.py, which makes the summaries of the digest-diff CI job,
run on small hand-made `perfbench/run.py --out` files and source trees."""
import json
import subprocess
import sys
from pathlib import Path

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
