"""ci/digest_diff.py, which makes the summaries of the digest-diff CI job,
run on small hand-made `perfbench/run.py --out` files and source trees."""
import json
import math
import runpy
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
    # a name that only a docstring or a comment gives has no caller
    (tmp_path / "tree" / "ci").mkdir()
    caller = tmp_path / "tree" / "ci" / "c.py"
    caller.write_text('"""Call unused first, then spare."""\n# unused and spare are called here\n')
    assert run("public-api", tmp_path / "tree", tmp_path / "tree").stdout.splitlines()[6:8] == [
        "racetrack.m.Kind.spare", "racetrack.m.unused"]
    caller.write_text('from racetrack.m import unused\nsetattr(unused, "spare", None)\n')
    assert run("public-api", tmp_path / "tree", tmp_path / "tree").stdout.splitlines()[6] == (
        "every public name has a caller")


@pytest.mark.parametrize("code, words", [
    ('m.unused(k=f"{x}")\n', {"m", "unused", "k", "x"}),
    ("from racetrack.m import spare as u\nimport a.b\n", {"spare", "u", "a", "b"}),
    # a docstring, a parameter, a comment and a string that is no identifier name nothing
    ('class C:\n    """unused is named here."""\n    def f(self, unused):  # unused\n'
     '        return "spare", "not spare"\n', {"C", "f", "spare"}),
])
def test_code_words_are_the_identifiers_code_uses(code, words):
    code_words = runpy.run_path(str(SCRIPT))["code_words"]
    assert set(code_words(code)) - {None} == words


def test_a_wrong_command_prints_the_usage():
    out = run("digests", "grid")
    assert out.returncode == 2 and "digest_diff.py size BASE CHANGE" in out.stderr


# a small perfbench/pipeline.py: SK-QAOA on 8 qubits under three policies on
# four and eight gate zones, built with the racetrack it is given
FAKE_PIPELINE = """
from types import SimpleNamespace

MODULES = ("machine", "metrics", "schedulers", "translate", "workloads")
WORKLOADS = {"tiny": None}
POLICIES = ("rolodex", "tilt", "plutarch")


def build_cases(rt, workload, seed):
    w = rt.workloads
    circuit = w.gen_qaoa(w.GraphSpec(w.GraphKind.SK, 8), 1)
    return [SimpleNamespace(name=f"sk8/k{k}/{policy}", circuit_name="sk8", circuit=circuit,
                            machine=rt.machine.make_machine(k), policy=policy, flags=None)
            for k in (4, 8) for policy in POLICIES]
"""
POLICIES = ("rolodex", "tilt", "plutarch")


def fake_tree(path, module=None, old=None, new=None, pipeline=FAKE_PIPELINE):
    """A tree with `pipeline` as perfbench/pipeline.py and a copy of this
    checkout's src/racetrack, with `old` replaced by `new` in `module` when
    given."""
    shutil.copytree(SCRIPT.parent.parent / "src" / "racetrack", path / "src" / "racetrack",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (path / "perfbench").mkdir()
    (path / "perfbench" / "pipeline.py").write_text(pipeline)
    if module:
        source = path / "src" / "racetrack" / module
        text = source.read_text()
        assert text.count(old) == 1, f"{module} holds {text.count(old)} copies of {old!r}, not one"
        source.write_text(text.replace(old, new))
    return path


def sections(out):
    """The lines of each section that `out` prints, by title, without the
    fences."""
    found = {}
    for block in out.split("### ")[1:]:
        title, _, body = block.partition("\n")
        lines = body.splitlines()
        assert lines[0] == lines[-1] == "```"
        found[title] = lines[1:-1]
    return found


PLANS = "reorder plans per pass"
LAYERS = "list_layers calls per pass"
METRICS = "trace metrics (runtime_breakdown, zone_utilization, fidelity_report), by repr"


def stages(base, change):
    out = run("stages", base, change)
    assert out.returncode == 0, out.stderr
    return sections(out.stdout)


def counted_pass():
    """The plan_reorder calls and ops, and the list_layers calls, gates
    and shared-key calls, of FAKE_PIPELINE's cases with this checkout's
    racetrack, counted by wrapping both."""
    from racetrack import machine, schedulers, translate, workloads

    plans, layers = [0, 0], [0, 0, 0]
    plan_reorder, list_layers = schedulers.plan_reorder, translate.list_layers

    def planned(*args):
        plan = plan_reorder(*args)
        plans[0] += 1
        plans[1] += len(plan.ops)
        return plan

    def layered(gates, key, *args):
        layers[0] += 1
        layers[1] += len(gates)
        layers[2] += len({key(g) for g in gates}) < len(gates)
        return list_layers(gates, key, *args)

    circuit = translate.translate_to_native(workloads.gen_qaoa(workloads.GraphSpec(workloads.GraphKind.SK, 8), 1))
    with patch.object(schedulers, "plan_reorder", planned), patch.object(translate, "list_layers", layered):
        for k in (4, 8):
            for policy in POLICIES:
                schedulers.schedule(circuit, machine.make_machine(k), policy)
    return plans, layers


def test_stages_of_a_tree_against_itself(tmp_path):
    tree = fake_tree(tmp_path / "tree")
    found = stages(tree, tree)
    assert list(found) == ["translations", PLANS, LAYERS, METRICS]
    assert found["translations"] == ["tiny: 0 of 2 circuit translations changed"]
    assert found[METRICS] == ["tiny: 0 of 6 cases differ"]
    (calls, ops), (layer_calls, gates, shared) = counted_pass()
    assert calls and ops and 0 < shared < layer_calls
    assert found[PLANS][1].split() == ["workload", "base", "change", "delta", "base", "change", "delta", "plans"]
    assert found[PLANS][2].split() == ["tiny", str(calls), str(calls), "+0", str(ops), str(ops), "+0", "same"]
    assert found[LAYERS][1].split() == ["workload", *3 * ["base", "change", "delta"], "layers"]
    assert found[LAYERS][2].split() == ["tiny", *(x for n in (layer_calls, gates, shared) for x in (str(n), str(n), "+0")),
                                        "same"]
    assert len(found[PLANS]) == len(found[LAYERS]) == 3


# the line that returns plan_reorder's plan
PLAN_RETURN = "return _costed(ops, work.frozen(), m, m.circulation_paths if mode is PlanMode.CIRCULATION_ALLOWED else ())"


def test_stages_see_reversed_plan_ops(tmp_path):
    # the same calls and op counts, so the trace digests would not move
    base = fake_tree(tmp_path / "base")
    change = fake_tree(tmp_path / "change", "planner.py", PLAN_RETURN,
                       f"plan = {PLAN_RETURN.removeprefix('return ')}\n    return __import__('dataclasses').replace(plan, ops=plan.ops[::-1])")
    same, changed = stages(base, base), stages(base, change)
    assert {k: v for k, v in changed.items() if k != PLANS} == {k: v for k, v in same.items() if k != PLANS}
    row = changed[PLANS][2].split()
    assert row[:7] == same[PLANS][2].split()[:7] and row[7] == "changed:" and row[8] != row[10]
    assert len(row) == 11 and row[9] == "->"


def test_stages_see_a_stale_index_entry(tmp_path):
    # the fallback reindexes a rewrite that keeps the crystal count one
    # crystal short, so the last crystal it rewrote keeps its qubits' old
    # indices.  On QAOA over a 20-qubit path that leaves stale the final
    # index of Plutarch's plans at four zones from the third of its 19 on,
    # each with later plans after it.  No plan's ops, final crystals or
    # costs move, so the plan row sees it by the final index alone; the zone
    # batches that read the stale index as their slots move, and so may the
    # traces
    pipeline = FAKE_PIPELINE.replace("w.GraphSpec(w.GraphKind.SK, 8), 1)", "w.GraphSpec(w.GraphKind.PATH, 20), 1)")
    base = fake_tree(tmp_path / "base", pipeline=pipeline)
    change = fake_tree(tmp_path / "change", "planner.py",
                       "work.reindex(left, left + len(segment) if len(cs) == count else None)",
                       "work.reindex(left, left + len(segment) - 1 if len(cs) == count else None)",
                       pipeline=pipeline)
    same, changed = stages(base, base), stages(base, change)
    assert changed["translations"] == same["translations"]
    row = changed[PLANS][2].split()
    assert same[PLANS][2].split()[7] == "same"
    assert row[:7] == same[PLANS][2].split()[:7] and row[7] == "changed:"


def test_stages_see_a_changed_translation(tmp_path):
    # an H emits a third row, an Rz(0), in both modes: every later native gate
    # id moves, so the layers do too; both trees build the same cases
    base = fake_tree(tmp_path / "base")
    change = fake_tree(tmp_path / "change", "translate.py",
                       '"H": ((GateType.U1Q, _ALL, False, (PI / 2, -PI / 2)), (GateType.RZ, _ALL, False, (PI,))),',
                       '"H": ((GateType.U1Q, _ALL, False, (PI / 2, -PI / 2)), (GateType.RZ, _ALL, False, (PI,)),'
                       ' (GateType.RZ, _ALL, False, (0.0,))),')
    found = stages(base, change)
    assert found["translations"] == ["tiny/sk8 expand_rzz=False", "tiny/sk8 expand_rzz=True",
                                     "tiny: 2 of 2 circuit translations changed"]
    row = found[LAYERS][2].split()
    assert int(row[5]) > int(row[4]) and row[10] == "changed:"


def test_stages_list_each_case_and_field_of_changed_metrics(tmp_path):
    # the mutant moves the idle time of the cases at four zones alone; every
    # schedule covers its span without a gap, so idle is 0.0
    base = fake_tree(tmp_path / "base")
    change = fake_tree(tmp_path / "change", "metrics.py", "idle=span - busy,",
                       "idle=span - busy + (tr.gate_zones == 4),")
    same, changed = stages(base, base), stages(base, change)
    assert changed[METRICS] == [f"tiny/sk8/k4/{policy}: runtime_breakdown.idle 0.0 -> 1.0" for policy in POLICIES] + [
        "tiny: 3 of 6 cases differ"]
    assert {k: v for k, v in changed.items() if k != METRICS} == {k: v for k, v in same.items() if k != METRICS}


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
