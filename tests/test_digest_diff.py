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


def test_size_counts_the_modules_of_both_trees(tmp_path):
    for root, modules in (("base", {"a.py": "x\n", "b.py": "x\ny\n"}), ("change", {"a.py": "x\ny\nz\n"})):
        src = tmp_path / root / "src" / "racetrack"
        src.mkdir(parents=True)
        for name, text in modules.items():
            (src / name).write_text(text)
    out = run("size", tmp_path / "base", tmp_path / "change")
    assert out.stdout.splitlines() == [
        "### source size (lines)",
        "```",
        "module             base change  delta",
        "a.py                  1      3     +2",
        "b.py                  2      0     -2",
        "total                 3      3     +0",
        "```",
    ]


def test_public_api_lists_the_names_only_one_tree_has(tmp_path):
    trees = {
        "base": {"a.py": "import os\nX = 1\n_P = 2\nclass Gone:\n    def m(self): pass\n"
                         "class Kept:\n    f: int\n    def old(self): pass\n    def _h(self): pass\n"
                         "def build(): pass\n",
                 "b.py": "def f(): pass\n"},
        "change": {"a.py": "import sys\nX = 2\nclass Kept:\n    f: int\n    g: int = 0\n"
                           "    def new(self): pass\n    def _i(self): pass\nclass _Hidden:\n"
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
    assert out.stdout.splitlines() == [
        "### public API (- only in base, + only in change)",
        "```",
        "- racetrack.a.Gone",
        "- racetrack.a.Kept.old",
        "- racetrack.a.build",
        "+ racetrack.a.Kept.g",
        "+ racetrack.a.Kept.new",
        "- racetrack.b.f",
        "+ racetrack.c.Y",
        "```",
    ]
    same = run("public-api", tmp_path / "base", tmp_path / "base")
    assert same.stdout.splitlines()[2] == "no public name added or removed"


def test_a_wrong_command_prints_the_usage():
    out = run("digests", "grid")
    assert out.returncode == 2 and "digest_diff.py size BASE CHANGE" in out.stderr
