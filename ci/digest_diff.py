"""Summaries of the digest-diff CI job: a pull request against its base.

    python3 ci/digest_diff.py size BASE CHANGE
    python3 ci/digest_diff.py correct < RUN_OUTPUT
    python3 ci/digest_diff.py digests WORKLOAD BASE.json CHANGE.json
    python3 ci/digest_diff.py translations BASE CHANGE
    python3 ci/digest_diff.py plan-calls BASE CHANGE
    python3 ci/digest_diff.py public-api BASE CHANGE

BASE and CHANGE are the roots of two checkouts of this repository, and the
.json files come from `perfbench/run.py --out`.  `correct` reads the output
of a `perfbench/run.py` run, prints its "correct", "attempted" and "failed"
fields, and exits 1 unless "correct" is true.  Each other command prints
one Markdown section for the job summary:

* size: the lines of each src/racetrack module in both trees; a module
  only one tree has counts 0 lines in the other.
* digests: the cases whose trace digest changed (perfbench/compare.py),
  and the cases whose digest held while a reported metric moved (a metric
  of an unchanged trace should not move unless its definition changed).
* translations: each benchmark circuit whose native translation changed,
  by a sha256 over each native gate's (id, kind, qubits, repr(params),
  source) and the sorted edge set, per expand_rzz mode, with the circuits
  built by that tree's perfbench/pipeline.build_cases (seed 1).
* plan-calls: how often each tree's `schedule` calls
  `schedulers.plan_reorder` over one pass of each workload (seed 1),
  counted through the module attribute the schedulers call it by.
* public-api: the public names that only one tree has, per src/racetrack
  module: top-level functions, classes and assigned names, and the
  methods and class attributes of public classes.  A class only one tree
  has is listed alone.  The names are read with `ast`; nothing is
  imported.

Translations and plan calls are computed in one process per tree, as each
imports its own tree's racetrack.
"""
from __future__ import annotations

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("span_us", "f_total", "zone_util_pct", "transports", "breakdown_residual_us")
FENCE = "```"


def size(base: str, change: str) -> None:
    def lines(path: Path) -> int:
        return path.read_bytes().count(b"\n") if path.exists() else 0

    trees = [Path(root, "src/racetrack") for root in (base, change)]
    names = sorted({p.name for d in trees for p in d.glob("*.py")})
    rows = [(name, lines(trees[0] / name), lines(trees[1] / name)) for name in names]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print("### source size (lines)")
    print(FENCE)
    print(f"{'module':16} {'base':>6} {'change':>6} {'delta':>6}")
    for name, old, new in rows:
        print(f"{name:16} {old:6} {new:6} {new - old:+6}")
    print(FENCE)


def correct() -> int:
    r = json.loads(sys.stdin.read().splitlines()[-1])
    print(r["correct"], r["attempted"], r["failed"])
    return 0 if r["correct"] is True else 1


def metric_moves(old_path: str, new_path: str) -> list[str]:
    """One line per case whose digest held while a reported metric moved."""
    old, new = ({r["case"]: r for r in json.loads(Path(path).read_text())["case_records"]}
                for path in (old_path, new_path))
    moved = []
    for name in sorted(old.keys() & new.keys()):
        a, b = old[name], new[name]
        if a.get("digest") != b.get("digest"):
            continue
        diffs = [f"{f} {a.get(f)!r} -> {b.get(f)!r}" for f in FIELDS if a.get(f) != b.get(f)]
        if diffs:
            moved.append(f"{name}: " + ", ".join(diffs))
    return moved


def digests(workload: str, old_path: str, new_path: str) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import compare

    print(f"### {workload}")
    print(FENCE)
    compare.main([old_path, new_path])   # exits 1 when a digest changed, which is no fault here
    print()
    moved = metric_moves(old_path, new_path)
    new_cases = json.loads(Path(new_path).read_text())["case_records"]
    print("\n".join(moved) if moved else "no metric moved on an unchanged digest")
    print(f"{len(moved)} of {len(new_cases)} cases moved a metric with an unchanged digest")
    print(FENCE)


def _import_tree(root: str):
    sys.path.insert(0, str(Path(root, "perfbench")))
    import pipeline

    return pipeline, pipeline.import_racetrack()


def translation_hashes(root: str) -> None:
    pipeline, rt = _import_tree(root)
    for w in pipeline.WORKLOADS:
        circuits = {}
        for case in pipeline.build_cases(rt, w, 1):
            circuits.setdefault(case.circuit_name, case.circuit)
        for name in sorted(circuits):
            for expand in (False, True):
                native = rt.translate.translate_to_native(circuits[name], expand_rzz=expand)
                h = hashlib.sha256()
                for g in native.gates:
                    h.update(repr((g.id, g.kind.value, g.qubits, repr(g.params), g.source)).encode())
                h.update(repr(sorted(native.edges)).encode())
                print(f"{w}/{name} expand_rzz={expand} {h.hexdigest()}")


def plan_call_counts(root: str) -> None:
    pipeline, rt = _import_tree(root)
    plan_reorder = rt.schedulers.plan_reorder
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return plan_reorder(*args, **kwargs)

    rt.schedulers.plan_reorder = counted
    for w in pipeline.WORKLOADS:
        calls = 0
        for case in pipeline.build_cases(rt, w, 1):
            native = rt.translate.translate_to_native(case.circuit)
            rt.schedulers.schedule(native, case.machine, case.policy, case.flags)
        print(w, calls)


def _per_tree(command: str, root: str) -> list[str]:
    """The lines `command` prints for the tree at `root`, run in a process
    of its own."""
    out = subprocess.run([sys.executable, __file__, command, root], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()


def translations(base: str, change: str) -> None:
    old, new = ({line.rsplit(" ", 1)[0]: line.rsplit(" ", 1)[1] for line in _per_tree("translation-hashes", root)}
                for root in (base, change))
    changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    print("### translations")
    print(FENCE)
    print("\n".join(changed) if changed else "no translation changed")
    print(f"{len(changed)} of {len(new)} circuit translations changed")
    print(FENCE)


def plan_calls(base: str, change: str) -> None:
    old, new = ({w: int(n) for w, n in (line.split() for line in _per_tree("plan-call-counts", root))}
                for root in (base, change))
    print("### plan_reorder calls per pass")
    print(FENCE)
    print(f"{'workload':10} {'base':>7} {'change':>7} {'delta':>7}")
    for w in old:
        print(f"{w:10} {old[w]:7} {new[w]:7} {new[w] - old[w]:+7}")
    print(FENCE)


def _public_names(path: Path) -> set[str]:
    """The public top-level names a module defines, and "Class.member" for
    each public method or class attribute of a public class."""
    if not path.exists():
        return set()

    def defined(body) -> dict[str, ast.stmt]:
        names = {}
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update((t.id, node) for t in targets if isinstance(t, ast.Name))
        return {name: node for name, node in names.items() if not name.startswith("_")}

    top = defined(ast.parse(path.read_text()).body)
    members = {f"{name}.{member}" for name, node in top.items() if isinstance(node, ast.ClassDef)
               for member in defined(node.body)}
    return set(top) | members


def public_api(base: str, change: str) -> None:
    trees = [Path(root, "src/racetrack") for root in (base, change)]
    lines = []
    for name in sorted({p.name for d in trees for p in d.glob("*.py")}):
        old, new = (_public_names(d / name) for d in trees)
        module = "racetrack." + name.removesuffix(".py")
        for sign, names in (("-", old - new), ("+", new - old)):
            # a member of a class only one tree has goes with its class
            lines += [f"{sign} {module}.{n}" for n in sorted(names)
                      if "." not in n or n.split(".")[0] not in names]
    print("### public API (- only in base, + only in change)")
    print(FENCE)
    print("\n".join(lines) if lines else "no public name added or removed")
    print(FENCE)


COMMANDS = {
    "size": (size, 2),
    "correct": (correct, 0),
    "digests": (digests, 3),
    "translations": (translations, 2),
    "plan-calls": (plan_calls, 2),
    "public-api": (public_api, 2),
    # one tree each, run by translations and plan-calls
    "translation-hashes": (translation_hashes, 1),
    "plan-call-counts": (plan_call_counts, 1),
}


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in COMMANDS or len(argv) - 1 != COMMANDS[argv[0]][1]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    command, _ = COMMANDS[argv[0]]
    return command(*argv[1:]) or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
