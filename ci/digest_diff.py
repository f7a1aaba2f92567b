"""Summaries of the digest-diff CI job: a pull request against its base.

    python3 ci/digest_diff.py size BASE CHANGE
    python3 ci/digest_diff.py correct < RUN_OUTPUT
    python3 ci/digest_diff.py digests WORKLOAD BASE.json CHANGE.json
    python3 ci/digest_diff.py translations BASE CHANGE
    python3 ci/digest_diff.py plan-calls BASE CHANGE
    python3 ci/digest_diff.py public-api BASE CHANGE
    python3 ci/digest_diff.py host-ab BASE CHANGE [--rounds N] [WORKLOAD ...]

BASE and CHANGE are the roots of two checkouts of this repository, and the
.json files come from `perfbench/run.py --out`.  `correct` reads the output
of a `perfbench/run.py` run, prints its "correct", "attempted" and "failed"
fields, and exits 1 unless "correct" is true and "failed" is 0.  Each other
command prints one Markdown section for the job summary:

* size: the lines of each src/racetrack module in both trees, and its
  code lines: those that are not blank, not only a comment and not inside
  a docstring (found with `ast`), so that deleted prose does not read as
  deleted code.  A module only one tree has counts 0 in the other.
* digests: the cases whose trace digest changed (perfbench/compare.py),
  and the cases whose digest held while a reported metric moved (a metric
  of an unchanged trace should not move unless its definition changed).
* translations: each benchmark circuit whose native translation changed,
  by a sha256 over each native gate's (id, kind, qubits, repr(params),
  source) and the sorted edge set, per expand_rzz mode, with the circuits
  built by that tree's perfbench/pipeline.build_cases (seed 1).
* plan-calls: per workload, how often each tree's `schedule` calls
  `schedulers.plan_reorder` over one pass (seed 1), counted through the
  module attribute the schedulers call it by; the ops of the plans it
  returns; and whether one sha256 over every plan, in order, changed.  The
  hash covers each op's (tag, operands, index), the final crystals,
  `path_id`, `time_1d`, `regroup_time`, `exchange_time` and `op_counts`.
  Trace digests see a transition's op counts only, so a reordered op
  sequence shows here alone.
* public-api: the public names that only one tree has, per src/racetrack
  module: top-level functions, classes and assigned names, and the
  methods, class attributes and `__init__`'s `self` attributes of public
  classes.  A class only one tree has is listed alone.  A second section
  lists each public name of the change tree that nothing calls: one whose
  last component appears as a whole word in no .py file under
  src/racetrack, perfbench or ci, other than where the name is defined.
  The members of an `Enum` subclass are values, not API, and are skipped.
  The names are read with `ast`; nothing is imported.
* host-ab: an interleaved A/B of host time.  A round has two slots, base
  and change, and runs in two processes, one per assignment of trees to
  slots: forward, each slot holding its own tree, and reversed, the trees
  swapped, the first alternating from round to round.  In each, a slot's
  tree's src/racetrack is copied to a temporary directory under a package
  name of its own (its modules must import each other only relatively),
  each workload's cases are built once per slot with the change tree's
  perfbench/pipeline.build_cases (seed 1), and each case runs once per
  slot, the slot that goes first alternating from case to case and from
  round to round.  Per workload it prints, for gates/s (the gates of every
  case over the sum of the per-case median seconds) and the p50 and p90 of
  the per-case medians: each tree's value over both slots; the change slot
  over the base slot, forward and reversed; and sqrt(forward / reversed),
  the change/base ratio with what a slot adds to its tree cancelled.  A
  slot can add a few percent to its tree in every process alike, so the
  forward ratio alone can show a difference that is not there; the
  corrected ratio cancels it because each slot takes the same place in
  both processes.  Every workload by default, and 5 rounds.  No time is
  scaled by a reference loop: both trees run on the same host, case by
  case, so the ratio is what the run measures.

Translations and plan calls are computed in one process per tree, as each
imports its own tree's racetrack.
"""
from __future__ import annotations

import argparse
import ast
import gc
import hashlib
import importlib
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("span_us", "f_total", "zone_util_pct", "transports", "breakdown_residual_us")
FENCE = "```"
CALLERS = ("src/racetrack", "perfbench", "ci")   # the trees whose files count as callers


def code_lines(text: str) -> int:
    """The lines of `text` that are not blank, not only a comment and not
    inside the docstring of the module, a class or a function."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for n, line in enumerate(text.splitlines(), start=1)
               if n not in docs and line.strip() and not line.lstrip().startswith("#"))


def size(base: str, change: str) -> None:
    def counts(path: Path) -> tuple[int, int]:
        if not path.exists():
            return 0, 0
        text = path.read_text()
        return text.count("\n"), code_lines(text)

    trees = [Path(root, "src/racetrack") for root in (base, change)]
    names = sorted({p.name for d in trees for p in d.glob("*.py")})
    rows = [(name, *counts(trees[0] / name), *counts(trees[1] / name)) for name in names]
    rows.append(("total", *(sum(r[i] for r in rows) for i in range(1, 5))))
    print("### source size (lines, and code lines: no blank, comment or docstring line)")
    print(FENCE)
    print(f"{'':16} {'lines':>20} {'code':>20}")
    print(f"{'module':16} {'base':>6} {'change':>6} {'delta':>6} {'base':>6} {'change':>6} {'delta':>6}")
    for name, old, old_code, new, new_code in rows:
        print(f"{name:16} {old:6} {new:6} {new - old:+6} {old_code:6} {new_code:6} {new_code - old_code:+6}")
    print(FENCE)


def correct() -> int:
    r = json.loads(sys.stdin.read().splitlines()[-1])
    print(r["correct"], r["attempted"], r["failed"])
    return 0 if r["correct"] is True and r["failed"] == 0 else 1


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


def plan_fields(plan) -> tuple:
    """What the plan hash covers of one plan, with plain values only."""
    return (tuple((op.tag.value, op.operands, op.index) for op in plan.ops),
            tuple((c.qubits, c.facing_right) for c in plan.final.crystals),
            plan.path_id, plan.time_1d, plan.regroup_time, plan.exchange_time,
            plan.op_counts)


def plan_call_counts(root: str) -> None:
    """One line per workload: the calls, the total ops and the plan hash."""
    pipeline, rt = _import_tree(root)
    plan_reorder = rt.schedulers.plan_reorder
    calls = ops = 0
    digest = hashlib.sha256()

    def counted(*args, **kwargs):
        nonlocal calls, ops
        plan = plan_reorder(*args, **kwargs)
        calls += 1
        ops += len(plan.ops)
        digest.update(repr(plan_fields(plan)).encode())
        return plan

    rt.schedulers.plan_reorder = counted
    for w in pipeline.WORKLOADS:
        calls = ops = 0
        digest = hashlib.sha256()
        for case in pipeline.build_cases(rt, w, 1):
            native = rt.translate.translate_to_native(case.circuit)
            rt.schedulers.schedule(native, case.machine, case.policy, case.flags)
        print(w, calls, ops, digest.hexdigest())


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
    old, new = ({w: (int(calls), int(ops), digest)
                 for w, calls, ops, digest in (line.split() for line in _per_tree("plan-call-counts", root))}
                for root in (base, change))
    print("### reorder plans per pass")
    print(FENCE)
    print(f"{'':10} {'calls':>23} {'ops':>26}")
    print(f"{'workload':10} {'base':>7} {'change':>7} {'delta':>7} {'base':>8} {'change':>8} {'delta':>8}  plans")
    for w in old:
        (c0, o0, h0), (c1, o1, h1) = old[w], new[w]
        plans = "same" if h0 == h1 else f"changed: {h0[:12]} -> {h1[:12]}"
        print(f"{w:10} {c0:7} {c1:7} {c1 - c0:+7} {o0:8} {o1:8} {o1 - o0:+8}  {plans}")
    print(FENCE)


def _self_attributes(cls: ast.ClassDef) -> Counter:
    """The names that `cls.__init__` assigns as attributes of `self`, each
    with the number of its assignments."""
    names = Counter()
    for fn in cls.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
            for node in ast.walk(fn):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                names.update(t.attr for t in targets if isinstance(t, ast.Attribute)
                             and isinstance(t.value, ast.Name) and t.value.id == "self")
    return names


def _public_names(path: Path, values: bool = True) -> Counter:
    """The public top-level names a module defines, and "Class.member" for
    each public method, class attribute or `__init__`-set `self` attribute
    of a public class, each with the number of places that define it.
    Without `values`, the members of an `Enum` subclass are left out."""
    if not path.exists():
        return Counter()

    def defined(body, assigned: bool = True) -> Counter:
        names = Counter()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names[node.name] += 1
            elif assigned and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        return Counter({name: n for name, n in names.items() if not name.startswith("_")})

    body = ast.parse(path.read_text()).body
    names = defined(body)
    for cls in body:
        if not isinstance(cls, ast.ClassDef) or cls.name not in names:
            continue
        # an Enum's members are the names its body assigns
        is_enum = any(ast.unparse(base) in ("Enum", "enum.Enum") for base in cls.bases)
        members = defined(cls.body, values or not is_enum) + _self_attributes(cls)
        names.update({f"{cls.name}.{member}": n for member, n in members.items()
                      if not member.startswith("_")})
    return names


def uncalled(root: str) -> list[str]:
    """The public names of the tree at `root` whose last component appears
    as a whole word in no .py file under CALLERS but where it is defined.
    Members of an `Enum` subclass are values, not API, and are skipped."""
    words = Counter(word for d in CALLERS for path in Path(root, d).rglob("*.py")
                    for word in re.findall(r"\w+", path.read_text()))
    names = {f"racetrack.{path.stem}.{name}": n for path in sorted(Path(root, "src/racetrack").glob("*.py"))
             for name, n in _public_names(path, values=False).items()}
    for name, n in names.items():
        words[name.rsplit(".", 1)[1]] -= n
    return [name for name in sorted(names) if words[name.rsplit(".", 1)[1]] <= 0]


def public_api(base: str, change: str) -> None:
    trees = [Path(root, "src/racetrack") for root in (base, change)]
    lines = []
    for name in sorted({p.name for d in trees for p in d.glob("*.py")}):
        old, new = (_public_names(d / name).keys() for d in trees)
        module = "racetrack." + name.removesuffix(".py")
        for sign, names in (("-", old - new), ("+", new - old)):
            # a member of a class only one tree has goes with its class
            lines += [f"{sign} {module}.{n}" for n in sorted(names)
                      if "." not in n or n.split(".")[0] not in names]
    print("### public API (- only in base, + only in change)")
    print(FENCE)
    print("\n".join(lines) if lines else "no public name added or removed")
    print(FENCE)
    lines = uncalled(change)
    print("### public names of the change with no caller in src/racetrack, perfbench or ci")
    print(FENCE)
    print("\n".join(lines) if lines else "every public name has a caller")
    print(FENCE)


def _absolute_imports(package: Path) -> list[str]:
    """Each module of `package` that imports `racetrack` by name, as
    "module: line"."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) and not node.level else [])
            if any(n == "racetrack" or n.startswith("racetrack.") for n in names if n):
                found.append(f"{path.name}:{node.lineno}")
    return found


def _load_copy(root: str, name: str, into: Path, modules) -> SimpleNamespace:
    """The modules of the tree at `root`'s src/racetrack, copied into
    `into` as the package `name` and imported from there."""
    source = Path(root, "src/racetrack")
    absolute = _absolute_imports(source)
    if absolute:
        raise SystemExit(f"host-ab: {source} imports racetrack by name ({', '.join(absolute)}); "
                         "its modules must import each other relatively to load under a second name")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in modules})


def _summary(samples: list[dict[str, list[float]]], gates: dict[str, int]) -> tuple[float, float, float]:
    """gates/s, p50 ms and p90 ms from each case's median seconds over the
    samples of every dict in `samples`."""
    medians = sorted(statistics.median(s for d in samples for s in d[name]) for name in gates)
    p90 = statistics.quantiles(medians, n=10, method="inclusive")[8]
    return sum(gates.values()) / sum(medians), 1e3 * statistics.median(medians), 1e3 * p90


SLOTS = ("base", "change")
# the tree each slot holds: forward its own, reversed the other one
ASSIGNMENTS = {"forward": SLOTS, "reversed": SLOTS[::-1]}


def host_ab_round(cases_root: str, base: str, change: str, r: str, *workloads: str) -> None:
    """One round of host-ab, in a process of its own: the tree at `base` in
    the base slot, the one at `change` in the change slot, and the cases
    built with `cases_root`'s pipeline.  Prints one JSON object: per
    workload, the seconds of each case per slot and the gates of each."""
    sys.path.insert(0, str(Path(cases_root, "perfbench")))
    import pipeline

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        slots = {slot: _load_copy(root, f"racetrack_ab_{slot}", Path(tmp), pipeline.MODULES)
                 for slot, root in zip(SLOTS, (base, change))}
        for w in workloads:
            cases = {slot: pipeline.build_cases(rt, w, 1) for slot, rt in slots.items()}
            names = [c.name for c in cases["change"]]
            if [c.name for c in cases["base"]] != names:
                raise SystemExit(f"host-ab: the trees build different {w} cases")
            seconds: dict[str, dict[str, float]] = {slot: {} for slot in SLOTS}
            gates: dict[str, int] = {}
            gc.collect()
            for i, name in enumerate(names):
                for slot in (SLOTS if (int(r) + i) % 2 == 0 else SLOTS[::-1]):
                    run = pipeline.run_case(slots[slot], cases[slot][i])
                    seconds[slot][name] = run.seconds
                    gates[name] = run.native.n_gates
            out[w] = {"seconds": seconds, "gates": gates}
    print(json.dumps(out))


def host_ab(*argv: str) -> None:
    parser = argparse.ArgumentParser(prog="digest_diff.py host-ab")
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_intermixed_args(argv)
    if args.rounds < 1:
        parser.error("--rounds takes an integer >= 1")
    sys.path.insert(0, str(Path(args.change, "perfbench")))
    import pipeline

    workloads = args.workloads or list(pipeline.WORKLOADS)
    unknown = sorted(set(workloads) - set(pipeline.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {sorted(pipeline.WORKLOADS)}")
    roots = {"base": args.base, "change": args.change}
    holds = {(a, slot): tree for a, trees in ASSIGNMENTS.items() for slot, tree in zip(SLOTS, trees)}
    samples = {p: {w: {} for w in workloads} for p in holds}
    gates: dict[str, dict[str, int]] = {}
    for r in range(args.rounds):
        for a in (ASSIGNMENTS if r % 2 == 0 else reversed(ASSIGNMENTS)):
            slot_roots = [roots[tree] for tree in ASSIGNMENTS[a]]
            run = subprocess.run([sys.executable, __file__, "host-ab-round", args.change, *slot_roots, str(r),
                                  *workloads], stdout=subprocess.PIPE, text=True)
            if run.returncode:
                raise SystemExit(run.returncode)
            for w, result in json.loads(run.stdout).items():
                gates[w] = result["gates"]
                for slot in SLOTS:
                    for name, seconds in result["seconds"][slot].items():
                        samples[a, slot][w].setdefault(name, []).append(seconds)
    print(f"### host time, base against change ({args.rounds} interleaved rounds, "
          "each in both slot assignments, seed 1)")
    print(FENCE)
    print(f"{'':10} {'':>5} {'gates/s':>40} {'case ms p50':>40} {'case ms p90':>40}")
    print(f"{'workload':10} {'cases':>5}" + 3 * f" {'base':>9} {'change':>9} {'fwd':>6} {'rev':>6} {'ratio':>6}")
    for w in workloads:
        trees = {tree: _summary([samples[p][w] for p in holds if holds[p] == tree], gates[w]) for tree in SLOTS}
        slots = {p: _summary([samples[p][w]], gates[w]) for p in holds}
        cells = []
        for m, digits in enumerate((0, 2, 2)):
            fwd, rev = (slots[a, "change"][m] / slots[a, "base"][m] for a in ASSIGNMENTS)
            cells.append(f" {trees['base'][m]:9.{digits}f} {trees['change'][m]:9.{digits}f}"
                         f" {fwd:6.3f} {rev:6.3f} {math.sqrt(fwd / rev):6.3f}")
        print(f"{w:10} {len(gates[w]):5}" + "".join(cells))
    print(FENCE)
    print("base and change: each tree over both slots.  fwd: the change slot over the base slot, each "
          "slot holding its own tree; rev: the same with the trees swapped.  ratio: sqrt(fwd / rev), "
          "change over base with the slots' bias cancelled.")


COMMANDS = {
    "size": (size, 2),
    "correct": (correct, 0),
    "digests": (digests, 3),
    "translations": (translations, 2),
    "plan-calls": (plan_calls, 2),
    "public-api": (public_api, 2),
    "host-ab": (host_ab, None),   # parses its own arguments
    "host-ab-round": (host_ab_round, None),   # one round of host-ab, run by host_ab
    # one tree each, run by translations and plan-calls
    "translation-hashes": (translation_hashes, 1),
    "plan-call-counts": (plan_call_counts, 1),
}


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in COMMANDS or COMMANDS[argv[0]][1] not in (None, len(argv) - 1):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    command, _ = COMMANDS[argv[0]]
    return command(*argv[1:]) or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
