"""Summaries of the digest-diff CI job: a pull request against its base.

    python3 ci/digest_diff.py size BASE CHANGE
    python3 ci/digest_diff.py correct < RUN_OUTPUT
    python3 ci/digest_diff.py digests WORKLOAD BASE.json CHANGE.json
    python3 ci/digest_diff.py stages BASE CHANGE
    python3 ci/digest_diff.py public-api BASE CHANGE
    python3 ci/digest_diff.py host-ab BASE CHANGE [--rounds N] [WORKLOAD ...]

BASE and CHANGE are the roots of two checkouts of this repository, and the
.json files come from `perfbench/run.py --out`.  `correct` reads the output
of a `perfbench/run.py` run, prints its "correct", "attempted" and "failed"
fields, and exits 1 unless "correct" is true and "failed" is 0.  Each other
command prints Markdown sections for the job summary:

* size: the lines of each src/racetrack module in both trees, and its
  code lines: those that are not blank, not only a comment and not inside
  a docstring (found with `ast`), so that deleted prose does not read as
  deleted code.  A module only one tree has counts 0 in the other.
* digests: the cases whose trace digest changed (perfbench/compare.py),
  and the cases whose digest held while a reported metric moved (a metric
  of an unchanged trace should not move unless its definition changed).
* stages: what the trace digests do not cover, stage by stage.  Both
  trees are loaded into one process, as host-ab loads them, each workload's
  cases are built for each tree with the change tree's
  perfbench/pipeline.build_cases (seed 1), and each tree makes one pass
  over them, with `schedulers.plan_reorder` and `translate.list_layers`
  counted through the module attributes the program calls them by.  It
  prints four sections, each per workload:
  - translations: each circuit whose native translation changed, by a
    sha256 over each native gate's (id, kind, qubits, repr(params), source)
    and the sorted edge set, per expand_rzz mode;
  - reorder plans: the plan_reorder calls, the ops of the plans they
    return, and whether one sha256 over every plan, in order, changed.  The
    hash covers each op's (tag, operands, index), the final crystals, the
    final state's qubit index as sorted (qubit, crystal index) items,
    `path_id`, `time_1d`, `regroup_time`, `exchange_time` and `op_counts`.
    Trace digests see a transition's op counts only, so a reordered op
    sequence shows here alone;
  - list_layers calls: the calls, the gates they are passed, the calls
    whose gates share a key (the others return one-gate layers in list
    order), and whether one sha256 over the gate ids of every layer list
    they return, in order, changed, so that the zone batches and 2Q layers
    show where no trace digest moves;
  - trace metrics: each case where a field of `runtime_breakdown`,
    `zone_utilization` or `fidelity_report` (F_total included) differs by
    `repr`, with the fields that differ.  Perfbench records only a few of
    them.
* public-api: the public names that only one tree has, per src/racetrack
  module: top-level functions, classes and assigned names, and the
  methods, class attributes and `__init__`'s `self` attributes of public
  classes.  A class only one tree has is listed alone.  A second section
  lists each public name of the change tree that nothing calls: one whose
  last component the code of no .py file under src/racetrack, perfbench or
  ci uses, other than where the name is defined.  Code is read with `ast`:
  a name, an attribute, a keyword, an imported name or its alias, or a
  string that is an identifier counts, and a docstring or a comment does
  not.  The members of an `Enum` subclass are values, not API, and are
  skipped.  Nothing is imported.
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
"""
from __future__ import annotations

import argparse
import ast
import gc
import hashlib
import importlib
import json
import math
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


def sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def translation_hash(rt, circuit, expand_rzz: bool) -> str:
    """A sha256 over each native gate's (id, kind, qubits, repr(params),
    source) and the sorted edge set of `circuit`'s translation."""
    native = rt.translate.translate_to_native(circuit, expand_rzz=expand_rzz)
    return sha(([(g.id, g.kind.value, g.qubits, repr(g.params), g.source) for g in native.gates],
                sorted(native.edges)))


def plan_fields(plan) -> tuple:
    """What the plan hash covers of one plan, with plain values only."""
    return (tuple((op.tag.value, op.operands, op.index) for op in plan.ops),
            tuple((c.qubits, c.facing_right) for c in plan.final.crystals),
            tuple(sorted(plan.final.crystal_index.items())),
            plan.path_id, plan.time_1d, plan.regroup_time, plan.exchange_time,
            plan.op_counts)


def metric_reprs(rt, case) -> dict[str, str]:
    """The repr of every field of the three trace metrics of one case."""
    native = rt.translate.translate_to_native(case.circuit)
    trace = rt.schedulers.schedule(native, case.machine, case.policy, case.flags)
    breakdown = rt.metrics.runtime_breakdown(trace)
    ledger = rt.metrics.fidelity_report(trace, case.machine.fidelity)
    fields = {f"runtime_breakdown.{name}": value for name, value in vars(breakdown).items()}
    fields["zone_utilization"] = rt.metrics.zone_utilization(trace)
    fields.update({f"fidelity_report.{name}": value for name, value in vars(ledger).items()})
    fields["fidelity_report.f_total"] = ledger.f_total
    return {name: repr(value) for name, value in fields.items()}


def stage_facts(rt, workload: str, cases) -> SimpleNamespace:
    """What one pass over `cases` with the loaded tree `rt` gives: each
    circuit's translation hash per expand_rzz mode; the plan_reorder calls,
    their ops and one hash over every plan, in order; the list_layers
    calls, their gates, the calls whose gates share a key and one hash over
    every layer list, in order; and each case's `metric_reprs`.  The calls
    are counted through the module attributes the program calls them by."""
    translations = {f"{workload}/{c.circuit_name} expand_rzz={expand}": translation_hash(rt, c.circuit, expand)
                    for c in {c.circuit_name: c for c in cases}.values() for expand in (False, True)}
    plan_reorder, list_layers = rt.schedulers.plan_reorder, rt.translate.list_layers
    plans, layers = [], []

    def planned(*args, **kwargs):
        plan = plan_reorder(*args, **kwargs)
        plans.append(plan_fields(plan))
        return plan

    def layered(gates, key, *args, **kwargs):
        out = list_layers(gates, key, *args, **kwargs)
        layers.append((len(gates), len({key(g) for g in gates}) < len(gates), [[g.id for g in x] for x in out]))
        return out

    rt.schedulers.plan_reorder, rt.translate.list_layers = planned, layered
    try:
        metrics = {c.name: metric_reprs(rt, c) for c in cases}
    finally:
        rt.schedulers.plan_reorder, rt.translate.list_layers = plan_reorder, list_layers
    return SimpleNamespace(translations=translations, metrics=metrics,
                           plans=(len(plans), sum(len(p[0]) for p in plans), sha(plans)),
                           layers=(len(layers), sum(n for n, _, _ in layers), sum(s for _, s, _ in layers),
                                   sha([ids for *_, ids in layers])))


def _count_table(title: str, columns, label: str, rows) -> None:
    """A section with, per workload, each count of `columns` ((name,
    width), ...) in both trees and whether the hash that ends each row of
    `rows` ({workload: (base row, change row)}) changed."""
    print(f"### {title}")
    print(FENCE)
    print(f"{'':10}" + "".join(f" {name:>{3 * n + 2}}" for name, n in columns))
    print(f"{'workload':10}" + "".join(f" {'base':>{n}} {'change':>{n}} {'delta':>{n}}" for _, n in columns)
          + f"  {label}")
    for w, ((*old, h0), (*new, h1)) in rows.items():
        cells = "".join(f" {a:{n}} {b:{n}} {b - a:+{n}}" for (_, n), a, b in zip(columns, old, new))
        print(f"{w:10}{cells}  " + ("same" if h0 == h1 else f"changed: {h0[:12]} -> {h1[:12]}"))
    print(FENCE)


def stages(base: str, change: str) -> None:
    facts = {w: [stage_facts(slots[slot], w, cases[slot]) for slot in SLOTS]
             for _, slots, w, cases in _two_trees(change, base, change, (), "stages")}
    print("### translations")
    print(FENCE)
    for w, (old, new) in facts.items():
        keys = old.translations.keys() | new.translations.keys()
        changed = sorted(k for k in keys if old.translations.get(k) != new.translations.get(k))
        print("\n".join([*changed, f"{w}: {len(changed)} of {len(keys)} circuit translations changed"]))
    print(FENCE)
    _count_table("reorder plans per pass", (("calls", 7), ("ops", 8)), "plans",
                 {w: (old.plans, new.plans) for w, (old, new) in facts.items()})
    _count_table("list_layers calls per pass", (("calls", 7), ("gates", 8), ("shared-key calls", 7)), "layers",
                 {w: (old.layers, new.layers) for w, (old, new) in facts.items()})
    print("### trace metrics (runtime_breakdown, zone_utilization, fidelity_report), by repr")
    print(FENCE)
    for w, (old, new) in facts.items():
        differ = 0
        for name, b in new.metrics.items():
            a = old.metrics[name]
            fields = [f"{f} {a.get(f)} -> {b.get(f)}" for f in sorted(a.keys() | b.keys()) if a.get(f) != b.get(f)]
            if fields:
                differ += 1
                print(f"{w}/{name}: " + ", ".join(fields))
        print(f"{w}: {differ} of {len(new.metrics)} cases differ")
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


# the field that holds the identifier of each kind of node `code_words`
# reads; a definition's name counts too, as `uncalled` subtracts each one
WORD_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.keyword: "arg", ast.FunctionDef: "name",
               ast.AsyncFunctionDef: "name", ast.ClassDef: "name"}


def code_words(text: str) -> list[str]:
    """The identifiers the code of `text` uses, read with `ast`, so that a
    docstring or comment names nothing: names, attributes, keywords, the
    names of functions and classes, the parts and aliases of imported
    names, and strings that are identifiers (patch points given by name,
    say)."""
    words = []
    for node in ast.walk(ast.parse(text)):
        if type(node) in WORD_FIELDS:
            words.append(getattr(node, WORD_FIELDS[type(node)]))
        elif isinstance(node, ast.alias):
            words += [*node.name.split("."), node.asname]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            words.append(node.value)
    return words


def uncalled(root: str) -> list[str]:
    """The public names of the tree at `root` whose last component is a
    word of the code of no .py file under CALLERS but where it is defined.
    Members of an `Enum` subclass are values, not API, and are skipped."""
    words = Counter(word for d in CALLERS for path in Path(root, d).rglob("*.py")
                    for word in code_words(path.read_text()))
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
        raise SystemExit(f"{source} imports racetrack by name ({', '.join(absolute)}); "
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


def _two_trees(cases_root: str, base: str, change: str, workloads, command: str):
    """Per workload of `workloads` (of the pipeline, when empty): yield
    `cases_root`'s perfbench/pipeline, the trees at `base` and `change` as
    copies loaded by slot (see `_load_copy`), the workload and each slot's
    seed-1 cases, built by that pipeline; exit, naming `command`, when the
    trees build different cases."""
    sys.path.insert(0, str(Path(cases_root, "perfbench")))
    import pipeline

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        slots = {slot: _load_copy(root, f"racetrack_{slot}", Path(tmp), pipeline.MODULES)
                 for slot, root in zip(SLOTS, (base, change))}
        for w in workloads or pipeline.WORKLOADS:
            cases = {slot: pipeline.build_cases(rt, w, 1) for slot, rt in slots.items()}
            if [c.name for c in cases["base"]] != [c.name for c in cases["change"]]:
                raise SystemExit(f"{command}: the trees build different {w} cases")
            yield pipeline, slots, w, cases


def host_ab_round(cases_root: str, base: str, change: str, r: str, *workloads: str) -> None:
    """One round of host-ab, in a process of its own: the tree at `base` in
    the base slot, the one at `change` in the change slot, and the cases
    built with `cases_root`'s pipeline.  Prints one JSON object: per
    workload, the seconds of each case per slot and the gates of each."""
    out = {}
    for pipeline, slots, w, cases in _two_trees(cases_root, base, change, workloads, "host-ab"):
        seconds: dict[str, dict[str, float]] = {slot: {} for slot in SLOTS}
        gates: dict[str, int] = {}
        gc.collect()
        for i, name in enumerate(c.name for c in cases["change"]):
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
    "stages": (stages, 2),
    "public-api": (public_api, 2),
    "host-ab": (host_ab, None),   # parses its own arguments
    "host-ab-round": (host_ab_round, None),   # one round of host-ab, run by host_ab
}


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in COMMANDS or COMMANDS[argv[0]][1] not in (None, len(argv) - 1):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    command, _ = COMMANDS[argv[0]]
    return command(*argv[1:]) or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
