"""List every case whose trace digest changed between two result files.

    python3 perfbench/compare.py OLD.json NEW.json

The files come from `run.py --out`.  A refactor or speed-up that claims
unchanged behaviour shows an empty list; exit status 1 means some case
changed, appeared or disappeared.
"""
from __future__ import annotations

import json
import sys


def changed_cases(old: dict, new: dict) -> list[str]:
    """One line per case whose digest differs or that only one file has."""
    before = {r["case"]: r for r in old["case_records"]}
    after = {r["case"]: r for r in new["case_records"]}
    lines = []
    for name in sorted(before.keys() | after.keys()):
        a, b = before.get(name), after.get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'new' if a is None else 'old'}")
        elif a.get("digest") != b.get("digest"):
            lines.append(
                f"{name}: digest {a.get('digest', 'none')[:12]} -> {b.get('digest', 'none')[:12]}"
                f", span {a.get('span_us')} -> {b.get('span_us')} us"
                f", valid {a.get('valid')} -> {b.get('valid')}"
            )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path) as fh:
            files.append(json.load(fh))
    old, new = files
    for key in ("workload", "seed"):
        if old[key] != new[key]:
            print(f"warning: {key} differs: {old[key]} vs {new[key]}")
    lines = changed_cases(old, new)
    print("\n".join(lines) if lines else "no case changed its digest")
    print(f"{len(lines)} of {len(new['case_records'])} cases changed")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
