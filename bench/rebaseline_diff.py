#!/usr/bin/env python3
"""Lists what a re-baseline moved, entry by entry.

Usage: python3 bench/rebaseline_diff.py OLD.json NEW.json

Compares two pfbench run documents (`pfbench --out`). Table rows are keyed
by (bench, table id, row label), not by row id: ids are positions, so
deleting one row renumbers every row after it, and `pfbench --compare`
would report the survivors as drifted. Ledger totals and metric counters
are keyed by (bench, name).

Prints every exact-class value (exact table rows, ledger entries, metric
counters) that changed, every entry of any class that was removed or added,
and every gate name the old document reports and the new one does not.
Wall- and obs-class values are measurements, so a changed value there is
not listed; a removed or added one is. Exits 1 when a gate name went
missing, else 0.
"""
import json
import sys


def entries(doc):
    """{(bench, where, key): (tolerance class, value)} for one run document."""
    out = {}
    for bench in doc["benches"]:
        for section in ("ledger", "metrics"):
            for key, value in bench[section].items():
                out[(bench["id"], section, key)] = ("exact", value)
        for table in bench["tables"]:
            for row in table["rows"]:
                out[(bench["id"], table["id"], row["label"])] = (table["class"], row["measured"])
    return out


def gates(doc):
    return {check["name"] for bench in doc["benches"] for check in bench["checks"]}


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        old = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    before, after = entries(old), entries(new)
    same = 0
    for key in sorted(before.keys() | after.keys()):
        name = "/".join(str(part) for part in key)
        if key not in after:
            print(f"removed  {name} ({before[key][0]}: {before[key][1]!r})")
        elif key not in before:
            print(f"added    {name} ({after[key][0]}: {after[key][1]!r})")
        elif before[key][0] == "exact" and before[key][1] != after[key][1]:
            print(f"changed  {name}: {before[key][1]!r} -> {after[key][1]!r}")
        elif before[key][0] == "exact":
            same += 1
    missing = sorted(gates(old) - gates(new))
    for gate in missing:
        print(f"MISSING GATE {gate}")
    print(f"{same} exact values bit-identical; {len(gates(old))} old gate names, "
          f"{len(missing)} missing")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
