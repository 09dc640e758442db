"""Summarise a span file written by a traced run.

    python3 bench/spans_report.py .bench_out/spans-algebra.jsonl [SPAN ...]

For every span name (or only those given) and every op label
("<op kind>@<model>"), prints the number of calls and the median
inclusive time per call, which is how per-call figures for one model or
input size are read off a traced run.
"""

import json
import statistics
import sys


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    wanted = set(argv[1:])
    groups = {}
    with open(argv[0], encoding="utf-8") as fh:
        labels = json.loads(fh.readline())["op_labels"]
        for line in fh:
            name, start, end, _, op = json.loads(line)
            if wanted and name not in wanted:
                continue
            groups.setdefault((name, labels[op]), []).append((end - start) / 1000)
    print(f"{'span':42s} {'op@model':44s} {'calls':>7s} {'median us':>11s}")
    for (name, label), durs in sorted(groups.items()):
        print(f"{name:42s} {label:44s} {len(durs):7d} {statistics.median(durs):11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
