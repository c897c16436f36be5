#!/usr/bin/env python3
"""The benchmark's trajectory across the committed ``BENCH_<n>.json`` files.

Every file lists its runs, each with a ``workload``, a ``side`` and the four
end-to-end metrics, in one of two layouts: nested as
``result.metrics.<name>.value`` (the files up to 23) or flat on the run (from
24 on).  Traced runs (``trace`` 1) are left out, and so are sides other than
``parent`` and ``change``, such as a second copy of the parent run as a
control.  For each file, workload and metric this prints the median of each
side and the change's difference from the parent.  Then, for each two
consecutive files, it prints the drift from the earlier file's change median
to the later file's parent median: the same code when no commit without a
bench file came between them, so a drift there is the host's and the
benchmark's own spread.

    python3 scripts/bench_trajectory.py [DIRECTORY]

DIRECTORY defaults to the checkout that holds this script.  Only the standard
library is used.
"""

import json
import pathlib
import re
import statistics
import sys

METRICS = ("setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")
SIDES = ("parent", "change")


def bench_files(directory):
    """(n, path) of every BENCH_<n>.json in the directory, by n."""
    found = (re.fullmatch(r"BENCH_(\d+)\.json", path.name) for path in directory.iterdir())
    return sorted((int(m.group(1)), directory / m.group(0)) for m in found if m)


def medians(path):
    """{workload: {side: {metric: median}}} over the untraced parent and change runs."""
    values = {}
    for run in json.loads(path.read_text())["runs"]:
        if run.get("trace", 0) or run["side"] not in SIDES:
            continue
        metrics = run["result"]["metrics"] if "result" in run else run
        for name in METRICS:
            value = metrics.get(name)
            if isinstance(value, dict):
                value = value["value"]
            if value is not None:
                by_side = values.setdefault(run["workload"], {}).setdefault(run["side"], {})
                by_side.setdefault(name, []).append(value)
    return {workload: {side: {name: statistics.median(v) for name, v in by_metric.items()}
                       for side, by_metric in by_side.items()}
            for workload, by_side in values.items()}


def _change(before, after):
    return f"{100.0 * (after / before - 1.0):+.1f} %"


def main(argv):
    directory = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parents[1]
    table = [(n, medians(path)) for n, path in bench_files(directory)]
    columns = f"{'workload':<16} {'metric':<12}"
    print(f"{'file':<5} {columns} {'parent':>11} {'change':>11} {'change':>9}")
    for n, by_workload in table:
        for workload in sorted(by_workload):
            parent, change = (by_workload[workload].get(side, {}) for side in SIDES)
            for name in METRICS:
                if name in parent and name in change:
                    print(f"{n:<5} {workload:<16} {name:<12} {parent[name]:>11.5g}"
                          f" {change[name]:>11.5g} {_change(parent[name], change[name]):>9}")
    print(f"\n{'drift':<9} {columns} {'change':>11} {'parent':>11} {'drift':>9}")
    for (n, before), (m, after) in zip(table, table[1:]):
        for workload in sorted(set(before) & set(after)):
            change = before[workload].get("change", {})
            parent = after[workload].get("parent", {})
            for name in METRICS:
                if name in change and name in parent:
                    print(f"{f'{n} -> {m}':<9} {workload:<16} {name:<12} {change[name]:>11.5g}"
                          f" {parent[name]:>11.5g} {_change(change[name], parent[name]):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
