"""Compare traced call times with the reference figures listed in the ROADMAP.

    python3 perfbench/reconcile.py perfbench/_work/*/spans_seed1.json

Reads span files written by ``run.py --trace 1`` and prints, for each
reference figure, the median measured duration of the matching calls, the
ratio to the figure, and ``OFF`` where the two differ by more than 2x.
Durations are inclusive (children counted), as a caller sees them.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

# (span name, attribute or job label to match, reference seconds)
REFERENCE = [
    ("kernel.normalization_constant", None, 0.0002),
    ("assembly.nonlocal_stiffness", ("n", 255), 0.010),
    ("assembly.nonlocal_stiffness", ("n", 511), 0.015),
    ("assembly.nonlocal_stiffness", ("n", 1023), 0.033),
    ("solve.solve_dirichlet", ("n", 255), 0.003),
    ("solve.solve_dirichlet", ("n", 511), 0.005),
    ("solve.solve_dirichlet", ("n", 1023), 0.016),
    ("barrier.build_barrier", ("s", 0.3), 0.75),
    ("barrier.build_barrier", ("s", 0.75), 0.57),
    ("barrier.build_barrier", ("s", 0.9), 1.17),
    ("job", ("label", "barrier s=0.5"), 1.6),
    ("job", ("label", "verify s=0.25"), 1.6),
    ("job", ("label", "verify s=0.75"), 1.6),
    ("job", ("label", "counterexample boundary"), 3.6),
]


def durations(paths):
    found = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            for sp in json.load(fh):
                for name, match, _ in REFERENCE:
                    if sp["name"] == name and (
                            match is None or sp["attrs"].get(match[0]) == match[1]):
                        found[(name, match)].append(sp["end"] - sp["start"])
    return found


def main(paths) -> int:
    found = durations(paths)
    print(f"{'call':52s} {'calls':>6s} {'median':>10s} {'reference':>10s} {'ratio':>7s}")
    for name, match, ref in REFERENCE:
        label = name + (f" {match[0]}={match[1]}" if match else "")
        times = found.get((name, match))
        if not times:
            print(f"{label:52s} {0:6d} {'-':>10s} {ref:10.4g}")
            continue
        med = statistics.median(times)
        ratio = med / ref
        flag = "  OFF" if not 0.5 <= ratio <= 2.0 else ""
        print(f"{label:52s} {len(times):6d} {med:10.4g} {ref:10.4g} {ratio:7.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
