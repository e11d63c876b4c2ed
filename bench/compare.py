"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 bench/compare.py A.json [A2.json ...] -- B.json [B2.json ...]
    python3 bench/compare.py SET_A SET_B

Each argument is a record written by ``bench/run.py --out`` (one run, or
``{"runs": [...]}`` from a run of every workload) or a directory of such
files.  With exactly two arguments and no ``--`` each is one side.

Prints one row per workload and end-to-end metric with each side's
median and quartiles and a verdict against the bounds in
``BENCHMARK.json``:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better by more than A's own quartile
  spread and B wins at least nine tenths of the (A, B) pairs;
* ``unresolved``: the spread of either side exceeds the bound and the
  sides overlap, so the data cannot tell;
* ``same``: otherwise.

Also compares each workload's failed fraction and, per seed, the values
that must repeat exactly (output digests, counts, accuracy).  Exits 1 on
any ``worse`` verdict or a higher failed fraction, else 0.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

SPEC_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(paths: Sequence[str]) -> List[dict]:
    """Every run record found in ``paths`` (files or directories)."""
    runs: List[dict] = []
    for raw in paths:
        path = pathlib.Path(raw)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            payload = json.loads(file.read_text(encoding="utf-8"))
            if "runs" in payload:
                runs.extend(payload["runs"])
            elif "workload" in payload:
                runs.append(payload)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """Verdict on B against A, and B's relative change (+ = worse)."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / a_med
    a_spread = (a_q3 - a_q1) / a_med
    b_spread = (b_q3 - b_q1) / b_med
    pairs = [(x, y) for x in a for y in b]
    b_wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    b_loses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    noisy = max(a_spread, b_spread) > bound
    if worse_by > bound:
        if noisy and b_loses < len(pairs):
            return "unresolved", worse_by
        return "worse", worse_by
    if -worse_by > a_spread and b_wins >= 0.9 * len(pairs):
        return "better", worse_by
    if noisy:
        return "unresolved", worse_by
    return "same", worse_by


def _failed_fraction(runs: Sequence[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(side_a: List[dict], side_b: List[dict], spec: dict) -> int:
    by_workload: Dict[str, Dict[str, List[dict]]] = defaultdict(
        lambda: {"A": [], "B": []}
    )
    for name, runs in (("A", side_a), ("B", side_b)):
        for run in runs:
            if not run.get("trace"):
                by_workload[run["workload"]][name].append(run)
    regressions = 0
    print(f"{'workload':<11} {'metric':<17} {'unit':<5} "
          f"{'A median [q1, q3]':>32} {'B median [q1, q3]':>32} "
          f"{'change':>8}  verdict")
    for workload in [item["name"] for item in spec["workloads"]]:
        sides = by_workload.get(workload)
        if not sides or not sides["A"] or not sides["B"]:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name] for run in sides["A"]]
            b = [run["metrics"][name] for run in sides["B"]]
            outcome, change = verdict(a, b, metric["better"], metric["bound"])
            regressions += outcome == "worse"
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{workload:<11} {name:<17} {metric['unit']:<5} "
                  f"{cells[0]:>32} {cells[1]:>32} {change:+8.1%}  {outcome}")
        fa, fb = (_failed_fraction(sides[key]) for key in ("A", "B"))
        failed_verdict = "worse" if fb > fa else "same"
        regressions += fb > fa
        print(f"{workload:<11} {'failed_frac':<17} {'':<5} {fa:>32.4g} "
              f"{fb:>32.4g} {'':>8}  {failed_verdict}")
        _compare_exact(workload, sides["A"], sides["B"])
    return 1 if regressions else 0


def _compare_exact(workload: str, a: List[dict], b: List[dict]) -> None:
    """Report values that must repeat exactly for a seed, when they do not."""
    first_a = {run["seed"]: run.get("exact", {}) for run in a}
    for run in b:
        reference = first_a.get(run["seed"])
        if reference is None:
            continue
        for key, value in run.get("exact", {}).items():
            if key in reference and reference[key] != value:
                print(f"{workload:<11} exact {key} differs at seed "
                      f"{run['seed']}: {reference[key]} -> {value}")


def main(argv: Sequence[str]) -> int:
    argv = list(argv)
    if "--" in argv:
        split = argv.index("--")
        paths_a, paths_b = argv[:split], argv[split + 1:]
    elif len(argv) == 2:
        paths_a, paths_b = argv[:1], argv[1:]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    side_a, side_b = load_runs(paths_a), load_runs(paths_b)
    if not side_a or not side_b:
        print("compare: each side needs at least one run record",
              file=sys.stderr)
        return 2
    return compare(side_a, side_b, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
