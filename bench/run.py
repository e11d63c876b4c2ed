"""One benchmark for the system's three user paths.

Usage::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Workloads (see ``BENCHMARK.json`` and ``bench/README.md``): ``campaign``
(checkpointed simulation campaign plus resume), ``loo_spec`` (the
paper's leave-one-out protocol), ``serve_hot`` and ``serve_cold``
(open-loop load on ``repro serve``).  Without ``--workload`` every
workload runs, each in a fresh Python process.

Prints one ``workload metric value unit`` line per metric, checks the
program's outputs, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the workload untraced in a child process, then again with the layer
wrappers of ``bench/layers.py`` installed, and reports the per-layer
metrics plus ``trace.overhead_pct`` (the traced run's slowdown against
the untraced one).  ``--out`` writes the full record — provenance,
metrics, checks and details — as JSON; ``bench/compare.py`` reads it.

Exits 2 when the program under test is missing (only the benchmark's own
files present) and 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"

SCHEMA = 1


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def _git(*args: str) -> str | None:
    try:
        completed = subprocess.run(
            ["git", *args], cwd=str(ROOT), capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout if completed.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _fs_type(path: pathlib.Path) -> str | None:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, kind = "", None
    target = str(path.resolve())
    try:
        mounts = pathlib.Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return None
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) >= len(best):
            best, kind = point, fields[2]
    return kind


def provenance(work: pathlib.Path) -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "kernel": platform.release(),
        "checkpoint_fs": _fs_type(work),
        "started": time.time(),
    }


def _program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def _print_metrics(workload: str, values: dict, specs: list) -> None:
    for spec in specs:
        value = values[spec["name"]]
        print(f"{workload} {spec['name']} {value:.6g} {spec['unit']}",
              flush=True)


def _summary_line(correct: bool, attempted: int, failed: int,
                  metrics: dict, specs: list) -> tuple:
    """The final JSON line and whether the run was correct; a metric
    that came out NaN or infinite is written as null and makes the run
    incorrect."""
    values = {}
    for spec in specs:
        value = float(metrics[spec["name"]])
        if not math.isfinite(value):
            correct, value = False, None
        values[spec["name"]] = {"value": value, "unit": spec["unit"]}
    line = json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": values,
    })
    return line, bool(correct)


def _record(args, result, work, extra=None) -> dict:
    import loadgen
    import workloads

    record = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "provenance": provenance(work),
        "correct": all(result.checks.values()),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
        "layers": result.layers,
        "checks": result.checks,
        "details": result.details,
        "exact": result.exact,
        "knobs": {
            name: value
            for module in (workloads, loadgen)
            for name, value in vars(module).items()
            if name.isupper() and not name.startswith("_")
            and isinstance(value, (int, float, str))
        },
    }
    record.update(extra or {})
    return record


def _write(path: str, payload: dict) -> None:
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1, default=str) + "\n",
                      encoding="utf-8")


def _child(args, workload: str, trace: int, out: pathlib.Path,
           quiet: bool) -> dict:
    """Run one workload in a fresh Python process; return its record."""
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    completed = subprocess.run(
        command, cwd=str(ROOT), text=True, stdout=subprocess.PIPE,
        timeout=900,
    )
    if not quiet:
        for line in completed.stdout.splitlines()[:-1]:
            print(line, flush=True)
    if not out.is_file():
        raise RuntimeError(
            f"{workload} child exited with {completed.returncode} "
            "without a record"
        )
    return json.loads(out.read_text(encoding="utf-8"))


def _traced(args, spec: dict, work: pathlib.Path):
    """Untraced child first, then the traced run here; returns the
    per-layer values and the record."""
    import workloads

    untraced = _child(args, args.workload, 0, work / "untraced.json",
                      quiet=True)
    result = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, True, work
    )
    values = {item["name"]: 0.0 for item in spec["per_layer"]}
    values.update(result.layers)
    values.update(untraced["layers"])
    reference = untraced["details"]["unit_s"]
    values["trace.overhead_pct"] = 100.0 * (
        result.details["unit_s"] - reference
    ) / reference
    shared = set(result.exact) & set(untraced["exact"])
    result.checks["trace.outputs_match_untraced"] = all(
        result.exact[key] == untraced["exact"][key] for key in shared
    )
    checks = {**untraced["checks"], **result.checks}
    record = _record(args, result, work, {
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": result.attempted + untraced["attempted"],
        "failed": result.failed + untraced["failed"],
        "layers": values,
        "untraced": untraced,
    })
    return values, record


def run_one(args, spec: dict) -> int:
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-", dir=str(WORK_ROOT)
    ))
    try:
        if args.trace:
            values, record = _traced(args, spec, work)
            specs = spec["per_layer"]
        else:
            result = workloads.WORKLOADS[args.workload](
                args.seed, args.seconds, False, work
            )
            record = _record(args, result, work)
            values, specs = result.metrics, spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        _write(args.out, record)
    _print_metrics(args.workload, values, specs)
    for name, ok in record["checks"].items():
        if not ok:
            print(f"{args.workload} check FAILED: {name}", file=sys.stderr)
    line, correct = _summary_line(record["correct"], record["attempted"],
                                  record["failed"], values, specs)
    print(line, flush=True)
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload, each in a fresh process, in BENCHMARK.json order."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="all-", dir=str(WORK_ROOT)))
    try:
        records = [
            _child(args, item["name"], args.trace,
                   work / f"{item['name']}.json", quiet=False)
            for item in spec["workloads"]
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        _write(args.out, {"schema": SCHEMA, "runs": records})
    key = "layers" if args.trace else "metrics"
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    combined = {
        f"{record['workload']}.{item['name']}": {
            "value": record[key][item["name"]], "unit": item["unit"],
        }
        for record in records for item in specs
    }
    correct = all(record["correct"] for record in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": combined,
    }), flush=True)
    return 0 if correct else 1


def _exit_on_term(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        choices=[item["name"] for item in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    if not _program_present():
        print(f"bench: the program under test is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _exit_on_term)
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
