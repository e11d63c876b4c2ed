"""Command-line interface: ``python -m repro <command>``.

Lets a user poke the reproduction without writing code:

* ``table1`` / ``table2`` — print the design-space tables.
* ``simulate --program applu [--width 8 ...]`` — simulate one machine.
* ``predict --program applu`` — run the full architecture-centric
  workflow (offline pool, 32 responses, held-out accuracy report).
* ``analyze --metric cycles`` — space statistics, outliers and the most
  influential parameters.
* ``plan --budget 2000 --new-programs 5`` — how to split a simulation
  budget between offline training and per-program responses.
* ``search --objectives cycles,energy --agent genetic --budget 256`` —
  closed-loop design-space search: drive a seeded agent against the
  fitted predictors and report the Pareto frontier (``--frontier-out``
  writes it as JSON; ``--compare-random`` scores the agent against the
  random baseline at equal budget).
* ``publish --registry DIR --program applu`` — train, fit and freeze a
  predictor into the model registry as an immutable version.
* ``serve --registry DIR --model applu-cycles`` — run the batched
  asyncio inference server over a published model until SIGTERM;
  ``--workers N`` preforks a fleet behind one port, and
  ``--max-inflight``/``--client-rate`` add admission control.
* ``load --plan FILE --target HOST:PORT`` — replay a seeded open-loop
  load plan against a running server and report per-stage latency,
  goodput and shed counts (``--slo`` gates the run on objectives).
* ``slo check --objectives FILE --metrics FILE`` — evaluate declarative
  objectives against a Prometheus export (a ``--metrics-out`` file):
  exit 0 when all hold, 1 on a violation, 2 on an unreadable input.

Every command accepts ``--samples`` and ``--seed`` to control scale and
reproducibility.  The compute-heavy commands (``simulate``,
``predict``, ``explore``, ``publish``, ``serve``) also take the
telemetry trio: ``--log-level`` (or ``REPRO_LOG``) turns on structured
logging, ``--metrics-out FILE`` exports the run's counters and latency
histograms (Prometheus text for ``.prom``/``.txt``, JSON otherwise),
and ``--trace-out FILE`` writes a ``chrome://tracing``-loadable span
trace.  Telemetry is flushed on *every* exit path — clean return,
Ctrl-C (exit 130) and SIGTERM (exit 143) included — so a supervisor
stopping a server or campaign still gets its metrics and manifest.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis import (
    distance_matrix,
    outlier_scores,
    suite_main_effects,
    suite_statistics,
)
from repro.core import ArchitectureCentricPredictor, TrainingPool
from repro.designspace import DesignSpace, render_table1, render_table2
from repro.exploration import DesignSpaceDataset, format_table
from repro.ml import correlation, rmae
from repro.obs import (
    configure_logging,
    get_logger,
    get_registry,
    get_tracer,
    git_sha,
)
from repro.search import AGENT_NAMES, RESPONSE_STRATEGIES
from repro.sim import FixedParameters, Metric
from repro.sim.machine import width_scaling_rows
from repro.workloads import mibench_suite, spec2000_suite

_log = get_logger(__name__)


def _version_string() -> str:
    sha = git_sha()
    return f"repro {__version__} (git {sha or 'unknown'})"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Architecture-centric design space exploration "
        "(Dubach, Jones, O'Boyle — MICRO 2007).",
    )
    parser.add_argument(
        "--version", action="version", version=_version_string()
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1 (the design space)")
    sub.add_parser("table2", help="print Table 2 (fixed parameters)")

    simulate = sub.add_parser("simulate", help="simulate one machine")
    _common(simulate)
    _checkpoint_options(simulate)
    _jobs_option(simulate)
    _telemetry_options(simulate)
    simulate.add_argument("--program", default="gzip")
    for name in DesignSpace().parameters:
        simulate.add_argument(
            f"--{name.name.replace('_', '-')}", type=int, default=None,
            dest=name.name,
        )

    predict = sub.add_parser(
        "predict", help="predict a new program from 32 responses"
    )
    _common(predict)
    predict.add_argument("--program", default="applu")
    predict.add_argument("--metric", default="cycles")
    predict.add_argument("--responses", type=int, default=32)
    predict.add_argument("--training-size", type=int, default=512)
    _jobs_option(predict)
    _telemetry_options(predict)

    analyze = sub.add_parser("analyze", help="characterise the space")
    _common(analyze)
    analyze.add_argument("--metric", default="cycles")
    analyze.add_argument(
        "--suite", default="spec2000", choices=("spec2000", "mibench")
    )
    analyze.add_argument(
        "--full", action="store_true",
        help="print the complete characterisation report",
    )

    plan = sub.add_parser(
        "plan", help="split a simulation budget between offline/online"
    )
    plan.add_argument("--budget", type=int, required=True)
    plan.add_argument("--new-programs", type=int, default=1)
    plan.add_argument("--top", type=int, default=5)

    explore = sub.add_parser(
        "explore",
        help="full workflow: characterise a program and scan for sweet "
        "spots",
    )
    _common(explore)
    explore.add_argument("--program", default="applu")
    explore.add_argument("--metric", default="ed")
    explore.add_argument("--responses", type=int, default=32)
    explore.add_argument("--training-size", type=int, default=512)
    explore.add_argument("--candidates", type=int, default=5000)
    _checkpoint_options(explore)
    _jobs_option(explore)
    _telemetry_options(explore)

    search = sub.add_parser(
        "search",
        help="closed-loop design-space search: drive an agent against "
        "fitted predictors toward the Pareto frontier",
    )
    _common(search)
    search.add_argument("--program", default="applu")
    search.add_argument(
        "--objectives", default="cycles,energy",
        help="comma-separated metrics to minimise (cycles, energy, ed, "
        "edd); two or more trace a Pareto frontier",
    )
    search.add_argument(
        "--agent", default="genetic", choices=AGENT_NAMES,
        help="search policy (default: genetic)",
    )
    search.add_argument("--budget", type=int, default=256,
                        help="total predictor evaluations allowed")
    search.add_argument("--batch", type=int, default=16,
                        help="proposals evaluated per round")
    search.add_argument("--responses", type=int, default=32)
    search.add_argument("--training-size", type=int, default=512)
    search.add_argument(
        "--response-strategy", default="disagreement",
        choices=RESPONSE_STRATEGIES,
        help="how the R response configurations are chosen when fitting "
        "the predictors (default: ensemble disagreement)",
    )
    search.add_argument(
        "--frontier-out", default=None, metavar="FILE",
        help="write the frontier/outcome JSON here",
    )
    search.add_argument(
        "--compare-random", action="store_true",
        help="also run the random agent at equal budget and score both "
        "against a shared hypervolume reference",
    )
    _jobs_option(search)
    _telemetry_options(search)

    publish = sub.add_parser(
        "publish",
        help="train a predictor and freeze it into the model registry",
    )
    _common(publish)
    publish.add_argument("--registry", required=True, metavar="DIR",
                         help="model registry root directory")
    publish.add_argument("--program", default="applu")
    publish.add_argument("--metric", default="cycles")
    publish.add_argument("--responses", type=int, default=32)
    publish.add_argument("--training-size", type=int, default=512)
    publish.add_argument(
        "--name", default=None,
        help="registry model name (default: <program>-<metric>)",
    )
    publish.add_argument("--notes", default="",
                         help="free-form annotation stored in the record")
    _jobs_option(publish)
    _telemetry_options(publish)

    serve = sub.add_parser(
        "serve",
        help="run the batched HTTP inference server over a published "
        "model (SIGTERM drains gracefully)",
    )
    serve.add_argument("--registry", default=None, metavar="DIR",
                       help="model registry root directory")
    serve.add_argument("--model", default=None,
                       help="registry model name to serve")
    serve.add_argument(
        "--model-version", type=int, default=None,
        help="registry version to serve (default: latest)",
    )
    serve.add_argument(
        "--artifact", default=None, metavar="FILE",
        help="serve a raw predictor artifact instead of a registry entry",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100,
                       help="bind port (0 picks a free one)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="most configurations per forward pass")
    serve.add_argument(
        "--batch-window-ms", type=float, default=2.0,
        help="milliseconds to wait for more requests before a partial "
        "batch dispatches",
    )
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="LRU prediction-cache entries (0 disables)")
    serve.add_argument(
        "--queue-limit", type=int, default=1024,
        help="parked requests beyond which /predict returns 503",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="serving processes behind the port (>1 preforks a fleet "
        "sharing the socket via SO_REUSEPORT, with coordinated drain "
        "and merged metrics)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=0,
        help="per-worker cap on concurrently admitted requests; past "
        "it /predict and /search shed with 503 + Retry-After "
        "(0 disables)",
    )
    serve.add_argument(
        "--client-rate", type=float, default=0.0,
        help="per-client token-bucket quota in requests/second, keyed "
        "by X-Client-Id or peer address (0 disables)",
    )
    serve.add_argument(
        "--client-burst", type=int, default=0,
        help="token-bucket burst capacity (default: ceil(client rate))",
    )
    serve.add_argument(
        "--manifest-out", default=None, metavar="FILE",
        help="write a run manifest here on shutdown (any exit path)",
    )
    _telemetry_options(serve)

    load = sub.add_parser(
        "load",
        help="replay a seeded open-loop load plan against a running "
        "prediction server or fleet",
    )
    load.add_argument(
        "--plan", required=True, metavar="FILE",
        help="load plan JSON (see docs/serving.md for the syntax)",
    )
    load.add_argument(
        "--target", required=True, metavar="HOST:PORT",
        type=_host_port_arg, help="server address to drive",
    )
    load.add_argument(
        "--seed", type=int, default=None,
        help="override the plan's seed (same plan + seed replays the "
        "same arrivals, mixes and payloads)",
    )
    load.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request socket timeout in seconds",
    )
    load.add_argument(
        "--report-out", default=None, metavar="FILE",
        help="write the full per-stage report JSON here",
    )
    load.add_argument(
        "--slo", default=None, metavar="FILE", dest="slo_config",
        help="SLO objectives JSON checked against the run's own "
        "metrics after the plan finishes; violations fail the command",
    )
    load.add_argument(
        "--fail-on-drops", action="store_true",
        help="exit non-zero when any request was shed or errored",
    )
    _telemetry_options(load)

    slo = sub.add_parser(
        "slo",
        help="evaluate declarative SLOs; 'slo check' exits non-zero on "
        "any violated objective",
    )
    slo.add_argument("action", choices=("check",),
                     help="what to do with the objectives")
    slo.add_argument(
        "--objectives", required=True, metavar="FILE",
        help="SLO objectives JSON",
    )
    slo.add_argument(
        "--metrics", required=True, metavar="FILE",
        help="the Prometheus text export to evaluate (a --metrics-out "
        "file ending in .prom or .txt)",
    )
    slo.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full status list as JSON",
    )
    return parser


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)


def _checkpoint_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="journal simulation chunks here so an interrupted run can "
        "be resumed",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue the campaign already checkpointed in "
        "--checkpoint-dir",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=128,
        help="configurations per checkpointed chunk (default 128)",
    )


def _host_port_arg(text: str):
    """``(host, port)``; a port outside 1-65535 is refused, since the
    socket layer would silently take it modulo 65536."""
    host, _, port = text.rpartition(":")
    number = int(port) if port.isascii() and port.isdigit() else 0
    if not host or not 1 <= number <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return host, number


def _jobs_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value != -1 and value < 1:
        raise argparse.ArgumentTypeError(
            "must be a positive integer or -1 (all CPUs)"
        )
    return value


def _jobs_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=None,
        help="worker processes for model training and campaign "
        "simulation (default serial; -1 uses every CPU); results are "
        "identical for any worker count",
    )


def _telemetry_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="structured-log level on stderr (default: the REPRO_LOG "
        "environment variable, then warning)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the run's metrics here on exit (.prom/.txt gets "
        "Prometheus text, anything else JSON)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a chrome://tracing-compatible span trace here on "
        "exit",
    )


def _configure_telemetry(args: argparse.Namespace) -> None:
    """Install logging when the command carries the telemetry options."""
    if hasattr(args, "log_level"):
        configure_logging(level=args.log_level)


def _export_telemetry(args: argparse.Namespace) -> None:
    """Flush --metrics-out / --trace-out after the command ran."""
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        path = get_registry().write(metrics_out)
        print(f"metrics   : {path}", file=sys.stderr)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        path = get_tracer().write_chrome(trace_out)
        print(f"trace     : {path}", file=sys.stderr)


def _suite(name: str):
    return spec2000_suite() if name == "spec2000" else mibench_suite()


def _program_suite(program: str):
    """The suite holding ``program`` (SPEC first, then MiBench), or
    ``None`` after reporting it unknown."""
    for make in (spec2000_suite, mibench_suite):
        suite = make()
        if program in suite:
            return suite
    print(f"unknown program {program!r}", file=sys.stderr)
    return None


def _run_campaign(args: argparse.Namespace, profiles, simulator):
    """Run a checkpointed campaign; returns the result or None on error.

    Prints the journal accounting so the user can see how much work a
    resume actually skipped.
    """
    from repro.designspace import sample_configurations
    from repro.runtime import CampaignRunner, IntervalBackend

    configs = sample_configurations(
        simulator.space, args.samples, seed=args.seed
    )
    runner = CampaignRunner(
        IntervalBackend(simulator),
        args.checkpoint_dir,
        chunk_size=args.chunk_size,
        seed=args.seed,
        n_jobs=getattr(args, "jobs", None),
    )
    try:
        result = runner.run(profiles, configs, resume=args.resume)
    except ValueError as error:
        hint = "" if args.resume else " (pass --resume to continue it)"
        print(f"checkpoint error: {error}{hint}", file=sys.stderr)
        return None
    print(f"campaign  : {result.simulated_cells} chunk(s) simulated, "
          f"{result.resumed_cells} resumed from {args.checkpoint_dir}")
    if result.complete:
        return result
    unfinished = len(result.failed_cells) + len(result.pending_cells)
    print(f"campaign left {unfinished} chunk(s) unfinished; rerun with "
          "--resume to continue", file=sys.stderr)
    return None


def _cmd_table1() -> int:
    print(render_table1(DesignSpace()))
    return 0


def _cmd_table2() -> int:
    print(render_table2(FixedParameters().as_rows(), width_scaling_rows()))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    suite = _program_suite(args.program)
    if suite is None:
        return 2
    if args.checkpoint_dir:
        return _cmd_simulate_campaign(args, suite)
    space = DesignSpace()
    overrides = {
        p.name: getattr(args, p.name)
        for p in space.parameters
        if getattr(args, p.name) is not None
    }
    config = space.baseline.replace(**overrides)
    try:
        space.validate(config)
    except ValueError as error:
        print(f"illegal configuration: {error}", file=sys.stderr)
        return 2
    from repro.sim import IntervalSimulator

    result = IntervalSimulator(space).simulate(suite[args.program], config)
    print(f"program : {args.program}")
    print(f"machine : {config}")
    print(f"cycles  : {result.cycles:.4e}")
    print(f"energy  : {result.energy:.4e} nJ")
    print(f"ED      : {result.ed:.4e}")
    print(f"EDD     : {result.edd:.4e}")
    print(f"IPC     : {1.0 / result.breakdown['cpi']:.2f} "
          f"(window {result.breakdown['window']:.0f})")
    return 0


def _cmd_simulate_campaign(args: argparse.Namespace, suite) -> int:
    """Checkpointed batch simulation of one program over --samples configs."""
    import numpy as np

    from repro.sim import IntervalSimulator

    result = _run_campaign(
        args, [suite[args.program]], IntervalSimulator()
    )
    if result is None:
        return 2
    print(f"program   : {args.program} over {args.samples} configurations")
    for metric in Metric.all():
        values = result.values(args.program, metric)
        print(f"{metric.value:<10}: median {np.median(values):.4e}  "
              f"min {values.min():.4e}  max {values.max():.4e}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    metric = Metric.from_name(args.metric)
    fitted = _fit_new_program_predictor(args, metric)
    if fitted is None:
        return 2
    predictor, dataset = fitted
    _, holdout_idx = dataset.split_indices(args.responses, seed=args.seed)
    predictions = predictor.predict(dataset.subset_configs(holdout_idx))
    actual = dataset.subset_values(args.program, metric, holdout_idx)
    print(f"new program    : {args.program} ({metric.value})")
    print(f"responses      : {args.responses} simulations")
    print(f"training error : {predictor.training_error:.1f}%")
    print(f"held-out rmae  : {rmae(predictions, actual):.1f}% "
          f"over {len(holdout_idx)} configurations")
    print(f"correlation    : {correlation(predictions, actual):.3f}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    metric = Metric.from_name(args.metric)
    dataset = DesignSpaceDataset.sampled(
        _suite(args.suite), sample_size=args.samples, seed=args.seed
    )
    if args.full:
        from repro.analysis import suite_report

        print(suite_report(dataset, metric))
        return 0
    stats = suite_statistics(dataset, metric)
    rows = [
        (s.program, f"{s.median:.3e}", f"{s.spread:.1f}x")
        for s in stats.values()
    ]
    print(f"== per-program {metric.value} over {args.samples} sampled "
          f"configurations ==")
    print(format_table(("program", "median", "spread"), rows))

    distances, programs = distance_matrix(dataset, metric)
    scores = outlier_scores(distances, programs)
    ranked = sorted(scores.items(), key=lambda kv: -kv[1])[:5]
    print("\noutliers:", ", ".join(f"{p} ({v:.1f})" for p, v in ranked))

    effects = suite_main_effects(dataset, metric)
    top = sorted(effects.items(), key=lambda kv: -kv[1])[:5]
    print("most influential parameters:",
          ", ".join(f"{name} ({value * 100:.0f}%)" for name, value in top))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.exploration import plan_budget

    plans = plan_budget(
        args.budget, new_programs=args.new_programs, top=args.top
    )
    if not plans:
        print("no admissible split fits that budget", file=sys.stderr)
        return 1
    print(f"== best splits for {args.budget} simulations serving "
          f"{args.new_programs} new program(s) ==")
    rows = [
        (plan.pool_size, plan.training_size, plan.responses,
         plan.offline_simulations, plan.online_simulations,
         f"{plan.expected_rmae:.1f}%")
        for plan in plans
    ]
    print(format_table(
        ("N (pool)", "T (train)", "R (resp)", "offline", "online",
         "expected rmae"),
        rows,
    ))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.core import explore_new_program
    from repro.sim import IntervalSimulator

    metric = Metric.from_name(args.metric)
    suite = _program_suite(args.program)
    if suite is None:
        return 2
    spec = spec2000_suite()
    if args.checkpoint_dir:
        # The offline build is the expensive part: run it as a
        # journalled campaign so an interrupted run resumes for free.
        simulator = IntervalSimulator()
        result = _run_campaign(args, spec, simulator)
        if result is None:
            return 2
        dataset = result.to_dataset(spec, simulator)
    else:
        dataset = DesignSpaceDataset.sampled(
            spec, sample_size=args.samples, seed=args.seed
        )
    print(f"offline: training the SPEC pool (T={args.training_size}) ...")
    pool = TrainingPool(
        dataset, metric, training_size=args.training_size, seed=args.seed,
        n_jobs=args.jobs,
    )
    models = pool.models(
        exclude=[args.program] if args.program in spec else None
    )
    report = explore_new_program(
        models,
        suite[args.program],
        simulator=IntervalSimulator(dataset.simulator.space),
        responses=args.responses,
        sweet_spot_candidates=args.candidates,
        seed=args.seed,
    )
    print(f"program        : {report.program} ({metric.value})")
    print(f"simulations    : {report.simulations_spent}")
    print(f"training error : {report.training_error:.1f}% "
          f"-> verdict: {report.verdict}")
    if report.sweet_spots:
        print(f"\npredicted sweet spots (of {args.candidates:,} candidates):")
        for rank, (config, value) in enumerate(report.sweet_spots, start=1):
            print(f"  {rank}. {value:.4e}  width={config.width} "
                  f"rob={config.rob_size} rf={config.rf_size} "
                  f"L2={config.l2cache_kb}KB")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    import numpy as np

    from repro.search import (
        DesignSpaceEnv,
        PredictorOracle,
        make_agent,
        pick_response_indices,
        run_search,
        suggest_reference,
    )

    try:
        objectives = tuple(
            Metric.from_name(name.strip())
            for name in args.objectives.split(",")
            if name.strip()
        )
    except (KeyError, ValueError) as error:
        print(f"bad --objectives: {error}", file=sys.stderr)
        return 2
    if not objectives:
        print("--objectives needs at least one metric", file=sys.stderr)
        return 2
    # ED/EDD compose from cycles x energy: two base predictors cover
    # every objective combination.
    base_metrics = set(objectives) & {Metric.CYCLES, Metric.ENERGY}
    if {Metric.ED, Metric.EDD} & set(objectives):
        base_metrics |= {Metric.CYCLES, Metric.ENERGY}

    suite = spec2000_suite()
    if args.program not in suite:
        print(f"unknown SPEC program {args.program!r}", file=sys.stderr)
        return 2
    dataset = DesignSpaceDataset.sampled(
        suite, sample_size=args.samples, seed=args.seed
    )
    space = dataset.simulator.space
    predictors = {}
    for metric in sorted(base_metrics, key=lambda m: m.value):
        print(f"offline: fitting the {metric.value} predictor "
              f"(T={args.training_size}, R={args.responses}, "
              f"{args.response_strategy} responses) ...")
        pool = TrainingPool(
            dataset, metric, training_size=args.training_size,
            seed=args.seed, n_jobs=args.jobs,
        )
        models = pool.models(exclude=[args.program])
        predictor = ArchitectureCentricPredictor(models)
        if args.response_strategy == "random":
            indices, _ = dataset.split_indices(args.responses, seed=args.seed)
        else:
            indices = pick_response_indices(
                models, dataset.configs, args.responses,
                strategy=args.response_strategy, seed=args.seed,
            )
        predictor.fit_responses(
            dataset.subset_configs(indices),
            dataset.subset_values(args.program, metric, indices),
        )
        predictors[metric] = predictor

    oracle = PredictorOracle(predictors)

    def _run(agent_name: str):
        env = DesignSpaceEnv(
            space, oracle, objectives=objectives, budget=args.budget
        )
        agent = make_agent(
            agent_name, space, objectives=len(objectives), seed=args.seed
        )
        return run_search(env, agent, batch_size=args.batch, seed=args.seed)

    print(f"search: agent={args.agent} budget={args.budget} "
          f"objectives={','.join(m.value for m in objectives)}")
    outcome = _run(args.agent)
    payload = outcome.to_payload()

    print(f"frontier     : {len(outcome.frontier)} points")
    print(f"hypervolume  : {outcome.hypervolume:.6e}")
    for metric_name, winner in outcome.best.items():
        print(f"best {metric_name:7}: {winner['value']:.6e}")

    if args.compare_random and args.agent != "random":
        baseline = _run("random")
        # Hypervolumes only compare against one shared reference: derive
        # it from the union of both runs' observed bounds.
        union = np.stack([
            np.asarray(outcome.observed_lo), np.asarray(outcome.observed_hi),
            np.asarray(baseline.observed_lo),
            np.asarray(baseline.observed_hi),
        ])
        shared_ref = suggest_reference(union)
        agent_hv = outcome.hypervolume_at(shared_ref)
        random_hv = baseline.hypervolume_at(shared_ref)
        verdict = "beats" if agent_hv > random_hv else "does not beat"
        print(f"vs random    : {agent_hv:.6e} vs {random_hv:.6e} "
              f"({args.agent} {verdict} random at budget {args.budget})")
        payload["shared_reference"] = [float(v) for v in shared_ref]
        payload["hypervolume_shared"] = agent_hv
        payload["random_baseline"] = {
            "hypervolume_shared": random_hv,
            "frontier_size": len(baseline.frontier),
            "spent": baseline.spent,
        }

    if args.frontier_out:
        target = Path(args.frontier_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            _json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"frontier-out : {target}")
    return 0


def _fit_new_program_predictor(args: argparse.Namespace, metric: Metric):
    """Train the pool and fit responses — the predict/publish shared core.

    Returns ``(predictor, dataset)`` or ``None`` when the program is
    unknown (the caller already printed the error).
    """
    suite = spec2000_suite()
    if args.program not in suite:
        print(f"unknown SPEC program {args.program!r}", file=sys.stderr)
        return None
    dataset = DesignSpaceDataset.sampled(
        suite, sample_size=args.samples, seed=args.seed
    )
    print(f"offline: training {len(suite) - 1} program models "
          f"(T={args.training_size}) ...")
    pool = TrainingPool(
        dataset, metric, training_size=args.training_size, seed=args.seed,
        n_jobs=args.jobs,
    )
    predictor = ArchitectureCentricPredictor(
        pool.models(exclude=[args.program])
    )
    response_idx, _ = dataset.split_indices(args.responses, seed=args.seed)
    predictor.fit_responses(
        dataset.subset_configs(response_idx),
        dataset.subset_values(args.program, metric, response_idx),
    )
    return predictor, dataset


def _cmd_publish(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.runtime import array_checksum
    from repro.serve import ModelRegistry

    metric = Metric.from_name(args.metric)
    fitted = _fit_new_program_predictor(args, metric)
    if fitted is None:
        return 2
    predictor, dataset = fitted
    registry = ModelRegistry(args.registry)
    name = args.name or f"{args.program}-{metric.value}"
    try:
        record = registry.publish(
            predictor,
            name,
            seed=args.seed,
            config_checksum=array_checksum(
                np.array(dataset.configs, dtype=np.int64)
            ),
            notes=args.notes,
        )
    except ValueError as error:
        print(f"cannot publish: {error}", file=sys.stderr)
        return 2
    print(f"published      : {record.name} v{record.version}")
    print(f"metric         : {record.metric}")
    print(f"training error : {record.training_error:.1f}%")
    print(f"artifact sha256: {record.artifact_checksum}")
    print(f"registry       : {registry.root}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.obs import build_manifest, get_tracer, write_manifest
    from repro.serve import ModelRegistry, serve_forever

    if args.workers < 1:
        print("serve needs at least one worker", file=sys.stderr)
        return 2

    started = time.time()
    trace_start = get_tracer().mark()
    if args.artifact:
        from repro.core import load_predictor

        try:
            predictor = load_predictor(args.artifact)
        except ValueError as error:
            print(f"cannot load artifact: {error}", file=sys.stderr)
            return 2
        model_info = {"artifact": str(args.artifact)}
    else:
        if not args.registry or not args.model:
            print("serve needs --registry and --model (or --artifact)",
                  file=sys.stderr)
            return 2
        try:
            predictor, record = ModelRegistry(args.registry).load(
                args.model, args.model_version
            )
        except (KeyError, ValueError) as error:
            print(f"cannot load model: {error}", file=sys.stderr)
            return 2
        model_info = {
            "name": record.name,
            "version": record.version,
            "checksum": record.artifact_checksum,
            "run_id": record.run.get("run_id"),
        }

    def _ready(bound) -> None:
        if args.workers > 1:
            serving = f"serving {args.workers} workers on"
        else:
            serving = "serving on"
        print(f"{serving} http://{bound.host}:{bound.port} "
              f"(metric {predictor.metric.value}); "
              "SIGTERM/Ctrl-C drains and stops", file=sys.stderr)

    exit_code = 0
    try:
        report = serve_forever(
            predictor,
            host=args.host,
            port=args.port,
            model_info=model_info,
            workers=args.workers,
            max_batch=args.max_batch,
            batch_window=args.batch_window_ms / 1000.0,
            cache_size=args.cache_size,
            queue_limit=args.queue_limit,
            max_inflight=args.max_inflight,
            client_rate=args.client_rate,
            client_burst=args.client_burst,
            ready_callback=_ready,
        )
        if report is not None:
            print(f"fleet exit: {report.exit_codes}", file=sys.stderr)
            exit_code = 0 if report.clean else 1
    finally:
        # Written on every exit path — the server's lifetime metrics
        # and model identity survive a SIGTERM'd pod.
        if args.manifest_out:
            manifest = build_manifest(
                extra={"kind": "serve", "model": model_info},
                trace_start=trace_start,
                started=started,
            )
            path = write_manifest(args.manifest_out, manifest)
            print(f"manifest  : {path}", file=sys.stderr)
    return exit_code


def _cmd_load(args: argparse.Namespace) -> int:
    import json

    from repro.load import LoadGenerator, LoadPlan
    from repro.serve import PredictionClient, ServerError

    try:
        plan = LoadPlan.load(args.plan)
    except (OSError, ValueError) as error:
        print(f"load plan error: {error}", file=sys.stderr)
        return 2
    if args.seed is not None:
        plan = plan.with_seed(args.seed)
    tracker = None
    if args.slo_config:
        from repro.obs import SLOTracker

        try:
            tracker = SLOTracker.from_config(args.slo_config)
        except (OSError, ValueError) as error:
            print(f"slo config error: {error}", file=sys.stderr)
            return 2
    host, port = args.target

    # Preflight: fail fast with a clear message when nothing is
    # listening, instead of burning the whole plan on timeouts.
    try:
        with PredictionClient(host, port, timeout=args.timeout) as probe:
            health = probe.healthz()
    except (ServerError, OSError) as error:
        print(f"load target error: {host}:{port} is not healthy "
              f"({error})", file=sys.stderr)
        return 2
    print(f"target    : http://{host}:{port} "
          f"(model {health.get('model', {}).get('name', '?')})",
          file=sys.stderr)

    report = LoadGenerator(
        plan, host, port, timeout=args.timeout
    ).run()

    for stage in report.stages:
        raw_p99 = stage.latency_percentiles_ms.get("p99", float("nan"))
        p99 = f"{raw_p99:8.1f}ms" if raw_p99 == raw_p99 else "       -"
        print(f"stage     : {stage.name:<16} "
              f"offered {stage.offered_rps:7.1f}/s "
              f"goodput {stage.goodput_rps:7.1f}/s p99 {p99} "
              f"shed {stage.shed:4d} errors {stage.errors:4d}")
    print(f"totals    : {report.scheduled} scheduled, {report.ok} ok, "
          f"{report.shed} shed, {report.errors} errors in "
          f"{report.wall_seconds:.1f}s")

    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_payload(), handle, indent=2, sort_keys=True)
        print(f"report    : {args.report_out}", file=sys.stderr)

    failed = False
    if tracker is not None:
        ok, statuses = tracker.check(get_registry())
        for status in statuses:
            verdict = "ok      " if status.ok else "VIOLATED"
            print(f"slo       : {status.objective.name:<24} {verdict}")
        if not ok:
            print("verdict   : SLO violation", file=sys.stderr)
            failed = True
    if args.fail_on_drops and (report.shed or report.errors):
        print(f"verdict   : {report.shed} shed + {report.errors} errors "
              "with --fail-on-drops", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.obs import MetricsView, SLOTracker

    try:
        tracker = SLOTracker.from_config(args.objectives)
    except (OSError, ValueError) as error:
        print(f"slo config error: {error}", file=sys.stderr)
        return 2
    try:
        with open(args.metrics, encoding="utf-8") as handle:
            view = MetricsView.from_prometheus(handle.read())
    except (OSError, ValueError) as error:
        print(f"slo metrics error: {error}", file=sys.stderr)
        return 2
    ok, statuses = tracker.check(view)
    if args.as_json:
        print(json.dumps(
            {"ok": ok, "objectives": [s.to_payload() for s in statuses]},
            indent=2, sort_keys=True,
        ))
    else:
        for status in statuses:
            if status.no_data:
                verdict, burn = "no-data ", "-"
            else:
                verdict = "ok      " if status.ok else "VIOLATED"
                burn = f"{status.burn:.2f}x"
            print(f"slo       : {status.objective.name:<24} {verdict} "
                  f"burn {burn} (threshold {status.objective.threshold})")
        print(f"verdict   : {'all objectives ok' if ok else 'SLO violation'}")
    return 0 if ok else 1


def _raise_exit(signum, _frame) -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks run."""
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    _configure_telemetry(args)
    # Every subcommand stamps its provenance first: the package version
    # and git sha tie any log stream or bug report to exact code.
    _log.info(
        "%s: %s", _version_string(), args.command,
        extra={"event": "cli.start", "command": args.command,
               "version": __version__, "git_sha": git_sha()},
    )
    try:
        # A supervisor's SIGTERM must flush telemetry like any other
        # exit: route it through SystemExit (exit code 143) so the
        # finally below runs.  (The serve command's asyncio loop
        # installs its own graceful-drain handler while it runs.)
        signal.signal(signal.SIGTERM, _raise_exit)
    except (ValueError, OSError):
        pass  # not the main thread (embedded use); signals stay as-is
    try:
        if args.command == "table1":
            return _cmd_table1()
        if args.command == "table2":
            return _cmd_table2()
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "explore":
            return _cmd_explore(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "publish":
            return _cmd_publish(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "load":
            return _cmd_load(args)
        if args.command == "slo":
            return _cmd_slo(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        # Exported even when the command failed or was signalled: a
        # crashed campaign's partial metrics and trace are exactly what
        # debugging needs.
        _export_telemetry(args)


if __name__ == "__main__":
    sys.exit(main())
