"""Command-line interface: ``dard`` (or ``python -m repro``).

Subcommands:

* ``dard list`` — list reproducible experiments;
* ``dard run <experiment-id> [--seed N] [--duration S]`` — run one of the
  paper's tables/figures and print the rendered result;
* ``dard compare --topology ... --pattern ... --rate ...`` — one-off
  comparison of any scheduler subset on any topology;
* ``dard validate [--fuzz]`` — the differential-oracle validation layer:
  allocator equivalence, the reference twins, the fluid-vs-packet FCT
  agreement band, golden-trace regression and its twin replays, and
  (with ``--fuzz``) randomized invariant
  fuzzing with shrink-on-failure (see TESTING.md);
* ``dard lint [paths ...]`` — dardlint, the repo's AST static analyzer
  for determinism/hot-path/API-contract rules (see DESIGN.md
  "Static guarantees"); exits non-zero on any finding.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.common.units import MB, MBPS
from repro.experiments.figures import EXPERIMENTS, run_experiment
from repro.experiments.metrics import improvement
from repro.experiments.report import render_table
from repro.experiments.runner import SCHEDULERS, ScenarioConfig, run_scenario


def _seconds(text: str) -> float:
    """Parse a duration flag; accepts ``60`` and ``60s``."""
    return float(text.rstrip("sS"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dard",
        description="DARD (ICDCS 2012) reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    run_cmd = sub.add_parser("run", help="run one experiment by id")
    run_cmd.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument(
        "--duration", type=float, default=None, help="override duration in seconds"
    )
    run_cmd.add_argument("--csv", default=None, help="also write the rows to this CSV file")
    run_cmd.add_argument("--json", default=None, help="also write the full output to this JSON file")
    run_cmd.add_argument(
        "--profile", default=None, metavar="PSTATS_FILE",
        help="profile the command under cProfile: dump pstats to this file "
             "and print the top 20 functions by cumulative time",
    )

    analyze = sub.add_parser("analyze", help="structural report of a topology")
    analyze.add_argument(
        "--topology", default="fattree", choices=["fattree", "clos", "threetier"]
    )
    analyze.add_argument("--pods", type=int, default=4, help="fat-tree p")
    analyze.add_argument("--d", type=int, default=4, help="Clos D_I = D_A")
    analyze.add_argument("--bandwidth-mbps", type=float, default=1000.0)

    run_config = sub.add_parser(
        "run-config", help="run a scenario described by a JSON config file"
    )
    run_config.add_argument("config", help="path to a scenario JSON file")
    run_config.add_argument("--records-csv", default=None,
                            help="write per-flow records to this CSV")

    verify = sub.add_parser(
        "verify", help="verify addressing + switch tables forward every path"
    )
    verify.add_argument(
        "--topology", default="fattree", choices=["fattree", "clos", "threetier"]
    )
    verify.add_argument("--pods", type=int, default=4, help="fat-tree p")
    verify.add_argument("--d", type=int, default=4, help="Clos D_I = D_A")
    verify.add_argument("--max-pairs", type=int, default=500)

    validate = sub.add_parser(
        "validate", help="run the differential-oracle validation layer"
    )
    validate.add_argument(
        "--fuzz", action="store_true",
        help="also run the randomized scenario fuzzer (draws incast "
             "patterns, heavy-tailed empirical arrivals, barrier bursts, "
             "failure storms, and the predictive detector; every case "
             "runs under the invariant battery plus the storm oracle)",
    )
    validate.add_argument(
        "--seeds", type=int, default=None,
        help="number of fuzz seeds (default 100 when --fuzz and no --budget)",
    )
    validate.add_argument(
        "--start-seed", type=int, default=0,
        help="first fuzz seed (reproduce a reported failure)",
    )
    validate.add_argument(
        "--budget", type=_seconds, default=None, metavar="SECONDS",
        help="wall-clock fuzz budget, e.g. 60 or 60s (stops after the "
             "case that crosses it)",
    )
    validate.add_argument(
        "--inject-bug", action="store_true",
        help="self-test: corrupt one capacity array entry per case; the "
             "oracles must catch it",
    )
    validate.add_argument(
        "--sanitize", action="store_true",
        help="run fuzz cases under the runtime ownership sanitizer: "
             "write-barriers on the registered shared state assert the "
             "static RACE verdicts dynamically (results stay bit-identical)",
    )
    validate.add_argument(
        "--oracle-cases", type=int, default=50,
        help="random instances for the allocator differential oracle",
    )
    validate.add_argument(
        "--skip-oracles", action="store_true",
        help="skip the allocator, reference-twin and fluid-vs-packet oracles",
    )
    validate.add_argument(
        "--golden", choices=["compare", "update", "skip"], default="compare",
        help="golden-trace snapshots: compare against (default), rewrite, or skip",
    )
    validate.add_argument(
        "--golden-path", default=None,
        help="golden file location (default tests/goldens/golden_traces.json)",
    )
    validate.add_argument(
        "--profile", default=None, metavar="PSTATS_FILE",
        help="profile the command under cProfile: dump pstats to this file "
             "and print the top 20 functions by cumulative time",
    )

    lint = sub.add_parser(
        "lint", help="run dardlint, the repo's determinism/hot-path analyzer"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (json is the CI artifact schema)",
    )
    lint.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the report to this file",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    lint.add_argument(
        "--parallel-safety-report", default=None, metavar="FILE",
        help="write the component-purity certificate (ownership table, "
             "component closure, proven-pure function list) as JSON",
    )
    lint.add_argument(
        "--allow-unused-suppressions", action="store_true",
        help="transitional: do not report stale disable comments (DRD001)",
    )

    compare = sub.add_parser("compare", help="ad-hoc scheduler comparison")
    compare.add_argument(
        "--topology", default="fattree", choices=["fattree", "clos", "threetier"]
    )
    compare.add_argument("--pods", type=int, default=4, help="fat-tree p")
    compare.add_argument(
        "--pattern", default="stride",
        choices=["random", "staggered", "stride", "incast"],
    )
    compare.add_argument(
        "--incast-targets", type=int, default=1, metavar="N",
        help="receiver count for --pattern incast",
    )
    compare.add_argument(
        "--schedulers", nargs="+", default=["ecmp", "dard"], choices=sorted(SCHEDULERS)
    )
    compare.add_argument(
        "--arrival", default="poisson",
        choices=["poisson", "empirical", "incast-barrier"],
        help="arrival process (see repro.workloads.scenarios)",
    )
    compare.add_argument(
        "--size-preset", default="websearch", metavar="NAME",
        help="flow-size preset for --arrival empirical "
             "(websearch / datamining / cache)",
    )
    compare.add_argument(
        "--barrier-period", type=float, default=None, metavar="SECONDS",
        help="burst period for --arrival incast-barrier "
             "(default: duration/6, so short runs still see bursts)",
    )
    compare.add_argument(
        "--detector", default="threshold", choices=["threshold", "predictive"],
        help="elephant detection: the paper's age threshold or the "
             "EWMA predictive classifier",
    )
    compare.add_argument(
        "--storm", action="store_true",
        help="overlay a rolling failure storm (fail/restore waves over "
             "random switch cables, seeded from --seed)",
    )
    compare.add_argument("--rate", type=float, default=0.06, help="flows/s per host")
    compare.add_argument("--duration", type=float, default=90.0)
    compare.add_argument("--size-mb", type=float, default=128.0)
    compare.add_argument("--bandwidth-mbps", type=float, default=100.0)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--paired",
        action="store_true",
        help="also report per-flow paired statistics against the first scheduler",
    )
    return parser


def _cmd_list() -> int:
    rows = [
        {"experiment": name, "what": (fn.__doc__ or "").strip().splitlines()[0]}
        for name, fn in sorted(EXPERIMENTS.items())
    ]
    print(render_table(rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    kwargs = {"seed": args.seed}
    if args.duration is not None:
        kwargs["duration_s"] = args.duration
    # Wall time is display-only; the experiment itself is seed-driven.
    started = time.time()  # dardlint: disable=DET002
    output = run_experiment(args.experiment, **kwargs)
    print(output.render())
    print(f"\n(ran in {time.time() - started:.1f}s wall time)")  # dardlint: disable=DET002
    if args.csv:
        from repro.analysis import rows_to_csv

        rows_to_csv(output.rows, args.csv)
        print(f"rows written to {args.csv}")
    if args.json:
        from repro.analysis import results_to_json

        results_to_json(output, args.json)
        print(f"output written to {args.json}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_topology
    from repro.topology import build_topology

    params = {"link_bandwidth_bps": args.bandwidth_mbps * MBPS}
    if args.topology == "fattree":
        params["p"] = args.pods
    elif args.topology == "clos":
        params["d_i"] = args.d
        params["d_a"] = args.d
    topo = build_topology(args.topology, **params)
    print(repr(topo))
    print(analyze_topology(topo).render())
    return 0


def _cmd_run_config(args: argparse.Namespace) -> int:
    from repro.experiments import load_config
    from repro.experiments.metrics import summarize_fct, summarize_path_switches

    config = load_config(args.config)
    result = run_scenario(config)
    print(f"scheduler={config.scheduler} topology={config.topology} "
          f"pattern={config.pattern} seed={config.seed}")
    print(f"  flows : {len(result.records)} of {result.flows_generated} generated")
    print(f"  FCT   : {summarize_fct(result.fcts)}")
    print(f"  paths : {summarize_path_switches(result.path_switches)}")
    print(f"  ctrl  : {result.control_bytes / 1e3:.1f} KB "
          f"({result.control_bytes_per_second:.0f} B/s)")
    if args.records_csv:
        from repro.analysis import records_to_csv

        n = records_to_csv(result.records, args.records_csv)
        print(f"  wrote {n} records to {args.records_csv}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.addressing import HierarchicalAddressing, PathCodec
    from repro.switches import SwitchFabric, verify_fabric
    from repro.topology import build_topology

    params = {}
    if args.topology == "fattree":
        params["p"] = args.pods
    elif args.topology == "clos":
        params["d_i"] = args.d
        params["d_a"] = args.d
    topo = build_topology(args.topology, **params)
    addressing = HierarchicalAddressing(topo)
    fabric = SwitchFabric(addressing)
    report = verify_fabric(fabric, PathCodec(addressing), max_pairs=args.max_pairs)
    print(repr(topo))
    print(report.render())
    return 0 if report.ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    topology_params = {"link_bandwidth_bps": args.bandwidth_mbps * MBPS}
    if args.topology == "fattree":
        topology_params["p"] = args.pods
    pattern_params = {}
    if args.pattern == "incast":
        pattern_params = {"targets": args.incast_targets}
    arrival_params = {}
    if args.arrival == "empirical":
        arrival_params = {"size_preset": args.size_preset}
    elif args.arrival == "incast-barrier":
        # The process default (1/rate) can exceed a short --duration and
        # fire zero bursts; tie the default to the run length instead.
        period = args.barrier_period
        if period is None:
            period = max(0.5, args.duration / 6)
        arrival_params = {"period_s": period}
    network_params = {}
    if args.detector != "threshold":
        network_params = {"elephant_detector": args.detector}
    link_events = ()
    if args.storm:
        from repro.common.rng import RngStreams
        from repro.topology import build_topology
        from repro.workloads import FailureStormScenario

        storm = FailureStormScenario(
            start_s=max(1.0, args.duration / 6),
            wave_interval_s=max(1.0, args.duration / 10),
            waves=3,
            cables_per_wave=1,
            outage_s=max(0.5, args.duration / 12),
        )
        link_events = storm.link_events(
            build_topology(args.topology, **topology_params),
            RngStreams(args.seed).stream("storm"),
        )
    rows = []
    results = []
    baseline = None
    for scheduler in args.schedulers:
        result = run_scenario(
            ScenarioConfig(
                topology=args.topology,
                topology_params=topology_params,
                pattern=args.pattern,
                pattern_params=pattern_params,
                scheduler=scheduler,
                arrival_rate_per_host=args.rate,
                duration_s=args.duration,
                flow_size_bytes=args.size_mb * MB,
                seed=args.seed,
                network_params=network_params,
                arrival=args.arrival,
                arrival_params=arrival_params,
                link_events=link_events,
            )
        )
        results.append((scheduler, result))
        if baseline is None:
            baseline = result.mean_fct
        rows.append(
            {
                "scheduler": scheduler,
                "flows": len(result.records),
                "mean_fct_s": result.mean_fct,
                "vs_first": improvement(baseline, result.mean_fct),
                "control_kb": result.control_bytes / 1e3,
            }
        )
    print(render_table(rows))
    if args.paired and len(results) > 1:
        from repro.experiments import paired_comparison

        first_name, first = results[0]
        print(f"\npaired per-flow statistics (vs {first_name}):")
        for name, result in results[1:]:
            comparison = paired_comparison(first, result)
            print(f"  {name:14s} {comparison.summary()}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.common.errors import ReproError
    from repro.validation import (
        DEFAULT_GOLDEN_PATH,
        GOLDEN_TWINS,
        allocator_equivalence_suite,
        compare_goldens,
        replay_goldens,
        run_fluid_vs_packet,
        run_fuzz,
        store_goldens,
        twin_run,
        twin_suites,
    )

    failed = False

    if not args.skip_oracles:
        print(f"oracle: allocator equivalence on {args.oracle_cases} random instances ...")
        try:
            allocator_equivalence_suite(cases=args.oracle_cases)
            print("oracle: allocator equivalence OK")
        except ReproError as error:
            failed = True
            print(f"oracle: allocator equivalence FAILED\n  {error}")

        for twin, configs in twin_suites():
            print(f"oracle: {twin.oracle} (production vs reference twin) ...")
            try:
                for config in configs:
                    result = twin_run(config, twin)
                    print(
                        f"  {config.scheduler:8s} {config.pattern:14s} "
                        f"flows={len(result.records)} shifts={result.dard_shifts} "
                        f"(journal + records identical)"
                    )
                print(f"oracle: {twin.oracle} OK")
            except ReproError as error:
                failed = True
                print(f"oracle: {twin.oracle} FAILED\n  {error}")

        print("oracle: fluid vs packet FCT agreement ...")
        try:
            rows = run_fluid_vs_packet()
            for row in rows:
                print(
                    f"  {row['scenario']:14s} fluid={row['fluid_fct_s']:.3f}s "
                    f"packet={row['packet_fct_s']:.3f}s ratio={row['ratio']:.3f}"
                )
            from repro.validation import FCT_AGREEMENT_BAND

            low, high = FCT_AGREEMENT_BAND
            print(f"oracle: fluid vs packet OK (band {low:.2f}-{high:.2f}x)")
        except ReproError as error:
            failed = True
            print(f"oracle: fluid vs packet FAILED\n  {error}")

    golden_path = args.golden_path or DEFAULT_GOLDEN_PATH
    if args.golden == "update":
        store_goldens(golden_path, progress=print)
        print(f"golden: wrote {golden_path}")
    elif args.golden == "compare":
        mismatches = compare_goldens(golden_path, progress=print)
        if mismatches:
            failed = True
            print(f"golden: {len(mismatches)} mismatch(es) against {golden_path}:")
            for line in mismatches:
                print(f"  {line}")
        else:
            print(f"golden: matches {golden_path}")
    if args.golden in ("compare", "update"):
        # Each reference twin must reproduce the goldens bit-for-bit (bar
        # its exempt fields) — checked after both compare and update so a
        # rewritten golden is validated too.
        for twin, exempt in GOLDEN_TWINS:
            label = f"golden[{twin.oracle}]"
            mismatches = replay_goldens(twin, exempt, golden_path, progress=print)
            if mismatches:
                failed = True
                print(f"{label}: {len(mismatches)} mismatch(es) against {golden_path}:")
                for line in mismatches:
                    print(f"  {line}")
            else:
                print(f"{label}: matches {golden_path}")

    if args.fuzz:
        report = run_fuzz(
            seeds=args.seeds,
            budget_s=args.budget,
            start_seed=args.start_seed,
            inject_bug=args.inject_bug,
            progress=print,
            sanitize=args.sanitize,
        )
        print(report.render())
        if args.inject_bug:
            # Self-test inverts the verdict: the injected bug MUST be caught.
            if report.ok:
                failed = True
                print("inject-bug: FAILED — the oracles missed the injected bug")
            else:
                print("inject-bug: OK — injected bug caught "
                      f"in {len(report.failures)}/{report.cases} case(s)")
        elif not report.ok:
            failed = True

    print("validate: FAILED" if failed else "validate: OK")
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from repro.lint import (
        all_rules,
        load_config,
        render_json,
        render_text,
        run_lint_result,
    )

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scope) or "*"
            print(f"{rule.code}  {rule.name:26s} [{scope}]  {rule.description}")
        return 0
    config = load_config()
    if args.allow_unused_suppressions:
        config.allow_unused_suppressions = True
    result = run_lint_result(args.paths, config)
    renderer = render_json if args.format == "json" else render_text
    report = renderer(result.findings, result.files_scanned, result.files_skipped)
    print(report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
    if args.parallel_safety_report:
        from repro.lint.callgraph import OwnershipAnalysis, parallel_safety_document

        analysis = result.program.cache.get("ownership")
        if not isinstance(analysis, OwnershipAnalysis):
            analysis = OwnershipAnalysis(result.program.contexts)
        document = parallel_safety_document(analysis)
        with open(args.parallel_safety_report, "w") as handle:
            _json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"parallel-safety: {len(document['proven_pure'])} of "
            f"{len(document['functions'])} closure function(s) proven pure "
            f"-> {args.parallel_safety_report}"
        )
    return 1 if result.findings else 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "run-config":
        return _cmd_run_config(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return 2  # pragma: no cover - argparse enforces choices


def _run_profiled(args: argparse.Namespace, pstats_path: str) -> int:
    """Run a subcommand under cProfile; dump stats and print a summary."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = _dispatch(args)
    finally:
        profiler.disable()
        profiler.dump_stats(pstats_path)
        print(f"\nprofile: pstats written to {pstats_path}")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    profile_path = getattr(args, "profile", None)
    if profile_path:
        return _run_profiled(args, profile_path)
    return _dispatch(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
