"""Command-line entry point: regenerate any paper experiment.

Usage::

    python -m repro table1
    python -m repro fig5 --scale 0.1
    python -m repro fig6 --max-size 1e7
    python -m repro fig7 --rates 250,2000,16000 --messages 2000
    python -m repro fig8
    python -m repro microbench

Each subcommand prints the regenerated rows/series next to the paper's
reported values (the same output the benchmark suite archives under
``benchmarks/results/``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.reporting import format_series, format_table
from repro.bench.topologies import (
    CLOUDLAB_SENDER,
    EC2_SENDER,
    TABLE1_OBSERVED,
    TABLE2_OBSERVED,
    cloudlab_topology,
    ec2_topology,
)
from repro.bench import runners


def _cmd_table1(_args) -> None:
    matrix = runners.run_network_matrix(ec2_topology(heterogeneity=False), EC2_SENDER)
    rows = []
    for node, data in matrix.items():
        rows.append((node, f"{data['rtt_ms']:.2f}", f"{data['throughput_mbit']:.1f}"))
    print(format_table(["node", "RTT ms", "Thp Mbit/s"], rows, "Table I (measured)"))
    print("\npaper (halved):", TABLE1_OBSERVED)


def _cmd_table2(_args) -> None:
    matrix = runners.run_network_matrix(cloudlab_topology(), CLOUDLAB_SENDER)
    rows = [
        (node, f"{d['rtt_ms']:.3f}", f"{d['throughput_mbit']:.1f}")
        for node, d in matrix.items()
    ]
    print(format_table(["server", "RTT ms", "Thp Mbit/s"], rows, "Table II (measured)"))
    print("\npaper:", TABLE2_OBSERVED)


def _cmd_fig3(args) -> None:
    sizes = tuple(1024 * 2**i for i in range(7))
    result = runners.run_quorum_read(sizes_bytes=sizes, reads_per_size=args.reads)
    rows = [
        (size // 1024, f"{result['latency_s'][size] * 1e3:.2f}")
        for size in sizes
    ]
    print(format_table(["message KB", "read latency ms"], rows, "Fig. 3 (measured)"))
    print("RTTs:", {k: f"{v * 1e3:.2f}ms" for k, v in result["rtt_s"].items()})


def _cmd_microbench(args) -> None:
    rows = runners.run_dsl_microbench(evaluations=args.evals)
    print(
        format_table(
            ["ops", "operands", "compile ms", "eval us", "interp us"],
            [
                (
                    r["operators"],
                    r["operands"],
                    f"{r['compile_ms']:.3f}",
                    f"{r['eval_us']:.3f}",
                    f"{r['interp_eval_us']:.3f}",
                )
                for r in rows
            ],
            "Section VI-A DSL overhead (measured)",
        )
    )


def _cmd_fig5(args) -> None:
    result = runners.run_trace_experiment(scale=args.scale)
    print(
        f"trace scale={args.scale}: {result['messages']} messages from "
        f"{result['trace_files']} sync requests"
    )
    for key, series in result["series"].items():
        down = series.downsample(24)
        print()
        print(
            format_series(
                list(down),
                x_label="message seq",
                y_label="latency s",
                title=f"Fig. 5 — {key} (mean {series.mean():.3f}s)",
            )
        )


def _cmd_fig6(args) -> None:
    sizes = [10**e for e in range(3, 9) if 10**e <= args.max_size]
    result = runners.run_file_sync(sizes_bytes=sizes)
    systems = list(result["sync_time_s"])
    rows = [
        tuple(
            [size]
            + [f"{result['sync_time_s'][s][size] * 1e3:.1f}" for s in systems]
        )
        for size in sizes
    ]
    print(format_table(["file bytes"] + systems, rows, "Fig. 6 sync time (ms)"))
    print(
        f"\nMajorityRegions vs PhxPaxos mean improvement: "
        f"{result['improvement_vs_paxos'] * 100:.1f}% (paper: 24.75%)"
    )


def _cmd_fig7(args) -> None:
    rates = [float(r) for r in args.rates.split(",")]
    sweep = runners.run_pubsub_sweep(rates=rates, messages=args.messages)
    for system in ("stabilizer", "pulsar"):
        rows = []
        for rate in rates:
            for site in runners.PUBSUB_SITES:
                d = sweep[system][rate][site]
                rows.append(
                    (
                        int(rate),
                        site,
                        f"{d['latency_ms']:.2f}",
                        f"{d['throughput_mbit']:.1f}",
                    )
                )
        print(
            format_table(
                ["rate", "site", "latency ms", "thp Mbit/s"],
                rows,
                f"Fig. 7 — {system}",
            )
        )
        print()


def _cmd_fig8(args) -> None:
    result = runners.run_reconfig(messages=args.messages)
    for key in ("all_sites", "three_sites", "changing"):
        series = result[key]
        print(f"{key}: mean {series.mean() * 1e3:.2f} ms over {len(series)} messages")
    print("toggles:", result["toggles"][:6], "...")
    down = result["changing"].downsample(20)
    print(
        format_series(
            [(x, y * 1e3) for x, y in down],
            x_label="time s",
            y_label="latency ms",
            title="Fig. 8 — changing predicate",
        )
    )


def _cmd_explain(args) -> None:
    """Show a predicate's canonical and expanded forms at one node."""
    from repro.dsl.format import describe
    from repro.dsl.semantics import DslContext

    if args.deployment == "ec2":
        topo = ec2_topology()
        local = args.node or EC2_SENDER
    else:
        topo = cloudlab_topology()
        local = args.node or CLOUDLAB_SENDER
    ctx = DslContext(topo.node_names(), topo.groups(), local)
    print(f"at node {local} ({args.deployment} deployment):")
    print(" ", describe(args.predicate, ctx))


def _cmd_scenario(args) -> None:
    """Run a declarative scenario file (see repro.bench.scenario)."""
    from repro.bench.scenario import run_scenario_file

    result = run_scenario_file(args.file, out_dir=args.out)
    print(
        f"scenario {result['name']!r}: {result['messages_sent']} messages "
        f"over {result['duration_s']:.1f} s"
    )
    rows = []
    for key, series in result["series"].items():
        rows.append(
            (
                key,
                len(series),
                f"{series.mean() * 1e3:.2f}",
                f"{series.percentile(99) * 1e3:.2f}",
                f"{series.max() * 1e3:.2f}",
            )
        )
    print(
        format_table(
            ["predicate", "covered", "mean ms", "p99 ms", "max ms"], rows
        )
    )
    if args.out:
        print(f"per-predicate CSVs written under {args.out}")


def _cmd_obs(args) -> None:
    """Run the instrumented scenario; print metrics, write traces."""
    from repro.obs.scenario import run_obs_scenario

    result = run_obs_scenario(
        nodes=args.nodes,
        messages=args.messages,
        seed=args.seed,
        durability=args.durability,
        sample_shift=args.sample_shift,
        snapshots_out=args.snapshots_out,
        slo_threshold_s=args.slo_threshold,
    )
    print(
        f"obs run: {len(result['nodes'])} nodes x "
        f"{result['messages_per_node']} messages, "
        f"{result['virtual_end_s']:.2f} s virtual"
    )
    rows = []
    for name in result["nodes"]:
        for key, s in result["stability_latency"][name].items():
            if not s["count"]:
                continue
            rows.append(
                (
                    name,
                    key,
                    int(s["count"]),
                    f"{s['mean'] * 1e3:.2f}",
                    f"{s['p50'] * 1e3:.2f}",
                    f"{s['p90'] * 1e3:.2f}",
                    f"{s['p99'] * 1e3:.2f}",
                    f"{s['max'] * 1e3:.2f}",
                )
            )
    print(
        format_table(
            ["node", "predicate", "n", "mean ms", "p50 ms", "p90 ms",
             "p99 ms", "max ms"],
            rows,
            title="send -> stable latency (per predicate key)",
        )
    )
    lag_rows = []
    for name in result["nodes"]:
        metrics = result["snapshots"][name]["metrics"]
        for metric, value in sorted(metrics.items()):
            if metric.startswith("frontier_lag.") and value:
                lag_rows.append((name, metric[len("frontier_lag."):], value))
    if lag_rows:
        print(format_table(
            ["node", "origin.type", "lag"], lag_rows,
            title="residual frontier lag (cells trailing the data plane)",
        ))
    tracer = result["tracer"]
    print(
        f"trace: {tracer.emitted} events emitted, "
        f"{len(tracer)} retained ({tracer.dropped} dropped by the ring)"
    )
    if args.trace_out:
        tracer.to_chrome_file(args.trace_out)
        print(f"chrome trace written to {args.trace_out} "
              "(load in chrome://tracing)")
    if args.jsonl_out:
        tracer.to_jsonl_file(args.jsonl_out)
        print(f"JSONL trace written to {args.jsonl_out}")
    if args.span_out:
        import json

        from repro.obs.spans import build_span_trees, chrome_span_trace

        trees = build_span_trees(tracer.events())
        doc = chrome_span_trace(trees)
        with open(args.span_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        print(
            f"span trace written to {args.span_out} "
            f"({doc['otherData']['sends']} sends, "
            f"{doc['otherData']['complete']} complete span trees)"
        )
    if args.openmetrics_out:
        from repro.obs.export import render_openmetrics

        text = render_openmetrics(result["snapshots"])
        with open(args.openmetrics_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"OpenMetrics exposition written to {args.openmetrics_out}")
    if args.snapshots_out:
        print(
            f"{result.get('snapshot_records', 0)} JSONL snapshots written "
            f"to {args.snapshots_out} (view with `repro top`)"
        )
    for name, alerts in (result.get("alerts") or {}).items():
        for alert in alerts:
            status = (
                "resolved" if alert["resolved_at"] is not None else "ACTIVE"
            )
            print(
                f"alert [{status}] {name}: {alert['rule']} "
                f"window={alert['window_s']} burn={alert['burn_short']:.1f}x"
            )


def _cmd_blame(args) -> None:
    """Critical-path attribution: which peer's ACK stabilized each send
    last, and which segment dominated.  Analyzes a JSONL trace file
    (``--jsonl``) or runs the instrumented scenario first."""
    from repro.obs.critpath import analyze

    if args.jsonl:
        from repro.obs.spans import load_events

        events = load_events(args.jsonl)
        source = args.jsonl
    else:
        from repro.obs.scenario import run_obs_scenario

        result = run_obs_scenario(
            nodes=args.nodes,
            messages=args.messages,
            seed=args.seed,
            durability=args.durability,
        )
        events = list(result["tracer"].events())
        source = (
            f"{len(result['nodes'])}-node scenario, "
            f"{result['virtual_end_s']:.2f} s virtual"
        )
    keys = args.keys.split(",") if args.keys else None
    table = analyze(events, keys=keys)
    print(f"critical-path attribution ({source}):")
    print(table.format(), end="")
    if table.sends and table.attribution_rate < 0.95:
        print(
            f"warning: only {table.attribution_rate:.1%} of stabilized "
            "sends attributed (sampled trace, or ring wrapped?)"
        )


def _cmd_top(args) -> None:
    """Terminal dashboard over a JSONL snapshot stream (see
    ``repro obs --snapshots-out``)."""
    from repro.obs.export import read_snapshots
    from repro.obs.top import render_top

    def frame() -> str:
        prev = last = None
        for record in read_snapshots(args.file):
            prev, last = last, record
        if last is None:
            return "repro top: no snapshot records yet\n"
        return render_top(last, prev=prev, width=args.width)

    if not args.follow:
        print(frame(), end="")
        return
    import time

    try:
        while True:
            print("\033[2J\033[H" + frame(), end="", flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass


def _cmd_overload(args) -> None:
    """One seeded overload-chaos run: flash crowds and slow nodes against
    admission control and the closed-loop SLA controller."""
    from repro.chaos import OverloadChaosConfig, run_chaos

    report = run_chaos(
        OverloadChaosConfig(
            seed=args.seed,
            events=args.events,
            flash_crowds=args.flash_crowds,
            slow_nodes=args.slow_nodes,
        )
    )
    print(
        format_table(
            ["event", "at (s)", "target"],
            [(kind, f"{t:.2f}", ",".join(target)) for t, kind, target in report["fired"]],
            title=f"Overload chaos, seed {report['seed']} "
            f"({report['nodes']} nodes / {report['azs']} AZs)",
        )
    )
    admission = report["admission"]
    print(
        f"\nadmission: offered={admission['admission.offered']:.0f} "
        f"admitted={admission['admission.admitted']:.0f} "
        f"shed={admission['admission.shed']:.0f} "
        f"admitted_shed={admission['admission.admitted_shed']:.0f}"
    )
    print(
        f"slacontrol: max_degrade_steps={report['max_degrade_steps']:.0f} "
        f"restored={report['restored']}"
    )
    print(
        f"checks: {report['invariant_checks']} invariant checks, "
        f"{len(report['violations'])} violations, "
        f"settled in {report['virtual_end_s']:.1f} virtual s "
        f"({report['elapsed_s']:.1f} wall s)"
    )
    if report["violations"]:
        for violation in report["violations"]:
            print(f"  VIOLATION: {violation}")
        raise SystemExit(1)


def _cmd_report(args) -> None:
    """Run every checked experiment and print a verdict table."""
    from repro.bench.paper import verdicts_for

    results = {
        "fig3": runners.run_quorum_read(
            sizes_bytes=(1024, 8192, 65536), reads_per_size=3
        ),
        "fig5": runners.run_trace_experiment(scale=args.scale),
        "fig6": runners.run_file_sync(
            sizes_bytes=(10**3, 10**5, 10**7)
        ),
        "fig7": runners.run_pubsub_sweep(
            rates=(250, 1000, 4000, 16000), messages=args.messages
        ),
        "fig8": runners.run_reconfig(messages=args.messages),
    }
    rows = []
    failed = 0
    for experiment, result in results.items():
        for verdict in verdicts_for(experiment, result):
            rows.append(
                (
                    verdict.experiment,
                    verdict.metric,
                    verdict.paper_value,
                    verdict.measured_value,
                    "PASS" if verdict.holds else "FAIL",
                )
            )
            failed += 0 if verdict.holds else 1
    print(
        format_table(
            ["experiment", "finding", "paper", "measured", "verdict"],
            rows,
            title="Reproduction report: paper findings vs this run",
        )
    )
    print(f"\n{len(rows) - failed}/{len(rows)} findings reproduced")
    if failed:
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table I network matrix").set_defaults(fn=_cmd_table1)
    sub.add_parser("table2", help="Table II CloudLab matrix").set_defaults(fn=_cmd_table2)
    fig3 = sub.add_parser("fig3", help="Fig. 3 quorum read latency")
    fig3.add_argument("--reads", type=int, default=5)
    fig3.set_defaults(fn=_cmd_fig3)
    micro = sub.add_parser("microbench", help="Section VI-A DSL overhead")
    micro.add_argument("--evals", type=int, default=10_000)
    micro.set_defaults(fn=_cmd_microbench)
    fig5 = sub.add_parser("fig5", help="Fig. 5 trace-driven frontier latency")
    fig5.add_argument("--scale", type=float, default=0.05)
    fig5.set_defaults(fn=_cmd_fig5)
    fig6 = sub.add_parser("fig6", help="Fig. 6 file sync vs Paxos")
    fig6.add_argument("--max-size", type=float, default=1e7)
    fig6.set_defaults(fn=_cmd_fig6)
    fig7 = sub.add_parser("fig7", help="Fig. 7 pub/sub sweep")
    fig7.add_argument("--rates", default="250,1000,4000,16000")
    fig7.add_argument("--messages", type=int, default=1500)
    fig7.set_defaults(fn=_cmd_fig7)
    fig8 = sub.add_parser("fig8", help="Fig. 8 dynamic reconfiguration")
    fig8.add_argument("--messages", type=int, default=800)
    fig8.set_defaults(fn=_cmd_fig8)
    scenario = sub.add_parser(
        "scenario", help="run a declarative scenario JSON file"
    )
    scenario.add_argument("file")
    scenario.add_argument("--out", default=None, help="directory for CSVs")
    scenario.set_defaults(fn=_cmd_scenario)
    explain = sub.add_parser(
        "explain", help="show a predicate's canonical and expanded forms"
    )
    explain.add_argument("predicate")
    explain.add_argument("--deployment", choices=("ec2", "cloudlab"), default="ec2")
    explain.add_argument("--node", default=None)
    explain.set_defaults(fn=_cmd_explain)
    obs = sub.add_parser(
        "obs",
        help="instrumented run: stability-latency histograms, frontier "
        "lags, and an exportable lifecycle trace",
    )
    obs.add_argument("--nodes", type=int, default=3)
    obs.add_argument("--messages", type=int, default=120)
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument("--durability", action="store_true")
    obs.add_argument(
        "--trace-out", default=None, help="write Chrome trace_event JSON here"
    )
    obs.add_argument(
        "--jsonl-out", default=None, help="write JSONL trace events here"
    )
    obs.add_argument(
        "--span-out", default=None,
        help="write reconstructed cross-node span trees as Chrome "
        "trace_event JSON here",
    )
    obs.add_argument(
        "--openmetrics-out", default=None,
        help="write an OpenMetrics text exposition of the final "
        "snapshots here",
    )
    obs.add_argument(
        "--snapshots-out", default=None,
        help="stream periodic JSONL metric snapshots here (repro top "
        "tails this file)",
    )
    obs.add_argument(
        "--sample-shift", type=int, default=0,
        help="keep 1/2^N of per-sequence trace events (head-based, "
        "seeded; 0 = keep all)",
    )
    obs.add_argument(
        "--slo-threshold", type=float, default=None, metavar="SECONDS",
        help="arm a multi-window burn-rate alerter over send->stable "
        "latency at this threshold",
    )
    obs.set_defaults(fn=_cmd_obs)
    blame = sub.add_parser(
        "blame",
        help="critical-path attribution: per predicate, the straggler "
        "peer and dominant segment behind send->stable latency",
    )
    blame.add_argument(
        "--jsonl", default=None,
        help="analyze this JSONL trace file instead of running the "
        "scenario",
    )
    blame.add_argument("--keys", default=None, help="comma-separated predicate keys")
    blame.add_argument("--nodes", type=int, default=3)
    blame.add_argument("--messages", type=int, default=120)
    blame.add_argument("--seed", type=int, default=0)
    blame.add_argument("--durability", action="store_true")
    blame.set_defaults(fn=_cmd_blame)
    top = sub.add_parser(
        "top",
        help="terminal dashboard over a JSONL snapshot stream "
        "(from `repro obs --snapshots-out`)",
    )
    top.add_argument("file", help="JSONL snapshot file to read")
    top.add_argument(
        "--follow", action="store_true", help="redraw as the file grows"
    )
    top.add_argument("--interval", type=float, default=1.0)
    top.add_argument("--width", type=int, default=100)
    top.set_defaults(fn=_cmd_top)
    overload = sub.add_parser(
        "overload",
        help="seeded overload chaos: flash crowds / slow nodes vs the "
        "admission gate and SLA controller (invariants 13-14)",
    )
    overload.add_argument("--seed", type=int, default=0)
    overload.add_argument("--events", type=int, default=10)
    overload.add_argument("--flash-crowds", type=int, default=1)
    overload.add_argument("--slow-nodes", type=int, default=1)
    overload.set_defaults(fn=_cmd_overload)
    rep = sub.add_parser(
        "report", help="run every checked experiment; print verdict table"
    )
    rep.add_argument("--scale", type=float, default=0.02)
    rep.add_argument("--messages", type=int, default=800)
    rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
