"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's tables/figures plus the
repository's extensions::

    python -m repro list                      # workloads and strategies
    python -m repro classify sq_gemm          # show the locality table
    python -m repro lint --strict [--json]    # static-analysis lint
    python -m repro bound sq_gemm --check     # static traffic bounds vs sim
    python -m repro run sq_gemm --strategy LADM H-CODA
    python -m repro fig4 | fig9 | fig10 | fig11
    python -m repro swizzle [--page-sizes 512 4096]  # CTA-swizzle head-to-head
    python -m repro table1 | table2 | table4
    python -m repro hw-validation | ablations | energy | paging | proactive
    python -m repro profile fig9:conv --trace t.json --counters c.json
    python -m repro fuzz --seed 0 --n 200 --shrink  # differential fuzzing
    python -m repro serve --store DIR               # what-if query service
    python -m repro loadgen --queries 200 --verify  # replay a query stream
    python -m repro servebench --smoke              # serving SLO benchmark
    python -m repro top 127.0.0.1:7653              # live serving telemetry
    python -m repro regress --current r.json --baseline BENCH_serve.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.compiler.passes import compile_program
from repro.engine.simulator import simulate
from repro.experiments import (
    ablations,
    energy,
    fig4,
    fig9,
    fig10,
    fig11,
    hw_validation,
    oversubscription,
    proactive,
    servebench,
    summary,
    swizzle,
    table1,
    table2,
    table4,
)
from repro.experiments.runner import scale_by_name, strategy_by_name
from repro.fuzz import cli as fuzz_cli
from repro.fuzz import loadgen
from repro.obs import profile as obs_profile
from repro.obs import regress as obs_regress
from repro.obs import top as obs_top
from repro.serve import server as serve_server
from repro.topology.config import bench_hierarchical, bench_monolithic
from repro.version import __version__
from repro.workloads.suite import all_workloads, get_workload

__all__ = ["main"]

_EXPERIMENT_MAINS = {
    "servebench": servebench.main,
    "serve": serve_server.main,
    "loadgen": loadgen.main,
    "top": obs_top.main,
    "regress": obs_regress.main,
    "profile": obs_profile.main,
    "fuzz": fuzz_cli.main,
    "fig4": fig4.main,
    "fig9": fig9.main,
    "fig10": fig10.main,
    "fig11": fig11.main,
    "swizzle": swizzle.main,
    "table1": table1.main,
    "table2": table2.main,
    "table4": table4.main,
    "hw-validation": hw_validation.main,
    "ablations": ablations.main,
    "energy": energy.main,
    "paging": oversubscription.main,
    "proactive": proactive.main,
    "summary": summary.main,
}


def _cmd_list(_args) -> None:
    print("workloads (paper Table IV):")
    for w in all_workloads():
        print(f"  {w.name:<15} {w.cls.value:<13} {w.description}")
    print()
    print("strategies: Baseline-RR, Batch+FT[-optimal], Kernel-wide, CODA,")
    print("            H-CODA, LASP+RTWICE, LASP+RONCE, LADM, Monolithic,")
    print("            SWZ-Bit, SWZ-Morton, SWZ-Hilbert[/nosnap]")


def _cmd_classify(args) -> None:
    workload = get_workload(args.workload)
    program = workload.program(scale_by_name(args.scale))
    compiled = compile_program(program)
    print(compiled.locality_table.render())


def _cmd_run(args) -> None:
    from repro.engine.report import render_report, run_to_json

    workload = get_workload(args.workload)
    program = workload.program(scale_by_name(args.scale))
    compiled = compile_program(program)
    hier = bench_hierarchical()
    mono = bench_monolithic()
    for name in args.strategy:
        strategy = strategy_by_name(name)
        config = mono if name == "Monolithic" else hier
        run = simulate(
            program, strategy, config, compiled=compiled, engine=args.engine
        )
        if args.json:
            print(run_to_json(run))
        elif args.detail:
            print(render_report(run))
            print()
        else:
            print(run.summary())


def _cmd_lint(args) -> int:
    from repro.analysis.lint import (
        collect_programs,
        default_topology,
        lint_program,
        lint_workloads,
    )
    from repro.workloads.suite import all_workloads

    known = {w.name for w in all_workloads()}
    workload_names = [t for t in args.targets if t in known]
    paths = [t for t in args.targets if t not in known]
    bad = [p for p in paths if not p.endswith(".py")]
    if bad:
        raise SystemExit(f"unknown lint targets {bad}: not workloads, not .py files")

    topology = default_topology()
    report = lint_workloads(
        names=workload_names or (None if not paths else []),
        scale=args.scale,
        topology=topology,
        suppress=args.suppress,
    )
    for path in paths:
        for name, program in collect_programs(path):
            report.extend(
                lint_program(
                    program, name=name, topology=topology, suppress=args.suppress
                )
            )
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return report.exit_code(strict=args.strict)


def _bound_targets(args) -> list:
    """Resolve ``repro bound`` targets into (name, Program) pairs.

    Accepts workload names, example ``.py`` files (any zero-arg ``build_*``
    builder) and fuzz-corpus ``.json`` entries, so the CI corpus job and
    ad-hoc investigation share one entry point.
    """
    from repro.analysis.lint import collect_programs

    known = {w.name for w in all_workloads()}
    targets = args.targets or sorted(known)
    programs = []
    for target in targets:
        if target in known:
            workload = get_workload(target)
            programs.append((target, workload.program(scale_by_name(args.scale))))
        elif target.endswith(".py"):
            programs.extend(collect_programs(target))
        elif target.endswith(".json"):
            from repro.fuzz.genprog import build_program
            from repro.fuzz.shrink import load_corpus_entry

            with open(target, encoding="utf-8") as fh:
                spec = load_corpus_entry(fh.read())
            programs.append((target, build_program(spec)))
        else:
            raise SystemExit(
                f"unknown bound target {target!r}: not a workload, "
                "not a .py example, not a .json corpus entry"
            )
    return programs


def _cmd_bound(args) -> int:
    """Static inter-GPU traffic bounds, optionally checked vs. the simulator."""
    import json

    from repro.analysis.lint import default_topology
    from repro.analysis.traffic import plan_for_analysis, program_traffic_bounds

    topology = default_topology()
    config = topology.config
    violations = 0
    docs = []
    for name, program in _bound_targets(args):
        compiled = compile_program(program)
        plan = plan_for_analysis(compiled, topology, args.strategy)
        bounds = program_traffic_bounds(program, plan, config)
        doc = bounds.to_dict()
        doc["program"] = name
        measured = None
        if args.check:
            run = simulate(
                program,
                strategy_by_name(args.strategy),
                config,
                compiled=compiled,
            )
            measured = [int(k.inter_gpu_bytes) for k in run.kernels]
            for launch_doc, launch_bounds, m in zip(
                doc["launches"], bounds.launches, measured
            ):
                ok = launch_bounds.lower_bytes <= m <= launch_bounds.upper_bytes
                launch_doc["measured_bytes"] = m
                launch_doc["ok"] = ok
                if not ok:
                    violations += 1
        docs.append(doc)
        if not args.json:
            print(f"{name} strategy={args.strategy}")
            for i, lb in enumerate(bounds.launches):
                line = (
                    f"  launch {lb.launch_index} {lb.kernel}: "
                    f"lower={lb.lower_bytes} upper={lb.upper_bytes}"
                    f"{' cold' if lb.cold else ''}"
                    + (f" top_sites={lb.top_sites}" if lb.top_sites else "")
                )
                if measured is not None:
                    ok = doc["launches"][i]["ok"]
                    line += f" [measured {measured[i]} {'OK' if ok else 'VIOLATION'}]"
                print(line)
            print(f"  total: lower={bounds.lower_bytes} upper={bounds.upper_bytes}")
    if args.json:
        print(
            json.dumps(
                {"format": "repro-bound-report-v1", "programs": docs}, indent=2
            )
        )
    if violations:
        print(f"bound: {violations} launch(es) outside static bounds", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LADM (MICRO 2020) reproduction harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and strategies")

    p_classify = sub.add_parser("classify", help="show a workload's locality table")
    p_classify.add_argument("workload")
    p_classify.add_argument("--scale", default="test", choices=["bench", "test"])

    p_lint = sub.add_parser(
        "lint", help="static-analysis lint over workloads / example programs"
    )
    p_lint.add_argument(
        "targets",
        nargs="*",
        help="workload names and/or .py files (default: the whole suite)",
    )
    p_lint.add_argument("--scale", default="test", choices=["bench", "test"])
    p_lint.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any warning-or-worse diagnostic",
    )
    p_lint.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="RULE[@PREFIX]",
        help="drop diagnostics by rule id, optionally scoped to a "
        "file:kernel:access prefix (repeatable)",
    )
    p_lint.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report (repro-lint-report-v1)",
    )

    p_bound = sub.add_parser(
        "bound",
        help="static inter-GPU traffic bounds (symbolic footprint analysis)",
    )
    p_bound.add_argument(
        "targets",
        nargs="*",
        help="workload names, .py examples and/or .json corpus entries "
        "(default: the whole suite)",
    )
    p_bound.add_argument("--scale", default="test", choices=["bench", "test"])
    p_bound.add_argument(
        "--strategy", default="LADM", help="strategy whose plan is analysed"
    )
    p_bound.add_argument(
        "--check",
        action="store_true",
        help="simulate and verify lower <= measured <= upper per launch "
        "(exit 1 on violation)",
    )
    p_bound.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p_run = sub.add_parser("run", help="simulate one workload under strategies")
    p_run.add_argument("workload")
    p_run.add_argument(
        "--strategy", nargs="+", default=["H-CODA", "LADM", "Monolithic"]
    )
    p_run.add_argument("--scale", default="test", choices=["bench", "test"])
    p_run.add_argument(
        "--detail", action="store_true", help="per-kernel diagnostic report"
    )
    p_run.add_argument("--json", action="store_true", help="machine-readable output")
    p_run.add_argument(
        "--engine",
        default=None,
        choices=["vector", "legacy", "compiled"],
        help="simulation engine (default: REPRO_ENGINE or 'vector')",
    )

    for name in _EXPERIMENT_MAINS:
        if name == "servebench":
            sub.add_parser(
                name, help="serving-stack SLO benchmark (cold vs warm store)"
            )
        elif name == "serve":
            sub.add_parser(
                name, help="async what-if query server with a tiered result cache"
            )
        elif name == "loadgen":
            sub.add_parser(
                name, help="replay a seeded query stream against repro serve"
            )
        elif name == "top":
            sub.add_parser(
                name, help="live telemetry view of a running serve endpoint"
            )
        elif name == "regress":
            sub.add_parser(
                name, help="diff a bench report against a committed baseline"
            )
        elif name == "profile":
            sub.add_parser(
                name,
                help="instrumented run: span trace + counters + flame summary",
            )
        elif name == "fuzz":
            sub.add_parser(
                name,
                help="differential fuzzing campaign over generated KIR programs",
            )
        else:
            sub.add_parser(name, help=f"regenerate {name} (forwards remaining args)")
    return parser


def main(argv: Optional[List[str]] = None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Experiment commands forward their own flags to the experiment parser.
    if argv and argv[0] in _EXPERIMENT_MAINS:
        code = _EXPERIMENT_MAINS[argv[0]](argv[1:])
        if code:  # servebench, regress, fuzz... return a gate exit status
            raise SystemExit(code)
        return
    args = build_parser().parse_args(argv)
    if args.command == "list":
        _cmd_list(args)
    elif args.command == "classify":
        _cmd_classify(args)
    elif args.command == "lint":
        code = _cmd_lint(args)
        if code:
            raise SystemExit(code)
    elif args.command == "bound":
        code = _cmd_bound(args)
        if code:
            raise SystemExit(code)
    elif args.command == "run":
        _cmd_run(args)


if __name__ == "__main__":
    main()
