"""Command-line interface.

::

    python -m repro isas                          # list instruction sets
    python -m repro interfaces alpha              # list buildsets + detail
    python -m repro run alpha prog.s              # assemble + run a program
    python -m repro run alpha prog.s --buildset block_min --max 1000000
    python -m repro run alpha prog.s --stats      # + observability report
    python -m repro kernels alpha one_min         # run the kernel suite
    python -m repro kernels alpha block_min --stats=json   # scriptable
    python -m repro stats alpha block_min         # observability report
    python -m repro kernels alpha block_min --profile        # profile report
    python -m repro kernels alpha block_min --profile=p.json # Chrome trace
    python -m repro profile alpha block_min       # profiling-first entrypoint
    python -m repro disasm alpha prog.s           # assemble + disassemble
    python -m repro lint alpha                    # static-check the spec
    python -m repro lint alpha --format=json      # machine-readable
    python -m repro check alpha                   # validate generated modules
    python -m repro check alpha --costs           # + static cost predictions
    python -m repro table1 [--json]               # Table I analogue
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.harness.loc import table1
from repro.harness.tables import render_table
from repro.iface import InformationalDetail, SemanticDetail
from repro.isa.base import available_isas, get_bundle
from repro.isa.disasm import Disassembler
from repro.obs import (
    collect,
    make_observability,
    record_generated_stats,
    record_sim_stats,
    render_json,
    render_text,
)
from repro.prof import (
    folded_stacks,
    profile_document,
    record_sim_profile,
    render_profile_text,
    write_chrome_trace,
)
from repro.synth import SynthOptions, synthesize
from repro.sysemu import OSEmulator, load_image
from repro.workloads import kernel_names, run_kernel


def _cmd_isas(_args) -> int:
    for isa in available_isas():
        spec = get_bundle(isa).load_spec()
        print(f"{isa:8s} {len(spec.instructions):3d} instructions, "
              f"{len(spec.buildsets)} interfaces, {spec.endian}-endian")
    return 0


def _cmd_interfaces(args) -> int:
    spec = get_bundle(args.isa).load_spec()
    rows = []
    for name, buildset in sorted(spec.buildsets.items()):
        rows.append(
            [
                name,
                SemanticDetail.of(buildset).value,
                InformationalDetail.of(buildset, spec).value,
                "yes" if buildset.speculation else "no",
                len(buildset.entrypoints),
            ]
        )
    print(
        render_table(
            f"Interfaces of {args.isa}",
            ["buildset", "semantic", "informational", "speculation", "#calls"],
            rows,
        )
    )
    return 0


def _load_program(args):
    bundle = get_bundle(args.isa)
    with open(args.program, "r", encoding="utf-8") as handle:
        source = handle.read()
    image = bundle.make_assembler().assemble(source, origin=args.origin)
    return bundle, image


def _stats_setup(stats_mode, profile: bool = False):
    """(SynthOptions, Observability) for --stats/--profile (None = off).

    Both flags turn on the one instrumentation switch; they differ only
    in which report is printed.
    """
    if not (stats_mode or profile):
        return None, None
    return SynthOptions(observe=True), make_observability()


def _emit_profile(prof, dest: str) -> None:
    """Print the text profile (``dest == "-"``) or write a Chrome trace."""
    if dest == "-":
        print(render_profile_text(prof))
    else:
        write_chrome_trace(dest, prof)
        print(f"[profile] wrote Chrome trace to {dest}", file=sys.stderr)


def _apply_block_flags(options, args):
    """Fold ``--superblock``/``--no-chain`` into the synthesis options.

    Returns ``options`` unchanged (possibly ``None``) when neither flag
    was given, so the default-option paths stay untouched.
    """
    import dataclasses

    superblock = getattr(args, "superblock", None)
    no_chain = getattr(args, "no_chain", False)
    if superblock is None and not no_chain:
        return options
    if options is None:
        options = SynthOptions()
    overrides: dict = {}
    if superblock is not None:
        overrides["superblock"] = superblock
    if no_chain:
        overrides["chain"] = False
    return dataclasses.replace(options, **overrides)


def add_block_flags(parser) -> None:
    """Block-translator tuning flags shared by ``run`` and ``kernels``."""
    parser.add_argument(
        "--superblock", type=int, default=None, metavar="N",
        help="superblock formation budget in instructions "
             "(0 disables; block buildsets only)",
    )
    parser.add_argument(
        "--no-chain", action="store_true",
        help="disable direct block chaining (block buildsets only)",
    )


def _print_stats(stats: dict, mode: str) -> None:
    print(render_json(stats) if mode == "json" else render_text(stats))


def _cmd_run(args) -> int:
    bundle, image = _load_program(args)
    options, obs = _stats_setup(args.stats, bool(args.profile))
    options = _apply_block_flags(options, args)
    generated = synthesize(bundle.load_spec(), args.buildset, options)
    os_emu = OSEmulator(
        bundle.abi,
        stdin=sys.stdin.buffer.read() if args.stdin else b"",
        obs=obs,
    )
    sim = generated.make(syscall_handler=os_emu, obs=obs)
    load_image(sim.state, image, bundle.abi)
    result = sim.run(args.max)
    sys.stdout.write(bytes(os_emu.stdout).decode("latin-1"))
    sys.stderr.write(bytes(os_emu.stderr).decode("latin-1"))
    print(
        f"\n[{args.isa}/{args.buildset}] executed {result.executed} "
        f"instructions; "
        + (f"exit status {result.exit_status}" if result.exited
           else "instruction budget exhausted")
    )
    if obs is not None:
        record_generated_stats(obs, generated)
        record_sim_stats(obs, sim)
        obs.counters.inc("run.instructions", result.executed)
        record_sim_profile(obs.prof, sim)
        if args.profile:
            obs.prof.meta.update(
                {
                    "isa": args.isa,
                    "buildset": args.buildset,
                    "ilen": generated.plan.spec.ilen,
                    "command": "run",
                }
            )
            _emit_profile(obs.prof, args.profile)
        if args.stats:
            stats = collect(obs)
            stats["run"] = {
                "isa": args.isa,
                "buildset": args.buildset,
                "executed": result.executed,
                "exited": result.exited,
                "exit_status": result.exit_status,
            }
            _print_stats(stats, args.stats)
    return (result.exit_status or 0) if result.exited else 2


def _cmd_disasm(args) -> int:
    bundle, image = _load_program(args)
    spec = bundle.load_spec()
    disasm = Disassembler(spec)
    for addr, data in image.segments:
        for offset in range(0, len(data) - len(data) % spec.ilen, spec.ilen):
            word = int.from_bytes(
                data[offset : offset + spec.ilen], spec.endian
            )
            print(f"{addr + offset:#8x}:  {disasm.disassemble(word)}")
    return 0


def _run_kernel_suite(
    isa: str, buildset: str, stats_mode, kernels=None, args=None,
    profile: bool = False,
):
    """Run the kernel suite; returns (records, failures, stats, obs)."""
    options, obs = _stats_setup(stats_mode, profile)
    if args is not None:
        options = _apply_block_flags(options, args)
    spec = get_bundle(isa).load_spec()
    generated = synthesize(spec, buildset, options)
    if profile:
        obs.prof.meta.update(
            {
                "isa": isa,
                "buildset": buildset,
                "ilen": spec.ilen,
                "command": "kernels",
            }
        )
    records = []
    failures = 0
    for name in kernels if kernels else kernel_names():
        run = run_kernel(generated, isa, name, obs=obs)
        records.append(
            {
                "kernel": name,
                "instructions": run.executed,
                "result": run.result,
                "correct": run.correct,
                "mips": run.executed / max(run.elapsed, 1e-9) / 1e6,
            }
        )
        failures += 0 if run.correct else 1
    stats = None
    if obs is not None:
        record_generated_stats(obs, generated)
        if stats_mode:
            stats = collect(obs)
    return records, failures, stats, obs


def _cmd_kernels(args) -> int:
    stats_mode = args.stats
    records, failures, stats, obs = _run_kernel_suite(
        args.isa, args.buildset, stats_mode, args=args,
        profile=bool(args.profile),
    )
    as_json = args.json or stats_mode == "json"
    if as_json:
        doc = {
            "isa": args.isa,
            "buildset": args.buildset,
            "kernels": [
                {**r, "mips": round(r["mips"], 3)} for r in records
            ],
            "failures": failures,
        }
        if stats is not None:
            doc["stats"] = stats
        if args.profile == "-":
            doc["profile"] = profile_document(obs.prof)
        elif args.profile:
            write_chrome_trace(args.profile, obs.prof)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 1 if failures else 0
    rows = [
        [
            r["kernel"],
            r["instructions"],
            f"{r['result']:#x}",
            "ok" if r["correct"] else "WRONG",
            f"{r['mips']:.2f}",
        ]
        for r in records
    ]
    print(
        render_table(
            f"Kernel suite on {args.isa}/{args.buildset}",
            ["kernel", "instructions", "result", "check", "MIPS"],
            rows,
        )
    )
    if stats is not None:
        _print_stats(stats, stats_mode)
    if args.profile:
        _emit_profile(obs.prof, args.profile)
    return 1 if failures else 0


def _cmd_stats(args) -> int:
    """Observability-first entrypoint: run kernels, print the report."""
    kernels = args.kernel or None
    records, failures, stats, _obs = _run_kernel_suite(
        _require_isa(args.isa), args.buildset,
        "json" if args.json else "text", kernels,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "isa": args.isa,
                    "buildset": args.buildset,
                    "kernels": [
                        {**r, "mips": round(r["mips"], 3)} for r in records
                    ],
                    "failures": failures,
                    "stats": stats,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 1 if failures else 0
    executed = sum(r["instructions"] for r in records)
    print(
        f"[{args.isa}/{args.buildset}] {len(records)} kernels, "
        f"{executed} instructions, {failures} failures"
    )
    _print_stats(stats, "text")
    return 1 if failures else 0


def _require_isa(name: str) -> str:
    """Exit 2 with the known-ISA list instead of a traceback (or argparse
    usage noise) when a static-analysis command names an unknown ISA."""
    known = available_isas()
    if name not in known:
        print(
            f"repro: unknown ISA {name!r}; known ISAs: {', '.join(known)}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return name


def _cmd_profile(args) -> int:
    """Profiling-first entrypoint: run kernels, print the profile."""
    isa = _require_isa(args.isa)
    records, failures, _stats, obs = _run_kernel_suite(
        isa, args.buildset, None, args.kernel or None, profile=True
    )
    prof = obs.prof
    if args.trace_out:
        write_chrome_trace(args.trace_out, prof)
        print(f"[profile] wrote Chrome trace to {args.trace_out}",
              file=sys.stderr)
    if args.folded:
        with open(args.folded, "w", encoding="utf-8") as handle:
            handle.write(folded_stacks(prof))
        print(f"[profile] wrote folded stacks to {args.folded}",
              file=sys.stderr)
    if args.json:
        doc = profile_document(prof)
        doc["kernels"] = [
            {**r, "mips": round(r["mips"], 3)} for r in records
        ]
        doc["failures"] = failures
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        executed = sum(r["instructions"] for r in records)
        print(
            f"[{isa}/{args.buildset}] {len(records)} kernels, "
            f"{executed} instructions, {failures} failures"
        )
        print(render_profile_text(prof))
    return 1 if failures else 0


def _cmd_lint(args) -> int:
    from repro.lint import render_json, render_text as render_lint_text
    from repro.lint.runner import lint_paths

    bundle = get_bundle(_require_isa(args.isa))
    result = lint_paths([str(p) for p in bundle.description_paths()])
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_lint_text(result, show_suppressed=args.show_suppressed))
    return result.exit_code


def _cmd_check(args) -> int:
    from repro.check import check_isa, cost_report
    from repro.check import render_json as render_check_json
    from repro.check import render_text as render_check_text

    isa = _require_isa(args.isa)
    result = check_isa(isa, buildsets=args.buildset or None)
    if args.format == "json":
        doc = json.loads(render_check_json(result))
        if args.costs:
            doc["cost_model"] = cost_report(isa)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            render_check_text(result, show_suppressed=args.show_suppressed)
        )
        if args.costs:
            report = cost_report(isa)
            rows = [
                [name, c["entry"], c["body"], c["total"]]
                for name, c in report["predictions"].items()
            ]
            print(
                render_table(
                    f"Static host-op predictions for {isa} "
                    f"(bytecode-length model)",
                    ["buildset", "entry", "body", "total"],
                    rows,
                )
            )
            deltas = ", ".join(
                f"{k}: {v:+.2f}" for k, v in report["deltas"].items()
            )
            print(f"Table III-style deltas: {deltas}")
    return result.exit_code


def _cmd_table1(args) -> int:
    characteristics = table1()
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "isa": c.isa,
                        "isa_description_lines": c.isa_description_lines,
                        "os_support_lines": c.os_support_lines,
                        "buildset_lines": c.buildset_lines,
                        "buildsets": c.buildsets,
                        "lines_per_buildset": round(c.lines_per_buildset, 2),
                        "instructions": c.instructions,
                    }
                    for c in characteristics
                ],
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    rows = [
        [
            c.isa,
            c.isa_description_lines,
            c.os_support_lines,
            c.buildset_lines,
            c.buildsets,
            round(c.lines_per_buildset, 1),
            c.instructions,
        ]
        for c in characteristics
    ]
    print(
        render_table(
            "Table I (analogue): instruction set characteristics",
            ["ISA", "ISA descr", "OS support", "buildsets", "#ifaces",
             "lines/iface", "#instr"],
            rows,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Single-specification simulator synthesis "
        "(ISPASS 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("isas", help="list supported instruction sets")

    p_ifaces = sub.add_parser("interfaces", help="list an ISA's buildsets")
    p_ifaces.add_argument("isa", choices=available_isas())

    def add_stats_flag(p):
        p.add_argument(
            "--stats",
            nargs="?",
            const="text",
            choices=("text", "json"),
            default=None,
            help="synthesize with observability and report statistics "
            "(--stats or --stats=json)",
        )

    def add_profile_flag(p):
        p.add_argument(
            "--profile",
            nargs="?",
            const="-",
            default=None,
            metavar="OUT.json",
            help="profile the run (span tracing + guest attribution); "
            "bare --profile prints the text report, --profile=OUT.json "
            "writes a Chrome Trace Event file instead",
        )

    p_run = sub.add_parser("run", help="assemble and run a guest program")
    p_run.add_argument("isa", choices=available_isas())
    p_run.add_argument("program", help="assembly source file")
    p_run.add_argument("--buildset", default="one_min")
    p_run.add_argument("--origin", type=lambda x: int(x, 0), default=0x1000)
    p_run.add_argument("--max", type=int, default=100_000_000)
    p_run.add_argument("--stdin", action="store_true",
                       help="pass host stdin to the guest")
    add_block_flags(p_run)
    add_stats_flag(p_run)
    add_profile_flag(p_run)

    p_dis = sub.add_parser("disasm", help="assemble and disassemble a program")
    p_dis.add_argument("isa", choices=available_isas())
    p_dis.add_argument("program")
    p_dis.add_argument("--origin", type=lambda x: int(x, 0), default=0x1000)

    p_kern = sub.add_parser("kernels", help="run the benchmark kernel suite")
    p_kern.add_argument("isa", choices=available_isas())
    p_kern.add_argument("buildset", nargs="?", default="one_min")
    p_kern.add_argument("--json", action="store_true",
                        help="emit results as JSON instead of a table")
    add_block_flags(p_kern)
    add_stats_flag(p_kern)
    add_profile_flag(p_kern)

    p_stats = sub.add_parser(
        "stats",
        help="run kernels with observability enabled, print the stats report",
    )
    p_stats.add_argument("isa")
    p_stats.add_argument("buildset", nargs="?", default="block_min")
    p_stats.add_argument(
        "--kernel",
        action="append",
        choices=kernel_names(),
        help="restrict to one kernel (repeatable); default: the whole suite",
    )
    p_stats.add_argument("--json", action="store_true",
                         help="emit the full report as JSON")

    p_prof = sub.add_parser(
        "profile",
        help="run kernels with profiling enabled: span tree, hot guest "
        "blocks, Chrome-trace and flamegraph exports",
    )
    p_prof.add_argument("isa")
    p_prof.add_argument("buildset", nargs="?", default="block_min")
    p_prof.add_argument(
        "--kernel",
        action="append",
        choices=kernel_names(),
        help="restrict to one kernel (repeatable); default: the whole suite",
    )
    p_prof.add_argument("--json", action="store_true",
                        help="emit the profile document as JSON")
    p_prof.add_argument(
        "--trace-out", metavar="OUT.json",
        help="also write a Chrome Trace Event file (Perfetto-loadable)",
    )
    p_prof.add_argument(
        "--folded", metavar="OUT.txt",
        help="also write folded stacks for flamegraph.pl",
    )

    p_lint = sub.add_parser(
        "lint", help="run static analysis over an ISA's specification files"
    )
    p_lint.add_argument("isa")
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    p_lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed diagnostics in text output",
    )

    p_check = sub.add_parser(
        "check",
        help="validate every synthesized interface module of an ISA "
        "against its specification (translation validation)",
    )
    p_check.add_argument("isa")
    p_check.add_argument(
        "--buildset",
        action="append",
        help="restrict to one buildset (repeatable); default: all",
    )
    p_check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    p_check.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed diagnostics in text output",
    )
    p_check.add_argument(
        "--costs",
        action="store_true",
        help="also report the static host-op cost predictions",
    )

    p_t1 = sub.add_parser("table1", help="print the Table I analogue")
    p_t1.add_argument("--json", action="store_true",
                      help="emit the table as JSON")
    return parser


_COMMANDS = {
    "isas": _cmd_isas,
    "interfaces": _cmd_interfaces,
    "run": _cmd_run,
    "disasm": _cmd_disasm,
    "kernels": _cmd_kernels,
    "lint": _cmd_lint,
    "check": _cmd_check,
    "stats": _cmd_stats,
    "profile": _cmd_profile,
    "table1": _cmd_table1,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
