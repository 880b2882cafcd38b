"""Command-line interface, the analogue of the paper's extracted tool.

Section 6.3: "As the rewriting algorithm is written in Lean 4, it can be
extracted to C, producing a command-line program that interfaces with the
Dynamatic dot graph format."  This module is that program for the Python
reproduction::

    python -m repro.cli transform circuit.dot --mux mux_a --mux mux_b \
        --branch br_a --branch br_b --init init0 --cond-fork cf0 --tags 8
    python -m repro.cli refine            # discharge every rewrite obligation, certified
    python -m repro.cli bench matvec      # one benchmark, all four flows
    python -m repro.cli sim matvec --flow DF-OoO
    python -m repro.cli report            # the full Tables 2-3 + Figure 8 run
    python -m repro.cli export matvec -o matvec.v    # netlist export (.json/.v/.dot)
    python -m repro.cli import matvec.v -o matvec.json   # parse + transcode
    python -m repro.cli fuzz --cases 25 --seed 0     # differential fuzz corpus
    python -m repro.cli sat-check         # SAT oracle vs simulation game

``transform`` reads a dot graph, runs the five-phase out-of-order pipeline
on the marked loop, and writes the rewritten dot graph (or reports the
refusal, e.g. for effectful loop bodies).  ``--check`` first discharges
the whole library's obligations as ``refine`` does, and exits 1 with no
graph if a verified rewrite fails.  A dot graph carries no function
definitions, so a kernel that reads arrays (``read.<array>``) needs
``Session.transform`` on the compiled kernel instead.

Every subcommand goes through the :class:`repro.api.Session` facade and
accepts the executor flags: ``--jobs N`` fans independent work units
(one per benchmark, rewrite obligations, fuzz cases) over a process pool;
``--cache-dir`` points the content-addressed result cache somewhere
specific; ``--no-cache`` disables it.  Output is deterministic: a parallel
or warm-cache run prints the same bytes as a cold serial one.

Two observability flags (see :mod:`repro.obs`) are accepted everywhere:
``--trace FILE`` streams every closed span tree as JSON lines to *FILE*
(one span per line: ``id``, ``parent``, ``name``, ``seconds``,
``self_seconds``, ``attrs``), and ``--profile`` prints the span tree with
cumulative/self times to stderr after the command finishes.  Spans
recorded inside pool workers are re-parented into the parent process's
tree and marked ``reparented``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path


def _session(args: argparse.Namespace):
    from .api import Session

    return Session(
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache_dir", None),
        use_cache=not getattr(args, "no_cache", False),
    )


@contextlib.contextmanager
def _observe(args: argparse.Namespace):
    """Attach the ``--trace``/``--profile`` sinks around one command."""
    from . import obs
    from .obs import InMemorySink, JsonlSink, render_tree

    tracer = obs.get_tracer()
    jsonl = None
    memory = None
    if getattr(args, "trace", None):
        jsonl = tracer.attach(JsonlSink(args.trace))
    if getattr(args, "profile", False):
        memory = tracer.attach(InMemorySink())
    try:
        yield
    finally:
        if jsonl is not None:
            tracer.detach(jsonl)
            jsonl.close()
            print(f"trace written to {args.trace}", file=sys.stderr)
        if memory is not None:
            tracer.detach(memory)
            if memory.spans:
                print(render_tree(memory.spans), file=sys.stderr)


def _cmd_transform(args: argparse.Namespace) -> int:
    from .dot import parse_dot, print_dot
    from .errors import GraphitiError
    from .hls.marks import LoopMark

    graph = parse_dot(Path(args.input).read_text())
    try:
        mark = LoopMark.from_graph(
            graph,
            kernel=args.kernel,
            mux_nodes=args.mux,
            branch_nodes=args.branch,
            init_node=args.init,
            cond_fork=args.cond_fork,
            driver=args.driver or "",
            collector=args.collector or "",
            tags=args.tags,
        )
    except GraphitiError as exc:
        print(f"invalid loop mark: {exc}", file=sys.stderr)
        return 2
    session = _session(args)
    try:
        with _observe(args):
            if args.check:  # the whole library, as ``refine`` checks it
                outcomes = session.check_obligations()
                failed = [o for o in outcomes if o["verified_flag"] and not o["holds"]]
                for o in failed:
                    print(f"error: verified rewrite {o['rewrite']} failed: {o['detail']}", file=sys.stderr)
                if failed:
                    return 1
            result = session.transform(graph=graph, mark=mark)
    except GraphitiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not result.transformed:
        print(f"refused: {result.refusal}", file=sys.stderr)
        return 2
    output = print_dot(result.graph)
    if args.output:
        Path(args.output).write_text(output)
    else:
        print(output)
    print(result.summary(), file=sys.stderr)
    print(session.metrics().summary(), file=sys.stderr)
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    from .errors import GraphitiError
    from .rewriting.rules import select_specs

    try:
        specs = select_specs(args.rule)
    except GraphitiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    session = _session(args)
    failures = 0
    with _observe(args):
        outcomes = session.check_obligations(specs)
    for outcome in outcomes:
        if outcome["holds"]:
            status = (
                f"holds [{outcome['mode']}] "
                f"({outcome['instances']} instance"
                f"{'s' if outcome['instances'] != 1 else ''})"
            )
        elif outcome["verified_flag"]:
            status = f"FAILED ({outcome['detail']})"
            failures += 1
        else:
            status = f"REFUTED ({outcome['detail']})"
        print(f"{outcome['rewrite']:20s} {status}  [{outcome['seconds']:.2f}s]")
    print(session.metrics().summary(), file=sys.stderr)
    if failures:
        print(f"{failures} verified-marked rewrites failed", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    session = _session(args)
    try:
        with _observe(args):
            result = session.bench(name=args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(f"{'flow':10s} {'cycles':>9s} {'CP(ns)':>8s} {'exec(ns)':>11s} {'LUT':>6s} {'FF':>6s} {'DSP':>4s} ok")
    for flow, fr in result.flows.items():
        print(
            f"{flow:10s} {fr.cycles:>9d} {fr.area.clock_period:>8.2f} "
            f"{fr.execution_time:>11.0f} {fr.area.luts:>6d} {fr.area.ffs:>6d} "
            f"{fr.area.dsps:>4d} {fr.correct}"
        )
    print(session.metrics().summary(), file=sys.stderr)
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    from .eval.runner import flow_graph
    from .hls.frontend import compile_program

    try:
        from .benchmarks import load_benchmark

        program = load_benchmark(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.stimuli:
        import numpy as np

        try:
            data = np.load(args.stimuli)
        except (OSError, ValueError) as exc:
            print(f"error: --stimuli file {args.stimuli}: {exc}", file=sys.stderr)
            return 2
        if not hasattr(data, "files"):
            print(
                f"error: --stimuli file {args.stimuli} is not an .npz archive",
                file=sys.stderr,
            )
            return 2
        for key in data.files:
            if key not in program.arrays:
                print(
                    f"error: --stimuli array {key!r} is not an array of "
                    f"benchmark {args.name!r} (has: {', '.join(sorted(program.arrays))})",
                    file=sys.stderr,
                )
                return 2
            try:
                program.arrays[key][...] = data[key]
            except ValueError as exc:
                print(f"error: --stimuli array {key!r}: {exc}", file=sys.stderr)
                return 2
    session = _session(args)
    ck = compile_program(program, session.env).kernels[0]
    graph, tags, outcome = flow_graph(ck, args.flow, session.env)
    if outcome is not None and not outcome.transformed:
        print(f"refused: {outcome.refusal}; simulating in-order", file=sys.stderr)
    with _observe(args):
        stats = session.simulate(
            graph_or_kernel=graph,
            kernel=ck.kernel,
            stimuli=program.arrays,
            tags=tags,
        )
    print(f"{args.name} [{args.flow}]")
    print(f"cycles            {stats.cycles}")
    print(f"tokens fired      {stats.tokens_fired}")
    print(f"results collected {stats.results_collected}")
    print(f"peak in flight    {stats.peak_in_flight}")
    hottest = sorted(
        stats.channel_peaks.items(), key=lambda item: (-item[1], str(item[0][0]))
    )[:5]
    for (src, dst), peak in hottest:
        print(f"  peak {peak:>3d}  {src} -> {dst}")
    print(session.metrics().summary(), file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .eval.paper_data import BENCHMARKS

    names = args.benchmarks or list(BENCHMARKS)
    print(f"running {', '.join(names)} (jobs={args.jobs})...", file=sys.stderr)
    session = _session(args)
    try:
        with _observe(args):
            report = session.report(names)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(report)
    print(session.metrics().summary(), file=sys.stderr)
    return 0



def _cmd_export(args: argparse.Namespace) -> int:
    from .errors import NetlistError
    from .eval.runner import flow_graph
    from .hls.frontend import compile_program

    try:
        from .benchmarks import load_benchmark

        program = load_benchmark(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    session = _session(args)
    ck = compile_program(program, session.env).kernels[0]
    graph, _, outcome = flow_graph(ck, args.flow, session.env)
    if outcome is not None and not outcome.transformed:
        print(f"refused: {outcome.refusal}; exporting in-order", file=sys.stderr)
    try:
        with _observe(args):
            fmt = session.export_graph(
                graph, args.output, fmt=args.format, name=program.name
            )
    except NetlistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{program.name} [{args.flow}] -> {args.output} "
        f"({fmt}, {len(graph.nodes)} nodes, {len(graph.connections)} connections)"
    )
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    from .errors import NetlistError

    session = _session(args)
    try:
        with _observe(args):
            graph = session.load_graph(args.input, fmt=args.format)
            graph.validate()
            if args.output:
                fmt = session.export_graph(
                    graph, args.output, fmt=args.to, name=Path(args.input).stem
                )
    except NetlistError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{args.input}: {len(graph.nodes)} nodes, "
        f"{len(graph.connections)} connections, "
        f"{len(graph.inputs)} inputs, {len(graph.outputs)} outputs"
    )
    if args.output:
        print(f"transcoded to {args.output} ({fmt})")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    session = _session(args)
    with _observe(args):
        manifest = session.fuzz(cases=args.cases, seed=args.seed)
    for entry in manifest["cases"]:
        flags = []
        if entry["effectful"]:
            flags.append("effectful")
        if entry["ooo_divergence"]:
            flags.append("ooo-divergence")
        status = "ok" if entry["ok"] else "FAILED: " + "; ".join(entry["failures"])
        print(
            f"seed {entry['seed']:>10d}  {entry['nodes']:>3d} nodes  "
            f"{status}{('  [' + ', '.join(flags) + ']') if flags else ''}"
        )
    print(
        f"{manifest['count']} cases, "
        f"{manifest['ooo_divergences']} DF-OoO divergences, "
        f"{manifest['effectful_cases']} effectful, "
        f"manifest {manifest['content_hash'][:12]}",
        file=sys.stderr,
    )
    if args.manifest:
        Path(args.manifest).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        print(f"manifest written to {args.manifest}", file=sys.stderr)
    print(session.metrics().summary(), file=sys.stderr)
    return 0 if manifest["ok"] else 1


def _cmd_sat_check(args: argparse.Namespace) -> int:
    from .errors import GraphitiError
    from .rewriting.rules import select_specs

    try:
        specs = select_specs(args.rule)
    except GraphitiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    session = _session(args)
    with _observe(args):
        outcomes = session.sat_check(specs, bound=args.bound)
    disagreements = 0
    for outcome in outcomes:
        if outcome["agreed"]:
            pairs = sum(entry["pairs"] for entry in outcome["instances"])
            verdict = "holds" if outcome["holds"] else "refuted"
            status = f"agreed ({verdict}, {pairs} pairs)"
        else:
            status = f"DISAGREEMENT ({outcome['detail']})"
            disagreements += 1
        print(f"{outcome['rewrite']:20s} {status}  [{outcome['seconds']:.2f}s]")
    print(session.metrics().summary(), file=sys.stderr)
    if disagreements:
        print(f"{disagreements} oracle disagreements", file=sys.stderr)
        return 1
    print("SAT oracle and weak-simulation game agree on every obligation")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import serve

    return serve(args)


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan independent work units over N worker processes (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "$XDG_CACHE_HOME/graphiti-repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write every span tree as JSON lines to FILE",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the span tree with self/cumulative times to stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, every subcommand and flag included."""
    from .eval.paper_data import DATAFLOW_FLOWS

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    transform = sub.add_parser("transform", help="make a dot graph's loop out-of-order")
    transform.add_argument("input", help="input dot file")
    transform.add_argument("-o", "--output", help="output dot file (default: stdout)")
    transform.add_argument("--kernel", default="loop", help="loop name for diagnostics")
    transform.add_argument("--mux", action="append", required=True, help="loop Mux node (repeat)")
    transform.add_argument("--branch", action="append", required=True, help="loop Branch node (repeat)")
    transform.add_argument("--init", required=True, help="the loop's Init node")
    transform.add_argument("--cond-fork", required=True, help="the condition fork node")
    transform.add_argument("--driver", help="driver pseudo-node, if present")
    transform.add_argument("--collector", help="collector pseudo-node, if present")
    transform.add_argument("--tags", type=int, default=4, help="tag budget")
    transform.add_argument("--check", action="store_true", help="run refine's obligation check first")
    _add_exec_flags(transform)
    transform.set_defaults(fn=_cmd_transform)

    refine = sub.add_parser(
        "refine",
        help="discharge rewrite obligations, certified by persistent "
        "simulation certificates",
    )
    refine.add_argument(
        "--rule", action="append", metavar="FACTORY",
        help="restrict to these rewrite factories (repeatable; default: all)",
    )
    _add_exec_flags(refine)
    refine.set_defaults(fn=_cmd_refine)

    bench = sub.add_parser("bench", help="run one benchmark through all four flows")
    bench.add_argument("name", help="bicg | gemm | gsum-many | gsum-single | matvec | mvt")
    _add_exec_flags(bench)
    bench.set_defaults(fn=_cmd_bench)

    sim = sub.add_parser("sim", help="cycle-simulate one benchmark kernel under one flow")
    sim.add_argument("name", help="bicg | gemm | gsum-many | gsum-single | matvec | mvt")
    sim.add_argument(
        "--flow", default="DF-OoO", choices=DATAFLOW_FLOWS,
        help="dataflow flow (default: DF-OoO)",
    )
    sim.add_argument(
        "--stimuli", default=None, metavar="FILE",
        help=".npz file whose arrays override the benchmark's input arrays",
    )
    _add_exec_flags(sim)
    sim.set_defaults(fn=_cmd_sim)

    report = sub.add_parser("report", help="regenerate Tables 2-3 and Figure 8")
    report.add_argument("benchmarks", nargs="*", help="subset of benchmarks (default: all)")
    _add_exec_flags(report)
    report.set_defaults(fn=_cmd_report)

    export = sub.add_parser(
        "export", help="export a benchmark kernel's graph as a netlist file"
    )
    export.add_argument("name", help="bicg | gemm | gsum-many | gsum-single | matvec | mvt")
    export.add_argument("-o", "--output", required=True, help="output netlist file")
    export.add_argument(
        "--format", default=None, choices=("json", "verilog", "dot"),
        help="netlist format (default: inferred from the output extension)",
    )
    export.add_argument(
        "--flow", default="DF-IO", choices=DATAFLOW_FLOWS,
        help="export the circuit of this flow (default: DF-IO)",
    )
    _add_exec_flags(export)
    export.set_defaults(fn=_cmd_export)

    import_ = sub.add_parser(
        "import", help="parse and validate a netlist file (optionally transcode)"
    )
    import_.add_argument("input", help="input netlist file (.json / .v / .dot)")
    import_.add_argument(
        "--format", default=None, choices=("json", "verilog", "dot"),
        help="input format (default: inferred from the extension)",
    )
    import_.add_argument(
        "-o", "--output", default=None, help="transcode to this file"
    )
    import_.add_argument(
        "--to", default=None, choices=("json", "verilog", "dot"),
        help="output format (default: inferred from the -o extension)",
    )
    _add_exec_flags(import_)
    import_.set_defaults(fn=_cmd_import)

    fuzz = sub.add_parser(
        "fuzz", help="run a seeded differential fuzz corpus over the whole flow"
    )
    fuzz.add_argument(
        "--cases", type=int, default=25, metavar="N",
        help="number of generated programs (default: 25)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="corpus seed; equal (seed, cases) replays identically (default: 0)",
    )
    fuzz.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="write the canonical corpus manifest JSON to FILE",
    )
    _add_exec_flags(fuzz)
    fuzz.set_defaults(fn=_cmd_fuzz)

    sat_check = sub.add_parser(
        "sat-check",
        help="cross-check rewrite obligations: SAT oracle vs simulation game",
    )
    sat_check.add_argument(
        "--rule", action="append", metavar="FACTORY",
        help="restrict to these rewrite factories (repeatable; default: all)",
    )
    sat_check.add_argument(
        "--bound", type=int, default=None, metavar="N",
        help="SAT encoder pair-exploration bound (default: 200000)",
    )
    _add_exec_flags(sat_check)
    sat_check.set_defaults(fn=_cmd_sat_check)

    serve = sub.add_parser(
        "serve", help="run the verification service (async HTTP job server)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8750,
        help="bind port; 0 picks a free one (default: 8750)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent job slots: worker threads + pooled Sessions (default: 2)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=256, metavar="N",
        help="queued-job backpressure bound (default: 256)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=600.0, metavar="SECONDS",
        help="default per-job timeout (default: 600)",
    )
    _add_exec_flags(serve)
    serve.set_defaults(fn=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print(f"error: --jobs must be >= 1 (got {args.jobs})", file=sys.stderr)
        return 2
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        print(f"error: --workers must be >= 1 (got {workers})", file=sys.stderr)
        return 2
    port = getattr(args, "port", None)
    if port is not None and not 0 <= port <= 65535:
        print(f"error: --port must be in 0..65535 (got {port})", file=sys.stderr)
        return 2
    max_pending = getattr(args, "max_pending", None)
    if max_pending is not None and max_pending < 1:
        print(f"error: --max-pending must be >= 1 (got {max_pending})", file=sys.stderr)
        return 2
    job_timeout = getattr(args, "job_timeout", None)
    if job_timeout is not None and job_timeout <= 0:
        print(f"error: --job-timeout must be > 0 (got {job_timeout})", file=sys.stderr)
        return 2
    # Expand ``~`` once, so the path checked here is the path used later
    # (a shell leaves ``--cache-dir=~/x`` unexpanded).
    for dest in ("cache_dir", "trace", "stimuli"):
        if getattr(args, dest, None) is not None:
            setattr(args, dest, str(Path(getattr(args, dest)).expanduser()))
    for dest, flag in (("cache_dir", "--cache-dir"), ("trace", "--trace")):
        path = getattr(args, dest, None)
        if path is not None and not Path(path).parent.is_dir():
            print(
                f"error: {flag} parent directory {Path(path).parent} does not exist",
                file=sys.stderr,
            )
            return 2
    stimuli = getattr(args, "stimuli", None)
    if stimuli is not None and not Path(stimuli).is_file():
        print(f"error: --stimuli file {stimuli} does not exist", file=sys.stderr)
        return 2
    cases = getattr(args, "cases", None)
    if cases is not None and cases < 1:
        print(f"error: --cases must be >= 1 (got {cases})", file=sys.stderr)
        return 2
    bound = getattr(args, "bound", None)
    if bound is not None and bound < 1:
        print(f"error: --bound must be >= 1 (got {bound})", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
