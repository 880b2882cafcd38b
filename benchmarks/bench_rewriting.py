"""Section 6.3 analogue: rewriting statistics and engine throughput.

Run with:  pytest benchmarks/bench_rewriting.py --benchmark-only -s

Run standalone (``python benchmarks/bench_rewriting.py``) to microbenchmark
the matcher and the rewrite fixpoint on the largest benchmark graphs and
append an entry to ``benchmarks/BENCH_rewriting.json``.
"""

import pytest

from repro.benchmarks import load_benchmark
from repro.components import default_environment
from repro.eval.devstats import measure, report
from repro.eval.paper_data import BENCHMARKS, PAPER_DEV_STATS
from repro.hls.frontend import compile_program
from repro.rewriting.pipeline import GraphitiPipeline


def test_print_dev_stats(once):
    print()
    print(report())
    print()
    print("paper reference: matvec 90 nodes / 1650 rewrites / 9.76 s;")
    print("                 gemm  180 nodes / 4416 rewrites / 81.49 s")
    print("(steps count named rewrites + purifier compositions + the")
    print(" e-graph oracle's replayable rule applications; magnitudes and")
    print(" the node-count scaling match the paper's)")


def test_rewriting_work_scales_with_nodes(once):
    """The gemm/matvec relationship of section 6.3: more nodes, more work."""
    stats = {name: measure(name) for name in ("matvec", "gemm", "mvt")}
    assert stats["gemm"].nodes > stats["matvec"].nodes
    assert stats["gemm"].total_steps >= stats["matvec"].total_steps
    assert stats["mvt"].total_steps > stats["matvec"].total_steps  # two loops


def test_bicg_counts_a_refusal(once):
    stats = measure("bicg")
    assert stats.refused_loops == 1
    assert stats.transformed_loops == 0


@pytest.mark.benchmark(group="verification")
def test_benchmark_verify_all_rewrites(benchmark):
    """Time the full verification pass: every obligation ``repro refine``
    discharges, including the theorem 5.3 instance (the 'one person-year
    of Lean' counterpart runs in seconds here, on bounded instances)."""
    from repro.api import Session

    def verify():
        return Session(use_cache=False).check_obligations()

    outcomes = benchmark.pedantic(verify, rounds=1, iterations=1)
    assert sum(o["holds"] for o in outcomes) == 17
    refuted = [o for o in outcomes if not o["holds"]]
    assert len(refuted) == 2
    assert not any(o["verified_flag"] for o in refuted)  # only the documented two refute


@pytest.mark.benchmark(group="rewriting")
@pytest.mark.parametrize("name", ["matvec", "gemm"])
def test_benchmark_pipeline_runtime(benchmark, name):
    """Time the rewriting pipeline itself (the 9.76s/81.49s analogue)."""
    program = load_benchmark(name)
    env = default_environment()
    compiled = compile_program(program, env)

    def run():
        outcomes = []
        for ck in compiled.kernels:
            pipeline = GraphitiPipeline(env)
            outcomes.append(pipeline.transform_kernel(ck.graph, ck.mark))
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(outcome.transformed for outcome in outcomes)


# -- standalone microbenchmark: matcher + fixpoint on the largest graphs ----

_LARGEST = ("gemm", "mvt")  # most nodes / most loops among the paper set


def _phase_rules():
    from repro.rewriting.rules import combine, reduction

    return [
        combine.mux_combine(),
        combine.branch_combine(),
        reduction.split_join_elim(),
        reduction.fork_sink_elim(),
        reduction.pure_id_elim(),
    ]


def _best_of(repeats, fn):
    from time import perf_counter

    best = float("inf")
    value = None
    for _ in range(repeats):
        start = perf_counter()
        value = fn()
        best = min(best, perf_counter() - start)
    return best, value


def collect_measurements(repeats: int = 5) -> dict:
    """Time match enumeration and the rewrite fixpoint per large benchmark."""
    from repro import obs
    from repro.rewriting.engine import RewriteEngine
    from repro.rewriting.matcher import find_matches

    env = default_environment()
    results = {}
    for name in _LARGEST:
        compiled = compile_program(load_benchmark(name), env)
        graph = compiled.kernels[0].graph
        rules = _phase_rules()

        def enumerate_all():
            return sum(1 for rule in rules for _ in find_matches(graph, rule))

        match_seconds, match_count = _best_of(repeats, enumerate_all)

        def fixpoint():
            """The fixpoint's ``rewriting.*`` counters, from a private tracer."""
            with obs.scoped_tracer() as tracer:
                RewriteEngine().apply_exhaustively(graph.copy(), rules)
            return tracer.counters

        fixpoint_seconds, counters = _best_of(repeats, fixpoint)
        results[name] = {
            "nodes": len(graph.nodes),
            "edges": len(graph.connections),
            "match_enumeration_seconds": round(match_seconds, 6),
            "matches_enumerated": match_count,
            "fixpoint_seconds": round(fixpoint_seconds, 6),
            "rewrites_applied": counters.get("rewriting.applied", 0),
            "matches_tried": counters.get("rewriting.matches_tried", 0),
        }
    return results


#: Shortest time the overhead guard spends on one configuration per sample.
#: One fixpoint pass over the largest graphs takes a few tens of
#: milliseconds, short enough that timer and scheduler noise swamp a 5%
#: budget; a sample repeats the pass until it lasts at least this long.
_MIN_SAMPLE_SECONDS = 0.1


def measure_overhead(repeats: int = 5) -> dict:
    """Cost of the observability instrumentation on the rewrite fixpoint.

    Three configurations of the same workload (the rewrite fixpoint on the
    largest graphs, repeated within a sample until each configuration's
    share of it lasts at least ``_MIN_SAMPLE_SECONDS``), interleaved
    round-robin within each sample:

    * ``stubbed`` — ``obs.span``/``count`` replaced by no-ops,
      approximating the pre-instrumentation engine (the engine's
      ``rewriting.*`` counting goes too);
    * ``nosink`` — the shipped default: real obs calls, no sink attached,
      so every span is the shared no-op span;
    * ``sink`` — an ``InMemorySink`` attached, full span trees recorded.

    The contract (and the CI guard) is on ``nosink_overhead``: tracing that
    nobody turned on must stay within a few percent of the stubbed run.
    Each overhead is the median over samples of that sample's paired ratio
    (``nosink / stubbed - 1``, likewise for ``sink``).  The configurations
    of one sample share a stretch of machine speed, so the ratio cancels
    drift between samples that a per-configuration best-of would not.
    The ``*_seconds`` fields are per-pass medians, for reference only.
    """
    import math
    import statistics
    from time import perf_counter

    from repro import obs
    from repro.obs.core import _NOOP_SPAN
    from repro.rewriting.engine import RewriteEngine

    env = default_environment()
    workload = []
    for name in _LARGEST:
        compiled = compile_program(load_benchmark(name), env)
        workload.append((compiled.kernels[0].graph, _phase_rules()))

    def one_pass() -> None:
        engine = RewriteEngine()
        for graph, rules in workload:
            engine.apply_exhaustively(graph.copy(), rules)

    def timed(fn) -> float:
        start = perf_counter()
        fn()
        return perf_counter() - start

    def run_stubbed() -> float:
        originals = (obs.span, obs.count)
        obs.span = lambda name, **attrs: _NOOP_SPAN
        obs.count = lambda name, n=1: None
        try:
            return timed(one_pass)
        finally:
            obs.span, obs.count = originals

    def run_with_sink() -> float:
        tracer = obs.Tracer()
        tracer.attach(obs.InMemorySink())
        with obs.scoped_tracer(tracer):
            return timed(one_pass)

    one_pass()  # warm caches (match plans, imports) outside the timings
    passes = max(1, math.ceil(_MIN_SAMPLE_SECONDS / timed(one_pass)))

    # The configurations alternate pass by pass inside a sample, so all
    # three see the same stretch of machine speed, and their order rotates
    # so none always runs right after another.
    runs = {"stubbed": run_stubbed, "nosink": lambda: timed(one_pass), "sink": run_with_sink}
    order = list(runs)
    samples = []
    for _ in range(repeats):
        sample = dict.fromkeys(runs, 0.0)
        for _ in range(passes):
            for config in order:
                sample[config] += runs[config]()
            order.append(order.pop(0))
        samples.append(sample)

    def seconds(config: str) -> float:
        return round(statistics.median(s[config] for s in samples) / passes, 6)

    def overhead(config: str) -> float:
        ratio = statistics.median(s[config] / s["stubbed"] for s in samples)
        return round(ratio - 1.0, 4)

    return {
        "workload": list(_LARGEST),
        "repeats": repeats,
        "passes_per_sample": passes,
        "stubbed_seconds": seconds("stubbed"),
        "nosink_seconds": seconds("nosink"),
        "sink_seconds": seconds("sink"),
        "nosink_overhead": overhead("nosink"),
        "sink_overhead": overhead("sink"),
    }


def _append_history(entry: dict) -> None:
    import json
    from pathlib import Path

    out = Path(__file__).with_name("BENCH_rewriting.json")
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(entry)
    out.write_text(json.dumps(history, indent=2) + "\n")
    print(json.dumps(entry, indent=2))


def main(argv=None) -> int:
    import argparse

    from repro._version import __version__

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--overhead-guard",
        action="store_true",
        help="measure observability overhead instead of the microbenchmarks; "
        "exit 1 when the no-sink overhead exceeds the threshold",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="best-of repeats (microbenchmarks) or paired samples (--overhead-guard)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="maximum tolerated no-sink overhead fraction (default: 0.05)",
    )
    args = parser.parse_args(argv)

    if args.overhead_guard:
        overhead = measure_overhead(repeats=args.repeats)
        _append_history({"tool_version": __version__, "overhead": overhead})
        if overhead["nosink_overhead"] > args.threshold:
            print(
                f"FAIL: no-sink observability overhead {overhead['nosink_overhead']:.1%} "
                f"exceeds the {args.threshold:.0%} budget"
            )
            return 1
        print(
            f"OK: no-sink overhead {overhead['nosink_overhead']:.1%} "
            f"(sink attached: {overhead['sink_overhead']:.1%})"
        )
        return 0

    _append_history(
        {"tool_version": __version__, "benchmarks": collect_measurements(repeats=args.repeats)}
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
