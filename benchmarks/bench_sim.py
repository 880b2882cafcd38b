"""Compiled simulation engine vs the per-component interpreter.

Run standalone (``python benchmarks/bench_sim.py``) to measure, for a
table-2-style buffer-placement sweep over several benchmark circuits,

* the **interpreted** path — one :class:`repro.sim.cycle.CycleSimulator`
  per placement, rebuilt from the graph every time (the pre-v1.5 API), and
* the **compiled** path — :func:`repro.sim.compiled.compile_circuit` lowers
  the graph once, then ``run_batch`` replays every placement through the
  same :class:`CompiledCircuit`, retargeting channel capacities in place
  (the incremental-recompile path),

and append an entry to ``benchmarks/BENCH_sim.json``.  Every run starts
from the program's pristine arrays, so both paths must report identical
``SimStats.to_dict()`` — cycles, tokens fired, ``peak_in_flight``,
per-channel peaks and the store history — on every (circuit, placement)
pair.  Each unit also records the compiled sweep's ``sim.steps`` (node-step
calls over all its placements) next to its cycles, so the history tells a
scheduling change (steps move) from a per-step cost change (only seconds
move).

``--guard --min-speedup 5`` is the CI mode: it exits 1 unless the
aggregate sweep (total interpreted seconds over total compiled seconds)
clears the given factor, or if any run's stats differ between the engines.
"""

#: (benchmark, constructor kwargs, flows swept).  In-order circuits
#: dominate interpreter wall-time, which is exactly where lowering pays
#: off most; the tagged flows keep the aligner/tagger fast paths honest.
_SWEEP = [
    ("matvec", {"n": 24}, ("DF-IO", "DF-OoO", "GRAPHITI")),
    ("gemm", {"n": 10}, ("DF-IO", "GRAPHITI")),
    ("gsum-many", {"instances": 4, "per_instance": 240}, ("DF-IO", "GRAPHITI")),
]

#: Widen every placed buffer by these amounts — one simulated run per
#: widening, mimicking the table-2 capacity-sensitivity sweep.
_WIDENINGS = (0, 1, 2, 4)


def _best_of(repeats, fn):
    from time import perf_counter

    best = float("inf")
    value = None
    for _ in range(repeats):
        start = perf_counter()
        value = fn()
        best = min(best, perf_counter() - start)
    return best, value


def _build_unit(name, kwargs, flow):
    """(program, env, kernel, graph, placements) for one sweep unit."""
    from repro.benchmarks import gemm, gsum_many, matvec
    from repro.components import default_environment
    from repro.eval.runner import flow_graph
    from repro.hls.buffers import place_buffers
    from repro.hls.frontend import compile_program

    factories = {"matvec": matvec, "gemm": gemm, "gsum-many": gsum_many}
    program = factories[name](**kwargs)
    env = default_environment()
    ck = compile_program(program, env).kernels[0]
    graph, tags, outcome = flow_graph(ck, flow, env)
    assert outcome is None or outcome.transformed, f"pipeline refused {name}"
    base = place_buffers(graph, tags).capacities
    placements = [
        {edge: cap + widen for edge, cap in base.items()} for widen in _WIDENINGS
    ]
    return program, env, ck.kernel, graph, placements


def collect_measurements(repeats: int = 1) -> dict:
    """Time the placement sweep on both engines, unit by unit.

    Each run's full ``SimStats.to_dict()`` is compared between the
    engines, so the guard (and the JSON history) shows the two agree
    bit-for-bit, not just fast.
    """
    from repro import obs
    from repro.hls.area import latency_of
    from repro.sim.compiled import BatchRun, compile_circuit
    from repro.sim.cycle import CycleSimulator

    results = {}
    for name, kwargs, flows in _SWEEP:
        for flow in flows:
            program, env, kernel, graph, placements = _build_unit(name, kwargs, flow)

            def fresh():
                return {key: array.copy() for key, array in program.arrays.items()}

            def interp_sweep():
                return [
                    CycleSimulator(
                        graph, env, kernel, fresh(),
                        capacities=caps, latency_of=latency_of,
                    ).run().to_dict()
                    for caps in placements
                ]

            def compiled_sweep():
                circuit = compile_circuit(
                    graph, env, kernel,
                    capacities=placements[0], latency_of=latency_of,
                )
                runs = [BatchRun(arrays=fresh(), capacities=caps) for caps in placements]
                with obs.scoped_tracer() as tracer:
                    dicts = [stats.to_dict() for stats in circuit.run_batch(runs)]
                return dicts, tracer.counters["sim.steps"]

            interp_seconds, interp_stats = _best_of(repeats, interp_sweep)
            compiled_seconds, (compiled_stats, steps) = _best_of(
                repeats, compiled_sweep
            )
            results[f"{name}/{flow}"] = {
                "placements": len(placements),
                "cycles": [stats["cycles"] for stats in compiled_stats],
                "steps": steps,
                "stats_match": compiled_stats == interp_stats,
                "interp_seconds": round(interp_seconds, 6),
                "compiled_seconds": round(compiled_seconds, 6),
                "speedup": round(interp_seconds / compiled_seconds, 2),
            }
    return results


def _aggregate(measurements: dict) -> dict:
    interp = sum(row["interp_seconds"] for row in measurements.values())
    compiled = sum(row["compiled_seconds"] for row in measurements.values())
    return {
        "interp_seconds": round(interp, 6),
        "compiled_seconds": round(compiled, 6),
        "speedup": round(interp / compiled, 2),
        "stats_match": all(row["stats_match"] for row in measurements.values()),
    }


def _append_history(entry: dict) -> None:
    import json
    from pathlib import Path

    out = Path(__file__).with_name("BENCH_sim.json")
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(entry)
    out.write_text(json.dumps(history, indent=2) + "\n")
    print(json.dumps(entry, indent=2))


def main(argv=None) -> int:
    import argparse

    from repro._version import __version__

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--guard",
        action="store_true",
        help="exit 1 unless the aggregate sweep speedup clears --min-speedup "
        "and every run's SimStats match between the engines",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required interp/compiled ratio in guard mode (default: 5.0)",
    )
    parser.add_argument("--repeats", type=int, default=1, help="best-of repeats")
    args = parser.parse_args(argv)

    measurements = collect_measurements(repeats=args.repeats)
    aggregate = _aggregate(measurements)
    _append_history(
        {"tool_version": __version__, "sweeps": measurements, "aggregate": aggregate}
    )

    if args.guard:
        if not aggregate["stats_match"]:
            mismatched = [
                name for name, row in measurements.items() if not row["stats_match"]
            ]
            print(f"FAIL: engines disagree on SimStats: {mismatched}")
            return 1
        if aggregate["speedup"] < args.min_speedup:
            print(
                f"FAIL: aggregate sweep speedup {aggregate['speedup']:g}x "
                f"below {args.min_speedup:g}x"
            )
            return 1
        print(
            f"OK: aggregate sweep speedup {aggregate['speedup']:g}x, "
            "SimStats identical on every placement"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
