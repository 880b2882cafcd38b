"""Interop throughput and oracle agreement: the bench-interop guard.

Run standalone (``python benchmarks/bench_interop.py``) to measure

* **round-trip throughput** — every built-in kernel graph serialised and
  re-parsed through the JSON netlist schema and the structural-Verilog
  subset, asserting byte-identical re-serialisation;
* **SAT oracle vs certificate recheck** — for every library-rule
  obligation, the SAT decision (:func:`check_obligation_sat`) timed
  against the weak-simulation game (:func:`find_weak_simulation`), and
  the cross-check (:func:`cross_check_obligation`) asserting the two
  never disagree definitively;
* **fuzz throughput** — a fixed-seed corpus of differential fuzz cases
  (cases/sec, failures, DF-OoO divergences),

and append an entry to ``benchmarks/BENCH_interop.json``.

``--guard`` is the CI mode: exit 1 if any round-trip breaks, any fuzz
case fails, or the SAT oracle and the game disagree on any obligation.
"""

_FUZZ_SEED = 0
_FUZZ_CASES = 25


def _kernel_graphs():
    from repro.benchmarks import BENCHMARKS, load_benchmark
    from repro.components import default_environment
    from repro.hls.frontend import compile_program

    env = default_environment()
    graphs = []
    for name in BENCHMARKS:
        for ck in compile_program(load_benchmark(name), env).kernels:
            graphs.append((ck.kernel.name, ck.graph))
    return graphs


def measure_round_trips(repeats: int = 3) -> dict:
    from time import perf_counter

    from repro.interop import dump_verilog, dumps_netlist, loads_netlist, parse_verilog

    graphs = _kernel_graphs()
    total_nodes = sum(len(g.nodes) for _, g in graphs)
    out = {"kernels": len(graphs), "total_nodes": total_nodes, "ok": True}
    for fmt, dump, load in (
        ("json", dumps_netlist, loads_netlist),
        ("verilog", dump_verilog, lambda text: parse_verilog(text)[1]),
    ):
        best = float("inf")
        ok = True
        for _ in range(repeats):
            start = perf_counter()
            for name, graph in graphs:
                text = dump(graph, name=name)
                recovered = load(text)
                ok = ok and recovered == graph and dump(recovered, name=name) == text
            best = min(best, perf_counter() - start)
        out[fmt] = {
            "seconds": round(best, 6),
            "graphs_per_second": round(len(graphs) / best, 1),
            "nodes_per_second": round(total_nodes / best, 1),
        }
        out["ok"] = out["ok"] and ok
    return out


def measure_oracle(bound: int | None = None) -> dict:
    from time import perf_counter

    from repro.core.semantics import denote
    from repro.refinement.checker import uniform_stimuli
    from repro.refinement.sat import DEFAULT_BOUND, check_refinement_sat
    from repro.refinement.simulation import find_weak_simulation
    from repro.rewriting.rules import VERIFY_FACTORY_SPECS, build_rewrite

    bound = bound or DEFAULT_BOUND
    per_rewrite = {}
    agreed = True
    for spec in VERIFY_FACTORY_SPECS:
        rewrite = build_rewrite(*spec)
        if rewrite.obligation is None:
            continue
        rows = []
        for lhs, rhs, env, stimuli in rewrite.obligation():
            impl = denote(rhs.lower(), env)
            spec_mod = denote(lhs.lower(), env.with_capacity(4))
            if stimuli is None:
                stimuli = uniform_stimuli(impl, (0, 1))

            start = perf_counter()
            game = find_weak_simulation(impl, spec_mod, stimuli)
            game_seconds = perf_counter() - start

            start = perf_counter()
            verdict = check_refinement_sat(impl, spec_mod, stimuli, bound=bound)
            sat_seconds = perf_counter() - start

            instance_agreed = (not verdict.definitive) or verdict.holds == game.holds
            agreed = agreed and instance_agreed
            rows.append(
                {
                    "holds": game.holds,
                    "sat_holds": verdict.holds,
                    "definitive": verdict.definitive,
                    "agreed": instance_agreed,
                    "pairs": verdict.pairs_explored,
                    "clauses": verdict.clauses,
                    "game_seconds": round(game_seconds, 6),
                    "sat_seconds": round(sat_seconds, 6),
                }
            )
        if rows:
            per_rewrite[rewrite.name] = rows
    instances = [row for rows in per_rewrite.values() for row in rows]
    return {
        "bound": bound,
        "obligations": len(instances),
        "agreed": agreed,
        "failing_rules": sorted(
            name
            for name, rows in per_rewrite.items()
            if any(not row["holds"] for row in rows)
        ),
        "game_seconds": round(sum(row["game_seconds"] for row in instances), 6),
        "sat_seconds": round(sum(row["sat_seconds"] for row in instances), 6),
        "per_rewrite": per_rewrite,
    }


def measure_fuzz(cases: int = _FUZZ_CASES, seed: int = _FUZZ_SEED) -> dict:
    from time import perf_counter

    from repro.interop.corpus import case_seeds, corpus_manifest, run_fuzz_case

    start = perf_counter()
    entries = [run_fuzz_case(s) for s in case_seeds(seed, cases)]
    seconds = perf_counter() - start
    manifest = corpus_manifest(entries, seed=seed)
    return {
        "seed": seed,
        "cases": cases,
        "ok": manifest["ok"],
        "failures": [f for e in entries for f in e["failures"]],
        "effectful_cases": manifest["effectful_cases"],
        "ooo_divergences": manifest["ooo_divergences"],
        "content_hash": manifest["content_hash"],
        "seconds": round(seconds, 6),
        "cases_per_second": round(cases / seconds, 2),
    }


def _append_history(entry: dict) -> None:
    import json
    from pathlib import Path

    out = Path(__file__).with_name("BENCH_interop.json")
    history = json.loads(out.read_text()) if out.exists() else []
    history.append(entry)
    out.write_text(json.dumps(history, indent=2) + "\n")
    summary = {k: v for k, v in entry.items() if k != "oracle"}
    summary["oracle"] = {
        k: v for k, v in entry["oracle"].items() if k != "per_rewrite"
    }
    print(json.dumps(summary, indent=2))


def main(argv=None) -> int:
    import argparse

    from repro._version import __version__

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--guard",
        action="store_true",
        help="exit 1 on any broken round-trip, failing fuzz case, or "
        "definitive SAT/game disagreement",
    )
    parser.add_argument("--cases", type=int, default=_FUZZ_CASES, help="fuzz cases")
    parser.add_argument("--seed", type=int, default=_FUZZ_SEED, help="corpus seed")
    parser.add_argument("--bound", type=int, default=None, help="SAT pair bound")
    parser.add_argument("--repeats", type=int, default=3, help="round-trip best-of")
    args = parser.parse_args(argv)

    round_trips = measure_round_trips(repeats=args.repeats)
    oracle = measure_oracle(bound=args.bound)
    fuzz = measure_fuzz(cases=args.cases, seed=args.seed)
    _append_history(
        {
            "tool_version": __version__,
            "round_trips": round_trips,
            "oracle": oracle,
            "fuzz": fuzz,
        }
    )

    if args.guard:
        failed = []
        if not round_trips["ok"]:
            failed.append("a kernel netlist round-trip was not byte-identical")
        if not oracle["agreed"]:
            failed.append("SAT oracle and weak-simulation game disagreed")
        if not fuzz["ok"]:
            failed.append(f"fuzz failures: {fuzz['failures']}")
        if failed:
            for reason in failed:
                print(f"FAIL: {reason}")
            return 1
        print(
            f"OK: {round_trips['kernels']} kernels round-trip both formats, "
            f"oracles agree on {oracle['obligations']} obligations "
            f"(negatives: {', '.join(oracle['failing_rules'])}), "
            f"{fuzz['cases']} fuzz cases at {fuzz['cases_per_second']:g}/s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
