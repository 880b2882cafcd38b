"""Certified refinement checking: cold obligation check vs warm recheck.

Run standalone (``python benchmarks/bench_refinement.py``) to measure, for
the bundled heavyweight rewrite obligations,

* the **cold** check a stored certificate replaces
  (``check_rewrite_obligation`` into an empty cache: solve the game,
  canonicalise the certificate, encode it and store it),
* the **warm** check — **recheck** (the same call with the certificate
  stored: derive the key, decode the compact binary container, then run
  the exhaustive diagram pass against the successor table of the freshly
  denoted modules) and the **decode** share of it,
* the **binary container** (the stored encoding) against the read-only
  JSON dump: size and encode time, and
* the **parallel batch** through ``Session.check_obligations`` — a cold run
  that populates the certificate cache, then a warm run that rechecks,

and append an entry to ``benchmarks/BENCH_refinement.json``.

``--guard`` is the CI mode: it exits 1 unless the warm check beats the cold
check on **every** bundled obligation, and the warm batch beats the cold
batch, by at least ``--floor`` (default 1.0x).
"""

_OBLIGATIONS = [
    ("repro.rewriting.rules.combine", "mux_combine", {}),
    ("repro.rewriting.rules.loop_rewrite", "ooo_loop", {"tags": 2}),
]


class _MemoryCache(dict):
    """The ``get_bytes``/``put_bytes`` cache shape, held in memory."""

    def get_bytes(self, key):
        return self.get(key)

    def put_bytes(self, key, payload):
        self[key] = payload


def _best_of(repeats, *fns):
    """The best time of each of *fns* over *repeats* rounds, with its value.

    Each round times the functions in turn, so a slow stretch of a shared
    core slows every side of a ratio alike instead of one side's repeats.
    """
    from time import perf_counter

    best = [float("inf")] * len(fns)
    values = [None] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = perf_counter()
            values[index] = fn()
            best[index] = min(best[index], perf_counter() - start)
    return list(zip(best, values))


def collect_measurements(repeats: int = 3) -> dict:
    """Time the cold check vs the recheck per bundled obligation instance.

    Both sides go through ``check_rewrite_obligation`` and so pay graph
    denotation and key derivation, exactly as in a ``Session.check_obligations``
    run, so the ratio reflects what a warm run actually saves.
    ``cold_seconds`` stores into an empty cache: search, canonicalise,
    encode and store.  ``recheck_seconds`` is a cache hit: decode and the
    exhaustive diagram pass.  The two are timed alternately within each
    repeat.
    """
    import json

    from repro.refinement.checker import check_rewrite_obligation
    from repro.refinement.codec import from_bytes, to_bytes
    from repro.rewriting.rules import build_rewrite

    results = {}
    for module, factory, kwargs in _OBLIGATIONS:
        rewrite = build_rewrite(module, factory, kwargs)
        for index, (lhs, rhs, env, stimuli) in enumerate(rewrite.obligation()):
            cache = _MemoryCache()
            certificate = check_rewrite_obligation(
                lhs, rhs, env, stimuli, cache=cache
            ).certificate
            (cold_seconds, searched), (recheck_seconds, rechecked) = _best_of(
                repeats,
                lambda: check_rewrite_obligation(lhs, rhs, env, stimuli, cache=_MemoryCache()),
                lambda: check_rewrite_obligation(lhs, rhs, env, stimuli, cache=cache),
            )
            assert searched.mode == "search" and rechecked.mode == "recheck"
            assert rechecked.certificate.content_hash() == certificate.content_hash()

            [(json_encode_seconds, payload)] = _best_of(repeats, certificate.to_dict)
            json_bytes = len(json.dumps(payload))
            [(binary_encode_seconds, blob)] = _best_of(
                repeats, lambda: to_bytes(certificate)
            )
            [(decode_seconds, _)] = _best_of(repeats, lambda: from_bytes(blob))

            results[f"{factory}[{index}]"] = {
                "relation_size": len(certificate.relation),
                "impl_states": certificate.impl_states,
                "spec_states": certificate.spec_states,
                "json_bytes": json_bytes,
                "binary_bytes": len(blob),
                "size_ratio": round(json_bytes / len(blob), 2),
                "json_encode_seconds": round(json_encode_seconds, 6),
                "binary_encode_seconds": round(binary_encode_seconds, 6),
                "cold_seconds": round(cold_seconds, 6),
                "decode_seconds": round(decode_seconds, 6),
                "recheck_seconds": round(recheck_seconds, 6),
                "speedup": round(cold_seconds / recheck_seconds, 2),
            }
    return results


def measure_batch(jobs: int = 2) -> dict:
    """Cold-then-warm ``Session.check_obligations`` over the executor pool."""
    import tempfile
    from time import perf_counter

    from repro.api import Session

    with tempfile.TemporaryDirectory() as cache_dir:
        timings = {}
        for phase in ("cold", "warm"):
            # Each session drains its pool on leaving the block, so the cold
            # pool's shutdown does not overlap the warm timing.
            with Session(jobs=jobs, cache_dir=cache_dir) as session:
                start = perf_counter()
                outcomes = session.check_obligations(_OBLIGATIONS)
                timings[phase] = perf_counter() - start
            assert all(outcome["holds"] for outcome in outcomes)
            timings[f"{phase}_modes"] = [outcome["mode"] for outcome in outcomes]
    return {
        "jobs": jobs,
        "obligations": [factory for _, factory, _ in _OBLIGATIONS],
        "cold_seconds": round(timings["cold"], 6),
        "warm_seconds": round(timings["warm"], 6),
        "cold_modes": timings["cold_modes"],
        "warm_modes": timings["warm_modes"],
        "speedup": round(timings["cold"] / timings["warm"], 2),
    }


def _append_history(entry: dict) -> None:
    import json
    from pathlib import Path

    out = Path(__file__).with_name("BENCH_refinement.json")
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
        help="exit 1 unless every obligation and the batch clear --floor",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=1.0,
        help="required cold/warm ratio on EVERY obligation and on the batch "
        "in guard mode (default: 1.0)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument(
        "--jobs", type=int, default=2, help="pool width for the batch measurement"
    )
    args = parser.parse_args(argv)

    measurements = collect_measurements(repeats=args.repeats)
    batch = measure_batch(jobs=args.jobs)
    _append_history(
        {"tool_version": __version__, "obligations": measurements, "batch": batch}
    )

    if args.guard:
        speedups = {name: row["speedup"] for name, row in measurements.items()}
        speedups["batch"] = batch["speedup"]
        failed = {name: got for name, got in speedups.items() if got < args.floor}
        if failed:
            print(
                "FAIL: recheck speedup below requirement on "
                + ", ".join(
                    f"{name} ({got:g}x < {args.floor:g}x)"
                    for name, got in failed.items()
                )
            )
            return 1
        print(
            "OK: recheck speedups "
            + ", ".join(f"{name} {got:g}x" for name, got in speedups.items())
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
