"""Certified refinement checking: fresh search vs certificate recheck.

Run standalone (``python benchmarks/bench_refinement.py``) to measure, for
the bundled heavyweight rewrite obligations,

* the full weak-simulation **search** (solve the game from scratch),
* the certificate fast path — **recheck** (``check_rewrite_obligation``
  with a cache holding the stored certificate: decode the compact binary
  container, then replay its witnesses against the successor table of the
  freshly denoted modules), the
  **decode** share of it, and **fallback** (the same call on a certificate
  without witnesses, which takes the exhaustive O(relation x moves) pass),
* the **binary container** (the stored encoding) against the read-only
  JSON dump: size and encode time, plus the container's decode time, and
* the **parallel batch** through ``Session.check_obligations`` — a cold run
  that populates the certificate cache, then a warm run that rechecks,

and append an entry to ``benchmarks/BENCH_refinement.json``.

``--guard`` is the CI mode: it exits 1 unless the end-to-end recheck path
(decode + witness replay) beats a fresh search on **every** bundled obligation
by at least ``--floor`` (default 1.0x).  The search is the local game
solver, which explores little beyond the positions its chosen responses
need, so a witness-free recheck is no cheaper than a witness-free search:
the margin comes from the search paying to mint the replay witnesses.
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
    """Time search vs the phased recheck per bundled obligation instance.

    Both sides go through ``check_rewrite_obligation`` and so pay graph
    denotation; the recheck side is a cache hit, exactly as in a warm
    ``Session.check_obligations`` run, so the ratio reflects what that run
    actually saves.  ``recheck_seconds`` is the end-to-end fast path: key
    derivation, binary decode and witness-replay validation.  The search
    and the recheck are timed alternately within each repeat.
    """
    import dataclasses
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
            (key,) = cache
            (search_seconds, _), (recheck_seconds, rechecked) = _best_of(
                repeats,
                lambda: check_rewrite_obligation(lhs, rhs, env, stimuli),
                lambda: check_rewrite_obligation(lhs, rhs, env, stimuli, cache=cache),
            )
            assert rechecked.mode == "recheck"
            assert rechecked.certificate.content_hash() == certificate.content_hash()

            [(json_encode_seconds, payload)] = _best_of(repeats, certificate.to_dict)
            json_bytes = len(json.dumps(payload))
            [(binary_encode_seconds, blob)] = _best_of(
                repeats, lambda: to_bytes(certificate)
            )
            [(decode_seconds, _)] = _best_of(repeats, lambda: from_bytes(blob))

            # Damage-path cost: strip the advisory witnesses so the recheck
            # falls back to the exhaustive per-pair pass.
            bare = _MemoryCache({key: to_bytes(dataclasses.replace(certificate, witnesses=None))})
            [(fallback_seconds, fell_back)] = _best_of(
                repeats,
                lambda: check_rewrite_obligation(lhs, rhs, env, stimuli, cache=bare),
            )
            assert fell_back.mode == "recheck"

            results[f"{factory}[{index}]"] = {
                "relation_size": len(certificate.relation),
                "impl_states": certificate.impl_states,
                "spec_states": certificate.spec_states,
                "json_bytes": json_bytes,
                "binary_bytes": len(blob),
                "size_ratio": round(json_bytes / len(blob), 2),
                "json_encode_seconds": round(json_encode_seconds, 6),
                "binary_encode_seconds": round(binary_encode_seconds, 6),
                "search_seconds": round(search_seconds, 6),
                "decode_seconds": round(decode_seconds, 6),
                "fallback_seconds": round(fallback_seconds, 6),
                "recheck_seconds": round(recheck_seconds, 6),
                "speedup": round(search_seconds / recheck_seconds, 2),
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
            session = Session(jobs=jobs, cache_dir=cache_dir)
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
        help="exit 1 unless every obligation clears --floor",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=1.0,
        help="required search/recheck ratio on EVERY obligation in guard "
        "mode (default: 1.0)",
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
        failed = {
            name: row["speedup"]
            for name, row in measurements.items()
            if row["speedup"] < args.floor
        }
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
            + ", ".join(
                f"{name} {row['speedup']:g}x" for name, row in measurements.items()
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
