"""Seeded random loop-nest programs fuzzing the whole flow.

The generator draws from the program class the paper's benchmarks live in
(see :mod:`repro.hls.ir`): an inner do-while reduction over affine array
walks, optionally guarded by an if-converted :class:`Select`, optionally
*effectful* (an in-body store, the bicg situation the pipeline must
refuse), optionally with dependent outer iterations.  Every draw is a
pure function of the case seed, so a corpus is reproducible from
``(seed, count)`` alone.

:func:`run_fuzz_case` is the differential tester: one generated program is

* round-tripped through both netlist formats (JSON + structural Verilog),
  requiring byte-identical re-serialisation;
* run through DF-IO, DF-OoO, and GRAPHITI
  (:func:`repro.eval.runner.evaluate_program`, whose one compile the
  round-trips reuse), each simulation checked against the sequential
  reference interpreter — values *and* per-array store order;
* checked against the pipeline's refusal contract: the Graphiti transform
  must refuse exactly the effectful loops.

A DF-OoO ordering violation is *recorded* (``ooo_divergence``) rather
than failing the case — exhibiting that bug on generated programs is the
point of the corpus.  :func:`corpus_manifest` folds case entries into a
canonical manifest with a content hash, so equal seeds produce
byte-identical manifests (the determinism test and the cache key both
rely on this).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from ..hls.ir import (
    BinOp,
    Const,
    DoWhile,
    Expr,
    Kernel,
    Load,
    OuterLoop,
    Program,
    Select,
    StoreOp,
    UnOp,
    Var,
)

CORPUS_FORMAT = "graphiti-corpus"
CORPUS_VERSION = 1


@dataclass(frozen=True)
class CorpusCase:
    """One generated fuzz case: the program plus its expected properties."""

    seed: int
    program: Program
    effectful: bool
    sequential_outer: bool
    instances: int
    trip_count: int
    tags: int


def _float_expr(rng: random.Random, depth: int) -> Expr:
    """A random float expression over the loop's in-bounds array walks."""
    if depth <= 0:
        return rng.choice(
            (
                Load("A", Var("ai")),
                Load("x", Var("j")),
                Const(round(rng.uniform(-2.0, 2.0), 3)),
            )
        )
    op = rng.choice(("fadd", "fsub", "fmul"))
    return BinOp(op, _float_expr(rng, depth - 1), _float_expr(rng, rng.randint(0, depth - 1)))


def generate_program(seed: int) -> Program:
    """Generate one seeded loop-nest program (a pure function of *seed*)."""
    rng = random.Random(seed)
    instances = rng.randint(2, 4)
    trip = rng.randint(2, 6)
    effectful = rng.random() < 0.25
    sequential = not effectful and rng.random() < 0.15
    tags = rng.randint(2, 8)

    update = _float_expr(rng, rng.randint(1, 2))
    if rng.random() < 0.3:
        guard = UnOp("not", BinOp("lt", Load("x", Var("j")), Const(0.0)))
        update = Select(guard, update, Const(0.0))
    body = {
        "acc": BinOp(rng.choice(("fadd", "fsub")), Var("acc"), update),
        "j": BinOp("add", Var("j"), Const(1)),
        "ai": BinOp("add", Var("ai"), Const(1)),
        "i": Var("i"),
    }
    stores: tuple[StoreOp, ...] = ()
    if effectful:
        # s[i*trip + (j-1)] += acc on the *new* state (j ∈ 1..trip), the
        # bicg shape.  The slot is instance-private: consecutive in-order
        # instances legitimately pipeline, and the circuit model has no
        # load-store queue to order cross-instance accesses to shared
        # cells — but DF-OoO still reorders the *per-array* write sequence,
        # which is exactly the divergence the corpus exists to exhibit.
        slot = BinOp(
            "add", BinOp("mul", Var("i"), Const(trip)), BinOp("sub", Var("j"), Const(1))
        )
        stores = (StoreOp("s", slot, BinOp("fadd", Load("s", slot), Var("acc"))),)
    loop = DoWhile(
        name=f"fuzz{seed}_loop",
        state=("acc", "j", "ai", "i"),
        body=body,
        condition=BinOp("lt", Var("j"), Const(trip)),
        result_vars=("acc", "i"),
        stores=stores,
    )
    kernel = Kernel(
        name=f"fuzz{seed}",
        loop=loop,
        outer=(OuterLoop("i", instances),),
        init={
            "acc": Const(0.0),
            "j": Const(0),
            "ai": BinOp("mul", Var("i"), Const(trip)),
            "i": Var("i"),
        },
        epilogue=(StoreOp("y", Var("i"), Var("acc")),),
        tags=tags,
        sequential_outer=sequential,
    )
    data = np.random.default_rng(seed)
    arrays = {
        "A": data.standard_normal(instances * trip).astype(np.float64),
        "x": data.standard_normal(trip).astype(np.float64),
        "s": np.zeros(instances * trip, dtype=np.float64),
        "y": np.zeros(instances, dtype=np.float64),
    }
    return Program(f"fuzz-{seed}", arrays, [kernel])


def generate_case(seed: int) -> CorpusCase:
    """Generate a program together with its recorded draw properties."""
    program = generate_program(seed)
    kernel = program.kernels[0]
    return CorpusCase(
        seed=seed,
        program=program,
        effectful=kernel.loop.is_effectful(),
        sequential_outer=kernel.sequential_outer,
        instances=kernel.outer[0].count,
        trip_count=_const_bound(kernel.loop.condition),
        tags=kernel.tags,
    )


def _const_bound(condition: Expr) -> int:
    if isinstance(condition, BinOp) and isinstance(condition.right, Const):
        return int(condition.right.value)
    return -1


def case_seeds(seed: int, count: int) -> list[int]:
    """The per-case seeds of corpus ``(seed, count)`` — a deterministic
    stream, so extending a corpus keeps its prefix of cases."""
    stream = random.Random(seed)
    return [stream.randrange(2**32) for _ in range(count)]


def run_fuzz_case(seed: int) -> dict:
    """Run one differential fuzz case; returns a manifest entry dict."""
    from ..eval.runner import DATAFLOW_FLOWS, evaluate_program
    from .netlist import dumps_netlist, loads_netlist
    from .verilog import dump_verilog, parse_verilog

    case = generate_case(seed)
    program = case.program
    failures: list[str] = []

    # Vericert is the reference interpreter's twin and adds nothing here.
    result, compiled = evaluate_program(program, DATAFLOW_FLOWS)
    round_trip = {"json": True, "verilog": True}
    for ck in compiled.kernels:
        text = dumps_netlist(ck.graph, name=ck.kernel.name)
        recovered = loads_netlist(text)
        if recovered != ck.graph or dumps_netlist(recovered, name=ck.kernel.name) != text:
            round_trip["json"] = False
            failures.append(f"JSON netlist round-trip broke on {ck.kernel.name}")
        vtext = dump_verilog(ck.graph, name=ck.kernel.name)
        vname, vgraph = parse_verilog(vtext)
        if vgraph != ck.graph or dump_verilog(vgraph, name=vname) != vtext:
            round_trip["verilog"] = False
            failures.append(f"Verilog round-trip broke on {ck.kernel.name}")

    flows = {
        flow: {
            "cycles": int(run.cycles),
            "correct": bool(run.correct),
            "stores_in_order": bool(run.stores_in_order),
            "refused_loops": int(run.refused_loops),
        }
        for flow, run in result.flows.items()
    }

    if not flows["DF-IO"]["correct"] or not flows["DF-IO"]["stores_in_order"]:
        failures.append("DF-IO diverged from the sequential reference")
    graphiti = flows["GRAPHITI"]
    if not graphiti["correct"] or not graphiti["stores_in_order"]:
        failures.append("GRAPHITI diverged from the sequential reference")
    expected_refusals = 1 if case.effectful else 0
    if graphiti["refused_loops"] != expected_refusals:
        failures.append(
            f"pipeline refused {graphiti['refused_loops']} loops, "
            f"expected {expected_refusals} (effectful={case.effectful})"
        )
    ooo = flows["DF-OoO"]
    ooo_divergence = not (ooo["correct"] and ooo["stores_in_order"])
    if ooo_divergence and not case.effectful:
        failures.append("DF-OoO diverged on a store-free loop")

    return {
        "seed": int(seed),
        "name": program.name,
        "nodes": compiled.total_nodes(),
        "effectful": case.effectful,
        "sequential_outer": case.sequential_outer,
        "instances": case.instances,
        "trip_count": case.trip_count,
        "tags": case.tags,
        "round_trip": round_trip,
        "flows": flows,
        "ooo_divergence": ooo_divergence,
        "ok": not failures,
        "failures": failures,
    }


def corpus_manifest(entries: list[dict], *, seed: int) -> dict:
    """Fold case entries into the canonical corpus manifest.

    The manifest is a pure function of ``(seed, count)`` plus the
    tool version: equal inputs serialise byte-identically
    (``json.dumps(manifest, indent=2, sort_keys=True)``).
    """
    from ..exec.hashing import fingerprint

    entries = list(entries)
    content_hash = fingerprint(
        "corpus", *[json.dumps(entry, sort_keys=True) for entry in entries]
    )
    return {
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "seed": int(seed),
        "count": len(entries),
        "ok": all(entry["ok"] for entry in entries),
        "ooo_divergences": sum(1 for entry in entries if entry["ooo_divergence"]),
        "effectful_cases": sum(1 for entry in entries if entry["effectful"]),
        "content_hash": content_hash,
        "cases": entries,
    }
