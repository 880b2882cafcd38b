"""Per-layer span recording for the traced pass.

The traced pass wraps each layer's public entry function in a span
recorder from outside the program: nothing under ``src/`` knows it is
being timed, and the program's own ``repro.obs`` spans are not used.

A span's *self time* is its duration minus the time covered by wrapped
spans that opened inside it, so the self times of all layers add up to
the wall time covered by any span (``covered_s``).

A name bound with ``from module import function`` escapes a wrapper that
is only set on the module attribute.  :func:`install` therefore also
rebinds every ``repro.*`` module global that refers to the original
function, and the benchmark fails the traced run when a layer that must
run on a workload reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Self time and call counts per layer, plus the layers' work counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.covered_s = 0.0
        # One entry per open span: the time covered by its child spans.
        self._open: list[float] = []

    def wrap(self, layer: str, fn, observe=None):
        """*fn* timed under *layer*; *observe* sees each call after timing."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._open.pop()
                self.self_s[layer] += elapsed - children
                self.calls[layer] += 1
                if self._open:
                    self._open[-1] += elapsed
                else:
                    self.covered_s += elapsed
            if observe is not None:
                observe(self.counts, result, args, kwargs)
            return result

        return wrapper

    def count_only(self, fn, observe):
        """*fn* untimed, with *observe* called before the call (no span)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            observe(self.counts, None, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper


# -- what each layer's counters read off its entry function ------------------


def _transform(counts, result, args, kwargs):
    counts["rewriting.steps"] += result.total_steps
    counts["rewriting.refused"] += 0 if result.transformed else 1


def _purify_rules(counts, result, args, kwargs):
    counts["rewriting.purify_oracle.rules"] += len(result[1])


def _sim_cycles(counts, result, args, kwargs):
    counts["sim.cycles"] += result.cycles


def _sim_batch_cycles(counts, result, args, kwargs):
    counts["sim.cycles"] += sum(stats.cycles for stats in result)


def _relation_size(counts, result, args, kwargs):
    if result.certificate is not None:
        counts["refinement.relation_size"] += len(result.certificate.relation)


def _recheck(counts, result, args, kwargs):
    # Anything but a successful witness replay: the exhaustive diagram
    # pass, or a refusal that sends the caller back to a full search.
    if not (result.holds and result.method == "replay"):
        counts["refinement.recheck.fallbacks"] += 1


def _clauses(counts, result, args, kwargs):
    counts["refinement.sat.clauses"] += len(result[0].clauses)


def _cache_get(counts, result, args, kwargs):
    counts["exec.cache.gets"] += 1
    counts["exec.cache.get_hits"] += result is not None


def _cache_put_json(counts, result, args, kwargs):
    cache, key = args[0], args[1]
    counts["exec.cache.bytes_written"] += cache.path_for(key).stat().st_size


def _cache_put_bytes(counts, result, args, kwargs):
    payload = args[2] if len(args) > 2 else kwargs["payload"]
    counts["exec.cache.bytes_written"] += len(payload)


def _executor_batch(counts, result, args, kwargs):
    units = args[1] if len(args) > 1 else kwargs["units"]
    counts["exec.keyed_units"] += sum(1 for unit in units if unit.cache_key is not None)


#: (layer, module, attribute path, observe): one timed wrapper each.
LAYERS = (
    ("hls.frontend", "repro.hls.frontend", "compile_program", None),
    ("hls.reference", "repro.hls.ir", "run_program", None),
    ("hls.ooo", "repro.hls.ooo", "transform_out_of_order", None),
    ("hls.buffers", "repro.hls.buffers", "place_buffers", None),
    ("hls.area", "repro.hls.area", "analyze", None),
    ("hls.static_sched", "repro.hls.static_sched", "schedule_program", None),
    ("rewriting.transform", "repro.rewriting.pipeline", "GraphitiPipeline.transform_kernel", _transform),
    ("rewriting.purify_oracle", "repro.rewriting.egraph", "simplify_with_log", _purify_rules),
    ("rewriting.apply", "repro.rewriting.engine", "RewriteEngine.apply_exhaustively", None),
    ("sim.lower", "repro.sim.compiled", "compile_circuit", None),
    ("sim.run", "repro.sim.compiled", "CompiledCircuit.run", _sim_cycles),
    ("sim.run", "repro.sim.compiled", "CompiledCircuit.run_batch", _sim_batch_cycles),
    ("refinement.search", "repro.refinement.simulation", "find_weak_simulation", _relation_size),
    ("refinement.recheck", "repro.refinement.simulation", "recheck_certificate", _recheck),
    ("refinement.sat", "repro.refinement.sat", "encode_refinement", _clauses),
    ("refinement.sat", "repro.refinement.sat", "solve", None),
    ("refinement.codec.encode", "repro.refinement.codec", "to_bytes", None),
    ("refinement.codec.decode", "repro.refinement.codec", "from_bytes", None),
    ("exec.cache.get", "repro.exec.cache", "ResultCache.get", _cache_get),
    ("exec.cache.get", "repro.exec.cache", "ResultCache.get_bytes", _cache_get),
    ("exec.cache.put", "repro.exec.cache", "ResultCache.put", _cache_put_json),
    ("exec.cache.put", "repro.exec.cache", "ResultCache.put_bytes", _cache_put_bytes),
    ("exec.keys", "repro.exec.hashing", "eval_unit_key", None),
    ("exec.keys", "repro.exec.hashing", "obligation_fingerprint", None),
    ("exec.keys", "repro.exec.hashing", "certificate_key", None),
    ("exec.keys", "repro.exec.hashing", "fuzz_case_key", None),
    ("exec.keys", "repro.exec.hashing", "sat_cross_check_key", None),
    ("exec.keys", "repro.exec.hashing", "weak_sim_key", None),
    ("interop.roundtrip", "repro.interop.netlist", "dumps_netlist", None),
    ("interop.roundtrip", "repro.interop.netlist", "loads_netlist", None),
    ("interop.roundtrip", "repro.interop.verilog", "dump_verilog", None),
    ("interop.roundtrip", "repro.interop.verilog", "parse_verilog", None),
    ("interop.generate", "repro.interop.corpus", "generate_case", None),
    ("eval.report", "repro.eval.report", "full_report", None),
)

#: (module, attribute path, observe): counted on entry, never timed.
COUNTED = (("repro.exec.executor", "Executor.run", _executor_batch),)

#: Modules that bind layer functions by name at import time; importing
#: them before patching lets :func:`install` find and rebind those names.
CALLERS = (
    "repro.api",
    "repro.eval.runner",
    "repro.exec.workers",
    "repro.interop.corpus",
    "repro.refinement",
    "repro.refinement.checker",
    "repro.refinement.loop_proof",
    "repro.refinement.sat",
    "repro.rewriting.purify",
    "repro.sim",
    "repro.sim.dispatch",
    "repro.hls",
)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def install(recorder: Recorder):
    """Patch every layer entry point to record into *recorder*; undo on exit."""
    for module in CALLERS:
        importlib.import_module(module)
    patched: list[tuple[object, str, object]] = []

    def rebind(owner, name, original, replacement):
        setattr(owner, name, replacement)
        patched.append((owner, name, original))
        if isinstance(owner, type):
            return
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is owner or not loaded_name.startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, replacement)
                    patched.append((loaded, attr, original))

    try:
        for layer, module, path, observe in LAYERS:
            owner, name = _owner(module, path)
            original = getattr(owner, name)
            rebind(owner, name, original, recorder.wrap(layer, original, observe))
        for module, path, observe in COUNTED:
            owner, name = _owner(module, path)
            original = getattr(owner, name)
            rebind(owner, name, original, recorder.count_only(original, observe))
        yield recorder
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
