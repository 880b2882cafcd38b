"""The public facade: one Session owning environment, executor and cache.

Everything the scattered entry points did — ``GraphitiPipeline`` for
transforms, per-flow evaluation loops, the hand-rolled loops in
``cli.py`` — is reachable through one object, which is also the one
driver of rewrite obligations (:meth:`Session.check_obligations`)::

    from repro import Session

    session = Session(jobs=4)                 # parallel, cached
    session.transform(graph=g, mark=m)        # the five-phase OoO pipeline
    session.check_obligations()               # discharge every obligation, certified
    session.bench(name="matvec")              # one benchmark, four flows
    session.simulate(graph_or_kernel=ck, stimuli=arrays)  # one kernel, one stimulus
    print(session.report())                   # Tables 2-3 + Figure 8
    print(session.metrics().summary())        # one unified MetricsSnapshot

A Session owns:

* the component :class:`~repro.core.environment.Environment` (built once,
  shared by every transform);
* the result cache — content-addressed, on disk, keyed by graph/environment/
  stimuli/tool-version fingerprints (see :mod:`repro.exec.hashing`), so a
  warm rerun recomputes nothing;
* the :class:`~repro.exec.executor.Executor` that fans independent work
  units — one benchmark's four flows, obligation discharges, SAT
  cross-checks, fuzz cases — over a process pool, with deterministic
  result ordering (output is byte-identical to a serial run) and serial
  fallback on worker failure;
* a :class:`~repro.obs.Tracer` of its own, the one accumulator of the
  work the session did: executor, cache, rewriting, simulation and
  refinement counters, pool workers' included.
  :meth:`Session.metrics` returns them as a
  :class:`~repro.obs.MetricsSnapshot`.

Every public method runs under the session's counters
(:func:`repro.obs.counting_scope`) and a :mod:`repro.obs` span
(``transform``, ``check-obligations``, ``bench``, ``report``, …).  Spans
and sinks stay those of the enclosing tracer, so attaching a sink — or
passing ``--trace``/``--profile`` on the CLI — captures the whole
hierarchy down to per-rewrite matching and pool-worker subtrees, and the
enclosing tracer's counters still add up the work of every session.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from . import obs
from .components import default_environment
from .core.environment import Environment
from .core.exprhigh import ExprHigh
from .errors import GraphitiError
from .exec.cache import NullCache, ResultCache, default_cache_dir
from .exec.executor import Executor, WorkUnit
from .exec.hashing import eval_unit_key
from .obs import MetricsSnapshot
from .rewriting.rules import VERIFY_FACTORY_SPECS, build_rewrite

if TYPE_CHECKING:
    from .rewriting.pipeline import TransformResult


class Session:
    """The façade over transformation, verification and evaluation.

    Parameters
    ----------
    env:
        Component environment; defaults to :func:`default_environment`.
    jobs:
        Process-pool width for independent work units; ``1`` runs serially.
    cache_dir:
        Result-cache directory; defaults to
        :func:`repro.exec.cache.default_cache_dir`.
    use_cache:
        ``False`` disables the on-disk cache entirely (the ``--no-cache``
        CLI flag).
    """

    def __init__(
        self,
        env: Environment | None = None,
        *,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
    ):
        self.env = env if env is not None else default_environment()
        if use_cache:
            self.cache = ResultCache(Path(cache_dir) if cache_dir else default_cache_dir())
        else:
            self.cache = NullCache()
        self.executor = Executor(jobs=jobs, cache=self.cache)
        self._tracer = obs.Tracer()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; a closed session refuses work."""
        return self._closed

    def close(self) -> None:
        """Release the session's resources: drain the executor worker pool.

        Idempotent.  After closing, every work-dispatching method raises,
        so a pool manager (the verification service owns one ``Session``
        per concurrent worker slot) can prove no stray work unit outlives
        the session.  ``Session`` is also a context manager::

            with Session(jobs=4) as session:
                session.bench(name="matvec")
            # pool drained here
        """
        self._closed = True
        self.executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @contextmanager
    def _call(self, method: str, span: str, **attrs) -> Iterator:
        """Run a public method: refuse when closed, count into the
        session's tracer, and open the method's root span."""
        if self._closed:
            raise GraphitiError(
                f"Session.{method}() called on a closed session "
                "(close() already drained the executor pool)"
            )
        with obs.counting_scope(self._tracer), obs.span(span, **attrs) as sp:
            yield sp

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> MetricsSnapshot:
        """The work this session did, as one :class:`MetricsSnapshot`.

        Its single source is the session's own counters: another session's
        work never shows here, and pool workers' counters are included.
        (Until v1.5 this was a property returning an attribute-compatible
        facade; the attribute forms — ``session.metrics.executed`` … — are
        gone.)
        """
        return MetricsSnapshot(counters=dict(self._tracer.counters))

    # -- transformation ------------------------------------------------------

    def transform(
        self,
        *,
        graph: ExprHigh | None = None,
        mark=None,
    ) -> TransformResult:
        """Transform a marked loop with the five-phase out-of-order pipeline.

        All arguments are keyword-only (since v1.7; positional calls,
        deprecated in v1.7, are a ``TypeError`` since v1.13).
        """
        from .rewriting.pipeline import GraphitiPipeline

        if graph is None or mark is None:
            raise TypeError("Session.transform() requires graph= and mark=")
        pipeline = GraphitiPipeline(self.env)
        with self._call("transform", "transform", kernel=getattr(mark, "kernel", "?")):
            return pipeline.transform_kernel(graph, mark)

    # -- verification --------------------------------------------------------

    def check_obligations(
        self,
        specs: Sequence[tuple[str, str, dict]] | None = None,
    ) -> list[dict]:
        """Discharge rewrite obligations, certified through the cache.

        Independent obligations fan out over the executor pool.  Each
        obligation persists its :class:`~repro.refinement.simulation.\
SimulationCertificate` in the content-addressed result cache (compact
        binary encoding), and a warm run *re-validates* the stored
        relation — by witness replay when witnesses are present, else the
        exhaustive diagram pass — rather than re-solving the simulation
        game (see :func:`repro.refinement.recheck_certificate`).
        Re-validation is a real check: a stale or tampered certificate
        falls back to a full search, never to a trusted verdict.

        Returns one dict per spec, in spec order: ``rewrite``, ``holds``,
        ``verified_flag``, ``mode`` (``"search"`` / ``"recheck"`` /
        ``"search-fallback"`` / ``"mixed"``),
        ``instances``, ``certificate_hashes``, ``detail`` and ``seconds``.
        """
        specs = list(specs if specs is not None else VERIFY_FACTORY_SPECS)
        cache_dir = str(self.cache.root) if isinstance(self.cache, ResultCache) else None
        units = [
            WorkUnit(
                uid=f"obligation:{factory}",
                fn="repro.exec.workers:check_obligation_certified",
                payload={
                    "module": module,
                    "factory": factory,
                    "kwargs": kwargs,
                    "cache_dir": cache_dir,
                },
            )
            for module, factory, kwargs in specs
        ]
        with self._call("check_obligations", "check-obligations", obligations=len(units)):
            return self.executor.run(units)

    def sat_check(
        self,
        specs: Sequence[tuple[str, str, dict]] | None = None,
        *,
        bound: int | None = None,
    ) -> list[dict]:
        """Cross-check rewrite obligations: SAT oracle vs simulation game.

        Every obligation instance is decided twice — by the
        weak-simulation game solver and by the independent dual-Horn CNF
        encoding plus propagation solver (:mod:`repro.refinement.sat`) —
        and the verdicts compared.  Returns one dict per spec, in spec order: ``rewrite``,
        ``agreed``, ``holds`` (the game verdict), per-instance SAT
        statistics and ``detail`` (the disagreement message, when the two
        oracles definitively contradict).  *bound* caps the SAT encoder's
        pair exploration; verdicts truncated by the bound are indefinite
        and never count as disagreement.
        """
        from .exec.hashing import sat_cross_check_key
        from .refinement.sat import DEFAULT_BOUND

        specs = list(specs if specs is not None else VERIFY_FACTORY_SPECS)
        bound = DEFAULT_BOUND if bound is None else int(bound)
        units = []
        for module, factory, kwargs in specs:
            rewrite = build_rewrite(module, factory, kwargs)
            key = None
            if rewrite.obligation is not None:
                key = sat_cross_check_key(
                    rewrite.name, list(rewrite.obligation()), bound
                )
            units.append(
                WorkUnit(
                    uid=f"sat-check:{rewrite.name}",
                    fn="repro.exec.workers:cross_check_rewrite",
                    payload={
                        "module": module,
                        "factory": factory,
                        "kwargs": kwargs,
                        "bound": bound,
                    },
                    cache_key=key,
                )
            )
        with self._call("sat_check", "sat-check", obligations=len(units), bound=bound):
            return self.executor.run(units)

    # -- netlist interop -----------------------------------------------------

    def load_graph(self, path: str | Path, fmt: str | None = None) -> ExprHigh:
        """Import a dataflow graph from a netlist file.

        The format — ``"json"`` (the ``graphiti-netlist`` schema),
        ``"verilog"`` (the structural subset) or ``"dot"`` — is inferred
        from the file extension unless *fmt* is given.  See
        :mod:`repro.interop` and ``docs/interop.md``.
        """
        from .interop import infer_format, load_graph

        fmt = fmt or infer_format(path)
        with self._call("load_graph", "interop:load", path=str(path), format=fmt):
            graph = load_graph(path, fmt=fmt)
            obs.count("interop.imports")
            return graph

    def export_graph(
        self,
        graph: ExprHigh,
        path: str | Path,
        fmt: str | None = None,
        name: str = "graph",
    ) -> str:
        """Export a dataflow graph to a netlist file; returns the format used.

        Serialisation is canonical: equal graphs produce byte-identical
        files, and both the JSON netlist and the structural-Verilog writer
        round-trip through :meth:`load_graph` with ``import(export(g)) ==
        g``.
        """
        from .interop import save_graph

        with self._call("export_graph", "interop:export", path=str(path)):
            fmt = save_graph(graph, path, fmt=fmt, name=name)
            obs.count("interop.exports")
            return fmt

    def fuzz(
        self,
        *,
        cases: int = 25,
        seed: int = 0,
    ) -> dict:
        """Run a seeded differential fuzz corpus over the whole flow.

        Generates *cases* random loop-nest programs
        (:mod:`repro.interop.corpus`), and runs each through the full
        differential check: byte-identical netlist round-trips, the
        DF-IO / DF-OoO / GRAPHITI flows against the sequential reference,
        and the pipeline's effectful-loop refusal contract.  Cases fan out
        over the executor pool and cache individually (a case is a pure
        function of its seed and the tool version), so a warm rerun
        replays the corpus from the result cache.

        Returns the corpus manifest — a canonical dict whose serialisation
        is byte-identical for equal ``(seed, cases)``; see
        :func:`repro.interop.corpus.corpus_manifest`.
        """
        from .exec.hashing import fuzz_case_key
        from .interop.corpus import case_seeds, corpus_manifest

        if cases < 1:
            raise ValueError(f"fuzz() needs at least one case, got {cases}")
        seeds = case_seeds(seed, cases)
        units = [
            WorkUnit(
                uid=f"fuzz:{case_seed}",
                fn="repro.exec.workers:run_fuzz_case",
                payload={"seed": case_seed},
                cache_key=fuzz_case_key(case_seed),
            )
            for case_seed in seeds
        ]
        with self._call("fuzz", "fuzz", cases=cases, seed=seed) as sp:
            entries = self.executor.run(units)
            manifest = corpus_manifest(entries, seed=seed)
            sp.set(ok=manifest["ok"], divergences=manifest["ooo_divergences"])
        return manifest

    # -- evaluation ----------------------------------------------------------

    def simulate(
        self,
        *,
        graph_or_kernel=None,
        stimuli=None,
        kernel=None,
        tags: int | None = None,
    ):
        """Cycle-simulate a circuit on the compiled engine.

        All arguments are keyword-only (since v1.7; positional calls,
        deprecated in v1.7, are a ``TypeError`` since v1.13).

        Parameters
        ----------
        graph_or_kernel:
            Either a :class:`~repro.hls.frontend.CompiledKernel` (carries
            its own mini-IR kernel) or a bare
            :class:`~repro.core.exprhigh.ExprHigh` graph, in which case
            *kernel* must supply the matching
            :class:`~repro.hls.ir.Kernel`.
        stimuli:
            One arrays dict — returns a single
            :class:`~repro.sim.cycle.SimStats` — or a sequence of
            stimuli (arrays dicts, or :class:`~repro.sim.compiled.BatchRun`
            configs / equivalent mappings with per-run ``capacities``) —
            returns a list of stats, one per stimulus.  The graph is
            lowered once (:func:`repro.sim.compiled.compile_circuit`) and
            reused across the batch.
        tags:
            Widens tagged-region channels when deriving the default buffer
            placement, :func:`repro.hls.buffers.place_buffers` on the graph
            (pass the transform's tag budget).  A run that carries its own
            ``capacities`` uses those instead.
        """
        from dataclasses import replace

        from .hls.area import latency_of
        from .hls.buffers import place_buffers
        from .sim.compiled import BatchRun, compile_circuit

        if graph_or_kernel is None:
            raise TypeError("Session.simulate() requires graph_or_kernel=")
        if stimuli is None:
            raise TypeError("Session.simulate() requires stimuli=")
        graph = getattr(graph_or_kernel, "graph", graph_or_kernel)
        kernel = kernel if kernel is not None else getattr(graph_or_kernel, "kernel", None)
        if kernel is None:
            raise ValueError(
                "simulate() needs the mini-IR kernel: pass a CompiledKernel "
                "or supply kernel= alongside the graph"
            )
        capacities = place_buffers(graph, tags).capacities

        single = isinstance(stimuli, Mapping)
        runs: list[BatchRun] = []
        for entry in [stimuli] if single else list(stimuli):
            if isinstance(entry, BatchRun):
                run = entry
            elif isinstance(entry, Mapping) and "arrays" in entry:
                run = BatchRun(**entry)
            else:
                run = BatchRun(arrays=entry)
            if run.capacities is None:
                run = replace(run, capacities=capacities)
            runs.append(run)

        with self._call("simulate", "simulate", kernel=kernel.name, runs=len(runs)):
            circuit = compile_circuit(
                graph, self.env, kernel,
                capacities=capacities, latency_of=latency_of,
            )
            results = circuit.run_batch(runs)
        return results[0] if single else results

    def bench(
        self,
        *,
        name: str | None = None,
        program=None,
    ) -> "BenchmarkResult":
        """Run one benchmark through all four flows.

        All arguments are keyword-only (since v1.7; positional calls,
        deprecated in v1.7, are a ``TypeError`` since v1.13).
        """
        if name is None:
            raise TypeError("Session.bench() requires name=")
        return self.bench_many(
            [name],
            {name: program} if program is not None else None,
        )[name]

    def bench_many(
        self,
        names: Iterable[str],
        programs: Mapping[str, object] | None = None,
    ) -> dict[str, "BenchmarkResult"]:
        """Run each benchmark through all four flows, one work unit per
        benchmark: one compile and one reference run serve every flow
        (:func:`repro.eval.runner.evaluate_program`)."""
        from .eval.runner import BenchmarkResult
        from .hls.frontend import compile_program

        names = list(names)
        with self._call("bench_many", "bench", benchmarks=len(names)):
            units = []
            for name in names:
                program = (programs or {}).get(name)
                if program is None:
                    from .benchmarks import load_benchmark

                    program = load_benchmark(name)
                # Compile once per benchmark, in-process, purely to derive the
                # content-addressed key; the unit recompiles deterministically.
                key_env = default_environment()
                compiled = compile_program(program, key_env)
                units.append(
                    WorkUnit(
                        uid=f"bench:{name}",
                        fn="repro.exec.workers:eval_benchmark",
                        payload={"name": name, "program": program},
                        cache_key=eval_unit_key(program, compiled, key_env),
                    )
                )
            raw = self.executor.run(units)
            # The cache key covers the program, not the name it is benched
            # under, so label each result with the caller's name.
            return {
                name: BenchmarkResult(name, BenchmarkResult.from_dict(entry).flows)
                for name, entry in zip(names, raw)
            }

    def report(
        self,
        names: Iterable[str] | None = None,
        programs: Mapping[str, object] | None = None,
    ) -> str:
        """Regenerate Tables 2-3 and Figure 8 (plus the shape checks)."""
        from .eval.paper_data import BENCHMARKS
        from .eval.report import full_report

        with self._call("report", "report"):
            results = self.bench_many(list(names) if names else list(BENCHMARKS), programs)
            return full_report(results)
