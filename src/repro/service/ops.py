"""The job-kind registry: what the service knows how to run.

Each kind maps a JSON parameter dict onto one :class:`repro.api.Session`
call and returns the result in the versioned wire format of
:mod:`repro.results`.  Two layers per kind:

* :func:`canonical_params` validates and *normalises* the parameters —
  defaults filled in, keys sorted, unknown keys rejected with
  :class:`~repro.errors.ServiceError` — so that equivalent requests
  (a ``simulate`` job's ``{"kernel": "matvec"}`` versus ``{"kernel":
  "matvec", "flow": "DF-OoO"}``) fingerprint to the same result-store key;
* :func:`run_op` executes the kind on a checked-out Session.  It runs in
  a worker thread, never on the event loop.

The kinds mirror the CLI subcommands so the service and the command line
stay behaviourally identical: ``transform`` accepts either a built-in
benchmark kernel name or an explicit dot graph plus loop mark, ``simulate``
reuses the ``repro sim`` flow selection (DF-IO / DF-OoO / GRAPHITI),
``bench`` runs one benchmark through all four flows, and
``check_obligations`` discharges the rewrite obligations through the
persistent-certificate path (which is what populates the
``/v1/certificates/{hash}`` store).  ``sat_check`` cross-checks obligations
against the independent SAT oracle (``repro sat-check``), and ``fuzz`` runs
a seeded differential corpus (``repro fuzz``) returning its canonical
manifest.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..errors import GraphitiError, ServiceError

#: Every job kind the service accepts, in documentation order.
JOB_KINDS = (
    "transform",
    "check_obligations",
    "sat_check",
    "simulate",
    "bench",
    "fuzz",
)


def _require_str(params: Mapping, key: str, kind: str) -> str:
    value = params.get(key)
    if not isinstance(value, str) or not value:
        raise ServiceError(f"{kind} job requires a non-empty string {key!r} parameter")
    return value


def _reject_unknown(params: Mapping, allowed: tuple, kind: str) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ServiceError(
            f"{kind} job got unknown parameter(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _check_choice(value: str, choices: tuple, name: str, kind: str) -> str:
    if value not in choices:
        raise ServiceError(
            f"{kind} job parameter {name!r} must be one of {list(choices)} (got {value!r})"
        )
    return value


def _check_rules(params: Mapping, kind: str) -> list[str] | None:
    rules = params.get("rules")
    if rules is None:
        return None
    if not isinstance(rules, (list, tuple)) or not all(
        isinstance(rule, str) for rule in rules
    ):
        raise ServiceError(f"{kind} job parameter 'rules' must be a list of factory names")
    from ..errors import RewriteError
    from ..rewriting.rules import select_specs

    try:
        select_specs(rules)
    except RewriteError as exc:
        raise ServiceError(f"{kind} job names {exc}") from None
    return sorted(set(rules))


def canonical_params(kind: str, params: Mapping | None) -> dict:
    """Validate *params* for *kind* and return the canonical, defaulted form.

    The canonical form is what the result store fingerprints, so every
    optional parameter is written out explicitly — a request that spells a
    default and one that omits it dedupe to the same entry.  Raises
    :class:`ServiceError` on an unknown kind, unknown keys, or invalid
    values (mirroring the CLI's exit-code-2 argument validation).
    """
    if kind not in JOB_KINDS:
        raise ServiceError(f"unknown job kind {kind!r}; expected one of {list(JOB_KINDS)}")
    params = dict(params or {})

    if kind == "transform":
        _reject_unknown(params, ("kernel", "dot", "mark"), kind)
        if "kernel" in params:
            if "dot" in params or "mark" in params:
                raise ServiceError(
                    "transform job takes either 'kernel' or 'dot'+'mark', not both"
                )
            kernel = _require_str(params, "kernel", kind)
            _known_benchmark(kernel, kind)
            return {"kernel": kernel}
        dot = _require_str(params, "dot", kind)
        mark = params.get("mark")
        if not isinstance(mark, Mapping):
            raise ServiceError("transform job with 'dot' requires a 'mark' mapping")
        return {"dot": dot, "mark": _canonical_mark(mark)}

    if kind == "simulate":
        from ..eval.paper_data import DATAFLOW_FLOWS

        _reject_unknown(params, ("kernel", "flow"), kind)
        kernel = _require_str(params, "kernel", kind)
        _known_benchmark(kernel, kind)
        flow = _check_choice(str(params.get("flow", "DF-OoO")), DATAFLOW_FLOWS, "flow", kind)
        return {"flow": flow, "kernel": kernel}

    if kind == "bench":
        _reject_unknown(params, ("name",), kind)
        name = _require_str(params, "name", kind)
        _known_benchmark(name, kind)
        return {"name": name}

    if kind == "fuzz":
        _reject_unknown(params, ("cases", "seed"), kind)
        try:
            cases = int(params.get("cases", 25))
            seed = int(params.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"fuzz job parameters must be integers: {exc}") from exc
        if cases < 1:
            raise ServiceError(f"fuzz job requires cases >= 1 (got {cases})")
        return {"cases": cases, "seed": seed}

    if kind == "sat_check":
        _reject_unknown(params, ("rules", "bound"), kind)
        bound = params.get("bound")
        if bound is not None:
            try:
                bound = int(bound)
            except (TypeError, ValueError) as exc:
                raise ServiceError(f"sat_check job 'bound' must be an integer: {exc}") from exc
            if bound < 1:
                raise ServiceError(f"sat_check job requires bound >= 1 (got {bound})")
        return {"bound": bound, "rules": _check_rules(params, kind)}

    # check_obligations
    _reject_unknown(params, ("rules",), kind)
    return {"rules": _check_rules(params, kind)}


def _known_benchmark(name: str, kind: str) -> None:
    from ..benchmarks import BENCHMARKS

    if name not in BENCHMARKS:
        raise ServiceError(
            f"{kind} job names unknown benchmark {name!r}; "
            f"choose from {list(BENCHMARKS)}"
        )


def _canonical_mark(mark: Mapping) -> dict:
    """Normalise a transform job's loop-mark mapping (sorted, defaulted)."""
    allowed = (
        "kernel", "mux_nodes", "branch_nodes", "init_node",
        "cond_fork", "driver", "collector", "tags",
    )
    _reject_unknown(mark, allowed, "transform")
    out: dict[str, Any] = {
        "kernel": str(mark.get("kernel", "loop")),
        "mux_nodes": sorted(str(node) for node in mark.get("mux_nodes", ())),
        "branch_nodes": sorted(str(node) for node in mark.get("branch_nodes", ())),
        "init_node": str(mark.get("init_node", "")),
        "cond_fork": str(mark.get("cond_fork", "")),
        "driver": str(mark.get("driver", "")),
        "collector": str(mark.get("collector", "")),
        "tags": int(mark.get("tags", 4)),
    }
    if not out["mux_nodes"] or not out["branch_nodes"]:
        raise ServiceError("transform job mark requires mux_nodes and branch_nodes")
    if not out["init_node"] or not out["cond_fork"]:
        raise ServiceError("transform job mark requires init_node and cond_fork")
    return out


def _compiled_kernel(session, name: str):
    from ..benchmarks import load_benchmark
    from ..hls.frontend import compile_program

    program = load_benchmark(name)
    return program, compile_program(program, session.env).kernels[0]


def run_op(session, kind: str, params: Mapping) -> dict:
    """Execute one job kind on *session*; returns the wire-format result.

    *params* must already be canonical (see :func:`canonical_params`).
    Runs synchronously — the server calls this from a worker thread, with
    a request-scoped tracer installed, so heavy work never blocks the
    event loop and per-job counters never bleed across jobs.
    """
    if kind == "transform":
        return _op_transform(session, params)
    if kind == "simulate":
        return _op_simulate(session, params)
    if kind == "bench":
        return session.bench(name=params["name"]).to_dict()
    if kind in ("check_obligations", "sat_check"):
        from ..rewriting.rules import select_specs

        specs = select_specs(params.get("rules"))
        if kind == "check_obligations":
            outcomes = session.check_obligations(specs)
            return {"kind": "ObligationOutcomes", "outcomes": outcomes}
        outcomes = session.sat_check(specs, bound=params.get("bound"))
        return {"kind": "SatCheckOutcomes", "outcomes": outcomes}
    if kind == "fuzz":
        manifest = session.fuzz(cases=params["cases"], seed=params["seed"])
        return {"kind": "FuzzManifest", "manifest": manifest}
    raise ServiceError(f"unknown job kind {kind!r}")


def _op_transform(session, params: Mapping) -> dict:
    from ..dot import parse_dot
    from ..hls.marks import LoopMark

    if "kernel" in params:
        _, ck = _compiled_kernel(session, params["kernel"])
        graph, mark = ck.graph, ck.mark
    else:
        graph = parse_dot(params["dot"])
        spec = params["mark"]
        try:
            mark = LoopMark.from_graph(
                graph,
                kernel=spec["kernel"],
                mux_nodes=spec["mux_nodes"],
                branch_nodes=spec["branch_nodes"],
                init_node=spec["init_node"],
                cond_fork=spec["cond_fork"],
                driver=spec["driver"],
                collector=spec["collector"],
                tags=spec["tags"],
            )
        except GraphitiError as exc:
            raise ServiceError(f"invalid loop mark: {exc}") from exc
    result = session.transform(graph=graph, mark=mark)
    return result.to_dict()


def _op_simulate(session, params: Mapping) -> dict:
    from ..eval.runner import flow_graph

    program, ck = _compiled_kernel(session, params["kernel"])
    graph, tags, _ = flow_graph(ck, params["flow"], session.env)
    stats = session.simulate(
        graph_or_kernel=graph,
        kernel=ck.kernel,
        stimuli=program.arrays,
        tags=tags,
    )
    return stats.to_dict()
