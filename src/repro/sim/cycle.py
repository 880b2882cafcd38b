"""Cycle-level simulation of elastic dataflow circuits.

This is the ModelSim substitute: it executes an ExprHigh graph with a
synchronous, two-phase model and reports the cycle count the paper's Table 2
measures.

Model:

* every connection is a FIFO *channel*; its capacity comes from buffer
  placement (default one slot), and a token pushed in cycle *t* becomes
  visible to the consumer in cycle *t+1* — every hop is registered, as in a
  fully elastic implementation;
* every component has a latency (from the technology model) and initiation
  interval 1: it accepts one firing per cycle when its inputs are available
  and its internal pipeline and output channels have room — which is what
  lets a pipelined floating-point unit fill with tokens from overlapping
  loop instances;
* Driver/Collector pseudo-components bridge to the mini-IR: the Driver
  emits one initial-state token bundle per outer iteration, the Collector
  consumes exit bundles and performs the epilogue stores.

Functional values flow with the tokens, so a simulation also *computes* the
kernel — results are checked against the sequential reference interpreter,
which is how the bicg memory-reordering bug becomes observable.

Production code simulates on the graph-compiled engine
(:mod:`repro.sim.compiled`); this per-component interpreter is the
reference the tests hold that engine bit-identical to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .. import obs
from ..core.environment import Environment
from ..core.exprhigh import Endpoint, ExprHigh
from ..errors import DeadlockError, SimulationError
from ..hls.ir import Kernel, eval_expr

Edge = tuple[Endpoint, Endpoint]  # (source, destination)


def full_channel_message(
    src: Endpoint | None, dst: Endpoint | None, occupancy: int, capacity: int
) -> str:
    """Diagnostic for a push into a full channel, naming the edge.

    The compiled engine and the interpreter raise this exact message, so
    deadlock triage can locate the offending edge without re-running under
    ``--trace``.
    """
    if src is None and dst is None:
        return f"push into a full channel ({occupancy}/{capacity} occupied)"
    return (
        f"push into full channel {src} -> {dst} "
        f"({occupancy}/{capacity} occupied)"
    )


@dataclass
class Channel:
    capacity: int
    queue: deque = field(default_factory=deque)
    staged: list = field(default_factory=list)  # pushed this cycle
    src: Endpoint | None = None  # producing endpoint, for diagnostics
    dst: Endpoint | None = None  # consuming endpoint, for diagnostics
    peak: int = 0  # highest occupancy ever reached

    def can_push(self) -> bool:
        return len(self.queue) + len(self.staged) < self.capacity

    def push(self, value) -> None:
        if not self.can_push():
            raise SimulationError(full_channel_message(self.src, self.dst, self.occupancy(), self.capacity))
        self.staged.append(value)
        occupancy = len(self.queue) + len(self.staged)
        if occupancy > self.peak:
            self.peak = occupancy

    def push_now(self, value) -> None:
        """Combinational push: visible to consumers within this cycle."""
        if not self.can_push():
            raise SimulationError(full_channel_message(self.src, self.dst, self.occupancy(), self.capacity))
        self.queue.append(value)
        occupancy = len(self.queue) + len(self.staged)
        if occupancy > self.peak:
            self.peak = occupancy

    def can_pop(self) -> bool:
        return bool(self.queue)

    def head(self):
        return self.queue[0]

    def pop(self):
        return self.queue.popleft()

    def commit(self) -> None:
        self.queue.extend(self.staged)
        self.staged.clear()

    def occupancy(self) -> int:
        return len(self.queue) + len(self.staged)


@dataclass
class SimStats:
    cycles: int = 0
    tokens_fired: int = 0
    store_history: list = field(default_factory=list)
    results_collected: int = 0
    peak_in_flight: int = 0
    #: per-edge occupancy high-water marks, keyed by (src, dst) endpoints;
    #: populated when a run completes successfully.
    channel_peaks: dict = field(default_factory=dict)

    # -- result protocol / wire format (repro.results) ------------------------

    def to_dict(self) -> dict:
        """Versioned wire form.

        Endpoint-keyed ``channel_peaks`` flatten to sorted
        ``[src_node, src_port, dst_node, dst_port, peak]`` rows, and
        ``store_history`` values coerce to plain ``float`` — both are what
        keep the dict JSON-serialisable and byte-stable across runs.
        """
        from ..results import SCHEMA_VERSION

        peaks = sorted(
            [src.node, src.port, dst.node, dst.port, int(peak)]
            for (src, dst), peak in self.channel_peaks.items()
        )
        return {
            "kind": "SimStats",
            "schema_version": SCHEMA_VERSION,
            "cycles": int(self.cycles),
            "tokens_fired": int(self.tokens_fired),
            "results_collected": int(self.results_collected),
            "peak_in_flight": int(self.peak_in_flight),
            "store_history": [
                [str(array), int(index), float(value)]
                for array, index, value in self.store_history
            ],
            "channel_peaks": peaks,
        }

    @staticmethod
    def from_dict(data: dict) -> "SimStats":
        from ..errors import ResultSchemaError
        from ..results import check_schema

        entry = check_schema(data, "SimStats")
        try:
            return SimStats(
                cycles=int(entry["cycles"]),
                tokens_fired=int(entry["tokens_fired"]),
                results_collected=int(entry["results_collected"]),
                peak_in_flight=int(entry["peak_in_flight"]),
                store_history=[
                    (str(array), int(index), float(value))
                    for array, index, value in entry["store_history"]
                ],
                channel_peaks={
                    (Endpoint(sn, sp), Endpoint(dn, dp)): int(peak)
                    for sn, sp, dn, dp, peak in entry["channel_peaks"]
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ResultSchemaError(f"malformed SimStats wire dict: {exc}") from exc

    def summary(self) -> str:
        return (
            f"{self.cycles} cycles, {self.tokens_fired} tokens fired, "
            f"{self.results_collected} results, peak {self.peak_in_flight} in flight"
        )


def evaluation_order(graph: ExprHigh, latency: Callable[[str], int]) -> list[str]:
    """Topological sweep order for same-cycle combinational propagation.

    Only edges *out of* zero-latency components constrain the order: a
    combinational producer must tick before its consumers so its tokens
    are visible within the cycle.  Every circuit cycle contains at least
    one registered component (Mux/Branch/Merge or an operator), so this
    sub-relation is acyclic; a malformed purely-combinational loop falls
    back to name order for its members (and will deadlock visibly).

    Shared by both simulators — the compiled engine's flat op arrays are laid
    out in exactly this order, which is one precondition for cycle-identical
    behaviour.  *latency* maps a node name to its cycle latency.
    """
    comb = {name for name in graph.nodes if latency(name) == 0}
    successors: dict[str, set[str]] = {name: set() for name in graph.nodes}
    indegree: dict[str, int] = {name: 0 for name in graph.nodes}
    for name in comb:
        for succ, _, _ in graph.successors(name):
            if succ != name and succ not in successors[name]:
                successors[name].add(succ)
                indegree[succ] += 1
    import heapq

    ready = [name for name, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        name = heapq.heappop(ready)
        order.append(name)
        for succ in successors[name]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    leftovers = sorted(set(graph.nodes) - set(order))
    return order + leftovers


class CycleSimulator:
    """Simulates one kernel graph cycle by cycle."""

    def __init__(
        self,
        graph: ExprHigh,
        env: Environment,
        kernel: Kernel,
        arrays: dict,
        capacities: Mapping[Edge, int] | None = None,
        latency_of: Callable[[str, dict], int] | None = None,
        max_cycles: int = 5_000_000,
        deadlock_window: int = 10_000,
        trace=None,
    ):
        self.graph = graph
        self.env = env
        self.kernel = kernel
        self.arrays = arrays
        self.max_cycles = max_cycles
        self.deadlock_window = deadlock_window
        self.latency_of = latency_of or (lambda typ, params: 1)
        self.stats = SimStats()
        self.trace = trace  # optional FiringTrace (see repro.sim.trace)
        self.cycle = 0

        capacities = dict(capacities or {})
        self.in_channels: dict[Endpoint, Channel] = {}
        self.out_channels: dict[Endpoint, Channel] = {}
        for dst, src in graph.connections.items():
            cap = capacities.get((src, dst), 1)
            channel = Channel(capacity=cap, src=src, dst=dst)
            self.in_channels[dst] = channel
            self.out_channels[src] = channel

        self.node_state: dict[str, dict] = {}
        self.outer_points = list(kernel.outer_points())
        self._setup_nodes()

    # -- node setup ---------------------------------------------------------

    def _setup_nodes(self) -> None:
        for name, spec in self.graph.nodes.items():
            state: dict = {"pipeline": deque()}
            if spec.typ == "Init":
                state["initial_pending"] = True
            if spec.typ == "Driver":
                state["next_point"] = 0
            if spec.typ == "Collector":
                state["received"] = 0
            if spec.typ == "Tagger":
                tags = int(spec.param("tags", 4))
                state["free"] = list(range(tags))
                state["order"] = deque()
                state["done"] = {}
                if len(spec.in_ports) > 2 or len(spec.out_ports) > 2:
                    state["returns"] = {}
            if spec.typ == "Merge":
                state["rr"] = 0
            self.node_state[name] = state

    # -- helpers ---------------------------------------------------------------

    def _in(self, node: str, port: str) -> Channel | None:
        return self.in_channels.get(Endpoint(node, port))

    def _out(self, node: str, port: str) -> Channel | None:
        return self.out_channels.get(Endpoint(node, port))

    def _latency(self, name: str) -> int:
        spec = self.graph.nodes[name]
        return max(0, self.latency_of(spec.typ, spec.param_dict()))

    # -- main loop ----------------------------------------------------------------

    def run(self) -> SimStats:
        """Run the step loop to completion (all outer results collected)."""
        with obs.span(
            "sim:run", kernel=self.kernel.name, nodes=len(self.graph.nodes)
        ) as sp:
            stats = self._run_loop()
            sp.set(cycles=stats.cycles, tokens_fired=stats.tokens_fired)
        obs.count("sim.runs")
        obs.count("sim.cycles", stats.cycles)
        return stats

    def _run_loop(self) -> SimStats:
        expected_results = len(self.outer_points)
        idle = 0
        cycle = 0
        completed = None
        order = self._evaluation_order()
        while cycle < self.max_cycles:
            self.cycle = cycle
            fired = 0
            for name in order:
                fired += self._tick(name, cycle)
            for channel in self.in_channels.values():
                channel.commit()
            cycle += 1
            if completed is not None:
                # Drain phase: every result is collected, but effectful
                # tokens (in-body stores) may still sit in operator
                # pipelines.  Keep stepping for their side effects until the
                # circuit quiesces (nothing fired and no pipeline is still
                # aging a token); the reported measurements stay frozen at
                # the completion cycle.
                if fired == 0 and not any(
                    state["pipeline"] for state in self.node_state.values()
                ):
                    return self.stats
                continue
            self.stats.peak_in_flight = max(
                self.stats.peak_in_flight,
                sum(c.occupancy() for c in self.in_channels.values()),
            )
            if self.stats.results_collected >= expected_results:
                completed = cycle
                self.stats.cycles = cycle
                self.stats.channel_peaks = {
                    (channel.src, channel.dst): channel.peak
                    for channel in self.in_channels.values()
                }
                continue
            if fired == 0:
                idle += 1
                if idle > self.deadlock_window:
                    raise DeadlockError(
                        f"no activity for {self.deadlock_window} cycles "
                        f"({self.stats.results_collected}/{expected_results} results)",
                        cycle=cycle,
                    )
            else:
                idle = 0
                self.stats.tokens_fired += fired
        raise SimulationError(f"simulation exceeded {self.max_cycles} cycles")

    def _evaluation_order(self) -> list[str]:
        return evaluation_order(self.graph, self._latency)

    # -- per-node behaviour ----------------------------------------------------------

    def _tick(self, name: str, cycle: int) -> int:
        spec = self.graph.nodes[name]
        state = self.node_state[name]
        fired = 0

        # Drain the internal pipeline into output channels first.
        fired += self._drain_pipeline(name, spec, state)

        handler = getattr(self, f"_fire_{spec.typ.lower()}", None)
        if handler is None:
            raise SimulationError(f"no cycle model for component type {spec.typ!r}")
        fired += handler(name, spec, state, cycle)
        return fired

    def _drain_pipeline(self, name: str, spec, state) -> int:
        pipeline: deque = state["pipeline"]
        if not pipeline:
            return 0
        # Every in-flight firing ages each cycle — the unit is pipelined
        # with initiation interval 1, not a serial multi-cycle resource.
        for index, (remaining, outputs) in enumerate(pipeline):
            if remaining > 0:
                pipeline[index] = (remaining - 1, outputs)
        remaining, outputs = pipeline[0]
        if remaining > 0:
            return 0
        # Ready: needs space on every destination channel.
        for port, value in outputs:
            channel = self._out(name, port)
            if channel is not None and not channel.can_push():
                return 0
        for port, value in outputs:
            channel = self._out(name, port)
            if channel is not None:
                channel.push(value)
        pipeline.popleft()
        return 1

    def _start(self, name: str, state, outputs: list) -> None:
        latency = self._latency(name)
        if self.trace is not None:
            self.trace.record(name, self.cycle, latency)
        if latency == 0:
            # Combinational component: deliver within this cycle if every
            # destination has room, else hold the result as a ready entry.
            channels = [self._out(name, port) for port, _ in outputs]
            if all(c is None or c.can_push() for c in channels):
                for (port, value), channel in zip(outputs, channels):
                    if channel is not None:
                        channel.push_now(value)
                return
            state["pipeline"].append((0, outputs))
            return
        state["pipeline"].append((latency - 1, outputs))

    def _pipeline_free(self, name: str, state) -> bool:
        return len(state["pipeline"]) < max(1, self._latency(name))

    # Individual component models ------------------------------------------------

    def _fire_fork(self, name, spec, state, cycle) -> int:
        channel = self._in(name, "in0")
        if channel is None or not channel.can_pop() or not self._pipeline_free(name, state):
            return 0
        value = channel.pop()
        self._start(name, state, [(port, value) for port in spec.out_ports])
        return 1

    def _pop_aligned(self, channels: list[Channel]) -> list | None:
        """Pop one token per channel such that all tags match (an *aligner*).

        Multi-input components inside a tagged region must pair tokens of
        the same loop instance; with independent Merges per variable path
        (the DF-OoO construction) tokens arrive interleaved, so the aligner
        searches each channel's queue for a common tag.  Returns the popped
        values, or None when no common tag is present yet.
        """
        if any(not c.can_pop() for c in channels):
            return None
        tag_sets = []
        for channel in channels:
            tags = {}
            for position, value in enumerate(channel.queue):
                tag = value[0]
                if tag not in tags:
                    tags[tag] = position
            tag_sets.append(tags)
        # Prefer the tag at the head of the first channel, then any common
        # tag in arrival order — oldest-first keeps the region fair.
        common = set(tag_sets[0])
        for tags in tag_sets[1:]:
            common &= set(tags)
        if not common:
            return None
        head = channels[0].queue[0][0]
        chosen = head if head in common else min(common, key=lambda t: tag_sets[0][t])
        values = []
        for channel, tags in zip(channels, tag_sets):
            position = tags[chosen]
            value = channel.queue[position]
            del channel.queue[position]
            values.append(value)
        return values

    def _fire_join(self, name, spec, state, cycle) -> int:
        a, b = self._in(name, "in0"), self._in(name, "in1")
        if a is None or b is None or not self._pipeline_free(name, state):
            return 0
        if spec.param("tagged"):
            popped = self._pop_aligned([a, b])
            if popped is None:
                return 0
            (tag, val_l), (_, val_r) = popped
            value = (tag, (val_l, val_r))
        else:
            if not (a.can_pop() and b.can_pop()):
                return 0
            value = (a.pop(), b.pop())
        self._start(name, state, [("out0", value)])
        return 1

    def _fire_split(self, name, spec, state, cycle) -> int:
        channel = self._in(name, "in0")
        if channel is None or not channel.can_pop() or not self._pipeline_free(name, state):
            return 0
        value = channel.pop()
        if spec.param("tagged"):
            tag, (a, b) = value
            outs = [("out0", (tag, a)), ("out1", (tag, b))]
        else:
            a, b = value
            outs = [("out0", a), ("out1", b)]
        self._start(name, state, outs)
        return 1

    def _fire_buffer(self, name, spec, state, cycle) -> int:
        channel = self._in(name, "in0")
        if channel is None or not channel.can_pop() or not self._pipeline_free(name, state):
            return 0
        self._start(name, state, [("out0", channel.pop())])
        return 1

    def _fire_sink(self, name, spec, state, cycle) -> int:
        channel = self._in(name, "in0")
        if channel is not None and channel.can_pop():
            channel.pop()
            return 1
        return 0

    def _fire_mux(self, name, spec, state, cycle) -> int:
        cond = self._in(name, "cond")
        if not (cond and cond.can_pop() and self._pipeline_free(name, state)):
            return 0
        selected = "in0" if cond.head() else "in1"
        data = self._in(name, selected)
        if not (data and data.can_pop()):
            return 0
        cond.pop()
        self._start(name, state, [("out0", data.pop())])
        return 1

    def _fire_branch(self, name, spec, state, cycle) -> int:
        cond = self._in(name, "cond")
        data = self._in(name, "in0")
        if cond is None or data is None or not self._pipeline_free(name, state):
            return 0
        if spec.param("tagged"):
            popped = self._pop_aligned([cond, data])
            if popped is None:
                return 0
            cond_value, value = popped
            truth = bool(cond_value[1])
        else:
            if not (cond.can_pop() and data.can_pop()):
                return 0
            truth = bool(cond.pop())
            value = data.pop()
        self._start(name, state, [("out0" if truth else "out1", value)])
        return 1

    def _fire_merge(self, name, spec, state, cycle) -> int:
        if not self._pipeline_free(name, state):
            return 0
        ports = ["in0", "in1"]
        start = state["rr"] % 2
        for offset in range(2):
            port = ports[(start + offset) % 2]
            channel = self._in(name, port)
            if channel is not None and channel.can_pop():
                state["rr"] += 1
                self._start(name, state, [("out0", channel.pop())])
                return 1
        return 0

    def _fire_cmerge(self, name, spec, state, cycle) -> int:
        if not self._pipeline_free(name, state):
            return 0
        index_channel = self._out(name, "index")
        ports = ["in0", "in1"]
        start = state.setdefault("rr", 0) % 2
        for offset in range(2):
            port = ports[(start + offset) % 2]
            channel = self._in(name, port)
            if channel is not None and channel.can_pop():
                if index_channel is not None and not index_channel.can_push():
                    return 0
                state["rr"] += 1
                value = channel.pop()
                self._start(name, state, [("out0", value), ("index", port == "in0")])
                return 1
        return 0

    def _fire_reorg(self, name, spec, state, cycle) -> int:
        return self._fire_pure(name, spec, state, cycle)

    def _fire_init(self, name, spec, state, cycle) -> int:
        if state.get("initial_pending"):
            if self._pipeline_free(name, state):
                state["initial_pending"] = False
                self._start(name, state, [("out0", bool(spec.param("value", False)))])
                return 1
            return 0
        channel = self._in(name, "in0")
        if channel is None or not channel.can_pop() or not self._pipeline_free(name, state):
            return 0
        self._start(name, state, [("out0", bool(channel.pop()))])
        return 1

    def _fire_operator(self, name, spec, state, cycle) -> int:
        channels = [self._in(name, port) for port in spec.in_ports]
        if any(c is None for c in channels) or not self._pipeline_free(name, state):
            return 0
        fn = self.env.function(str(spec.param("op")))
        if spec.param("tagged"):
            popped = self._pop_aligned(channels)  # type: ignore[arg-type]
            if popped is None:
                return 0
            tag = popped[0][0]
            result = (tag, fn(*[v[1] for v in popped]))
        else:
            if any(not c.can_pop() for c in channels):  # type: ignore[union-attr]
                return 0
            result = fn(*[c.pop() for c in channels])  # type: ignore[union-attr]
        self._start(name, state, [("out0", result)])
        return 1

    def _fire_pure(self, name, spec, state, cycle) -> int:
        channel = self._in(name, "in0")
        if channel is None or not channel.can_pop() or not self._pipeline_free(name, state):
            return 0
        value = channel.pop()
        fn = self.env.function(str(spec.param("fn")))
        if spec.param("tagged"):
            tag, inner = value
            result = (tag, fn(inner))
        else:
            result = fn(value)
        self._start(name, state, [("out0", result)])
        return 1

    def _fire_constant(self, name, spec, state, cycle) -> int:
        channel = self._in(name, "ctrl")
        if channel is None or not channel.can_pop() or not self._pipeline_free(name, state):
            return 0
        channel.pop()
        self._start(name, state, [("out0", spec.param("value", 0))])
        return 1

    def _fire_store(self, name, spec, state, cycle) -> int:
        addr = self._in(name, "addr")
        data = self._in(name, "data")
        if addr is None or data is None or not self._pipeline_free(name, state):
            return 0
        if spec.param("tagged"):  # tagged region store (DF-OoO's unsound case)
            popped = self._pop_aligned([addr, data])
            if popped is None:
                return 0
            (_, addr_v), (_, data_v) = popped
        else:
            if not (addr.can_pop() and data.can_pop()):
                return 0
            addr_v, data_v = addr.pop(), data.pop()
        array = str(spec.param("array", "")) or self._infer_store_array()
        self.arrays[array].flat[int(addr_v)] = data_v
        self.stats.store_history.append((array, int(addr_v), data_v))
        self._start(name, state, [("done", ())])
        return 1

    def _infer_store_array(self) -> str:
        stores = self.kernel.loop.stores
        if len(stores) == 1:
            return stores[0].array
        raise SimulationError("store component without an 'array' parameter")

    # -- Tagger: both the 1-in/1-out verified shape and DF-OoO's k/r shape ---

    def _fire_tagger(self, name, spec, state, cycle) -> int:
        fired = 0
        enter_ports = [p for p in spec.in_ports if p.startswith("enter")] or ["in0"]
        return_ports = [p for p in spec.in_ports if p.startswith("ret")] or ["in1"]
        tag_outs = [p for p in spec.out_ports if p.startswith("tag")] or ["out0"]
        exit_outs = [p for p in spec.out_ports if p.startswith("exit")] or ["out1"]

        # Entry: allocate one tag for the whole input bundle.
        enters = [self._in(name, p) for p in enter_ports]
        outs = [self._out(name, p) for p in tag_outs]
        if (
            state["free"]
            and all(c is not None and c.can_pop() for c in enters)
            and all(c is not None and c.can_push() for c in outs)
        ):
            tag = state["free"].pop(0)
            state["order"].append(tag)
            for channel, out in zip(enters, outs):
                out.push((tag, channel.pop()))  # type: ignore[union-attr]
            fired += 1

        # Returns: collect completed values per tag.
        returns = state.setdefault("returns", {})
        for index, port in enumerate(return_ports):
            channel = self._in(name, port)
            if channel is not None and channel.can_pop():
                tag, value = channel.pop()
                returns.setdefault(tag, {})[index] = value
                fired += 1

        # Release: oldest tag, once all its return slots arrived.
        if state["order"]:
            oldest = state["order"][0]
            slots = returns.get(oldest, {})
            exits = [self._out(name, p) for p in exit_outs]
            if len(slots) == len(return_ports) and all(
                c is not None and c.can_push() for c in exits
            ):
                for index, out in enumerate(exits):
                    out.push(slots[index])  # type: ignore[union-attr]
                state["order"].popleft()
                state["free"].append(oldest)
                del returns[oldest]
                fired += 1
        return fired

    # -- Driver / Collector ----------------------------------------------------

    def _fire_driver(self, name, spec, state, cycle) -> int:
        index = state["next_point"]
        if index >= len(self.outer_points):
            return 0
        if self.kernel.sequential_outer:
            collector_state = self._collector_state()
            if collector_state is not None and collector_state["received"] < index:
                return 0
        outs = [self._out(name, port) for port in spec.out_ports]
        if any(c is None or not c.can_push() for c in outs):
            return 0
        outer_env = self.outer_points[index]
        for var, channel in zip(self.kernel.loop.state, outs):
            value = eval_expr(self.kernel.init[var], outer_env, self.arrays)
            channel.push(value)  # type: ignore[union-attr]
        state["next_point"] = index + 1
        return 1

    def _collector_state(self) -> dict | None:
        for node in self.graph.nodes_of_type("Collector"):
            return self.node_state[node]
        return None

    def _fire_collector(self, name, spec, state, cycle) -> int:
        channels = [self._in(name, port) for port in spec.in_ports]
        if any(c is None or not c.can_pop() for c in channels):
            return 0
        values = [c.pop() for c in channels]  # type: ignore[union-attr]
        index = state["received"]
        outer_env = dict(self.outer_points[index])
        for var, value in zip(self.kernel.loop.result_vars, values):
            outer_env[var] = value
        for store in self.kernel.epilogue:
            addr = int(eval_expr(store.index, outer_env, self.arrays))
            value = eval_expr(store.value, outer_env, self.arrays)
            self.arrays[store.array].flat[addr] = value
            self.stats.store_history.append((store.array, addr, value))
        state["received"] = index + 1
        self.stats.results_collected = state["received"]
        return 1
