"""Graph-compiled cycle simulation: lower once, run many stimuli.

:func:`compile_circuit` lowers an :class:`~repro.core.exprhigh.ExprHigh`
graph into a :class:`CompiledCircuit`: a flat array of per-node step
closures laid out in the shared :func:`~repro.sim.cycle.evaluation_order`,
with every channel, latency, function and parameter lookup resolved at
compile time.

Steps are specialised per node when the circuit is lowered.  For the types
that make nearly all step calls (Operator, Fork, Branch, Mux, Merge, Join,
Split) lowering picks the step written for the node's shape — tagged or
not, one or two inputs, one output or a fan-out, combinational or
pipelined, function resolved or not — in which delivering a due pipeline
head, the pops and the check that all input heads carry one tag are
inline; heads with different tags go to the tag aligner, a shape circuits
rarely have to the generic delivery and start closures.  The rare types
(Tagger, Driver, Collector, Store, Init, CMerge, Constant, Sink, Buffer,
Pure, Reorg) keep a firing rule behind one generic step.  Steps are
closures, not source generated per circuit: ``compile()`` costs about as
much per generated line as a short run's whole simulation, and a fuzz
corpus lowers dozens of small circuits that each run once.

Scheduling is event-exact: a node's step is called only after an event
that can change what the step reads, and the node sleeps otherwise.  The
events are

* a token becoming visible on one of its inputs — the end-of-cycle commit
  of a staged push, or a combinational ``push_now``;
* a pop (or aligner delete) from one of its output channels that was
  *full* — the only pop that can change the node's room check;
* its pipeline head coming due.  Pipeline entries store the absolute cycle
  they are ready at, and a node that sleeps with a non-empty pipeline is
  woken at its head's ready cycle through a per-run timer map;
* a Collector result, which wakes the Driver (its ``sequential_outer``
  gating reads the received count).

After a firing a node stays awake only while one of its inputs still holds
a token or its pipeline head is due by the next cycle; Tagger and Driver
stay awake after any firing, because their own state can enable a second
firing with no new event.  Each cycle sweeps the awake flags once in
topological order with ``itertools.compress`` over the live ``bytearray``,
which reads a flag only when the sweep reaches it: a node woken later in
the order during the sweep still runs in the same cycle, one woken earlier
waits for the next, and the scan between awake nodes runs in C rather than
as one Python-level call per visit.  Most nodes sleep most of the time —
during the long latency windows of pipelined floating-point loops nearly the
whole circuit does — which is where the interpreted
:class:`~repro.sim.cycle.CycleSimulator` burns its time re-asking every
node every cycle.

The compiled engine is *cycle- and value-identical* to the interpreter: it
uses the same channel model (a deque of committed tokens plus the staged
pushes of this cycle, committed at cycle end; combinational ``push_now``
visibility), the same pipeline delivery rules (an entry started at cycle
``t`` with latency ``L`` is ready at ``t + max(1, L-1)``, delivered
head-of-line when every destination has room), the tag aligner, and the
Driver/Collector bridge, down to deadlock windows and error messages.  It
is the only engine production code runs; the interpreter stays as the
reference the tests compare it against (see
``tests/property/test_sim_backend_equivalence.py``).

:meth:`CompiledCircuit.run` executes one stimulus; :meth:`CompiledCircuit.run_batch`
executes many stimuli/buffer-placement variants without re-lowering —
changing only channel capacities between runs is an O(changed-channels)
retarget, which is exactly the shape of the Table 2 buffer sweep.

Tokens carry Python values (tagged tuples); numpy enters only through the
kernels' own array stores.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Mapping, Sequence

from .. import obs
from ..core.environment import Environment, FunctionDef
from ..core.exprhigh import Endpoint, ExprHigh
from ..errors import DeadlockError, SimulationError
from ..hls.ir import Kernel, eval_expr
from .cycle import Edge, SimStats, evaluation_order, full_channel_message

__all__ = ["BatchRun", "CompiledCircuit", "compile_circuit"]


class _Channel:
    """A channel: committed tokens in a deque plus this cycle's staged pushes
    (the :class:`~repro.sim.cycle.Channel` model).

    ``room`` counts the free slots (capacity minus committed and staged
    tokens) and ``low`` is its minimum over the run, so the occupancy peak
    is ``cap - low``.  Each channel knows the indices of its producer and
    consumer in the compiled step array: a commit or ``push_now`` wakes the
    consumer, and a pop from a full channel wakes the producer.  A staged
    push hands ``commit``, the ``(queue, staged, consumer)`` triple, to the
    end-of-cycle commit.
    """

    __slots__ = (
        "cap",
        "queue",
        "staged",
        "room",
        "low",
        "src",
        "dst",
        "producer",
        "consumer",
        "commit",
        "active",
        "pending",
        "ctx",
    )

    def __init__(self, cap: int, src: Endpoint, dst: Endpoint, producer: int, consumer: int, rt):
        self.cap = cap
        self.queue: deque = deque()
        self.staged: list = []
        self.room = cap
        self.low = cap
        self.src = src
        self.dst = dst
        self.producer = producer
        self.consumer = consumer
        self.commit = (self.queue, self.staged, consumer)
        # Shared run state of the owning CompiledCircuit.
        self.active: bytearray = rt._active
        self.pending: list = rt._pending
        self.ctx: _Ctx = rt._ctx

    def _overflow(self) -> SimulationError:
        return SimulationError(
            full_channel_message(self.src, self.dst, self.cap - self.room, self.cap)
        )

    def push(self, value) -> None:
        """Two-phase push: staged now, committed (and consumer woken) at cycle end."""
        room = self.room
        if not room:
            raise self._overflow()
        if not self.staged:
            self.pending.append(self.commit)
        self.staged.append(value)
        room -= 1
        self.room = room
        if room < self.low:
            self.low = room
        self.ctx.tokens += 1

    def push_now(self, value) -> None:
        """Combinational push: committed and consumer-visible within this cycle."""
        room = self.room
        if not room:
            raise self._overflow()
        self.queue.append(value)
        room -= 1
        self.room = room
        if room < self.low:
            self.low = room
        self.ctx.tokens += 1
        self.active[self.consumer] = 1

    def pop(self):
        if not self.room:
            self.active[self.producer] = 1
        self.room += 1
        self.ctx.tokens -= 1
        return self.queue.popleft()

    def delete_at(self, position: int):
        """Remove the committed token at *position* (aligner pops)."""
        queue = self.queue
        value = queue[position]
        del queue[position]
        if not self.room:
            self.active[self.producer] = 1
        self.room += 1
        self.ctx.tokens -= 1
        return value


def _pop_aligned(channels: list[_Channel]) -> list | None:
    """Port of the interpreter's tag aligner (same tag choice).

    The specialised one- and two-input steps pop heads that already carry
    one tag inline and call this only when the heads disagree; tagged
    Stores and operators of three or more inputs call it for every firing.
    """
    tag_sets = []
    for channel in channels:
        if not channel.queue:
            return None
        tags: dict = {}
        for position, value in enumerate(channel.queue):
            tag = value[0]
            if tag not in tags:
                tags[tag] = position
        tag_sets.append(tags)
    common = set(tag_sets[0])
    for tags in tag_sets[1:]:
        common &= set(tags)
    if not common:
        return None
    head_tag = channels[0].queue[0][0]
    chosen = head_tag if head_tag in common else min(common, key=lambda t: tag_sets[0][t])
    return [channel.delete_at(tags[chosen]) for channel, tags in zip(channels, tag_sets)]


def _idle(cycle: int) -> int:
    """Step of a node that can never fire (a required port is unconnected)."""
    return 0


class _Ctx:
    """Per-run mutable context shared by every compiled step closure."""

    __slots__ = ("arrays", "stats", "trace", "cycle", "tokens")

    def __init__(self):
        self.arrays: dict = {}
        self.stats = SimStats()
        self.trace = None
        self.cycle = 0
        self.tokens = 0  # committed + staged tokens over all channels


@dataclass
class BatchRun:
    """One configuration for :meth:`CompiledCircuit.run_batch`."""

    arrays: dict
    capacities: Mapping[Edge, int] | None = None
    max_cycles: int = 5_000_000
    deadlock_window: int = 10_000
    trace: object | None = None


class CompiledCircuit:
    """An ExprHigh graph lowered to flat step arrays, reusable across runs.

    Build with :func:`compile_circuit`.  A circuit holds mutable run state
    (channels, node pipelines, timers), so a single instance must not be
    run concurrently; reuse across sequential runs is the intended pattern.
    """

    def __init__(
        self,
        graph: ExprHigh,
        env: Environment,
        kernel: Kernel,
        capacities: Mapping[Edge, int] | None = None,
        latency_of: Callable[[str, dict], int] | None = None,
    ):
        self.graph = graph
        self.env = env
        self.kernel = kernel
        self._base_capacities = dict(capacities or {})
        latency_of = latency_of or (lambda typ, params: 1)

        latencies = {
            name: max(0, latency_of(spec.typ, spec.param_dict()))
            for name, spec in graph.nodes.items()
        }
        self.order = evaluation_order(graph, latencies.__getitem__)
        index_of = {name: i for i, name in enumerate(self.order)}

        # Shared run state, captured by channels and step closures.
        self._active = bytearray(len(self.order))
        #: commit triples of the channels holding staged pushes this cycle.
        self._pending: list[tuple] = []
        self._ctx = _Ctx()
        #: ready cycle -> nodes to wake then; ``_armed[i]`` is the cycle node
        #: i was last armed for, so re-arming the same deadline is a no-op.
        self._timers: dict[int, list[int]] = {}
        self._armed = [-1] * len(self.order)
        self._arm = self._arm_fn()

        self._channels: list[_Channel] = []
        self._in_ch: dict[Endpoint, _Channel] = {}
        self._out_ch: dict[Endpoint, _Channel] = {}
        for dst, src in graph.connections.items():
            channel = _Channel(
                self._base_capacities.get((src, dst), 1),
                src,
                dst,
                index_of[src.node],
                index_of[dst.node],
                self,
            )
            self._channels.append(channel)
            self._in_ch[dst] = channel
            self._out_ch[src] = channel

        self.outer_points = list(kernel.outer_points())
        self._expected_results = len(self.outer_points)

        # Collector state is shared with the Driver (sequential_outer gating
        # reads the first collector's received count, like the interpreter).
        self._collector_states: dict[str, dict] = {
            name: {"received": 0} for name in graph.nodes_of_type("Collector")
        }
        self._drivers = [index_of[name] for name in graph.nodes_of_type("Driver")]

        self._steps: list = []
        self._pipelines: list[deque] = []
        self._resets: list = []
        for me, name in enumerate(self.order):
            spec = graph.nodes[name]
            maker = getattr(self, f"_make_{spec.typ.lower()}", None)
            if maker is None:
                raise SimulationError(
                    f"no cycle model for component type {spec.typ!r}"
                )
            step, pipeline, reset = maker(me, name, spec, latencies[name])
            self._steps.append(step)
            if pipeline is not None:
                self._pipelines.append(pipeline)
            if reset is not None:
                self._resets.append(reset)

    # -- channel / closure helpers -------------------------------------------

    def _in(self, node: str, port: str) -> _Channel | None:
        return self._in_ch.get(Endpoint(node, port))

    def _out(self, node: str, port: str) -> _Channel | None:
        return self._out_ch.get(Endpoint(node, port))

    def _outs(self, node: str, ports) -> list[_Channel]:
        """The connected output channels among *ports* (dangling ones drop)."""
        return [c for c in (self._out(node, port) for port in ports) if c is not None]

    def _arm_fn(self):
        """``arm(node, ready)``: wake *node* at cycle *ready*."""
        timers, armed = self._timers, self._armed

        def arm(node: int, ready: int) -> None:
            if armed[node] != ready:
                armed[node] = ready
                due = timers.get(ready)
                if due is None:
                    timers[ready] = [node]
                else:
                    due.append(node)

        return arm

    def _drain_fn(self, pipeline: deque, outs: list[_Channel]):
        """Drain closure for ``(ready, value)`` entries: deliver the head's
        value to every channel in *outs* once all of them have room.

        Called only when the head is due.
        """

        def drain() -> int:
            for out in outs:
                if not out.room:
                    return 0
            value = pipeline.popleft()[1]
            for out in outs:
                out.push(value)
            return 1

        return drain

    @staticmethod
    def _drain_pairs_fn(pipeline: deque):
        """Drain closure for ``(ready, [(channel_or_None, value), ...])``
        entries, delivered once every destination has room."""

        def drain() -> int:
            pairs = pipeline[0][1]
            for out, _ in pairs:
                if out is not None and not out.room:
                    return 0
            pipeline.popleft()
            for out, value in pairs:
                if out is not None:
                    out.push(value)
            return 1

        return drain

    def _start_fn(self, name: str, latency: int, pipeline: deque, outs=None):
        """Firing-start closure.

        With *outs* (a fixed list of output channels) a start takes one
        value for all of them; without, a list of ``(channel_or_None,
        value)`` pairs.  A pipelined start appends an entry ready
        ``max(1, latency - 1)`` cycles later.  A combinational start
        delivers within the cycle when every destination has room, and
        otherwise holds the payload as an entry ready next cycle.
        """
        ctx = self._ctx
        if latency:
            delay = max(1, latency - 1)

            def start(payload) -> None:
                if ctx.trace is not None:
                    ctx.trace.record(name, ctx.cycle, latency)
                pipeline.append((ctx.cycle + delay, payload))

            return start

        if outs is not None:

            def start(value) -> None:
                if ctx.trace is not None:
                    ctx.trace.record(name, ctx.cycle, 0)
                for out in outs:
                    if not out.room:
                        pipeline.append((ctx.cycle + 1, value))
                        return
                for out in outs:
                    out.push_now(value)

            return start

        def start(pairs) -> None:
            if ctx.trace is not None:
                ctx.trace.record(name, ctx.cycle, 0)
            for out, _ in pairs:
                if out is not None and not out.room:
                    pipeline.append((ctx.cycle + 1, pairs))
                    return
            for out, value in pairs:
                if out is not None:
                    out.push_now(value)

        return start

    def _tick_fn(self, me, fire, inputs, pipeline=None, drain=None, sticky=False):
        """Generic step closure for node *me* around its firing rule *fire*.

        Like the interpreter's ``_tick``: deliver a due pipeline head, then
        try to fire.  Then apply the sleep rule: stay awake after a firing
        while an input still holds a token or the pipeline head is due by
        the next cycle (always, if *sticky*); otherwise sleep, armed for
        the head's ready cycle when the pipeline is non-empty.  A head that
        is due but blocked waits for the pop that frees its destination.
        """
        active, arm = self._active, self._arm
        queues = [c.queue for c in inputs if c is not None]

        def step(cycle: int) -> int:
            fired = drain() if pipeline and pipeline[0][0] <= cycle else 0
            fired += fire()
            if fired:
                if sticky or (pipeline and pipeline[0][0] <= cycle + 1):
                    active[me] = 1
                    return fired
                for queue in queues:
                    if queue:
                        active[me] = 1
                        return fired
                if pipeline:
                    arm(me, pipeline[0][0])
            elif pipeline and pipeline[0][0] > cycle:
                arm(me, pipeline[0][0])
            return fired

        return step

    def _single_out(self, name: str, port: str, latency: int, pipeline: deque):
        """``(out, staged, commit, drain, start)`` of a node whose only output
        is *port*.  *out* is None when the port is unconnected; the steps
        then fall back to *drain* and *start*, which deliver nowhere."""
        out = self._out(name, port)
        outs = [] if out is None else [out]
        staged, commit = ((), None) if out is None else (out.staged, out.commit)
        drain = self._drain_fn(pipeline, outs)
        return out, staged, commit, drain, self._start_fn(name, latency, pipeline, outs)

    # -- hot component steps -------------------------------------------------
    #
    # Each ``_make_<type>`` returns ``(step, pipeline, reset)``: the step
    # closure, the node's latency pipeline (None when it has none) and an
    # optional per-run state reset.  Every firing rule mirrors the matching
    # ``CycleSimulator._fire_<type>`` exactly (checks in the same order, pops
    # and pushes at the same points) so firing counts match cycle for cycle.
    #
    # The types below make nearly all step calls, so their steps are chosen
    # per node from its shape and written out in full: a due pipeline head
    # is delivered inline, pops are inline, heads that already carry one tag
    # are popped without the aligner, and the sleep rule of ``_tick_fn`` and
    # the trace record of a firing are inline.  A shape a circuit rarely has
    # (an unconnected output, a combinational operator, a pipelined Join)
    # goes through the generic ``drain``/``start`` closures instead.

    def _make_operator(self, me, name, spec, latency):
        channels = [self._in(name, port) for port in spec.in_ports]
        if any(c is None for c in channels):
            return _idle, None, None
        op = str(spec.param("op"))
        try:
            fn = self.env.function(op)
        except Exception:
            fn = None  # unresolvable: fail at the firing point, like the interpreter
        if isinstance(fn, FunctionDef) and fn.arity == len(channels):
            fn = fn.fn  # arity checked here once; a mismatch keeps the checked call
        tagged = bool(spec.param("tagged"))
        pipeline: deque = deque()
        if fn is None or isinstance(fn, FunctionDef) or len(channels) not in (1, 2):
            step = self._operator_any(me, name, latency, pipeline, channels, tagged, op, fn)
        elif len(channels) == 1:
            step = self._operator_1(me, name, latency, pipeline, channels[0], tagged, fn)
        else:
            step = self._operator_2(me, name, latency, pipeline, channels, tagged, fn)
        return step, pipeline, pipeline.clear

    def _operator_1(self, me, name, latency, pipeline, channel, tagged, fn):
        """Unary operator with a resolved *fn*."""
        out, staged, commit, drain, start = self._single_out(name, "out0", latency, pipeline)
        queue, producer = channel.queue, channel.producer
        cap, delay = max(1, latency), max(1, latency - 1)
        ctx, active, arm, pending = self._ctx, self._active, self._arm, self._pending

        def step(cycle: int) -> int:
            fired = 0
            if pipeline and pipeline[0][0] <= cycle:
                if out is None:
                    fired = drain()
                else:
                    room = out.room
                    if room:
                        if not staged:
                            pending.append(commit)
                        staged.append(pipeline.popleft()[1])
                        room -= 1
                        out.room = room
                        if room < out.low:
                            out.low = room
                        ctx.tokens += 1
                        fired = 1
            if queue and len(pipeline) < cap:
                room = channel.room
                if not room:
                    active[producer] = 1
                channel.room = room + 1
                ctx.tokens -= 1
                value = queue.popleft()
                result = (value[0], fn(value[1])) if tagged else fn(value)
                if not latency:
                    start(result)
                else:
                    if ctx.trace is not None:
                        ctx.trace.record(name, cycle, latency)
                    pipeline.append((cycle + delay, result))
                fired += 1
            if fired:
                if queue or (pipeline and pipeline[0][0] <= cycle + 1):
                    active[me] = 1
                elif pipeline:
                    arm(me, pipeline[0][0])
            elif pipeline and pipeline[0][0] > cycle:
                arm(me, pipeline[0][0])
            return fired

        return step

    def _operator_2(self, me, name, latency, pipeline, channels, tagged, fn):
        """Binary operator with a resolved *fn*."""
        out, staged, commit, drain, start = self._single_out(name, "out0", latency, pipeline)
        a, b = channels
        qa, qb, pa, pb = a.queue, b.queue, a.producer, b.producer
        cap, delay = max(1, latency), max(1, latency - 1)
        ctx, active, arm, pending = self._ctx, self._active, self._arm, self._pending

        def step(cycle: int) -> int:
            fired = 0
            if pipeline and pipeline[0][0] <= cycle:
                if out is None:
                    fired = drain()
                else:
                    room = out.room
                    if room:
                        if not staged:
                            pending.append(commit)
                        staged.append(pipeline.popleft()[1])
                        room -= 1
                        out.room = room
                        if room < out.low:
                            out.low = room
                        ctx.tokens += 1
                        fired = 1
            if qa and qb and len(pipeline) < cap:
                if tagged and qa[0][0] != qb[0][0]:
                    popped = _pop_aligned(channels)  # misaligned heads: search
                else:
                    room = a.room
                    if not room:
                        active[pa] = 1
                    a.room = room + 1
                    room = b.room
                    if not room:
                        active[pb] = 1
                    b.room = room + 1
                    ctx.tokens -= 2
                    popped = qa.popleft(), qb.popleft()
                if popped is not None:
                    left, right = popped
                    result = (left[0], fn(left[1], right[1])) if tagged else fn(left, right)
                    if not latency:
                        start(result)
                    else:
                        if ctx.trace is not None:
                            ctx.trace.record(name, cycle, latency)
                        pipeline.append((cycle + delay, result))
                    fired += 1
            if fired:
                if qa or qb or (pipeline and pipeline[0][0] <= cycle + 1):
                    active[me] = 1
                elif pipeline:
                    arm(me, pipeline[0][0])
            elif pipeline and pipeline[0][0] > cycle:
                arm(me, pipeline[0][0])
            return fired

        return step

    def _operator_any(self, me, name, latency, pipeline, channels, tagged, op, fn):
        """Any other operator: three or more inputs (``select``), none, or a
        *fn* that is unresolved or of another arity.  The function is looked
        up (and its arity checked) where the interpreter does, so an error
        surfaces at the same firing with the same message."""
        _, _, _, drain, start = self._single_out(name, "out0", latency, pipeline)
        queues = [c.queue for c in channels]
        cap = max(1, latency)
        env, active, arm = self.env, self._active, self._arm

        def step(cycle: int) -> int:
            fired = drain() if pipeline and pipeline[0][0] <= cycle else 0
            if len(pipeline) < cap:
                f = fn if fn is not None else env.function(op)
                if tagged:
                    popped = _pop_aligned(channels)
                    if popped is not None:
                        start((popped[0][0], f(*[v[1] for v in popped])))
                        fired += 1
                elif all(queues):
                    start(f(*[channel.pop() for channel in channels]))
                    fired += 1
            if fired:
                if any(queues) or (pipeline and pipeline[0][0] <= cycle + 1):
                    active[me] = 1
                elif pipeline:
                    arm(me, pipeline[0][0])
            elif pipeline and pipeline[0][0] > cycle:
                arm(me, pipeline[0][0])
            return fired

        return step

    def _make_fork(self, me, name, spec, latency):
        channel = self._in(name, "in0")
        if channel is None:
            return _idle, None, None
        outs = self._outs(name, spec.out_ports)
        pipeline: deque = deque()
        if latency or len(outs) != 2:
            step = self._fork_any(me, name, latency, pipeline, channel, outs)
        else:
            step = self._fork_2(me, name, pipeline, channel, outs)
        return step, pipeline, pipeline.clear

    def _fork_2(self, me, name, pipeline, channel, outs):
        """Combinational two-way fork: a copy to both outputs within the
        cycle, or the value held until both have room."""
        o0, o1 = outs
        q0, q1, c0, c1 = o0.queue, o1.queue, o0.consumer, o1.consumer
        queue, producer = channel.queue, channel.producer
        ctx, active, arm = self._ctx, self._active, self._arm

        def step(cycle: int) -> int:
            fired = 0
            if pipeline and pipeline[0][0] <= cycle and o0.room and o1.room:
                value = pipeline.popleft()[1]
                o0.push(value)
                o1.push(value)
                fired = 1
            if queue and not pipeline:
                room = channel.room
                if not room:
                    active[producer] = 1
                channel.room = room + 1
                value = queue.popleft()
                fired += 1
                if ctx.trace is not None:
                    ctx.trace.record(name, cycle, 0)
                room0, room1 = o0.room, o1.room
                if room0 and room1:
                    q0.append(value)
                    room0 -= 1
                    o0.room = room0
                    if room0 < o0.low:
                        o0.low = room0
                    q1.append(value)
                    room1 -= 1
                    o1.room = room1
                    if room1 < o1.low:
                        o1.low = room1
                    active[c0] = 1
                    active[c1] = 1
                    ctx.tokens += 1  # one popped, two pushed
                else:
                    ctx.tokens -= 1
                    pipeline.append((cycle + 1, value))
            if fired:
                if queue or (pipeline and pipeline[0][0] <= cycle + 1):
                    active[me] = 1
                elif pipeline:
                    arm(me, pipeline[0][0])
            elif pipeline and pipeline[0][0] > cycle:
                arm(me, pipeline[0][0])
            return fired

        return step

    def _fork_any(self, me, name, latency, pipeline, channel, outs):
        """Fork of any other fan-out or latency."""
        drain = self._drain_fn(pipeline, outs)
        start = self._start_fn(name, latency, pipeline, outs)
        cap = max(1, latency)
        queue = channel.queue
        active, arm = self._active, self._arm

        def step(cycle: int) -> int:
            fired = drain() if pipeline and pipeline[0][0] <= cycle else 0
            if queue and len(pipeline) < cap:
                start(channel.pop())
                fired += 1
            if fired:
                if queue or (pipeline and pipeline[0][0] <= cycle + 1):
                    active[me] = 1
                elif pipeline:
                    arm(me, pipeline[0][0])
            elif pipeline and pipeline[0][0] > cycle:
                arm(me, pipeline[0][0])
            return fired

        return step

    def _make_join(self, me, name, spec, latency):
        a, b = self._in(name, "in0"), self._in(name, "in1")
        if a is None or b is None:
            return _idle, None, None
        pipeline: deque = deque()
        out, staged, commit, drain, start = self._single_out(name, "out0", latency, pipeline)
        inline = out is not None and not latency  # combinational: push within the cycle
        out_queue = out.queue if out is not None else None
        consumer = out.consumer if out is not None else None
        tagged = bool(spec.param("tagged"))
        pair = [a, b]
        qa, qb, pa, pb = a.queue, b.queue, a.producer, b.producer
        cap = max(1, latency)
        ctx, active, arm, pending = self._ctx, self._active, self._arm, self._pending

        def step(cycle: int) -> int:
            fired = 0
            if pipeline and pipeline[0][0] <= cycle:
                if out is None:
                    fired = drain()
                else:
                    room = out.room
                    if room:
                        if not staged:
                            pending.append(commit)
                        staged.append(pipeline.popleft()[1])
                        room -= 1
                        out.room = room
                        if room < out.low:
                            out.low = room
                        ctx.tokens += 1
                        fired = 1
            if qa and qb and len(pipeline) < cap:
                if tagged and qa[0][0] != qb[0][0]:
                    popped = _pop_aligned(pair)  # misaligned heads: search
                else:
                    room = a.room
                    if not room:
                        active[pa] = 1
                    a.room = room + 1
                    room = b.room
                    if not room:
                        active[pb] = 1
                    b.room = room + 1
                    ctx.tokens -= 2
                    popped = qa.popleft(), qb.popleft()
                if popped is not None:
                    left, right = popped
                    value = (left[0], (left[1], right[1])) if tagged else (left, right)
                    fired += 1
                    if not inline:
                        start(value)
                    else:
                        if ctx.trace is not None:
                            ctx.trace.record(name, cycle, 0)
                        room = out.room
                        if room:
                            out_queue.append(value)
                            room -= 1
                            out.room = room
                            if room < out.low:
                                out.low = room
                            active[consumer] = 1
                            ctx.tokens += 1
                        else:
                            pipeline.append((cycle + 1, value))
            if fired:
                if qa or qb or (pipeline and pipeline[0][0] <= cycle + 1):
                    active[me] = 1
                elif pipeline:
                    arm(me, pipeline[0][0])
            elif pipeline and pipeline[0][0] > cycle:
                arm(me, pipeline[0][0])
            return fired

        return step, pipeline, pipeline.clear

    def _make_split(self, me, name, spec, latency):
        channel = self._in(name, "in0")
        if channel is None:
            return _idle, None, None
        # Entries are ``(ready, left, right)``; an unconnected output drops
        # its half, like the interpreter.
        pipeline: deque = deque()
        out0, out1 = self._out(name, "out0"), self._out(name, "out1")
        tagged = bool(spec.param("tagged"))
        queue, producer = channel.queue, channel.producer
        cap, delay = max(1, latency), max(1, latency - 1)
        ctx, active, arm = self._ctx, self._active, self._arm

        def step(cycle: int) -> int:
            fired = 0
            if (
                pipeline
                and pipeline[0][0] <= cycle
                and (out0 is None or out0.room)
                and (out1 is None or out1.room)
            ):
                _, left, right = pipeline.popleft()
                if out0 is not None:
                    out0.push(left)
                if out1 is not None:
                    out1.push(right)
                fired = 1
            if queue and len(pipeline) < cap:
                room = channel.room
                if not room:
                    active[producer] = 1
                channel.room = room + 1
                ctx.tokens -= 1
                value = queue.popleft()
                if tagged:
                    tag, (left, right) = value
                    left, right = (tag, left), (tag, right)
                else:
                    left, right = value
                if ctx.trace is not None:
                    ctx.trace.record(name, cycle, latency)
                if latency:
                    pipeline.append((cycle + delay, left, right))
                elif (out0 is None or out0.room) and (out1 is None or out1.room):
                    if out0 is not None:
                        out0.push_now(left)
                    if out1 is not None:
                        out1.push_now(right)
                else:
                    pipeline.append((cycle + 1, left, right))
                fired += 1
            if fired:
                if queue or (pipeline and pipeline[0][0] <= cycle + 1):
                    active[me] = 1
                elif pipeline:
                    arm(me, pipeline[0][0])
            elif pipeline and pipeline[0][0] > cycle:
                arm(me, pipeline[0][0])
            return fired

        return step, pipeline, pipeline.clear

    def _make_mux(self, me, name, spec, latency):
        cond = self._in(name, "cond")
        if cond is None:
            return _idle, None, None
        in0, in1 = self._in(name, "in0"), self._in(name, "in1")
        pipeline: deque = deque()
        out, staged, commit, drain, start = self._single_out(name, "out0", latency, pipeline)
        cond_queue, cond_producer = cond.queue, cond.producer
        queue0 = in0.queue if in0 is not None else ()
        queue1 = in1.queue if in1 is not None else ()
        cap, delay = max(1, latency), max(1, latency - 1)
        ctx, active, arm, pending = self._ctx, self._active, self._arm, self._pending

        def step(cycle: int) -> int:
            fired = 0
            if pipeline and pipeline[0][0] <= cycle:
                if out is None:
                    fired = drain()
                else:
                    room = out.room
                    if room:
                        if not staged:
                            pending.append(commit)
                        staged.append(pipeline.popleft()[1])
                        room -= 1
                        out.room = room
                        if room < out.low:
                            out.low = room
                        ctx.tokens += 1
                        fired = 1
            if cond_queue and len(pipeline) < cap:
                data = in0 if cond_queue[0] else in1
                if data is not None and data.queue:
                    room = cond.room
                    if not room:
                        active[cond_producer] = 1
                    cond.room = room + 1
                    cond_queue.popleft()
                    room = data.room
                    if not room:
                        active[data.producer] = 1
                    data.room = room + 1
                    ctx.tokens -= 2
                    value = data.queue.popleft()
                    if not latency:
                        start(value)
                    else:
                        if ctx.trace is not None:
                            ctx.trace.record(name, cycle, latency)
                        pipeline.append((cycle + delay, value))
                    fired += 1
            if fired:
                if (
                    cond_queue
                    or queue0
                    or queue1
                    or (pipeline and pipeline[0][0] <= cycle + 1)
                ):
                    active[me] = 1
                elif pipeline:
                    arm(me, pipeline[0][0])
            elif pipeline and pipeline[0][0] > cycle:
                arm(me, pipeline[0][0])
            return fired

        return step, pipeline, pipeline.clear

    def _make_branch(self, me, name, spec, latency):
        cond, data = self._in(name, "cond"), self._in(name, "in0")
        if cond is None or data is None:
            return _idle, None, None
        # Entries are ``(ready, target, value)``; a None target (an
        # unconnected output) drops the value, like the interpreter.
        pipeline: deque = deque()
        out0, out1 = self._out(name, "out0"), self._out(name, "out1")
        tagged = bool(spec.param("tagged"))
        pair = [cond, data]
        cond_queue, data_queue = cond.queue, data.queue
        pc, pd = cond.producer, data.producer
        cap, delay = max(1, latency), max(1, latency - 1)
        ctx, active, arm, pending = self._ctx, self._active, self._arm, self._pending

        def step(cycle: int) -> int:
            fired = 0
            if pipeline:
                ready, target, value = pipeline[0]
                if ready <= cycle:
                    if target is None:
                        pipeline.popleft()
                        fired = 1
                    else:
                        room = target.room
                        if room:
                            staged = target.staged
                            if not staged:
                                pending.append(target.commit)
                            staged.append(value)
                            room -= 1
                            target.room = room
                            if room < target.low:
                                target.low = room
                            ctx.tokens += 1
                            pipeline.popleft()
                            fired = 1
            if cond_queue and data_queue and len(pipeline) < cap:
                if tagged and cond_queue[0][0] != data_queue[0][0]:
                    popped = _pop_aligned(pair)  # misaligned heads: search
                else:
                    room = cond.room
                    if not room:
                        active[pc] = 1
                    cond.room = room + 1
                    room = data.room
                    if not room:
                        active[pd] = 1
                    data.room = room + 1
                    ctx.tokens -= 2
                    popped = cond_queue.popleft(), data_queue.popleft()
                if popped is not None:
                    truth, value = popped
                    if tagged:
                        truth = truth[1]
                    target = out0 if truth else out1
                    if ctx.trace is not None:
                        ctx.trace.record(name, cycle, latency)
                    if latency:
                        pipeline.append((cycle + delay, target, value))
                    elif target is not None:
                        if target.room:
                            target.push_now(value)
                        else:
                            pipeline.append((cycle + 1, target, value))
                    fired += 1
            if fired:
                if cond_queue or data_queue or (pipeline and pipeline[0][0] <= cycle + 1):
                    active[me] = 1
                elif pipeline:
                    arm(me, pipeline[0][0])
            elif pipeline and pipeline[0][0] > cycle:
                arm(me, pipeline[0][0])
            return fired

        return step, pipeline, pipeline.clear

    def _make_merge(self, me, name, spec, latency):
        in0, in1 = self._in(name, "in0"), self._in(name, "in1")
        pipeline: deque = deque()
        out, staged, commit, drain, start = self._single_out(name, "out0", latency, pipeline)
        queue0 = in0.queue if in0 is not None else ()
        queue1 = in1.queue if in1 is not None else ()
        cap, delay = max(1, latency), max(1, latency - 1)
        ctx, active, arm, pending = self._ctx, self._active, self._arm, self._pending
        rr = 0  # round-robin count: an even count tries in0 first

        def step(cycle: int) -> int:
            nonlocal rr
            fired = 0
            if pipeline and pipeline[0][0] <= cycle:
                if out is None:
                    fired = drain()
                else:
                    room = out.room
                    if room:
                        if not staged:
                            pending.append(commit)
                        staged.append(pipeline.popleft()[1])
                        room -= 1
                        out.room = room
                        if room < out.low:
                            out.low = room
                        ctx.tokens += 1
                        fired = 1
            if len(pipeline) < cap:
                if rr & 1:
                    channel = in1 if queue1 else in0 if queue0 else None
                else:
                    channel = in0 if queue0 else in1 if queue1 else None
                if channel is not None:
                    rr += 1
                    room = channel.room
                    if not room:
                        active[channel.producer] = 1
                    channel.room = room + 1
                    ctx.tokens -= 1
                    value = channel.queue.popleft()
                    if not latency:
                        start(value)
                    else:
                        if ctx.trace is not None:
                            ctx.trace.record(name, cycle, latency)
                        pipeline.append((cycle + delay, value))
                    fired += 1
            if fired:
                if queue0 or queue1 or (pipeline and pipeline[0][0] <= cycle + 1):
                    active[me] = 1
                elif pipeline:
                    arm(me, pipeline[0][0])
            elif pipeline and pipeline[0][0] > cycle:
                arm(me, pipeline[0][0])
            return fired

        def reset() -> None:
            nonlocal rr
            pipeline.clear()
            rr = 0

        return step, pipeline, reset

    # -- rare component steps ------------------------------------------------
    #
    # The remaining types make about one step call in a hundred; they keep a
    # firing rule run by the generic ``_tick_fn`` step.

    def _make_buffer(self, me, name, spec, latency):
        channel = self._in(name, "in0")
        if channel is None:
            return _idle, None, None
        pipeline: deque = deque()
        outs = self._outs(name, ["out0"])
        start = self._start_fn(name, latency, pipeline, outs)
        pipe_cap = max(1, latency)

        def fire() -> int:
            if not channel.queue or len(pipeline) >= pipe_cap:
                return 0
            start(channel.pop())
            return 1

        step = self._tick_fn(me, fire, [channel], pipeline, self._drain_fn(pipeline, outs))
        return step, pipeline, pipeline.clear

    def _make_sink(self, me, name, spec, latency):
        channel = self._in(name, "in0")
        if channel is None:
            return _idle, None, None

        def fire() -> int:
            if channel.queue:
                channel.pop()
                return 1
            return 0

        return self._tick_fn(me, fire, [channel]), None, None

    def _make_cmerge(self, me, name, spec, latency):
        pipeline: deque = deque()
        start = self._start_fn(name, latency, pipeline)
        pipe_cap = max(1, latency)
        inputs = [self._in(name, "in0"), self._in(name, "in1")]
        out0 = self._out(name, "out0")
        index_channel = self._out(name, "index")
        state = {"rr": 0}

        def fire() -> int:
            if len(pipeline) >= pipe_cap:
                return 0
            rr = state["rr"] % 2
            for offset in range(2):
                position = (rr + offset) % 2
                channel = inputs[position]
                if channel is not None and channel.queue:
                    if index_channel is not None and not index_channel.room:
                        return 0
                    state["rr"] += 1
                    value = channel.pop()
                    start([(out0, value), (index_channel, position == 0)])
                    return 1
            return 0

        def reset() -> None:
            pipeline.clear()
            state["rr"] = 0

        step = self._tick_fn(me, fire, inputs, pipeline, self._drain_pairs_fn(pipeline))
        return step, pipeline, reset

    def _make_init(self, me, name, spec, latency):
        pipeline: deque = deque()
        outs = self._outs(name, ["out0"])
        start = self._start_fn(name, latency, pipeline, outs)
        pipe_cap = max(1, latency)
        channel = self._in(name, "in0")
        initial = bool(spec.param("value", False))
        state = {"initial_pending": True}

        def fire() -> int:
            if state["initial_pending"]:
                if len(pipeline) < pipe_cap:
                    state["initial_pending"] = False
                    start(initial)
                    return 1
                return 0
            if channel is None or not channel.queue or len(pipeline) >= pipe_cap:
                return 0
            start(bool(channel.pop()))
            return 1

        def reset() -> None:
            pipeline.clear()
            state["initial_pending"] = True

        step = self._tick_fn(me, fire, [channel], pipeline, self._drain_fn(pipeline, outs))
        return step, pipeline, reset

    def _make_pure(self, me, name, spec, latency):
        channel = self._in(name, "in0")
        if channel is None:
            return _idle, None, None
        pipeline: deque = deque()
        outs = self._outs(name, ["out0"])
        start = self._start_fn(name, latency, pipeline, outs)
        pipe_cap = max(1, latency)
        tagged = bool(spec.param("tagged"))
        fn_name = str(spec.param("fn"))
        env = self.env
        try:
            fn = env.function(fn_name)
        except Exception:
            fn = None
        if isinstance(fn, FunctionDef) and fn.arity == 1:
            fn = fn.fn

        def fire() -> int:
            if not channel.queue or len(pipeline) >= pipe_cap:
                return 0
            value = channel.pop()
            f = fn if fn is not None else env.function(fn_name)
            if tagged:
                tag, inner = value
                result = (tag, f(inner))
            else:
                result = f(value)
            start(result)
            return 1

        step = self._tick_fn(me, fire, [channel], pipeline, self._drain_fn(pipeline, outs))
        return step, pipeline, pipeline.clear

    def _make_reorg(self, me, name, spec, latency):
        return self._make_pure(me, name, spec, latency)

    def _make_constant(self, me, name, spec, latency):
        channel = self._in(name, "ctrl")
        if channel is None:
            return _idle, None, None
        pipeline: deque = deque()
        outs = self._outs(name, ["out0"])
        start = self._start_fn(name, latency, pipeline, outs)
        pipe_cap = max(1, latency)
        value = spec.param("value", 0)

        def fire() -> int:
            if not channel.queue or len(pipeline) >= pipe_cap:
                return 0
            channel.pop()
            start(value)
            return 1

        step = self._tick_fn(me, fire, [channel], pipeline, self._drain_fn(pipeline, outs))
        return step, pipeline, pipeline.clear

    def _make_store(self, me, name, spec, latency):
        addr, data = self._in(name, "addr"), self._in(name, "data")
        if addr is None or data is None:
            return _idle, None, None
        pipeline: deque = deque()
        outs = self._outs(name, ["done"])
        start = self._start_fn(name, latency, pipeline, outs)
        pipe_cap = max(1, latency)
        tagged = bool(spec.param("tagged"))
        pair = [addr, data]
        array = str(spec.param("array", ""))
        if not array:
            stores = self.kernel.loop.stores
            array = stores[0].array if len(stores) == 1 else ""
        ctx = self._ctx

        def fire() -> int:
            if len(pipeline) >= pipe_cap:
                return 0
            if tagged:
                popped = _pop_aligned(pair)
                if popped is None:
                    return 0
                (_, addr_v), (_, data_v) = popped
            else:
                if not addr.queue or not data.queue:
                    return 0
                addr_v, data_v = addr.pop(), data.pop()
            if not array:
                raise SimulationError("store component without an 'array' parameter")
            ctx.arrays[array].flat[int(addr_v)] = data_v
            ctx.stats.store_history.append((array, int(addr_v), data_v))
            start(())
            return 1

        step = self._tick_fn(me, fire, pair, pipeline, self._drain_fn(pipeline, outs))
        return step, pipeline, pipeline.clear

    def _make_tagger(self, me, name, spec, latency):
        enter_ports = [p for p in spec.in_ports if p.startswith("enter")] or ["in0"]
        return_ports = [p for p in spec.in_ports if p.startswith("ret")] or ["in1"]
        tag_outs = [p for p in spec.out_ports if p.startswith("tag")] or ["out0"]
        exit_outs = [p for p in spec.out_ports if p.startswith("exit")] or ["out1"]
        enters = [self._in(name, p) for p in enter_ports]
        outs = [self._out(name, p) for p in tag_outs]
        return_chs = [self._in(name, p) for p in return_ports]
        exits = [self._out(name, p) for p in exit_outs]
        n_returns = len(return_ports)
        tags = int(spec.param("tags", 4))
        free = list(range(tags))
        order: deque = deque()
        returns: dict = {}

        def fire() -> int:
            fired = 0
            if (
                free
                and all(c is not None and c.queue for c in enters)
                and all(c is not None and c.room for c in outs)
            ):
                tag = free.pop(0)
                order.append(tag)
                for channel, out in zip(enters, outs):
                    out.push((tag, channel.pop()))
                fired += 1
            for index, channel in enumerate(return_chs):
                if channel is not None and channel.queue:
                    tag, value = channel.pop()
                    returns.setdefault(tag, {})[index] = value
                    fired += 1
            if order:
                oldest = order[0]
                slots = returns.get(oldest, {})
                if len(slots) == n_returns and all(
                    c is not None and c.room for c in exits
                ):
                    for index, out in enumerate(exits):
                        out.push(slots[index])
                    order.popleft()
                    free.append(oldest)
                    del returns[oldest]
                    fired += 1
            return fired

        def reset() -> None:
            free[:] = range(tags)
            order.clear()
            returns.clear()

        return self._tick_fn(me, fire, [], sticky=True), None, reset

    def _make_driver(self, me, name, spec, latency):
        outs = [self._out(name, port) for port in spec.out_ports]
        kernel = self.kernel
        outer_points = self.outer_points
        total = len(outer_points)
        pairs = list(zip(kernel.loop.state, outs))
        init = kernel.init
        sequential = kernel.sequential_outer
        collector_state = next(iter(self._collector_states.values()), None)
        ctx = self._ctx
        state = {"next_point": 0}

        def fire() -> int:
            index = state["next_point"]
            if index >= total:
                return 0
            if sequential and collector_state is not None and collector_state["received"] < index:
                return 0
            for channel in outs:
                if channel is None or not channel.room:
                    return 0
            outer_env = outer_points[index]
            arrays = ctx.arrays
            for var, channel in pairs:
                channel.push(eval_expr(init[var], outer_env, arrays))
            state["next_point"] = index + 1
            return 1

        def reset() -> None:
            state["next_point"] = 0

        return self._tick_fn(me, fire, [], sticky=True), None, reset

    def _make_collector(self, me, name, spec, latency):
        channels = [self._in(name, port) for port in spec.in_ports]
        state = self._collector_states[name]

        def reset() -> None:
            state["received"] = 0

        if any(c is None for c in channels):
            return _idle, None, reset
        kernel = self.kernel
        outer_points = self.outer_points
        result_vars = kernel.loop.result_vars
        epilogue = kernel.epilogue
        drivers = self._drivers
        active = self._active
        ctx = self._ctx

        def fire() -> int:
            for channel in channels:
                if not channel.queue:
                    return 0
            values = [c.pop() for c in channels]
            index = state["received"]
            outer_env = dict(outer_points[index])
            for var, value in zip(result_vars, values):
                outer_env[var] = value
            arrays = ctx.arrays
            stats = ctx.stats
            for store in epilogue:
                addr = int(eval_expr(store.index, outer_env, arrays))
                value = eval_expr(store.value, outer_env, arrays)
                arrays[store.array].flat[addr] = value
                stats.store_history.append((store.array, addr, value))
            state["received"] = index + 1
            stats.results_collected = state["received"]
            for driver in drivers:
                active[driver] = 1
            return 1

        return self._tick_fn(me, fire, channels), None, reset

    # -- running --------------------------------------------------------------

    def retarget(self, capacities: Mapping[Edge, int] | None) -> int:
        """Incremental recompilation for a capacity-only change.

        Updates just the channels whose capacity differs; everything else —
        step closures, evaluation order, resolved functions — is reused.
        Returns the number of channels touched.
        """
        caps = self._base_capacities if capacities is None else capacities
        changed = 0
        for channel in self._channels:
            cap = caps.get((channel.src, channel.dst), 1)
            if cap != channel.cap:
                channel.cap = cap
                changed += 1
        return changed

    def _reset(self, capacities: Mapping[Edge, int] | None) -> int:
        retargeted = self.retarget(capacities)
        for channel in self._channels:
            channel.queue.clear()
            channel.staged.clear()
            channel.room = channel.low = channel.cap
        for reset in self._resets:
            reset()
        self._active[:] = b"\x01" * len(self._active)
        self._pending.clear()
        self._timers.clear()
        self._armed[:] = [-1] * len(self._armed)
        self._ctx.tokens = 0
        return retargeted

    def run(
        self,
        arrays: dict,
        *,
        capacities: Mapping[Edge, int] | None = None,
        max_cycles: int = 5_000_000,
        deadlock_window: int = 10_000,
        trace=None,
    ) -> SimStats:
        """Execute one stimulus (an arrays dict) against the compiled circuit.

        *capacities* overrides the compile-time buffer placement for this run
        (an incremental retarget); ``None`` restores the compile-time one.
        """
        with obs.span(
            "sim:run",
            kernel=self.kernel.name,
            nodes=len(self.graph.nodes),
        ) as sp:
            stats, steps = self._run_once(
                arrays, capacities, max_cycles, deadlock_window, trace
            )
            sp.set(cycles=stats.cycles, tokens_fired=stats.tokens_fired)
        obs.count("sim.runs")
        obs.count("sim.cycles", stats.cycles)
        obs.count("sim.steps", steps)
        return stats

    def run_batch(self, configs: Sequence[BatchRun | Mapping]) -> list[SimStats]:
        """Execute many stimuli/placement variants without re-lowering."""
        runs = [
            config if isinstance(config, BatchRun) else BatchRun(**config)
            for config in configs
        ]
        with obs.span(
            "sim:run_batch", kernel=self.kernel.name, runs=len(runs)
        ) as sp:
            results = []
            cycles = 0
            steps = 0
            for config in runs:
                stats, run_steps = self._run_once(
                    config.arrays,
                    config.capacities,
                    config.max_cycles,
                    config.deadlock_window,
                    config.trace,
                )
                cycles += stats.cycles
                steps += run_steps
                results.append(stats)
            sp.set(cycles=cycles)
        obs.count("sim.runs", len(runs))
        obs.count("sim.cycles", cycles)
        obs.count("sim.steps", steps)
        return results

    def _run_once(
        self, arrays, capacities, max_cycles, deadlock_window, trace
    ) -> tuple[SimStats, int]:
        """One run; returns its stats and the number of node-step calls."""
        retargeted = self._reset(capacities)
        if retargeted:
            obs.count("sim.compiled.retargets", retargeted)
        ctx = self._ctx
        ctx.arrays = arrays
        ctx.trace = trace
        ctx.stats = stats = SimStats()

        active = self._active
        nodes = range(len(active))
        steps = self._steps
        pending = self._pending
        due_at = self._timers.pop
        pipelines = self._pipelines
        expected = self._expected_results
        calls = 0
        idle = 0
        cycle = 0
        completed = None
        tokens_fired = 0
        peak = 0
        while cycle < max_cycles:
            ctx.cycle = cycle
            due = due_at(cycle, None)
            if due is not None:
                for i in due:
                    active[i] = 1
            fired = 0
            for i in compress(nodes, active):
                active[i] = 0
                fired += steps[i](cycle)
                calls += 1
            if pending:
                for queue, staged, consumer in pending:
                    queue.extend(staged)
                    staged.clear()
                    active[consumer] = 1
                pending.clear()
            cycle += 1
            if completed is not None:
                # Drain phase (matches the interpreter): all results are in,
                # but in-body stores may still sit in operator pipelines.
                # Step for side effects until quiescent (nothing fired, no
                # pipeline still holding a token); reported measurements
                # stay frozen at the completion cycle.
                if fired == 0 and not any(pipelines):
                    return stats, calls
                continue
            if ctx.tokens > peak:
                peak = ctx.tokens
            if stats.results_collected >= expected:
                completed = cycle
                stats.cycles = cycle
                stats.tokens_fired = tokens_fired
                stats.peak_in_flight = peak
                stats.channel_peaks = {
                    (channel.src, channel.dst): channel.cap - channel.low
                    for channel in self._channels
                }
                continue
            if fired == 0:
                idle += 1
                if idle > deadlock_window:
                    raise DeadlockError(
                        f"no activity for {deadlock_window} cycles "
                        f"({stats.results_collected}/{expected} results)",
                        cycle=cycle,
                    )
            else:
                idle = 0
                tokens_fired += fired
        raise SimulationError(f"simulation exceeded {max_cycles} cycles")


def compile_circuit(
    graph: ExprHigh,
    env: Environment,
    kernel: Kernel,
    *,
    capacities: Mapping[Edge, int] | None = None,
    latency_of: Callable[[str, dict], int] | None = None,
) -> CompiledCircuit:
    """Lower *graph* into a reusable :class:`CompiledCircuit`.

    Arguments mirror :class:`~repro.sim.cycle.CycleSimulator` minus the
    per-run ones (arrays, trace, cycle limits), which move to
    :meth:`CompiledCircuit.run`.
    """
    with obs.span(
        "sim:compile", kernel=kernel.name, nodes=len(graph.nodes)
    ):
        circuit = CompiledCircuit(
            graph, env, kernel, capacities=capacities, latency_of=latency_of
        )
    obs.count("sim.compiles")
    return circuit
