"""The dataflow component library (Table 1 of the paper).

This package provides:

* module builders giving each component its queue-based semantics;
* :func:`default_environment` assembling the standard environment ε;
* :class:`NodeSpec` factories with the canonical ExprHigh port names, so
  graphs built by hand, by the dot parser, and by the HLS front end all
  agree on port naming;
* component metadata used by the rewrite engine (effectfulness, steering
  class).
"""

from __future__ import annotations

import functools

from ..core.environment import Environment
from ..core.exprhigh import NodeSpec
from .base import build_buffer, build_fork, build_join, build_sink, build_source, build_split
from .compute import build_constant, build_operator, build_pure, build_reorg
from .memory import build_store, store_history
from .steering import build_branch, build_cmerge, build_init, build_merge, build_mux
from .tagging import build_tagger

__all__ = [
    "default_environment",
    "store_history",
    "EFFECTFUL_TYPES",
    "fork",
    "join",
    "split",
    "buffer",
    "sink",
    "source",
    "mux",
    "branch",
    "merge",
    "cmerge",
    "init",
    "operator",
    "pure",
    "reorg",
    "constant",
    "tagger",
    "store",
]

#: Component types whose execution has side effects beyond their ports.
#: The purity phase of the rewrite engine refuses to absorb these into a
#: Pure component, which is exactly what blocks the unsound bicg rewrite.
EFFECTFUL_TYPES = frozenset({"Store"})

_BUILDERS = {
    "Fork": build_fork,
    "Join": build_join,
    "Split": build_split,
    "Buffer": build_buffer,
    "Sink": build_sink,
    "Source": build_source,
    "Mux": build_mux,
    "Branch": build_branch,
    "Merge": build_merge,
    "CMerge": build_cmerge,
    "Init": build_init,
    "Operator": build_operator,
    "Pure": build_pure,
    "Reorg": build_reorg,
    "Constant": build_constant,
    "Tagger": build_tagger,
    "Store": build_store,
}


def default_environment(capacity: int | None = None) -> Environment:
    """The standard environment with every library component registered.

    Every call returns a fresh copy of one registry built on first use:
    builders and function definitions are immutable, and every rule
    obligation asks for an environment of its own.
    """
    return _standard_environment().with_capacity(capacity)


@functools.lru_cache(maxsize=None)
def _standard_environment() -> Environment:
    env = Environment()
    for name, builder in _BUILDERS.items():
        env.register(name, builder)
    _register_standard_functions(env)
    return env


def _register_standard_functions(env: Environment) -> None:
    """Arithmetic used by examples, tests, and the GCD running example."""
    env.register_function("add", lambda a, b: a + b, 2)
    env.register_function("sub", lambda a, b: a - b, 2)
    env.register_function("mul", lambda a, b: a * b, 2)
    env.register_function("mod", lambda a, b: a % b if b else 0, 2)
    env.register_function("lt", lambda a, b: a < b, 2)
    env.register_function("eq", lambda a, b: a == b, 2)
    env.register_function("ne", lambda a, b: a != b, 2)
    env.register_function("ne0", lambda a: a != 0, 1)
    env.register_function("eq0", lambda a: a == 0, 1)
    env.register_function("id", lambda a: a, 1)
    env.register_function("incr", lambda a: a + 1, 1)
    # One GCD step on an (a, b) pair, with the continue condition — the
    # function f ∈ T → T × BOOL of the section 5 loop rewrite.
    env.register_function(
        "gcd_step", lambda ab: ((ab[1], ab[0] % ab[1] if ab[1] else 0), (ab[0] % ab[1] if ab[1] else 0) != 0), 1
    )


# -- NodeSpec factories -------------------------------------------------------


def fork(n: int = 2, **params: object) -> NodeSpec:
    """A Fork with *n* outputs (``in0`` → ``out0..out{n-1}``)."""
    return NodeSpec.make("Fork", ["in0"], [f"out{i}" for i in range(n)], {"n": n, **params})


def join(**params: object) -> NodeSpec:
    """A Join synchronising ``in0``/``in1`` into a tuple on ``out0``."""
    return NodeSpec.make("Join", ["in0", "in1"], ["out0"], params)


def split(**params: object) -> NodeSpec:
    """A Split destructuring a tuple on ``in0`` into ``out0``/``out1``."""
    return NodeSpec.make("Split", ["in0"], ["out0", "out1"], params)


def buffer(slots: int = 1, **params: object) -> NodeSpec:
    return NodeSpec.make("Buffer", ["in0"], ["out0"], {"slots": slots, **params})


def sink(**params: object) -> NodeSpec:
    return NodeSpec.make("Sink", ["in0"], [], params)


def source(**params: object) -> NodeSpec:
    return NodeSpec.make("Source", [], ["out0"], params)


def mux(**params: object) -> NodeSpec:
    """A Mux: ``cond`` selects ``in0`` (true) or ``in1`` (false)."""
    return NodeSpec.make("Mux", ["cond", "in0", "in1"], ["out0"], params)


def branch(**params: object) -> NodeSpec:
    """A Branch: ``cond`` steers ``in0`` to ``out0`` (true) or ``out1``."""
    return NodeSpec.make("Branch", ["cond", "in0"], ["out0", "out1"], params)


def merge(**params: object) -> NodeSpec:
    """A nondeterministic two-input Merge."""
    return NodeSpec.make("Merge", ["in0", "in1"], ["out0"], params)


def cmerge(**params: object) -> NodeSpec:
    """A Control Merge: first token wins, its side reported on ``index``."""
    return NodeSpec.make("CMerge", ["in0", "in1"], ["out0", "index"], params)


def init(value: bool = False, **params: object) -> NodeSpec:
    """An Init queue pre-loaded with one boolean token."""
    return NodeSpec.make("Init", ["in0"], ["out0"], {"value": value, **params})


def operator(op: str, arity: int, **params: object) -> NodeSpec:
    """An Operator applying the registered function *op* to *arity* inputs."""
    in_ports = [f"in{i}" for i in range(arity)]
    return NodeSpec.make("Operator", in_ports, ["out0"], {"op": op, **params})


def pure(fn: str, **params: object) -> NodeSpec:
    """A Pure component applying the registered unary function *fn*."""
    return NodeSpec.make("Pure", ["in0"], ["out0"], {"fn": fn, **params})


def reorg(fn: str, **params: object) -> NodeSpec:
    """A Reorg: tuple restructuring per the port type signatures (Table 1)."""
    return NodeSpec.make("Reorg", ["in0"], ["out0"], {"fn": fn, **params})


def constant(value: object, **params: object) -> NodeSpec:
    return NodeSpec.make("Constant", ["ctrl"], ["out0"], {"value": value, **params})


def tagger(tags: int = 4, **params: object) -> NodeSpec:
    """The Tagger/Untagger pair: ``in0``→``out0`` tags, ``in1``→``out1`` reorders."""
    return NodeSpec.make("Tagger", ["in0", "in1"], ["out0", "out1"], {"tags": tags, **params})


def store(**params: object) -> NodeSpec:
    """An effectful Store: synchronises ``addr``/``data``, emits ``done``."""
    return NodeSpec.make("Store", ["addr", "data"], ["done"], params)
