"""HLS substrates: mini-IR, front ends, baselines, technology model.

The exports are lazy (see :mod:`repro._lazy`): importing this package,
or :mod:`repro.hls.marks` for a hand-made :class:`LoopMark`, loads
neither the mini-IR nor numpy.  Each name imports its defining module on
first access.
"""

from .._lazy import lazy_exports

#: Each public name and the module that defines it.
_EXPORTS = {
    "AreaReport": ".area",
    "analyze": ".area",
    "latency_of": ".area",
    "BufferPlacement": ".buffers",
    "place_buffers": ".buffers",
    "CompiledKernel": ".frontend",
    "CompiledProgram": ".frontend",
    "compile_kernel": ".frontend",
    "compile_program": ".frontend",
    "BinOp": ".ir",
    "Const": ".ir",
    "DoWhile": ".ir",
    "ExecutionTrace": ".ir",
    "Kernel": ".ir",
    "Load": ".ir",
    "OuterLoop": ".ir",
    "Program": ".ir",
    "Select": ".ir",
    "StoreOp": ".ir",
    "UnOp": ".ir",
    "Var": ".ir",
    "eval_expr": ".ir",
    "run_program": ".ir",
    "LoopMark": ".marks",
    "transform_out_of_order": ".ooo",
    "StaticScheduleReport": ".static_sched",
    "schedule_length": ".static_sched",
    "schedule_program": ".static_sched",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
