"""Netlist interop: external exchange formats for dataflow graphs.

Two structural formats round-trip losslessly through the indexed graph
core (:class:`repro.core.ExprHigh`):

* :mod:`~repro.interop.netlist` — a JSON netlist schema
  (``graphiti-netlist`` version 1) with canonical, byte-deterministic
  serialisation;
* :mod:`~repro.interop.verilog` — a small structural-Verilog subset
  (module / wire / instance, with ``(* in = "...", out = "..." *)``
  attributes carrying the ordered port lists).

:mod:`~repro.interop.corpus` generates seeded random loop-nest programs on
the HLS mini-IR and fuzzes the whole transform→verify→simulate flow,
turning the paper's bicg-bug story into a general differential tester.

:func:`load_graph` / :func:`save_graph` dispatch on file extension
(``.json`` / ``.v`` / ``.dot``) and back ``Session.load_graph`` /
``Session.export_graph``.

The exports are lazy (see :mod:`repro._lazy`): importing this package
loads none of them, so reading or writing a netlist never loads the
fuzzer's mini-IR or numpy.
"""

from .._lazy import lazy_exports

#: Each public name and the module that defines it.
_EXPORTS = {
    "CorpusCase": ".corpus",
    "case_seeds": ".corpus",
    "corpus_manifest": ".corpus",
    "generate_case": ".corpus",
    "generate_program": ".corpus",
    "run_fuzz_case": ".corpus",
    "FORMATS": ".formats",
    "graph_to_text": ".formats",
    "infer_format": ".formats",
    "load_graph": ".formats",
    "save_graph": ".formats",
    "text_to_graph": ".formats",
    "dumps_netlist": ".netlist",
    "graph_to_netlist": ".netlist",
    "loads_netlist": ".netlist",
    "netlist_to_graph": ".netlist",
    "dump_verilog": ".verilog",
    "parse_verilog": ".verilog",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
