"""File-level netlist I/O: pick a format by extension, then (de)serialise.

:func:`load_graph` / :func:`save_graph` back ``Session.load_graph`` /
``Session.export_graph``.
"""

from __future__ import annotations

import os

from ..errors import NetlistError
from .netlist import dumps_netlist, loads_netlist
from .verilog import dump_verilog, parse_verilog

FORMATS = ("json", "verilog", "dot")

_EXTENSIONS = {".json": "json", ".v": "verilog", ".sv": "verilog", ".dot": "dot"}


def infer_format(path: str | os.PathLike) -> str:
    """Map a file extension to a netlist format name.

    Raises :class:`~repro.errors.NetlistError` for unknown extensions.
    """
    ext = os.path.splitext(os.fspath(path))[1].lower()
    fmt = _EXTENSIONS.get(ext)
    if fmt is None:
        raise NetlistError(
            f"cannot infer netlist format from {path!r}; expected one of "
            f"{sorted(_EXTENSIONS)} (or pass format= explicitly)"
        )
    return fmt


def graph_to_text(graph, fmt: str, name: str = "graph") -> str:
    """Serialise *graph* in *fmt* (one of :data:`FORMATS`)."""
    if fmt == "json":
        return dumps_netlist(graph, name=name)
    if fmt == "verilog":
        return dump_verilog(graph, name=name)
    if fmt == "dot":
        from ..dot import print_dot

        return print_dot(graph)
    raise NetlistError(f"unknown netlist format {fmt!r}; expected one of {list(FORMATS)}")


def text_to_graph(text: str, fmt: str):
    """Parse *text* in *fmt* (one of :data:`FORMATS`) into an ExprHigh."""
    if fmt == "json":
        return loads_netlist(text)
    if fmt == "verilog":
        _, graph = parse_verilog(text)
        return graph
    if fmt == "dot":
        from ..dot import parse_dot

        return parse_dot(text)
    raise NetlistError(f"unknown netlist format {fmt!r}; expected one of {list(FORMATS)}")


def save_graph(graph, path: str | os.PathLike, fmt: str | None = None, name: str = "graph") -> str:
    """Write *graph* to *path*, inferring the format from the extension.

    Returns the format used.
    """
    fmt = fmt or infer_format(path)
    text = graph_to_text(graph, fmt, name=name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return fmt


def load_graph(path: str | os.PathLike, fmt: str | None = None):
    """Read a dataflow graph from *path*, inferring format from extension."""
    fmt = fmt or infer_format(path)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return text_to_graph(text, fmt)
