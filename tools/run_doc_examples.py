#!/usr/bin/env python3
"""Execute every fenced ``python`` block in the project's documentation,
and parse every documented ``repro`` command line.

The docs are part of the tested surface: a code example that drifts from
the real API is worse than no example, so CI runs this tool over README.md
and docs/*.md and fails when any block raises or any command line no
longer parses.

Rules:

* only fences whose info string starts with ``python`` run; other
  languages (``console``, ``text``, dot snippets …) are ignored;
* a fence tagged ``python no-run`` is extracted but not executed — for
  illustrative fragments that are deliberately incomplete;
* all blocks in one file share a namespace, in order, so later examples
  can build on earlier ones (like a reader following the page top to
  bottom);
* ``<repo>/src`` is prepended to ``sys.path``, so examples ``import
  repro`` exactly as the README tells users to;
* failures are reported as ``file:line`` of the opening fence, with the
  traceback pointing at real line numbers inside the markdown file;
* every ``$ python -m repro.cli …`` line in a ``console`` fence is parsed
  (never run) with :func:`repro.cli.build_parser`, after dropping a
  trailing ``# comment`` and a trailing ``&``; a line that argparse
  rejects — a removed subcommand, an unknown flag — is reported as
  ``file:line`` of the command itself.

Usage::

    python tools/run_doc_examples.py                 # README.md + docs/*.md
    python tools/run_doc_examples.py docs/api.md     # one file
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shlex
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CLI_PREFIX = "$ python -m repro.cli"


@dataclass
class Block:
    """One fenced code block: where it opened, its info string, its source."""

    line: int  # 1-based line number of the opening ``` fence
    info: str  # the fence info string, e.g. "python" or "python no-run"
    source: str

    @property
    def is_python(self) -> bool:
        return self.info.split()[:1] == ["python"]

    @property
    def runnable(self) -> bool:
        return self.is_python and "no-run" not in self.info.split()


def extract_blocks(text: str) -> list[Block]:
    """All fenced code blocks of a markdown document, any language.

    Handles indented fences (inside list items) by stripping the opening
    fence's indentation from every line of the block.
    """
    blocks: list[Block] = []
    open_line = 0
    info = ""
    indent = ""
    lines: list[str] = []
    in_block = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not in_block:
            if stripped.startswith("```"):
                in_block = True
                open_line = lineno
                info = stripped.lstrip("`").strip()
                indent = line[: len(line) - len(line.lstrip())]
                lines = []
        else:
            if stripped == "```":
                blocks.append(Block(open_line, info, "\n".join(lines) + "\n"))
                in_block = False
            else:
                lines.append(line[len(indent):] if line.startswith(indent) else line)
    return blocks


def run_file(path: Path, verbose: bool = True) -> tuple[int, int, list[str]]:
    """Execute a file's runnable blocks; ``(ran, skipped, failures)``."""
    text = path.read_text()
    namespace: dict = {"__name__": "__main__", "__file__": str(path)}
    ran = skipped = 0
    failures: list[str] = []
    for block in extract_blocks(text):
        if not block.is_python:
            continue
        if not block.runnable:
            skipped += 1
            continue
        location = f"{path}:{block.line}"
        # Pad so tracebacks report line numbers within the markdown file
        # (the code starts on the line after the opening fence).
        padded = "\n" * block.line + block.source
        try:
            code = compile(padded, str(path), "exec")
            exec(code, namespace)
        except Exception:
            failures.append(location)
            print(f"FAIL {location}", file=sys.stderr)
            traceback.print_exc()
        else:
            ran += 1
            if verbose:
                print(f"ok   {location}")
    return ran, skipped, failures


def cli_lines(text: str) -> list[tuple[int, list[str]]]:
    """``(line, argv)`` for every ``$ python -m repro.cli`` console line."""
    found = []
    for block in extract_blocks(text):
        if block.info.split()[:1] != ["console"]:
            continue
        for offset, line in enumerate(block.source.splitlines(), start=1):
            line = line.strip()
            if line != CLI_PREFIX and not line.startswith(CLI_PREFIX + " "):
                continue
            argv = shlex.split(line[len(CLI_PREFIX):], comments=True)
            if argv and argv[-1] == "&":
                argv.pop()
            found.append((block.line + offset, argv))
    return found


def check_cli_file(path: Path, verbose: bool = True) -> tuple[int, list[str]]:
    """Parse a file's documented command lines; ``(parsed, failures)``."""
    from repro.cli import build_parser

    parsed = 0
    failures: list[str] = []
    for line, argv in cli_lines(path.read_text()):
        location = f"{path}:{line}"
        errors = io.StringIO()
        try:
            with contextlib.redirect_stderr(errors):
                build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code:
                failures.append(location)
                message = errors.getvalue().strip().splitlines()[-1:]
                print(f"FAIL {location}: repro {shlex.join(argv)}", file=sys.stderr)
                print(f"     {''.join(message)}", file=sys.stderr)
                continue
        parsed += 1
        if verbose:
            print(f"ok   {location}: repro {shlex.join(argv)}")
    return parsed, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="markdown files to execute (default: README.md and docs/*.md)",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="only report failures")
    args = parser.parse_args(argv)

    paths = args.paths or [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)

    total_ran = total_skipped = total_parsed = 0
    all_failures: list[str] = []
    for path in paths:
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2
        ran, skipped, failures = run_file(path, verbose=not args.quiet)
        parsed, cli_failures = check_cli_file(path, verbose=not args.quiet)
        total_ran += ran
        total_skipped += skipped
        total_parsed += parsed
        all_failures.extend(failures + cli_failures)

    summary = (
        f"{total_ran} blocks executed from {len(paths)} files"
        f" ({total_skipped} tagged no-run), {total_parsed} command lines parsed"
    )
    if all_failures:
        print(f"{summary}; {len(all_failures)} FAILED: {', '.join(all_failures)}")
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
