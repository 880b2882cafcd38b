"""The executable-docs runner: fence extraction and execution semantics."""

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "run_doc_examples.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("run_doc_examples", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["run_doc_examples"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("run_doc_examples", None)


class TestExtraction:
    def test_python_fence_is_extracted_with_line_number(self, tool):
        text = "intro\n\n```python\nx = 1\n```\n"
        blocks = tool.extract_blocks(text)
        assert len(blocks) == 1
        assert blocks[0].line == 3
        assert blocks[0].source == "x = 1\n"
        assert blocks[0].is_python and blocks[0].runnable

    def test_non_python_fences_are_not_python(self, tool):
        text = "```console\n$ ls\n```\n\n```\nplain\n```\n"
        blocks = tool.extract_blocks(text)
        assert len(blocks) == 2
        assert not any(block.is_python for block in blocks)

    def test_no_run_tag_marks_block_unrunnable(self, tool):
        text = "```python no-run\nimport nonexistent_module\n```\n"
        (block,) = tool.extract_blocks(text)
        assert block.is_python
        assert not block.runnable

    def test_indented_fence_is_dedented(self, tool):
        text = "- item:\n\n  ```python\n  x = 1\n  if x:\n      x += 1\n  ```\n"
        (block,) = tool.extract_blocks(text)
        assert block.source == "x = 1\nif x:\n    x += 1\n"

    def test_multiple_blocks_keep_document_order(self, tool):
        text = "```python\na = 1\n```\nmiddle\n```python\nb = a + 1\n```\n"
        blocks = tool.extract_blocks(text)
        assert [block.line for block in blocks] == [1, 5]


class TestExecution:
    def test_blocks_share_a_namespace_per_file(self, tool, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```python\nvalue = 21\n```\n\n```python\nassert value * 2 == 42\n```\n")
        ran, skipped, failures = tool.run_file(doc, verbose=False)
        assert (ran, skipped, failures) == (2, 0, [])

    def test_failure_reports_file_and_fence_line(self, tool, tmp_path, capsys):
        doc = tmp_path / "bad.md"
        doc.write_text("fine\n\n```python\nraise ValueError('boom')\n```\n")
        ran, skipped, failures = tool.run_file(doc, verbose=False)
        assert ran == 0
        assert failures == [f"{doc}:3"]
        err = capsys.readouterr().err
        assert "boom" in err
        assert "line 4" in err  # traceback points into the markdown file

    def test_no_run_blocks_are_skipped(self, tool, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```python no-run\nraise RuntimeError('never')\n```\n")
        ran, skipped, failures = tool.run_file(doc, verbose=False)
        assert (ran, skipped, failures) == (0, 1, [])

    def test_main_exit_codes(self, tool, tmp_path):
        good = tmp_path / "good.md"
        good.write_text("```python\nassert True\n```\n")
        bad = tmp_path / "bad.md"
        bad.write_text("```python\nassert False\n```\n")
        assert tool.main([str(good), "-q"]) == 0
        assert tool.main([str(good), str(bad), "-q"]) == 1
        assert tool.main([str(tmp_path / "missing.md")]) == 2


class TestCliLines:
    def test_console_lines_are_extracted_with_line_numbers(self, tool):
        text = (
            "```console\n"
            "$ python -m repro.cli refine --jobs 2   # certified\n"
            "$ ls\n"
            "$ python -m repro.cli serve --port 8750 &\n"
            "```\n"
            "```sh\n$ python -m repro.cli nope\n```\n"
        )
        assert tool.cli_lines(text) == [
            (2, ["refine", "--jobs", "2"]),
            (4, ["serve", "--port", "8750"]),
        ]

    def test_valid_line_parses(self, tool, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```console\n$ python -m repro.cli refine --rule mux_combine\n```\n")
        assert tool.check_cli_file(doc, verbose=False) == (1, [])

    def test_removed_subcommand_fails_with_file_and_line(self, tool, tmp_path, capsys):
        doc = tmp_path / "doc.md"
        doc.write_text("intro\n\n```console\n$ python -m repro.cli verify\n```\n")
        assert tool.check_cli_file(doc, verbose=False) == (0, [f"{doc}:4"])
        assert "invalid choice: 'verify'" in capsys.readouterr().err

    def test_unknown_flag_fails(self, tool, tmp_path, capsys):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "```console\n$ python -m repro.cli refine --cert-format binary\n```\n"
        )
        assert tool.check_cli_file(doc, verbose=False) == (0, [f"{doc}:2"])
        assert "unrecognized arguments: --cert-format" in capsys.readouterr().err

    def test_main_fails_on_a_bad_command_line(self, tool, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```console\n$ python -m repro.cli bench\n```\n")
        assert tool.main([str(doc), "-q"]) == 1
