"""The CLI exit-code contract: invalid arguments uniformly exit 2.

v1.7 fixed two drifts documented in the exit-code table of
``docs/api.md``: ``refine --rule`` with an unknown factory exited 1 via a
string ``SystemExit``, and a malformed ``--stimuli`` archive escaped as
an uncaught traceback.  Both, and the new ``serve`` flags, now follow the
table.
"""

import numpy as np
import pytest

from repro.cli import main


def test_unknown_rule_exits_2(capsys):
    assert main(["refine", "--rule", "no_such_rule"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err and "no_such_rule" in err


def test_missing_stimuli_file_exits_2(capsys):
    assert main(["sim", "matvec", "--stimuli", "/no/such/file.npz"]) == 2
    assert "--stimuli" in capsys.readouterr().err


def test_corrupt_stimuli_archive_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"this is not a zip archive")
    assert main(["sim", "matvec", "--stimuli", str(bad)]) == 2
    assert "--stimuli" in capsys.readouterr().err


def test_npy_instead_of_npz_exits_2(tmp_path, capsys):
    plain = tmp_path / "plain.npy"
    np.save(plain, np.zeros(3))
    assert main(["sim", "matvec", "--stimuli", str(plain)]) == 2
    assert "not an .npz archive" in capsys.readouterr().err


def test_stimuli_with_unknown_array_exits_2(tmp_path, capsys):
    archive = tmp_path / "wrong.npz"
    np.savez(archive, not_an_array=np.zeros(3))
    assert main(["sim", "matvec", "--stimuli", str(archive)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--workers", "0"],
        ["serve", "--workers", "-2"],
        ["serve", "--port", "70000"],
        ["serve", "--port", "-1"],
        ["serve", "--max-pending", "0"],
        ["serve", "--job-timeout", "0"],
        ["serve", "--job-timeout", "-5"],
        ["serve", "--jobs", "0"],
    ],
)
def test_serve_flag_validation_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_benchmark_exits_2(capsys):
    assert main(["bench", "definitely-not-a-benchmark"]) == 2
    assert main(["sim", "definitely-not-a-benchmark"]) == 2


def test_unrecognised_strategy_flag_still_exits_2(tmp_path, capsys):
    # --strategy was removed with the saturate backend; argparse now
    # rejects it as an unrecognised argument, still with exit code 2.
    dot = tmp_path / "x.dot"
    dot.write_text("digraph {}")
    with pytest.raises(SystemExit) as exc:
        main(
            ["transform", str(dot), "--mux", "m", "--branch", "b",
             "--init", "i", "--cond-fork", "cf", "--strategy", "fixpoint"]
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --strategy" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["verify"], "invalid choice: 'verify'"),
        (["refine", "--cert-format", "binary"], "unrecognized arguments: --cert-format"),
        (["refine", "--dump-certs", "certs"], "unrecognized arguments: --dump-certs"),
        (["refine", "--load-certs", "certs"], "unrecognized arguments: --load-certs"),
    ],
)
def test_removed_obligation_cli_exits_2(argv, message, capsys):
    # `repro verify` and the certificate-file flags were removed: `refine`
    # is the one obligation subcommand, and the result cache
    # (`--cache-dir`) is the one certificate store.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["sim", "matvec", "--flow", "bogus"], "invalid choice: 'bogus'"),
        (["export", "matvec", "-o", "x.json", "--flow", "bogus"], "invalid choice: 'bogus'"),
        (["sim", "matvec", "--backend", "interp"], "unrecognized arguments: --backend"),
        (["fuzz", "--backend", "interp"], "unrecognized arguments: --backend"),
    ],
)
def test_flow_and_removed_backend_rejected_up_front(argv, message, tmp_path, capsys):
    # --flow is checked by argparse against DATAFLOW_FLOWS, and --backend
    # is gone (the compiled engine is the only simulator): both exit 2
    # before a Session, and so its cache directory, exists.
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cache-dir", str(cache)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not cache.exists()


def test_tampered_cached_certificate_falls_back_to_search(tmp_path, capsys):
    # A rerun on one --cache-dir re-validates every stored certificate; a
    # corrupted one costs a fresh search, never the verdict (exit 0).
    cache = tmp_path / "cache"
    argv = [
        "refine", "--rule", "mux_combine", "--rule", "branch_combine",
        "--rule", "split_join_elim", "--cache-dir", str(cache),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert warm.count(" holds [recheck]") == 2 and warm.count(" REFUTED (") == 1

    stored = sorted(cache.glob("*/*.bin"))
    assert len(stored) == 2
    blob = bytearray(stored[0].read_bytes())
    blob[80] ^= 0xFF  # a byte of the compressed certificate core
    stored[0].write_bytes(bytes(blob))

    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count(" holds [") == 2 and out.count(" REFUTED (") == 1
    assert out.count(" holds [search-fallback]") == 1
    assert out.count(" holds [recheck]") == 1
    assert "FAILED" not in out


def test_home_relative_cache_dir_is_expanded(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    (tmp_path / "home").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["refine", "--rule", "mux_combine", "--cache-dir", "~/cc"]) == 0
    assert list((tmp_path / "home" / "cc").glob("*/*.bin"))
    assert not (tmp_path / "~").exists()


def test_home_relative_trace_is_expanded(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    argv = ["refine", "--rule", "mux_combine", "--no-cache", "--trace", "~/t.jsonl"]
    assert main(argv) == 0
    assert (tmp_path / "t.jsonl").read_text().strip()


def test_home_relative_stimuli_is_expanded(tmp_path, monkeypatch, capsys):
    # The archive is read, so the error names its array, not a missing file.
    monkeypatch.setenv("HOME", str(tmp_path))
    np.savez(tmp_path / "s.npz", not_an_array=np.zeros(3))
    assert main(["sim", "matvec", "--stimuli", "~/s.npz"]) == 2
    assert "--stimuli array 'not_an_array'" in capsys.readouterr().err
