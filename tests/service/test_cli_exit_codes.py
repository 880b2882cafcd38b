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


def test_unknown_rule_with_dump_certs_exits_2(tmp_path, capsys):
    code = main(
        ["refine", "--rule", "no_such_rule", "--dump-certs", str(tmp_path / "certs")]
    )
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


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
    ],
)
def test_removed_obligation_cli_exits_2(argv, message, capsys):
    # `repro verify` and `refine --cert-format` were removed: `refine` is
    # the one obligation subcommand and dumps are always .grc.
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


def test_load_certs_on_json_only_dumps_exits_2(tmp_path, capsys):
    (tmp_path / "mux_combine-0.json").write_text("{}")
    (tmp_path / "mux_combine-1.json").write_text("{}")
    assert main(["refine", "--load-certs", str(tmp_path), "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "mux_combine-0.json, mux_combine-1.json" in err
    assert "re-dump them with --dump-certs" in err


def test_load_certs_on_empty_dir_exits_2(tmp_path, capsys):
    assert main(["refine", "--load-certs", str(tmp_path), "--no-cache"]) == 2
    assert "no certificate files" in capsys.readouterr().err


def test_dumped_grc_certificates_revalidate(tmp_path, capsys):
    certs = tmp_path / "certs"
    argv = ["refine", "--rule", "mux_combine", "--no-cache"]
    assert main([*argv, "--dump-certs", str(certs)]) == 0
    dumped = sorted(path.name for path in certs.iterdir())
    assert dumped and all(name.endswith(".grc") for name in dumped)
    assert main(["refine", "--load-certs", str(certs), "--no-cache"]) == 0
    assert f"all {len(dumped)} certificates re-validated" in capsys.readouterr().err
