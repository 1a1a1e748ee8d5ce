import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pautkit
from pautkit.cli import main

SRC = str(Path(pautkit.__file__).resolve().parent.parent)


def _run_fresh(args):
    # one call of a fresh interpreter that imports this checkout's package
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.code"
    path.write_text("110000\n100011\n")
    return str(path)


@pytest.fixture
def wholly_fixed_file(tmp_path):
    path = tmp_path / "fixed.code"
    path.write_text("110000\n001100\n")
    return str(path)


def test_analyze_text(demo_file, capsys):
    assert main(["analyze", demo_file]) == 0
    out = capsys.readouterr().out
    assert "length: 6" in out
    assert "dimension: 2" in out
    assert "PAut order: 8" in out
    assert "fixed-point witness: (3,4)(5,6)" in out


def test_analyze_json(tmp_path, capsys):
    path = tmp_path / "p34.code"
    path.write_text("0010\n1100\n")
    assert main(["analyze", str(path), "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 4 and data["k"] == 2
    assert data["paut_order"] == 2
    assert data["paut_generators"] == ["(1,2)"]
    assert data["weight_distribution"] == [1, 1, 1, 1, 0]
    assert data["is_cyclic_of_order_2"] is True
    assert data["quasi_group_code"] is False


def test_analyze_single_row(tmp_path, capsys):
    path = tmp_path / "ones.code"
    path.write_text("1111\n")
    assert main(["analyze", str(path)]) == 0
    assert "PAut order: 24" in capsys.readouterr().out


def test_analyze_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.code"
    path.write_text("")
    assert main(["analyze", str(path)]) == 2


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/nowhere.code"]) == 2


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.code"
    path.write_bytes(b"\xff\xfe")
    assert main(["analyze", str(path)]) == 2
    assert main(["witness", str(path)]) == 2


def test_analyze_too_large_gives_partial_output(tmp_path, capsys):
    path = tmp_path / "big.code"
    path.write_text("11000000000000\n00110000000000\n")
    assert main(["analyze", str(path)]) == 3
    out = capsys.readouterr().out
    assert "length: 14" in out
    assert "PAut: not computed" in out


def test_verify_exit_codes(capsys):
    assert main(["verify", "prop-3.4"]) == 0
    assert main(["verify", "thm-3.2", "--n", "6"]) == 0
    assert main(["verify", "thm-4.4", "--n", "14"]) == 3
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense-id"])
    assert exc.value.code == 2


def test_verify_prop34_rejects_other_lengths(capsys):
    assert main(["verify", "prop-3.4", "--n", "4"]) == 0
    assert main(["verify", "prop-3.4", "--n", "8"]) == 2
    assert "length 4" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1", "0", "-2"])
def test_verify_lemma21_rejects_lengths_below_2(n, capsys):
    assert main(["verify", "lemma-2.1", "--n", n, "--trials", "5"]) == 2
    assert "n_max >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["lemma-2.1", "thm-5.1"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_random_suites_reject_trials_below_1(check, trials, capsys):
    assert main(["verify", check, "--trials", trials]) == 2
    assert "trials >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["prop-3.1", "--trials", "0"],
        ["thm-4.2", "--n", "6", "--trials", "5", "--seed", "3"],
        ["prop-3.4", "--seed", "0"],
    ],
)
def test_verify_exhaustive_checks_reject_trials_and_seed(argv, capsys):
    # an exhaustive check has no trials or seed to take, so it refuses
    # them instead of running without them
    assert main(["verify", *argv]) == 2
    assert "takes no --trials or --seed" in capsys.readouterr().err


def test_verify_json_schema(capsys):
    assert main(["verify", "thm-3.2", "--n", "6", "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["theorem_id"] == "thm-3.2"
    assert data["n"] == 6
    assert data["scanned"] == 651
    assert data["counterexamples"] == []
    assert data["slice"] == {"index": 0, "total": 1}


def test_verify_random_suites_accept_flags(capsys):
    assert main(["verify", "lemma-2.1", "--trials", "200", "--seed", "7"]) == 0
    assert main(["verify", "thm-5.1", "--trials", "200", "--n", "12"]) == 0


def test_witness_paths(demo_file, wholly_fixed_file, tmp_path, capsys):
    assert main(["witness", demo_file]) == 0
    assert capsys.readouterr().out.strip() == "(3,4)(5,6) via T(sigma)-complement"

    assert main(["witness", wholly_fixed_file]) == 0
    assert capsys.readouterr().out.strip() == "(1,2) via pointwise-fixing pair"

    # hypothesis violation: the pairing involution is not an automorphism
    path = tmp_path / "bad.code"
    path.write_text("100000\n")
    assert main(["witness", str(path)]) == 4


def test_witness_json(demo_file, capsys):
    assert main(["witness", demo_file, "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"witness": "(3,4)(5,6)", "path": "T(sigma)-complement"}


def test_conjecture_cli(tmp_path, capsys):
    assert main(["conjecture", "--n", "8"]) == 2
    journal = tmp_path / "j.ndjson"
    assert (
        main(
            [
                "conjecture",
                "--n",
                "10",
                "--k",
                "5",
                "--journal",
                str(journal),
                "--output",
                "json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["scanned"] == 18291
    assert data["counterexamples"] == []
    assert journal.exists()


def test_conjecture_k_excludes_the_band(capsys):
    # --k and the band --k-lo/--k-hi are alternatives; neither is dropped
    for band in (["--k-lo", "6"], ["--k-hi", "5"], ["--k-lo", "5", "--k-hi", "5"]):
        assert main(["conjecture", "--n", "10", "--k", "5", *band]) == 2
        assert "--k excludes" in capsys.readouterr().err
    assert main(["conjecture", "--n", "12", "--k-lo", "7", "--slice", "0/1000"]) == 0


def test_conjecture_bad_slice(capsys):
    assert main(["conjecture", "--n", "10", "--slice", "3/2"]) == 2
    assert main(["conjecture", "--n", "10", "--slice", "junk"]) == 2


def test_conjecture_malformed_journal_exits_2(tmp_path, capsys):
    from pautkit.verify import _journal_config

    config = json.dumps({"type": "config", "config": _journal_config(10, 5, 5, (0, 1))})
    no_ces = json.dumps({"type": "unit", "k": 5, "unit": 0, "scanned": 1})
    # counterexamples that are not length-10 generator lists with a reason
    bad_ces = [
        json.dumps({"type": "unit", "k": 5, "unit": 0, "scanned": 1, "counterexamples": [ce]})
        for ce in (
            {"generators": ["101"], "reason": "x"},
            {"generators": "1100000000", "reason": "x"},
            {"generators": ["1100000000"], "reason": None},
        )
    ]
    journal = tmp_path / "bad.ndjson"
    for text in ("[1]", "[1, 2]", config + "\n[1, 2]", config + "\n" + no_ces) + tuple(
        config + "\n" + unit for unit in bad_ces
    ):
        journal.write_text(text + "\n")
        assert main(["conjecture", "--n", "10", "--journal", str(journal)]) == 2
        assert "journal record" in capsys.readouterr().err
        assert journal.read_text() == text + "\n"


def test_conjecture_out_of_band_journal_exits_2(tmp_path, capsys):
    from pautkit.verify import _journal_config

    # a finished n = 10 journal plus a k = 6 record reporting one counterexample
    records = [{"type": "config", "config": _journal_config(10, 5, 5, (0, 1))}]
    records += [
        {"type": "unit", "k": 5, "unit": u, "scanned": 1, "counterexamples": []}
        for u in range(16)
    ]
    ce = {"generators": ["1100000000"], "reason": "demo"}
    records.append({"type": "unit", "k": 6, "unit": 99, "scanned": 1, "counterexamples": [ce]})
    journal = tmp_path / "stray.ndjson"
    journal.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert main(["conjecture", "--n", "10", "--journal", str(journal), "--output", "json"]) == 2
    captured = capsys.readouterr()
    assert "outside the configured band" in captured.err
    assert captured.out == ""


def test_census_cli(capsys):
    assert main(["census", "--n", "6", "--sigma-invariant", "--output", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["2"] == 35
    assert data["total"] == 129

    assert main(["census", "--n", "4", "--k", "2"]) == 0
    assert "k=2: 35" in capsys.readouterr().out


def test_census_rejects_negative_length(capsys):
    assert main(["census", "--n", "-3"]) == 2
    assert "negative length" in capsys.readouterr().err
    assert main(["census", "--n", "-3", "--sigma-invariant"]) == 2


def test_census_length_guard(capsys):
    # every count prints at the guard; just above it the census exits 3
    # rather than failing to print its counts
    from pautkit.cli import CENSUS_LENGTH_GUARD

    assert CENSUS_LENGTH_GUARD == 238
    assert main(["census", "--n", "238", "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["119"] > 0
    assert main(["census", "--n", "238", "--sigma-invariant"]) == 0
    assert "total:" in capsys.readouterr().out
    too_long = (["--n", "239"], ["--n", "240", "--output", "json"], ["--n", "100000", "--k", "3"])
    for argv in too_long:
        assert main(["census", *argv]) == 3
        captured = capsys.readouterr()
        assert "census counts limited to length 238" in captured.err
        assert captured.out == ""


def test_json_outputs_are_byte_stable_modulo_elapsed(capsys):
    main(["verify", "prop-3.4", "--output", "json"])
    first = json.loads(capsys.readouterr().out)
    main(["verify", "prop-3.4", "--output", "json"])
    second = json.loads(capsys.readouterr().out)
    first["elapsed_ms"] = second["elapsed_ms"] = 0
    assert json.dumps(first) == json.dumps(second)


@pytest.mark.parametrize("k", [-3, 13])
def test_census_rejects_dimension_out_of_range(k, capsys):
    assert main(["census", "--n", "12", "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert f"dimension {k} out of range" in captured.err
    assert captured.out == ""
    assert main(["census", "--n", "12", "--k", str(k), "--sigma-invariant"]) == 2


def _without_elapsed(text):
    try:
        data = json.loads(text)
    except ValueError:
        return text
    data.pop("elapsed_ms", None)
    return data


def test_consecutive_calls_equal_separate_processes(tmp_path, capsys):
    # main builds its parser once per process; calls made one after the
    # other in one process must print and exit as fresh processes do
    path = tmp_path / "p34.code"
    path.write_text("0010\n1100\n")
    calls = [
        ["analyze", str(path), "--output", "json"],
        ["analyze", str(path)],
        ["verify", "prop-3.4", "--output", "json"],
        ["verify", "prop-3.4", "--n", "four"],
        ["analyze", str(path), "--output", "json"],
    ]
    in_process = []
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        in_process.append((rc, _without_elapsed(captured.out), captured.err))
    assert [rc for rc, _, _ in in_process] == [0, 0, 0, 2, 0]
    assert in_process[0] == in_process[-1]
    for argv, got in zip(calls, in_process):
        proc = _run_fresh(["-m", "pautkit", *argv])
        assert got == (proc.returncode, _without_elapsed(proc.stdout), proc.stderr)


def test_import_leaves_multiprocessing_out():
    # only a parallel conjecture scan imports multiprocessing
    proc = _run_fresh(
        ["-c", "import sys, pautkit, pautkit.cli; print('multiprocessing' in sys.modules)"]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
