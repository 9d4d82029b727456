import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import phaseinfo as pi
from phaseinfo import cli
from phaseinfo.cli import main
from phaseinfo.serialize import dumps_json, format_float

LN2PI = np.log(2.0 * np.pi)


# serializer plumbing


def test_format_float_round_trips():
    for x in (0.0, 1.0, 1 / 3, 1e-300, -2.5e17, np.pi):
        assert float(format_float(x)) == x
    assert format_float(np.inf) == "inf"
    assert format_float(-np.inf) == "-inf"
    with pytest.raises(ValueError):
        format_float(np.nan)


def test_dumps_json_shapes():
    doc = {
        "a": 1,
        "b": [1.5, 2.5],
        "c": None,
        "d": True,
        "e": np.inf,
        "f": [[1.0, 2.0], [3.0, 4.0]],
        "g": "text",
    }
    text = dumps_json(doc)
    parsed = json.loads(text)
    assert parsed["a"] == 1
    assert parsed["b"] == [1.5, 2.5]
    assert parsed["c"] is None
    assert parsed["d"] is True
    assert parsed["e"] == "inf"
    assert parsed["f"] == [[1.0, 2.0], [3.0, 4.0]]
    assert text.endswith("\n")
    assert dumps_json({}) == "{}\n"
    assert dumps_json([]) == "[]\n"
    with pytest.raises(TypeError) as info:
        dumps_json({"a": object()})
    assert str(info.value) == "cannot serialize <class 'object'>"


def test_dumps_json_bytes_are_pinned():
    # Plain float lists, a short pair, mixed numeric types and infinities,
    # each in the exact bytes every result file has been written with.
    doc = {
        "floats": [-0.0, 5e-324, 1e308, 0.1, 1 / 3, 2.0],
        "pair": [0.5, -1.25],
        "mixed": [3, np.float64(0.1)],
        "inf": np.inf,
        "cells": [[1.0, np.inf]],
    }
    assert dumps_json(doc) == (
        '{\n'
        '  "floats": [\n'
        '    -0,\n'
        '    4.9406564584124654e-324,\n'
        '    1e+308,\n'
        '    0.10000000000000001,\n'
        '    0.33333333333333331,\n'
        '    2\n'
        '  ],\n'
        '  "pair": [0.5, -1.25],\n'
        '  "mixed": [3, 0.10000000000000001],\n'
        '  "inf": "inf",\n'
        '  "cells": [\n'
        '    [1, "inf"]\n'
        '  ]\n'
        '}\n'
    )


def test_dumps_json_escapes_keys_and_strings():
    # Every key and string value reads back unchanged through a JSON parser.
    for doc in (
        {'a"b': 1},
        {"s": "line1\nline2"},
        {"s": "tab\there"},
        {"back\\slash": 'q"uote', "ctl": "".join(map(chr, range(32)))},
        {"nested": [{"k\r": "\x1f"}]},
    ):
        assert json.loads(dumps_json(doc)) == doc
    with pytest.raises(TypeError):
        dumps_json({1: 2})


# info


def test_info_reports_expected_fields(n1_state, write_state, capsys):
    path = write_state(n1_state)
    assert main(["info", "--state", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["mutual_information"] - (1 - np.log(2))) <= 1e-6
    assert abs(doc["fisher_information"] - 1.0) <= 1e-6
    assert abs(doc["holevo_variance"] - 3.0) <= 1e-8
    assert "entropy_bits" not in doc


def test_info_bits_flag(n1_state, write_state, capsys):
    path = write_state(n1_state)
    assert main(["info", "--state", path, "--bits"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["entropy_bits"] - doc["entropy"] / math.log(2)) <= 1e-12
    assert abs(
        doc["mutual_information_bits"] - doc["mutual_information"] / math.log(2)
    ) <= 1e-12


def test_info_inf_encoded_as_string(write_state, capsys):
    path = write_state(pi.fock_state(1, 3))
    assert main(["info", "--state", path]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["holevo_variance"] == "inf"


def test_info_out_file_matches_stdout(n1_state, write_state, tmp_path, capsys):
    path = write_state(n1_state)
    out = tmp_path / "report.json"
    assert main(["info", "--state", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["info", "--state", path]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_info_errors(tmp_path, capsys):
    assert main(["info", "--state", str(tmp_path / "missing.json")]) == 2
    assert "missing.json" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"max_photon": 1}')
    assert main(["info", "--state", str(bad)]) == 2
    assert "amplitudes" in capsys.readouterr().err
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe")
    assert main(["info", "--state", str(latin)]) == 2
    assert "latin.json" in capsys.readouterr().err
    good = tmp_path / "good.json"
    pi.save_state(pi.normalize([1, 1]), str(good))
    assert main(["info", "--state", str(good), "--grid", "100"]) == 2
    assert "power of two" in capsys.readouterr().err


def _run_fresh(*args):
    """The CLI in a fresh interpreter, so that warnings and tracebacks reach stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(pi.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "phaseinfo.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_overflowing_state_file_prints_one_error_line(tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text('{"max_photon": 1, "amplitudes": [[1e308, 0], [1e308, 0]]}')
    proc = _run_fresh("info", "--state", str(huge))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: state file ")
    assert "huge.json" in lines[0] and "overflows" in lines[0]


def test_unallocatable_grid_prints_one_error_line(n1_state, write_state):
    # A 2**62-node grid is refused at once, without touching memory.
    path = write_state(n1_state)
    for command, extra in (
        ("info", ()),
        ("simulate", ("--true-phase", "0", "--shots", "2")),
        ("bounds", ()),
    ):
        proc = _run_fresh(command, "--state", path, "--grid", str(2**62), *extra)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "allocate" in lines[0]


def test_unallocatable_counts_print_one_error_line(n1_state, write_state, capsys):
    # These escaped from numpy or from list() as ValueError or OverflowError tracebacks.
    path = write_state(n1_state)
    for args in (
        ["simulate", "--state", path, "--true-phase", "0", "--shots", str(2**62)],
        ["optimize", "--max-photon", "2", "--starts", str(2**62)],
        ["sweep", "--n-max", "2", "--starts", str(2**62)],
        ["bounds", "--state", path, "--modes", "1", "--trials", str(2**70)],
    ):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot allocate")


def test_density_error_exits_2(n1_state, write_state, monkeypatch, capsys):
    def bad_report(state, grid_size):
        return pi.CircularDensity(np.full(grid_size, -1.0))

    monkeypatch.setattr("phaseinfo.cli.information_report", bad_report)
    assert main(["info", "--state", write_state(n1_state)]) == 2
    assert "nonnegative" in capsys.readouterr().err


# optimize


def test_optimize_json_structure(tmp_path, capsys):
    out = tmp_path / "opt.json"
    code = main(["optimize", "--max-photon", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["max_photon"] == 2
    assert doc["converged"] is True
    assert len(doc["per_start"]) == pi.OptimizerConfig.starts
    assert doc["information_nats"] == max(doc["per_start"])
    assert abs(doc["information_nats"] - 0.61370563895) <= 1e-4
    # the embedded state document is itself a loadable state file
    state_path = tmp_path / "embedded.json"
    state_path.write_text(json.dumps(doc["state"]))
    capsys.readouterr()
    assert main(["info", "--state", str(state_path)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert abs(info["mutual_information"] - doc["information_nats"]) <= 1e-13


def test_optimize_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["optimize", "--max-photon", "3", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_optimize_unconverged_exit_code(tmp_path):
    out = tmp_path / "opt.json"
    code = main(
        [
            "optimize",
            "--max-photon",
            "4",
            "--max-iters",
            "1",
            "--starts",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["converged"] is False
    assert np.isfinite(doc["information_nats"])


def test_optimize_rejects_bad_config(capsys):
    assert main(["optimize", "--max-photon", "-2"]) == 2
    assert main(["optimize", "--max-photon", "2", "--grid", "100"]) == 2


def test_optimize_rejects_infinite_step(capsys):
    # the option is gone; an infinite step once hung the line search
    assert main(["optimize", "--max-photon", "2", "--step-init", "inf"]) == 2
    assert "--step-init" in capsys.readouterr().err


# sweep


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n-max", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,information_nats,converged"
    assert len(lines) == 5
    infos = []
    for n, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == n
        infos.append(float(fields[1]))
        assert fields[2] == "true"
    assert all(b >= a - 1e-8 for a, b in zip(infos, infos[1:]))


def test_sweep_zero_cutoff_bytes(capsys):
    assert main(["sweep", "--n-max", "0"]) == 0
    assert capsys.readouterr().out == "N,information_nats,converged\n0,0,true\n"


def test_sweep_unconverged_exit_code(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--n-max", "4", "--max-iters", "1", "--starts", "2", "--out", str(out)]
    )
    assert code == 3
    lines = out.read_text().strip().split("\n")
    assert any(line.endswith("false") for line in lines[1:])


def test_sweep_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--n-max", "2", "--out", str(a)]) == 0
    assert main(["sweep", "--n-max", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rejects_negative_range(capsys):
    assert main(["sweep", "--n-max", "-1"]) == 2


def test_sweep_refuses_a_cutoff_the_grid_cannot_hold_before_any_search():
    start = time.monotonic()
    proc = _run_fresh("sweep", "--n-max", "4096")
    assert time.monotonic() - start < 1.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "4097 amplitudes" in lines[0]


# simulate


def test_simulate_record(n1_state, write_state, capsys):
    path = write_state(n1_state)
    assert main(
        ["simulate", "--state", path, "--true-phase", "7.0", "--shots", "6", "--seed", "4"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["outcomes"]) == 6
    assert doc["seed"] == 4
    # stored reduced mod 2 pi
    assert abs(doc["true_phase"] - (7.0 - 2 * np.pi)) <= 1e-12
    assert all(0.0 <= x < 2 * np.pi for x in doc["outcomes"])


def test_simulate_matches_library(n1_state, write_state, capsys):
    path = write_state(n1_state)
    assert main(
        ["simulate", "--state", path, "--true-phase", "1.25", "--shots", "4", "--seed", "42"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    rec = pi.sample_outcomes(n1_state, 1.25, 4, 42)
    assert np.allclose(doc["outcomes"], rec.outcomes, atol=0)


def test_simulate_deterministic_bytes(n1_state, write_state, tmp_path):
    path = write_state(n1_state)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["simulate", "--state", path, "--true-phase", "0.5", "--shots", "8", "--seed", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_rejects_zero_shots(n1_state, write_state):
    path = write_state(n1_state)
    assert main(["simulate", "--state", path, "--true-phase", "0", "--shots", "0"]) == 2


def test_simulate_rejects_non_finite_true_phase(n1_state, write_state, capsys):
    path = write_state(n1_state)
    for bad in ("nan", "inf", "-inf"):
        assert main(["simulate", "--state", path, "--true-phase=" + bad, "--shots", "3"]) == 2
        assert "true_phase" in capsys.readouterr().err


# bounds


def test_bounds_csv(n1_state, write_state, tmp_path):
    path = write_state(n1_state)
    out = tmp_path / "bounds.csv"
    assert main(
        [
            "bounds",
            "--state",
            path,
            "--modes",
            "1,4",
            "--trials",
            "50",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "M,mc_information,mc_stderr,chain_bound,asymptote"
    assert len(lines) == 3
    for line in lines[1:]:
        m, mc, se, chain, asym = line.split(",")
        assert float(mc) <= float(chain) + 3 * float(se) + 1e-9
        assert asym != ""


def test_bounds_fock_leaves_asymptote_empty(write_state, tmp_path):
    path = write_state(pi.fock_state(1, 2), "fock.json")
    out = tmp_path / "bounds.csv"
    assert main(
        ["bounds", "--state", path, "--modes", "2", "--trials", "10", "--out", str(out)]
    ) == 0
    row = out.read_text().strip().split("\n")[1]
    assert row.endswith(",")


def test_bounds_vacuum_bytes(write_state, capsys):
    # Zero Fisher information leaves the asymptote cell empty.
    path = write_state(pi.fock_state(0, 2), "vacuum.json")
    assert main(["bounds", "--state", path, "--modes", "1,4", "--trials", "10"]) == 0
    assert capsys.readouterr().out == (
        "M,mc_information,mc_stderr,chain_bound,asymptote\n1,0,0,0,\n4,0,0,0,\n"
    )


def test_bounds_deterministic_bytes(n1_state, write_state, tmp_path):
    path = write_state(n1_state)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["bounds", "--state", path, "--modes", "1,2", "--trials", "25", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bounds_errors(n1_state, write_state, capsys):
    path = write_state(n1_state)
    assert main(["bounds", "--state", path, "--modes", "999", "--trials", "10"]) == 2
    assert "grid" in capsys.readouterr().err
    assert main(["bounds", "--state", path, "--modes", "abc"]) == 2
    assert main(["bounds", "--state", path, "--modes", ""]) == 2
    assert main(["bounds", "--state", path, "--modes", "2", "--trials", "1"]) == 2


def test_bounds_checks_every_mode_before_any_report(n1_state, write_state, monkeypatch, capsys):
    # A bad entry anywhere in --modes is refused before any report runs.
    def no_report(*args, **kwargs):
        raise AssertionError("bound_report ran before every mode was checked")

    monkeypatch.setattr(cli, "bound_report", no_report)
    path = write_state(n1_state)
    for modes, message in (("1,999", "too large for grid"), ("1,0", "modes must be")):
        assert main(["bounds", "--state", path, "--modes", modes, "--trials", "10"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err


def test_bad_out_path_is_refused_before_any_work(n1_state, write_state, monkeypatch, tmp_path, capsys):
    # A missing directory, a directory and an empty path exit 2 at once,
    # with one error line and no file written.
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    monkeypatch.setattr(cli, "bound_report", no_work)
    monkeypatch.setattr(cli, "bound_sweep", no_work)
    path = write_state(n1_state)
    for out in (str(tmp_path / "missing" / "x"), str(tmp_path), ""):
        for args in (["bounds", "--state", path], ["sweep", "--n-max", "12"]):
            assert main(args + ["--out", out]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: --out ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


def test_negative_seed_exits_2(n1_state, write_state, capsys):
    # -1 used to escape from SeedSequence as an uncaught ValueError
    path = write_state(n1_state)
    for args in (
        ["optimize", "--max-photon", "2"],
        ["sweep", "--n-max", "2"],
        ["simulate", "--state", path, "--true-phase", "0.5", "--shots", "3"],
        ["bounds", "--state", path, "--modes", "1", "--trials", "5"],
    ):
        assert main(args + ["--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be an integer >= 0")
        assert "Traceback" not in err


# global behavior


def test_unknown_command_and_flags(capsys):
    assert main(["nonsense"]) == 2
    assert main(["info", "--no-such-flag"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert "phaseinfo" in capsys.readouterr().out


def test_every_subcommand_takes_grid_and_out():
    parser = cli.build_parser()
    for command, required in (
        ("info", ["--state", "s.json"]),
        ("optimize", ["--max-photon", "1"]),
        ("sweep", ["--n-max", "1"]),
        ("simulate", ["--state", "s.json", "--true-phase", "0", "--shots", "1"]),
        ("bounds", ["--state", "s.json"]),
    ):
        args = parser.parse_args([command] + required)
        assert (args.grid, args.out) == (4096, None)
        args = parser.parse_args([command] + required + ["--grid", "64", "--out", "r.txt"])
        assert (args.grid, args.out) == (64, "r.txt")


def test_one_parser_serves_every_call(n1_state, write_state, capsys):
    assert cli.build_parser() is cli.build_parser()
    path = write_state(n1_state)
    assert main(["info", "--state", path, "--bits"]) == 0
    assert "entropy_bits" in json.loads(capsys.readouterr().out)
    assert main(["info", "--state", path]) == 0
    assert "entropy_bits" not in json.loads(capsys.readouterr().out)
    simulate = ["simulate", "--state", path, "--true-phase", "0.5", "--shots", "3"]
    assert main(simulate + ["--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert main(simulate) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["seed"] == 0
    # Refusals by the parser and by the program leave nothing behind.
    assert main(simulate[:-1] + ["x", "--seed", "9"]) == 2
    assert main(simulate + ["--seed", "9", "--grid", "100"]) == 2
    capsys.readouterr()
    assert main(simulate) == 0
    assert capsys.readouterr().out == first
