"""Command line interface: frozen outputs, exit codes, range validation,
and byte-stable output with no result cache."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspquot
from cuspquot import __version__, cli, series
from cuspquot.cli import CHECKS, _exact_ints, main
from cuspquot.series import MAX_D, hilb_series, solve_nh


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# series


def test_series_json_symbolic_rank2(capsys):
    code, out, err = run_cli(["series", "--d", "2"], capsys)
    assert code == 0 and err == ""
    assert out == (
        '{"d": 2, "den": [[0, 0, 1], [1, 0, -1], [1, 1, -1], [2, 1, 1]],'
        ' "num": [[0, 0, 1], [1, 2, 1], [1, 3, 1], [2, 4, 1]], "prime": null}\n'
    )


def test_series_json_at_prime_with_expansion(capsys):
    code, out, err = run_cli(
        ["series", "--d", "1", "--prime", "2", "--order", "3"], capsys
    )
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj == {
        "coefficients": [[[0, 1]], [[0, 3]], [[0, 3]], [[0, 3]]],
        "d": 1,
        "den": [[0, 0, 1], [1, 0, -1]],
        "num": [[0, 0, 1], [1, 0, 2]],
        "prime": 2,
    }


def test_series_rank0(capsys):
    code, out, err = run_cli(["series", "--d", "0"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "d": 0,
        "den": [[0, 0, 1]],
        "num": [[0, 0, 1]],
        "prime": None,
    }


def test_series_csv_format(capsys):
    code, out, err = run_cli(
        ["series", "--d", "2", "--order", "2", "--format", "csv"], capsys
    )
    assert code == 0
    assert out == (
        "part,t_exp,q_exp,coeff\n"
        "num,0,0,1\n"
        "num,1,2,1\n"
        "num,1,3,1\n"
        "num,2,4,1\n"
        "den,0,0,1\n"
        "den,1,0,-1\n"
        "den,1,1,-1\n"
        "den,2,1,1\n"
        "t^0,0,0,1\n"
        "t^1,1,0,1\n"
        "t^1,1,1,1\n"
        "t^1,1,2,1\n"
        "t^1,1,3,1\n"
        "t^2,2,0,1\n"
        "t^2,2,1,1\n"
        "t^2,2,2,2\n"
        "t^2,2,3,2\n"
        "t^2,2,4,2\n"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (["series", "--d", "-1"], "--d must be >= 0"),
        (["series", "--d", "5"], "series stop at --d 4"),
        (["series", "--d", "5", "--prime", "2"], "series stop at --d 4"),
        (["series", "--d", "1", "--prime", "4"], "--prime 4 is not a prime"),
        (["series", "--d", "1", "--order", "-1"], "--order must be >= 0"),
        (["series", "--d", "1", "--order", "100000000"], "--order must be <= 200"),
        (["series", "--d", "1", "--prime", str(10**30)], "is not a prime below"),
        (["series", "--d", "1", "--prime", str(10**24)], "is not a prime"),
    ],
)
def test_series_range_errors(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert message in err


def test_series_large_prime(capsys):
    p = 1_000_000_000_000_000_003
    code, out, err = run_cli(["series", "--d", "1", "--prime", str(p)], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["num"] == [[0, 0, 1], [1, 0, p]]


@pytest.mark.parametrize("d,prime", [(4, 5), (2, 2003), (3, 11)])
def test_series_at_prime_is_the_q_form_at_the_prime(d, prime, capsys):
    code, out, err = run_cli(["series", "--d", str(d), "--prime", str(prime)], capsys)
    assert code == 0 and err == ""
    values = [int(c.evaluate(prime)) for c in solve_nh(d).coeffs]
    assert json.loads(out)["num"] == [[n, 0, c] for n, c in enumerate(values) if c]


def test_series_limits_come_from_the_engine():
    from cuspquot import cli, series

    assert cli.MAX_D is series.MAX_D


def test_series_expansion_past_the_int_to_str_digit_cap(capsys):
    # the t^200 coefficient at this prime has about 5000 digits, past the
    # 4300 that Python converts to str by default
    p = 3_317_044_064_679_887_385_961_783
    argv = ["series", "--d", "2", "--prime", str(p), "--order", "200", "--format", "csv"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    part, n, q_exp, coeff = out.splitlines()[-1].split(",")
    assert (part, n, q_exp) == ("t^200", "200", "0")
    with _exact_ints():
        assert int(coeff) == hilb_series(2).expand(200)[200].evaluate(p)
        assert len(coeff) > 4300


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    d=st.integers(-1, 5),
    prime=st.one_of(st.none(), st.integers(-2, 40), st.sampled_from([2**61 - 1, 10**25])),
    order=st.one_of(st.none(), st.integers(-1, 210)),
    fmt=st.sampled_from(["json", "csv"]),
)
def test_series_argument_sweep(d, prime, order, fmt):
    argv = ["series", f"--d={d}", f"--format={fmt}"]
    if prime is not None:
        argv.append(f"--prime={prime}")
    if order is not None:
        argv.append(f"--order={order}")
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.monotonic() - start < 10.0
    assert code in (0, 2)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (1 if code == 2 else 0)
    if code == 0 and fmt == "json":
        with _exact_ints():
            assert json.loads(out.getvalue())["d"] == d


# ---------------------------------------------------------------------------
# motive


def test_motive_single_rank(capsys):
    code, out, err = run_cli(["motive", "--d", "5"], capsys)
    assert code == 0
    assert out == "10*q^12 - 5*q^11 - 9*q^10 + 5*q^9\n"


def test_motive_table_entry(capsys):
    code, out, err = run_cli(["motive", "--table", "4", "2"], capsys)
    assert code == 0
    assert out == "2*q^4 - 3*q^2 + q\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["motive"], "exactly one of --d or --table"),
        (["motive", "--d", "3", "--table", "4", "2"], "exactly one of --d or --table"),
        (["motive", "--d", "65"], "--d must be within 0..64"),
        (["motive", "--d", "-1"], "--d must be within 0..64"),
        (["motive", "--table", "2", "4"], "--table needs 0 <= B <= A"),
    ],
)
def test_motive_range_errors(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert message in err


# ---------------------------------------------------------------------------
# verify / conjecture


def test_verify_quick_passes(capsys):
    code, out, err = run_cli(["verify", "--level", "quick"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    quick_names = [name for name, level, _ in CHECKS if level == "quick"]
    assert lines[:-1] == [f"PASS {name}" for name in quick_names]
    assert lines[-1] == "all checks passed"


def _cli_env() -> dict:
    """The environment of a fresh `python -m cuspquot.cli` on this checkout."""
    src = os.path.dirname(os.path.dirname(cuspquot.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONOPTIMIZE", None)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_verify_quick_is_the_same_under_python_O():
    env = _cli_env()
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "cuspquot.cli", "verify", "--level", "quick"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.endswith("all checks passed\n")


def test_engine_checks_ask_for_every_rank_through_max_d(monkeypatch):
    asked = []
    real = series.hilb_numerator

    def recording(d, prime=None):
        asked.append(d)
        return real(d, prime)

    # cli calls it by its own name, hilb_series through the series module
    monkeypatch.setattr(cli, "hilb_numerator", recording)
    monkeypatch.setattr(series, "hilb_numerator", recording)
    for check in (cli._chk_quot_is_square, cli._chk_inverse_transform, cli._chk_engine_matches_solve):
        asked.clear()
        assert check()
        assert sorted(set(asked)) == list(range(MAX_D + 1)), check.__name__


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["verify", "--level", "quick"], ["series", "--d", "1"], ["motive", "--d", "2"],
     ["conjecture", "--max-d", "1"]],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    env = _cli_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cuspquot.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


def test_conjecture_small_ranks(capsys):
    code, out, err = run_cli(["conjecture", "--max-d", "3"], capsys)
    assert code == 0
    expected_line = (
        "d={d} functional_equation=ok root_of_unity=ok cyclotomic=ok "
        "nonnegative_coefficients=ok"
    )
    assert out.strip().splitlines() == [expected_line.format(d=d) for d in (1, 2, 3)]


def test_conjecture_output_through_rank_sixteen_is_pinned(capsys):
    # sha256 of the stdout of `cuspquot conjecture --max-d 16`, as the
    # repeated long division by Phi_r printed it
    code, out, err = run_cli(["conjecture", "--max-d", "16"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c5f572d52e6bb7dfa8396890464978b7396ead963666d51116f98e1ffc16300c"
    )


@pytest.mark.parametrize("bad", ["0", "17"])
def test_conjecture_range_errors(bad, capsys):
    code, out, err = run_cli(["conjecture", "--max-d", bad], capsys)
    assert code == 2
    assert "--max-d must be within 1..16" in err


# ---------------------------------------------------------------------------
# argparse-level behaviour


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# no result cache


def test_series_is_byte_stable_and_writes_no_cache(tmp_path, monkeypatch, capsys):
    # a cache directory in the environment is neither read nor written
    monkeypatch.setenv("CUSPQUOT_CACHE_DIR", str(tmp_path))
    for argv in (["series", "--d", "2"], ["motive", "--d", "5"]):
        first = run_cli(argv, capsys)
        assert first[0] == 0
        assert run_cli(argv, capsys) == first
    assert list(tmp_path.iterdir()) == []
