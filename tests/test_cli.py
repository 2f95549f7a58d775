"""Tests for the command line interface: subcommands, JSON records, exit
codes."""

import contextlib
import io
import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kzeta.cli as cli
import kzeta.ktheory as ktheory
from kzeta.ktheory import ComputationError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_korder_human(capsys):
    code, out, err = run(capsys, "korder", "--m", "7", "--k", "1")
    assert code == 0
    assert "K_2 order: 8" in out
    assert "2^3" in out


def test_korder_json(capsys):
    rec = run_json(capsys, "korder", "--m", "7", "--k", "1")
    assert rec["command"] == "korder"
    assert rec["inputs"]["m"] == 7
    assert rec["result"]["order"] == 8
    assert rec["result"]["degree"] == 3
    assert rec["result"]["factorization"] == [[2, 3]]
    assert rec["result"]["factorization_string"] == "2^3"
    assert rec["result"]["w_invariant"] == 168
    assert rec["result"]["zeta_value"] == "-1/21"
    assert rec["provenance"] == ["order-formula"]


def test_korder_larger_case(capsys):
    rec = run_json(capsys, "korder", "--m", "13", "--k", "3")
    assert rec["result"]["order"] == 316792259
    assert rec["result"]["factorization_string"] == "7·29·103·109·139"


def test_korder_subfield(capsys):
    rec = run_json(capsys, "korder", "--m", "11", "--k", "1", "--subfield", "prime-cyclic:5")
    assert rec["result"]["degree"] == 5
    assert rec["result"]["order"] == 160
    rec = run_json(capsys, "korder", "--m", "29", "--k", "3", "--subfield", "max-p:7")
    assert rec["result"]["degree"] == 7
    assert rec["result"]["order"] % 7 == 0


def test_json_output_deterministic(capsys):
    code1, out1, _ = run(capsys, "korder", "--m", "11", "--k", "3", "--json")
    code2, out2, _ = run(capsys, "korder", "--m", "11", "--k", "3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "korder", "--m", "11", "--k", "3", "--json", "--seed", "99")
    rec1, rec3 = json.loads(out1), json.loads(out3)
    assert rec1["result"] == rec3["result"]


def test_seed_does_not_change_the_factorization(capsys):
    # #K_6 of Q(zeta_37)^+ has prime factors of 11 and 13 digits, which only
    # the elliptic-curve stage splits; every seed draws other curves
    code, out, _ = run(capsys, "korder", "--m", "37", "--k", "3", "--json")
    assert code == 0
    want = json.loads(out)["result"]
    assert "61486126381" in json.dumps(want)
    for seed in ("1", "2", "3"):
        code, out, _ = run(capsys, "korder", "--m", "37", "--k", "3", "--json", "--seed", seed)
        assert code == 0
        assert json.loads(out)["result"] == want


def test_out_file_matches_canonical_line(tmp_path, capsys):
    path = tmp_path / "record.json"
    code, out, _ = run(capsys, "korder", "--m", "7", "--k", "3", "--json", "--out", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == out
    # human mode writes the same canonical record
    code, out2, _ = run(capsys, "korder", "--m", "7", "--k", "3", "--out", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == out
    assert "K_6 order: 79" in out2


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, json_flag):
    path = tmp_path / "missing" / "record.json"
    code, out, err = run(capsys, "korder", "--m", "7", "--k", "1", "--out", str(path), *json_flag)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert not path.exists()


def test_verdict_examples(capsys):
    rec = run_json(capsys, "verdict", "--p", "7", "--m", "88537", "--k", "1")
    assert rec["result"]["status"] == "GuaranteedDivisible"
    assert rec["result"]["exponent_lower_bound"] == 57
    assert rec["provenance"] == ["bernoulli-product-lower-bound"]

    rec = run_json(capsys, "verdict", "--p", "5", "--m", "11", "--k", "3")
    assert rec["result"]["status"] == "GuaranteedNotDivisible"
    assert rec["result"]["exponent_lower_bound"] is None

    rec = run_json(capsys, "verdict", "--p", "3", "--m", "8", "--k", "1")
    assert rec["result"]["status"] == "Unknown"

    code, out, _ = run(capsys, "verdict", "--p", "7", "--m", "88537", "--k", "1")
    assert code == 0
    assert "GuaranteedDivisible" in out
    assert "7^57" in out


def test_verdict_full_variant(capsys):
    rec = run_json(capsys, "verdict", "--p", "3", "--m", "21", "--k", "1", "--field", "full")
    assert rec["inputs"]["field"] == "full"
    assert rec["result"]["status"] in ("GuaranteedDivisible", "GuaranteedNotDivisible", "Unknown")


def test_bernoulli(capsys):
    rec = run_json(capsys, "bernoulli", "--n", "12")
    assert rec["result"]["value"] == "-691/2730"
    code, out, _ = run(capsys, "bernoulli", "--n", "12")
    assert "B_12 = -691/2730" in out


def test_dn(capsys):
    rec = run_json(capsys, "dn", "--n", "6")
    assert rec["result"]["value"] == 42


def test_genbernoulli_quadratic(capsys):
    rec = run_json(capsys, "genbernoulli", "--m", "5", "--exponents", "2", "--n", "2")
    assert rec["result"]["conductor"] == 5
    assert rec["result"]["order"] == 2
    assert rec["result"]["rational"] == "4/5"


def test_genbernoulli_cubic(capsys):
    rec = run_json(capsys, "genbernoulli", "--m", "7", "--exponents", "2", "--n", "10")
    assert rec["result"]["order"] == 3
    assert rec["result"]["level"] == [3, 1]
    assert rec["result"]["numerator_coefficients"] == [36199840, -28945220]
    assert rec["result"]["denominator"] == 7
    assert rec["result"]["rational"] is None


def test_genbernoulli_trivial(capsys):
    rec = run_json(capsys, "genbernoulli", "--m", "7", "--n", "4")
    assert rec["result"]["order"] == 1
    assert rec["result"]["rational"] == "-1/30"
    code, _, err = run(capsys, "genbernoulli", "--m", "7", "--n", "4", "--level", "2")
    assert code == 2
    assert "trivial" in err


def test_genbernoulli_usage_errors(capsys):
    code, _, _ = run(capsys, "genbernoulli", "--m", "13", "--exponents", "1", "--n", "2")
    assert code == 2  # order 12 is not a prime power
    code, _, _ = run(capsys, "genbernoulli", "--m", "7", "--exponents", "a,b", "--n", "2")
    assert code == 2


def test_genbernoulli_names_the_generators(capsys):
    code, out, err = run(capsys, "genbernoulli", "--m", "21", "--exponents", "1", "--n", "2")
    assert (code, out) == (2, "")
    assert err == (
        "error: --exponents takes one entry per generator of (Z/21Z)^*: "
        "8 of order 2, 10 of order 6\n"
    )
    code, _, err = run(capsys, "genbernoulli", "--m", "7", "--exponents", "1,2", "--n", "2")
    assert code == 2
    assert err.endswith("(Z/7Z)^*: 3 of order 6\n")


def test_bound(capsys):
    rec = run_json(capsys, "bound", "--p", "7", "--k", "1", "--m", "1247")
    assert rec["result"]["bound"] == 8
    assert rec["result"]["s_profile"] == [[1, 2]]
    assert rec["result"]["theta"] == 1
    assert rec["provenance"] == ["bernoulli-product-lower-bound"]


def test_browkin(capsys):
    rec = run_json(capsys, "browkin", "--p", "5", "--ell", "101")
    assert rec["result"]["divisible"] is True
    assert rec["result"]["valuation"] == 2
    rec = run_json(capsys, "browkin", "--p", "5", "--ell", "31")
    assert rec["result"]["divisible"] is False


def test_density(capsys):
    rec = run_json(capsys, "density", "--p", "3", "--x", "100")
    assert rec["result"]["n_p"] == 11
    assert rec["result"]["n_p2"] == 3
    assert rec["result"]["ratio"] == "3/11"


def test_selftest_quick(capsys):
    rec = run_json(capsys, "selftest")
    assert rec["result"]["failed"] == 0
    assert rec["result"]["passed"] == 13
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "[PASS]" in out
    assert "13 passed, 0 failed" in out


def test_usage_errors_exit_2(capsys):
    cases = [
        ("korder", "--m", "7", "--k", "2"),  # even k
        ("korder", "--m", "7"),  # missing required argument
        ("korder", "--m", "7", "--k", "1", "--subfield", "bogus:5"),
        ("korder", "--m", "7", "--k", "1", "--subfield", "max-p"),
        ("korder", "--m", "7", "--k", "1", "--subfield", "max-p:x"),
        ("verdict", "--p", "4", "--m", "11", "--k", "1"),
        ("verdict", "--p", "5", "--m", "11", "--k", "1", "--field", "imaginary"),
        ("browkin", "--p", "5", "--ell", "32"),
        ("density", "--p", "3", "--x", "5"),
        ("bernoulli",),
        (),
    ]
    for argv in cases:
        code, _, _ = run(capsys, *argv)
        assert code == 2, argv


def test_density_refuses_huge_x_at_once(capsys, monkeypatch):
    def no_sieve(*args):
        raise AssertionError("the sieve was started")

    monkeypatch.setattr(ktheory, "_count_primes_one_mod", no_sieve)
    start = time.perf_counter()
    code, _, err = run(capsys, "density", "--p", "3", "--x", "1000000000000")
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert err.startswith("error: x must be at most")
    assert "Traceback" not in err


def test_record_above_the_int_str_limit(capsys, monkeypatch):
    # CPython refuses str() of an int of more than 4300 digits by default;
    # the command must still print its exact record and leave the limit be
    # (Python 3.10 before 3.10.7 has no limit and no getter)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    numerator = 10**5000 + 1
    monkeypatch.setattr(cli, "bernoulli_number", lambda n: Fraction(numerator, 6))
    before = limit()
    code, out, err = run(capsys, "bernoulli", "--n", "4", "--json")
    assert code == 0
    assert err == ""
    assert json.loads(out)["result"]["value"] == "1" + "0" * 4999 + "1/6"
    assert limit() == before


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "korder" in out


def test_computation_error_exits_1(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ComputationError("synthetic failure")

    monkeypatch.setattr(cli, "k_order", boom)
    code, _, err = run(capsys, "korder", "--m", "7", "--k", "1")
    assert code == 1
    assert "synthetic failure" in err


def test_selftest_failure_exits_1(capsys, monkeypatch):
    from kzeta.selftest import CheckResult

    monkeypatch.setattr(
        cli, "run_selftest", lambda level, seed=None: [CheckResult("forced", False, "")]
    )
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "[FAIL] forced" in out


# One small valid argument vector per subcommand.
MINIMAL = {
    "korder": ["--m", "7", "--k", "1"],
    "verdict": ["--p", "5", "--m", "11", "--k", "3"],
    "selftest": [],
    "bernoulli": ["--n", "4"],
    "dn": ["--n", "4"],
    "genbernoulli": ["--m", "5", "--exponents", "2", "--n", "2"],
    "bound": ["--p", "7", "--k", "1", "--m", "29"],
    "browkin": ["--p", "5", "--ell", "101"],
    "density": ["--p", "3", "--x", "100"],
}


@pytest.mark.parametrize("command", sorted(MINIMAL))
def test_seed_only_where_it_is_read(command, capsys):
    code, out, err = run(capsys, command, *MINIMAL[command], "--seed", "5", "--json")
    if command in ("korder", "selftest"):
        assert code == 0, err
        assert json.loads(out)["inputs"]["seed"] == 5
    else:
        assert code == 2
        assert err == "error: unrecognized arguments: --seed 5\n"


# Option values for the fuzz test below; None leaves the option out.  Valid
# korder input stays in the range of the selftest table, m <= 31, and at
# k <= 3: the order's factorization has no budget yet, and
# `korder --m 43 --k 5` (a 134-digit order) does not finish in 120 s, nor
# `--m 31 --k 9` in 60 s.
P_VALUES = st.one_of(st.sampled_from([3, 5, 7, 11, 13]), st.integers(-3, 40))
K_VALUES = st.one_of(st.sampled_from([1, 3, 5]), st.integers(-3, 41))
FUZZ_OPTIONS = {
    "korder": {
        "--m": st.one_of(st.sampled_from([7, 11, 31]), st.integers(-1, 31)),
        "--k": st.one_of(st.sampled_from([1, 3]), st.integers(-3, 3)),
        "--subfield": st.one_of(
            st.none(), st.sampled_from(["max-p:3", "prime-cyclic:5", "max-p", "bogus:3", "max-p:x"])
        ),
    },
    "verdict": {
        "--p": P_VALUES,
        "--m": st.integers(-5, 10**6),
        "--k": K_VALUES,
        "--field": st.sampled_from([None, "plus", "full", "imaginary"]),
    },
    "selftest": {"--level": st.sampled_from([None, "quick", "bogus"])},
    "bernoulli": {"--n": st.integers(-3, 300)},
    "dn": {"--n": st.integers(-3, 60)},
    "genbernoulli": {
        "--m": st.integers(-3, 60),
        "--exponents": st.lists(st.integers(-3, 12), max_size=3).map(
            lambda es: ",".join(map(str, es))
        ),
        "--n": st.integers(-3, 20),
        "--level": st.one_of(st.none(), st.integers(-2, 3)),
    },
    "bound": {"--p": P_VALUES, "--k": K_VALUES, "--m": st.integers(-5, 10**6)},
    "browkin": {
        "--p": P_VALUES,
        "--ell": st.one_of(st.sampled_from([7, 31, 43, 101, 151, 211]), st.integers(-5, 10**5)),
    },
    "density": {
        "--p": P_VALUES,
        "--x": st.one_of(st.integers(-5, 10**5), st.just(10**12)),
    },
}
MALFORMED = st.sampled_from(["", "x", "1.5", "0x7", "--json"])


@st.composite
def argument_vectors(draw):
    """A subcommand with each option valid, malformed or left out, and now and
    then a stray --seed."""
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command]
    for flag, values in FUZZ_OPTIONS[command].items():
        roll = draw(st.integers(0, 19))
        value = None if roll == 0 else draw(MALFORMED) if roll == 1 else draw(values)
        if value is not None:
            argv += [flag, str(value)]
    if draw(st.integers(0, 9)) == 0:
        argv += ["--seed", draw(st.sampled_from(["3", "x"]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argument_vectors())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 0 and "--json" in argv:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, argv
        assert json.loads(lines[0])["command"] == argv[0]
