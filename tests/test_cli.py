import argparse
import io
import contextlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grmahler import cli
from grmahler import mahler as mh
from grmahler import spectra as sp
from grmahler.cli import format_number, main, render_json
from grmahler.coeffs import GaussianRational
from grmahler.errors import ParseError

GOLDEN = {
    (
        "measure",
        "--group",
        "Z/3xZ/2",
        "--poly",
        "1+x+y",
    ): '{"command": "measure", "group": "Z/3xZ/2", "poly": "1+x+y", '
    '"lambda": null, "method": "finite-determinant", "value": 0.366204096222703, '
    '"error_bound": 0, "extra": {"group_order": 6, "determinant": 81}}\n',
    (
        "coeffs",
        "--group",
        "Z^2",
        "--poly",
        "x+x^-1+y+y^-1",
        "--n",
        "6",
    ): '{"command": "coeffs", "group": "Z^2", "poly": "x+x^-1+y+y^-1", '
    '"lambda": null, "method": "group-ring-powering", "value": null, '
    '"error_bound": 0, "extra": {"coeffs": [1, 0, 4, 0, 36, 0, 400], "l1_bound": 4}}\n',
    (
        "measure",
        "--group",
        "Z^2",
        "--poly",
        "x+x^-1+y+y^-1",
        "--lambda",
        "0",
    ): '{"command": "measure", "group": "Z^2", "poly": "x+x^-1+y+y^-1", '
    '"lambda": 0, "method": "series", "value": 0, "error_bound": 0, '
    '"extra": {"imaginary_discard": 0}}\n',
}


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def strict_json(text, **kwargs):
    """json.loads that refuses the non-standard NaN and Infinity constants."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject, **kwargs)


# ---------------------------------------------------------------------------
# golden files


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_byte_for_byte(argv):
    rc, out, err = run_cli(argv)
    assert rc == 0 and err == ""
    assert out == GOLDEN[argv]


def test_golden_is_valid_json():
    for argv, text in GOLDEN.items():
        obj = json.loads(text)
        assert list(obj) == [
            "command",
            "group",
            "poly",
            "lambda",
            "method",
            "value",
            "error_bound",
            "extra",
        ]


# the one golden whose walk counts are floats: the lambda-free series walks
# P = -(x + y)/3 over Dinf, so any reordering of the sums in group-ring
# multiplication or in the pairing of two half powers changes its last
# bits; the value lies within its bound of the D64 determinant
FLOAT_WALK_ARGV = ("measure", "--group", "Dinf", "--poly", "3+x+y", "--epsilon", "1e-06")
FLOAT_WALK_GOLDEN = (
    '{"command": "measure", "group": "Dinf", "poly": "3+x+y", "lambda": null, '
    '"method": "series", "value": 1.03051799050239, '
    '"error_bound": 8.09238887200327e-07, '
    '"extra": {"group_order": "infinite"}}\n'
)
D64_3XY = 1.03051796939366  # m_D64(3+x+y) by the exact determinant


def test_float_walk_golden_byte_for_byte():
    rc, out, err = run_cli(FLOAT_WALK_ARGV)
    assert rc == 0 and err == ""
    assert out == FLOAT_WALK_GOLDEN
    res = strict_json(out)
    assert abs(res["value"] - D64_3XY) <= res["error_bound"]


# the same series over Z^2, where many paths of P = -(x + x^-1 + y)/5 meet
# at one element (x x^-1 = x^-1 x = 1): a walk that revisits an element
# must add its terms in the order a fresh product would; the value lies
# within its bound of m(5 + x + x^-1 + y) = log((5 + sqrt 21)/2), by
# Jensen's formula in y
Z2_FLOAT_WALK_ARGV = ("measure", "--group", "Z^2", "--poly", "5+x+x^-1+y", "--epsilon", "1e-06")
Z2_FLOAT_WALK_GOLDEN = (
    '{"command": "measure", "group": "Z^2", "poly": "5+x+x^-1+y", "lambda": null, '
    '"method": "series", "value": 1.56679923697461, '
    '"error_bound": 8.58402416362615e-07, '
    '"extra": {"group_order": "infinite"}}\n'
)


def test_z2_float_walk_golden_byte_for_byte():
    rc, out, err = run_cli(Z2_FLOAT_WALK_ARGV)
    assert rc == 0 and err == ""
    assert out == Z2_FLOAT_WALK_GOLDEN
    res = strict_json(out)
    assert abs(res["value"] - math.log((5 + math.sqrt(21)) / 2)) <= res["error_bound"]


# the lambda-free series at the default epsilon, against log 3 and log 4
@pytest.mark.parametrize("group, poly, want, seconds",
                         [("Z^2", "3+x+y", math.log(3), 2.0),
                          ("Z^3", "4+x1+x2+x3", math.log(4), 10.0)], ids=["Z^2", "Z^3"])
def test_lambda_free_series_answers_in_time(group, poly, want, seconds):
    start = time.perf_counter()
    rc, out, err = run_cli(["measure", "--group", group, "--poly", poly])
    assert time.perf_counter() - start < seconds
    assert rc == 0 and err == ""
    res = strict_json(out)
    assert abs(res["value"] - want) <= res["error_bound"] <= 1e-10


# ---------------------------------------------------------------------------
# formatting rules


def test_format_number_15_significant_digits():
    assert format_number(0.36620409622270325) == "0.366204096222703"
    assert format_number(1.0) == "1"
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "0"
    assert format_number(81) == "81"
    assert format_number(123456789012345678) == "123456789012345678"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_number_renders_a_fraction_like_its_float(x):
    # a float converts to Fraction exactly, so the exact rendering must
    # reproduce format(x, ".15g") digit for digit
    assert format_number(Fraction(x)) == format_number(x)


def test_format_number_beyond_float_range():
    assert format_number(Fraction(10**400, 3)) == "3.33333333333333e+399"
    assert format_number(Fraction(-2, 10**400)) == "-2e-400"
    # log10 rounds this up to 400.0; the exponent must still be 399
    assert format_number(Fraction(10**400 - 10**386)) == "9.9999999999999e+399"
    big = 7 * 10**9000 + 1  # past the interpreter's str(int) digit limit
    text = format_number(big)
    assert len(text) == 9001 and text.startswith("70") and text.endswith("01")
    assert format_number(-big) == "-" + text


@pytest.mark.parametrize("n", [10**1000 - 1, 10**1000, 10**2500],
                         ids=["10^1000-1", "10^1000", "10^2500"])
def test_ints_render_every_digit_across_the_chunk_edge(n):
    # below the interpreter's digit limit, so str() is the reference
    assert format_number(n) == render_json(n) == str(n)
    assert format_number(-n) == render_json(-n) == str(-n)
    assert render_json([n, True, False, 0]) == f"[{n}, true, false, 0]"


@pytest.mark.parametrize("text", [
    'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "café ∞ 𝔽₂", "",
], ids=["quotes", "backslash", "control", "non-ascii", "empty"])
def test_strings_and_keys_render_as_json_dumps_does(text):
    assert render_json(text) == json.dumps(text)
    assert render_json({text: text}) == "{" + json.dumps(text) + ": " + json.dumps(text) + "}"
    assert json.loads(render_json({text: [text]})) == {text: [text]}


def test_render_json_deterministic_order():
    s = render_json({"b": 1, "a": [1.5, None, "x"]})
    assert s == '{"b": 1, "a": [1.5, null, "x"]}'


# ---------------------------------------------------------------------------
# exit codes and error objects


def test_parse_error_exit_2():
    rc, out, err = run_cli(["measure", "--group", "Z/3xZ/2", "--poly", "1++x"])
    assert rc == 2 and out == ""
    obj = json.loads(err)
    assert obj["error"]["type"] == "ParseError"


def test_bad_group_exit_2():
    rc, _, err = run_cli(["measure", "--group", "Q8", "--poly", "x"])
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--group", "Z^" + "9" * 30, "--poly", "x"],
        ["measure", "--group", "F10", "--poly", "3+x", "--lambda", "0.1"],
        ["compare", "--group", "Z^2", "--group-b", "Z^10", "--poly", "3+x+y"],
    ],
    ids=["Z^<30 digits>", "F10", "group-b-Z^10"],
)
def test_more_than_nine_generators_is_a_parse_error(argv):
    # a 30-digit count used to escape as an OverflowError (exit 1), F10 was
    # refused only at binding (exit 3), and Z^10 as --group-b answered
    rc, out, err = run_cli(argv)
    assert rc == 2 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "ParseError" and "more than 9 generators" in error["message"]


def test_domain_error_exit_3():
    rc, _, err = run_cli(
        ["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "0.3"]
    )
    assert rc == 3
    assert json.loads(err)["error"]["type"] == "DomainError"


def test_singular_error_exit_3():
    rc, _, err = run_cli(["measure", "--group", "Z/2", "--poly", "1+x"])
    assert rc == 3
    assert json.loads(err)["error"]["type"] == "SingularMatrixError"


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "nan"],
        ["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "inf"],
        ["measure", "--group", "D3", "--poly", "x+x^-1+y", "--lambda", "nan"],
        ["measure", "--group", "D3", "--poly", "x+x^-1+y", "--lambda", "inf"],
        ["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "0.1",
         "--epsilon", "nan"],
    ],
)
def test_non_finite_input_is_a_domain_error(argv):
    rc, out, err = run_cli(argv)
    assert rc == 3 and out == ""
    assert strict_json(err)["error"]["type"] == "DomainError"


def test_format_number_rejects_nan():
    with pytest.raises(ValueError):
        format_number(float("nan"))


def test_library_value_error_exit_3(monkeypatch):
    # a non-reciprocal P reaches mahler_series, which refuses it as a DomainError
    rc, out, err = run_cli(["measure", "--group", "Z^2", "--poly", "x+y", "--lambda", "0.1"])
    assert rc == 3 and out == ""
    assert strict_json(err) == {"error": {"type": "DomainError", "message": "P must be reciprocal"}}

    # an untyped ValueError from the library still exits 3, as itself
    def untyped(*args):
        raise ValueError("untyped")

    monkeypatch.setattr(mh, "measure", untyped)
    rc, out, err = run_cli(["measure", "--group", "Z^2", "--poly", "x+y", "--lambda", "0.1"])
    assert rc == 3 and out == ""
    assert strict_json(err) == {"error": {"type": "ValueError", "message": "untyped"}}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["measure", "--group", "D3", "--poly", "x+x^-1+y", "--lambda", "0.1", "--method",
          "torus"], "mahler_torus needs a free abelian group (all factors Z)"),
        (["measure", "--group", "Z^4", "--poly", "x1+x1^-1", "--lambda", "0.1", "--method",
          "torus"], "torus quadrature limited to at most 3 variables"),
        (["spectrum", "--group", "D3", "--poly", "x+2*y"], "P must be reciprocal (P == P*)"),
        # Dicinf binds y^-1 = y, so the quotient's P is x + x^-1 + 2y, not reciprocal
        (["converge", "--chain", "dicyclic", "--group", "Dicinf", "--poly", "x+x^-1+y+y^-1",
          "--lambda", "0.1", "--params", "4,8"], "P must be reciprocal (P == P*)"),
        # the benchmark's small-mix mistake
        (["measure", "--group", "F2", "--poly", "x+x^-1+y+y^-1", "--method", "series"],
         "method 'series' needs an explicit lambda"),
    ],
    ids=["torus-D3", "torus-Z4", "spectrum", "dicyclic-chain", "series-no-lambda"],
)
def test_route_refusals_are_domain_errors(argv, message):
    rc, out, err = run_cli(argv)
    assert rc == 3 and out == ""
    assert strict_json(err) == {"error": {"type": "DomainError", "message": message}}


@pytest.mark.parametrize(
    "params, entry", [("4,x", "x"), ("4, 8,1.5", "1.5"), ("4,0", "0"), ("-3", "-3")]
)
def test_bad_params_entry_is_a_parse_error(params, entry):
    rc, out, err = run_cli(
        ["converge", "--chain", "abelian", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1",
         "--lambda", "0.1", "--params", params]
    )
    assert rc == 2 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "ParseError" and repr(entry) in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--group", "Z", "--poly", "x", "--lambda", "abc"],
        ["measure", "--poly", "x"],
        ["converge", "--chain", "cyclic", "--group", "Z", "--poly", "x", "--params", "4"],
        ["measure", "--group", "Z", "--poly", "x", "--format", "xml"],
        ["coeffs", "--group", "Z", "--poly", "x", "--n", "abc"],
        ["frobnicate"],
        [],
    ],
)
def test_command_line_mistake_is_a_json_parse_error(argv):
    rc, out, err = run_cli(argv)
    assert rc == 2 and out == ""
    assert strict_json(err)["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--group", "Z", "--poly", "x", "--support-cap", "-5"],
        ["measure", "--group", "Z", "--poly", "x", "--support-cap", "0"],
        ["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "0.1",
         "--method", "torus", "--grid", "0"],
        ["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "0.1",
         "--method", "torus", "--grid", "1"],
        ["genfun", "--series", "tree", "--degree", "-1"],
        ["genfun", "--series", "free", "--degree", "0"],
    ],
    ids=["support-cap-negative", "support-cap-0", "grid-0", "grid-1", "degree-negative",
         "degree-0"],
)
def test_size_below_its_floor_is_a_parse_error(argv):
    rc, out, err = run_cli(argv)
    assert rc == 2 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "ParseError"
    assert f"argument {argv[-2]}: must be at least" in error["message"]


# a valid command line of each command that once accepted an option its
# runner never read; with that option it is a command-line mistake now
WITHOUT_UNREAD_OPTION = {
    "coeffs": ["coeffs", "--group", "Z", "--poly", "x", "--n", "2"],
    "spectrum": ["spectrum", "--group", "Z/3", "--poly", "x+x^-1"],
    "agree-depth": ["agree-depth", "--group", "D6", "--group-b", "Dinf", "--poly", "x+x^-1+y",
                    "--n-max", "4"],
    "converge": ["converge", "--chain", "dihedral", "--group", "Dinf", "--poly", "x+x^-1+y",
                 "--lambda", "0.1", "--params", "4"],
}


@pytest.mark.parametrize(
    "command, option",
    [(command, "--epsilon") for command in WITHOUT_UNREAD_OPTION] + [("spectrum", "--support-cap")],
)
def test_an_option_the_runner_does_not_read_is_a_parse_error(command, option):
    argv = WITHOUT_UNREAD_OPTION[command]
    assert run_cli(argv)[0] == 0
    rc, out, err = run_cli(argv + [option, "20"])
    assert rc == 2 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == f"grmahler: unrecognized arguments: {option} 20"


@pytest.mark.parametrize("poly", ["x^" + "9" * 5000, "9" * 5000 + "*x", "1." + "9" * 5000 + "*x"],
                         ids=["exponent", "integer", "decimal"])
def test_a_number_too_long_for_int_is_a_parse_error(poly):
    rc, out, err = run_cli(["coeffs", "--group", "Z", "--poly", poly, "--n", "2"])
    assert rc == 2 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "ParseError" and "more than 4300 digits" in error["message"]


def test_help_still_prints_usage():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        main(["measure", "--help"])
    assert exit_info.value.code == 0
    assert out.getvalue().startswith("usage: grmahler measure")


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--group", "Z", "--poly", "x", "--n", "-1"],
        ["genfun", "--series", "z2", "--n", "-1"],
        ["agree-depth", "--group", "D6", "--group-b", "Dinf", "--poly", "x+x^-1+y",
         "--n-max", "-2"],
    ],
    ids=["coeffs", "genfun", "agree-depth"],
)
def test_negative_size_is_a_parse_error(argv):
    rc, out, err = run_cli(argv)
    assert rc == 2 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "ParseError" and "non-negative" in error["message"]


# pieces of command lines as (valid, invalid) choices; a tiny epsilon is
# drawn with and without --lambda, since every series route refuses a depth
# past its term cap before walking
BIG = "9" * 400  # an integer past float range (about 1e400)
BIG_POLY = f"{BIG}*x+{BIG}*x^-1"
HALF_BIG = "9" * 200  # its square is past float range, itself not


CLI_GROUPS = (("Z^2", "ZxZ/4", "Z/3xZ/2", "D2", "D3", "Dic1", "Dic2", "Dinf", "Dicinf", "F2",
               "C2*C3"),
              ("Q8", "Z/0", "Z", "Z^" + "9" * 30, "Z^12"))
CLI_POLYS = (("x+x^-1+y+y^-1", "3+x+y", "1+x+y", "x+2*y", "x", "2*x+y+y^-1",
              "3 + i*x - i*x^-1 + y", BIG_POLY), ("0", "x+*y", "x^", ""))
CLI_LAMBDAS = ((None, "0", "0.05", "-0.1", "0.3"), ("2", "nan", "inf", "abc"))
CLI_EPSILONS = ((None, "1e-3", "1e-6"), ("0", "-1", "nan", "abc"))
CLI_SIZES = (("0", "3", "6"), ("-1", "x"))
SERIES_OPTIONS = {"--lambda", "--epsilon", "--support-cap"}
CLI_COMMANDS = {
    # command: (the options of SERIES_OPTIONS it takes, required options,
    # optional options), each option with its pieces (None: a flag)
    "measure": (SERIES_OPTIONS, {}, {"--method": (mh.METHODS, ("bad",)),
                                     "--grid": (("4", "8", "100000"), ("1", "0", "x")),
                                     "--allow-continuation": None}),
    "coeffs": ({"--support-cap"}, {}, {"--n": CLI_SIZES}),
    "spectrum": (set(), {}, {}),
    "u": (SERIES_OPTIONS, {}, {}),
    "compare": (SERIES_OPTIONS, {"--group-b": CLI_GROUPS}, {}),
    "converge": ({"--lambda", "--support-cap"},
                 {"--chain": (tuple(cli.ex.CHAINS), ("bad",)),
                  "--params": (("4", "2,3"), ("0", "4,x", "", "-2"))}, {}),
    "agree-depth": ({"--support-cap"}, {"--group-b": CLI_GROUPS}, {"--n-max": CLI_SIZES}),
    "genfun": (set(), {"--series": (("tree", "free", "free-p2", "psl2-xyy", "z2"), ("bad",))},
               {"--degree": (("2", "3"), ("-1", "0")), "--n": CLI_SIZES}),
}


def _piece(pieces):
    valid, invalid = pieces
    # one draw in sixteen takes an invalid piece; 7 rather than 0, since
    # Hypothesis draws the ends of a range far more often than its middle
    return st.tuples(st.integers(0, 15), st.sampled_from(valid), st.sampled_from(invalid)).map(
        lambda t: t[2] if t[0] == 7 else t[1]
    )


@st.composite
def command_lines(draw):
    command = draw(_piece((tuple(CLI_COMMANDS), ("bogus",))))
    takes, required, optional = CLI_COMMANDS.get(command, (SERIES_OPTIONS, {}, {}))
    argv = [command]
    if command != "genfun":
        argv += ["--group", draw(_piece(CLI_GROUPS)), "--poly", draw(_piece(CLI_POLYS))]
    if "--support-cap" in takes:
        argv += ["--support-cap", "20000"]
    lam = draw(_piece(CLI_LAMBDAS)) if "--lambda" in takes else None
    if lam is not None:
        argv += ["--lambda", lam]
    if "--epsilon" in takes:
        valid_eps, invalid_eps = CLI_EPSILONS
        epsilon = draw(_piece((valid_eps + ("1e-12", "1e-300"), invalid_eps)))
        if epsilon is not None:
            argv += ["--epsilon", epsilon]
    for option, pieces in required.items():
        argv += [option, draw(_piece(pieces))]
    for option, pieces in optional.items():
        if draw(st.booleans()):
            argv += [option] if pieces is None else [option, draw(_piece(pieces))]
    if draw(st.integers(0, 15)) == 7:  # an option goes missing
        del argv[1:3]
    return argv + ["--format", draw(_piece((("json",), ("xml",))))]


def with_examples(argvs):
    def decorate(test):
        for argv in argvs:
            test = example(argv)(test)
        return test

    return decorate


# every --method with and without --lambda, on a group its route accepts
METHOD_ARGVS = {
    method: [["measure", "--group", group, "--poly", poly, "--method", method] + lam
             for lam in ([], ["--lambda", "0.05"])]
    for method, group, poly in (
        ("auto", "D3", "3+x+y"), ("blocks", "D3", "x+x^-1+y"), ("finite", "D3", "x+x^-1+y"),
        ("series", "Dinf", "x+x^-1+y"), ("general", "Dinf", "3+x+y"),
        ("torus", "Z^2", "x+x^-1+y+y^-1"))
}


def test_method_argvs_cover_every_method():
    assert set(METHOD_ARGVS) == set(mh.METHODS)


# the lambda-free measure of BIG_POLY over Z/3xZ/2 prints its exact
# determinant in full: 4802 digits, past json's default int digit limit
BIG_DETERMINANT_ARGV = ["measure", "--group", "Z/3xZ/2", "--poly", BIG_POLY, "--format", "json"]


@settings(max_examples=300)
@with_examples(sum(METHOD_ARGVS.values(), []) + [BIG_DETERMINANT_ARGV])
@given(command_lines())
def test_any_command_line_gives_json_or_a_typed_error(argv):
    start = time.perf_counter()
    rc, out, err = run_cli(argv)
    assert time.perf_counter() - start < 10.0, argv
    assert rc in (0, 2, 3, 4), argv
    if rc == 0:
        strict_json(out, parse_int=Decimal)
    else:
        assert out == ""
        assert isinstance(strict_json(err.splitlines()[-1])["error"]["message"], str)


# lambda-free exact determinants far past float range (det B ~ c^(2|G|))
@pytest.mark.parametrize(
    "group, poly, c",
    [("Z/3", "1" + "0" * 1500 + "+x", 10**1500), ("Z/2xZ/2", "1" + "0" * 80 + "+x+y", 10**80)],
    ids=["Z/3", "Z/2xZ/2"],
)
def test_overflowing_exact_determinant_gives_a_value(group, poly, c):
    rc, out, err = run_cli(["measure", "--group", group, "--poly", poly])
    assert rc == 0 and err == ""
    obj = strict_json(out, parse_int=Decimal)  # det B has up to ~9000 digits
    digits = obj["extra"]["determinant"].adjusted()  # floor(log10 det B)
    assert abs(digits - 2 * int(obj["extra"]["group_order"]) * math.log10(c)) <= 1
    assert abs(obj["value"] - math.log(c)) <= 1e-12 * math.log(c)


@pytest.mark.parametrize(
    "argv, name",
    [
        (("spectrum", "--group", "Z/3", "--poly", BIG_POLY), "a coefficient of P"),
        (("measure", "--group", "Z", "--poly", BIG_POLY, "--lambda", "0.1"), "the l1 norm of P"),
        (("measure", "--group", "Z", "--poly", BIG_POLY, "--lambda", "0.1", "--method", "torus"),
         "the l1 norm of P"),
        (("u", "--group", "Z", "--poly", BIG_POLY, "--lambda", "0.1"), "the l1 norm of P"),
        (("coeffs", "--group", "Z", "--poly", BIG_POLY), "the l1 norm of P"),
        (("compare", "--group", "Z", "--group-b", "Z/3", "--poly", BIG_POLY, "--lambda", "0.1"),
         "the l1 norm of P"),
        (("measure", "--group", "Dinf", "--poly", BIG + "+x+y"), "the l1 norm of P"),
    ],
)
def test_a_value_past_float_range_is_a_domain_error(argv, name):
    rc, out, err = run_cli(argv)
    assert (rc, out) == (3, "")
    error = strict_json(err)["error"]
    assert error == {"type": "DomainError", "message": f"{name} is out of float range"}


def _tiny(digit: str, zeros: int) -> str:
    """digit * 10^-(zeros + 1) as a decimal literal, which parses exactly."""
    return "0." + "0" * zeros + digit


# a_2 = 2 c^2 is past float range for c = 10^200 - 1, and rounds to 0 for
# c = 10^-300, but every term a_n lambda^n is below 0.02
BIG_TERMS = [(HALF_BIG, "1e-201"), (_tiny("1", 299), "1e299")]


@pytest.mark.parametrize("c, lam", BIG_TERMS, ids=["big counts", "big lambda"])
def test_the_lambda_series_scales_a_term_past_float_range_before_rounding(c, lam):
    # Jensen's formula: m(1 - t(x + x^-1)) = log((1 + sqrt(1 - 4t^2)) / 2), t = lambda c
    rc, out, err = run_cli(["measure", "--group", "Z", "--poly", f"{c}*x+{c}*x^-1",
                            "--lambda", lam])
    assert rc == 0 and err == ""
    res, t = strict_json(out), float(lam) * float(Fraction(c))
    want = math.log((1 + math.sqrt(1 - 4 * t * t)) / 2)
    assert abs(res["value"] - want) <= res["error_bound"] + 1e-15


# u once refused the first case ("walk count a_14 is out of float range") and
# gave 1 for the second; it now sums such counts exactly and rounds once
@pytest.mark.parametrize("c, lam", BIG_TERMS, ids=["walk count a_14", "walk count rounds to 0"])
def test_u_sums_walk_counts_past_float_range_exactly(c, lam):
    # with t = lambda c, a_2n = binom(2n, n) c^(2n): u = 1 / sqrt(1 - 4t^2)
    rc, out, err = run_cli(["u", "--group", "Z", "--poly", f"{c}*x+{c}*x^-1",
                            "--lambda", lam])
    assert rc == 0 and err == ""
    res, t = strict_json(out), float(lam) * float(Fraction(c))
    assert abs(res["value"] - 1 / math.sqrt(1 - 4 * t * t)) <= res["error_bound"] + 1e-15


def test_the_lambda_free_series_needs_only_l1_of_q_in_float_range():
    # the series walks P = -(x + y)/c, c = 10^200 - 1: no coefficient is
    # squared, so the value is log c within its bound (and the 15 digits
    # the CLI prints)
    rc, out, err = run_cli(["measure", "--group", "Dinf", "--poly", HALF_BIG + "+x+y"])
    assert rc == 0 and err == ""
    res, log_c = strict_json(out), math.log(int(HALF_BIG))
    assert abs(res["value"] - log_c) <= res["error_bound"] + 1e-14 * log_c


# |c| = 3e-320 is subnormal as a float and 3e-330 is below float range, yet
# -v/c and log|c| are taken exactly: Q is 10^-(zeros + 1) (3 + x + y), so the
# value is m(3 + x + y) - (zeros + 1) log 10
@pytest.mark.parametrize("zeros", [319, 329], ids=["subnormal", "underflow"])
def test_the_lambda_free_series_needs_no_coefficient_of_q_in_float_range(zeros):
    poly = f"{_tiny('3', zeros)}+{_tiny('1', zeros)}*x+{_tiny('1', zeros)}*y"
    rc, out, err = run_cli(["measure", "--group", "Dinf", "--poly", poly])
    assert rc == 0 and err == ""
    res = strict_json(out)
    want = D64_3XY - (zeros + 1) * math.log(10)
    assert abs(res["value"] - want) <= res["error_bound"] + 1e-14 * abs(want)
    rc, out, err = run_cli(["measure", "--group", "Dinf", "--poly", _tiny("3", zeros) + "*x"])
    assert rc == 0 and err == ""
    res = strict_json(out)
    want = math.log(3) - (zeros + 1) * math.log(10)
    assert res["error_bound"] == 0 and abs(res["value"] - want) <= 1e-14 * abs(want)


def test_a_walk_refuses_a_free_word_past_the_cap_at_once():
    # P^2 = x^2000000 passes the one-million-letter cap at the walk's first
    # product past it
    start = time.perf_counter()
    rc, out, err = run_cli(["coeffs", "--group", "F2", "--poly", "x^1000000", "--n", "40"])
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (4, "")
    error = strict_json(err)["error"]
    assert error == {"type": "ResourceLimitError",
                     "message": "2000000 letters pass the free-word cap 1000000"}


def test_the_exact_finite_route_answers_past_float_range():
    rc, out, err = run_cli(["measure", "--group", "D3", "--poly", BIG + "+x+y"])
    assert rc == 0 and err == ""
    value = strict_json(out, parse_int=Decimal)["value"]  # det B has 4800 digits
    assert abs(value - 400 * math.log(10)) <= 1e-12 * 400 * math.log(10)


def test_a_free_power_past_the_word_cap_is_refused_at_once():
    start = time.perf_counter()
    rc, out, err = run_cli(["coeffs", "--group", "F2", "--poly", "x^99999999+y", "--n", "2"])
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (4, "")
    assert strict_json(err)["error"]["type"] == "ResourceLimitError"


def test_resource_cap_exit_4():
    rc, _, err = run_cli(
        ["coeffs", "--group", "F2", "--poly", "x+x^-1+y+y^-1",
         "--n", "8", "--support-cap", "50"]
    )
    assert rc == 4
    assert json.loads(err)["error"]["type"] == "ResourceLimitError"


F4 = "x+x^-1+y+y^-1"


# a nearest-neighbour P on F2 goes to the first-passage solver, which builds
# no power: these F2 rows take a square letter, so that they still walk
F4_SQUARE = "x^2+x^-2+y+y^-1"


@pytest.mark.parametrize(
    "argv",
    [
        ("u", "--group", "F2", "--poly", F4_SQUARE, "--lambda", "0.1", "--epsilon", "1e-3"),
        ("measure", "--group", "F2", "--poly", "3+x^2+y"),
        ("compare", "--group", "F2", "--group-b", "Z^2", "--poly", F4_SQUARE,
         "--lambda", "0.1", "--epsilon", "1e-3"),
        ("converge", "--chain", "abelian", "--group", "Z^2", "--poly", F4,
         "--lambda", "0.1", "--params", "4"),
        ("converge", "--chain", "dihedral", "--group", "Dinf", "--poly", "x+x^-1+y",
         "--lambda", "0.1", "--params", "4"),
        ("agree-depth", "--group", "D6", "--group-b", "Dinf", "--poly", "x+x^-1+y",
         "--n-max", "10"),
    ],
)
def test_support_cap_reaches_every_series_command(argv):
    rc, out, err = run_cli(list(argv) + ["--support-cap", "20"])
    assert rc == 4 and out == ""
    assert strict_json(err)["error"]["type"] == "ResourceLimitError"


@pytest.mark.parametrize(
    "group, poly", [("Z", "1+x"), ("Z^2", "1+x+y"), ("Dinf", "1+x+y")]
)
def test_uncertified_general_series_is_a_domain_error(group, poly):
    rc, out, err = run_cli(["measure", "--group", group, "--poly", poly])
    assert rc == 3 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "DomainError"
    assert "certificate" in error["message"]


def test_general_series_too_deep_is_refused_at_once():
    # every series route shares the term cap, with or without lambda; the
    # cap counts terms, not work, so a cheap walk on a finite group at decay
    # rate 0.96 (about 640 terms at the default epsilon) is refused too
    lam = ["--poly", F4, "--lambda", "0.1", "--epsilon", "1e-300"]
    for argv in (["measure", "--group", "Z^2", "--poly", "3+x+y", "--epsilon", "1e-300"],
                 ["measure", "--group", "Z^2", *lam], ["u", "--group", "Z^2", *lam],
                 ["u", "--group", "D3", "--poly", "x+x^-1+y", "--lambda", "0.32"]):
        start = time.perf_counter()
        rc, out, err = run_cli(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert rc == 4 and out == ""
        error = strict_json(err)["error"]
        assert error["type"] == "ResourceLimitError"
        assert "max_terms=400" in error["message"]


@pytest.mark.parametrize("argv", [
    ("measure", "--group", "D100000", "--poly", "x+x^-1+y", "--lambda", "0.1"),
    ("spectrum", "--group", "Z/300xZ/300", "--poly", F4),
    ("converge", "--chain", "dihedral", "--group", "Dinf", "--poly", "x+x^-1+y",
     "--lambda", "0.1", "--params", "100000"),
    # the lambda-free exact determinant builds no adjacency: the same cap
    # refuses these before any character is evaluated
    ("measure", "--group", "D100000", "--poly", "3+x+y"),
    ("measure", "--group", "Z/300xZ/300", "--poly", "3+x+y"),
])
def test_a_finite_group_past_the_order_cap_exits_4(argv, monkeypatch):
    # binding P and walking the infinite limit call the group law; only the
    # Cayley adjacency enumerates the group
    def no_elements(g):
        pytest.fail("the order cap must be checked before the group is enumerated")

    monkeypatch.setattr(sp.gr, "elements", no_elements)
    rc, out, err = run_cli(argv)
    assert rc == 4 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "ResourceLimitError"
    assert "max_order=4096" in error["message"]


@pytest.mark.parametrize("argv, option", [
    (("coeffs", "--group", "Z", "--poly", "x+x^-1", "--n"), "--n"),
    (("agree-depth", "--group", "Z/4", "--group-b", "Z", "--poly", "x+x^-1", "--n-max"), "--n-max"),
    (("genfun", "--series", "z2", "--n"), "--n"),
])
def test_a_depth_past_the_term_cap_exits_4(argv, option):
    if "--poly" in argv:  # a malformed polynomial is reported before the cap
        bad = list(argv)
        bad[bad.index("--poly") + 1] = "x+"
        rc, _, err = run_cli(bad + ["401"])
        assert rc == 2 and strict_json(err)["error"]["type"] == "ParseError"
    start = time.perf_counter()
    rc, out, err = run_cli(argv + ("401",))
    assert time.perf_counter() - start < 1.0
    assert rc == 4 and out == ""
    assert strict_json(err)["error"] == {
        "type": "ResourceLimitError", "message": f"{option} 401 exceeds max_terms=400"}
    rc, out, err = run_cli(argv + ("400",))
    assert rc == 0 and err == ""
    assert len(strict_json(out)["extra"]["coeffs" if option == "--n" else "coeff_pairs"]) == 401


# ---------------------------------------------------------------------------
# the other subcommands


def test_spectrum_command():
    rc, out, _ = run_cli(["spectrum", "--group", "Z/2", "--poly", "2*x"])
    assert rc == 0
    obj = json.loads(out)
    vals = obj["extra"]["eigenvalues"]
    assert len(vals) == 2
    assert abs(vals[0] + 2) < 1e-12 and abs(vals[1] - 2) < 1e-12
    assert obj["method"] == "blocks"


def test_lambda_free_finite_measure_computes_one_determinant(monkeypatch):
    calls = []
    det_hermitian, character_determinant = sp.det_hermitian, sp.character_determinant

    def counted(name, det):
        def wrapped(*args):
            calls.append(name)
            return det(*args)

        return wrapped

    monkeypatch.setattr(sp, "det_hermitian", counted("det_hermitian", det_hermitian))
    monkeypatch.setattr(sp, "character_determinant",
                        counted("character_determinant", character_determinant))
    argv = ("measure", "--group", "Z/3xZ/2", "--poly", "1+x+y")
    rc, out, _ = run_cli(argv)
    assert rc == 0 and out == GOLDEN[argv]
    assert calls == ["character_determinant"]


def test_u_command():
    rc, out, _ = run_cli(
        ["u", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "0.1"]
    )
    assert rc == 0
    obj = json.loads(out)
    import math

    want = sum(math.comb(2 * m, m) ** 2 * 0.1 ** (2 * m) for m in range(30))
    assert abs(obj["value"] - want) < 1e-9


def test_compare_command():
    rc, out, _ = run_cli(
        ["compare", "--group", "Z/3xZ/2", "--group-b", "D3", "--poly", "x+2*y"]
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["extra"]["verdict"] == "unequal"


def test_converge_command_csv():
    rc, out, _ = run_cli(
        [
            "converge",
            "--chain",
            "abelian",
            "--group",
            "Z^2",
            "--poly",
            "x+x^-1+y+y^-1",
            "--lambda",
            "0.1",
            "--params",
            "4,8",
            "--format",
            "csv",
        ]
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "parameter,value,gap,limit_method,q"
    assert len(lines) == 3


# chain: one small request over its limit group
CHAIN_REQUESTS = {
    "abelian": ("Z^2", "x+x^-1+y+y^-1", "2,3"),
    "dihedral": ("Dinf", "x+x^-1+y", "3,6"),
    "dicyclic": ("Dicinf", "x+x^-1", "4,8"),
    "zxzm": ("Z^2", "x+x^-1+y+y^-1", "2,4"),
}


def test_chain_choices_are_the_chain_table():
    subcommands = next(a for a in cli.PARSER._actions if isinstance(a, argparse._SubParsersAction))
    chain = next(a for a in subcommands.choices["converge"]._actions if a.dest == "chain")
    assert chain.choices == tuple(cli.ex.CHAINS)


@pytest.mark.parametrize("chain", cli.ex.CHAINS)
def test_every_chain_answers_with_strict_json(chain):
    group, poly, params = CHAIN_REQUESTS[chain]
    rc, out, err = run_cli(["converge", "--chain", chain, "--group", group, "--poly", poly,
                            "--lambda", "0.1", "--params", params])
    assert rc == 0 and err == ""
    obj = strict_json(out)
    assert obj["method"] == "converge-" + chain
    assert len(obj["extra"]["rows"]) == len(params.split(","))


@pytest.mark.parametrize("chain, group", [
    ("dihedral", "Z^2"), ("dihedral", "F2"), ("dihedral", "Dicinf"), ("dicyclic", "Dinf"),
    ("zxzm", "ZxZ/3"), ("zxzm", "Dinf"), ("abelian", "Z/3xZ"), ("abelian", "Dinf"),
])
def test_converge_refuses_a_group_the_chain_does_not_serve(chain, group):
    rc, out, err = run_cli(["converge", "--chain", chain, "--group", group,
                            "--poly", "x+x^-1+y+y^-1", "--lambda", "0.1", "--params", "4,8"])
    assert rc == 3 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "DomainError"
    assert error["message"].startswith(f"the {chain} chain does not serve ")
    assert f" serve {cli.parse_group(group).spec()}: " in error["message"]


def test_agree_depth_command():
    rc, out, _ = run_cli(
        [
            "agree-depth",
            "--group",
            "D6",
            "--group-b",
            "Dinf",
            "--poly",
            "x+x^-1+y",
            "--n-max",
            "8",
        ]
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["extra"]["first_disagreement"] == 6


# exact Gaussian-rational walk counts: a real one renders as its number,
# any other as "(a+bi)"
GAUSSIAN_COEFFS = ("coeffs", "--group", "Z^2", "--poly", "x+x^-1+i*y+i*y^-1", "--n", "4")
GAUSSIAN_AGREE = ("agree-depth", "--group", "Z/4", "--group-b", "Z",
                  "--poly", "x+x^-1+i*x^2", "--n-max", "4")


def test_gaussian_walk_count_renders_as_a_number():
    rc, out, err = run_cli(GAUSSIAN_COEFFS)
    assert rc == 0 and err == ""
    coeffs = strict_json(out)["extra"]["coeffs"]
    assert coeffs == [1, 0, 0, 0, -12] and type(coeffs[4]) is int
    rc, out, _ = run_cli(GAUSSIAN_COEFFS + ("--format", "csv"))
    assert rc == 0 and out.splitlines()[-1] == "4,-12"


def test_gaussian_agree_depth_in_json_and_csv():
    rc, out, err = run_cli(GAUSSIAN_AGREE)
    assert rc == 0 and err == ""
    extra = strict_json(out)["extra"]
    assert extra["first_disagreement"] == 2
    assert extra["coeff_pairs"] == [[1, 1], [0, 0], [1, 2], ["(0+6i)", "(0+3i)"], [-3, 6]]
    rc, out, err = run_cli(GAUSSIAN_AGREE + ("--format", "csv"))
    assert rc == 0 and err == ""
    assert out.splitlines()[4] == "3,(0+6i),(0+3i),no"


def test_format_number_renders_complex_values():
    GR = GaussianRational
    assert format_number(GR(-12)) == "-12"
    assert format_number(GR(Fraction(1, 3))) == format_number(Fraction(1, 3))
    assert format_number(GR(Fraction(1, 2), -2)) == '"(0.5-2i)"'
    assert format_number(GR(10**20, 1)) == f'"({10**20}+1i)"'
    assert format_number(complex(0.25, 0.0)) == "0.25"
    assert format_number(complex(-1.5, 1e-20)) == '"(-1.5+1e-20i)"'
    assert isinstance(strict_json(format_number(complex(0.0, math.inf))), str)
    assert strict_json(render_json([GR(0, 6), 1j])) == ["(0+6i)", "(0+1i)"]


def test_genfun_command():
    rc, out, _ = run_cli(["genfun", "--series", "z2", "--n", "4"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["extra"]["coeffs"] == [1, 0, 4, 0, 36]
    rc, out, _ = run_cli(["genfun", "--series", "tree", "--degree", "4", "--n", "6"])
    assert json.loads(out)["extra"]["coeffs"] == [1, 0, 4, 0, 28, 0, 232]


def test_measure_torus_method():
    rc, out, _ = run_cli(
        ["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1",
         "--lambda", "0.1", "--method", "torus", "--grid", "64"]
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["method"] == "quadrature"
    assert abs(obj["value"] + 0.0209735074542) < 1e-10


# the MeasureResult fields each route fills, in the order "extra" prints them
@pytest.mark.parametrize(
    "argv, extra",
    [
        (["--group", "Z/3xZ/2", "--poly", "1+x+y"], {"group_order": 6, "determinant": 81}),
        (["--group", "Dinf", "--poly", "3+x+y", "--epsilon", "1e-3"],
         {"group_order": "infinite"}),
        (["--group", "D3", "--poly", "x+x^-1+y", "--lambda", "0.1"],
         {"group_order": 6, "imaginary_discard": 0}),
        (["--group", "D3", "--poly", "x+x^-1+y", "--lambda", "0.1", "--method", "series"],
         {"imaginary_discard": 0}),
        (["--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "0.1",
          "--method", "torus"], {"grid": 256}),
        (["--group", "Z^3", "--poly", "x1+x1^-1+x2+x2^-1+x3+x3^-1", "--lambda", "0",
          "--method", "torus"], {"grid": 64}),
    ],
    ids=["general-finite", "general-infinite", "finite", "series",
         "torus-Z2", "torus-Z3"],
)
def test_measure_extra_holds_what_its_route_computed(argv, extra):
    rc, out, err = run_cli(["measure"] + argv)
    assert rc == 0 and err == ""
    assert list(strict_json(out)["extra"].items()) == list(extra.items())


def test_huge_torus_grid_is_a_resource_error():
    start = time.perf_counter()
    rc, out, err = run_cli(
        ["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "0.1",
         "--method", "torus", "--grid", "100000"]
    )
    assert time.perf_counter() - start < 1.0
    assert rc == 4 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "ResourceLimitError" and "max_points" in error["message"]


def test_huge_abelian_converge_sweep_is_a_resource_error():
    start = time.perf_counter()
    rc, out, err = run_cli(
        ["converge", "--chain", "abelian", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1",
         "--lambda", "0.1", "--params", "2048"]
    )
    assert time.perf_counter() - start < 1.0
    assert rc == 4 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "ResourceLimitError" and "max_points=" in error["message"]


def test_measure_allow_continuation():
    rc, out, _ = run_cli(
        ["measure", "--group", "Z/2", "--poly", "2*x", "--lambda", "1",
         "--allow-continuation"]
    )
    assert rc == 0
    obj = json.loads(out)
    assert abs(obj["value"] - 0.5493061443340549) < 1e-12
    # without the flag the same lambda is out of the domain
    rc2, _, err = run_cli(
        ["measure", "--group", "Z/2", "--poly", "2*x", "--lambda", "1"]
    )
    assert rc2 == 3
    assert json.loads(err)["error"]["type"] == "DomainError"


def test_out_writes_file(tmp_path):
    path = tmp_path / "result.json"
    rc, out, _ = run_cli(
        ["measure", "--group", "Z/3xZ/2", "--poly", "1+x+y", "--out", str(path)]
    )
    assert rc == 0 and out == ""
    text = path.read_text()
    assert text == GOLDEN[("measure", "--group", "Z/3xZ/2", "--poly", "1+x+y")]


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_a_typed_error(tmp_path, target):
    path = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    rc, out, err = run_cli(
        ["measure", "--group", "Z/3xZ/2", "--poly", "1+x+y", "--out", str(path)]
    )
    assert rc == 2 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("grmahler measure: argument --out: ")
    assert str(path) in error["message"]


def test_empty_out_is_a_typed_error():
    rc, out, err = run_cli(["genfun", "--series", "z2", "--n", "2", "--out", ""])
    assert rc == 2 and out == ""
    error = strict_json(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("grmahler genfun: argument --out: ")


# one call of every subcommand, each of which must succeed
EVERY_SUBCOMMAND = [
    ("measure", "--group", "Z/3xZ/2", "--poly", "3+x+x^-1+y", "--lambda", "0.1"),
    ("measure", "--group", "Z/3xZ/2", "--poly", "3+x+x^-1+y"),
    ("coeffs", "--group", "D3", "--poly", "x+x^-1+y", "--n", "4", "--format", "csv"),
    ("spectrum", "--group", "D3", "--poly", "x+x^-1+y"),
    ("u", "--group", "Z", "--poly", "x+x^-1", "--lambda", "0.1"),
    ("compare", "--group", "Z/3xZ/2", "--group-b", "D3", "--poly", "x+2*y"),
    ("converge", "--chain", "dihedral", "--group", "Dinf", "--poly", "x+x^-1+y",
     "--lambda", "0.1", "--params", "4,8"),
    ("agree-depth", "--group", "D6", "--group-b", "Dinf", "--poly", "x+x^-1+y", "--n-max", "6"),
    ("genfun", "--series", "z2", "--n", "4"),
]


def run_cli_or_exit(argv):
    """run_cli, with a SystemExit (from --help) recorded as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exit_info:
            rc = ("SystemExit", exit_info.code)
    return rc, out.getvalue(), err.getvalue()


def test_main_reuses_one_parser(monkeypatch):
    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    for argv in EVERY_SUBCOMMAND:
        rc, out, err = run_cli(argv)
        assert rc == 0 and err == "", argv

    # no state leaks from one call into the next: each answers alike in
    # either order
    sequence = [
        *sorted(GOLDEN),
        *EVERY_SUBCOMMAND,
        ("measure", "--group", "Z", "--poly", "x", "--lambda", "abc"),
        ("measure", "--help"),
        ("genfun", "--series", "free", "--degree", "2", "--n", "4"),
    ]
    forward = [run_cli_or_exit(argv) for argv in sequence]
    backward = [run_cli_or_exit(argv) for argv in reversed(sequence)][::-1]
    assert forward == backward
    assert forward[-3][0] == 2 and strict_json(forward[-3][2])["error"]["type"] == "ParseError"
    assert forward[-2][0] == ("SystemExit", 0)
    assert strict_json(forward[-1][1])["group"] is None


def _parse_outcome(parse, argv):
    """What parse(argv) gives: the parsed arguments, a ParseError's text, or a
    SystemExit's code and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            return vars(parse(list(argv)))
        except ParseError as err:
            return str(err)
        except SystemExit as exit_info:
            return exit_info.code, out.getvalue()


D12 = ["measure", "--group", "D12", "--poly", "x+x^-1+2*y"]


def test_main_parses_as_the_full_parser_does():
    argvs = [
        *GOLDEN, *EVERY_SUBCOMMAND, *readme_commands(),
        # no subcommand first: the full parser answers
        [], ["--help"], ["bogus"], ["--", *D12], ["meas", *D12[1:]],
        # the subcommand's parser answers
        D12, ["measure"], [*D12, "--help"], [*D12, "--lambda", "0.1", "--bogus"],
        [*D12, "--lambda", "0.1", "stray"], [*D12, "--lambda=0.1"], [*D12, "--lam", "0.1"],
        [*D12, "--lambda", "abc"], ["measure", "--", *D12[1:]], [*D12, "--", "--lambda", "0.1"],
    ]
    for argv in argvs:
        assert _parse_outcome(cli._parse, argv) == _parse_outcome(cli.PARSER.parse_args, argv), argv


def test_csv_format_for_coeffs():
    rc, out, _ = run_cli(
        ["coeffs", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--n", "4",
         "--format", "csv"]
    )
    assert rc == 0
    assert out == "n,a_n\n0,1\n1,0\n2,4\n3,0\n4,36\n"


def readme_commands():
    """The argv of each grmahler command line in the README's sh blocks."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("grmahler ")
    ]


def test_readme_examples_answer():
    commands = readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        start = time.perf_counter()
        rc, out, err = run_cli(argv)
        elapsed = time.perf_counter() - start
        assert rc == 0 and err == "", argv
        strict_json(out)
        assert elapsed < 10.0, (argv, elapsed)


# Run in a fresh interpreter, so numpy or dataclasses can only be in
# sys.modules if the calls made here imported it.  Every call but the last
# stays off the adjacency, character-array and torus routes; no call,
# numpy's import included, needs dataclasses.  The library's lambda-free
# determinant of a float Q, which the command line cannot pass, runs first.
IMPORT_BOUNDARY_SCRIPT = """
import contextlib, io, json, sys
import grmahler.cli
from grmahler import groups, mahler, ring
steps = []
def record(name, rc):
    steps.append((name, rc, "numpy" in sys.modules, "dataclasses" in sys.modules))
record("import", 0)
D64 = groups.Dihedral(64)
mahler.measure(ring.ring_element(D64, {(0, 0): 3.0, (0, 1): 1.0, (1, 0): 1.0}))
record("float determinant", 0)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = grmahler.cli.main(argv)
    record(argv[0], rc)
print(json.dumps(steps))
"""


def test_only_float_spectral_routes_import_numpy():
    numpy_free = [
        ["coeffs", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--n", "6"],
        ["genfun", "--series", "z2", "--n", "4"],
        ["measure", "--group", "Dinf", "--poly", "3+x+y"],  # λ-free series
        ["measure", "--group", "Z/3xZ/2", "--poly", "1+x+y"],  # exact character determinant
        ["measure", "--group", "D4", "--poly", "x+x^-1+y", "--lambda", "0.1"],  # blocks
        ["spectrum", "--group", "Z/3xZ/2", "--poly", "x+x^-1+y"],  # blocks
        ["spectrum", "--group", "D5", "--poly", "x+x^-1+2*y"],
        ["measure", "--group", "D512", "--poly", "x+x^-1+y", "--lambda", "0.1"],
        ["converge", "--chain", "dihedral", "--group", "Dinf", "--poly", "x+x^-1+y",
         "--lambda", "0.1", "--params", "4,8,16,32"],
        ["compare", "--group", "D8", "--group-b", "Z/8xZ/2", "--poly", "x+x^-1+y",
         "--lambda", "0.1"],
    ]
    float_spectral = ["measure", "--group", "D4", "--poly", "x+x^-1+y", "--lambda", "0.1",
                      "--method", "finite"]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_BOUNDARY_SCRIPT, json.dumps([*numpy_free, float_spectral])],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    steps = json.loads(done.stdout)
    assert [rc for _, rc, _, _ in steps] == [0] * 13
    assert [numpy for _, _, numpy, _ in steps] == [False] * 12 + [True]
    assert [dataclasses for _, _, _, dataclasses in steps] == [False] * 13
