"""Command-line front end.

Every run emits one deterministic artifact: a JSON object

    {"command": ..., "group": ..., "poly": ..., "lambda": ..., "method": ...,
     "value": ..., "error_bound": ..., "extra": {...}}

or, with --format csv, a table with a header row.  format_number renders
every value the library returns: floats and Fractions with 15 significant
digits, ints exactly, a complex or Gaussian-rational value with zero
imaginary part as its real value, any other as the string "(a+bi)", and
infinity as "infinite".  Each subcommand binds its runner, which takes the
parsed arguments.  The parser is built once, when this module is imported,
so main can be called many times in one process, and main parses with the
subcommand's parser, which reads the arguments after the subcommand once.
Exit codes: 0 ok, 2 parse error (an unwritable --out file too), 3 domain
error (lambda out of disc, singular determinant, ...), 4 resource cap
exceeded.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps quotes a str by

from . import coeffs as cf
from . import experiments as ex
from . import genfun as gf
from . import mahler as mh
from . import ring as rg
from . import spectra as sp
from .errors import DomainError, GrmahlerError, ParseError, ResourceLimitError
from .parsing import parse_group, parse_poly, to_ring_element

DEFAULT_EPSILON = 1e-10


# ---------------------------------------------------------------------------
# deterministic serialization


_CHUNK_DIGITS = 1000  # below the interpreter's str(int) digit limit
_CHUNK = 10**_CHUNK_DIGITS


def _int_text(n: int) -> str:
    """All digits of n, in chunks: str() of a very long int is refused."""
    if n < 0:
        return "-" + _int_text(-n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(f"{r:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _fraction_text(x: Fraction) -> str:
    """x rounded half-even to 15 significant digits and laid out as
    format(float, ".15g") would, in exact arithmetic: float(x) overflows
    past about 1e308."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    x = abs(x)
    # decimal exponent of the leading digit: estimated, then made exact
    e = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    digits = round(x / Fraction(10) ** (e - 14))
    if digits == 10**15:
        digits, e = 10**14, e + 1
    s = str(digits).rstrip("0")
    if not -4 <= e < 15:
        mantissa = s[0] + ("." + s[1:] if len(s) > 1 else "")
        return f"{sign}{mantissa}e{'-' if e < 0 else '+'}{abs(e):02d}"
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{s}"
    if len(s) <= e + 1:
        return sign + s + "0" * (e + 1 - len(s))
    return f"{sign}{s[:e + 1]}.{s[e + 1:]}"


def format_number(x) -> str:
    """15 significant digits for floats and Fractions; exact integers stay
    integers, however long.  A complex or Gaussian-rational value with zero
    imaginary part is its real value; any other is the string "(a+bi)"."""
    if isinstance(x, float):
        if math.isnan(x):
            raise ValueError("NaN cannot be rendered as a number")
        if math.isinf(x):
            return '"infinite"'
        if x == 0.0:
            return "0"
        return f"{x:.15g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return _int_text(x)
    if isinstance(x, Fraction):
        return _fraction_text(x)
    if isinstance(x, cf.GaussianRational):
        re, im = cf.exact_real(x.re), cf.exact_real(x.im)
    elif isinstance(x, complex):
        re, im = x.real, x.imag
    else:
        raise TypeError(f"not a number: {x!r}")
    if im == 0:
        return format_number(re)
    a, b = (format_number(v).strip('"') for v in (re, abs(im)))
    return f'"({a}{"-" if im < 0 else "+"}{b}i)"'


def render_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (bool, int, float, Fraction, complex, cf.GaussianRational)):
        return format_number(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{_quote(str(k))}: {render_json(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    raise TypeError(f"cannot serialize {obj!r}")


def render_csv(header: list[str], rows: list[list]) -> str:
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        return format_number(v).strip('"')

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines)


def _result_object(args, method, value, error_bound, extra) -> dict:
    return {
        "command": args.command,
        "group": args.group,
        "poly": args.poly,
        "lambda": args.lam,
        "method": method,
        "value": value,
        "error_bound": error_bound,
        "extra": extra,
    }


# ---------------------------------------------------------------------------
# subcommand implementations; each takes the parsed arguments and returns
# (json_obj, csv_header, csv_rows)


def _bind(args):
    """The --poly polynomial over the --group group, which is parsed, and refused, first."""
    group = parse_group(args.group)
    return to_ring_element(parse_poly(args.poly), group)


def run_measure(args):
    res = mh.measure(_bind(args), args.lam, args.method, args.epsilon, args.support_cap,
                     args.grid, args.allow_continuation)
    computed = ("group_order", "determinant", "imaginary_discard", "grid")  # in print order
    extra = {k: getattr(res, k) for k in computed if getattr(res, k) is not None}
    obj = _result_object(args, res.method, res.value, res.error_bound, extra)
    return obj, ["method", "value", "error_bound"], [[res.method, res.value, res.error_bound]]


def _depth(n: int, option: str) -> int:
    """n, once it is checked against the term cap every series route keeps."""
    if n > mh.MAX_TERMS:
        raise ResourceLimitError(f"{option} {n} exceeds max_terms={mh.MAX_TERMS}")
    return n


def run_coeffs(args):
    series = rg.power_constant_coeffs(_bind(args), _depth(args.n, "--n"), support_cap=args.support_cap)
    obj = _result_object(
        args,
        "group-ring-powering",
        None,
        0,
        {"coeffs": series.values, "l1_bound": series.l1_bound},
    )
    rows = [[i, v] for i, v in enumerate(series.values)]
    return obj, ["n", "a_n"], rows


def run_spectrum(args):
    spec = sp.block_spectrum(_bind(args))
    obj = _result_object(args, "blocks", None, 0, spec._asdict())
    rows = [[i, v] for i, v in enumerate(spec.eigenvalues)]
    return obj, ["index", "eigenvalue"], rows


def run_u(args):
    poly = _bind(args)
    if args.lam is None:
        raise DomainError("u needs an explicit --lambda")
    val = mh.u_series(poly, args.lam, args.epsilon, support_cap=args.support_cap)
    obj = _result_object(args, "series", val.real, args.epsilon, {"imag": val.imag})
    return obj, ["value", "imag"], [[val.real, val.imag]]


def run_compare(args):
    g_a = parse_group(args.group)
    g_b = parse_group(args.group_b)
    poly = to_ring_element(parse_poly(args.poly), g_a)
    res = ex.compare_groups(g_a, g_b, poly, args.lam, args.epsilon, support_cap=args.support_cap)
    obj = _result_object(args, "compare", None, 0, {"group_b": args.group_b, **res._asdict()})
    rows = [[args.group, args.group_b, *res]]
    return obj, ["group_a", "group_b", *ex.ComparisonResult._fields], rows


def _parse_params(text: str) -> list[int]:
    params = []
    for p in text.split(","):
        if p.strip():
            try:
                params.append(int(p))
            except ValueError:
                raise ParseError(f"--params entry {p.strip()!r} is not an integer") from None
            if params[-1] < 1:
                raise ParseError(f"--params entry {p.strip()!r} is below 1")
    if not params:
        raise ParseError("empty --params list")
    return params


def run_converge(args):
    params = _parse_params(args.params)
    if args.lam is None:
        raise DomainError("converge needs an explicit --lambda")
    rows = ex.converge(args.chain, _bind(args), args.lam, params, support_cap=args.support_cap)
    obj = _result_object(args, "converge-" + args.chain, None, 0, {"rows": [r._asdict() for r in rows]})
    return obj, list(ex.ConvergenceRow._fields), [list(r) for r in rows]


def run_agree_depth(args):
    g_a = parse_group(args.group)
    g_b = parse_group(args.group_b)
    poly = to_ring_element(parse_poly(args.poly), g_b if not g_b.is_finite() else g_a)
    rep = ex.agreement_depth(g_a, g_b, poly, _depth(args.n_max, "--n-max"), support_cap=args.support_cap)
    obj = _result_object(args, "agree-depth", None, 0, {"group_b": args.group_b, **rep._asdict()})
    rows = [
        [n, a, b, "yes" if a == b else "no"]
        for n, (a, b) in enumerate(rep.coeff_pairs)
    ]
    return obj, ["n", "a_n_a", "a_n_b", "equal"], rows


# series name -> (coefficients a_0..a_n from (degree, n), what --degree means
# and its least value; None when the series takes no degree and refuses one)
GENFUN_SERIES = {
    "tree": (lambda d, n: gf.tree_walk_series(d).coeffs(n), ("", 2)),
    "free": (lambda d, n: gf.u_free(d).coeffs(n), (" (the rank)", 1)),
    "free-p2": (lambda d, n: gf.u_free_p2(d).coeffs(n), (" (the l parameter)", 2)),
    "psl2-xyy": (lambda d, n: gf.u_psl2("x+y+y^-1").coeffs(n), None),
    "psl2-2xyy": (lambda d, n: gf.u_psl2("2x+y+y^-1").coeffs(n), None),
    "z2": (lambda d, n: gf.z2_walk_coeffs(n), None),
}


def run_genfun(args):
    series, degree = args.series, args.degree
    coeffs_of, degree_rule = GENFUN_SERIES[series]
    # a --degree the series cannot take is worded like argparse's message
    # for the floor of 1 that every series has
    refusal = f"{PARSER.prog} genfun: argument --degree: "
    if degree_rule is None:
        if degree is not None:
            raise ParseError(f"{refusal}the {series} series takes no degree")
        name = series
    else:
        meaning, least = degree_rule
        if degree is None:
            raise DomainError(f"{series} series needs --degree{meaning}")
        if degree < least:
            raise ParseError(f"{refusal}must be at least {least} for the {series} series, got {degree}")
        name = f"{series}-{degree}"
    coeffs = coeffs_of(degree, _depth(args.n, "--n"))
    obj = _result_object(args, "closed-form", None, 0, {"series": name, "coeffs": coeffs})
    return obj, ["n", "coeff"], [[i, c] for i, c in enumerate(coeffs)]


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ParseError, like every other input
    error, instead of printing usage and exiting; --help is unchanged."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _int_at_least(low: int, name: str = "int"):
    """An int option of at least low, called name in argparse's errors."""

    def convert(text: str) -> int:
        n = int(text)
        if n < low:
            rule = "non-negative" if low == 0 else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {rule}, got {n}")
        return n

    convert.__name__ = name
    return convert


size = _int_at_least(0, "size")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its table of subcommand name -> subcommand parser."""
    ap = _Parser(
        prog="grmahler",
        description="Mahler measures of group-ring elements over a group catalogue.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, run, lam=False, epsilon=False, support_cap=False):
        """--group, --poly, which of --lambda, --epsilon and --support-cap the
        runner reads, --format and --out; no option the runner ignores."""
        p.set_defaults(run=run, lam=None)
        p.add_argument("--group", required=True, help="group specifier, e.g. Z/3xZ/2, D5, F2")
        p.add_argument("--poly", required=True, help='polynomial, e.g. "1+x+y"')
        if lam:
            p.add_argument("--lambda", dest="lam", type=float, default=None)
        if epsilon:
            p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
        if support_cap:
            p.add_argument("--support-cap", dest="support_cap", type=_int_at_least(1),
                           default=rg.DEFAULT_SUPPORT_CAP,
                           help="refuse a_n = [P^n]_0 once |supp P^ceil(n/2)| * "
                                "|supp P^floor(n/2)|, a bound on |supp P^n|, exceeds this")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the artifact to a file")

    p = sub.add_parser("measure", help="Mahler measure m(P, lambda) or m(Q)")
    common(p, run_measure, lam=True, epsilon=True, support_cap=True)
    p.add_argument("--method", choices=mh.METHODS, default="auto")
    p.add_argument("--grid", type=_int_at_least(2), default=None,
                   help="torus grid size per dimension")
    p.add_argument("--allow-continuation", action="store_true")

    p = sub.add_parser("coeffs", help="walk-count coefficients a_n = [P^n]_0")
    common(p, run_coeffs, support_cap=True)
    p.add_argument("--n", type=size, default=8)

    p = sub.add_parser("spectrum", help="eigenvalues of the weighted Cayley adjacency")
    common(p, run_spectrum)

    p = sub.add_parser("u", help="walk generating function u(P, lambda)")
    common(p, run_u, lam=True, epsilon=True, support_cap=True)

    p = sub.add_parser("compare", help="measure over two groups and compare")
    common(p, run_compare, lam=True, epsilon=True, support_cap=True)
    p.add_argument("--group-b", required=True)

    p = sub.add_parser("converge", help="finite-model convergence sweeps")
    common(p, run_converge, lam=True, support_cap=True)
    p.add_argument("--chain", choices=tuple(ex.CHAINS), required=True)
    p.add_argument("--params", required=True, help="comma-separated sizes, e.g. 4,8,16,32")

    p = sub.add_parser("agree-depth", help="first index where walk counts disagree")
    common(p, run_agree_depth, support_cap=True)
    p.add_argument("--group-b", required=True)
    p.add_argument("--n-max", dest="n_max", type=size, default=12)

    p = sub.add_parser("genfun", help="closed-form series coefficients")
    p.set_defaults(run=run_genfun, group=None, poly=None, lam=None)
    p.add_argument("--series", required=True, choices=tuple(GENFUN_SERIES))
    p.add_argument("--degree", type=_int_at_least(1), default=None)
    p.add_argument("--n", type=size, default=10)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    return ap, sub.choices


PARSER, _SUBCOMMANDS = _build_parser()


def _exit_code(err: GrmahlerError) -> int:
    if isinstance(err, ParseError):
        return 2
    if isinstance(err, ResourceLimitError):
        return 4
    return 3


def _report(type_name: str, message: str, code: int) -> int:
    print(render_json({"error": {"type": type_name, "message": message}}), file=sys.stderr)
    return code


def _parse(argv: list[str]) -> argparse.Namespace:
    """PARSER.parse_args(argv), parsing each argument once: a known subcommand's
    parser reads the rest of argv itself.  Any other argv (empty, an unknown
    subcommand, --help or --) goes through PARSER."""
    sub = _SUBCOMMANDS.get(argv[0]) if argv else None
    if sub is None:
        return PARSER.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.lam is not None and not math.isfinite(args.lam):
            raise DomainError(f"lambda must be finite, got {args.lam!r}")
        if "epsilon" in args and not (math.isfinite(args.epsilon) and args.epsilon > 0):
            raise DomainError(f"epsilon must be finite and positive, got {args.epsilon!r}")
        obj, header, rows = args.run(args)
        text = render_json(obj) if args.fmt == "json" else render_csv(header, rows)
    except GrmahlerError as err:
        return _report(type(err).__name__, str(err), _exit_code(err))
    except ValueError as err:
        return _report("ValueError", str(err), 3)
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as err:
            # reported as argparse reports any other bad argument value
            message = f"{PARSER.prog} {args.command}: argument --out: {err.strerror}: {args.out!r}"
            return _report("ParseError", message, 2)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
