"""Seeded request lists for the three benchmark workloads.

A workload is a fixed list of CLI requests (argv lists) built from a seed.
Group sizes, weights and series depths, which set the cost, are fixed per
slot.  The seed picks what does not change the cost: lambda, epsilon, term
order, spacing, x or x^-1, and the spelling of user mistakes.  Two seeds
thus give different inputs of the same cost, and a gain found on one seed
can be confirmed on another.

Every request carries a `check` spec: the structured parameters from
which `reference.py` computes the expected answer along an independent
route, so the program under test only ever sees the argv.

`probes` are requests that fail at the commit that introduced this
benchmark (known defects).  `run.py --all` runs them after the measured
requests, in a process of their own, and reports them apart: they are
never part of the timed figures.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

DEV_SEED = 1
# Tune on DEV_SEED; confirm a claimed gain on HELDOUT_SEED, which no change
# should be developed against.
HELDOUT_SEED = 7919

WORKLOADS = ("small-mix", "deep-walk", "finite-spectral")


@dataclass(frozen=True)
class Request:
    argv: tuple
    expect_exit: int
    check: tuple  # (kind, params...) interpreted by reference.py
    tags: tuple = ()


# ---------------------------------------------------------------------------
# polynomials: tuples of (coeff, word), word = ((generator, exponent), ...)


def gen_names(n_gens: int) -> list[str]:
    if n_gens == 1:
        return ["x"]
    if n_gens == 2:
        return ["x", "y"]
    return [f"x{i}" for i in range(1, n_gens + 1)]


def _coeff_str(c) -> str:
    """Coefficients used here: ints, decimals (as Fractions) and the unit i."""
    if c == 1j:
        return "i"
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else format(float(c), "g")


def poly_str(terms, n_gens: int, rng: random.Random) -> str:
    """Render with a seeded term order and spacing; the element is unchanged."""
    names = gen_names(n_gens)
    order = list(terms)
    rng.shuffle(order)
    sep = rng.choice(("", " "))
    out = []
    for i, (c, word) in enumerate(order):
        neg = c != 1j and c < 0
        mag = -c if neg else c
        mono = "".join(names[g] + (f"^{e}" if e != 1 else "") for g, e in word)
        if not mono:
            body = _coeff_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_coeff_str(mag)}*{mono}"
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append(f"{sep}{'-' if neg else '+'}{sep}{body}")
    return "".join(out)


def sym(n_gens: int, weights) -> tuple:
    """sum_i w_i (g_i + g_i^-1): the standard reciprocal element."""
    return tuple(
        t for i, w in zip(range(n_gens), weights) for t in ((w, ((i, 1),)), (w, ((i, -1),)))
    )


def rot_refl(a, b) -> tuple:
    """a (x + x^-1) + b y, reciprocal over dihedral groups (y is an involution)."""
    return ((a, ((0, 1),)), (a, ((0, -1),)), (b, ((1, 1),)))


def shifted(c, monomials) -> tuple:
    """c + sum of unit monomials; c > len(monomials) keeps Q invertible
    (diagonal dominance), so lambda-free measures are always defined."""
    return ((c, ()),) + tuple((1, m) for m in monomials)


def group_str(group) -> str:
    fam, p = group
    if fam == "abelian":
        return "x".join(f"Z/{m}" if m else "Z" for m in p)
    if fam == "Z":
        return f"Z^{p}"
    if fam == "D":
        return f"D{p}" if p else "Dinf"
    if fam == "Dic":
        return f"Dic{p}"
    if fam == "F":
        return f"F{p}"
    if fam == "freeprod":
        return "*".join(f"C{o}" for o in p)
    raise ValueError(fam)


def group_gens(group) -> int:
    fam, p = group
    if fam in ("abelian", "freeprod"):
        return len(p)
    return p if fam in ("Z", "F") else 2


# ---------------------------------------------------------------------------
# series length: the same truncation rule the CLI applies, so a seeded
# lambda can be paired with an epsilon that pins the series depth N


def _measure_tail(klam: float, n: int) -> float:
    return klam ** (n + 1) / ((n + 1) * (1.0 - klam))


def _u_tail(klam: float, n: int) -> float:
    return klam ** (n + 1) / (1.0 - klam)


def pinned_epsilon(klam: float, n: int, tail) -> str:
    """An epsilon for which the series stops at exactly n terms."""
    eps = math.sqrt(tail(klam, n) * tail(klam, n - 1))
    return f"{eps:.4g}"


def lam_for_depth(k: float, n: int, eps_target: float, tail) -> float:
    """lambda (6 significant digits) whose tail bound at depth n is near eps_target."""
    lo, hi = 1e-9, 0.999
    for _ in range(100):
        mid = (lo + hi) / 2
        if tail(mid, n) > eps_target:
            hi = mid
        else:
            lo = mid
    return float(f"{lo / k:.6g}")


def _lam_str(lam: float) -> str:
    return f"{lam:.6g}"


# ---------------------------------------------------------------------------
# requests


def _req(argv, check, expect=0, tags=()):
    return Request(tuple(argv), expect, check, tuple(tags))


def measure_finite(rng, group, poly, lam):
    argv = ["measure", "--group", group_str(group), "--poly",
            poly_str(poly, group_gens(group), rng), "--lambda", _lam_str(lam)]
    return _req(argv, ("finite", group, poly, lam), tags=("finite_lambda",))


def measure_free(rng, group, poly):
    argv = ["measure", "--group", group_str(group), "--poly",
            poly_str(poly, group_gens(group), rng)]
    return _req(argv, ("free", group, poly), tags=("lambda_free_finite",))


def spectrum(rng, group, poly):
    argv = ["spectrum", "--group", group_str(group), "--poly",
            poly_str(poly, group_gens(group), rng)]
    return _req(argv, ("spectrum", group, poly))


def series(rng, cmd, family, weight, depth, eps_target):
    """measure or u over an infinite group, with lambda and epsilon chosen
    so the CLI truncates the series at exactly `depth` terms."""
    group, poly, k = family_poly(family, weight)
    tail = _measure_tail if cmd == "measure" else _u_tail
    lam = lam_for_depth(k, depth, eps_target, tail)
    eps = pinned_epsilon(k * lam, depth, tail)
    argv = [cmd, "--group", group_str(group), "--poly",
            poly_str(poly, group_gens(group), rng), "--lambda", _lam_str(lam),
            "--epsilon", eps]
    return _req(argv, (cmd, family, weight, lam))


def coeffs(rng, family, weight, n):
    group, poly, _ = family_poly(family, weight)
    argv = ["coeffs", "--group", group_str(group), "--poly",
            poly_str(poly, group_gens(group), rng), "--n", str(n)]
    return _req(argv, ("coeffs", family, weight, n))


def family_poly(family, weight):
    """Walk-count families with an independent reference route.

    Returns (group, poly, l1 norm)."""
    kind, p = family
    if kind == "Z":
        return ("Z", p), sym(p, [weight] * p), 2 * p * weight
    if kind == "F":
        return ("F", p), sym(p, [weight] * p), 2 * p * weight
    if kind == "C2^k":  # x1 + ... + xk over C2 * ... * C2: the k-regular tree
        poly = tuple((weight, ((i, 1),)) for i in range(p))
        return ("freeprod", (2,) * p), poly, p * weight
    if kind == "psl2":  # C2 * C3 with p = weight of x (1 or 2)
        poly = ((p, ((0, 1),)), (1, ((1, 1),)), (1, ((1, -1),)))
        return ("freeprod", (2, 3)), poly, p + 2
    if kind == "Dinf":
        return ("D", 0), rot_refl(weight, weight), 3 * weight
    raise ValueError(kind)


def _mistake(argv, expect, error_type):
    return _req(argv, ("error", error_type), expect=expect)


# ---------------------------------------------------------------------------
# workloads

README = (
    # the README command-line examples, verbatim; the F2 `u` one is a probe
    _req(["measure", "--group", "Z/3xZ/2", "--poly", "1+x+y"],
         ("free", ("abelian", (3, 2)), shifted(1, [((0, 1),), ((1, 1),)])),
         tags=("lambda_free_finite",)),
    _req(["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "0.1"],
         ("measure", ("Z", 2), 1, 0.1)),
    _req(["coeffs", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--n", "6"],
         ("coeffs", ("Z", 2), 1, 6)),
    _req(["spectrum", "--group", "D5", "--poly", "x+x^-1+2*y"],
         ("spectrum", ("D", 5), rot_refl(1, 2))),
    _req(["compare", "--group", "Z/3xZ/2", "--group-b", "D3", "--poly", "x+2*y"],
         ("compare", ("abelian", (3, 2)), ("D", 3), ((1, ((0, 1),)), (2, ((1, 1),))), None)),
    _req(["converge", "--chain", "dihedral", "--group", "Dinf", "--poly", "x+x^-1+y",
          "--lambda", "0.1", "--params", "4,8,16,32"],
         ("converge-dihedral", rot_refl(1, 1), 0.1, (4, 8, 16, 32))),
    _req(["agree-depth", "--group", "D6", "--group-b", "Dinf", "--poly", "x+x^-1+y",
          "--n-max", "10"],
         ("agree-depth", 6, rot_refl(1, 1), 10)),
    _req(["genfun", "--series", "psl2-2xyy", "--n", "10"],
         ("genfun", "psl2-2xyy", None, 10)),
)

README_F2_U = _req(
    ["u", "--group", "F2", "--poly", "x+x^-1+y+y^-1", "--lambda", "0.05"],
    ("u", ("F", 2), 1, 0.05),
)


SMALL_GROUPS = (("abelian", (3, 4)), ("abelian", (2, 6)), ("abelian", (5, 2)),
                ("abelian", (4, 3)), ("D", 4), ("D", 6), ("D", 5), ("Dic", 3))


def _reciprocal(group, a, b):
    return rot_refl(a, b) if group[0] == "D" else sym(2, [a, b])


def _finite_lam(rng, poly) -> float:
    """lambda with |lambda| * l1(P) in [0.3, 0.9]: inside the spectral disc."""
    l1 = sum(abs(c) for c, _ in poly)
    return float(f"{rng.uniform(0.3, 0.9) / l1:.4g}")


def _x_or_inverse(rng):
    # x -> x^-1 is an automorphism of every group used here: same cost, other input
    return rng.choice((((0, 1),), ((0, -1),)))


def _interleave(reqs):
    """Mix the slots in one order that is the same for every seed: the order
    of a pass moves timings (heap and cache state), so it must not vary with
    the seed."""
    random.Random(0).shuffle(reqs)


def small_mix(seed: int) -> tuple[list, list]:
    rng = random.Random(seed)
    reqs = list(README)
    for i, g in enumerate(SMALL_GROUPS):
        a, b = 1 + i % 3, 1 + (i + 1) % 3
        reqs.append(measure_free(rng, g, shifted(3 + i % 3, [_x_or_inverse(rng), ((1, 1),)])))
        p = _reciprocal(g, a, b)
        reqs.append(measure_finite(rng, g, p, _finite_lam(rng, p)))
        reqs.append(spectrum(rng, g, _reciprocal(g, b, a)))
    for i, g in enumerate(SMALL_GROUPS[::2]):
        # decimal and Gaussian coefficients go through the exact parser
        q = ((Fraction(7 + 2 * i, 2), ()), (1j, _x_or_inverse(rng)), (1, ((1, 1),)))
        reqs.append(measure_free(rng, g, q))
    for i in range(6):
        w = 1 + i % 3
        depth = 5 + i % 4
        reqs.append(series(rng, "measure", ("Z", 2), w, depth, rng.uniform(5e-9, 2e-8)))
        reqs.append(series(rng, "u", ("Z", 1 + i % 2), w, depth, rng.uniform(5e-9, 2e-8)))
        reqs.append(series(rng, "measure", ("F", 2), w, 4 + i % 3, rng.uniform(5e-7, 2e-6)))
        reqs.append(series(rng, "measure", ("Dinf", None), w, depth, rng.uniform(5e-9, 2e-8)))
    for i in range(4):
        reqs.append(coeffs(rng, ("Z", 2), 1 + i % 3, 5 + i))
        reqs.append(coeffs(rng, ("F", 2), 1 + i % 2, 3 + i % 3))
        reqs.append(coeffs(rng, ("psl2", 1 + i % 2), 1, 5 + i))
        reqs.append(coeffs(rng, ("Dinf", None), 1 + i % 3, 5 + i))
    for m, b in ((3, 2), (4, 3), (6, 2)):
        # x + b*y with b >= 2 never vanishes at a character: QQ* is invertible
        p = ((1, ((0, 1),)), (b, ((1, 1),)))
        reqs.append(_req(
            ["compare", "--group", f"D{m}", "--group-b", f"Z/{m}xZ/2", "--poly",
             poly_str(p, 2, rng)],
            ("compare", ("D", m), ("abelian", (m, 2)), p, None)))
        p = rot_refl(1, b - 1)
        lam = float(f"{rng.uniform(0.05, 0.2):.3g}")
        reqs.append(_req(
            ["compare", "--group", f"D{m}", "--group-b", f"Z/{m}xZ/2", "--poly",
             poly_str(p, 2, rng), "--lambda", _lam_str(lam)],
            ("compare", ("D", m), ("abelian", (m, 2)), p, lam)))
    lam = float(f"{rng.uniform(0.02, 0.08):.3g}")
    reqs.append(_req(
        ["converge", "--chain", "abelian", "--group", "Z^2", "--poly",
         poly_str(sym(2, [1, 1]), 2, rng), "--lambda", _lam_str(lam), "--params", "2,3"],
        ("converge-abelian", lam, (2, 3))))
    lam = float(f"{rng.uniform(0.02, 0.08):.3g}")
    reqs.append(_req(
        ["converge", "--chain", "dihedral", "--group", "Dinf", "--poly",
         poly_str(rot_refl(1, 1), 2, rng), "--lambda", _lam_str(lam), "--params", "3,6"],
        ("converge-dihedral", rot_refl(1, 1), lam, (3, 6))))
    for m, n in ((3, 5), (4, 6), (5, 7), (6, 8)):
        reqs.append(_req(
            ["agree-depth", "--group", f"D{m}", "--group-b", "Dinf", "--poly",
             poly_str(rot_refl(1, 1), 2, rng), "--n-max", str(n)],
            ("agree-depth", m, rot_refl(1, 1), n)))
    for series_name, degree, n in (("tree", 3, 5), ("tree", 5, 8), ("free", 1, 6),
                                   ("free", 3, 7), ("free-p2", 2, 8), ("free-p2", 4, 5),
                                   ("psl2-xyy", None, 6), ("psl2-xyy", None, 8),
                                   ("z2", None, 6), ("z2", None, 8)):
        argv = ["genfun", "--series", series_name, "--n", str(n)]
        if degree is not None:
            argv += ["--degree", str(degree)]
        reqs.append(_req(argv, ("genfun", series_name, degree, n)))
    for grid in (8, 16):
        lam = float(f"{rng.uniform(0.05, 0.2):.3g}")
        reqs.append(_req(
            ["measure", "--group", "Z^2", "--poly", poly_str(sym(2, [1, 1]), 2, rng),
             "--method", "torus", "--lambda", _lam_str(lam), "--grid", str(grid)],
            ("torus", 2, 1, lam)))
    # typical user mistakes, each with the documented exit code
    bad_groups = ("Q8", "D0", "Z/0xZ/2", "F0", "C2*D3", "Dic")
    bad_polys = ("x+*y", "x^", "2**x", "(1+i", "x+z", "x+y+")
    for bad_group, bad_poly in zip(rng.sample(bad_groups, 4), rng.sample(bad_polys, 4)):
        reqs.append(_mistake(["measure", "--group", bad_group, "--poly", "x+y"],
                             2, "ParseError"))
        reqs.append(_mistake(["measure", "--group", "D3", "--poly", bad_poly],
                             2, "ParseError"))
        reqs.append(_mistake(
            ["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda",
             _lam_str(rng.uniform(0.26, 2.0))], 3, "DomainError"))
        reqs.append(_mistake(
            ["measure", "--group", "D4", "--poly", "x+x^-1+y", "--lambda",
             _lam_str(rng.uniform(0.5, 3.0))], 3, "DomainError"))
    reqs.append(_mistake(["u", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1"], 3, "DomainError"))
    reqs.append(_mistake(["measure", "--group", "F2", "--poly", "x+x^-1+y+y^-1",
                          "--method", "series"], 3, "DomainError"))
    reqs.append(_mistake(["converge", "--chain", "dihedral", "--group", "Dinf", "--poly",
                          "x+x^-1+y", "--params", "4,8"], 3, "DomainError"))
    reqs.append(_mistake(["coeffs", "--group", "F2", "--poly", "x+x^-1+y+y^-1", "--n", "8",
                          "--support-cap", str(rng.randint(50, 500))],
                         4, "ResourceLimitError"))
    _interleave(reqs)
    probes = [
        _req(["measure", "--group", "Z^2", "--poly", "x+x^-1+y+y^-1", "--lambda", "nan"],
             ("error", "DomainError"), expect=3),
        _req(["measure", "--group", "D3", "--poly", "x+x^-1+y", "--lambda", "nan"],
             ("error", "DomainError"), expect=3),
    ]
    return reqs, probes


def deep_walk(seed: int) -> tuple[list, list]:
    rng = random.Random(seed)

    def eps():
        return rng.uniform(5e-7, 2e-6)

    reqs = [
        coeffs(rng, ("F", 2), 2, 8), coeffs(rng, ("F", 2), 1, 9), coeffs(rng, ("F", 2), 1, 10),
        coeffs(rng, ("F", 3), 1, 6), coeffs(rng, ("F", 3), 1, 7),
        coeffs(rng, ("psl2", 1), 1, 16), coeffs(rng, ("psl2", 2), 1, 18),
        coeffs(rng, ("psl2", 1), 1, 20),
        coeffs(rng, ("C2^k", 3), 1, 12), coeffs(rng, ("C2^k", 3), 2, 13),
        coeffs(rng, ("Dinf", None), 2, 20), coeffs(rng, ("Dinf", None), 3, 30),
    ]
    for depth, w in ((7, 1), (8, 2), (8, 1), (9, 1)):
        reqs.append(series(rng, "u", ("F", 2), w, depth, eps()))
        reqs.append(series(rng, "measure", ("F", 2), w, depth, eps()))
    for depth, w in ((30, 1), (40, 2), (50, 1)):
        reqs.append(series(rng, "measure", ("Z", 2), w, depth, eps()))
        reqs.append(series(rng, "u", ("Z", 2), 1, depth - 10, eps()))
    for depth in (12, 16):
        reqs.append(series(rng, "measure", ("Z", 3), 1, depth, eps()))
    # lighter series work, so that a pass holds over 100 distinct requests
    for n, w in ((5, 1), (6, 1), (6, 2), (7, 1), (7, 3)):
        reqs.append(coeffs(rng, ("F", 2), w, n))
    for n, w in ((4, 1), (5, 1), (5, 2)):
        reqs.append(coeffs(rng, ("F", 3), w, n))
    for n, v in ((10, 1), (12, 2), (13, 1), (14, 2), (15, 1)):
        reqs.append(coeffs(rng, ("psl2", v), 1, n))
    for n, w in ((9, 1), (10, 2), (11, 1)):
        reqs.append(coeffs(rng, ("C2^k", 3), w, n))
    for n, w in ((40, 1), (50, 2), (60, 1)):
        reqs.append(coeffs(rng, ("Dinf", None), w, n))
    for cmd in ("u", "measure"):
        for depth, w in ((4, 1), (5, 2), (6, 1), (6, 2), (7, 2)):
            reqs.append(series(rng, cmd, ("F", 2), w, depth, eps()))
        for depth, w in ((15, 1), (20, 2), (22, 1), (25, 1)):
            reqs.append(series(rng, cmd, ("Z", 2), w, depth, eps()))
        for depth, w in ((30, 1), (45, 2), (60, 1)):
            reqs.append(series(rng, cmd, ("Z", 1), w, depth, eps()))
        for depth in (6, 8, 10):
            reqs.append(series(rng, cmd, ("Z", 3), 1, depth, eps()))
        for depth, w in ((20, 1), (30, 2), (40, 1)):
            reqs.append(series(rng, cmd, ("Dinf", None), w, depth, eps()))
        for depth, v in ((10, 1), (12, 2), (14, 1), (16, 2)):
            reqs.append(series(rng, cmd, ("psl2", v), 1, depth, eps()))
        for depth, w in ((8, 1), (10, 1)):
            reqs.append(series(rng, cmd, ("C2^k", 3), w, depth, eps()))
        for depth, w in ((10, 1), (12, 2)):
            reqs.append(series(rng, cmd, ("F", 1), w, depth, eps()))
    for c in (3, 4):
        # lambda-free measure over Dinf: the series fallback of mahler_general
        poly = shifted(c, [_x_or_inverse(rng), ((1, 1),)])
        reqs.append(_req(
            ["measure", "--group", "Dinf", "--poly", poly_str(poly, 2, rng),
             "--epsilon", "1e-06"],
            ("general-Dinf", poly)))
    _interleave(reqs)
    probes = [
        README_F2_U,
        # exact value 0: over the index-2 subgroup Z, Q = 1 + x + y has
        # determinant 1 + z + 1/z, whose Mahler measure is 0
        _req(["measure", "--group", "Dinf", "--poly", "1+x+y"],
             ("general-Dinf-exact", 0.0)),
    ]
    return reqs, probes


def finite_spectral(seed: int) -> tuple[list, list]:
    rng = random.Random(seed)
    reqs = []
    for i, g in enumerate((("D", 8), ("D", 12), ("D", 18), ("D", 24), ("Dic", 4), ("Dic", 6),
                           ("Dic", 9), ("abelian", (4, 4)), ("abelian", (4, 6)),
                           ("abelian", (6, 6)))):
        a, b = 1 + i % 2, 1 + (i // 2) % 2
        reqs.append(spectrum(rng, g, _reciprocal(g, a, b)))
        p = _reciprocal(g, b, a)
        reqs.append(measure_finite(rng, g, p, _finite_lam(rng, p)))
    # more groups of order 16-20, so that a pass holds 100 distinct requests
    for i, g in enumerate((("D", 8), ("D", 9), ("D", 10), ("Dic", 4), ("Dic", 5),
                           ("abelian", (4, 4)), ("abelian", (4, 5)), ("abelian", (2, 8)),
                           ("abelian", (2, 10)), ("abelian", (3, 6)))):
        a, b = 1 + (i + 1) % 3, 1 + i % 2
        for p, q in ((_reciprocal(g, a, b), _reciprocal(g, b, a)),
                     (_reciprocal(g, a, a), _reciprocal(g, b, b))):
            reqs.append(spectrum(rng, g, p))
            reqs.append(measure_finite(rng, g, q, _finite_lam(rng, q)))
    for g, c in ((("abelian", (4, 4)), 3), (("abelian", (4, 5)), 4), (("D", 8), 3),
                 (("Dic", 4), 4), (("abelian", (6, 6)), 3), (("Dic", 5), 3)):
        reqs.append(measure_free(rng, g, shifted(c, [_x_or_inverse(rng), ((1, 1),)])))
    for m, b in ((8, 1), (10, 2), (12, 1), (8, 2), (9, 1), (9, 2), (10, 1)):
        p = rot_refl(1, b)
        lam = float(f"{rng.uniform(0.05, 0.2):.3g}")
        reqs.append(_req(
            ["compare", "--group", f"D{m}", "--group-b", f"Z/{m}xZ/2", "--poly",
             poly_str(p, 2, rng), "--lambda", _lam_str(lam)],
            ("compare", ("D", m), ("abelian", (m, 2)), p, lam)))
    p = ((1, ((0, 1),)), (2, ((1, 1),)))
    reqs.append(_req(
        ["compare", "--group", "D8", "--group-b", "Z/8xZ/2", "--poly", poly_str(p, 2, rng)],
        ("compare", ("D", 8), ("abelian", (8, 2)), p, None)))
    lam = float(f"{rng.uniform(0.05, 0.15):.3g}")
    reqs.append(_req(
        ["converge", "--chain", "dihedral", "--group", "Dinf", "--poly",
         poly_str(rot_refl(1, 1), 2, rng), "--lambda", _lam_str(lam), "--params", "8,12,16"],
        ("converge-dihedral", rot_refl(1, 1), lam, (8, 12, 16))))
    # the Z^2 series limit of the abelian chain is pinned at depth 30 by epsilon 1e-9
    lam = lam_for_depth(4, 30, 0.9e-9, _measure_tail)
    reqs.append(_req(
        ["converge", "--chain", "abelian", "--group", "Z^2", "--poly",
         poly_str(sym(2, [1, 1]), 2, rng), "--lambda", _lam_str(lam),
         "--params", "4,8,16,32"],
        ("converge-abelian", lam, (4, 8, 16, 32))))
    for l, w, grids in ((2, 1, (16, 20, 24, 32, 40, 48, 64, 80, 96, 112, 128)),
                        (2, 2, (16, 24, 32, 48, 64, 128)), (3, 1, (6, 8, 10, 12, 16, 20)),
                        (3, 2, (8, 16))):
        for grid in grids:
            lam = float(f"{rng.uniform(0.2, 0.8) / (2 * l * w):.3g}")
            reqs.append(_req(
                ["measure", "--group", f"Z^{l}", "--poly",
                 poly_str(sym(l, [w] * l), l, rng), "--method", "torus",
                 "--lambda", _lam_str(lam), "--grid", str(grid)],
                ("torus", l, w, lam)))
    _interleave(reqs)
    return reqs, []


GENERATORS = {"small-mix": small_mix, "deep-walk": deep_walk, "finite-spectral": finite_spectral}


def build(workload: str, seed: int) -> tuple[list, list]:
    """(measured requests, known-defect probes) for a workload and seed."""
    return GENERATORS[workload](seed)
