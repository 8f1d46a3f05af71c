"""Reference answers from routes independent of the one each request runs,
and the correctness gate that compares a CLI response against them.

Routes:
* finite groups: a group model written here, its Cayley adjacency, and
  numpy `eigvalsh` / `slogdet`;
* walk counts over free groups and free products: the closed-form tree and
  PSL2(Z) series of `grmahler.genfun`;
* walk counts over Z^l: `genfun.z2_walk_coeffs` and `genfun.multinomial_walk_sum`;
* walk counts over the infinite dihedral group: a transfer count on the
  group model written here;
* lambda-free measures over Dinf: slogdet over a large quotient D_M, with
  the gap to D_(M/2) as the reference's own error.

A response passes only if its output is strict JSON (no NaN or Infinity
tokens), its exit code is the expected one, and every numeric answer lies
within the response's own error_bound, plus the reference's error, plus a
float slack, of the reference.
"""
from __future__ import annotations

import json
import math

import numpy as np

from grmahler import genfun as gf
from grmahler import groups as gr
from grmahler import ring as rg
from workloads import family_poly, sym

SLACK_ABS = 1e-9
SLACK_REL = 1e-9
DINF_QUOTIENT = 256  # D_M standing in for Dinf; walks shorter than M cannot tell them apart

# ---------------------------------------------------------------------------
# group model: abelian products (modulus 0 = Z), D_m and Dic_m (m = 0: Dinf)


def _mul(group, a, b):
    fam, p = group
    if fam == "abelian":
        return tuple((x + y) % m if m else x + y for x, y, m in zip(a, b, p))
    e1, k1 = a
    e2, k2 = b
    if e2 == 0:
        k = k1 + k2
    elif fam == "Dic" and e1:
        k = k2 - k1 + p  # y^2 = x^m
    else:
        k = k2 - k1  # x y = y x^-1
    mod = p if fam == "D" else 2 * p
    return (e1 ^ e2, k % mod if mod else k)


def _identity(group):
    return (0,) * len(group[1]) if group[0] == "abelian" else (0, 0)


def _generator(group, i):
    if group[0] == "abelian":
        return tuple(1 if j == i else 0 for j in range(len(group[1])))
    return (0, 1) if i == 0 else (1, 0)


def _inverse(group, a):
    fam, p = group
    if fam == "abelian":
        return tuple((-x) % m if m else -x for x, m in zip(a, p))
    e, k = a
    mod = p if fam == "D" else 2 * p
    if e == 0:
        return (0, (-k) % mod if mod else -k)
    return a if fam == "D" else (1, (k + p) % mod)


def _element(group, word):
    acc = _identity(group)
    for i, exp in word:
        g = _generator(group, i)
        if exp < 0:
            g, exp = _inverse(group, g), -exp
        for _ in range(exp):
            acc = _mul(group, acc, g)
    return acc


def _elements(group):
    fam, p = group
    if fam == "abelian":
        return [tuple(v) for v in np.ndindex(*p)]
    mod = p if fam == "D" else 2 * p
    return [(e, k) for e in (0, 1) for k in range(mod)]


def adjacency(group, poly) -> np.ndarray:
    """A[i, j] = coefficient of g_i^-1 g_j in poly, built as A[i, index(g_i h)] += P(h)."""
    elems = _elements(group)
    index = {g: i for i, g in enumerate(elems)}
    terms = [(complex(c), _element(group, w)) for c, w in poly]
    a = np.zeros((len(elems), len(elems)), dtype=complex)
    for i, g in enumerate(elems):
        for c, h in terms:
            a[i, index[_mul(group, g, h)]] += c
    return a


def finite_measure(group, poly, lam) -> float:
    a = adjacency(group, poly)
    sign, logdet = np.linalg.slogdet(np.eye(len(a)) - lam * a)
    if abs(sign - 1) > 1e-9:
        raise ArithmeticError("reference determinant is not positive")
    return float(logdet) / len(a)


def free_measure(group, poly) -> tuple[float, float]:
    """(lambda-free measure, log det B) with B = A(Q) A(Q)^H, so that
    log det B = 2 log|det A(Q)|."""
    a = adjacency(group, poly)
    _, logabs = np.linalg.slogdet(a)
    return float(logabs) / len(a), 2 * float(logabs)


def spectrum(group, poly) -> list:
    return sorted(float(x) for x in np.linalg.eigvalsh(adjacency(group, poly)))


def walk_counts(group, poly, n) -> list:
    """[P^k]_0 for k = 0..n by an exact transfer count on the group model."""
    terms = [(c, _element(group, w)) for c, w in poly]
    ident = _identity(group)
    cur = {ident: 1}
    out = [1]
    for _ in range(n):
        nxt = {}
        for g, x in cur.items():
            for c, h in terms:
                e = _mul(group, g, h)
                nxt[e] = nxt.get(e, 0) + x * c
        cur = nxt
        out.append(cur.get(ident, 0))
    return out


# ---------------------------------------------------------------------------
# walk-count families over infinite groups


def family_counts(family, weight, n) -> list:
    """Exact a_0..a_n of the benchmark's walk-count families."""
    kind, p = family
    if kind == "Z":
        if p == 2:
            base = gf.z2_walk_coeffs(n)
        else:
            base = [gf.multinomial_walk_sum(p, "P1", k // 2) if k % 2 == 0 else 0
                    for k in range(n + 1)]
    elif kind == "F":
        base = gf.u_free(p).coeffs(n)
    elif kind == "C2^k":
        base = gf.tree_walk_series(p).coeffs(n)
    elif kind == "psl2":
        return gf.u_psl2("x+y+y^-1" if p == 1 else "2x+y+y^-1").coeffs(n)
    elif kind == "Dinf":
        return walk_counts(("D", 0), family_poly(family, weight)[1], n)
    else:
        raise ValueError(kind)
    return [a * weight**k for k, a in enumerate(base)]


def series_value(cmd, family, weight, lam) -> tuple[float, float]:
    """(value, reference error) of m = -sum a_n lam^n / n or u = sum a_n lam^n."""
    k = family_poly(family, weight)[2]
    klam = k * abs(lam)
    n = 1
    while klam ** (n + 1) / (1.0 - klam) > 1e-16:
        n += 1
    counts = family_counts(family, weight, n)
    total = 0.0
    for i in range(n, 0, -1):
        # a_i / k^i <= 1 as a float, then times (k lam)^i: no overflow
        term = (counts[i] / k**i) * klam**i  # the benchmark's lambdas are positive
        total += term if cmd == "u" else -term / i
    if cmd == "u":
        total += 1.0
    return total, klam ** (n + 1) / (1.0 - klam)


def dinf_general(poly) -> tuple[float, float]:
    """lambda-free measure over Dinf from D_M, with |m(D_M) - m(D_(M/2))| as its error."""
    big, _ = free_measure(("D", DINF_QUOTIENT), poly)
    half, _ = free_measure(("D", DINF_QUOTIENT // 2), poly)
    return big, abs(big - half)


def tree_counts(d, n) -> list:
    """Closed walks at the root of the d-regular tree, by distance from the root."""
    dist = [1] + [0] * n
    out = [1]
    for _ in range(n):
        nxt = [0] * (n + 1)
        for r, x in enumerate(dist):
            if not x:
                continue
            if r == 0:
                nxt[1] += d * x
            else:
                nxt[r - 1] += x
                if r + 1 <= n:
                    nxt[r + 1] += (d - 1) * x
        dist = nxt
        out.append(dist[0])
    return out


# ---------------------------------------------------------------------------
# expected answers per request kind


def expected(check):
    """The reference answer for a request's check spec (a dict of fields)."""
    kind = check[0]
    if kind == "finite":
        _, group, poly, lam = check
        return {"value": (finite_measure(group, poly, lam), 0.0)}
    if kind == "free":
        _, group, poly = check
        value, logdet = free_measure(group, poly)
        return {"value": (value, 0.0), "determinant": math.exp(logdet)}
    if kind == "spectrum":
        _, group, poly = check
        return {"eigenvalues": spectrum(group, poly)}
    if kind in ("measure", "u"):
        _, family, weight, lam = check
        return {"value": series_value(kind, family, weight, lam)}
    if kind == "coeffs":
        _, family, weight, n = check
        return {"coeffs": family_counts(family, weight, n)}
    if kind == "compare":
        _, ga, gb, poly, lam = check
        if lam is None:
            va, vb = free_measure(ga, poly)[0], free_measure(gb, poly)[0]
        else:
            va, vb = finite_measure(ga, poly, lam), finite_measure(gb, poly, lam)
        return {"value_a": va, "value_b": vb}
    if kind == "converge-dihedral":
        _, poly, lam, params = check
        limit = finite_measure(("D", DINF_QUOTIENT), poly, lam)
        return {"limit": limit,
                "rows": [(m, finite_measure(("D", m), poly, lam)) for m in sorted(params)]}
    if kind == "converge-abelian":
        _, lam, params = check
        limit, err = series_value("measure", ("Z", 2), 1, lam)
        rows = [(m * m, finite_measure(("abelian", (m, m)), sym(2, [1, 1]), lam))
                for m in params]
        return {"limit": limit, "limit_err": err, "rows": sorted(rows)}
    if kind == "agree-depth":
        _, m, poly, n = check
        return {"pairs": list(zip(walk_counts(("D", m), poly, n),
                                  walk_counts(("D", 0), poly, n)))}
    if kind == "genfun":
        _, name, degree, n = check
        if name == "tree":
            return {"coeffs": tree_counts(degree, n)}
        if name == "free":
            return {"coeffs": tree_counts(2 * degree, n)}
        if name == "free-p2":
            return {"coeffs": tree_counts(degree, n)}
        if name == "z2":
            return {"coeffs": [math.comb(k, k // 2) ** 2 if k % 2 == 0 else 0
                               for k in range(n + 1)]}
        # ring powering over C2 * C3, independent of the closed form under test
        group, poly, _ = family_poly(("psl2", {"psl2-xyy": 1, "psl2-2xyy": 2}[name]), 1)
        p = rg.from_word_terms(gr.FreeProductCyclic(group[1]), poly)
        return {"coeffs": list(rg.power_constant_coeffs(p, n).values)}
    if kind == "torus":
        _, l, weight, lam = check
        return {"value": series_value("measure", ("Z", l), weight, lam)}
    if kind == "general-Dinf":
        return {"value": dinf_general(check[1])}
    if kind == "general-Dinf-exact":
        return {"value": (check[1], 0.0)}
    if kind == "error":
        return {}
    raise ValueError(f"unknown check kind {kind!r}")


# ---------------------------------------------------------------------------
# the gate


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(got, want, bound=0.0, ref_err=0.0) -> bool:
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= bound + ref_err + SLACK_ABS + SLACK_REL * abs(want)


def check(request, exit_code: int, stdout: str, stderr: str, ref) -> str | None:
    """None when the response is correct, else the reason it is not."""
    if exit_code != request.expect_exit:
        return f"exit code {exit_code}, expected {request.expect_exit}"
    kind = request.check[0]
    if kind == "error":
        lines = stderr.strip().splitlines()
        try:
            err = strict_json(lines[-1])["error"] if lines else None
        except (ValueError, KeyError, TypeError) as e:
            return f"stderr is not a strict JSON error object: {e}"
        if not isinstance(err, dict) or err.get("type") != request.check[1]:
            return f"error type {err!r}, expected {request.check[1]}"
        return None
    try:
        obj = strict_json(stdout)
    except ValueError as e:
        return f"stdout is not strict JSON: {e}"
    if not isinstance(obj, dict) or obj.get("command") != request.argv[0]:
        return "stdout is not a result object for this command"
    extra = obj.get("extra") or {}
    bound = obj.get("error_bound") or 0.0
    if not isinstance(bound, (int, float)) or bound < 0:
        return f"bad error_bound {bound!r}"
    if kind in ("measure", "u"):
        # the series is truncated so that its rigorous tail bound is at most epsilon
        argv = request.argv
        eps = float(argv[argv.index("--epsilon") + 1]) if "--epsilon" in argv else 1e-10
        if bound > eps:
            return f"error_bound {bound!r} above the requested epsilon {eps!r}"
    try:
        return _check_fields(kind, obj, extra, bound, ref)
    except (KeyError, TypeError, IndexError, ValueError) as e:
        return f"malformed result: {type(e).__name__}: {e}"


def _check_fields(kind, obj, extra, bound, ref) -> str | None:
    if "value" in ref:
        want, ref_err = ref["value"]
        if not _close(obj["value"], want, bound, ref_err):
            return f"value {obj['value']!r} vs reference {want!r} (bound {bound})"
    if kind == "free":
        det = extra["determinant"]
        if not _close(det, ref["determinant"], SLACK_REL * abs(ref["determinant"])):
            return f"determinant {det!r} vs reference {ref['determinant']!r}"
    elif kind == "spectrum":
        got = extra["eigenvalues"]
        want = ref["eigenvalues"]
        if len(got) != len(want) or extra["n"] != len(want):
            return f"{len(got)} eigenvalues, expected {len(want)}"
        scale = max(1.0, max(abs(x) for x in want))
        for g, w in zip(got, want):
            if not _close(g, w, SLACK_REL * scale):
                return f"eigenvalue {g!r} vs reference {w!r}"
    elif kind in ("coeffs", "genfun"):
        if extra["coeffs"] != ref["coeffs"]:
            return "walk counts differ from the reference"
    elif kind == "compare":
        for key in ("value_a", "value_b"):
            if not _close(extra[key], ref[key]):
                return f"{key} {extra[key]!r} vs reference {ref[key]!r}"
        gap = abs(ref["value_a"] - ref["value_b"])
        want = "equal" if gap <= 1e-11 else "unequal" if gap > 1e-5 else None
        if want and extra["verdict"] != want:
            return f"verdict {extra['verdict']!r}, expected {want!r}"
    elif kind in ("converge-dihedral", "converge-abelian"):
        rows = extra["rows"]
        if [r["parameter"] for r in rows] != [p for p, _ in ref["rows"]]:
            return "converge rows do not match the requested parameters"
        limit_err = ref.get("limit_err", 0.0) + 1e-9  # the CLI's own limit is a series at 1e-9/1e-10
        for r, (_, want) in zip(rows, ref["rows"]):
            if not _close(r["value"], want):
                return f"row {r['parameter']}: value {r['value']!r} vs reference {want!r}"
            if not _close(r["gap"], abs(want - ref["limit"]), limit_err):
                return f"row {r['parameter']}: gap {r['gap']!r} vs reference"
            if kind == "converge-abelian" and r["q"] != 1:
                return f"row {r['parameter']}: q {r['q']!r}, expected 1 for square moduli"
    elif kind == "agree-depth":
        pairs = [tuple(p) for p in extra["coeff_pairs"]]
        if pairs != ref["pairs"]:
            return "walk-count pairs differ from the reference"
        first = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
        if extra["first_disagreement"] != first:
            return f"first_disagreement {extra['first_disagreement']!r}, expected {first!r}"
    return None


class References:
    """Reference answers computed once per distinct check spec."""

    def __init__(self):
        self._cache = {}

    def get(self, spec):
        key = repr(spec)
        if key not in self._cache:
            self._cache[key] = expected(spec)
        return self._cache[key]

