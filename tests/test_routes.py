"""One table of measure routes, and one test that every two of them agree.

Each route reaches the Fuglede-Kadison measure from its own base: walk
counts (the lambda series, and the lambda-free series at the dominant
coefficient of an exact or a float Q), finite-group determinants (of
I - lambda A in floats from the adjacency and from the representation
blocks, and exact; of QQ* in floats from the blocks, and exact),
characters, the torus grid, and the Z x Z/m closed form, a test-side
oracle that conftest computes with no route of grmahler.mahler.  A
case is a group g with either a reciprocal P and a lambda, whose lambda-free
routes then run on Q = 1 - lambda P (m(P, lambda) = m(1 - lambda P)), or a
lambda-free Q alone.  A route states, from the case alone, whether it
applies, and returns a value with its error bound; every two routes that
apply agree within the sum of their bounds and one rounding allowance.

No route may call another, or the agreement of the two would be a
tautology: test_no_route_names_another reads mahler.py and the oracles of
conftest.py to enforce it, and to hold every function that a row of
mahler.ROUTES runs to an entry here.  A route may share another's function
as a kernel only where its entry says so, and the two are then never
paired.  Every entry takes at least one of EXAMPLES
(test_every_route_takes_an_example).
"""
import ast
import inspect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

from hypothesis import example, given, settings
from hypothesis import strategies as st

from grmahler import groups as gr
from grmahler import mahler as mh
from grmahler import ring as rg
from grmahler import spectra as sp
from grmahler.coeffs import GaussianRational
from grmahler.parsing import parse_group, parse_poly_over

import conftest
from conftest import (
    FINITE_CATALOGUE,
    float_twin,
    random_element,
    random_nearest_neighbour,
    random_reciprocal,
    random_ring_element,
    zxzm_closed_form,
)

EPS = 1e-10  # the truncation every series route is asked for
RATE_CAP = 0.9  # the largest decay rate a series route is run at: about 190 terms at EPS
# the float routes report no rounding error yet: ROADMAP item 5 gives them a
# true bound, and this allowance goes with it
ROUNDING = 1e-12

INFINITE = [parse_group(s) for s in
            ("Z", "Z^2", "Z^3", "ZxZ/2", "ZxZ/3", "ZxZ/5", "Dinf", "F2", "C2*C3")]
# where a nearest-neighbour P takes its walk counts from ring.first_passage_counts
FIRST_PASSAGE = [parse_group("F2"), parse_group("C2*C3")]
P_STANDARD = "x + x^-1 + y + y^-1"


@dataclass(frozen=True)
class Case:
    """A group g, with a reciprocal P and lambda, Q = 1 - lambda P; or
    with a lambda-free Q alone (P and lam None)."""

    g: gr.GroupSpec
    P: rg.RingElement | None
    lam: Fraction | float | None
    Q: rg.RingElement


def at_lambda(g, P, lam) -> Case:
    P = parse_poly_over(P, g) if isinstance(P, str) else P
    return Case(g, P, lam, rg.add(rg.one(g), rg.scale(-lam, P)))


def lambda_free(g, Q) -> Case:
    return Case(g, None, None, parse_poly_over(Q, g) if isinstance(Q, str) else Q)


# ---------------------------------------------------------------------------
# the routes


@dataclass(frozen=True)
class Route:
    """function: the function of grmahler.mahler the route runs, or of
    conftest for an oracle; applies: whether it takes the case; call: its
    result there, a MeasureResult or a bare float; shares: the route
    functions it calls as a kernel it shares; oracle: whether it is a
    test-side oracle, which has no function in mahler.py."""

    function: str
    applies: Callable[[Case], bool]
    call: Callable[[Case], object]
    shares: tuple = ()
    oracle: bool = False

    def run(self, case) -> tuple:
        """(value, error bound); a route that returns a bare float bounds
        no error."""
        res = self.call(case)
        return (res, 0.0) if isinstance(res, float) else (res.value, res.error_bound)


def _walk_rate(case) -> float:
    return rg.l1_norm(case.P) * abs(float(case.lam))


def _dominance_rate(Q) -> float:
    """(l1(Q) - |c|)/|c| for c the largest coefficient of Q: the decay rate
    of mahler_general's series, which needs it below 1."""
    c = max(abs(v) for _, v in Q.terms)
    return (rg.l1_norm(Q) - c) / c


def _abelian(g, free: bool) -> bool:
    return isinstance(g, gr.AbelianProduct) and all((m == 0) == free for m in g.moduli)


def _zxzm(g) -> bool:
    """g is Z x Z/m."""
    return (isinstance(g, gr.AbelianProduct) and len(g.moduli) == 2 and g.moduli[0] == 0
            and g.moduli[1] > 0)


def _lam(case) -> bool:
    return case.lam is not None


ROUTES = {
    "series": Route(
        "mahler_series",
        lambda c: _lam(c) and _walk_rate(c) <= RATE_CAP,
        lambda c: mh.mahler_series(c.P, c.lam, EPS)),
    "general": Route(
        "mahler_general",
        lambda c: _dominance_rate(c.Q) <= RATE_CAP,
        lambda c: mh.mahler_general(c.Q, EPS)),
    "general float": Route(
        "mahler_general",
        lambda c: _dominance_rate(c.Q) <= RATE_CAP,
        lambda c: mh.mahler_general(float_twin(c.Q), EPS)),
    # floats for any lambda, the exact ones included.  blocks and determinant
    # float both read spectra.block_spectrum (of P and of QQ*); finite float
    # and determinant exact are their oracles that do not
    "blocks": Route(
        "mahler_blocks",
        lambda c: _lam(c) and c.g.is_finite(),
        lambda c: mh.mahler_blocks(c.P, c.lam)),
    "finite float": Route(
        "mahler_finite",
        lambda c: _lam(c) and c.g.is_finite(),
        lambda c: mh.mahler_finite(c.P, float(c.lam))),
    "finite exact": Route(
        "mahler_finite",
        lambda c: isinstance(c.lam, Fraction) and c.g.is_finite() and c.P.is_exact(),
        lambda c: mh.mahler_finite(c.P, c.lam)),
    "determinant exact": Route(
        "mahler_determinant",
        lambda c: c.g.is_finite() and c.Q.is_exact(),
        lambda c: mh.mahler_determinant(c.Q)),
    "determinant float": Route(
        "mahler_determinant",
        lambda c: c.g.is_finite(),
        lambda c: mh.mahler_determinant(float_twin(c.Q))),
    "characters": Route(
        "abelian_measure_via_characters",
        lambda c: _lam(c) and _abelian(c.g, free=False),
        lambda c: mh.abelian_measure_via_characters(c.P, float(c.lam))),
    # the torus grid average is the character sum on (Z/grid)^l
    "torus": Route(
        "mahler_torus",
        lambda c: _lam(c) and _abelian(c.g, free=True) and len(c.g.moduli) <= 3
        and _walk_rate(c) < 1,
        lambda c: mh.mahler_torus(c.P, c.lam),
        shares=("abelian_measure_via_characters",)),
    "zxzm": Route(
        "zxzm_closed_form",
        lambda c: _lam(c) and _zxzm(c.g) and c.P == parse_poly_over(P_STANDARD, c.g)
        and abs(c.lam) < Fraction(1, 4),
        lambda c: zxzm_closed_form(c.g.moduli[1], c.lam),
        oracle=True),
}


# ---------------------------------------------------------------------------
# the draws


@st.composite
def cases(draw):
    """Over FINITE_CATALOGUE, a reciprocal P at |lambda| rho <= 0.9 (rho the
    spectral radius of P), or a lambda-free Q = c g0 + R with l1(R) <= 0.9|c|,
    c Gaussian or off the identity as drawn; over the infinite groups, P at
    l1(P)|lambda| <= 0.3, so that the walks stay shallow, but for a
    nearest-neighbour P over F2 or C2*C3, drawn half the time there, at
    l1(P)|lambda| <= 0.9: its counts come from first-passage equations."""
    g = draw(st.sampled_from(FINITE_CATALOGUE + INFINITE))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    finite = g.is_finite()
    nearest = g in FIRST_PASSAGE and draw(st.booleans())
    j = rnd.randint(-900, 900) if finite or nearest else rnd.randint(-300, 300)
    if finite and draw(st.booleans()):
        a, b = rnd.randint(1, 3), rnd.randint(-3, 3)
        c = GaussianRational(rnd.choice([a, -a]), b) if b else a
        R = random_ring_element(g, rnd)
        if not R.is_zero():
            R = rg.scale(Fraction(abs(j) * max(a, abs(b)), 1000 * math.ceil(rg.l1_norm(R))), R)
        return lambda_free(g, rg.add(rg.monomial(g, random_element(g, rnd), c), R))
    if _zxzm(g) and draw(st.booleans()):
        P = parse_poly_over(P_STANDARD, g)
    elif nearest:
        P = random_reciprocal(g, rnd, n_terms=3, element=random_nearest_neighbour)
    else:
        P = random_reciprocal(g, rnd)
    scale = sp.hermitian_eigenvalues(sp.cayley_adjacency(P)).max_abs() if finite else rg.l1_norm(P)
    return at_lambda(g, P, Fraction(j, math.ceil(1000 * scale)))


Z32, D3, Dic3 = gr.AbelianProduct((3, 2)), gr.Dihedral(3), gr.Dicyclic(3)

EXAMPLES = [
    # float QQ* was not bit-reciprocal here, and the float determinant refused it
    at_lambda(gr.AbelianProduct((4, 3)), "2*y + 2*y^-1 - x - x^-1", Fraction(1, 12)),
    at_lambda(gr.Dihedral(4), "x + x^-1 + y", Fraction(1, 10)),
    # a constant P walks a_n = l1(P)^n, as large as the series tail bound
    # allows; Q = 1/10 walks nothing, and mahler_general's bound is 0
    at_lambda(gr.AbelianProduct((2,)), "1", Fraction(9, 10)),
    at_lambda(parse_group("Z^2"), P_STANDARD, Fraction(1, 10)),
    at_lambda(parse_group("ZxZ/3"), P_STANDARD, Fraction(1, 20)),
    # nearest-neighbour P near the rate cap: about 160 terms from first-passage
    # equations, for the series and for mahler_general of 1 - lambda P
    at_lambda(parse_group("F2"), P_STANDARD, Fraction(11, 50)),
    at_lambda(parse_group("C2*C3"), "2*x + i*y - i*y^-1", Fraction(11, 50)),
    # the torus at grid G is the character sum on Z/G x Z/G: these hold that
    # sum to the finite routes
    at_lambda(gr.AbelianProduct((4, 4)), P_STANDARD, Fraction(1, 10)),
    at_lambda(gr.AbelianProduct((8, 8)), P_STANDARD, Fraction(1, 10)),
    # dominant coefficients off the identity and Gaussian; the last Q has
    # none, so only the two determinants take it
    *(lambda_free(g, q) for g in (Z32, D3, Dic3)
      for q in ("3+x+y", "5 + i*x - i*x^-1 + y", "x+5*y+x^2", "(3+1i)+x+i*y")),
    *(lambda_free(g, q) for g in (Z32, D3) for q in ("x+2*y", "3 + i*x - i*x^-1 + y")),
]


def _with_examples(test):
    for case in reversed(EXAMPLES):
        test = example(case)(test)
    return test


@settings(max_examples=150)
@given(cases())
@_with_examples
def test_every_two_routes_agree(case):
    results = {name: route.run(case) for name, route in ROUTES.items() if route.applies(case)}
    assert len(results) >= 2, f"fewer than two routes take {case}"
    disagreements = []
    for (a, (va, ba)), (b, (vb, bb)) in combinations(results.items(), 2):
        if ROUTES[a].function in ROUTES[b].shares or ROUTES[b].function in ROUTES[a].shares:
            continue
        if not abs(va - vb) <= ba + bb + ROUNDING:
            disagreements.append(f"{a} {va!r} (bound {ba:g}) vs {b} {vb!r} (bound {bb:g})")
    assert not disagreements, "\n".join(disagreements)


def test_no_route_names_another():
    # a route reaches the module functions it names, and those they name;
    # the routes among them must be the ones it declares it shares.  measure
    # and ROUTES name every route
    module = ast.parse(Path(mh.__file__).read_text())
    functions = {f.name: f for f in module.body if isinstance(f, ast.FunctionDef)}
    matrix = {route.function for route in ROUTES.values() if not route.oracle}
    routes = matrix | {"measure", "ROUTES"}
    for route in ROUTES.values():
        if route.oracle:
            # a test-side oracle is a conftest function, and names nothing of
            # mahler.py nor the module itself
            assert route.function not in functions, route.function
            oracle = ast.parse(inspect.getsource(getattr(conftest, route.function)))
            named = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(oracle)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            assert not named & (functions.keys() | {"mh", "mahler"}), route.function
            continue
        reached, todo = set(), [route.function]
        while todo:
            named = {n.id for n in ast.walk(functions[todo.pop()]) if isinstance(n, ast.Name)}
            todo.extend(named & functions.keys() - reached)
            reached |= named & (functions.keys() | routes)
        assert reached & routes - {route.function} == set(route.shares), route.function
    # the functions each row of mahler.ROUTES runs, named in its run lambda,
    # are routes of this matrix
    table = next(n.value for n in module.body if isinstance(n, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "ROUTES" for t in n.targets))
    assert [key.value for key in table.keys] == list(mh.ROUTES)
    for key, row in zip(table.keys, table.values):
        run = row.args[mh.Route._fields.index("run")]
        named = {n.id for n in ast.walk(run) if isinstance(n, ast.Name)} & functions.keys()
        assert named and named <= matrix, (key.value, named - matrix)


# where the base group may change: ring.transfer is named only in these
# functions, and anywhere in experiments.py
TRANSFER_CALLERS = {"mahler.py": {"mahler_torus"}, "spectra.py": {"dihedral_trace_via_characters"}}


def test_p_carries_its_group():
    # a route or kernel reads its group from P.group: no function of
    # mahler.py or spectra.py takes a group next to a ring element, and the
    # base group changes only where a caller names ring.transfer
    src = Path(mh.__file__).parent

    def kinds(fn):
        """What fn's parameters are: a group or a ring element, by annotation or name."""
        out = set()
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
            note = ast.unparse(arg.annotation) if arg.annotation else ""
            if note.startswith("gr.") or arg.arg in ("g", "group"):
                out.add("group")
            if "RingElement" in note or arg.arg in ("P", "Q", "R"):
                out.add("ring element")
        return out

    for name in ("mahler.py", "spectra.py"):
        for fn in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                assert kinds(fn) != {"group", "ring element"}, (name, fn.lineno)
    for path in sorted(src.glob("*.py")):
        if path.name == "experiments.py":
            continue
        for top in ast.parse(path.read_text()).body:
            named = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(top)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if "transfer" in named:
                assert getattr(top, "name", None) in TRANSFER_CALLERS.get(path.name, ()), \
                    (path.name, top.lineno)


def test_every_route_takes_an_example():
    # a predicate that narrows by mistake fails here rather than drop its
    # route's cells unseen
    idle = [name for name, route in ROUTES.items() if not any(map(route.applies, EXAMPLES))]
    assert not idle, idle
