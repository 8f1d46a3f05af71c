import math
import random

import hypothesis
import pytest

from grmahler import groups as gr
from grmahler import ring as rg
from grmahler import spectra as sp
from grmahler.coeffs import GaussianRational

# re-exported: the test modules import every shared generator from here
from instances import dicyclic_theorem_instance, dihedral_theorem_instance, from_alpha_beta

hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=50, derandomize=True
)
# for a held-out run: derandomize would override --hypothesis-seed, and an
# example database would replay what earlier runs drew
hypothesis.settings.register_profile(
    "heldout", deadline=None, max_examples=50, derandomize=False, database=None
)
hypothesis.settings.load_profile("ci")

SEED = 20250809


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=SEED,
        help="seed for the randomized property tests (fixed default)",
    )


@pytest.fixture
def rng(request):
    return random.Random(request.config.getoption("--seed"))


@pytest.fixture
def no_work_past_the_order_cap(monkeypatch):
    """Fails the test when the reciprocity of a P over a finite group past
    spectra.MAX_ORDER is checked: the next step of every finite route after
    its order cap, which must refuse such a P first.  An infinite group's P
    is checked as usual."""
    is_reciprocal = rg.is_reciprocal

    def checked(P):
        if P.group.is_finite() and P.group.order() > sp.MAX_ORDER:
            pytest.fail("the order cap must be checked before any work")
        return is_reciprocal(P)

    monkeypatch.setattr(rg, "is_reciprocal", checked)


# ---------------------------------------------------------------------------
# shared instance generators (exact coefficients, reproducible)

FINITE_CATALOGUE = [
    gr.AbelianProduct((2,)),
    gr.AbelianProduct((5,)),
    gr.AbelianProduct((3, 2)),
    gr.AbelianProduct((4, 3)),
    gr.AbelianProduct((2, 2, 2)),
    gr.Dihedral(3),
    gr.Dihedral(4),
    gr.Dihedral(5),
    gr.Dihedral(6),
    gr.Dicyclic(2),
    gr.Dicyclic(3),
    # the edge cases: in D2, x = x^-1; in Dic1, y^2 = x
    gr.Dihedral(1),
    gr.Dihedral(2),
    gr.Dicyclic(1),
]


def word_element(group, word):
    """The value of the word ((gen_index, exp), ...): the one element of the
    one-term ring element that ring.from_word_terms builds from it."""
    ((e, _),) = rg.from_word_terms(group, [(1, word)]).terms
    return e


def random_element(group, rnd, max_len=3):
    """A valid normal form reached by a short random word of generators."""
    n = group.num_generators()
    word = [(rnd.randrange(n), rnd.choice([-2, -1, 1, 2])) for _ in range(rnd.randint(0, max_len))]
    return word_element(group, tuple(word))


def random_nearest_neighbour(group, rnd):
    """The identity or an element one step from it, drawn uniformly: one
    syllable of a free group or of a free product of cyclic groups, of
    exponent +-1 on a factor Z."""
    return rnd.choice([()] + [((i, a),) for i, m in enumerate(group.orders)
                              for a in (range(1, m) if m else (1, -1))])


def random_ring_element(group, rnd, n_terms=3, gaussian=True, element=random_element):
    """Random exact ring element with small Gaussian-integer coefficients on
    terms drawn by element(group, rnd)."""
    terms = {}
    for _ in range(n_terms):
        e = element(group, rnd)
        if gaussian and rnd.random() < 0.4:
            c = GaussianRational(rnd.randint(-2, 2), rnd.randint(-2, 2))
        else:
            c = rnd.randint(-2, 2)
        terms[e] = terms.get(e, 0) + c
    return rg.ring_element(group, terms)


# abelian groups of one infinite axis, of several, and of infinite and finite
# axes mixed, over which a ring element splits into blocks of disjoint axes
BLOCK_GROUPS = [
    gr.AbelianProduct((0,)),
    gr.AbelianProduct((0, 0)),
    gr.AbelianProduct((0, 0, 0)),
    gr.AbelianProduct((0, 5)),
    gr.AbelianProduct((3, 0, 4)),
]


def random_split_element(group, rnd, coeffs):
    """Exact element of abelian `group` with the given coefficients on terms
    that mostly move one axis, so that it splits into blocks; a term on no
    axis adds to the constant, and one on several axes joins their blocks."""
    terms, moduli = {}, group.moduli
    for c in coeffs:
        axes = rnd.sample(range(len(moduli)), 1 if rnd.random() < 0.7 else
                          rnd.randint(0, len(moduli)))
        e = [rnd.choice([-2, -1, 1, 2]) if i in axes else 0 for i in range(len(moduli))]
        e = tuple(x % m if m else x for x, m in zip(e, moduli))
        terms[e] = terms.get(e, 0) + c
    return rg.ring_element(group, terms)


def random_reciprocal(group, rnd, n_terms=2, max_l1=8.0, element=random_element):
    """Random nonzero reciprocal element P = R + R* (+ small real constant),
    rejected until its l1-norm fits under max_l1; R's terms are drawn by
    element(group, rnd)."""
    while True:
        R = random_ring_element(group, rnd, n_terms, element=element)
        P = rg.add(R, rg.star(R))
        if rnd.random() < 0.5:
            P = rg.add(P, rg.scale(rnd.randint(-1, 1), rg.one(group)))
        if not P.is_zero() and rg.l1_norm(P) <= max_l1:
            assert rg.is_reciprocal(P)
            return P


def one_minus_lambda_adjacency(group, P, lam):
    """The Cayley adjacency of 1 - lam*P, which is I - lam*A for A that of P."""
    return sp.cayley_adjacency(rg.add(rg.one(group), rg.scale(-lam, P)))


def float_twin(P):
    """P with every coefficient made floating (the ring degrades it to complex)."""
    return rg.ring_element(P.group, {e: complex(c) for e, c in P.terms})


def eigen_trace(A, n):
    """trace(A^n) as the power sum of the spectrum of A."""
    return sum(s**n for s in sp.hermitian_eigenvalues(A).eigenvalues)


def dense_character_values(g, P):
    """P at every character of finite abelian g by the dense formula: for
    each term a phase over the full index grid, summed over every axis.
    The bit-for-bit reference for spectra.abelian_character_values."""
    import numpy as np

    P = rg.transfer(P, g)
    moduli = g.moduli
    grids = np.meshgrid(*(np.arange(m) for m in moduli), indexing="ij")
    vals = np.zeros(grids[0].shape, dtype=complex)
    for e, c in P.terms:
        phase = np.zeros(grids[0].shape, dtype=float)
        for exp, m, j in zip(e, moduli, grids):
            phase += (2.0 * math.pi * exp / m) * j
        vals += complex(c) * np.exp(1j * phase)
    return vals.reshape(-1)


def zxzm_closed_form(m, lam):
    """m_{Z x Z/m}(x + x^-1 + y + y^-1, lambda) for |lambda| < 1/4, in closed
    form: a test-side oracle, which calls no route of grmahler.mahler.

    Averages, over the m-th roots of unity in the finite factor, the log of
    the larger root of the one-variable quadratic; for |lambda| < 1/4,
    1 - 2 cos(theta) lambda > 0 at either sign, so the larger root takes the
    '+' branch.
    """
    lam = float(lam)
    total = 0.0
    for k in range(m):
        theta = 2.0 * math.pi * k / m
        c = math.cos(theta)
        disc = max(1.0 - 4.0 * c * lam - 4.0 * math.sin(theta) ** 2 * lam * lam, 0.0)
        total += math.log((1.0 - 2.0 * c * lam + math.sqrt(disc)) / 2.0)
    return total / m


def assert_multisets_close(xs, ys, tol=1e-9):
    xs = sorted(xs)
    ys = sorted(ys)
    assert len(xs) == len(ys)
    for a, b in zip(xs, ys):
        assert abs(a - b) <= tol, f"{a} vs {b}"
