import random

import hypothesis
import pytest

from grmahler import groups as gr
from grmahler import ring as rg
from grmahler import spectra as sp
from grmahler.coeffs import GaussianRational

hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=50, derandomize=True
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
]


def random_element(group, rnd, max_len=3):
    """A valid normal form reached by a short random word of generators."""
    e = group.identity()
    n = group.num_generators()
    for _ in range(rnd.randint(0, max_len)):
        i = rnd.randrange(n)
        exp = rnd.choice([-2, -1, 1, 2])
        e = gr.multiply(group, e, gr.element_power(group, group.generator(i), exp))
    return e


def random_ring_element(group, rnd, n_terms=3, gaussian=True):
    """Random exact ring element with small Gaussian-integer coefficients."""
    terms = {}
    for _ in range(n_terms):
        e = random_element(group, rnd)
        if gaussian and rnd.random() < 0.4:
            c = GaussianRational(rnd.randint(-2, 2), rnd.randint(-2, 2))
        else:
            c = rnd.randint(-2, 2)
        terms[e] = terms.get(e, 0) + c
    return rg.ring_element(group, terms)


def random_reciprocal(group, rnd, n_terms=2, max_l1=8.0):
    """Random nonzero reciprocal element P = R + R* (+ small real constant),
    rejected until its l1-norm fits under max_l1."""
    while True:
        R = random_ring_element(group, rnd, n_terms)
        P = rg.add(R, rg.star(R))
        if rnd.random() < 0.5:
            P = rg.add(P, rg.scale(rnd.randint(-1, 1), rg.one(group)))
        if not P.is_zero() and rg.l1_norm(P) <= max_l1:
            assert rg.is_reciprocal(P)
            return P


def one_minus_lambda_adjacency(group, P, lam):
    """The Cayley adjacency of 1 - lam*P, which is I - lam*A for A that of P."""
    return sp.cayley_adjacency(group, rg.add(rg.one(group), rg.scale(-lam, P)))


def float_twin(P):
    """P with every coefficient made floating (the ring degrades it to complex)."""
    return rg.ring_element(P.group, {e: complex(c) for e, c in P.terms})


def eigen_trace(A, n):
    """trace(A^n) as the power sum of the spectrum of A."""
    return sum(s**n for s in sp.hermitian_eigenvalues(A).eigenvalues)


def from_alpha_beta(group, alpha, beta):
    """P = sum alpha_k x^k + sum beta_k y x^k built through words, so the
    same coefficient arrays can be interpreted over D_m, Dic_m, or their
    abelianized counterparts."""
    word_terms = []
    for k, a in enumerate(alpha):
        if a:
            word_terms.append((a, ((0, k),) if k else ()))
    for k, b in enumerate(beta):
        if b:
            word_terms.append((b, ((1, 1), (0, k)) if k else ((1, 1),)))
    return rg.from_word_terms(group, word_terms)


def dihedral_theorem_instance(m, rnd):
    """Real alpha, beta with alpha_k = alpha_{m-k}, beta_k = beta_{m-k}:
    the equality-theorem hypotheses for D_m vs Z/m x Z/2."""
    alpha = [0] * m
    beta = [0] * m
    alpha[0] = rnd.randint(-2, 2)
    beta[0] = rnd.randint(-2, 2)
    for k in range(1, m // 2 + 1):
        a = rnd.randint(-2, 2)
        b = rnd.randint(-2, 2)
        alpha[k] = alpha[(m - k) % m] = a
        beta[k] = beta[(m - k) % m] = b
    return alpha, beta


def dicyclic_theorem_instance(m, rnd):
    """Real alpha with alpha_k = alpha_{2m-k}; beta satisfying both
    beta_k = conj(beta_{m+k}) and beta_k = conj(beta_{2m-k}), i.e. the
    hypotheses making P reciprocal in both Dic_m and Z/2m x Z/2."""
    n = 2 * m
    alpha = [0] * n
    alpha[0] = rnd.randint(-2, 2)
    alpha[m] = rnd.randint(-2, 2)
    for k in range(1, m):
        alpha[k] = alpha[n - k] = rnd.randint(-2, 2)
    beta = [0] * n
    beta[0] = rnd.randint(-2, 2)  # forced real
    for k in range(1, m // 2 + 1):
        b = GaussianRational(rnd.randint(-2, 2), rnd.randint(-2, 2))
        beta[k] = b
        beta[(m - k) % n] = b
    for k in range(m):
        beta[m + k] = beta[k].conjugate() if isinstance(beta[k], GaussianRational) else beta[k]
    return alpha, beta


def assert_multisets_close(xs, ys, tol=1e-9):
    xs = sorted(xs)
    ys = sorted(ys)
    assert len(xs) == len(ys)
    for a, b in zip(xs, ys):
        assert abs(a - b) <= tol, f"{a} vs {b}"
