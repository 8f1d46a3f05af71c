"""The equality-theorem instances over D_m, Dic_m and their abelianized
counterparts, shared by the tests (through conftest) and by
scripts/group_comparisons.py.  It imports neither pytest nor hypothesis, so
the script runs with the package's runtime dependencies alone."""
from grmahler import ring as rg
from grmahler.coeffs import GaussianRational


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
