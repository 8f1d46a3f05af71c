import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grmahler import groups as gr
from grmahler import mahler as mh
from grmahler import ring as rg
from grmahler.coeffs import GaussianRational
from grmahler.errors import GroupMismatchError, InfiniteGroupError, ResourceLimitError
from grmahler.parsing import parse_group

from conftest import FINITE_CATALOGUE, random_element, word_element

SMALL_FINITE = [g for g in FINITE_CATALOGUE if g.order() <= 48] + [
    gr.AbelianProduct((8, 6)),  # order 48
    gr.AbelianProduct((4, 4, 2)),  # order 32
    gr.Dihedral(24),  # order 48
    gr.Dicyclic(12),  # order 48
]


# ---------------------------------------------------------------------------
# identity / order / enumerate


def test_identity_examples():
    assert gr.AbelianProduct((3, 2)).identity() == (0, 0)
    assert gr.Dihedral(5).identity() == (0, 0)
    assert gr.Free(2).identity() == ()


def test_order_examples():
    assert gr.AbelianProduct((3, 2)).order() == 6
    assert gr.Dihedral(0).order() == math.inf
    assert gr.Free(2).order() == math.inf
    assert gr.Dicyclic(2).order() == 8
    assert gr.FreeProductCyclic((2, 3)).order() == math.inf


def test_enumerate_examples():
    assert gr.elements(gr.AbelianProduct((2,))) == [(0,), (1,)]
    d3 = gr.elements(gr.Dihedral(3))
    assert len(d3) == 6
    # rotation block first
    assert d3[:3] == [(0, 0), (0, 1), (0, 2)]
    assert d3[3:] == [(1, 0), (1, 1), (1, 2)]
    assert len(gr.elements(gr.Dicyclic(2))) == 8
    with pytest.raises(InfiniteGroupError):
        gr.elements(gr.Free(1))


def test_enumerate_abelian_lexicographic():
    got = gr.elements(gr.AbelianProduct((3, 2)))
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    for i, e in enumerate(got):
        assert gr.AbelianProduct((3, 2)).element_index(e) == i


@pytest.mark.parametrize("g, a", [
    (gr.Dihedral(0), (1, 7)), (gr.Dihedral(0), (0, 7)), (gr.Dicyclic(0), (1, -2)),
    (gr.AbelianProduct((0, 3)), (5, 1)), (gr.AbelianProduct((4, 0)), (1, 0)),
], ids=["Dinf-reflection", "Dinf-rotation", "Dicinf", "ZxZ/3", "Z/4xZ"])
def test_element_index_refuses_an_infinite_group(g, a):
    # an index of an infinite group would be shared: (1, 7) and (0, 7) of
    # Dinf both took 7; every family refuses as the base class does for F2
    with pytest.raises(InfiniteGroupError, match=f"^no canonical index for {g.spec()}$"):
        g.element_index(a)
    for h in (gr.Dihedral(3), gr.Dicyclic(2), gr.AbelianProduct((3, 4))):
        assert [h.element_index(e) for e in h.elements()] == list(range(h.order()))


# ---------------------------------------------------------------------------
# multiplication examples from the catalogue relations


def test_dihedral_reflection_squares_to_identity():
    g = gr.Dihedral(3)
    sigma_rho = (1, 1)  # y x
    assert gr.multiply(g, sigma_rho, sigma_rho) == (0, 0)


def test_dicyclic_y_squared_is_x_m():
    g = gr.Dicyclic(3)
    y = (1, 0)
    assert gr.multiply(g, y, y) == (0, 3)


def test_free_product_cyclic_y_cubed():
    g = gr.FreeProductCyclic((2, 3))
    y1 = ((1, 1),)
    y2 = ((1, 2),)
    assert gr.multiply(g, y1, y2) == ()


def test_free_reduction():
    g = gr.Free(2)
    xy = (1, 2)
    yinv_x = (-2, 1)
    assert gr.multiply(g, xy, yinv_x) == (1, 1)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("prefix", [(), ((1, 1),), ((0, -1), (1, 2))])
def test_free_powers_stop_at_the_word_cap(prefix, sign):
    # u x^n has |u| + |n| letters when u ends in y: the largest power within
    # the cap builds, since no square on the way to x^n is longer than x^n
    F2, cap = gr.Free(2), gr.MAX_WORD_LETTERS
    n = cap - sum(abs(exp) for _, exp in prefix)
    assert len(word_element(F2, prefix + ((0, sign * n),))) == cap
    with pytest.raises(ResourceLimitError, match=f"pass the free-word cap {cap}"):
        word_element(F2, prefix + ((0, sign * (n + 1)),))


def test_dihedral_conjugation_relation():
    # rho^k * sigma = sigma * rho^-k, i.e. (0,k)*(1,0) = (1, -k mod m)
    for m in (3, 4, 5, 7):
        g = gr.Dihedral(m)
        for k in range(m):
            assert gr.multiply(g, (0, k), (1, 0)) == (1, (-k) % m)


def test_dicyclic_defining_relations():
    for m in (1, 2, 3, 4):
        g = gr.Dicyclic(m)
        x, y = (0, 1), (1, 0)
        assert word_element(g, ((0, 2 * m),)) == (0, 0)
        assert gr.multiply(g, y, y) == word_element(g, ((0, m),))
        # y^-1 x y = x^-1
        lhs = gr.multiply(g, gr.multiply(g, g.invert(y), x), y)
        assert lhs == g.invert(x)


def test_dicinf_matches_dinf_multiplication(rng):
    gd = gr.Dihedral(0)
    gc = gr.Dicyclic(0)
    for _ in range(200):
        a = (rng.randint(0, 1), rng.randint(-5, 5))
        b = (rng.randint(0, 1), rng.randint(-5, 5))
        assert gr.multiply(gd, a, b) == gr.multiply(gc, a, b)
        assert gd.invert(a) == gc.invert(a)


# ---------------------------------------------------------------------------
# multiplier: the law of a group, built once

MULTIPLIER_FAMILIES = [
    gr.Dihedral(5),
    gr.Dihedral(0),
    gr.Dicyclic(3),
    gr.Dicyclic(0),
    gr.AbelianProduct((0, 0)),
    gr.AbelianProduct((0, 0, 0)),
    gr.AbelianProduct((0, 4)),
    gr.Free(1),
    gr.Free(2),
    gr.Free(3),
    gr.FreeProductCyclic((2, 3)),
]


@given(st.sampled_from(MULTIPLIER_FAMILIES), st.randoms(use_true_random=False))
def test_multiplier_agrees_with_multiply(g, rnd):
    mul = gr.multiplier(g)
    for _ in range(20):
        a = random_element(g, rnd, max_len=5)
        b = random_element(g, rnd, max_len=5)
        assert mul(a, b) == gr.multiply(g, a, b)
        # the product of two normal forms is the value of the joined words
        word = g.element_word(a) + g.element_word(b)
        assert mul(a, b) == word_element(g, word)


MISMATCHES = [
    (gr.Free(2), (1,), (3,)),  # letter outside the rank
    (gr.Free(2), (1,), (-3,)),
    (gr.AbelianProduct((0, 3)), (1, 0), (1, 0, 0)),  # length mismatch
    (gr.AbelianProduct((0, 3)), (1,), (1, 0)),
]


@pytest.mark.parametrize("g, a, b", MISMATCHES)
def test_multiply_rejects_foreign_elements(g, a, b):
    with pytest.raises(GroupMismatchError):
        gr.multiply(g, a, b)
    with pytest.raises(GroupMismatchError):
        gr.multiplier(g)(a, b)


@pytest.mark.parametrize("g, a, b", MISMATCHES)
def test_ring_mul_rejects_foreign_elements(g, a, b):
    # RingElement(...) skips ring_element's validation, as a foreign term would
    A = rg.RingElement(g, ((a, 1),))
    B = rg.RingElement(g, ((b, 1),))
    with pytest.raises(GroupMismatchError):
        rg.mul(A, B)


def test_multiplier_rejects_non_groups():
    with pytest.raises(TypeError):
        gr.multiplier("Z^2")


# ---------------------------------------------------------------------------
# inversion


def test_invert_examples():
    assert gr.Dihedral(4).invert((1, 2)) == (1, 2)  # reflections are involutions
    assert gr.AbelianProduct((0, 0)).invert((2, -1)) == (-2, 1)
    g = gr.Dicyclic(3)
    yinv = g.invert((1, 0))
    assert yinv == (1, 3)  # y^-1 normalizes to y x^3
    assert gr.multiply(g, (1, 0), yinv) == (0, 0)


@pytest.mark.parametrize("g", SMALL_FINITE)
def test_invert_is_bijective_involution(g):
    elems = gr.elements(g)
    inverses = [g.invert(e) for e in elems]
    assert sorted(inverses, key=lambda e: g.element_sort_key(e)) == elems
    for e, inv in zip(elems, inverses):
        assert g.invert(inv) == e
        assert gr.multiply(g, e, inv) == g.identity()
        assert gr.multiply(g, inv, e) == g.identity()


# ---------------------------------------------------------------------------
# group axioms on full tables (order <= 48)


@pytest.mark.parametrize("g", SMALL_FINITE)
def test_multiplication_table_is_latin_square(g):
    elems = gr.elements(g)
    n = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[gr.multiply(g, a, b)] for b in elems] for a in elems]
    for row in table:
        assert sorted(row) == list(range(n))
    for col in zip(*table):
        assert sorted(col) == list(range(n))


@pytest.mark.parametrize("g", SMALL_FINITE)
def test_associativity_on_all_triples(g):
    elems = gr.elements(g)
    for a, b, c in product(elems, repeat=3):
        assert gr.multiply(g, gr.multiply(g, a, b), c) == gr.multiply(
            g, a, gr.multiply(g, b, c)
        )


@pytest.mark.parametrize("g", SMALL_FINITE)
def test_identity_is_neutral(g):
    e = g.identity()
    for a in gr.elements(g):
        assert gr.multiply(g, e, a) == a
        assert gr.multiply(g, a, e) == a


# ---------------------------------------------------------------------------
# normal forms on infinite families

INFINITE_FAMILIES = [
    gr.AbelianProduct((0, 2)),
    gr.Dihedral(0),
    gr.Dicyclic(0),
    gr.Free(2),
    gr.FreeProductCyclic((2, 3)),
    gr.FreeProductCyclic((3, 3, 4)),
]


@pytest.mark.parametrize("g", INFINITE_FAMILIES)
def test_products_stay_in_normal_form(g, rng):
    for _ in range(100):
        a = random_element(g, rng, max_len=4)
        b = random_element(g, rng, max_len=4)
        p = gr.multiply(g, a, b)
        g.validate_element(p)
        assert gr.multiply(g, p, g.invert(p)) == g.identity()


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
def test_free_words_are_reduced(letters):
    g = gr.Free(2)
    e = g.identity()
    for letter in letters:
        e = gr.multiply(g, e, (letter,))
    g.validate_element(e)


@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(-4, 4)), max_size=8),
    st.lists(st.tuples(st.integers(0, 1), st.integers(-4, 4)), max_size=8),
)
def test_dinf_associative_on_words(word_a, word_b):
    g = gr.Dihedral(0)
    g.validate_element(word_element(g, tuple(word_a + word_b)))


# ---------------------------------------------------------------------------
# words and transfer plumbing


@pytest.mark.parametrize("g", SMALL_FINITE + INFINITE_FAMILIES)
def test_element_word_round_trip(g, rng):
    for _ in range(50):
        a = random_element(g, rng, max_len=4)
        w = g.element_word(a)
        assert word_element(g, w) == a


def test_generator_names():
    assert gr.generator_names(gr.AbelianProduct((0,))) == ["x"]
    assert gr.generator_names(gr.Dihedral(5)) == ["x", "y"]
    assert gr.generator_names(gr.AbelianProduct((0, 0, 0))) == ["x1", "x2", "x3"]


def test_validate_element_rejects_garbage():
    with pytest.raises(GroupMismatchError):
        gr.AbelianProduct((3, 2)).validate_element((3, 0))
    with pytest.raises(GroupMismatchError):
        gr.Dihedral(3).validate_element((2, 0))
    with pytest.raises(GroupMismatchError):
        gr.Free(2).validate_element((1, -1))  # not reduced
    with pytest.raises(GroupMismatchError):
        gr.FreeProductCyclic((2, 3)).validate_element(((0, 1), (0, 1)))


def test_group_spec_validation():
    with pytest.raises(ValueError):
        gr.AbelianProduct(())
    with pytest.raises(ValueError):
        gr.Dihedral(-1)
    with pytest.raises(ValueError):
        gr.Free(0)
    with pytest.raises(ValueError):
        gr.FreeProductCyclic((2,))
    with pytest.raises(ValueError):
        gr.FreeProductCyclic((1, 2))


# ---------------------------------------------------------------------------
# groups and ring elements as values: equality, hashing, immutability, repr


def _specs():
    return [gr.AbelianProduct((3, 2)), gr.AbelianProduct((2, 3)), gr.AbelianProduct((0,)),
            gr.Dihedral(0), gr.Dihedral(3), gr.Dicyclic(0), gr.Dicyclic(3),
            gr.Free(2), gr.Free(3), gr.FreeProductCyclic((2, 3)), gr.FreeProductCyclic((3, 2))]


def test_groups_are_equal_exactly_when_family_and_parameter_match():
    for (i, a), (j, b) in product(enumerate(_specs()), enumerate(_specs())):
        assert (a == b, a != b) == (i == j, i != j), (a, b)
        if i == j:
            assert hash(a) == hash(b)
    # one law, two families: the family decides
    assert gr.Dihedral(0) != gr.Dicyclic(0)
    assert parse_group("Z/3xZ/2") == gr.AbelianProduct((3, 2))
    assert parse_group("D3") == gr.Dihedral(3) and parse_group("Dic3") != gr.Dihedral(3)
    assert len({parse_group("F2"), gr.Free(2), parse_group("C2*C3"), gr.FreeProductCyclic((2, 3))}) == 2


def test_equal_ring_elements_and_coefficients_hash_equal():
    z3z2 = parse_group("Z/3xZ/2")
    P = rg.from_word_terms(z3z2, [(1, ()), (2, ((0, 1),)), (GaussianRational(0, 1), ((1, 1),))])
    Q = rg.ring_element(gr.AbelianProduct((3, 2)), dict(reversed(P.terms)))
    assert P == Q and hash(P) == hash(Q)
    assert P != rg.RingElement(gr.Dihedral(3), P.terms)
    assert GaussianRational(2, 0) == 2 and hash(GaussianRational(2, 0)) == hash(2)
    assert hash(GaussianRational(1, 3)) == hash(GaussianRational(1, 3))


@pytest.mark.parametrize("value, field", [
    (gr.AbelianProduct((3, 2)), "moduli"), (gr.Dihedral(3), "m"), (gr.Dicyclic(0), "m"),
    (gr.Free(2), "rank"), (gr.FreeProductCyclic((2, 3)), "orders"),
    (rg.one(gr.Dihedral(3)), "terms"), (GaussianRational(1, 2), "re"),
    (mh.MeasureResult(0.5, "series", 1e-12), "value"),
])
def test_values_refuse_assignment(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    with pytest.raises(AttributeError):
        setattr(value, "other", 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


@pytest.mark.parametrize("text, spec", [
    ("Z", "Z"), ("Z^2", "ZxZ"), ("Z/3xZ/2", "Z/3xZ/2"), ("ZxZ/3", "ZxZ/3"),
    ("Z/4xZxZ/1", "Z/4xZxZ/1"),
    ("D5", "D5"), ("Dinf", "Dinf"), ("Dic3", "Dic3"), ("Dicinf", "Dicinf"), ("F2", "F2"),
    ("C2*C3", "C2*C3"), ("C2 * C3 * C5", "C2*C3*C5"),
])
def test_spec_round_trips_through_parse_group(text, spec):
    g = parse_group(text)
    assert g.spec() == spec
    assert parse_group(spec) == g


def test_error_messages_embed_the_same_reprs():
    assert [repr(g) for g in (gr.Dihedral(3), gr.AbelianProduct((3, 2)), gr.Free(2),
                              gr.FreeProductCyclic((2, 3)))] == [
        "Dihedral(m=3)", "AbelianProduct(moduli=(3, 2))", "Free(rank=2)",
        "FreeProductCyclic(orders=(2, 3))"]
    P = rg.one(gr.Dihedral(3))
    assert repr(P) == "RingElement(group=Dihedral(m=3), terms=(((0, 0), 1),))"
    # error messages name a group by the specifier the user types
    with pytest.raises(GroupMismatchError, match=r"^group mismatch: D3 vs Z/3xZ/2$"):
        rg.add(P, rg.one(gr.AbelianProduct((3, 2))))
    with pytest.raises(GroupMismatchError, match=r"^\(2, 0\) is not a normal form for F2$"):
        gr.Free(2).validate_element((2, 0))
    with pytest.raises(GroupMismatchError, match=r"^group C2\*C3 has no generator 2$"):
        gr.FreeProductCyclic((2, 3)).generator(2)
    with pytest.raises(InfiniteGroupError, match=r"^cannot enumerate infinite group Dinf$"):
        gr.Dihedral(0).elements()
    with pytest.raises(InfiniteGroupError, match=r"^no canonical index for F2$"):
        gr.Free(2).element_index(())
    with pytest.raises(GroupMismatchError, match=r"^cannot transfer: Z/3xZ/2 uses 2 generators, "
                       r"Z/5 has 1$"):
        rg.transfer(rg.one(gr.AbelianProduct((3, 2))), gr.AbelianProduct((5,)))


# ---------------------------------------------------------------------------
# independent oracles: faithful matrix representations


def _matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]


def _close(A, B, tol=1e-9):
    return all(abs(a - b) <= tol for ra, rb in zip(A, B) for a, b in zip(ra, rb))


# each rotation-reflection group with its (r, s) in x^r = e, y^2 = x^s, set
# here and not read from the library
ROTATION_REFLECTION = [(gr.Dihedral(m), m, 0) for m in range(13)] + [
    (gr.Dicyclic(m), 2 * m, m) for m in range(13)]


@pytest.mark.parametrize("g, r, s", ROTATION_REFLECTION, ids=[repr(c[0]) for c in ROTATION_REFLECTION])
def test_rotation_reflection_table_matches_faithful_matrices(g, r, s):
    import cmath

    if r:
        # X = diag(z, 1/z) with z of order r and Y = [[0, 1], [z^s, 0]]:
        # Y^2 = z^s I = X^s since z^2s = 1, and Y^-1 X Y = X^-1
        z = cmath.exp(2j * cmath.pi / r)
        Y = [[0, 1], [z ** s, 0]]
        els = gr.elements(g)

        def rep(a):
            return _matmul(Y if a[0] else [[1, 0], [0, 1]], [[z ** a[1], 0], [0, z ** -a[1]]])
    else:
        # D_inf acting on Z by x: t -> t + 1 and y: t -> -t, as integer
        # affine matrices; s = 0, so this covers Dicinf too
        els = [(e, k) for e in (0, 1) for k in range(-6, 7)]

        def rep(a):
            sign = -1 if a[0] else 1
            return [[sign, sign * a[1]], [0, 1]]

    identity = [[1, 0], [0, 1]]
    for a in els:
        assert _close(_matmul(rep(g.invert(a)), rep(a)), identity)
        for b in els:
            assert _close(rep(gr.multiply(g, a, b)), _matmul(rep(a), rep(b)))
            assert (a == b) == _close(rep(a), rep(b))  # faithful on els


def test_free_product_c2_c3_matches_psl2_matrices(rng):
    # x -> S, y -> ST inside the modular group; products agree up to sign
    g = gr.FreeProductCyclic((2, 3))
    S = [[0, -1], [1, 0]]
    ST = [[0, -1], [1, 1]]

    def rep(e):
        M = [[1, 0], [0, 1]]
        for fac, exp in e:
            base = S if fac == 0 else ST
            for _ in range(exp):
                M = _matmul(M, base)
        return M

    def same_mod_sign(A, B):
        flat_a = [x for r in A for x in r]
        flat_b = [x for r in B for x in r]
        return flat_a == flat_b or flat_a == [-x for x in flat_b]

    for _ in range(200):
        a = random_element(g, rng, max_len=5)
        b = random_element(g, rng, max_len=5)
        assert same_mod_sign(rep(gr.multiply(g, a, b)), _matmul(rep(a), rep(b)))
    # faithfulness spot check: distinct normal forms give distinct matrices
    seen = {}
    for a in [random_element(g, rng, max_len=4) for _ in range(100)]:
        M = rep(a)
        key_pos = tuple(tuple(r) for r in M)
        key_neg = tuple(tuple(-x for x in r) for r in M)
        stored = seen.get(key_pos) or seen.get(key_neg)
        if stored is None:
            seen[key_pos] = a
        else:
            assert stored == a
