"""Tests for the exact linear algebra layer.

The expected values here were frozen from independent oracles implemented
at the bottom of this file: determinantal divisors (gcds of k x k minors)
for Smith invariant factors, and brute-force kernel enumeration for Tor.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrestab.exactalg import (
    AbelianGroup,
    CompositeModulus,
    IntegerMatrix,
    determinant,
    invariant_factors_sparse,
    kernel_of_columns,
    rank_over_field,
    rref_rows,
    smith_normal_form,
    tensor_product,
    tor_product,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def minor_gcd_factors(mat):
    """Invariant factors via determinantal divisors: d_k = gcd(k-minors).

    Completely independent of the elimination code: enumerates every k x k
    minor by brute force.  Only usable on small matrices.
    """
    rows = mat.to_rows()
    m, n = mat.rows, mat.cols
    divisors = [1]
    k = 1
    while k <= min(m, n):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = IntegerMatrix.from_rows(
                    [[rows[i][j] for j in ci] for i in ri]
                )
                g = gcd(g, determinant(sub))
        if g == 0:
            break
        divisors.append(g)
        k += 1
    return tuple(divisors[i] // divisors[i - 1] for i in range(1, len(divisors)))


def brute_rank_over_q(mat):
    """Row reduction with Fractions, written independently of the library."""
    rows = [[Fraction(x) for x in r] for r in mat.to_rows()]
    rank = 0
    col = 0
    while rank < len(rows) and col < mat.cols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def tor_cyclic_bruteforce(a, b):
    """Tor(Z/a, Z/b) = ker(Z/b --*a--> Z/b), found by enumerating elements.

    The kernel of multiplication by ``a`` on Z/b is a subgroup of a cyclic
    group, hence cyclic; its order is the number of solutions of a*x = 0.
    """
    solutions = [x for x in range(b) if (a * x) % b == 0]
    return AbelianGroup.from_cyclic_orders([len(solutions)])


def random_matrix(rng, max_dim=12, lo=-9, hi=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntegerMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    )


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_diag_2_3_gives_1_6():
    a = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    dec = smith_normal_form(a)
    assert dec.factors == (1, 6)
    assert minor_gcd_factors(a) == (1, 6)


def test_snf_zero_matrix():
    dec = smith_normal_form(IntegerMatrix.zeros(3, 4))
    assert dec.factors == ()
    assert dec.rank == 0


def test_snf_reconstruction_and_witnesses():
    a = IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    dec = smith_normal_form(a)
    lhs = dec.transform_left @ a @ dec.transform_right
    assert lhs == dec.diagonal(a.rows, a.cols)
    assert abs(determinant(dec.transform_left)) == 1
    assert abs(determinant(dec.transform_right)) == 1
    assert dec.factors == minor_gcd_factors(a)


def test_snf_is_deterministic():
    rng = random.Random(7)
    for _ in range(25):
        a = random_matrix(rng, max_dim=6)
        d1 = smith_normal_form(a)
        d2 = smith_normal_form(a)
        assert d1 == d2


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_matches_minor_gcd_oracle(rows):
    a = IntegerMatrix.from_rows(rows)
    dec = smith_normal_form(a)
    assert dec.factors == minor_gcd_factors(a)
    # divisibility chain
    for x, y in zip(dec.factors, dec.factors[1:]):
        assert y % x == 0
    # reconstruction
    assert dec.transform_left @ a @ dec.transform_right == dec.diagonal(
        a.rows, a.cols
    )


def test_sparse_engine_agrees_with_dense():
    rng = random.Random(21)
    for _ in range(40):
        m, n = rng.randint(1, 14), rng.randint(1, 14)
        dense = [[0] * n for _ in range(m)]
        for i in range(m):
            for j in range(n):
                if rng.random() < 0.25:
                    dense[i][j] = rng.choice([-2, -1, 1, 1, -1, 3])
        columns = {j: {i: r[j] for i, r in enumerate(dense) if r[j]} for j in range(n)}
        expect = smith_normal_form(IntegerMatrix.from_rows(dense)).factors
        got = invariant_factors_sparse(m, n, columns)
        assert got == expect


# ---------------------------------------------------------------------------
# field ranks and kernels
# ---------------------------------------------------------------------------


def test_rank_examples():
    a = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    assert rank_over_field(a, 0) == 2
    assert rank_over_field(a, 2) == 1  # the 2 dies mod 2
    assert rank_over_field(a, 3) == 1
    assert rank_over_field(a, 5) == 2


def test_rank_rejects_composite_modulus():
    a = IntegerMatrix.identity(2)
    with pytest.raises(CompositeModulus):
        rank_over_field(a, 4)
    with pytest.raises(CompositeModulus):
        rank_over_field(a, 1)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    st.sampled_from([0, 2, 3, 5, 7]),
)
def test_rank_against_snf_factors(rows, p):
    a = IntegerMatrix.from_rows(rows)
    factors = smith_normal_form(a).factors
    r = rank_over_field(a, p)
    if p == 0:
        assert r == len(factors)
        assert r == brute_rank_over_q(a)
    else:
        assert r == sum(1 for d in factors if d % p != 0)


def columns_of(a):
    """Column map {j: {i: v}} of a dense matrix."""
    cols = {j: {i: a.at(i, j) for i in range(a.rows) if a.at(i, j)} for j in range(a.cols)}
    return {j: col for j, col in cols.items() if col}


def test_kernel_basis_over_q():
    # x + y + z = 0 has a 2-dimensional kernel
    a = IntegerMatrix.from_rows([[1, 1, 1]])
    basis = kernel_of_columns(columns_of(a), a.cols, 0)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec.get(j, 0) for j in range(3)) == 0


def test_kernel_dimension_rank_nullity():
    rng = random.Random(11)
    for p in (0, 2, 5):
        for _ in range(15):
            a = random_matrix(rng, max_dim=7, lo=-4, hi=4)
            basis = kernel_of_columns(columns_of(a), a.cols, p)
            assert len(basis) == a.cols - rank_over_field(a, p)
            rows = a.to_rows()
            for vec in basis:
                for i in range(a.rows):
                    s = sum(rows[i][j] * v for j, v in vec.items())
                    assert s % p == 0 if p else s == 0


def test_rref_is_canonical():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2, 2: 2}]
    pivots = rref_rows(rows, 0)
    # primitive rows, positive pivots, pivot columns cleared elsewhere
    assert [(c, r) for c, r in pivots] == [(0, {0: 1, 1: 2}), (2, {2: 1})]


# ---------------------------------------------------------------------------
# abelian groups, tensor, Tor
# ---------------------------------------------------------------------------


def test_group_canonical_form():
    g = AbelianGroup.from_cyclic_orders([2, 4, 3, 0])
    assert g == AbelianGroup(1, (2, 12))
    assert str(g) == "Z + Z/2 + Z/12"
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))  # 4 does not divide 6


def test_tor_of_free_group_is_trivial():
    z = AbelianGroup(1)
    assert tor_product(z, AbelianGroup(0, (5,))).is_trivial
    assert tor_product(AbelianGroup(0, (5,)), z).is_trivial


def test_tor_examples_frozen_from_enumeration_oracle():
    assert tor_cyclic_bruteforce(2, 2) == AbelianGroup(0, (2,))
    assert tor_cyclic_bruteforce(4, 6) == AbelianGroup(0, (2,))
    assert tor_product(AbelianGroup(0, (2,)), AbelianGroup(0, (2,))) == AbelianGroup(
        0, (2,)
    )
    assert tor_product(AbelianGroup(0, (4,)), AbelianGroup(0, (6,))) == AbelianGroup(
        0, (2,)
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 24), st.integers(2, 24))
def test_tor_matches_kernel_enumeration(a, b):
    got = tor_product(AbelianGroup(0, (a,)), AbelianGroup(0, (b,)))
    assert got == tor_cyclic_bruteforce(a, b)
    # symmetry
    assert got == tor_product(AbelianGroup(0, (b,)), AbelianGroup(0, (a,)))


def test_tensor_product():
    a = AbelianGroup(1, (2,))
    b = AbelianGroup(1, (3,))
    t = tensor_product(a, b)
    # (Z + Z/2) x (Z + Z/3) = Z + Z/3 + Z/2 + Z/gcd(2,3)
    assert t == AbelianGroup.from_cyclic_orders([0, 3, 2, 1])


def test_direct_sum_orders_do_not_matter():
    a = AbelianGroup(0, (2,))
    b = AbelianGroup(1, (6,))
    assert a.direct_sum(b) == b.direct_sum(a) == AbelianGroup(1, (2, 6))
