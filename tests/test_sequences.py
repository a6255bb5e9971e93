"""Exact-sequence checks: generic checker, Mayer-Vietoris, pair LES, Kunneth."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrestab.complexes import (
    DegreeOutOfRange,
    SimplicialComplex,
    SimplicialPair,
    catalog_entry,
    product,
    puncture,
)
from fibrestab.exactalg import AbelianGroup
from fibrestab.homology import homology
from fibrestab.sequences import (
    DimensionMismatch,
    NotACover,
    SequenceNode,
    check_exactness,
    intersection_complex,
    kunneth_check,
    kunneth_formula,
    matrix_rank,
    mayer_vietoris,
    pair_les_check,
)


def grp(*ranks_and_torsion):
    free = sum(1 for x in ranks_and_torsion if x == 0)
    torsion = tuple(x for x in ranks_and_torsion if x > 1)
    return AbelianGroup(free_rank=free, torsion=torsion)


def cx(name):
    return catalog_entry(name).complex


# ---------------------------------------------------------------------------
# generic checker
# ---------------------------------------------------------------------------


def zero_map(rows, cols):
    return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))


def test_short_exact_sequence_passes():
    # 0 -> Q --(1,0)--> Q^2 --(0,1)--> Q -> 0
    nodes = [
        SequenceNode("0", 0, zero_map(1, 0)),
        SequenceNode("A", 1, ((1,), (0,))),
        SequenceNode("B", 2, ((0, 1),)),
        SequenceNode("C", 1, zero_map(0, 1)),
        SequenceNode("0", 0, None),
    ]
    report = check_exactness(nodes, "Q")
    assert report.verdict
    assert report.exact_at == (True, True, True)
    assert report.rank_data == ((0, 0), (1, 1), (1, 1))


def test_zero_middle_map_is_not_exact():
    nodes = [
        SequenceNode("0", 0, zero_map(1, 0)),
        SequenceNode("A", 1, ((0,),)),
        SequenceNode("B", 1, zero_map(0, 1)),
        SequenceNode("0", 0, None),
    ]
    report = check_exactness(nodes, "Q")
    assert not report.verdict
    assert report.exact_at == (False, False)
    assert report.iso_segments == ((1, False),)


def test_iso_segment_is_flagged():
    nodes = [
        SequenceNode("0", 0, zero_map(2, 0)),
        SequenceNode("A", 2, ((2, 0), (1, 1))),
        SequenceNode("B", 2, zero_map(0, 2)),
        SequenceNode("0", 0, None),
    ]
    report = check_exactness(nodes, "Q")
    assert report.verdict
    assert report.iso_segments == ((1, True),)


def test_nonvanishing_composite_fails_even_with_matching_ranks():
    # im and ker have equal dimensions but im is not inside ker
    nodes = [
        SequenceNode("A", 1, ((1,), (0,))),
        SequenceNode("B", 2, ((1, 0),)),
        SequenceNode("C", 1, None),
    ]
    report = check_exactness(nodes, "Q")
    assert report.exact_at == (False,)


def test_mod_p_exactness_differs_from_rational():
    # Q --2--> Q --0--> Q is exact at the middle over Q (im = ker = all of Q
    # fails... the point: multiplication by 2 is onto over Q, zero over Z/2).
    nodes = [
        SequenceNode("A", 1, ((2,),)),
        SequenceNode("B", 1, zero_map(1, 1)),
        SequenceNode("C", 1, None),
    ]
    assert check_exactness(nodes, "Q").exact_at == (True,)
    assert check_exactness(nodes, "Z/2").exact_at == (False,)
    assert check_exactness(nodes, "Z/3").exact_at == (True,)


def test_shape_mismatch_is_rejected():
    nodes = [
        SequenceNode("A", 2, ((1,),)),  # one column against dimension 2
        SequenceNode("B", 1, None),
    ]
    with pytest.raises(DimensionMismatch):
        check_exactness(nodes, "Q")
    nodes = [
        SequenceNode("A", 1, ((1,), (0,))),  # two rows against dimension 1
        SequenceNode("B", 1, None),
    ]
    with pytest.raises(DimensionMismatch):
        check_exactness(nodes, "Q")


def test_matrix_rank_clears_fractions():
    m = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(2, 1)))
    assert matrix_rank(m, 0) == 2
    assert matrix_rank(((Fraction(1, 2), 1), (1, 2)), 0) == 1
    assert matrix_rank(((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), 1)), 0) == 1


# ---------------------------------------------------------------------------
# Mayer-Vietoris fixtures
# ---------------------------------------------------------------------------


def torus_cylinder_cover():
    """Torus split into a long cylinder (base arc 0-1-2) and a short one."""
    torus = cx("torus")
    long_part, short_part = [], []
    for f in torus.facets:
        base = {v // 3 for v in f}
        if base <= {0, 1} or base <= {1, 2}:
            long_part.append(f)
        if base <= {0, 2}:
            short_part.append(f)
    a = SimplicialComplex(9, tuple(long_part))
    b = SimplicialComplex(9, tuple(short_part))
    return torus, a, b


def sphere_disk_cover():
    """Tetrahedron boundary split into the star of 0 and the opposite face."""
    s2 = cx("s2")
    a = SimplicialComplex(4, tuple(f for f in s2.facets if 0 in f))
    b = SimplicialComplex(4, ((1, 2, 3),))
    return s2, a, b


def test_torus_cover_geometry():
    torus, a, b = torus_cylinder_cover()
    assert len(a.facets) == 12 and len(b.facets) == 6
    inter = intersection_complex(a, b)
    # two disjoint fibre circles, over base vertices 0 and 2
    assert len(inter.simplices(1)) == 6
    assert len(inter.simplices(0)) == 6
    assert homology(inter, "Q").betti(0) == 2
    assert homology(inter, "Q").betti(1) == 2
    assert homology(a, "Q").betti(1) == 1  # each piece is a cylinder
    assert homology(b, "Q").betti(1) == 1


def test_mayer_vietoris_torus_is_exact():
    torus, a, b = torus_cylinder_cover()
    report = mayer_vietoris(torus, a, b, ring="Q")
    assert report.verdict
    assert report.dimension_of("H1(X)") == 2
    assert report.dimension_of("H1(A^B)") == 2
    assert report.dimension_of("H2(X)") == 1


def test_mayer_vietoris_sphere_connecting_map_is_iso():
    s2, a, b = sphere_disk_cover()
    report = mayer_vietoris(s2, a, b, ring="Q")
    assert report.verdict
    # both cover pieces are disks, so H2(S^2) -> H1(circle) must be an iso
    idx = report.labels.index("H2(X)")
    assert (idx, True) in report.iso_segments
    assert report.dimension_of("H2(X)") == 1
    assert report.dimension_of("H1(A^B)") == 1
    assert report.dimension_of("H1(A)+H1(B)") == 0


def test_mayer_vietoris_over_z2_torus():
    torus, a, b = torus_cylinder_cover()
    assert mayer_vietoris(torus, a, b, ring="Z/2").verdict


def test_mayer_vietoris_rejects_non_cover():
    torus, a, b = torus_cylinder_cover()
    missing = SimplicialComplex(9, b.facets[:-1])
    with pytest.raises(NotACover):
        mayer_vietoris(torus, a, missing)


def test_mayer_vietoris_rejects_non_subcomplex():
    torus, a, _ = torus_cylinder_cover()
    foreign = SimplicialComplex(10, ((0, 9),))
    with pytest.raises(NotACover):
        mayer_vietoris(torus, a, foreign)


def test_mayer_vietoris_requires_field():
    torus, a, b = torus_cylinder_cover()
    with pytest.raises(ValueError):
        mayer_vietoris(torus, a, b, ring="Z")


def test_mayer_vietoris_is_deterministic():
    torus, a, b = torus_cylinder_cover()
    assert mayer_vietoris(torus, a, b) == mayer_vietoris(torus, a, b)


def star_cover(complex_, seeds):
    """Cover by facets meeting ``seeds`` and facets with a vertex outside."""
    meet, out = [], []
    for f in complex_.facets:
        if any(v in seeds for v in f):
            meet.append(f)
        if any(v not in seeds for v in f):
            out.append(f)
    n = complex_.vertex_count
    return SimplicialComplex(n, tuple(meet)), SimplicialComplex(n, tuple(out))


@pytest.mark.parametrize(
    "name,seeds",
    [
        ("s2", (0,)),
        ("s2", (0, 1)),
        ("torus", (0,)),
        ("torus", (0, 4, 8)),
        ("klein", (0,)),
        ("rp2", (0, 3)),
        ("cylinder", (0,)),
        ("mobius", (2,)),
    ],
)
def test_mayer_vietoris_star_covers(name, seeds):
    x = cx(name)
    a, b = star_cover(x, seeds)
    assert mayer_vietoris(x, a, b, ring="Q").verdict
    assert mayer_vietoris(x, a, b, ring="Z/2").verdict


@settings(max_examples=20, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=8), min_size=1, max_size=4))
def test_mayer_vietoris_random_star_covers_on_torus(seeds):
    x = cx("torus")
    a, b = star_cover(x, seeds)
    assert mayer_vietoris(x, a, b, ring="Q").verdict


# ---------------------------------------------------------------------------
# long exact sequence of a pair
# ---------------------------------------------------------------------------


def test_pair_sequence_disk_modulo_boundary():
    disk = cx("disk")
    rim = SimplicialComplex(3, ((0, 1), (0, 2), (1, 2)))
    report = pair_les_check(SimplicialPair(disk, rim), ring="Q")
    assert report.verdict
    assert report.dimension_of("H2(X,A)") == 1
    assert report.dimension_of("H1(X)") == 0
    # 0 -> H2(X,A) -> H1(A) -> 0 forces the connecting map to be an iso
    idx = report.labels.index("H2(X,A)")
    assert (idx, True) in report.iso_segments


def test_pair_sequence_mobius_modulo_boundary_two_fields():
    mob = cx("mobius")
    rim_edges = []
    for e in mob.simplices(1):
        count = sum(1 for f in mob.facets if set(e) <= set(f))
        if count == 1:
            rim_edges.append(e)
    rim = SimplicialComplex(5, tuple(rim_edges))
    assert homology(rim, "Q").betti(1) == 1  # the rim is one circle
    pair = SimplicialPair(mob, rim)
    over_q = pair_les_check(pair, ring="Q")
    over_2 = pair_les_check(pair, ring="Z/2")
    assert over_q.verdict and over_2.verdict
    # rim wraps the core circle twice: invertible over Q, zero mod 2
    assert over_q.dimension_of("H2(X,A)") == 0
    assert over_2.dimension_of("H2(X,A)") == 1


def test_pair_sequence_three_torus_puncture():
    t3 = cx("t3")
    pair = SimplicialPair(t3, puncture(t3, 0))
    report = pair_les_check(pair, ring="Q")
    assert report.verdict
    # removing an open star of a point only changes homology at the top
    assert report.dimension_of("H3(X,A)") == 1
    assert report.dimension_of("H3(X)") == 1
    assert report.dimension_of("H2(X,A)") == 0
    assert report.dimension_of("H1(A)") == 3


def test_pair_sequence_degree_window():
    disk = cx("disk")
    rim = SimplicialComplex(3, ((0, 1), (0, 2), (1, 2)))
    report = pair_les_check(SimplicialPair(disk, rim), ring="Q", degrees=(1, 2))
    assert report.verdict
    assert report.labels[0] == "H3(X,A)"
    assert report.labels[-1] == "H1(X,A)"


def test_degree_windows_reach_down_to_degree_minus_one():
    """Degree -1 is the zero group below C_0: a window down to it gets a
    report, one below it is rejected, for both sequences."""
    disk = cx("disk")
    rim = SimplicialComplex(3, ((0, 1), (0, 2), (1, 2)))
    pair = SimplicialPair(disk, rim)
    report = pair_les_check(pair, ring="Q", degrees=(-1, 1))
    assert report.verdict
    assert report.labels[-3:] == ("H-1(A)", "H-1(X)", "H-1(X,A)")
    assert report.dimensions[-3:] == (0, 0, 0)
    s2, a, b = sphere_disk_cover()
    assert mayer_vietoris(s2, a, b, degrees=(-1, 1)).verdict
    with pytest.raises(DegreeOutOfRange):
        pair_les_check(pair, ring="Q", degrees=(-2, 1))
    with pytest.raises(DegreeOutOfRange):
        mayer_vietoris(s2, a, b, degrees=(-2, 1))


def test_pair_sequence_requires_field():
    disk = cx("disk")
    rim = SimplicialComplex(3, ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(ValueError):
        pair_les_check(SimplicialPair(disk, rim), ring="Z")


# ---------------------------------------------------------------------------
# Kunneth
# ---------------------------------------------------------------------------


def test_kunneth_circle_times_circle():
    report = kunneth_check(cx("s1"), cx("s1"), ring="Z")
    assert report.consistent
    assert report.degrees[1].product_group == grp(0, 0)
    assert report.degrees[1].tor_part.is_trivial


def test_kunneth_sphere_times_circle():
    report = kunneth_check(cx("s2"), cx("s1"), ring="Z")
    assert report.consistent
    assert [d.product_group for d in report.degrees] == [
        grp(0),
        grp(0),
        grp(0),
        grp(0),
    ]


def test_kunneth_klein_times_circle_has_torsion():
    report = kunneth_check(cx("klein"), cx("s1"), ring="Z")
    assert report.consistent
    assert report.degrees[1].product_group == grp(0, 0, 2)
    assert report.degrees[2].product_group == grp(0, 2)
    assert report.degrees[3].product_group == grp()  # nonorientable: top is 0
    assert all(d.tor_part.is_trivial for d in report.degrees)


def test_kunneth_projective_plane_squared_tor_term():
    report = kunneth_check(cx("rp2"), cx("rp2"), ring="Z")
    assert report.consistent
    by_k = {d.degree: d for d in report.degrees}
    assert by_k[1].product_group == grp(2, 2)
    assert by_k[2].product_group == grp(2)
    # degree 3 is pure Tor: Tor(Z/2, Z/2) = Z/2
    assert by_k[3].tensor_part.is_trivial
    assert by_k[3].tor_part == grp(2)
    assert by_k[3].product_group == grp(2)
    assert by_k[4].product_group == grp()


def test_kunneth_with_point_factor_reproduces_profile():
    for name in ("torus", "rp2"):
        x = cx(name)
        report = kunneth_check(cx("point"), x, ring="Z")
        assert report.consistent
        prof = homology(x, "Z")
        for d in report.degrees:
            assert d.product_group == prof.group(d.degree)


def test_kunneth_over_fields_is_dimension_count():
    assert kunneth_check(cx("klein"), cx("s1"), ring="Z/2").consistent
    assert kunneth_check(cx("klein"), cx("s1"), ring="Q").consistent
    report = kunneth_check(cx("klein"), cx("s1"), ring="Z/2")
    dims = [d.product_group.free_rank for d in report.degrees]
    assert dims == [1, 3, 3, 1]


def test_kunneth_formula_values_directly():
    pk = homology(cx("klein"), "Z")
    ps = homology(cx("s1"), "Z")
    tensor, tor = kunneth_formula(pk, ps, 2)
    assert tensor == grp(0, 2)
    assert tor.is_trivial
    pr = homology(cx("rp2"), "Z")
    tensor, tor = kunneth_formula(pr, pr, 3)
    assert tensor.is_trivial
    assert tor == grp(2)


def test_kunneth_degree_window():
    report = kunneth_check(cx("s1"), cx("s1"), ring="Z", degrees=(1, 2))
    assert [d.degree for d in report.degrees] == [1, 2]
    assert report.consistent


def test_kunneth_report_round_trips_to_json():
    report = kunneth_check(cx("s1"), cx("s1"), ring="Z")
    blob = report.to_json_dict()
    assert blob["consistent"] is True
    assert blob["degrees"][1]["product_group"] == {"rank": 2, "torsion": []}
