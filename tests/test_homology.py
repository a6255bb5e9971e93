"""Homology engine tests.

Catalog profiles are frozen here as hand-stated expectations (these are the
standard groups of the named spaces).  One invariant-factor engine computes
homology over every ring; its field Betti numbers are checked against the
independent Gaussian rank ``rank_over_field`` of the boundary operators and
against universal coefficients applied to the integral answer, and its
sparse elimination, with and without clearing, against the dense Smith
reduction.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibrestab.complexes import (
    SimplicialComplex,
    SimplicialPair,
    UnknownVertex,
    barycentric_subdivision,
    boundary_columns,
    catalog,
    cone,
    link,
    product,
    puncture,
)
from fibrestab.exactalg import (
    AbelianGroup,
    IntegerMatrix,
    invariant_factors_sparse,
    rank_over_field,
    smith_normal_form,
)
from fibrestab.homology import (
    HomologyProfile,
    NotConnected,
    connected_components,
    homology,
    induced_map,
    is_connected,
    pi1_abelianized,
    reduced_profile,
    relative_boundary_columns,
    relative_homology,
)


def grp(*orders):
    return AbelianGroup.from_cyclic_orders(orders)


EXPECTED_Z = {
    "point": (grp(0),),
    "interval": (grp(0), grp()),
    "disk": (grp(0), grp(), grp()),
    "s1": (grp(0), grp(0)),
    "s2": (grp(0), grp(), grp(0)),
    "cylinder": (grp(0), grp(0), grp()),
    "mobius": (grp(0), grp(0), grp()),
    "torus": (grp(0), grp(0, 0), grp(0)),
    "klein": (grp(0), grp(0, 2), grp()),
    "rp2": (grp(0), grp(2), grp()),
    "t3": (grp(0), grp(0, 0, 0), grp(0, 0, 0), grp(0)),
}


def test_catalog_profiles_over_z():
    for name, want in EXPECTED_Z.items():
        prof = homology(catalog(name), "Z")
        assert prof.groups == want, f"{name}: {prof}"


def test_field_profiles():
    klein_q = homology(catalog("klein"), "Q")
    assert [g.free_rank for g in klein_q.groups] == [1, 1, 0]
    klein_2 = homology(catalog("klein"), "Z/2")
    assert [g.free_rank for g in klein_2.groups] == [1, 2, 1]
    rp2_2 = homology(catalog("rp2"), "Z/2")
    assert [g.free_rank for g in rp2_2.groups] == [1, 1, 1]
    rp2_3 = homology(catalog("rp2"), "Z/3")
    assert [g.free_rank for g in rp2_3.groups] == [1, 0, 0]


def torsion_count(g, p):
    return sum(1 for d in g.torsion if d % p == 0)


def betti(profile):
    return [g.free_rank for g in profile.groups]


def oracle_betti(boundaries, p):
    """Field Betti numbers from Gaussian ranks of the boundary operators."""
    ranks = [rank_over_field(IntegerMatrix.from_columns(*b), p) for b in boundaries]
    ranks.append(0)
    return [b[1] - ranks[k] - ranks[k + 1] for k, b in enumerate(boundaries)]


@pytest.fixture(scope="module")
def uct_cases():
    """(name, homology over a ring, boundary operators) per space.

    The products' del_2 (189 x 324) is the largest operator; the punctured
    pairs exercise relative homology.
    """
    spaces = [(name, catalog(name)) for name in EXPECTED_Z]
    spaces += [
        (f"{name} x s1", product(catalog(name), catalog("s1")))
        for name in ("klein", "rp2")
    ]
    cases = [
        (
            name,
            lambda ring, cx=cx: homology(cx, ring),
            [boundary_columns(cx, k) for k in range(cx.dimension + 1)],
        )
        for name, cx in spaces
    ]
    for name in ("klein", "rp2"):
        cx = catalog(name)
        pair = SimplicialPair(cx, puncture(cx, 0))
        cases.append(
            (
                f"({name}, {name} - star 0)",
                lambda ring, pair=pair: relative_homology(pair, ring),
                [relative_boundary_columns(pair, k) for k in range(cx.dimension + 1)],
            )
        )
    return cases


@pytest.mark.parametrize("p", [2, 3, 5])
def test_universal_coefficients_ties_the_two_engines(p, uct_cases):
    """dim H_k(X; Z/p) = rank H_k + p-torsion of H_k + p-torsion of H_{k-1},
    and the field Betti numbers equal those of the Gaussian-rank oracle."""
    for name, hom, boundaries in uct_cases:
        zprof = hom("Z")
        fprof = hom(f"Z/{p}")
        assert betti(fprof) == oracle_betti(boundaries, p), (name, p)
        for k in range(zprof.top_degree + 1):
            want = (
                zprof.group(k).free_rank
                + torsion_count(zprof.group(k), p)
                + torsion_count(zprof.group(k - 1), p)
            )
            assert fprof.group(k).free_rank == want, (name, k, p)
            assert not fprof.group(k).torsion
        if p == 2:
            qprof = hom("Q")
            assert betti(qprof) == betti(zprof) == oracle_betti(boundaries, 0), name


def test_degree_zero_rank_is_component_count():
    two_circles = SimplicialComplex(
        6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
    )
    assert connected_components(two_circles) == 2
    assert homology(two_circles, "Z").group(0) == grp(0, 0)
    assert not is_connected(two_circles)
    assert connected_components(SimplicialComplex(0, ())) == 0


def test_empty_complex_profile():
    prof = homology(SimplicialComplex(0, ()), "Z")
    assert prof.groups == ()


def test_reduced_profile_strips_one_z():
    red = reduced_profile(homology(catalog("s2"), "Z"))
    assert red.groups == (grp(), grp(), grp(0))


def test_profile_json_round_trip():
    prof = homology(catalog("klein"), "Z")
    again = HomologyProfile.from_json_dict(prof.to_json_dict())
    assert again == prof


# -- punctures and relative homology -----------------------------------------


def test_punctured_torus_is_wedge_of_two_circles():
    t = catalog("torus")
    prof = homology(puncture(t, 0), "Z")
    assert prof.groups == (grp(0), grp(0, 0), grp())


def test_punctured_sphere_is_contractible():
    prof = homology(puncture(catalog("s2"), 0), "Z")
    assert prof.groups == (grp(0), grp(), grp())


def test_punctured_t3_keeps_h1():
    prof = homology(puncture(catalog("t3"), 0), "Z")
    assert prof.group(1) == grp(0, 0, 0)
    assert prof.group(3) == grp()


def test_punctured_mobius_from_boundary_vertex():
    # every vertex of the 5-vertex Mobius band lies on its boundary, so the
    # puncture deformation-retracts to a circle
    prof = homology(puncture(catalog("mobius"), 0), "Z")
    assert prof.groups[:2] == (grp(0), grp(0))


def test_punctured_mobius_interior_vertex_gives_rank_two():
    # barycentres of triangles are interior points; removing one leaves a
    # wedge of two circles
    sd = barycentric_subdivision(catalog("mobius"))
    # vertices are indexed by (dim, lex) order: triangle barycentres last
    triangle_barycentre = sd.vertex_count - 1
    prof = homology(puncture(sd, triangle_barycentre), "Z")
    assert prof.group(1) == grp(0, 0)


def test_relative_homology_of_disk_mod_boundary():
    disk = catalog("disk")
    boundary = SimplicialComplex(3, ((0, 1), (1, 2), (0, 2)))
    prof = relative_homology(SimplicialPair(disk, boundary), "Z")
    assert prof.groups == (grp(), grp(), grp(0))


def test_relative_homology_with_empty_sub_is_absolute():
    t = catalog("torus")
    pair = SimplicialPair(t, SimplicialComplex(9, ()))
    assert relative_homology(pair, "Z").groups == homology(t, "Z").groups


def test_relative_homology_of_x_mod_x_vanishes():
    t = catalog("torus")
    prof = relative_homology(SimplicialPair(t, t), "Z")
    assert all(g.is_trivial for g in prof.groups)


def test_local_homology_of_torus_vertex():
    # H_*(T, T - star(v)) should look like H_*(R^2, R^2 - 0): Z in degree 2
    t = catalog("torus")
    pair = SimplicialPair(t, puncture(t, 0))
    prof = relative_homology(pair, "Z")
    assert prof.groups == (grp(), grp(), grp(0))


# -- pi1 and components --------------------------------------------------------


def test_pi1_abelianized():
    assert pi1_abelianized(catalog("s1")) == grp(0)
    assert pi1_abelianized(catalog("rp2")) == grp(2)
    assert pi1_abelianized(catalog("torus")) == grp(0, 0)
    assert pi1_abelianized(catalog("s2")).is_trivial


def test_pi1_requires_connected():
    two_points = SimplicialComplex(2, ((0,), (1,)))
    with pytest.raises(NotConnected):
        pi1_abelianized(two_points)


# -- invariance properties ------------------------------------------------------


def test_subdivision_preserves_homology_small():
    for name in ("s1", "disk", "mobius", "rp2", "torus"):
        cx = catalog(name)
        assert homology(barycentric_subdivision(cx), "Z").groups == homology(
            cx, "Z"
        ).groups


def test_cone_is_acyclic():
    for name in ("s1", "torus", "klein"):
        prof = reduced_profile(homology(cone(catalog(name)), "Z"))
        assert all(g.is_trivial for g in prof.groups)


def test_puncture_then_recone_restores_homology():
    for name in ("s2", "torus", "klein", "rp2"):
        cx = catalog(name)
        lk = link(cx, 0)
        rebuilt_facets = list(puncture(cx, 0).facets)
        apex = cx.vertex_count
        rebuilt_facets += [f + (apex,) for f in lk.facets]
        rebuilt = SimplicialComplex(apex + 1, tuple(rebuilt_facets))
        assert homology(rebuilt, "Z").groups == homology(cx, "Z").groups


def test_euler_characteristic_equals_alternating_betti():
    for name in EXPECTED_Z:
        cx = catalog(name)
        prof = homology(cx, "Q")
        chi = sum((-1) ** k * g.free_rank for k, g in enumerate(prof.groups))
        assert chi == cx.euler_characteristic()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=3),
        min_size=1,
        max_size=8,
    )
)
def test_random_complexes_satisfy_euler_and_uct(facets):
    cx = SimplicialComplex(7, tuple(tuple(f) for f in facets))
    boundaries = [boundary_columns(cx, k) for k in range(cx.dimension + 1)]
    zprof = homology(cx, "Z")
    qprof = homology(cx, "Q")
    assert zprof.group(0).free_rank == connected_components(cx)
    chi = sum((-1) ** k * b for k, b in enumerate(betti(qprof)))
    assert chi == cx.euler_characteristic()
    assert betti(qprof) == betti(zprof)
    for p in (2, 3):
        fprof = homology(cx, f"Z/{p}")
        assert betti(fprof) == oracle_betti(boundaries, p), p
        for k in range(zprof.top_degree + 1):
            assert fprof.group(k).free_rank == (
                zprof.group(k).free_rank
                + torsion_count(zprof.group(k), p)
                + torsion_count(zprof.group(k - 1), p)
            )


def test_sparse_engine_matches_dense_smith_across_shapes():
    """The engine returns the dense Smith factors on empty, small and
    large operators alike."""
    rng = random.Random(3)
    shapes = [(0, 5), (5, 0), (7, 11), (60, 60), (60, 61), (64, 69)]
    for rows, cols in shapes:
        data = {}
        for j in range(cols):
            picked = rng.sample(range(rows), min(rows, 3))
            col = {i: rng.choice((1, -1, 1, -1, 2, -3)) for i in picked}
            if col:
                data[j] = col
        want = smith_normal_form(IntegerMatrix.from_columns(rows, cols, data)).factors
        assert invariant_factors_sparse(rows, cols, data) == want, (rows, cols)


def dense_factors(boundary):
    return smith_normal_form(IntegerMatrix.from_columns(*boundary)).factors


def check_engine(boundaries, hom):
    """Differential check of one chain complex against the dense oracles.

    Every operator, top degree first, gives the dense Smith factors through
    the sparse engine both uncleared and with the unit-pivot rows of the
    operator above skipped as columns; ``hom(ring)`` (the production
    profile) has the Z torsion of the dense factors and the Q, Z/2 and Z/3
    Betti numbers of the Gaussian-rank oracle.
    """
    cleared = set()
    for k in range(len(boundaries) - 1, 0, -1):
        want = dense_factors(boundaries[k])
        assert invariant_factors_sparse(*boundaries[k]) == want, k
        pivots = set()
        assert invariant_factors_sparse(*boundaries[k], cleared, pivots) == want, k
        cleared = pivots
    zprof = hom("Z")
    for k in range(len(boundaries)):
        up = dense_factors(boundaries[k + 1]) if k + 1 < len(boundaries) else ()
        assert zprof.group(k).torsion == grp(*(d for d in up if d > 1)).torsion, k
    assert betti(zprof) == oracle_betti(boundaries, 0)
    for label, p in (("Q", 0), ("Z/2", 2), ("Z/3", 3)):
        assert betti(hom(label)) == oracle_betti(boundaries, p), label


@settings(max_examples=80, deadline=None)
@given(
    base=st.sampled_from([None, "rp2", "klein", "mobius"]),
    extra=st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=4), max_size=6),
    pick=st.integers(0, 20),
)
@example(base="rp2", extra=[], pick=0)
def test_sparse_engine_with_clearing_matches_dense_oracles(base, extra, pick):
    """Random complexes, some glued onto a space with torsion, and the
    pairs (X, X - star v)."""
    facets = list(catalog(base).facets) if base else []
    facets += [tuple(f) for f in extra]
    if not facets:
        return
    cx = SimplicialComplex(9, tuple(facets))
    dims = range(cx.dimension + 1)
    check_engine(
        [boundary_columns(cx, k) for k in dims], lambda ring: homology(cx, ring)
    )
    verts = cx.vertices()
    pair = SimplicialPair(cx, puncture(cx, verts[pick % len(verts)]))
    check_engine(
        [relative_boundary_columns(pair, k) for k in dims],
        lambda ring: relative_homology(pair, ring),
    )


@pytest.mark.parametrize(
    "cx, v, groups",
    [
        # the apex of the cone over a triangle boundary: the dimension drops
        (cone(catalog("s1")), 3, (grp(0), grp(0))),
        # two triangles joined by the path 2-6-3; vertex 6 lies in no triangle
        (
            SimplicialComplex(7, ((0, 1, 2), (3, 4, 5), (2, 6), (3, 6))),
            6,
            (grp(0, 0), grp(), grp()),
        ),
        # the only vertex: the puncture is empty
        (catalog("point"), 0, ()),
    ],
    ids=["cone-apex", "cut-vertex", "point"],
)
def test_profile_without_a_vertex_examples(cx, v, groups):
    """The homology of ``cx`` without vertex ``v``; the relative profile of
    (cx, cx - star v) keeps every degree of ``cx``, even an empty top one."""
    punctured = puncture(cx, v)
    assert homology(punctured).groups == groups
    pair = SimplicialPair(cx, punctured)
    assert len(relative_homology(pair).groups) == cx.dimension + 1
    # a vertex outside the complex is refused
    for missing in (cx.vertex_count, -1):
        with pytest.raises(UnknownVertex):
            puncture(cx, missing)


# -- induced maps ----------------------------------------------------------------


def test_fibre_circle_injects_into_torus():
    t = catalog("torus")  # product(s1, s1), index = 3*i + j
    fibre = SimplicialComplex(9, ((0, 1), (1, 2), (0, 2)))
    m = induced_map(SimplicialPair(t, fibre), 1, "Q")
    assert m.domain_dim == 1
    assert m.codomain_dim == 2
    assert m.rank() == 1


def test_boundary_circle_dies_in_disk():
    disk = catalog("disk")
    boundary = SimplicialComplex(3, ((0, 1), (1, 2), (0, 2)))
    m = induced_map(SimplicialPair(disk, boundary), 1, "Q")
    assert m.domain_dim == 1
    assert m.codomain_dim == 0
    assert m.rank() == 0


def test_induced_map_composes():
    # circle -> punctured torus -> torus
    t = catalog("torus")
    pt = puncture(t, 4)
    fibre = SimplicialComplex(9, ((0, 1), (1, 2), (0, 2)))
    f = induced_map(SimplicialPair(pt, fibre), 1, "Q")
    g = induced_map(SimplicialPair(t, pt), 1, "Q")
    gf = induced_map(SimplicialPair(t, fibre), 1, "Q")
    composed = [
        [
            sum(g.matrix[i][k] * f.matrix[k][j] for k in range(len(f.matrix)))
            for j in range(len(f.matrix[0]))
        ]
        for i in range(len(g.matrix))
    ]
    assert [list(r) for r in gf.matrix] == composed


def test_induced_map_deterministic():
    t = catalog("torus")
    pt = puncture(t, 4)
    m1 = induced_map(SimplicialPair(t, pt), 1, "Q")
    m2 = induced_map(SimplicialPair(t, pt), 1, "Q")
    assert m1 == m2


def test_product_homology_matches_formula_for_torus():
    # independent spot check of the staircase product: S1 x S1 has the
    # homology of the torus whichever way it is computed
    t = product(catalog("s1"), catalog("s1"))
    assert homology(t, "Z").groups == EXPECTED_Z["torus"]
