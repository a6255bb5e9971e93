"""Complex construction and boundary operator tests."""

import json
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibrestab.complexes import (
    DegreeOutOfRange,
    NotASubcomplex,
    SimplicialComplex,
    SimplicialPair,
    UnknownName,
    UnknownVertex,
    barycentric_subdivision,
    boundary_columns,
    boundary_matrix,
    catalog,
    catalog_entry,
    catalog_names,
    chain_complex,
    cone,
    link,
    product,
    puncture,
)
from fibrestab.exactalg import IntegerMatrix
from fibrestab.homology import relative_boundary_columns
from fibrestab.sequences import intersection_complex


# -- strategy for small random complexes ------------------------------------

facet_lists = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=4),
    min_size=1,
    max_size=10,
)


def complex_from(facets):
    return SimplicialComplex(8, tuple(tuple(f) for f in facets))


# -- normalization -----------------------------------------------------------


def test_facets_are_normalized():
    cx = SimplicialComplex(4, ((1, 0), (0, 1, 2), (2, 1, 0), (3,)))
    assert cx.facets == ((3,), (0, 1, 2))
    assert cx.dimension == 2
    assert cx.vertices() == [0, 1, 2, 3]


def test_out_of_range_vertex_rejected():
    with pytest.raises(ValueError):
        SimplicialComplex(2, ((0, 2),))


def test_empty_complex():
    cx = SimplicialComplex(0, ())
    assert cx.dimension == -1
    assert cx.simplices(0) == []


def _maximal_faces_oracle(facets):
    """The quadratic all-pairs filter the constructor used to run."""
    faces = sorted({tuple(sorted(set(f))) for f in facets})
    maximal = [
        f
        for f in faces
        if not any(set(f) < set(g) for g in faces if len(g) > len(f))
    ]
    maximal.sort(key=lambda f: (len(f), f))
    return tuple(maximal)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=7),
        min_size=1,
        max_size=25,
    )
)
def test_maximal_face_filter_matches_all_pairs_oracle(facets):
    cx = complex_from(facets)
    oracle = _maximal_faces_oracle(facets)
    assert cx.facets == oracle
    assert cx.dimension == max(len(f) - 1 for f in oracle)


# -- boundary matrices --------------------------------------------------------


def test_circle_boundary_has_zero_column_sums():
    d1 = boundary_matrix(catalog("s1"), 1)
    assert (d1.rows, d1.cols) == (3, 3)
    for j in range(3):
        assert sum(d1.at(i, j) for i in range(3)) == 0


def test_filled_triangle_boundary():
    d2 = boundary_matrix(catalog("disk"), 2)
    # rows are edges (01), (02), (12); del(012) = (12) - (02) + (01)
    assert d2 == IntegerMatrix.from_rows([[1], [-1], [1]])


def test_single_vertex_degree_zero():
    cx = SimplicialComplex(1, ((0,),))
    d0 = boundary_matrix(cx, 0)
    assert (d0.rows, d0.cols) == (0, 1)


def test_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        boundary_matrix(catalog("s1"), 2)
    with pytest.raises(DegreeOutOfRange):
        boundary_matrix(catalog("s1"), -1)


def test_boundary_squares_to_zero_on_catalog():
    for name in catalog_names():
        cx = catalog(name)
        for k in range(1, cx.dimension + 1):
            dk = boundary_matrix(cx, k)
            dkm1 = boundary_matrix(cx, k - 1)
            assert (dkm1 @ dk).is_zero(), f"del o del != 0 on {name} at k={k}"


@settings(max_examples=100, deadline=None)
@given(facet_lists)
def test_boundary_squares_to_zero_random(facets):
    cx = complex_from(facets)
    for k in range(1, cx.dimension + 1):
        assert (boundary_matrix(cx, k - 1) @ boundary_matrix(cx, k)).is_zero()


# -- chain complexes against the per-degree construction ----------------------
#
# The oracle is the construction ``chain_complex`` replaced: each degree
# enumerated from the facets on its own, relative chains filtered by a
# facet scan, and the intersection of two complexes filtered the same way.


def _oracle_simplices(cx, k):
    if k < 0:
        return []
    out = set()
    for f in cx.facets:
        if len(f) >= k + 1:
            out.update(combinations(f, k + 1))
    return sorted(out)


def _oracle_has_simplex(cx, simplex):
    s = set(simplex)
    return any(s <= set(f) for f in cx.facets)


def _oracle_boundary_columns(cx, k):
    top = _oracle_simplices(cx, k)
    if k == 0:
        return 0, len(top), {}
    low = _oracle_simplices(cx, k - 1)
    index = {s: i for i, s in enumerate(low)}
    cols = {}
    for j, s in enumerate(top):
        col = {}
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            col[index[face]] = 1 if i % 2 == 0 else -1
        cols[j] = col
    return len(low), len(top), cols


def _oracle_relative_cells(total, sub, k):
    return [s for s in _oracle_simplices(total, k) if not _oracle_has_simplex(sub, s)]


def _oracle_relative_boundary_columns(total, sub, k):
    top = _oracle_relative_cells(total, sub, k)
    if k == 0:
        return 0, len(top), {}
    low = _oracle_relative_cells(total, sub, k - 1)
    index = {s: i for i, s in enumerate(low)}
    cols = {}
    for j, s in enumerate(top):
        col = {}
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            if face in index:
                col[index[face]] = 1 if i % 2 == 0 else -1
        if col:
            cols[j] = col
    return len(low), len(top), cols


def _oracle_intersection(a, b):
    every = [s for k in range(a.dimension + 1) for s in _oracle_simplices(a, k)]
    common = [s for s in every if _oracle_has_simplex(b, s)]
    return SimplicialComplex(max(a.vertex_count, b.vertex_count), tuple(common))


def _exact(boundary):
    """A boundary operator with its column and entry order made visible."""
    rows, cols, data = boundary
    return rows, cols, [(j, list(col.items())) for j, col in data.items()]


small_facets = st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=5), max_size=10)


@settings(max_examples=150, deadline=None)
@given(facets=small_facets, other=small_facets, pick=st.integers(0, 63))
@example(facets=[], other=[], pick=0)
@example(facets=[[0, 1, 2], [2, 3]], other=[[1, 2, 3]], pick=1)
def test_chain_complex_matches_the_per_degree_oracle(facets, other, pick):
    """Simplices, indices and every boundary operator of complexes and of
    the pairs (X, X - star v), (X, X) and (X, one facet), entry order
    included, plus the simplex lists, the intersection and the
    subcomplex test."""
    cx = complex_from(facets)
    dim = cx.dimension
    subs = [None, cx]
    if cx.facets:
        verts = cx.vertices()
        subs.append(puncture(cx, verts[pick % len(verts)]))
        subs.append(SimplicialComplex(8, (cx.facets[pick % len(cx.facets)],)))
    for k in range(-1, dim + 2):
        assert cx.simplices(k) == _oracle_simplices(cx, k), k
    assert cx.all_simplices() == [
        s for k in range(dim + 1) for s in _oracle_simplices(cx, k)
    ]
    for sub in subs:
        chains = chain_complex(cx, sub)
        assert len(chains.boundaries) == dim + 1
        for k in range(-1, dim + 2):
            if sub is None:
                cells = _oracle_simplices(cx, k)
                if 0 <= k <= dim:
                    want = _oracle_boundary_columns(cx, k)
                    assert _exact(boundary_columns(cx, k)) == _exact(want), k
                else:
                    want = (len(_oracle_simplices(cx, k - 1)), 0, {})
                    with pytest.raises(DegreeOutOfRange):
                        boundary_columns(cx, k)
            else:
                cells = _oracle_relative_cells(cx, sub, k)
                want = _oracle_relative_boundary_columns(cx, sub, k)
                pair = SimplicialPair(cx, sub)
                assert _exact(relative_boundary_columns(pair, k)) == _exact(want), k
            assert chains.cells(k) == cells, (k, sub)
            assert chains.index(k) == {s: i for i, s in enumerate(cells)}, (k, sub)
            assert _exact(chains.boundary(k)) == _exact(want), (k, sub)
    for b in subs[1:] + [complex_from(other)]:
        assert intersection_complex(cx, b) == _oracle_intersection(cx, b)
        assert intersection_complex(b, cx) == _oracle_intersection(b, cx)
        for small, big in ((b, cx), (cx, b)):
            want = all(_oracle_has_simplex(big, f) for f in small.facets)
            assert small.is_subcomplex_of(big) == want


# -- product ------------------------------------------------------------------


def test_product_of_circles_is_grid_torus():
    t = product(catalog("s1"), catalog("s1"))
    assert t.vertex_count == 9
    assert len(t.facets) == 18
    assert all(len(f) == 3 for f in t.facets)
    assert t.euler_characteristic() == 0


def test_product_with_point_is_identity():
    pt = catalog("point")
    for name in ("s1", "s2", "mobius"):
        y = catalog(name)
        assert product(pt, y).facets == y.facets


def test_square_splits_into_two_triangles():
    sq = product(catalog("interval"), catalog("interval"))
    assert sq.vertex_count == 4
    assert len(sq.facets) == 2
    # the two staircase triangles share the main diagonal
    shared = set(sq.facets[0]) & set(sq.facets[1])
    assert len(shared) == 2


def test_product_simplex_counts_match_binomials():
    # p-simplex x q-simplex gives binomial(p+q, p) top cells
    tri = catalog("disk")
    edge = catalog("interval")
    prism = product(tri, edge)
    assert len(prism.facets) == 3  # C(3,1)


# -- puncture, link, cone, subdivision ----------------------------------------


def test_puncture_keeps_ambient_labels():
    t = catalog("torus")
    p = puncture(t, 4)
    assert p.vertex_count == t.vertex_count
    assert 4 not in p.vertices()
    assert p.is_subcomplex_of(t)
    SimplicialPair(t, p)  # must not raise


def test_puncture_unknown_vertex():
    with pytest.raises(UnknownVertex):
        puncture(catalog("s1"), 17)


def test_link_of_torus_vertex_is_hexagon():
    # the staircase torus is not vertex-transitive; vertex 4 is one of the
    # degree-6 vertices, and every link is a single cycle
    t = catalog("torus")
    lk = link(t, 4)
    assert len(lk.vertices()) == 6
    assert len(lk.simplices(1)) == 6
    assert lk.dimension == 1
    for v in t.vertices():
        lkv = link(t, v)
        assert len(lkv.simplices(1)) == len(lkv.vertices())


def test_link_in_circle_is_two_points():
    lk = link(catalog("s1"), 0)
    assert lk.dimension == 0
    assert len(lk.vertices()) == 2


def test_cone_adds_apex():
    c = cone(catalog("s1"))
    assert c.vertex_count == 4
    assert all(3 in f for f in c.facets)
    assert cone(SimplicialComplex(0, ())).facets == ((0,),)


def test_subdivision_of_circle_is_hexagon():
    sd = barycentric_subdivision(catalog("s1"))
    assert sd.vertex_count == 6
    assert len(sd.simplices(1)) == 6
    assert sd.dimension == 1


def test_subdivision_facet_count():
    sd = barycentric_subdivision(catalog("disk"))
    assert len(sd.facets) == 6  # 3! chains in a triangle
    sd2 = barycentric_subdivision(catalog("s2"))
    assert len(sd2.facets) == 4 * 6


# -- catalog ------------------------------------------------------------------


def test_catalog_names_and_unknown():
    names = catalog_names()
    for expected in (
        "point",
        "interval",
        "disk",
        "s1",
        "s2",
        "cylinder",
        "mobius",
        "torus",
        "klein",
        "rp2",
        "t3",
    ):
        assert expected in names
    with pytest.raises(UnknownName):
        catalog("dodecahedron")


def test_catalog_metadata():
    assert catalog_entry("torus").closed is True
    assert catalog_entry("torus").orientable is True
    assert catalog_entry("klein").orientable is False
    assert catalog_entry("mobius").closed is False
    assert catalog_entry("t3").dimension == 3


def test_catalog_euler_characteristics():
    assert catalog("s2").euler_characteristic() == 2
    assert catalog("torus").euler_characteristic() == 0
    assert catalog("klein").euler_characteristic() == 0
    assert catalog("rp2").euler_characteristic() == 1
    assert catalog("t3").euler_characteristic() == 0


def test_t3_is_product_of_torus_and_circle():
    t3 = catalog("t3")
    rebuilt = product(catalog("torus"), catalog("s1"))
    assert t3.facets == rebuilt.facets


# -- serialization -------------------------------------------------------------


def test_json_round_trip():
    cx = catalog("mobius")
    blob = json.dumps(cx.to_json_dict("mobius"))
    back = SimplicialComplex.from_json_dict(json.loads(blob))
    assert back == cx


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        SimplicialComplex.from_json_dict({"vertex_count": 3})
    with pytest.raises(ValueError):
        SimplicialComplex.from_json_dict({"vertex_count": 3, "facets": [["a"]]})


def test_pair_requires_subcomplex():
    with pytest.raises(NotASubcomplex):
        SimplicialPair(catalog("s1"), catalog("disk"))
