"""Obstruction verdicts: recognizers, puncture rules, routes, dispatch."""

import json
from importlib import resources
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrestab import obstruction
from fibrestab.complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    catalog_entry,
    catalog_names,
    product,
    puncture,
)
from fibrestab.exactalg import AbelianGroup
from fibrestab.homology import HomologyProfile, NotConnected, homology
from fibrestab.obstruction import (
    _PRODUCT_FACET_BUDGET,
    NOT_OBSTRUCTED,
    OBSTRUCTED,
    NotABundle,
    NotAManifold,
    NotAManifoldDim,
    NotClosed,
    StabilizationQuery,
    _encode_group,
    _interior_profile,
    _manifold_defect,
    _puncture_census,
    _witness,
    boundary_vertices,
    evaluate,
    is_closed_pseudomanifold,
    is_integral_homology_sphere,
    is_orientable_closed,
    non_contractibility_certificate,
    product_facet_count,
    punctured_profile_from_closed,
    require_homology_manifold,
    trivial_bundle_one_point_obstruction,
)
from fibrestab.sequences import kunneth_formula


def grp(*ranks_and_torsion):
    free = sum(1 for x in ranks_and_torsion if x == 0)
    torsion = tuple(x for x in ranks_and_torsion if x > 1)
    return AbelianGroup(free_rank=free, torsion=torsion)


def cx(name):
    return catalog_entry(name).complex


CLOSED = ("s1", "s2", "torus", "klein", "rp2", "t3")
BOUNDED = ("interval", "disk", "cylinder", "mobius")


# ---------------------------------------------------------------------------
# recognizers
# ---------------------------------------------------------------------------


def test_closed_pseudomanifold_recognizer():
    for name in CLOSED:
        assert is_closed_pseudomanifold(cx(name)), name
    for name in BOUNDED + ("point",):
        assert not is_closed_pseudomanifold(cx(name)), name


def test_boundary_vertices():
    assert boundary_vertices(cx("torus")) == ()
    assert boundary_vertices(cx("disk")) == (0, 1, 2)
    # every vertex of the 5-vertex band lies on its single boundary circle
    assert boundary_vertices(cx("mobius")) == (0, 1, 2, 3, 4)
    assert len(boundary_vertices(cx("cylinder"))) == 6


def test_orientability_table():
    assert is_orientable_closed(cx("s1"))
    assert is_orientable_closed(cx("s2"))
    assert is_orientable_closed(cx("torus"))
    assert is_orientable_closed(cx("t3"))
    assert not is_orientable_closed(cx("klein"))
    assert not is_orientable_closed(cx("rp2"))


def test_orientability_errors():
    with pytest.raises(NotAManifoldDim):
        is_orientable_closed(cx("torus"), n=3)
    with pytest.raises(NotClosed):
        is_orientable_closed(cx("mobius"))
    assert is_orientable_closed(cx("torus"), n=2)


def test_homology_sphere_recognizer():
    assert is_integral_homology_sphere(cx("s1"))
    assert is_integral_homology_sphere(cx("s2"))
    assert not is_integral_homology_sphere(cx("torus"))
    assert not is_integral_homology_sphere(cx("rp2"))
    assert not is_integral_homology_sphere(cx("t3"))
    with pytest.raises(NotClosed):
        is_integral_homology_sphere(cx("disk"))


def test_certificates():
    assert non_contractibility_certificate(cx("s2")) == {
        "degree": 2,
        "group": grp(0),
    }
    assert non_contractibility_certificate(cx("disk")) is None
    assert non_contractibility_certificate(cx("torus")) == {
        "degree": 1,
        "group": grp(0, 0),
    }
    # torsion-only witness
    assert non_contractibility_certificate(cx("rp2")) == {
        "degree": 1,
        "group": grp(2),
    }


def test_certificate_requires_connected():
    two_bits = SimplicialComplex(4, ((0, 1), (2, 3)))
    with pytest.raises(NotConnected):
        non_contractibility_certificate(two_bits)


# ---------------------------------------------------------------------------
# the homology-manifold gate
# ---------------------------------------------------------------------------


def suspension_of_two_octagons():
    """Two disjoint 8-gons, both coned off at vertices 16 and 17: a closed
    pseudomanifold whose two apex links are two circles each."""
    facets = []
    for base in (0, 8):
        for k in range(8):
            edge = (base + k, base + (k + 1) % 8)
            facets += [edge + (16,), edge + (17,)]
    return SimplicialComplex(18, tuple(facets))


def test_gate_accepts_every_catalog_entry():
    for name in catalog_names():
        require_homology_manifold(cx(name), name)


@pytest.mark.parametrize(
    "complex_,defect",
    [
        (suspension_of_two_octagons(), r"link of vertex 16 has homology \[Z\^2, Z\^2\]"),
        (SimplicialComplex(4, ((0, 1, 2), (2, 3))), "not pure"),
        (SimplicialComplex(5, ((0, 1, 2), (0, 1, 3), (0, 1, 4))), "more than two facets"),
        # two triangles sharing only vertex 0: its link is two disjoint edges
        (SimplicialComplex(5, ((0, 1, 2), (0, 3, 4))), "link of vertex 0 .* a point"),
    ],
    ids=["suspension", "impure", "book", "bowtie"],
)
def test_gate_rejects_non_manifolds(complex_, defect):
    with pytest.raises(NotAManifold, match=defect):
        require_homology_manifold(complex_, "test")


def test_gate_runs_once_per_distinct_complex():
    # equal complexes built apart share one gate result
    _manifold_defect.cache_clear()
    for _ in range(2):
        circle = SimplicialComplex(3, cx("s1").facets)
        evaluate(StabilizationQuery(M=circle, U=circle))
    info = _manifold_defect.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_gate_rejects_the_suspension_as_an_explicit_total_space():
    with pytest.raises(NotAManifold, match="total-space"):
        evaluate(StabilizationQuery(E=suspension_of_two_octagons()))


@pytest.mark.parametrize(
    "M,U,E,problem",
    [
        ("s2", "interval", "mobius", "dim E = 2"),
        ("s1", "s1", "s2", "chi"),
        ("s1", "s1", "cylinder", "E has boundary"),
        ("s1", "interval", "torus", "E is closed"),
    ],
)
def test_explicit_total_space_must_pass_the_bundle_conditions(M, U, E, problem):
    query = StabilizationQuery(M=cx(M), U=cx(U), E=cx(E))
    with pytest.raises(NotABundle, match=problem):
        evaluate(query)


def _gated_complexes():
    """Complexes the gate accepts: catalog entries, their products within
    the facet budget, and barycentric subdivisions of the small entries
    (these mix boundary and interior vertices)."""
    names = st.sampled_from(catalog_names())
    pairs = st.tuples(names, names).filter(
        lambda p: product_facet_count(cx(p[0]), cx(p[1])) <= _PRODUCT_FACET_BUDGET
    )
    small = st.sampled_from([n for n in catalog_names() if len(cx(n).facets) <= 20])
    return st.one_of(
        names.map(cx),
        pairs.map(lambda p: product(cx(p[0]), cx(p[1]))),
        small.map(lambda n: barycentric_subdivision(cx(n))),
    )


def _without_first_top_cell(e):
    """``e`` rebuilt without the interior of its first top cell."""
    first = e.simplices(e.dimension)[0]
    faces = combinations(first, len(first) - 1) if len(first) > 1 else ()
    return SimplicialComplex(
        e.vertex_count, tuple(f for f in e.facets if f != first) + tuple(faces)
    )


@settings(max_examples=60, deadline=None)
@given(_gated_complexes(), st.sampled_from(catalog_names()))
def test_puncture_census_rule_holds_at_every_vertex(e, fibre):
    # the oracles build every vertex's puncture and e without its first
    # open top cell; the census computes one profile per kind of point
    require_homology_manifold(e, "drawn")
    n = e.dimension
    whole = homology(e, "Z")
    on_boundary = set(boundary_vertices(e))

    def groups(pr):
        return [pr.group(k) for k in range(n + 1)]

    u = cx(fibre)
    strong = _witness("strong", n, None, None)
    weak = _witness("weak", n, u, homology(u, "Z"))
    # told that e is closed, the census returns the interior kind
    interior, _ = _puncture_census(e, False, whole, strong)
    assert groups(interior) == groups(homology(_without_first_top_cell(e), "Z"))
    for v in e.vertices():
        want = whole if v in on_boundary else interior
        assert groups(homology(puncture(e, v), "Z")) == groups(want), v
    kinds = (interior, whole) if on_boundary else (interior,)
    for witness in (strong, weak):
        prof, all_bad = _puncture_census(e, bool(on_boundary), whole, witness)
        assert groups(prof) == groups(kinds[-1])
        assert all_bad == all(witness(pr) is not None for pr in kinds)


@pytest.mark.parametrize(
    "e", [cx("disk"), barycentric_subdivision(cx("disk"))], ids=["disk", "subdivided"]
)
def test_weak_census_needs_the_interior_puncture_too(e):
    # a boundary puncture of a disk is a disk, which differs from the circle
    # fibre, but its interior puncture is a circle; the catalog disk has no
    # interior vertex, so only the puncture inside its top cell shows that
    v = evaluate(StabilizationQuery(U=cx("s1"), E=e, mode="weak"))
    assert v.status == NOT_OBSTRUCTED
    assert v.evidence[1]["degree"] == 1
    assert v.narrative.startswith(
        "Puncturing the given total space at a boundary point leaves H_1 = 0 "
        "!= Z, but puncturing at an interior point produces no witness, and "
        "neither does the top-homology comparison."
    )


# ---------------------------------------------------------------------------
# the puncture rule for closed manifolds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CLOSED)
def test_puncture_rule_matches_direct_computation(name):
    m = cx(name)
    n = m.dimension
    entry = catalog_entry(name)
    derived = punctured_profile_from_closed(homology(m, "Z"), n, entry.orientable)
    verts = range(m.vertex_count) if m.vertex_count <= 9 else (0, 13, 26)
    for v in verts:
        direct = homology(puncture(m, v), "Z")
        for k in range(n + 1):
            assert direct.group(k) == derived.group(k), (name, v, k)


def test_puncture_rule_rejects_wrong_shape():
    with pytest.raises(NotClosed):
        # torus profile passed with the non-orientable flag
        punctured_profile_from_closed(homology(cx("torus"), "Z"), 2, False)
    with pytest.raises(NotClosed):
        punctured_profile_from_closed(homology(cx("klein"), "Z"), 2, True)


# ---------------------------------------------------------------------------
# trivial-bundle one-point test
# ---------------------------------------------------------------------------


def test_torus_from_circle_times_circle_is_obstructed():
    v = trivial_bundle_one_point_obstruction(cx("s1"), cx("s1"), mode="strong")
    assert v.status == OBSTRUCTED
    assert v.route == "direct"
    (ev,) = v.evidence
    assert ev["degree"] == 1
    assert ev["group_E1"] == {"rank": 2, "torsion": [], "pretty": "Z^2"}


def test_sphere_times_circle_weak_mismatch_at_degree_two():
    v = trivial_bundle_one_point_obstruction(cx("s2"), cx("s1"), mode="weak")
    assert v.status == OBSTRUCTED
    (ev,) = v.evidence
    assert ev["degree"] == 2
    assert ev["group_E"]["rank"] == 1
    assert ev["group_U"]["rank"] == 0
    assert ev["group_E1"]["rank"] == 1


def test_one_point_test_requires_closed_base():
    with pytest.raises(NotClosed):
        trivial_bundle_one_point_obstruction(cx("disk"), cx("s1"))
    with pytest.raises(NotClosed):
        trivial_bundle_one_point_obstruction(cx("mobius"), cx("s1"))


def test_one_point_test_rejects_zero_dimensional_fibre():
    with pytest.raises(ValueError):
        trivial_bundle_one_point_obstruction(cx("torus"), cx("point"))


def _product_profile(m, u):
    """H(M x U) from the factors by the tensor/Tor formula."""
    pm, pu = homology(m, "Z"), homology(u, "Z")
    groups = []
    for k in range(m.dimension + u.dimension + 1):
        tensor, tor = kunneth_formula(pm, pu, k)
        groups.append(tensor.direct_sum(tor))
    return HomologyProfile(ring="Z", groups=tuple(groups))


def _derived_punctured_profile(mname, uname):
    m, u = cx(mname), cx(uname)
    orientable = catalog_entry(mname).orientable and catalog_entry(uname).orientable
    return punctured_profile_from_closed(
        _product_profile(m, u), m.dimension + u.dimension, orientable
    )


_ROUTE_PAIRS = [
    (m, u)
    for m in catalog_names()
    for u in catalog_names()
    if is_closed_pseudomanifold(cx(m))
    and cx(u).dimension >= 1
    and product_facet_count(cx(m), cx(u)) <= _PRODUCT_FACET_BUDGET
]
_CLOSED_PAIRS = [(m, u) for m, u in _ROUTE_PAIRS if u in CLOSED]


@pytest.mark.parametrize("mname,uname", _CLOSED_PAIRS)
def test_derived_route_agrees_with_direct_puncture(mname, uname):
    # the staircase product without its first top cell, and without the
    # star of its first vertex, against the closed-manifold puncture rule
    # the program applies above the budget; the non-orientable pairs
    # exercise the branch where the orientation Z/2 in degree dim - 1 must
    # turn into a free summand after puncturing
    derived = _derived_punctured_profile(mname, uname)
    e = product(cx(mname), cx(uname))
    interior = _interior_profile(e)
    star = homology(puncture(e, e.vertices()[0]), "Z")
    for k in range(e.dimension + 1):
        assert interior.group(k) == star.group(k) == derived.group(k), k


def test_route_selection_and_derived_verdict():
    assert product_facet_count(cx("torus"), cx("torus")) == 1944
    v = trivial_bundle_one_point_obstruction(cx("torus"), cx("torus"))
    assert v.route == "derived"
    assert v.status == OBSTRUCTED
    assert v.evidence[0]["degree"] == 1
    assert v.evidence[0]["group_E1"] == {
        "rank": 4,
        "torsion": [],
        "pretty": "Z^4",
    }
    small = trivial_bundle_one_point_obstruction(cx("s1"), cx("s1"))
    assert small.route == "direct"


def test_derived_route_with_bounded_fibre_keeps_profile():
    v = trivial_bundle_one_point_obstruction(
        cx("t3"), cx("cylinder"), mode="strong"
    )
    assert v.route == "derived"
    assert v.status == OBSTRUCTED
    assert v.evidence[0]["degree"] == 1
    # H_1(T^3 x cylinder) = Z^3 + Z, untouched by a boundary puncture
    assert v.evidence[0]["group_E1"]["rank"] == 4


def test_forced_routes_agree_on_verdict():
    # klein x s1 takes the direct route; the closed-manifold rule the
    # program applies above the budget must reach the same verdict
    M, U = cx("klein"), cx("s1")
    derived_prof = _derived_punctured_profile("klein", "s1")
    for mode in ("strong", "weak"):
        direct = trivial_bundle_one_point_obstruction(M, U, mode=mode)
        assert direct.route == "direct"
        witness = _witness(mode, M.dimension + U.dimension, U, homology(U, "Z"))
        k = witness(derived_prof)
        assert direct.status == OBSTRUCTED and k is not None
        assert direct.evidence[0]["degree"] == k
        assert direct.evidence[0]["group_E1"] == _encode_group(derived_prof.group(k))


def _census_verdict(M, U, mode):
    """(degree, group_E1) of the one-point test, with degree None when not
    every kind of point of the staircase product leaves a witness."""
    e = product(M, U)
    witness = _witness(mode, e.dimension, U, homology(U, "Z"))
    prof, all_bad = _puncture_census(
        e, not is_closed_pseudomanifold(U), _product_profile(M, U), witness
    )
    k = witness(prof) if all_bad else None
    return k, _encode_group(prof.group(k)) if k is not None else None


@pytest.mark.parametrize("mode", ["strong", "weak"])
@pytest.mark.parametrize("mname,uname", _ROUTE_PAIRS)
def test_routes_agree_on_every_pair_within_budget(mname, uname, mode):
    # the route the input picks against the one it does not: a closed
    # fibre's staircase puncture against the closed-manifold rule, and a
    # fibre with boundary's H(E) against the staircase puncture census
    M, U = cx(mname), cx(uname)
    v = trivial_bundle_one_point_obstruction(M, U, mode=mode)
    if uname in CLOSED:
        assert v.route == "direct"
        prof = _derived_punctured_profile(mname, uname)
        k = _witness(mode, M.dimension + U.dimension, U, homology(U, "Z"))(prof)
        want = k, _encode_group(prof.group(k)) if k is not None else None
    else:
        assert v.route == "derived"
        want = _census_verdict(M, U, mode)
    (ev,) = v.evidence
    assert v.status == (NOT_OBSTRUCTED if want[0] is None else OBSTRUCTED)
    assert (ev["degree"], ev["group_E1"]) == want


_BOUNDARY_FIBRES = {u: cx(u) for u in BOUNDED} | {
    f"{u}_subdivided": barycentric_subdivision(cx(u)) for u in ("interval", "disk")
}
_BOUNDARY_FIBRE_PAIRS = [
    (m, u)
    for m in CLOSED
    for u, fibre in _BOUNDARY_FIBRES.items()
    if product_facet_count(cx(m), fibre) <= _PRODUCT_FACET_BUDGET
]


@pytest.mark.parametrize("mode", ["strong", "weak"])
@pytest.mark.parametrize("mname,uname", _BOUNDARY_FIBRE_PAIRS)
def test_boundary_fibre_puncture_is_decided_by_h_of_e(mname, uname, mode):
    # the census of the staircase product stays as the reference for the
    # program's H(E)-only answer: a witness of H(E) is one at every point
    M, U = cx(mname), _BOUNDARY_FIBRES[uname]
    e = product(M, U)
    prof_e = _product_profile(M, U)
    witness = _witness(mode, e.dimension, U, homology(U, "Z"))
    _, all_bad = _puncture_census(e, True, prof_e, witness)
    assert all_bad == (witness(prof_e) is not None)
    v = trivial_bundle_one_point_obstruction(M, U, mode=mode)
    assert v.route == "derived"
    assert v.obstructed == all_bad


def test_a_fibre_with_boundary_builds_no_product(monkeypatch):
    def refuse(*_):
        raise AssertionError("a product was built")

    assert product_facet_count(cx("torus"), cx("cylinder")) <= _PRODUCT_FACET_BUDGET
    monkeypatch.setattr(obstruction, "product", refuse)
    v = trivial_bundle_one_point_obstruction(cx("torus"), cx("cylinder"))
    assert v.route == "derived"
    assert v.status == OBSTRUCTED
    # H_1(T^2 x cylinder) = Z^3, untouched by a boundary puncture
    assert v.evidence[0]["degree"] == 1
    assert v.evidence[0]["group_E1"]["rank"] == 3


# ---------------------------------------------------------------------------
# evaluate dispatch
# ---------------------------------------------------------------------------


def test_evaluate_global_mode():
    v = evaluate(StabilizationQuery(M=cx("s2"), one_point=False))
    assert v.status == OBSTRUCTED
    assert v.evidence[0]["lemma"] == "state_space_noncontractible"
    assert v.evidence[0]["degree"] == 2
    v = evaluate(StabilizationQuery(M=cx("disk"), one_point=False))
    assert v.status == NOT_OBSTRUCTED
    assert "absence of obstruction" in v.narrative


def test_evaluate_trivial_product():
    v = evaluate(StabilizationQuery(M=cx("s1"), U=cx("s1")))
    assert v.status == OBSTRUCTED
    assert v.one_point and v.mode == "strong"


def test_evaluate_explicit_mobius_total_space():
    q = StabilizationQuery(M=cx("s1"), U=cx("interval"), E=cx("mobius"))
    v = evaluate(q)
    assert v.status == OBSTRUCTED
    top, punc = v.evidence
    # the top-homology comparison alone does NOT obstruct the band
    assert top["lemma"] == "top_homology_vs_fibre"
    assert top["group_E"]["rank"] == 0 and top["group_E"]["torsion"] == []
    # ... but the puncture test does
    assert punc["degree"] == 1
    assert punc["group_E1"]["rank"] >= 1
    assert "necessary" in v.narrative


def test_evaluate_explicit_klein_circle_bundle():
    q = StabilizationQuery(M=cx("s1"), U=cx("s1"), E=cx("klein"))
    v = evaluate(q)
    assert v.status == OBSTRUCTED
    assert v.evidence[1]["degree"] == 1


def test_evaluate_explicit_negative_control():
    # the cylinder as an S^1-bundle over the interval: fibre stabilization
    # is homologically unobstructed
    q = StabilizationQuery(
        M=cx("interval"), U=cx("s1"), E=cx("cylinder"), mode="weak"
    )
    v = evaluate(q)
    assert v.status == NOT_OBSTRUCTED


def _cone(complex_):
    """The cone over a complex, its apex one vertex past the last."""
    apex = complex_.vertex_count
    return SimplicialComplex(apex + 1, tuple((*f, apex) for f in complex_.facets))


@pytest.mark.parametrize(
    "total,manifold", [(cx("disk"), True), (_cone(cx("torus")), False)], ids=["disk", "cone"]
)
def test_strong_explicit_total_space_without_a_puncture_witness(total, manifold):
    # the canonical puncture is contractible, so there is no witness degree;
    # the cone's apex link is a torus, so the gate turns the cone away first
    if not manifold:
        with pytest.raises(NotAManifold, match="link of vertex 9"):
            evaluate(StabilizationQuery(E=total))
        return
    v = evaluate(StabilizationQuery(E=total))
    assert v.status == NOT_OBSTRUCTED
    top, punc = v.evidence
    assert top["lemma"] == "top_homology_vs_fibre"
    assert punc["lemma"] == "puncture_direct_endgame"
    assert punc["degree"] is None and punc["group_E1"] is None


def test_strong_explicit_top_homology_hit_without_a_puncture_witness():
    # S^2 minus a point is a disk, but H_2(S^2) = Z still obstructs
    v = evaluate(StabilizationQuery(E=cx("s2")))
    assert v.status == OBSTRUCTED
    top, punc = v.evidence
    assert top["degree"] == 2 and top["group_E"]["rank"] == 1
    assert punc["lemma"] == "puncture_direct_endgame" and punc["degree"] is None


def _shifted(complex_):
    """The same complex with every vertex label raised by one, so 0 is unused."""
    return SimplicialComplex(
        complex_.vertex_count + 1,
        tuple(tuple(v + 1 for v in f) for f in complex_.facets),
    )


def test_closed_total_space_without_vertex_zero_gets_a_verdict():
    # a closed E is punctured at its smallest vertex, which need not be 0
    plain = evaluate(StabilizationQuery(U=cx("s1"), E=cx("torus")))
    shifted = evaluate(StabilizationQuery(U=cx("s1"), E=_shifted(cx("torus"))))
    assert plain.status == shifted.status == OBSTRUCTED
    assert shifted.evidence == plain.evidence


def test_direct_route_on_a_base_without_vertex_zero_gets_a_verdict():
    plain = trivial_bundle_one_point_obstruction(cx("s1"), cx("s1"))
    shifted = trivial_bundle_one_point_obstruction(_shifted(cx("s1")), cx("s1"))
    assert plain.route == shifted.route == "direct"
    assert plain.status == shifted.status == OBSTRUCTED
    assert shifted.evidence == plain.evidence


def test_evaluate_is_deterministic():
    q = StabilizationQuery(M=cx("klein"), U=cx("s1"))
    assert evaluate(q) == evaluate(q)


def test_evidence_entries_always_carry_all_keys():
    keys = {"lemma", "degree", "group_E", "group_U", "group_E1"}
    verdicts = [
        evaluate(StabilizationQuery(M=cx("s2"), one_point=False)),
        evaluate(StabilizationQuery(M=cx("disk"), one_point=False)),
        evaluate(StabilizationQuery(M=cx("s1"), U=cx("s1"))),
        evaluate(StabilizationQuery(M=cx("s1"), U=cx("interval"), E=cx("mobius"))),
    ]
    for v in verdicts:
        assert v.evidence
        for ev in v.evidence:
            assert set(ev) == keys
        blob = v.to_json_dict()
        assert blob["status"] == v.status


# ---------------------------------------------------------------------------
# fixture table slices (the full table is an acceptance run)
# ---------------------------------------------------------------------------


def load_obstruction_table():
    path = resources.files("fibrestab.data") / "fixtures" / "obstruction_table.json"
    return json.loads(path.read_text())


def run_table_case(case):
    def res(name):
        return cx(name) if name else None

    query = StabilizationQuery(
        M=res(case["M"]),
        U=res(case["U"]),
        E=res(case["E"]),
        mode=case["mode"],
        one_point=case["one_point"],
    )
    return evaluate(query)


@pytest.mark.parametrize(
    "case_name",
    [
        "one_point_strong_s1_x_s1",
        "one_point_strong_s2_x_interval",
        "one_point_strong_klein_x_torus",   # derived, non-orientable rule
        "one_point_strong_rp2_x_rp2",       # direct, 600-facet 4-complex
        "one_point_strong_t3_x_t3",         # derived, far above budget
        "global_rp2",
        "global_point",
        "explicit_cylinder_over_interval_weak",
    ],
)
def test_obstruction_table_slice(case_name):
    table = load_obstruction_table()
    case = next(c for c in table["cases"] if c["name"] == case_name)
    verdict = run_table_case(case)
    assert verdict.status == case["expected_status"], case_name
    if case["expected_degree"] is not None:
        degrees = [ev["degree"] for ev in verdict.evidence]
        assert case["expected_degree"] in degrees, (case_name, degrees)
