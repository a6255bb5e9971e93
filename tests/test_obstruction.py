"""Obstruction verdicts: recognizers, puncture rules, routes, dispatch."""

import json
from importlib import resources

import pytest

from fibrestab.complexes import SimplicialComplex, catalog_entry, product, puncture
from fibrestab.exactalg import AbelianGroup
from fibrestab.homology import HomologyProfile, NotConnected, homology
from fibrestab.obstruction import (
    NOT_OBSTRUCTED,
    OBSTRUCTED,
    NotAManifoldDim,
    NotClosed,
    StabilizationQuery,
    boundary_vertices,
    evaluate,
    is_closed_pseudomanifold,
    is_integral_homology_sphere,
    is_orientable_closed,
    non_contractibility_certificate,
    product_facet_count,
    punctured_profile_from_closed,
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


def _derived_punctured_profile(mname, uname):
    m, u = cx(mname), cx(uname)
    pm, pu = homology(m, "Z"), homology(u, "Z")
    dim = m.dimension + u.dimension
    groups = []
    for k in range(dim + 1):
        tensor, tor = kunneth_formula(pm, pu, k)
        groups.append(tensor.direct_sum(tor))
    prof = HomologyProfile(ring="Z", groups=tuple(groups))
    orientable = catalog_entry(mname).orientable and catalog_entry(uname).orientable
    return punctured_profile_from_closed(prof, dim, orientable)


@pytest.mark.parametrize("mname,uname", [("torus", "s1"), ("klein", "s1")])
def test_derived_route_agrees_with_direct_puncture(mname, uname):
    # the Klein case exercises the non-orientable branch: the orientation
    # Z/2 in degree 2 must turn into a free summand after puncturing
    derived = _derived_punctured_profile(mname, uname)
    e = product(cx(mname), cx(uname))
    for v in (0, 13, 26):
        direct = homology(puncture(e, v), "Z")
        for k in range(e.dimension + 1):
            assert direct.group(k) == derived.group(k), (mname, uname, v, k)


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
    for mode in ("strong", "weak"):
        direct = trivial_bundle_one_point_obstruction(
            cx("klein"), cx("s1"), mode=mode, route="direct"
        )
        derived = trivial_bundle_one_point_obstruction(
            cx("klein"), cx("s1"), mode=mode, route="derived"
        )
        assert direct.status == derived.status == OBSTRUCTED
        assert direct.evidence[0]["degree"] == derived.evidence[0]["degree"]
        assert direct.evidence[0]["group_E1"] == derived.evidence[0]["group_E1"]


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
    plain = trivial_bundle_one_point_obstruction(cx("s1"), cx("s1"), route="direct")
    shifted = trivial_bundle_one_point_obstruction(
        _shifted(cx("s1")), cx("s1"), route="direct"
    )
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
