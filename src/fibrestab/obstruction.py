"""Homological obstructions to global feedback stabilization.

A feedback law whose controller state ranges over a fibre ``U`` turns the
closed loop into a dynamical system on a total space ``E`` (the product
``M x U`` when the bundle is trivial).  A point of ``E`` can be globally
asymptotically stable only if its basin -- all of ``E``, or all of ``E``
minus one point in the almost-global variant -- deformation-retracts to a
point, and that has computable homological consequences:

* ``non_contractibility_certificate`` finds the first nonvanishing reduced
  homology group of the state space, which rules out contractibility.
* ``trivial_bundle_one_point_obstruction`` examines ``E = M x U`` with one
  point removed, either by building the product and puncturing it (small
  cases) or by deriving the punctured homology from the factors via the
  tensor/Tor formula plus the standard puncture rules for manifolds.
* ``evaluate`` dispatches query records, including explicitly given
  (possibly twisted) total spaces, and returns a Verdict.

Verdicts are deliberately one-sided: homology can prove a space is NOT
contractible, never that it is, so the negative status reads
``NOT_OBSTRUCTED_BY_THESE_TESTS`` rather than any claim of stabilizability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import SimplicialComplex, product, puncture
from .exactalg import AbelianGroup
from .homology import (
    HomologyProfile,
    NotConnected,
    homology,
    is_connected,
    parse_ring,
)
from .sequences import kunneth_formula

OBSTRUCTED = "OBSTRUCTED"
NOT_OBSTRUCTED = "NOT_OBSTRUCTED_BY_THESE_TESTS"

# Above this many product facets the product is never built; punctured
# homology is derived from the factors instead.
_PRODUCT_FACET_BUDGET = 700


class NotClosed(ValueError):
    """Operation requires a closed pseudomanifold."""


class NotAManifoldDim(ValueError):
    """Complex dimension disagrees with the claimed manifold dimension."""


# ---------------------------------------------------------------------------
# basic recognizers
# ---------------------------------------------------------------------------


def is_closed_pseudomanifold(complex_: SimplicialComplex) -> bool:
    """Connected, pure, and every ridge lies in exactly two facets."""
    n = complex_.dimension
    if n < 1 or not complex_.facets:
        return False
    if any(len(f) != n + 1 for f in complex_.facets):
        return False
    if not is_connected(complex_):
        return False
    return all(d == 2 for d in _ridge_degrees(complex_).values())


def _ridge_degrees(complex_: SimplicialComplex):
    """Number of facets containing each codimension-one face of a facet."""
    degree = {}
    for f in complex_.facets:
        for i in range(len(f)):
            ridge = f[:i] + f[i + 1 :]
            degree[ridge] = degree.get(ridge, 0) + 1
    return degree


def boundary_vertices(complex_: SimplicialComplex):
    """Vertices lying on a ridge contained in exactly one facet."""
    degree = _ridge_degrees(complex_)
    return tuple(sorted({v for ridge, d in degree.items() if d == 1 for v in ridge}))


def is_orientable_closed(complex_: SimplicialComplex, n: int | None = None) -> bool:
    """Whether a closed n-pseudomanifold carries a fundamental class.

    The top integral homology of a closed connected triangulated manifold
    is Z exactly in the orientable case and 0 otherwise, so a single
    invariant-factor computation decides.  ``n``, when given, asserts the
    expected dimension (NotAManifoldDim on mismatch); NotClosed is raised
    for complexes with boundary or non-pseudomanifold ridge degrees.
    """
    if n is not None and n != complex_.dimension:
        raise NotAManifoldDim(
            f"complex has dimension {complex_.dimension}, expected {n}"
        )
    if not is_closed_pseudomanifold(complex_):
        raise NotClosed("orientability test needs a closed pseudomanifold")
    top = homology(complex_, "Z").group(complex_.dimension)
    return top == AbelianGroup(free_rank=1)


def is_integral_homology_sphere(complex_: SimplicialComplex) -> bool:
    """Closed pseudomanifold with the homology pattern of a sphere."""
    if not is_closed_pseudomanifold(complex_):
        raise NotClosed("homology-sphere test needs a closed pseudomanifold")
    n = complex_.dimension
    prof = homology(complex_, "Z")
    point = AbelianGroup(free_rank=1)
    for k in range(n + 1):
        want = point if k in (0, n) else AbelianGroup.trivial()
        if prof.group(k) != want:
            return False
    return True


def non_contractibility_certificate(complex_: SimplicialComplex, ring="Z"):
    """First nonvanishing reduced homology group, or None.

    Returns ``{"degree": k, "group": AbelianGroup}`` for the smallest k >= 1
    with H_k nonzero.  A connected complex with no such k has the reduced
    homology of a point; that is necessary but not sufficient for
    contractibility, so callers must treat None as inconclusive.
    """
    if not is_connected(complex_):
        raise NotConnected("certificate search expects a connected complex")
    label, _ = parse_ring(ring)
    prof = homology(complex_, label)
    for k in range(1, complex_.dimension + 1):
        g = prof.group(k)
        if not g.is_trivial:
            return {"degree": k, "group": g}
    return None


# ---------------------------------------------------------------------------
# punctured products
# ---------------------------------------------------------------------------


def punctured_profile_from_closed(
    profile: HomologyProfile, n: int, orientable: bool
) -> HomologyProfile:
    """Homology of (closed n-manifold) minus a point, from the manifold's.

    Removing an open disk kills the top class and changes nothing below
    degree n-1.  Degree n-1 is untouched in the orientable case; in the
    non-orientable case the exact sequence of the pair trades the
    orientation Z/2 -- always the entire torsion of H_{n-1} for a closed
    connected non-orientable manifold -- for one free summand, and the
    result is torsion-free because the punctured manifold is compact with
    nonempty boundary.
    """
    groups = [profile.group(k) for k in range(n + 1)]
    if orientable:
        if groups[n] != AbelianGroup(free_rank=1):
            raise NotClosed(f"top group {groups[n]} has no fundamental class")
        groups[n] = AbelianGroup.trivial()
    else:
        if not groups[n].is_trivial:
            raise NotClosed(
                f"non-orientable top group should vanish, got {groups[n]}"
            )
        t = groups[n - 1]
        if t.torsion != (2,):
            raise NotClosed(
                f"closed non-orientable manifold needs torsion (2,) in degree "
                f"{n - 1}, got {t.torsion}"
            )
        groups[n - 1] = AbelianGroup(free_rank=t.free_rank + 1)
    return HomologyProfile(ring=profile.ring, groups=tuple(groups))


def product_facet_count(x: SimplicialComplex, y: SimplicialComplex) -> int:
    """Facet count of the staircase product, without building it."""
    from math import comb

    total = 0
    for f in x.facets:
        p = len(f) - 1
        for g in y.facets:
            q = len(g) - 1
            total += comb(p + q, p)
    return total


def _sample_vertices(complex_: SimplicialComplex, extra=()):
    """Deterministic vertex sample: everything when small, else a seeded few.

    Punctured homotopy type is vertex-independent on a manifold, so the
    sample is a cross-check rather than a search.
    """
    verts = sorted({v for f in complex_.facets for v in f})
    if len(verts) <= 12:
        chosen = set(verts)
    else:
        rng = random.Random(0)
        chosen = {verts[0], *rng.sample(verts, 3)}
    chosen.update(extra)
    return tuple(sorted(chosen))


def _first_nonzero(profile: HomologyProfile, top: int):
    for k in range(1, top + 1):
        if not profile.group(k).is_trivial:
            return k
    return None


def _witness(mode, m, U, prof_u):
    """The degree test for a punctured total space of dimension ``m``.

    strong: the first k >= 1 with H_k nonzero; weak: the first k >= 1 where
    H_k differs from the fibre's.  The test returns None when there is none.
    """
    if mode == "strong":
        return lambda pr: _first_nonzero(pr, m)

    def weak(pr):
        for j in range(1, max(m, U.dimension) + 1):
            if pr.group(j) != prof_u.group(j):
                return j
        return None

    return weak


def _puncture_census(e: SimplicialComplex, witness):
    """Integral homology of ``e`` punctured at the canonical and sampled vertices.

    The canonical vertex is the first boundary vertex, or the smallest
    vertex of a closed ``e``.  Returns (profile at the canonical vertex,
    sampled vertices, whether every sampled puncture has a witness).
    """
    bdry = boundary_vertices(e)
    canonical = bdry[0] if bdry else e.vertices()[0]
    samples = _sample_vertices(e, extra=(canonical,))
    punctured = {v: homology(puncture(e, v), "Z") for v in samples}
    all_bad = all(witness(pr) is not None for pr in punctured.values())
    return punctured[canonical], samples, all_bad


def _encode_group(g: AbelianGroup | None):
    if g is None:
        return None
    return {"rank": g.free_rank, "torsion": list(g.torsion), "pretty": str(g)}


def _evidence(lemma, degree, group_e=None, group_u=None, group_e1=None):
    return {
        "lemma": lemma,
        "degree": degree,
        "group_E": _encode_group(group_e),
        "group_U": _encode_group(group_u),
        "group_E1": _encode_group(group_e1),
    }


@dataclass(frozen=True)
class Verdict:
    """Outcome of an obstruction query, with machine-checkable evidence.

    ``evidence`` entries carry {lemma, degree, group_E, group_U, group_E1}
    with None for fields a particular test does not use; OBSTRUCTED is only
    ever issued together with a nonzero or inequality witness.
    """

    status: str
    evidence: tuple
    narrative: str
    one_point: bool
    mode: str | None = None
    route: str | None = None

    @property
    def obstructed(self):
        return self.status == OBSTRUCTED

    def to_json_dict(self):
        return {
            "status": self.status,
            "evidence": list(self.evidence),
            "narrative": self.narrative,
            "one_point": self.one_point,
            "mode": self.mode,
            "route": self.route,
        }


def _connected_or_raise(cx, what):
    if cx is None or not cx.facets:
        raise ValueError(f"{what} complex is missing or has no simplices")
    if not is_connected(cx):
        raise NotConnected(f"{what} complex must be connected")


def _punctured_tag(k, m):
    """Which justification covers degree k of the punctured space."""
    return (
        "puncture_midrange_transfer" if 1 <= k <= m - 2 else "puncture_direct_endgame"
    )


def trivial_bundle_one_point_obstruction(
    M: SimplicialComplex,
    U: SimplicialComplex,
    mode: str = "strong",
    route: str = "auto",
) -> Verdict:
    """Test whether E = M x U minus one point carries forbidden homology.

    strong: stabilizing a single point of E from everywhere-but-one-point
    forces the punctured total space E1 to be contractible, so any
    nonvanishing H_k(E1), k >= 1, is an obstruction.  In the middle range
    1 <= k <= dim(E) - 2 puncturing cannot change homology (the evidence is
    tagged accordingly); outside it the punctured complex itself decides.

    weak: stabilizing the whole fibre only forces E1 to retract onto U, so
    the obstruction is a mismatch H_k(E1) != H_k(U).

    route
        "direct"  build the product, puncture at sampled vertices;
        "derived" combine the tensor/Tor formula for H(E) with the
                  puncture rules (no product construction);
        "auto"    direct below a facet budget, derived above.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    if route not in ("auto", "direct", "derived"):
        raise ValueError(f"unknown route {route!r}")
    _connected_or_raise(M, "base")
    _connected_or_raise(U, "fibre")
    if not is_closed_pseudomanifold(M):
        raise NotClosed("the one-point product test requires a closed base")
    if U.dimension < 1:
        raise ValueError(
            "fibre must be at least one-dimensional: a zero-dimensional "
            "controller adds no dynamics and falls outside these tests"
        )

    m = M.dimension + U.dimension
    prof_u = homology(U, "Z")
    if route == "auto":
        route = (
            "direct"
            if product_facet_count(M, U) <= _PRODUCT_FACET_BUDGET
            else "derived"
        )

    witness = _witness(mode, m, U, prof_u)

    if route == "direct":
        e = product(M, U)
        prof_e = homology(e, "Z")
        prof_e1, _, uniformly_bad = _puncture_census(e, witness)
    else:
        prof_m = homology(M, "Z")
        groups = []
        for k in range(m + 1):
            tensor, tor = kunneth_formula(prof_m, prof_u, k)
            groups.append(tensor.direct_sum(tor))
        prof_e = HomologyProfile(ring="Z", groups=tuple(groups))
        if is_closed_pseudomanifold(U):
            orientable = is_orientable_closed(M) and is_orientable_closed(U)
            prof_e1 = punctured_profile_from_closed(prof_e, m, orientable)
        else:
            # fibres with boundary: puncturing at a boundary point of E
            # deformation-retracts away and changes nothing
            prof_e1 = prof_e
        uniformly_bad = None  # one derived profile stands for every point

    k = witness(prof_e1)

    if k is not None and uniformly_bad is not False:
        lemma = (
            _punctured_tag(k, m) if mode == "strong" else "puncture_fibre_mismatch"
        )
        ev = _evidence(
            lemma,
            k,
            group_e=prof_e.group(k),
            group_u=prof_u.group(k),
            group_e1=prof_e1.group(k),
        )
        narrative = (
            f"Removing the would-be equilibrium from the product total space "
            f"leaves H_{k} = {prof_e1.group(k)}"
            + (
                f", not the fibre's {prof_u.group(k)}"
                if mode == "weak"
                else " != 0"
            )
            + f" (route: {route}); no "
            + ("point" if mode == "strong" else "fibre")
            + " can attract everything outside a single point."
        )
        return Verdict(OBSTRUCTED, (ev,), narrative, True, mode, route)

    lemma = (
        "puncture_direct_endgame" if mode == "strong" else "puncture_fibre_mismatch"
    )
    ev = _evidence(lemma, None, group_e=prof_e.group(0), group_u=prof_u.group(0))
    if k is not None:
        narrative = (
            "Some sampled puncture vertices leave no homological witness, so "
            "an equilibrium there is not excluded by these tests."
        )
    else:
        narrative = (
            "The punctured product total space "
            + (
                "has vanishing reduced homology"
                if mode == "strong"
                else "matches the fibre homology degreewise"
            )
            + f" (route: {route}). The tests here are necessary conditions "
            "only, so this is an absence of obstruction, not a "
            "stabilizability claim."
        )
    return Verdict(NOT_OBSTRUCTED, (ev,), narrative, True, mode, route)


# ---------------------------------------------------------------------------
# query-level dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizationQuery:
    """One obstruction question about a (M, U, E) triple.

    ``E`` is None for the trivial product M x U; a complex for an
    explicitly given (possibly twisted) total space.  ``one_point`` selects
    the almost-global variant (basin = everything minus one point);
    without it the query asks about a globally attracting point on M
    itself, where only contractibility of M matters.
    """

    M: SimplicialComplex | None = None
    U: SimplicialComplex | None = None
    E: SimplicialComplex | None = None
    mode: str = "strong"
    one_point: bool = True
    route: str = "auto"
    ring: str = "Z"


def _evaluate_global(query: StabilizationQuery) -> Verdict:
    _connected_or_raise(query.M, "state-space")
    cert = non_contractibility_certificate(query.M, query.ring)
    if cert is not None:
        ev = _evidence(
            "state_space_noncontractible", cert["degree"], group_e=cert["group"]
        )
        narrative = (
            f"The state space has H_{cert['degree']} = {cert['group']} != 0, so "
            "it is not contractible and cannot be the basin of attraction of "
            "a globally asymptotically stable point."
        )
        return Verdict(OBSTRUCTED, (ev,), narrative, False, query.mode)
    ev = _evidence("state_space_noncontractible", None)
    narrative = (
        "All reduced homology of the state space vanishes. Homology cannot "
        "certify contractibility, so this is only an absence of obstruction."
    )
    return Verdict(NOT_OBSTRUCTED, (ev,), narrative, False, query.mode)


def _evaluate_explicit_total(query: StabilizationQuery) -> Verdict:
    """Run the product-free tests on an explicitly given total space.

    Two independent necessary conditions are checked: the top-degree
    comparison H_m(E) vs (0, H_m(U)) that detects closed orientable total
    spaces, and non-contractibility of the punctured total space at every
    sampled vertex.  Either failing obstructs; both passing is still only
    an absence of obstruction.
    """
    e = query.E
    _connected_or_raise(e, "total-space")
    if query.U is not None:
        _connected_or_raise(query.U, "fibre")
    m = e.dimension
    prof_e = homology(e, "Z")
    prof_u = homology(query.U, "Z") if query.U is not None else None
    evidence = []
    obstructed = False

    top_e = prof_e.group(m)
    top_u = prof_u.group(m) if prof_u is not None else None
    top_hits = not top_e.is_trivial and (top_u is None or top_e != top_u)
    evidence.append(
        _evidence("top_homology_vs_fibre", m, group_e=top_e, group_u=top_u)
    )
    obstructed = obstructed or top_hits

    if query.mode == "weak" and prof_u is None:
        raise ValueError("weak queries need a fibre U to compare against")
    witness = _witness(query.mode, m, query.U, prof_u)
    prof_e1, samples, all_bad = _puncture_census(e, witness)
    k = witness(prof_e1)
    puncture_hits = k is not None and all_bad
    evidence.append(
        _evidence(
            _punctured_tag(k, m) if query.mode == "strong" else "puncture_fibre_mismatch",
            k,
            group_e=prof_e.group(k) if k is not None else None,
            group_u=prof_u.group(k) if (prof_u is not None and k is not None) else None,
            group_e1=prof_e1.group(k) if k is not None else None,
        )
    )
    obstructed = obstructed or puncture_hits

    if obstructed:
        parts = []
        if top_hits:
            parts.append(
                f"the top homology H_{m}(E) = {top_e} "
                + (f"differs from the fibre's {top_u}" if top_u is not None else "is nonzero")
            )
        if puncture_hits:
            parts.append(
                f"puncturing at any sampled vertex {list(samples)} leaves "
                f"H_{k} = {prof_e1.group(k)}"
                + ("" if query.mode == "strong" else f" != {prof_u.group(k)}")
            )
        narrative = (
            "Obstructed: " + "; and ".join(parts) + ". These conditions are "
            "necessary only, so the twisted candidate is excluded even "
            "though no stabilizability claim is ever made in the other "
            "direction."
        )
        return Verdict(
            OBSTRUCTED, tuple(evidence), narrative, True, query.mode, "direct"
        )
    narrative = (
        "Neither the top-homology comparison nor any sampled puncture of the "
        "given total space produced a witness. Necessity-only semantics: "
        "absence of obstruction, not a guarantee."
    )
    return Verdict(
        NOT_OBSTRUCTED, tuple(evidence), narrative, True, query.mode, "direct"
    )


def evaluate(query: StabilizationQuery) -> Verdict:
    """Dispatch a stabilization query to the matching homological test."""
    if query.mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {query.mode!r}")
    if not query.one_point:
        return _evaluate_global(query)
    if query.E is not None:
        return _evaluate_explicit_total(query)
    if query.M is None or query.U is None:
        raise ValueError("one_point queries need M and U (or an explicit E)")
    return trivial_bundle_one_point_obstruction(
        query.M, query.U, mode=query.mode, route=query.route
    )
