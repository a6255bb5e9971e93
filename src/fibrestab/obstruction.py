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
  point removed, puncturing only where that can change the verdict.  H(E)
  comes from the factors via the tensor/Tor formula.  A fibre with
  boundary reads its answer off H(E).  A closed fibre's product is built
  and punctured by dropping one top cell from its boundary operators
  (small cases), or H(E) is punctured by the standard rule for closed
  manifolds (large ones).
* ``evaluate`` dispatches query records, including explicitly given
  (possibly twisted) total spaces, and returns a Verdict.

The theory behind the one-point tests speaks about manifolds: E minus a
point has one homology per kind of point.  A boundary puncture changes
nothing, so it has H(E); an interior puncture is E without one open top
cell, onto which E minus a point inside that cell deformation-retracts.
So the census computes each kind once, wherever the triangulation put its
vertices, and every complex those tests read as a space -- M and U of a
product, an explicit E and its U -- must first pass
``require_homology_manifold``: pure of dimension n, no ridge in more than
two facets, and the link of every vertex with the integral homology of
S^(n-1), or of a point at a boundary vertex.  A product of homology
manifolds is one, so a built product is not gated again.  The gate is
memoised by complex value, so a batch gates each distinct input once; a
rejected input raises NotAManifold.  An explicit E given with M and U must
also pass the necessary conditions for a bundle (NotABundle).  Global
queries stay ungated: a nonzero reduced homology group rules out
contractibility for any complex.

Verdicts are deliberately one-sided: homology can prove a space is NOT
contractible, never that it is, so the negative status reads
``NOT_OBSTRUCTED_BY_THESE_TESTS`` rather than any claim of stabilizability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .complexes import (
    SimplicialComplex,
    chain_complex,
    product,
    puncture,  # unused here; perfbench/tracing.py wraps this name
)
from .exactalg import AbelianGroup
from .homology import (
    HomologyProfile,
    NotConnected,
    boundary_profile,
    homology,
    is_connected,
    parse_ring,
)
from .sequences import kunneth_formula

OBSTRUCTED = "OBSTRUCTED"
NOT_OBSTRUCTED = "NOT_OBSTRUCTED_BY_THESE_TESTS"

# Above this many product facets a closed fibre's product is never built;
# its punctured homology is derived from the factors instead.  A fibre with
# boundary never needs the product.
_PRODUCT_FACET_BUDGET = 700


class NotClosed(ValueError):
    """Operation requires a closed pseudomanifold."""


class NotAManifoldDim(ValueError):
    """Complex dimension disagrees with the claimed manifold dimension."""


class NotAManifold(ValueError):
    """Complex is not a homology manifold, so the puncture rules fail."""


class NotABundle(ValueError):
    """Explicit total space that cannot be a bundle over M with fibre U."""


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


def require_homology_manifold(complex_: SimplicialComplex, what: str):
    """Raise NotAManifold unless ``complex_`` is a homology manifold."""
    defect = _manifold_defect(complex_)
    if defect is not None:
        raise NotAManifold(f"{what} complex is not a homology manifold: {defect}")


@lru_cache(maxsize=None)
def _manifold_defect(complex_: SimplicialComplex):
    """Why ``complex_`` is not a homology n-manifold, or None when it is.

    It must be pure of dimension n with no ridge in more than two facets,
    and the link of every vertex, read off one vertex -> facets index, must
    have the integral homology of S^(n-1), or of a point at a boundary
    vertex (one on a ridge of a single facet).  Memoised by value.
    """
    n = complex_.dimension
    if any(len(f) != n + 1 for f in complex_.facets):
        return f"it is not pure of dimension {n}"
    if n < 1:
        return None
    ridges = _ridge_degrees(complex_)
    if any(d > 2 for d in ridges.values()):
        return "a ridge lies in more than two facets"
    on_boundary = {v for ridge, d in ridges.items() if d == 1 for v in ridge}
    star = {}
    for f in complex_.facets:
        for v in f:
            star.setdefault(v, []).append(tuple(u for u in f if u != v))
    z, zero = AbelianGroup(free_rank=1), AbelianGroup.trivial()
    ball = (z,) + (zero,) * (n - 1)
    sphere = (z, *(zero,) * (n - 2), z) if n > 1 else (AbelianGroup(free_rank=2),)
    for v in sorted(star):
        lk = homology(SimplicialComplex(complex_.vertex_count, tuple(star[v])), "Z")
        want, shape = (ball, "a point") if v in on_boundary else (sphere, f"S^{n - 1}")
        if lk.groups != want:
            return f"the link of vertex {v} has homology {lk}, not that of {shape}"
    return None


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


def _interior_profile(e: SimplicialComplex) -> HomologyProfile:
    """Integral homology of the homology manifold ``e`` minus an interior
    point: it retracts onto ``e`` without the open top cell around the
    point, so the profile comes from the boundary operators of ``e`` with
    the first top cell's column dropped."""
    *below, (rows, cols, top) = chain_complex(e).boundaries
    top.pop(0, None)  # the first top cell; a vertex's column is empty
    return boundary_profile((*below, (rows, cols - 1, top)), "Z")


def _puncture_census(e: SimplicialComplex, has_boundary, prof_e, witness):
    """Integral homology of an explicit total space ``e``, a homology
    manifold, minus one point, computed once per kind of point.

    A boundary puncture deformation-retracts onto ``e``, so it has
    ``prof_e``, the homology of ``e``.  An interior puncture has
    ``_interior_profile(e)``: the one elimination, made only when the
    answer needs it.  Returns the profile of the canonical kind (boundary
    when ``e`` has a boundary, else interior) and whether every kind of
    point ``e`` has leaves a witness.  A product never needs the census:
    see ``trivial_bundle_one_point_obstruction``.
    """
    if not has_boundary:
        prof = _interior_profile(e)
        return prof, witness(prof) is not None
    all_bad = witness(prof_e) is not None and witness(_interior_profile(e)) is not None
    return prof_e, all_bad


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
    """Which justification covers degree k of the punctured space; with no
    witness degree (k None) the punctured complex itself decides."""
    return (
        "puncture_midrange_transfer"
        if k is not None and 1 <= k <= m - 2
        else "puncture_direct_endgame"
    )


def trivial_bundle_one_point_obstruction(
    M: SimplicialComplex,
    U: SimplicialComplex,
    mode: str = "strong",
) -> Verdict:
    """Test whether E = M x U minus one point carries forbidden homology.

    strong: stabilizing a single point of E from everywhere-but-one-point
    forces the punctured total space E1 to be contractible, so any
    nonvanishing H_k(E1), k >= 1, is an obstruction.  In the middle range
    1 <= k <= dim(E) - 2 puncturing cannot change homology (the evidence is
    tagged accordingly); outside it the punctured complex itself decides.

    weak: stabilizing the whole fibre only forces E1 to retract onto U, so
    the obstruction is a mismatch H_k(E1) != H_k(U).

    H(E) comes from the tensor/Tor formula.  The input alone decides how
    the punctured profile is found, and ``Verdict.route`` names it:

    "derived"  from H(E) with no product built: H(E) itself when U has a
               boundary, the closed-manifold puncture rule when M and U
               are closed and the product exceeds the facet budget;
    "direct"   M and U closed within the budget: the product is built and
               its first top cell dropped.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    _connected_or_raise(M, "base")
    _connected_or_raise(U, "fibre")
    if M.dimension < 1:
        raise ValueError(
            f"base must be at least one-dimensional, not of dimension "
            f"{M.dimension}: a point base leaves no state to stabilize and "
            "falls outside these tests"
        )
    if not is_closed_pseudomanifold(M):
        raise NotClosed("the one-point product test requires a closed base")
    if U.dimension < 1:
        raise ValueError(
            "fibre must be at least one-dimensional: a zero-dimensional "
            "controller adds no dynamics and falls outside these tests"
        )
    require_homology_manifold(M, "base")
    require_homology_manifold(U, "fibre")

    m = M.dimension + U.dimension
    has_boundary = not is_closed_pseudomanifold(U)
    prof_u = homology(U, "Z")
    witness = _witness(mode, m, U, prof_u)

    prof_m = homology(M, "Z")
    groups = []
    for k in range(m + 1):
        tensor, tor = kunneth_formula(prof_m, prof_u, k)
        groups.append(tensor.direct_sum(tor))
    prof_e = HomologyProfile(ring="Z", groups=tuple(groups))
    if has_boundary:
        # A boundary puncture has H(E), and it decides for every point.  U
        # has a boundary, so H_u(U) = 0 for u = dim U, and the top group
        # H_m(E) = H_(m-u)(M) (x) H_u(U) vanishes.  An interior puncture
        # matches E below degree m - 1 and adds a Z in degree m - 1, where
        # H(U) vanishes (u < m), so in both modes every witness of H(E) is
        # also a witness of the interior puncture.
        prof_e1, route = prof_e, "derived"
    elif product_facet_count(M, U) <= _PRODUCT_FACET_BUDGET:
        prof_e1, route = _interior_profile(product(M, U)), "direct"
    else:
        # both closed, so each is orientable when its top group is Z
        z = AbelianGroup(free_rank=1)
        orientable = prof_m.group(M.dimension) == z == prof_u.group(U.dimension)
        prof_e1 = punctured_profile_from_closed(prof_e, m, orientable)
        route = "derived"

    k = witness(prof_e1)

    if k is not None:
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


def _require_bundle(e, base, fibre):
    """Raise NotABundle unless E passes the necessary conditions for a
    fibre bundle over M with fibre U: dimensions add, Euler characteristics
    multiply, and E is closed exactly when M and U both are."""
    spaces = (e, base, fibre)
    dim = [x.dimension for x in spaces]
    chi = [x.euler_characteristic() for x in spaces]
    closed = [not boundary_vertices(x) for x in spaces]
    if dim[0] != dim[1] + dim[2]:
        problem = f"dim E = {dim[0]}, not dim M + dim U = {dim[1] + dim[2]}"
    elif chi[0] != chi[1] * chi[2]:
        problem = f"chi(E) = {chi[0]}, not chi(M) chi(U) = {chi[1] * chi[2]}"
    elif closed[0] != (closed[1] and closed[2]):
        problem = (
            "E is closed, but M or U has boundary"
            if closed[0]
            else "E has boundary, but M and U are closed"
        )
    else:
        return
    raise NotABundle(f"E cannot be a bundle over M with fibre U: {problem}")


def _evaluate_explicit_total(query: StabilizationQuery) -> Verdict:
    """Run the product-free tests on an explicitly given total space.

    Two independent necessary conditions are checked: the top-degree
    comparison H_m(E) vs (0, H_m(U)) that detects closed orientable total
    spaces, and a witness in the punctured total space at every kind of
    point, interior and boundary.  Either failing obstructs; both passing
    is still only an absence of obstruction.  E, and U when given, must be
    homology manifolds; with M and U both given, E must also pass the
    necessary bundle conditions of ``_require_bundle``.
    """
    e = query.E
    _connected_or_raise(e, "total-space")
    require_homology_manifold(e, "total-space")
    if query.U is not None:
        _connected_or_raise(query.U, "fibre")
        require_homology_manifold(query.U, "fibre")
        if query.M is not None:
            _connected_or_raise(query.M, "base")
            require_homology_manifold(query.M, "base")
            _require_bundle(e, query.M, query.U)
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
    bdry = boundary_vertices(e)
    prof_e1, all_bad = _puncture_census(e, bool(bdry), prof_e, witness)
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
                "puncturing at any "
                + ("interior or boundary point" if bdry else "point")
                + f" leaves H_{k} = {prof_e1.group(k)}"
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
    if k is not None:
        # a closed E has interior points only, so the witness is the
        # boundary puncture's, and the interior puncture has none
        found = (
            f"Puncturing the given total space at a boundary point leaves "
            f"H_{k} = {prof_e1.group(k)}"
            + ("" if query.mode == "strong" else f" != {prof_u.group(k)}")
            + ", but puncturing at an interior point produces no witness, "
            "and neither does the top-homology comparison."
        )
    else:
        found = (
            "Neither the top-homology comparison nor a puncture of the given "
            "total space at " + ("a boundary point" if bdry else "any point")
            + " produced a witness."
        )
    narrative = (
        found + " Necessity-only semantics: absence of obstruction, not a "
        "guarantee."
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
    return trivial_bundle_one_point_obstruction(query.M, query.U, mode=query.mode)
