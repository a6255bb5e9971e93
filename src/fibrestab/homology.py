"""Simplicial homology over Z, Q and Z/p, with induced maps of inclusions.

Every computation here reads the boundary operators (and, for cycle bases
and induced maps, the simplex indices) of one ``complexes.chain_complex``
per space; ``boundary_profile`` takes any such list of operators, so a
caller may hand it an edited one, as the puncture census does.

One engine serves every coefficient ring: ``exactalg``'s sparse
elimination reduces each boundary operator to its invariant factors, top
degree first, skipping the columns that were unit-pivot rows of the
operator above (clearing).  With L @ del @ R = diag(d) for
unimodular L, R, the rank of del over Q is the number of factors and its
rank over Z/p is the number of factors p does not divide, so the field
Betti numbers come from the same factors as the integral groups (universal
coefficients).  The tests check this engine against dense Smith factors
and the independent Gaussian rank ``exactalg.rank_over_field``.

Induced maps are computed at chain level with deterministic reduced-echelon
cycle bases (lexicographically smallest pivots), so repeated runs produce
identical matrices.  The bases and the coordinates ``HomologyBasis.express``
gives run on the field reducer of ``exactalg`` in integer arithmetic: a
coordinate over Q is one Fraction built at the end from the integer
coefficient and the scale the reduction accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import (
    SimplicialComplex,
    SimplicialPair,
    boundary_columns,  # unused here; perfbench/tracing.py wraps this name
    chain_complex,
    transfer,
)
from .exactalg import (
    AbelianGroup,
    CompositeModulus,
    _cancel,
    _check_modulus,
    _normalize,
    invariant_factors_sparse,
    kernel_of_columns,
    matrix_rank,
    rref_rows,
    smith_normal_form,  # unused here; perfbench/tracing.py wraps this name
)


class NotConnected(ValueError):
    """Operation requires a connected complex."""


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------


def parse_ring(ring):
    """Normalize a ring spec to (label, modulus).

    modulus None = integers, 0 = rationals, prime p = Z/p.
    """
    if ring in ("Z", "ℤ", None):
        return "Z", None
    if ring in ("Q", "ℚ"):
        return "Q", 0
    if isinstance(ring, str) and ring.startswith("Z/"):
        try:
            p = int(ring[2:])
        except ValueError:
            raise CompositeModulus(f"cannot parse modulus in {ring!r}") from None
    elif isinstance(ring, int):
        p = ring
    else:
        raise ValueError(f"unknown coefficient ring {ring!r}")
    if p < 2:  # _check_modulus would take 0 as Q
        raise CompositeModulus(f"modulus {p} is not prime")
    _check_modulus(p)
    return f"Z/{p}", p


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyProfile:
    """Homology groups H_0..H_dim of one complex over one ring."""

    ring: str
    groups: tuple  # AbelianGroup per degree; over a field torsion is empty

    def group(self, k):
        """H_k, with the zero group outside the stored range."""
        if 0 <= k < len(self.groups):
            return self.groups[k]
        return AbelianGroup.trivial()

    @property
    def top_degree(self):
        return len(self.groups) - 1

    def betti(self, k):
        return self.group(k).free_rank

    def to_json_dict(self):
        return {
            "ring": self.ring,
            "groups": [
                {"rank": g.free_rank, "torsion": list(g.torsion)}
                for g in self.groups
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            data["ring"],
            tuple(
                AbelianGroup(g["rank"], tuple(g["torsion"]))
                for g in data["groups"]
            ),
        )

    def __str__(self):
        return "[" + ", ".join(str(g) for g in self.groups) + "]"


def boundary_profile(boundaries, ring="Z") -> HomologyProfile:
    """Homology profile of a complex from its boundary operators.

    ``boundaries[k]`` is del_k as (rows, cols, {col: {row: entry}}), and an
    empty list gives the empty profile.  Degree k has the column count of
    del_k as chain rank, cleared columns included (clearing, see
    ``invariant_factors_sparse``, leaves the factors unchanged).  Over Z
    the factors above 1 of del_(k+1) are the torsion of H_k; over Z/p a
    factor counts towards the rank only when p does not divide it.  A
    triangle boundary, and the path left when its first edge is dropped:

    >>> from .complexes import SimplicialComplex
    >>> circle = SimplicialComplex(3, ((0, 1), (0, 2), (1, 2)))
    >>> del0, (rows, cols, data) = chain_complex(circle).boundaries
    >>> str(boundary_profile([del0, (rows, cols, data)]))
    '[Z, Z]'
    >>> del data[0]
    >>> str(boundary_profile([del0, (rows, cols - 1, data)]))
    '[Z, 0]'
    """
    label, modulus = parse_ring(ring)
    dim = len(boundaries) - 1
    factors, cleared = [()] * (dim + 2), set()
    for k in range(dim, 0, -1):  # top degree first, for clearing
        pivots = set()
        factors[k] = invariant_factors_sparse(*boundaries[k], cleared, pivots)
        cleared = pivots

    def rank(fs):
        return sum(1 for d in fs if d % modulus) if modulus else len(fs)

    groups = []
    for k in range(dim + 1):
        up = factors[k + 1]
        free = boundaries[k][1] - rank(factors[k]) - rank(up)
        torsion = [d for d in up if d > 1] if modulus is None else []
        groups.append(AbelianGroup.from_cyclic_orders([0] * free + torsion))
    return HomologyProfile(label, tuple(groups))


def homology(complex_: SimplicialComplex, ring="Z") -> HomologyProfile:
    """Homology profile of a complex in degrees 0..dimension.

    The empty complex has an empty profile.  Degree-0 free rank always
    equals the number of connected components, which the tests assert
    against a union-find count.
    """
    return boundary_profile(chain_complex(complex_).boundaries, ring)


def relative_boundary_columns(pair: SimplicialPair, k):
    """Boundary operator of the quotient chain complex C(total)/C(sub)."""
    return chain_complex(pair.total, pair.sub).boundary(k)


def relative_homology(pair: SimplicialPair, ring="Z") -> HomologyProfile:
    """Homology of the pair (total, sub) via the quotient chain complex."""
    return boundary_profile(chain_complex(pair.total, pair.sub).boundaries, ring)


def reduced_profile(profile: HomologyProfile) -> HomologyProfile:
    """Reduced homology: one Z stripped from degree 0 of a nonempty complex."""
    if not profile.groups:
        return profile
    g0 = profile.groups[0]
    if g0.free_rank < 1:
        raise ValueError("degree-0 group has no free summand to strip")
    stripped = AbelianGroup.from_cyclic_orders(
        [0] * (g0.free_rank - 1) + list(g0.torsion)
    )
    return HomologyProfile(profile.ring, (stripped,) + profile.groups[1:])


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


def connected_components(complex_: SimplicialComplex) -> int:
    verts = complex_.vertices()
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f in complex_.facets:
        for a, b in zip(f, f[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in verts})


def is_connected(complex_: SimplicialComplex) -> bool:
    return connected_components(complex_) == 1


def pi1_abelianized(complex_: SimplicialComplex) -> AbelianGroup:
    """Abelianized fundamental group of a connected complex (= H_1 over Z)."""
    if not is_connected(complex_):
        raise NotConnected("pi_1 needs a connected complex")
    return homology(complex_, "Z").group(1)


# ---------------------------------------------------------------------------
# homology bases and induced maps over fields
# ---------------------------------------------------------------------------


def _reduce_row(vec, pivots, p):
    """Clear the leading entries of ``vec`` against pivot rows while they last.

    ``pivots`` maps a column to (row, tag).  Returns (rest, scale, coeffs)
    with scale * vec = rest + sum(coeffs[tag] * row_tag) + (a combination of
    the untagged rows).  The scale is 1 over Z/p and positive over Q, since
    every pivot row has a positive lead.
    """
    vec = dict(vec)
    scale, coeffs = 1, {}
    while vec:
        lead = min(vec)
        hit = pivots.get(lead)
        if hit is None:
            break
        row, tag = hit
        mul_r, mul_h = _cancel(vec, row, lead, p)
        if mul_r != 1:
            scale *= mul_r
            for t in coeffs:
                coeffs[t] *= mul_r
        if tag is not None:
            coeffs[tag] = coeffs.get(tag, 0) + mul_h
    return vec, scale, coeffs


class HomologyBasis:
    """Deterministic cycle-representative basis of H_k(X; field).

    Representatives are reduced-echelon: boundary pivots are eliminated
    first, then surviving kernel rows are kept with lexicographically
    smallest pivots.  ``express`` rewrites any cycle in this basis.
    """

    def __init__(self, boundary_k, boundary_up, p):
        _, n_k, data_k = boundary_k
        self.n_k = n_k
        self.p = p
        image_rows = [] if boundary_up is None else boundary_up[2].values()
        self.pivots = {pc: (row, None) for pc, row in rref_rows(image_rows, p)}
        self.reps = []
        for vec in kernel_of_columns(data_k, n_k, p):
            red = _reduce_row(vec, self.pivots, p)[0]
            if not red:
                continue
            lead = min(red)
            _normalize(red, lead, p)
            self.pivots[lead] = (red, len(self.reps))
            self.reps.append(red)

    @property
    def dimension(self):
        return len(self.reps)

    def express(self, vec):
        """Coordinates of the homology class of ``vec`` in this basis."""
        rest, scale, coeffs = _reduce_row(vec, self.pivots, self.p)
        if rest:
            raise ValueError("vector is not a cycle modulo boundaries")
        if self.p:
            return [coeffs.get(i, 0) % self.p for i in range(len(self.reps))]
        return [Fraction(coeffs.get(i, 0), scale) for i in range(len(self.reps))]


@dataclass(frozen=True)
class InducedMap:
    """Matrix of H_k(sub) -> H_k(total) in the stored cycle bases.

    ``matrix[i][j]`` is the coefficient of codomain basis vector i in the
    image of domain basis vector j; columns are images of the domain
    representatives re-expressed in the codomain basis.
    """

    degree: int
    ring: str
    matrix: tuple  # rows x cols, Fraction (Q) or int (Z/p)
    domain_reps: tuple  # cycle chains, as {simplex: coeff} dicts
    codomain_reps: tuple

    @property
    def domain_dim(self):
        return len(self.matrix[0]) if self.matrix else len(self.domain_reps)

    @property
    def codomain_dim(self):
        return len(self.matrix)

    def rank(self):
        return matrix_rank(self.matrix, parse_ring(self.ring)[1])


def coordinate_matrix(basis, chains):
    """Matrix whose j-th column is ``basis.express(chains[j])``."""
    cols = [basis.express(chain) for chain in chains]
    return tuple(tuple(col[i] for col in cols) for i in range(basis.dimension))


def inclusion_matrix(dom_basis, cod_basis, dom, cod, k):
    """Matrix of H_k(dom) -> H_k(cod), induced by the inclusion of chain
    complexes, in the stored bases."""
    return coordinate_matrix(
        cod_basis, [transfer(rep, dom, cod, k) for rep in dom_basis.reps]
    )


def induced_map(pair: SimplicialPair, k, ring="Q") -> InducedMap:
    """Map on degree-k homology induced by the inclusion sub -> total."""
    label, modulus = parse_ring(ring)
    if modulus is None:
        raise ValueError("induced maps are computed over a field")
    sub, total = chain_complex(pair.sub), chain_complex(pair.total)
    basis_sub = HomologyBasis(sub.boundary(k), sub.boundary(k + 1), modulus)
    basis_tot = HomologyBasis(total.boundary(k), total.boundary(k + 1), modulus)

    def chains(basis, cx):
        cells = cx.cells(k)
        return tuple({cells[c]: v for c, v in rep.items()} for rep in basis.reps)

    return InducedMap(
        degree=k,
        ring=label,
        matrix=inclusion_matrix(basis_sub, basis_tot, sub, total, k),
        domain_reps=chains(basis_sub, sub),
        codomain_reps=chains(basis_tot, total),
    )
