"""Exact-sequence verification at chain level.

Three consumers share one generic checker:

* ``mayer_vietoris`` assembles ... -> H_{k+1}(X) -> H_k(A cap B) ->
  H_k(A) + H_k(B) -> H_k(X) -> ... for a two-piece closed cover, with the
  connecting map computed by the usual zig-zag (split a cycle along the
  cover, take the boundary of the A-half).
* ``pair_les_check`` builds ... -> H_k(A) -> H_k(X) -> H_k(X, A) ->
  H_{k-1}(A) -> ... with the connecting map "take the boundary of a
  relative cycle".
* ``kunneth_check`` compares the homology of the staircase product against
  the tensor/Tor formula from the factors.

All homology classes are handled through the deterministic cycle bases of
``homology.HomologyBasis``, so the matrices in the reports are stable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import SimplicialComplex, SimplicialPair, boundary_columns, product
from .exactalg import AbelianGroup, matrix_rank, tensor_product, tor_product
from .homology import (
    HomologyBasis,
    coordinate_matrix,
    homology,
    inclusion_matrix,
    parse_ring,
    relative_boundary_columns,
)


class DimensionMismatch(ValueError):
    """Consecutive sequence maps whose shapes do not chain."""


class NotACover(ValueError):
    """Subcomplex pair that fails to cover the ambient complex."""


# ---------------------------------------------------------------------------
# generic exactness checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceNode:
    """One group in a finite sequence, with the matrix of its outgoing map.

    ``map_out`` has shape (next node dimension) x (this node dimension) and
    is None on the final node.
    """

    label: str
    dimension: int
    map_out: tuple | None = None


@dataclass(frozen=True)
class ExactnessReport:
    """Per-interior-node exactness data for a finite sequence."""

    labels: tuple
    dimensions: tuple    # vector-space dimension per node
    exact_at: tuple      # bool per interior node (indices 1..n-2)
    rank_data: tuple     # (rank of incoming map, dim ker of outgoing) pairs
    iso_segments: tuple  # (index of A, bool) for each 0 -> A -> B -> 0 found
    verdict: bool

    def dimension_of(self, label):
        """Dimension of the first node carrying ``label``."""
        return self.dimensions[self.labels.index(label)]

    def to_json_dict(self):
        return {
            "labels": list(self.labels),
            "dimensions": list(self.dimensions),
            "exact_at": list(self.exact_at),
            "rank_data": [list(t) for t in self.rank_data],
            "iso_segments": [list(t) for t in self.iso_segments],
            "verdict": self.verdict,
        }


def _compose_zero(second, first, p):
    """True when second @ first vanishes (shapes already validated)."""
    if not second or not first or not first[0]:
        return True
    inner = len(first)
    for i in range(len(second)):
        for j in range(len(first[0])):
            s = sum(second[i][k] * first[k][j] for k in range(inner))
            if p:
                if isinstance(s, Fraction):
                    if s.denominator % p == 0:
                        return False
                    s = s.numerator * pow(s.denominator, p - 2, p)
                if s % p:
                    return False
            elif s != 0:
                return False
    return True


def check_exactness(nodes, ring="Q") -> ExactnessReport:
    """Exactness report for a finite sequence of field vector spaces.

    Exact at an interior node means image of the incoming map equals the
    kernel of the outgoing one: the composite must vanish and the ranks
    must add up.  Patterns 0 -> A -> B -> 0 are additionally flagged with
    whether the middle map is an isomorphism (which exactness forces).
    """
    _, p = parse_ring(ring)
    if p is None:
        raise ValueError("exactness checking runs over a field")
    n = len(nodes)
    for idx in range(n - 1):
        m = nodes[idx].map_out
        if m is None:
            raise DimensionMismatch(f"node {idx} has no outgoing map")
        rows = len(m)
        cols = len(m[0]) if m else 0
        if m and cols != nodes[idx].dimension:
            raise DimensionMismatch(
                f"map at node {idx}: {cols} columns vs dimension {nodes[idx].dimension}"
            )
        if rows != nodes[idx + 1].dimension and not (
            rows == 0 and nodes[idx + 1].dimension == 0
        ):
            raise DimensionMismatch(
                f"map at node {idx}: {rows} rows vs next dimension {nodes[idx+1].dimension}"
            )

    exact_at = []
    rank_data = []
    for i in range(1, n - 1):
        rank_in = matrix_rank(nodes[i - 1].map_out, p)
        rank_out = matrix_rank(nodes[i].map_out, p)
        ker_out = nodes[i].dimension - rank_out
        composes = _compose_zero(nodes[i].map_out, nodes[i - 1].map_out, p)
        exact_at.append(composes and rank_in == ker_out)
        rank_data.append((rank_in, ker_out))

    iso_segments = []
    for i in range(n - 3):
        if nodes[i].dimension == 0 and nodes[i + 3].dimension == 0:
            mid = nodes[i + 1]
            r = matrix_rank(mid.map_out, p)
            is_iso = r == mid.dimension == nodes[i + 2].dimension
            iso_segments.append((i + 1, is_iso))

    return ExactnessReport(
        labels=tuple(nd.label for nd in nodes),
        dimensions=tuple(nd.dimension for nd in nodes),
        exact_at=tuple(exact_at),
        rank_data=tuple(rank_data),
        iso_segments=tuple(iso_segments),
        verdict=all(exact_at),
    )


# ---------------------------------------------------------------------------
# shared chain-level plumbing
# ---------------------------------------------------------------------------


def _bases(columns, space, dim, degrees, p):
    """Cycle bases by degree of the chain complex of ``space`` (a complex or
    a pair), whose boundary operators ``columns(space, k)`` stop at ``dim``."""
    out = {}
    for k in degrees:
        bk = columns(space, k) if 0 <= k <= dim else (0, 0, {})
        bup = columns(space, k + 1) if k + 1 <= dim else None
        out[k] = HomologyBasis(bk, bup, p)
    return out


def _boundary_of_chain(chain, cols_data, p):
    """Apply a sparse boundary operator to a chain {col: coeff} over Q/Z/p."""
    out = {}
    for c, v in chain.items():
        for r, s in cols_data[2].get(c, {}).items():
            out[r] = out.get(r, 0) + v * s
    if p:
        return {r: v % p for r, v in out.items() if v % p}
    return {r: v for r, v in out.items() if v}


def _zero_matrix(rows, cols):
    return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))


# ---------------------------------------------------------------------------
# Mayer-Vietoris
# ---------------------------------------------------------------------------


def intersection_complex(a: SimplicialComplex, b: SimplicialComplex):
    """Subcomplex of simplices lying in both a and b."""
    common = [s for s in a.all_simplices() if b.has_simplex(s)]
    if not common:
        return SimplicialComplex(max(a.vertex_count, b.vertex_count), ())
    return SimplicialComplex(
        max(a.vertex_count, b.vertex_count), tuple(common)
    )


def mayer_vietoris(
    x: SimplicialComplex,
    a: SimplicialComplex,
    b: SimplicialComplex,
    ring="Q",
    degrees=None,
) -> ExactnessReport:
    """Assemble and check the Mayer-Vietoris sequence of a closed cover.

    ``a`` and ``b`` must be subcomplexes of ``x`` with every simplex of
    ``x`` contained in one of them (the combinatorial closed-cover
    condition); otherwise NotACover is raised.
    """
    label, p = parse_ring(ring)
    if p is None:
        raise ValueError("Mayer-Vietoris checking runs over a field")
    if not (a.is_subcomplex_of(x) and b.is_subcomplex_of(x)):
        raise NotACover("cover pieces must be subcomplexes of the total complex")
    for f in x.facets:
        if not (a.has_simplex(f) or b.has_simplex(f)):
            raise NotACover(f"facet {f} lies in neither cover piece")

    inter = intersection_complex(a, b)
    lo, hi = degrees if degrees is not None else (0, x.dimension)

    bases_x = _bases(boundary_columns, x, x.dimension, range(lo, hi + 2), p)
    bases_a = _bases(boundary_columns, a, a.dimension, range(lo, hi + 1), p)
    bases_b = _bases(boundary_columns, b, b.dimension, range(lo, hi + 1), p)
    bases_i = _bases(boundary_columns, inter, inter.dimension, range(lo, hi + 1), p)

    simp = {
        ("x", k): x.simplices(k) for k in range(lo, hi + 2)
    }
    idx_x = {k: {s: i for i, s in enumerate(simp[("x", k)])} for k in range(lo, hi + 2)}

    def connecting(k):
        """delta: H_{k+1}(X) -> H_k(A cap B) by the zig-zag."""
        bx = bases_x[k + 1]
        xs = simp[("x", k + 1)]
        cols_data = boundary_columns(x, k + 1) if k + 1 <= x.dimension else (0, 0, {})
        inter_index = {s: i for i, s in enumerate(inter.simplices(k))}
        ks = simp[("x", k)]
        chains = []
        for rep in bx.reps:
            a_part = {
                c: v for c, v in rep.items() if a.has_simplex(xs[c])
            }
            bdry = _boundary_of_chain(a_part, cols_data, p)
            pushed = {}
            for r, v in bdry.items():
                s = ks[r]
                if s not in inter_index:
                    raise AssertionError("zig-zag boundary left the intersection")
                pushed[inter_index[s]] = v
            chains.append(pushed)
        return coordinate_matrix(bases_i[k], chains)

    def alpha(k):
        ints = inter.simplices(k)
        ia = inclusion_matrix(
            bases_i[k], ints, bases_a[k], {s: i for i, s in enumerate(a.simplices(k))}
        )
        ib = inclusion_matrix(
            bases_i[k], ints, bases_b[k], {s: i for i, s in enumerate(b.simplices(k))}
        )
        return tuple(list(ia) + list(ib))

    def beta(k):
        ja = inclusion_matrix(
            bases_a[k], a.simplices(k), bases_x[k], idx_x[k]
        )
        jb = inclusion_matrix(
            bases_b[k], b.simplices(k), bases_x[k], idx_x[k]
        )
        rows = bases_x[k].dimension
        out = []
        for i in range(rows):
            row = list(ja[i]) + [-v for v in jb[i]]
            out.append(tuple(row))
        return tuple(out)

    nodes = []
    for k in range(hi, lo - 1, -1):
        nodes.append(
            SequenceNode(f"H{k+1}(X)", bases_x[k + 1].dimension, connecting(k))
        )
        nodes.append(SequenceNode(f"H{k}(A^B)", bases_i[k].dimension, alpha(k)))
        nodes.append(
            SequenceNode(
                f"H{k}(A)+H{k}(B)",
                bases_a[k].dimension + bases_b[k].dimension,
                beta(k),
            )
        )
    if lo == 0:
        nodes.append(
            SequenceNode(
                "H0(X)",
                bases_x[0].dimension,
                _zero_matrix(0, bases_x[0].dimension),
            )
        )
        nodes.append(SequenceNode("0", 0, None))
    else:
        nodes.append(SequenceNode(f"H{lo}(X)", bases_x[lo].dimension, None))
    return check_exactness(nodes, label)


# ---------------------------------------------------------------------------
# long exact sequence of a pair
# ---------------------------------------------------------------------------


def pair_les_check(pair: SimplicialPair, ring="Q", degrees=None) -> ExactnessReport:
    """Check the long exact homology sequence of (total, sub) over a field."""
    label, p = parse_ring(ring)
    if p is None:
        raise ValueError("pair sequence checking runs over a field")
    x, a = pair.total, pair.sub
    lo, hi = degrees if degrees is not None else (0, x.dimension)

    bases_a = _bases(boundary_columns, a, a.dimension, range(max(lo - 1, 0), hi + 1), p)
    bases_x = _bases(boundary_columns, x, x.dimension, range(lo, hi + 1), p)
    bases_r = _bases(relative_boundary_columns, pair, x.dimension, range(lo, hi + 2), p)

    def i_star(k):
        return inclusion_matrix(
            bases_a[k],
            a.simplices(k),
            bases_x[k],
            {s: i for i, s in enumerate(x.simplices(k))},
        )

    def j_star(k):
        rel = [s for s in x.simplices(k) if not a.has_simplex(s)]
        rel_index = {s: i for i, s in enumerate(rel)}
        xs = x.simplices(k)
        chains = [
            {rel_index[xs[c]]: v for c, v in rep.items() if xs[c] in rel_index}
            for rep in bases_x[k].reps
        ]
        return coordinate_matrix(bases_r[k], chains)

    def delta(k):
        """H_k(X, A) -> H_{k-1}(A): boundary of a relative cycle lies in A."""
        rel = [s for s in x.simplices(k) if not a.has_simplex(s)]
        cols_data = boundary_columns(x, k) if 0 <= k <= x.dimension else (0, 0, {})
        xs_low = x.simplices(k - 1)
        xk_index = {s: i for i, s in enumerate(x.simplices(k))}
        a_index = {s: i for i, s in enumerate(a.simplices(k - 1))}
        chains = []
        for rep in bases_r[k].reps:
            lifted = {xk_index[rel[c]]: v for c, v in rep.items()}
            bdry = _boundary_of_chain(lifted, cols_data, p)
            pushed = {}
            for r, v in bdry.items():
                s = xs_low[r]
                if s not in a_index:
                    raise AssertionError("relative cycle boundary left the subcomplex")
                pushed[a_index[s]] = v
            chains.append(pushed)
        return coordinate_matrix(bases_a[k - 1], chains)

    nodes = [
        SequenceNode(
            f"H{hi+1}(X,A)", bases_r[hi + 1].dimension, delta(hi + 1)
        )
    ]
    for k in range(hi, lo - 1, -1):
        nodes.append(SequenceNode(f"H{k}(A)", bases_a[k].dimension, i_star(k)))
        nodes.append(SequenceNode(f"H{k}(X)", bases_x[k].dimension, j_star(k)))
        if k > lo:
            nodes.append(
                SequenceNode(f"H{k}(X,A)", bases_r[k].dimension, delta(k))
            )
    if lo == 0:
        nodes.append(
            SequenceNode(
                "H0(X,A)",
                bases_r[0].dimension,
                _zero_matrix(0, bases_r[0].dimension),
            )
        )
        nodes.append(SequenceNode("0", 0, None))
    else:
        nodes.append(SequenceNode(f"H{lo}(X,A)", bases_r[lo].dimension, None))
    return check_exactness(nodes, label)


# ---------------------------------------------------------------------------
# Kunneth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KunnethDegree:
    degree: int
    tensor_part: AbelianGroup
    tor_part: AbelianGroup
    product_group: AbelianGroup
    consistent: bool


@dataclass(frozen=True)
class KunnethReport:
    ring: str
    degrees: tuple
    consistent: bool

    def to_json_dict(self):
        return {
            "ring": self.ring,
            "degrees": [
                {
                    "degree": d.degree,
                    "tensor_part": {
                        "rank": d.tensor_part.free_rank,
                        "torsion": list(d.tensor_part.torsion),
                    },
                    "tor_part": {
                        "rank": d.tor_part.free_rank,
                        "torsion": list(d.tor_part.torsion),
                    },
                    "product_group": {
                        "rank": d.product_group.free_rank,
                        "torsion": list(d.product_group.torsion),
                    },
                    "consistent": d.consistent,
                }
                for d in self.degrees
            ],
            "consistent": self.consistent,
        }


def kunneth_formula(profile_x, profile_y, k):
    """(tensor part, Tor part) of the product homology in degree k."""
    tensor = AbelianGroup.trivial()
    for i in range(k + 1):
        tensor = tensor.direct_sum(
            tensor_product(profile_x.group(i), profile_y.group(k - i))
        )
    tor = AbelianGroup.trivial()
    for i in range(k):
        tor = tor.direct_sum(
            tor_product(profile_x.group(i), profile_y.group(k - 1 - i))
        )
    return tensor, tor


def kunneth_check(
    x: SimplicialComplex, y: SimplicialComplex, ring="Z", degrees=None
) -> KunnethReport:
    """Compare staircase-product homology with the tensor/Tor formula.

    Over a field the Tor part is always trivial and the comparison is pure
    dimension counting; over Z the splitting holds for finitely generated
    groups, so group equality is the right check.
    """
    label, _ = parse_ring(ring)
    px = homology(x, label)
    py = homology(y, label)
    pxy = homology(product(x, y), label)
    top = x.dimension + y.dimension
    ks = range(degrees[0], degrees[1] + 1) if degrees is not None else range(top + 1)
    out = []
    for k in ks:
        tensor, tor = kunneth_formula(px, py, k)
        formula = tensor.direct_sum(tor)
        got = pxy.group(k)
        out.append(
            KunnethDegree(
                degree=k,
                tensor_part=tensor,
                tor_part=tor,
                product_group=got,
                consistent=formula == got,
            )
        )
    return KunnethReport(
        ring=label, degrees=tuple(out), consistent=all(d.consistent for d in out)
    )
