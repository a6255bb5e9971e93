"""Abstract simplicial complexes: constructions, chain complexes of
complexes and pairs, catalog.

A complex is stored by its maximal simplices (facets) over vertices
0..vertex_count-1.  Simplices are sorted tuples of vertex indices, listed
by one pass over the facets (``_faces``).  ``chain_complex`` orders the
k-simplices spanning C_k (for a pair, those outside the subcomplex)
lexicographically, indexes them once, and builds every boundary operator
from those indices, orienting faces by increasing vertex index with the
usual (-1)^i signs, so del o del = 0 holds on the nose.

The ``catalog`` returns version-pinned triangulations of the recurring
spaces (circle, sphere, torus, Klein bottle, Mobius band, projective plane,
3-torus, ...) from JSON data files shipped with the package; the script
``scripts/generate_catalog.py`` rebuilds and re-verifies them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources
from itertools import combinations

from .exactalg import IntegerMatrix


class DegreeOutOfRange(ValueError):
    """Requested chain degree outside 0..dimension."""


class UnknownVertex(ValueError):
    """Vertex index absent from the complex."""


class UnknownName(KeyError):
    """Catalog lookup for a name that is not shipped."""


class NotASubcomplex(ValueError):
    """Pair construction where `sub` is not contained in `total`."""


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex given by maximal faces.

    ``facets`` is normalized on construction: faces sorted, duplicates and
    non-maximal faces dropped, the whole tuple sorted by (size, lex).
    Vertices not mentioned by any facet simply are not part of the complex
    (``vertex_count`` is the ambient index bound, which lets punctured
    complexes keep their original labels).
    """

    vertex_count: int
    facets: tuple

    def __post_init__(self):
        faces = sorted({tuple(sorted(set(f))) for f in self.facets})
        for f in faces:
            if f and (f[0] < 0 or f[-1] >= self.vertex_count):
                raise UnknownVertex(
                    f"facet {f} out of range for {self.vertex_count} vertices"
                )
            if () == f:
                raise ValueError("empty facet")
        # largest faces first: a face is maximal unless a kept face covers
        # it.  Only subfaces of the sizes still to come are recorded, so
        # facets of one dimension cost nothing, and no more subfaces are
        # recorded than the complex has simplices in those degrees.
        smaller = {len(f) for f in faces}
        maximal, covered = [], set()
        for f in sorted(faces, key=len, reverse=True):
            smaller.discard(len(f))
            if f in covered:
                continue
            maximal.append(f)
            for r in smaller:
                covered.update(combinations(f, r))
        maximal.sort(key=lambda f: (len(f), f))
        object.__setattr__(self, "facets", tuple(maximal))

    # -- basic queries ------------------------------------------------------

    @property
    def dimension(self):
        # facets are sorted by (size, lex), so the last one is the largest
        return len(self.facets[-1]) - 1 if self.facets else -1

    def vertices(self):
        return sorted({v for f in self.facets for v in f})

    def simplices(self, k):
        """All k-simplices, lexicographically sorted."""
        faces = _faces(self)
        return sorted(faces[k]) if 0 <= k < len(faces) else []

    def all_simplices(self):
        """All simplices, ordered by (dimension, lex)."""
        return [s for faces in _faces(self) for s in sorted(faces)]

    def euler_characteristic(self):
        return sum((-1) ** k * len(faces) for k, faces in enumerate(_faces(self)))

    def is_subcomplex_of(self, other):
        faces = _faces(other)
        return all(_has_face(faces, f) for f in self.facets)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self, name="complex"):
        return {
            "name": name,
            "vertex_count": self.vertex_count,
            "facets": [list(f) for f in self.facets],
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            n = data["vertex_count"]
            facets = data["facets"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"complex JSON missing field: {exc}") from exc
        if not isinstance(n, int) or not isinstance(facets, list):
            raise ValueError("complex JSON has wrong field types")
        for f in facets:
            if not isinstance(f, list) or not all(isinstance(v, int) for v in f):
                raise ValueError(f"facet {f!r} is not a list of ints")
        return cls(n, tuple(tuple(f) for f in facets))


@dataclass(frozen=True)
class SimplicialPair:
    """A complex together with a subcomplex, for relative homology."""

    total: SimplicialComplex
    sub: SimplicialComplex

    def __post_init__(self):
        if not self.sub.is_subcomplex_of(self.total):
            raise NotASubcomplex("sub is not a subcomplex of total")


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------


def _faces(complex_: SimplicialComplex):
    """The k-simplices of ``complex_`` as one set per degree k = 0..dim,
    collected in one pass over the facets."""
    faces = [set() for _ in range(complex_.dimension + 1)]
    for f in complex_.facets:
        for k in range(len(f)):
            faces[k].update(combinations(f, k + 1))
    return faces


def _has_face(faces, simplex):
    """Whether a sorted, non-empty ``simplex`` is among ``_faces`` sets."""
    return len(simplex) <= len(faces) and simplex in faces[len(simplex) - 1]


@dataclass(frozen=True)
class ChainComplex:
    """Simplicial chain complex of a complex or a pair, degrees 0..dim.

    ``simplices[k]`` lists the simplices spanning C_k in lexicographic
    order, ``indices[k]`` maps each to its position there, and
    ``boundaries[k]`` is del_k as (rows, cols, {col: {row: sign}}).  Chain
    vectors are {position: coefficient} dicts over these orders.
    """

    simplices: tuple
    indices: tuple
    boundaries: tuple

    def cells(self, k):
        """The k-simplices spanning C_k; none outside 0..dim."""
        return self.simplices[k] if 0 <= k < len(self.simplices) else []

    def index(self, k):
        """Simplex -> position in ``cells(k)``."""
        return self.indices[k] if 0 <= k < len(self.indices) else {}

    def boundary(self, k):
        """del_k; outside 0..dim the zero map (#(k-1)-cells, 0, {})."""
        if 0 <= k < len(self.boundaries):
            return self.boundaries[k]
        return len(self.cells(k - 1)), 0, {}


def chain_complex(total: SimplicialComplex, sub: SimplicialComplex | None = None):
    """The chain complex of ``total``, or the quotient C(total)/C(sub).

    Column j of del_k lists the faces of the j-th k-simplex, dropping i =
    0..k in order, with sign (-1)^i; faces that lie in ``sub`` are left
    out, and so are columns left empty by that (only relative ones can be).
    """
    faces = _faces(total)
    if sub is not None:
        for mine, theirs in zip(faces, _faces(sub)):
            mine -= theirs
    simplices = tuple(sorted(f) for f in faces)
    del faces  # sorted now; dropping the sets lowers the peak of the build
    indices = tuple({s: i for i, s in enumerate(ss)} for ss in simplices)
    boundaries = []
    for k, top in enumerate(simplices):
        low = indices[k - 1] if k else {}
        cols = {}
        for j, s in enumerate(top):
            col = {}
            for i in range(k + 1):
                row = low.get(s[:i] + s[i + 1 :])
                if row is not None:
                    col[row] = -1 if i % 2 else 1
            if col:
                cols[j] = col
        boundaries.append((len(low), len(top), cols))
    return ChainComplex(simplices, indices, tuple(boundaries))


def transfer(chain, src: ChainComplex, dst: ChainComplex, k):
    """A k-chain of ``src`` renamed to the positions of ``dst``; simplices
    ``dst`` lacks are dropped."""
    cells, index = src.cells(k), dst.index(k)
    return {index[s]: v for c, v in chain.items() if (s := cells[c]) in index}


def boundary_columns(complex_: SimplicialComplex, k):
    """del_k of ``chain_complex(complex_)``; DegreeOutOfRange outside 0..dim."""
    if k < 0 or k > complex_.dimension:
        raise DegreeOutOfRange(f"degree {k} outside 0..{complex_.dimension}")
    return chain_complex(complex_).boundary(k)


def boundary_matrix(complex_: SimplicialComplex, k) -> IntegerMatrix:
    """Boundary operator del_k as a dense integer matrix.

    del_0 maps onto the zero module, so k = 0 yields a 0 x (#vertices)
    matrix.  Raises DegreeOutOfRange outside 0..dimension.
    """
    return IntegerMatrix.from_columns(*boundary_columns(complex_, k))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def product(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of |x| x |y|.

    Vertices are pairs (u, v) indexed as u * y.vertex_count + v.  For each
    facet pair the product cell is cut along monotone staircase chains in
    the grid poset, giving the standard product triangulation: a p-simplex
    times a q-simplex splits into binomial(p+q, p) top cells.
    """
    ny = y.vertex_count

    def chains(sigma, tau):
        """Maximal monotone chains through the grid sigma x tau."""
        end = (len(sigma) - 1, len(tau) - 1)
        out = []

        def walk(a, b, path):
            if (a, b) == end:
                out.append(tuple(sigma[i] * ny + tau[j] for i, j in path))
                return
            if a < end[0]:
                walk(a + 1, b, path + [(a + 1, b)])
            if b < end[1]:
                walk(a, b + 1, path + [(a, b + 1)])

        walk(0, 0, [(0, 0)])
        return out

    facets = []
    for f in x.facets:
        for g in y.facets:
            facets.extend(chains(f, g))
    return SimplicialComplex(x.vertex_count * ny, tuple(facets))


def puncture(x: SimplicialComplex, v) -> SimplicialComplex:
    """Full subcomplex on all vertices except ``v`` (open-star deletion).

    Keeps the ambient vertex numbering so the result is a genuine
    subcomplex of ``x`` and can be fed straight into a SimplicialPair.
    """
    if v not in set(x.vertices()):
        raise UnknownVertex(f"vertex {v} not in complex")
    facets = []
    for f in x.facets:
        if v in f:
            g = tuple(u for u in f if u != v)
            if g:
                facets.append(g)
        else:
            facets.append(f)
    return SimplicialComplex(x.vertex_count, tuple(facets))


def link(x: SimplicialComplex, v) -> SimplicialComplex:
    """Link of a vertex: all faces s with v not in s and s + {v} in x."""
    if v not in set(x.vertices()):
        raise UnknownVertex(f"vertex {v} not in complex")
    facets = [
        tuple(u for u in f if u != v) for f in x.facets if v in f and len(f) > 1
    ]
    if not facets:
        return SimplicialComplex(x.vertex_count, ())
    return SimplicialComplex(x.vertex_count, tuple(facets))


def cone(x: SimplicialComplex) -> SimplicialComplex:
    """Cone over x with apex at index x.vertex_count (always contractible)."""
    apex = x.vertex_count
    if not x.facets:
        return SimplicialComplex(apex + 1, ((apex,),))
    return SimplicialComplex(
        apex + 1, tuple(f + (apex,) for f in x.facets)
    )


def barycentric_subdivision(x: SimplicialComplex) -> SimplicialComplex:
    """First barycentric subdivision.

    New vertices are the simplices of x (indexed by their position in the
    (dimension, lex) ordering); facets are maximal inclusion chains inside
    the facets of x.
    """
    all_faces = x.all_simplices()
    index = {s: i for i, s in enumerate(all_faces)}

    facets = []

    def chains_into(face):
        """Maximal chains of proper subsets ending at ``face``."""
        if len(face) == 1:
            return [[face]]
        out = []
        for sub in combinations(face, len(face) - 1):
            for chain in chains_into(sub):
                out.append(chain + [face])
        return out

    for f in x.facets:
        for chain in chains_into(f):
            facets.append(tuple(index[s] for s in chain))
    return SimplicialComplex(len(all_faces), tuple(facets))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """A pinned triangulation plus the manifold bookkeeping the checks need."""

    name: str
    complex: SimplicialComplex
    dimension: int
    closed: bool          # compact manifold without boundary
    orientable: bool | None
    description: str


@cache
def _catalog():
    """Name -> CatalogEntry for the shipped data files, read once."""
    out = {}
    root = resources.files("fibrestab").joinpath("data/catalog")
    for entry in sorted(root.iterdir(), key=lambda p: p.name):
        if not entry.name.endswith(".json"):
            continue
        data = json.loads(entry.read_text())
        cx = SimplicialComplex.from_json_dict(data)
        out[data["name"]] = CatalogEntry(
            name=data["name"],
            complex=cx,
            dimension=cx.dimension,
            closed=data["closed"],
            orientable=data["orientable"],
            description=data.get("description", ""),
        )
    return out


def catalog_names():
    return sorted(_catalog())


def catalog_entry(name) -> CatalogEntry:
    try:
        return _catalog()[name]
    except KeyError:
        raise UnknownName(
            f"no catalog space {name!r}; available: {', '.join(catalog_names())}"
        ) from None


def catalog(name) -> SimplicialComplex:
    """Pinned triangulation of a named space (see ``catalog_names``)."""
    return catalog_entry(name).complex
