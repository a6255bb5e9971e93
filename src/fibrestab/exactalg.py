"""Exact linear algebra over Z, Q and Z/p, plus finitely generated abelian groups.

Everything here runs on arbitrary-precision Python ints, so no computation
can silently overflow.  The pillars:

* ``invariant_factors_sparse`` -- invariant factors of a sparse integer
  matrix: unit pivots eliminated first, the small residue handed to
  ``smith_normal_form``.  This is the production engine for homology over
  every coefficient ring, since the field ranks of a matrix are read off
  its invariant factors.
* ``smith_normal_form`` -- dense Smith decomposition of an integer matrix
  with unimodular witnesses L, R such that L @ A @ R = diag(d) (padded).
* ``_eliminate`` -- Gaussian elimination over Q (p = 0) or Z/p on sparse
  dict-rows.  It gives the echelon forms and kernels behind cycle bases,
  ``matrix_rank`` for the small induced-map matrices, and
  ``rank_over_field``, a route independent of the Smith reduction that the
  tests play against it.
* ``AbelianGroup`` -- invariant-factor form of a finitely generated abelian
  group, with direct sum, tensor and Tor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod


class CompositeModulus(ValueError):
    """Raised when a coefficient modulus is neither 0 nor a prime."""


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable row-major integer matrix with exact (big-int) entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("matrix entries must be ints")

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(m, n, tuple(int(x) for r in rows for x in r))

    @classmethod
    def from_columns(cls, rows, cols, data):
        """Dense matrix of a sparse column map {j: {i: v}}."""
        entries = [0] * (rows * cols)
        for j, col in data.items():
            for i, v in col.items():
                entries[i * cols + j] = v
        return cls(rows, cols, tuple(entries))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, m, n):
        return cls(m, n, (0,) * (m * n))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def transpose(self):
        return IntegerMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ra = a[i]
            for j in range(other.cols):
                out.append(sum(ra[k] * b[k][j] for k in range(self.cols)))
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self):
        return all(e == 0 for e in self.entries)


def determinant(a: IntegerMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """L @ A @ R = diag(factors), with L, R unimodular.

    ``factors`` is the full chain of nonzero invariant factors (positive,
    each dividing the next); ``rank`` is their count.
    """

    factors: tuple
    transform_left: IntegerMatrix
    transform_right: IntegerMatrix

    @property
    def rank(self):
        return len(self.factors)

    def diagonal(self, rows, cols):
        ent = [0] * (rows * cols)
        for t, d in enumerate(self.factors):
            ent[t * cols + t] = d
        return IntegerMatrix(rows, cols, tuple(ent))


def smith_normal_form(a: IntegerMatrix) -> SmithDecomposition:
    """Deterministic Smith reduction with unimodular row/column witnesses.

    Pivot rule: smallest nonzero absolute value in the active submatrix,
    ties broken by lowest (row, col).  The same input always yields the
    same decomposition.
    """
    m, n = a.rows, a.cols
    b = a.to_rows()
    left = IntegerMatrix.identity(m).to_rows()
    right = IntegerMatrix.identity(n).to_rows()  # column ops applied in place

    def swap_rows(i, j):
        b[i], b[j] = b[j], b[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in b:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row[dst] -= q * row[src]
        b[dst] = [x - q * y for x, y in zip(b[dst], b[src])]
        left[dst] = [x - q * y for x, y in zip(left[dst], left[src])]

    def add_col(dst, src, q):
        # col[dst] -= q * col[src]
        for row in b:
            row[dst] -= q * row[src]
        for row in right:
            row[dst] -= q * row[src]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            ri = b[i]
            for j in range(t, n):
                v = ri[j]
                if v != 0:
                    key = (abs(v), i, j)
                    if best is None or key < best:
                        best = key
        return None if best is None else (best[1], best[2])

    rank = 0
    for t in range(min(m, n)):
        loc = find_pivot(t)
        if loc is None:
            break
        i, j = loc
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        while True:
            # clear column t below the pivot
            restart = False
            for i in range(t + 1, m):
                if b[i][t] != 0:
                    q = b[i][t] // b[t][t]
                    add_row(i, t, q)
                    if b[i][t] != 0:  # remainder strictly smaller than pivot
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, n):
                if b[t][j] != 0:
                    q = b[t][j] // b[t][t]
                    add_col(j, t, q)
                    if b[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, m):
                ri = b[i]
                for j in range(t + 1, n):
                    if ri[j] % b[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, -1)  # row t += row offender
        if b[t][t] < 0:
            b[t] = [-x for x in b[t]]
            left[t] = [-x for x in left[t]]
        rank += 1

    factors = tuple(b[t][t] for t in range(rank))
    return SmithDecomposition(
        factors,
        IntegerMatrix.from_rows(left) if m else IntegerMatrix(0, 0, ()),
        IntegerMatrix.from_rows(right) if n else IntegerMatrix(0, 0, ()),
    )


# ---------------------------------------------------------------------------
# sparse invariant-factor engine (for larger boundary matrices)
# ---------------------------------------------------------------------------


def invariant_factors_sparse(rows, cols, entries):
    """Invariant factors of a sparse integer matrix.

    ``entries`` is an iterable of (i, j, v) triples.  Unit entries are
    eliminated first with unimodular row operations (Markowitz-flavoured
    pivoting); whatever residue is left afterwards is small and goes through
    the dense Smith reduction.  Boundary matrices of simplicial complexes
    are almost entirely unit entries, so this runs in roughly linear time
    where the dense algorithm would be cubic.
    """
    row_map = {}
    col_map = {}
    for i, j, v in entries:
        if v == 0:
            continue
        row_map.setdefault(i, {})[j] = row_map.get(i, {}).get(j, 0) + v
        col_map.setdefault(j, {})[i] = row_map[i][j]
    # drop cancelled entries
    for i in list(row_map):
        for j in [j for j, v in row_map[i].items() if v == 0]:
            del row_map[i][j]
            del col_map[j][i]
        if not row_map[i]:
            del row_map[i]
    for j in [j for j in col_map if not col_map[j]]:
        del col_map[j]

    ones = 0
    heap = [(len(c), j) for j, c in col_map.items()]
    heapq.heapify(heap)
    while heap:
        length, j = heapq.heappop(heap)
        colj = col_map.get(j)
        if colj is None:
            continue
        if len(colj) != length:
            heapq.heappush(heap, (len(colj), j))
            continue
        # choose a unit pivot in this column with the shortest row
        pivot = None
        for i, v in colj.items():
            if v in (1, -1):
                key = (len(row_map[i]), i)
                if pivot is None or key < pivot[0]:
                    pivot = (key, i, v)
        if pivot is None:
            continue  # no unit entry here; leave for the dense core
        _, pi, pv = pivot
        prow = row_map.pop(pi)
        for jj in prow:
            del col_map[jj][pi]
        del prow[j]
        col_map.pop(j)
        # row ops: row_i -= (v_i * pv) * prow   (pv*pv == 1)
        victims = [(i, v) for i, v in colj.items()]
        for i, v in victims:
            factor = v * pv
            ri = row_map[i]
            del ri[j]
            for jj, w in prow.items():
                nv = ri.get(jj, 0) - factor * w
                cj = col_map[jj]
                if nv == 0:
                    ri.pop(jj, None)
                    cj.pop(i, None)
                else:
                    ri[jj] = nv
                    cj[i] = nv
                    heapq.heappush(heap, (len(cj), jj))
            if not ri:
                del row_map[i]
        ones += 1

    if not row_map:
        return (1,) * ones
    live_rows = sorted(row_map)
    live_cols = sorted({j for r in row_map.values() for j in r})
    cidx = {j: k for k, j in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for k, i in enumerate(live_rows):
        for j, v in row_map[i].items():
            dense[k][cidx[j]] = v
    core = smith_normal_form(IntegerMatrix.from_rows(dense))
    return (1,) * ones + core.factors


# ---------------------------------------------------------------------------
# ranks and kernels over fields
# ---------------------------------------------------------------------------


def _check_modulus(p):
    if p == 0:
        return
    if p < 2:
        raise CompositeModulus(f"modulus {p} is not 0 or prime")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise CompositeModulus(f"modulus {p} is composite ({d} divides it)")
        d += 1


def rank_over_field(a: IntegerMatrix, p: int = 0) -> int:
    """Rank of ``a`` over Q (``p == 0``) or the prime field Z/p.

    Plain Gaussian elimination -- an independent route from the Smith
    reduction, kept separate on purpose so the two can be played against
    each other in tests.
    """
    _check_modulus(p)
    rows = []
    for i in range(a.rows):
        r = {}
        for j in range(a.cols):
            v = a.at(i, j)
            if p:
                v %= p
            if v:
                r[j] = v
        if r:
            rows.append(r)
    return len(_eliminate(rows, p))


def _eliminate(rows, p):
    """Forward-eliminate sparse dict-rows in place; returns pivot list.

    Rows hold ints; over Q a row is only defined up to scale, which is fine
    for rank/kernel work (rows are re-normalized to primitive vectors).
    """
    pivots = []  # (col, row dict) with row normalized at col
    for r in rows:
        while r:
            lead = min(r)
            hit = next((pr for pc, pr in pivots if pc == lead), None)
            if hit is None:
                break
            if p:
                factor = (r[lead] * pow(hit[lead], p - 2, p)) % p
                for c, v in hit.items():
                    nv = (r.get(c, 0) - factor * v) % p
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
            else:
                x, y = r[lead], hit[lead]
                g = gcd(x, y)
                mul_r, mul_h = y // g, x // g
                for c in set(r) | set(hit):
                    nv = mul_r * r.get(c, 0) - mul_h * hit.get(c, 0)
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
        if r:
            if not p:
                g = 0
                for v in r.values():
                    g = gcd(g, v)
                if r[min(r)] < 0:
                    g = -g
                if g not in (0, 1):
                    for c in r:
                        r[c] //= g
            pivots.append((min(r), r))
    pivots.sort(key=lambda t: t[0])
    return pivots


def matrix_rank(matrix, p):
    """Rank of a tuple-of-tuples matrix of ints or Fractions over Q (p=0) or Z/p.

    Each row is scaled by the lcm of its denominators, so the elimination
    runs on ints.
    """
    rows = []
    for r in matrix:
        scale = lcm(*(v.denominator for v in r if isinstance(v, Fraction)))
        d = {}
        for j, v in enumerate(r):
            w = int(v * scale)
            if p:
                w %= p
            if w:
                d[j] = w
        if d:
            rows.append(d)
    return len(_eliminate(rows, p))


def _back_substitute(pivots, p):
    """Turn an eliminated pivot list into reduced echelon form (in place)."""
    for idx in range(len(pivots) - 1, -1, -1):
        pc, pr = pivots[idx]
        for jdx in range(idx):
            c2, r2 = pivots[jdx]
            if pc not in r2:
                continue
            if p:
                factor = (r2[pc] * pow(pr[pc], p - 2, p)) % p
                for c, v in pr.items():
                    nv = (r2.get(c, 0) - factor * v) % p
                    if nv:
                        r2[c] = nv
                    else:
                        r2.pop(c, None)
            else:
                x, y = r2[pc], pr[pc]
                g = gcd(x, y)
                mul_r, mul_p = y // g, x // g
                for c in set(r2) | set(pr):
                    nv = mul_r * r2.get(c, 0) - mul_p * pr.get(c, 0)
                    if nv:
                        r2[c] = nv
                    else:
                        r2.pop(c, None)
                g = 0
                for v in r2.values():
                    g = gcd(g, v)
                if r2[min(r2)] < 0:
                    g = -g
                if g not in (0, 1):
                    for c in r2:
                        r2[c] //= g
    return pivots


def rref_rows(rows, p):
    """Reduced echelon form of integer dict-rows over Q or Z/p.

    Returns a list of (pivot_col, row_dict) sorted by pivot column.  Over Q
    each row is primitive (gcd 1) with positive pivot; over Z/p the pivot is
    normalized to 1.
    """
    work = [dict(r) for r in rows if r]
    pivots = _back_substitute(_eliminate(work, p), p)
    if p:
        for pc, r in pivots:
            inv = pow(r[pc], p - 2, p)
            for c in list(r):
                r[c] = (r[c] * inv) % p
    return pivots


def kernel_basis_over_field(a: IntegerMatrix, p: int = 0):
    """Reduced-echelon basis of ker(a) over Q or Z/p, as sparse dict-rows.

    Deterministic: free columns are scanned in increasing order, so pivots
    of the returned basis are lexicographically smallest.
    """
    _check_modulus(p)
    cols = {}
    for i in range(a.rows):
        for j in range(a.cols):
            v = a.at(i, j)
            if p:
                v %= p
            if v:
                cols.setdefault(j, {})[i] = v
    return kernel_of_columns(cols, a.cols, p)


def kernel_of_columns(cols, ncols, p):
    """Kernel basis from a column-map {j: {i: v}} (see kernel_basis_over_field)."""
    rows = {}
    for j, col in cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    pivots = rref_rows(list(rows.values()), p)
    pivot_cols = [pc for pc, _ in pivots]
    pivot_set = set(pivot_cols)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        # kernel vector with 1 in the free column j
        vec = {j: 1}
        if p:
            for pc, r in pivots:
                v = r.get(j)
                if v:
                    vec[pc] = (-v) % p
        else:
            denom = 1
            coeffs = {}
            for pc, r in pivots:
                v = r.get(j)
                if v:
                    coeffs[pc] = Fraction(-v, r[pc])
            if coeffs:
                denom = lcm(*[f.denominator for f in coeffs.values()])
            vec = {j: denom}
            for pc, f in coeffs.items():
                vec[pc] = int(f * denom)
            g = 0
            for v in vec.values():
                g = gcd(g, v)
            if g > 1:
                vec = {c: v // g for c, v in vec.items()}
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# finitely generated abelian groups
# ---------------------------------------------------------------------------


def _prime_factorization(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _invariant_chain(cyclic_orders):
    """Recombine cyclic torsion orders into the canonical divisibility chain.

    >>> _invariant_chain([2, 3])
    (6,)
    >>> _invariant_chain([2, 4, 3])
    (2, 12)
    """
    primaries = {}  # prime -> descending exponent list
    for c in cyclic_orders:
        if c in (0, 1):
            continue
        for p, e in _prime_factorization(c).items():
            primaries.setdefault(p, []).append(e)
    for p in primaries:
        primaries[p].sort(reverse=True)
    chain = []
    k = 0
    while True:
        factor = prod(p ** es[k] for p, es in primaries.items() if k < len(es))
        if factor == 1:
            break
        chain.append(factor)
        k += 1
    chain.reverse()
    return tuple(chain)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``torsion`` is the divisibility chain d_1 | d_2 | ... (each >= 2), so
    equality of dataclasses is exactly isomorphism of groups.

    >>> AbelianGroup.from_cyclic_orders([0, 2, 3])
    AbelianGroup(free_rank=1, torsion=(6,))
    """

    free_rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        chain = tuple(self.torsion)
        if any(d < 2 for d in chain):
            raise ValueError("torsion factors must be >= 2")
        for a, b in zip(chain, chain[1:]):
            if b % a != 0:
                raise ValueError(f"torsion chain {chain} violates divisibility")
        object.__setattr__(self, "torsion", chain)

    @classmethod
    def from_cyclic_orders(cls, orders):
        """Group Z^a + sum Z/c from arbitrary cyclic orders (0 means Z)."""
        orders = list(orders)
        return cls(sum(1 for c in orders if c == 0), _invariant_chain(orders))

    @classmethod
    def trivial(cls):
        return cls(0, ())

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other):
        return AbelianGroup.from_cyclic_orders(
            [0] * (self.free_rank + other.free_rank)
            + list(self.torsion)
            + list(other.torsion)
        )

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def tensor_product(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    """Tensor product over Z of two finitely generated abelian groups."""
    orders = [0] * (a.free_rank * b.free_rank)
    orders += list(a.torsion) * b.free_rank
    orders += list(b.torsion) * a.free_rank
    orders += [gcd(da, db) for da in a.torsion for db in b.torsion]
    return AbelianGroup.from_cyclic_orders(orders)


def tor_product(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    """Tor_1(a, b).  Free parts contribute nothing; cyclic pieces pair by gcd.

    >>> str(tor_product(AbelianGroup(0, (4,)), AbelianGroup(0, (6,))))
    'Z/2'
    >>> tor_product(AbelianGroup(1), AbelianGroup(0, (5,))).is_trivial
    True
    """
    orders = [gcd(da, db) for da in a.torsion for db in b.torsion]
    return AbelianGroup.from_cyclic_orders(orders)

