"""Field cycle bases: ``HomologyBasis`` representatives and class coordinates.

The property test checks the defining facts of a basis of H_k over Q, Z/2
and Z/3: representatives are cycles, there are as many as the Betti number,
``express`` gives unit vectors on them and ignores boundaries, and rejects
non-cycles.  The differential test plays the integer reducer against a
Fraction-based oracle kept at the bottom of this file: Gauss-Jordan in
Fractions for the echelon forms and kernels, and the elimination with
rational coefficients that the reducer replaced for representatives and
coordinates.  Both must give the same representatives and coordinates,
Fractions over Q and ints over Z/p.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrestab.complexes import (
    SimplicialPair,
    boundary_columns,
    catalog,
    catalog_names,
    product,
    puncture,
)
from fibrestab.exactalg import kernel_of_columns, rref_rows
from fibrestab.homology import (
    HomologyBasis,
    homology,
    relative_boundary_columns,
    relative_homology,
)

RINGS = {"Q": 0, "Z/2": 2, "Z/3": 3}


def _punctured_product(name):
    e = product(catalog(name), catalog("s1"))
    return puncture(e, 0)


def _pair(cx):
    return SimplicialPair(cx, puncture(cx, 0))


def _spaces():
    """name -> (dimension, boundary operator of degree k, homology over a ring)."""
    out = {}
    complexes = {name: catalog(name) for name in catalog_names()}
    for name in ("torus", "klein", "rp2"):
        complexes[f"{name} x s1 - star 0"] = _punctured_product(name)
    for name, cx in complexes.items():
        out[name] = (
            cx.dimension,
            lambda k, cx=cx: boundary_columns(cx, k),
            lambda ring, cx=cx: homology(cx, ring),
        )
    pairs = {name: _pair(catalog(name)) for name in ("klein", "rp2", "torus")}
    pairs["torus x s1"] = _pair(product(catalog("torus"), catalog("s1")))
    for name, pair in pairs.items():
        out[f"({name}, star 0)"] = (
            pair.total.dimension,
            lambda k, pair=pair: relative_boundary_columns(pair, k),
            lambda ring, pair=pair: relative_homology(pair, ring),
        )
    return out


SPACES = _spaces()


@lru_cache(maxsize=None)
def boundary(name, k):
    dim, columns, _ = SPACES[name]
    return columns(k) if 0 <= k <= dim else (0, 0, {})


@lru_cache(maxsize=None)
def basis(name, k, p):
    dim = SPACES[name][0]
    return HomologyBasis(boundary(name, k), boundary(name, k + 1) if k < dim else None, p)


def apply(data, chain, p):
    """A sparse column map applied to a chain {col: coeff}."""
    out = {}
    for c, v in chain.items():
        for r, s in data.get(c, {}).items():
            out[r] = out.get(r, 0) + v * s
    return {r: v % p if p else v for r, v in out.items() if (v % p if p else v)}


def combine(terms, p):
    """sum(c * chain) over (c, chain) pairs, reduced mod p over Z/p."""
    out = {}
    for c, chain in terms:
        for key, v in chain.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v % p if p else v for key, v in out.items() if (v % p if p else v)}


def unit(i, n, p):
    return [(1 if j == i else 0) if p else Fraction(int(j == i)) for j in range(n)]


# ---------------------------------------------------------------------------
# properties of the basis
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SPACES)), st.sampled_from(sorted(RINGS)), st.data())
def test_homology_basis_is_a_basis_of_homology(name, ring, data):
    p = RINGS[ring]
    dim, _, hom = SPACES[name]
    k = data.draw(st.integers(0, dim), label="k")
    b = basis(name, k, p)
    data_k = boundary(name, k)[2]
    assert b.dimension == hom(ring).betti(k)
    for i, rep in enumerate(b.reps):
        assert rep and not apply(data_k, rep, p)
        got = b.express(rep)
        assert got == unit(i, b.dimension, p)
        assert [type(c) for c in got] == [int if p else Fraction] * b.dimension
    coeffs = st.integers(-4, 4)
    cycle = combine(
        [(data.draw(coeffs, label="rep coeff"), rep) for rep in b.reps], p
    )
    up = boundary(name, k + 1)
    chain = {
        j: data.draw(coeffs, label="chain coeff")
        for j in data.draw(st.lists(st.integers(0, max(up[1] - 1, 0)), max_size=6), label="cols")
        if j < up[1]
    }
    shifted = combine([(1, cycle), (1, apply(up[2], chain, p))], p)
    assert b.express(shifted) == b.express(cycle)
    # one k-simplex with a nonzero boundary is not a cycle
    if data_k:
        j = data.draw(st.sampled_from(sorted(data_k)), label="non-cycle")
        non_cycle = combine([(1, cycle), (1, {j: 1})], p)
        if apply(data_k, non_cycle, p):
            with pytest.raises(ValueError):
                b.express(non_cycle)


# ---------------------------------------------------------------------------
# differential test against the Fraction-based oracle
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SPACES)), st.sampled_from(sorted(RINGS)), st.data())
def test_bases_match_the_fraction_oracle_on_spaces(name, ring, data):
    p = RINGS[ring]
    dim = SPACES[name][0]
    k = data.draw(st.integers(0, dim), label="k")
    bk = boundary(name, k)
    bup = boundary(name, k + 1) if k < dim else None
    check_against_oracle(bk, bup, p, data, oracle_basis(name, k, p))


@lru_cache(maxsize=None)
def oracle_basis(name, k, p):
    dim = SPACES[name][0]
    return OracleBasis(boundary(name, k), boundary(name, k + 1) if k < dim else None, p)


@st.composite
def chain_complexes(draw, p):
    """C_{k+1} --A--> C_k --B--> C_{k-1} with random B and A = B's kernel
    vectors times random integers, so that B A = 0 and the pivots of the
    image rows need not be units."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    b_data = {}
    for j in range(n):
        col = {i: v for i in range(m) if (v := draw(entry) % p if p else draw(entry))}
        if col:
            b_data[j] = col
    kernel = oracle_kernel(b_data, n, p)
    a_data, count = {}, draw(st.integers(0, 4))
    for j in range(count):
        col = combine([(draw(entry), vec) for vec in kernel], p)
        if col:
            a_data[j] = col
    return (m, n, b_data), (n, count, a_data)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_bases_match_the_fraction_oracle_on_random_chain_complexes(ring, data):
    p = RINGS[ring]
    bk, bup = data.draw(chain_complexes(p), label="complex")
    check_against_oracle(bk, bup, p, data, OracleBasis(bk, bup, p))


def check_against_oracle(bk, bup, p, data, want):
    _, n_k, data_k = bk
    got = HomologyBasis(bk, bup, p)
    assert kernel_of_columns(data_k, n_k, p) == want.kernel
    image = [] if bup is None else list(bup[2].values())
    assert rref_rows(image, p) == want.image_rref
    assert got.reps == want.reps
    assert [typed(r) for r in got.reps] == [typed(r) for r in want.reps]
    coeffs = st.integers(-5, 5)
    cycles = [combine([(data.draw(coeffs), rep) for rep in want.reps], p)]
    cycles += want.reps
    if bup is not None:
        for cycle in list(cycles):
            chain = {j: data.draw(coeffs) for j in bup[2]}
            cycles.append(combine([(data.draw(coeffs), cycle), (1, apply(bup[2], chain, p))], p))
    for cycle in cycles:
        assert typed(got.express(cycle)) == typed(want.express(cycle))


def typed(values):
    items = sorted(values.items()) if isinstance(values, dict) else enumerate(values)
    return [(key, type(v), v) for key, v in items]


def oracle_rref(rows, p):
    """Reduced echelon form by Gauss-Jordan in Fractions (Q) or mod p, rows
    scaled to be primitive with positive pivot (Q) or to pivot 1 (Z/p)."""
    cols = sorted({c for r in rows for c in r})
    work = [{c: Fraction(v % p if p else v) for c, v in r.items() if (v % p if p else v)} for r in rows]
    work = [r for r in work if r]
    pivots = []
    for c in cols:
        hit = next((r for r in work if r.get(c)), None)
        if hit is None:
            continue
        work.remove(hit)
        inv = pow(int(hit[c]), p - 2, p) if p else 1 / hit[c]
        hit = {j: (v * inv) % p if p else v * inv for j, v in hit.items()}
        for r in work + [pr for _, pr in pivots]:
            f = r.get(c)
            if f:
                for j, v in hit.items():
                    nv = (r.get(j, 0) - f * v) % p if p else r.get(j, 0) - f * v
                    if nv:
                        r[j] = nv
                    else:
                        r.pop(j, None)
        pivots.append((c, hit))
    out = []
    for c, r in pivots:
        if p:
            out.append((c, {j: int(v) for j, v in r.items()}))
        else:
            scale = lcm(*(v.denominator for v in r.values()))
            ints = {j: int(v * scale) for j, v in r.items()}
            g = gcd(*ints.values())
            out.append((c, {j: v // g for j, v in ints.items()}))
    return out


def oracle_kernel(cols, ncols, p):
    """Kernel basis read off the reduced echelon form with Fractions."""
    rows = {}
    for j, col in cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    pivots = oracle_rref(list(rows.values()), p)
    pivot_set = {pc for pc, _ in pivots}
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
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


def oracle_reduce_row(vec, pivots, p, record=None):
    """Eliminate vec against pivot rows {col: (row, tag)} with Fraction
    coefficients, recording the coefficient applied at each tagged row."""
    vec = dict(vec)
    while vec:
        lead = min(vec)
        hit = pivots.get(lead)
        if hit is None:
            break
        row, tag = hit
        if p:
            coeff = (vec[lead] * pow(row[lead], p - 2, p)) % p
            for c, v in row.items():
                nv = (vec.get(c, 0) - coeff * v) % p
                if nv:
                    vec[c] = nv
                else:
                    vec.pop(c, None)
        else:
            coeff = Fraction(vec[lead], row[lead])
            for c, v in row.items():
                nv = vec.get(c, Fraction(0)) - coeff * v
                if nv:
                    vec[c] = nv
                else:
                    vec.pop(c, None)
        if record is not None and tag is not None:
            record[tag] = record.get(tag, 0) + coeff
    return vec


class OracleBasis:
    """Cycle basis built and used with rational arithmetic."""

    def __init__(self, boundary_k, boundary_up, p):
        _, n_k, data_k = boundary_k
        self.p = p
        image = [] if boundary_up is None else list(boundary_up[2].values())
        self.image_rref = oracle_rref(image, p)
        self.kernel = oracle_kernel(data_k, n_k, p)
        self.pivots = {pc: (row, None) for pc, row in self.image_rref}
        self.reps = []
        for vec in self.kernel:
            red = oracle_reduce_row(vec, self.pivots, p)
            if not red:
                continue
            red = self._normalize(red)
            self.pivots[min(red)] = (red, len(self.reps))
            self.reps.append(red)

    def _normalize(self, vec):
        if self.p:
            inv = pow(vec[min(vec)], self.p - 2, self.p)
            return {c: (v * inv) % self.p for c, v in vec.items()}
        g = 0
        for v in vec.values():
            g = gcd(g, v.numerator if isinstance(v, Fraction) else v)
        denoms = [v.denominator for v in vec.values() if isinstance(v, Fraction)]
        scale = Fraction(lcm(*denoms) if denoms else 1, g if g else 1)
        out = {c: int(v * scale) for c, v in vec.items()}
        if out[min(out)] < 0:
            out = {c: -v for c, v in out.items()}
        return out

    def express(self, vec):
        record = {}
        if oracle_reduce_row(vec, self.pivots, self.p, record):
            raise ValueError("vector is not a cycle modulo boundaries")
        coords = [record.get(i, 0) for i in range(len(self.reps))]
        if self.p:
            return [c % self.p for c in coords]
        return [Fraction(c) for c in coords]
