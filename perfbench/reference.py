"""Answers computed apart from fibrestab, used to check its outputs.

Nothing here imports the program.  The homology of the catalog spaces is
the textbook answer, products follow from the Kunneth formula (tensor and
Tor of cyclic groups over Z, dimension counting over a field), simplex
counts come from this module's own staircase product, and the pendulum
closed loop is re-integrated lane by lane with a scalar RK4.
"""

import math
from itertools import combinations
from math import gcd

# Integral homology H_0, H_1, ... of the catalog spaces, each group a list
# of cyclic orders (0 = Z, m >= 2 = Z/m).
TEXTBOOK = {
    "point": [[0]],
    "interval": [[0]],
    "disk": [[0]],
    "s1": [[0], [0]],
    "cylinder": [[0], [0]],
    "mobius": [[0], [0]],
    "s2": [[0], [], [0]],
    "torus": [[0], [0, 0], [0]],
    "klein": [[0], [0, 2], []],
    "rp2": [[0], [2], []],
    "t3": [[0], [0, 0, 0], [0, 0, 0], [0]],
}


def _prime_powers(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def canonical(orders):
    """(free rank, torsion as an ascending divisibility chain) of a sum of
    cyclic groups; the form in which fibrestab prints a group."""
    by_prime = {}
    for m in orders:
        if m >= 2:
            for p, e in _prime_powers(m):
                by_prime.setdefault(p, []).append(e)
    chain = []
    for k in range(max((len(es) for es in by_prime.values()), default=0)):
        d = 1
        for p, es in by_prime.items():
            es = sorted(es, reverse=True)
            if k < len(es):
                d *= p ** es[k]
        chain.append(d)
    return sum(1 for m in orders if m == 0), tuple(sorted(chain))


def _degree(groups, k):
    return groups[k] if 0 <= k < len(groups) else []


def kunneth_z(hx, hy, n):
    """Cyclic orders of H_n(X x Y; Z) from the factors' integral homology."""
    out = []
    for i in range(n + 1):
        for a in _degree(hx, i):
            for b in _degree(hy, n - i):
                out.append(a if b == 0 else b if a == 0 else gcd(a, b))
    for i in range(n):
        for a in _degree(hx, i):
            for b in _degree(hy, n - 1 - i):
                if a and b:
                    out.append(gcd(a, b))
    return [m for m in out if m != 1]


def product_homology_z(x, y):
    """Integral homology of the product of two catalog spaces."""
    hx, hy = TEXTBOOK[x], TEXTBOOK[y]
    return [kunneth_z(hx, hy, n) for n in range(len(hx) + len(hy) - 1)]


def field_char(ring):
    """Characteristic of a field label: Q -> 0, Z/p -> p."""
    if ring == "Q":
        return 0
    if ring.startswith("Z/"):
        return int(ring[2:])
    raise ValueError(f"not a field: {ring!r}")


def betti(groups, p):
    """Field Betti numbers by universal coefficients (p = 0 means Q)."""

    def hits(k):
        return sum(1 for m in _degree(groups, k) if m >= 2 and p and m % p == 0)

    return [
        sum(1 for m in groups[k] if m == 0) + hits(k) + hits(k - 1)
        for k in range(len(groups))
    ]


def kunneth_field(bx, by):
    """Betti numbers of a product over a field: b_n = sum b_i(X) b_j(Y)."""
    return [
        sum(bx[i] * by[n - i] for i in range(len(bx)) if 0 <= n - i < len(by))
        for n in range(len(bx) + len(by) - 1)
    ]


def euler(bettis):
    return sum((-1) ** k * b for k, b in enumerate(bettis))


# ---------------------------------------------------------------------------
# complexes, built here rather than by the program
# ---------------------------------------------------------------------------


def staircase_product(x, y):
    """Facets of the staircase triangulation of |x| x |y|.

    ``x`` and ``y`` are (vertex_count, facets); vertex (u, v) of the
    product is u * y_vertex_count + v, and a p-simplex times a q-simplex
    is cut into the binomial(p+q, p) monotone lattice paths.
    """
    _, fx = x
    ny, fy = y
    out = []
    for f in fx:
        f = sorted(f)
        for g in fy:
            g = sorted(g)
            p, q = len(f) - 1, len(g) - 1
            for right in combinations(range(p + q), p):
                a = b = 0
                path = [f[0] * ny + g[0]]
                for step in range(p + q):
                    if step in right:
                        a += 1
                    else:
                        b += 1
                    path.append(f[a] * ny + g[b])
                out.append(tuple(path))
    return x[0] * ny, out


def open_star_deletion(facets, v):
    """Facets of the full subcomplex on every vertex but ``v``."""
    out = []
    for f in facets:
        g = tuple(u for u in f if u != v)
        if g:
            out.append(g)
    return out


def simplex_counts(facets):
    """Number of k-simplices per degree of the complex spanned by facets."""
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            faces.update(combinations(f, k))
    top = max(len(s) for s in faces)
    return [sum(1 for s in faces if len(s) == k + 1) for k in range(top)]


# ---------------------------------------------------------------------------
# the pendulum closed loop, one lane at a time
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi


def _circle_distance(a, b):
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _smoothstep(t):
    t = min(max(t, 0.0), 1.0)
    return t * t * (3.0 - 2.0 * t)


def pendulum_fields(params):
    """(theta, u) -> (theta', u') of the damped pendulum on the trivial
    bundle: theta' = s(theta) u, with s a C^1 ramp that is exactly zero in
    a window around the antipode of the target, and u' = -k(theta)
    sin(theta - x*) - c u, with the gain k boosted near the antipode."""
    x_star = 0.5 * math.pi
    antipode = x_star + math.pi
    halfwidth = params.get("freeze_halfwidth", 0.0)
    boost = params.get("antipode_gain", 0.0)
    width = params.get("antipode_width", 0.3)
    damping = params.get("damping", 1.0)
    ramp = 0.05

    def fields(theta, u):
        theta = theta % TWO_PI
        d = _circle_distance(theta, antipode)
        f = _smoothstep((d - halfwidth) / ramp) * u if halfwidth else u
        gain = 1.0
        if boost:
            gain = 1.0 + boost * (1.0 - _smoothstep((d - 0.5 * width) / (0.5 * width)))
        return f, -gain * math.sin(theta - x_star) - damping * u

    return fields, x_star


def weak_census_status(fields, x_star, theta, u, duration, step, eps, dwell=1.0):
    """Integrate one lane with RK4 in the global angle and classify its
    tail: CONVERGED_FIBRE when every tail sample (every 0.1 time units over
    the last ``dwell``) is within ``eps`` of the target fibre.

    Returns (status, final theta, final u, margin), where margin is the
    smallest |distance - eps| over the tail: a lane whose margin is at
    rounding level cannot be classified independently of the arithmetic.
    """
    n_steps = max(1, int(round(duration / step)))
    stride = max(1, int(round(0.1 / step)))
    first_tail = max(0, n_steps - int(round(dwell / step)))
    sample_at = set(range(first_tail, n_steps, stride)) | {n_steps}
    half, sixth = 0.5 * step, step / 6.0
    dists, diverged = [], False
    for k in range(1, n_steps + 1):
        f1, g1 = fields(theta, u)
        f2, g2 = fields(theta + half * f1, u + half * g1)
        f3, g3 = fields(theta + half * f2, u + half * g2)
        f4, g4 = fields(theta + step * f3, u + step * g3)
        theta += sixth * (f1 + 2.0 * (f2 + f3) + f4)
        u += sixth * (g1 + 2.0 * (g2 + g3) + g4)
        if k in sample_at and k * step >= duration - dwell:
            dists.append(_circle_distance(theta % TWO_PI, x_star))
            diverged = diverged or abs(u) > 1.0e6
    if diverged:
        status = "DIVERGED"
    elif all(d < eps for d in dists):
        status = "CONVERGED_FIBRE"
    else:
        status = "TIMEOUT"
    return status, theta, u, min(abs(d - eps) for d in dists)
