"""Fast paths of the simulator against the reference paths they replace.

``wrap_angle`` must give exactly what ``np.mod(x, TWO_PI)`` gives, and a
system's fused field kernel exactly what the generic plant/controller
path gives: same bits, signed zeros included, so every record and every
output byte is unchanged.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fibrestab.bundlesim import (
    TWO_PI,
    ChartAtlas,
    GridSpec,
    _batch_integrate,
    _field_arrays,
    _normalize_start,
    assemble_system,
    builtin_system,
    wrap_angle,
)

CENSUS = {"freeze_halfwidth": 0.025, "antipode_gain": 5.0, "antipode_width": 0.3}

WRAP_SPECIALS = [
    0.0,
    -0.0,
    -1e-17,
    -5e-324,
    5e-324,
    TWO_PI,
    -TWO_PI,
    math.nextafter(TWO_PI, 0.0),
    math.nextafter(2.0 * TWO_PI, 0.0),
    math.nextafter(-TWO_PI, 0.0),
]


# NaN and inf inputs are deliberate: numpy's warnings about them are noise
NON_FINITE_INPUTS = pytest.mark.filterwarnings("ignore:invalid value encountered")


def assert_same_bits(got, want):
    """Equal bit for bit, except that any NaN matches any NaN."""
    got, want = np.broadcast_arrays(np.asarray(got, float), np.asarray(want, float))
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


# ---------------------------------------------------------------------------
# the exact wrap
# ---------------------------------------------------------------------------


@NON_FINITE_INPUTS
def test_wrap_angle_matches_np_mod():
    rng = np.random.default_rng(3)
    in_range = rng.uniform(-TWO_PI, 2.0 * TWO_PI, 20000)
    near_edges = np.concatenate(
        [e + rng.uniform(-1e-12, 1e-12, 200) for e in (-TWO_PI, 0.0, TWO_PI, 2.0 * TWO_PI)]
    )
    outside = np.concatenate(
        [rng.uniform(-100.0, 100.0, 5000), rng.uniform(-1e300, 1e300, 100)]
    )
    specials = np.array(WRAP_SPECIALS)
    non_finite = np.array([math.nan, math.inf, -math.inf, 2.0 * TWO_PI, -7.0])
    for x in (in_range, near_edges, outside, specials, non_finite):
        assert_same_bits(wrap_angle(x), np.mod(x, TWO_PI))
        both = np.concatenate([x, in_range[:50]])
        assert_same_bits(wrap_angle(both), np.mod(both, TWO_PI))
    for v in WRAP_SPECIALS + [math.nan, math.inf, -math.inf, 40.0]:
        assert_same_bits(wrap_angle(v), np.mod(v, TWO_PI))
    # where np.mod's answer is not the obvious one
    assert math.copysign(1.0, wrap_angle(np.array([-0.0]))[0]) == 1.0
    assert wrap_angle(np.array([-1e-17]))[0] == TWO_PI
    assert wrap_angle(np.array([])).shape == (0,)


@NON_FINITE_INPUTS
def test_wrap_angle_writes_in_place():
    rng = np.random.default_rng(4)
    for x in (rng.uniform(-TWO_PI, 2.0 * TWO_PI, 500), np.array([-3.0, math.nan])):
        want = np.mod(x, TWO_PI)
        got = x.copy()
        assert wrap_angle(got, out=got) is got
        assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# the fused pendulum kernel
# ---------------------------------------------------------------------------


def _pendulum_variants():
    line = ChartAtlas.trivial("line")
    x_star = 0.5 * math.pi
    return {
        "census": builtin_system("damped_pendulum", **CENSUS),
        "plain": builtin_system("damped_pendulum"),
        "freeze_only": builtin_system("damped_pendulum", freeze_halfwidth=0.025),
        "boost_only": builtin_system("damped_pendulum", antipode_gain=5.0),
        # freeze window and gain boost around different centres
        "two_centres": assemble_system(
            "two_centres",
            line,
            ("velocity_drive", {"freeze_halfwidth": 0.1, "freeze_center": 1.0}),
            ("damped_restoring", {"x_star": x_star, "antipode_gain": 2.0, "damping": 0.5}),
            x_star,
        ),
        # an antipode past 2pi: no window fits, every lane is near
        "no_window": builtin_system("damped_pendulum", x_star=1.5 * math.pi, **CENSUS),
        "wide_ramp": assemble_system(
            "wide_ramp",
            line,
            ("velocity_drive", {"freeze_halfwidth": 0.3, "freeze_center": 4.0, "ramp": 2.0}),
            # a target at which sin(2pi - x*) and sin(-x*) differ, so the
            # controller's second wrap shows
            ("damped_restoring", {"x_star": 1.0, "antipode_gain": -0.5, "antipode_width": 1.1}),
            1.0,
        ),
    }


def _edge_angles(system):
    """Chart-local angles where the wrap and the near-lane windows turn."""
    pi = math.pi
    angles = [
        -1e-17, -0.0, 0.0, 5e-324, -5e-324, TWO_PI, math.nextafter(TWO_PI, 0.0),
        # chart B close to its excluded point
        pi - 1e-12, -(pi - 1e-12), math.nextafter(pi, 0.0), -math.nextafter(pi, 0.0),
        # a few steps past a chart edge, as SWITCH_STRIDE allows
        -0.03, TWO_PI + 0.03, pi + 0.03, -(pi + 0.03), TWO_PI + 1e-12,
        math.nan, math.inf, -math.inf,
    ]
    params = system.params
    centres = [
        params["plant"]["params"].get("freeze_center", 1.5 * pi),
        params["controller"]["params"].get("x_star", 0.5 * pi) + pi,
    ]
    for c in centres:
        for r in (0.0, 0.025, 0.075, 0.15, 0.3, 1.1, 2.3, 0.075 - 1e-7, 0.3 - 1e-7, 1.1 - 1e-7):
            for side in (-1.0, 1.0):
                a = c + side * r
                angles += [a, math.nextafter(a, -math.inf), math.nextafter(a, math.inf)]
    return np.array(angles)


@NON_FINITE_INPUTS
@pytest.mark.parametrize("variant", sorted(_pendulum_variants()))
def test_fused_kernel_matches_generic_fields(variant):
    system = _pendulum_variants()[variant]
    assert system.kernel is not None and system.kernel.matches(system)
    rng = np.random.default_rng(11)
    grid = GridSpec(100, 50, (-2.0, 2.0))
    starts = [
        _normalize_start(system, (float(a), float(v)))
        for a in grid.angle_values()
        for v in grid.fibre_values()
    ]
    edges = _edge_angles(system)
    theta = np.concatenate(
        [[t for _c, t, _u in starts], edges, rng.uniform(-3.5, 6.6, 2000)]
    )
    u = np.concatenate(
        [
            [v for _c, _t, v in starts],
            np.resize([0.0, -0.0, 1.5, -2.0, 1e-300, -7.0], edges.size),
            rng.uniform(-3.0, 3.0, 2000),
        ]
    )
    chart = np.concatenate(
        [[c for c, _t, _u in starts], np.resize([0, 1], edges.size), np.zeros(2000, int)]
    ).astype(np.int8)
    fields = system.kernel.bind(theta.size)
    f = np.full(theta.size, 99.0)
    g = np.full(theta.size, 99.0)
    fields(chart, theta, u, f, g)
    want_f, want_g = _field_arrays(system, chart, theta, u)
    assert_same_bits(f, want_f)
    assert_same_bits(g, want_g)
    # the buffers are reused: a second call on other lanes is just as exact
    theta2, u2 = theta[::-1].copy(), u.copy()
    fields(chart, theta2, u2, f, g)
    want_f, want_g = _field_arrays(system, chart, theta2, u2)
    assert_same_bits(f, want_f)
    assert_same_bits(g, want_g)


def _run_both(system, chart, theta, u, duration, record_steps, **kw):
    fused = _batch_integrate(system, chart, theta, u, duration, 1e-3, record_steps, **kw)
    generic = _batch_integrate(
        replace(system, kernel=None), chart, theta, u, duration, 1e-3, record_steps, **kw
    )
    for got, want in zip(fused[:5], generic[:5]):
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert_same_bits(got, want)
    assert fused[5] == generic[5]
    return fused


def test_fused_census_integration_matches_generic_path():
    system = builtin_system("damped_pendulum", **CENSUS)
    grid = GridSpec(100, 50, (-2.0, 2.0))
    starts = [
        _normalize_start(system, (float(a), float(v)))
        for a in grid.angle_values()
        for v in grid.fibre_values()
    ]
    chart, theta, u = (list(col) for col in zip(*starts))
    _t, rec_c, _th, _u, switches, _ev = _run_both(
        system, chart, theta, u, 1.2, list(range(0, 1201, 50))
    )
    # lanes crossed charts both ways
    assert switches.sum() > 500
    assert np.any(rec_c[-1] != rec_c[0])


def test_fused_single_lane_switch_events_match_generic_path():
    system = builtin_system("damped_pendulum", **CENSUS)
    # two starts that leave chart A across its seam, two at the antipode
    cases = [((6.0, 2.0), True), ((0.3, -2.0), True), ((4.70, 0.0), False), ((4.72, 0.3), False)]
    for start, crosses in cases:
        c, t, v = _normalize_start(system, start)
        events = _run_both(
            system, [c], [t], [v], 3.0, range(0, 3001, 7), record_switch_events=True
        )[5]
        assert bool(events) == crosses


def test_fused_retraction_batch_matches_generic_path():
    # the plateau-freezing path that flow_retraction takes
    system = builtin_system("damped_pendulum")
    rng = np.random.default_rng(5)
    starts = [
        _normalize_start(system, (float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(-2.0, 2.0))))
        for _ in range(40)
    ]
    chart, theta, u = (list(col) for col in zip(*starts))
    _t, _c, rec_theta, _u, _sw, _ev = _run_both(
        system, chart, theta, u, 12.0, [0, 200, 1000, 4000, 8000, 12000], plateau_tol=0.3
    )
    # the batch froze after 4 s: the last two records repeat its state
    assert not np.array_equal(rec_theta[3], rec_theta[4])
    assert np.array_equal(rec_theta[4], rec_theta[5])


def test_swapped_callables_take_the_generic_path():
    system = builtin_system("damped_pendulum", **CENSUS)
    frozen = replace(system, plant=lambda theta, u: 0.0 * theta + 0.0 * u)
    assert not frozen.kernel.matches(frozen)
    _t, _c, rec_theta, _u, _sw, _ev = _batch_integrate(
        frozen, [0, 0], [1.0, 2.0], [1.0, -1.0], 0.5, 1e-3, [500]
    )
    # the zero plant really ran: no angle moved
    assert rec_theta[-1].tolist() == [1.0, 2.0]
