"""Simulator tests: atlas transport, compatibility, integration, basins,
retractions, experiment specs."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrestab import bundlesim
from fibrestab.bundlesim import (
    CONVERGED_FIBRE,
    CONVERGED_POINT,
    DEFAULT_S_GRID,
    DIVERGED,
    TIMEOUT,
    TWO_PI,
    BasinExperiment,
    ChartAtlas,
    CompatibilityExperiment,
    CompatibilityNotVerified,
    GridSpec,
    IntegrateExperiment,
    NonConvergentSample,
    NonFiniteState,
    RetractionExperiment,
    RetractionReport,
    TrajectoryRecord,
    _batch_integrate,
    _fibre_sample_band,
    _lane_statuses,
    _normalize_start,
    _target_distances,
    assemble_system,
    basin,
    builtin_system,
    bundle_distance,
    check_compatibility,
    circle_distance,
    classify_convergence,
    flow_retraction,
    integrate,
    load_experiment,
    run_experiment,
    state_in_chart,
    system_from_spec,
)

X_STAR = 0.5 * math.pi


# ---------------------------------------------------------------------------
# atlas and transport
# ---------------------------------------------------------------------------


def test_overlap_components():
    atlas = ChartAtlas.trivial()
    assert atlas.overlap_component(0.5) == 1
    assert atlas.overlap_component(4.0) == 2
    assert atlas.overlap_component(0.0) is None
    assert atlas.overlap_component(math.pi) is None
    assert atlas.overlap_component(math.pi + TWO_PI) is None


def test_chart_coordinate_maps():
    atlas = ChartAtlas.trivial()
    assert atlas.to_chart_b(1.0) == 1.0
    assert atlas.to_chart_b(5.0) == 5.0 - TWO_PI
    assert atlas.to_chart_b(math.pi) is None
    assert atlas.to_chart_a(-1.0) == -1.0 + TWO_PI
    assert atlas.to_chart_a(1.0) == 1.0
    assert atlas.to_chart_a(0.0) is None


def test_atlas_validation():
    with pytest.raises(ValueError):
        ChartAtlas(fibre="plane")
    with pytest.raises(ValueError):
        ChartAtlas(tau_o1=2)
    assert ChartAtlas.mobius().twisted
    assert ChartAtlas.klein().fibre == "circle"
    assert not ChartAtlas.trivial().twisted


@given(
    theta=st.floats(min_value=1e-6, max_value=TWO_PI - 1e-6),
    u=st.floats(min_value=-0.99, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_transport_round_trip_is_exact(theta, u):
    atlas = ChartAtlas.mobius()
    if atlas.overlap_component(theta) is None:
        return
    there = state_in_chart(("A", theta, u), "B", atlas)
    back = state_in_chart(there, "A", atlas)
    # tau^2 = 1 and the angle shifts cancel exactly in floating point
    assert back == ("A", theta, u)


def test_transport_rejects_seam_points():
    atlas = ChartAtlas.trivial()
    with pytest.raises(ValueError):
        state_in_chart(("A", math.pi, 0.0), "B", atlas)
    with pytest.raises(ValueError):
        state_in_chart(("B", 0.0, 0.0), "A", atlas)
    with pytest.raises(ValueError):
        state_in_chart(("C", 1.0, 0.0), "A", atlas)


def test_bundle_distance_sees_through_charts():
    atlas = ChartAtlas.mobius()
    a = ("A", 5.0, 0.25)
    b = state_in_chart(a, "B", atlas)
    assert bundle_distance(a, b, atlas) == 0.0
    assert bundle_distance(a, ("A", 5.0, 0.5), atlas) == pytest.approx(0.25)
    assert bundle_distance(("A", 1.0, 0.0), ("A", 1.2, 0.0), atlas) == pytest.approx(0.2)


def test_circle_distance_wraps():
    assert circle_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2)
    assert float(circle_distance(math.pi, 0.0)) == pytest.approx(math.pi)


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------


def test_mobius_feedback_is_exactly_compatible():
    rep = check_compatibility(builtin_system("mobius_damped"), 5000)
    assert rep.samples_per_component >= 5000
    assert rep.max_residual_f < 1e-12
    assert rep.max_residual_g < 1e-12
    assert rep.passed
    assert rep.by_component["O2"]["tau"] == -1


def test_constant_push_fails_on_the_twisted_arc():
    rep = check_compatibility(builtin_system("mobius_incompatible"), 400)
    assert rep.max_residual_f < 1e-12
    # |g - (-g)| = 2 * push = 1.0 on O2
    assert rep.max_residual_g == pytest.approx(1.0)
    assert rep.by_component["O1"]["max_residual_g"] < 1e-12
    assert not rep.passed


def test_trivial_atlas_controllers_are_compatible():
    for name in ("damped_pendulum", "fibre_drift", "linear_patch"):
        rep = check_compatibility(builtin_system(name), 200)
        assert rep.passed, name


def test_circle_fibre_drift_reverses_under_the_flip():
    klein = assemble_system(
        "k", ChartAtlas.klein(), ("sine_gradient", {}), ("unit_drift", {}), X_STAR
    )
    rep = check_compatibility(klein, 100)
    assert rep.max_residual_g == pytest.approx(2.0)
    still = assemble_system(
        "k0", ChartAtlas.klein(), ("sine_gradient", {}), ("constant_push", {"push": 0.0}), X_STAR
    )
    assert check_compatibility(still, 100).passed


def test_compatibility_report_json():
    blob = check_compatibility(builtin_system("mobius_damped"), 64).to_json_dict()
    assert blob["pass"] is True
    assert set(blob["by_component"]) == {"O1", "O2"}
    json.dumps(blob)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_pendulum_converges_near_target():
    pend = builtin_system("damped_pendulum")
    traj = integrate(pend, (X_STAR + 0.1, 0.0), duration=14.0)
    assert traj.terminal_status == CONVERGED_POINT
    chart, theta, u = traj.final_state()
    assert chart == "A"
    assert abs(theta - X_STAR) < 1e-3 and abs(u) < 1e-3


def test_pendulum_antipodal_equilibrium_is_stuck():
    # with a freeze window the angle at the antipode cannot move at all
    pend = builtin_system("damped_pendulum", freeze_halfwidth=0.025)
    traj = integrate(pend, (X_STAR + math.pi, 0.0), duration=5.0)
    assert traj.terminal_status == TIMEOUT
    assert all(theta == X_STAR + math.pi for _t, _c, theta, _u in traj.samples)


def test_zero_field_is_constant_with_no_switches():
    still = assemble_system(
        "still", ChartAtlas.trivial(), ("zero", {}), ("linear_decay", {"rate": 0.0}), X_STAR
    )
    traj = integrate(still, ("A", 2.0, 0.25), duration=3.0)
    assert traj.chart_switches == 0
    assert all(s[1] == "A" and s[2] == 2.0 and s[3] == 0.25 for s in traj.samples)


def test_integration_requires_compatibility():
    bad = builtin_system("mobius_incompatible")
    with pytest.raises(CompatibilityNotVerified):
        integrate(bad, ("A", 3.0, 0.1), duration=0.1)
    # the gate can be bypassed explicitly, e.g. to inspect the broken flow
    traj = integrate(bad, ("A", 3.0, 0.1), duration=0.05, verify=False)
    assert traj.samples


def test_interval_fibre_boundary_contact_raises():
    esc = assemble_system(
        "esc", ChartAtlas.trivial("interval"), ("zero", {}), ("unit_drift", {}), X_STAR
    )
    with pytest.raises(NonFiniteState):
        integrate(esc, (1.0, 0.5), duration=2.0)


def test_switch_samples_agree_across_charts():
    mob = builtin_system("mobius_damped")
    traj = integrate(mob, ("A", TWO_PI - 0.05, 0.5), duration=2.0)
    assert traj.chart_switches >= 1
    seen = 0
    for prev, cur in zip(traj.samples, traj.samples[1:]):
        if prev[1] != cur[1]:
            assert cur[0] == prev[0]  # switches are recorded as a time-equal pair
            d = bundle_distance((prev[1], prev[2], prev[3]), (cur[1], cur[2], cur[3]), mob.atlas)
            assert d < 1e-12
            seen += 1
    assert seen >= 1


def test_start_validation():
    pend = builtin_system("damped_pendulum")
    with pytest.raises(ValueError):
        integrate(pend, ("C", 1.0, 0.0), duration=0.1)
    with pytest.raises(ValueError):
        integrate(pend, ("A", -0.5, 0.0), duration=0.1)
    with pytest.raises(ValueError):
        integrate(pend, ("B", 3.5, 0.0), duration=0.1)
    with pytest.raises(ValueError):
        integrate(pend, ("A", 1.0, 0.0), duration=0.1, step=0.0)


def test_global_starts_near_the_seam_use_chart_b():
    mob = builtin_system("mobius_damped")
    assert _normalize_start(mob, (0.05, 0.5)) == (1, 0.05, 0.5)
    chart, theta, u = _normalize_start(mob, (TWO_PI - 0.05, 0.5))
    assert chart == 1 and theta == pytest.approx(-0.05) and u == -0.5
    assert _normalize_start(mob, (0.0, 0.5)) == (1, 0.0, -0.5)
    assert _normalize_start(mob, (3.0, 0.5)) == (0, 3.0, 0.5)


def test_integration_is_deterministic():
    pend = builtin_system("damped_pendulum")
    a = integrate(pend, (1.0, 0.5), duration=1.0)
    b = integrate(pend, (1.0, 0.5), duration=1.0)
    assert a == b


def test_csv_rows_format():
    lin = builtin_system("linear_patch")
    traj = integrate(lin, ("A", 1.0, 0.5), duration=0.2)
    rows = list(traj.to_csv_rows())
    assert rows[0] == ("time", "chart", "angle", "fibre")
    assert rows[1][0] == "0" and rows[1][2] == "1"
    assert all(len(r) == 4 for r in rows)


def test_trajectory_json_round_trip():
    # starting on the target fibre with a still-decaying fibre coordinate
    lin = builtin_system("linear_patch")
    traj = integrate(lin, ("A", X_STAR, 0.5), duration=0.2)
    blob = json.loads(json.dumps(traj.to_json_dict()))
    assert blob["terminal_status"] == CONVERGED_FIBRE
    assert blob["chart_switches"] == 0
    assert len(blob["samples"]) == len(traj.samples)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_fibre_drift_settles_on_the_fibre_only():
    drift = builtin_system("fibre_drift")
    traj = integrate(drift, (2.0, 0.0), duration=15.0)
    assert traj.terminal_status == CONVERGED_FIBRE
    assert classify_convergence(traj, drift, mode="weak") == CONVERGED_FIBRE
    # the fibre coordinate really is drifting
    assert traj.final_state()[2] > 10.0


def test_divergence_is_reported():
    blow = assemble_system(
        "blow", ChartAtlas.trivial(), ("zero", {}), ("linear_decay", {"rate": -1.0}), X_STAR
    )
    traj = integrate(blow, (X_STAR, 1.0), duration=16.0, step=1e-2)
    assert traj.terminal_status == DIVERGED


def test_classification_validation():
    lin = builtin_system("linear_patch")
    traj = integrate(lin, ("A", 1.0, 0.5), duration=0.2)
    with pytest.raises(ValueError):
        classify_convergence(traj, lin, eps=0.0)
    with pytest.raises(ValueError):
        classify_convergence(traj, lin, dwell=-1.0)
    with pytest.raises(ValueError):
        classify_convergence(traj, lin, mode="sideways")


def test_strong_classification_is_chart_aware():
    mob = builtin_system("mobius_damped")
    # a constant trajectory sitting exactly on the target, expressed in chart B
    target_b = state_in_chart(("A", X_STAR, 0.0), "B", mob.atlas)
    samples = tuple((0.1 * k, "B", target_b[1], target_b[2]) for k in range(21))
    traj = TrajectoryRecord("fake", 0.1, 2.0, samples, 0)
    assert classify_convergence(traj, mob, mode="strong") == CONVERGED_POINT


def test_strong_classification_carries_the_target_through_the_twist():
    # a target on O2, where the Mobius transition flips the fibre
    mob = replace(builtin_system("mobius_damped"), x_star=1.5 * math.pi, u_star=0.3)
    target_b = state_in_chart(("A", mob.x_star, mob.u_star), "B", mob.atlas)
    assert target_b[2] == -0.3
    for u, status in ((-0.3, CONVERGED_POINT), (0.3, CONVERGED_FIBRE)):
        samples = tuple((0.1 * k, "B", target_b[1], u) for k in range(21))
        traj = TrajectoryRecord("fake", 0.1, 2.0, samples, 0)
        assert classify_convergence(traj, mob, mode="strong") == status


# ---------------------------------------------------------------------------
# basins
# ---------------------------------------------------------------------------


def test_linear_patch_basin_is_one_exact_column():
    # the plant is zero, so only the grid column already at the target
    # angle can converge; u decays there and nowhere does theta move
    lin = builtin_system("linear_patch")
    rep = basin(
        lin,
        GridSpec(theta_cells=8, u_cells=6, u_range=(-1.0, 1.0)),
        mode="strong",
        duration=12.0,
        step=2e-3,
    )
    assert rep.total_cells == 48
    assert rep.converged_cells == 6
    assert rep.converged_fraction == pytest.approx(6 / 48)
    assert all(j != 2 for j, _i, _a, _v, _s in rep.nonconvergent)
    assert rep.status_counts[CONVERGED_POINT] == 6
    assert rep.status_counts[TIMEOUT] == 42


def test_pendulum_small_basin_has_a_stuck_column():
    pend = builtin_system(
        "damped_pendulum",
        freeze_halfwidth=0.025,
        antipode_gain=5.0,
        antipode_width=0.3,
    )
    # an even u count keeps u = 0 off the grid (those cells cannot move)
    rep = basin(
        pend,
        GridSpec(theta_cells=12, u_cells=4, u_range=(-1.0, 1.0)),
        mode="weak",
        duration=30.0,
        step=2e-3,
    )
    # the antipode 3pi/2 is grid column 9 of 12
    assert len(rep.nonconvergent_column(9)) == 4
    assert rep.converged_cells == rep.total_cells - 4
    for j, _i, angle, _v, status in rep.nonconvergent:
        assert j == 9 and angle == pytest.approx(1.5 * math.pi)
        assert status == TIMEOUT


def test_basin_is_deterministic():
    lin = builtin_system("linear_patch")
    grid = GridSpec(theta_cells=6, u_cells=4, u_range=(-1.0, 1.0))
    a = basin(lin, grid, mode="weak", duration=3.0, step=5e-3)
    b = basin(lin, grid, mode="weak", duration=3.0, step=5e-3)
    assert a == b


def test_basin_report_json():
    lin = builtin_system("linear_patch")
    rep = basin(
        lin, GridSpec(4, 3, (-0.5, 0.5)), mode="weak", duration=2.0, step=5e-3
    )
    blob = json.loads(json.dumps(rep.to_json_dict()))
    assert blob["grid_spec"] == {"theta_cells": 4, "u_cells": 3, "u_range": [-0.5, 0.5]}
    assert blob["total_cells"] == 12
    assert blob["converged_cells"] + len(blob["nonconvergent_points"]) == 12
    assert blob["target_mode"] == "weak"


def test_basin_rejects_unknown_mode():
    with pytest.raises(ValueError):
        basin(builtin_system("linear_patch"), GridSpec(2, 2), mode="middling")


# ---------------------------------------------------------------------------
# one classifier: trajectories, basin cells and the retraction precheck
# ---------------------------------------------------------------------------

GOAL = {"strong": CONVERGED_POINT, "weak": CONVERGED_FIBRE}
# column 1 (angle 0.196 < SWITCH_MARGIN) starts in chart B
CLASSIFIER_GRID = GridSpec(theta_cells=32, u_cells=2, u_range=(-0.4, 0.4))
CLASSIFIER_RUN = dict(duration=30.0, step=0.05)


def _cell_statuses(rep):
    """{(j, i): status} of every cell of a basin report, in grid order."""
    grid = rep.grid
    cells = {
        (j, i): GOAL[rep.target_mode]
        for j in range(grid.theta_cells)
        for i in range(grid.u_cells)
    }
    for j, i, _angle, _fibre, status in rep.nonconvergent:
        cells[j, i] = status
    return cells


@pytest.mark.parametrize("name", ["mobius_damped", "linear_patch"])
def test_basin_statuses_match_integrate_cell_by_cell(name):
    system = builtin_system(name)
    strong, weak = (
        _cell_statuses(basin(system, CLASSIFIER_GRID, mode=m, **CLASSIFIER_RUN))
        for m in ("strong", "weak")
    )
    assert set(strong.values()) == {CONVERGED_POINT, TIMEOUT}
    angles, fibres = CLASSIFIER_GRID.angle_values(), CLASSIFIER_GRID.fibre_values()
    for (j, i), status in strong.items():
        # a record every 2 steps of 0.05 samples the tail as basin does
        traj = integrate(
            system, (angles[j], fibres[i]), record_stride=2, verify=False,
            **CLASSIFIER_RUN,
        )
        assert traj.terminal_status == status, (j, i)
        assert classify_convergence(traj, system, mode="weak") == weak[j, i], (j, i)


def test_chart_b_lanes_converge_to_the_target_point():
    mob = builtin_system("mobius_damped")
    rep = basin(mob, CLASSIFIER_GRID, mode="strong", **CLASSIFIER_RUN)
    start = _normalize_start(mob, (CLASSIFIER_GRID.angle_values()[1], 0.4))
    assert start[0] == 1
    assert _cell_statuses(rep)[1, 1] == CONVERGED_POINT


@pytest.mark.parametrize(
    "system, grid, mode, run, statuses",
    [
        (
            builtin_system("mobius_damped"), CLASSIFIER_GRID, "strong",
            CLASSIFIER_RUN, {CONVERGED_POINT, TIMEOUT},
        ),
        (
            builtin_system("mobius_damped"), CLASSIFIER_GRID, "weak",
            CLASSIFIER_RUN, {CONVERGED_FIBRE, TIMEOUT},
        ),
        # u' = +u: the u = 0 row stays put, every other cell diverges
        (
            assemble_system(
                "blow", ChartAtlas.trivial(), ("zero", {}),
                ("linear_decay", {"rate": -1.0}), X_STAR,
            ),
            GridSpec(theta_cells=4, u_cells=3, u_range=(-1.0, 1.0)),
            "strong",
            dict(duration=18.0, step=0.05),
            {CONVERGED_POINT, DIVERGED, TIMEOUT},
        ),
    ],
    ids=["mobius-point", "mobius-fibre", "blowup-point"],
)
def test_retraction_precheck_rejects_exactly_the_basin_nonconvergent_cells(
    system, grid, mode, run, statuses
):
    cells = _cell_statuses(basin(system, grid, mode=mode, **run))
    assert set(cells.values()) == statuses
    points = [(a, v) for a in grid.angle_values() for v in grid.fibre_values()]
    failing = [
        (idx, DIVERGED if status == DIVERGED else TIMEOUT)
        for idx, status in enumerate(cells.values())
        if status != GOAL[mode]
    ]
    retract = dict(
        target_kind="point" if mode == "strong" else "fibre",
        step=run["step"],
        t_max=20.0,
        precheck_duration=run["duration"],
        verify=False,
    )
    with pytest.raises(NonConvergentSample) as exc:
        flow_retraction(system, sample_points=points, **retract)
    assert str(exc.value) == (
        f"{len(failing)} of {len(points)} samples do not converge "
        f"(first failures: {failing[:3]})"
    )
    # every cell basin counts as converged passes the precheck
    converged = [p for p, status in zip(points, cells.values()) if status == GOAL[mode]]
    flow_retraction(system, sample_points=converged, **retract)


def test_pendulum_reaches_a_target_on_the_seam():
    pend = builtin_system("damped_pendulum", x_star=math.pi)
    traj = integrate(pend, (0.5 * math.pi, 0.5), duration=40.0, step=1e-2, record_stride=10)
    assert traj.final_state()[0] == "A"
    assert traj.terminal_status == CONVERGED_POINT


def test_seam_targets_have_no_chart_b_image():
    # x_star is a chart-A angle, and the seams 0 and pi have no chart-B
    # image: a chart-B tail on a target at 0 only reaches the fibre, while
    # a chart-A tail on a target at pi reaches the point
    for x_star, chart, status in ((0.0, "B", CONVERGED_FIBRE), (math.pi, "A", CONVERGED_POINT)):
        lin = builtin_system("linear_patch", x_star=x_star)
        samples = tuple((0.1 * k, chart, x_star, 0.0) for k in range(21))
        traj = TrajectoryRecord("fake", 0.1, 2.0, samples, 0)
        assert classify_convergence(traj, lin, mode="strong") == status


def test_seam_targets_are_rejected_by_strong_basins_and_point_retractions():
    for x_star in (0.0, math.pi):
        pend = builtin_system("damped_pendulum", x_star=x_star)
        with pytest.raises(ValueError, match="off the seams"):
            basin(pend, GridSpec(2, 2), mode="strong", duration=1.0)
        with pytest.raises(ValueError, match="on a seam"):
            flow_retraction(pend, n_samples=2, precheck_duration=1.0)


# ---------------------------------------------------------------------------
# chart-switch invariance (batched: 50 initial conditions, both charts)
# ---------------------------------------------------------------------------


def test_chart_switch_invariance_on_random_starts():
    mob = builtin_system("mobius_damped")
    rng = np.random.default_rng(42)
    starts_a, starts_b = [], []
    while len(starts_a) < 50:
        theta = float(rng.uniform(0.25, TWO_PI - 0.25))
        if abs(theta - math.pi) <= 0.05:
            continue
        u = float(rng.uniform(-0.8, 0.8))
        starts_a.append(("A", theta, u))
        starts_b.append(state_in_chart(("A", theta, u), "B", mob.atlas))
    batch = [( {"A": 0, "B": 1}[c], t, u) for c, t, u in starts_a + starts_b]
    n_steps = int(round(8.0 / 1e-3))
    _t, rc, rth, ru, _sw, _ev = _batch_integrate(
        mob,
        [c for c, _t_, _u in batch],
        [t for _c, t, _u in batch],
        [u for _c, _t_, u in batch],
        8.0,
        1e-3,
        [n_steps],
    )
    names = "AB"
    worst = 0.0
    for i in range(50):
        pa = (names[rc[-1, i]], float(rth[-1, i]), float(ru[-1, i]))
        pb = (names[rc[-1, 50 + i]], float(rth[-1, 50 + i]), float(ru[-1, 50 + i]))
        worst = max(worst, bundle_distance(pa, pb, mob.atlas))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# integrator accuracy
# ---------------------------------------------------------------------------


def test_angle_satisfies_the_plant_equation():
    # 5-point stencil derivative of the recorded angle vs f(theta, u)
    pend = builtin_system("damped_pendulum")
    traj = integrate(pend, (3.0, 0.5), duration=2.0, record_stride=1)
    rows = traj.samples
    h = traj.step
    checked = 0
    for k in range(2, len(rows) - 2, 97):
        window = rows[k - 2 : k + 3]
        if len({c for _t, c, _th, _u in window}) > 1:
            continue
        th = [r[2] for r in window]
        deriv = (-th[4] + 8 * th[3] - 8 * th[1] + th[0]) / (12 * h)
        _t, chart, theta, u = rows[k]
        f, _g = pend.fields_in_chart(chart, np.array([theta]), np.array([u]))
        assert abs(deriv - float(f[0])) < 1e-11
        checked += 1
    assert checked > 10


def test_rk4_is_fourth_order():
    lin = builtin_system("linear_patch")
    errors = []
    for step in (0.02, 0.01):
        traj = integrate(lin, (1.0, 1.0), duration=1.0, step=step, record_stride=10**9)
        errors.append(abs(traj.final_state()[2] - math.exp(-1.0)))
    ratio = errors[0] / errors[1]
    assert 12.0 < ratio < 20.0


# ---------------------------------------------------------------------------
# retraction
# ---------------------------------------------------------------------------


def test_linear_patch_retraction_matches_closed_form():
    lin = builtin_system("linear_patch")
    s_grid = (0.0, 0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0)
    times = [s / (1.0 - s) for s in s_grid]
    starts = [(1.0, 0.7), (4.0, -1.3), (2.5, 2.0)]
    states = [_normalize_start(lin, p) for p in starts]
    _t, _c, _th, ru, _sw, _ev = _batch_integrate(
        lin,
        [c for c, _t_, _u in states],
        [t for _c, t, _u in states],
        [u for _c, _t_, u in states],
        times[-1],
        1e-3,
        [int(round(t / 1e-3)) for t in times],
    )
    for i, t in enumerate(times):
        for b, (_theta, u0) in enumerate(starts):
            assert abs(ru[i, b] - u0 * math.exp(-t)) < 1e-9


def test_pendulum_retraction_defects():
    pend = builtin_system("damped_pendulum")
    rep = flow_retraction(pend, n_samples=40, seed=0, t_max=200.0, precheck_duration=40.0)
    assert rep.identity_defect == 0.0
    assert rep.fixed_on_target_defect < 1e-9
    assert rep.endpoint_defect < 1e-3
    assert rep.identity_at_zero and rep.fixed_on_target and rep.endpoint_in_target


def test_fibre_kind_retraction_fixes_the_fibre():
    drift = builtin_system("fibre_drift")
    rep = flow_retraction(
        drift, n_samples=20, seed=3, t_max=100.0, target_kind="fibre",
        precheck_duration=30.0,
    )
    assert rep.fixed_on_target_defect == 0.0
    assert rep.endpoint_defect < 1e-3


def test_retraction_rejects_nonconvergent_samples():
    pend = builtin_system("damped_pendulum")
    with pytest.raises(NonConvergentSample):
        flow_retraction(
            pend, sample_points=[(X_STAR + math.pi, 0.0)], precheck_duration=5.0
        )


def test_retraction_s_grid_validation():
    pend = builtin_system("damped_pendulum")
    with pytest.raises(ValueError):
        flow_retraction(pend, s_grid=(0.0, 0.5))
    with pytest.raises(ValueError):
        flow_retraction(pend, s_grid=(0.5, 0.0, 1.0))
    with pytest.raises(ValueError):
        flow_retraction(pend, target_kind="area")
    with pytest.raises(ValueError):
        # s = 0.9 wants t = 9 but t_max is smaller: the steps collide
        flow_retraction(pend, t_max=5.0)


def _two_pass_retraction(
    system, seen, sample_points=None, s_grid=DEFAULT_S_GRID, n_samples=200, seed=0,
    t_max=1e3, step=1e-3, eps=1e-3, fixed_tol=1e-9, target_kind="point",
    precheck_duration=50.0,
):
    """The retraction as two passes: a precheck batch of the samples over
    ``precheck_duration``, then the retraction batch again from t = 0.
    Appends to ``seen`` the rows and statuses the precheck classified,
    then the rows the report measured."""
    times = [s / (1.0 - s) if s < 1.0 else t_max for s in s_grid]
    record_steps = [int(round(t / step)) for t in times]
    atlas = system.atlas
    if sample_points is None:
        rng = np.random.default_rng(seed)
        lo, hi = _fibre_sample_band(atlas.fibre)
        if atlas.fibre == "line":
            lo, hi = -2.0, 2.0
        sample_points = [
            (float(rng.uniform(0.0, TWO_PI)), float(rng.uniform(lo, hi)))
            for _ in range(n_samples)
        ]
    states = [_normalize_start(system, p) for p in sample_points]
    mode = "strong" if target_kind == "point" else "weak"

    n_steps = max(1, int(round(precheck_duration / step)))
    tail_stride = max(1, int(round(0.1 / step)))
    first_tail = max(0, n_steps - int(round(1.0 / step)))
    tail_steps = [0, *range(first_tail, n_steps, tail_stride), n_steps]
    rec_t, rec_c, rec_th, rec_u, _sw, _ev = _batch_integrate(
        system, *zip(*states), precheck_duration, step, tail_steps
    )
    tail = rec_t >= precheck_duration - 1.0
    rows = (rec_c[tail], rec_th[tail], rec_u[tail])
    status = _lane_statuses(system, *rows, mode, eps)
    seen.append((*rows, status))
    failures = [
        (i, DIVERGED if s == DIVERGED else TIMEOUT)
        for i, s in enumerate(status)
        if s != GOAL[mode]
    ]
    if failures:
        raise NonConvergentSample(
            f"{len(failures)} of {len(states)} samples do not converge "
            f"(first failures: {failures[:3]})"
        )

    if target_kind == "point":
        target_states = [_normalize_start(system, (system.x_star, system.u_star))]
    else:
        lo, hi = _fibre_sample_band(atlas.fibre)
        target_states = [
            _normalize_start(system, (system.x_star, v)) for v in np.linspace(lo, hi, 5)
        ]
    batch = states + target_states
    theta0 = [t for _c, t, _u in batch]
    u0 = [u for _c, _t, u in batch]
    rec_t, rec_c, rec_th, rec_u, _sw, _ev = _batch_integrate(
        system, *zip(*batch), t_max, step, record_steps,
        plateau_tol=1e-14, plateau_angle_only=(target_kind == "fibre"),
    )
    n = len(states)
    d_theta = np.abs(rec_th[0, :n] - np.array(theta0[:n]))
    d_u = np.abs(rec_u[0, :n] - np.array(u0[:n]))
    seen.append((rec_c, rec_th, rec_u))
    ang, point = _target_distances(system, rec_c, rec_th, rec_u)
    dist = ang if target_kind == "fibre" else point
    return RetractionReport(
        system=system.name,
        target_kind=target_kind,
        s_grid=tuple(s_grid),
        sample_count=n,
        t_max=t_max,
        identity_defect=float(max(np.max(d_theta), np.max(d_u))),
        fixed_on_target_defect=float(np.max(dist[:, n:])),
        endpoint_defect=float(np.max(dist[-1, :n])),
        eps=eps,
        fixed_tol=fixed_tol,
    )


def _outcome(run):
    try:
        return run()
    except NonConvergentSample as exc:
        return f"NonConvergentSample: {exc}"


@pytest.mark.parametrize(
    "name, kw, same_rows",
    [
        # the batch freezes by t = 32, before the precheck ends at 40
        (
            "linear_patch",
            dict(sample_points=[(X_STAR, 0.5), (X_STAR, -0.3)], t_max=100.0,
                 precheck_duration=40.0),
            False,
        ),
        # precheck step 71, not a multiple of the switch stride: sample 2
        # leaves chart A on that very step
        (
            "damped_pendulum",
            dict(n_samples=20, seed=0, step=0.01, t_max=20.0, precheck_duration=0.71),
            True,
        ),
        # s = 0.9753 is t = 39.49, inside the precheck's trailing second
        # but not one of its steps
        (
            "damped_pendulum",
            dict(n_samples=40, seed=0, step=0.01, s_grid=(*DEFAULT_S_GRID[:-1], 0.9753, 1.0),
                 t_max=200.0, precheck_duration=40.0),
            True,
        ),
        ("damped_pendulum", dict(n_samples=12, seed=1, step=0.01, t_max=20.03,
                                 precheck_duration=30.0), True),
        # t_max step 71, before the precheck step: sample 2 leaves chart A
        # on it, and the report reads the state a pass ending there has
        (
            "damped_pendulum",
            dict(n_samples=20, seed=0, step=0.01, s_grid=(0.0, 0.2, 1.0), t_max=0.71,
                 precheck_duration=40.0),
            True,
        ),
        ("fibre_drift", dict(n_samples=20, seed=3, step=0.01, t_max=100.0,
                             target_kind="fibre", precheck_duration=30.0), True),
        ("mobius_damped", dict(n_samples=30, seed=2, step=0.05, t_max=20.0,
                               target_kind="fibre", precheck_duration=30.0), True),
        ("mobius_damped", dict(n_samples=30, seed=2, step=0.05, t_max=20.0,
                               precheck_duration=30.55), True),
    ],
    ids=["freeze-before-precheck", "switch-on-precheck-step", "pendulum",
         "precheck-past-t_max", "switch-on-t_max-step", "fibre-drift",
         "mobius-fibre-past-t_max",
         "mobius-point-past-t_max"],
)
def test_one_pass_retraction_matches_the_two_pass_oracle(monkeypatch, name, kw, same_rows):
    system = builtin_system(name)
    want_seen, got_seen, calls, measured = [], [], [], []
    want = _outcome(lambda: _two_pass_retraction(system, want_seen, **kw))

    def counted(*args, **kwargs):
        calls.append(args[4])
        return _batch_integrate(*args, **kwargs)

    def recorded(*args):
        status = _lane_statuses(*args)
        got_seen.append((*args[1:4], status))
        return status

    def distances(*args):
        measured.append(args[1:])
        return _target_distances(*args)

    monkeypatch.setattr(bundlesim, "_batch_integrate", counted)
    monkeypatch.setattr(bundlesim, "_lane_statuses", recorded)
    monkeypatch.setattr(bundlesim, "_target_distances", distances)
    got = _outcome(lambda: flow_retraction(system, verify=False, **kw))
    monkeypatch.undo()

    assert got == want
    assert calls == [max(kw["t_max"], kw["precheck_duration"])]
    (*want_rows, want_status), *want_report = want_seen
    [(*got_rows, got_status)] = got_seen
    assert got_status.tolist() == want_status.tolist()
    if same_rows:
        for g, w in zip(got_rows, want_rows):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    else:
        # the one pass classified the frozen state
        assert not all(np.array_equal(g, w) for g, w in zip(got_rows, want_rows))
    # the report reads the s-grid rows, the last one as the pass ends at t_max
    if want_report:
        for g, w in zip(measured[-1], want_report[0]):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_retraction_report_json():
    lin = builtin_system("linear_patch")
    rep = flow_retraction(
        lin,
        sample_points=[(X_STAR, 0.5), (X_STAR, -0.3)],
        t_max=20.0,
        precheck_duration=15.0,
    )
    blob = json.loads(json.dumps(rep.to_json_dict()))
    assert blob["identity_at_zero"] is True
    assert blob["max_defects"]["endpoint"] < 1e-3
    assert blob["sample_count"] == 2


# ---------------------------------------------------------------------------
# experiment specs
# ---------------------------------------------------------------------------


def test_builtin_registry_rejects_unknowns():
    with pytest.raises(ValueError):
        builtin_system("pendulum_inverted")
    with pytest.raises(ValueError):
        builtin_system("linear_patch", bogus=1.0)
    with pytest.raises(ValueError):
        assemble_system("x", ChartAtlas.trivial(), ("warp", {}), ("unit_drift", {}), 1.0)
    with pytest.raises(ValueError):
        assemble_system("x", ChartAtlas.trivial(), ("zero", {}), ("pid", {}), 1.0)


def test_system_from_spec_variants():
    assert system_from_spec("linear_patch").name == "linear_patch"
    sys2 = system_from_spec(
        {"name": "damped_pendulum", "params": {"freeze_halfwidth": 0.025}}
    )
    assert sys2.params["plant"]["params"]["freeze_halfwidth"] == 0.025
    custom = system_from_spec(
        {
            "name": "mine",
            "atlas": {"fibre": "interval", "signs": [1, -1]},
            "plant": {"name": "angle_bump_drift"},
            "controller": {"name": "odd_damping", "params": {"gain": 1.5}},
            "target": X_STAR,
        }
    )
    assert custom.atlas.twisted
    assert check_compatibility(custom, 100).passed
    with pytest.raises(ValueError):
        system_from_spec({"atlas": {"fibre": "line"}, "plant": {"name": "zero"}})
    with pytest.raises(ValueError):
        system_from_spec(17)


def test_load_experiment_kinds_and_defaults():
    comp = load_experiment({"kind": "compatibility", "system": "mobius_damped"})
    assert isinstance(comp, CompatibilityExperiment)
    assert comp.samples_per_component == 5000
    bas = load_experiment(
        {
            "kind": "basin",
            "system": "linear_patch",
            "grid": {"theta_cells": 4, "u_cells": 3, "u_range": [-1, 1]},
            "duration": 2.0,
        }
    )
    assert isinstance(bas, BasinExperiment)
    assert bas.grid.theta_cells == 4 and bas.mode == "weak"
    ret = load_experiment({"kind": "retraction", "system": "damped_pendulum"})
    assert isinstance(ret, RetractionExperiment)
    assert ret.n_samples == 200 and ret.t_max == 1e3
    tra = load_experiment(
        {"kind": "integrate", "system": "linear_patch", "start": [1.0, 0.5]}
    )
    assert isinstance(tra, IntegrateExperiment)
    assert tra.start == (1.0, 0.5)


def test_load_experiment_rejects_bad_specs():
    with pytest.raises(ValueError):
        load_experiment({"system": "linear_patch"})
    with pytest.raises(ValueError):
        load_experiment({"kind": "basin"})
    with pytest.raises(ValueError):
        load_experiment({"kind": "teleport", "system": "linear_patch"})
    for cells in (0, -2):
        with pytest.raises(ValueError, match="at least one cell"):
            load_experiment(
                {"kind": "basin", "system": "linear_patch", "grid": {"theta_cells": cells}}
            )
    # the simulators reject the rest as the spec runs, before any step
    for spec, message in (
        ({"kind": "basin", "step": 0}, "step must be positive"),
        ({"kind": "retraction", "step": 0}, "step must be positive"),
        ({"kind": "integrate", "step": 0}, "step must be positive"),
        ({"kind": "retraction", "n_samples": 0}, "at least one sample"),
        ({"kind": "integrate", "record_stride": 0}, "record_stride"),
    ):
        with pytest.raises(ValueError, match=message):
            run_experiment(load_experiment({"system": "linear_patch", **spec}))


def test_run_experiment_dispatch():
    rep = run_experiment(
        load_experiment(
            {"kind": "compatibility", "system": "mobius_damped",
             "samples_per_component": 100}
        )
    )
    assert rep.passed
    traj = run_experiment(
        load_experiment(
            {"kind": "integrate", "system": "linear_patch",
             "start": ["A", X_STAR, 0.5], "duration": 0.5}
        )
    )
    assert traj.terminal_status == CONVERGED_FIBRE
    bas = run_experiment(
        load_experiment(
            {"kind": "basin", "system": "linear_patch",
             "grid": {"theta_cells": 4, "u_cells": 3, "u_range": [-1, 1]},
             "duration": 2.0, "step": 5e-3}
        )
    )
    assert bas.total_cells == 12
    ret = run_experiment(
        load_experiment(
            {"kind": "retraction", "system": "damped_pendulum",
             "n_samples": 2, "t_max": 20.0}
        )
    )
    assert ret.identity_at_zero
