"""Chart-based simulation of feedback fields on fibre bundles over the circle.

The base circle carries a fixed two-chart atlas: chart A covers angles
(0, 2pi) and chart B covers (-pi, pi).  They overlap in two arcs,

* O1 = (0, pi), where both charts use the same angle, and
* O2 = (pi, 2pi) in A, identified with (-pi, 0) in B by subtracting 2pi.

A bundle over the circle is described by a fibre model (an interval, a
line, or a circle) together with one transition sign per overlap arc:
``(+1, +1)`` glues a trivial bundle, while ``(+1, -1)`` produces the
twisted one (a Mobius band for interval or line fibres, a Klein bottle
for a circle fibre).

A closed-loop field consists of one plant ``f(angle, u)`` shared by both
charts plus one controller per chart.  Everything downstream -- RK4
integration with hysteresis chart switching, convergence classification, basin
grids, and flow-induced retractions -- refuses to run until the chart
compatibility residuals have been checked.

Every convergence verdict -- a trajectory's terminal status, each cell of
a basin grid, the retraction precheck -- comes from one vectorized
classifier over the trailing samples of a batch of lanes: DIVERGED,
CONVERGED_POINT (strong: the state reaches the target point),
CONVERGED_FIBRE (weak: it reaches the target fibre) or TIMEOUT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: hysteresis margin: a chart is abandoned once the angle comes within
#: this distance of its excluded point
SWITCH_MARGIN = 0.2

#: the batch integrator checks for blow-up and switches charts every this
#: many RK4 steps, and at the last step
SWITCH_STRIDE = 10

#: below this bound a fibre coordinate counts as finite-but-divergent;
#: above it integration aborts outright
_DIVERGENCE_BOUND = 1.0e6
_BLOWUP_BOUND = 1.0e9

#: residual tolerance used by the pre-integration compatibility gate
_GATE_TOL = 1.0e-6
_GATE_SAMPLES = 64

FIBRE_MODELS = ("interval", "line", "circle")

CONVERGED_POINT = "CONVERGED_POINT"
CONVERGED_FIBRE = "CONVERGED_FIBRE"
DIVERGED = "DIVERGED"
TIMEOUT = "TIMEOUT"

#: the status that counts as converged in each target mode
_GOAL = {"strong": CONVERGED_POINT, "weak": CONVERGED_FIBRE}


class CompatibilityNotVerified(RuntimeError):
    """The closed-loop field is not well defined on the bundle."""


class NonFiniteState(RuntimeError):
    """A trajectory blew up or touched the boundary of an interval fibre."""


class NonConvergentSample(RuntimeError):
    """A retraction was requested from a point that does not converge."""


def wrap_angle(x, out=None):
    """``np.mod(x, TWO_PI)`` bit for bit, at a fraction of its cost.

    On [-2pi, 4pi) the remainder is a single shift by 2pi: there fmod is
    exact, x - 2pi is exact (Sterbenz), and x + 2pi rounds exactly as
    np.mod's own correction does, so -1e-17 maps to 2pi as it does there.
    The +0.0 shift of in-range values turns -0.0 into +0.0, as np.mod
    does.  Anything else, NaN and inf included, goes to np.mod itself.
    ``out`` may be ``x``.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = (x.min(), x.max()) if x.size else (math.nan, math.nan)
    if not (lo >= -TWO_PI and hi < 2.0 * TWO_PI):
        return np.mod(x, TWO_PI, out=out)
    # a shift no value needs is not built
    above = (x >= TWO_PI) * TWO_PI if hi >= TWO_PI else None
    wrapped = np.add(x, (x < 0.0) * TWO_PI if lo < 0.0 else 0.0, out=out)
    if above is None:
        return wrapped
    return np.subtract(wrapped, above, out=out)


def circle_distance(a, b):
    """Geodesic distance between two angles (works on numpy arrays)."""
    d = wrap_angle(np.asarray(a) - np.asarray(b))
    return np.minimum(d, TWO_PI - d)


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartAtlas:
    """Two-chart circle atlas with a fibre model and transition signs.

    ``tau_o1`` and ``tau_o2`` are the locally constant fibre transition
    signs on the overlap arcs O1 and O2.  Signs ``(+1, +1)`` give the
    trivial bundle; flipping exactly one sign twists it.
    """

    fibre: str = "line"
    tau_o1: int = 1
    tau_o2: int = 1

    def __post_init__(self):
        if self.fibre not in FIBRE_MODELS:
            raise ValueError(f"unknown fibre model {self.fibre!r}")
        if self.tau_o1 not in (1, -1) or self.tau_o2 not in (1, -1):
            raise ValueError("transition signs must be +1 or -1")

    @classmethod
    def trivial(cls, fibre="line"):
        return cls(fibre=fibre)

    @classmethod
    def mobius(cls, fibre="interval"):
        return cls(fibre=fibre, tau_o1=1, tau_o2=-1)

    @classmethod
    def klein(cls):
        return cls(fibre="circle", tau_o1=1, tau_o2=-1)

    @property
    def twisted(self):
        return self.tau_o1 * self.tau_o2 == -1

    def overlap_component(self, theta_a):
        """1 on O1, 2 on O2, None at the two seam angles 0 and pi."""
        t = math.fmod(theta_a, TWO_PI)
        if t < 0:
            t += TWO_PI
        if 0.0 < t < math.pi:
            return 1
        if math.pi < t < TWO_PI:
            return 2
        return None

    def transition_sign(self, component):
        if component == 1:
            return self.tau_o1
        if component == 2:
            return self.tau_o2
        raise ValueError(f"no overlap component {component!r}")

    def wrap_fibre(self, u):
        """Normalize a fibre coordinate (only circle fibres wrap)."""
        if self.fibre == "circle":
            return np.mod(u, TWO_PI)
        return u

    def to_chart_b(self, theta_a):
        """Chart-B angle of a chart-A point; None at the seam."""
        comp = self.overlap_component(theta_a)
        if comp is None:
            return None
        return theta_a if comp == 1 else theta_a - TWO_PI

    def to_chart_a(self, theta_b):
        """Chart-A angle of a chart-B point; None at the seam."""
        if not -math.pi < theta_b < math.pi or theta_b == 0.0:
            return None
        return theta_b if theta_b > 0 else theta_b + TWO_PI


def state_in_chart(state, chart, atlas):
    """Re-express a bundle point ``(chart, angle, u)`` in another chart.

    Raises ValueError when the point is not in the target chart's domain
    (each chart misses one seam angle).
    """
    c0, theta, u = state
    if c0 not in ("A", "B"):
        raise ValueError(f"unknown chart {c0!r}")
    if chart == c0:
        return (c0, theta, u)
    if c0 == "A":
        comp = atlas.overlap_component(theta)
        moved = atlas.to_chart_b(theta)
    else:
        moved = atlas.to_chart_a(theta)
        comp = None if moved is None else atlas.overlap_component(moved)
    if moved is None:
        raise ValueError(f"angle {theta} of chart {c0} is a seam point")
    tau = atlas.transition_sign(comp)
    return (chart, moved, float(atlas.wrap_fibre(tau * u)))


def bundle_distance(state, other, atlas):
    """Chart-aware max-metric distance between two bundle points."""
    c0, t0, u0 = state
    c1, t1, u1 = state_in_chart(other, state[0], atlas)
    da = circle_distance(t0, t1)
    if atlas.fibre == "circle":
        du = circle_distance(u0, u1)
    else:
        du = abs(u0 - u1)
    return float(max(da, du))


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeedbackSystem:
    """One plant shared by both charts plus a controller per chart.

    The plant sees the angle as a point of the circle (any representative
    mod 2pi); the controllers see chart-local coordinates.  ``x_star`` is
    the target angle, ``u_star`` the target fibre coordinate of the
    strong (point) objective.  All callables must accept numpy arrays.
    ``kernel``, when set, is a fused evaluation of exactly these
    callables that the integrator may use instead (see ``FusedKernel``).
    """

    name: str
    atlas: ChartAtlas
    plant: Callable
    controller_a: Callable
    controller_b: Callable
    x_star: float
    u_star: float = 0.0
    params: Mapping = field(default_factory=dict)
    kernel: "FusedKernel | None" = field(default=None, compare=False, repr=False)

    def fields_in_chart(self, chart, theta, u):
        """(angle rate, fibre rate) at chart-local coordinates."""
        theta_glob = wrap_angle(theta)
        f = self.plant(theta_glob, u)
        g = (self.controller_a if chart == "A" else self.controller_b)(theta, u)
        return f, g


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------


def _fibre_sample_band(fibre):
    """Range of fibre coordinates used when sampling residuals."""
    if fibre == "interval":
        return (-0.95, 0.95)
    if fibre == "line":
        return (-3.0, 3.0)
    return (0.0, TWO_PI)


@dataclass(frozen=True)
class CompatibilityReport:
    """Worst-case chart residuals of a closed-loop field."""

    system: str
    samples_per_component: int
    tol: float
    max_residual_f: float
    max_residual_g: float
    by_component: Mapping

    @property
    def passed(self):
        return max(self.max_residual_f, self.max_residual_g) < self.tol

    def to_json_dict(self):
        return {
            "system": self.system,
            "samples_per_component": self.samples_per_component,
            "tol": self.tol,
            "max_residual_f": self.max_residual_f,
            "max_residual_g": self.max_residual_g,
            "by_component": {k: dict(v) for k, v in self.by_component.items()},
            "pass": self.passed,
        }


def check_compatibility(system, samples_per_component=200, tol=1e-9):
    """Measure how far the two chart descriptions are from agreeing.

    On each overlap arc with transition sign tau the plant must satisfy
    ``f(x, tau u) = f(x, u)`` and the controllers must satisfy
    ``g_B(x, tau u) = tau g_A(x, u)``; the report carries the worst
    sampled violation of each identity on a deterministic grid.
    """
    atlas = system.atlas
    n_theta = max(2, int(math.sqrt(samples_per_component)))
    n_u = max(2, -(-samples_per_component // n_theta))
    lo_u, hi_u = _fibre_sample_band(atlas.fibre)
    pad_u = 1e-6 * (hi_u - lo_u)
    us = np.linspace(lo_u + pad_u, hi_u - pad_u, n_u)
    by_component = {}
    worst_f = worst_g = 0.0
    for comp, (lo, hi) in ((1, (0.0, math.pi)), (2, (math.pi, TWO_PI))):
        tau = atlas.transition_sign(comp)
        pad = 1e-6
        thetas = np.linspace(lo + pad, hi - pad, n_theta)
        th, uu = np.meshgrid(thetas, us, indexing="ij")
        tau_u = atlas.wrap_fibre(tau * uu)
        theta_b = th if comp == 1 else th - TWO_PI
        res_f = np.abs(system.plant(th, tau_u) - system.plant(th, uu))
        res_g = np.abs(
            system.controller_b(theta_b, tau_u)
            - tau * system.controller_a(th, uu)
        )
        comp_f = float(np.max(res_f))
        comp_g = float(np.max(res_g))
        by_component[f"O{comp}"] = {
            "tau": tau,
            "max_residual_f": comp_f,
            "max_residual_g": comp_g,
        }
        worst_f = max(worst_f, comp_f)
        worst_g = max(worst_g, comp_g)
    return CompatibilityReport(
        system=system.name,
        samples_per_component=n_theta * n_u,
        tol=tol,
        max_residual_f=worst_f,
        max_residual_g=worst_g,
        by_component=by_component,
    )


def _require_compatible(system):
    report = check_compatibility(
        system, samples_per_component=_GATE_SAMPLES, tol=_GATE_TOL
    )
    if not report.passed:
        raise CompatibilityNotVerified(
            f"system {system.name!r} is not chart-compatible: "
            f"max residual f={report.max_residual_f:.3g}, "
            f"g={report.max_residual_g:.3g} (tol {_GATE_TOL:g})"
        )
    return report


# ---------------------------------------------------------------------------
# the batch integrator
# ---------------------------------------------------------------------------


def _field_arrays(system, chart, theta, u):
    """Vectorized field evaluation with a per-element chart id array."""
    theta_glob = wrap_angle(theta)
    f = np.asarray(system.plant(theta_glob, u), dtype=float)
    ga = np.asarray(system.controller_a(theta_glob, u), dtype=float)
    if system.controller_b is system.controller_a:
        # both charts share one global-angle controller; ga already covers B
        return f, ga
    gb = np.asarray(system.controller_b(theta, u), dtype=float)
    g = np.where(chart == 0, ga, gb)
    return f, g


@dataclass(frozen=True)
class FusedKernel:
    """One-pass field evaluation built alongside a system's callables.

    ``bind(batch)`` returns ``fields(chart, theta, u, f, g)``, which
    writes into ``f`` and ``g`` exactly the bits ``_field_arrays`` would
    return, reusing work buffers sized for ``batch`` lanes.  The
    kernel only stands for the callables it was built from: a system
    whose plant or controllers were swapped (``dataclasses.replace``,
    say) no longer matches it and takes the generic path.
    """

    plant: Callable
    controller_a: Callable
    controller_b: Callable
    bind: Callable

    def matches(self, system):
        return (
            self.plant is system.plant
            and self.controller_a is system.controller_a
            and self.controller_b is system.controller_b
        )


def _bind_fields(system, batch):
    """``fields(chart, theta, u, f, g)`` for ``batch`` lanes of ``system``."""
    kernel = system.kernel
    if kernel is not None and kernel.matches(system):
        return kernel.bind(batch)

    def fields(chart, theta, u, f, g):
        f[...], g[...] = _field_arrays(system, chart, theta, u)

    return fields


def _apply_switches(atlas, chart, theta, u, last_switch, t_now, dwell, switches):
    """Hysteresis chart switching, vectorized over the batch.

    Switching is *wanted* inside the margin band (subject to the dwell
    time) and *forced* once an angle actually leaves its chart's domain,
    so a fast trajectory can never get stranded on a seam.
    """
    in_a = chart == 0
    in_b = ~in_a
    dwell_ok = (t_now - last_switch) >= dwell
    want_a = in_a & ((theta < SWITCH_MARGIN) | (theta > TWO_PI - SWITCH_MARGIN))
    force_a = in_a & ((theta <= 0.0) | (theta >= TWO_PI))
    sw_a = (want_a & dwell_ok) | force_a
    want_b = in_b & (np.abs(theta) > math.pi - SWITCH_MARGIN)
    force_b = in_b & (np.abs(theta) >= math.pi)
    sw_b = (want_b & dwell_ok) | force_b
    if not (np.any(sw_a) or np.any(sw_b)):
        return False
    # A -> B: component O1 keeps the angle, everything else shifts by 2pi
    in_o1_a = (theta > 0.0) & (theta < math.pi)
    tau_a = np.where(in_o1_a, atlas.tau_o1, atlas.tau_o2)
    theta_a_new = np.where(
        in_o1_a, theta, np.where(theta > math.pi, theta - TWO_PI, theta)
    )
    # B -> A: positive angles are O1, negative ones are O2
    in_o1_b = theta > 0.0
    tau_b = np.where(in_o1_b, atlas.tau_o1, atlas.tau_o2)
    theta_b_new = np.where(in_o1_b, theta, theta + TWO_PI)

    new_theta = np.where(sw_a, theta_a_new, np.where(sw_b, theta_b_new, theta))
    tau = np.where(sw_a, tau_a, np.where(sw_b, tau_b, 1))
    new_u = atlas.wrap_fibre(tau * u)
    switched = sw_a | sw_b
    theta[...] = new_theta
    u[...] = np.where(switched, new_u, u)
    chart[...] = np.where(sw_a, 1, np.where(sw_b, 0, chart))
    last_switch[...] = np.where(switched, t_now, last_switch)
    switches += switched
    return True


def _check_finite(atlas, theta, u, t_now):
    bad = ~np.isfinite(theta) | ~np.isfinite(u) | (np.abs(u) > _BLOWUP_BOUND)
    if atlas.fibre == "interval":
        bad |= np.abs(u) >= 1.0
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NonFiniteState(
            f"state {idx} left the admissible region at t={t_now:.6f} "
            f"(angle={theta.flat[idx]!r}, fibre={u.flat[idx]!r}); interval "
            "fibres forbid boundary contact instead of clamping"
        )


def _step_count(duration, step):
    """Number of fixed steps that covers ``duration`` (at least one)."""
    if not step > 0:
        raise ValueError("step must be positive")
    return max(1, int(round(duration / step)))


def _batch_integrate(
    system,
    chart,
    theta,
    u,
    duration,
    step,
    record_steps,
    dwell=1.0,
    record_switch_events=False,
    plateau_tol=None,
    plateau_angle_only=False,
    watch=None,
):
    """Fixed-step RK4 over a batch of chart-local states.

    ``record_steps`` lists the step indices to snapshot (0 = the initial
    state).  With ``plateau_tol`` set, integration freezes once every
    batch element moves less than the tolerance over a checkpoint block
    (angle only if ``plateau_angle_only``); remaining snapshots repeat
    the frozen state.  The finite check and chart switching run every
    ``SWITCH_STRIDE`` steps and at the last step.  ``watch`` is an
    optional (steps, callback) pair: at each of those recorded steps the
    callback gets the step and copies of the rows recorded so far, the
    last as a pass ending there would leave it (checked and switched),
    and may raise to stop the pass.  Returns (times, charts, angles,
    fibres, switches, events) with one recorded row per requested step.
    """
    atlas = system.atlas
    chart = np.array(chart, dtype=np.int8)
    theta = np.array(theta, dtype=float)
    u = np.array(u, dtype=float)
    n_steps = _step_count(duration, step)
    record_steps = sorted(set(int(k) for k in record_steps))
    record_at = {k: i for i, k in enumerate(record_steps)}
    n_rec = len(record_steps)
    batch = theta.shape[0]

    rec_t = np.zeros(n_rec)
    rec_chart = np.zeros((n_rec, batch), dtype=np.int8)
    rec_theta = np.zeros((n_rec, batch))
    rec_u = np.zeros((n_rec, batch))
    switches = np.zeros(batch, dtype=np.int64)
    last_switch = np.full(batch, -np.inf)
    events = []

    def snapshot(slot, t_now):
        rec_t[slot] = t_now
        rec_chart[slot] = chart
        rec_theta[slot] = theta
        rec_u[slot] = u

    if 0 in record_at:
        snapshot(record_at[0], 0.0)

    half = 0.5 * step
    sixth = step / 6.0
    check_block = 500
    block_theta = theta.copy()
    block_u = u.copy()
    frozen_at = None

    # RK4 with every temporary in a buffer of its own, operation for
    # operation the expression theta + sixth * (f1 + 2 (f2 + f3) + f4)
    fields = _bind_fields(system, batch)
    f1, f2, f3, f4, g1, g2, g3, g4, theta_k, u_k = np.empty((10, batch))

    def stage(h, f_in, g_in, f_out, g_out):
        np.add(theta, np.multiply(f_in, h, out=theta_k), out=theta_k)
        np.add(u, np.multiply(g_in, h, out=u_k), out=u_k)
        fields(chart, theta_k, u_k, f_out, g_out)

    def advance(x, d1, d2, d3, d4):
        np.add(d2, d3, out=d2)
        np.multiply(d2, 2.0, out=d2)
        np.add(d1, d2, out=d1)
        np.add(d1, d4, out=d1)
        x += np.multiply(d1, sixth, out=d1)

    for k in range(1, n_steps + 1):
        checks = k % SWITCH_STRIDE == 0 or k == n_steps
        if frozen_at is None:
            fields(chart, theta, u, f1, g1)
            stage(half, f1, g1, f2, g2)
            stage(half, f2, g2, f3, g3)
            stage(step, f3, g3, f4, g4)
            advance(theta, f1, f2, f3, f4)
            advance(u, g1, g2, g3, g4)
            if atlas.fibre == "circle":
                np.mod(u, TWO_PI, out=u)
            t_now = k * step
            if checks:
                _check_finite(atlas, theta, u, t_now)
                pre = (
                    (chart.copy(), theta.copy(), u.copy())
                    if record_switch_events
                    else None
                )
                if (
                    _apply_switches(
                        atlas, chart, theta, u, last_switch, t_now, dwell, switches
                    )
                    and record_switch_events
                ):
                    moved = (pre[0] != chart) | (pre[1] != theta)
                    for b in np.nonzero(moved)[0]:
                        events.append(
                            (
                                t_now,
                                b,
                                (int(pre[0][b]), float(pre[1][b]), float(pre[2][b])),
                                (int(chart[b]), float(theta[b]), float(u[b])),
                            )
                        )
            if plateau_tol is not None and k % check_block == 0:
                moved = np.max(np.abs(theta - block_theta))
                if not plateau_angle_only:
                    moved = max(moved, np.max(np.abs(u - block_u)))
                if moved < plateau_tol:
                    frozen_at = k * step
                block_theta = theta.copy()
                block_u = u.copy()
        if k in record_at:
            snapshot(record_at[k], k * step)
        if watch is not None and k in watch[0]:
            rows = [
                a[: record_at[k] + 1].copy()
                for a in (rec_t, rec_chart, rec_theta, rec_u)
            ]
            if frozen_at is None and not checks:
                end = [r[-1] for r in rows[1:]]
                _check_finite(atlas, *end[1:], k * step)
                _apply_switches(
                    atlas, *end, last_switch.copy(), k * step, dwell, switches.copy()
                )
            watch[1](k, *rows)

    return rec_t, rec_chart, rec_theta, rec_u, switches, events


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled trajectory: rows of (time, chart, angle, fibre coordinate).

    Angles are chart-local; consecutive samples in different charts
    describe the same bundle point under the transition map.
    """

    system: str
    step: float
    duration: float
    samples: tuple
    chart_switches: int
    terminal_status: str | None = None

    def final_state(self):
        t, chart, theta, u = self.samples[-1]
        return (chart, theta, u)

    def tail(self, window):
        cut = self.samples[-1][0] - window
        return [s for s in self.samples if s[0] >= cut]

    def to_csv_rows(self):
        yield ("time", "chart", "angle", "fibre")
        for t, chart, theta, u in self.samples:
            yield (f"{t:.17g}", chart, f"{theta:.17g}", f"{u:.17g}")

    def to_json_dict(self):
        return {
            "system": self.system,
            "step": self.step,
            "duration": self.duration,
            "chart_switches": self.chart_switches,
            "terminal_status": self.terminal_status,
            "samples": [
                [t, chart, theta, u] for t, chart, theta, u in self.samples
            ],
        }


def _normalize_start(system, start):
    """Accept ("A"|"B", angle, u) or a global (angle, u) pair.

    Global pairs use chart A away from its seam; near the seam the point
    is handed to chart B, crossing through O2 when the angle is exactly
    on the seam (the O1 arc is untouched by that convention since its
    sign is always +1).
    """
    if len(start) == 3:
        chart, theta, u = start
        if chart not in ("A", "B"):
            raise ValueError(f"unknown chart {chart!r}")
        if chart == "A" and not 0.0 < theta < TWO_PI:
            raise ValueError(f"angle {theta} outside chart A")
        if chart == "B" and not -math.pi < theta < math.pi:
            raise ValueError(f"angle {theta} outside chart B")
        return (0 if chart == "A" else 1, float(theta), float(u))
    theta, u = start
    theta = float(np.mod(theta, TWO_PI))
    if SWITCH_MARGIN <= theta <= TWO_PI - SWITCH_MARGIN:
        return (0, theta, float(u))
    if theta == 0.0:
        tau = system.atlas.tau_o2
        return (1, 0.0, float(system.atlas.wrap_fibre(tau * u)))
    moved = system.atlas.to_chart_b(theta)
    comp = system.atlas.overlap_component(theta)
    tau = system.atlas.transition_sign(comp)
    return (1, float(moved), float(system.atlas.wrap_fibre(tau * u)))


def integrate(
    system,
    start,
    duration=50.0,
    step=1e-3,
    record_stride=100,
    eps=1e-3,
    dwell=1.0,
    verify=True,
):
    """Integrate one bundle point and classify where it ended up.

    ``start`` is ("A"|"B", angle, fibre) in chart coordinates, or a
    global (angle, fibre) pair.  Chart switches insert a pre/post sample
    pair at the switch time so the record shows the transition exactly.
    """
    n_steps = _step_count(duration, step)
    if record_stride < 1:
        raise ValueError("record_stride must be a positive step count")
    if verify:
        _require_compatible(system)
    chart0, theta0, u0 = _normalize_start(system, start)
    record_steps = list(range(0, n_steps, record_stride)) + [n_steps]
    rec_t, rec_c, rec_th, rec_u, switches, events = _batch_integrate(
        system,
        [chart0],
        [theta0],
        [u0],
        duration,
        step,
        record_steps,
        dwell=dwell,
        record_switch_events=True,
    )
    names = "AB"
    samples = [
        (float(rec_t[i]), names[rec_c[i, 0]], float(rec_th[i, 0]), float(rec_u[i, 0]))
        for i in range(len(rec_t))
    ]
    for t_now, _b, pre, post in events:
        samples.append((t_now, names[pre[0]], pre[1], pre[2]))
        samples.append((t_now, names[post[0]], post[1], post[2]))
    samples.sort(key=lambda s: (s[0], s[1]))
    record = TrajectoryRecord(
        system=system.name,
        step=step,
        duration=duration,
        samples=tuple(samples),
        chart_switches=int(switches[0]),
    )
    status = classify_convergence(record, system, mode="strong", eps=eps, dwell=dwell)
    return replace(record, terminal_status=status)


def classify_convergence(traj, system, mode="strong", eps=1e-3, dwell=1.0):
    """Terminal status of a trajectory relative to the system's target.

    Strong mode asks the chart-aware distance to the target point to stay
    below ``eps`` over the trailing ``dwell`` window (falling back to
    CONVERGED_FIBRE when only the angle settled); weak mode only measures
    the angular distance to the target fibre.
    """
    if eps <= 0 or dwell <= 0:
        raise ValueError("eps and dwell must be positive")
    if mode not in _GOAL:
        raise ValueError(f"unknown mode {mode!r}")
    _t, charts, angles, fibres = (np.array(col)[:, None] for col in zip(*traj.tail(dwell)))
    chart = (charts == "B").astype(np.int8)
    return str(_lane_statuses(system, chart, angles, fibres, mode, eps)[0])


def _target_distances(system, chart, theta, u):
    """Angle and point distances of chart-local samples to the target.

    ``chart`` holds 0 (A) or 1 (B) per sample, shaped like ``theta`` and
    ``u``.  The angle distance is to the target fibre; the point distance
    is the max-metric distance to the target point, carried into chart B
    with the transition sign of the overlap arc holding ``x_star``.  A
    target on a seam has no chart-B image, so every chart-B sample is at
    infinite point distance from it.
    """
    atlas = system.atlas
    ang = circle_distance(np.mod(theta, TWO_PI), system.x_star)
    comp = atlas.overlap_component(system.x_star)
    tau = 1 if comp is None else atlas.transition_sign(comp)
    tgt_u = np.where(chart == 0, system.u_star, tau * system.u_star)
    if atlas.fibre == "circle":
        du = circle_distance(u, tgt_u)
    else:
        du = np.abs(u - tgt_u)
    point = np.maximum(ang, du)
    if comp is None:
        point = np.where(chart == 0, point, np.inf)
    return ang, point


def _lane_statuses(system, chart, theta, u, mode, eps):
    """Status of every lane of (tail samples x lanes) arrays.

    A lane DIVERGED once a fibre coordinate passes the divergence bound;
    otherwise it CONVERGED_POINT (strong mode only) when every sample is
    within ``eps`` of the target point, CONVERGED_FIBRE when every sample
    is within ``eps`` of the target fibre, and TIMEOUT when neither holds.
    """
    ang, point = _target_distances(system, chart, theta, u)
    status = np.where(np.all(ang < eps, axis=0), CONVERGED_FIBRE, TIMEOUT)
    if mode == "strong":
        status = np.where(np.all(point < eps, axis=0), CONVERGED_POINT, status)
    diverged = np.any(np.abs(u) > _DIVERGENCE_BOUND, axis=0)
    return np.where(diverged, DIVERGED, status)


def _tail_steps(duration, step, dwell):
    """The steps a verdict reads: the trailing ``dwell`` window of a run
    of ``duration``, every 0.1 time units, ending at its last step."""
    n_steps = _step_count(duration, step)
    stride = max(1, int(round(0.1 / step)))
    first = max(0, n_steps - int(round(dwell / step)))
    steps = {0, n_steps, *range(first, n_steps, stride)}
    return sorted(k for k in steps if k * step >= duration - dwell)


# ---------------------------------------------------------------------------
# basin grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Regular sampling grid: angles j*2pi/n, fibre values on a linspace."""

    theta_cells: int = 100
    u_cells: int = 50
    u_range: tuple = (-2.0, 2.0)

    def __post_init__(self):
        if self.theta_cells < 1 or self.u_cells < 1:
            raise ValueError("a grid needs at least one cell each way")

    def angle_values(self):
        return np.arange(self.theta_cells) * (TWO_PI / self.theta_cells)

    def fibre_values(self):
        lo, hi = self.u_range
        return np.linspace(lo, hi, self.u_cells)

    def to_json_dict(self):
        return {
            "theta_cells": self.theta_cells,
            "u_cells": self.u_cells,
            "u_range": list(self.u_range),
        }


@dataclass(frozen=True)
class BasinReport:
    """Convergence census of a grid of initial conditions."""

    system: str
    grid: GridSpec
    target_mode: str
    eps: float
    duration: float
    step: float
    status_counts: Mapping
    converged_cells: int
    total_cells: int
    nonconvergent: tuple  # rows (j, i, angle, fibre, status)

    @property
    def converged_fraction(self):
        return self.converged_cells / self.total_cells

    def nonconvergent_column(self, j):
        return [row for row in self.nonconvergent if row[0] == j]

    def to_json_dict(self):
        return {
            "system": self.system,
            "grid_spec": self.grid.to_json_dict(),
            "target_mode": self.target_mode,
            "eps": self.eps,
            "duration": self.duration,
            "step": self.step,
            "status_counts": dict(self.status_counts),
            "converged_cells": self.converged_cells,
            "total_cells": self.total_cells,
            "converged_fraction": self.converged_fraction,
            "nonconvergent_points": [
                {
                    "j": j,
                    "i": i,
                    "angle": angle,
                    "fibre": fibre,
                    "status": status,
                }
                for j, i, angle, fibre, status in self.nonconvergent
            ],
        }


def basin(
    system,
    grid=None,
    mode="weak",
    eps=1e-3,
    duration=50.0,
    step=1e-3,
    dwell=1.0,
    verify=True,
):
    """Integrate every grid point and report who reached the target.

    The whole grid advances in one vectorized batch; results depend only
    on the grid, the step and the system, never on scheduling.
    """
    if mode not in _GOAL:
        raise ValueError(f"unknown mode {mode!r}")
    if verify:
        _require_compatible(system)
    if mode == "strong" and system.atlas.to_chart_b(system.x_star) is None:
        raise ValueError("strong-mode grids need a target off the seams")
    grid = grid or GridSpec()
    angles = grid.angle_values()
    fibres = grid.fibre_values()
    starts = [
        (j, i, float(a), float(v))
        for j, a in enumerate(angles)
        for i, v in enumerate(fibres)
    ]
    states = [_normalize_start(system, (a, v)) for _j, _i, a, v in starts]
    tail = _tail_steps(duration, step, dwell)
    _t, *rows, _sw, _ev = _batch_integrate(
        system, *zip(*states), duration, step, tail, dwell=dwell
    )
    status = _lane_statuses(system, *rows, mode, eps)
    converged = status == _GOAL[mode]

    counts = {}
    for s in status:
        counts[str(s)] = counts.get(str(s), 0) + 1
    nonconvergent = tuple(
        (j, i, a, v, str(status[idx]))
        for idx, (j, i, a, v) in enumerate(starts)
        if not converged[idx]
    )
    return BasinReport(
        system=system.name,
        grid=grid,
        target_mode=mode,
        eps=eps,
        duration=duration,
        step=step,
        status_counts=counts,
        converged_cells=int(np.count_nonzero(converged)),
        total_cells=len(starts),
        nonconvergent=nonconvergent,
    )


# ---------------------------------------------------------------------------
# flow-induced retraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetractionReport:
    """Defects of the time-rescaled flow r(s, z) = state at t = s/(1-s)."""

    system: str
    target_kind: str
    s_grid: tuple
    sample_count: int
    t_max: float
    identity_defect: float
    fixed_on_target_defect: float
    endpoint_defect: float
    eps: float
    fixed_tol: float

    @property
    def identity_at_zero(self):
        return self.identity_defect == 0.0

    @property
    def fixed_on_target(self):
        return self.fixed_on_target_defect < self.fixed_tol

    @property
    def endpoint_in_target(self):
        return self.endpoint_defect < self.eps

    def to_json_dict(self):
        return {
            "system": self.system,
            "target_kind": self.target_kind,
            "s_grid": list(self.s_grid),
            "sample_count": self.sample_count,
            "t_max": self.t_max,
            "max_defects": {
                "identity": self.identity_defect,
                "fixed_on_target": self.fixed_on_target_defect,
                "endpoint": self.endpoint_defect,
            },
            "identity_at_zero": self.identity_at_zero,
            "fixed_on_target": self.fixed_on_target,
            "endpoint_in_target": self.endpoint_in_target,
        }


DEFAULT_S_GRID = (0.0, 0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.8, 0.9, 1.0)


def flow_retraction(
    system,
    sample_points=None,
    s_grid=DEFAULT_S_GRID,
    n_samples=200,
    seed=0,
    t_max=1e3,
    step=1e-3,
    eps=1e-3,
    fixed_tol=1e-9,
    target_kind="point",
    precheck_duration=50.0,
    verify=True,
):
    """Build the time-rescaled flow map and measure its retraction defects.

    r(s, z) is the flow of the closed loop at time s/(1-s), with r(1, z)
    read off at ``t_max`` (integration freezes early once the whole batch
    stops moving).  Every sample must converge -- one pass integrates
    the samples and the target, classifies the samples on their last
    second before ``precheck_duration`` and raises NonConvergentSample
    there, before any later step is taken.  The report records the
    worst identity defect at s=0 (exact zero by construction: no step is
    taken), the worst motion of the target under r, and the worst
    endpoint distance to the target.
    """
    if target_kind not in ("point", "fibre"):
        raise ValueError(f"unknown target kind {target_kind!r}")
    if sorted(s_grid) != list(s_grid) or s_grid[0] != 0.0 or s_grid[-1] != 1.0:
        raise ValueError("s_grid must increase from 0.0 to 1.0")
    n_pre = _step_count(precheck_duration, step)
    times = [s / (1.0 - s) if s < 1.0 else t_max for s in s_grid]
    grid_steps = [int(round(t / step)) for t in times]
    if sorted(set(grid_steps)) != grid_steps:
        raise ValueError(
            "s_grid times collide at this step and t_max; raise t_max "
            "or thin the grid so each s maps to a distinct record step"
        )
    if verify:
        _require_compatible(system)
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
    if mode == "strong" and atlas.to_chart_b(system.x_star) is None:
        raise ValueError("retraction target sits on a seam")
    if not states:
        raise ValueError("a retraction needs at least one sample")

    # append the target itself so its motion under r is measured too
    if target_kind == "point":
        target_states = [_normalize_start(system, (system.x_star, system.u_star))]
    else:
        lo, hi = _fibre_sample_band(atlas.fibre)
        target_states = [
            _normalize_start(system, (system.x_star, v))
            for v in np.linspace(lo, hi, 5)
        ]
    batch = states + target_states
    chart0, theta0, u0 = zip(*batch)
    n = len(states)

    # One pass serves the precheck and the s-grid: the precheck reads the
    # samples' trailing second before step n_pre, the report the s-grid
    # rows, the last as a pass ending at t_max leaves it.
    tail = _tail_steps(precheck_duration, step, 1.0)
    steps = sorted({n_pre, *tail, *grid_steps})
    row = {k: i for i, k in enumerate(steps)}
    grid = []

    def watch(k, _rec_t, *rec):
        if k == grid_steps[-1]:
            grid.extend(a[[row[j] for j in grid_steps]] for a in rec)
        if k != n_pre:
            return
        # precondition: every sample converges under the plain flow
        tail_rows = [row[j] for j in tail]
        status = _lane_statuses(system, *(a[tail_rows, :n] for a in rec), mode, eps)
        failures = [
            (i, DIVERGED if s == DIVERGED else TIMEOUT)
            for i, s in enumerate(status)
            if s != _GOAL[mode]
        ]
        if failures:
            raise NonConvergentSample(
                f"{len(failures)} of {n} samples do not converge "
                f"(first failures: {failures[:3]})"
            )

    _batch_integrate(
        system,
        chart0,
        theta0,
        u0,
        max(t_max, precheck_duration),
        step,
        steps,
        plateau_tol=1e-14,
        plateau_angle_only=(target_kind == "fibre"),
        watch=({n_pre, grid_steps[-1]}, watch),
    )
    rec_c, rec_th, rec_u = grid

    # identity defect at s=0: recorded row 0 vs the requested start
    d_theta = np.abs(rec_th[0, :n] - np.array(theta0[:n]))
    d_u = np.abs(rec_u[0, :n] - np.array(u0[:n]))
    identity_defect = float(max(np.max(d_theta), np.max(d_u)))

    ang, point = _target_distances(system, rec_c, rec_th, rec_u)
    dist = ang if target_kind == "fibre" else point
    endpoint_defect = float(np.max(dist[-1, :n]))
    fixed = float(np.max(dist[:, n:]))
    return RetractionReport(
        system=system.name,
        target_kind=target_kind,
        s_grid=tuple(s_grid),
        sample_count=n,
        t_max=t_max,
        identity_defect=identity_defect,
        fixed_on_target_defect=fixed,
        endpoint_defect=endpoint_defect,
        eps=eps,
        fixed_tol=fixed_tol,
    )


# ---------------------------------------------------------------------------
# shipped plants, controllers and systems
# ---------------------------------------------------------------------------


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _bump_01(t):
    """The standard smooth bump exp(-1/(t(1-t))) on (0,1), normalized to 1."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    prod = np.where(inside, t * (1.0 - t), 1.0)
    return np.where(inside, np.exp(4.0 - 1.0 / prod), 0.0)


def _velocity_drive_constants(params):
    """(freeze half-width, freeze centre, ramp) of a velocity_drive plant."""
    return (
        float(params.get("freeze_halfwidth", 0.0)),
        float(params.get("freeze_center", 1.5 * math.pi)),
        float(params.get("ramp", 0.05)),
    )


def _plant_velocity_drive(params):
    """f = s(angle) * u: angular velocity equals the fibre coordinate,
    optionally damped to exactly zero inside a small window around a
    chosen angle (s is a C^1 ramp of the distance to that window)."""
    halfwidth, center, ramp = _velocity_drive_constants(params)

    if halfwidth == 0.0:
        return lambda theta, u: np.broadcast_arrays(theta, u)[1] * 1.0

    def f(theta, u):
        return _freeze_ramp(circle_distance(theta, center), halfwidth, ramp) * u

    return f


def _freeze_ramp(d, halfwidth, ramp):
    """velocity_drive's speed factor at distance d from the window centre."""
    return _smoothstep((d - halfwidth) / ramp)


def _plant_sine_gradient(params):
    x_star = float(params.get("x_star", 0.5 * math.pi))
    gain = float(params.get("gain", 1.0))
    return lambda theta, u: -gain * np.sin(theta - x_star) + 0.0 * u


def _plant_angle_bump_drift(params):
    """f = a(theta) + b(theta) u with b a smooth bump supported in (0, pi):
    every u-dependent term of the plant vanishes on the O2 arc, so the
    plant is automatically even in u where a twisted transition needs it."""
    drift_gain = float(params.get("drift_gain", 0.2))
    bump_gain = float(params.get("bump_gain", 0.5))

    def f(theta, u):
        a = drift_gain * np.sin(2.0 * theta)
        b = bump_gain * _bump_01(theta / math.pi)
        return a + b * u

    return f


def _plant_zero(params):
    return lambda theta, u: 0.0 * theta + 0.0 * u


_PLANTS = {
    "velocity_drive": _plant_velocity_drive,
    "sine_gradient": _plant_sine_gradient,
    "angle_bump_drift": _plant_angle_bump_drift,
    "zero": _plant_zero,
}


def _damped_restoring_constants(params):
    """(target, damping, antipode gain, antipode width) of a
    damped_restoring controller."""
    return (
        float(params.get("x_star", 0.5 * math.pi)),
        float(params.get("damping", 1.0)),
        float(params.get("antipode_gain", 0.0)),
        float(params.get("antipode_width", 0.3)),
    )


def _ctrl_damped_restoring(params, atlas):
    """g = -k(theta) sin(theta - x*) - damping u, with the restoring gain
    k optionally boosted near the antipode (a gain schedule parallel to
    the base torque, so it amplifies the push away from the antipodal
    fibre without creating new equilibria)."""
    x_star, damping, boost, width = _damped_restoring_constants(params)
    antipode = x_star + math.pi

    def g(theta, u):
        gain = 1.0
        if boost:
            gain = _antipode_gain(circle_distance(theta, antipode), boost, width)
        return -gain * np.sin(wrap_angle(theta) - x_star) - damping * u

    return g, g


def _antipode_gain(d, boost, width):
    """damped_restoring's restoring gain at distance d from the antipode."""
    return 1.0 + boost * (1.0 - _smoothstep((d - 0.5 * width) / (0.5 * width)))


def _ctrl_odd_damping(params, atlas):
    """g_A odd in u; g_B(x, u) = -g_A(x, -u), which glues across both a
    trivial and a twisted O2 transition precisely because of the oddness."""
    gain = float(params.get("gain", 2.0))
    wobble = float(params.get("wobble", 0.25))

    def g_a(theta, u):
        return -gain * u * (1.0 + wobble * np.cos(np.mod(theta, TWO_PI)))

    def g_b(theta, u):
        return -g_a(np.mod(theta, TWO_PI), -u)

    return g_a, g_b


def _ctrl_constant_push(params, atlas):
    push = float(params.get("push", 0.5))

    def g(theta, u):
        return push + 0.0 * theta + 0.0 * u

    return g, g


def _ctrl_unit_drift(params, atlas):
    drift = float(params.get("drift", 1.0))

    def g(theta, u):
        return drift + 0.0 * theta + 0.0 * u

    return g, g


def _ctrl_linear_decay(params, atlas):
    rate = float(params.get("rate", 1.0))

    def g(theta, u):
        return -rate * u

    return g, g


_CONTROLLERS = {
    "damped_restoring": _ctrl_damped_restoring,
    "odd_damping": _ctrl_odd_damping,
    "constant_push": _ctrl_constant_push,
    "unit_drift": _ctrl_unit_drift,
    "linear_decay": _ctrl_linear_decay,
}


def _ramp_end(offset, scale):
    """A distance from which ``_smoothstep((d - offset) / scale)`` is
    exactly 1.

    The quotient is monotone in d for a positive scale, so one checked
    bound covers every larger distance; inf when no bound is certain.
    """
    if not (scale > 0.0 and math.isfinite(offset) and math.isfinite(scale)):
        return math.inf
    d = offset + scale
    for _ in range(4):  # rounding leaves it at most a few ulps short
        if (d - offset) / scale >= 1.0:
            return d
        d = math.nextafter(d, math.inf)
    return math.inf


#: slack of a near-lane window, far above the ~1e-15 rounding error of
#: ``circle_distance`` on [0, 2pi]
_WINDOW_SLACK = 1e-9


def _near_window(center, reach):
    """(lo, hi) such that every wrapped angle outside it lies at
    ``circle_distance`` >= ``reach`` from ``center``; None when that
    window does not fit inside [0, 2pi], and every lane counts as near."""
    lo = center - reach - _WINDOW_SLACK
    hi = center + reach + _WINDOW_SLACK
    return (lo, hi) if 0.0 <= lo and hi <= TWO_PI else None


def _pendulum_kernel(plant_params, ctrl_params):
    """Fused velocity_drive plant and damped_restoring controller.

    Bit for bit what ``_field_arrays`` makes of the two callables.  The
    angle is wrapped once, and each smoothstep ramp is evaluated only on
    the lanes inside a window around its centre (the antipode, in
    ``damped_pendulum``) outside which it is exactly 1: there the plant
    is ``1.0 * u`` and the gain is 1.0.  When the freeze window and the
    gain boost share their centre, one window serves both.
    """
    halfwidth, center, ramp = _velocity_drive_constants(plant_params)
    x_star, damping, boost, width = _damped_restoring_constants(ctrl_params)
    antipode = x_star + math.pi
    plant_end = _ramp_end(halfwidth, ramp)
    # 1 + boost * (1 - 1) is 1.0 only for a finite boost
    gain_end = _ramp_end(0.5 * width, 0.5 * width) if math.isfinite(boost) else math.inf
    shared = halfwidth != 0.0 and bool(boost) and antipode == center
    if shared:
        plant_end = max(plant_end, gain_end)
    plant_window = _near_window(center, plant_end)
    gain_window = _near_window(antipode, gain_end)

    def bind(batch):
        theta_glob, arg, tmp = np.empty((3, batch))
        every_lane = np.arange(batch)

        def near(c, window):
            """Lanes that may be within the window, and their distances."""
            if window is None:
                lanes = every_lane
            else:
                lo, hi = window
                outside = (theta_glob <= lo) | (theta_glob >= hi)
                lanes = np.flatnonzero(~outside)  # NaN angles count as near
            return lanes, circle_distance(theta_glob[lanes], c)

        def fields(chart, theta, u, f, g):
            wrap_angle(theta, out=theta_glob)
            np.multiply(u, 1.0, out=f)
            if halfwidth != 0.0:
                lanes, d = near(center, plant_window)
                f[lanes] = _freeze_ramp(d, halfwidth, ramp) * u[lanes]
            if boost:
                if not shared:
                    lanes, d = near(antipode, gain_window)
                gain = _antipode_gain(d, boost, width)
            # the controller wraps its angle again, which can only send a
            # 2pi (from a tiny negative angle) to 0
            if not theta_glob.max() < TWO_PI:
                wrap_angle(theta_glob, out=theta_glob)
            np.sin(np.subtract(theta_glob, x_star, out=arg), out=arg)
            if boost:
                arg[lanes] *= gain
            # (-gain) * s == -(gain * s) exactly, signed zeros included
            np.negative(arg, out=arg)
            np.subtract(arg, np.multiply(u, damping, out=tmp), out=g)

        return fields

    return bind


#: fused kernels by (plant, controller) name
_KERNELS = {("velocity_drive", "damped_restoring"): _pendulum_kernel}


def assemble_system(name, atlas, plant_spec, controller_spec, x_star, u_star=0.0):
    """Build a FeedbackSystem from named plant/controller builders."""
    plant_name, plant_params = plant_spec
    ctrl_name, ctrl_params = controller_spec
    if plant_name not in _PLANTS:
        raise ValueError(f"unknown plant {plant_name!r}")
    if ctrl_name not in _CONTROLLERS:
        raise ValueError(f"unknown controller {ctrl_name!r}")
    plant = _PLANTS[plant_name](plant_params)
    g_a, g_b = _CONTROLLERS[ctrl_name](ctrl_params, atlas)
    kernel = None
    if (plant_name, ctrl_name) in _KERNELS:
        bind = _KERNELS[plant_name, ctrl_name](plant_params, ctrl_params)
        kernel = FusedKernel(plant, g_a, g_b, bind)
    return FeedbackSystem(
        name=name,
        atlas=atlas,
        plant=plant,
        controller_a=g_a,
        controller_b=g_b,
        x_star=float(x_star),
        u_star=float(u_star),
        params={
            "plant": {"name": plant_name, "params": dict(plant_params)},
            "controller": {"name": ctrl_name, "params": dict(ctrl_params)},
        },
        kernel=kernel,
    )


def builtin_system(name, **overrides):
    """Shipped demonstration systems by name.

    * damped_pendulum  -- trivial line bundle, f = s(theta) u against a
      damped restoring controller; ``freeze_halfwidth`` > 0 carves a dead
      window around the antipode where the angle cannot move at all
    * mobius_damped    -- twisted interval bundle with a compatible pair
    * mobius_incompatible -- same bundle, constant controller: the O2
      residual is exactly twice the push
    * fibre_drift      -- angle settles on the target fibre while the
      fibre coordinate drifts forever
    * linear_patch     -- zero plant, u' = -u: closed-form retraction
    """
    x_star = float(overrides.pop("x_star", 0.5 * math.pi))
    if name == "damped_pendulum":
        halfwidth = float(overrides.pop("freeze_halfwidth", 0.0))
        ctrl = {"x_star": x_star}
        for key in ("antipode_gain", "antipode_width", "damping"):
            if key in overrides:
                ctrl[key] = float(overrides.pop(key))
        _reject_overrides(name, overrides)
        return assemble_system(
            name,
            ChartAtlas.trivial("line"),
            (
                "velocity_drive",
                {
                    "freeze_halfwidth": halfwidth,
                    "freeze_center": x_star + math.pi,
                },
            ),
            ("damped_restoring", ctrl),
            x_star,
        )
    if name == "mobius_damped":
        _reject_overrides(name, overrides)
        return assemble_system(
            name,
            ChartAtlas.mobius("interval"),
            ("angle_bump_drift", {}),
            ("odd_damping", {}),
            x_star,
        )
    if name == "mobius_incompatible":
        _reject_overrides(name, overrides)
        return assemble_system(
            name,
            ChartAtlas.mobius("interval"),
            ("angle_bump_drift", {}),
            ("constant_push", {}),
            x_star,
        )
    if name == "fibre_drift":
        _reject_overrides(name, overrides)
        return assemble_system(
            name,
            ChartAtlas.trivial("line"),
            ("sine_gradient", {"x_star": x_star}),
            ("unit_drift", {}),
            x_star,
        )
    if name == "linear_patch":
        _reject_overrides(name, overrides)
        return assemble_system(
            name,
            ChartAtlas.trivial("line"),
            ("zero", {}),
            ("linear_decay", {}),
            x_star,
        )
    raise ValueError(f"unknown builtin system {name!r}")


def _reject_overrides(name, overrides):
    if overrides:
        raise ValueError(f"{name} does not take parameters {sorted(overrides)}")


# ---------------------------------------------------------------------------
# experiment specs
# ---------------------------------------------------------------------------


def system_from_spec(spec):
    """Build a system from an experiment JSON fragment.

    Accepts a builtin name, {"name": ..., "params": {...}} for a builtin
    with overrides, or the fully spelled-out form with "atlas", "plant",
    "controller" and "target" keys.
    """
    if isinstance(spec, str):
        return builtin_system(spec)
    if not isinstance(spec, Mapping):
        raise ValueError("system spec must be a name or an object")
    if "plant" in spec or "controller" in spec or "atlas" in spec:
        for key in ("atlas", "plant", "controller", "target"):
            if key not in spec:
                raise ValueError(f"custom system spec is missing {key!r}")
        atlas_spec = spec["atlas"]
        signs = atlas_spec.get("signs", [1, 1])
        atlas = ChartAtlas(
            fibre=atlas_spec.get("fibre", "line"),
            tau_o1=int(signs[0]),
            tau_o2=int(signs[1]),
        )
        return assemble_system(
            spec.get("name", "custom"),
            atlas,
            (spec["plant"]["name"], spec["plant"].get("params", {})),
            (spec["controller"]["name"], spec["controller"].get("params", {})),
            spec["target"],
            spec.get("u_star", 0.0),
        )
    return builtin_system(spec["name"], **spec.get("params", {}))


@dataclass(frozen=True)
class CompatibilityExperiment:
    system_spec: object
    samples_per_component: int = 5000
    tol: float = 1e-9


@dataclass(frozen=True)
class BasinExperiment:
    system_spec: object
    grid: GridSpec = GridSpec()
    mode: str = "weak"
    eps: float = 1e-3
    duration: float = 50.0
    step: float = 1e-3


@dataclass(frozen=True)
class RetractionExperiment:
    system_spec: object
    n_samples: int = 200
    seed: int = 0
    s_grid: tuple = DEFAULT_S_GRID
    t_max: float = 1e3
    step: float = 1e-3
    eps: float = 1e-3
    target_kind: str = "point"


@dataclass(frozen=True)
class IntegrateExperiment:
    system_spec: object
    start: tuple = ("A", 0.5 * math.pi, 0.5)
    duration: float = 50.0
    step: float = 1e-3
    record_stride: int = 100
    eps: float = 1e-3
    dwell: float = 1.0


def _items(data, key, default, sizes=()):
    """``data[key]``, or ``default``, as a tuple; ValueError unless it is a
    list, with one of ``sizes`` items when those are given."""
    value = data.get(key, default)
    if not isinstance(value, (list, tuple)) or (sizes and len(value) not in sizes):
        shape = f" of {' or '.join(map(str, sizes))} items" if sizes else ""
        raise ValueError(f"{key!r} must be a list{shape}, got {value!r}")
    return tuple(value)


def load_experiment(data):
    """Parse an experiment spec dict (already JSON-decoded)."""
    if not isinstance(data, Mapping) or "kind" not in data:
        raise ValueError("experiment spec needs a 'kind' field")
    kind = data["kind"]
    system_spec = data.get("system")
    if system_spec is None:
        raise ValueError("experiment spec needs a 'system' field")
    if kind == "compatibility":
        return CompatibilityExperiment(
            system_spec=system_spec,
            samples_per_component=int(data.get("samples_per_component", 5000)),
            tol=float(data.get("tol", 1e-9)),
        )
    if kind == "basin":
        grid_spec = data.get("grid", {})
        if not isinstance(grid_spec, Mapping):
            raise ValueError(f"'grid' must be an object, got {grid_spec!r}")
        grid = GridSpec(
            theta_cells=int(grid_spec.get("theta_cells", 100)),
            u_cells=int(grid_spec.get("u_cells", 50)),
            u_range=_items(grid_spec, "u_range", (-2.0, 2.0), (2,)),
        )
        return BasinExperiment(
            system_spec=system_spec,
            grid=grid,
            mode=data.get("mode", "weak"),
            eps=float(data.get("eps", 1e-3)),
            duration=float(data.get("duration", 50.0)),
            step=float(data.get("step", 1e-3)),
        )
    if kind == "retraction":
        return RetractionExperiment(
            system_spec=system_spec,
            n_samples=int(data.get("n_samples", 200)),
            seed=int(data.get("seed", 0)),
            s_grid=_items(data, "s_grid", DEFAULT_S_GRID),
            t_max=float(data.get("t_max", 1e3)),
            step=float(data.get("step", 1e-3)),
            eps=float(data.get("eps", 1e-3)),
            target_kind=data.get("target_kind", "point"),
        )
    if kind == "integrate":
        start = _items(data, "start", ("A", 0.5 * math.pi, 0.5), (2, 3))
        if len(start) == 3:
            start = (start[0], float(start[1]), float(start[2]))
        else:
            start = (float(start[0]), float(start[1]))
        return IntegrateExperiment(
            system_spec=system_spec,
            start=start,
            duration=float(data.get("duration", 50.0)),
            step=float(data.get("step", 1e-3)),
            record_stride=int(data.get("record_stride", 100)),
            eps=float(data.get("eps", 1e-3)),
            dwell=float(data.get("dwell", 1.0)),
        )
    raise ValueError(f"unknown experiment kind {kind!r}")


def run_experiment(config):
    """Execute a parsed experiment; returns the report object."""
    system = system_from_spec(config.system_spec)
    if isinstance(config, CompatibilityExperiment):
        return check_compatibility(
            system, config.samples_per_component, config.tol
        )
    if isinstance(config, BasinExperiment):
        return basin(
            system,
            grid=config.grid,
            mode=config.mode,
            eps=config.eps,
            duration=config.duration,
            step=config.step,
        )
    if isinstance(config, RetractionExperiment):
        return flow_retraction(
            system,
            n_samples=config.n_samples,
            seed=config.seed,
            s_grid=config.s_grid,
            t_max=config.t_max,
            step=config.step,
            eps=config.eps,
            target_kind=config.target_kind,
        )
    if isinstance(config, IntegrateExperiment):
        return integrate(
            system,
            config.start,
            duration=config.duration,
            step=config.step,
            record_stride=config.record_stride,
            eps=config.eps,
            dwell=config.dwell,
        )
    raise TypeError(f"not an experiment config: {config!r}")
