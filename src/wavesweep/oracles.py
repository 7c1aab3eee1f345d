"""Independent reference computations used by tests and the verify command.

Everything here is deliberately written from the governing equations rather
than by calling the production kernels, so these functions can serve as
oracles for them: an exact similarity solution for the 1D gas-dynamics
Riemann problem, translation solutions for advection, analytic coefficient
matrices for the linear kernels, and grid error norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels as K
from .bench import make_backend, strategy_name
from .driver import (DEFAULT_IC, SOD_LEFT, SOD_RIGHT, SimulationConfig, TimestepController,
                     gaussian_profile, initial_condition, run, unit_square_spec)
from .driver import step as advance
from .grid import BoundaryCondition, GridSpec, StateField
from .kernels import Direction
from .sweep import CellWise, RowWise, Tiled

_GAS_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# advection: exact translation solution


def exact_advection(
    profile: Callable[[np.ndarray, np.ndarray], np.ndarray],
    u: float,
    v: float,
    t: float,
    spec: GridSpec,
) -> StateField:
    """Initial profile translated by (u*t, v*t) with periodic wrap.

    `profile(x, y)` is sampled at cell centers shifted back along the
    characteristics, so the result is the exact solution of the constant
    advection equation on the periodic domain.
    """
    if spec.num_eqn != 1:
        raise ValueError("advection solution is scalar, spec.num_eqn must be 1")
    x = (spec.x_centers() - u * t) % spec.width
    y = (spec.y_centers() - v * t) % spec.height
    xx, yy = np.meshgrid(x, y, indexing="ij")
    out = StateField(spec)
    out.interior[0] = profile(xx, yy)
    return out


# ---------------------------------------------------------------------------
# linear kernels: analytic coefficient matrix at an interface


def linear_matrix_apply(
    kernel: str,
    delta: np.ndarray,
    direction: Direction,
    *,
    rho: float | None = None,
    bulk: float | None = None,
    aux_l: tuple[float, float] | None = None,
    aux_r: tuple[float, float] | None = None,
) -> np.ndarray:
    """Apply the analytic interface matrix of a linear kernel to a state jump.

    For "acoustics-const" (pass rho, bulk) the matrix is the coefficient
    matrix of the acoustics system,

        d/dt (p, u, v) + A_x d/dx (p, u, v) + A_y d/dy (...) = 0,
        A_x = [[0, K, 0], [1/rho, 0, 0], [0, 0, 0]],

    with A_y the y analogue.  For "acoustics-var" (pass aux_l=(rho_l, c_l),
    aux_r=(rho_r, c_r)) it is the interface matrix R diag(-c_l, +c_r) R^-1
    built from the interface eigenvectors, which is what the sum of
    speed-weighted waves must equal for any jump.  delta may carry trailing
    batch axes: shape (3,) or (3, n).
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape[0] != 3:
        raise ValueError(f"acoustics jump must have 3 components, got {delta.shape}")
    ni = 1 if direction is Direction.X else 2

    if kernel == "acoustics-const":
        if rho is None or bulk is None:
            raise ValueError("acoustics-const requires rho and bulk")
        a = np.zeros((3, 3))
        a[0, ni] = bulk
        a[ni, 0] = 1.0 / rho
    elif kernel == "acoustics-var":
        if aux_l is None or aux_r is None:
            raise ValueError("acoustics-var requires aux_l and aux_r")
        rho_l, c_l = aux_l
        rho_r, c_r = aux_r
        zl, zr = rho_l * c_l, rho_r * c_r
        # columns are the left/right-going eigenvectors in (p, normal) space
        r = np.array([[-zl, zr], [1.0, 1.0]])
        s = np.diag([-c_l, c_r])
        r_inv = np.array([[1.0, -zr], [-1.0, -zl]]) / (-(zl + zr))
        a2 = r @ s @ r_inv
        a = np.zeros((3, 3))
        a[np.ix_([0, ni], [0, ni])] = a2
    else:
        raise ValueError(f"no interface matrix for kernel {kernel!r}")

    flat = delta.reshape(3, -1)
    return (a @ flat).reshape(delta.shape)


# ---------------------------------------------------------------------------
# exact 1D Euler Riemann solution (classical pressure-function root solve)


def _pressure_fn(p, rho_k, p_k, c_k, gamma):
    """Toro's f_K(p) and its derivative for one side of the star region."""
    if p > p_k:  # shock
        a_k = 2.0 / ((gamma + 1.0) * rho_k)
        b_k = (gamma - 1.0) / (gamma + 1.0) * p_k
        root = math.sqrt(a_k / (p + b_k))
        f = (p - p_k) * root
        df = root * (1.0 - 0.5 * (p - p_k) / (p + b_k))
    else:  # rarefaction
        f = 2.0 * c_k / (gamma - 1.0) * ((p / p_k) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)
        df = 1.0 / (rho_k * c_k) * (p / p_k) ** (-(gamma + 1.0) / (2.0 * gamma))
    return f, df


def _primitives_1d(q, gamma, side):
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"{side} state must have 4 components, got shape {q.shape}")
    rho = float(q[0])
    if not rho > _GAS_FLOOR:
        raise ValueError(f"nonpositive density on {side} side: {rho}")
    u = float(q[1]) / rho
    v = float(q[2]) / rho
    p = (gamma - 1.0) * (float(q[3]) - 0.5 * rho * (u * u + v * v))
    if not p > _GAS_FLOOR:
        raise ValueError(f"nonpositive pressure on {side} side: {p}")
    return rho, u, v, p


def euler_star(ql, qr, gamma: float = 1.4) -> tuple[float, float]:
    """Star-region pressure and velocity between two gas states.

    Solves f_L(p) + f_R(p) + (u_r - u_l) = 0 by bracketed Newton iteration
    with bisection fallback, to |dp| <= 1e-12 relative.
    """
    rho_l, u_l, _, p_l = _primitives_1d(ql, gamma, "left")
    rho_r, u_r, _, p_r = _primitives_1d(qr, gamma, "right")
    c_l = math.sqrt(gamma * p_l / rho_l)
    c_r = math.sqrt(gamma * p_r / rho_r)

    du = u_r - u_l
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= du:
        raise ValueError("states produce a vacuum region, no star state exists")

    def f(p):
        fl, dfl = _pressure_fn(p, rho_l, p_l, c_l, gamma)
        fr, dfr = _pressure_fn(p, rho_r, p_r, c_r, gamma)
        return fl + fr + du, dfl + dfr

    lo = 1e-14 * min(p_l, p_r)
    hi = max(p_l, p_r)
    while f(hi)[0] < 0.0:
        hi *= 2.0

    p = max(0.5 * (p_l + p_r), lo)
    for _ in range(200):
        val, slope = f(p)
        if val > 0.0:
            hi = p
        else:
            lo = p
        step = -val / slope if slope > 0.0 else math.inf
        p_new = p + step
        if not lo < p_new < hi:
            p_new = 0.5 * (lo + hi)
        dp = abs(p_new - p)
        p = p_new
        if dp <= 1e-12 * max(1.0, p):
            break
    f_l = _pressure_fn(p, rho_l, p_l, c_l, gamma)[0]
    f_r = _pressure_fn(p, rho_r, p_r, c_r, gamma)[0]
    u = 0.5 * (u_l + u_r) + 0.5 * (f_r - f_l)
    return p, u


def _sample_side(xi, rho_k, u_k, p_k, c_k, p_star, u_star, gamma, left: bool):
    """Primitive (rho, u, p) at similarity coordinate xi on one side of the contact."""
    gm1 = gamma - 1.0
    gp1 = gamma + 1.0
    sgn = 1.0 if left else -1.0
    ratio = p_star / p_k
    if p_star > p_k:  # shock on this side
        s_k = u_k - sgn * c_k * math.sqrt(gp1 / (2.0 * gamma) * ratio + gm1 / (2.0 * gamma))
        outside = xi < s_k if left else xi > s_k
        if outside:
            return rho_k, u_k, p_k
        rho_star = rho_k * (ratio + gm1 / gp1) / (gm1 / gp1 * ratio + 1.0)
        return rho_star, u_star, p_star
    # rarefaction on this side
    head = u_k - sgn * c_k
    c_star = c_k * ratio ** (gm1 / (2.0 * gamma))
    tail = u_star - sgn * c_star
    outside = xi < head if left else xi > head
    if outside:
        return rho_k, u_k, p_k
    inside_star = xi > tail if left else xi < tail
    if inside_star:
        rho_star = rho_k * ratio ** (1.0 / gamma)
        return rho_star, u_star, p_star
    # inside the fan
    factor = 2.0 / gp1 + sgn * gm1 / (gp1 * c_k) * (u_k - xi)
    rho = rho_k * factor ** (2.0 / gm1)
    u = 2.0 / gp1 * (sgn * c_k + gm1 / 2.0 * u_k + xi)
    p = p_k * factor ** (2.0 * gamma / gm1)
    return rho, u, p


def exact_riemann_euler_1d(ql, qr, gamma: float, x_over_t) -> np.ndarray:
    """Exact similarity solution q(x/t) of the 1D gas-dynamics Riemann problem.

    States are conserved 4-vectors (rho, rho*u, rho*v, E) with u the normal
    and v the passively advected transverse velocity; v jumps across the
    contact.  x_over_t may be a scalar or an array; the result has shape
    (4,) + shape(x_over_t).
    """
    rho_l, u_l, v_l, p_l = _primitives_1d(ql, gamma, "left")
    rho_r, u_r, v_r, p_r = _primitives_1d(qr, gamma, "right")
    c_l = math.sqrt(gamma * p_l / rho_l)
    c_r = math.sqrt(gamma * p_r / rho_r)
    p_star, u_star = euler_star(ql, qr, gamma)

    xi_arr = np.atleast_1d(np.asarray(x_over_t, dtype=float))
    out = np.empty((4,) + xi_arr.shape)
    for idx, xi in np.ndenumerate(xi_arr):
        if xi < u_star:
            rho, u, p = _sample_side(xi, rho_l, u_l, p_l, c_l, p_star, u_star, gamma, left=True)
            v = v_l
        else:
            rho, u, p = _sample_side(xi, rho_r, u_r, p_r, c_r, p_star, u_star, gamma, left=False)
            v = v_r
        out[(0,) + idx] = rho
        out[(1,) + idx] = rho * u
        out[(2,) + idx] = rho * v
        out[(3,) + idx] = p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v)
    if np.isscalar(x_over_t) or np.asarray(x_over_t).shape == ():
        return out[:, 0]
    return out.reshape((4,) + np.asarray(x_over_t).shape)


# ---------------------------------------------------------------------------
# error norms


@dataclass(frozen=True)
class ErrorNorms:
    l1: float
    l2: float
    linf: float


def error_norms(numeric: StateField, reference: StateField, component: int | None = None) -> ErrorNorms:
    """Cell-area-weighted L1/L2 and pointwise Linf over the interior."""
    if numeric.spec != reference.spec:
        raise ValueError("fields must share a GridSpec")
    diff = numeric.interior - reference.interior
    if component is not None:
        diff = diff[component : component + 1]
    area = numeric.spec.dx * numeric.spec.dy
    abs_diff = np.abs(diff)
    return ErrorNorms(
        l1=float(abs_diff.sum() * area),
        l2=float(math.sqrt((diff * diff).sum() * area)),
        linf=float(abs_diff.max()) if abs_diff.size else 0.0,
    )


# ---------------------------------------------------------------------------
# randomized property checks and the verify suite


def rel_err(value, reference) -> float:
    """Worst elementwise |value - reference| / max(1, |reference|)."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if value.size == 0:
        return 0.0
    return float(np.max(np.abs(value - reference) / np.maximum(1.0, np.abs(reference))))


def wave_sum(result) -> np.ndarray:
    """Sum of speed-weighted waves, accumulated in fixed wave order."""
    total = result.speeds[0] * result.waves[0]
    for p in range(1, result.waves.shape[0]):
        total = total + result.speeds[p] * result.waves[p]
    return total


def random_gas_states(rng, n: int, gamma: float) -> np.ndarray:
    """(4, n) admissible conserved gas states with moderate Mach numbers."""
    rho = rng.uniform(0.1, 10.0, n)
    u = rng.uniform(-3.0, 3.0, n)
    v = rng.uniform(-3.0, 3.0, n)
    p = rng.uniform(0.1, 10.0, n)
    return np.stack([rho, rho * u, rho * v,
                     p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v)])


def _directions(rng):
    return Direction.X if rng.random() < 0.5 else Direction.Y


def fluctuation_identity_errors(seed: int, samples: int = 10_000) -> dict[str, float]:
    """Worst relative defect of amdq + apdq = sum(s W), keyed by each kernel run."""
    rng = np.random.default_rng(seed)
    batches = 20
    per = samples // batches
    worst: dict[str, float] = {}

    def record(name, res):
        worst[name] = max(worst.get(name, 0.0), rel_err(res.amdq + res.apdq, wave_sum(res)))

    for _ in range(batches):
        d = _directions(rng)

        ql, qr = rng.normal(size=(2, 1, per))
        record("advection", K.rp_advection(d, ql, qr, u=rng.uniform(-2, 2),
                                           v=rng.uniform(-2, 2)))

        ql, qr = rng.normal(size=(2, 3, per))
        record("acoustics-const", K.rp_acoustics_const(d, ql, qr, rho=rng.uniform(0.1, 10.0),
                                                       bulk=rng.uniform(0.1, 10.0)))

        ql, qr = rng.normal(size=(2, 3, per))
        auxl = rng.uniform(0.1, 10.0, (2, per))
        auxr = rng.uniform(0.1, 10.0, (2, per))
        record("acoustics-var", K.rp_acoustics_var(d, ql, qr, auxl, auxr))

        gamma = rng.uniform(1.2, 1.9)
        ql = random_gas_states(rng, per, gamma)
        qr = random_gas_states(rng, per, gamma)
        record("euler", K.rp_euler(d, ql, qr, gamma=gamma))
    return worst


def conservation_property_errors(seed: int, samples: int = 10_000) -> dict[str, float]:
    """Worst relative defect of amdq + apdq = f(qr) - f(ql) (Roe property)."""
    rng = np.random.default_rng(seed)
    batches = 20
    per = samples // batches
    worst = {"advection": 0.0, "euler": 0.0}
    for _ in range(batches):
        d = _directions(rng)

        ql, qr = rng.normal(size=(2, 1, per))
        u, v = rng.uniform(-2, 2), rng.uniform(-2, 2)
        res = K.rp_advection(d, ql, qr, u=u, v=v)
        s = u if d is K.Direction.X else v
        worst["advection"] = max(worst["advection"],
                                 rel_err(res.amdq + res.apdq, s * qr - s * ql))

        gamma = rng.uniform(1.2, 1.9)
        ql = random_gas_states(rng, per, gamma)
        qr = random_gas_states(rng, per, gamma)
        res = K.rp_euler(d, ql, qr, gamma=gamma)
        dflux = K.euler_flux(qr, d, gamma) - K.euler_flux(ql, d, gamma)
        worst["euler"] = max(worst["euler"], rel_err(res.amdq + res.apdq, dflux))
    return worst


def linear_exactness_errors(seed: int, samples: int = 10_000) -> dict[str, float]:
    """Worst relative defect of sum(s W) = A (qr - ql) for the acoustics kernels."""
    rng = np.random.default_rng(seed)
    batches = 20
    per = samples // batches
    worst = {"acoustics-const": 0.0, "acoustics-var": 0.0}
    for _ in range(batches):
        d = _directions(rng)

        ql, qr = rng.normal(size=(2, 3, per))
        rho = rng.uniform(0.1, 10.0)
        bulk = rng.uniform(0.1, 10.0)
        res = K.rp_acoustics_const(d, ql, qr, rho=rho, bulk=bulk)
        ref = linear_matrix_apply("acoustics-const", qr - ql, d, rho=rho, bulk=bulk)
        worst["acoustics-const"] = max(worst["acoustics-const"], rel_err(wave_sum(res), ref))

        ql, qr = rng.normal(size=(2, 3, per))
        aux_l = (rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
        aux_r = (rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
        auxl = np.broadcast_to(np.array(aux_l)[:, None], (2, per))
        auxr = np.broadcast_to(np.array(aux_r)[:, None], (2, per))
        res = K.rp_acoustics_var(d, ql, qr, auxl, auxr)
        ref = linear_matrix_apply("acoustics-var", qr - ql, d, aux_l=aux_l, aux_r=aux_r)
        worst["acoustics-var"] = max(worst["acoustics-var"], rel_err(wave_sum(res), ref))
    return worst


_EQUIV_BACKENDS = (("serial", 1, None), ("static", 4, None),
                   ("workstealing", 4, 1), ("workstealing", 4, 7))


def equivalence_mismatches(nx: int = 128, ny: int = 96, steps: int = 10,
                           strategies=None) -> list[str]:
    """Strategy x backend combinations whose final state differs from serial.

    Runs every kernel for `steps` steps under every traversal strategy and
    backend; returns the (empty, when all is well) list of mismatching
    combination labels.
    """
    if strategies is None:
        strategies = (RowWise(), CellWise(), Tiled(), Tiled(7, 5))
    mismatches = []
    for kernel in K.KERNEL_NAMES:
        spec = unit_square_spec(kernel, nx, ny)
        reference = None
        for strategy in strategies:
            for backend_name, threads, grain in _EQUIV_BACKENDS:
                backend = make_backend(backend_name, threads, grain)
                config = SimulationConfig(spec=spec, kernel=kernel,
                                          ic=DEFAULT_IC[kernel], strategy=strategy,
                                          backend=backend, num_steps=steps)
                state, _ = run(config)
                if reference is None:
                    reference = state.data.copy()
                elif not np.array_equal(state.data, reference):
                    mismatches.append(f"{kernel}/{strategy_name(strategy)}/"
                                      f"{backend_name}x{threads}")
    return mismatches


def conservation_run_errors(steps: int = 100) -> dict[str, float]:
    """Worst per-step relative drift of componentwise interior sums.

    Periodic advection and gas-dynamics runs; a conservative scheme keeps
    every component's interior sum fixed up to rounding.
    """
    worst = {}
    cases = {
        "advection": ("advection-gaussian", GridSpec(64, 64, 1 / 64, 1 / 64, num_eqn=1)),
        "euler": ("euler-sod-x", GridSpec(64, 8, 1 / 64, 1 / 64, num_eqn=4)),
    }
    for kernel, (ic, spec) in cases.items():
        config = SimulationConfig(spec=spec, kernel=kernel, ic=ic, num_steps=steps)
        ctl = TimestepController()
        state, aux, _ = initial_condition(ic, spec)
        drift = 0.0
        sums = state.interior.sum(axis=(1, 2))
        for _ in range(steps):
            advance(state, aux, config, ctl)
            new_sums = state.interior.sum(axis=(1, 2))
            drift = max(drift, rel_err(new_sums, sums))
            sums = new_sums
        worst[kernel] = drift
    return worst


def advection_convergence(grids=(64, 128, 256, 512), t_final: float = 0.2
                          ) -> tuple[float, list[float]]:
    """Self-convergence order of the Gaussian advection run vs exact translation.

    Returns the least-squares slope of log(error) vs log(h) and the L1 errors.
    """
    errors = []
    for n in grids:
        spec = GridSpec(nx=n, ny=n, dx=1.0 / n, dy=1.0 / n, num_eqn=1)
        config = SimulationConfig(spec=spec, kernel="advection",
                                  ic="advection-gaussian", t_final=t_final)
        state, _ = run(config)
        exact = exact_advection(gaussian_profile(spec), 1.0, 1.0, t_final, spec)
        errors.append(error_norms(state, exact).l1)
    h = np.log([1.0 / n for n in grids])
    order = float(np.polyfit(h, np.log(errors), 1)[0])
    return order, errors


def sod_density_l1(nx: int, t_final: float = 0.15, gamma: float = 1.4) -> float:
    """1D L1 density error of a thin-strip shock-tube run vs the exact solution.

    The strip is nx x 4 with square cells; the profile of the first interior
    row is compared against the exact similarity solution, weighted by dx.
    """
    spec = GridSpec(nx=nx, ny=4, dx=1.0 / nx, dy=1.0 / nx, num_eqn=4)
    config = SimulationConfig(spec=spec, kernel="euler", ic="euler-sod-x",
                              bc_x=BoundaryCondition.EXTRAPOLATE,
                              bc_y=BoundaryCondition.PERIODIC, t_final=t_final)
    state, _ = run(config)
    xi = (spec.x_centers() - 0.5 * spec.width) / t_final
    exact = exact_riemann_euler_1d(np.array(SOD_LEFT), np.array(SOD_RIGHT), gamma, xi)
    rho_num = state.interior[0, :, 0]
    return float(np.abs(rho_num - exact[0]).sum() * spec.dx)


@dataclass
class VerifyResult:
    name: str
    ok: bool
    detail: str


@dataclass
class VerifyReport:
    results: list[VerifyResult]
    seed: int

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)


def verify_suite(seed: int, only: set[str] | None = None) -> VerifyReport:
    """Run every module invariant as an oracle-backed check.

    Deterministic for a given seed.  `only` restricts to a subset of check
    names (mainly for targeted debugging); the command-line `verify` runs
    them all.
    """

    def fluctuation_identity():
        worst = fluctuation_identity_errors(seed)
        unchecked = [k for k in K.KERNEL_NAMES if k not in worst]
        if unchecked:
            return False, f"no samples for declared kernels {', '.join(unchecked)}"
        bad = {k: v for k, v in worst.items() if v > 1e-12}
        return not bad, f"worst rel err {max(worst.values()):.2e}"

    def conservation_property():
        worst = conservation_property_errors(seed)
        return max(worst.values()) <= 1e-11, f"worst rel err {max(worst.values()):.2e}"

    def linear_exactness():
        worst = linear_exactness_errors(seed)
        return max(worst.values()) <= 1e-12, f"worst rel err {max(worst.values()):.2e}"

    def equivalence():
        mismatches = equivalence_mismatches()
        return not mismatches, ("all strategy/backend states bitwise equal"
                                if not mismatches else f"mismatches: {mismatches}")

    def conservation_run():
        worst = conservation_run_errors()
        return max(worst.values()) <= 1e-12, f"worst per-step drift {max(worst.values()):.2e}"

    def convergence():
        order, errors = advection_convergence()
        return 0.7 <= order <= 1.1, f"order {order:.3f}, L1 errors {['%.3e' % e for e in errors]}"

    def sod():
        e400 = sod_density_l1(400)
        e800 = sod_density_l1(800)
        return (e400 <= 0.02 and e800 < e400), f"L1(400)={e400:.4f}, L1(800)={e800:.4f}"

    checks = [
        ("fluctuation-identity", fluctuation_identity),
        ("conservation-property", conservation_property),
        ("linear-exactness", linear_exactness),
        ("strategy-backend-equivalence", equivalence),
        ("conservation-run", conservation_run),
        ("advection-convergence", convergence),
        ("sod-shock-accuracy", sod),
    ]

    results = []
    for name, fn in checks:
        if only is not None and name not in only:
            continue
        ok, detail = fn()
        results.append(VerifyResult(name=name, ok=ok, detail=detail))
    return VerifyReport(results=results, seed=seed)
