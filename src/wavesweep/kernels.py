"""Pointwise Riemann solvers.

Each solver is a pure function from the states of two adjacent cells (plus
per-cell material data in the aux slots) to waves, speeds, and the left/right
fluctuations they induce, called solve(direction, ql, qr, auxl=None,
auxr=None, *, <params>) with its equation parameters as keyword-only floats,
which it checks on every call.  Nothing here knows about grids, sweeps, or
threads: a solver takes a batch of interfaces, states of shape
``(num_eqn, batch...)`` with at least one batch axis (one interface is a batch
of one, ``q[:, None]``), and every output element depends only on the
matching input elements, so results are bitwise identical however the batch
is carved up.  Every result array is fresh per call: a solver never writes its
inputs, and no result shares memory with an input or with another call's
results, so concurrent calls over one field cannot race.  The solvers compute
in place in their result slots, through `out=` and in-place operators, which
need arrays: that is why a state with no batch axis is a ValueError.

State conventions:
  advection       q = (tracer,)
  acoustics       q = (pressure, x-velocity, y-velocity)
  gas dynamics    q = (rho, x-momentum, y-momentum, total energy)

Fluctuations follow the wave-propagation convention: with waves W_p and
speeds s_p, amdq = sum over s_p < 0 of s_p * W_p (what leaves through the
left cell) and apdq = sum over s_p > 0 (what enters the right cell).
"""

from __future__ import annotations

import enum
import inspect
import math
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable

import numpy as np

# densities and pressures must strictly exceed this; there is no
# positivity-preserving repair, inadmissible inputs are an error
ADMISSIBILITY_FLOOR = 1e-300


class Direction(enum.Enum):
    """Which velocity/momentum component is normal to the interface."""

    X = "x"
    Y = "y"


class KernelError(ValueError):
    """Inadmissible or non-finite kernel input.

    `side` is "left", "right" or "input" (None for parameter problems);
    `element` is the batch multi-index of the first offending interface.
    """

    def __init__(self, message: str, side: str | None = None, element: tuple | None = None):
        super().__init__(message)
        self.side = side
        self.element = element


@dataclass(frozen=True)
class RiemannResult:
    """Solution of one batch of Riemann problems.

    waves   (num_waves, num_eqn) + batch  jump carried by each wave
    speeds  (num_waves,) + batch          signal speeds
    amdq    (num_eqn,) + batch            left-going fluctuation
    apdq    (num_eqn,) + batch            right-going fluctuation
    """

    waves: np.ndarray
    speeds: np.ndarray
    amdq: np.ndarray
    apdq: np.ndarray


@dataclass(frozen=True)
class KernelDescriptor:
    """One kernel family, declared once, as its entry in DESCRIPTORS.

    `solve` is the family's solver, solve(direction, ql, qr, auxl=None,
    auxr=None, *, <params>); its keyword-only parameters, the kernel's
    parameter list, are read once here rather than on every make_kernel call.
    A `cell_pass`, if any, is called as cell_pass(q, **kernel.params) on a
    block of cells: what the solver would compute for each cell on every side
    it is read from, once, wrapped for its aux slots, or None when the block
    fails the solver's checks.  A sweep reads it here, not from the bound
    solve, so a Kernel rebuilt around a wrapped solve keeps its cell pass.
    """

    name: str
    num_eqn: int
    num_waves: int
    num_aux: int
    solve: Callable[..., RiemannResult]
    cell_pass: Callable[..., CellPlanes | None] | None = None
    signature: inspect.Signature = field(init=False, repr=False)

    def __post_init__(self):
        params = inspect.signature(self.solve).parameters.values()
        object.__setattr__(self, "signature", inspect.Signature(
            [p for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY]))

    def check_components(self, num_eqn: int, num_aux: int):
        """ValueError unless the state and aux component counts of a grid, or
        of the fields passed to a sweep, are this kernel's."""
        if (num_eqn, num_aux) != (self.num_eqn, self.num_aux):
            raise ValueError(f"kernel {self.name} expects num_eqn={self.num_eqn}, "
                             f"num_aux={self.num_aux}; got num_eqn={num_eqn}, num_aux={num_aux}")


def _first_bad(mask: np.ndarray) -> tuple:
    """Batch multi-index of the first batch element flagged in a (ncomp,)+batch mask."""
    idx = np.argwhere(mask.any(axis=0))[0]
    return tuple(int(k) for k in idx)


def _raise_first_bad(message: str, **sides: np.ndarray):
    """Raise KernelError at the lowest batch element flagged on any side.

    `sides` maps a side name to its (ncomp,)+batch mask; the first side flagged
    at that element is named, filling the {side} field of `message`.  Taking
    the lowest element over all sides at once makes the reported interface
    independent of where a sweep cuts its batches.
    """
    bad = reduce(np.logical_or, sides.values())
    if bad.any():
        element = _first_bad(bad)
        side = next(name for name, mask in sides.items()
                    if mask[(slice(None),) + element].any())
        raise KernelError(message.format(side=side), side=side, element=element)


def _check_states(ql: np.ndarray, qr: np.ndarray,
                  num_eqn: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coerce one batch of state pairs and check it; returns (ql, qr, qr - ql).

    Guard, then locate: a NaN or inf in either state makes its jump, and so
    the jump's sum, non-finite, so one subtraction (whose result the solvers
    reuse) and one reduction clear a finite batch.  Only a batch that trips
    the guard is scanned for its lowest non-finite element; a finite jump that
    merely overflows trips it too, the scan finds nothing and the call goes
    on.  Floating-point warnings are off for the guard alone, so a bad input
    raises KernelError and nothing else.
    """
    ql = np.asarray(ql, dtype=float)
    qr = np.asarray(qr, dtype=float)
    if ql.shape != qr.shape or ql.ndim < 2 or ql.shape[0] != num_eqn:
        raise ValueError(
            f"states must share a ({num_eqn}, batch...) shape, got {ql.shape} and {qr.shape}"
        )
    with np.errstate(invalid="ignore", over="ignore"):
        jump = qr - ql
        total = jump.sum()
    if not np.isfinite(total):
        _raise_first_bad("non-finite {side} state",
                         left=~np.isfinite(ql), right=~np.isfinite(qr))
    return ql, qr, jump


def _check_positive(what: str, **sides: np.ndarray):
    """Raise at the lowest batch element where any side's `what` is not positive.

    Guard, then locate: a batch whose minimum on every side exceeds the floor
    passes on one reduction per side (an empty one has minimum +inf).  A NaN
    minimum fails that comparison, so NaN, like any value at or below the
    floor, sends the batch to the exact scan.
    """
    if all(np.min(arr, initial=np.inf) > ADMISSIBILITY_FLOOR for arr in sides.values()):
        return
    masks = {name: ~(arr > ADMISSIBILITY_FLOOR)[np.newaxis] for name, arr in sides.items()}
    _raise_first_bad(f"nonpositive {what} on {{side}} side", **masks)


def _normal_slot(direction: Direction) -> int:
    return 1 if direction is Direction.X else 2


def _result_array(lead: tuple, batch: np.ndarray) -> np.ndarray:
    """Uninitialized lead + batch.shape array in the memory order of `batch`.

    A 2-D batch whose first axis has the smaller stride, such as an (i, j)
    block of a component-planar field, gets its batch axes stored reversed,
    so each slot of the result, and everything computed from it, is laid out
    like the input and stores back as contiguous rows.  Any other batch gets
    plain C order.  Two strides are compared rather than sorted: this runs on
    every kernel call, under the interpreter lock.
    """
    if batch.ndim == 2 and batch.strides[0] < batch.strides[1]:
        n0, n1 = batch.shape
        return np.empty(lead + (n1, n0)).swapaxes(-1, -2)
    return np.empty(lead + batch.shape)


def rp_advection(direction: Direction, ql, qr, auxl=None, auxr=None, *,
                 u: float, v: float) -> RiemannResult:
    """Scalar advection with constant velocity (u, v): pure upwinding.

    One wave W = qr - ql at speed u (X sweeps) or v (Y sweeps).  The aux
    slots are ignored.
    """
    if not (math.isfinite(u) and math.isfinite(v)):
        raise KernelError(f"non-finite advection velocity ({u}, {v})")
    _, _, jump = _check_states(ql, qr, 1)
    s = u if direction is Direction.X else v
    batch = jump.shape[1:]
    waves = jump[np.newaxis]
    speeds = np.full((1,) + batch, s)
    amdq = min(s, 0.0) * jump
    apdq = max(s, 0.0) * jump
    return RiemannResult(waves, speeds, amdq, apdq)


def _acoustics(direction: Direction, jump, zl, zr, cl, cr) -> RiemannResult:
    """The acoustic Riemann solution shared by both acoustics solvers.

    Impedances Z_l, Z_r and sound speeds c_l, c_r are scalars or per-interface
    arrays.  With components (dp, dn) of `jump` = qr - ql in pressure and
    normal velocity, the wave strengths are

        a1 = (-dp + Z_r dn) / (Z_l + Z_r),  a2 = (dp + Z_l dn) / (Z_l + Z_r);

    the left-going wave travels at -c_l through eigenvector (-Z_l, 1, 0), the
    right-going at +c_r through (Z_r, 1, 0), in (pressure, normal) slots.
    The transverse velocity slot is untouched by both waves.
    """
    ni = _normal_slot(direction)
    dp = jump[0]
    dn = jump[ni]
    denom = zl + zr
    waves = _result_array((2, 3), dp)
    waves[:, 3 - ni] = 0.0  # the transverse slot, untouched by both waves
    a1 = np.multiply(zr, dn, out=waves[0, ni])
    a1 -= dp  # Z_r dn - dp is -dp + Z_r dn: x - y is x + (-y), and + commutes
    a1 /= denom
    a2 = np.multiply(zl, dn, out=waves[1, ni])
    a2 += dp
    a2 /= denom
    np.multiply(-zl, a1, out=waves[0, 0])
    np.multiply(zr, a2, out=waves[1, 0])
    speeds = _result_array((2,), dp)
    speeds[0] = -cl
    speeds[1] = cr
    amdq = -cl * waves[0]
    apdq = cr * waves[1]
    return RiemannResult(waves, speeds, amdq, apdq)


def rp_acoustics_const(direction: Direction, ql, qr, auxl=None, auxr=None, *,
                       rho: float, bulk: float) -> RiemannResult:
    """Constant-coefficient acoustics in a medium of density rho and bulk
    modulus bulk: two sound waves at speeds -c, +c, c = sqrt(bulk / rho).

    The shared acoustics solution with the same impedance Z = rho c and sound
    speed c on both sides, so the strengths reduce to (-dp + Z dn) / (2 Z) and
    (dp + Z dn) / (2 Z) (Z + Z is 2 Z exactly).  The aux slots are ignored.
    """
    if not (rho > 0 and bulk > 0):
        raise KernelError(f"density and bulk modulus must be positive, got {rho}, {bulk}")
    _, _, jump = _check_states(ql, qr, 3)
    c = math.sqrt(bulk / rho)
    z = rho * c
    return _acoustics(direction, jump, z, z, c, c)


def rp_acoustics_var(direction: Direction, ql, qr, auxl=None, auxr=None) -> RiemannResult:
    """Acoustics across a material jump: per-cell (rho, c) on each side.

    The shared acoustics solution with per-interface impedances
    Z = rho * c and sound speeds c read from each side's aux, which both
    sides must carry.  Reduces bitwise to the constant-coefficient solver
    when both sides carry the same material.
    """
    if auxl is None or auxr is None:
        raise ValueError("acoustics-var requires aux data on both sides")
    ql, qr, jump = _check_states(ql, qr, 3)
    auxl = np.asarray(auxl, dtype=float)
    auxr = np.asarray(auxr, dtype=float)
    if auxl.shape != ql[:2].shape or auxr.shape != qr[:2].shape:
        raise ValueError(
            f"aux must have shape (2, ...) matching the states, got {auxl.shape}, {auxr.shape}"
        )
    _check_positive("density", left=auxl[0], right=auxr[0])
    _check_positive("sound speed", left=auxl[1], right=auxr[1])
    return _acoustics(direction, jump, auxl[0] * auxl[1], auxr[0] * auxr[1],
                      auxl[1], auxr[1])


@dataclass(frozen=True)
class CellPlanes:
    """Per-cell Roe inputs of a block of gas states, every cell admissible.

    `planes` holds four batch-shaped arrays: sqrt(rho), sqrt(rho) u,
    sqrt(rho) v and sqrt(rho) H with H = (E + p) / rho, in x/y (not
    normal/transverse) order.  Only `euler_cell_planes` makes them from
    states, after checking that every cell is finite with density and
    pressure above the floor; indexing keeps that guarantee, so
    `cells[i0:i1, j0:j1]` is the CellPlanes of those cells.  Passed in
    `rp_euler`'s aux slots, they stand in for its per-side work and its
    density and pressure checks.
    """

    planes: tuple[np.ndarray, ...]

    def __getitem__(self, batch_index) -> CellPlanes:
        return CellPlanes(tuple(plane[batch_index] for plane in self.planes))


def _euler_cells(q: np.ndarray, gamma: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Pressure and Roe planes of gas states q, (4, batch...), with positive density.

    Returns (p, planes), planes as in CellPlanes, from

        p = (gamma - 1) (E - 0.5 rho (u^2 + v^2)),
        planes = (sqrt(rho), sqrt(rho) u, sqrt(rho) v, sqrt(rho) (E + p) / rho).

    Each is computed in place in its own array; a product or sum is taken
    with its operands swapped where that saves a temporary, which IEEE
    commutativity makes the same bits.  The pressure sums u^2 + v^2 in x/y
    order, so it is the same bits in either sweep direction.  Separate arrays,
    not one stacked (4,) + batch array: writing the planes into one through
    `out=` made plain `rp_euler` calls about 6% slower (8k-interface calls on
    a 2-core Xeon VM).
    """
    rho = q[0]
    u = q[1] / rho
    v = q[2] / rho
    kin = u * u
    kin += v * v
    p = 0.5 * rho
    p *= kin
    np.subtract(q[3], p, out=p)
    p *= gamma - 1.0
    sq = np.sqrt(rho)
    u *= sq
    v *= sq
    h = q[3] + p
    h *= sq
    h /= rho
    return p, (sq, u, v, h)


def euler_cell_planes(q, gamma: float) -> CellPlanes | None:
    """The CellPlanes of gas states q, (4, batch...), or None if any cell fails.

    Guard only, one reduction each for density, pressure and finiteness: a
    batch whose density and pressure exceed the floor and whose pressure is
    finite gets its planes; any other gets None, and its caller solves without
    planes so that `rp_euler` locates the failure.  With the density above the
    floor, a finite pressure means a finite cell: an infinite or NaN density,
    momentum or energy makes the pressure infinite or NaN.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim < 2 or q.shape[0] != 4:
        raise ValueError(f"gas states must have shape (4, batch...), got {q.shape}")
    if not np.min(q[0], initial=np.inf) > ADMISSIBILITY_FLOOR:
        return None
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite cell is caught below
        p, planes = _euler_cells(q, gamma)
    if not (np.min(p, initial=np.inf) > ADMISSIBILITY_FLOOR
            and np.max(p, initial=0.0) < np.inf):
        return None
    return CellPlanes(planes)


def _euler_roe(direction: Direction, jump, cells_l, cells_r, gamma: float) -> RiemannResult:
    """The Roe solution from the jump and each side's planes (see CellPlanes).

    With hats for the sqrt-density weighted averages and (d_rho, d_mn, d_mt,
    d_e) the jump in normal/transverse order:

        c2 = (gamma - 1) (h_hat - kin_hat),  kin_hat = 0.5 (u_hat^2 + v_hat^2)
        a_shear = d_mt - v_hat d_rho
        a_mid = (gamma - 1) / c2 ((h_hat - u_hat^2) d_rho + u_hat d_mn
                                  - (d_e - a_shear v_hat))
        a_plus = 0.5 ((d_mn - u_hat d_rho) / c_hat + d_rho - a_mid)
        a_minus = d_rho - a_mid - a_plus

    Every value is computed in place, in its result slot where it has one
    (u_hat is speeds[1]; the strengths are the waves' density slots), with
    the operations and their order of the formulas; an operand moves only
    across a single + or x, which IEEE makes commutative.
    """
    ni = _normal_slot(direction)
    ti = 3 - ni
    d_rho, d_mn, d_mt, d_e = jump[0], jump[ni], jump[ti], jump[3]
    speeds = _result_array((3,), d_rho)
    waves = _result_array((3, 4), d_rho)

    wsum = cells_l[0] + cells_r[0]
    u_hat = np.add(cells_l[ni], cells_r[ni], out=speeds[1])
    u_hat /= wsum
    v_hat = cells_l[ti] + cells_r[ti]
    v_hat /= wsum
    h_hat = cells_l[3] + cells_r[3]
    h_hat /= wsum
    uu = u_hat * u_hat
    kin_hat = v_hat * v_hat
    kin_hat += uu
    kin_hat *= 0.5
    c2 = np.subtract(h_hat, kin_hat, out=wsum)
    c2 *= gamma - 1.0
    if not np.min(c2, initial=np.inf) > 0.0:  # guard, then locate, as _check_positive
        raise KernelError(
            "Roe-average sound speed is not real", element=_first_bad(~(c2 > 0.0)[np.newaxis])
        )
    c_hat = np.sqrt(c2)

    a_shear = v_hat * d_rho
    np.subtract(d_mt, a_shear, out=a_shear)
    shear_v = a_shear * v_hat
    rest = h_hat - uu
    rest *= d_rho
    tmp = u_hat * d_mn
    rest += tmp
    np.subtract(d_e, shear_v, out=tmp)
    rest -= tmp
    a_mid = np.divide(gamma - 1.0, c2, out=waves[1, 0])
    a_mid *= rest
    span = np.multiply(u_hat, d_rho, out=rest)
    np.subtract(d_mn, span, out=span)
    span /= c_hat
    a_plus = np.add(span, d_rho, out=waves[2, 0])
    a_plus -= a_mid
    a_plus *= 0.5
    a_minus = np.subtract(d_rho, a_mid, out=waves[0, 0])
    a_minus -= a_plus

    np.subtract(u_hat, c_hat, out=speeds[0])
    np.add(u_hat, c_hat, out=speeds[2])
    uc = np.multiply(u_hat, c_hat, out=c_hat)

    np.multiply(a_minus, speeds[0], out=waves[0, ni])
    np.multiply(a_minus, v_hat, out=waves[0, ti])
    np.subtract(h_hat, uc, out=tmp)
    np.multiply(a_minus, tmp, out=waves[0, 3])
    np.multiply(a_mid, u_hat, out=waves[1, ni])
    np.multiply(a_mid, v_hat, out=waves[1, ti])
    waves[1, ti] += a_shear
    np.multiply(a_mid, kin_hat, out=waves[1, 3])
    waves[1, 3] += shear_v
    np.multiply(a_plus, speeds[2], out=waves[2, ni])
    np.multiply(a_plus, v_hat, out=waves[2, ti])
    np.add(h_hat, uc, out=tmp)
    np.multiply(a_plus, tmp, out=waves[2, 3])

    neg = np.minimum(speeds, 0.0)
    pos = np.maximum(speeds, 0.0)
    amdq = neg[0] * waves[0]
    apdq = pos[0] * waves[0]
    term = np.empty_like(amdq)
    for k in (1, 2):
        amdq += np.multiply(neg[k], waves[k], out=term)
        apdq += np.multiply(pos[k], waves[k], out=term)
    return RiemannResult(waves, speeds, amdq, apdq)


def _check_gamma(gamma: float):
    if not gamma > 1.0:
        raise KernelError(f"gamma must exceed 1, got {gamma}")


def rp_euler(direction: Direction, ql, qr, auxl=None, auxr=None, *,
             gamma: float = 1.4) -> RiemannResult:
    """Ideal-gas dynamics via Roe linearization, three waves, no entropy fix.

    Speeds are (u_hat - c_hat, u_hat, u_hat + c_hat) from the sqrt-density
    weighted averages of velocity and specific enthalpy.  The middle wave
    carries the contact (density jump at constant pressure) together with
    the transverse-momentum jump.  Without an entropy fix, transonic
    rarefactions may be rendered as (entropy-violating) jumps; benchmarking
    kernel cost does not require shock admissibility.

    The aux slots are ignored unless both hold CellPlanes, which must be those
    of ql and qr for this gamma (from `euler_cell_planes`): the per-side work
    and the density and pressure checks are then skipped, and the result is
    bitwise the same.
    """
    _check_gamma(gamma)
    ql, qr, jump = _check_states(ql, qr, 4)
    if isinstance(auxl, CellPlanes) and isinstance(auxr, CellPlanes):
        if auxl.planes[0].shape != ql.shape[1:] or auxr.planes[0].shape != qr.shape[1:]:
            raise ValueError(
                f"cell planes must cover the states' batch {ql.shape[1:]}, "
                f"got {auxl.planes[0].shape} and {auxr.planes[0].shape}"
            )
        return _euler_roe(direction, jump, auxl.planes, auxr.planes, gamma)
    _check_positive("density", left=ql[0], right=qr[0])
    p_l, cells_l = _euler_cells(ql, gamma)
    p_r, cells_r = _euler_cells(qr, gamma)
    _check_positive("pressure", left=p_l, right=p_r)
    return _euler_roe(direction, jump, cells_l, cells_r, gamma)


def euler_flux(q, direction: Direction, gamma: float = 1.4) -> np.ndarray:
    """Physical gas-dynamics flux through a plane normal to `direction`.

    For X: (rho u, rho u^2 + p, rho u v, u (E + p)); Y is the mirror image.
    Used as the independent oracle for the conservation (Roe) property.
    """
    _check_gamma(gamma)
    q = np.asarray(q, dtype=float)
    if q.ndim < 1 or q.shape[0] != 4:
        raise ValueError(f"gas state must have 4 components, got shape {q.shape}")
    _raise_first_bad("non-finite {side} state", input=~np.isfinite(q))
    ni = _normal_slot(direction)
    ti = 3 - ni

    rho = q[0]
    _check_positive("density", input=rho)
    un = q[ni] / rho
    kin = 0.5 * (q[ni] * q[ni] + q[ti] * q[ti]) / rho
    p = (gamma - 1.0) * (q[3] - kin)
    _check_positive("pressure", input=p)

    out = np.empty_like(q)
    out[0] = q[ni]
    out[ni] = q[ni] * un + p
    out[ti] = q[ti] * un
    out[3] = un * (q[3] + p)
    return out


class Kernel:
    """A kernel descriptor bound to its parameters, ready for sweeping.

    `solve(direction, ql, qr, auxl, auxr)` is the descriptor's solver with
    `params` bound (by functools.partial in make_kernel, so a bound kernel
    pickles); what the aux slots carry is the solver's business.
    """

    def __init__(self, descriptor: KernelDescriptor, params: dict,
                 solve: Callable[..., RiemannResult]):
        self.descriptor = descriptor
        self.params = dict(params)
        self.solve = solve

    def __repr__(self):
        args = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"Kernel({self.descriptor.name}, {args})"


DESCRIPTORS: dict[str, KernelDescriptor] = {
    "advection": KernelDescriptor("advection", 1, 1, 0, rp_advection),
    "acoustics-const": KernelDescriptor("acoustics-const", 3, 2, 0, rp_acoustics_const),
    "acoustics-var": KernelDescriptor("acoustics-var", 3, 2, 2, rp_acoustics_var),
    "euler": KernelDescriptor("euler", 4, 3, 0, rp_euler, euler_cell_planes),
}

KERNEL_NAMES = tuple(DESCRIPTORS)


def lookup_kernel(name: str) -> KernelDescriptor:
    """The descriptor of the kernel called `name`; ValueError listing the
    declared names if there is none."""
    desc = DESCRIPTORS.get(name)
    if desc is None:
        raise ValueError(f"unknown kernel {name!r}; available: {', '.join(DESCRIPTORS)}")
    return desc


def make_kernel(name: str, **params) -> Kernel:
    """Bind a kernel declared in DESCRIPTORS to concrete (float) parameters.

    The built-ins take advection(u, v), acoustics-const(rho, bulk),
    acoustics-var() which reads per-cell (rho, c) from the aux field, and
    euler(gamma=1.4).  An unknown kernel and unexpected or missing parameters
    raise ValueError; a value the solver refuses (rho <= 0, say) raises from
    the first solve.
    """
    desc = lookup_kernel(name)
    try:
        bound = desc.signature.bind(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for kernel {name}: {exc}") from None
    bound.apply_defaults()
    values = {k: float(v) for k, v in bound.arguments.items()}
    return Kernel(desc, values, partial(desc.solve, **values))
