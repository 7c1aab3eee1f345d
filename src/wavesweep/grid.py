"""Structured-grid data model: cell-centered fields with ghost cells,
interface-indexed fluctuation storage, and boundary-condition fills."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


class BoundaryCondition(enum.Enum):
    """Per-axis ghost-cell fill rule."""

    PERIODIC = "periodic"
    EXTRAPOLATE = "extrapolate"


@dataclass(frozen=True)
class GridSpec:
    """Geometry and component counts for one structured grid.

    nx, ny    interior cell counts
    dx, dy    cell widths
    num_eqn   conserved components per cell
    num_aux   auxiliary (material) components per cell, 0 allowed

    One ghost layer per side (`num_ghost`, a constant): the first-order
    donor-cell sweep, cell passes and update read only the cells next to an
    interface, so nothing beyond ghost layer 1.
    """

    num_ghost: ClassVar[int] = 1

    nx: int
    ny: int
    dx: float
    dy: float
    num_eqn: int = 1
    num_aux: int = 0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"cell counts must be >= 1, got nx={self.nx}, ny={self.ny}")
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError(f"cell widths must be > 0, got dx={self.dx}, dy={self.dy}")
        if self.num_eqn < 1:
            raise ValueError(f"num_eqn must be >= 1, got {self.num_eqn}")
        if self.num_aux < 0:
            raise ValueError(f"num_aux must be >= 0, got {self.num_aux}")

    @property
    def nx_total(self) -> int:
        return self.nx + 2 * self.num_ghost

    @property
    def ny_total(self) -> int:
        return self.ny + 2 * self.num_ghost

    @property
    def width(self) -> float:
        return self.nx * self.dx

    @property
    def height(self) -> float:
        return self.ny * self.dy

    def x_centers(self) -> np.ndarray:
        """Interior cell-center x coordinates, origin at the lower-left corner."""
        return (np.arange(self.nx) + 0.5) * self.dx

    def y_centers(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.dy


def _planar(ncomp: int, nx: int, ny: int, alloc=np.zeros) -> np.ndarray:
    """(ncomp, nx, ny) array stored component-planar with i fastest.

    Each component is one contiguous nx*ny plane, rows of constant j inside
    it: strides (nx*ny*8, 8, nx*8).  With one component this is the same
    memory as Fortran order.
    """
    return alloc((ncomp, ny, nx)).transpose(0, 2, 1)


class _Field:
    """Dense (ncomp, nx_total, ny_total) array addressed (component, i, j).

    Stored component-planar with i fastest (see _planar).  A kernel's numpy
    passes each read one component at a time, so a plane per component lets
    every pass stream contiguous rows instead of striding over the other
    components; a sweep cuts (i-range, j-range) blocks, so i stays fastest.
    Interior cell (i, j) lives at data[:, num_ghost + i, num_ghost + j];
    ghost indices extend num_ghost cells past each edge.
    """

    def __init__(self, spec: GridSpec, ncomp: int):
        self.spec = spec
        self.num_comp = ncomp
        self.data = _planar(ncomp, spec.nx_total, spec.ny_total)

    @property
    def interior(self) -> np.ndarray:
        """(ncomp, nx, ny) view of the interior cells (writable)."""
        g = self.spec.num_ghost
        return self.data[:, g : g + self.spec.nx, g : g + self.spec.ny]

    def copy(self):
        out = object.__new__(type(self))
        out.spec = self.spec
        out.num_comp = self.num_comp
        out.data = _planar(self.num_comp, self.spec.nx_total, self.spec.ny_total, np.empty)
        out.data[...] = self.data
        return out


class StateField(_Field):
    """Cell-centered conserved quantities (num_eqn components)."""

    def __init__(self, spec: GridSpec):
        super().__init__(spec, spec.num_eqn)


class AuxField(_Field):
    """Cell-centered material coefficients (num_aux components, possibly 0)."""

    def __init__(self, spec: GridSpec):
        super().__init__(spec, spec.num_aux)


class FluctuationField:
    """Per-interface left/right-going fluctuations for one sweep.

    x-interface (i, j), i in [0, nx], j in [0, ny): face between cells
    (i-1, j) and (i, j).  y-interface (i, j), i in [0, nx), j in [0, ny]:
    face between cells (i, j-1) and (i, j).  The field holds fluctuations
    only: the sweep's max wave speeds are in its SweepStats.  The four arrays
    are component-planar with i fastest, like the state, so a kernel result
    for an (i-range, j-range) block, which the kernels lay out in the same
    order, is stored as contiguous runs along i.  A fresh field is all zeros.
    """

    def __init__(self, spec: GridSpec):
        m = spec.num_eqn
        self.spec = spec
        self.x_minus = _planar(m, spec.nx + 1, spec.ny)
        self.x_plus = _planar(m, spec.nx + 1, spec.ny)
        self.y_minus = _planar(m, spec.nx, spec.ny + 1)
        self.y_plus = _planar(m, spec.nx, spec.ny + 1)


def allocate_fields(spec: GridSpec) -> tuple[StateField, AuxField, FluctuationField]:
    """Zero-initialized state, aux, and fluctuation storage for one grid."""
    return StateField(spec), AuxField(spec), FluctuationField(spec)


def check_same_grid(spec: GridSpec, **fields):
    """Raise ValueError, naming both specs, if a field given by name (None is
    skipped) lives on a grid other than `spec`."""
    for name, fld in fields.items():
        if fld is not None and fld.spec != spec:
            raise ValueError(f"{name} is a field for {fld.spec}, grid is {spec}")


def _fill_axis(data: np.ndarray, n: int, bc: BoundaryCondition, axis: int):
    # along `axis`: low ghost 0, interior 1..n, high ghost n + 1
    d = np.moveaxis(data, axis, 0)
    if bc is BoundaryCondition.PERIODIC:
        d[0], d[n + 1] = d[n], d[1]
    elif bc is BoundaryCondition.EXTRAPOLATE:
        d[0], d[n + 1] = d[1], d[n]
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")


def fill_ghost(field, bc_x: BoundaryCondition, bc_y: BoundaryCondition):
    """Fill the ghost frame of a state or aux field from its interior.

    Periodic wraps (ghost column -1 copies interior column nx-1, ghost column
    nx copies column 0; one cell wraps onto itself), extrapolate copies the
    nearest interior cell.  The x pass runs first over the full y extent,
    then the y pass over the full x extent, so corners end up consistent for
    dimension-split stencils.  Interior cells are never modified.  Returns
    the field.
    """
    spec = field.spec
    if field.num_comp == 0:
        return field
    _fill_axis(field.data, spec.nx, bc_x, axis=1)
    _fill_axis(field.data, spec.ny, bc_y, axis=2)
    return field
