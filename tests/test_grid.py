import math
from dataclasses import fields

import numpy as np
import pytest

from wavesweep.grid import (AuxField, BoundaryCondition, FluctuationField,
                            GridSpec, StateField, allocate_fields, fill_ghost)

PER = BoundaryCondition.PERIODIC
EXT = BoundaryCondition.EXTRAPOLATE


def test_allocation_shapes():
    spec = GridSpec(nx=4, ny=3, dx=0.1, dy=0.1, num_eqn=1)
    state, aux, fluct = allocate_fields(spec)
    assert state.data.shape == (1, 6, 5)
    assert state.data.size == 30
    assert aux.data.shape == (0, 6, 5)
    assert fluct.x_minus.shape == (1, 5, 3)
    assert fluct.x_plus.shape == (1, 5, 3)
    assert fluct.y_minus.shape == (1, 4, 4)
    assert fluct.y_plus.shape == (1, 4, 4)
    for arr in (state.data, fluct.x_minus, fluct.y_plus):
        assert np.all(arr == 0.0)


def test_fresh_fluctuation_field_is_zero():
    # a field made where a dirtied one was freed, small (heap) and large
    # (mmap) alike, reads all zeros
    for n in (4, 600):
        spec = GridSpec(nx=n, ny=n, dx=0.1, dy=0.1, num_eqn=4)
        dirty = FluctuationField(spec)
        for arr in (dirty.x_minus, dirty.x_plus, dirty.y_minus, dirty.y_plus):
            arr.fill(np.nan)
        del dirty
        fluct = FluctuationField(spec)
        for arr in (fluct.x_minus, fluct.x_plus, fluct.y_minus, fluct.y_plus):
            assert np.all(arr == 0.0)


def test_allocation_minimal_grid():
    spec = GridSpec(nx=1, ny=1, dx=1.0, dy=1.0, num_eqn=4)
    state, _, _ = allocate_fields(spec)
    assert state.data.size == 4 * 3 * 3 == 36


@pytest.mark.parametrize("bad", [
    dict(nx=0, ny=3, dx=0.1, dy=0.1),
    dict(nx=3, ny=-1, dx=0.1, dy=0.1),
    dict(nx=3, ny=3, dx=0.0, dy=0.1),
    dict(nx=3, ny=3, dx=0.1, dy=-0.5),
    dict(nx=3, ny=3, dx=math.nan, dy=0.1),
    dict(nx=3, ny=3, dx=0.1, dy=0.1, num_eqn=0),
    dict(nx=3, ny=3, dx=0.1, dy=0.1, num_aux=-1),
])
def test_invalid_spec_rejected(bad):
    with pytest.raises(ValueError):
        GridSpec(**bad)


def test_one_ghost_layer_is_a_constant():
    # the donor-cell scheme reads ghost layer 1 only, so no grid sets the depth
    assert "num_ghost" not in {f.name for f in fields(GridSpec)}
    assert GridSpec(nx=3, ny=2, dx=0.1, dy=0.1).num_ghost == GridSpec.num_ghost == 1
    with pytest.raises(TypeError):
        GridSpec(nx=3, ny=3, dx=0.1, dy=0.1, **{"num_ghost": 2})


def _assert_planar(arr: np.ndarray):
    # each component is one contiguous plane with i fastest
    ncomp, ni, nj = arr.shape
    item = arr.itemsize
    assert arr.strides == (ni * nj * item, item, ni * item)
    for plane in arr:
        assert plane.T.flags.c_contiguous


def test_components_are_contiguous_planes():
    # kernel passes read one component at a time; each must be one plane
    spec = GridSpec(nx=4, ny=3, dx=0.1, dy=0.1, num_eqn=4, num_aux=2)
    state, aux, _ = allocate_fields(spec)
    arrays = [state.data, aux.data, state.copy().data, aux.copy().data]
    fluct = FluctuationField(spec)
    arrays += [fluct.x_minus, fluct.x_plus, fluct.y_minus, fluct.y_plus]
    for arr in arrays:
        _assert_planar(arr)
    assert state.copy().data.strides == state.data.strides


def _row_field(values):
    spec = GridSpec(nx=len(values), ny=1, dx=1.0, dy=1.0, num_eqn=1)
    state = StateField(spec)
    state.interior[0, :, 0] = values
    return spec, state


def test_periodic_row_wraps():
    spec, state = _row_field([1.0, 2.0, 3.0, 4.0])
    fill_ghost(state, PER, PER)
    g = spec.num_ghost
    row = state.data[0, :, g]
    assert list(row) == [4.0, 1.0, 2.0, 3.0, 4.0, 1.0]


def test_extrapolate_row_copies_edges():
    spec, state = _row_field([1.0, 2.0, 3.0, 4.0])
    fill_ghost(state, EXT, EXT)
    g = spec.num_ghost
    row = state.data[0, :, g]
    assert list(row) == [1.0, 1.0, 2.0, 3.0, 4.0, 4.0]


@pytest.mark.parametrize("bc", [PER, EXT])
def test_constant_field_ghosts_equal_constant(bc):
    spec = GridSpec(nx=5, ny=4, dx=1.0, dy=1.0, num_eqn=2)
    state = StateField(spec)
    state.interior[:] = 7.25
    fill_ghost(state, bc, bc)
    assert np.all(state.data == 7.25)


@pytest.mark.parametrize("bc_x,bc_y", [(PER, PER), (EXT, EXT), (PER, EXT)])
def test_fill_ghost_idempotent_and_interior_untouched(bc_x, bc_y):
    rng = np.random.default_rng(3)
    spec = GridSpec(nx=6, ny=5, dx=0.5, dy=0.25, num_eqn=3)
    state = StateField(spec)
    state.interior[:] = rng.normal(size=state.interior.shape)
    before = state.interior.copy()

    fill_ghost(state, bc_x, bc_y)
    once = state.data.copy()
    assert np.array_equal(state.interior, before)

    fill_ghost(state, bc_x, bc_y)
    assert np.array_equal(state.data, once)


def test_periodic_corners_wrap_both_axes():
    rng = np.random.default_rng(4)
    spec = GridSpec(nx=5, ny=4, dx=1.0, dy=1.0, num_eqn=1)
    state = StateField(spec)
    state.interior[:] = rng.normal(size=state.interior.shape)
    fill_ghost(state, PER, PER)
    g, d = spec.num_ghost, state.data
    assert d[0, g - 1, g - 1] == d[0, g + spec.nx - 1, g + spec.ny - 1]
    assert d[0, g + spec.nx, g + spec.ny] == d[0, g, g]


def test_one_cell_periodic_axis_wraps_onto_itself():
    # one ghost layer: both ghost columns of a one-cell periodic row are its cell
    spec = GridSpec(nx=1, ny=4, dx=1.0, dy=1.0, num_eqn=1)
    for bc_y, low, high in ((PER, 4.0, 1.0), (EXT, 1.0, 4.0)):
        state = StateField(spec)
        state.interior[0, 0, :] = [1.0, 2.0, 3.0, 4.0]
        fill_ghost(state, PER, bc_y)
        assert state.data.shape == (1, 3, 6)
        for i in range(3):
            assert list(state.data[0, i]) == [low, 1.0, 2.0, 3.0, 4.0, high]


def test_aux_field_with_zero_components():
    spec = GridSpec(nx=3, ny=3, dx=1.0, dy=1.0, num_eqn=1, num_aux=0)
    aux = AuxField(spec)
    assert aux.data.size == 0
    fill_ghost(aux, PER, PER)  # no-op, must not raise


def test_copy_is_independent():
    spec = GridSpec(nx=3, ny=3, dx=1.0, dy=1.0, num_eqn=1)
    state = StateField(spec)
    state.interior[:] = 1.0
    dup = state.copy()
    dup.interior[:] = 2.0
    assert np.all(state.interior == 1.0)
