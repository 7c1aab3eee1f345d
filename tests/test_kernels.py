
import hashlib
import inspect
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavesweep.driver import (INITIAL_CONDITIONS, SimulationConfig, resolve_kernel,
                              unit_square_spec)
from wavesweep.kernels import (DESCRIPTORS, CellPlanes, Direction, KernelError,
                               acoustics_cell_planes, euler_cell_planes, euler_flux, make_kernel,
                               rp_acoustics_const, rp_acoustics_var, rp_advection,
                               rp_euler)
from wavesweep.oracles import (linear_matrix_apply, random_gas_states, rel_err,
                               wave_sum)

KERNEL_PARAMS = {"advection": {"u": 1.5, "v": -0.5},
                 "acoustics-const": {"rho": 2.0, "bulk": 3.0},
                 "acoustics-var": {}, "euler": {}}

SOD_L = np.array([1.0, 0.0, 0.0, 2.5])
SOD_R = np.array([0.125, 0.0, 0.0, 0.25])

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_descriptor_table():
    assert DESCRIPTORS["advection"].num_eqn == 1
    assert DESCRIPTORS["advection"].num_waves == 1
    assert DESCRIPTORS["advection"].num_aux == 0
    assert DESCRIPTORS["acoustics-const"].num_eqn == 3
    assert DESCRIPTORS["acoustics-const"].num_waves == 2
    assert DESCRIPTORS["acoustics-var"].num_aux == 2
    assert DESCRIPTORS["euler"].num_eqn == 4
    assert DESCRIPTORS["euler"].num_waves == 3


class TestAdvection:
    def test_rightward_wind_sends_jump_right(self):
        res = rp_advection(Direction.X, [[2.0]], [[5.0]], u=1.0, v=0.0)
        assert res.waves[0, 0, 0] == 3.0
        assert res.speeds[0, 0] == 1.0
        assert res.amdq[0, 0] == 0.0
        assert res.apdq[0, 0] == 3.0

    def test_leftward_wind_sends_jump_left(self):
        res = rp_advection(Direction.X, [[2.0]], [[5.0]], u=-1.0, v=0.0)
        assert res.amdq[0, 0] == -3.0
        assert res.apdq[0, 0] == 0.0

    @given(u=finite, v=finite, q=finite)
    @settings(deadline=None, max_examples=60)
    def test_zero_jump_is_silent(self, u, v, q):
        res = rp_advection(Direction.X, [[q]], [[q]], u=u, v=v)
        assert res.waves[0, 0, 0] == 0.0 and res.amdq[0, 0] == 0.0 and res.apdq[0, 0] == 0.0

    def test_y_direction_uses_v(self):
        res = rp_advection(Direction.Y, [[0.0]], [[1.0]], u=9.0, v=-2.0)
        assert res.speeds[0, 0] == -2.0
        assert res.amdq[0, 0] == -2.0

    @given(ql=finite, qr=finite, u=finite, v=finite)
    @settings(deadline=None, max_examples=100)
    def test_fluctuation_identity(self, ql, qr, u, v):
        res = rp_advection(Direction.X, [[ql]], [[qr]], u=u, v=v)
        assert rel_err(res.amdq + res.apdq, wave_sum(res)) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(KernelError):
            rp_advection(Direction.X, [[np.nan]], [[1.0]], u=1.0, v=0.0)
        with pytest.raises(KernelError):
            rp_advection(Direction.X, [[0.0]], [[1.0]], u=np.inf, v=0.0)


class TestAcousticsConst:
    def test_pressure_jump_splits_evenly(self):
        res = rp_acoustics_const(Direction.X, [[0.0], [0.0], [0.0]], [[1.0], [0.0], [0.0]],
                                 rho=1.0, bulk=1.0)
        assert np.allclose(res.amdq[..., 0], [-0.5, 0.5, 0.0], atol=1e-15)
        assert np.allclose(res.apdq[..., 0], [0.5, 0.5, 0.0], atol=1e-15)

    def test_velocity_jump_splits_evenly(self):
        res = rp_acoustics_const(Direction.X, [[0.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]],
                                 rho=1.0, bulk=1.0)
        assert np.allclose(res.amdq[..., 0], [0.5, -0.5, 0.0], atol=1e-15)
        assert np.allclose(res.apdq[..., 0], [0.5, 0.5, 0.0], atol=1e-15)

    def test_zero_jump_is_silent(self):
        q = [[0.3], [-0.2], [0.9]]
        res = rp_acoustics_const(Direction.Y, q, q, rho=2.0, bulk=8.0)
        assert np.all(res.amdq == 0.0) and np.all(res.apdq == 0.0)
        assert np.array_equal(res.speeds[..., 0], [-2.0, 2.0])  # c = sqrt(8/2)

    def test_transverse_slot_untouched(self):
        rng = np.random.default_rng(5)
        ql, qr = rng.normal(size=(2, 3, 50))
        res = rp_acoustics_const(Direction.X, ql, qr, rho=2.0, bulk=0.5)
        assert np.all(res.waves[:, 2] == 0.0)
        res = rp_acoustics_const(Direction.Y, ql, qr, rho=2.0, bulk=0.5)
        assert np.all(res.waves[:, 1] == 0.0)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(6)
        for direction in Direction:
            ql, qr = rng.normal(size=(2, 3, 200))
            rho, bulk = rng.uniform(0.1, 10.0, 2)
            res = rp_acoustics_const(direction, ql, qr, rho=rho, bulk=bulk)
            ref = linear_matrix_apply("acoustics-const", qr - ql, direction,
                                      rho=rho, bulk=bulk)
            assert rel_err(wave_sum(res), ref) <= 1e-12

    def test_invalid_params_rejected(self):
        q = [[0.0]] * 3
        with pytest.raises(KernelError, match="positive"):
            rp_acoustics_const(Direction.X, q, q, rho=0.0, bulk=1.0)
        kernel = make_kernel("acoustics-const", rho=1.0, bulk=-2.0)  # checked on solve
        with pytest.raises(KernelError, match="positive"):
            kernel.solve(Direction.X, q, q)

    @pytest.mark.parametrize("rho,bulk", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_params_rejected(self, rho, bulk):
        # an infinite modulus would give infinite speeds and NaN fluctuations
        with pytest.raises(KernelError, match="finite"):
            rp_acoustics_const(Direction.X, [[0.0]] * 3, [[1.0]] * 3, rho=rho, bulk=bulk)

    @pytest.mark.parametrize("rho,bulk", [(1e308, 1e308), (1e-300, 1e308), (1e300, 1e-300)])
    def test_impedance_sum_must_be_finite(self, rho, bulk):
        # Z = sqrt(rho bulk) with Z + Z = inf, c = sqrt(bulk / rho) = inf, or
        # c = 0: each divides the wave strengths by inf or 0, so it is refused
        # with the parameters, naming no interface, before a state is read
        with pytest.raises(KernelError, match="impedance") as exc:
            rp_acoustics_const(Direction.X, [[np.nan]] * 3, [[0.0]] * 3, rho=rho, bulk=bulk)
        assert exc.value.element is None


class TestAcousticsVar:
    def test_impedance_mismatch_example(self):
        res = rp_acoustics_var(Direction.X, [[0.0], [0.0], [0.0]], [[1.0], [0.0], [0.0]],
                               [[1.0], [1.0]], [[1.0], [3.0]])
        assert np.allclose(res.amdq[..., 0], [-0.25, 0.25, 0.0], atol=1e-15)
        assert np.allclose(res.apdq[..., 0], [2.25, 0.75, 0.0], atol=1e-15)
        assert np.array_equal(res.speeds[..., 0], [-1.0, 3.0])

    def test_uniform_material_reduces_to_const_bitwise(self):
        rng = np.random.default_rng(7)
        ql, qr = rng.normal(size=(2, 3, 64))
        cases = [(1.0, 1.0, Direction.X)]
        cases += [(*rng.uniform(0.1, 10.0, 2), d) for _ in range(20) for d in Direction]
        for rho, bulk, direction in cases:
            aux = np.empty((2, 64))
            aux[0], aux[1] = rho, math.sqrt(bulk / rho)
            var = rp_acoustics_var(direction, ql, qr, aux, aux)
            const = rp_acoustics_const(direction, ql, qr, rho=rho, bulk=bulk)
            assert np.array_equal(var.amdq, const.amdq)
            assert np.array_equal(var.apdq, const.apdq)
            assert np.array_equal(var.waves, const.waves)
            assert np.array_equal(var.speeds, const.speeds)

    def test_zero_jump_is_silent(self):
        q = [[1.0], [2.0], [3.0]]
        res = rp_acoustics_var(Direction.X, q, q, [[1.0], [2.0]], [[3.0], [0.5]])
        assert np.all(res.amdq == 0.0) and np.all(res.apdq == 0.0)

    def test_matches_interface_matrix_oracle(self):
        rng = np.random.default_rng(8)
        for direction in Direction:
            ql, qr = rng.normal(size=(2, 3, 200))
            rho_l, c_l, rho_r, c_r = rng.uniform(0.1, 10.0, 4)
            auxl = np.broadcast_to(np.array([rho_l, c_l])[:, None], (2, 200))
            auxr = np.broadcast_to(np.array([rho_r, c_r])[:, None], (2, 200))
            res = rp_acoustics_var(direction, ql, qr, auxl, auxr)
            ref = linear_matrix_apply("acoustics-var", qr - ql, direction,
                                      aux_l=(rho_l, c_l), aux_r=(rho_r, c_r))
            assert rel_err(wave_sum(res), ref) <= 1e-12

    @pytest.mark.parametrize("comp,value", [(0, -1.0), (0, 0.0), (0, np.nan),
                                            (1, 0.0), (1, -np.inf), (1, np.nan)])
    def test_cell_pass_refuses_any_nonpositive_material(self, comp, value):
        # a nonpositive or NaN density or sound speed: a KernelError naming the
        # cell, and no warning; admissible aux gets Z = rho c and c itself, as a view
        aux = np.random.default_rng(16).uniform(0.5, 2.0, (2, 3, 4))
        cells = acoustics_cell_planes(None, aux)
        assert _bits(cells.planes[0]) == _bits(aux[0] * aux[1])
        assert np.shares_memory(cells.planes[1], aux)
        aux[comp, 2, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelError, match="nonpositive") as exc:
                acoustics_cell_planes(None, aux)
        assert exc.value.element == (2, 1) and exc.value.side == "input"

    def test_nonpositive_material_rejected(self):
        ql, qr = [[0.0]] * 3, [[1.0], [0.0], [0.0]]
        with pytest.raises(KernelError, match="left"):
            rp_acoustics_var(Direction.X, ql, qr, [[0.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(KernelError, match="right"):
            rp_acoustics_var(Direction.X, ql, qr, [[1.0], [1.0]], [[1.0], [-3.0]])
        # a NaN fails the batch guard (min > floor) and is named by the scan
        auxl = np.ones((2, 6))
        auxr = np.ones((2, 6))
        auxr[0, 4] = np.nan
        auxl[0, 5] = 0.0
        with pytest.raises(KernelError, match="density on right") as exc:
            rp_acoustics_var(Direction.X, np.zeros((3, 6)), np.zeros((3, 6)), auxl, auxr)
        assert exc.value.element == (4,)

    @pytest.mark.parametrize("rho,c", [(1.0, np.inf), (np.inf, 1.0), (1e200, 1e200)])
    def test_non_finite_material_is_located(self, rho, c):
        # an infinite density or sound speed, or an impedance rho c that
        # overflows: the cell pass and the plain solve name the cell, with no
        # warning either way
        aux = np.random.default_rng(19).uniform(0.5, 2.0, (2, 3, 4))
        aux[:, 2, 1] = rho, c
        q = np.zeros((3, 3, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelError, match="non-finite .* on input side") as cell:
                acoustics_cell_planes(q, aux)
            with pytest.raises(KernelError, match="non-finite .* on right side") as exc:
                rp_acoustics_var(Direction.X, q, q, np.ones((2, 3, 4)), aux)
        assert exc.value.element == cell.value.element == (2, 1)

    def test_overflowing_impedance_sum_is_located(self):
        # finite impedances 1.69e308 on both sides of interface 2 would sum past
        # the largest double: each is above half of it, so the cell pass and
        # the plain solve name the first such cell, on its side, with no warning
        auxl, auxr = np.random.default_rng(23).uniform(0.5, 2.0, (2, 2, 5))
        auxl[:, 2] = auxr[:, 2] = auxr[:, 4] = 1.3e154
        q = np.zeros((3, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelError, match="too large impedance") as cell:
                acoustics_cell_planes(q, auxr)
            with pytest.raises(KernelError, match="too large impedance on left side") as exc:
                rp_acoustics_var(Direction.X, q, q, auxl, auxr)
        assert exc.value.element == cell.value.element == (2,) and exc.value.side == "left"

    def test_xy_symmetry(self):
        rng = np.random.default_rng(13)
        ql, qr = rng.normal(size=(2, 3, 60))
        auxl = rng.uniform(0.2, 5.0, (2, 60))
        auxr = rng.uniform(0.2, 5.0, (2, 60))
        swap = [0, 2, 1]
        rx = rp_acoustics_var(Direction.X, ql, qr, auxl, auxr)
        ry = rp_acoustics_var(Direction.Y, ql[swap], qr[swap], auxl, auxr)
        assert np.array_equal(rx.speeds, ry.speeds)
        assert np.array_equal(rx.amdq, ry.amdq[swap])
        assert np.array_equal(rx.apdq, ry.apdq[swap])


class TestEuler:
    QL, QR = SOD_L[:, None], SOD_R[:, None]  # one interface, as a batch of one

    def test_zero_jump_is_silent_but_speeds_remain(self):
        res = rp_euler(Direction.X, self.QL, self.QL)
        assert np.all(res.waves == 0.0)
        assert np.all(res.amdq == 0.0) and np.all(res.apdq == 0.0)
        # sound speed of the uniform state: sqrt(gamma p / rho)
        assert np.abs(res.speeds[2, 0]) == pytest.approx(np.sqrt(1.4), rel=1e-12)

    def test_two_state_tube_flux_difference(self):
        res = rp_euler(Direction.X, self.QL, self.QR)
        total = res.amdq + res.apdq
        assert np.allclose(total[..., 0], [0.0, -0.9, 0.0, 0.0], atol=1e-14)

    def test_conservation_property_randomized(self):
        rng = np.random.default_rng(9)
        for direction in Direction:
            ql = random_gas_states(rng, 2000, 1.4)
            qr = random_gas_states(rng, 2000, 1.4)
            res = rp_euler(direction, ql, qr)
            dflux = euler_flux(qr, direction, 1.4) - euler_flux(ql, direction, 1.4)
            assert rel_err(res.amdq + res.apdq, dflux) <= 1e-11

    def test_xy_symmetry(self):
        rng = np.random.default_rng(10)
        ql = random_gas_states(rng, 100, 1.4)
        qr = random_gas_states(rng, 100, 1.4)
        swap = [0, 2, 1, 3]
        rx = rp_euler(Direction.X, ql, qr)
        ry = rp_euler(Direction.Y, ql[swap], qr[swap])
        assert np.array_equal(rx.speeds, ry.speeds)
        assert np.array_equal(rx.amdq, ry.amdq[swap])
        assert np.array_equal(rx.apdq, ry.apdq[swap])

    def test_middle_wave_carries_contact_and_shear(self):
        # density and transverse momentum jump at constant pressure and velocity
        ql = np.array([1.0, 0.5, 0.2, 1.0 / 0.4 + 0.5 * (0.25 + 0.04)])[:, None]
        rho_r, v_r = 4.0, -0.3
        qr = np.array([rho_r, rho_r * 0.5, rho_r * v_r,
                       1.0 / 0.4 + 0.5 * rho_r * (0.25 + v_r * v_r)])[:, None]
        res = rp_euler(Direction.X, ql, qr)
        # only the u-speed wave moves anything
        assert np.allclose(res.waves[0], 0.0, atol=1e-12)
        assert np.allclose(res.waves[2], 0.0, atol=1e-12)
        assert res.waves[1, 0, 0] == pytest.approx(3.0, rel=1e-12)

    def test_inadmissible_inputs_identify_side(self):
        bad_rho = np.array([-1.0, 0.0, 0.0, 2.5])[:, None]
        with pytest.raises(KernelError, match="density on left"):
            rp_euler(Direction.X, bad_rho, self.QR)
        bad_p = np.array([1.0, 10.0, 0.0, 2.5])[:, None]  # kinetic energy exceeds total
        with pytest.raises(KernelError, match="pressure on right") as exc:
            rp_euler(Direction.X, self.QL, bad_p)
        assert exc.value.element == (0,)
        with pytest.raises(ValueError, match=r"got \(4, 1\) and \(3, 1\)"):
            rp_euler(Direction.X, self.QL, self.QR[:3])

    def test_overflowing_cell_raises_kernel_error_and_no_warning(self):
        # momentum 1e300 at unit density: u^2 overflows and the pressure is -inf
        ql = np.tile(SOD_L[:, None], (1, 5)).copy()
        qr = ql.copy()
        qr[1, 3] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelError, match="pressure on right") as exc:
                rp_euler(Direction.X, ql, qr)
        assert exc.value.element == (3,)

    def test_infinite_enthalpy_is_located(self):
        # energy 1.5e308 at rest and unit density: the pressure 6e307 is
        # finite, but E + p overflows, so the cell pass and the plain solve
        # name the cell, with no warning
        ql = np.tile(SOD_L[:, None], (1, 5)).copy()
        qr = ql.copy()
        qr[:, 3] = 1.0, 0.0, 0.0, 1.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelError, match="non-finite or too large enthalpy") as cell:
                euler_cell_planes(qr, gamma=1.4)
            with pytest.raises(KernelError, match="non-finite .* enthalpy .* right side") as exc:
                rp_euler(Direction.X, ql, qr)
        assert exc.value.element == cell.value.element == (3,) and exc.value.side == "right"

    def test_overflowing_enthalpy_sum_is_located(self):
        # sqrt(rho) H = 1.4e308 on both sides of interface 1 is finite, but the
        # Roe average's sum of the two would overflow: each is above half the
        # largest double, so the cell pass and the plain solve name the first
        # such cell, on its side
        ql = np.tile(SOD_L[:, None], (1, 4)).copy()
        qr = ql.copy()
        ql[:, 1] = qr[:, 1] = qr[:, 2] = 1.0, 0.0, 0.0, 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelError, match="too large enthalpy") as cell:
                euler_cell_planes(qr, gamma=1.4)
            with pytest.raises(KernelError, match="too large enthalpy .* on left side") as exc:
                rp_euler(Direction.X, ql, qr)
        assert exc.value.element == cell.value.element == (1,) and exc.value.side == "left"

    def test_batched_error_reports_offending_element(self):
        ql = np.tile(SOD_L[:, None], (1, 8)).copy()
        qr = np.tile(SOD_R[:, None], (1, 8)).copy()
        ql[0, 5] = -2.0
        with pytest.raises(KernelError) as exc:
            rp_euler(Direction.X, ql, qr)
        assert exc.value.side == "left"
        assert exc.value.element == (5,)

    def test_gamma_must_exceed_one(self):
        with pytest.raises(KernelError, match="gamma"):
            rp_euler(Direction.X, self.QL, self.QR, gamma=1.0)
        with pytest.raises(KernelError, match="gamma"):
            make_kernel("euler", gamma=1.0).solve(Direction.X, self.QL, self.QR)
        with pytest.raises(KernelError, match="gamma"):
            euler_flux(SOD_L, Direction.X, 1.0)

    def test_gamma_must_be_finite(self):
        with pytest.raises(KernelError, match="finite"):
            rp_euler(Direction.X, self.QL, self.QR, gamma=math.inf)
        with pytest.raises(KernelError, match="finite"):
            euler_flux(SOD_L, Direction.X, math.inf)


class TestEulerFlux:
    def test_stationary_state_flux_is_pressure_only(self):
        f = euler_flux(SOD_L, Direction.X, 1.4)
        assert np.allclose(f, [0.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_inadmissible_state_rejected(self):
        q = np.array([1.0, 1.0, 0.0, 0.5])  # E equals kinetic energy: p = 0
        with pytest.raises(KernelError):
            euler_flux(q, Direction.X, 1.4)

    def test_xy_symmetry(self):
        q = np.array([2.0, 0.7, -1.1, 9.0])
        fx = euler_flux(q, Direction.X, 1.4)
        fy = euler_flux(q[[0, 2, 1, 3]], Direction.Y, 1.4)
        assert np.array_equal(fx, fy[[0, 2, 1, 3]])


class TestPurityAndBatching:
    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(11)
        ql = random_gas_states(rng, 32, 1.4)
        qr = random_gas_states(rng, 32, 1.4)
        a = rp_euler(Direction.X, ql, qr)
        b = rp_euler(Direction.X, ql, qr)
        for x, y in ((a.waves, b.waves), (a.speeds, b.speeds),
                     (a.amdq, b.amdq), (a.apdq, b.apdq)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("name", ["advection", "acoustics-const", "acoustics-var", "euler"])
    def test_batch_equals_pointwise(self, name):
        rng = np.random.default_rng(12)
        n = 13
        if name == "euler":
            ql = random_gas_states(rng, n, 1.4)
            qr = random_gas_states(rng, n, 1.4)
        else:
            neqn = DESCRIPTORS[name].num_eqn
            ql, qr = rng.normal(size=(2, neqn, n))
        auxl = rng.uniform(0.5, 2.0, (2, n))
        auxr = rng.uniform(0.5, 2.0, (2, n))
        solve, params = DESCRIPTORS[name].solve, KERNEL_PARAMS[name]
        batched = solve(Direction.X, ql, qr, auxl, auxr, **params)
        singles = [solve(Direction.X, ql[:, k:k + 1], qr[:, k:k + 1],
                         auxl[:, k:k + 1], auxr[:, k:k + 1], **params) for k in range(n)]
        for k, single in enumerate(singles):
            assert np.array_equal(batched.amdq[:, k], single.amdq[..., 0])
            assert np.array_equal(batched.apdq[:, k], single.apdq[..., 0])
            assert np.array_equal(batched.speeds[:, k], single.speeds[..., 0])
            assert np.array_equal(batched.waves[:, :, k], single.waves[..., 0])


class TestBatchesOnly:
    """A state with no batch axis is refused; one interface is a batch of one."""

    @pytest.mark.parametrize("name", ["advection", "acoustics-const", "acoustics-var", "euler"])
    def test_state_without_batch_axis_is_rejected(self, name):
        neqn = DESCRIPTORS[name].num_eqn
        q = SOD_L if name == "euler" else np.ones(neqn)
        aux = np.ones(2)
        kernel = make_kernel(name, **KERNEL_PARAMS[name])

        def solver():
            return DESCRIPTORS[name].solve(Direction.X, q, q, aux, aux, **KERNEL_PARAMS[name])
        for call in (solver, lambda: kernel.solve(Direction.X, q, q, aux, aux)):
            with pytest.raises(ValueError, match=rf"\({neqn}, batch\.\.\.\)"):
                call()
        res = kernel.solve(Direction.X, q[:, None], q[:, None], aux[:, None], aux[:, None])
        assert res.amdq.shape == (neqn, 1)

    def test_cell_pass_rejects_state_without_batch_axis(self):
        with pytest.raises(ValueError, match=r"\(4, batch\.\.\.\)"):
            euler_cell_planes(SOD_L, gamma=1.4)
        assert isinstance(euler_cell_planes(SOD_L[:, None], gamma=1.4), CellPlanes)


def _layouts(arr: np.ndarray) -> dict:
    """One (ncomp, nx, ny) array stored Fortran-ordered, C-ordered and planar."""
    return {"F": np.asfortranarray(arr), "C": np.ascontiguousarray(arr),
            "planar": np.ascontiguousarray(arr.transpose(0, 2, 1)).transpose(0, 2, 1)}


def _bits(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


@pytest.mark.parametrize("direction", [Direction.X, Direction.Y])
@pytest.mark.parametrize("name", ["advection", "acoustics-const", "acoustics-var", "euler"])
def test_results_do_not_depend_on_input_layout(name, direction):
    # batches cut from a field the way a sweep cuts them, from three layouts
    rng = np.random.default_rng(13)
    nx, ny, w, h = 11, 9, 8, 6
    neqn = DESCRIPTORS[name].num_eqn
    if name == "euler":
        q = random_gas_states(rng, nx * ny, 1.4).reshape(4, nx, ny)
    else:
        q = rng.normal(size=(neqn, nx, ny))
    aux = rng.uniform(0.5, 2.0, (2, nx, ny))
    kernel = make_kernel(name, **KERNEL_PARAMS[name])
    di, dj = (1, 0) if direction is Direction.X else (0, 1)
    left = (slice(None), slice(1 - di, 1 - di + w), slice(1 - dj, 1 - dj + h))
    right = (slice(None), slice(1, 1 + w), slice(1, 1 + h))
    results = {}
    for layout, ql in _layouts(q).items():
        a = _layouts(aux)[layout]
        results[layout] = kernel.solve(direction, ql[left], ql[right], a[left], a[right])
    ref = results["C"]
    for res in results.values():
        for field in ("waves", "speeds", "amdq", "apdq"):
            got, want = getattr(res, field), getattr(ref, field)
            assert got.shape == want.shape and _bits(got) == _bits(want), field
    if name.startswith("acoustics"):
        transverse = ref.waves[:, 3 - (1 if direction is Direction.X else 2)]
        assert np.all(transverse == 0.0) and not np.signbit(transverse).any()
    # a planar batch gives results laid out like it: contiguous along i
    planar = results["planar"]
    itemsize = planar.amdq.itemsize
    assert planar.amdq[0].strides[0] == itemsize
    assert planar.apdq[0].strides[0] == itemsize


class TestEulerCellPlanes:
    """rp_euler fed the CellPlanes of its own states gives the same bits."""

    @staticmethod
    def _assert_same_bits(got, want):
        for field in ("waves", "speeds", "amdq", "apdq"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and _bits(a) == _bits(b), field

    @pytest.mark.parametrize("direction", [Direction.X, Direction.Y])
    def test_planes_of_own_states_are_bitwise_equal(self, direction):
        rng = np.random.default_rng(15)
        nx, ny, w, h = 11, 9, 8, 6
        q = random_gas_states(rng, nx * ny, 1.4).reshape(4, nx, ny)
        di, dj = (1, 0) if direction is Direction.X else (0, 1)
        left = (slice(1 - di, 1 - di + w), slice(1 - dj, 1 - dj + h))
        right = (slice(1, 1 + w), slice(1, 1 + h))
        for field in _layouts(q).values():
            cells = euler_cell_planes(field, gamma=1.4)
            ql, qr = field[(slice(None),) + left], field[(slice(None),) + right]
            plain = rp_euler(direction, ql, qr)
            self._assert_same_bits(rp_euler(direction, ql, qr, cells[left], cells[right]),
                                   plain)
            # through the bound kernel, and with planes made from the batches themselves
            self._assert_same_bits(make_kernel("euler").solve(
                direction, ql, qr, euler_cell_planes(ql, gamma=1.4),
                euler_cell_planes(qr, gamma=1.4)), plain)

        # one interface, as a batch of one, and an empty batch
        ql, qr = np.split(random_gas_states(rng, 2, 1.4), 2, axis=1)
        self._assert_same_bits(rp_euler(direction, ql, qr, euler_cell_planes(ql, gamma=1.4),
                                        euler_cell_planes(qr, gamma=1.4)),
                               rp_euler(direction, ql, qr))
        empty = np.empty((4, 0))
        cells = euler_cell_planes(empty, gamma=1.4)
        self._assert_same_bits(rp_euler(direction, empty, empty, cells, cells),
                               rp_euler(direction, empty, empty))

    @pytest.mark.parametrize("comp,value", [(0, -1.0), (0, 0.0), (0, np.nan), (0, np.inf),
                                            (1, np.inf), (2, -np.inf), (2, np.nan),
                                            (3, np.inf), (3, 0.0)])
    def test_cell_pass_refuses_any_inadmissible_cell(self, comp, value):
        # a nonpositive or non-finite density, a non-finite momentum or energy,
        # and an energy that leaves no pressure: a KernelError naming the cell,
        # and no warning
        q = random_gas_states(np.random.default_rng(16), 12, 1.4).reshape(4, 3, 4)
        assert isinstance(euler_cell_planes(q, gamma=1.4), CellPlanes)
        q[comp, 2, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelError) as exc:
                euler_cell_planes(q, gamma=1.4)
        assert exc.value.element == (2, 1) and exc.value.side == "input"

    def test_planes_must_cover_the_batch(self):
        q = random_gas_states(np.random.default_rng(17), 8, 1.4)
        cells = euler_cell_planes(q, gamma=1.4)
        with pytest.raises(ValueError, match="cell planes"):
            rp_euler(Direction.X, q[:, :4], q[:, 4:], cells, cells[4:])
        cells = acoustics_cell_planes(q[:3], np.ones((2, 8)))
        with pytest.raises(ValueError, match="cell planes"):
            rp_acoustics_var(Direction.X, q[:3, :4], q[:3, 4:], cells, cells[4:])

    @pytest.mark.parametrize("name", ["acoustics-var", "euler"])
    def test_every_plane_must_cover_the_batch(self, name):
        # a right side whose last plane alone is short: a ValueError naming the
        # planes, not a numpy broadcast error
        kernel = make_kernel(name, **KERNEL_PARAMS[name])
        q = random_gas_states(np.random.default_rng(25), 8, 1.4)[:kernel.descriptor.num_eqn]
        cells = kernel.descriptor.cell_pass(q, np.ones((2, 8)), **kernel.params)
        short = CellPlanes(cells[4:].planes[:-1] + (cells.planes[-1][:3],))
        with pytest.raises(ValueError, match="cell planes must cover"):
            kernel.solve(Direction.X, q[:, :4], q[:, 4:], cells[:4], short)

    @pytest.mark.parametrize("name", ["acoustics-var", "euler"])
    def test_planes_must_fill_both_aux_slots(self, name):
        # CellPlanes in one aux slot and an aux array in the other: a
        # ValueError, neither a numpy error nor the planes silently ignored
        kernel = make_kernel(name, **KERNEL_PARAMS[name])
        q = random_gas_states(np.random.default_rng(26), 8, 1.4)[:kernel.descriptor.num_eqn]
        aux = np.ones((2, 8))
        cells = kernel.descriptor.cell_pass(q, aux, **kernel.params)
        for auxl, auxr in ((cells[:4], aux[:, 4:]), (aux[:, :4], cells[4:])):
            with pytest.raises(ValueError, match="both aux slots"):
                kernel.solve(Direction.X, q[:, :4], q[:, 4:], auxl, auxr)


class TestGuardThenScan:
    """A batch is checked by one cheap guard; the exact scan runs only when it trips."""

    @pytest.mark.parametrize("name", ["advection", "acoustics-const", "acoustics-var", "euler"])
    def test_inf_on_both_sides_raises_kernel_error_and_no_warning(self, name):
        rng = np.random.default_rng(14)
        neqn = DESCRIPTORS[name].num_eqn
        if name == "euler":
            ql, qr = (random_gas_states(rng, 20, 1.4).reshape(4, 5, 4) for _ in range(2))
        else:
            ql, qr = rng.normal(size=(2, neqn, 5, 4))
        auxl, auxr = rng.uniform(0.5, 2.0, (2, 2, 5, 4))
        ql[0, 2, 1] = qr[0, 2, 1] = np.inf  # inf - inf is NaN and warns "invalid"
        qr[neqn - 1, 3, 0] = -np.inf        # a later element, right side only
        kernel = make_kernel(name, **KERNEL_PARAMS[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelError, match="non-finite left state") as exc:
                kernel.solve(Direction.X, ql, qr, auxl, auxr)
        assert exc.value.side == "left"
        assert exc.value.element == (2, 1)

    @pytest.mark.parametrize("name", ["advection", "acoustics-const", "acoustics-var", "euler"])
    def test_empty_batch_passes(self, name):
        neqn = DESCRIPTORS[name].num_eqn
        empty, aux = np.empty((neqn, 0)), np.empty((2, 0))
        res = make_kernel(name, **KERNEL_PARAMS[name]).solve(Direction.Y, empty, empty, aux, aux)
        assert res.amdq.shape == res.apdq.shape == (neqn, 0)
        assert res.max_speed == 0.0 == _speeds_extreme(res)

    def test_overflowing_finite_jumps_are_admissible(self):
        # each jump overflows to inf, or is finite with a sum that overflows:
        # the guard trips, the scan finds no bad state, and the solve goes on
        with np.errstate(over="ignore", invalid="ignore"):
            res = rp_advection(Direction.X, [[-1e308, 0.0, 0.0]], [[1e308, 1e308, 1e308]],
                               u=1.0, v=0.0)
            assert list(res.apdq[0]) == [np.inf, 1e308, 1e308]
            res = rp_acoustics_const(Direction.X, [[-1e308], [0.0], [0.0]],
                                     [[1e308], [0.0], [0.0]], rho=1.0, bulk=1.0)
            assert np.isinf(res.waves[1, 0, 0])


class TestMakeKernel:
    def test_binds_parameters(self):
        k = make_kernel("advection", u=2.0, v=0.5)
        res = k.solve(Direction.X, [[0.0]], [[1.0]])
        assert res.apdq[0, 0] == 2.0
        assert k.descriptor.name == "advection"

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            make_kernel("burgers")

    def test_unexpected_parameter(self):
        with pytest.raises(ValueError, match="unexpected"):
            make_kernel("euler", gamma=1.4, mach=3)

    @pytest.mark.parametrize("name,params,missing", [
        ("advection", {}, "u"),
        ("advection", {"u": 1.0}, "v"),
        ("acoustics-const", {"rho": 1.0}, "bulk"),
    ])
    def test_missing_parameter(self, name, params, missing):
        with pytest.raises(ValueError, match=name) as exc:
            make_kernel(name, **params)
        assert missing in str(exc.value)

    def test_acoustics_var_requires_aux(self):
        k = make_kernel("acoustics-var")
        with pytest.raises(ValueError, match="aux"):
            k.solve(Direction.X, [[0.0]] * 3, [[1.0], [0.0], [0.0]])

    def test_euler_default_gamma(self):
        assert make_kernel("euler").params["gamma"] == 1.4

    def test_solver_parameter_lists_are_read_once(self, monkeypatch):
        def no_signature(obj):
            raise AssertionError("make_kernel read a solver's parameter list per call")

        monkeypatch.setattr(inspect, "signature", no_signature)
        assert make_kernel("acoustics-const", rho=1, bulk=4).params == {"rho": 1.0, "bulk": 4.0}
        # the parameter list is the solver's keyword-only parameters, and no others
        assert {name: list(desc.signature.parameters) for name, desc in DESCRIPTORS.items()} \
            == {"advection": ["u", "v"], "acoustics-const": ["rho", "bulk"],
                "acoustics-var": [], "euler": ["gamma"]}
        with pytest.raises(ValueError, match="unexpected"):
            make_kernel("euler", mach=3)


def _golden_case(name: str, direction: Direction, case: str):
    """Inputs of one pinned kernel call, drawn from uniform variates only.

    `case` is "single" (one interface, as a batch of one), "batch" (a 1-D
    batch of 7) or
    "planar" (an 8 x 6 block cut, as a sweep cuts it, from a
    component-planar 11 x 9 field); a "+planes" suffix hands the kernel the
    CellPlanes of both sides, from its cell pass, in the aux slots.
    """
    rng = np.random.default_rng(20)
    neqn = DESCRIPTORS[name].num_eqn
    base, _, planes = case.partition("+")
    shape = {"single": (2,), "batch": (2, 7), "planar": (11, 9)}[base]
    n = int(np.prod(shape))
    if name == "euler":
        q = random_gas_states(rng, n, 1.4).reshape((4,) + shape)
    else:
        q = rng.uniform(-2.0, 2.0, (neqn,) + shape)
    aux = rng.uniform(0.5, 2.0, (2,) + shape)
    if base == "planar":
        q, aux = _layouts(q)["planar"], _layouts(aux)["planar"]
        di, dj = (1, 0) if direction is Direction.X else (0, 1)
        left = (slice(1 - di, 9 - di), slice(1 - dj, 7 - dj))
        right = (slice(1, 9), slice(1, 7))
    else:
        left, right = (slice(0, 1),), (slice(1, 2),)  # single: cells 0, 1; batch: rows 0, 1
    ql, qr = q[(slice(None),) + left], q[(slice(None),) + right]
    auxl, auxr = aux[(slice(None),) + left], aux[(slice(None),) + right]
    if planes:
        kernel = make_kernel(name, **KERNEL_PARAMS[name])
        cells = kernel.descriptor.cell_pass(q, aux, **kernel.params)
        auxl, auxr = cells[left], cells[right]
    return ql, qr, auxl, auxr


# first 12 hex digits of the SHA-1 of each result array's C-order bytes:
# waves, speeds, amdq, apdq
GOLDEN = {
    "advection/x/single": "3e6f1cc7acbb dd58a0f3fcf1 05fe40575316 622dab3cce94",
    "advection/x/batch": "4586ad3bc753 316c3053515d 72449087fc8e 841ea6a39ad8",
    "advection/x/planar": "d3066762982b 88cd523b506c c641b1bb2f62 95ad214bb2fe",
    "advection/y/single": "3e6f1cc7acbb 7a2f901f23c2 318079eca2a5 05fe40575316",
    "advection/y/batch": "4586ad3bc753 82f7fd82faf5 f15efc09c615 72449087fc8e",
    "advection/y/planar": "0a195fa9da0b 7b8d3e74cf1b 3907ec9095b3 f1356f793928",
    "acoustics-const/x/single": "a3f2157157a3 e6e8575e7a6a 84e96745f855 b6dd4bffc576",
    "acoustics-const/x/batch": "d2bf000f0f26 d4a7566a8a28 09b025501d31 be6be87b83af",
    "acoustics-const/x/planar": "43492e94792b 85cd1772d9cb d9b18ab9b19e aa5cf9d68ca8",
    "acoustics-const/y/single": "fd9f99890c12 e6e8575e7a6a 2eacf8124b91 ca46c829ebbc",
    "acoustics-const/y/batch": "7427b2a86eb4 d4a7566a8a28 8262292bee0d 8fb779524292",
    "acoustics-const/y/planar": "fdd7f2d2b53b 85cd1772d9cb 02b5991b22d1 5afeef8166f3",
    "acoustics-var/x/single": "ffa5fb4be33f 5d6a17793a12 f4994aa232d2 48f57d5ba476",
    "acoustics-var/x/batch": "4cabc362b20d 6d0b0bb4c218 87a2ab5f1e8f b833593af804",
    "acoustics-var/x/planar": "ed66127d8e27 c0367233537c 244499e64bc7 caf1560d3fa2",
    "acoustics-var/y/single": "c0dcb31ec4ae 5d6a17793a12 fe73fa188854 0c509d62604c",
    "acoustics-var/y/batch": "0130dc8134c8 6d0b0bb4c218 dd71e3269907 13aad34b3fed",
    "acoustics-var/y/planar": "416b04a0f7fc fece08fe4720 4bae2ac85cd0 95905384cb2c",
    "acoustics-var/x/single+planes": "ffa5fb4be33f 5d6a17793a12 f4994aa232d2 48f57d5ba476",
    "acoustics-var/x/batch+planes": "4cabc362b20d 6d0b0bb4c218 87a2ab5f1e8f b833593af804",
    "acoustics-var/x/planar+planes": "ed66127d8e27 c0367233537c 244499e64bc7 caf1560d3fa2",
    "acoustics-var/y/single+planes": "c0dcb31ec4ae 5d6a17793a12 fe73fa188854 0c509d62604c",
    "acoustics-var/y/batch+planes": "0130dc8134c8 6d0b0bb4c218 dd71e3269907 13aad34b3fed",
    "acoustics-var/y/planar+planes": "416b04a0f7fc fece08fe4720 4bae2ac85cd0 95905384cb2c",
    "euler/x/single": "92a23521d64d de268e19c51f f31bfe84522d fed069a69899",
    "euler/x/batch": "3538a1a603ba 92ea00e44ff7 6055bb414898 8dd3627b3e30",
    "euler/x/planar": "ebddb51cdfc7 07f535c91e86 2efd95c61a84 d862ba631678",
    "euler/x/single+planes": "92a23521d64d de268e19c51f f31bfe84522d fed069a69899",
    "euler/x/batch+planes": "3538a1a603ba 92ea00e44ff7 6055bb414898 8dd3627b3e30",
    "euler/x/planar+planes": "ebddb51cdfc7 07f535c91e86 2efd95c61a84 d862ba631678",
    "euler/y/single": "eba467bf5103 012be3c32331 5732850a3b02 de8a847bff8c",
    "euler/y/batch": "eaeb9b727271 d70fc0502531 7a6abf587d5e 1aea58e24f1d",
    "euler/y/planar": "4c50c78ee36c ddf5062f49d5 9de21010549a 7b05610f705a",
    "euler/y/single+planes": "eba467bf5103 012be3c32331 5732850a3b02 de8a847bff8c",
    "euler/y/batch+planes": "eaeb9b727271 d70fc0502531 7a6abf587d5e 1aea58e24f1d",
    "euler/y/planar+planes": "4c50c78ee36c ddf5062f49d5 9de21010549a 7b05610f705a",
}


def _speeds_extreme(res) -> float:
    """max |s| over a result's whole speeds array, as a sweep once reduced it."""
    return max(float(res.speeds.max(initial=0.0)), -float(res.speeds.min(initial=0.0)))


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_results_match_golden_digests(key):
    # the pinned bits of each result array, and a max_speed equal to the
    # extreme of its whole speeds array
    name, d, case = key.rsplit("/", 2)
    direction = Direction(d)
    ql, qr, auxl, auxr = _golden_case(name, direction, case)
    res = make_kernel(name, **KERNEL_PARAMS[name]).solve(direction, ql, qr, auxl, auxr)
    got = " ".join(hashlib.sha1(_bits(getattr(res, field))).hexdigest()[:12]
                   for field in ("waves", "speeds", "amdq", "apdq"))
    assert got == GOLDEN[key]
    assert type(res.max_speed) is float
    assert res.max_speed == _speeds_extreme(res) > 0.0


@pytest.mark.parametrize("ic", sorted(INITIAL_CONDITIONS))
def test_resolved_kernels_pickle_and_solve_to_the_same_bits(ic):
    # a bound kernel is a module-level solver under functools.partial, so it
    # can be sent to another process and solves there as here
    name = INITIAL_CONDITIONS[ic].kernel
    kernel = resolve_kernel(SimulationConfig(spec=unit_square_spec(name, 8, 8), kernel=name,
                                             ic=ic, num_steps=1))
    copy = pickle.loads(pickle.dumps(kernel))
    assert copy.descriptor == kernel.descriptor and copy.params == kernel.params
    for direction in Direction:
        args = _golden_case(name, direction, "planar")
        want, got = kernel.solve(direction, *args), copy.solve(direction, *args)
        for field in ("waves", "speeds", "amdq", "apdq"):
            assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field


def _input_arrays(*args) -> list:
    """The arrays among kernel arguments, CellPlanes opened into their planes."""
    arrays = []
    for arg in args:
        arrays += arg.planes if isinstance(arg, CellPlanes) else [arg]
    return [np.asarray(a) for a in arrays]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_results_are_fresh_and_inputs_untouched(key):
    # a sweep's concurrent leaves share input fields and keep their results,
    # so a call may neither write its inputs nor hand back memory that an
    # input or another call's result also owns
    name, d, case = key.rsplit("/", 2)
    direction = Direction(d)
    args = _golden_case(name, direction, case)
    inputs = _input_arrays(*args)
    before = [_bits(a) for a in inputs]
    kernel = make_kernel(name, **KERNEL_PARAMS[name])
    first, second = (kernel.solve(direction, *args) for _ in range(2))
    assert [_bits(a) for a in inputs] == before
    for field in ("waves", "speeds", "amdq", "apdq"):
        out = getattr(second, field)
        assert not any(np.shares_memory(out, a) for a in inputs), field
        assert not any(np.shares_memory(out, getattr(first, f))
                       for f in ("waves", "speeds", "amdq", "apdq")), field


def _random_batch(name: str, seed: int, n: int, scale: float):
    """States (num_eqn, n + 1) and aux (2, n + 1) of an admissible 1-D row of
    cells, with material and gas magnitudes spread over 10^(+-scale)."""
    rng = np.random.default_rng(seed)

    def mag():
        return 10.0 ** rng.uniform(-scale, scale, n + 1)

    aux = np.stack([mag(), mag()])
    if name == "euler":
        rho, p = mag(), mag()
        u, v = rng.uniform(-10.0, 10.0, (2, n + 1)) * mag()
        q = np.stack([rho, rho * u, rho * v, p / 0.4 + 0.5 * rho * (u * u + v * v)])
    else:
        q = rng.normal(size=(DESCRIPTORS[name].num_eqn, n + 1)) * mag()
    return q, aux


@given(name=st.sampled_from(sorted(DESCRIPTORS)), direction=st.sampled_from(list(Direction)),
       seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), scale=st.floats(0.0, 3.0),
       u=st.floats(-1e300, 1e300), v=st.floats(-1e300, 1e300),
       rho=st.floats(1e-6, 1e6), bulk=st.floats(1e-6, 1e6))
@settings(deadline=None, max_examples=200, derandomize=True)
def test_max_speed_matches_speeds_on_random_batches(name, direction, seed, n, scale,
                                                    u, v, rho, bulk):
    # admissible batches of every kernel, plain and through its cell planes:
    # max_speed is the extreme of the whole speeds array, to the bit
    q, aux = _random_batch(name, seed, n, scale)
    params = {"advection": {"u": u, "v": v}, "acoustics-const": {"rho": rho, "bulk": bulk},
              "acoustics-var": {}, "euler": {}}[name]
    kernel = make_kernel(name, **params)
    ql, qr = q[:, :-1], q[:, 1:]
    res = kernel.solve(direction, ql, qr, aux[:, :-1], aux[:, 1:])
    assert res.max_speed == _speeds_extreme(res)
    if kernel.descriptor.cell_pass is not None:
        cells = kernel.descriptor.cell_pass(q, aux, **kernel.params)
        with_planes = kernel.solve(direction, ql, qr, cells[:-1], cells[1:])
        assert with_planes.max_speed == _speeds_extreme(with_planes) == res.max_speed


# the values a row's entries are replaced by in the one-rule property
_EXTREMES = (0.0, 1e-310, 1e-200, 1e154, 1e250, 1e308, np.inf, -np.inf, np.nan)


@given(name=st.sampled_from(["acoustics-var", "euler"]), direction=st.sampled_from(list(Direction)),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), share=st.floats(0.0, 0.5))
@settings(deadline=None, max_examples=300, derandomize=True)
def test_plain_solve_and_cell_pass_apply_one_rule(name, direction, seed, n, share):
    # a row of cells with each state and aux entry replaced, with probability
    # `share`, by an extreme: every cell is a side of some interface, so the
    # plain solve refuses the row whenever the cell pass does; when the pass
    # admits it, the solve through its planes fails as the plain one does or
    # returns the same bits.  An admitted row may still overflow in the
    # solution (a gas cell of energy 1e250, say), so finiteness is not asserted.
    q, aux = _random_batch(name, seed, n, 1.0)
    rng = np.random.default_rng(seed + 1)
    for arr in (q, aux):
        hit = rng.random(arr.shape) < share
        arr[hit] = rng.choice(_EXTREMES, int(hit.sum()))
    kernel = make_kernel(name)
    ql, qr = q[:, :-1], q[:, 1:]
    with np.errstate(all="ignore"):
        try:
            cells = kernel.descriptor.cell_pass(q, aux, **kernel.params)
        except KernelError:
            with pytest.raises(KernelError):
                kernel.solve(direction, ql, qr, aux[:, :-1], aux[:, 1:])
            return
        outcomes = []
        for auxl, auxr in ((aux[:, :-1], aux[:, 1:]), (cells[:-1], cells[1:])):
            try:
                res = kernel.solve(direction, ql, qr, auxl, auxr)
            except KernelError as err:
                outcomes.append((str(err), err.side, err.element))
            else:
                outcomes.append([_bits(np.asarray(getattr(res, field))) for field in
                                 ("waves", "speeds", "amdq", "apdq", "max_speed")])
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("direction", [Direction.X, Direction.Y])
def test_advection_speeds_are_a_read_only_broadcast(direction):
    # one speed for the whole batch: no speeds plane is allocated or filled,
    # and the broadcast is of memory fresh to the call
    ql, qr, _, _ = _golden_case("advection", direction, "planar")
    kernel = make_kernel("advection", **KERNEL_PARAMS["advection"])
    first, second = (kernel.solve(direction, ql, qr) for _ in range(2))
    s = KERNEL_PARAMS["advection"]["u" if direction is Direction.X else "v"]
    assert second.speeds.shape == ql.shape and np.all(second.speeds == s)
    assert second.speeds.strides == (0,) * ql.ndim
    assert not second.speeds.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        second.speeds[0, 0, 0] = 0.0
    for other in (ql, qr, first.speeds, first.waves, first.amdq, first.apdq,
                  second.waves, second.amdq, second.apdq):
        assert not np.shares_memory(second.speeds, other)
    assert second.max_speed == abs(s)


@pytest.mark.parametrize("shape", [(1,), (2,), (2, 7), (11, 9)])
def test_cell_planes_are_fresh_and_states_untouched(shape):
    q = random_gas_states(np.random.default_rng(21), int(np.prod(shape)), 1.4) \
        .reshape((4,) + shape)
    q = _layouts(q)["planar"] if len(shape) == 2 else q
    before = _bits(q)
    first, second = (euler_cell_planes(q, gamma=1.4) for _ in range(2))
    assert _bits(q) == before
    for plane in second.planes:
        assert not np.shares_memory(plane, q)
        assert not any(np.shares_memory(plane, p) for p in first.planes)
