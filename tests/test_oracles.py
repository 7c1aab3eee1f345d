"""The reference computations are tested first: everything else is checked
against them, so they must stand on their own."""

import numpy as np
import pytest

import wavesweep.kernels as K
import wavesweep.oracles as oracles
from wavesweep.grid import GridSpec, StateField
from wavesweep.kernels import Direction
from wavesweep.oracles import (ErrorNorms, equivalence_mismatches, error_norms, euler_star,
                               exact_advection, exact_riemann_euler_1d,
                               fluctuation_identity_errors, linear_matrix_apply,
                               verify_suite)
from wavesweep.parallel import WorkStealing
from wavesweep.sweep import CellWise, Tiled

SOD_L = np.array([1.0, 0.0, 0.0, 2.5])     # rho 1, at rest, p 1
SOD_R = np.array([0.125, 0.0, 0.0, 0.25])  # rho 1/8, at rest, p 0.1


class TestEulerStar:
    def test_two_state_tube_star_values(self):
        # classical reference values for these states, gamma = 1.4
        p, u = euler_star(SOD_L, SOD_R, 1.4)
        assert p == pytest.approx(0.30313, abs=2e-5)
        assert u == pytest.approx(0.92745, abs=2e-5)

    def test_equal_states_star_is_trivial(self):
        p, u = euler_star(SOD_L, SOD_L, 1.4)
        assert p == pytest.approx(1.0, rel=1e-12)
        assert u == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_generating_states_raise(self):
        # strong opposed rarefactions: 2(c_l + c_r)/(gamma-1) < du
        fast = 20.0
        ql = np.array([1.0, -fast, 0.0, 1.0 / 0.4 + 0.5 * fast * fast])
        qr = np.array([1.0, +fast, 0.0, 1.0 / 0.4 + 0.5 * fast * fast])
        with pytest.raises(ValueError, match="vacuum"):
            euler_star(ql, qr, 1.4)

    def test_inadmissible_side_identified(self):
        bad = np.array([-1.0, 0.0, 0.0, 2.5])
        with pytest.raises(ValueError, match="left"):
            euler_star(bad, SOD_R, 1.4)
        with pytest.raises(ValueError, match="right"):
            euler_star(SOD_L, bad, 1.4)


class TestExactRiemann:
    def test_equal_states_returned_everywhere(self):
        for xi in (-5.0, -0.3, 0.0, 0.7, 4.0):
            assert np.allclose(exact_riemann_euler_1d(SOD_L, SOD_L, 1.4, xi), SOD_L,
                               rtol=1e-12)

    def test_far_field_recovers_inputs(self):
        assert np.allclose(exact_riemann_euler_1d(SOD_L, SOD_R, 1.4, -10.0), SOD_L)
        assert np.allclose(exact_riemann_euler_1d(SOD_L, SOD_R, 1.4, +10.0), SOD_R)

    def test_mirrored_tube_mirrors_solution(self):
        # swap sides and negate velocities: q(-xi) with negated momentum
        ql = np.array([1.0, 0.3, 0.0, 2.6])
        qr = np.array([0.5, -0.1, 0.0, 1.2])
        ql_m = ql * np.array([1.0, -1.0, 1.0, 1.0])
        qr_m = qr * np.array([1.0, -1.0, 1.0, 1.0])
        xi = np.linspace(-3.0, 3.0, 41)
        sol = exact_riemann_euler_1d(ql, qr, 1.4, xi)
        mirror = exact_riemann_euler_1d(qr_m, ql_m, 1.4, -xi)
        assert np.allclose(sol[0], mirror[0], rtol=1e-10, atol=1e-12)
        assert np.allclose(sol[1], -mirror[1], rtol=1e-10, atol=1e-12)
        assert np.allclose(sol[3], mirror[3], rtol=1e-10, atol=1e-12)

    def test_profile_is_physical(self):
        xi = np.linspace(-3.0, 3.0, 400)
        sol = exact_riemann_euler_1d(SOD_L, SOD_R, 1.4, xi)
        rho = sol[0]
        p = 0.4 * (sol[3] - 0.5 * (sol[1] ** 2 + sol[2] ** 2) / rho)
        assert np.all(rho > 0) and np.all(p > 0)
        # star pressure plateau appears between the waves
        assert np.any(np.abs(p - 0.30313) < 1e-4)

    def test_transverse_velocity_jumps_at_contact(self):
        ql = np.array([1.0, 0.0, 2.0, 2.5 + 0.5 * 4.0])   # v = 2 on the left
        qr = np.array([0.125, 0.0, -0.125, 0.25 + 0.5 * 0.125])  # v = -1 right
        _, u_star = euler_star(ql, qr, 1.4)
        just_left = exact_riemann_euler_1d(ql, qr, 1.4, u_star - 1e-9)
        just_right = exact_riemann_euler_1d(ql, qr, 1.4, u_star + 1e-9)
        assert just_left[2] / just_left[0] == pytest.approx(2.0, rel=1e-9)
        assert just_right[2] / just_right[0] == pytest.approx(-1.0, rel=1e-9)

    def test_scalar_and_array_sampling_agree(self):
        xi = np.array([-1.0, 0.2, 1.5])
        arr = exact_riemann_euler_1d(SOD_L, SOD_R, 1.4, xi)
        for k, x in enumerate(xi):
            assert np.array_equal(arr[:, k], exact_riemann_euler_1d(SOD_L, SOD_R, 1.4, x))


class TestLinearMatrix:
    def test_unit_acoustics_pressure_jump(self):
        out = linear_matrix_apply("acoustics-const", np.array([1.0, 0.0, 0.0]),
                                  Direction.X, rho=1.0, bulk=1.0)
        assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-15)

    def test_zero_jump_maps_to_zero(self):
        out = linear_matrix_apply("acoustics-const", np.zeros(3), Direction.Y,
                                  rho=2.0, bulk=3.0)
        assert np.all(out == 0.0)

    def test_y_direction_couples_third_slot(self):
        out = linear_matrix_apply("acoustics-const", np.array([0.0, 0.0, 1.0]),
                                  Direction.Y, rho=4.0, bulk=9.0)
        assert np.allclose(out, [9.0, 0.0, 0.0])

    def test_var_matrix_reduces_to_const_for_equal_sides(self):
        delta = np.array([0.7, -0.3, 0.4])
        rho, c = 2.0, 1.5
        const = linear_matrix_apply("acoustics-const", delta, Direction.X,
                                    rho=rho, bulk=rho * c * c)
        var = linear_matrix_apply("acoustics-var", delta, Direction.X,
                                  aux_l=(rho, c), aux_r=(rho, c))
        assert np.allclose(var, const, rtol=1e-13)

    def test_var_matrix_interface_example(self):
        out = linear_matrix_apply("acoustics-var", np.array([1.0, 0.0, 0.0]),
                                  Direction.X, aux_l=(1.0, 1.0), aux_r=(1.0, 3.0))
        assert np.allclose(out, [2.0, 1.0, 0.0], rtol=1e-14)

    def test_batched_jumps(self):
        delta = np.random.default_rng(0).normal(size=(3, 17))
        out = linear_matrix_apply("acoustics-const", delta, Direction.X, rho=1.0, bulk=4.0)
        assert out.shape == delta.shape
        one = linear_matrix_apply("acoustics-const", delta[:, 3], Direction.X,
                                  rho=1.0, bulk=4.0)
        assert np.allclose(out[:, 3], one)


class TestExactAdvection:
    def _spec(self, n=16):
        return GridSpec(nx=n, ny=n, dx=1.0 / n, dy=1.0 / n, num_eqn=1)

    @staticmethod
    def _profile(x, y):
        return np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)

    def test_zero_time_is_the_sampling(self):
        spec = self._spec()
        out = exact_advection(self._profile, 1.0, 1.0, 0.0, spec)
        xx, yy = np.meshgrid(spec.x_centers(), spec.y_centers(), indexing="ij")
        assert np.array_equal(out.interior[0], self._profile(xx, yy))

    def test_full_period_returns_to_start(self):
        spec = self._spec()
        start = exact_advection(self._profile, 1.0, 0.0, 0.0, spec)
        period = exact_advection(self._profile, 1.0, 0.0, 1.0, spec)
        assert np.allclose(period.interior, start.interior, atol=1e-12)

    def test_half_period_shifts_a_step(self):
        spec = self._spec(8)
        step_profile = lambda x, y: np.where(x < 0.5, 1.0, 0.0)
        out = exact_advection(step_profile, 1.0, 0.0, 0.5, spec)
        # step edge moved from x=0.5 to x=0 (wrapped): left half now 0
        assert np.all(out.interior[0][spec.x_centers() < 0.5, :] == 0.0)
        assert np.all(out.interior[0][spec.x_centers() > 0.5, :] == 1.0)


class TestErrorNorms:
    def _fields(self, n=4):
        spec = GridSpec(nx=n, ny=n, dx=0.5, dy=0.25, num_eqn=1)
        return StateField(spec), StateField(spec)

    def test_identical_fields_zero(self):
        a, b = self._fields()
        a.interior[:] = 3.0
        b.interior[:] = 3.0
        norms = error_norms(a, b)
        assert norms == ErrorNorms(0.0, 0.0, 0.0)

    def test_single_cell_l1_is_area_weighted(self):
        a, b = self._fields()
        eps = 1e-3
        a.interior[0, 1, 2] = eps
        norms = error_norms(a, b)
        assert norms.l1 == pytest.approx(eps * 0.5 * 0.25, rel=1e-12)
        assert norms.linf == pytest.approx(eps)

    def test_norms_scale_linearly(self):
        a, b = self._fields()
        a.interior[:] = np.random.default_rng(1).normal(size=a.interior.shape)
        n1 = error_norms(a, b)
        a.interior[:] *= 2.0
        n2 = error_norms(a, b)
        assert n2.l1 == pytest.approx(2 * n1.l1, rel=1e-12)
        assert n2.l2 == pytest.approx(2 * n1.l2, rel=1e-12)
        assert n2.linf == pytest.approx(2 * n1.linf, rel=1e-12)


def test_equivalence_mismatch_names_the_tiling(monkeypatch):
    # stand-in runs: every final state is zero but one Tiled(7, 5) run's, and
    # its label must tell that tiling from Tiled() and its grain from grain 1
    runs = []

    def fake_run(config):
        runs.append(config)
        state = StateField(config.spec)
        if (config.kernel, config.strategy, config.backend) == \
                ("euler", Tiled(7, 5), WorkStealing(4, 7)):
            state.data += 1.0
        return state, None

    monkeypatch.setattr(oracles, "run", fake_run)
    assert equivalence_mismatches() == [
        "euler/Tiled(tile_w=7, tile_h=5)/WorkStealing(n=4, grain=7)"]
    assert len(runs) == len(K.KERNEL_NAMES) * 3 * 4
    assert {c.strategy for c in runs} == {CellWise(), Tiled(), Tiled(7, 5)}


class TestVerifySuite:
    FAST = {"fluctuation-identity", "conservation-property", "linear-exactness"}

    def test_fast_checks_pass_and_are_named(self):
        report = verify_suite(123, only=self.FAST)
        assert {r.name for r in report.results} == self.FAST
        assert report.passed

    def test_deterministic_given_seed(self):
        a = verify_suite(7, only={"fluctuation-identity"})
        b = verify_suite(7, only={"fluctuation-identity"})
        assert [r.detail for r in a.results] == [r.detail for r in b.results]

    def test_filter_restricts_checks(self):
        report = verify_suite(0, only={"linear-exactness"})
        assert [r.name for r in report.results] == ["linear-exactness"]

    def test_fluctuation_identity_fails_for_a_kernel_it_never_ran(self, monkeypatch):
        assert set(fluctuation_identity_errors(0, samples=200)) == set(K.KERNEL_NAMES)
        monkeypatch.setattr(K, "KERNEL_NAMES", K.KERNEL_NAMES + ("toy",))
        report = verify_suite(0, only={"fluctuation-identity"})
        assert not report.passed
        assert "toy" in report.results[0].detail
