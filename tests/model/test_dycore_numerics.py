"""Numerical properties of the RK4 integrator."""

import numpy as np
import pytest

from repro.model.dycore import Lorenz96


class TestRK4Convergence:
    def test_fourth_order_in_dt(self):
        # Halving dt should shrink the one-unit integration error by
        # ~2^4; allow a generous band around the theoretical order.
        model = Lorenz96(n_modes=8, base_seed=2)
        x0 = model.base_state()

        def solve(dt):
            x = x0.copy()
            for _ in range(int(round(1.0 / dt))):
                x = model.step(x, dt)
            return x

        reference = solve(0.0005)
        err_coarse = np.abs(solve(0.02) - reference).max()
        err_fine = np.abs(solve(0.01) - reference).max()
        order = np.log2(err_coarse / err_fine)
        assert 3.0 < order < 5.0

    def test_zero_dt_is_identity(self):
        model = Lorenz96(n_modes=8)
        x = model.base_state()
        assert np.array_equal(model.step(x, 0.0), x)

    def test_equilibrium_is_stationary(self):
        # x_j = F for all j is an (unstable) fixed point of Lorenz-96.
        model = Lorenz96(n_modes=8, forcing=8.0)
        x = np.full(8, 8.0)
        out = model.step(x, 0.01)
        np.testing.assert_allclose(out, x, atol=1e-12)


class TestTendency:
    @pytest.mark.parametrize("shape", [(8,), (3, 8), (2, 3, 40)])
    def test_matches_roll_formula_bit_for_bit(self, shape):
        # The textbook form with np.roll is the reference: the index
        # takes must give the same values through the same operations.
        x = np.random.default_rng(4).standard_normal(shape) * 5.0
        model = Lorenz96(n_modes=shape[-1], forcing=8.0)
        reference = (np.roll(x, -1, axis=-1) - np.roll(x, 2, axis=-1)) \
            * np.roll(x, 1, axis=-1) - x + 8.0
        assert model._rhs(x).tobytes() == reference.tobytes()


class TestBaseStateCache:
    def test_handed_out_as_private_copies(self):
        a = Lorenz96(n_modes=10, base_seed=9).base_state()
        original = a.copy()
        a += 1.0  # a caller's edit must not leak into the cache
        b = Lorenz96(n_modes=10, base_seed=9).base_state()
        assert np.array_equal(b, original)
        assert b.flags.writeable


class TestReferenceMomentsCache:
    def test_shared_across_instances(self):
        a = Lorenz96(n_modes=10, base_seed=9)
        b = Lorenz96(n_modes=10, base_seed=9)
        ma, sa = a._reference_moments()
        mb, sb = b._reference_moments()
        assert ma is mb and sa is sb  # process-wide cache

    def test_distinct_for_different_seeds(self):
        a = Lorenz96(n_modes=10, base_seed=1)
        b = Lorenz96(n_modes=10, base_seed=2)
        ma, _ = a._reference_moments()
        mb, _ = b._reference_moments()
        assert not np.array_equal(ma, mb)

    def test_moments_standardize_to_unit_scale(self):
        model = Lorenz96(n_modes=10, base_seed=3)
        run = model.run_ensemble(6)
        # Standardized coefficients: spread of order one across members.
        assert 0.05 < run.coefficients.std() < 5.0
