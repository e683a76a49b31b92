"""Tests for the model kernels and their derivative jets."""

import numpy as np
import pytest

from zerocorr.kernels import (
    FubiniStudy,
    HeisenbergLevel,
    HeisenbergLimit,
    fs_metric,
    fs_scaled_szego,
    heisenberg_limit_kernel,
    kernel_jet,
)


def finite_difference_jet(kernel, z, w, h=1e-5):
    """Central-difference jet of a kernel S(z, w) holomorphic in z, conj(w).

    grad_q' approximates the derivative in conj(w_q'); hess_qq' the mixed
    derivative in z_q and conj(w_q').  A derivative in conj(w) with real
    step h is a derivative in w with real step h; with imaginary step it
    picks up a sign.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    m = len(z)

    def d_wbar(f, q):
        def g(zz, ww):
            e = np.zeros(m, dtype=complex)
            e[q] = 1.0
            re = (f(zz, ww + h * e) - f(zz, ww - h * e)) / (2 * h)
            im = (f(zz, ww + 1j * h * e) - f(zz, ww - 1j * h * e)) / (2 * h)
            return 0.5 * (re + 1j * im)  # conj(w) derivative
        return g

    def d_z(f, q):
        def g(zz, ww):
            e = np.zeros(m, dtype=complex)
            e[q] = 1.0
            re = (f(zz + h * e, ww) - f(zz - h * e, ww)) / (2 * h)
            im = (f(zz + 1j * h * e, ww) - f(zz - 1j * h * e, ww)) / (2 * h)
            return 0.5 * (re - 1j * im)  # z derivative
        return g

    grad = np.array([d_wbar(kernel, q)(z, w) for q in range(m)])
    hess = np.array(
        [[d_z(d_wbar(kernel, qq), q)(z, w) for qq in range(m)] for q in range(m)]
    )
    return grad, hess


def normalized_reference(kernel, phi_prime, z, w):
    """Unitary-frame (grad, hess) mapped from the raw kernel's finite-difference jet.

    The value is normalized by sqrt(S(z, z) S(w, w)), and the Chern
    connection subtracts phi'(|z|^2) conj(z) and phi'(|w|^2) w times the
    value from the z and conj(w) derivatives.  The z derivative of S(z, w)
    is the conjugate of the conj(w) derivative of S(w, z).
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    grad, hess = finite_difference_jet(kernel, z, w)
    grad_z = finite_difference_jet(kernel, w, z)[0].conj()
    value = kernel(z, w)
    norm = np.sqrt((kernel(z, z) * kernel(w, w)).real)
    cz = phi_prime(np.vdot(z, z).real) * z.conj()
    cw = phi_prime(np.vdot(w, w).real) * w
    grad_cov = (grad - cw * value) / norm
    hess_cov = (
        hess - np.outer(cz, grad) - np.outer(grad_z, cw) + np.outer(cz, cw) * value
    ) / norm
    return grad_cov, hess_cov


class TestJetValues:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_limit_at_origin(self, m):
        jet = kernel_jet(HeisenbergLimit(m), np.zeros(m), np.zeros(m))
        assert jet.s == pytest.approx(1.0)
        assert np.allclose(jet.grad, 0.0)
        assert np.allclose(jet.hess, np.eye(m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("N", [2, 7])
    def test_fs_at_origin(self, N, m):
        jet = kernel_jet(FubiniStudy(N, m), np.zeros(m), np.zeros(m))
        assert jet.s == pytest.approx(1.0)
        assert np.allclose(jet.grad, 0.0)
        assert np.allclose(jet.hess, N * np.eye(m))

    @pytest.mark.parametrize("model", [FubiniStudy(7, 1), FubiniStudy(10 ** 5, 3),
                                       HeisenbergLevel(3, 2), HeisenbergLimit(4)])
    @pytest.mark.parametrize("radius", [0.6, 1e3, 1e6])
    def test_diagonal_in_orthonormal_frame(self, model, radius):
        # At z = w the frame is orthonormal for the model's metric, so the
        # jet is (1, 0, N I) wherever the point lies.
        z = radius * np.exp(1j * np.arange(1, model.m + 1)) / np.sqrt(model.m)
        jet = kernel_jet(model, z, z)
        assert jet.s == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(jet.grad, 0.0, rtol=0.0, atol=0.0)
        assert np.allclose(jet.hess, model.N * np.eye(model.m), rtol=0.0, atol=1e-14 * model.N)

    def test_fs_scaling_limit(self):
        # Jets of the projective kernel at scaled points approach the flat
        # jets at rate 1/N.
        r, t = 0.8, 0.3 + 0.5j
        limit = kernel_jet(HeisenbergLimit(1), [r], [t])
        errs = []
        for N in (100, 400):
            s = np.sqrt(N)
            jet = kernel_jet(FubiniStudy(N, 1), [r / s], [t / s])
            errs.append(
                abs(jet.s - limit.s)
                + abs(jet.grad[0] / s - limit.grad[0])
                + abs(jet.hess[0, 0] / N - limit.hess[0, 0])
            )
        assert errs[1] < errs[0] / 3.0

    def test_level_one_heisenberg_matches_limit_shape(self):
        # The flat limit model is the level-1 model: normalized jets agree
        # exactly.
        m = 2
        z = np.array([0.3 + 0.1j, -0.2j])
        w = np.array([0.1, 0.4 - 0.2j])
        lvl = kernel_jet(HeisenbergLevel(1, m), z, w)
        lim = kernel_jet(HeisenbergLimit(m), z, w)
        assert np.isclose(lvl.s, lim.s, rtol=1e-13)
        assert np.allclose(lvl.grad, lim.grad, rtol=1e-13)
        assert np.allclose(lvl.hess, lim.hess, rtol=1e-13)


class TestJetDerivatives:
    @pytest.mark.parametrize("m", [1, 2])
    def test_limit_finite_difference(self, m):
        rng = np.random.default_rng(10 + m)
        z = rng.normal(size=m) + 1j * rng.normal(size=m)
        w = rng.normal(size=m) + 1j * rng.normal(size=m)

        def kernel(zz, ww):
            return np.exp(zz @ ww.conj())

        grad, hess = normalized_reference(kernel, lambda t: 1.0, z, w)
        jet = kernel_jet(HeisenbergLimit(m), z, w)
        assert np.allclose(jet.grad, grad, rtol=1e-7, atol=1e-7)
        assert np.allclose(jet.hess, hess, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("m", [1, 2])
    def test_fs_finite_difference(self, m):
        N = 6
        rng = np.random.default_rng(20 + m)
        z = 0.4 * (rng.normal(size=m) + 1j * rng.normal(size=m))
        w = 0.4 * (rng.normal(size=m) + 1j * rng.normal(size=m))

        def kernel(zz, ww):
            return (1.0 + zz @ ww.conj()) ** N

        # The jet takes derivatives along the orthonormal frame; the
        # reference takes them along the coordinates, which are X times
        # the frame's.
        grad, hess = normalized_reference(kernel, lambda t: N / (1.0 + t), z, w)
        model = FubiniStudy(N, m)
        jet = kernel_jet(model, z, w)
        x_z, x_w = model._coordinate_frame(z), model._coordinate_frame(w)
        assert np.allclose(x_w.conj() @ jet.grad, grad, rtol=1e-7, atol=1e-7)
        assert np.allclose(x_z @ jet.hess @ x_w.conj().T, hess, rtol=1e-6, atol=1e-6)

    def test_heisenberg_level_finite_difference(self):
        # The raw level-N kernel is exp(N z.conj(w)); normalizing it
        # leaves the Gaussian weight exp(-N |z - w|^2 / 2) in modulus.
        N, m = 3, 2
        rng = np.random.default_rng(30)
        z = 0.5 * (rng.normal(size=m) + 1j * rng.normal(size=m))
        w = 0.5 * (rng.normal(size=m) + 1j * rng.normal(size=m))

        def kernel(zz, ww):
            return np.exp(N * (zz @ ww.conj()))

        grad, hess = normalized_reference(kernel, lambda t: N, z, w)
        weight = np.exp(-0.5 * N * np.vdot(z, z).real - 0.5 * N * np.vdot(w, w).real)
        jet = kernel_jet(HeisenbergLevel(N, m), z, w)
        holo = np.exp(N * (z @ w.conj()))
        assert np.isclose(jet.s, weight * holo, rtol=1e-12)
        assert np.allclose(jet.grad, grad, rtol=1e-6, atol=1e-6)
        assert np.allclose(jet.hess, hess, rtol=1e-5, atol=1e-5)


class TestScaledSzego:
    def test_diagonal_value(self):
        # On the diagonal the scaled kernel is the factorial ratio over
        # pi^m N^m, independent of the point.
        for N in (50, 500):
            val = fs_scaled_szego(N, 1, [0.7], [0.7])
            expected = (N + 1) / (np.pi * N)
            assert np.isclose(val, expected, rtol=1e-12)

    def test_converges_to_limit(self):
        u, v = [0.9 + 0.4j], [-0.3 + 1.1j]
        limit = heisenberg_limit_kernel(u, 0.0, v, 0.0)
        errs = [abs(fs_scaled_szego(N, 1, u, v) - limit) for N in (100, 1600)]
        assert errs[1] < errs[0] / 3.0

    def test_limit_kernel_modulus(self):
        u, v = [1.0 + 1.0j], [0.5]
        val = heisenberg_limit_kernel(u, 0.3, v, -0.2)
        d2 = abs(u[0] - v[0]) ** 2
        assert abs(val) == pytest.approx(np.exp(-0.5 * d2) / np.pi)


class TestValidation:
    def test_dimension_range(self):
        with pytest.raises(ValueError):
            HeisenbergLimit(5)
        with pytest.raises(ValueError):
            FubiniStudy(10, 0)

    def test_level_positive(self):
        with pytest.raises(ValueError):
            FubiniStudy(0, 1)

    def test_point_shape(self):
        with pytest.raises(ValueError):
            kernel_jet(HeisenbergLimit(2), [1.0], [1.0, 2.0])


class TestFsMetric:
    def test_origin_is_identity(self):
        assert np.allclose(fs_metric(np.zeros(3)), np.eye(3))

    def test_hermitian_positive(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        g = fs_metric(z)
        assert np.allclose(g, g.conj().T)
        assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_m1_closed_form(self):
        z = np.array([0.7 - 0.2j])
        g = fs_metric(z)
        assert np.isclose(g[0, 0], 1.0 / (1.0 + abs(z[0]) ** 2) ** 2)


class TestCoordinateFrame:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("radius", [0.0, 0.6, 3.0, 40.0])
    def test_fs_frame_is_metric_root(self, m, radius):
        rng = np.random.default_rng(40 + m)
        z = rng.normal(size=m) + 1j * rng.normal(size=m)
        z *= radius / np.linalg.norm(z)
        frame = FubiniStudy(9, m)._coordinate_frame(z)
        g = fs_metric(z)
        # fs_metric cancels terms of size 1/(1 + |z|^2) to leave entries as
        # small as 1/(1 + |z|^2)^2, so its own rounding sets the tolerance.
        atol = 1e-15 * (1.0 + radius ** 2) * np.abs(g).max()
        assert np.allclose(frame @ frame.conj().T, g, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("model", [HeisenbergLimit(3), HeisenbergLevel(5, 2)])
    def test_flat_frame_is_identity(self, model):
        z = np.linspace(-2.0, 3.0, model.m) * (1.0 - 0.5j)
        assert np.array_equal(model._coordinate_frame(z), np.eye(model.m))
