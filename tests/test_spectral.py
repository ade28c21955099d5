"""Centering, the orthonormal transform pair, power tables and the kernel."""

import numpy as np
import pytest

from gfred.errors import DataOverflow, DimensionMismatch, SpectralOverflow
from gfred.graph import GraphSpectrum, SimilarityConfig, build_graph
from gfred.spectral import (
    CenteredDataset,
    apply_response,
    build_cache,
    center,
    eig_power_table,
    gft,
    igft,
    power_stack,
    power_sum,
    reduce_response,
    reducing_taps,
)

from oracles import random_instance, spectral_response, stacked_kernel


def two_path_spectrum() -> GraphSpectrum:
    # 2-node path: eigenvalues (1, -1), eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    r = 1.0 / np.sqrt(2.0)
    return GraphSpectrum(
        eigvals=np.array([1.0, -1.0]),
        eigvecs=np.array([[r, r], [r, -r]]),
        adjacency=S,
    )


class TestCenter:

    def test_mean_removed(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 12))
        ds = center(X)
        assert ds.centered.shape == (7, 12)
        assert np.allclose(ds.centered.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(ds.centered + ds.mean[:, None], X)

    def test_counts(self):
        ds = center(np.ones((3, 5)))
        assert ds.dim == 3 and ds.n == 5
        assert np.allclose(ds.centered, 0.0)
        assert np.allclose(ds.mean, 1.0)

    def test_single_column(self):
        ds = center(np.array([[2.0], [4.0]]))
        assert np.allclose(ds.centered, 0.0)
        assert np.allclose(ds.mean, [2.0, 4.0])

    def test_rejects_overflowing_energy(self):
        # every cell is finite, the sum of squares is not
        X = np.array([[1e155, -1e155, 3e155], [0.0, 1.0, 2.0]])
        with pytest.raises(DataOverflow):
            center(X)
        with pytest.raises(DataOverflow):
            center(np.array([[1e308, -1e308]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionMismatch):
            center(np.ones(4))
        with pytest.raises(DimensionMismatch):
            center(np.ones((2, 2, 2)))

    def test_rejects_a_matrix_of_no_columns(self):
        with pytest.raises(DimensionMismatch) as caught:
            center(np.ones((3, 0)))
        assert str(caught.value) == "need at least one data column"

    def test_centered_data_and_their_svd_are_read_only(self):
        # the SVD is computed once and cached, so nothing may write into
        # what it factorized or into the factors it hands out
        rng = np.random.default_rng(4)
        ds = center(rng.normal(size=(9, 5)))
        with pytest.raises(ValueError):
            ds.centered[0, 0] = 1.0
        factors = ds.svd()
        assert ds.svd() is factors
        left, sing, right_t = factors
        assert left.shape == (9, 5) and sing.shape == (5,) and right_t.shape == (5, 5)
        assert np.allclose(left * sing @ right_t, ds.centered, rtol=0.0, atol=1e-12)
        for factor in factors:
            with pytest.raises(ValueError):
                factor[0] = 0.0


class TestTransformPair:

    def test_known_pair_on_two_path(self):
        spectrum = two_path_spectrum()
        xb = np.array([[1.0, 0.0]])
        xt = gft(xb, spectrum)
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(xt, [[r, r]], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, n=9, dim=5, order=2)
        X = rng.normal(size=(5, 9))
        assert np.allclose(igft(gft(X, inst.spectrum), inst.spectrum), X, atol=1e-12)
        assert np.allclose(gft(igft(X, inst.spectrum), inst.spectrum), X, atol=1e-12)

    def test_preserves_frobenius_norm(self):
        # the basis is orthonormal, so the transform is an isometry
        rng = np.random.default_rng(12)
        inst = random_instance(rng, n=8, dim=6, order=1)
        X = rng.normal(size=(6, 8))
        assert np.isclose(np.linalg.norm(gft(X, inst.spectrum)), np.linalg.norm(X))

    def test_column_count_must_match(self):
        spectrum = two_path_spectrum()
        with pytest.raises(DimensionMismatch):
            gft(np.ones((3, 3)), spectrum)
        with pytest.raises(DimensionMismatch):
            igft(np.ones((3, 3)), spectrum)


class TestPowerTable:

    def test_small_values(self):
        lam = np.array([2.0, -1.0, 0.5])
        table = eig_power_table(lam, order=3)
        assert table.shape == (3, 4)
        expected = np.array(
            [
                [1.0, 2.0, 4.0, 8.0],
                [1.0, -1.0, 1.0, -1.0],
                [1.0, 0.5, 0.25, 0.125],
            ]
        )
        assert np.array_equal(table, expected)

    def test_zero_eigenvalue_power_zero_is_one(self):
        # 0**0 is taken as 1 so order-0 filters act as plain matrices
        table = eig_power_table(np.array([0.0]), order=2)
        assert np.array_equal(table, [[1.0, 0.0, 0.0]])

    def test_order_zero(self):
        table = eig_power_table(np.array([3.0, -7.0]), order=0)
        assert np.array_equal(table, [[1.0], [1.0]])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError) as caught:
            eig_power_table(np.array([0.5]), order=-1)
        assert str(caught.value) == "filter order must be >= 0, got -1"

    def test_overflow_guard(self):
        with pytest.raises(SpectralOverflow):
            eig_power_table(np.array([10.0]), order=160)
        # just under the guard is fine (10^149 < 1e150; 10^150 lands on the
        # limit and repeated-multiplication rounding can tip it past)
        eig_power_table(np.array([10.0]), order=149)

    def test_matches_direct_powers(self):
        rng = np.random.default_rng(5)
        lam = rng.normal(size=8)
        table = eig_power_table(lam, order=5)
        for ell in range(6):
            assert np.allclose(table[:, ell], lam**ell, rtol=1e-12)


class TestCache:

    def test_kernel_against_stacked_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 7))
            order = int(rng.integers(0, 5))
            inst = random_instance(rng, n=n, dim=dim, order=order)
            direct = stacked_kernel(inst.cache.gft_data, inst.spectrum.eigvals, order)
            scale = max(1.0, np.abs(direct).max())
            assert np.abs(inst.cache.kernel - direct).max() <= 1e-10 * scale

    def test_two_path_cross_term_vanishes(self):
        # with eigenvalues (1,-1) and order 1 the cross entry sums 1 + (1)(-1) = 0,
        # so the kernel is diagonal whenever the transformed data has orthogonal rows
        spectrum = two_path_spectrum()
        ds = center(np.array([[3.0, -3.0]]))
        cache = build_cache(ds.centered, spectrum, order=1)
        assert cache.kernel.shape == (2, 2)
        assert cache.kernel[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert cache.kernel[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_kernel_symmetric_exactly(self):
        # both Gram factors are exactly symmetric, so their product is, with
        # no averaging against the transpose; wide and tall data alike, and
        # at sizes where the power products span bands of rows, the last
        # band one row high (a matrix-vector product)
        rng = np.random.default_rng(22)
        for n, dim, order in ((10, 4, 3), (60, 20, 2), (60, 120, 2), (77, 10, 3), (97, 10, 5)):
            inst = random_instance(rng, n=n, dim=dim, order=order)
            assert np.array_equal(inst.cache.kernel, inst.cache.kernel.T), (n, dim)

    def test_metadata(self):
        rng = np.random.default_rng(24)
        inst = random_instance(rng, n=6, dim=3, order=2)
        assert inst.cache.order == 2
        assert inst.cache.n == 6
        assert inst.cache.dim == 3
        assert inst.cache.eig_pows.shape == (6, 3)

    def test_order_mismatch_in_power_table_shape(self):
        rng = np.random.default_rng(25)
        inst = random_instance(rng, n=5, dim=3, order=0)
        assert inst.cache.eig_pows.shape == (5, 1)
        assert np.array_equal(inst.cache.eig_pows[:, 0], np.ones(5))


class TestResponses:

    def test_scalar_response_order_zero(self):
        taps = np.zeros((1, 2, 3))
        taps[0] = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(spectral_response(taps, 0.0), taps[0])
        assert np.array_equal(spectral_response(taps, 5.0), taps[0])

    def test_scalar_response_accumulates_powers(self):
        taps = np.zeros((3, 2, 2))
        taps[0] = np.eye(2)
        taps[1] = 2.0 * np.eye(2)
        taps[2] = np.array([[0.0, 1.0], [1.0, 0.0]])
        lam = 0.5
        expected = taps[0] + lam * taps[1] + lam**2 * taps[2]
        assert np.allclose(spectral_response(taps, lam), expected, rtol=1e-15)

    @pytest.mark.parametrize(
        "taps_shape",
        [(4, 4, 3), (4, 2, 6)],
        ids=["more-outputs", "fewer-outputs"],
    )
    def test_apply_matches_per_node_loop(self, taps_shape):
        # the bank [T_0 ... T_L] against the stack of its taps, either way
        # round in rows, frequency by frequency: apply_response takes and
        # gives vertex-domain columns
        rng = np.random.default_rng(31)
        inst = random_instance(rng, n=8, dim=4, order=3)
        taps = rng.normal(size=taps_shape)
        vectors = rng.normal(size=(taps_shape[2], 8))
        bank = np.concatenate(taps, axis=1)
        out = apply_response(bank, inst.cache.eig_pows, igft(vectors, inst.spectrum), inst.spectrum)
        assert out.shape == (taps_shape[1], 8)
        freq = gft(out, inst.spectrum)
        for i in range(8):
            resp = spectral_response(taps, inst.spectrum.eigvals[i])
            assert np.allclose(freq[:, i], resp @ vectors[:, i], rtol=1e-10, atol=1e-12)

    def test_power_sum_is_the_adjoint_of_power_stack(self):
        rng = np.random.default_rng(34)
        pows = eig_power_table(rng.uniform(-1.0, 1.0, size=7), order=2)
        vectors = rng.normal(size=(3, 7))
        stacked = rng.normal(size=(9, 7))
        assert power_stack(vectors, pows).shape == (9, 7)
        assert np.vdot(power_stack(vectors, pows), stacked) == pytest.approx(
            np.vdot(vectors, power_sum(stacked, pows)), rel=1e-12
        )

    def test_apply_identity_taps(self):
        rng = np.random.default_rng(32)
        inst = random_instance(rng, n=6, dim=3, order=0)
        vectors = rng.normal(size=(4, 6))
        out = apply_response(np.eye(4), inst.cache.eig_pows, vectors, inst.spectrum)
        assert np.allclose(out, vectors, rtol=0.0, atol=1e-12)

    def test_reducing_stack_gives_the_kernel_product(self):
        # block l of the stack is coeffs diag(lam^l) Xt'; applied to Xt it
        # gives coeffs times the feature kernel of the same order
        rng = np.random.default_rng(33)
        inst = random_instance(rng, n=7, dim=5, order=2)
        coeffs = rng.normal(size=(3, 7))
        xt, pows = inst.cache.gft_data, inst.cache.eig_pows
        stack = reducing_taps(coeffs, xt, pows)
        assert stack.shape == (9, 5)
        for ell in range(3):
            tap = coeffs @ np.diag(pows[:, ell]) @ xt.T
            assert np.allclose(stack[3 * ell : 3 * (ell + 1)], tap, rtol=1e-12, atol=1e-14)
        want = coeffs @ inst.cache.kernel
        got = reduce_response(coeffs, xt, pows)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
