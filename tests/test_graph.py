import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfred.errors import DataOverflow, DataUnderflow, DimensionMismatch, KnnTooLarge, ZeroColumn
from gfred.graph import (
    GraphSpectrum,
    Kernel,
    SimilarityConfig,
    Symmetrization,
    build_graph,
    canonical_signs,
    connected_components,
    eigendecompose,
    knn_sparsify,
    similarity_dense,
)
from gfred.harness import synth_digits

from oracles import brute_knn_marks, dense_eigendecompose, loop_canonical_signs

COSINE = SimilarityConfig(kernel=Kernel.COSINE, knn=1)
GAUSS = SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=0.01, knn=1)


class TestSimilarityDense:
    def test_cosine_identical_columns(self):
        # both columns lie on the same ray, cosine 1
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        sim = similarity_dense(X, COSINE)
        assert sim[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert sim[0, 0] == 0.0 and sim[1, 1] == 0.0

    def test_cosine_orthogonal_columns(self):
        X = np.array([[1.0, 0.0], [0.0, 3.0]])
        sim = similarity_dense(X, COSINE)
        assert sim[0, 1] == 0.0

    def test_gaussian_known_value(self):
        # distance 5 between (0,0) and (3,4): exp(-0.5 * 0.01 * 25) = exp(-0.125)
        X = np.array([[0.0, 3.0], [0.0, 4.0]])
        sim = similarity_dense(X, GAUSS)
        assert sim[0, 1] == pytest.approx(math.exp(-0.125), rel=1e-12)
        assert sim[0, 1] == pytest.approx(0.8824969025845955, rel=1e-12)

    def test_gaussian_allows_zero_column(self):
        X = np.array([[0.0, 3.0], [0.0, 4.0]])
        similarity_dense(X, GAUSS)  # no error

    def test_cosine_zero_column_rejected(self):
        X = np.array([[0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ZeroColumn):
            similarity_dense(X, COSINE)

    def test_exact_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(4, 9))
        wide = rng.normal(size=(100, 900))
        # a small product, and blocked ones in every memory layout
        layouts = (X, wide[:50, :300], np.asfortranarray(wide[:50, :300]),
                   wide[::2, ::3], wide[:50, 299::-1])
        for kernel, alpha in ((Kernel.COSINE, 0.01), (Kernel.GAUSSIAN, 0.3)):
            cfg = SimilarityConfig(kernel=kernel, alpha=alpha, knn=1)
            for data in layouts:
                sim = similarity_dense(data, cfg)
                assert np.array_equal(sim, sim.T)
                assert np.all(np.diag(sim) == 0.0)

    def test_cosine_range(self):
        rng = np.random.default_rng(8)
        sim = similarity_dense(rng.normal(size=(3, 20)), COSINE)
        assert np.all(sim >= -1.0) and np.all(sim <= 1.0)

    def test_gaussian_range(self):
        rng = np.random.default_rng(9)
        cfg = SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=2.0, knn=1)
        sim = similarity_dense(rng.normal(size=(3, 20)), cfg)
        off = sim[~np.eye(20, dtype=bool)]
        assert np.all(off > 0.0) and np.all(off <= 1.0)

    @pytest.mark.parametrize("kernel", [Kernel.COSINE, Kernel.GAUSSIAN], ids=["cosine", "gaussian"])
    @pytest.mark.parametrize("scale, offset", [(1e155, 0.0), (1e140, 1e155)], ids=["scaled", "offset"])
    def test_overflowing_columns_rejected(self, kernel, scale, offset):
        # every cell is finite, but each column's sum of squares overflows
        X = offset + scale * np.random.default_rng(10).uniform(0.1, 1.0, size=(12, 9))
        cfg = SimilarityConfig(kernel=kernel, knn=3)
        with pytest.raises(DataOverflow, match="sum of squares"):
            build_graph(X, cfg)

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda e: e.value)
    def test_underflowing_columns_rejected(self, kernel):
        # no column is zero, but every column's sum of squares rounds to 0
        X = 1e-300 * np.random.default_rng(10).uniform(0.1, 1.0, size=(12, 9))
        assert not np.any(np.sum(X * X, axis=0))
        X[:, 0] = 0.0  # a zero column beside them does not hide the underflow
        cfg = SimilarityConfig(kernel=kernel, knn=3)
        with pytest.raises(DataUnderflow, match="column 1's sum of squares underflows"):
            similarity_dense(X, cfg)

    def test_gaussian_distances_past_the_largest_double_rejected(self):
        # each column's sum of squares is finite (about 1.44e308), but two of
        # them add past the largest double
        images, _ = synth_digits(4, 10, size=12)
        X = 1e153 + 1e140 * images
        assert np.isfinite(np.sum(X * X, axis=0)).all()
        cfg = SimilarityConfig(kernel=Kernel.GAUSSIAN, knn=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataOverflow, match="squared distances"):
                build_graph(X, cfg)

    @pytest.mark.parametrize("alpha", [1e6, 1e300, 1e308])
    def test_gaussian_that_underflows_everywhere_rejected(self, alpha):
        # every exp(-alpha/2 * d2) off the diagonal is 0: the graph has no edges
        images, _ = synth_digits(4, 10, size=12)
        cfg = SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=alpha, knn=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="alpha"):
                similarity_dense(images, cfg)
        # a width that keeps some similarity builds a graph with edges
        wide = SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=1000.0, knn=3)
        assert np.count_nonzero(build_graph(images, wide).adjacency) > 0

    def test_single_column_rejected(self):
        with pytest.raises(DimensionMismatch):
            similarity_dense(np.ones((3, 1)), COSINE)


class TestKnnSparsify:
    def test_all_kept_when_knn_saturates(self):
        rng = np.random.default_rng(3)
        sim = similarity_dense(rng.normal(size=(4, 3)), SimilarityConfig(knn=2))
        assert np.array_equal(knn_sparsify(sim, SimilarityConfig(knn=2)), sim)

    def test_star_union(self):
        # hub 0 with spokes 1..3; spokes mutually weaker than any hub link
        sim = np.array(
            [
                [0.0, 0.9, 0.8, 0.7],
                [0.9, 0.0, 0.1, 0.2],
                [0.8, 0.1, 0.0, 0.3],
                [0.7, 0.2, 0.3, 0.0],
            ]
        )
        out = knn_sparsify(sim, SimilarityConfig(knn=1, symmetrization=Symmetrization.UNION))
        expect = np.zeros((4, 4))
        expect[0, 1] = expect[1, 0] = 0.9
        expect[0, 2] = expect[2, 0] = 0.8
        expect[0, 3] = expect[3, 0] = 0.7
        assert np.array_equal(out, expect)

    def test_star_mutual(self):
        sim = np.array(
            [
                [0.0, 0.9, 0.8, 0.7],
                [0.9, 0.0, 0.1, 0.2],
                [0.8, 0.1, 0.0, 0.3],
                [0.7, 0.2, 0.3, 0.0],
            ]
        )
        out = knn_sparsify(sim, SimilarityConfig(knn=1, symmetrization=Symmetrization.MUTUAL))
        expect = np.zeros((4, 4))
        expect[0, 1] = expect[1, 0] = 0.9  # only the hub's own favorite is mutual
        assert np.array_equal(out, expect)

    def test_matches_brute_force_marking(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(4, 12))
            knn = int(rng.integers(1, n - 1))
            sim = similarity_dense(
                rng.normal(size=(3, n)), SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=0.5, knn=1)
            )
            marks = brute_knn_marks(sim, knn)
            for mode, combine in (
                (Symmetrization.UNION, marks | marks.T),
                (Symmetrization.MUTUAL, marks & marks.T),
            ):
                out = knn_sparsify(sim, SimilarityConfig(knn=knn, symmetrization=mode))
                assert np.array_equal(out, np.where(combine, sim, 0.0)), (trial, mode)

    @pytest.mark.parametrize("mode", list(Symmetrization), ids=lambda e: e.value)
    @pytest.mark.parametrize("levels", [2, 3, 5], ids=lambda v: f"levels{v}")
    def test_matches_brute_force_marking_on_ties(self, mode, levels):
        # similarities on a few levels, zero and negative ones among them,
        # so most rows hold more entries equal to their cut than they need
        rng = np.random.default_rng(100 + levels)
        for trial in range(6):
            n = int(rng.integers(3, 14))
            upper = np.triu(rng.integers(-1, levels - 1, size=(n, n)) / 4.0, 1)
            sim = upper + upper.T
            np.fill_diagonal(sim, rng.choice([0.0, 1.0, -1.0]))  # never marked
            for knn in range(1, n):
                marks = brute_knn_marks(sim, knn)
                combine = marks | marks.T if mode is Symmetrization.UNION else marks & marks.T
                out = knn_sparsify(sim, SimilarityConfig(knn=knn, symmetrization=mode))
                assert np.array_equal(out, np.where(combine, sim, 0.0)), (trial, n, knn)

    def test_tie_break_lower_column_index(self):
        sim = np.zeros((4, 4))
        sim[0, 1] = sim[1, 0] = 0.5
        sim[0, 2] = sim[2, 0] = 0.5  # tied with column 1; 1 must win for row 0
        sim[0, 3] = sim[3, 0] = 0.1
        sim[1, 2] = sim[2, 1] = 0.05
        sim[1, 3] = sim[3, 1] = 0.02
        sim[2, 3] = sim[3, 2] = 0.01
        out = knn_sparsify(sim, SimilarityConfig(knn=1, symmetrization=Symmetrization.MUTUAL))
        assert out[0, 1] == 0.5
        assert out[0, 2] == 0.0

    def test_knn_too_large(self):
        sim = np.zeros((3, 3))
        with pytest.raises(KnnTooLarge):
            knn_sparsify(sim, SimilarityConfig(knn=3))

    def test_symmetric_output(self):
        rng = np.random.default_rng(5)
        sim = similarity_dense(rng.normal(size=(4, 10)), SimilarityConfig(knn=1))
        for mode in Symmetrization:
            out = knn_sparsify(sim, SimilarityConfig(knn=3, symmetrization=mode))
            assert np.array_equal(out, out.T)

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda e: e.value)
    @pytest.mark.parametrize("mode", list(Symmetrization), ids=lambda e: e.value)
    def test_normalize_spectrum_unit_radius(self, kernel, mode):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(4, 10))
        cfg = SimilarityConfig(kernel=kernel, knn=3, symmetrization=mode)
        spectrum = build_graph(X, cfg)
        # the radius divides itself, and x / x is exact
        assert np.max(np.abs(spectrum.eigvals)) == 1.0
        radius = np.max(np.abs(np.linalg.eigvalsh(spectrum.adjacency)))
        assert radius == pytest.approx(1.0, abs=1e-10)
        sparse = knn_sparsify(similarity_dense(X, cfg), cfg)
        assert np.array_equal(spectrum.adjacency != 0, sparse != 0)

    def test_zero_radius_stays_unscaled(self):
        # mutually orthogonal columns have cosine 0, so no edge has weight
        cfg = SimilarityConfig(kernel=Kernel.COSINE, knn=2)
        spectrum = build_graph(np.eye(5), cfg)
        assert np.all(np.isfinite(spectrum.eigvals))
        assert np.all(spectrum.eigvals == 0.0)
        assert np.all(spectrum.adjacency == 0.0)

    @staticmethod
    def assert_scaled_composition(X, cfg):
        """build_graph gives, bit for bit, the kNN matrix and the eigenpairs
        of eigendecompose, the matrix and eigenvalues divided by one radius
        (1.0 for a graph with no edges)."""
        sparse = knn_sparsify(similarity_dense(X, cfg), cfg)
        plain = eigendecompose(sparse)
        radius = float(np.max(np.abs(plain.eigvals))) or 1.0
        spectrum = build_graph(X, cfg)
        assert spectrum.eigvals.tobytes() == (plain.eigvals / radius).tobytes()
        assert spectrum.eigvecs.tobytes() == plain.eigvecs.tobytes()
        assert spectrum.adjacency.tobytes() == (sparse / radius).tobytes()

    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda e: e.value)
    @pytest.mark.parametrize("mode", list(Symmetrization), ids=lambda e: e.value)
    def test_build_graph_is_the_scaled_composition(self, kernel, mode):
        X = np.random.default_rng(7).normal(size=(4, 10))
        self.assert_scaled_composition(X, SimilarityConfig(kernel=kernel, knn=3, symmetrization=mode))

    def test_edgeless_build_graph_is_the_composition(self):
        self.assert_scaled_composition(np.eye(5), SimilarityConfig(kernel=Kernel.COSINE, knn=2))


class TestEigendecompose:
    def test_holds_eigenpairs_only(self):
        # the caller owns the matrix it passed; build_graph attaches its own
        S = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert eigendecompose(S).adjacency is None

    def test_two_node_path(self):
        spectrum = eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spectrum.eigvals, [1.0, -1.0], atol=1e-15)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert np.allclose(spectrum.eigvecs[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-15)
        # sign convention: tied magnitudes resolve to a nonnegative first entry
        assert np.allclose(spectrum.eigvecs[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-15)

    def test_descending_order_and_reconstruction(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(7, 7))
        S = 0.5 * (A + A.T)
        spectrum = eigendecompose(S)
        assert np.all(np.diff(spectrum.eigvals) <= 0)
        rebuilt = spectrum.eigvecs @ (spectrum.eigvals[:, None] * spectrum.eigvecs.T)
        assert np.allclose(rebuilt, S, atol=1e-9)
        assert np.allclose(
            spectrum.eigvecs.T @ spectrum.eigvecs, np.eye(7), atol=1e-10
        )

    def test_eigen_residuals(self):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(9, 9))
        S = 0.5 * (A + A.T)
        spectrum = eigendecompose(S)
        for i in range(9):
            resid = S @ spectrum.eigvecs[:, i] - spectrum.eigvals[i] * spectrum.eigvecs[:, i]
            assert np.linalg.norm(resid) <= 1e-8 * (1.0 + abs(spectrum.eigvals[i]))
        assert np.trace(S) == pytest.approx(np.sum(spectrum.eigvals), abs=1e-9 * 9)

    def test_sign_convention(self):
        rng = np.random.default_rng(15)
        A = rng.normal(size=(6, 6))
        spectrum = eigendecompose(0.5 * (A + A.T))
        for j in range(6):
            column = spectrum.eigvecs[:, j]
            assert column[np.argmax(np.abs(column))] >= 0.0

    def test_repeatability(self):
        rng = np.random.default_rng(16)
        A = rng.normal(size=(8, 8))
        S = 0.5 * (A + A.T)
        first = eigendecompose(S)
        second = eigendecompose(S)
        assert np.array_equal(first.eigvals, second.eigvals)
        assert np.array_equal(first.eigvecs, second.eigvecs)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            eigendecompose(np.zeros((2, 3)))


def block_graph(sizes, seed):
    """A graph of one connected block per size, its nodes shuffled.

    Each block joins its nodes in a random path and adds random further
    edges, with weights of either sign. Returns the adjacency and each
    node's block index.
    """
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    S = np.zeros((n, n))
    block = np.repeat(np.arange(len(sizes)), sizes)
    start = 0
    for size in sizes:
        nodes = start + rng.permutation(size)
        signs = rng.choice([-1.0, 1.0], size=(size, size))
        weights = rng.uniform(0.1, 1.0, size=(size, size)) * signs
        extra = np.triu(rng.random((size, size)) < 0.3, 1)
        extra[np.arange(size - 1), np.arange(1, size)] = True  # the path
        upper = np.where(extra, weights, 0.0)
        S[np.ix_(nodes, nodes)] = upper + upper.T
        start += size
    perm = rng.permutation(n)
    return S[np.ix_(perm, perm)], block[perm]


class TestComponents:
    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(sizes=[1, 1, 1, 1], seed=0)  # the edgeless graph
    @example(sizes=[1], seed=0)
    def test_spectrum_solved_block_by_block(self, sizes, seed):
        S, block = block_graph(sizes, seed)
        found = connected_components(S)
        assert [list(nodes) for nodes in found] == sorted(
            (list(np.flatnonzero(block == b)) for b in range(len(sizes))), key=lambda m: m[0]
        )
        spectrum = eigendecompose(S)
        vals, vecs = spectrum.eigvals, spectrum.eigvecs
        assert np.max(np.abs(vals - np.linalg.eigvalsh(S)[::-1])) <= 1e-12
        assert np.max(np.abs(S @ vecs - vecs * vals)) <= 1e-12
        assert np.max(np.abs(vecs.T @ vecs - np.eye(S.shape[0]))) <= 1e-12
        for column in vecs.T:
            assert np.unique(block[column != 0.0]).size == 1  # exact zeros off one component
        assert np.all(np.diff(vals) <= 0.0)
        assert np.array_equal(vecs, loop_canonical_signs(vecs))

    def test_tie_between_components_goes_to_component_order(self):
        # 15 disjoint edges of equal weight on shuffled nodes: every
        # component has the eigenvalues 1 and -1, and among equal
        # eigenvalues the components come in the order of their smallest node
        perm = np.random.default_rng(23).permutation(30)
        S = np.zeros((30, 30))
        S[perm[0::2], perm[1::2]] = S[perm[1::2], perm[0::2]] = 1.0
        spectrum = eigendecompose(S)
        assert np.array_equal(spectrum.eigvals, np.repeat([1.0, -1.0], 15))
        support = [tuple(np.flatnonzero(column)) for column in spectrum.eigvecs.T]
        pairs = sorted(tuple(sorted(edge)) for edge in zip(perm[0::2], perm[1::2]))
        assert support == pairs + pairs

    def test_self_loops_connect_nothing(self):
        S = np.diag([1.0, 2.0, 3.0])
        assert [list(nodes) for nodes in connected_components(S)] == [[0], [1], [2]]
        assert np.array_equal(eigendecompose(S).eigvals, [3.0, 2.0, 1.0])

    @pytest.mark.parametrize("source", ["digits", "random"])
    def test_connected_graph_matches_one_dense_solve(self, source):
        if source == "digits":
            X, _ = synth_digits(4, 10, seed=0)
            cfg = SimilarityConfig(knn=12)
        else:
            X = np.random.default_rng(22).normal(size=(20, 200))
            cfg = SimilarityConfig(knn=5)
        S = knn_sparsify(similarity_dense(X, cfg), cfg)
        assert len(connected_components(S)) == 1
        spectrum = eigendecompose(S)
        vals, vecs = dense_eigendecompose(S)
        assert np.array_equal(spectrum.eigvals, vals)
        assert np.array_equal(spectrum.eigvecs, vecs)


class TestConfigAndHelpers:
    def test_knn_must_be_positive(self):
        with pytest.raises(KnnTooLarge):
            SimilarityConfig(knn=0)

    def test_gaussian_needs_positive_alpha(self):
        # an infinite width would zero every similarity, leaving no edges
        for alpha in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite number > 0"):
                SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=alpha, knn=1)

    def test_canonical_signs_matches_column_loop(self):
        # magnitude ties between a positive and a negative entry, zero
        # columns and -0.0 entries among random ones
        rng = np.random.default_rng(16)
        M = rng.integers(-2, 3, size=(6, 40)).astype(float)
        M[:, :3] = rng.normal(size=(6, 3))
        M[:, 3] = 0.0
        M[0, 4] = -0.0
        before = M.copy()
        got = canonical_signs(M)
        want = loop_canonical_signs(M)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(M, before)  # a new array; the input keeps its signs

    def test_canonical_signs_idempotent(self):
        rng = np.random.default_rng(17)
        M = rng.normal(size=(5, 4))
        fixed = canonical_signs(M)
        assert np.array_equal(canonical_signs(fixed), fixed)

    def test_build_graph_end_to_end(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(4, 12))
        spectrum = build_graph(X, SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=0.2, knn=4))
        assert isinstance(spectrum, GraphSpectrum)
        assert spectrum.n == 12
        assert np.array_equal(spectrum.adjacency, spectrum.adjacency.T)

    def test_spectrum_arrays_are_read_only(self):
        rng = np.random.default_rng(20)
        vals = rng.normal(size=4)
        spectrum = GraphSpectrum(eigvals=vals, eigvecs=np.eye(4), adjacency=np.eye(4))
        for array in (spectrum.eigvals, spectrum.eigvecs, spectrum.adjacency):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert np.array_equal(spectrum.eigvals, vals)
        assert GraphSpectrum(eigvals=vals, eigvecs=np.eye(4)).adjacency is None

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_fingerprint_is_the_eigenpair_hash(self, layout):
        # sha256 of the little-endian eigenvalues, then the eigenvectors in
        # column-major order, whatever order they are stored in
        rng = np.random.default_rng(21)
        vals, vecs = rng.normal(size=5), np.asarray(rng.normal(size=(5, 5)), order=layout)
        want = hashlib.sha256(vals.astype("<f8").tobytes() + vecs.astype("<f8").tobytes(order="F"))
        assert GraphSpectrum(eigvals=vals, eigvecs=vecs).fingerprint() == want.hexdigest()

    def test_fingerprint_tracks_spectrum(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(4, 10))
        cfg = SimilarityConfig(kernel=Kernel.GAUSSIAN, alpha=0.2, knn=3)
        a = build_graph(X, cfg)
        b = build_graph(X, cfg)
        c = build_graph(X + 0.1, cfg)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
