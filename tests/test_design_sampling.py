import dataclasses

import numpy as np
import pytest

from mvgdp import (
    DegenerateDesignError,
    DomainError,
    NoiseDesign,
    RandomStream,
    ShapeError,
    sample_mvg,
    sample_standard_matrix,
    zeta,
)
from mvgdp.sampling import color_noise, seed_state_words
from oracles import dense_covariances, dense_release


def random_design(rng, m, n, lam_lo=0.4, lam_hi=1.2):
    w_s = np.linalg.qr(rng.standard_normal((m, m)))[0]
    w_p = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return NoiseDesign(w_s, rng.uniform(lam_lo, lam_hi, m),
                       w_p, rng.uniform(lam_lo, lam_hi, n))


class TestNoiseDesign:
    def test_rejects_non_orthonormal(self):
        skewed = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateDesignError):
            NoiseDesign(skewed, np.ones(2), np.eye(2), np.ones(2))
        # a supplied basis is checked even beside a standard side
        with pytest.raises(DegenerateDesignError):
            NoiseDesign(skewed, np.ones(2), None, np.ones(3))
        with pytest.raises(DegenerateDesignError):
            NoiseDesign(None, np.ones(3), skewed, np.ones(2))

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(DegenerateDesignError):
            NoiseDesign(np.eye(2), np.array([1.0, 0.0]), np.eye(2), np.ones(2))
        with pytest.raises(DegenerateDesignError):
            NoiseDesign(np.eye(2), np.array([1.0, -2.0]), np.eye(2), np.ones(2))
        for bad in ([1.0, 0.0], [1.0, -2.0], [1.0, np.inf], [1.0, -np.inf],
                    [np.nan, 1.0], [1.0, np.nan]):
            with pytest.raises(DegenerateDesignError):
                NoiseDesign(np.eye(2), np.ones(2), None, np.array(bad))
            with pytest.raises(DegenerateDesignError):
                NoiseDesign(None, np.array(bad), np.eye(2), np.ones(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            NoiseDesign(np.eye(2), np.ones(3), np.eye(2), np.ones(2))
        # a standard side takes its size from lambda, which must not be empty
        with pytest.raises(ShapeError):
            NoiseDesign(np.eye(2), np.ones(2), None, np.ones(0))
        with pytest.raises(ShapeError):
            NoiseDesign(None, [], np.eye(2), np.ones(2))

    def test_standard_side_reads_as_dense_identity(self):
        lam_p = np.array([2.0, 0.5, 4.0])
        implicit = NoiseDesign(np.eye(2), np.ones(2), None, lam_p)
        assert implicit.basis_psi is None
        assert (implicit.m, implicit.n) == (2, 3)
        assert np.array_equal(implicit.w_psi, np.eye(3))

    def test_replace_revalidates(self):
        design = NoiseDesign(np.eye(2), np.ones(2), None, np.ones(3))
        scaled = dataclasses.replace(design, lambda_psi=np.full(3, 2.0))
        assert scaled.basis_psi is None
        assert np.array_equal(scaled.lambda_psi, np.full(3, 2.0))
        with pytest.raises(DegenerateDesignError):
            dataclasses.replace(design, lambda_psi=np.zeros(3))

    def test_from_covariances_roundtrip(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 0.5 * np.eye(3)
        design = NoiseDesign.from_covariances(sigma, np.eye(2))
        assert np.allclose(dense_covariances(design)[0], sigma, atol=1e-10)
        assert np.all(np.diff(design.lambda_sigma) <= 0)  # descending

    def test_from_covariances_rejects_degenerate(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DegenerateDesignError):
            NoiseDesign.from_covariances(singular, np.eye(2))

    def test_from_covariances_rejects_asymmetric(self):
        with pytest.raises(DegenerateDesignError):
            NoiseDesign.from_covariances(np.array([[1.0, 0.5], [0.0, 1.0]]),
                                         np.eye(2))

    def test_reconstruction_symmetry(self):
        # a design's covariances are symmetric, and decomposing them gives
        # back its singular values in descending order
        rng = np.random.default_rng(2)
        for _ in range(50):
            design = random_design(rng, 4, 3, lam_lo=0.1, lam_hi=10.0)
            sigma, psi = dense_covariances(design)
            assert np.max(np.abs(sigma - sigma.T)) < 1e-10
            again = NoiseDesign.from_covariances(sigma, psi)
            assert np.allclose(again.lambda_sigma,
                               np.sort(design.lambda_sigma)[::-1], rtol=1e-10)


class TestWithBases:
    def test_checks_the_bases_and_shares_the_singular_values(self):
        lam = np.array([3.0, 2.0])
        spectrum = NoiseDesign(None, lam, None, lam)
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        design = spectrum.with_bases(w, w)
        assert design.basis_sigma is design.basis_psi
        assert design.lambda_sigma is spectrum.lambda_sigma
        assert design.lambda_psi is spectrum.lambda_psi
        assert spectrum.basis_sigma is None
        skewed = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateDesignError):
            spectrum.with_bases(skewed, None)
        with pytest.raises(DegenerateDesignError):
            spectrum.with_bases(None, skewed)
        with pytest.raises(ShapeError):
            spectrum.with_bases(np.eye(3), None)

    def test_shares_the_row_roots(self):
        lam = np.array([3.0, 2.0])
        spectrum = NoiseDesign(None, lam, None, np.ones(3))
        assert spectrum.root_sigma.tobytes() == np.sqrt(lam).tobytes()
        design = spectrum.with_bases(np.eye(2), None)
        assert design.root_sigma is spectrum.root_sigma
        assert design.color_bases == (None, None)
        assert spectrum.basis_sigma is None and design.basis_sigma is not None


class TestRandomStream:
    def test_seed_validation(self):
        with pytest.raises(DomainError):
            RandomStream(-1)
        with pytest.raises(DomainError):
            RandomStream(2 ** 64)
        with pytest.raises(DomainError):
            RandomStream(1.5)

    def test_determinism(self):
        a = sample_standard_matrix(RandomStream(42), 2, 2)
        b = sample_standard_matrix(RandomStream(42), 2, 2)
        assert np.array_equal(a, b)

    def test_state_words_equal_seed_sequence(self):
        # the vectorized hash must reproduce numpy's SeedSequence for seeds
        # of one and two 32-bit words, and the streams built from its words
        # must draw what RandomStream(seed) draws
        edges = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
        rng = np.random.default_rng(2024)
        seeds = edges + rng.integers(0, 2 ** 64, 2000, dtype=np.uint64).tolist()
        words = seed_state_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for seed, row in zip(seeds, words):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert np.array_equal(row, expected), seed
            built = RandomStream.from_state_words(seed, row)
            assert built.seed == seed
            assert np.array_equal(built.standard_normal((5, 5)),
                                  RandomStream(seed).standard_normal((5, 5))), seed

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint64),
                                                (2, np.uint64)])
    def test_state_words_serve_only_pcg64(self, n_words, dtype):
        stream = RandomStream.from_state_words(7, seed_state_words([7])[0])
        seed_seq = stream._generator.bit_generator.seed_seq
        with pytest.raises(ValueError, match="4 uint64"):
            seed_seq.generate_state(n_words, dtype)


class TestSampleStandardMatrix:
    def test_scalar_case(self):
        value = sample_standard_matrix(RandomStream(0), 1, 1)
        assert value.shape == (1, 1)
        assert np.isfinite(value).all()

    def test_zero_dimension(self):
        with pytest.raises(ShapeError):
            sample_standard_matrix(RandomStream(0), 0, 2)
        with pytest.raises(ShapeError):
            sample_standard_matrix(RandomStream(0), 2, 0)

    @pytest.mark.parametrize("bad", [True, 0, 4.0])
    def test_rejects_what_is_not_a_positive_count(self, bad):
        for m, n in ((bad, 4), (4, bad)):
            with pytest.raises(ShapeError, match="positive integer"):
                sample_standard_matrix(RandomStream(0), m, n)

    def test_numpy_counts_draw_as_ints(self):
        drawn = sample_standard_matrix(RandomStream(3), np.int64(4), np.int32(2))
        assert drawn.tobytes() == \
            sample_standard_matrix(RandomStream(3), 4, 2).tobytes()

    def test_out_gets_the_bits_of_a_fresh_draw(self):
        fresh_stream = RandomStream(4)
        fresh = sample_standard_matrix(fresh_stream, 3, 5)
        stack = np.zeros((2, 3, 5))
        row = stack[1]
        stream = RandomStream(4)
        assert sample_standard_matrix(stream, 3, 5, out=row) is row
        assert stack[1].tobytes() == fresh.tobytes()
        assert not stack[0].any()
        # the stream goes on as it does after a fresh draw
        assert stream.standard_normal((4,)).tobytes() == \
            fresh_stream.standard_normal((4,)).tobytes()

    def test_moments(self):
        draws = sample_standard_matrix(RandomStream(9), 1000, 1000).ravel()
        assert abs(draws.mean()) < 4e-3
        assert abs(draws.var() - 1.0) < 1e-2


class TestColorNoise:
    def test_a_unit_column_side_leaves_the_columns_as_drawn(self):
        rng = np.random.default_rng(9)
        w = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        lam = rng.uniform(0.4, 1.2, 3)
        noise = rng.standard_normal((2, 3, 5))
        for basis in (None, w):
            unit = color_noise(noise.copy(), basis, lam, None, None)
            ones = color_noise(noise.copy(), basis, lam, None, np.ones(5))
            assert unit.tobytes() == ones.tobytes()

    @pytest.mark.parametrize("standard", [False, True])
    def test_one_side_for_both_gives_the_bits_of_two(self, standard):
        # an equi-modal design colors with one factor computed once
        rng = np.random.default_rng(6)
        w = None if standard else np.linalg.qr(rng.standard_normal((4, 4)))[0]
        lam = rng.uniform(0.4, 1.2, 4)
        noise = rng.standard_normal((3, 4, 4))
        shared = color_noise(noise.copy(), w, lam, w, lam)
        apart = color_noise(noise.copy(), w, lam, None if standard else w.copy(),
                            lam.copy())
        assert shared.tobytes() == apart.tobytes()


class TestSampleMvg:
    def test_identity_bases_have_the_bits_of_the_product(self):
        rng = np.random.default_rng(7)
        lam_s, lam_p = rng.uniform(0.4, 1.2, 3), rng.uniform(0.4, 1.2, 5)
        explicit = NoiseDesign(np.eye(3), lam_s, np.eye(5), lam_p)
        assert explicit.color_bases == (None, None)
        standard = NoiseDesign(None, lam_s, None, lam_p)
        z = sample_mvg(RandomStream(8), explicit)
        oracle = dense_release(0.0, explicit, RandomStream(8).standard_normal((3, 5)))
        assert z.tobytes() == oracle.tobytes()
        assert sample_mvg(RandomStream(8), standard).tobytes() == oracle.tobytes()

    def test_identity_passthrough(self):
        design = NoiseDesign(np.eye(2), np.ones(2), np.eye(3), np.ones(3))
        z = sample_mvg(RandomStream(5), design)
        raw = sample_standard_matrix(RandomStream(5), 2, 3)
        assert np.array_equal(z, raw)

    def test_scalar_row_covariance(self):
        design = NoiseDesign(np.eye(2), np.full(2, 4.0), np.eye(3), np.ones(3))
        z = sample_mvg(RandomStream(5), design)
        raw = sample_standard_matrix(RandomStream(5), 2, 3)
        assert np.array_equal(z, 2.0 * raw)

    @pytest.mark.parametrize("row_standard, column_standard",
                             [(True, False), (False, True), (True, True)])
    def test_standard_side_bit_identical_to_explicit_identity(
            self, row_standard, column_standard):
        rng = np.random.default_rng(31)
        m, n = 4, 7
        lam_s = rng.uniform(0.1, 9.0, m)
        lam_p = rng.uniform(0.1, 9.0, n)
        w_s = np.eye(m) if row_standard else np.linalg.qr(rng.standard_normal((m, m)))[0]
        w_p = np.eye(n) if column_standard else np.linalg.qr(rng.standard_normal((n, n)))[0]
        explicit = NoiseDesign(w_s, lam_s, w_p, lam_p)
        implicit = NoiseDesign(None if row_standard else w_s, lam_s,
                               None if column_standard else w_p, lam_p)
        for seed in (0, 12, 2 ** 40):
            assert np.array_equal(sample_mvg(RandomStream(seed), implicit),
                                  sample_mvg(RandomStream(seed), explicit))

    def test_determinism(self):
        rng = np.random.default_rng(4)
        design = random_design(rng, 3, 2)
        a = sample_mvg(RandomStream(77), design)
        b = sample_mvg(RandomStream(77), design)
        assert np.array_equal(a, b)

    def test_linearity_in_scale(self):
        rng = np.random.default_rng(6)
        w_s = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        lam = rng.uniform(0.5, 2.0, 3)
        w_p = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        lam_p = rng.uniform(0.5, 2.0, 2)
        base = NoiseDesign(w_s, lam, w_p, lam_p)
        scaled = NoiseDesign(w_s, 9.0 * lam, w_p, lam_p)
        z1 = sample_mvg(RandomStream(8), base)
        z3 = sample_mvg(RandomStream(8), scaled)
        assert np.allclose(z3, 3.0 * z1, rtol=1e-12, atol=0)

    def test_vec_covariance_matches_kronecker(self):
        rng = np.random.default_rng(21)
        design = random_design(rng, 2, 2)
        stream = RandomStream(1000)
        trials = 100_000
        draws = stream.standard_normal((trials, 2, 2))
        z = color_noise(draws, design.basis_sigma, design.lambda_sigma,
                        design.basis_psi, design.lambda_psi)
        vecs = z.transpose(0, 2, 1).reshape(trials, 4)  # column-stacking vec
        assert np.max(np.abs(vecs.mean(axis=0))) < 0.02  # zero mean
        empirical = vecs.T @ vecs / trials
        sigma, psi = dense_covariances(design)
        oracle = np.kron(psi, sigma)
        mask = np.abs(oracle) >= 0.1
        rel = np.abs(empirical - oracle)[mask] / np.abs(oracle)[mask]
        assert rel.max() < 0.05

    def test_frobenius_concentration(self):
        trials = 10_000
        for delta in (0.1, 0.01):
            for m, n in ((2, 2), (4, 4)):
                draws = RandomStream(321).standard_normal((trials, m, n))
                norms_sq = np.einsum("tij,tij->t", draws, draws)
                rate = float(np.mean(norms_sq <= zeta(delta, m, n)))
                margin = 3 * np.sqrt(delta * (1 - delta) / trials)
                assert rate >= 1 - delta - margin

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(13)
        design = random_design(rng, 2, 3)
        flipped = NoiseDesign(design.basis_psi, design.lambda_psi,
                              design.basis_sigma, design.lambda_sigma)
        trials = 60_000
        sigma, psi = dense_covariances(design)
        oracle = np.kron(sigma, psi)

        def empirical_cov(dsn, transpose, seed):
            stream = RandomStream(seed)
            draws = stream.standard_normal((trials, dsn.m, dsn.n))
            z = color_noise(draws, dsn.basis_sigma, dsn.lambda_sigma,
                            dsn.basis_psi, dsn.lambda_psi)
            if transpose:
                z = z.transpose(0, 2, 1)
            flat = z.transpose(0, 2, 1).reshape(trials, -1)
            return flat.T @ flat / trials

        cov_transposed = empirical_cov(design, True, 2000)
        cov_swapped = empirical_cov(flipped, False, 3000)
        mask = np.abs(oracle) >= 0.1
        for emp in (cov_transposed, cov_swapped):
            rel = np.abs(emp - oracle)[mask] / np.abs(oracle)[mask]
            assert rel.max() < 0.08
