import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom, ks_2samp, kstest, norm

from fsolink import qst
from fsolink.budget import ChannelParams, FluctuationMode, channel_grid, stream_states
from fsolink.extinction import ExtinctionParams
from fsolink.fading import sample
from fsolink.qst import (
    MAX_ENSEMBLE_SIZE,
    MAX_PHOTONS,
    EnsembleKind,
    FadingResample,
    TomographyConfig,
    born_probabilities,
    bures_random_mixed,
    fidelity,
    fidelity_vs_zenith,
    fit_state,
    haar_random_pure,
    round_half_away,
    run_ensemble,
    sic_povm_qubit,
    simulate_counts,
)

POVM = sic_povm_qubit()
# Bloch vectors of the maximally mixed state and of |0><0|.
MIXED = np.zeros(3)
KET0 = np.array([0.0, 0.0, 1.0])
TETRAHEDRON = [[sign / math.sqrt(3.0) for sign in row] for row in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))]


def _member_rng(seed, *index):
    """numpy's own generator for the stream of sub-seed (seed, *index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(index)))


def rho_of(r):
    """Density matrix (I + r . sigma)/2 of a Bloch vector, shape (..., 2, 2)."""
    x, y, z = np.moveaxis(np.asarray(r, dtype=float), -1, 0)
    return np.moveaxis(0.5 * np.array([[1.0 + z, x - 1.0j * y], [x + 1.0j * y, 1.0 - z]]), (0, 1), (-2, -1))


def bloch_of(rho):
    """Bloch vector (2 Re rho01, -2 Im rho01, rho00 - rho11) of a qubit density matrix."""
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def expected_counts(r, n_photons):
    """Noise-free counts: the Born-rule means rounded half away from zero."""
    return np.array([round_half_away(n_photons * p) for p in born_probabilities(r)], dtype=np.int64)


def fit_cost(r, counts, n_eff):
    """The least-squares cost sum_k (p_k(r) - m_k/n_eff)^2 of a fitted Bloch vector."""
    mismatch = np.array(born_probabilities(r)) - np.asarray(counts) / n_eff
    return float(mismatch @ mismatch)


def bloch_fit_oracle(counts, n_eff):
    """r = 3 sum_k (m_k/n_eff) s_k, projected onto the unit ball, in pure Python."""
    r = [3.0 * sum(m / n_eff * s_k[i] for m, s_k in zip(counts, TETRAHEDRON)) for i in range(3)]
    norm = math.sqrt(sum(c * c for c in r))
    return [c / norm for c in r] if norm > 1.0 else r


def fidelity_eig_oracle(rho, sigma):
    """Uhlmann-Jozsa fidelity straight from the definition via eigendecompositions."""

    def psd_sqrt(m):
        w, v = np.linalg.eigh(m)
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

    sq = psd_sqrt(rho)
    inner = sq @ sigma @ sq
    w = np.linalg.eigvalsh(inner)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def haar_rho_reference(rng):
    """The density-matrix path: the Haar state |v><v| from the same two normal(size=2) draws."""
    xr, xi = rng.normal(size=2), rng.normal(size=2)
    v = xr + 1.0j * xi
    v /= math.sqrt(xr.dot(xr) + xi.dot(xi))
    return np.outer(v, v.conj())


def bures_rho_reference(rng):
    """The Bures state from a complex Ginibre matrix and a Haar unitary by QR
    (Osipov, Sommers & Zyczkowski, J. Phys. A 43, 055302, 2010): the
    reference sampler for the law of ``bures_random_mixed``."""
    g = (rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2)))
    u = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    a = (np.eye(2) + u) @ g
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def bures_rho_projection(rng):
    """The density-matrix path: the state of r = (a, b, c)/|(a, b, c, d)| from
    the same standard_normal(4) draw as ``bures_random_mixed``."""
    a, b, c, d = rng.standard_normal(4)
    return rho_of(np.array([a, b, c]) / math.sqrt(a * a + b * b + c * c + d * d))


def bures_radius_cdf(r):
    """P(|r| <= r) = (asin r - r sqrt(1 - r^2)) / (pi/2) for the Bures qubit,
    whose radial density is proportional to r^2 / sqrt(1 - r^2)."""
    return (np.arcsin(r) - r * np.sqrt(1.0 - r * r)) / (math.pi / 2.0)


def reference_probabilities(rho):
    """tr(M_k rho) with the complex SIC-POVM effects, as the density-matrix path computed them."""
    return np.einsum("kij,ji->k", POVM, rho).real.tolist()


def bloch_ball_probabilities():
    """Born probabilities of a dense set of feasible states, shape (G, 4).

    The states are a 0.05-spaced cubic lattice of Bloch vectors inside the
    unit ball plus 4000 Fibonacci points on the sphere, where fits that leave
    the ball are projected to. The probabilities are tr(M_k rho) of the
    complex effects, independent of ``born_probabilities``.
    """
    axis = np.linspace(-1.0, 1.0, 41)
    cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    inner = cube[np.einsum("ij,ij->i", cube, cube) <= 1.0]
    k = np.arange(4000) + 0.5
    z = 1.0 - 2.0 * k / k.size
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    ring = np.sqrt(1.0 - z * z)
    bloch = np.vstack([inner, np.column_stack([ring * np.cos(phi), ring * np.sin(phi), z])])
    return np.einsum("kij,gji->gk", POVM, rho_of(bloch)).real


def scalar_trials(config, seed, key, eta_det, sigma_j2=0.0, point_fade=1.0):
    """Per-member scalar reference for one ensemble: member i of sub-seed
    (seed, *key, i) draws a fade where ``sigma_j2`` > 0 (else it takes
    ``point_fade``) and runs through simulate_counts, fit_state and fidelity.

    Returns the fidelities, the failures, and how many members had
    n_eff < 1 and how many drew all-zero counts.
    """
    haar = config.ensemble_kind is EnsembleKind.HAAR_PURE
    draw_state = haar_random_pure if haar else bures_random_mixed
    fids = np.empty(config.ensemble_size)
    dead = zero = 0
    for i in range(config.ensemble_size):
        rng = _member_rng(seed, *key, i)
        fade = float(sample(sigma_j2, rng, 1)[0]) if sigma_j2 > 0 else point_fade
        eta = min(eta_det * fade, 1.0)
        r_in = draw_state(rng)
        n_eff = round_half_away(eta * config.photons)
        if n_eff < 1:
            dead += 1
            fids[i] = fidelity(r_in, MIXED, haar)
            continue
        fit = fit_state(simulate_counts(r_in, n_eff, rng), n_eff)
        zero += fit.degenerate
        fids[i] = fidelity(r_in, fit.r, fit.pure or haar)
    return fids, dead + zero, dead, zero


def scalar_stats(fids):
    return fids.mean(), fids.std(ddof=1) if fids.size > 1 else 0.0


def random_mixed(rng):
    """Bloch vector of a random full-rank qubit state."""
    g = rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return bloch_of(rho / np.trace(rho).real)


class TestRounding:
    def test_ties_away_from_zero(self):
        assert round_half_away(0.5) == 1
        assert round_half_away(1.5) == 2
        assert round_half_away(2.4) == 2
        assert round_half_away(-0.5) == -1
        assert round_half_away(-1.5) == -2


class TestSicPovm:
    def test_completeness(self):
        assert np.abs(POVM.sum(axis=0) - np.eye(2)).max() < 1e-12

    def test_effects_are_psd(self):
        for effect in POVM:
            assert np.linalg.eigvalsh(effect).min() > -1e-12

    def test_traces_are_half(self):
        for effect in POVM:
            assert np.trace(effect).real == pytest.approx(0.5, abs=1e-12)

    def test_pairwise_overlaps(self):
        # Direct evaluation gives tr(M_j M_k) = 1/12 off-diagonal, 1/4 on the
        # diagonal (subnormalized rank-1 projectors with |s| = 1).
        for j in range(4):
            for k in range(4):
                overlap = np.trace(POVM[j] @ POVM[k]).real
                expected = 0.25 if j == k else 1.0 / 12.0
                assert overlap == pytest.approx(expected, abs=1e-12)

    def test_sic_symmetry_within_tolerance(self):
        overlaps = [np.trace(POVM[j] @ POVM[k]).real for j in range(4) for k in range(4) if j != k]
        assert max(overlaps) - min(overlaps) < 1e-12

    def test_born_probabilities_form_distribution(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = np.array(born_probabilities(random_mixed(rng)))
            assert np.all(p >= -1e-12)
            assert np.all(p <= 1.0 + 1e-12)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_born_probabilities_match_the_povm_trace(self):
        # (1 + s_k . r) / 4 against tr(M_k rho) of the complex effects, so a
        # Bloch convention that disagrees with the POVM (a conjugated or
        # transposed effect, a permuted outcome) shows here.
        rng = np.random.default_rng(21)
        for _ in range(200):
            r = random_mixed(rng)
            expected = [np.trace(effect @ rho_of(r)).real for effect in POVM]
            np.testing.assert_allclose(born_probabilities(r), expected, rtol=0.0, atol=1e-15)


class TestExpectedCounts:
    def test_maximally_mixed_splits_evenly(self):
        np.testing.assert_array_equal(expected_counts(MIXED, 1000), [250, 250, 250, 250])

    def test_pure_zero_state_tetrahedron_split(self):
        np.testing.assert_array_equal(expected_counts(KET0, 10_000), [3943, 1057, 1057, 3943])

    def test_zero_photons(self):
        np.testing.assert_array_equal(expected_counts(KET0, 0), [0, 0, 0, 0])

    def test_total_within_rounding_slack(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 10**6))
            counts = expected_counts(random_mixed(rng), n)
            assert abs(int(counts.sum()) - n) <= 2


class TestSimulateCounts:
    def test_photon_number_is_capped(self):
        # Beyond the cap numpy's Poisson sampler would fail on its own terms.
        with pytest.raises(ValueError, match="1e\\+15"):
            simulate_counts(MIXED, 10**20, np.random.default_rng(1))
        with pytest.raises(ValueError, match="1e\\+15"):
            simulate_counts(MIXED, MAX_PHOTONS + 1, np.random.default_rng(1))
        assert simulate_counts(MIXED, MAX_PHOTONS, np.random.default_rng(1)).sum() > 0

    def test_dark_channel(self):
        np.testing.assert_array_equal(simulate_counts(KET0, 0, np.random.default_rng(1)), [0, 0, 0, 0])

    def test_deterministic_for_seed(self):
        a = simulate_counts(KET0, 5000, np.random.default_rng(123))
        b = simulate_counts(KET0, 5000, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_poisson_moments_match_means(self):
        # mean and variance of each outcome should both equal the Born mean
        n, trials = 1000, 20_000
        rng = np.random.default_rng(2024)
        target = expected_counts(KET0, n).astype(float)
        draws = np.array([simulate_counts(KET0, n, rng) for _ in range(trials)], dtype=float)
        for k in range(4):
            lam = target[k]
            se_mean = math.sqrt(lam / trials)
            assert draws[:, k].mean() == pytest.approx(lam, abs=3.0 * se_mean)
            # SE of a Poisson variance estimate: sqrt((mu4 - var^2)/trials),
            # mu4 = lam (1 + 3 lam)
            se_var = math.sqrt((lam * (1.0 + 3.0 * lam) - lam * lam) / trials)
            assert draws[:, k].var(ddof=1) == pytest.approx(lam, abs=3.0 * se_var)

    def test_gaussian_tail_regime_moments(self):
        # at a large Poisson mean the exact sampler must keep the moments to
        # better than a part in 1e3
        rng = np.random.default_rng(8)
        lam = 4e7
        draws = np.array([simulate_counts(MIXED, int(4 * lam), rng)[0] for _ in range(3000)], dtype=float)
        assert draws.mean() == pytest.approx(lam, rel=1e-3)
        assert draws.var(ddof=1) == pytest.approx(lam, rel=0.1)

    def test_rejects_negative_n_eff(self):
        with pytest.raises(ValueError, match="n_eff"):
            simulate_counts(KET0, -1, np.random.default_rng(0))

    def test_draws_only_from_a_generator(self):
        with pytest.raises(TypeError, match="rng"):
            simulate_counts(KET0, 5, 7)
        with pytest.raises(TypeError):
            simulate_counts(KET0, 5)

    @pytest.mark.parametrize(
        "r, photons, eta, means",
        [
            (KET0, 1000, 0.0, [0, 0, 0, 0]),
            (MIXED, 20, 1.0, [5, 5, 5, 5]),
            # 12 and 3 photons: numpy's PTRS branch (mean >= 10) and its inversion branch.
            (KET0, 30, 1.0, [12, 3, 3, 12]),
            (MIXED, 10**6, 0.37, [92_500] * 4),
            (KET0, MAX_PHOTONS, 1.0, [394_337_567_297_406, 105_662_432_702_594, 105_662_432_702_594, 394_337_567_297_406]),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 5, 99])
    def test_scalar_draws_match_one_draw_on_the_vector_of_means(self, r, photons, eta, means, seed):
        gen = np.random.default_rng(seed)
        ref = np.random.default_rng()
        ref.bit_generator.state = gen.bit_generator.state
        n_eff = round_half_away(eta * photons)
        expected = expected_counts(r, n_eff)
        assert expected.tolist() == means
        counts = simulate_counts(r, n_eff, gen)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, ref.poisson(expected.astype(float)))
        # Both consumed the same draws from the stream.
        assert gen.bit_generator.state == ref.bit_generator.state


class TestReconstruct:
    def test_noiseless_round_trip_is_nearly_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            r = haar_random_pure(rng)
            counts = expected_counts(r, 10**6)
            rec = fit_state(counts, 10**6).r
            assert fidelity(r, rec, True) >= 0.999

    def test_uniform_counts_give_maximally_mixed(self):
        fit = fit_state(np.array([500, 500, 500, 500]), 2000)
        # The trace distance of two qubit states is half the distance of their Bloch vectors.
        assert 0.5 * np.linalg.norm(fit.r - MIXED) < 0.01
        assert not fit.pure

    def test_zero_counts_fall_back_to_mixed(self):
        fit = fit_state(np.zeros(4, dtype=int), 100)
        assert fit.degenerate
        assert not fit.pure
        assert fit.r.tolist() == [0.0, 0.0, 0.0]

    def test_output_is_physical(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            counts = rng.integers(0, 2000, size=4)
            if not counts.any():
                continue
            fit = fit_state(counts, int(counts.sum()))
            assert fit.r.shape == (3,)
            assert np.linalg.norm(fit.r) <= 1.0 + 1e-15
            assert np.linalg.eigvalsh(rho_of(fit.r)).min() > -1e-10

    def test_matches_brute_force_bloch_ball_search(self):
        # The closed form is the exact constrained minimizer, so no feasible
        # grid state may fit better; the grid is dense enough to come close.
        grid = bloch_ball_probabilities()
        rng = np.random.default_rng(2004)
        checked = 0
        worst_gap = 0.0
        for i in range(200):
            if i < 100:
                n_eff = int(rng.integers(1, 11))
                counts = rng.integers(0, n_eff + 3, size=4)
            else:
                n_eff = int(rng.integers(10, 100_000))
                mean = n_eff * rng.uniform(0.8, 1.2) * np.array(born_probabilities(random_mixed(rng)))
                counts = rng.poisson(mean)
            if not counts.any():
                continue
            fit = fit_state(counts, n_eff)
            closed = fit_cost(fit.r, counts, n_eff)
            grid_min = float(np.min(np.sum((grid - counts / n_eff) ** 2, axis=1)))
            assert closed <= grid_min + 1e-12
            assert np.linalg.norm(fit.r) <= 1.0 + 1e-15
            worst_gap = max(worst_gap, grid_min - closed)
            checked += 1
        assert checked >= 190
        assert worst_gap < 1e-3

    def test_two_opposite_outcomes_cost_one_sixteenth(self):
        fit = fit_state([1, 0, 0, 1], 4)
        assert not fit.degenerate
        assert fit_cost(fit.r, [1, 0, 0, 1], 4) == pytest.approx(1.0 / 16.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_single_outcome_projects_to_pure_state(self, n):
        # r = 3 s_1 lies outside the ball; its projection is the pure state
        # along s_1, whose density matrix is twice the first effect.
        fit = fit_state([n, 0, 0, 0], n)
        assert fit.pure and not fit.degenerate
        np.testing.assert_allclose(fit.r, TETRAHEDRON[0], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(rho_of(fit.r), 2.0 * POVM[0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_state([1, 2, 3], 6)
        with pytest.raises(ValueError):
            fit_state([-1, 2, 3, 4], 8)
        with pytest.raises(ValueError):
            fit_state([1, 2, 3, 4], 0)

    @pytest.mark.parametrize("n_eff", [math.nan, math.inf, -math.inf, [4.0, math.nan], [4.0, math.inf]])
    def test_rejects_non_finite_n_eff(self, n_eff):
        with pytest.raises(ValueError, match="n_eff must be finite and >= 1"):
            fit_state([[1, 2, 3, 4], [1, 2, 3, 4]], n_eff)


class TestStackedEstimator:
    @pytest.mark.parametrize("per_row_n_eff", [False, True])
    @pytest.mark.parametrize("shape", [(40,), (2, 3)])
    def test_fit_state_stack_matches_scalar_calls(self, shape, per_row_n_eff):
        rng = np.random.default_rng(16)
        counts = rng.integers(0, 12, size=shape + (4,))
        # All-zero, single-outcome (projected) and interior fits in every stack.
        counts.reshape(-1, 4)[:3] = [[0, 0, 0, 0], [7, 0, 0, 0], [1, 0, 0, 1]]
        n_eff = rng.integers(1, 40, size=shape) if per_row_n_eff else 17
        fit = fit_state(counts, n_eff)
        assert fit.r.shape == shape + (3,)
        assert fit.pure.shape == fit.degenerate.shape == shape
        for idx in np.ndindex(shape):
            one = fit_state(counts[idx], int(np.broadcast_to(n_eff, shape)[idx]))
            assert fit.r[idx].tobytes() == one.r.tobytes(), idx
            assert fit.pure[idx] == one.pure, idx
            assert fit.degenerate[idx] == one.degenerate == (not counts[idx].any()), idx

    def test_fidelity_stack_matches_pairwise_calls(self):
        rng = np.random.default_rng(17)
        r = np.array([random_mixed(rng) for _ in range(6)] + [KET0, KET0]).reshape(2, 4, 3)
        s = np.array([haar_random_pure(rng) for _ in range(6)] + [KET0, MIXED]).reshape(2, 4, 3)
        pure = np.array([[True, False, True, False], [False, False, True, True]])
        for flags in (False, pure):
            got = fidelity(r, s, flags)
            assert got.shape == (2, 4)
            for idx in np.ndindex(2, 4):
                one = fidelity(r[idx], s[idx], np.broadcast_to(flags, (2, 4))[idx])
                assert isinstance(one, float)
                assert got[idx].tobytes() == np.float64(one).tobytes(), idx
        # One state against a stack broadcasts like the pairwise calls.
        against_mixed = fidelity(r, MIXED)
        for idx in np.ndindex(2, 4):
            assert against_mixed[idx].tobytes() == np.float64(fidelity(r[idx], MIXED)).tobytes(), idx

    def test_bloch_vector_matches_pure_python_closed_form(self):
        rng = np.random.default_rng(2004)
        projected = interior = 0
        for i in range(400):
            n_eff = int(rng.integers(1, 20)) if i % 2 else int(rng.integers(20, 10**6))
            mean = n_eff * np.array(born_probabilities(random_mixed(rng)))
            counts = rng.poisson(mean) if i % 2 == 0 else rng.integers(0, n_eff + 3, size=4)
            if not counts.any():
                continue
            fit = fit_state(counts, n_eff)
            expected = bloch_fit_oracle(counts.tolist(), n_eff)
            assert fit.r.tolist() == pytest.approx(expected, rel=0.0, abs=1e-15), (counts, n_eff)
            if math.hypot(*expected) >= 1.0 - 1e-12:
                assert fit.pure, (counts, n_eff)
                projected += 1
            else:
                interior += 1
        assert projected > 50 and interior > 50, (projected, interior)


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            r = random_mixed(rng)
            assert fidelity(r, r) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert fidelity(KET0, -KET0) == 0.0
        assert fidelity(KET0, -KET0, True) == 0.0

    def test_pure_state_overlap(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            phi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            expected = abs(np.vdot(psi, phi)) ** 2
            r, s = bloch_of(np.outer(psi, psi.conj())), bloch_of(np.outer(phi, phi.conj()))
            assert fidelity(r, s, True) == pytest.approx(expected, abs=1e-15)
            assert fidelity(r, s) == pytest.approx(expected, abs=1e-10)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            r, s = random_mixed(rng), random_mixed(rng)
            assert fidelity(r, s) == pytest.approx(fidelity_eig_oracle(rho_of(r), rho_of(s)), abs=1e-10)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            r, s = random_mixed(rng), random_mixed(rng)
            f = fidelity(r, s)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(fidelity(s, r), abs=1e-10)

    def test_unity_only_for_identical_states(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            r, s = random_mixed(rng), random_mixed(rng)
            # The trace distance of two qubit states is half the distance of their Bloch vectors.
            if 0.5 * np.linalg.norm(r - s) > 1e-3:
                assert fidelity(r, s) < 1.0 - 1e-8

    def test_pure_input_gives_the_overlap(self):
        # For a pure input F(r, s) = tr(rho sigma) = (1 + r . s)/2 exactly: the
        # root term is exactly 0, whatever round-off leaves in 1 - |r|^2.
        rng = np.random.default_rng(17)
        sigma = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])
        s = bloch_of(sigma)
        r = np.array([haar_random_pure(rng) for _ in range(2000)])
        expected = [(1.0 + (x * s[0] + y * s[1] + z * s[2])) / 2.0 for x, y, z in r.tolist()]
        assert fidelity(r, s, True).tolist() == expected
        overlap = np.trace(rho_of(r) @ sigma, axis1=-2, axis2=-1).real
        np.testing.assert_allclose(expected, overlap, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(2, 2), (4,), (3, 2)])
    def test_rejects_anything_but_bloch_vectors(self, shape):
        with pytest.raises(ValueError, match="Bloch"):
            fidelity(np.zeros(shape), MIXED)
        with pytest.raises(ValueError, match="Bloch"):
            fidelity(MIXED, np.zeros(shape))


class TestRunEnsemble:
    def test_deterministic_for_seed(self):
        config = TomographyConfig(photons=10_000, ensemble_size=1)
        a = run_ensemble(config, 0.5, 99)
        b = run_ensemble(config, 0.5, 99)
        np.testing.assert_array_equal(a.fidelities, b.fidelities)

    def test_members_are_independent_of_ensemble_size(self):
        small = run_ensemble(TomographyConfig(photons=10_000, ensemble_size=3), seed=7)
        large = run_ensemble(TomographyConfig(photons=10_000, ensemble_size=6), seed=7)
        np.testing.assert_array_equal(small.fidelities, large.fidelities[:3])

    def test_near_noiseless_regime(self):
        result = run_ensemble(TomographyConfig(photons=10**6, ensemble_size=10), 1.0, 1)
        assert result.mean_fidelity >= 0.99
        assert result.failures == 0

    def test_fidelity_decays_with_transmittance(self):
        means, sds = [], []
        for eta in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
            r = run_ensemble(TomographyConfig(photons=10**5, ensemble_size=16), eta, 5)
            means.append(r.mean_fidelity)
            sds.append(r.sd_fidelity)
        for i in range(len(means) - 1):
            pooled = math.sqrt(0.5 * (sds[i] ** 2 + sds[i + 1] ** 2))
            assert means[i + 1] <= means[i] + max(pooled, 1e-4)

    @pytest.mark.parametrize("transmittance", [1.5, -0.1, math.nan])
    def test_rejects_a_transmittance_outside_the_unit_interval(self, transmittance):
        with pytest.raises(ValueError, match=r"transmittance must lie in \[0, 1\]"):
            run_ensemble(TomographyConfig(ensemble_size=1), transmittance)

    def test_dead_channel_flags_every_member(self):
        # eta N rounds to zero: reconstruction degenerates to the mixed state
        result = run_ensemble(TomographyConfig(photons=100, ensemble_size=5), 1e-6, 2)
        assert result.failures == 5
        assert np.all(result.fidelities <= 1.0)

    @pytest.mark.parametrize("photons, transmittance", [(100, 1e-6), (1, 0.0)])
    def test_all_failed_haar_ensemble_reads_exactly_one_half(self, photons, transmittance):
        # Every member fits the maximally mixed state, and a pure input has
        # F = (1 + r . 0)/2 = 0.5 exactly; no round-off may leave the SD above 0.
        result = run_ensemble(TomographyConfig(photons=photons, ensemble_size=300), transmittance, 2)
        assert result.failures == 300
        assert result.fidelities.tolist() == [0.5] * 300
        assert (result.mean_fidelity, result.sd_fidelity) == (0.5, 0.0)

    def test_bures_ensemble_runs(self):
        config = TomographyConfig(photons=10**5, ensemble_size=4, ensemble_kind=EnsembleKind.BURES_MIXED)
        result = run_ensemble(config, seed=3)
        assert result.mean_fidelity > 0.9

    @pytest.mark.parametrize("size", [1, 2, 17])
    @pytest.mark.parametrize("kind", list(EnsembleKind))
    def test_matches_scalar_reference_bit_for_bit(self, kind, size):
        for photons, transmittance in ((10**6, 1.0), (10**5, 1e-2), (30, 0.05), (100, 1e-6)):
            config = TomographyConfig(photons=photons, ensemble_size=size, ensemble_kind=kind)
            result = run_ensemble(config, transmittance, 31)
            fids, failures, _, _ = scalar_trials(config, 31, (), transmittance)
            mean, sd = scalar_stats(fids)
            assert result.fidelities.tobytes() == fids.tobytes()
            assert (result.mean_fidelity, result.sd_fidelity, result.failures) == (mean, sd, failures)

    def test_member_blocks_and_clamped_eta_match_scalar_reference(self, monkeypatch):
        # Blocks of 5 split 17 members 5 + 5 + 5 + 2; fades above 1/0.9 clamp eta at 1.
        monkeypatch.setattr(qst, "_MEMBER_BLOCK", 5)
        for kind in EnsembleKind:
            config = TomographyConfig(photons=1000, ensemble_size=17, ensemble_kind=kind)
            result = qst._ensemble(config, 4, (2, 3), 0.9, 0.5)
            ref, ref_failures, _, _ = scalar_trials(config, 4, (2, 3), 0.9, 0.5)
            assert result.fidelities.tobytes() == ref.tobytes()
            assert result.failures == ref_failures
        fades = [float(sample(0.5, _member_rng(4, 2, 3, i), 1)[0]) for i in range(17)]
        assert max(fades) * 0.9 > 1.0

    def test_reconstruction_consistency_in_photon_number(self):
        # median infidelity falls monotonically over three decades of N
        medians = []
        for n in (10**3, 10**4, 10**5, 10**6):
            infids = []
            for i in range(50):
                rng = np.random.default_rng(10_000 + i)
                r = haar_random_pure(rng)
                counts = simulate_counts(r, n, rng)
                rec = fit_state(counts, n).r
                infids.append(1.0 - fidelity(r, rec, True))
            medians.append(float(np.median(infids)))
        assert all(b < a for a, b in zip(medians, medians[1:]))


class TestFidelityVsZenith:
    CHANNEL = ChannelParams(fluctuation_mode=FluctuationMode.ISI)

    def test_identical_seed_gives_identical_table(self):
        config = TomographyConfig(photons=50_000, ensemble_size=3)
        grid = channel_grid(self.CHANNEL, 420e3, (1.0,), [0.0, math.radians(40.0)])
        a = fidelity_vs_zenith(grid, config, 17)
        b = fidelity_vs_zenith(grid, config, 17)
        np.testing.assert_array_equal(a["mean_fidelity"], b["mean_fidelity"])
        np.testing.assert_array_equal(a["failures"], b["failures"])

    @pytest.mark.parametrize("size", [1, 2, 17])
    def test_matches_scalar_reference_bit_for_bit(self, size):
        # 48 cases: ensemble kind x fade resampling x fluctuation mode x photons,
        # each over 2 diameters x 2 zeniths, against a per-member scalar reference.
        diameters, zeniths = (0.25, 1.0), [0.0, math.radians(80.0)]
        dead = zero = 0
        for kind in EnsembleKind:
            for resample in FadingResample:
                for mode in FluctuationMode:
                    channel = ChannelParams(fluctuation_mode=mode)
                    grid = channel_grid(channel, 420e3, diameters, zeniths)
                    for photons in (1, 30, 1000, 10**6):
                        case = (kind, resample, mode, photons, size)
                        config = TomographyConfig(photons=photons, ensemble_size=size, ensemble_kind=kind)
                        table = fidelity_vs_zenith(grid, replace(config, fading_resample=resample), 12)
                        mean, sd = np.empty((2, 2)), np.empty((2, 2))
                        failures = np.empty((2, 2), dtype=np.int64)
                        for (di, zi), sigma_j2 in np.ndenumerate(grid.sigma_j2):
                            sigma_j2, point_fade = float(sigma_j2), 1.0
                            if sigma_j2 > 0 and resample is FadingResample.PER_POINT:
                                point_fade = float(sample(sigma_j2, _member_rng(12, di, zi), 1)[0])
                                sigma_j2 = 0.0
                            fids, failures[di, zi], d, z = scalar_trials(
                                config, 12, (di, zi), float(grid.eta_det[di, zi]), sigma_j2, point_fade
                            )
                            mean[di, zi], sd[di, zi] = scalar_stats(fids)
                            dead, zero = dead + d, zero + z
                        assert table["mean_fidelity"].tobytes() == mean.tobytes(), case
                        assert table["sd_fidelity"].tobytes() == sd.tobytes(), case
                        assert table["failures"].tobytes() == failures.tobytes(), case
        # Both kinds of failed trial occur: n_eff < 1 below 1e6 photons, and
        # all-zero counts at the 25 cm, 80 degree cell's n_eff of about 2.
        assert dead > 0 and zero > 0, (dead, zero)

    def test_point_fade_above_one_is_capped(self):
        # eta_int 1, almost no extinction and a 1 km receiver leave eta_det
        # within 1e-7 of 1; the 80 degree cell's point fade of seed 0 is
        # about 1.36, so eta_det times it exceeds 1 and must be capped there.
        channel = ChannelParams(
            extinction=ExtinctionParams(alpha0_per_m=1e-12),
            eta_int=1.0,
            fluctuation_mode=FluctuationMode.ISI,
        )
        grid = channel_grid(channel, 420e3, (1000.0,), [math.radians(80.0)])
        eta_det = float(grid.eta_det[0, 0])
        point_fade = float(sample(float(grid.sigma_j2[0, 0]), _member_rng(0, 0, 0), 1)[0])
        assert eta_det * point_fade > 1.0
        config = TomographyConfig(photons=1000, ensemble_size=17)
        table = fidelity_vs_zenith(grid, replace(config, fading_resample=FadingResample.PER_POINT), 0)
        fids, failures, _, _ = scalar_trials(config, 0, (0, 0), eta_det, 0.0, point_fade)
        capped, _, _, _ = scalar_trials(config, 0, (0, 0), 1.0)
        assert fids.tobytes() == capped.tobytes()
        mean, sd = scalar_stats(fids)
        assert table["mean_fidelity"].tobytes() == np.array([[mean]]).tobytes()
        assert table["sd_fidelity"].tobytes() == np.array([[sd]]).tobytes()
        assert table["failures"].tolist() == [[failures]]

    @pytest.mark.parametrize(
        "mode, row_keys",
        [(FluctuationMode.ISI, [(0,), (1,)]), (FluctuationMode.DETERMINISTIC, [])],
        ids=["fading", "deterministic"],
    )
    def test_point_fades_take_one_stream_states_call_per_row(self, monkeypatch, mode, row_keys):
        # Each cell's ensemble takes its member states with key (di, zi); the
        # point fades take a whole diameter row's cell states with key (di,),
        # and a grid without fading draws no point fade.
        keys = []
        real = qst.stream_states

        def counting(seed, key, start, stop):
            keys.append(key)
            return real(seed, key, start, stop)

        monkeypatch.setattr(qst, "stream_states", counting)
        grid = channel_grid(ChannelParams(fluctuation_mode=mode), 420e3, (0.25, 1.0), np.radians([0.0, 40.0, 80.0]))
        config = TomographyConfig(photons=1000, ensemble_size=3)
        fidelity_vs_zenith(grid, replace(config, fading_resample=FadingResample.PER_POINT), 5)
        assert [key for key in keys if len(key) == 1] == row_keys
        assert sorted(key for key in keys if len(key) == 2) == [(di, zi) for di in range(2) for zi in range(3)]

    def test_starved_meo_link_sits_below_leo(self):
        # 25 cm aperture at MEO altitude: ~79 dB of loss starves even 1e7
        # photons down to zero effective detections, so reconstruction
        # degenerates; a 1 m LEO receiver at 2e5 photons stays informative.
        config = TomographyConfig(photons=10**7, ensemble_size=10)
        meo = fidelity_vs_zenith(channel_grid(self.CHANNEL, 20_200e3, (0.25,), [0.0]), config, 23)
        leo_config = TomographyConfig(photons=200_000, ensemble_size=10)
        leo = fidelity_vs_zenith(channel_grid(self.CHANNEL, 420e3, (1.0,), [0.0]), leo_config, 23)
        assert meo["mean_fidelity"][0, 0] + meo["sd_fidelity"][0, 0] < leo["mean_fidelity"][0, 0]
        assert meo["failures"][0, 0] == 10
        assert (meo["mean_fidelity"][0, 0], meo["sd_fidelity"][0, 0]) == (0.5, 0.0)


class TestStateGenerators:
    def test_haar_states_are_pure(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            r = haar_random_pure(rng)
            assert r.shape == (3,)
            assert abs(math.sqrt(r @ r) - 1.0) <= 1e-15

    def test_haar_states_are_isotropic(self):
        # Uniform on the sphere: E[r] = 0 and E[r r^T] = I/3. The standard
        # errors over N draws follow from Var(x) = 1/3, Var(x^2) = 4/45 and
        # Var(xy) = 1/15, and every estimate must lie within 5 of them.
        n = 20_000
        rng = np.random.default_rng(2026)
        r = np.array([haar_random_pure(rng) for _ in range(n)])
        assert np.all(np.abs(r.mean(axis=0)) <= 5.0 * math.sqrt(1.0 / 3.0 / n))
        second = r.T @ r / n - np.eye(3) / 3.0
        se = np.where(np.eye(3, dtype=bool), math.sqrt(4.0 / 45.0 / n), math.sqrt(1.0 / 15.0 / n))
        assert np.all(np.abs(second) <= 5.0 * se), second / se

    def test_bures_states_are_valid(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            r = bures_random_mixed(rng)
            assert r.shape == (3,)
            assert np.linalg.norm(r) <= 1.0 + 1e-12

    def test_bures_radii_follow_the_analytic_law(self):
        rng = np.random.default_rng(2027)
        radii = np.array([np.linalg.norm(bures_random_mixed(rng)) for _ in range(40_000)])
        assert kstest(radii, bures_radius_cdf).pvalue > 0.01

    def test_bures_radii_match_the_qr_construction(self):
        rng = np.random.default_rng(2028)
        radii = [np.linalg.norm(bures_random_mixed(rng)) for _ in range(20_000)]
        reference = [np.linalg.norm(bloch_of(bures_rho_reference(rng))) for _ in range(20_000)]
        assert ks_2samp(radii, reference).pvalue > 0.01

    def test_bures_states_are_isotropic(self):
        # (a, b, c, d)/|(a, b, c, d)| is uniform on S^3, so E[r] = 0 and
        # E[r r^T] = (E|r|^2 / 3) I. On S^3 Var(x) = 1/4, Var(xy) = 1/24 and
        # Var(x^2 - |r|^2/3) = 1/18; every estimate must lie within 5 standard errors.
        n = 20_000
        rng = np.random.default_rng(2029)
        r = np.array([bures_random_mixed(rng) for _ in range(n)])
        assert np.all(np.abs(r.mean(axis=0)) <= 5.0 * math.sqrt(1.0 / 4.0 / n))
        second = r.T @ r / n - np.eye(3) * np.mean(np.sum(r * r, axis=1)) / 3.0
        se = np.where(np.eye(3, dtype=bool), math.sqrt(1.0 / 18.0 / n), math.sqrt(1.0 / 24.0 / n))
        assert np.all(np.abs(second) <= 5.0 * se), second / se

    @pytest.mark.parametrize(
        "draw, draw_rho, members",
        [(haar_random_pure, haar_rho_reference, 20_000), (bures_random_mixed, bures_rho_projection, 2_000)],
    )
    def test_counts_match_the_density_matrix_path(self, draw, draw_rho, members):
        # Each member stream draws its state once as a Bloch vector and once
        # through the density-matrix reference. The rounded Born means, and
        # so the Poisson draws, agree exactly at the default photon number and
        # at 1e11. At MAX_PHOTONS a mean near 1e14 is rounded from
        # differently rounded probabilities and may move by one count.
        gen, ref = np.random.default_rng(0), np.random.default_rng(0)
        for state in stream_states(0, (0, 0), 0, members):
            gen.bit_generator.state = ref.bit_generator.state = state
            r, rho = draw(gen), draw_rho(ref)
            assert gen.bit_generator.state == ref.bit_generator.state
            p, p_ref = born_probabilities(r), reference_probabilities(rho)
            for n in (200_000, 10**11):
                assert [round_half_away(n * x) for x in p] == [round_half_away(n * x) for x in p_ref], n
            means = [float(round_half_away(200_000 * x)) for x in p_ref]
            assert simulate_counts(r, 200_000, gen).tolist() == ref.poisson(means).tolist()
            diff = [round_half_away(MAX_PHOTONS * x) - round_half_away(MAX_PHOTONS * y) for x, y in zip(p, p_ref)]
            assert max(map(abs, diff)) <= 1

    def test_tomography_config_validation(self):
        with pytest.raises(ValueError):
            TomographyConfig(photons=0)
        with pytest.raises(ValueError, match="1e\\+15"):
            TomographyConfig(photons=MAX_PHOTONS + 1)
        assert TomographyConfig(photons=MAX_PHOTONS).photons == MAX_PHOTONS
        with pytest.raises(ValueError, match="1e\\+06"):
            TomographyConfig(ensemble_size=MAX_ENSEMBLE_SIZE + 1)
        assert TomographyConfig(ensemble_size=MAX_ENSEMBLE_SIZE).ensemble_size == MAX_ENSEMBLE_SIZE


def _poisson_pmf(mean, top):
    """P(c) of a Poisson count with the given mean, for c = 0..top."""
    pmf = [math.exp(-mean)]
    for c in range(top):
        pmf.append(pmf[-1] * mean / (c + 1))
    return np.array(pmf)


class TestExactOracle:
    """E[F] and the failure probability at small n_eff, summed exactly over the Poisson count lattice."""

    TRIALS = 5000
    # Fixed before the comparison was run; a miss is a finding, not a reason to retune.
    MAX_STANDARD_ERRORS = 5.0

    @staticmethod
    def _lattice(r, n_eff, pure_input):
        means = [round_half_away(n_eff * p) for p in born_probabilities(r)]
        # Each axis ends where its Poisson tail is far below 1e-12.
        pmfs = [_poisson_pmf(m, int(m + 12 + 8 * math.sqrt(m + 1))) for m in means]
        # One slice of the first count axis at a time: the whole lattice has
        # about 3e6 points at n_eff = 30.
        rest = np.stack(np.meshgrid(*[np.arange(len(p)) for p in pmfs[1:]], indexing="ij"), axis=-1)
        rest_weight = pmfs[1][:, None, None] * pmfs[2][:, None] * pmfs[3]
        mass = mean_f = mean_f2 = 0.0
        for c0, p0 in enumerate(pmfs[0].tolist()):
            counts = np.concatenate([np.full(rest.shape[:-1] + (1,), c0), rest], axis=-1)
            fit = fit_state(counts, n_eff)
            f = fidelity(r, fit.r, fit.pure | pure_input)
            weight = p0 * rest_weight
            mass += float(weight.sum())
            mean_f += float((weight * f).sum())
            mean_f2 += float((weight * f * f).sum())
        assert mass >= 1.0 - 1e-12
        return means, mean_f, mean_f2 - mean_f**2

    @pytest.mark.parametrize("n_eff", [2, 5, 10, 30])
    @pytest.mark.parametrize("r, pure_input", [((0.0, 0.0, 1.0), True), ((0.3, -0.2, 0.4), False)])
    def test_monte_carlo_matches_the_lattice(self, r, pure_input, n_eff):
        r = np.array(r)
        means, mean_f, var_f = self._lattice(r, n_eff, pure_input)
        p_fail = math.exp(-sum(means))

        rng = np.random.default_rng(4711)
        counts = np.array([simulate_counts(r, n_eff, rng) for _ in range(self.TRIALS)])
        fit = fit_state(counts, n_eff)
        f = fidelity(r, fit.r, fit.pure | pure_input)
        z_f = (f.mean() - mean_f) / math.sqrt(var_f / self.TRIALS)
        assert abs(z_f) <= self.MAX_STANDARD_ERRORS, (means, mean_f, f.mean())
        # At n_eff = 10 fewer than one failure is expected in all trials, so the
        # failure count is held to its exact binomial tail at the same level.
        failed = int(fit.degenerate.sum())
        tail = min(binom.cdf(failed, self.TRIALS, p_fail), binom.sf(failed - 1, self.TRIALS, p_fail))
        assert tail >= norm.sf(self.MAX_STANDARD_ERRORS), (means, p_fail * self.TRIALS, failed)

    # Fixed before the comparison was run, like the bound.
    ENSEMBLE_STATES = 24
    ENSEMBLE_SIZE = 10_000

    @pytest.mark.parametrize("n_eff", [2, 5])
    @pytest.mark.parametrize(
        "kind, draw_state, pure_input",
        [(EnsembleKind.HAAR_PURE, haar_random_pure, True), (EnsembleKind.BURES_MIXED, bures_random_mixed, False)],
        ids=["haar_pure", "bures_mixed"],
    )
    def test_ensemble_matches_the_lattice_over_states(self, kind, draw_state, pure_input, n_eff):
        # The SIC-POVM is not rotation invariant, so E[F] depends on the input
        # state; its average over the ensemble is estimated by the lattice at random states.
        rng = np.random.default_rng(2718)
        lattice = np.array(
            [self._lattice(draw_state(rng), n_eff, pure_input)[1:] for _ in range(self.ENSEMBLE_STATES)]
        )
        mean_f, var_f = lattice[:, 0], lattice[:, 1]
        # The member fidelity's variance over the ensemble, by total variance.
        var_member = float(var_f.mean() + mean_f.var(ddof=1))
        config = TomographyConfig(photons=n_eff, ensemble_size=self.ENSEMBLE_SIZE, ensemble_kind=kind)
        result = run_ensemble(config, transmittance=1.0, seed=4711)
        se = math.sqrt(mean_f.var(ddof=1) / self.ENSEMBLE_STATES + var_member / self.ENSEMBLE_SIZE)
        z_f = (result.mean_fidelity - mean_f.mean()) / se
        assert abs(z_f) <= self.MAX_STANDARD_ERRORS, (mean_f.mean(), result.mean_fidelity, se)

    @pytest.mark.parametrize("r, pure_input", [((0.0, 0.0, 1.0), True), ((0.3, -0.2, 0.4), False)])
    def test_per_trial_fading_matches_the_weighted_lattice(self, r, pure_input):
        # Fixed before the comparison was run, like the bound.
        photons, eta, sigma_j2 = 10, 0.5, 0.3
        r = np.array(r)
        # n_eff = round_half_away(min(eta I, 1) photons) is k for a unit-mean
        # log-normal I between the boundaries (k -+ 1/2) / (eta photons); the
        # mass above the last boundary, the clamp at I >= 1/eta included, is
        # k = photons.
        below = [
            norm.cdf((math.log((k + 0.5) / (eta * photons)) + sigma_j2 / 2.0) / math.sqrt(sigma_j2))
            for k in range(photons)
        ]
        weights = np.diff([0.0, *below, 1.0]).tolist()
        # k = 0 detects nothing: a failure, fitted as the maximally mixed state.
        f_mixed = fidelity(r, MIXED, pure_input)
        mean_f, mean_f2, p_fail = weights[0] * f_mixed, weights[0] * f_mixed**2, weights[0]
        for k in range(1, photons + 1):
            means, mean_k, var_k = self._lattice(r, k, pure_input)
            mean_f += weights[k] * mean_k
            mean_f2 += weights[k] * (var_k + mean_k**2)
            p_fail += weights[k] * math.exp(-sum(means))
        var_f = mean_f2 - mean_f**2

        rng = np.random.default_rng(4711)
        n_eff = np.empty(self.TRIALS, dtype=np.int64)
        counts = np.empty((self.TRIALS, 4), dtype=np.int64)
        for i in range(self.TRIALS):
            fade = float(sample(sigma_j2, rng, 1)[0])
            n_eff[i] = round_half_away(min(eta * fade, 1.0) * photons)
            counts[i] = simulate_counts(r, int(n_eff[i]), rng)
        fit = fit_state(counts, np.maximum(n_eff, 1))
        f = fidelity(r, fit.r, fit.pure | pure_input)
        z_f = (f.mean() - mean_f) / math.sqrt(var_f / self.TRIALS)
        assert abs(z_f) <= self.MAX_STANDARD_ERRORS, (mean_f, f.mean())
        failed = int(fit.degenerate.sum())
        tail = min(binom.cdf(failed, self.TRIALS, p_fail), binom.sf(failed - 1, self.TRIALS, p_fail))
        assert tail >= norm.sf(self.MAX_STANDARD_ERRORS), (p_fail * self.TRIALS, failed)
