import math

import numpy as np
import pytest

from fsolink import qst
from fsolink.beam import BeamParams
from fsolink.budget import ChannelParams, FluctuationMode, channel_grid
from fsolink.extinction import ExtinctionParams
from fsolink.fading import FadingModel, sample
from fsolink.qst import (
    MAX_ENSEMBLE_SIZE,
    MAX_PHOTONS,
    EnsembleKind,
    FadingResample,
    TomographyConfig,
    born_probabilities,
    bures_random_mixed,
    cholesky_to_rho,
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
MIXED = np.eye(2, dtype=complex) / 2.0
KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def _member_rng(seed, *index):
    """numpy's own generator for the stream of sub-seed (seed, *index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(index)))


def expected_counts(rho, povm, n_photons):
    """Noise-free counts: the Born-rule means rounded half away from zero."""
    return np.array([round_half_away(n_photons * p) for p in born_probabilities(rho, povm)], dtype=np.int64)


def fit_cost(rho, counts, n_eff):
    """The least-squares cost sum_k (tr(M_k rho) - m_k/n_eff)^2 of a fitted state."""
    mismatch = born_probabilities(rho, POVM) - np.asarray(counts) / n_eff
    return float(mismatch @ mismatch)


def bloch_fit_oracle(counts, n_eff):
    """r = 3 sum_k (m_k/n_eff) s_k, projected onto the unit ball, in pure Python."""
    s = [[sign / math.sqrt(3.0) for sign in row] for row in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))]
    r = [3.0 * sum(m / n_eff * s_k[i] for m, s_k in zip(counts, s)) for i in range(3)]
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


def bloch_ball_probabilities():
    """Born probabilities of a dense set of feasible states, shape (G, 4).

    The states are a 0.05-spaced cubic lattice of Bloch vectors inside the
    unit ball plus 4000 Fibonacci points on the sphere, where fits that leave
    the ball are projected to.
    """
    axis = np.linspace(-1.0, 1.0, 41)
    cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    inner = cube[np.einsum("ij,ij->i", cube, cube) <= 1.0]
    k = np.arange(4000) + 0.5
    z = 1.0 - 2.0 * k / k.size
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    ring = np.sqrt(1.0 - z * z)
    bloch = np.vstack([inner, np.column_stack([ring * np.cos(phi), ring * np.sin(phi), z])])
    x, y, zz = bloch.T
    rhos = 0.5 * np.array([[1.0 + zz, x - 1.0j * y], [x + 1.0j * y, 1.0 - zz]]).transpose(2, 0, 1)
    return np.einsum("kij,gji->gk", POVM, rhos).real


def scalar_trials(config, key, eta_det, fading=None, point_fade=1.0):
    """Per-member scalar reference for one ensemble: member i of sub-seed
    (seed, *key, i) runs through simulate_counts, fit_state and fidelity.

    Returns the fidelities, the failures, and how many members had
    n_eff < 1 and how many drew all-zero counts.
    """
    draw_state = haar_random_pure if config.ensemble_kind is EnsembleKind.HAAR_PURE else bures_random_mixed
    fids = np.empty(config.ensemble_size)
    dead = zero = 0
    for i in range(config.ensemble_size):
        rng = _member_rng(config.seed, *key, i)
        fade = float(sample(fading, rng, 1)[0]) if fading is not None else point_fade
        eta = min(eta_det * fade, 1.0)
        rho_in = draw_state(rng)
        n_eff = round_half_away(eta * config.photons)
        if n_eff < 1:
            dead += 1
            fids[i] = fidelity(rho_in, MIXED)
            continue
        fit = fit_state(simulate_counts(rho_in, POVM, config.photons, eta, rng), n_eff)
        zero += fit.degenerate
        fids[i] = fidelity(rho_in, fit.rho)
    return fids, dead + zero, dead, zero


def scalar_stats(fids):
    return fids.mean(), fids.std(ddof=1) if fids.size > 1 else 0.0


def random_mixed(rng):
    g = rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


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
            p = born_probabilities(random_mixed(rng), POVM)
            assert np.all(p >= -1e-12)
            assert np.all(p <= 1.0 + 1e-12)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestCholesky:
    def test_pure_zero_state(self):
        np.testing.assert_allclose(cholesky_to_rho([1.0, 0.0, 0.0, 0.0]), KET0, atol=1e-15)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(cholesky_to_rho([1.0, 1.0, 0.0, 0.0]), MIXED, atol=1e-15)

    def test_random_vectors_give_valid_states(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            t = rng.uniform(-5.0, 5.0, size=4)
            if np.dot(t, t) < 1e-12:
                continue
            rho = cholesky_to_rho(t)
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_degenerate_vector_rejected(self):
        with pytest.raises(ValueError):
            cholesky_to_rho([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            cholesky_to_rho([1.0, 2.0, 3.0])


class TestExpectedCounts:
    def test_maximally_mixed_splits_evenly(self):
        np.testing.assert_array_equal(expected_counts(MIXED, POVM, 1000), [250, 250, 250, 250])

    def test_pure_zero_state_tetrahedron_split(self):
        np.testing.assert_array_equal(expected_counts(KET0, POVM, 10_000), [3943, 1057, 1057, 3943])

    def test_zero_photons(self):
        np.testing.assert_array_equal(expected_counts(KET0, POVM, 0), [0, 0, 0, 0])

    def test_total_within_rounding_slack(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 10**6))
            counts = expected_counts(random_mixed(rng), POVM, n)
            assert abs(int(counts.sum()) - n) <= 2


class TestSimulateCounts:
    def test_photon_number_is_capped(self):
        # Beyond the cap numpy's Poisson sampler would fail on its own terms.
        with pytest.raises(ValueError, match="1e\\+15"):
            simulate_counts(np.eye(2) / 2, sic_povm_qubit(), 10**20, 1.0, 1)
        with pytest.raises(ValueError, match="1e\\+15"):
            simulate_counts(MIXED, POVM, MAX_PHOTONS + 1, 0.0, 1)
        assert simulate_counts(MIXED, POVM, MAX_PHOTONS, 1.0, 1).sum() > 0

    def test_dark_channel(self):
        np.testing.assert_array_equal(simulate_counts(KET0, POVM, 10_000, 0.0, rng=1), [0, 0, 0, 0])

    def test_deterministic_for_seed(self):
        a = simulate_counts(KET0, POVM, 10_000, 0.5, rng=123)
        b = simulate_counts(KET0, POVM, 10_000, 0.5, rng=123)
        np.testing.assert_array_equal(a, b)

    def test_poisson_moments_match_means(self):
        # mean and variance of each outcome should both equal the Born mean
        n, trials = 1000, 20_000
        rng = np.random.default_rng(2024)
        target = expected_counts(KET0, POVM, n).astype(float)
        draws = np.array([simulate_counts(KET0, POVM, n, 1.0, rng) for _ in range(trials)], dtype=float)
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
        rho = MIXED
        draws = np.array([simulate_counts(rho, POVM, int(4 * lam), 1.0, rng)[0] for _ in range(3000)], dtype=float)
        assert draws.mean() == pytest.approx(lam, rel=1e-3)
        assert draws.var(ddof=1) == pytest.approx(lam, rel=0.1)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            simulate_counts(KET0, POVM, 100, 1.5, rng=0)

    @pytest.mark.parametrize(
        "rho, photons, eta, means",
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
    def test_scalar_draws_match_one_draw_on_the_vector_of_means(self, rho, photons, eta, means, seed):
        gen = np.random.default_rng(seed)
        ref = np.random.default_rng()
        ref.bit_generator.state = gen.bit_generator.state
        expected = expected_counts(rho, POVM, round_half_away(eta * photons))
        assert expected.tolist() == means
        counts = simulate_counts(rho, POVM, photons, eta, gen)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, ref.poisson(expected.astype(float)))
        # Both consumed the same draws from the stream.
        assert gen.bit_generator.state == ref.bit_generator.state


class TestReconstruct:
    def test_noiseless_round_trip_is_nearly_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = haar_random_pure(rng)
            counts = expected_counts(rho, POVM, 10**6)
            rec = fit_state(counts, 10**6).rho
            assert fidelity(rho, rec) >= 0.999

    def test_uniform_counts_give_maximally_mixed(self):
        rec = fit_state(np.array([500, 500, 500, 500]), 2000).rho
        trace_distance = 0.5 * np.abs(np.linalg.eigvalsh(rec - MIXED)).sum()
        assert trace_distance < 0.01

    def test_zero_counts_fall_back_to_mixed(self):
        fit = fit_state(np.zeros(4, dtype=int), 100)
        assert fit.degenerate
        np.testing.assert_allclose(fit.rho, MIXED, atol=1e-12)

    def test_output_is_physical(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            counts = rng.integers(0, 2000, size=4)
            if not counts.any():
                continue
            rec = fit_state(counts, int(counts.sum())).rho
            assert np.abs(rec - rec.conj().T).max() < 1e-12
            assert np.trace(rec).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rec).min() > -1e-10

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
                mean = n_eff * rng.uniform(0.8, 1.2) * born_probabilities(random_mixed(rng), POVM)
                counts = rng.poisson(mean)
            if not counts.any():
                continue
            fit = fit_state(counts, n_eff)
            closed = fit_cost(fit.rho, counts, n_eff)
            grid_min = float(np.min(np.sum((grid - counts / n_eff) ** 2, axis=1)))
            assert closed <= grid_min + 1e-12
            assert np.linalg.eigvalsh(fit.rho).min() > -1e-12
            worst_gap = max(worst_gap, grid_min - closed)
            checked += 1
        assert checked >= 190
        assert worst_gap < 1e-3

    def test_two_opposite_outcomes_cost_one_sixteenth(self):
        fit = fit_state([1, 0, 0, 1], 4)
        assert not fit.degenerate
        assert fit_cost(fit.rho, [1, 0, 0, 1], 4) == pytest.approx(1.0 / 16.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_single_outcome_projects_to_pure_state(self, n):
        # r = 3 s_1 lies outside the ball; its projection is the pure state
        # along s_1, whose density matrix is twice the first effect.
        fit = fit_state([n, 0, 0, 0], n)
        np.testing.assert_allclose(fit.rho, 2.0 * POVM[0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_state([1, 2, 3], 6)
        with pytest.raises(ValueError):
            fit_state([-1, 2, 3, 4], 8)
        with pytest.raises(ValueError):
            fit_state([1, 2, 3, 4], 0)


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
        assert fit.rho.shape == shape + (2, 2)
        assert fit.degenerate.shape == shape
        for idx in np.ndindex(shape):
            one = fit_state(counts[idx], int(np.broadcast_to(n_eff, shape)[idx]))
            assert fit.rho[idx].tobytes() == one.rho.tobytes(), idx
            assert fit.degenerate[idx] == one.degenerate == (not counts[idx].any()), idx

    def test_fidelity_stack_matches_pairwise_calls(self):
        rng = np.random.default_rng(17)
        rho = np.array([random_mixed(rng) for _ in range(6)] + [KET0, KET0]).reshape(2, 4, 2, 2)
        sigma = np.array([haar_random_pure(rng) for _ in range(6)] + [KET0, MIXED]).reshape(2, 4, 2, 2)
        got = fidelity(rho, sigma)
        assert got.shape == (2, 4)
        for idx in np.ndindex(2, 4):
            one = fidelity(rho[idx], sigma[idx])
            assert isinstance(one, float)
            assert got[idx].tobytes() == np.float64(one).tobytes(), idx
        # One state against a stack broadcasts like the pairwise calls.
        against_mixed = fidelity(rho, MIXED)
        for idx in np.ndindex(2, 4):
            assert against_mixed[idx].tobytes() == np.float64(fidelity(rho[idx], MIXED)).tobytes(), idx

    def test_bloch_vector_matches_pure_python_closed_form(self):
        rng = np.random.default_rng(2004)
        projected = interior = 0
        for i in range(400):
            n_eff = int(rng.integers(1, 20)) if i % 2 else int(rng.integers(20, 10**6))
            mean = n_eff * born_probabilities(random_mixed(rng), POVM)
            counts = rng.poisson(mean) if i % 2 == 0 else rng.integers(0, n_eff + 3, size=4)
            if not counts.any():
                continue
            rho = fit_state(counts, n_eff).rho
            got = [2.0 * rho[1, 0].real, 2.0 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real]
            expected = bloch_fit_oracle(counts.tolist(), n_eff)
            assert got == pytest.approx(expected, rel=0.0, abs=1e-15), (counts, n_eff)
            if math.hypot(*expected) >= 1.0 - 1e-12:
                projected += 1
            else:
                interior += 1
        assert projected > 50 and interior > 50, (projected, interior)


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = random_mixed(rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        ket1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        assert fidelity(KET0, ket1) == 0.0

    def test_pure_state_overlap(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            phi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            expected = abs(np.vdot(psi, phi)) ** 2
            got = fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
            assert got == pytest.approx(expected, abs=1e-10)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            rho, sigma = random_mixed(rng), random_mixed(rng)
            assert fidelity(rho, sigma) == pytest.approx(fidelity_eig_oracle(rho, sigma), abs=1e-10)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rho, sigma = random_mixed(rng), random_mixed(rng)
            f = fidelity(rho, sigma)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(fidelity(sigma, rho), abs=1e-10)

    def test_unity_only_for_identical_states(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            rho, sigma = random_mixed(rng), random_mixed(rng)
            trace_distance = 0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum()
            if trace_distance > 1e-3:
                assert fidelity(rho, sigma) < 1.0 - 1e-8

    def test_rejects_larger_systems(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(3) / 3.0, np.eye(3) / 3.0)


class TestRunEnsemble:
    def test_deterministic_for_seed(self):
        config = TomographyConfig(photons=10_000, transmittance=0.5, ensemble_size=1, seed=99)
        a = run_ensemble(config)
        b = run_ensemble(config)
        np.testing.assert_array_equal(a.fidelities, b.fidelities)

    def test_members_are_independent_of_ensemble_size(self):
        small = run_ensemble(TomographyConfig(photons=10_000, ensemble_size=3, seed=7))
        large = run_ensemble(TomographyConfig(photons=10_000, ensemble_size=6, seed=7))
        np.testing.assert_array_equal(small.fidelities, large.fidelities[:3])

    def test_near_noiseless_regime(self):
        result = run_ensemble(TomographyConfig(photons=10**6, transmittance=1.0, ensemble_size=10, seed=1))
        assert result.mean_fidelity >= 0.99
        assert result.failures == 0

    def test_fidelity_decays_with_transmittance(self):
        means, sds = [], []
        for eta in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
            r = run_ensemble(TomographyConfig(photons=10**5, transmittance=eta, ensemble_size=16, seed=5))
            means.append(r.mean_fidelity)
            sds.append(r.sd_fidelity)
        for i in range(len(means) - 1):
            pooled = math.sqrt(0.5 * (sds[i] ** 2 + sds[i + 1] ** 2))
            assert means[i + 1] <= means[i] + max(pooled, 1e-4)

    def test_dead_channel_flags_every_member(self):
        # eta N rounds to zero: reconstruction degenerates to the mixed state
        result = run_ensemble(TomographyConfig(photons=100, transmittance=1e-6, ensemble_size=5, seed=2))
        assert result.failures == 5
        assert np.all(result.fidelities <= 1.0)

    def test_bures_ensemble_runs(self):
        config = TomographyConfig(
            photons=10**5, ensemble_size=4, seed=3, ensemble_kind=EnsembleKind.BURES_MIXED
        )
        result = run_ensemble(config)
        assert result.mean_fidelity > 0.9

    @pytest.mark.parametrize("size", [1, 2, 17])
    @pytest.mark.parametrize("kind", list(EnsembleKind))
    def test_matches_scalar_reference_bit_for_bit(self, kind, size):
        for photons, transmittance in ((10**6, 1.0), (10**5, 1e-2), (30, 0.05), (100, 1e-6)):
            config = TomographyConfig(
                photons=photons, transmittance=transmittance, ensemble_size=size, seed=31, ensemble_kind=kind
            )
            result = run_ensemble(config)
            fids, failures, _, _ = scalar_trials(config, (), transmittance)
            mean, sd = scalar_stats(fids)
            assert result.fidelities.tobytes() == fids.tobytes()
            assert (result.mean_fidelity, result.sd_fidelity, result.failures) == (mean, sd, failures)

    def test_member_blocks_and_clamped_eta_match_scalar_reference(self, monkeypatch):
        # Blocks of 5 split 17 members 5 + 5 + 5 + 2; fades above 1/0.9 clamp eta at 1.
        monkeypatch.setattr(qst, "_MEMBER_BLOCK", 5)
        fading = FadingModel(0.5)
        for kind in EnsembleKind:
            config = TomographyConfig(photons=1000, ensemble_size=17, seed=4, ensemble_kind=kind)
            fids, failures = qst._member_fidelities(config, (2, 3), 0.9, fading)
            ref, ref_failures, _, _ = scalar_trials(config, (2, 3), 0.9, fading)
            assert fids.tobytes() == ref.tobytes()
            assert failures == ref_failures
        fades = [float(sample(fading, _member_rng(4, 2, 3, i), 1)[0]) for i in range(17)]
        assert max(fades) * 0.9 > 1.0

    def test_reconstruction_consistency_in_photon_number(self):
        # median infidelity falls monotonically over three decades of N
        medians = []
        for n in (10**3, 10**4, 10**5, 10**6):
            infids = []
            for i in range(50):
                rng = np.random.default_rng(10_000 + i)
                rho = haar_random_pure(rng)
                counts = simulate_counts(rho, POVM, n, 1.0, rng)
                rec = fit_state(counts, n).rho
                infids.append(1.0 - fidelity(rho, rec))
            medians.append(float(np.median(infids)))
        assert all(b < a for a, b in zip(medians, medians[1:]))


class TestFidelityVsZenith:
    @staticmethod
    def _channel(diameter_m):
        from fsolink.beam import BeamParams
        from fsolink.budget import ChannelParams, FluctuationMode

        return ChannelParams(
            beam=BeamParams(receiver_radius_m=diameter_m / 2.0),
            fluctuation_mode=FluctuationMode.ISI,
        )

    def test_identical_seed_gives_identical_table(self):
        config = TomographyConfig(photons=50_000, ensemble_size=3, seed=17)
        grid = channel_grid(self._channel(1.0), 420e3, (1.0,), [0.0, math.radians(40.0)])
        a = fidelity_vs_zenith(grid, config)
        b = fidelity_vs_zenith(grid, config)
        np.testing.assert_array_equal(a.mean_fidelity, b.mean_fidelity)
        np.testing.assert_array_equal(a.failures, b.failures)

    @pytest.mark.parametrize("size", [1, 2, 17])
    def test_matches_scalar_reference_bit_for_bit(self, size):
        # 48 cases: ensemble kind x fade resampling x fluctuation mode x photons,
        # each over 2 diameters x 2 zeniths, against a per-member scalar reference.
        diameters, zeniths = (0.25, 1.0), [0.0, math.radians(80.0)]
        dead = zero = 0
        for kind in EnsembleKind:
            for resample in FadingResample:
                for mode in FluctuationMode:
                    channel = ChannelParams(beam=BeamParams(), fluctuation_mode=mode)
                    grid = channel_grid(channel, 420e3, diameters, zeniths)
                    for photons in (1, 30, 1000, 10**6):
                        case = (kind, resample, mode, photons, size)
                        config = TomographyConfig(photons=photons, ensemble_size=size, seed=12, ensemble_kind=kind)
                        table = fidelity_vs_zenith(grid, config, resample=resample)
                        mean, sd = np.empty((2, 2)), np.empty((2, 2))
                        failures = np.empty((2, 2), dtype=np.int64)
                        for (di, zi), sigma_j2 in np.ndenumerate(grid.sigma_j2):
                            fading = FadingModel(float(sigma_j2)) if sigma_j2 > 0 else None
                            point_fade = 1.0
                            if fading is not None and resample is FadingResample.PER_POINT:
                                point_fade = float(sample(fading, _member_rng(12, di, zi), 1)[0])
                                fading = None
                            fids, failures[di, zi], d, z = scalar_trials(
                                config, (di, zi), float(grid.eta_det[di, zi]), fading, point_fade
                            )
                            mean[di, zi], sd[di, zi] = scalar_stats(fids)
                            dead, zero = dead + d, zero + z
                        assert table.mean_fidelity.tobytes() == mean.tobytes(), case
                        assert table.sd_fidelity.tobytes() == sd.tobytes(), case
                        assert table.failures.tobytes() == failures.tobytes(), case
        # Both kinds of failed trial occur: n_eff < 1 below 1e6 photons, and
        # all-zero counts at the 25 cm, 80 degree cell's n_eff of about 2.
        assert dead > 0 and zero > 0, (dead, zero)

    def test_point_fade_above_one_is_capped(self):
        # eta_int 1, almost no extinction and a 1 km receiver leave eta_det
        # within 1e-7 of 1; the 80 degree cell's point fade of seed 0 is
        # about 1.36, so eta_det times it exceeds 1 and must be capped there.
        channel = ChannelParams(
            beam=BeamParams(receiver_radius_m=500.0),
            extinction=ExtinctionParams(alpha0_per_m=1e-12),
            eta_int=1.0,
            fluctuation_mode=FluctuationMode.ISI,
        )
        grid = channel_grid(channel, 420e3, (1000.0,), [math.radians(80.0)])
        eta_det = float(grid.eta_det[0, 0])
        point_fade = float(sample(FadingModel(float(grid.sigma_j2[0, 0])), _member_rng(0, 0, 0), 1)[0])
        assert eta_det * point_fade > 1.0
        config = TomographyConfig(photons=1000, ensemble_size=17, seed=0)
        table = fidelity_vs_zenith(grid, config, resample=FadingResample.PER_POINT)
        fids, failures, _, _ = scalar_trials(config, (0, 0), eta_det, None, point_fade)
        capped, _, _, _ = scalar_trials(config, (0, 0), 1.0)
        assert fids.tobytes() == capped.tobytes()
        mean, sd = scalar_stats(fids)
        assert table.mean_fidelity.tobytes() == np.array([[mean]]).tobytes()
        assert table.sd_fidelity.tobytes() == np.array([[sd]]).tobytes()
        assert table.failures.tolist() == [[failures]]

    def test_starved_meo_link_sits_below_leo(self):
        # 25 cm aperture at MEO altitude: ~79 dB of loss starves even 1e7
        # photons down to zero effective detections, so reconstruction
        # degenerates; a 1 m LEO receiver at 2e5 photons stays informative.
        config = TomographyConfig(photons=10**7, ensemble_size=10, seed=23)
        meo = fidelity_vs_zenith(channel_grid(self._channel(0.25), 20_200e3, (0.25,), [0.0]), config)
        leo_config = TomographyConfig(photons=200_000, ensemble_size=10, seed=23)
        leo = fidelity_vs_zenith(channel_grid(self._channel(1.0), 420e3, (1.0,), [0.0]), leo_config)
        assert meo.mean_fidelity[0, 0] + meo.sd_fidelity[0, 0] < leo.mean_fidelity[0, 0]
        assert meo.failures[0, 0] == 10


class TestStateGenerators:
    def test_haar_states_are_pure_and_valid(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            rho = haar_random_pure(rng)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_bures_states_are_valid_density_matrices(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            rho = bures_random_mixed(rng)
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_tomography_config_validation(self):
        with pytest.raises(ValueError):
            TomographyConfig(photons=0)
        with pytest.raises(ValueError, match="1e\\+15"):
            TomographyConfig(photons=MAX_PHOTONS + 1)
        assert TomographyConfig(photons=MAX_PHOTONS).photons == MAX_PHOTONS
        with pytest.raises(ValueError):
            TomographyConfig(transmittance=1.5)
        with pytest.raises(ValueError, match="1e\\+06"):
            TomographyConfig(ensemble_size=MAX_ENSEMBLE_SIZE + 1)
        assert TomographyConfig(ensemble_size=MAX_ENSEMBLE_SIZE).ensemble_size == MAX_ENSEMBLE_SIZE
