"""End-to-end acceptance checks, one test per shipped performance claim.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Every tolerance is pinned here; nothing is deferred to later
calibration.

Known red: criterion 3's loss window tops out at 45 dB, but the composed
model with the documented default parameters yields 45.50 dB for the 25 cm
telescope at zenith (the other three diameters and the whole MEO window
fit). The window is asserted as stated rather than widened; see the loss
values in the failure message.
"""

import math

import numpy as np

import fsolink as fl
from fsolink.qst import round_half_away

WAVELENGTH = 1550e-9
DIAMETERS_M = (0.25, 0.50, 0.75, 1.00)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:>2} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _channel(mode=fl.FluctuationMode.DETERMINISTIC):
    return fl.ChannelParams(fluctuation_mode=mode)


def _zenith_losses(altitude_m):
    losses = {}
    geom = fl.LinkGeometry(satellite_altitude_m=altitude_m, zenith_angle_rad=0.0, ogs_altitude_m=65.0)
    for diameter in DIAMETERS_M:
        bd = fl.compose(_channel(), geom, diameter, 1.0)
        losses[diameter] = bd.loss_db
    return losses


def _profile_moment_oracle(profile, top_m, exponent, panels=1_000_000):
    zs = np.linspace(profile.h_ogs_m, min(top_m, 100e3), panels + 1)
    cn2 = (
        8.148e-56 * profile.v_rms**2 * zs**10 * np.exp(-zs / 1000.0)
        + 2.7e-16 * np.exp(-zs / 1500.0)
        + profile.c0 * np.exp(-profile.h_ogs_m / 700.0) * np.exp((profile.h_ogs_m - zs) / 100.0)
    )
    return np.trapezoid(cn2 * (zs - profile.h_ogs_m) ** exponent, zs)


def test_criterion_1_zenith_extinction():
    params = fl.ExtinctionParams(alpha0_per_m=5e-6, h0_m=6600.0)
    ok = True
    detail = []
    for altitude in (30e3, 420e3, 20200e3):
        eta = fl.zenith_transmittance(params, altitude)
        loss = -10.0 * math.log10(eta)
        ok = ok and abs(eta - 0.9675) <= 1e-3 and abs(loss - 0.143) <= 0.002
        detail.append(f"H={altitude/1e3:.0f}km eta={eta:.5f} loss={loss:.4f}dB")
    _report(1, "zenith extinction 0.9675 / 0.143 dB", ok, "; ".join(detail))


def test_criterion_2_pass_times_500_km():
    times = fl.pass_times(500e3, math.radians(80.0))
    ok = abs(times.total_s - 700.0) <= 70.0 and abs(times.effective_s - 450.0) <= 45.0
    _report(2, "pass times at 500 km", ok, f"total={times.total_s:.1f}s effective={times.effective_s:.1f}s")


def test_criterion_3_leo_budget_window():
    losses = _zenith_losses(420e3)
    ok = all(30.0 <= loss <= 45.0 for loss in losses.values())
    detail = ", ".join(f"D={d*100:.0f}cm: {l:.4f}dB" for d, l in losses.items())
    _report(3, "LEO zenith losses within [30, 45] dB", ok, detail)


def test_criterion_4_meo_budget_window():
    losses = _zenith_losses(20200e3)
    ok = all(65.0 <= loss <= 80.0 for loss in losses.values())
    detail = ", ".join(f"D={d*100:.0f}cm: {l:.4f}dB" for d, l in losses.items())
    _report(4, "MEO zenith losses within [65, 80] dB", ok, detail)


def test_criterion_5_quadrature_matches_brute_force():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(5):
        profile = fl.TurbulenceProfile(
            c0=float(rng.uniform(5e-15, 5e-14)),
            v_rms=float(rng.uniform(10.0, 40.0)),
            h_ogs_m=float(rng.uniform(0.0, 2000.0)),
        )
        wavelength = float(rng.uniform(800e-9, 1600e-9))
        altitude = float(rng.uniform(300e3, 21000e3))
        zenith = math.radians(float(rng.uniform(0.0, 78.0)))

        sec = 1.0 / math.cos(zenith)
        rytov_expected = (
            2.25 * (2 * math.pi / wavelength) ** (7.0 / 6.0) * sec ** (11.0 / 6.0)
            * _profile_moment_oracle(profile, altitude, 5.0 / 6.0)
        )
        rytov_got = fl.rytov_downlink(profile, wavelength, altitude, zenith)
        worst = max(worst, abs(rytov_got - rytov_expected) / rytov_expected)

        hs_expected = (
            _profile_moment_oracle(profile, altitude, 2.0)
            / _profile_moment_oracle(profile, altitude, 5.0 / 6.0)
        ) ** (6.0 / 7.0)
        hs_got = fl.turbulence_scale_height(profile, altitude)
        worst = max(worst, abs(hs_got - hs_expected) / hs_expected)
    _report(5, "Rytov and scale-height integrals vs 1e6-panel oracle", worst <= 1e-6, f"worst rel err={worst:.2e}")


def test_criterion_6_fading_moments():
    ok = True
    details = []
    n = 1_000_000
    for sigma_j2 in (0.04, 0.25, 1.0):
        draws = fl.sample(sigma_j2, np.random.default_rng(4242), n)
        var = math.expm1(sigma_j2)
        mean_band = 3.0 * math.sqrt(var / n)
        moments = [math.exp(k * (k - 1) * sigma_j2 / 2.0) for k in range(5)]
        mu4 = moments[4] - 4.0 * moments[3] + 6.0 * moments[2] - 4.0 * moments[1] + 1.0
        var_band = 3.0 * math.sqrt((mu4 - var * var) / n)
        mean_ok = abs(draws.mean() - 1.0) <= mean_band
        var_ok = abs(draws.var(ddof=1) - var) <= var_band
        ok = ok and mean_ok and var_ok
        details.append(f"s2={sigma_j2}: mean={draws.mean():.5f} var={draws.var(ddof=1):.5f}")
    _report(6, "log-normal fading moments at n=1e6", ok, "; ".join(details))


def test_criterion_7_aperture_averaging_ordering():
    grid = np.radians(np.arange(-80.0, 81.0, 1.0))
    diameters = (0.25, 0.50, 1.00)
    # Andrews averaging at 1550 nm from a station at 65 m, the channel defaults.
    andrews = fl.ChannelParams(
        beam=fl.BeamParams(wavelength_m=WAVELENGTH),
        turbulence=fl.TurbulenceProfile(h_ogs_m=65.0),
        aperture_model=fl.ApertureModel(),
    )
    leo = fl.channel_grid(andrews, fl.LEO_ALTITUDE_M, diameters, grid)
    meo = fl.channel_grid(andrews, fl.MEO_ALTITUDE_M, diameters, grid)
    av_ordered = bool(np.all(leo.av < meo.av))

    isi = fl.sweep_pass(
        fl.channel_grid(_channel(mode=fl.FluctuationMode.ISI), fl.LEO_ALTITUDE_M, diameters, grid),
        draws_per_point=10_000, seed=314,
    )
    psi = fl.sweep_pass(
        fl.channel_grid(_channel(mode=fl.FluctuationMode.PSI), fl.LEO_ALTITUDE_M, diameters, grid),
        draws_per_point=10_000, seed=314,
    )
    sd_ordered = bool(np.all(psi["sd_loss_db"] <= isi["sd_loss_db"]))
    _report(
        7,
        "Av(LEO) < Av(MEO) and PSI spread <= ISI spread",
        av_ordered and sd_ordered,
        f"max Av gap={float(np.max(leo.av - meo.av)):.2e}, max SD gap={float(np.max(psi['sd_loss_db'] - isi['sd_loss_db'])):.2e}",
    )


def test_criterion_8_qst_round_trip():
    noisy = fl.run_ensemble(fl.TomographyConfig(photons=10**6, ensemble_size=50), transmittance=1.0, seed=8)
    noiseless_fidelities = []
    rng = np.random.default_rng(88)
    for _ in range(50):
        r = fl.haar_random_pure(rng)
        counts = [round_half_away(10**6 * p) for p in fl.born_probabilities(r)]
        rec = fl.fit_state(counts, 10**6).r
        noiseless_fidelities.append(fl.fidelity(r, rec, True))
    noiseless_mean = float(np.mean(noiseless_fidelities))
    ok = noisy.mean_fidelity >= 0.99 and noiseless_mean >= 0.999
    _report(
        8,
        "QST round trip at N=1e6",
        ok,
        f"poisson mean={noisy.mean_fidelity:.5f}, noiseless mean={noiseless_mean:.6f}",
    )


def test_criterion_9_fidelity_vs_zenith_trend():
    table = fl.fidelity_vs_zenith(
        fl.channel_grid(
            _channel(mode=fl.FluctuationMode.ISI),
            fl.LEO_ALTITUDE_M,
            (1.0,),
            [0.0, math.radians(80.0)],
        ),
        config=fl.TomographyConfig(photons=200_000, ensemble_size=50),
        seed=9,
    )
    mean0, mean80 = table["mean_fidelity"][0]
    sd0, sd80 = table["sd_fidelity"][0]
    pooled = math.sqrt(0.5 * (sd0**2 + sd80**2))
    ok = (mean0 - mean80) > pooled
    _report(
        9,
        "fidelity at zenith exceeds 80 deg by > 1 pooled SD",
        ok,
        f"F(0)={mean0:.4f} F(80)={mean80:.4f} pooled SD={pooled:.4f}",
    )


def test_criterion_10_invariant_suites():
    povm = fl.sic_povm_qubit()
    completeness = np.abs(povm.sum(axis=0) - np.eye(2)).max() < 1e-12
    overlaps = [np.trace(povm[j] @ povm[k]).real for j in range(4) for k in range(4) if j != k]
    sic_symmetry = (max(overlaps) - min(overlaps)) < 1e-12

    rng = np.random.default_rng(1010)

    def eig_fidelity(rho, sigma):
        w, v = np.linalg.eigh(rho)
        sq = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        ev = np.linalg.eigvalsh(sq @ sigma @ sq)
        return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)

    def bloch(rho):
        return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])

    fidelity_ok = True
    for _ in range(100):
        g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g1 @ g1.conj().T
        rho /= np.trace(rho).real
        sigma = g2 @ g2.conj().T
        sigma /= np.trace(sigma).real
        f = fl.fidelity(bloch(rho), bloch(sigma))
        fidelity_ok = fidelity_ok and abs(f - eig_fidelity(rho, sigma)) < 1e-10
        fidelity_ok = fidelity_ok and abs(f - fl.fidelity(bloch(sigma), bloch(rho))) < 1e-10
        fidelity_ok = fidelity_ok and 0.0 <= f <= 1.0

    from scipy.integrate import quad

    pdf_ok = True
    for sigma_j2 in (0.04, 0.25, 1.0):
        total, _ = quad(lambda x: fl.pdf(sigma_j2, x), 1e-12, np.inf, limit=200)
        pdf_ok = pdf_ok and abs(total - 1.0) <= 1e-6

    ok = completeness and sic_symmetry and fidelity_ok and pdf_ok
    _report(
        10,
        "invariant suites (POVM, fidelity, fading PDF)",
        ok,
        f"completeness={completeness} sic={sic_symmetry} fidelity={fidelity_ok} pdf={pdf_ok}",
    )
