import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from fsolink import budget, turbulence
from fsolink.beam import BeamParams
from fsolink.budget import (
    LEO_ALTITUDE_M,
    MEO_ALTITUDE_M,
    ChannelParams,
    FluctuationMode,
    av_vs_zenith,
    channel_grid,
    compose,
    sweep_pass,
)
from fsolink.extinction import ExtinctionParams
from fsolink.fading import FadingModel, sample
from fsolink.geometry import LinkGeometry, slant_range
from fsolink.turbulence import (
    ApertureModel,
    ApertureModelKind,
    ScintillationVariant,
    aperture_averaging,
    psi,
    rytov_downlink,
    scintillation_index,
)

DIAMETERS = (0.25, 0.50, 0.75, 1.00)


def default_channel(mode=FluctuationMode.DETERMINISTIC, diameter_m=1.0):
    return ChannelParams(
        beam=BeamParams(receiver_radius_m=diameter_m / 2.0),
        fluctuation_mode=mode,
    )


def default_geometry(altitude_m, zenith_rad=0.0):
    return LinkGeometry(satellite_altitude_m=altitude_m, zenith_angle_rad=zenith_rad, ogs_altitude_m=65.0)


class TestCompose:
    def test_transparent_channel(self):
        params = ChannelParams(
            beam=BeamParams(receiver_radius_m=1e6),
            extinction=ExtinctionParams(alpha0_per_m=1e-30),
            eta_int=1.0,
        )
        bd = compose(params, default_geometry(420e3), 1.0)
        assert bd.eta_total == pytest.approx(1.0, abs=1e-12)
        assert bd.loss_db == pytest.approx(0.0, abs=1e-11)

    def test_decibel_identity_at_half(self):
        params = ChannelParams(
            beam=BeamParams(receiver_radius_m=1e6),
            extinction=ExtinctionParams(alpha0_per_m=1e-30),
            eta_int=0.5,
        )
        bd = compose(params, default_geometry(420e3), 1.0)
        assert bd.loss_db == pytest.approx(3.0103, abs=1e-4)

    def test_product_is_bit_exact(self):
        bd = compose(default_channel(), default_geometry(LEO_ALTITUDE_M, 0.3), 0.87)
        assert bd.eta_total == bd.eta_int * bd.eta_atm * bd.eta_d * bd.intensity_factor

    def test_leo_zenith_frozen_losses(self):
        expected = {0.25: 45.5017, 0.50: 39.4815, 0.75: 35.9605, 1.00: 33.4628}
        for diameter, loss in expected.items():
            bd = compose(default_channel(diameter_m=diameter), default_geometry(LEO_ALTITUDE_M), 1.0)
            assert bd.loss_db == pytest.approx(loss, abs=1e-4)

    def test_meo_zenith_frozen_losses(self):
        expected = {0.25: 79.1449, 0.50: 73.1243, 0.75: 69.6024, 1.00: 67.1037}
        for diameter, loss in expected.items():
            bd = compose(default_channel(diameter_m=diameter), default_geometry(MEO_ALTITUDE_M), 1.0)
            assert bd.loss_db == pytest.approx(loss, abs=1e-4)

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(ValueError):
            compose(default_channel(), default_geometry(420e3), 0.0)


class TestFadingVariance:
    def test_deterministic_mode_is_zero(self):
        assert channel_grid(default_channel(), LEO_ALTITUDE_M, [1.0], [0.3]).sigma_j2[0, 0] == 0.0

    def test_isi_matches_scintillation_index(self):
        from fsolink.turbulence import scintillation_index, rytov_downlink

        params = default_channel(mode=FluctuationMode.ISI)
        got = channel_grid(params, LEO_ALTITUDE_M, [1.0], [0.4]).sigma_j2[0, 0]
        sigma_r2 = rytov_downlink(params.turbulence, params.beam.wavelength_m, LEO_ALTITUDE_M, 0.4)
        assert got == scintillation_index(sigma_r2).sigma_I2

    def test_psi_below_isi(self):
        isi = channel_grid(default_channel(mode=FluctuationMode.ISI), LEO_ALTITUDE_M, [1.0], [0.4]).sigma_j2[0, 0]
        psi = channel_grid(default_channel(mode=FluctuationMode.PSI), LEO_ALTITUDE_M, [1.0], [0.4]).sigma_j2[0, 0]
        assert 0.0 < psi < isi

    def test_psi_shrinks_with_diameter(self):
        small = channel_grid(default_channel(mode=FluctuationMode.PSI), LEO_ALTITUDE_M, [0.25], [0.4]).sigma_j2[0, 0]
        large = channel_grid(default_channel(mode=FluctuationMode.PSI), LEO_ALTITUDE_M, [1.0], [0.4]).sigma_j2[0, 0]
        assert large < small


class TestSweepPass:
    def test_deterministic_curve_is_u_shaped(self):
        grid = np.radians(np.arange(-80.0, 81.0, 10.0))
        result = sweep_pass(default_channel(), LEO_ALTITUDE_M, DIAMETERS, grid, draws_per_point=1, seed=0)
        for di in range(len(DIAMETERS)):
            losses = result.mean_loss_db[di]
            mid = len(losses) // 2
            assert np.all(np.diff(losses[: mid + 1]) < 0)  # descending into zenith
            assert np.all(np.diff(losses[mid:]) > 0)  # ascending away
            np.testing.assert_array_equal(losses, losses[::-1])  # symmetric pass

    def test_larger_aperture_lowers_loss_everywhere(self):
        grid = np.radians(np.arange(-80.0, 81.0, 20.0))
        result = sweep_pass(default_channel(), LEO_ALTITUDE_M, DIAMETERS, grid, draws_per_point=1, seed=0)
        for smaller, larger in zip(result.mean_loss_db, result.mean_loss_db[1:]):
            assert np.all(larger < smaller)

    def test_meo_zenith_dependence_much_weaker(self):
        grid = np.radians(np.arange(-80.0, 81.0, 10.0))
        leo = sweep_pass(default_channel(), LEO_ALTITUDE_M, DIAMETERS, grid, draws_per_point=1, seed=0)
        meo = sweep_pass(default_channel(), MEO_ALTITUDE_M, DIAMETERS, grid, draws_per_point=1, seed=0)
        for di in range(len(DIAMETERS)):
            leo_swing = leo.mean_loss_db[di].max() - leo.mean_loss_db[di].min()
            meo_swing = meo.mean_loss_db[di].max() - meo.mean_loss_db[di].min()
            assert meo_swing < leo_swing

    def test_psi_spread_never_exceeds_isi_at_matched_seeds(self):
        grid = np.radians(np.arange(-80.0, 81.0, 20.0))
        isi = sweep_pass(
            default_channel(mode=FluctuationMode.ISI), LEO_ALTITUDE_M, DIAMETERS, grid,
            draws_per_point=2000, seed=77,
        )
        psi = sweep_pass(
            default_channel(mode=FluctuationMode.PSI), LEO_ALTITUDE_M, DIAMETERS, grid,
            draws_per_point=2000, seed=77,
        )
        assert np.all(psi.sd_loss_db <= isi.sd_loss_db)

    def test_deterministic_given_seed(self):
        grid = np.radians(np.arange(-40.0, 41.0, 20.0))
        a = sweep_pass(default_channel(mode=FluctuationMode.ISI), LEO_ALTITUDE_M, (0.5,), grid, 500, seed=5)
        b = sweep_pass(default_channel(mode=FluctuationMode.ISI), LEO_ALTITUDE_M, (0.5,), grid, 500, seed=5)
        np.testing.assert_array_equal(a.mean_loss_db, b.mean_loss_db)
        np.testing.assert_array_equal(a.p95_db, b.p95_db)

    def test_percentiles_ordered(self):
        grid = np.radians(np.arange(-60.0, 61.0, 30.0))
        res = sweep_pass(default_channel(mode=FluctuationMode.ISI), LEO_ALTITUDE_M, (0.5,), grid, 2000, seed=1)
        assert np.all(res.p05_db <= res.p50_db)
        assert np.all(res.p50_db <= res.p95_db)

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValueError):
            sweep_pass(default_channel(), LEO_ALTITUDE_M, (0.5,), [math.radians(85.0)], 10, seed=0)
        with pytest.raises(ValueError):
            sweep_pass(default_channel(), LEO_ALTITUDE_M, (0.5,), [0.0], 0, seed=0)


class TestAvVsZenith:
    def test_point_aperture_column_is_unity(self):
        grid = np.radians(np.arange(-80.0, 81.0, 40.0))
        table = av_vs_zenith(ApertureModel(), LEO_ALTITUDE_M, (1e-9,), grid, 1550e-9)
        assert np.allclose(table.av, 1.0, atol=1e-6)

    def test_leo_averages_harder_than_meo(self):
        grid = np.radians(np.arange(-80.0, 81.0, 10.0))
        diameters = (0.25, 0.50, 1.00)
        leo = av_vs_zenith(ApertureModel(), LEO_ALTITUDE_M, diameters, grid, 1550e-9)
        meo = av_vs_zenith(ApertureModel(), MEO_ALTITUDE_M, diameters, grid, 1550e-9)
        assert np.all(leo.av < meo.av)

    def test_andrews_av_grows_toward_horizon(self):
        # longer slant path at higher zenith -> weaker averaging
        grid = np.radians(np.arange(0.0, 81.0, 10.0))
        table = av_vs_zenith(ApertureModel(), LEO_ALTITUDE_M, (0.5,), grid, 1550e-9)
        assert np.all(np.diff(table.av[0]) > 0)

    def test_zenith_value_frozen(self):
        table = av_vs_zenith(ApertureModel(), 420e3, (0.5,), [0.0], 1550e-9)
        # slant range equals the altitude at zenith for a sea-level station
        assert table.av[0, 0] == pytest.approx(0.56124954378109873, rel=1e-12)


GRID_ZENITHS = np.radians([-80.0, -33.0, 0.0, 47.5, 80.0])
GRID_DIAMETERS = (0.25, 0.6, 1.0)


def _grid_params(mode, kind, variant):
    return ChannelParams(
        aperture_model=ApertureModel(kind=kind),
        fluctuation_mode=mode,
        scintillation_variant=variant,
    )


def _scalar_sigma_j2(params, altitude_m, zenith_rad, diameter_m):
    # Reference composition from the scalar turbulence formulas, cell by cell.
    if params.fluctuation_mode is FluctuationMode.DETERMINISTIC:
        return 0.0
    wavelength = params.beam.wavelength_m
    sigma_r2 = rytov_downlink(params.turbulence, wavelength, altitude_m, zenith_rad)
    sigma_i2 = scintillation_index(sigma_r2, params.scintillation_variant).sigma_I2
    if params.fluctuation_mode is FluctuationMode.ISI:
        return sigma_i2
    geom = LinkGeometry(altitude_m, zenith_rad, params.turbulence.h_ogs_m)
    av = aperture_averaging(
        params.aperture_model,
        diameter_m,
        wavelength,
        path_m=slant_range(geom),
        elevation_deg=90.0 - abs(math.degrees(zenith_rad)),
        profile=params.turbulence,
        altitude_m=altitude_m,
        zenith_rad=zenith_rad,
    )
    return psi(sigma_i2, av)


class TestChannelGrid:
    @pytest.mark.parametrize("variant", list(ScintillationVariant))
    @pytest.mark.parametrize("kind", list(ApertureModelKind))
    @pytest.mark.parametrize("mode", list(FluctuationMode))
    def test_cells_equal_the_scalar_formulas_bit_for_bit(self, mode, kind, variant):
        params = _grid_params(mode, kind, variant)
        grid = channel_grid(params, LEO_ALTITUDE_M, GRID_DIAMETERS, GRID_ZENITHS)
        assert grid.eta_det.shape == grid.sigma_j2.shape == grid.av.shape == (3, 5)
        for di, diameter in enumerate(GRID_DIAMETERS):
            cell_params = replace(params, beam=replace(params.beam, receiver_radius_m=diameter / 2.0))
            for zi, zenith in enumerate(GRID_ZENITHS.tolist()):
                geom = LinkGeometry(LEO_ALTITUDE_M, zenith, params.turbulence.h_ogs_m)
                assert grid.eta_det[di, zi] == compose(cell_params, geom).eta_total
                assert grid.sigma_j2[di, zi] == _scalar_sigma_j2(params, LEO_ALTITUDE_M, zenith, diameter)

    @pytest.mark.parametrize(
        "mode, kind, integrals",
        [
            (FluctuationMode.DETERMINISTIC, ApertureModelKind.YURA, 0),
            (FluctuationMode.ISI, ApertureModelKind.YURA, 1),
            (FluctuationMode.PSI, ApertureModelKind.ANDREWS, 1),
            (FluctuationMode.PSI, ApertureModelKind.GIGGENBACH, 1),
            (FluctuationMode.PSI, ApertureModelKind.YURA, 2),
        ],
    )
    def test_profile_integrals_run_once_per_moment(self, monkeypatch, mode, kind, integrals):
        calls = []
        real = turbulence.adaptive_simpson

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(turbulence, "adaptive_simpson", counting)
        turbulence._profile_moment.cache_clear()
        params = _grid_params(mode, kind, ScintillationVariant.SEVEN_SIXTHS)
        grid = channel_grid(params, LEO_ALTITUDE_M, DIAMETERS, np.radians(np.arange(-80.0, 81.0, 10.0)))
        assert np.all(grid.sigma_j2 >= 0.0)
        assert len(calls) == integrals


class TestSortedPercentiles:
    @pytest.mark.parametrize("n", [1, 2, 3, 19, 20, 21, 10_000, 10_001, 200_000])
    def test_equals_numpy_percentile_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for x in (rng.standard_normal(n), rng.lognormal(3.0, 2.0, n), rng.integers(0, 4, n).astype(float)):
            expected = np.percentile(x, [5, 50, 95]).tolist()
            x.sort()
            assert budget._sorted_percentiles(x) == expected


def _serial_sweep(params, diameters, zeniths, draws, seed):
    # The cell-by-cell reduction the concurrent sweep must reproduce exactly.
    grid = channel_grid(params, LEO_ALTITUDE_M, diameters, zeniths)
    stats = np.empty((5,) + grid.eta_det.shape)
    for di, zi in np.ndindex(grid.eta_det.shape):
        s2 = float(grid.sigma_j2[di, zi])
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(di, zi)))
        fades = sample(FadingModel(s2), rng, draws) if s2 > 0 else np.ones(draws)
        loss = -10.0 * np.log10(float(grid.eta_det[di, zi]) * fades)
        sd = loss.std(ddof=1) if draws > 1 else 0.0
        stats[:, di, zi] = [loss.mean(), sd, *np.percentile(loss, [5.0, 50.0, 95.0])]
    return stats


def _sweep_stats(result):
    return np.stack([result.mean_loss_db, result.sd_loss_db, result.p05_db, result.p50_db, result.p95_db])


class TestConcurrentSweep:
    @pytest.mark.parametrize("draws", [1, 2, 1001])
    @pytest.mark.parametrize("mode", list(FluctuationMode))
    def test_equals_serial_reference_and_repeats(self, mode, draws):
        params = default_channel(mode=mode)
        expected = _serial_sweep(params, GRID_DIAMETERS, GRID_ZENITHS, draws, seed=9)
        runs = [
            _sweep_stats(sweep_pass(params, LEO_ALTITUDE_M, GRID_DIAMETERS, GRID_ZENITHS, draws, seed=9))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], expected)
        np.testing.assert_array_equal(runs[1], expected)

    @pytest.mark.parametrize("workers", [1, 2, 7, 64])
    def test_result_does_not_depend_on_worker_count(self, monkeypatch, workers):
        # More workers than cores and a short switch interval interleave the
        # cells as much as possible; a lost or misplaced write would show.
        monkeypatch.setattr(budget, "_worker_count", lambda: workers)
        params = default_channel(mode=FluctuationMode.PSI)
        zeniths = np.radians(np.arange(-80.0, 81.0, 10.0))
        expected = _serial_sweep(params, DIAMETERS, zeniths, 300, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = sweep_pass(params, LEO_ALTITUDE_M, DIAMETERS, zeniths, 300, seed=3)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(_sweep_stats(result), expected)
