import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsolink import beam, budget, turbulence
from fsolink.beam import BeamParams
from fsolink.budget import (
    LEO_ALTITUDE_M,
    MEO_ALTITUDE_M,
    ChannelParams,
    FluctuationMode,
    channel_grid,
    compose,
    stream_states,
    sweep_pass,
)
from fsolink.cli import parse_config
from fsolink.extinction import ExtinctionParams
from fsolink.fading import sample
from fsolink.geometry import LinkGeometry, slant_range
from fsolink.turbulence import (
    ApertureModel,
    ApertureModelKind,
    ScintillationVariant,
    TurbulenceProfile,
    av_andrews,
    av_giggenbach,
    av_yura,
    giggenbach_layer_distance,
    psi,
    rytov_downlink,
    scintillation_index,
    turbulence_scale_height,
)

DIAMETERS = (0.25, 0.50, 0.75, 1.00)


def default_channel(mode=FluctuationMode.DETERMINISTIC):
    return ChannelParams(fluctuation_mode=mode)


def default_geometry(altitude_m, zenith_rad=0.0):
    return LinkGeometry(satellite_altitude_m=altitude_m, zenith_angle_rad=zenith_rad, ogs_altitude_m=65.0)


class TestCompose:
    def test_transparent_channel(self):
        params = ChannelParams(extinction=ExtinctionParams(alpha0_per_m=1e-30), eta_int=1.0)
        bd = compose(params, default_geometry(420e3), 2e6, 1.0)
        assert bd.eta_total == pytest.approx(1.0, abs=1e-12)
        assert bd.loss_db == pytest.approx(0.0, abs=1e-11)

    def test_decibel_identity_at_half(self):
        params = ChannelParams(extinction=ExtinctionParams(alpha0_per_m=1e-30), eta_int=0.5)
        bd = compose(params, default_geometry(420e3), 2e6, 1.0)
        assert bd.loss_db == pytest.approx(3.0103, abs=1e-4)

    def test_product_is_bit_exact(self):
        bd = compose(default_channel(), default_geometry(LEO_ALTITUDE_M, 0.3), 1.0, 0.87)
        assert bd.eta_total == bd.eta_int * bd.eta_atm * bd.eta_d * bd.intensity_factor

    def test_leo_zenith_frozen_losses(self):
        expected = {0.25: 45.5017, 0.50: 39.4815, 0.75: 35.9605, 1.00: 33.4628}
        for diameter, loss in expected.items():
            bd = compose(default_channel(), default_geometry(LEO_ALTITUDE_M), diameter, 1.0)
            assert bd.loss_db == pytest.approx(loss, abs=1e-4)

    def test_meo_zenith_frozen_losses(self):
        expected = {0.25: 79.1449, 0.50: 73.1243, 0.75: 69.6024, 1.00: 67.1037}
        for diameter, loss in expected.items():
            bd = compose(default_channel(), default_geometry(MEO_ALTITUDE_M), diameter, 1.0)
            assert bd.loss_db == pytest.approx(loss, abs=1e-4)

    def test_rejects_nonpositive_intensity(self):
        for intensity in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="intensity must be > 0"):
                compose(default_channel(), default_geometry(420e3), 1.0, intensity)

    @pytest.mark.parametrize("diameter", [0.0, -1.0, 5e-324, math.nan])
    def test_rejects_a_receiver_radius_that_is_not_positive(self, diameter):
        with pytest.raises(ValueError, match="receiver radius"):
            compose(default_channel(), default_geometry(420e3), diameter)


class TestFadingVariance:
    def test_deterministic_mode_is_zero(self):
        assert channel_grid(default_channel(), LEO_ALTITUDE_M, [1.0], [0.3]).sigma_j2[0, 0] == 0.0

    def test_isi_matches_scintillation_index(self):
        from fsolink.turbulence import scintillation_index, rytov_downlink

        params = default_channel(mode=FluctuationMode.ISI)
        got = channel_grid(params, LEO_ALTITUDE_M, [1.0], [0.4]).sigma_j2[0, 0]
        sigma_r2 = rytov_downlink(params.turbulence, params.beam.wavelength_m, LEO_ALTITUDE_M, 0.4)
        assert got == scintillation_index(sigma_r2)

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
        result = sweep_pass(channel_grid(default_channel(), LEO_ALTITUDE_M, DIAMETERS, grid), draws_per_point=1)
        for di in range(len(DIAMETERS)):
            losses = result.mean_loss_db[di]
            mid = len(losses) // 2
            assert np.all(np.diff(losses[: mid + 1]) < 0)  # descending into zenith
            assert np.all(np.diff(losses[mid:]) > 0)  # ascending away
            np.testing.assert_array_equal(losses, losses[::-1])  # symmetric pass

    def test_larger_aperture_lowers_loss_everywhere(self):
        grid = np.radians(np.arange(-80.0, 81.0, 20.0))
        result = sweep_pass(channel_grid(default_channel(), LEO_ALTITUDE_M, DIAMETERS, grid), draws_per_point=1)
        for smaller, larger in zip(result.mean_loss_db, result.mean_loss_db[1:]):
            assert np.all(larger < smaller)

    def test_meo_zenith_dependence_much_weaker(self):
        grid = np.radians(np.arange(-80.0, 81.0, 10.0))
        leo = sweep_pass(channel_grid(default_channel(), LEO_ALTITUDE_M, DIAMETERS, grid), draws_per_point=1)
        meo = sweep_pass(channel_grid(default_channel(), MEO_ALTITUDE_M, DIAMETERS, grid), draws_per_point=1)
        for di in range(len(DIAMETERS)):
            leo_swing = leo.mean_loss_db[di].max() - leo.mean_loss_db[di].min()
            meo_swing = meo.mean_loss_db[di].max() - meo.mean_loss_db[di].min()
            assert meo_swing < leo_swing

    def test_psi_spread_never_exceeds_isi_at_matched_seeds(self):
        grid = np.radians(np.arange(-80.0, 81.0, 20.0))
        isi = sweep_pass(
            channel_grid(default_channel(mode=FluctuationMode.ISI), LEO_ALTITUDE_M, DIAMETERS, grid),
            draws_per_point=2000, seed=77,
        )
        psi = sweep_pass(
            channel_grid(default_channel(mode=FluctuationMode.PSI), LEO_ALTITUDE_M, DIAMETERS, grid),
            draws_per_point=2000, seed=77,
        )
        assert np.all(psi.sd_loss_db <= isi.sd_loss_db)

    def test_deterministic_given_seed(self):
        grid = np.radians(np.arange(-40.0, 41.0, 20.0))
        a = sweep_pass(channel_grid(default_channel(mode=FluctuationMode.ISI), LEO_ALTITUDE_M, (0.5,), grid), 500, 5)
        b = sweep_pass(channel_grid(default_channel(mode=FluctuationMode.ISI), LEO_ALTITUDE_M, (0.5,), grid), 500, 5)
        np.testing.assert_array_equal(a.mean_loss_db, b.mean_loss_db)
        np.testing.assert_array_equal(a.p95_db, b.p95_db)

    def test_percentiles_ordered(self):
        grid = np.radians(np.arange(-60.0, 61.0, 30.0))
        res = sweep_pass(channel_grid(default_channel(mode=FluctuationMode.ISI), LEO_ALTITUDE_M, (0.5,), grid), 2000, 1)
        assert np.all(res.p05_db <= res.p50_db)
        assert np.all(res.p50_db <= res.p95_db)

    def test_deterministic_loss_is_compose_loss_bit_for_bit(self):
        # The CLI's default 4 x 161 grid. numpy's AVX-512 log10 differs from
        # math.log10 by an ulp on some of its cells.
        cfg = parse_config("{}")
        grid = channel_grid(cfg.channel, cfg.satellite_altitude_m, cfg.diameters_m, cfg.zenith_grid_rad())
        loss = sweep_pass(grid, draws_per_point=1).mean_loss_db
        assert loss.shape == (4, 161)
        for di, diameter in enumerate(cfg.diameters_m):
            for zi, zenith in enumerate(grid.zenith_rad.tolist()):
                geom = LinkGeometry(cfg.satellite_altitude_m, zenith, cfg.channel.turbulence.h_ogs_m, cfg.earth_radius_m)
                assert loss[di, zi] == compose(cfg.channel, geom, diameter).loss_db

    def test_rejects_out_of_range_grid(self):
        for zenith in (math.radians(85.0), math.nan):
            with pytest.raises(ValueError, match=r"within \+/-80 degrees"):
                channel_grid(default_channel(), LEO_ALTITUDE_M, (0.5,), [0.0, zenith])
        for diameter in (0.0, -1.0, 5e-324, math.nan):
            with pytest.raises(ValueError, match="receiver radius"):
                channel_grid(default_channel(), LEO_ALTITUDE_M, (0.5, diameter), [0.0])
        with pytest.raises(ValueError):
            sweep_pass(channel_grid(default_channel(), LEO_ALTITUDE_M, (0.5,), [0.0]), 0, seed=0)


# Andrews averaging seen from a sea-level station.
SEA_LEVEL = ChannelParams(turbulence=TurbulenceProfile(h_ogs_m=0.0))


class TestGridAv:
    def test_point_aperture_column_is_unity(self):
        grid = np.radians(np.arange(-80.0, 81.0, 40.0))
        assert np.allclose(channel_grid(SEA_LEVEL, LEO_ALTITUDE_M, (1e-9,), grid).av, 1.0, atol=1e-6)

    def test_leo_averages_harder_than_meo(self):
        grid = np.radians(np.arange(-80.0, 81.0, 10.0))
        diameters = (0.25, 0.50, 1.00)
        leo = channel_grid(SEA_LEVEL, LEO_ALTITUDE_M, diameters, grid)
        meo = channel_grid(SEA_LEVEL, MEO_ALTITUDE_M, diameters, grid)
        assert np.all(leo.av < meo.av)

    def test_andrews_av_grows_toward_horizon(self):
        # longer slant path at higher zenith -> weaker averaging
        grid = np.radians(np.arange(0.0, 81.0, 10.0))
        assert np.all(np.diff(channel_grid(SEA_LEVEL, LEO_ALTITUDE_M, (0.5,), grid).av[0]) > 0)

    def test_zenith_value_frozen(self):
        # slant range equals the altitude at zenith for a sea-level station
        av = channel_grid(SEA_LEVEL, 420e3, (0.5,), [0.0]).av
        assert av[0, 0] == pytest.approx(0.56124954378109873, rel=1e-12)


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
    sigma_i2 = scintillation_index(sigma_r2, params.scintillation_variant)
    if params.fluctuation_mode is FluctuationMode.ISI:
        return sigma_i2
    model = params.aperture_model
    if model.kind is ApertureModelKind.ANDREWS:
        path = slant_range(LinkGeometry(altitude_m, zenith_rad, params.turbulence.h_ogs_m))
        av = av_andrews(diameter_m, wavelength, path)
    elif model.kind is ApertureModelKind.GIGGENBACH:
        layer = giggenbach_layer_distance(90.0 - abs(math.degrees(zenith_rad)), model)
        av = av_giggenbach(diameter_m, wavelength, layer)
    else:
        h_s = turbulence_scale_height(params.turbulence, altitude_m)
        av = av_yura(diameter_m, wavelength, h_s, zenith_rad)
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
            for zi, zenith in enumerate(GRID_ZENITHS.tolist()):
                geom = LinkGeometry(LEO_ALTITUDE_M, zenith, params.turbulence.h_ogs_m)
                bd = compose(params, geom, diameter)
                assert grid.eta_atm[zi] == bd.eta_atm
                assert grid.eta_d[di, zi] == bd.eta_d
                assert grid.eta_det[di, zi] == bd.eta_total
                assert grid.sigma_j2[di, zi] == _scalar_sigma_j2(params, LEO_ALTITUDE_M, zenith, diameter)

    def test_av_and_sigma_j2_evaluate_no_transmittance(self):
        # A waist of 1e-300 m has a Rayleigh range of 0, so only eta_det fails.
        params = _grid_params(FluctuationMode.PSI, ApertureModelKind.ANDREWS, ScintillationVariant.SEVEN_SIXTHS)
        tiny_waist = replace(params, beam=BeamParams(waist_m=1e-300))
        grid = channel_grid(tiny_waist, LEO_ALTITUDE_M, GRID_DIAMETERS, GRID_ZENITHS)
        reference = channel_grid(params, LEO_ALTITUDE_M, GRID_DIAMETERS, GRID_ZENITHS)
        assert grid.sigma_j2.tobytes() == reference.sigma_j2.tobytes()
        assert grid.av.tobytes() == reference.av.tobytes()
        with pytest.raises(ZeroDivisionError):
            grid.eta_det

    def test_each_factor_runs_once_per_value_of_its_axis(self, monkeypatch):
        calls = []

        def counting(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for module, name in ((beam, "spot_size"), (budget, "spot_size"), (budget, "slant_transmittance"),
                             (budget, "giggenbach_layer_distance")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        params = _grid_params(FluctuationMode.PSI, ApertureModelKind.GIGGENBACH, ScintillationVariant.SEVEN_SIXTHS)
        grid = channel_grid(params, LEO_ALTITUDE_M, GRID_DIAMETERS, GRID_ZENITHS)
        assert grid.eta_det.shape == grid.sigma_j2.shape == (3, 5)
        assert sorted(calls) == ["giggenbach_layer_distance"] * 5 + ["slant_transmittance"] * 5 + ["spot_size"] * 5

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

    @pytest.mark.parametrize("n_zenith", [1, 17])
    @pytest.mark.parametrize("diameters", [(0.5,), DIAMETERS])
    def test_yura_scale_height_once_per_grid(self, monkeypatch, n_zenith, diameters):
        calls = []
        real = budget.turbulence_scale_height

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(budget, "turbulence_scale_height", counting)
        params = _grid_params(FluctuationMode.PSI, ApertureModelKind.YURA, ScintillationVariant.SEVEN_SIXTHS)
        grid = channel_grid(params, LEO_ALTITUDE_M, diameters, np.radians(np.linspace(-80.0, 80.0, n_zenith)))
        assert grid.sigma_j2.shape == (len(diameters), n_zenith)
        assert calls == [(params.turbulence, LEO_ALTITUDE_M)]


def _row_percentiles(z, offset, slope):
    # The sweep's percentiles on a (rows, n) stack, on a copy: the helper
    # partitions its rows in place.
    return budget._loss_percentiles(z.copy(), offset, slope)


class TestLossPercentiles:
    N = [1, 2, 3, 19, 20, 21, 10_000, 10_001, 200_000]

    @staticmethod
    def _inputs(n):
        rng = np.random.default_rng(n)
        tied = rng.integers(-2, 3, n).astype(float)
        return rng.standard_normal(n), rng.lognormal(0.0, 2.0, n), tied

    @pytest.mark.parametrize("n", N)
    def test_equals_numpy_percentile_of_the_mapped_draws_bit_for_bit(self, n):
        for z in self._inputs(n):
            for offset, slope in ((41.3, 2.17), (0.0, 1.0), (-3.5, 1e-3)):
                expected = np.percentile(offset - slope * z, [5, 50, 95]).tolist()
                assert _row_percentiles(z[None], offset, slope)[:, 0].tolist() == expected

    @pytest.mark.parametrize("n", N)
    def test_stacked_rows_equal_numpy_percentile_of_each_mapped_row(self, n):
        # One row per input kind and per (offset, slope), so neighbouring rows
        # differ in their draws, ties, offset and slope.
        offsets = np.array([41.3, 0.0, -3.5, 17.25])
        slopes = np.array([2.17, 1.0, 1e-3, 0.37])
        z = np.array([row for row in self._inputs(n) for _ in offsets])
        offset, slope = np.tile(offsets, 3), np.tile(slopes, 3)
        result = _row_percentiles(z, offset, slope)
        assert result.shape == (3, len(z))
        for r in range(len(z)):
            expected = np.percentile(offset[r] - slope[r] * z[r], [5, 50, 95]).tolist()
            assert result[:, r].tolist() == expected

    def test_midpoint_takes_numpys_upper_formula(self):
        # At t = 0.5, a + (b - a) t and b - (b - a)(1 - t) differ for these
        # neighbours (50000.049999999996 against 50000.05); numpy takes the second.
        z = np.array([-0.1, -1e5])
        assert _row_percentiles(z[None], 0.0, 1.0)[1, 0] == np.percentile(-z, 50) == 50000.05


def _serial_sweep(params, diameters, zeniths, draws, seed):
    # The cell-by-cell arithmetic the concurrent sweep must reproduce exactly:
    # mean and SD of the standard normal draws and a full sort of their
    # deviations, mapped through the affine dB line.
    grid = channel_grid(params, LEO_ALTITUDE_M, diameters, zeniths)
    c = 10.0 / math.log(10.0)
    stats = np.empty((5,) + grid.eta_det.shape)
    for di, zi in np.ndindex(grid.eta_det.shape):
        s2 = float(grid.sigma_j2[di, zi])
        l0 = -10.0 * math.log10(float(grid.eta_det[di, zi]))  # as compose takes it
        if s2 == 0:
            stats[:, di, zi] = [l0, 0.0, l0, l0, l0]
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(di, zi)))
        z = rng.standard_normal(draws)
        slope = c * math.sqrt(s2)
        m = float(z.mean())
        mean = l0 + c * s2 / 2.0 - slope * m
        d = z - m
        sd = slope * math.sqrt(float(np.einsum("i,i->", d, d)) / (draws - 1)) if draws > 1 else 0.0
        loss = np.sort(d)[::-1]  # ascending loss order: z falls as the loss rises
        v = (draws - 1) * np.array([0.05, 0.5, 0.95])
        pct = []
        for vq in v.tolist():
            lo = math.floor(vq) if vq < draws - 1 else -1
            hi = lo + 1 if lo >= 0 else -1
            a, b, t = mean - slope * float(loss[lo]), mean - slope * float(loss[hi]), vq - lo
            pct.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
        stats[:, di, zi] = [mean, sd, *pct]
    return stats


def _old_path_sweep(params, diameters, zeniths, draws, seed):
    # The loss reduced from the fades themselves: -10 log10(eta_det * I).
    grid = channel_grid(params, LEO_ALTITUDE_M, diameters, zeniths)
    stats = np.empty((5,) + grid.eta_det.shape)
    for di, zi in np.ndindex(grid.eta_det.shape):
        s2 = float(grid.sigma_j2[di, zi])
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(di, zi)))
        fades = sample(s2, rng, draws) if s2 > 0 else np.ones(draws)
        loss = -10.0 * np.log10(float(grid.eta_det[di, zi]) * fades)
        sd = loss.std(ddof=1) if draws > 1 else 0.0
        stats[:, di, zi] = [loss.mean(), sd, *np.percentile(loss, [5.0, 50.0, 95.0])]
    return stats


def _sweep_stats(result):
    return np.stack([result.mean_loss_db, result.sd_loss_db, result.p05_db, result.p50_db, result.p95_db])


class TestConcurrentSweep:
    # 8193 draws is one past nditer's buffer; at 50_000 a batch of
    # budget.BATCH_DOUBLES holds two cells, so each worker's block spans
    # several batches and ends in a partial one.
    # A station at 150 km sits above the Cn^2 profile, so sigma^2 is 0 in
    # every cell of a fading mode and every cell keeps its prefilled loss0.
    SWEEP_PARAMS = [pytest.param(default_channel(mode), id=str(mode)) for mode in FluctuationMode] + [
        pytest.param(
            ChannelParams(fluctuation_mode=mode, turbulence=TurbulenceProfile(h_ogs_m=150e3)),
            id=f"{mode}-station-150km",
        )
        for mode in (FluctuationMode.ISI, FluctuationMode.PSI)
    ]

    @pytest.mark.parametrize("draws", [1, 2, 1001, 8193, 50_000])
    @pytest.mark.parametrize("params", SWEEP_PARAMS)
    def test_equals_serial_reference_and_repeats(self, params, draws):
        expected = _serial_sweep(params, GRID_DIAMETERS, GRID_ZENITHS, draws, seed=9)
        runs = [
            _sweep_stats(sweep_pass(channel_grid(params, LEO_ALTITUDE_M, GRID_DIAMETERS, GRID_ZENITHS), draws, seed=9))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], expected)
        np.testing.assert_array_equal(runs[1], expected)

    # At 300 draws each worker's block is one batch; at 50_000 a batch holds
    # two cells, so a block spans several batches and ends in a partial one.
    @pytest.mark.parametrize("draws", [300, 50_000])
    @pytest.mark.parametrize("workers", [1, 2, 7, 64])
    def test_result_does_not_depend_on_worker_count(self, monkeypatch, workers, draws):
        # More workers than cores and a short switch interval interleave the
        # cells as much as possible; a lost or misplaced write would show.
        monkeypatch.setattr(budget, "_worker_count", lambda: workers)
        params = default_channel(mode=FluctuationMode.PSI)
        zeniths = np.radians(np.arange(-80.0, 81.0, 10.0))
        expected = _serial_sweep(params, DIAMETERS, zeniths, draws, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = sweep_pass(channel_grid(params, LEO_ALTITUDE_M, DIAMETERS, zeniths), draws, seed=3)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(_sweep_stats(result), expected)

    # The tests above set the worker count; this one checks that it is read from the CPU affinity,
    # here and in a child process pinned to one CPU.
    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
    def test_worker_count_is_the_cpus_the_process_may_use(self):
        assert budget._worker_count() == len(os.sched_getaffinity(0))
        code = (
            "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from fsolink import budget; print(budget._worker_count())"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(budget.__file__).resolve().parents[1]))
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (child.returncode, child.stdout) == (0, "1\n"), child.stderr

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_error_reaches_the_caller(self, monkeypatch, workers):
        # 20_000 draws give six cells a batch, so each worker reduces several
        # batches; the third batch to reach the percentiles fails.
        calls = itertools.count()
        real = budget._loss_percentiles

        def failing(rows, mean, slope):
            if next(calls) == 2:
                raise RuntimeError("batch failed")
            return real(rows, mean, slope)

        monkeypatch.setattr(budget, "_worker_count", lambda: workers)
        monkeypatch.setattr(budget, "_loss_percentiles", failing)
        zeniths = np.radians(np.arange(-80.0, 81.0, 10.0))
        grid = channel_grid(default_channel(mode=FluctuationMode.PSI), LEO_ALTITUDE_M, DIAMETERS, zeniths)
        with pytest.raises(RuntimeError, match="batch failed"):
            sweep_pass(grid, 20_000, seed=3)
        assert next(calls) > 2

    # The affine map reorders the floating-point operations of the old
    # -10 log10(eta_det * I) path; the two agree far below the 9 significant
    # digits the CSV keeps.
    OLD_PATH_TOLERANCE_DB = 1e-12

    @pytest.mark.parametrize("draws", [1, 2, 1001, 200_000])
    @pytest.mark.parametrize("mode", list(FluctuationMode))
    def test_matches_the_fade_based_loss_path(self, mode, draws):
        params = default_channel(mode=mode)
        expected = _old_path_sweep(params, GRID_DIAMETERS, GRID_ZENITHS, draws, seed=9)
        result = sweep_pass(channel_grid(params, LEO_ALTITUDE_M, GRID_DIAMETERS, GRID_ZENITHS), draws, seed=9)
        np.testing.assert_allclose(_sweep_stats(result), expected, rtol=0.0, atol=self.OLD_PATH_TOLERANCE_DB)


class TestSweepGaussianOracle:
    # At n draws the loss is exactly Gaussian with mean loss0 + c s2/2 and
    # SD c sigma (c = 10/ln 10). Each statistic must lie within this many of
    # its large-sample standard errors of the population value.
    STANDARD_ERRORS = 5.0

    @pytest.mark.parametrize("mode", [FluctuationMode.ISI, FluctuationMode.PSI])
    def test_cell_statistics_match_the_population(self, mode):
        n = 200_000
        params = default_channel(mode=mode)
        zeniths = np.radians([-70.0, 0.0, 45.0])
        grid = channel_grid(params, LEO_ALTITUDE_M, GRID_DIAMETERS, zeniths)
        result = sweep_pass(grid, n, seed=21)
        c = 10.0 / math.log(10.0)
        for di, zi in np.ndindex(grid.eta_det.shape):
            s2 = float(grid.sigma_j2[di, zi])
            assert s2 > 0
            loss = NormalDist(-10.0 * math.log10(grid.eta_det[di, zi]) + c * s2 / 2.0, c * math.sqrt(s2))
            checks = [
                (result.mean_loss_db[di, zi], loss.mean, loss.stdev / math.sqrt(n)),
                (result.sd_loss_db[di, zi], loss.stdev, loss.stdev / math.sqrt(2.0 * (n - 1))),
            ]
            for q, got in ((0.05, result.p05_db), (0.5, result.p50_db), (0.95, result.p95_db)):
                x = loss.inv_cdf(q)
                checks.append((got[di, zi], x, math.sqrt(q * (1 - q) / n) / loss.pdf(x)))
            for got, population, se in checks:
                assert abs(got - population) <= self.STANDARD_ERRORS * se, (di, zi, got, population, se)


class TestStreamStates:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**200)),
        key=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**70)), max_size=3).map(tuple),
        start=st.integers(0, 2**32 - 8),
        count=st.integers(0, 6),
    )
    def test_states_equal_seedsequence_pcg64(self, seed, key, start, count):
        states = stream_states(seed, key, start, start + count)
        assert len(states) == count
        rng = np.random.default_rng(0)
        for i, state in zip(range(start, start + count), states):
            reference = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key + (i,)))
            assert state == reference.state
            rng.bit_generator.state = state
            assert rng.random(3).tolist() == np.random.Generator(reference).random(3).tolist()

    def test_nonzero_start_matches_the_full_range(self):
        assert stream_states(7, (3, 4), 10, 20) == stream_states(7, (3, 4), 0, 20)[10:]

    @pytest.mark.parametrize(("seed", "key", "start", "stop"), [(-1, (), 0, 1), (0, (-2,), 0, 1), (0, (), 3, 2), (0, (), 0, 2**32 + 1)])
    def test_rejects_what_seedsequence_rejects_or_a_multi_word_index(self, seed, key, start, stop):
        with pytest.raises(ValueError):
            stream_states(seed, key, start, stop)


class TestGeneratorCanary:
    """First draws of every Generator method the CLI uses, from one stream_states state.

    NEP 19 keeps SeedSequence and the bit generators stable across numpy
    releases, but not Generator's distribution methods. When a numpy release
    changes one of them, the test named after it fails here.
    """

    DRAWS = [0.7859067677198036, -0.9199529560235964, 1.4715789384981375, 0.1672107598129597]

    @staticmethod
    def _rng():
        rng = np.random.default_rng(0)
        rng.bit_generator.state = stream_states(0, (0,), 0, 1)[0]
        return rng

    def test_standard_normal_into_a_buffer(self):
        out = np.empty(4)
        self._rng().standard_normal(4, out=out)
        assert out.tolist() == self.DRAWS

    def test_standard_normal(self):
        assert self._rng().standard_normal(4).tolist() == self.DRAWS

    def test_normal_vector(self):
        assert self._rng().normal(size=2).tolist() == self.DRAWS[:2]

    def test_normal_matrix(self):
        assert self._rng().normal(size=(2, 2)).tolist() == [self.DRAWS[:2], self.DRAWS[2:]]

    # numpy draws by inversion below a mean of 10 and by PTRS from 10 on.
    @pytest.mark.parametrize(("lam", "draws"), [(3, [7, 2, 3, 1]), (30, [31, 30, 34, 37])])
    def test_scalar_poisson(self, lam, draws):
        rng = self._rng()
        assert [rng.poisson(lam) for _ in range(4)] == draws


def test_sweep_rejects_a_transmittance_that_underflows_to_zero():
    # Like compose, whose math.log10(0) raises: an infinite dB loss is an error, not a table of inf and NaN.
    with pytest.raises(ValueError, match="underflows to zero"):
        sweep_pass(channel_grid(ChannelParams(), LEO_ALTITUDE_M, [2.2250738585072014e-308], [0.0]), 10)
