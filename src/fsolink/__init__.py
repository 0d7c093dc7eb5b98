"""Optical satellite downlink simulator: link budget and state tomography.

Composes extinction, diffraction, and turbulence-induced fading into a
satellite-to-ground transmittance model, sweeps photon loss over zenith
angle and telescope diameter for LEO/MEO passes, and drives a SIC-POVM
qubit tomography experiment through the resulting channel.
"""

import os

# Set before numpy loads: BLAS only sees 2x2 matrices here, and an idle
# OpenBLAS pool spins its threads for CPU time. A caller's value is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .beam import BeamParams, diffraction_transmittance, spot_size
from .budget import (
    LEO_ALTITUDE_M,
    MEO_ALTITUDE_M,
    ChannelGrid,
    ChannelParams,
    FluctuationMode,
    SweepResult,
    TransmittanceBreakdown,
    channel_grid,
    compose,
    sweep_pass,
)
from .extinction import (
    ExtinctionParams,
    beer_lambert,
    exact_slant_transmittance,
    slant_transmittance,
    zenith_transmittance,
)
from .fading import FadingModel, pdf, sample
from .geometry import (
    EARTH_MU_M3_S2,
    EARTH_RADIUS_M,
    LinkGeometry,
    PassTimes,
    pass_times,
    slant_range,
)
from .qst import (
    EnsembleKind,
    FadingResample,
    FidelityTable,
    Reconstruction,
    TomographyConfig,
    TomographyResult,
    born_probabilities,
    bures_random_mixed,
    cholesky_to_rho,
    fidelity,
    fidelity_vs_zenith,
    fit_state,
    haar_random_pure,
    run_ensemble,
    sic_povm_qubit,
    simulate_counts,
)
from .quadrature import QuadratureError, adaptive_simpson
from .turbulence import (
    ApertureModel,
    ApertureModelKind,
    Regime,
    ScintillationResult,
    ScintillationVariant,
    TurbulenceProfile,
    av_andrews,
    av_giggenbach,
    av_yura,
    cn2,
    giggenbach_layer_distance,
    psi,
    rytov_downlink,
    rytov_horizontal,
    scintillation_index,
    turbulence_scale_height,
)

__version__ = "0.1.0"
