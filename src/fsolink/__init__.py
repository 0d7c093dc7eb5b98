"""Optical satellite downlink simulator: link budget and state tomography.

Composes extinction, diffraction, and turbulence-induced fading into a
satellite-to-ground transmittance model, sweeps photon loss over zenith
angle and telescope diameter for LEO/MEO passes, and drives a SIC-POVM
qubit tomography experiment through the resulting channel.
"""

import os

# Set before numpy loads; a caller's value is kept. Nothing here reaches BLAS or LAPACK, but an idle
# pool spins: a Haar qst run took 446 ms of CPU with 2 threads and 311 ms with 1 (12 runs each).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .beam import BeamParams, spot_size
from .budget import (
    LEO_ALTITUDE_M,
    MEO_ALTITUDE_M,
    ChannelGrid,
    ChannelParams,
    FluctuationMode,
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
from .fading import pdf, sample
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
    Reconstruction,
    TomographyConfig,
    TomographyResult,
    born_probabilities,
    bures_random_mixed,
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
