"""Uplink rate laboratory for surface-based large antenna arrays.

Two engines cross-check each other: an exact Monte-Carlo simulator of the
imperfect-CSI matched-filter SINR, and a closed-form asymptotic engine for
the rate's mean, variance, and large-M bound.
"""

from .asymptotics import (
    LinkMoments,
    MomentPair,
    UNBOUNDED,
    error_leak_moments,
    interference_term_moments,
    noise_term_moments,
    total_interference_moments,
    interference_mean_limit,
    interference_pair_covariance,
    p_bar,
    p_integral,
    q_bar,
    q_integral,
    rate_moments,
    sinr_moments,
    asymptotic_rate_moments,
    rate_bound,
)
from .channel import (
    PathSet,
    Scattering,
    correlation_factor,
    los_channel,
    nlos_scattering,
    ula_steering,
    upa_steering,
)
from .geometry import (
    AntennaGrid,
    Device,
    build_grid,
    distance,
    los_gain,
    place_devices_grid,
    place_devices_uniform,
)
from .mc_engine import (
    Drop,
    Link,
    MomentEstimate,
    compute_terms,
    draw_fading,
    estimate_moments,
    estimated_channel,
    rate_sample,
    run_monte_carlo,
    sinr_direct,
)
from .experiments import (
    RateReport,
    ScenarioConfig,
    los_probability,
    make_drop,
    optimal_l_search,
    rician_factor,
    run_scenario,
    write_csv,
)
from .baseline_mimo import build_mimo_drop

__version__ = "0.1.0"
