"""Stored-energy simulator for double-quench charging of integrable spin chains.

The dimerized XY battery is solved in momentum space (``xy``, ``quench``),
the transverse-field Ising battery in closed form (``ising``), charging
regimes and sweeps live in ``regimes``, and ``ed`` provides the dense
spin-space oracle used to verify everything at small sizes.
"""

from .ed import (
    DegenerateGroundStateError,
    DegenerateGroundStateWarning,
    DimerizedXY,
    SpinHamiltonian,
    TransverseIsing,
    build_hamiltonian,
    even_sector_ground_state,
    oracle_energy_trace,
)
from .ising import (
    IsingModeData,
    IsingParams,
    bogoliubov_angle,
    ising_asymptotic_energy,
    ising_dispersion,
    ising_energy_at_times,
    ising_energy_stored,
    ising_energy_trace,
    ising_mode_data,
)
from .quench import (
    EnergyTrace,
    MatchingMatrix,
    QuenchProtocol,
    asymptotic_energy,
    energy_at_times,
    energy_stored,
    energy_trace,
    matching_matrix,
    occupations,
    occupations_all,
    resolution_bound,
)
from .regimes import (
    RegimeDetectionError,
    RegimeReport,
    ScalingRow,
    SweepRow,
    analyze_trace,
    default_recurrence_window,
    find_recurrence,
    find_short_time_max,
    ising_recurrence_window,
    linear_fit,
    occupation_snapshot,
    scaling_study,
    sweep_delta0,
    sweep_field,
)
from .xy import (
    BlochMatrix,
    ChainParams,
    ModeIndex,
    ModeSpectrum,
    Phase,
    bloch_hamiltonian,
    classify_phase,
    dispersion,
    ground_energy,
    mode_eigensystem,
    momentum_modes,
    spectral_gap,
)

__version__ = "0.1.0"
