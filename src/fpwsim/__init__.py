"""Flexural plate wave resonator simulation and liquid density sensing."""

from .plate_materials import CompositePlate, MaterialLayer, unloaded_velocity
from .fpw_dispersion import (
    ConvergenceError,
    LiquidLoad,
    LoadingState,
    NoSolutionError,
    VelocitySolution,
    density_from_frequency,
    evanescent_decay_length,
    loaded_velocity,
    sensitivities,
)
from .com_resonator import (
    ComParameters,
    DeviceGeometry,
    FrequencyResponse,
    NoResonanceError,
    ResonanceSummary,
    design_spacing,
    find_resonance,
    fpw_device_response,
    grating_scattering,
    s21_sweep,
    write_sweep_csv,
)
from .liquid_sensing import (
    CalibrationFit,
    CouplingReport,
    DegenerateFitError,
    LiquidSample,
    PRESET_LIQUIDS,
    fit_density_sensitivity,
    invert_density_calibrated,
    load_liquid_library,
    load_reference_datasets,
    predict_frequency,
    viscosity_coupling_report,
)
from .config import ConfigError, DeviceConfig, parse_device_config

__version__ = "0.1.0"
