"""Link-level simulator for a dual-polarized reflective-surface MIMO-QAM link.

The transmitter is an array of phase-only reflective cells driven by
periodic phase ramps; data rides on the first lower harmonic of the symbol
clock in two polarizations at once.  The package models the signal chain
end to end: baseband model identities, ramp modulation with an exact
Fourier oracle, control-path hardware impairments, line-of-sight channels,
a zero-forcing receiver, and seeded Monte Carlo BER campaigns.
"""

__version__ = "0.1.0"

from .model import (
    AttenuationDiagonal,
    ChannelSet,
    Polarization,
    ReceivedVector,
    ReflectionVector,
    attenuation_from,
    build_phi,
    received_full,
    received_reduced,
)
from .modulation import (
    CONSTELLATION16,
    HarmonicCoefficient,
    TmSymbolParams,
    harmonic_closed_form,
    harmonic_exact,
    map_bits_to_qam,
    qam_to_tm,
    waveform,
)
from .hardware import (
    HardwareConfig,
    PhaseVoltageLut,
    apply_coupling,
    default_lut,
    distort_reflection,
    ideal_hardware,
    load_lut_csv,
    phase_to_voltage,
    voltage_to_phase,
)
from .channel import (
    ChannelModelSpec,
    Geometry,
    awgn,
    build_h1_los,
    build_h2,
    carrier_decomposition,
    effective_stream_channel,
)
from .receiver import (
    BerRecord,
    PilotBlock,
    default_pilot_block,
    estimate_channel,
    extract_harmonic,
    theoretical_ber_16qam,
    zf_equalize,
)
from .config import CampaignConfig, ConfigError, config_hash, load_config
from .campaign import (
    CampaignResult,
    LinkEngine,
    coupling_penalty_report,
    export_waveform,
    run_ber_sweep,
    run_file_loopback,
    run_oracle_check,
    write_ber_csv,
)

__all__ = [
    "__version__",
    "AttenuationDiagonal",
    "BerRecord",
    "CampaignConfig",
    "CampaignResult",
    "ChannelModelSpec",
    "ChannelSet",
    "ConfigError",
    "CONSTELLATION16",
    "Geometry",
    "HardwareConfig",
    "HarmonicCoefficient",
    "LinkEngine",
    "PhaseVoltageLut",
    "PilotBlock",
    "Polarization",
    "ReceivedVector",
    "ReflectionVector",
    "TmSymbolParams",
    "apply_coupling",
    "attenuation_from",
    "awgn",
    "build_h1_los",
    "build_h2",
    "build_phi",
    "carrier_decomposition",
    "config_hash",
    "coupling_penalty_report",
    "default_lut",
    "default_pilot_block",
    "distort_reflection",
    "effective_stream_channel",
    "estimate_channel",
    "export_waveform",
    "extract_harmonic",
    "harmonic_closed_form",
    "harmonic_exact",
    "ideal_hardware",
    "load_config",
    "load_lut_csv",
    "map_bits_to_qam",
    "phase_to_voltage",
    "qam_to_tm",
    "received_full",
    "received_reduced",
    "run_ber_sweep",
    "run_file_loopback",
    "run_oracle_check",
    "theoretical_ber_16qam",
    "voltage_to_phase",
    "waveform",
    "write_ber_csv",
    "zf_equalize",
]
