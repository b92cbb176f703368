"""Link-level simulator for a dual-polarized reflective-surface MIMO-QAM link.

The transmitter is an array of phase-only reflective cells driven by
periodic phase ramps; data rides on the first lower harmonic of the symbol
clock in two polarizations at once.  The package models the signal chain
end to end: baseband model identities, ramp modulation with an exact
Fourier oracle, control-path hardware impairments, line-of-sight channels,
a zero-forcing receiver, and seeded Monte Carlo BER campaigns.
"""

__version__ = "0.1.0"
