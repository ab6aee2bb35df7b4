"""Spectral laboratory for a logarithmic Schrodinger operator on closed
model manifolds: explicit eigendata, functional calculus, forward solves,
boundary-style observation records, spectral-data extraction, unique
continuation diagnostics, and potential recovery."""

__version__ = "0.1.0"
