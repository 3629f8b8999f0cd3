"""Desk-scale pipeline: reversible machines, self-looping permutation
circuits, clock-observable spectra, and accuracy-limited decision tests."""

__version__ = "0.1.0"
