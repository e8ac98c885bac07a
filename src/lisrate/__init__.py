"""Uplink rate laboratory for surface-based large antenna arrays.

Two engines cross-check each other: an exact Monte-Carlo simulator of the
imperfect-CSI matched-filter SINR, and a closed-form asymptotic engine for
the rate's mean, variance, and large-M bound.  Import names from their
modules (`lisrate.mc_engine`, `lisrate.experiments`, ...).
"""

__version__ = "0.1.0"
