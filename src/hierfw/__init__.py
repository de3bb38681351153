"""Numerical laboratory for hierarchically interacting Fisher-Wright
diffusions with layered seed-banks: forward simulation, dual coalescent,
clustering analysis and the renormalisation orbit."""

__version__ = "0.6.0"
