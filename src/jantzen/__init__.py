"""Exact Jantzen filtrations of Verma and parabolic Verma modules.

The package computes radical layer tables of possibly singular, possibly
nonintegral Verma modules through integral Weyl group combinatorics and
Kazhdan-Lusztig polynomials, and verifies them against two independent
computations: the Jantzen sum formula and a from-scratch contravariant
form, deformed over Q[t] and reduced over the local ring Q[t]_(t).
"""

from jantzen.kl import clear_caches

__version__ = "0.1.0"

__all__ = ["clear_caches"]
