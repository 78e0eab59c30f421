"""Exact Jantzen filtrations of Verma and parabolic Verma modules.

The package computes radical layer tables of possibly singular, possibly
nonintegral Verma modules through integral Weyl group combinatorics and
Kazhdan-Lusztig polynomials, and verifies them against two independent
computations: the Jantzen sum formula and a from-scratch contravariant
form, deformed over Q[t] and reduced over the local ring Q[t]_(t).
"""

import sys

__version__ = "0.1.0"

__all__ = ["clear_caches"]

# caches that hold constants of a type, built once and never cleared
_CONSTANTS = ("build_root_system", "chevalley_basis")


def clear_caches() -> None:
    """Forget every KL table (``kl._table``), interned Coxeter system,
    truncated partition table, per-block orbit entry (w(mu), w(mu) - mu),
    W^J bitmask, module's layer rows (``filtration._layer_rows``), simple
    character, parabolic character rows per shift list with their verdict
    (``parabolic._character_rows``) and generic Verma module per type
    (``shapovalov._generic_verma``, with its Z[lambda] action memo and its
    Gram matrices per offset): every memo of the package but the per-type
    constants ``build_root_system`` and ``chevalley_basis``.

    The memos are the functools caches of the submodules loaded so far;
    one not yet imported has filled none."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("jantzen."):
            for attr, value in vars(mod).items():
                if hasattr(value, "cache_clear") and attr not in _CONSTANTS:
                    value.cache_clear()
