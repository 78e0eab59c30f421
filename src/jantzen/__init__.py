"""Exact Jantzen filtrations of Verma and parabolic Verma modules.

The package computes radical layer tables of possibly singular, possibly
nonintegral Verma modules through integral Weyl group combinatorics and
Kazhdan-Lusztig polynomials, and verifies them against two independent
computations: the Jantzen sum formula and a from-scratch contravariant
form reduction over Q[t].
"""

from jantzen.blocks import Block, DefectError, integral_block, normalize, phi_plus_count
from jantzen.filtration import (
    FiltrationReport,
    LayerTable,
    domination_check,
    jantzen_filtration,
    layers,
    simple_weight_dims,
    sum_formula_check,
)
from jantzen.kl import (
    KLDefectError,
    KLTable,
    build_table,
    clear_caches,
    kl_polynomial,
    table_for,
)
from jantzen.parabolic import (
    ConventionDefectError,
    ParabolicBlock,
    ParabolicLayerTable,
    enumerate_IWJ,
    parabolic_character_check,
    parabolic_layers,
    parabolic_layers_dual_path,
)
from jantzen.poly import Poly
from jantzen.roots import (
    LieType,
    RootSystem,
    Weight,
    build_root_system,
    is_antidominant,
    kostant_partition,
    pairing,
    reflect,
    rho,
)
from jantzen.shapovalov import (
    DegenerateFormError,
    DepthCapError,
    UnsupportedTypeError,
    chevalley_basis,
    gram_matrix,
    jantzen_dims_from_gram,
    oracle_compare,
    smith_normal_form,
)
from jantzen.suite import ACCEPTANCE_TYPES, suite_weights
from jantzen.weyl import (
    CapExceededError,
    CoxeterSystem,
    WeylElem,
    format_word,
    parse_word,
    weyl_group,
)

__version__ = "0.1.0"

__all__ = [
    "ACCEPTANCE_TYPES",
    "Block",
    "CapExceededError",
    "ConventionDefectError",
    "CoxeterSystem",
    "DefectError",
    "DegenerateFormError",
    "DepthCapError",
    "FiltrationReport",
    "KLDefectError",
    "KLTable",
    "LayerTable",
    "LieType",
    "ParabolicBlock",
    "ParabolicLayerTable",
    "Poly",
    "RootSystem",
    "UnsupportedTypeError",
    "Weight",
    "WeylElem",
    "build_root_system",
    "build_table",
    "chevalley_basis",
    "clear_caches",
    "domination_check",
    "enumerate_IWJ",
    "format_word",
    "gram_matrix",
    "integral_block",
    "is_antidominant",
    "jantzen_dims_from_gram",
    "jantzen_filtration",
    "kl_polynomial",
    "kostant_partition",
    "layers",
    "normalize",
    "oracle_compare",
    "pairing",
    "parabolic_character_check",
    "parabolic_layers",
    "parabolic_layers_dual_path",
    "parse_word",
    "phi_plus_count",
    "reflect",
    "rho",
    "simple_weight_dims",
    "smith_normal_form",
    "suite_weights",
    "sum_formula_check",
    "table_for",
    "weyl_group",
]
