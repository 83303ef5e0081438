"""Legendrian and transverse negative torus knots T(p, -q).

Surgery presentations, classical invariants (tb, rot, d3), coarse
classification (tight / loose / strongly non-loose), knot Floer tower
decompositions, and the lens-space reduction, with a verification suite
tying them together.

The package exports what the command line uses and the result types it
returns; everything else is reached through its module (legknots.floer,
legknots.diagram, ...).
"""

from .cf import (
    TorusKnotParams,
    VerificationError,
    complementary_expansions,
    neg_cf,
    torus_knot_params,
)
from .checks import check_names, run_all
from .classify import EquivClass, classify_level, transverse_classes
from .diagram import Presentation, chain_tbs
from .floer import GradedModule, Tower, hfk_minus, match_invariants
from .invariants import ClassicalInvariants, presentations_with_invariants
from .lens import surjectivity_check

__version__ = "0.1.0"

__all__ = [
    "ClassicalInvariants",
    "EquivClass",
    "GradedModule",
    "Presentation",
    "TorusKnotParams",
    "Tower",
    "VerificationError",
    "chain_tbs",
    "check_names",
    "classify_level",
    "complementary_expansions",
    "hfk_minus",
    "match_invariants",
    "neg_cf",
    "presentations_with_invariants",
    "run_all",
    "surjectivity_check",
    "torus_knot_params",
    "transverse_classes",
]
