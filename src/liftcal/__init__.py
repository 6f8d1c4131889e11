"""Lifted constant propagation for #if-annotated program families.

The package analyzes all variants of a small imperative program family at
once, offers a calculus of variability abstractions (join, projection, and
their compositions) that trades precision for speed, derives the abstracted
analysis, and rewrites program families source-to-source so that analyzing
the rewritten family coincides with the abstracted analysis of the original.
"""

from .abstraction import (
    Abstraction,
    Compose,
    FIgnore,
    FProj,
    Join,
    JoinPhi,
    Product,
    Proj,
    abstract_configs,
    alpha_apply,
    fignore_expand,
    gamma_apply,
    parse_abstraction,
)
from .errors import LiftcalError, ParseError, SemanticError, UndeclaredFeature
from .featexp import (
    Config,
    ConfigSet,
    FeatureModel,
    FeatureSpace,
    entails,
    equiv,
    eval_featexp,
    parse_featexp,
    sat,
    valid_configs,
)
from .lang import Program, parse_program, preprocess, pretty, program_vars
from .lattice import CONST, CONST_PLUS, LiftedStore, Store
from .lifted import analyze_lifted, analyze_single
from .abstracted import analyze_abstracted, build_dataflow, solve_dataflow
from .reconfig import reconfigure
from .oracle import brute_force_lifted

__all__ = [name for name in dir() if not name.startswith("_")]
