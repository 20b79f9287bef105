"""Balanced plane vector configurations.

Decide balanced/uniform with witnesses, read the step constants, solve the
closure equation w_n(t) = (1, 0) for its parameter grid by certified root
isolation, canonicalize uniform balanced configurations of odd size onto
the roots of unity by an explicit invertible map, and search rational grids
for balanced sets.
"""

from .balance import (
    BalanceReport,
    StepConstants,
    even_m_witness,
    is_balanced,
    is_uniform,
    step_constants,
)
from .canonical import (
    CanonicalForm,
    EquivalenceVerdict,
    LinearMap2,
    canonicalize,
    extract_t,
    frame_map,
    gl2_equivalent,
    match_k,
)
from .errors import (
    BalcfgError,
    BudgetExceeded,
    CertificateError,
    ConfigFileError,
    DuplicateArgument,
    InconsistentConstants,
    NoGridMatch,
    NotBalanced,
    NotNormalized,
    NotUniform,
    ResidualTooLarge,
    SingularFrame,
)
from .geometry import (
    Configuration,
    PlaneVector,
    argument,
    det2,
    label_by_increasing_arguments,
    roots_of_unity,
    unit_vector,
)
from .search import SearchSpec, enumerate_balanced, perturb, random_invertible
from .sequences import RootGrid, model_configuration, t_grid
from .serialization import load_config, parse_config, save_config, serialize_config

__version__ = "0.1.0"

__all__ = [
    "BalanceReport",
    "BalcfgError",
    "BudgetExceeded",
    "CanonicalForm",
    "CertificateError",
    "ConfigFileError",
    "Configuration",
    "DuplicateArgument",
    "EquivalenceVerdict",
    "InconsistentConstants",
    "LinearMap2",
    "NoGridMatch",
    "NotBalanced",
    "NotNormalized",
    "NotUniform",
    "PlaneVector",
    "ResidualTooLarge",
    "RootGrid",
    "SearchSpec",
    "SingularFrame",
    "StepConstants",
    "argument",
    "canonicalize",
    "det2",
    "enumerate_balanced",
    "even_m_witness",
    "extract_t",
    "frame_map",
    "gl2_equivalent",
    "is_balanced",
    "is_uniform",
    "label_by_increasing_arguments",
    "load_config",
    "match_k",
    "model_configuration",
    "parse_config",
    "perturb",
    "random_invertible",
    "roots_of_unity",
    "save_config",
    "serialize_config",
    "step_constants",
    "t_grid",
    "unit_vector",
]
