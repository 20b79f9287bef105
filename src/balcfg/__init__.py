"""Balanced plane vector configurations.

Decide balanced/uniform, build the determinant pairing structure, generate
the closure sequences u_i(t), w_i(t) exactly, solve for the closure-parameter
grid with certified root isolation, reconstruct configurations from seed
triples, and canonicalize uniform balanced configurations of odd size onto
the roots of unity by an explicit invertible map.
"""

from .balance import (
    BalanceReport,
    PairingMap,
    StepConstants,
    build_pairing,
    even_m_witness,
    is_balanced,
    is_uniform,
    step_constants,
    verify_antisymmetry,
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
    reconstruct_from_triple,
)
from .errors import (
    AmbiguousPairing,
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
    cyclic_index,
    det2,
    label_by_increasing_arguments,
    roots_of_unity,
    unit_vector,
)
from .search import SearchSpec, enumerate_balanced, perturb, random_invertible
from .sequences import (
    ParityVerdict,
    PolyPair,
    RootGrid,
    check_parity_degrees,
    model_configuration,
    numeric_sequences,
    symbolic_sequences,
    t_grid,
    wn_equation_roots,
)
from .serialization import load_config, parse_config, save_config, serialize_config

__version__ = "0.1.0"

__all__ = [
    "AmbiguousPairing",
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
    "PairingMap",
    "ParityVerdict",
    "PlaneVector",
    "PolyPair",
    "ResidualTooLarge",
    "RootGrid",
    "SearchSpec",
    "SingularFrame",
    "StepConstants",
    "argument",
    "build_pairing",
    "canonicalize",
    "check_parity_degrees",
    "cyclic_index",
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
    "numeric_sequences",
    "parse_config",
    "perturb",
    "random_invertible",
    "reconstruct_from_triple",
    "roots_of_unity",
    "unit_vector",
    "save_config",
    "serialize_config",
    "step_constants",
    "symbolic_sequences",
    "t_grid",
    "verify_antisymmetry",
    "wn_equation_roots",
]
