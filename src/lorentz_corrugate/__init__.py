"""Corrugation engine for spacelike surfaces in Minkowski 3-space."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    ConeViolation,
    ConfigError,
    DegeneratePlane,
    DomainError,
    EngineError,
    GridMismatch,
    LostSpacelike,
    NotLong,
    NotPSD,
    NotRiemannian,
    SingularMetric,
    UnknownScenario,
)
from .fields import (
    EmbeddingJet,
    Grid,
    LinearForm,
    MetricField,
    c0_distance,
    corrugation_frame,
    export_obj,
    isometric_default,
    operator_norm_form,
    operator_norm_map,
    pullback_metric,
)
from .decomp import FormDictionary, PrimitiveDecomposition, build_dictionary, decompose
from .corrugation import (
    apply_corrugation,
    phi,
    phi_inverse,
    phi_prime,
    prepare_step,
    radial_factor,
    select_corrugation_number,
    successive_cp,
)
from .bounds import (
    compute_constants,
    growth_constant,
    increment_constant,
    psi,
    psi1,
    psi2,
)
from .scheduler import RunLedger, run_nash_kuiper, run_stage
from .scenarios import scenario, SCENARIOS
