"""Exact invariants, degeneration order and singularity types for quiver
representations, specialized to nilpotent classes of cyclic quivers."""

from .errors import (
    BadArity,
    BadResidue,
    BadWindow,
    Error,
    Inconsistent,
    LengthMismatch,
    NotADegeneration,
    NotCyclic,
    NotNilpotent,
    OutOfScope,
    ParseError,
    QuiverMismatch,
    RankMismatch,
    ShapeMismatch,
    SocleNotEmbeddable,
    TopNotLiftable,
)
from .linalg import RatMatrix, format_rational, parse_rational
from .reps import (
    Arrow,
    Quiver,
    Representation,
    ext1_dim,
    euler_form,
    hom_dim,
    orbit_dim,
)
from .windows import (
    SimpleMultiset,
    Window,
    WindowMultiset,
    cyclic_quiver,
    decompose_nilpotent,
    is_cyclic_quiver,
    is_nilpotent,
    multiset_hom_dim,
    realize,
    reconstruct_from_socle_quotient,
    window_hom_dim,
)
from .degeneration import (
    HasseDiagram,
    HasseEdge,
    TestSet,
    codim,
    degenerates,
    enumerate_nilpotent,
    hasse,
    hom_profile,
    to_dot,
    to_json_obj,
)
from .singularity import (
    ReductionStep,
    ReductionTrace,
    SingularityType,
    annotate,
    cancel_common,
    classify,
    model_variety_membership,
    socle_reduce,
    top_reduce,
)

__version__ = "0.1.0"
