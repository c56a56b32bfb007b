"""toricomplex: exact complexity invariants of toric pairs.

A toric variety is presented by its fan (lattice rank, primitive rays,
maximal cones as ray-index sets); boundaries are invariant Q-divisors given
by one rational coefficient per ray.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    ToricomplexError,
    ClaimFailedError,
    InvalidInputError,
    InternalInvariantError,
    NotPointedError,
    snf,
    kernel_basis,
    cokernel,
    AbelianGroupPresentation,
    hilbert_basis,
)
from .fan import (  # noqa: F401
    Fan,
    InvalidFanError,
    make_fan,
    star_subdivision,
)
from .divisor import (  # noqa: F401
    NotQCartierError,
    is_ample,
    is_nef,
)
from .pairmodel import (  # noqa: F401
    InvalidPairError,
    ToricPair,
    build_pair,
    pair_from_dict,
    pair_to_dict,
    is_log_cy,
    is_log_canonical,
)
from .complexity import (  # noqa: F401
    Decomposition,
    InvalidDecompositionError,
    NotLogCanonicalError,
    make_decomposition,
    complexity,
    complexity_values,
    fine_complexity,
    orbifold_complexity,
    minimize,
    local_complexity_cloc,
)

# The adjunction, surgery and cone modules load on first use of one of
# their names, so a process that only builds pairs and minimizes never
# loads them.
_LAZY = {
    "adjunction": ("HypothesisViolationError", "LcViolationError",
                   "check_adjunction", "induced_decomposition"),
    "birational": ("NotLcPlaceError", "CrepancyError", "contraction",
                   "small_modification", "extraction", "check_contraction",
                   "check_small", "check_extraction", "log_discrepancy"),
    "conecox": ("NotAmpleError", "NotInteriorError", "TorsionObstructionError",
                "cone_over", "polarize", "cox_degrees", "degree_zero_monoid",
                "verify_cone_iso"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items()
              for name in names}


def __getattr__(name):
    from importlib import import_module
    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name in _LAZY_HOME:
        return getattr(import_module(f".{_LAZY_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
