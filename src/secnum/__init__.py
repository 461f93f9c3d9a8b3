"""Exact covering invariants and coincidence properties of finite spaces.

Finite topological spaces are carried as reachability preorders; continuous
maps are reach-preserving point assignments.  On top of that the package
computes sectional numbers and sectional categories (plain and relative to a
map), Lusternik-Schnirelmann category, fixed-point and coincidence properties,
and runs a property suite that checks the relations between these invariants
over exhaustive censuses and seeded random families.

`import secnum` loads the calculator: the modules of spaces, covers,
homotopy, the sectional numbers, the coincidence checkers, budgets and the
extended naturals.  The census, the text format and the property suite load
on first use: a name such as `secnum.census_spaces`, `secnum.Document` or
`secnum.SuiteConfig` imports its module when it is first read.
"""

from importlib import import_module as _import_module

from .coincidence import (
    CoincidenceVerdict,
    TheoremReport,
    check_cp_implies_fpp,
    check_key_lemma,
    check_main_theorem,
    check_remark,
    has_cp,
    has_fpp,
)
from .extnat import INF, ExtNat
from .finspace import (
    CMap,
    DiscontinuityError,
    FinSpace,
    OpenSet,
    compose,
    configuration_space,
    connected_components,
    constant_map,
    discrete_space,
    empty_space,
    enumerate_maps,
    identity_map,
    is_connected,
    is_hausdorff,
    make_map,
    make_space,
    minimal_open,
    product,
    pseudocircle,
    pullback,
    sierpinski,
    subspace,
    subspace_of_mask,
)
from .cover import CoverCertificate, CoverResult
from .homotopy import (
    Core,
    Fence,
    cat,
    core,
    homotopic,
    homotopy_fence,
    is_contractible,
)
from .resources import Budget, BudgetExhausted, LimitExceeded, SelfCheckFailed
from .sectional import (
    TcBounds,
    relative_sec,
    relative_secat,
    relative_tc_bounds,
    sec,
    secat,
)

__version__ = "0.1.0"

# names whose module loads on first access, by module
_LAZY_MODULES = {
    "census": (
        "InstanceGenerator",
        "are_isomorphic",
        "canonical_form",
        "census_spaces",
        "census_up_to",
        "cone",
        "random_instance",
    ),
    "fileio": (
        "Document",
        "ParseError",
        "format_fence",
        "format_map",
        "format_space",
        "load_document",
        "parse_document",
    ),
    "suite": ("Claim", "REGISTRY", "SuiteConfig", "SuiteReport", "run_suite"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    if name in _LAZY_MODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_MODULES) | set(_LAZY))
