"""Exact covering invariants and coincidence properties of finite spaces.

Finite topological spaces are carried as reachability preorders; continuous
maps are reach-preserving point assignments.  On top of that the package
computes sectional numbers and sectional categories (plain and relative to a
map), Lusternik-Schnirelmann category, fixed-point and coincidence properties,
and runs a property suite that checks the relations between these invariants
over exhaustive censuses and seeded random families.
"""

from .census import (
    InstanceGenerator,
    are_isomorphic,
    canonical_form,
    census_spaces,
    census_up_to,
    cone,
    random_instance,
)
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
from .fileio import (
    Document,
    ParseError,
    format_fence,
    format_map,
    format_space,
    load_document,
    parse_document,
)
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
from .suite import Claim, REGISTRY, SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"
