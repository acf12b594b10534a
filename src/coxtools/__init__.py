"""coxtools: a computational toolkit for finite Coxeter groups.

Root systems, reflection decompositions of longest elements, cores of
normalizers, centralizers of involution-generated normal subgroups,
direct-indecomposability and abstract-isomorphism decisions, and
automorphism-group accounting, each cross-checked against a
brute-force finite-group engine.
"""

from .classify import (
    INFINITE,
    TypeLabel,
    build_named,
    classify_components,
    classify_irreducible,
    group_order,
    parse_type_label,
)
from .deodhar import (
    ReflectionDecomposition,
    decompose_on_table,
    deodhar_decompose,
    highest_roots,
    longest_element,
    longest_word,
)
from .engine import (
    EnumeratedGroup,
    GroupView,
    SubgroupHandle,
    automorphism_count,
    centralizer,
    core,
    enumerate_group,
    find_isomorphism,
    normalizer,
    subgroup_closure,
)
from .errors import (
    CapExceededError,
    CoxeterError,
    GraphParseError,
    InfiniteTypeError,
    RootLookupError,
    VerificationError,
)
from .graph import (
    INF,
    CoxeterGraph,
    components,
    graph_isomorphism,
    graph_isomorphisms,
    parse_graph,
    perp,
    render_graph,
)
from .hommonoid import CentralHom, central_homs, flat, hom_space, invert, is_invertible, star
from .isomorph import (
    ComponentMultiset,
    DirectDecomposition,
    admissible_factor_handles,
    admissible_refinement,
    aut_decomposition,
    aut_order_symproduct,
    coxeter_isomorphic,
    factor_isomorphism,
)
from .rootspace import (
    RootTable,
    apply_generator,
    bilinear_form,
    enumerate_roots,
    phi_w,
    support,
)
from .structure import (
    SubgroupDescription,
    center_direct_factor,
    centralizer_of_normal_closure,
    core_of_normalizer,
    is_directly_indecomposable,
    richardson_form,
    special_subgroup,
    x_h,
)
from .suites import ALL_SUITES, SuiteResult, run_suites

__version__ = "0.1.0"
