"""starfree: spectral and structural workbench for graphs avoiding a star forest."""

from .enumeration import EnumerationCache, GraphClass, enumerate_graphs, parse_graph_class
from .errors import (
    BadEdge,
    Disconnected,
    DivisionByZeroK2,
    EmptyClass,
    EmptyGraph,
    NegativeDiscriminant,
    NoRegularGraph,
    OrderTooLarge,
    ParamOutOfRange,
    ParseError,
    StarfreeError,
)
from .families import (
    BoundReport,
    circulant_regular,
    evaluate_bound,
    least_eigenvalue_bound,
    make_clique_join_matching,
    make_clique_join_regular,
    make_complete_bipartite,
    make_complete_split,
    make_complete_split_plus_edge,
    order_threshold,
    radius_bound_bipartite,
    radius_bound_general,
    signless_radius_bound,
    threshold_report,
)
from .graphs import (
    CanonicalForm,
    Graph,
    canonical_form,
    complete_graph,
    edges,
    empty_graph,
    from_edges,
    graph6_decode,
    graph6_encode,
    is_bipartite,
    is_connected,
    join,
    relabel,
    union,
)
from .search import (
    EdgeBoundViolation,
    QMarginRow,
    QMarginTable,
    SearchRecord,
    SuiteResult,
    conjecture_margin_table,
    extremal_search,
    read_records,
    verify_bipartite_spectra,
    verify_edge_bound,
    verify_join_regular_bound,
    write_records,
)
from .spectra import (
    PerronData,
    SpectrumResult,
    adjacency_spectra,
    adjacency_spectrum,
    check_perron_floor,
    extreme_eigenvalues,
    jacobi_eigensystem,
    least_eigenvalue,
    perron_vector,
    signless_laplacian_radius,
    spectral_radius,
)
from .star_forests import (
    StarForest,
    avoids_star_forest,
    coarse_edge_bound,
    contains_star_forest,
    contains_star_forest_oracle,
    parse_star_forest,
)

__version__ = "0.1.0"
