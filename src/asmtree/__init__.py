"""Exact enumeration of assembly trees of graphs.

Counts and enumerates the rooted trees describing stepwise assemblies of a
connected graph (binary with a crossing edge at every join, or the laxer
connected-label variant), evaluates the known closed forms, expands the
exponential generating functions of blown-up template graphs, extracts
series diagonals, verifies and guesses the polynomial recurrences those
diagonals satisfy, and measures their growth numerically. All counting is
exact; floating point appears only in the asymptotics layer.
"""

from .asymptotics import (
    GrowthModel,
    LogSequence,
    estimate_lambda,
    fit_model,
    log_sequence,
)
from .errors import (
    AsmtreeError,
    CapExceeded,
    ComputationRefused,
    DisconnectedGraph,
    EngineError,
    InputError,
    LeadingCoefficientZero,
    NoConvergentExponent,
)
from .graphs import (
    FAMILY_NAMES,
    Graph,
    HSpec,
    build_h_graph,
    family,
    graph_from_json,
    graph_to_json,
    hspec_from_json,
    is_connected_subset,
    relabel,
)
from .rationals import binom_half, format_rational, parse_rational
from .recurrences import (
    PRecurrence,
    VerifyResult,
    builtin,
    extend,
    guess,
    same_extension,
    verify,
)
from .series import (
    TruncatedSeries,
    b_egf,
    count_from_egf,
    diag_formula_easyex,
    diagonal,
    hgraph_egf,
)
from .trees import (
    AssemblyTree,
    CanonicalCode,
    closed_form,
    count_connected_rule,
    count_edge_rule,
    enumerate_connected_rule,
    enumerate_connected_rule_trees,
    enumerate_edge_rule,
    enumerate_edge_rule_trees,
    gluing_sequence_tree,
    spanning_trees,
    trees_from_gluing_sequences,
)

__version__ = "0.1.0"
