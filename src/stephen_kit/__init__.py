"""Schützenberger automata and word-problem decisions for inverse semigroup
presentations, with a static overlap analyzer for the one-relation Adian
classes whose closures are certified to terminate."""

from .decision import Answer, Verdict, decide_equal, decide_natural_leq, is_idempotent
from .engine import (
    Budget,
    ClosureResult,
    Direction,
    ExpansionSite,
    Status,
    close,
    find_expansions,
    schutzenberger_automaton,
)
from .presentation import (
    CertificateBasis,
    FinitenessCertificate,
    FinitenessVerdict,
    Letter,
    OverlapCase,
    OverlapProfile,
    Presentation,
    PresentationError,
    SideGraph,
    Word,
    classify_finiteness,
    count_r_word_occurrences,
    is_adian,
    overlap_profile,
    parse_presentation,
    parse_word,
    side_graphs,
)
from .word_graph import BirootedGraph, fold, linear_graph

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "BirootedGraph",
    "Budget",
    "CertificateBasis",
    "ClosureResult",
    "Direction",
    "ExpansionSite",
    "FinitenessCertificate",
    "FinitenessVerdict",
    "Letter",
    "OverlapCase",
    "OverlapProfile",
    "Presentation",
    "PresentationError",
    "SideGraph",
    "Status",
    "Verdict",
    "Word",
    "classify_finiteness",
    "close",
    "count_r_word_occurrences",
    "decide_equal",
    "decide_natural_leq",
    "find_expansions",
    "fold",
    "is_adian",
    "is_idempotent",
    "linear_graph",
    "overlap_profile",
    "parse_presentation",
    "parse_word",
    "schutzenberger_automaton",
    "side_graphs",
]
