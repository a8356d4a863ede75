"""Schützenberger automata and word-problem decisions for inverse semigroup
presentations, with a static overlap analyzer for the one-relation Adian
classes whose closures are certified to terminate."""

from .decision import Answer, Verdict, decide_equal, decide_natural_leq, is_idempotent
from .engine import Budget, ClosureResult, Status, schutzenberger_automaton
from .presentation import (
    CertificateBasis,
    FinitenessCertificate,
    FinitenessVerdict,
    OverlapCase,
    OverlapProfile,
    Presentation,
    PresentationError,
    Word,
    classify_finiteness,
    count_r_word_occurrences,
    is_adian,
    overlap_profile,
    parse_presentation,
    parse_word,
)
from .word_graph import BirootedGraph

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "BirootedGraph",
    "Budget",
    "CertificateBasis",
    "ClosureResult",
    "FinitenessCertificate",
    "FinitenessVerdict",
    "OverlapCase",
    "OverlapProfile",
    "Presentation",
    "PresentationError",
    "Status",
    "Verdict",
    "Word",
    "classify_finiteness",
    "count_r_word_occurrences",
    "decide_equal",
    "decide_natural_leq",
    "is_adian",
    "is_idempotent",
    "overlap_profile",
    "parse_presentation",
    "parse_word",
    "schutzenberger_automaton",
]
