"""Schützenberger automata and word-problem decisions for inverse semigroup
presentations, with a static overlap analyzer for the one-relation Adian
classes whose closures are certified to terminate.

Each exported name loads its home module on first use (PEP 562), so a
caller that only parses and classifies presentations, such as the CLI's
check, loads presentation.py alone, and a process's first closure loads
engine.py and word_graph.py.
stephen_kit.<module> resolves after a bare import.
"""

__version__ = "0.1.0"

# Budget's default limits, kept here so that the CLI's parser can show them
# without loading the engine
_MAX_ROUNDS = 64
_MAX_VERTICES = 100_000

_HOMES = {
    "Answer": "decision",
    "BirootedGraph": "word_graph",
    "Budget": "engine",
    "CertificateBasis": "presentation",
    "ClosureResult": "engine",
    "FinitenessCertificate": "presentation",
    "FinitenessVerdict": "presentation",
    "OverlapCase": "presentation",
    "OverlapProfile": "presentation",
    "Presentation": "presentation",
    "PresentationError": "presentation",
    "Status": "engine",
    "Verdict": "decision",
    "Word": "presentation",
    "classify_finiteness": "presentation",
    "count_r_word_occurrences": "presentation",
    "decide_equal": "decision",
    "decide_natural_leq": "decision",
    "is_adian": "presentation",
    "is_idempotent": "decision",
    "overlap_profile": "presentation",
    "parse_presentation": "presentation",
    "parse_word": "presentation",
    "schutzenberger_automaton": "engine",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        # from .<home> import <name>, bound here so later reads skip this
        # hook; importlib.import_module would load importlib and warnings,
        # which nothing on the parse path imports
        module = __import__(_HOMES[name], globals(), fromlist=(name,), level=1)
        value = globals()[name] = getattr(module, name)
        return value
    if name in _HOMES.values():
        # importing a submodule binds it in this namespace
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _HOMES.keys())
