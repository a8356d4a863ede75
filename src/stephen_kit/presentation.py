"""Positive presentations of inverse semigroups.

Parsing and validation of presentation files, the edges of the left and
right side graphs (whose vertices are the alphabet), the Adian
(cycle-free) property, overlap analysis of the two sides of a
one-relation presentation, and the finiteness certificate that the overlap
case determines.

File format (UTF-8, line oriented, ``#`` starts a comment)::

    X: a b          # alphabet, whitespace separated letters
    R: ab = ba      # one relation per line, both sides positive

Letters are maximal runs of non-space characters; ``=``, ``:``, ``^`` and
``#`` are reserved, and no multi-character letter may be spelled by
declared letters (``X: a b ab`` is rejected).  Words are written either as
concatenated single-letter symbols (``ab``) or as space-separated
multi-character letters; a lone multi-character letter is written alone
(``x1``).  Query words (not relation sides) may invert a letter with a
trailing ``^``.
"""

from __future__ import annotations

import enum
from collections.abc import Container, Iterable

Letter = str

RESERVED_CHARS = frozenset("=:^#")


class PresentationError(ValueError):
    """Malformed presentation or word text; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_set = object.__setattr__


class _Record:
    """Value semantics of a frozen dataclass, from the fields in __match_args__.

    Records of the same class are equal when their fields are, the hash is
    that of the field tuple, the repr names every field, and assignment
    raises AttributeError.  A subclass lists its fields in __match_args__
    and stores them in __slots__ of the same names where it can.  The
    constructor is the one a dataclass would generate: every field is
    required, given by position in __match_args__ order or by name, and set
    with _set, which bypasses the frozen __setattr__; a missing, extra or
    unknown argument raises TypeError.  A record that validates its fields
    (Word, Presentation, Budget) writes its own __init__, and so do the two
    built once per closure or verdict (ClosureResult, Verdict): assigning
    their fields by hand is several times faster than this generic
    constructor (about 0.4 against 1-4 microseconds a record on CPython
    3.11), and a benchmark cycle builds thousands.  Building classes by
    hand keeps dataclasses, and the inspect module it imports, off the
    import path of every command.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        fields = {**dict(zip(names, args)), **kwargs}
        if len(fields) != len(args) + len(kwargs) or fields.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {names}, each once")
        for name in names:
            _set(self, name, fields[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _MutableRecord(_Record):
    """A _Record whose attributes may be assigned; unhashable, like a plain dataclass."""

    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


class Word(_Record):
    """A word over X and the inverse letters, as (letter, sign) pairs.

    Signs are +1 or -1; a word is positive when every sign is +1.  The
    letters may come from any iterable and are kept as a tuple.
    """

    __slots__ = __match_args__ = ("letters",)

    def __init__(self, letters: tuple[tuple[Letter, int], ...] = ()):
        letters = tuple(letters)
        for item in letters:
            if len(item) != 2 or not item[0] or item[1] not in (1, -1):
                raise ValueError(f"bad signed letter {item!r}")
        _set(self, "letters", letters)

    @property
    def is_positive(self) -> bool:
        return all(sign == 1 for _, sign in self.letters)

    def inverse(self) -> "Word":
        return Word(tuple((x, -s) for x, s in reversed(self.letters)))

    def symbols(self) -> tuple[Letter, ...]:
        return tuple(x for x, _ in self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        tokens = [x + ("^" if s < 0 else "") for x, s in self.letters]
        if all(len(x) == 1 for x, _ in self.letters):
            return "".join(tokens)
        return " ".join(tokens)


def parse_word(text: str, alphabet: Iterable[Letter], *, line: int | None = None) -> Word:
    """Parse a word against a declared alphabet.

    With embedded whitespace the text is split into letter tokens; so is a
    text that, less one trailing ``^``, is a declared letter; otherwise
    every character is a single-letter symbol.  A trailing ``^`` on a token
    (or character) inverts that letter.
    """
    known = set(alphabet)
    text = text.strip()
    if not text:
        return Word()
    if any(ch.isspace() for ch in text) or text.removesuffix("^") in known:
        tokens = text.split()
    else:
        tokens = []
        for ch in text:
            if ch == "^":
                if not tokens:
                    raise PresentationError("'^' with no preceding letter", line)
                tokens[-1] += "^"
            else:
                tokens.append(ch)
    letters = []
    for token in tokens:
        sign = 1
        if token.endswith("^"):
            sign, token = -1, token[:-1]
        if not token or any(ch in RESERVED_CHARS for ch in token):
            raise PresentationError(f"malformed letter token {token!r}", line)
        if token not in known:
            raise PresentationError(f"undeclared letter {token!r}", line)
        letters.append((token, sign))
    return Word(tuple(letters))


def _check_alphabet(letters: tuple[Letter, ...], line: int | None = None) -> frozenset:
    """Letters non-empty, free of whitespace and reserved characters, and
    distinct, and no multi-character letter spelled by declared letters:
    over ``a b ab`` the text ``ab`` could mean either word.  Returns the
    letters as a set."""
    known = frozenset(letters)
    for letter in letters:
        if not letter:
            raise PresentationError("empty letter", line)
        if any(ch.isspace() for ch in letter):
            raise PresentationError(f"letter {letter!r} contains whitespace", line)
        if any(ch in RESERVED_CHARS for ch in letter):
            raise PresentationError(f"letter {letter!r} uses a reserved character", line)
        if len(letter) > 1 and set(letter) <= known:
            raise PresentationError(f"letter {letter!r} is spelled by declared letters", line)
    if not letters:
        raise PresentationError("alphabet declares no letters", line)
    if len(known) != len(letters):
        raise PresentationError("duplicate letter declaration", line)
    return known


def _check_relation(
    lhs: Word, rhs: Word, known: Container[Letter], line: int | None = None
) -> None:
    """Both sides non-empty, positive and over known letters, and distinct.

    Presentation and parse_presentation share this and _check_alphabet; the
    parser passes the line it read the relation from, and its result is
    not checked again.
    """
    for side in (lhs, rhs):
        if len(side) == 0:
            raise PresentationError("empty relation side", line)
        if not side.is_positive:
            raise PresentationError(f"non-positive relation side '{side}'", line)
        for x, _ in side:
            if x not in known:
                raise PresentationError(f"undeclared letter {x!r}", line)
    if lhs == rhs:
        raise PresentationError("relation sides are identical", line)


class Presentation(_Record):
    """A positive presentation: an alphabet and relations between positive words.

    _steps caches the engine's compiles of the relations into step codes,
    one per set of start letters, made on the first closure from those
    letters, and _known holds the alphabet as a frozenset for check_word;
    neither is a field.  The alphabet and the relations may come from any
    iterables and are kept as tuples.
    """

    __slots__ = ("alphabet", "relations", "_steps", "_known")
    __match_args__ = ("alphabet", "relations")

    def __init__(
        self, alphabet: tuple[Letter, ...], relations: tuple[tuple[Word, Word], ...] = ()
    ):
        alphabet = tuple(alphabet)
        relations = tuple(relations)
        known = _check_alphabet(alphabet)
        for lhs, rhs in relations:
            _check_relation(lhs, rhs, known)
        self._adopt(alphabet, relations, known)

    def _adopt(
        self, alphabet: tuple[Letter, ...], relations: tuple, known: frozenset
    ) -> "Presentation":
        """Set the fields of checked input, known the alphabet's set; returns self."""
        _set(self, "alphabet", alphabet)
        _set(self, "relations", relations)
        _set(self, "_steps", {})
        _set(self, "_known", known)
        return self

    def check_word(self, w: Word) -> None:
        """Raise ValueError if w uses a letter outside the alphabet."""
        known = self._known
        for x, _ in w:
            if x not in known:
                raise ValueError(f"letter {x!r} is not in the alphabet")

    def __str__(self) -> str:
        rels = ", ".join(f"{u}={v}" for u, v in self.relations)
        return f"⟨{','.join(self.alphabet)} | {rels}⟩"


def parse_presentation(text: str) -> Presentation:
    """Parse presentation source text; see the module docstring for the format."""
    alphabet: tuple[Letter, ...] | None = None
    relations: list[tuple[Word, Word]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if alphabet is None:
            if not line.startswith("X:"):
                raise PresentationError("expected alphabet line 'X: ...'", lineno)
            alphabet = tuple(line[2:].split())
            known = _check_alphabet(alphabet, lineno)
            continue
        if not line.startswith("R:"):
            raise PresentationError("expected relation line 'R: <word> = <word>'", lineno)
        body = line[2:]
        if body.count("=") != 1:
            raise PresentationError("relation needs exactly one '='", lineno)
        left_text, right_text = body.split("=")
        lhs = parse_word(left_text, alphabet, line=lineno)
        rhs = parse_word(right_text, alphabet, line=lineno)
        _check_relation(lhs, rhs, known, lineno)
        relations.append((lhs, rhs))
    if alphabet is None:
        raise PresentationError("no alphabet line")
    # Every line is checked above, with its number, so the record is not.
    return object.__new__(Presentation)._adopt(alphabet, tuple(relations), known)


SideEdges = tuple[tuple[Letter, Letter], ...]


def side_graphs(p: Presentation) -> tuple[SideEdges, SideEdges]:
    """The edges of the left graph (joining first letters) and of the right
    graph (joining last letters), one per relation; both graphs have the
    alphabet as vertices, and a relation whose sides start, or end, with
    the same letter gives a self-loop."""
    left = tuple((u.letters[0][0], v.letters[0][0]) for u, v in p.relations)
    right = tuple((u.letters[-1][0], v.letters[-1][0]) for u, v in p.relations)
    return left, right


def _cycle_free(vertices: Iterable[Letter], edges: SideEdges) -> bool:
    # A multigraph is cycle-free iff every edge joins two previously
    # disconnected vertices; self-loops and parallel edges fail at once.
    parent = {x: x for x in vertices}

    def find(x: Letter) -> Letter:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def is_adian(p: Presentation) -> bool:
    """True iff neither side graph contains a closed path.

    Closed paths include self-loops and parallel edges, so this is exactly
    the condition that both side graphs are simple forests.
    """
    return all(_cycle_free(p.alphabet, edges) for edges in side_graphs(p))


class OverlapCase(enum.Enum):
    NO_INTERACTION = "NoInteraction"
    CASE1 = "Case1"
    CASE2 = "Case2"
    CASE3 = "Case3"
    CASE4 = "Case4"
    SUBWORD = "Subword"


class OverlapProfile(_Record):
    """Self-borders and cross overlaps of the two sides of a relation.

    ``u_border_len`` is the largest k > 0 with 2k <= |u| such that the
    length-k prefix and suffix of u coincide (so u factors as x s x); the
    bound excludes self-overlapping borders.  Cross overlaps are proper:
    k < min(|u|, |v|).
    """

    __slots__ = __match_args__ = (
        "u_subword_of_v",
        "v_subword_of_u",
        "u_border_len",
        "v_border_len",
        "suffix_u_prefix_v_len",
        "suffix_v_prefix_u_len",
        "case_label",
    )


def _occurrences(needle: tuple[Letter, ...], haystack: tuple[Letter, ...]) -> int:
    if not needle or len(needle) > len(haystack):
        return 0
    return sum(
        1
        for i in range(len(haystack) - len(needle) + 1)
        if haystack[i : i + len(needle)] == needle
    )


def _overlap_len(u: tuple[Letter, ...], v: tuple[Letter, ...], top: int) -> int:
    """Largest k in 1..top with suffix_k(u) = prefix_k(v), else 0; a side's
    border is this scan of the side against itself."""
    for k in range(top, 0, -1):
        if u[-k:] == v[:k]:
            return k
    return 0


def overlap_profile(u: Word, v: Word) -> OverlapProfile:
    """Exhaustive overlap analysis of two distinct non-empty positive words."""
    for w in (u, v):
        if len(w) == 0:
            raise ValueError("overlap analysis needs non-empty words")
        if not w.is_positive:
            raise ValueError(f"overlap analysis needs positive words, got '{w}'")
    if u == v:
        raise ValueError("overlap analysis needs two distinct words")
    us, vs = u.symbols(), v.symbols()
    u_in_v = _occurrences(us, vs) > 0
    v_in_u = _occurrences(vs, us) > 0
    u_border = _overlap_len(us, us, len(us) // 2)
    v_border = _overlap_len(vs, vs, len(vs) // 2)
    proper = min(len(us), len(vs)) - 1
    uv = _overlap_len(us, vs, proper)
    vu = _overlap_len(vs, us, proper)
    crosses = (uv > 0) + (vu > 0)
    if u_in_v or v_in_u:
        label = OverlapCase.SUBWORD
    elif crosses == 2:
        label = OverlapCase.CASE4
    elif crosses == 1:
        label = OverlapCase.CASE3 if (u_border or v_border) else OverlapCase.CASE2
    elif u_border or v_border:
        label = OverlapCase.CASE1
    else:
        label = OverlapCase.NO_INTERACTION
    return OverlapProfile(u_in_v, v_in_u, u_border, v_border, uv, vu, label)


def count_r_word_occurrences(w: Word, p: Presentation) -> int:
    """Occurrences of either relation side as a subword of positive w.

    Counts (side, start position) pairs; overlapping occurrences count
    separately.  Only defined for one-relation presentations.
    """
    if not w.is_positive:
        raise ValueError(f"expected a positive word, got '{w}'")
    if len(p.relations) != 1:
        raise ValueError("occurrence counting is defined for one-relation presentations")
    p.check_word(w)
    lhs, rhs = p.relations[0]
    ws = w.symbols()
    return _occurrences(lhs.symbols(), ws) + _occurrences(rhs.symbols(), ws)


class FinitenessVerdict(enum.Enum):
    CERTIFIED_FINITE = "certified-finite"
    CERTIFIED_INFINITE = "certified-infinite"
    UNKNOWN = "unknown"


class CertificateBasis(enum.Enum):
    FACT1 = "fact-1"
    PROP1 = "proposition-1"
    PROP2 = "proposition-2"
    SUBWORD_ARGUMENT = "subword-argument"
    NONE = "none"


class FinitenessCertificate(_Record):
    __slots__ = __match_args__ = ("verdict", "basis")


_CERTIFICATES = {
    OverlapCase.NO_INTERACTION: FinitenessCertificate(
        FinitenessVerdict.CERTIFIED_FINITE, CertificateBasis.FACT1
    ),
    OverlapCase.CASE1: FinitenessCertificate(
        FinitenessVerdict.CERTIFIED_FINITE, CertificateBasis.PROP1
    ),
    OverlapCase.CASE2: FinitenessCertificate(
        FinitenessVerdict.CERTIFIED_FINITE, CertificateBasis.PROP2
    ),
    OverlapCase.CASE3: FinitenessCertificate(
        FinitenessVerdict.UNKNOWN, CertificateBasis.NONE
    ),
    OverlapCase.CASE4: FinitenessCertificate(
        FinitenessVerdict.UNKNOWN, CertificateBasis.NONE
    ),
    OverlapCase.SUBWORD: FinitenessCertificate(
        FinitenessVerdict.CERTIFIED_INFINITE, CertificateBasis.SUBWORD_ARGUMENT
    ),
}


def classify_finiteness(p: Presentation) -> FinitenessCertificate:
    """Static certificate for a one-relation Adian presentation.

    No interaction between the sides, a border with no cross overlap, or a
    single cross overlap with no borders each certify that every positive
    word closes to a finite automaton.  One side inside the other certifies
    divergence.  The remaining overlap cases are left open; the closure
    budget is the operational safeguard there.
    """
    if len(p.relations) != 1:
        raise ValueError("finiteness classification needs a one-relation presentation")
    if not is_adian(p):
        raise ValueError("finiteness classification needs an Adian presentation")
    u, v = p.relations[0]
    return _CERTIFICATES[overlap_profile(u, v).case_label]
