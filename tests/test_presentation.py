from unittest import mock

import pytest
from hypothesis import given, strategies as st

from stephen_kit import (
    Answer,
    OverlapCase,
    CertificateBasis,
    FinitenessVerdict,
    Presentation,
    PresentationError,
    Word,
    classify_finiteness,
    count_r_word_occurrences,
    decide_equal,
    is_adian,
    overlap_profile,
    parse_presentation,
    parse_word,
)
from stephen_kit import presentation
from stephen_kit.presentation import side_graphs
from support import CASE1, CASE2, COMM, FACT1, SUBWORD, pos, w


# --- parsing ---------------------------------------------------------------


def test_parse_basic():
    p = parse_presentation("X: a b\nR: ab = ba")
    assert p.alphabet == ("a", "b")
    assert p.relations == ((pos("ab"), pos("ba")),)


def test_parse_single_letter_alphabet():
    p = parse_presentation("X: a\nR: aa = a")
    assert p.alphabet == ("a",)
    assert p.relations == ((pos("aa"), pos("a")),)


def test_parse_undeclared_letter_rejected():
    with pytest.raises(PresentationError, match="undeclared letter 'b'"):
        parse_presentation("X: a\nR: ab = ba")


def test_parse_comments_and_blank_lines():
    text = "# header\n\nX: a b  # alphabet\n\nR: ab = ba  # the relation\n"
    assert parse_presentation(text) == COMM


def test_parse_multichar_letters_space_separated():
    p = parse_presentation("X: ab1 c\nR: ab1 c = c ab1")
    assert p.alphabet == ("ab1", "c")
    lhs, rhs = p.relations[0]
    assert lhs.symbols() == ("ab1", "c")
    assert rhs.symbols() == ("c", "ab1")


def test_parse_single_multichar_letter():
    # A word of one multi-character letter is that letter.  A presentation
    # rejects an alphabet such as a b ab, where ab could mean either word;
    # over such a raw alphabet parse_word reads the one letter ab.
    p = parse_presentation("X: x1 x2\nR: x1 = x2 x2")
    assert p.relations == ((Word((("x1", 1),)), Word((("x2", 1), ("x2", 1)))),)
    assert parse_word("x1", p.alphabet) == Word((("x1", 1),))
    assert parse_word(" x1^ ", p.alphabet) == Word((("x1", -1),))
    assert parse_word("ab", ("a", "b", "ab")) == Word((("ab", 1),))
    assert parse_word("ab^", ("a", "b", "ab")) == Word((("ab", -1),))
    assert parse_word("a", ("a", "ab1")) == pos("a")
    with pytest.raises(PresentationError, match="undeclared letter 'x'"):
        parse_word("x1x2", p.alphabet)
    with pytest.raises(PresentationError, match="undeclared letter 'x'"):
        parse_word("x1^^", p.alphabet)


def _declarable(letters) -> bool:
    try:
        Presentation(tuple(letters))
    except PresentationError:
        return False
    return True


# Alphabets a presentation accepts.
alphabets = st.lists(
    st.text("abx1", min_size=1, max_size=3), min_size=1, max_size=4, unique=True
).filter(_declarable)


@given(st.data())
def test_parse_word_reads_str_back(data):
    alphabet = data.draw(alphabets)
    letter = st.tuples(st.sampled_from(alphabet), st.sampled_from((1, -1)))
    word = Word(tuple(data.draw(st.lists(letter, max_size=5))))
    assert parse_word(str(word), alphabet) == word


def test_parse_zero_relations_allowed():
    p = parse_presentation("X: a b\n")
    assert p.relations == ()


# Every error text can reach: the text, a fragment of the message, and the
# line the error names (None for a file with no alphabet line).
PARSE_ERRORS = [
    ("R: ab = ba", "expected alphabet", 1),
    ("X: a b\nab = ba", "expected relation", 2),
    ("X: a b\nR: ab = ba = a", "exactly one '='", 2),
    ("X: a b\nR:  = ba", "empty relation side", 2),
    ("X: a b\nR: ab^ = ba", "non-positive", 2),
    ("X: a b\nR: ab = ab", "identical", 2),
    ("X: a b\nR: ^a = b", "with no preceding letter", 2),
    ("X: a b\nR: a ^ = b", "malformed letter token ''", 2),
    ("X: a b\nR: ac = b", "undeclared letter 'c'", 2),
    ("X: a a\nR: aa = a", "duplicate", 1),
    ("# a comment\nX: a a", "duplicate letter declaration", 2),
    ("X: a=b\nR: aa = a", "reserved", 1),
    ("X: a b ab\nR: a = b", "'ab' is spelled by declared letters", 1),
    ("X:\nR: a = b", "alphabet declares no letters", 1),
    ("X: a b\n\n# c\nR: ab = ba\nR: b = ", "empty relation side", 5),
    ("", "no alphabet", None),
]


@pytest.mark.parametrize(
    "text,fragment,line",
    PARSE_ERRORS,
    ids=[f"{text}-{fragment}" for text, fragment, _ in PARSE_ERRORS],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(PresentationError, match=fragment) as excinfo:
        parse_presentation(text)
    assert excinfo.value.line == line
    if line is None:
        assert not str(excinfo.value).startswith("line ")
    else:
        assert str(excinfo.value).startswith(f"line {line}: ")


def test_errors_outside_a_file_name_no_line():
    for build, fragment in [
        (lambda: parse_word("c", "ab"), "undeclared letter 'c'"),
        (lambda: Presentation(("a", "a")), "duplicate letter declaration"),
    ]:
        with pytest.raises(PresentationError, match=f"^{fragment}$") as excinfo:
            build()
        assert excinfo.value.line is None


def test_parse_ignores_a_leading_byte_order_mark():
    text = "X: a b\nR: ab = ba\n"
    assert parse_presentation("\ufeff" + text) == parse_presentation(text)
    with pytest.raises(PresentationError, match="^line 2: undeclared letter"):
        parse_presentation("\ufeffX: a\nR: ab = ba\n")


def test_parse_error_reports_line():
    with pytest.raises(PresentationError, match="line 3"):
        parse_presentation("X: a b\nR: ab = ba\nR: junk line")


def test_parse_checks_each_line_once():
    # The parser checks each line as it reads it, with its number, and
    # builds the presentation without checking it all again.
    calls = {"_check_alphabet": 0, "_check_relation": 0}

    def counted(name):
        check = getattr(presentation, name)

        def counting(*args):
            calls[name] += 1
            return check(*args)

        return counting

    text = "X: a b c\nR: aba = b\n# comment\nR: ab = ba\nR: bc = cb\n"
    with mock.patch.multiple(presentation, **{name: counted(name) for name in calls}):
        p = parse_presentation(text)
        assert calls == {"_check_alphabet": 1, "_check_relation": 3}
        assert p == Presentation(p.alphabet, p.relations)
        assert calls == {"_check_alphabet": 2, "_check_relation": 6}
    assert p._known == frozenset("abc") and p._steps == {}
    assert hash(p) == hash(parse_presentation(text))


def test_parse_word_inverse_suffix():
    assert parse_word("abb^a^ba", "ab") == w("abb^a^ba")
    assert parse_word("a b b^ a^ b a", "ab") == w("abb^a^ba")
    assert parse_word("", "ab") == Word()


def test_parse_word_bad_caret():
    with pytest.raises(PresentationError, match="preceding letter"):
        parse_word("^a", "ab")
    with pytest.raises(PresentationError, match="malformed"):
        parse_word("a^^", "ab")


def test_word_basics():
    word = w("ab^")
    assert not word.is_positive
    assert word.inverse() == w("ba^")
    assert word.inverse().inverse() == word
    assert str(w("abb^")) == "abb^"
    assert len(Word()) == 0
    assert pos("ab") + pos("ba") == pos("abba")


def test_presentation_invariants():
    with pytest.raises(ValueError, match="empty relation side"):
        Presentation(("a",), ((Word(), pos("a")),))
    with pytest.raises(ValueError, match="non-positive"):
        Presentation(("a",), ((w("a^"), pos("a")),))
    with pytest.raises(ValueError, match="undeclared"):
        Presentation(("a",), ((pos("ab"), pos("a")),))
    with pytest.raises(ValueError, match="identical"):
        Presentation(("a", "b"), ((pos("ab"), pos("ab")),))


def test_records_keep_any_iterable_as_tuples():
    # The checks spend a generator, so a record keeps its input as a tuple
    # first; kept spent, the relation is lost and ab = ba reads as a wrong
    # no.  A list, outside or as a signed letter or a relation, would make
    # the record unequal to its tuple form and unhashable.  Tuple input is
    # kept as it is.
    ab, ba = pos("ab"), pos("ba")
    p = Presentation((x for x in "ab"), ((u, v) for u, v in [(ab, ba)]))
    assert p == COMM and hash(p) == hash(COMM)
    assert decide_equal(ab, ba, p).answer is Answer.YES
    assert list(Word(x for x in ab.letters)) == list(ab)
    listed = Presentation(["a", "b"], [(ab, ba)])
    assert listed == COMM and hash(listed) == hash(COMM)
    assert Word(list(ab.letters)) == ab and hash(Word(list(ab.letters))) == hash(ab)
    listed = Word([["a", 1], ["b", 1]])
    assert listed == ab and hash(listed) == hash(ab)
    assert listed.letters == (("a", 1), ("b", 1))
    listed = Presentation(("a", "b"), [[ab, ba]])
    assert listed == COMM and hash(listed) == hash(COMM)
    assert listed.relations == ((ab, ba),)
    assert decide_equal(ab, ba, listed).answer is Answer.YES
    letters, relations, mixed = (("a", 1),), ((ab, ba),), [("a", 1), ["b", -1]]
    assert Word(letters).letters is letters and Word(mixed).letters[0] is mixed[0]
    assert Presentation(("a", "b"), relations).relations is relations
    with pytest.raises(ValueError, match="identical"):
        Presentation(("a", "b"), (pair for pair in [(ab, ab)]))
    with pytest.raises(ValueError, match="bad signed letter"):
        Word(x for x in [("a", 1), ("b", 0)])


@pytest.mark.parametrize(
    "alphabet,message",
    [
        (("a^", "b"), "letter 'a^' uses a reserved character"),
        (("a=",), "letter 'a=' uses a reserved character"),
        (("a:",), "letter 'a:' uses a reserved character"),
        (("#",), "letter '#' uses a reserved character"),
        (("",), "empty letter"),
        (("a b",), "letter 'a b' contains whitespace"),
        (("a", "b\t"), "letter 'b\\t' contains whitespace"),
    ],
)
def test_presentation_rejects_malformed_letters(alphabet, message):
    # The parser never produces these letters; the constructor must refuse
    # them too, or 'a^' would print like the inverse of 'a'.
    with pytest.raises(PresentationError) as excinfo:
        Presentation(alphabet)
    assert str(excinfo.value) == message
    assert excinfo.value.line is None


def test_parse_reserved_letter_message():
    with pytest.raises(PresentationError) as excinfo:
        parse_presentation("# c\nX: a^ b\nR: b = bb")
    assert str(excinfo.value) == "line 2: letter 'a^' uses a reserved character"


def test_check_word():
    COMM.check_word(w("ab^"))
    with pytest.raises(ValueError, match="not in the alphabet"):
        COMM.check_word(pos("ac"))


# --- side graphs and the Adian property -------------------------------------


def test_side_graphs_commutative():
    left, right = side_graphs(COMM)
    assert left == (("a", "b"),)
    assert right == (("b", "a"),)


def test_side_graphs_self_loop():
    p = Presentation(("a",), ((pos("aa"), pos("a")),))
    left, right = side_graphs(p)
    assert left == (("a", "a"),)
    assert right == (("a", "a"),)


def test_side_graphs_case1():
    left, right = side_graphs(CASE1)
    assert left == (("a", "c"),)
    assert right == (("a", "c"),)


def test_is_adian_examples():
    assert is_adian(COMM) is True
    assert is_adian(Presentation(("a",), ((pos("aa"), pos("a")),))) is False
    parallel = Presentation(("a", "b"), ((pos("ab"), pos("bb")), (pos("ba"), pos("aa"))))
    assert is_adian(parallel) is False


def test_is_adian_triangle_cycle():
    # Left graph a-b, b-c, c-a closes a triangle; right graph stays a forest.
    p = Presentation(
        ("a", "b", "c", "d", "e", "f", "g", "h", "i"),
        ((pos("ad"), pos("be")), (pos("bf"), pos("cg")), (pos("ch"), pos("ai"))),
    )
    assert is_adian(p) is False


def test_is_adian_empty_relations():
    assert is_adian(Presentation(("a", "b"))) is True


# --- overlap profiles --------------------------------------------------------


def test_overlap_subword():
    profile = overlap_profile(pos("aba"), pos("b"))
    assert profile.case_label is OverlapCase.SUBWORD
    assert profile.v_subword_of_u and not profile.u_subword_of_v
    assert profile.u_border_len == 1


def test_overlap_case4():
    profile = overlap_profile(pos("ab"), pos("ba"))
    assert profile.case_label is OverlapCase.CASE4
    assert profile.suffix_u_prefix_v_len == 1
    assert profile.suffix_v_prefix_u_len == 1
    assert profile.u_border_len == 0 and profile.v_border_len == 0


def test_overlap_case2():
    profile = overlap_profile(pos("aab"), pos("bcc"))
    assert profile.case_label is OverlapCase.CASE2
    assert profile.suffix_u_prefix_v_len == 1
    assert profile.suffix_v_prefix_u_len == 0
    assert profile.u_border_len == 0 and profile.v_border_len == 0


def test_overlap_case1():
    profile = overlap_profile(pos("aba"), pos("c"))
    assert profile.case_label is OverlapCase.CASE1
    assert profile.u_border_len == 1
    assert profile.suffix_u_prefix_v_len == 0 and profile.suffix_v_prefix_u_len == 0


def test_overlap_case3():
    # u = aba has a border, and its suffix a is a prefix of v = ac.
    profile = overlap_profile(pos("aba"), pos("ac"))
    assert profile.case_label is OverlapCase.CASE3


def test_overlap_no_interaction():
    profile = overlap_profile(pos("ab"), pos("cd"))
    assert profile.case_label is OverlapCase.NO_INTERACTION


def test_border_excludes_self_overlap():
    # aaa factors as x s x only with |x| = 1.
    assert overlap_profile(pos("aaa"), pos("b")).u_border_len == 1
    assert overlap_profile(pos("aabaa"), pos("c")).u_border_len == 2


def test_overlap_input_validation():
    with pytest.raises(ValueError, match="non-empty"):
        overlap_profile(Word(), pos("a"))
    with pytest.raises(ValueError, match="positive"):
        overlap_profile(w("a^"), pos("b"))
    with pytest.raises(ValueError, match="distinct"):
        overlap_profile(pos("ab"), pos("ab"))


@st.composite
def _positive_word(draw, max_len=6):
    n = draw(st.integers(1, max_len))
    return Word(tuple((draw(st.sampled_from("abc")), 1) for _ in range(n)))


@given(_positive_word(), _positive_word())
def test_overlap_swap_symmetry(u, v):
    if u == v:
        return
    p1 = overlap_profile(u, v)
    p2 = overlap_profile(v, u)
    assert p1.case_label is p2.case_label
    assert p1.u_border_len == p2.v_border_len
    assert p1.suffix_u_prefix_v_len == p2.suffix_v_prefix_u_len
    assert p1.u_subword_of_v == p2.v_subword_of_u

    def border(x):  # largest k with x = y s y, |y| = k
        return max((k for k in range(1, len(x) // 2 + 1) if x.startswith(x[-k:])), default=0)

    def cross(x, y):  # largest k < |x|, |y| with suffix_k(x) = prefix_k(y)
        return max((k for k in range(1, min(len(x), len(y))) if y.startswith(x[-k:])), default=0)

    su, sv = str(u), str(v)
    assert (p1.u_border_len, p1.v_border_len) == (border(su), border(sv))
    assert (p1.suffix_u_prefix_v_len, p1.suffix_v_prefix_u_len) == (cross(su, sv), cross(sv, su))


# --- occurrence counting -----------------------------------------------------


def test_count_occurrences_examples():
    assert count_r_word_occurrences(pos("abab"), COMM) == 3
    assert count_r_word_occurrences(pos("aa"), COMM) == 0
    assert count_r_word_occurrences(pos("aba"), CASE1) == 1


def test_count_occurrences_overlapping():
    p = Presentation(("a", "b"), ((pos("aa"), pos("b")),))
    assert count_r_word_occurrences(pos("aaa"), p) == 2


def test_count_occurrences_errors():
    with pytest.raises(ValueError, match="positive"):
        count_r_word_occurrences(w("a^"), COMM)
    multi = Presentation(("a", "b"), ((pos("ab"), pos("ba")), (pos("aa"), pos("b"))))
    with pytest.raises(ValueError, match="one-relation"):
        count_r_word_occurrences(pos("a"), multi)


# --- finiteness certificates ------------------------------------------------


@pytest.mark.parametrize(
    "p,verdict,basis",
    [
        (FACT1, FinitenessVerdict.CERTIFIED_FINITE, CertificateBasis.FACT1),
        (CASE1, FinitenessVerdict.CERTIFIED_FINITE, CertificateBasis.PROP1),
        (CASE2, FinitenessVerdict.CERTIFIED_FINITE, CertificateBasis.PROP2),
        (COMM, FinitenessVerdict.UNKNOWN, CertificateBasis.NONE),
        (SUBWORD, FinitenessVerdict.CERTIFIED_INFINITE, CertificateBasis.SUBWORD_ARGUMENT),
    ],
)
def test_classify_finiteness(p, verdict, basis):
    cert = classify_finiteness(p)
    assert cert.verdict is verdict
    assert cert.basis is basis


def test_classify_requires_adian_one_relation():
    with pytest.raises(ValueError, match="Adian"):
        classify_finiteness(Presentation(("a",), ((pos("aa"), pos("a")),)))
    multi = Presentation(("a", "b"), ((pos("ab"), pos("ba")), (pos("aa"), pos("b"))))
    with pytest.raises(ValueError, match="one-relation"):
        classify_finiteness(multi)


def test_certificate_ignores_alphabet_size():
    # Same relation over a larger alphabet gets the same certificate.
    wide = Presentation(("a", "b", "c", "x", "y", "z"), ((pos("aba"), pos("c")),))
    assert classify_finiteness(wide) == classify_finiteness(CASE1)
