"""The package's record classes behave as the dataclasses they stand for.

Each record is compared with a dataclass built here with the same name,
fields and frozenness: the same repr, hash and equality rules, and the
same errors on assignment.
"""

import copy
import dataclasses
import pickle
import re

import pytest

from stephen_kit import (
    Answer,
    Budget,
    CertificateBasis,
    ClosureResult,
    FinitenessCertificate,
    FinitenessVerdict,
    OverlapCase,
    OverlapProfile,
    Presentation,
    Status,
    Verdict,
    Word,
)
from support import COMM, SUBWORD, graph, pos

G = graph(0, 1, [(0, "a", 1)])

# class, field names, field values, the values with one field changed
RECORDS = [
    (Word, ("letters",), ((("a", 1),),), ((("a", -1),),)),
    (Presentation, ("alphabet", "relations"), (("a", "b"), COMM.relations), (("a", "b"), SUBWORD.relations)),
    (
        OverlapProfile,
        (
            "u_subword_of_v",
            "v_subword_of_u",
            "u_border_len",
            "v_border_len",
            "suffix_u_prefix_v_len",
            "suffix_v_prefix_u_len",
            "case_label",
        ),
        (False, False, 1, 0, 0, 0, OverlapCase.CASE1),
        (False, False, 1, 0, 0, 1, OverlapCase.CASE1),
    ),
    (
        FinitenessCertificate,
        ("verdict", "basis"),
        (FinitenessVerdict.UNKNOWN, CertificateBasis.NONE),
        (FinitenessVerdict.CERTIFIED_FINITE, CertificateBasis.NONE),
    ),
    (Budget, ("max_rounds", "max_vertices"), (8, 200), (8, 201)),
    (
        ClosureResult,
        ("status", "graph", "rounds", "fold_events", "vertex_history"),
        (Status.CLOSED, G, 1, 0, (2, 2)),
        (Status.CLOSED, G, 2, 0, (2, 2)),
    ),
    (Verdict, ("answer", "witness"), (Answer.YES, {"u": "ab"}), (Answer.NO, {"u": "ab"})),
]
MUTABLE = (ClosureResult, Verdict)


@pytest.mark.parametrize("cls, fields, values, changed", RECORDS, ids=lambda x: getattr(x, "__name__", ""))
def test_record_matches_dataclass(cls, fields, values, changed):
    frozen = cls not in MUTABLE
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen)(*values)
    record = cls(*values)
    assert all(getattr(record, f) is v for f, v in zip(fields, values))
    assert cls(**dict(zip(fields, values))) == record
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, unknown=values[0])
    assert repr(record) == repr(reference)
    assert record == cls(*values) and not record != cls(*values)
    assert record != cls(*changed) and not record == cls(*changed)
    # Equal only to the same class, as a dataclass is: not to a subclass.
    assert record != reference and record.__eq__(reference) is NotImplemented
    assert record != type("Sub", (cls,), {})(*values)
    assert record != values
    assert copy.copy(record) == record
    if frozen:
        assert hash(record) == hash(cls(*values)) == hash(reference)
        for name in (fields[0], "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, fields[0])
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(record, fields[0], changed[0])
        assert getattr(record, fields[0]) is changed[0]


def test_presentation_is_a_dict_key():
    same = Presentation(("a", "b"), ((pos("ab"), pos("ba")),))
    table = {COMM: "comm", SUBWORD: "subword"}
    assert same is not COMM and table[same] == "comm"
    # The alphabet set check_word reads is no field, and copies rebuild it.
    for twin in (pickle.loads(pickle.dumps(COMM)), copy.copy(COMM), copy.deepcopy(COMM)):
        assert twin == COMM and hash(twin) == hash(COMM)
        with pytest.raises(ValueError, match="letter 'c' is not in the alphabet"):
            twin.check_word(pos("ac"))


def test_budget_defaults():
    assert Budget() == Budget(64, 100_000)
    assert (Budget.max_rounds, Budget.max_vertices) == (64, 100_000)
    assert Budget(max_vertices=5) == Budget(64, 5)
    assert Budget(max_rounds=3).max_vertices == 100_000


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Budget(0, 10), "budget limits must be positive"),
        (lambda: Budget(max_vertices=0), "budget limits must be positive"),
        (lambda: Word((("a", 2),)), "bad signed letter ('a', 2)"),
        (lambda: Word((("", 1),)), "bad signed letter ('', 1)"),
        (lambda: Word((("a", 1, 1),)), "bad signed letter ('a', 1, 1)"),
        (lambda: Word((("a", True),)), "bad signed letter ('a', True)"),
        (lambda: Word((("a", 1.0),)), "bad signed letter ('a', 1.0)"),
        (lambda: Presentation(()), "alphabet declares no letters"),
        (lambda: Presentation(("a", "a")), "duplicate letter declaration"),
        (lambda: Presentation(("a",), ((pos("a"), pos("a")),)), "relation sides are identical"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
