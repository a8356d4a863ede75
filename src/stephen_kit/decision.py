"""Word-problem verdicts: equality, natural partial order, idempotency.

By Stephen's theorem the automaton A(u) accepts v exactly when v >= u.
Verdicts are three-valued.  A partial approximation accepts only words that
are equal to or above its start word, so acceptance by an approximation is
already conclusive; a rejection is conclusive only when the automaton is
closed.  Budgets can therefore produce Unknown but never a wrong Yes/No.

w is idempotent iff w <= 1, that is iff A(w) accepts the empty word (its
roots coincide), so one automaton settles idempotency.
"""

from __future__ import annotations

import enum

from .engine import Budget, ClosureResult, Status, schutzenberger_automaton
from .presentation import Presentation, Word, _MutableRecord


class Answer(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Verdict(_MutableRecord):
    __match_args__ = ("answer", "witness")

    def __init__(self, answer: Answer, witness: dict):
        self.answer = answer
        self.witness = witness

    def to_json(self) -> dict:
        return {"answer": self.answer.value, "witness": self.witness}


def _closure_stats(result: ClosureResult) -> dict:
    return {
        "status": result.status.value,
        "rounds": result.rounds,
        "fold_events": result.fold_events,
        "vertices": result.vertex_history[-1],
    }


def _budget_info(budget: Budget) -> dict:
    return {"max_rounds": budget.max_rounds, "max_vertices": budget.max_vertices}


def _answer(*checks: tuple[bool, ClosureResult]) -> Answer:
    """Yes when every check accepted; No when a closed automaton rejected."""
    if all(accepted for accepted, _ in checks):
        return Answer.YES
    if any(not accepted and r.status is Status.CLOSED for accepted, r in checks):
        return Answer.NO
    return Answer.UNKNOWN


def _acceptance(start: Word, w: Word, p: Presentation, budget: Budget) -> tuple[Answer, dict]:
    """Does A(start) accept w?  The verdict and the witness fields it rests on."""
    result = schutzenberger_automaton(start, p, budget)
    accepted = result.graph.accepts(w)
    closure = _closure_stats(result)
    witness = {"accepted": accepted, "closure": closure, "budget": _budget_info(budget)}
    return _answer((accepted, result)), witness


def decide_equal(u: Word, v: Word, p: Presentation, budget: Budget = Budget()) -> Verdict:
    """Does u = v hold in the inverse monoid presented by p?

    Yes iff each word is accepted by the other's automaton; acceptance by a
    partial approximation already proves membership, while No needs the
    rejecting automaton to be closed.
    """
    p.check_word(u)
    p.check_word(v)
    left = schutzenberger_automaton(u, p, budget)
    right = schutzenberger_automaton(v, p, budget)
    u_in_v = right.graph.accepts(u)
    v_in_u = left.graph.accepts(v)
    witness = {
        "u": str(u),
        "v": str(v),
        "u_in_v": u_in_v,
        "v_in_u": v_in_u,
        "u_closure": _closure_stats(left),
        "v_closure": _closure_stats(right),
        "budget": _budget_info(budget),
    }
    return Verdict(_answer((u_in_v, right), (v_in_u, left)), witness)


def decide_natural_leq(u: Word, w: Word, p: Presentation, budget: Budget = Budget()) -> Verdict:
    """Does w >= u hold in the natural partial order?

    Equivalent to w being accepted by the automaton of u.  Acceptance by a
    partial approximation proves Yes; No needs the automaton closed.
    """
    p.check_word(u)
    p.check_word(w)
    answer, witness = _acceptance(u, w, p, budget)
    return Verdict(answer, {"lower": str(u), "candidate": str(w), **witness})


def is_idempotent(w: Word, p: Presentation, budget: Budget = Budget()) -> Verdict:
    """Is w an idempotent?  Yes iff A(w) accepts the empty word.

    The verdict equals that of w = w w^-1 at every budget: A(w w^-1) passes
    through the same graphs as A(w) round by round, with beta moved to alpha.
    """
    p.check_word(w)
    answer, witness = _acceptance(w, Word(), p, budget)
    return Verdict(answer, {"word": str(w), **witness})
