"""The seeded output sweep (tests/sweep.py) runs, repeats itself,
prints every kind of output it promises and prints, case by case, what
it printed when its digests were pinned."""

import hashlib
from pathlib import Path

import pytest
import sweep

DIGESTS = Path(__file__).with_name("sweep_seed1.sha256")


def _digest(lines: list[str]) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def test_sweep_smoke(capsys):
    assert sweep.main(["--cases", "6", "--seed", "1"]) == 0
    printed = capsys.readouterr().out.splitlines()
    lines = [line for case in range(6) for line in sweep.case_lines(1, case)]
    assert printed == lines
    for prefix in (
        "closure {",
        "closure graph json",
        "closure graph key",
        "closure graph dot",
        "folded sites",
        "folded closure graph json",
        "eq {",
        "leq {",
        "idem {",
        "cli ['graph', 'P'",
    ):
        assert any(line.startswith(prefix) for line in lines), prefix
    cli = [line for line in lines if line.startswith("cli [")]
    assert len(cli) == 10  # five commands in each of cases 0 and 5
    assert all(" -> " in line for line in cli)


def test_sweep_matches_pinned_digests():
    r"""Each of the 1,000 cases of seed 1 prints the lines whose sha256 is
    pinned in sweep_seed1.sha256, one digest a line.  A change that moves
    the outputs on purpose regenerates the file from the repository root:

        PYTHONPATH=src:tests python -c "import hashlib, sweep; print(*(hashlib.sha256(('\n'.join(sweep.case_lines(1, c)) + '\n').encode()).hexdigest() for c in range(1000)), sep='\n')" > tests/sweep_seed1.sha256
    """
    pinned = DIGESTS.read_text(encoding="utf-8").split()
    assert len(pinned) == 1000
    for case, want in enumerate(pinned):
        lines = sweep.case_lines(1, case)
        if _digest(lines) != want:
            pytest.fail(f"case {case} of seed 1 differs from its pinned digest:\n" + "\n".join(lines))
