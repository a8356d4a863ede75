"""The seeded output sweep (tests/sweep.py) runs, repeats itself and
prints every kind of output it promises."""

import sweep


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
