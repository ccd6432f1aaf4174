"""The example scripts, run in-process at the sizes CI runs them."""

import csv
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, capsys, script, *args):
    """Run a script's ``main()`` with ``args`` as its command line; returns
    the printed lines."""
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    monkeypatch.setattr(sys, "argv", [script, *args])
    main()
    return capsys.readouterr().out.splitlines()


def test_crystal_length_sweep(monkeypatch, capsys, tmp_path):
    table = tmp_path / "sweep.csv"
    lines = _run(monkeypatch, capsys, "crystal_length_sweep.py",
                 "--n", "32", "--lengths", "0", "1000", "--iterations", "50", "--csv", str(table))
    assert lines[0] == "applied: A_s = 5000 fs^2, A_i = 40000 fs^2"
    assert lines[1].split() == ["L", "(um)", "err_ww", "A_i", "fit", "offset"]
    assert [row.split()[0] for row in lines[2:-1]] == ["0", "1000"]
    assert lines[-1] == f"table written to {table}"
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["length_um"]) for row in rows] == [0.0, 1000.0]
    assert list(rows[0]) == ["length_um", "err_ww", "chirp_i_fit", "offset"]


def test_closed_loop_demo(monkeypatch, capsys, tmp_path):
    jsa = tmp_path / "best.csv"
    lines = _run(monkeypatch, capsys, "closed_loop_demo.py",
                 "--n", "32", "--iterations", "50", "--seeds", "2", "--save-jsa", str(jsa))
    assert lines[0] == "applied chirps: A_s = -36000 fs^2, A_i = -43000 fs^2"
    assert lines[1].split() == ["seed", "err_ww", "A_s", "fit", "A_i", "fit", "dA_s", "dA_i"]
    assert [row.split()[0] for row in lines[2:-1]] == ["0", "1"]
    assert lines[-1] == f"best reconstruction written to {jsa}"
    with open(jsa, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["signal_frequency", "idler_frequency", "re", "im"]
    assert len(rows) == 1 + 32 * 32
