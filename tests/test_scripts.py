import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


def test_tau_sensitivity_prints_one_row_per_threshold(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["tau_sensitivity.py", "0", "50"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "tau_sensitivity.py"), run_name="__main__")
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["tau_m", "pd", "pfa", "pm"]
    rows = [[float(v) for v in line.split()] for line in lines[2:]]
    assert len(rows) == 9
    for tau, pd, pfa, pm in rows:
        assert 0.0 <= pd <= 1.0 and 0.0 <= pfa <= 1.0 and 0.0 <= pm <= 1.0


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    exec(compile(block, str(README), "exec"), {})
    # One report from run_trials, then one per threshold of the cell.
    assert capsys.readouterr().out.count("MetricsReport(") == 4
