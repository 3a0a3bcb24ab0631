"""The README's library example runs as written and prints what it says."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    analytic, blocks = capsys.readouterr().out.splitlines()
    r_trig_hz, simulated_hz, car = map(float, analytic.split())
    # About 1900 heralds in 1e6 cycles: a 2.3% standard error.
    assert simulated_hz == pytest.approx(r_trig_hz, rel=0.1)
    assert car > 1.0
    assert blocks.startswith("(8, 8, 160) ")
