"""The numpy-only path: importing muxsim and running model, car and simulate
load no scipy module; the fitting commands load scipy.optimize when they run."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _scipy_modules(code: str) -> list:
    """scipy modules in sys.modules after running code in a fresh interpreter."""
    script = (
        f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\nimport json\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_imports_load_no_scipy():
    assert _scipy_modules("import muxsim") == []
    assert _scipy_modules("import muxsim.cli") == []
    assert _scipy_modules("from muxsim.fitting import load_observations_csv") == []


def test_model_car_simulate_load_no_scipy(tmp_path):
    for command in (["model"], ["car"], ["simulate", "--cycles", "10000"]):
        out = str(tmp_path / command[0])
        code = f"import muxsim.cli\nassert muxsim.cli.main({command + ['--out', out]!r}) == 0"
        assert _scipy_modules(code) == [], command


def test_fit_loads_scipy_optimize(tmp_path):
    """The guard can see scipy: a fit imports it where it runs."""
    powers = np.linspace(2.0, 25.0, 6)
    lines = ["power_mw,r_trig,r_c,r_a"] + [
        f"{p},{1e4 * p},{30.0 * p},{0.2 * p * p}" for p in powers
    ]
    observations = tmp_path / "observations.csv"
    observations.write_text("\n".join(lines) + "\n")
    argv = ["fit", "--observations", str(observations), "--out", str(tmp_path / "fit")]
    code = f"import muxsim.cli\nassert muxsim.cli.main({argv!r}) == 0"
    assert "scipy.optimize" in _scipy_modules(code)
