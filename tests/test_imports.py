"""The numpy-only path: importing muxsim and running any command loads no
scipy module, fit and spectra load no numpy.ma (about 1 MB and 10 ms that
np.median and a bare np.unique would import), and the commands that never
draw load no numpy.random (about 6 MB and 12-15 ms)."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _loaded_modules(code: str, package: str = "scipy") -> list:
    """Modules of package (scipy unless named) in sys.modules after running
    code in a fresh interpreter."""
    script = (
        f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\nimport json\n"
        f"print(json.dumps(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r}))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_imports_load_no_scipy():
    assert _loaded_modules("import muxsim") == []
    assert _loaded_modules("import muxsim.cli") == []
    assert _loaded_modules("from muxsim.fitting import load_observations_csv") == []


def test_model_car_simulate_load_no_scipy(tmp_path):
    for command in (["model"], ["car"], ["simulate", "--cycles", "10000"]):
        out = str(tmp_path / command[0])
        code = f"import muxsim.cli\nassert muxsim.cli.main({command + ['--out', out]!r}) == 0"
        assert _loaded_modules(code) == [], command


def _fit_and_spectra(tmp_path, run=("fit", "spectra")) -> str:
    """Code that runs fit and spectra (or those of them named in run) on
    small input files."""
    powers = np.linspace(2.0, 25.0, 6)
    lines = ["power_mw,r_trig,r_c,r_a"] + [
        f"{p},{1e4 * p},{30.0 * p},{0.2 * p * p}" for p in powers
    ]
    observations = tmp_path / "observations.csv"
    observations.write_text("\n".join(lines) + "\n")
    spectra = tmp_path / "spectra"
    spectra.mkdir()
    wavelengths = np.linspace(1548.0, 1552.0, 41)
    for i, center in enumerate((1549.9, 1550.1)):
        counts = 100.0 * np.exp(-((wavelengths - center) ** 2) / 0.5)
        rows = ["wavelength_nm,counts"] + [f"{w},{c}" for w, c in zip(wavelengths, counts)]
        (spectra / f"s{i}.csv").write_text("\n".join(rows) + "\n")
    commands = (
        ["fit", "--observations", str(observations), "--out", str(tmp_path / "fit")],
        ["spectra", "--spectra-dir", str(spectra), "--out", str(tmp_path / "spectra-out")],
    )
    return "import muxsim.cli\n" + "".join(
        f"assert muxsim.cli.main({argv!r}) == 0\n" for argv in commands if argv[0] in run
    )


def test_fit_and_spectra_load_no_scipy(tmp_path):
    code = _fit_and_spectra(tmp_path)
    assert _loaded_modules(code) == []
    # The guard can see scipy when the same child loads it.
    assert "scipy.optimize" in _loaded_modules(code + "import scipy.optimize")


def test_fit_and_spectra_load_no_numpy_ma(tmp_path):
    code = _fit_and_spectra(tmp_path)
    assert _loaded_modules(code, "numpy.ma") == []
    assert "numpy.ma" in _loaded_modules(code + "import numpy as np\nnp.median([1.0])", "numpy.ma")


def test_commands_that_never_draw_load_no_numpy_random(tmp_path):
    assert _loaded_modules("import muxsim.cli", "numpy.random") == []
    for command in (["model"], ["car"]):
        out = str(tmp_path / command[0])
        code = f"import muxsim.cli\nassert muxsim.cli.main({command + ['--out', out]!r}) == 0"
        assert _loaded_modules(code, "numpy.random") == [], command
    assert _loaded_modules(_fit_and_spectra(tmp_path, run=("spectra",)), "numpy.random") == []
    # The guard can see numpy.random when a command draws.
    code = f"import muxsim.cli\nassert muxsim.cli.main(['simulate', '--cycles', '1000', '--out', {str(tmp_path / 'sim')!r}]) == 0"
    assert "numpy.random" in _loaded_modules(code, "numpy.random")
