"""The CLI's output files, byte for byte, the shared CSV writer's edge cases,
the one function that opens them, the one module that imports csv and
holds the float-cell format, the one function that calls the deadtime
acceptance, and the one way into each fitter."""

import ast
import csv
import hashlib
import io
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from muxsim.cli import main
from muxsim.defaults import FULL_CHAIN
from muxsim.fitting import predict_rates
from muxsim import report
from muxsim.report import _float_cells, _rows, _string_cells, write_csv
from muxsim.spectral import SpectrumModel

# sha256 of each output, recorded from the per-row dict writer that the
# columnar table and array writer replaced, and the fits' from the solver
# with separate Jacobian and trial calls.  The pass-2 fit's was re-recorded
# when the renewal acceptance was regrouped by pair count: two standard
# errors moved in their sixth digit.  It was re-recorded again when the
# no-trigger click probability became an exact product instead of a
# difference of close terms: source C's rel_se_back_reflection_fraction
# moved 0.235149 -> 0.23515.  The traced run's two files were recorded
# before the simulator's per-bin set-up became array calls.  Any byte that
# moves is a change.
EXPECTED_SHA256 = {
    "default/rates_vs_power.csv":
        "ed1e8e5235a20c86fb2c6e183c07b5f701c4e6ff4bf04ef3da0f7beced0bc352",
    "default/rates_vs_power.svg":
        "6e37b5ac93468a3eb52ae8ab97f02500b7154813151e8ac9c71c16ba7eb481e0",
    "default/car_curves.csv":
        "8c53d442cc3b296faeb27e641e846c20ae3d6443270b29d52edf0719999e78ab",
    "default/car_curves.svg":
        "f27e48744c344b4c1acc6abb66996e301b7f1876333eba059e0828468f090c59",
    "default/simulation_report.csv":
        "a158bc0deee332a777c74402ed016f104d15ef5919194669e53f709a09ebe831",
    "dense/rates_vs_power.csv":
        "b926e4f7128c5cc3c318d73acdd901e2777ca9388273a76a7e3e46939b066373",
    "dense/rates_vs_power.svg":
        "c0e4d97698cfdfe378ad4af1e39543996f146dc05a265c8fcb247262d8b985b1",
    "dense/car_curves.csv":
        "88e616b12aec63e82bafcf6690773e1b555d6eb648a7a445706806e608b1bced",
    "dense/car_curves.svg":
        "e7322179184c3be9092fabc31fc5d32a4f7786dbbd99a2d1ccd13679c4346adf",
    "trace/trace.csv":
        "a00af2a5ca86281a5f8196e29aaf97bd3d94cd040b3b15ac89b3484cb467b821",
    "trace/simulation_report.csv":
        "0c7b45cbfc3bee83e17c85331e109568e34bfade907d686e085bbcbe58e313c2",
    "spectra/gamma_matrix.csv":
        "f789450b23800444c765eee55c38c3e2981e20a7cf18102e345979c21d6476d8",
    "fit_pass1/fit_results.csv":
        "69414d47a85f7ae1bd75b02ddfe4c746220d0b3ae81794e4b423f2eb6709483c",
    "fit_pass2/fit_results.csv":
        "4458a9e20ed73228772604ce2992a463789f9948ca79def0d69c2443c3a58dce",
}

DENSE_SWEEP = {"power_sweep_mw": {"start": 0.0, "stop": 40.0, "steps": 321}}

# Three Gaussian spectra apart in centre and width (centre, FWHM, amplitude).
SPECTRA = {
    "P1D0": (1550.0, 0.9, 100.0),
    "P1D1": (1550.3, 1.1, 80.0),
    "P2D0": (1549.6, 0.8, 120.0),
}

# Literal loss budgets (eta_i, eta_s, p_seed_mw, f) of the fitted sources,
# observed at 12 powers with 3% multiplicative noise from a fixed seed.
FIT_SOURCES = {
    "pass1": {
        "A": (0.015, 0.0019, 5.2, 0.0),
        "B": (0.016, 0.0021, 5.6, 0.0),
        "C": (0.017, 0.0018, 4.6, 0.0),
        "D": (0.014, 0.0020, 6.1, 0.0),
    },
    "pass2": {
        "A": (0.018, 0.0024, 6.3, 0.25),
        "B": (0.017, 0.0021, 6.7, 0.25),
        "C": (0.016, 0.0023, 6.8, 0.3),
        "D": (0.015, 0.0020, 6.9, 0.2),
    },
}
FIT_POWERS_MW = np.linspace(2.0, 25.0, 12)


def _write_observations(path, sources, seed):
    rng = np.random.default_rng(seed)
    lines = ["source,power_mw,r_trig,r_c,r_a"]
    for label, truth in sources.items():
        rates = np.stack(predict_rates(*truth, FIT_POWERS_MW, 80e6, FULL_CHAIN), axis=1)
        rates *= 1.0 + rng.normal(0.0, 0.03, rates.shape)
        lines += [
            ",".join([label, repr(p)] + [repr(r) for r in row])
            for p, row in zip(FIT_POWERS_MW.tolist(), rates.tolist())
        ]
    path.write_text("\n".join(lines) + "\n")


def _write_spectrum(path, model, n=61):
    wl = np.linspace(model.center_nm - 3.0, model.center_nm + 3.0, n)
    lines = ["wavelength_nm,counts"]
    lines += [f"{x!r},{y!r}" for x, y in zip(wl.tolist(), model.intensity(wl).tolist())]
    path.write_text("\n".join(lines) + "\n")


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    dense = root / "dense.json"
    dense.write_text(json.dumps(DENSE_SWEEP))
    for command in ("model", "car", "simulate"):
        assert main([command, "--out", str(root / "default")]) == 0
    for command in ("model", "car"):
        assert main([command, "--scenario", str(dense), "--out", str(root / "dense")]) == 0
    traced = ["simulate", "--trace", "--cycles", "300000", "--seed", "7"]
    assert main(traced + ["--out", str(root / "trace")]) == 0
    spectra = root / "spectra_in"
    spectra.mkdir()
    for stem, params in SPECTRA.items():
        _write_spectrum(spectra / f"{stem}.csv", SpectrumModel(*params))
    assert main(["spectra", "--spectra-dir", str(spectra), "--out", str(root / "spectra")]) == 0
    for seed, (kind, sources) in enumerate(FIT_SOURCES.items(), start=7):
        observations = root / f"{kind}.csv"
        _write_observations(observations, sources, seed)
        argv = ["fit", "--observations", str(observations), "--model-kind", kind]
        assert main(argv + ["--out", str(root / f"fit_{kind}")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(EXPECTED_SHA256))
def test_output_bytes_are_pinned(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == EXPECTED_SHA256[name]


def test_zero_power_rows_have_empty_car_cells(outputs):
    rows = _read_rows(outputs / "dense" / "rates_vs_power.csv")
    zero = [r for r in rows if float(r["power_mw"]) == 0.0]
    assert len(zero) == 10
    assert all(r["car"] == "" and r["car_extr"] == "" for r in zero)
    assert all(r["car"] != "" for r in rows if float(r["power_mw"]) > 0.0)


def test_car_curves_drop_zero_power(outputs):
    rows = _read_rows(outputs / "dense" / "car_curves.csv")
    assert len(rows) == 320 * 10
    assert all(float(r["power_mw"]) > 0.0 for r in rows)


def test_spectrum_stem_with_comma_is_quoted(tmp_path):
    spectra = tmp_path / "spectra"
    spectra.mkdir()
    for stem in ("a,b", "c"):
        _write_spectrum(spectra / f"{stem}.csv", SpectrumModel(1550.0, 0.9, 100.0))
    out = tmp_path / "out"
    assert main(["spectra", "--spectra-dir", str(spectra), "--out", str(out)]) == 0
    lines = (out / "gamma_matrix.csv").read_text().splitlines()
    assert lines[0] == 'source,"a,b",c'
    assert lines[1].startswith('"a,b",')


@given(rows=st.lists(st.lists(st.text(), min_size=2, max_size=4), min_size=1, max_size=4))
def test_string_cells_are_quoted_as_csv_writer_quotes_them(rows):
    """Rows of two or more cells, as every CSV the CLI writes has: csv.writer
    writes a row of one empty cell as '""' so that it is not a blank line."""
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows)
    written = b"".join(
        _rows([_string_cells([cell], "utf-8") for cell in row], 0, 1).tobytes() for row in rows
    )
    assert written == expected.getvalue().encode("utf-8")


def _per_value(v: float) -> str:
    return "" if math.isnan(v) else "%.10g" % v


def _float_texts(values) -> list:
    """The cell of each value as the float-cell kernel lays it out."""
    slots = _float_cells(np.array(values, dtype=float))
    return [bytes(cell[cell != 0]).decode("ascii") for cell in slots.T]


def _nudged(x: float):
    """x and its two neighbouring floats."""
    return st.sampled_from([x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)])


def _power_of_ten(k: int) -> float:
    return float(10**k) if k >= 0 else float(f"1e{k}")


_MANTISSA = st.integers(10**9, 10**10 - 1)
# Values that sit on %g's roundings and form switches: ties and near ties
# of the 11th digit, exact decimal ties (round half to even), the carry of
# 9999999999.5 to 1e+10, powers of ten, the fixed/exponent switch points,
# subnormals and the values the kernel leaves to "%.10g".
_HARD_FLOATS = st.one_of(
    st.builds(lambda m, k: (m + 0.5) * 10.0**k, _MANTISSA, st.integers(-25, 25)).flatmap(_nudged),
    st.builds(lambda m, k: float((10 * m + 5) * 10**k), _MANTISSA, st.integers(0, 4)),
    _MANTISSA.map(lambda m: m + 0.5),
    st.integers(-25, 25).map(lambda k: 9999999999.5 * 10.0**k).flatmap(_nudged),
    st.integers(-30, 31).map(_power_of_ten).flatmap(_nudged),
    st.sampled_from([1e-5, 1e-4, 1e10]).flatmap(_nudged),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
).flatmap(lambda x: st.sampled_from([x, -x]))

_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
     -1e300, 1e-300, math.inf, -math.inf, math.nan]
)


@given(values=st.lists(st.floats() | _EDGE_FLOATS | _HARD_FLOATS, max_size=300))
def test_float_cells_match_per_value_formatting(values):
    assert _float_texts(values) == [_per_value(v) for v in values]


def test_float_cells_match_on_random_bits_and_magnitudes():
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False)
    magnitudes = 10.0 ** rng.uniform(-16.0, 34.0, 20000) * rng.choice([-1.0, 1.0], 20000)
    values = np.concatenate([bits.view(np.float64), magnitudes]).tolist()
    assert _float_texts(values) == [_per_value(v) for v in values]


def _csv_writer_bytes(path, header, columns) -> bytes:
    """The bytes csv.writer writes for the table through a text handle,
    each float cell formatted on its own."""
    cells = [
        [_per_value(v) for v in column.tolist()] if isinstance(column, np.ndarray) else column
        for column in columns
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))
    return Path(path).read_bytes()


def _text_cells(cells):
    """Strings with commas, quotes, line breaks, NUL and non-ASCII text, and
    a few repeated labels."""
    return st.lists(st.text() | st.sampled_from(["MUX8", "a,b", "Ω", "x\x00y", ""]),
                    min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=cells, max_size=cells)
    )


@st.composite
def _tables(draw):
    """(header, columns): two to five columns of strings or floats, of zero,
    one or a few rows, with a block of a few cells so that rows straddle
    block boundaries."""
    n_rows = draw(st.sampled_from([0, 1, 2, 3, 7, 16]))
    kinds = draw(st.lists(st.booleans(), min_size=2, max_size=5))
    floats = st.floats() | _EDGE_FLOATS | _HARD_FLOATS
    columns = [
        np.array(draw(st.lists(floats, min_size=n_rows, max_size=n_rows)), dtype=float)
        if is_float else draw(_text_cells(n_rows))
        for is_float in kinds
    ]
    header = draw(st.lists(st.text(), min_size=len(columns), max_size=len(columns)))
    return header, columns


@given(
    table=_tables(),
    block_cells=st.sampled_from([1, 5, 8, 12, 4096]),
    kernel_min_cells=st.sampled_from([0, 2**10]),
)
def test_tables_are_written_as_csv_writer_writes_them(
    tmp_path_factory, table, block_cells, kernel_min_cells
):
    """Through the kernel's blocks, and value by value as small tables are."""
    header, columns = table
    root = tmp_path_factory.mktemp("tables")
    with mock.patch.multiple(
        report, _CSV_BLOCK_CELLS=block_cells, _KERNEL_MIN_CELLS=kernel_min_cells
    ):
        write_csv(root / "table.csv", header, columns)
    assert (root / "table.csv").read_bytes() == _csv_writer_bytes(root / "expected.csv", header, columns)


def test_a_table_straddles_the_block_boundary(tmp_path):
    """Rows on both sides of the first and second block boundaries, with
    cells that the kernel formats and cells it leaves to "%.10g"."""
    rows = 2 * (report._CSV_BLOCK_CELLS // 3) + 1
    assert 3 * rows >= report._KERNEL_MIN_CELLS
    rng = np.random.default_rng(3)
    values = 10.0 ** rng.uniform(-8.0, 12.0, rows)
    values[::97] = np.nan
    values[::89] = 0.0
    columns = [["MUX8", "MUX4", "Ω,x"] * (rows // 3) + ["end"], values, -values[::-1]]
    header = ["source", "value", "negated"]
    write_csv(tmp_path / "table.csv", header, columns)
    expected = _csv_writer_bytes(tmp_path / "expected.csv", header, columns)
    assert (tmp_path / "table.csv").read_bytes() == expected


def test_columns_of_unequal_length_are_rejected(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=r"unequal length: \[3, 2, 3\]"):
        write_csv(path, ["a", "b", "c"], [np.zeros(3), ["x", "y"], np.ones(3)])
    assert not path.exists()


def test_car_on_a_sweep_without_accidentals_writes_empty_curves(tmp_path):
    scenario = tmp_path / "zero.json"
    scenario.write_text(json.dumps({"power_sweep_mw": {"start": 0.0, "stop": 0.0, "steps": 1}}))
    out = tmp_path / "out"
    assert main(["car", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert (out / "car_curves.csv").read_text() == (
        "source,power_mw,car,r_c_hz,car_extr,r_c_extr_hz\n"
    )
    svg = (out / "car_curves.svg").read_text()
    assert "<polyline" not in svg and svg.endswith("</svg>\n")


# --- the one output opener ------------------------------------------------------

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "muxsim"


def _open_mode(call: ast.Call):
    """The mode argument of open(file, mode) or of a method such as
    Path.open(mode), or None if the call passes none (a read)."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    index = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[index] if len(call.args) > index else None


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = _open_mode(call)
    if mode is None:
        return False
    # A mode the source does not spell out counts as a write.
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wxa+"))


def _writers(tree: ast.AST, scope: str = ""):
    """(enclosing function, line) of every call under tree that opens a file
    for writing."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name
        if isinstance(node, ast.Call) and _opens_for_writing(node):
            yield scope, node.lineno
        yield from _writers(node, inner)


def test_only_open_output_opens_files_for_writing():
    found = [
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, _ in _writers(ast.parse(path.read_text(), str(path)))
    ]
    assert found == [("report.py", "open_output")]


@pytest.mark.parametrize(
    "source, writes",
    [
        ("open(p)", False),
        ("open(p, 'r', newline='')", False),
        ("p.open()", False),
        ("open(p, 'w')", True),
        ("open(p, 'ab')", True),
        ("open(p, mode='x')", True),
        ("open(p, 'r+')", True),
        ("open(p, m)", True),
        ("p.open('w')", True),
        ("p.write_text(s)", True),
        ("p.write_bytes(b)", True),
    ],
)
def test_write_opener_check_sees_each_kind_of_write(source, writes):
    found = list(_writers(ast.parse(f"def f():\n    {source}\n")))
    assert found == ([("f", 2)] if writes else [])


# --- the one CSV module ----------------------------------------------------------

def _imports_csv(tree: ast.AST) -> bool:
    """Whether any import under tree names the csv module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "csv" for name in names):
            return True
    return False


def test_only_report_imports_csv():
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if _imports_csv(ast.parse(path.read_text(), str(path)))
    ]
    assert found == ["report.py"]


@pytest.mark.parametrize(
    "source, imports",
    [
        ("import csv", True),
        ("import csv as c", True),
        ("import io, csv", True),
        ("from csv import reader", True),
        ("def f():\n    import csv", True),
        ("import csvkit", False),
        ("from . import csv_rules", False),
        ("from .report import read_csv", False),
    ],
)
def test_csv_import_check_sees_each_kind_of_import(source, imports):
    assert _imports_csv(ast.parse(source)) == imports


def _float_formats(tree: ast.AST):
    """Line of every string or bytes constant under tree that holds the
    ten-digit %g format, in a % format, a format spec or an f-string;
    docstrings and other bare string statements are prose, not formats."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        for child in ast.iter_child_nodes(node):
            value = getattr(child, "value", None) if isinstance(child, ast.Constant) else None
            if isinstance(value, bytes):
                value = value.decode("latin-1")
            if isinstance(value, str) and ".10g" in value:
                yield child.lineno


def test_only_report_holds_the_float_cell_format():
    found = sorted(
        {
            path.name
            for path in PACKAGE.glob("*.py")
            for _ in _float_formats(ast.parse(path.read_text(), str(path)))
        }
    )
    assert found == ["report.py"]


@pytest.mark.parametrize(
    "source, holds",
    [
        ('text = "%.10g" % v', True),
        ('text = b"%.10g" % v', True),
        ('text = f"{v:.10g}"', True),
        ('text = format(v, ".10g")', True),
        ('text = "{:.10g}".format(v)', True),
        ('cells = ("%.10g\\n" * n) % values', True),
        ('text = "%.6g" % v', False),
        ('text = f"{v:.6g}"', False),
        ('"""Floats are written as %.10g writes them."""', False),
    ],
)
def test_float_format_check_sees_each_kind_of_format(source, holds):
    assert bool(list(_float_formats(ast.parse(f"def f(v):\n    {source}\n")))) == holds
    assert bool(list(_float_formats(ast.parse(source)))) == holds


# --- the one saturation path -----------------------------------------------------

def _acceptance_readers(tree: ast.AST, scope: str = ""):
    """(enclosing function, line) of every `.acceptance` attribute under
    tree, called or not."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name
        if isinstance(node, ast.Attribute) and node.attr == "acceptance":
            yield scope, node.lineno
        yield from _acceptance_readers(node, inner)


def test_only_saturated_rates_calls_the_acceptance():
    found = [
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, _ in _acceptance_readers(ast.parse(path.read_text(), str(path)))
    ]
    assert found == [("mux.py", "saturated_rates")]


@pytest.mark.parametrize(
    "source, reads",
    [
        ("chain.acceptance(p, rep)", True),
        ("self.deadtime_chain.acceptance(0.0, rep)", True),
        ("accept = chain.acceptance", True),
        ("rates = map(lambda p: chain.acceptance(p, rep), ps)", True),
        ("saturated_rates(0.0, 0.0, 0.0, rep, chain)", False),
        ("chain.acceptances(p)", False),
        ("acceptance = 1.0", False),
    ],
)
def test_acceptance_check_sees_each_kind_of_read(source, reads):
    found = list(_acceptance_readers(ast.parse(f"def f():\n    {source}\n")))
    assert found == ([("f", 2)] if reads else [])
    found = list(_acceptance_readers(ast.parse(source)))
    assert found == ([("", 1)] if reads else [])


# --- one way into each fitter ------------------------------------------------------

def _references(tree: ast.AST, names, scope: str = ""):
    """(name, enclosing function) of every reference under tree to one of
    names, as a bare name or an attribute, called or not; the function a
    def or lambda is in is its scope, and a def of the name is no reference."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name
        if isinstance(node, ast.Name) and node.id in names:
            yield node.id, scope
        if isinstance(node, ast.Attribute) and node.attr in names:
            yield node.attr, scope
        yield from _references(node, names, inner)


def test_each_fitter_has_one_entry():
    """The rate fitter's solver run is reached through fit_all alone, and
    the one-item fits are the batch fits of one item."""
    names = ("_fit_group", "_fit_each", "fit_all", "fit_gaussians")
    found = {name: set() for name in names}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, scope in _references(ast.parse(path.read_text(), str(path)), names):
            found[name].add((path.name, scope))
    assert found["_fit_group"] == {("fitting.py", "_fit_each")}
    assert found["_fit_each"] == {("fitting.py", "fit_all"), ("fitting.py", "_fit_each")}
    assert ("fitting.py", "fit_source") in found["fit_all"]
    assert ("spectral.py", "fit_gaussian") in found["fit_gaussians"]


@pytest.mark.parametrize(
    "source, refers",
    [
        ("_fit_group(problems, *args)", True),
        ("fitting._fit_group(problems)", True),
        ("run = functools.partial(_fit_group, seed=0)", True),
        ("fits = map(lambda p: _fit_group([p]), problems)", True),
        ("return [r for p in problems for r in _fit_group([p])]", True),
        ("_fit_groups(problems)", False),
        ("name = '_fit_group'", False),
        ("fit_group(problems)", False),
        ("def _fit_group(): pass", False),
    ],
)
def test_reference_check_sees_each_kind_of_reference(source, refers):
    found = list(_references(ast.parse(f"def f():\n    {source}\n"), ("_fit_group",)))
    assert found == ([("_fit_group", "f")] if refers else [])
    if not source.startswith("return"):
        found = list(_references(ast.parse(source), ("_fit_group",)))
        assert found == ([("_fit_group", "")] if refers else [])
