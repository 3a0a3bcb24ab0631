"""The benchmark under bench/ reaches into the package by name; these checks
fail when a rename or deletion would break it."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _load_bench_module("tracing")
    for label, (module_name, attr) in tracing.TRACED.items():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{label}: {module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), label


def test_observation_writer_calls_predict_rates(tmp_path, monkeypatch):
    # The benchmark writes its fit inputs with a positional predict_rates call.
    monkeypatch.syspath_prepend(str(BENCH))
    inputs = _load_bench_module("inputs")
    powers = np.linspace(2.0, 25.0, 4)
    truth = inputs._observations(
        tmp_path / "obs.csv", {"P2D0": inputs.PASS2_SOURCES[0]}, "pass2", powers, None
    )
    clean = truth["P2D0"]["clean"]
    assert [len(rates) for rates in clean] == [powers.size] * 3
    assert all(math.isfinite(r) and r > 0.0 for rates in clean for r in rates)
    lines = (tmp_path / "obs.csv").read_text().splitlines()
    assert len(lines) == 1 + powers.size


def test_model_and_car_draw_through_the_module_binding(tmp_path, monkeypatch):
    # The benchmark times cli.svg_line_chart by replacing that module attribute.
    import muxsim.cli as cli

    drawn = []
    original = cli.svg_line_chart

    def recording(path, *args, **kwargs):
        drawn.append(path.name)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(cli, "svg_line_chart", recording)
    for command in ("model", "car"):
        assert cli.main([command, "--out", str(tmp_path)]) == 0
    assert drawn == ["rates_vs_power.svg", "car_curves.svg"]


def test_fit_draws_one_model_call_per_solver_batch(tmp_path, monkeypatch):
    # The fitter's model call is fitting._rates_and_slopes, rates and exact
    # Jacobians together; each of the solver's batch calls must make one, so
    # that a span around it counts the fit's model evaluations.
    # fitting.predict_rates, which the benchmark's observation writer calls,
    # gives the same rates and is no longer on the fit's path.
    monkeypatch.syspath_prepend(str(BENCH))
    inputs = _load_bench_module("inputs")
    import muxsim.cli as cli
    from muxsim import fitting

    obs = tmp_path / "obs.csv"
    rng = np.random.default_rng(5)
    inputs._observations(
        obs, {"P2D0": inputs.PASS2_SOURCES[0]}, "pass2", np.linspace(2.0, 25.0, 12), rng
    )
    calls = {"batch": 0, "model": 0}
    batch, model = fitting._residual_batch, fitting._rates_and_slopes

    def counting_batch(*args, **kwargs):
        calls["batch"] += 1
        return batch(*args, **kwargs)

    def counting_model(*args):
        calls["model"] += 1
        return model(*args)

    monkeypatch.setattr(fitting, "_residual_batch", counting_batch)
    monkeypatch.setattr(fitting, "_rates_and_slopes", counting_model)
    argv = ["fit", "--observations", str(obs), "--model-kind", "pass2"]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert calls["batch"] > 3
    assert calls["model"] == calls["batch"]


def test_simulate_makes_one_run_pulse_train_call(tmp_path, monkeypatch):
    # The benchmark's span around cli.run_pulse_train reads the config from
    # the call's first positional argument, and its memory run reads the
    # first record of that span, with and without --trace.
    import muxsim.cli as cli
    from muxsim import PulseTrainConfig

    calls = []
    original = cli.run_pulse_train

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_pulse_train", recording)
    for extra in ([], ["--trace"]):
        calls.clear()
        argv = ["simulate", "--cycles", "20000", "--out", str(tmp_path)] + extra
        assert cli.main(argv) == 0
        assert len(calls) == 1
        assert isinstance(calls[0][0], PulseTrainConfig)
        assert calls[0][0].n_clock_cycles == 20_000
    assert (tmp_path / "trace.csv").is_file()
