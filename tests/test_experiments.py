import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helmlayer import (ConfigError, DegenerateFit, InvalidLayer, LayerSpec,
                       ParticleConfiguration, experiments, sample_matern, solve_w1)
from helmlayer.cli import main
from helmlayer.corrector import _GreenTable, estimate_c1
from helmlayer.experiments import (DEFAULT_CONFIG, ExperimentConfig, fit_rate, run_c1_study,
                                   run_sweep, run_validate)
from helmlayer.grid import classify_nodes
from tests.test_corrector import CAPACITANCE_RTOL


def test_fit_rate_exact_slopes():
    eps = [0.2, 0.1, 0.05, 0.02]
    slope, _, r_sq = fit_rate([(e, 3.0 * e) for e in eps])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert r_sq == pytest.approx(1.0)
    slope2, _, _ = fit_rate([(e, 0.7 * e * e) for e in eps])
    assert slope2 == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_noisy_power_law():
    rng = np.random.default_rng(321)
    slopes = []
    for _ in range(20):
        eps = np.array([0.2, 0.1, 0.05, 0.02, 0.01])
        err = 2.0 * eps ** 1.5 * (1.0 + 0.2 * (2.0 * rng.random(len(eps)) - 1.0))
        slopes.append(fit_rate(list(zip(eps, err)))[0])
    assert all(1.3 <= s <= 1.7 for s in slopes)


def test_fit_rate_guards():
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0), (0.05, -0.5), (0.025, 0.2)])
    with pytest.raises(DegenerateFit):
        fit_rate([(0.1, 1.0), (0.08, 0.8), (0.05, 0.5)])


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"scenarioo": "sweep"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"geometry": {"hh": 3}})


def test_corrector_cells_are_periodic():
    # the layer metric is the cell grid's, periodic, with no flag to turn it off
    with pytest.raises(ConfigError, match="geometry.periodic"):
        ExperimentConfig.from_dict({"geometry": {"periodic": False}})
    with pytest.raises(TypeError):
        LayerSpec(periodic=False)
    cfg = ExperimentConfig.from_dict({"geometry": {"width": 10.0}})
    for width, expected in ((None, 10.0), (40.0, 40.0)):
        layer = cfg.corrector_config(width).layer
        assert layer == dataclasses.replace(cfg.layer, width=expected)
    # two disks 0.2 apart across the seam of the width-10 cell overlap
    with pytest.raises(InvalidLayer, match="hard-core"):
        ParticleConfiguration(np.array([[4.9, 2.0], [-4.9, 2.0]]),
                              cfg.corrector_config().layer, seed=0)


def test_config_epsilon_list_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"epsilon_list": [0.1, 0.2]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"epsilon_list": [0.1, -0.2]})
    with pytest.raises(ConfigError, match="finite"):  # NaN <= 0 is false
        ExperimentConfig.from_dict({"epsilon_list": [float("nan")]})
    cfg = ExperimentConfig.from_dict({"epsilon_list": [0.2, 0.1]})
    assert cfg.epsilon_list == (0.2, 0.1)


def test_config_defaults_and_derived_epsilons():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.scenario == "validate"
    assert cfg.H == cfg.layer.h + 2.0
    targets = [e * cfg.wave.k2 for e in cfg.epsilon_list]
    assert targets == pytest.approx([0.2, 0.1, 0.05, 0.025])


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"n_samples": 0})
    assert ExperimentConfig.from_dict({"n_samples": 1}).n_samples == 1  # a one-sample sweep
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"scenario": "other"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"geometry": {"h": 1.0}})


def _tiny_c1_config(tmp_path, **kw):
    user = {
        "scenario": "c1_study",
        "geometry": {"h": 5.0, "delta": 0.05, "width": 12.0},
        "process": {"kind": "matern2", "rho": 0.3},
        "n_samples": 4,
        "master_seed": 77,
        "output_dir": str(tmp_path / "out"),
    }
    user.update(kw)
    return ExperimentConfig.from_dict(user)


def test_c1_study_outputs_are_thread_invariant(tmp_path):
    cfg_a = _tiny_c1_config(tmp_path / "a")
    cfg_b = _tiny_c1_config(tmp_path / "b")
    run_c1_study(cfg_a, threads=1)
    run_c1_study(cfg_b, threads=4)
    for name in ("c1_history.csv", "c1_width.csv"):
        a = (tmp_path / "a" / "out" / name).read_bytes()
        b = (tmp_path / "b" / "out" / name).read_bytes()
        assert a == b
    # reruns are byte identical too
    cfg_c = _tiny_c1_config(tmp_path / "c")
    run_c1_study(cfg_c, threads=8)
    assert ((tmp_path / "a" / "out" / "c1_history.csv").read_bytes()
            == (tmp_path / "c" / "out" / "c1_history.csv").read_bytes())


def test_c1_study_moves_every_sample_to_the_requested_interface(tmp_path):
    # h = 4.5: H = 6.5 snaps to the grid line 6.4, so a raw trace mean is 0.1 low
    config = _tiny_c1_config(tmp_path, geometry={"h": 4.5, "delta": 0.05, "width": 12.0})
    est = run_c1_study(config)
    first = config.corrector_config()
    realization = sample_matern(first.process, first.layer, 77, stream=0)
    w1 = solve_w1(first, realization)
    assert w1.c1 == pytest.approx(w1.trace_mean + 0.1, abs=1e-12)
    # the estimate's samples come from the capacitance path, which agrees with
    # solve_w1 to round-off
    table = _GreenTable(first)
    assert est.history[0][1] == table.c1(classify_nodes(table.grid, realization))
    assert est.history[0][1] == pytest.approx(w1.c1, rel=CAPACITANCE_RTOL, abs=0.0)
    widest = config.corrector_config(width=96.0)
    w1 = solve_w1(widest, sample_matern(widest.process, widest.layer, 77, stream=0))
    last = (tmp_path / "out" / "c1_width.csv").read_text().splitlines()[-1]
    assert last == f"96.0,1,{w1.c1!r},"


def test_c1_study_reuses_its_estimate_for_the_configured_width(tmp_path, monkeypatch):
    config = _tiny_c1_config(tmp_path, geometry={"h": 5.0, "delta": 0.05, "width": 10.0})
    widths = []
    estimate_c1 = experiments.estimate_c1

    def counting_estimate_c1(cfg, *args, **kwargs):
        widths.append(cfg.layer.width)
        return estimate_c1(cfg, *args, **kwargs)

    monkeypatch.setattr(experiments, "estimate_c1", counting_estimate_c1)
    est = run_c1_study(config)
    assert widths == [10.0, 5.0, 20.0]
    rows = (tmp_path / "out" / "c1_width.csv").read_text().splitlines()
    assert rows[2] == f"10.0,4,{est.mean!r},{est.std_err!r}"
    assert json.loads((tmp_path / "out" / "provenance.json").read_text())["c1"] == {
        "mean": est.mean, "std_err": est.std_err, "ci95": list(est.ci95),
        "n_samples": 4, "n_failures": 0}


def test_sweep_estimates_c1_itself_and_records_it_in_provenance(tmp_path, monkeypatch):
    out = tmp_path / "out"
    config = ExperimentConfig.from_dict({
        "scenario": "sweep",
        "geometry": {"h": 5.0, "delta": 0.05, "width": 5.0},
        "process": {"kind": "matern2", "rho": 0.3},
        "wave": {"k": 1.0, "theta": math.pi / 4.0},
        "epsilon_list": [0.4],
        "n_samples": 2,
        "master_seed": 77,
        "output_dir": str(out),
    })
    est = estimate_c1(config.corrector_config(), 30, 77)  # max(n_samples, 30) samples
    expected = {"mean": est.mean, "std_err": est.std_err, "ci95": list(est.ci95),
                "n_samples": 27, "n_failures": 3}  # three empty realizations
    assert (est.n_samples, est.n_failures) == (27, 3)
    estimates = []

    def counting_estimate_c1(*args, **kwargs):
        estimates.append(args)
        return estimate_c1(*args, **kwargs)

    monkeypatch.setattr(experiments, "estimate_c1", counting_estimate_c1)
    # a rerun into the same directory estimates c1 again and leaves no cache file
    for runs in (1, 2):
        report = run_sweep(config)
        assert estimates == [(config.corrector_config(), 30, 77)] * runs
        assert report.c1_used == est.mean
        assert report.provenance["c1"] == expected
        assert json.loads((out / "provenance.json").read_text())["c1"] == expected
        assert sorted(p.name for p in out.iterdir()) == ["provenance.json", "sweep.csv"]
    # a given c1 is used as it is: no estimate, and no c1 record rather than a zero one
    report = run_sweep(config, c1=2.5)
    assert len(estimates) == 2 and report.c1_used == 2.5
    assert "c1" not in report.provenance
    assert "c1" not in json.loads((out / "provenance.json").read_text())


def test_validate_suite_passes():
    config = ExperimentConfig.from_dict({"scenario": "validate"})
    checks = run_validate(config)
    names = {c.name for c in checks}
    assert names == {"robin_halfspace_oracle", "shift_identity", "unimodularity",
                     "dtn_spectral_action", "empty_layer_singularity",
                     "farfield_order2_consistency"}
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"


def test_validate_insensitive_to_c1_perturbation():
    # shift identity and the order-2 slope are structural: any c1 works
    wave_pairs = []
    from helmlayer import PlaneWave, effective_reflection, farfield_reflection

    wave = PlaneWave(k=1.0, theta=math.pi / 4.0)
    for c1 in (2.3, 2.4):
        pairs = [(e, abs(farfield_reflection(wave, e, 7.0, c1)
                         - effective_reflection(2, wave, e, 7.0, c1)))
                 for e in (0.1, 0.05, 0.025, 0.0125)]
        wave_pairs.append(fit_rate(pairs)[0])
    assert abs(wave_pairs[0] - 2.0) <= 0.1 and abs(wave_pairs[1] - 2.0) <= 0.1


def test_cli_sample_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "run"
    config = {"scenario": "sample_only", "geometry": {"width": 12.0},
              "output_dir": str(out)}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["--config", str(cfg_path), "sample"]) == 0
    assert (out / "particles.csv").exists()
    assert (out / "provenance.json").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    assert main(["--config", str(bad), "sample"]) == 3
    missing = tmp_path / "missing.json"
    assert main(["--config", str(missing), "sample"]) == 3
    for user in ({"n_samples": "x"}, {"grid": {"target_dx": "a"}}, {"n_samples": 2.7},
                 {"master_seed": 3.9}, {"n_samples": True}, {"master_seed": False},
                 {"n_samples": float("inf")}, {"grid": {"target_dx": float("nan")}},
                 {"grid": {"target_dx": float("inf")}},
                 {"grid": {"nodes_per_diameter": float("inf")}}, {"grid": {"dtn_gap": float("nan")}},
                 {"epsilon_list": [0.2, float("nan")]}, {"epsilon_list": [float("inf"), 0.1]},
                 {"wave": {"k": float("nan")}, "epsilon_list": [0.8, 0.4, 0.2]},
                 {"wave": {"theta": float("nan")}}, {"gamma": {"re": float("nan"), "im": 1.0}},
                 {"gamma": {"im": float("inf")}}, {"geometry": {"width": float("inf")}},
                 {"geometry": {"h": float("inf")}}, {"geometry": {"delta": float("nan")}},
                 # expected particle counts rho*width*h/pi beyond the sampler's bound, of
                 # the layer, and of the sweep window width / 1e-4; nothing is drawn
                 {"geometry": {"width": 1e300}}, {"geometry": {"width": 1e12}},
                 {"geometry": {"h": 1e300}},
                 {"geometry": {"width": 1000.0}, "epsilon_list": [0.5, 1e-4]}):
        bad.write_text(json.dumps(user))
        assert main(["--config", str(bad), "sample"]) == 3
    # a non-finite layer field is named in the message
    bad.write_text(json.dumps({"geometry": {"delta": float("nan")}}))
    capsys.readouterr()
    assert main(["--config", str(bad), "reference"]) == 3
    assert "delta=nan must be finite" in capsys.readouterr().err
    # an empty epsilon list leaves the reference solve no scale
    bad.write_text(json.dumps({"epsilon_list": []}))
    assert main(["--config", str(bad), "reference"]) == 3
    # the modal closure keeps every mode, so its former truncation knob is unknown
    bad.write_text(json.dumps({"grid": {"dtn_eta": 1e-6}}))
    capsys.readouterr()
    assert main(["--config", str(bad), "sample"]) == 3
    assert "grid.dtn_eta" in capsys.readouterr().err
    # one sample is a valid config (a sweep may run one), but no c1 study
    bad.write_text(json.dumps({"n_samples": 1, "output_dir": str(tmp_path / "out")}))
    assert main(["--config", str(bad), "c1"]) == 3
    assert not (tmp_path / "out").exists()
    bad.write_bytes(b'{"output_dir": "\xff"}')  # not UTF-8
    assert main(["--config", str(bad), "sample"]) == 3


@pytest.mark.parametrize("user, command", [
    ({"grid": {"target_dx": 0.5}}, "c1"),
    ({"grid": {"target_dx": 0.5}}, "corrector-profile"),
    ({"grid": {"target_dx": 0.5}}, "sweep"),
    ({"grid": {"target_dx": 0.0}}, "c1"),
    ({"grid": {"target_dx": -0.1}}, "c1"),
    ({"gamma": {"re": 0.0}}, "reference"),
    ({"gamma": {"re": 0.0}}, "sweep"),
    ({"grid": {"dtn_gap": 0.0}}, "reference"),
    ({"grid": {"dtn_gap": -1.0}}, "reference"),
    ({"grid": {"nodes_per_diameter": 0.0}}, "reference"),
    ({"grid": {"nodes_per_diameter": -5.0}}, "reference"),
    # far under the count bound, but the sampler's candidate pairs are not
    ({"geometry": {"h": 5000.0}}, "sample"),
])
def test_cli_rejects_out_of_range_settings_as_config_errors(tmp_path, capsys, user, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(user, output_dir=str(tmp_path / "out"))))
    assert main(["--config", str(cfg), command]) == 3
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["--recompute-c1", "sweep"],  # the flag of the deleted c1 cache
    ["--bogus", "sample"],
    ["--threads", "x", "sample"],
    ["--threads", "0", "c1"],
    ["--threads", "-3", "c1"],
    ["bogus"],
])
def test_cli_usage_errors_are_config_errors(tmp_path, capsys, argv):
    # not argparse's exit 2, which is the validation-failure code
    out = tmp_path / "out"
    assert main(["--out", str(out), *argv]) == 3
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--threads" in capsys.readouterr().out


def test_cli_rejects_a_non_periodic_layer(tmp_path, capsys):
    # at width 10 and seed 1, the two disks sit 1.59 apart across the seam,
    # which only a non-periodic metric would have accepted
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"geometry": {"periodic": False, "width": 10.0},
                               "master_seed": 1}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "corrector-profile"]) == 3
    assert "geometry.periodic" in capsys.readouterr().err
    assert not (out / "decay_profile.csv").exists()


def test_cli_seed_and_out_overrides(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"scenario": "sample_only", "geometry": {"width": 12.0}}))
    assert main(["--config", str(cfg), "--seed", "5", "--out", str(out_a), "sample"]) == 0
    assert main(["--config", str(cfg), "--seed", "5", "--out", str(out_b), "sample"]) == 0
    assert ((out_a / "particles.csv").read_bytes()
            == (out_b / "particles.csv").read_bytes())
    prov = json.loads((out_a / "provenance.json").read_text())
    assert prov["master_seed"] == 5


def test_cli_corrector_profile(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"scenario": "corrector_profile",
                               "geometry": {"width": 12.0},
                               "output_dir": str(tmp_path / "out")}))
    assert main(["--config", str(cfg), "corrector-profile"]) == 0
    lines = (tmp_path / "out" / "decay_profile.csv").read_text().splitlines()
    assert lines[0] == "y_d,mean_minus_c1,lateral_variance,mean_grad_sq"
    assert len(lines) > 2


def test_cli_validate_passes(tmp_path, capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 6
    assert "[FAIL]" not in out


def test_cli_reference_writes_field(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "scenario": "sweep",
        "geometry": {"h": 5.0, "delta": 0.05, "width": 12.0},
        "process": {"kind": "matern2", "rho": 0.35},
        "wave": {"k": 1.0, "theta": math.pi / 4.0},
        "epsilon_list": [0.4],
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["--config", str(cfg), "reference"]) == 0
    field_csv = tmp_path / "out" / "field_eps0.4.csv"
    assert field_csv.exists()
    assert field_csv.read_text().splitlines()[0] == "x,y,re_u,im_u"


def test_cli_report_after_run(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({"scenario": "sample_only",
                               "geometry": {"width": 12.0},
                               "output_dir": str(out)}))
    assert main(["--config", str(cfg), "sample"]) == 0
    capsys.readouterr()
    assert main(["--config", str(cfg), "report"]) == 0
    assert "provenance.json" in capsys.readouterr().out


def test_cli_report_missing_dir(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "nope")}))
    assert main(["--config", str(cfg), "report"]) == 3


def test_default_config_document_is_valid():
    cfg = ExperimentConfig.from_dict({})
    assert cfg.raw["grid"]["target_dx"] == DEFAULT_CONFIG["grid"]["target_dx"]


_CAPPED_CLI = """
import resource, sys
from helmlayer.cli import main
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (mapped + (256 << 20), resource.RLIM_INFINITY))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_cli_factor_beyond_the_address_space_cap_exits_numerical(tmp_path):
    # a tall, sparsely filled layer: the 600 x 500-node particle band under the
    # cut row factors into about 20M complex entries (over 400 MB with their
    # indices), past the 256 MB the child allows itself beyond what it has
    # mapped after start-up; assembly takes under 100 MB of that. A factor
    # that far over the cap fails within SuperLU's first allocations, where
    # one that nearly fits can grow towards the cap for minutes
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "scenario": "sweep",
        "geometry": {"h": 100.0, "delta": 0.05, "width": 24.0},
        "process": {"kind": "matern2", "rho": 0.05},
        "wave": {"k": 1.0, "theta": math.pi / 4.0},
        "epsilon_list": [0.2],
        "grid": {"dtn_gap": 0.2},
        "output_dir": str(tmp_path / "out"),
    }))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CLI, "--config", str(cfg), "reference"],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 4, proc.stderr
    assert "FactorTooLarge" in proc.stderr
    assert "SuperLU could not allocate" in proc.stderr
