"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. The heavier criteria (6, 7, 9) stay within their stated runtime
budgets at desk scale.
"""

import math

import numpy as np
import pytest

from helmlayer import (LayerSpec, PlaneWave, PointProcessParams, ScatteringScene,
                       SingularSystem, effective_reflection, farfield_reflection,
                       reference_solve, robin_halfspace_reflection, sample_matern)
from helmlayer.corrector import CorrectorConfig, decay_profile, estimate_c1, solve_w1
from helmlayer.experiments import ExperimentConfig, fit_rate, run_c1_study, run_sweep
from tests.test_geometry import oracle_matern_count


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}",
          flush=True)
    assert passed, detail


def test_criterion_1_robin_halfspace_oracle():
    wave = PlaneWave(k=1.0, theta=math.pi / 4.0)
    gamma = 1.0 + 1.0j
    layer = LayerSpec(h=5.0, delta=0.05, width=10.0)
    empty = sample_matern(PointProcessParams(rho=0.0), layer, 0)
    exact = robin_halfspace_reflection(wave, gamma)
    errs = []
    for dx in (2.0 * math.pi / 64.0, math.pi / 64.0):
        scene = ScatteringScene(epsilon=0.05, H=7.0, layer=layer, gamma=gamma,
                                period=2.0 * math.pi, L=1.0, config=empty)
        _, refl = reference_solve(scene, wave, dx)
        errs.append(abs(refl - exact))
    factor = errs[0] / errs[1]
    _report(1, errs[0] <= 5e-3 and factor >= 3.0,
            f"|dr| = {errs[0]:.3e} (tol 5e-3), halving factor {factor:.2f} (>= 3)")


def test_criterion_2_shift_identity_ten_realizations():
    layer = LayerSpec(h=5.0, delta=0.05, width=20.0)
    process = PointProcessParams(rho=0.3)
    base = dict(layer=layer, process=process, target_dx=0.2)
    worst = 0.0
    for j in range(10):
        realization = sample_matern(process, layer, 314, stream=j)
        lo = solve_w1(CorrectorConfig(H=7.0, L_cell=14.0, **base), realization)
        hi = solve_w1(CorrectorConfig(H=9.0, L_cell=14.0, **base), realization)
        worst = max(worst, abs(hi.trace_mean - lo.trace_mean - 2.0))
    _report(2, worst <= 1e-8,
            f"max |trace(H+2) - trace(H) - 2| = {worst:.2e} over 10 realizations (tol 1e-8)")


def test_criterion_3_unimodularity():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(100):
        wave = PlaneWave(k=rng.uniform(0.3, 3.0), theta=rng.uniform(-1.3, 1.3))
        eps = rng.uniform(0.005, 0.6)
        height = rng.uniform(3.0, 12.0)
        c1 = rng.uniform(0.05, 6.0)
        r2 = effective_reflection(2, wave, eps, height, c1)
        worst = max(worst, abs(abs(r2) - 1.0))
    _report(3, worst <= 1e-12,
            f"max | |r2| - 1 | = {worst:.2e} over 100 tuples (tol 1e-12)")


def test_criterion_4_farfield_consistency_slope():
    wave = PlaneWave(k=1.0, theta=math.pi / 4.0)
    c1 = 2.3
    pairs = [(eps, abs(farfield_reflection(wave, eps, 7.0, c1)
                       - effective_reflection(2, wave, eps, 7.0, c1)))
             for eps in (0.1, 0.05, 0.025, 0.0125)]
    slope, _, _ = fit_rate(pairs)
    _report(4, abs(slope - 2.0) <= 0.1, f"log-log slope = {slope:.4f} (2.0 +- 0.1)")


def test_criterion_5_empty_layer_singularity():
    layer = LayerSpec(h=5.0, delta=0.05, width=15.0)
    empty = sample_matern(PointProcessParams(rho=0.0), layer, 0)
    cfg = CorrectorConfig(layer=layer, process=PointProcessParams(rho=0.0))
    raised = False
    try:
        solve_w1(cfg, empty)
    except SingularSystem:
        raised = True
    _report(5, raised, "solve_w1 on an empty configuration raises SingularSystem")


def test_criterion_6_rate_reproduction_desk_scale(tmp_path):
    config = ExperimentConfig.from_dict({
        "scenario": "sweep",
        "geometry": {"h": 5.0, "delta": 0.05, "width": 100.0},
        "process": {"kind": "matern2", "rho": 0.4},
        "n_samples": 10,
        "master_seed": 20240801,
        "output_dir": str(tmp_path / "sweep"),
    })
    targets = [e * config.wave.k2 for e in config.epsilon_list]
    assert targets == pytest.approx([0.2, 0.1, 0.05, 0.025])
    report = run_sweep(config, threads=2)
    rate1, rate2 = (report.rates[order]["slope"] for order in ("order1", "order2"))
    ordered = all(r.err2_mean < r.err1_mean for r in report.rows)
    ok = (len(report.rows) == 4 and 0.7 <= rate1 <= 1.3 and ordered and rate2 >= 1.1)
    rows = "; ".join(f"k2e={r.epsilon * config.wave.k2:.3f}: "
                     f"err1={r.err1_mean:.4f}, err2={r.err2_mean:.4f}"
                     for r in report.rows)
    _report(6, ok,
            f"rate1 = {rate1:.3f} (in [0.7, 1.3]), rate2 = {rate2:.3f} (>= 1.1), "
            f"order2 < order1 at every eps: {ordered}; {rows}; c1 = {report.c1_used:.4f} "
            f"(std_err {report.provenance['c1']['std_err']:.4f})")


def test_criterion_7_c1_monte_carlo_statistics():
    layer = LayerSpec(h=5.0, delta=0.05, width=20.0)
    cfg = CorrectorConfig(layer=layer, process=PointProcessParams(rho=0.35),
                          target_dx=0.2)
    # meta-trial: doubling the sample count shrinks std_err by 1/sqrt(2) +- 30%
    ratios = []
    for rep in range(5):
        seed = 5000 + rep
        se_n = estimate_c1(cfg, 40, seed).std_err
        se_2n = estimate_c1(cfg, 80, seed).std_err
        ratios.append(se_2n / se_n)
    mean_ratio = float(np.mean(ratios))
    target = 1.0 / math.sqrt(2.0)
    ratio_ok = 0.7 * target <= mean_ratio <= 1.3 * target
    # 500-sample ci95 strictly inside the 100-sample ci95 widened by 10%
    est_100 = estimate_c1(cfg, 100, 9000)
    est_500 = estimate_c1(cfg, 500, 9000)
    center = est_100.mean
    lo = center - 1.1 * (center - est_100.ci95[0])
    hi = center + 1.1 * (est_100.ci95[1] - center)
    nested = lo < est_500.ci95[0] and est_500.ci95[1] < hi
    _report(7, ratio_ok and nested,
            f"std_err doubling ratio = {mean_ratio:.3f} (target {target:.3f} +- 30%); "
            f"ci95(500) = [{est_500.ci95[0]:.4f}, {est_500.ci95[1]:.4f}] inside "
            f"1.1 x ci95(100) = [{lo:.4f}, {hi:.4f}]: {nested}")


def test_criterion_8_hardcore_suite():
    layer = LayerSpec(h=4.0, delta=0.05, width=20.0)
    params = PointProcessParams(kind="matern2", rho=0.2)
    lo, hi = layer.center_band
    counts = []
    violations = 0
    for j in range(1000):
        config = sample_matern(params, layer, 1234, stream=j)
        counts.append(len(config))
        if len(config):
            if config.centers[:, 1].min() < lo or config.centers[:, 1].max() > hi:
                violations += 1
            if (len(config) > 1
                    and config.min_pairwise_distance() < layer.hardcore_distance):
                violations += 1
    counts = np.array(counts, dtype=float)
    rng = np.random.default_rng(20240501)
    oracle = np.array([oracle_matern_count(rng, params.rho, layer)
                       for _ in range(10_000)], dtype=float)
    se = math.sqrt(counts.var(ddof=1) / len(counts) + oracle.var(ddof=1) / len(oracle))
    gap = abs(counts.mean() - oracle.mean())
    _report(8, violations == 0 and gap <= 3.0 * se,
            f"violations = {violations}; mean retained {counts.mean():.4f} vs oracle "
            f"{oracle.mean():.4f}, |gap| = {gap:.4f} <= 3 SE = {3.0 * se:.4f}")


def test_criterion_9_corrector_decay():
    layer = LayerSpec(h=5.0, delta=0.05, width=25.0)
    process = PointProcessParams(rho=0.35)
    cfg = CorrectorConfig(layer=layer, process=process, target_dx=0.2)
    var_top = var_near = 0.0
    n_real = 30
    for j in range(n_real):
        realization = sample_matern(process, layer, 4321, stream=j)
        w1 = solve_w1(cfg, realization)
        rows = decay_profile(w1, w1.trace_mean)
        y = np.array([r[0] for r in rows])
        var = np.array([r[2] for r in rows])
        var_near += var[np.argmin(np.abs(y - (cfg.H + 1.0)))]
        var_top += var[-1]
    var_near /= n_real
    var_top /= n_real
    _report(9, var_top < 0.25 * var_near,
            f"ensemble lateral variance at L_cell = {var_top:.3e} < 25% of "
            f"variance at H+1 = {var_near:.3e} (ratio {var_top / var_near:.3f})")


def test_criterion_10_reproducibility_across_threads(tmp_path):
    outputs = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        sweep_cfg = ExperimentConfig.from_dict({
            "scenario": "sweep",
            "geometry": {"h": 5.0, "delta": 0.05, "width": 16.0},
            "process": {"kind": "matern2", "rho": 0.45},
            "wave": {"k": 1.0, "theta": math.pi / 4.0},
            "epsilon_list": [0.71, 0.3, 0.126],
            "n_samples": 4,
            "master_seed": 616,
            "output_dir": str(out / "sweep"),
        })
        run_sweep(sweep_cfg, threads=threads)
        c1_cfg = ExperimentConfig.from_dict({
            "scenario": "c1_study",
            "geometry": {"h": 5.0, "delta": 0.05, "width": 16.0},
            "process": {"kind": "matern2", "rho": 0.45},
            "n_samples": 6,
            "master_seed": 616,
            "output_dir": str(out / "c1"),
        })
        run_c1_study(c1_cfg, threads=threads)
        outputs[threads] = {
            "sweep.csv": (out / "sweep" / "sweep.csv").read_bytes(),
            "rates.json": (out / "sweep" / "rates.json").read_bytes(),
            "c1_history.csv": (out / "c1" / "c1_history.csv").read_bytes(),
            "c1_width.csv": (out / "c1" / "c1_width.csv").read_bytes(),
        }
    same = all(outputs[1][name] == outputs[t][name]
               for t in (4, 8) for name in outputs[1])
    _report(10, same, "sweep.csv, rates.json, c1_history.csv, c1_width.csv byte-identical "
                      "for 1, 4, and 8 worker threads")
