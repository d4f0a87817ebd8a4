import math

import numpy as np
import pytest

from helmlayer import (LayerSpec, PassivityViolation, PlaneWave, PointProcessParams,
                       ResolutionTooCoarse, ScatteringScene, ShapeMismatch,
                       effective_reflection, extract_reflection, farfield_reflection,
                       reference_solve, robin_halfspace_reflection, sample_matern)
from helmlayer.experiments import fit_rate

WAVE = PlaneWave(k=1.0, theta=math.pi / 4.0)
GAMMA = 1.0 + 1.0j


def _empty_scene(layer=None, gamma=GAMMA, period=2.0 * math.pi, L=1.0):
    layer = layer or LayerSpec(h=5.0, delta=0.05, width=10.0)
    empty = sample_matern(PointProcessParams(rho=0.0), layer, 0)
    return ScatteringScene(epsilon=0.05, H=7.0, layer=layer, gamma=gamma,
                           period=period, L=L, config=empty)


def test_plane_wave_invariants():
    assert WAVE.k1 == pytest.approx(math.sin(math.pi / 4.0))
    assert WAVE.k2 == pytest.approx(math.cos(math.pi / 4.0))
    assert WAVE.k1 ** 2 + WAVE.k2 ** 2 == pytest.approx(WAVE.k ** 2)
    with pytest.raises(ValueError):
        PlaneWave(k=0.0, theta=0.1)
    with pytest.raises(ValueError):
        PlaneWave(k=1.0, theta=math.pi / 2.0)


def test_scene_requires_absorbing_gamma():
    layer = LayerSpec(h=5.0, delta=0.05, width=10.0)
    empty = sample_matern(PointProcessParams(rho=0.0), layer, 0)
    with pytest.raises(ValueError):
        ScatteringScene(epsilon=0.05, H=7.0, layer=layer, gamma=-1.0 + 1.0j,
                        period=5.0, L=1.0, config=empty)


def test_extract_reflection_of_incident_is_zero():
    T, L, nx = 10.0, 2.0, 128
    x = -T / 2.0 + (T / nx) * np.arange(nx)
    trace = np.exp(1j * (WAVE.k1 * x + WAVE.k2 * L))
    r = extract_reflection(trace, WAVE, L, T)
    assert abs(r.value) < 1e-13


def test_extract_reflection_recovers_coefficient():
    T, L, nx = 10.0, 2.0, 128
    x = -T / 2.0 + (T / nx) * np.arange(nx)
    r0 = 0.3 + 0.4j
    trace = (np.exp(1j * (WAVE.k1 * x + WAVE.k2 * L))
             + r0 * np.exp(1j * (WAVE.k1 * x - WAVE.k2 * L)))
    r = extract_reflection(trace, WAVE, L, T)
    assert abs(r.value - r0) < 1e-12


def test_extract_reflection_ignores_other_modes():
    T, L, nx = 10.0, 2.0, 128
    x = -T / 2.0 + (T / nx) * np.arange(nx)
    r0 = 0.3 + 0.4j
    extra = 0.7 * np.exp(1j * ((2.0 * math.pi / T + WAVE.k1) * x))
    trace = (np.exp(1j * (WAVE.k1 * x + WAVE.k2 * L))
             + r0 * np.exp(1j * (WAVE.k1 * x - WAVE.k2 * L)) + extra)
    r = extract_reflection(trace, WAVE, L, T)
    assert abs(r.value - r0) < 1e-12


def test_extract_reflection_shape_guard():
    with pytest.raises(ShapeMismatch):
        extract_reflection(np.zeros((4, 4)), WAVE, 1.0, 10.0)


def test_reference_matches_robin_closed_form():
    exact = robin_halfspace_reflection(WAVE, GAMMA)
    scene = _empty_scene()
    dx = 2.0 * math.pi / 64.0
    _, refl = reference_solve(scene, WAVE, dx)
    err_coarse = abs(refl.value - exact)
    assert err_coarse <= 5e-3
    _, refl_fine = reference_solve(scene, WAVE, dx / 2.0)
    err_fine = abs(refl_fine.value - exact)
    assert err_coarse / err_fine >= 3.0


def test_reference_dirichlet_limit():
    # gamma -> infinity surrogate: the closed form tends to -1 within 1e-4,
    # and the solve tracks the closed form at its discretization accuracy
    gamma = 1e6 + 0.0j
    exact = robin_halfspace_reflection(WAVE, gamma)
    assert abs(exact - (-1.0)) <= 1e-4
    scene = _empty_scene(gamma=gamma)
    _, refl = reference_solve(scene, WAVE, 2.0 * math.pi / 256.0)
    assert abs(refl.value - (-1.0)) <= 1e-4


def test_reference_passivity_with_particles():
    layer = LayerSpec(h=5.0, delta=0.05, width=40.0)
    config = sample_matern(PointProcessParams(rho=0.4), layer, 3)
    eps = 0.4
    scene = ScatteringScene(epsilon=eps, H=7.0, layer=layer, gamma=GAMMA,
                            period=eps * layer.width, L=eps * 7.0 + 1.0, config=config)
    _, refl = reference_solve(scene, WAVE, 2.0 * eps / 10.0)
    assert refl.magnitude <= 1.0 + 1e-6


def test_reference_resolution_guard():
    layer = LayerSpec(h=5.0, delta=0.05, width=40.0)
    config = sample_matern(PointProcessParams(rho=0.4), layer, 3)
    eps = 0.4
    scene = ScatteringScene(epsilon=eps, H=7.0, layer=layer, gamma=GAMMA,
                            period=eps * layer.width, L=eps * 7.0 + 1.0, config=config)
    with pytest.raises(ResolutionTooCoarse):
        reference_solve(scene, WAVE, 2.0 * eps / 4.0)


def test_translation_by_one_period_preserves_reflection():
    layer = LayerSpec(h=5.0, delta=0.05, width=40.0)
    config = sample_matern(PointProcessParams(rho=0.35), layer, 11)
    eps = 0.4
    scene = ScatteringScene(epsilon=eps, H=7.0, layer=layer, gamma=GAMMA,
                            period=eps * layer.width, L=eps * 7.0 + 1.0, config=config)
    _, r_a = reference_solve(scene, WAVE, 2.0 * eps / 10.0)
    shifted = config.translated(layer.width)
    scene_b = ScatteringScene(epsilon=eps, H=7.0, layer=layer, gamma=GAMMA,
                              period=eps * layer.width, L=eps * 7.0 + 1.0,
                              config=shifted)
    _, r_b = reference_solve(scene_b, WAVE, 2.0 * eps / 10.0)
    assert abs(r_a.value - r_b.value) < 1e-9


def test_broken_dtn_sign_breaks_passivity(monkeypatch):
    # deliberate fault: negated multipliers turn the outgoing closure into an
    # incoming one; the passivity guard must catch it. Both readers are
    # patched: the mode basis of the factored form (assemble) and the FFT
    # map of the residual operator (grid).
    import importlib

    from helmlayer.grid import dtn_multipliers as true_multipliers

    for module in ("helmlayer.assemble", "helmlayer.grid"):
        monkeypatch.setattr(importlib.import_module(module), "dtn_multipliers",
                            lambda spec, width, nx: -true_multipliers(spec, width, nx))
    scene = _empty_scene()
    with pytest.raises(PassivityViolation):
        reference_solve(scene, WAVE, 2.0 * math.pi / 64.0)


def test_effective_reflection_formulas():
    r1 = effective_reflection(1, WAVE, 0.2, 7.0)
    assert r1.value == pytest.approx(-np.exp(2j * WAVE.k2 * 0.2 * 7.0))
    # c1 = 0 degenerates to the order-1 coefficient
    r2_zero = effective_reflection(2, WAVE, 0.2, 7.0, 0.0)
    assert r2_zero.value == pytest.approx(r1.value)
    # epsilon = 0 gives -1
    assert effective_reflection(2, WAVE, 0.0, 7.0, 2.0).value == pytest.approx(-1.0)
    assert effective_reflection(1, WAVE, 0.0, 7.0).value == pytest.approx(-1.0)


def test_unimodularity_for_real_c1():
    rng = np.random.default_rng(99)
    for _ in range(100):
        wave = PlaneWave(k=rng.uniform(0.5, 3.0), theta=rng.uniform(-1.2, 1.2))
        r2 = effective_reflection(2, wave, rng.uniform(0.005, 0.5),
                                  rng.uniform(3.0, 10.0), rng.uniform(0.1, 5.0))
        assert abs(abs(r2.value) - 1.0) <= 1e-12


def test_farfield_degeneracies():
    assert farfield_reflection(WAVE, 0.0, 7.0, 2.0).value == pytest.approx(-1.0)
    r1 = effective_reflection(1, WAVE, 0.13, 7.0)
    assert farfield_reflection(WAVE, 0.13, 7.0, 0.0).value == pytest.approx(r1.value)


def test_farfield_order2_consistency_slope():
    c1 = 2.3
    pairs = []
    for eps in (0.1, 0.05, 0.025, 0.0125):
        gap = abs(farfield_reflection(WAVE, eps, 7.0, c1).value
                  - effective_reflection(2, WAVE, eps, 7.0, c1).value)
        pairs.append((eps, gap))
    slope, _, r_sq = fit_rate(pairs)
    assert abs(slope - 2.0) <= 0.1
    assert r_sq > 0.999
    # the analytic consistency sweep is monotone in epsilon
    gaps = [g for _, g in pairs]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_field_export(tmp_path):
    scene = _empty_scene()
    fld, _ = reference_solve(scene, WAVE, 2.0 * math.pi / 32.0)
    from helmlayer.scattering import export_field_csv

    grid = scene.grid(2.0 * math.pi / 32.0)
    path = tmp_path / "field.csv"
    export_field_csv(fld, grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,re_u,im_u"
    assert len(lines) == 1 + grid.nx * grid.ny
