import math

import numpy as np
import pytest

from helmlayer import (FactorTooLarge, LayerSpec, ParticleConfiguration,
                       PointProcessParams, SingularSystem, corrector, sample_matern)
from helmlayer.corrector import (CorrectorConfig, CorrectorSolution, _GreenTable, c1_sampler,
                                 decay_profile, estimate_c1, export_c1_history, solve_w1)
from helmlayer.grid import classify_nodes


def _cfg(layer, rho=0.3, **kw):
    return CorrectorConfig(layer=layer, process=PointProcessParams(rho=rho), **kw)


def test_config_validation(small_layer):
    with pytest.raises(ValueError):
        CorrectorConfig(layer=small_layer, H=4.0)  # below the layer top
    for target_dx in (0.3, 0.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            CorrectorConfig(layer=small_layer, target_dx=target_dx)
    with pytest.raises(ValueError):  # H rounds to the top row 35
        CorrectorConfig(layer=small_layer, H=7.0, L_cell=7.05)
    cfg = CorrectorConfig(layer=small_layer)
    assert cfg.H == small_layer.h + 2.0
    assert cfg.L_cell == cfg.H + small_layer.width / 4.0


def test_jump_row_of_an_interface_on_a_grid_line():
    cfg = CorrectorConfig(layer=LayerSpec(h=3.0, width=10.0), H=5.0, target_dx=0.1)
    grid = cfg.cell_grid()
    assert cfg.jump_row == 50 and 0 < cfg.jump_row < grid.ny - 1
    assert cfg.jump_row * grid.dy == pytest.approx(5.0, abs=1e-12)


def test_jump_row_snaps_an_offset_interface():
    cfg = CorrectorConfig(layer=LayerSpec(h=3.0, width=10.0), H=5.03, target_dx=0.1)
    moved = cfg.H - cfg.jump_row * cfg.cell_grid().dy
    assert cfg.jump_row == 50
    assert moved == pytest.approx(0.03)
    assert abs(moved) < cfg.target_dx / 2.0


def test_shift_identity_exact(small_layer, small_realization):
    base = dict(layer=small_layer, H=7.0, L_cell=14.0, target_dx=0.2)
    lo = solve_w1(_cfg(**base), small_realization)
    hi = solve_w1(_cfg(**{**base, "H": 9.0}), small_realization)
    assert abs(hi.trace_mean - lo.trace_mean - 2.0) <= 1e-8


def test_dirichlet_exact_and_real(small_layer, small_realization):
    w1 = solve_w1(_cfg(small_layer, H=7.0, L_cell=12.0), small_realization)
    assert w1.mask.any()
    assert np.abs(w1.field[w1.mask]).max() == 0.0
    assert np.abs(w1.field.imag).max() < 1e-10


def test_flux_balance(small_layer, small_realization):
    w1 = solve_w1(_cfg(small_layer, H=7.0, L_cell=12.0), small_realization)
    assert w1.flux_report["injected"] == pytest.approx(small_layer.width)
    assert w1.flux_report["rel_imbalance"] <= 1e-6


def test_dense_wall_matches_two_zone_oracle():
    # ring of touching-within-delta disks: flux is absorbed at the wall top,
    # so the two-zone hand computation gives trace = H - (y_c + 1)
    n_disks, spacing, y_c = 9, 2.05, 2.5
    width = n_disks * spacing
    layer = LayerSpec(h=5.0, delta=0.05, width=width)
    xs = -width / 2.0 + spacing * np.arange(n_disks)
    wall = ParticleConfiguration(np.column_stack([xs, np.full(n_disks, y_c)]),
                                 layer, seed=0)
    cfg = _cfg(layer, H=7.0, L_cell=12.0, target_dx=0.2)
    w1 = solve_w1(cfg, wall)
    oracle = 7.0 - (y_c + 1.0)
    assert w1.trace_mean == pytest.approx(oracle, abs=0.25)


def test_trace_mean_stable_under_refinement(small_layer, small_realization):
    coarse = solve_w1(_cfg(small_layer, H=7.0, L_cell=12.0, target_dx=0.2),
                      small_realization)
    fine = solve_w1(_cfg(small_layer, H=7.0, L_cell=12.0, target_dx=0.1),
                    small_realization)
    assert abs(coarse.trace_mean - fine.trace_mean) < 0.02 * abs(fine.trace_mean)


def test_empty_configuration_is_singular(small_layer, empty_realization, monkeypatch):
    # rejected before assembly, by the rule the capacitance sample applies to an empty ring
    def refused(*args, **kwargs):
        raise AssertionError("solve_w1 assembled an empty cell")

    monkeypatch.setattr(corrector, "assemble", refused)
    with pytest.raises(SingularSystem, match="no particle node"):
        solve_w1(_cfg(small_layer, rho=0.0), empty_realization)


def test_c1_sample_is_moved_to_the_requested_interface(small_layer):
    # H = 6.5 snaps to the grid line 6.4, H = 6.6 is a grid line: the raw trace
    # means differ by 0.2, the c1 samples by the true 0.1
    layer = LayerSpec(h=4.5, delta=0.05, width=small_layer.width)
    realization = sample_matern(PointProcessParams(rho=0.3), layer, 7)
    lo = solve_w1(_cfg(layer), realization)
    hi = solve_w1(_cfg(LayerSpec(h=4.6, delta=0.05, width=layer.width)), realization)
    assert lo.j_interface * lo.grid.dy == pytest.approx(6.4)
    assert hi.j_interface * hi.grid.dy == pytest.approx(6.6)
    assert hi.trace_mean - lo.trace_mean == pytest.approx(0.2, abs=1e-9)
    assert abs(hi.c1 - lo.c1 - 0.1) <= 1e-12


@pytest.mark.parametrize("width, rho", [(20.0, 0.4), (20.0, 0.1), (10.0, 0.05)])
def test_w1_is_nonnegative(width, rho):
    # discrete maximum principle: nonnegative flux-jump data on an M-matrix
    layer = LayerSpec(h=5.0, delta=0.05, width=width)
    cfg = _cfg(layer, rho=rho)
    solved = 0
    for j in range(40):
        try:
            w1 = solve_w1(cfg, sample_matern(cfg.process, layer, 2024, stream=j))
        except SingularSystem:  # an empty realization
            continue
        assert w1.field[~w1.mask].min() >= 0.0
        assert w1.trace_mean > 0.0
        solved += 1
        if solved == 12:
            break
    assert solved == 12


def test_estimate_c1_rejects_single_sample(small_layer):
    with pytest.raises(ValueError):
        estimate_c1(_cfg(small_layer), 1, master_seed=0)


def test_estimate_c1_deterministic_across_threads(small_layer):
    cfg = _cfg(LayerSpec(h=5.0, delta=0.05, width=15.0), L_cell=12.0, H=7.0)
    a, b, c = (estimate_c1(cfg, 6, master_seed=42, threads=t) for t in (1, 2, 4))
    assert a == b == c  # every field, the history included, bit for bit
    assert a.ci95 == (a.mean - 1.96 * a.std_err, a.mean + 1.96 * a.std_err)
    assert a.ci95[0] < a.mean < a.ci95[1]


def test_estimate_c1_does_not_count_a_factor_too_large_as_a_failed_sample(small_layer,
                                                                            monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    # the Green's table is inverted once per estimate (linalg.inv), and each
    # realization's capacitance system solved once (linalg.solve)
    for allocation in ("inv", "solve"):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, allocation, out_of_memory)
            with pytest.raises(FactorTooLarge):
                estimate_c1(_cfg(small_layer), 4, master_seed=0, threads=2)
    # a cell too large for a table factors each realization in solve_w1, on
    # worker threads
    import scipy.sparse.linalg as spla

    monkeypatch.setattr(_GreenTable, "MAX_ENTRIES", 0)
    monkeypatch.setattr(spla, "splu", out_of_memory)
    with pytest.raises(FactorTooLarge):
        estimate_c1(_cfg(small_layer), 4, master_seed=0, threads=2)


CAPACITANCE_RTOL = 1e-11


def _capacitance_against_solve_w1(cfg, config):
    table = _GreenTable(cfg)
    sample = table.c1(classify_nodes(table.grid, config))
    oracle = solve_w1(cfg, config).c1
    assert abs(sample - oracle) <= CAPACITANCE_RTOL * abs(oracle)


@pytest.mark.parametrize("width, seeds, target_dx", [
    (20.0, range(1, 9), 0.2),
    (50.0, range(1, 3), 0.2),
    (20.0, range(1, 3), 0.1),
    (20.3, range(1, 4), 0.2),  # nx = 102, dx = 0.199
    (100.0, range(1, 3), 0.2),  # the cell of acceptance criterion 6's c1
], ids=["w20", "w50", "dx0.1", "w20.3", "w100"])
def test_capacitance_sample_matches_solve_w1(width, seeds, target_dx):
    layer = LayerSpec(h=5.0, delta=0.05, width=width)
    cfg = _cfg(layer, rho=0.4, target_dx=target_dx)
    for seed in seeds:
        _capacitance_against_solve_w1(cfg, sample_matern(cfg.process, layer, seed))


@pytest.mark.parametrize("center", [(9.9, 2.5), (-10.0, 3.0), (0.3, 1.05)],
                         ids=["seam-right", "seam-left", "row-1"])
def test_capacitance_sample_matches_solve_w1_on_one_disk(small_layer, center):
    # a disk across the seam, and one at the lowest admissible centre 1 + delta:
    # it covers row 1, and the one-sided bottom row reads its row-2 interior nodes
    config = ParticleConfiguration(np.array([center]), small_layer, seed=0)
    cfg = _cfg(small_layer)
    _capacitance_against_solve_w1(cfg, config)
    mask = classify_nodes(cfg.cell_grid(), config)
    assert mask[1].any() == (center[1] == 1.05)


def test_capacitance_sample_keeps_every_row_under_a_low_cell_top():
    # H just above the layer and the cell top two rows above it: no strip to
    # eliminate, and a disk at the highest admissible centre h - 1 reaches the
    # jump row (y = 5.0), whose particle nodes then belong to the ring
    layer = LayerSpec(h=5.05, delta=0.05, width=12.0)
    cfg = _cfg(layer, H=5.06, L_cell=5.4)
    table = _GreenTable(cfg)
    assert table.g.shape[1] == table.grid.ny
    config = ParticleConfiguration(np.array([[0.0, 4.05], [4.0, 2.5]]), layer, seed=0)
    assert classify_nodes(table.grid, config)[cfg.jump_row].any()
    _capacitance_against_solve_w1(cfg, config)
    _capacitance_against_solve_w1(cfg, sample_matern(cfg.process, layer, 3))


def _estimate_with_stream_3_empty(cfg, empty_realization, monkeypatch, threads=2):
    draw = corrector.sample_matern

    def empty_stream_3(process, layer, seed, stream=0):
        return empty_realization if stream == 3 else draw(process, layer, seed, stream=stream)

    monkeypatch.setattr(corrector, "sample_matern", empty_stream_3)
    return estimate_c1(cfg, 10, master_seed=5, threads=threads)


def test_empty_realization_is_a_failed_capacitance_sample(small_layer, empty_realization,
                                                          monkeypatch):
    cfg = _cfg(small_layer)
    table = _GreenTable(cfg)
    with pytest.raises(SingularSystem):
        table.c1(classify_nodes(table.grid, empty_realization))
    est = _estimate_with_stream_3_empty(cfg, empty_realization, monkeypatch)
    assert (est.n_samples, est.n_failures, est.n_solve_w1) == (9, 1, 0)


def test_empty_realization_is_a_failed_solve_w1_sample(small_layer, empty_realization,
                                                       monkeypatch):
    # with no Green's table every sample goes to solve_w1, which rejects the
    # empty realization: a failed sample, not a crash
    monkeypatch.setattr(_GreenTable, "MAX_ENTRIES", 0)
    est = _estimate_with_stream_3_empty(_cfg(small_layer), empty_realization, monkeypatch)
    assert (est.n_samples, est.n_failures, est.n_solve_w1) == (9, 1, 10)


def test_estimate_c1_split_path_is_independent_of_threads(small_layer, empty_realization,
                                                          monkeypatch):
    # either side of the per-cell split, a table cell on the calling thread or
    # a solve_w1 cell on the worker threads, gives the same estimate, every
    # field bit for bit, at any thread count, with the empty stream a failure
    cfg = _cfg(small_layer)
    for max_entries, n_solve_w1 in ((_GreenTable.MAX_ENTRIES, 0), (0, 10)):
        monkeypatch.setattr(_GreenTable, "MAX_ENTRIES", max_entries)
        a, b, c = (_estimate_with_stream_3_empty(cfg, empty_realization, monkeypatch,
                                                 threads=t) for t in (1, 2, 4))
        assert a == b == c
        assert (a.n_samples, a.n_failures, a.n_solve_w1) == (9, 1, n_solve_w1)


def test_estimate_c1_takes_one_path_per_cell_from_the_table_size(small_layer, monkeypatch):
    # a table of MAX_ENTRIES entries takes every sample, whatever its ring; one
    # entry more sends every sample to solve_w1
    cfg = _cfg(small_layer)
    table = _GreenTable(cfg)
    realizations = [sample_matern(cfg.process, small_layer, 0, stream=j) for j in range(4)]
    capacitance = [table.c1(classify_nodes(table.grid, r)) for r in realizations]
    oracle = [solve_w1(cfg, r).c1 for r in realizations]
    assert capacitance != oracle  # the paths differ at round-off, so the test tells them apart
    monkeypatch.setattr(_GreenTable, "MAX_ENTRIES", table.g.size)
    est = estimate_c1(cfg, 4, master_seed=0, threads=2)
    assert ([row[1] for row in est.history], est.n_solve_w1) == (capacitance, 0)
    monkeypatch.setattr(_GreenTable, "MAX_ENTRIES", table.g.size - 1)
    est = estimate_c1(cfg, 4, master_seed=0, threads=2)
    assert ([row[1] for row in est.history], est.n_solve_w1) == (oracle, 4)


@pytest.mark.parametrize("h, widest", [(5.0, 109.6), (10.0, 29.4), (20.0, 7.6)])
def test_table_cells_end_at_the_measured_width_limit(h, widest):
    # MAX_ENTRIES is the measured crossover (see _GreenTable): at dx 0.2 the
    # widest table cell of each height, and one grid column more goes to solve_w1
    for width, tabled in ((widest, True), (widest + 0.2, False)):
        assert c1_sampler(_cfg(LayerSpec(h=h, delta=0.05, width=width)))[1] == tabled


class _NoPool(Exception):
    pass


def test_estimate_c1_starts_threads_only_on_a_solve_w1_cell(small_layer, monkeypatch):
    def no_pool(*args, **kwargs):
        raise _NoPool

    cfg = _cfg(small_layer)
    monkeypatch.setattr(corrector, "ThreadPoolExecutor", no_pool)
    assert estimate_c1(cfg, 4, master_seed=5, threads=2).n_solve_w1 == 0  # a table cell
    monkeypatch.setattr(_GreenTable, "MAX_ENTRIES", 0)
    with pytest.raises(_NoPool):
        estimate_c1(cfg, 4, master_seed=5, threads=2)


def test_capacitance_gather_wraps_the_lateral_offset_like_a_modulo(small_layer, monkeypatch):
    # a disk across the seam: its ring holds nodes at both ends of a grid row,
    # so i - i' reaches below -nx/2 and above nx/2
    config = ParticleConfiguration(np.array([(9.9, 2.5)]), small_layer, seed=0)
    table = _GreenTable(_cfg(small_layer))
    nx = table.grid.nx
    mask = classify_nodes(table.grid, config)
    free = ~mask
    ring = mask & (np.roll(free, 1, 0) | np.roll(free, -1, 0)
                   | np.roll(free, 1, 1) | np.roll(free, -1, 1))
    j, i = np.nonzero(ring)
    offsets = i[:, None] - i
    assert offsets.min() < -nx // 2 and offsets.max() > nx // 2
    systems = []
    solve = np.linalg.solve

    def recording_solve(m, rhs):
        systems.append(m.copy())
        return solve(m, rhs)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    table.c1(mask)
    (m,) = systems
    assert np.array_equal(m[:len(j), :len(j)], table.g[offsets % nx, j[:, None], j])


def test_estimate_c1_grid_refinement_stability():
    layer = LayerSpec(h=5.0, delta=0.05, width=15.0)
    coarse = estimate_c1(_cfg(layer, H=7.0, L_cell=11.0, target_dx=0.2), 5, 77)
    fine = estimate_c1(_cfg(layer, H=7.0, L_cell=11.0, target_dx=0.1), 5, 77)
    assert abs(coarse.mean - fine.mean) <= 0.03 * abs(fine.mean)


def test_ci95_narrows_with_cell_width():
    process = PointProcessParams(rho=0.4)
    widths = (12.0, 36.0)
    ci_widths = []
    for w in widths:
        layer = LayerSpec(h=5.0, delta=0.05, width=w)
        cfg = CorrectorConfig(layer=layer, process=process, target_dx=0.2)
        est = estimate_c1(cfg, 10, master_seed=88)
        ci_widths.append(est.ci95[1] - est.ci95[0])
    assert ci_widths[1] < ci_widths[0]


def test_ergodic_wide_cell_matches_monte_carlo():
    # single-realization estimate on a wide cell against the Monte-Carlo CI
    layer = LayerSpec(h=5.0, delta=0.05, width=20.0)
    process = PointProcessParams(rho=0.4)
    mc_cfg = CorrectorConfig(layer=layer, process=process, target_dx=0.2)
    mc = estimate_c1(mc_cfg, 24, master_seed=11)
    wide_layer = LayerSpec(h=5.0, delta=0.05, width=160.0)
    wide_cfg = CorrectorConfig(layer=wide_layer, process=process, target_dx=0.2,
                               L_cell=mc_cfg.L_cell, H=mc_cfg.H)
    realization = sample_matern(process, wide_layer, 11, stream=0)
    ergodic = solve_w1(wide_cfg, realization).trace_mean
    sample_sd = mc.std_err * math.sqrt(mc.n_samples)
    combined = 1.96 * math.sqrt(mc.std_err ** 2 + sample_sd ** 2 / 8.0)
    assert abs(ergodic - mc.mean) <= combined


def test_c1_history_export(tmp_path, small_layer):
    est = estimate_c1(_cfg(LayerSpec(h=5.0, delta=0.05, width=15.0),
                           H=7.0, L_cell=11.0), 4, 5)
    path = tmp_path / "c1_history.csv"
    export_c1_history(est, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_index,value,running_mean,running_stderr"
    assert len(lines) == 5
    assert lines[1].endswith(",")  # stderr undefined at one sample


def test_decay_profile_constant_field(small_layer, small_realization):
    cfg = _cfg(small_layer, H=7.0, L_cell=12.0)
    w1 = solve_w1(cfg, small_realization)
    synthetic = CorrectorSolution(
        field=np.ones_like(w1.field), trace_mean=1.0, c1=1.0, grid=w1.grid,
        mask=w1.mask, j_interface=w1.j_interface, solve_report=w1.solve_report)
    rows = decay_profile(synthetic, 1.0)
    assert all(var == 0.0 for _, _, var, _ in rows)
    assert all(mean == pytest.approx(0.0) for _, mean, _, _ in rows)


def test_decay_profile_variance_shrinks_upward(small_layer, small_realization):
    cfg = _cfg(small_layer, H=7.0, L_cell=14.0)
    w1 = solve_w1(cfg, small_realization)
    rows = decay_profile(w1, w1.trace_mean)
    y = np.array([r[0] for r in rows])
    var = np.array([r[2] for r in rows])
    v_near = var[np.argmin(np.abs(y - 8.0))]  # H + 1
    assert var[-1] < v_near


def test_decay_profile_ensemble_loglog_slope_negative(small_layer, small_process):
    cfg = CorrectorConfig(layer=small_layer, process=small_process, H=7.0, L_cell=14.0)
    heights = None
    acc = None
    n_real = 12
    for j in range(n_real):
        config = sample_matern(small_process, small_layer, 2025, stream=j)
        w1 = solve_w1(cfg, config)
        rows = decay_profile(w1, w1.trace_mean)
        var = np.array([r[2] for r in rows])
        if acc is None:
            acc = var
            heights = np.array([r[0] for r in rows])
        else:
            acc += var
    acc /= n_real
    mask = acc > 0
    slope = np.polyfit(np.log(heights[mask] - small_layer.h), np.log(acc[mask]), 1)[0]
    assert slope < 0.0
