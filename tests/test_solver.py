import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmlayer import (DtnSpec, FactorTooLarge, LayerSpec, NoConvergence,
                       ParticleConfiguration, PlaneWave, PointProcessParams, ScatteringScene,
                       SingularSystem, build_grid, classify_nodes, reference_solve,
                       sample_matern, solve)
from helmlayer import corrector, scattering, solver
from helmlayer import grid as grid_module
from helmlayer.assemble import DiscreteSystem, assemble, with_circulant
from helmlayer.corrector import CorrectorConfig, solve_w1
from helmlayer.grid import circulant_offsets, dtn_apply, dtn_multipliers


def _identity_system():
    grid = build_grid(2.0, 2.0, 0.5)
    n = grid.n_nodes
    rng = np.random.default_rng(0)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    return DiscreteSystem(local=sp.identity(n, dtype=complex, format="csr"),
                          rhs=rhs, grid=grid, dtn=DtnSpec())


def _w1_system(config, width=20.0):
    grid = build_grid(width, 12.0, 0.2)
    return assemble(grid, classify_nodes(grid, config), DtnSpec(), jump_row=35)  # y = 7


def test_identity_rows_solution_equals_rhs():
    # identity rows below the top; the top row is (I + Lambda) u = rhs there
    system = _identity_system()
    x, report = solve(system)
    top = system.top
    lam = dtn_multipliers(system.dtn, system.grid.width, system.grid.nx)
    assert np.allclose(x[:top.start], system.rhs[:top.start], atol=1e-14)
    assert np.allclose(x[top], np.fft.ifft(np.fft.fft(system.rhs[top]) / (1.0 + lam)), atol=1e-14)
    assert report.residual <= 1e-12


@pytest.mark.parametrize("width", [1.8, 20.0], ids=["whole", "banded"])
def test_empty_w1_system_raises_a_typed_error(empty_realization, width):
    # W1 without particles has a constant kernel, which solve knows nothing
    # of: it raises a typed error and returns no vector, whether the factored
    # band is the whole circulant of the cut row (nx 9) or not (nx 100, where
    # the factor is regular and the dropped tail of the circulant restores
    # the kernel)
    system = _w1_system(empty_realization, width)
    assert (len(solver._Cut(system).offsets) == system.grid.nx) == (width < 2.0)
    with pytest.raises((SingularSystem, NoConvergence)):
        solve(system)


def test_empty_w1_system_stops_at_the_gmres_cap(empty_realization, monkeypatch):
    # the nx-100 empty cell: the solve and the refinement step each take one
    # triangular solve for the rhs, one per GMRES iteration and one to lift
    # the result; the refinement step's GMRES stops at the cap
    calls = []
    factorize = solver._factorize

    def counting_factorize(matrix):
        lu = factorize(matrix)

        class Counting:
            def solve(self, rhs):
                calls.append(1)
                return lu.solve(rhs)

        return Counting()

    monkeypatch.setattr(solver, "_factorize", counting_factorize)
    with pytest.raises(NoConvergence, match="interface GMRES"):
        solve(_w1_system(empty_realization))
    assert solver.GMRES_MAX_ITER + 1 < len(calls) <= 2 * (solver.GMRES_MAX_ITER + 2) <= 264


def test_near_singular_w1_raises_no_convergence(empty_realization):
    # the constant kernel lifted by a tiny diagonal shift: the factor succeeds
    # with no vanishing pivot, and the cut-row GMRES reaches its cap
    system = _w1_system(empty_realization)
    scale = float(np.abs(system.local.diagonal()).max())
    system.local = (system.local + 1e-13 * scale * sp.identity(system.n, format="csr")).tocsr()
    with pytest.raises(NoConvergence, match="interface GMRES"):
        solve(system)


def test_non_finite_residual_raises_no_convergence():
    system = _identity_system()
    system.rhs[0] = np.nan
    with pytest.raises(NoConvergence):
        solve(system)


def test_symmetric_ordering_cuts_fill(small_realization):
    matrix = solver._Cut(_w1_system(small_realization)).matrix()
    assert solver._factorize(matrix).nnz <= 0.7 * spla.splu(matrix).nnz


def _nx20_system(dtn, nx=20):
    grid = build_grid(0.2 * nx, 2.0, 0.2)
    return assemble(grid, classify_nodes(grid, None), dtn, gamma=1 + 1j,
                    top_forcing=np.ones(grid.nx))


def _first_row_above_particles(mask):
    rows = np.flatnonzero(mask.any(axis=1))
    return max(2, rows.max() + 1) if len(rows) else 2


def _whole_cut_matrix(cut):
    """Rows 0..j0 of the reduced operator, row j0 with its whole circulant."""
    return with_circulant(cut.local[:cut.n, :cut.n], cut.symbol, cut.k1, cut.dx,
                          circulant_offsets(cut.nx))


@pytest.mark.parametrize("k1", [0.0, 0.3])
@pytest.mark.parametrize("nx, kept", [(4, 3), (5, 5), (9, 9), (20, 9), (100, 9)])
def test_tiny_lateral_grids_match_the_dense_solve(nx, kept, k1):
    # nx 4 clamps the band to 3 of its 4 offsets; at nx 5 and 9 it is the
    # whole circulant, the dropped tail is 0 and GMRES stops after one step.
    # A random rhs excites every lateral mode.
    system = _nx20_system(DtnSpec(k=1.0, k1=k1), nx)
    assert system.grid.nx == nx and len(solver._Cut(system).offsets) == kept
    rng = np.random.default_rng(nx)
    system.rhs = rng.normal(size=system.n) + 1j * rng.normal(size=system.n)
    x, report = solve(system)
    x_dense = np.linalg.solve(system.materialize().toarray(), system.rhs)
    assert np.linalg.norm(x - x_dense) <= solver.TOL * np.linalg.norm(x_dense)
    if kept == nx:
        assert report.iterations == 1


def test_solve_factors_only_rows_up_to_the_cut(small_realization, monkeypatch):
    cases = [  # (system, its particles), nx 20 unless noted
        (_nx20_system(DtnSpec(k=1.0, k1=0.3)), None),
        (_nx20_system(DtnSpec(k1=0.3)), None),  # k = 0: quasi-periodic Laplace, no constant kernel
        (_w1_system(small_realization), small_realization),  # nx 100
    ]
    oracle = [spla.spsolve(system.materialize(), system.rhs) for system, _ in cases]
    for name in ("materialize", "bordered"):
        def refused(self, _name=name):
            raise AssertionError(f"solve called DiscreteSystem.{_name}")
        monkeypatch.setattr(DiscreteSystem, name, refused)
    factored = []
    splu = spla.splu

    def recording_splu(matrix, *args, **kwargs):
        factored.append(matrix)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    band = 2 * solver.CUT_HALF_WIDTH + 1
    for (system, config), x_oracle in zip(cases, oracle):
        j0 = _first_row_above_particles(classify_nodes(system.grid, config))
        nx = system.grid.nx
        n = (j0 + 1) * nx
        # rows 0..j0 are factored, row j0 with a band of 2w+1 offsets of its
        # circulant, and GMRES corrects for the rest
        factored.clear()
        x, report = solve(system)
        (matrix,) = factored
        assert matrix.shape == (n, n)
        assert matrix[n - nx:, n - nx:].nnz == band * nx
        assert report.iterations > 0
        assert report.residual <= solver.TOL
        assert np.linalg.norm(x - x_oracle) <= solver.TOL * np.linalg.norm(x_oracle)


def test_wide_cut_row_builds_no_dense_block():
    # nx 2000 and no particles: rows 0..2 are factored, and the set-up peaks
    # at about 3.5 MB, under half of one float64 nx x nx array
    grid = build_grid(400.0, 2.0, 0.2)
    system = assemble(grid, classify_nodes(grid, None), DtnSpec(k=1.0, k1=0.3), gamma=1 + 1j,
                      top_forcing=np.ones(grid.nx))
    nx = grid.nx
    tracemalloc.start()
    try:
        solver._Cut(system).solver()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * nx * nx


def test_cut_row_is_the_first_row_above_the_particles(small_realization, empty_realization):
    empty = _w1_system(empty_realization)
    assert solver._Cut(empty).j0 == 2
    system = _w1_system(small_realization)
    mask = classify_nodes(system.grid, small_realization)
    j0 = solver._Cut(system).j0
    assert j0 == _first_row_above_particles(mask) > 2
    assert not mask[j0:].any()
    assert mask[j0 - 1].any()


@pytest.mark.parametrize("j_edit", [30, 58])  # strip rows, ny 61
@pytest.mark.parametrize("factor", [1.0 + 1e-12, 1.5], ids=["round-off", "gross"])
def test_edited_strip_row_refines_or_raises(small_realization, j_edit, factor):
    # a strip row edited after assembly under the stale record: the reduced
    # solve is then only an approximate inverse, and refinement against the
    # exact operator reaches TOL or raises, never returning a wrong vector
    system = _w1_system(small_realization)
    assert system.grid.ny == 61 and system.strip.j0 < j_edit
    node = j_edit * system.grid.nx + 3
    local = system.local.tolil()
    local[node, node] *= factor
    system.local = local.tocsr()
    if factor > 1.1:
        with pytest.raises(NoConvergence):
            solve(system)
        return
    x, report = solve(system)
    assert report.residual <= solver.TOL
    x_full = solver._factorize(system.materialize()).solve(system.rhs)
    assert np.linalg.norm(x - x_full) <= 1e-10 * np.linalg.norm(x_full)


def test_no_strip_under_a_non_stencil_top():
    system = _identity_system()
    cut = solver._Cut(system)
    assert cut.j0 == system.grid.ny - 1 and cut.n == system.n


def _matern_w1_system(seed=1, width=20.0):
    """(system, particle mask) of a Matern W1 cell."""
    cfg = CorrectorConfig(layer=LayerSpec(h=5.0, delta=0.05, width=width),
                          process=PointProcessParams("matern2", rho=0.4), target_dx=0.2)
    grid = cfg.cell_grid()
    mask = classify_nodes(grid, sample_matern(cfg.process, cfg.layer, seed, stream=0))
    return assemble(grid, mask, DtnSpec(), jump_row=cfg.jump_row), mask


def _reference_system(process, dx):
    """(system, particle mask) as reference_solve assembles them."""
    layer = LayerSpec(h=5.0, delta=0.05, width=40.0)
    scene = ScatteringScene(epsilon=0.4, H=7.0, layer=layer, gamma=1.0 + 1.0j,
                            period=16.0, L=3.8, config=sample_matern(process, layer, 3))
    systems = []

    def recording_assemble(grid, mask, *args, **kwargs):
        systems.append((assemble(grid, mask, *args, **kwargs), mask))
        return systems[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scattering, "assemble", recording_assemble)
        reference_solve(scene, PlaneWave(k=1.0, theta=math.pi / 4.0), dx)
    return systems[0]


def _assert_strip_record(system, mask):
    """The strip record against the assembled rows it describes: the checks a
    matrix-reading detection of the strip would make."""
    grid, strip, a = system.grid, system.strip, system.local
    nx, top, j0 = grid.nx, grid.ny - 1, strip.j0
    assert all(np.asarray(v).dtype == a.dtype for v in strip[1:])
    assert j0 == 2 or mask[j0 - 1].any()
    i = np.arange(nx)
    rows = a[top * nx:]
    assert (np.diff(rows.indptr) == 3).all()
    assert np.array_equal(rows.indices.reshape(nx, 3) - top * nx,
                          np.stack([i - 2 * nx, i - nx, i], axis=1))
    assert (rows.data.reshape(nx, 3) == [strip.t2, strip.t1, strip.t0]).all()
    # rows j0..ny-2: down, left, centre, right, up in column order, the seam
    # entries phased by exp(-+i k1 width), to round-off
    rows = a[j0 * nx:top * nx]
    assert (np.diff(rows.indptr) == 5).all()
    stencil = np.stack([i - nx, (i - 1) % nx, i, (i + 1) % nx, i + nx], axis=1)
    order = np.argsort(stencil, axis=1)
    want = np.tile(np.array([strip.b, strip.lat, strip.c, strip.lat, strip.b], dtype=complex),
                   (nx, 1))
    want[0, 1] *= np.exp(-1j * system.dtn.k1 * grid.width)
    want[-1, 3] *= np.exp(1j * system.dtn.k1 * grid.width)
    seam = np.zeros((nx, 5), dtype=bool)
    seam[0, 1] = seam[-1, 3] = True
    cols = rows.indices.reshape(top - j0, 5 * nx) - (nx * np.arange(j0, top))[:, None]
    vals = rows.data.reshape(top - j0, 5 * nx)
    want, seam = (np.take_along_axis(v, order, axis=1).ravel() for v in (want, seam))
    assert (cols == np.take_along_axis(stencil, order, axis=1).ravel()).all()
    assert (vals[:, ~seam] == want[~seam]).all()
    assert np.allclose(vals[:, seam], want[seam], rtol=1e-14, atol=0.0)


def test_strip_record_matches_the_assembled_rows(small_process, empty_realization):
    # width 20.3: nx 102, so dx differs from dy
    systems = [_matern_w1_system(seed, width) for width, seeds in ((20.0, (1, 2, 3, 4)),
                                                                   (130.0, (1, 2)), (20.3, (1,)))
               for seed in seeds]
    assert systems[-1][0].grid.dx != systems[-1][0].grid.dy
    systems.append(_reference_system(small_process, 0.1))
    assert systems[-1][0].dtn.k1 != 0.0
    for system, mask in systems:
        assert 2 < system.strip.j0 < system.grid.ny - 3
        _assert_strip_record(system, mask)
    empty = _w1_system(empty_realization)
    assert empty.strip.j0 == 2
    _assert_strip_record(empty, classify_nodes(empty.grid, empty_realization))
    # too few rows under the top for a strip
    grid = build_grid(4.0, 0.6, 0.2)
    assert assemble(grid, classify_nodes(grid, None), DtnSpec(k=1.0)).strip is None


def test_reduced_solve_matches_the_full_factor(small_process):
    # seed-1 W1 cell, and a quasi-periodic Robin Helmholtz system with particles
    for system, _ in (_matern_w1_system(), _reference_system(small_process, 0.1)):
        assert solver._Cut(system).j0 < system.grid.ny - 3
        x, _ = solve(system)
        full = system.materialize().astype(system.rhs.dtype)
        x_full = solver._factorize(full).solve(system.rhs)
        assert np.linalg.norm(x - x_full) <= 1e-10 * np.linalg.norm(x_full)
    assert system.dtn.k1 == pytest.approx(math.sin(math.pi / 4.0))


def _wide_w1_system():
    layer = LayerSpec(h=5.0, delta=0.05, width=130.0)  # nx 650
    return _w1_system(sample_matern(PointProcessParams(rho=0.4), layer, 5), layer.width)


def test_interface_form_matches_the_direct_cut(small_process):
    # a wide real W1 cell, and a quasi-periodic Robin Helmholtz system with
    # particles: the reduced solve agrees with a factor of rows 0..j0 holding
    # row j0's whole circulant before refinement, and the refined solution
    # with a factor of the materialized system
    for system in (_wide_w1_system(), _reference_system(small_process, 0.1)[0]):
        cut = solver._Cut(system)
        assert 2 < cut.j0 < system.grid.ny - 3
        reduced_rhs, _ = cut.reduce(system.rhs)
        whole = _whole_cut_matrix(cut)
        x, report = solve(system)
        assert report.residual <= solver.TOL
        for interface, direct in ((cut.solver()(reduced_rhs)[0],
                                   solver._factorize(whole).solve(reduced_rhs)),
                                  (x, solver._factorize(system.materialize()).solve(system.rhs))):
            assert interface.dtype == direct.dtype == system.rhs.dtype
            assert np.linalg.norm(interface - direct) <= 1e-10 * np.linalg.norm(direct)
    assert system.dtn.k1 == pytest.approx(math.sin(math.pi / 4.0))


def test_interface_form_solves_a_zero_strip():
    # a system with no strip record: row j0 is the top row
    system = dataclasses.replace(_wide_w1_system(), strip=None)
    assert solver._Cut(system).j0 == system.grid.ny - 1
    x, report = solve(system)
    assert report.residual <= solver.TOL
    assert system.residual(x) == report.residual


def test_banded_cut_row_needs_few_gmres_iterations(small_process):
    # the earlier band-only form (rows 0..j0-1 factored, row j0 by GMRES
    # preconditioned per mode by its own block) took 46 and 36 + 36 iterations
    for system, before in ((_wide_w1_system(), 46), (_reference_system(small_process, 0.1)[0], 72)):
        _, report = solve(system)
        assert 0 < report.iterations <= 0.6 * before


def test_interface_gmres_cap_raises_no_convergence(monkeypatch):
    system = _wide_w1_system()
    monkeypatch.setattr(solver, "GMRES_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="interface GMRES"):
        solve(system)


def test_wide_cell_c1_is_bit_identical_across_threads():
    cfg = CorrectorConfig(layer=LayerSpec(h=5.0, delta=0.05, width=130.0),
                          process=PointProcessParams(rho=0.4), H=7.0, L_cell=12.0,
                          target_dx=0.2)
    a = corrector.estimate_c1(cfg, 3, master_seed=3, threads=1)
    b = corrector.estimate_c1(cfg, 3, master_seed=3, threads=2)
    assert (a.mean, a.std_err, a.history) == (b.mean, b.std_err, b.history)


def _one_particle_system(real):
    layer = LayerSpec(h=3.0, delta=0.05, width=4.0)
    config = ParticleConfiguration(np.array([[0.3, 1.5]]), layer, seed=0)
    grid = build_grid(4.0, 4.0, 0.2)
    mask = classify_nodes(grid, config)
    if real:
        system = assemble(grid, mask, DtnSpec())
    else:
        system = assemble(grid, mask, DtnSpec(k=1.0, k1=math.sin(math.pi / 4.0)), gamma=1 + 1j)
    rhs = np.random.default_rng(2).normal(size=system.n).astype(system.rhs.dtype)
    return dataclasses.replace(system, rhs=rhs)


@pytest.mark.parametrize("real", [True, False], ids=["real", "phased"])
def test_cut_block_is_the_schur_complement_of_the_strip(real):
    system = _one_particle_system(real)
    cut = solver._Cut(system)
    n, nx = cut.n, system.grid.nx
    assert 2 < cut.j0 < system.grid.ny - 3
    # the full operator, local plus the modal map through grid.dtn_apply
    full = system.local.toarray().astype(complex)
    for i in range(nx):
        e = np.zeros(nx)
        e[i] = 1.0
        full[system.top, system.n - nx + i] += dtn_apply(system.dtn, system.grid.width, e)
    keep, strip = slice(0, n), slice(n, system.n)
    coupling = np.linalg.solve(full[strip, strip],
                               np.column_stack([full[strip, keep], system.rhs[strip]]))
    schur = full[keep, keep] - full[keep, strip] @ coupling[:, :n]
    rhs = system.rhs[keep] - full[keep, strip] @ coupling[:, n]
    matrix, reduced_rhs = _whole_cut_matrix(cut), cut.reduce(system.rhs)[0]
    assert matrix.dtype == system.local.dtype
    scale = np.abs(schur).max()
    assert np.abs(matrix.toarray() - schur).max() <= 1e-12 * scale
    assert np.abs(reduced_rhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_zero_strip_denominator_raises_singular(small_realization, monkeypatch):
    # multipliers that cancel the top row's one-sided stencil in mode 0
    system = _w1_system(small_realization)
    dy = system.grid.dy

    def cancelling(spec, width, nx):
        lam = dtn_multipliers(spec, width, nx)
        lam[0] = 1.5 / dy - 0.5 / dy
        return lam

    monkeypatch.setattr(grid_module, "dtn_multipliers", cancelling)
    with pytest.raises(SingularSystem, match="zero or non-finite denominator"):
        solve(system)


def test_superlu_memory_error_raises_factor_too_large(small_realization, monkeypatch):
    # an allocation failing in the numeric factorisation, and SuperLU's abort on
    # one failing before it
    for error in (MemoryError(), RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc() "
                                              "at line 173 in file memory.c")):
        def out_of_memory(*args, _error=error, **kwargs):
            raise _error

        monkeypatch.setattr(spla, "splu", out_of_memory)
        with pytest.raises(FactorTooLarge, match="SuperLU could not allocate"):
            solve(_w1_system(small_realization))


@pytest.mark.parametrize("k_dx", [2.0 * math.pi / 40.0, 1.9])
def test_diagonal_pivots_stable_on_coarse_helmholtz(small_process, monkeypatch, k_dx):
    # coarsest reference grid (8 nodes per scaled diameter); k*dx at the
    # wavelength/40 grid rule and just below 2, where the interior diagonal
    # 4/dx^2 - k^2 of the diagonally pivoted factor changes sign
    layer = LayerSpec(h=5.0, delta=0.05, width=40.0)
    eps = 0.4
    dx = 2.0 * eps / 8.0
    scene = ScatteringScene(epsilon=eps, H=7.0, layer=layer, gamma=1.0 + 1.0j,
                            period=eps * layer.width, L=eps * 7.0 + 1.0,
                            config=sample_matern(small_process, layer, 3))
    solved = []

    def recording_solve(system):
        x, report = solve(system)
        solved.append((system, x, report))
        return x, report

    monkeypatch.setattr(scattering, "solve", recording_solve)
    reference_solve(scene, PlaneWave(k=k_dx / dx, theta=math.pi / 4.0), dx)
    (system, x, report), = solved
    assert report.residual <= solver.TOL
    cut = solver._Cut(system)
    matrix, rhs = _whole_cut_matrix(cut), cut.reduce(system.rhs)[0]
    x_default = spla.splu(matrix).solve(rhs)  # rows 0..j0, partial pivoting
    x_cut = x[: len(rhs)]
    assert np.linalg.norm(x_cut - x_default) <= 1e-9 * np.linalg.norm(x_default)


def test_manufactured_solution_recovered(small_realization):
    # rhs manufactured from the assembled operator itself: recovery is
    # limited only by the solve, not by discretization
    system = _w1_system(small_realization)
    grid = system.grid
    x = grid.x_nodes()
    y = grid.y_nodes()
    target = (np.cos(2.0 * np.pi * x[None, :] / grid.width) * y[:, None]).ravel()
    target = target.astype(complex)
    system.rhs = system.matvec(target.copy())
    sol, report = solve(system)
    assert report.residual <= 1e-10
    assert np.abs(sol - target).max() < 1e-8


def test_direct_raises_no_convergence_above_tol(small_realization, monkeypatch):
    # a regular system whose refined residual cannot reach a zero tolerance
    system = _w1_system(small_realization)
    monkeypatch.setattr(solver, "TOL", 0.0)
    with pytest.raises(NoConvergence):
        solve(system)


def test_residual_contract_per_solve(small_realization):
    system = _w1_system(small_realization)
    x, report = solve(system)
    assert report.residual <= solver.TOL
    assert system.residual(x) == pytest.approx(report.residual)


def test_w1_solution_is_real(small_realization, monkeypatch):
    # the complex solve's real part solves the real system to TOL
    cfg = CorrectorConfig(layer=small_realization.layer,
                          process=PointProcessParams(rho=0.3),
                          H=7.0, L_cell=12.0, target_dx=0.2)
    systems = []

    def recording_assemble(*args, **kwargs):
        systems.append(assemble(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(corrector, "assemble", recording_assemble)
    w1 = solve_w1(cfg, small_realization)
    (system,) = systems
    assert w1.field.dtype == np.float64
    assert system.residual(w1.field.ravel()) <= solver.TOL
