import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmlayer import (DtnSpec, FactorTooLarge, LayerSpec, NodeClass, NoConvergence,
                       ParticleConfiguration, PlaneWave, PointProcessParams, ScatteringScene,
                       SingularSystem, build_grid, classify_nodes, reference_solve,
                       sample_matern, solve)
from helmlayer import corrector, scattering, solver
from helmlayer import grid as grid_module
from helmlayer.assemble import DiscreteSystem, Sources, assemble
from helmlayer.corrector import CorrectorConfig, solve_w1
from helmlayer.grid import dtn_apply, dtn_multipliers


def _identity_system():
    grid = build_grid(2.0, 2.0, 0.5)
    tags = classify_nodes(grid, None)
    n = grid.n_nodes
    rng = np.random.default_rng(0)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    return DiscreteSystem(local=sp.identity(n, dtype=complex, format="csr"),
                          rhs=rhs, grid=grid, tags=tags, dtn=DtnSpec(kind="laplace_periodic"))


def _w1_system(config, width=20.0):
    grid = build_grid(width, 12.0, 0.2, interface_heights=(7.0,))
    tags = classify_nodes(grid, config)
    return assemble(grid, tags, "laplace", "neumann", DtnSpec(kind="laplace_periodic"),
                    sources=Sources(flux_jump_height=7.0))


def test_identity_rows_solution_equals_rhs():
    # identity rows below the top; the top row is (I + Lambda) u = rhs there
    system = _identity_system()
    x, report = solve(system)
    top = system.top
    lam = dtn_multipliers(system.dtn, system.grid.width, system.grid.nx)
    assert np.allclose(x[:top.start], system.rhs[:top.start], atol=1e-14)
    assert np.allclose(x[top], np.fft.ifft(np.fft.fft(system.rhs[top]) / (1.0 + lam)), atol=1e-14)
    assert report.residual <= 1e-12


def test_empty_w1_raises_singular_direct(empty_realization):
    system = _w1_system(empty_realization)
    with pytest.raises(SingularSystem):
        solve(system)


def test_empty_w1_raises_singular_through_the_interface_form(empty_realization, monkeypatch):
    # the banded factor is regular; the dropped tail of the circulant restores
    # the constant kernel
    monkeypatch.setattr(solver, "INTERFACE_NX", 0)
    with pytest.raises(SingularSystem, match="constant kernel"):
        solve(_w1_system(empty_realization))


def test_near_singular_w1_raises_singular(empty_realization):
    # the constant kernel lifted by a tiny diagonal shift: the factor succeeds
    # with no vanishing pivot, so only refinement and the kernel check see it
    system = _w1_system(empty_realization)
    scale = float(np.abs(system.local.diagonal()).max())
    system.local = (system.local + 1e-13 * scale * sp.identity(system.n, format="csr")).tocsr()
    with pytest.raises(SingularSystem, match="constant kernel"):
        solve(system)


def test_non_finite_residual_raises_no_convergence():
    system = _identity_system()
    system.rhs[0] = np.nan
    with pytest.raises(NoConvergence):
        solve(system)


def test_symmetric_ordering_cuts_fill(small_realization):
    matrix = solver._Cut(_w1_system(small_realization)).matrix()
    assert solver._factorize(matrix).nnz <= 0.7 * spla.splu(matrix).nnz


def _nx20_system(problem_kind, dtn):
    grid = build_grid(4.0, 2.0, 0.2)
    return assemble(grid, classify_nodes(grid, None), problem_kind, "robin", dtn, k=1.0,
                    gamma=1 + 1j, sources=Sources(top_forcing=np.ones(grid.nx)))


def _first_row_above_particles(system):
    rows = np.flatnonzero((system.tags == NodeClass.PARTICLE_DIRICHLET).any(axis=1))
    return max(2, rows.max() + 1) if len(rows) else 2


def test_solve_factors_only_rows_up_to_the_cut(small_realization, monkeypatch):
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
    cases = [  # nx 20 unless noted
        _nx20_system("helmholtz", DtnSpec(kind="helmholtz_quasiperiodic", k=1.0, k1=0.3)),
        _nx20_system("laplace", DtnSpec(kind="laplace_periodic")),
        _w1_system(small_realization),  # nx 100
    ]
    band = 2 * solver.CUT_HALF_WIDTH + 1
    for system in cases:
        j0, nx = _first_row_above_particles(system), system.grid.nx
        n = (j0 + 1) * nx
        # both forms factor rows 0..j0; row j0 keeps its whole circulant below
        # INTERFACE_NX, and from it on a band of 2w+1 offsets and GMRES iterations
        for threshold, cut_entries in ((nx + 1, nx * nx), (nx, band * nx)):
            monkeypatch.setattr(solver, "INTERFACE_NX", threshold)
            factored.clear()
            _, report = solve(system)
            (matrix,) = factored
            assert matrix.shape == (n, n)
            assert matrix[n - nx:, n - nx:].nnz == cut_entries
            assert (report.iterations > 0) == (threshold == nx)
            assert report.residual <= solver.TOL


def test_wide_cut_row_builds_no_dense_block():
    # nx 2000 and no particles: rows 0..2 are factored, and the set-up peaks
    # at about 3.5 MB, under half of one float64 nx x nx array
    grid = build_grid(400.0, 2.0, 0.2)
    system = assemble(grid, classify_nodes(grid, None), "helmholtz", "robin",
                      DtnSpec(kind="helmholtz_quasiperiodic", k=1.0, k1=0.3),
                      k=1.0, gamma=1 + 1j, sources=Sources(top_forcing=np.ones(grid.nx)))
    nx = grid.nx
    assert nx >= solver.INTERFACE_NX
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
    j0 = solver._Cut(system).j0
    assert j0 == _first_row_above_particles(system) > 2
    assert not (system.tags[j0:] == NodeClass.PARTICLE_DIRICHLET).any()
    assert (system.tags[j0 - 1] == NodeClass.PARTICLE_DIRICHLET).any()


@pytest.mark.parametrize("j_edit, j0", [(30, 31), (58, 60)])  # ny 61
def test_non_uniform_rows_shorten_the_strip(small_realization, j_edit, j0):
    # a row above the particles whose stencil differs is kept in the factor;
    # a single uniform row left under the top leaves no strip at all
    system = _w1_system(small_realization)
    assert system.grid.ny == 61 and solver._Cut(system).j0 < j_edit
    node = j_edit * system.grid.nx + 3
    local = system.local.tolil()
    local[node, node] *= 1.0 + 1e-12
    system.local = local.tocsr()
    assert solver._Cut(system).j0 == j0
    _, report = solve(system)
    assert report.residual <= solver.TOL


def test_no_strip_under_a_non_stencil_top():
    system = _identity_system()
    cut = solver._Cut(system)
    assert cut.j0 == system.grid.ny - 1 and cut.n == system.n


def _seed1_w1_system():
    cfg = CorrectorConfig(layer=LayerSpec(h=5.0, delta=0.05, width=20.0),
                          process=PointProcessParams("matern2", rho=0.4), target_dx=0.2)
    grid = cfg.cell_grid()
    tags = classify_nodes(grid, sample_matern(cfg.process, cfg.layer, 1, stream=0))
    return assemble(grid, tags, "laplace", "neumann", DtnSpec(kind="laplace_periodic"),
                    sources=Sources(flux_jump_height=grid.snaps[0].snapped))


def _reference_system(process, dx):
    layer = LayerSpec(h=5.0, delta=0.05, width=40.0)
    scene = ScatteringScene(epsilon=0.4, H=7.0, layer=layer, gamma=1.0 + 1.0j,
                            period=16.0, L=3.8, config=sample_matern(process, layer, 3))
    systems = []

    def recording_solve(system):
        systems.append(system)
        return solve(system)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scattering, "solve", recording_solve)
        reference_solve(scene, PlaneWave(k=1.0, theta=math.pi / 4.0), dx)
    return systems[0]


def test_reduced_solve_matches_the_full_factor(small_process):
    # seed-1 W1 cell, and a quasi-periodic Robin Helmholtz system with particles
    for system in (_seed1_w1_system(), _reference_system(small_process, 0.1)):
        assert solver._Cut(system).j0 < system.grid.ny - 3
        x, _ = solve(system)
        full = system.materialize().astype(system.rhs.dtype)
        x_full = solver._factorize(full).solve(system.rhs)
        assert np.linalg.norm(x - x_full) <= 1e-10 * np.linalg.norm(x_full)
    assert system.dtn.k1 == pytest.approx(math.sin(math.pi / 4.0))


def _wide_w1_system():
    layer = LayerSpec(h=5.0, delta=0.05, width=130.0)  # nx 650
    return _w1_system(sample_matern(PointProcessParams(rho=0.4), layer, 5), layer.width)


def test_interface_form_matches_the_direct_cut(small_process, monkeypatch):
    # a wide real W1 cell, and a quasi-periodic Robin Helmholtz system with particles;
    # the reduced solves agree before refinement, the refined solutions after it
    for system in (_wide_w1_system(), _reference_system(small_process, 0.1)):
        cut = solver._Cut(system)
        assert 2 < cut.j0 < system.grid.ny - 3
        reduced_rhs, _ = cut.reduce(system.rhs)
        solutions = []
        for threshold in (system.grid.nx + 1, system.grid.nx):  # whole circulant, then band
            monkeypatch.setattr(solver, "INTERFACE_NX", threshold)
            x, report = solve(system)
            assert report.residual <= solver.TOL
            solutions.append((cut.solver()(reduced_rhs)[0], x))
        for direct, interface in zip(*solutions):
            assert interface.dtype == direct.dtype == system.rhs.dtype
            assert np.linalg.norm(interface - direct) <= 1e-10 * np.linalg.norm(direct)
    assert system.dtn.k1 == pytest.approx(math.sin(math.pi / 4.0))


def test_interface_form_solves_a_zero_strip():
    # a row just under the top that differs from the stencil: row j0 is the top row
    system = _wide_w1_system()
    assert system.grid.nx >= solver.INTERFACE_NX
    node = (system.grid.ny - 2) * system.grid.nx + 3
    local = system.local.tolil()
    local[node, node] *= 1.0 + 1e-12
    system.local = local.tocsr()
    assert solver._Cut(system).j0 == system.grid.ny - 1
    x, report = solve(system)
    assert report.residual <= solver.TOL
    assert system.residual(x) == report.residual


def test_banded_cut_row_needs_few_gmres_iterations(small_process, monkeypatch):
    # the earlier band-only form (rows 0..j0-1 factored, row j0 by GMRES
    # preconditioned per mode by its own block) took 46 and 36 + 36 iterations
    monkeypatch.setattr(solver, "INTERFACE_NX", 0)
    for system, before in ((_wide_w1_system(), 46), (_reference_system(small_process, 0.1), 72)):
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
    assert cfg.cell_grid().nx >= solver.INTERFACE_NX
    a = corrector.estimate_c1(cfg, 3, master_seed=3, threads=1)
    b = corrector.estimate_c1(cfg, 3, master_seed=3, threads=2)
    assert (a.mean, a.std_err, a.history) == (b.mean, b.std_err, b.history)


def _one_particle_system(problem_kind):
    layer = LayerSpec(h=3.0, delta=0.05, width=4.0)
    config = ParticleConfiguration(np.array([[0.3, 1.5]]), layer, seed=0)
    grid = build_grid(4.0, 4.0, 0.2)
    tags = classify_nodes(grid, config)
    rng = np.random.default_rng(2)
    if problem_kind == "laplace":
        dtn = DtnSpec(kind="laplace_periodic")
        return assemble(grid, tags, "laplace", "neumann", dtn,
                        sources=Sources(volume=rng.normal(size=(grid.ny, grid.nx))))
    k = 1.0
    dtn = DtnSpec(kind="helmholtz_quasiperiodic", k=k, k1=k * math.sin(math.pi / 4.0))
    return assemble(grid, tags, "helmholtz", "robin", dtn, k=k, gamma=1 + 1j,
                    sources=Sources(volume=rng.normal(size=(grid.ny, grid.nx)),
                                    top_forcing=np.ones(grid.nx)))


@pytest.mark.parametrize("problem_kind", ["laplace", "helmholtz"], ids=["real", "phased"])
def test_cut_block_is_the_schur_complement_of_the_strip(problem_kind):
    system = _one_particle_system(problem_kind)
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
    matrix, reduced_rhs = cut.matrix(), cut.reduce(system.rhs)[0]
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
        lam[0] = -(1.5 / dy - 0.5 / dy)
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
    matrix, rhs = cut.matrix(), cut.reduce(system.rhs)[0]
    x_default = spla.splu(matrix).solve(rhs)  # the factored rows 0..j0
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


def test_w1_solution_is_real(small_realization):
    cfg = CorrectorConfig(layer=small_realization.layer,
                          process=PointProcessParams(rho=0.3),
                          H=7.0, L_cell=12.0, target_dx=0.2)
    w1 = solve_w1(cfg, small_realization)
    assert w1.field.dtype == np.float64
