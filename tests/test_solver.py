import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmlayer import (DtnSpec, LayerSpec, NoConvergence, PlaneWave, ScatteringScene,
                       SingularSystem, build_grid, classify_nodes, reference_solve,
                       sample_matern, solve)
from helmlayer import scattering, solver
from helmlayer.assemble import DiscreteSystem, Sources, assemble
from helmlayer.corrector import CorrectorConfig, solve_w1
from helmlayer.geometry import PointProcessParams


def _identity_system():
    grid = build_grid(2.0, 2.0, 0.5)
    tags = classify_nodes(grid, None)
    n = grid.n_nodes
    rng = np.random.default_rng(0)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    dtn = DtnSpec(kind="laplace_periodic", n_modes=0)
    return DiscreteSystem(local=sp.identity(n, dtype=complex, format="csr"),
                          rhs=rhs, grid=grid, tags=tags, dtn=dtn,
                          problem_kind="laplace", bottom="neumann")


def _w1_system(config):
    grid = build_grid(20.0, 12.0, 0.2, interface_heights=(7.0,))
    tags = classify_nodes(grid, config)
    dtn = DtnSpec(kind="laplace_periodic", n_modes=8)
    return assemble(grid, tags, "laplace", "neumann", dtn,
                    sources=Sources(flux_jump_height=7.0))


def test_identity_rows_solution_equals_rhs():
    system = _identity_system()
    x, report = solve(system)
    assert np.allclose(x, system.rhs, atol=1e-14)
    assert report.residual <= 1e-12


def test_empty_w1_raises_singular_direct(empty_realization):
    system = _w1_system(empty_realization)
    with pytest.raises(SingularSystem):
        solve(system)


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
    matrix, _ = solver._factor_input(_w1_system(small_realization))
    assert solver._factorize(matrix).nnz <= 0.7 * spla.splu(matrix).nnz


def _nx20_system(problem_kind, dtn):
    grid = build_grid(4.0, 2.0, 0.2)
    return assemble(grid, classify_nodes(grid, None), problem_kind, "robin", dtn, k=1.0,
                    gamma=1 + 1j, sources=Sources(top_forcing=np.ones(grid.nx)))


def test_materialized_exactly_when_modes_fill_half_the_top_line(small_realization,
                                                                 monkeypatch):
    factored = []
    for name in ("materialize", "bordered"):
        def counted(self, _form=getattr(DiscreteSystem, name), _name=name):
            factored.append(_name)
            return _form(self)
        monkeypatch.setattr(DiscreteSystem, name, counted)
    cases = [  # (system, factored form); nx 20 unless noted
        (_nx20_system("helmholtz", DtnSpec(kind="helmholtz_quasiperiodic", n_modes=10,
                                           k=1.0, k1=0.3)), "materialize"),  # all 20 modes
        (_nx20_system("laplace", DtnSpec(kind="laplace_periodic", n_modes=5)),
         "materialize"),  # 10 modes: 2 n_aux == nx
        (_nx20_system("laplace", DtnSpec(kind="laplace_periodic", n_modes=4)),
         "bordered"),  # 8 modes
        (_w1_system(small_realization), "bordered"),  # 16 modes, nx 100
    ]
    for system, form in cases:
        factored.clear()
        _, report = solve(system)
        assert factored == [form]
        assert report.residual <= solver.TOL


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
    matrix, rhs = solver._factor_input(system)
    x_default = spla.splu(matrix).solve(rhs)[: system.n]
    assert np.linalg.norm(x - x_default) <= 1e-9 * np.linalg.norm(x_default)


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
