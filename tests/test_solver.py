import numpy as np
import pytest
import scipy.sparse as sp

from helmlayer import (DtnSpec, NoConvergence, SingularSystem, build_grid,
                       classify_nodes, solve)
from helmlayer import solver
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
                          quasi_momentum=0.0, problem_kind="laplace",
                          bottom="neumann")


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
    assert np.abs(w1.field.imag).max() < 1e-10
