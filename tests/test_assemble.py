import math

import numpy as np
import pytest

from helmlayer import DtnSpec, LayerSpec, NodeClass, build_grid, classify_nodes
from helmlayer.assemble import Sources, assemble


def _laplace_neumann_system(nx_width=10.0, top=8.0, dx=0.2, jump=None):
    grid = build_grid(nx_width, top, dx, interface_heights=(4.0,))
    tags = classify_nodes(grid, None)
    dtn = DtnSpec(kind="laplace_periodic", n_modes=6)
    sources = Sources(flux_jump_height=4.0) if jump else None
    system = assemble(grid, tags, "laplace", "neumann", dtn, sources=sources)
    return grid, system


def test_constants_in_kernel():
    # Neumann bottom, no particles, periodic-Laplace closure: A @ 1 = 0
    grid, system = _laplace_neumann_system()
    ones = np.ones(system.n, dtype=complex)
    out = system.matvec(ones)
    scale = 2.0 / grid.dx ** 2 + 2.0 / grid.dy ** 2
    assert np.abs(out).max() <= 1e-12 * scale


def test_interior_row_sums_vanish():
    grid, system = _laplace_neumann_system()
    row_sums = np.asarray(system.local.sum(axis=1)).ravel()
    interior = slice(grid.nx, 2 * grid.nx)
    scale = 2.0 / grid.dx ** 2 + 2.0 / grid.dy ** 2
    assert np.abs(row_sums[interior]).max() <= 1e-13 * scale


def test_quasiperiodic_wrap_phase():
    k = 1.0
    k1 = k * math.sin(math.pi / 4.0)
    grid = build_grid(10.0, 2.0, 0.2)
    tags = classify_nodes(grid, None)
    dtn = DtnSpec(kind="helmholtz_quasiperiodic", n_modes=4, k=k, k1=k1)
    system = assemble(grid, tags, "helmholtz", "robin", dtn, quasi_momentum=k1,
                      k=k, gamma=1 + 1j)
    a = system.local.tocsr()
    j = 2
    row = j * grid.nx  # i = 0, interior: left neighbour wraps with exp(-i k1 W)
    left_col = j * grid.nx + grid.nx - 1
    val = a[row, left_col]
    expected = -np.exp(-1j * k1 * grid.width) / grid.dx ** 2
    assert val == pytest.approx(expected)
    row2 = j * grid.nx + grid.nx - 1  # i = nx-1: right neighbour wraps with exp(+i k1 W)
    val2 = a[row2, j * grid.nx]
    assert val2 == pytest.approx(-np.exp(1j * k1 * grid.width) / grid.dx ** 2)


def test_real_laplace_interior_block_is_symmetric():
    grid, system = _laplace_neumann_system()
    a = system.local
    interior = np.arange(grid.nx, system.n - grid.nx)
    block = a[interior][:, interior].toarray()
    assert np.abs(block - block.T).max() == 0.0
    assert np.abs(block.imag).max() == 0.0


def test_flux_jump_enters_rhs_scaled():
    grid, system = _laplace_neumann_system(jump=True)
    j = grid.j_of_height(4.0)
    row = j * grid.nx
    assert system.rhs[row] == pytest.approx(1.0 / grid.dy)
    assert system.rhs[(j + 1) * grid.nx] == 0.0


def test_dirichlet_rows_are_identity():
    layer = LayerSpec(h=8.0, delta=0.05, width=10.0)
    from helmlayer import ParticleConfiguration

    config = ParticleConfiguration(np.array([[0.0, 4.0]]), layer, seed=0)
    grid = build_grid(10.0, 8.0, 0.2)
    tags = classify_nodes(grid, config)
    dtn = DtnSpec(kind="laplace_periodic", n_modes=4)
    system = assemble(grid, tags, "laplace", "neumann", dtn)
    flat = tags.ravel()
    a = system.local.tocsr()
    idx = np.flatnonzero(flat == NodeClass.PARTICLE_DIRICHLET)[:5]
    for r in idx:
        start, stop = a.indptr[r], a.indptr[r + 1]
        assert stop - start == 1
        assert a.indices[start] == r
        assert a.data[start] == 1.0
        assert system.rhs[r] == 0.0


def test_materialized_matches_matrix_free():
    grid, system = _laplace_neumann_system(jump=True)
    full = system.materialize()
    rng = np.random.default_rng(5)
    x = rng.normal(size=system.n) + 1j * rng.normal(size=system.n)
    assert np.abs(full @ x - system.matvec(x)).max() < 1e-10


def test_bordered_matches_matrix_free():
    grid, system = _laplace_neumann_system(jump=True)
    full, rhs_ext, n_aux = system.bordered()
    assert n_aux == int(np.count_nonzero(system.multipliers))
    rng = np.random.default_rng(6)
    x = rng.normal(size=system.n) + 1j * rng.normal(size=system.n)
    # eliminate the aux rows by hand: aux = analysis(x_top)
    a_rows = full[system.n:, :system.n]
    aux = -(a_rows @ x)
    ext = np.concatenate([x, aux])
    assert np.abs((full @ ext)[system.n:]).max() < 1e-12
    out = (full @ ext)[: system.n]
    assert np.abs(out - system.matvec(x)).max() < 1e-10
