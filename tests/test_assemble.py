import functools
import math

import numpy as np
import pytest

from helmlayer import DtnSpec, LayerSpec, NodeClass, build_grid, classify_nodes
from helmlayer.assemble import Sources, assemble
from helmlayer.grid import dtn_apply, dtn_multipliers


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
    system = assemble(grid, tags, "helmholtz", "robin", dtn, k=k, gamma=1 + 1j)
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


def _w1_matrix_free_case():
    return _laplace_neumann_system(jump=True)[1]


def _quasiperiodic_robin_case():
    # complex operator: phased DFT modes, seam phase and Robin bottom
    k = 1.0
    k1 = k * math.sin(math.pi / 4.0)
    grid = build_grid(10.0, 2.0, 0.2)
    dtn = DtnSpec(kind="helmholtz_quasiperiodic", n_modes=4, k=k, k1=k1)
    return assemble(grid, classify_nodes(grid, None), "helmholtz", "robin", dtn, k=k,
                    gamma=1 + 1j, sources=Sources(top_forcing=np.ones(grid.nx)))


FACTORED_FORM_CASES = pytest.mark.parametrize(
    "make_system", [_w1_matrix_free_case, _quasiperiodic_robin_case],
    ids=["w1", "quasiperiodic_robin"])


def _w1_type_system(width, n_modes):
    grid = build_grid(width, 8.0, 0.2, interface_heights=(4.0,))
    tags = classify_nodes(grid, None)
    dtn = DtnSpec(kind="laplace_periodic", n_modes=n_modes)
    return assemble(grid, tags, "laplace", "neumann", dtn, sources=Sources(flux_jump_height=4.0))


@pytest.mark.parametrize("make_system", [
    _w1_matrix_free_case,
    _quasiperiodic_robin_case,
    functools.partial(_w1_type_system, 10.0, 6),
    functools.partial(_w1_type_system, 9.8, 6),
    functools.partial(_w1_type_system, 10.0, 25),
    functools.partial(_w1_type_system, 9.8, 24),
], ids=["w1", "quasiperiodic_robin",
        "w1_nx50", "w1_nx49", "w1_nx50_nyquist_mode", "w1_nx49_every_mode"])
def test_materialized_matches_matrix_free(make_system):
    system = make_system()
    full = system.materialize()
    assert full.dtype == system.local.dtype
    rng = np.random.default_rng(5)
    x = rng.normal(size=system.n) + 1j * rng.normal(size=system.n)
    y = full @ x
    # the shared circulant against the one FFT code
    modal = dtn_apply(system.dtn, system.grid.width, x[system.top])
    circ = (y - system.local @ x)[system.top]
    assert np.linalg.norm(circ - modal) <= 1e-12 * np.linalg.norm(modal)
    assert np.abs(y - system.matvec(x)).max() < 1e-10
    if system.real:  # a real vector keeps the exact operator real
        y_real = system.matvec(x.real)
        assert y_real.dtype == np.float64
        assert np.linalg.norm((y_real - system.local @ x.real)[system.top] - modal.real) \
            <= 1e-12 * np.linalg.norm(modal)


@FACTORED_FORM_CASES
def test_bordered_matches_matrix_free(make_system):
    system = make_system()
    full, rhs_ext, n_aux = system.bordered()
    assert n_aux == int(np.count_nonzero(dtn_multipliers(system.dtn, system.grid.width,
                                                         system.grid.nx)))
    rng = np.random.default_rng(6)
    x = rng.normal(size=system.n) + 1j * rng.normal(size=system.n)
    # eliminate the aux rows by hand: aux = analysis(x_top)
    a_rows = full[system.n:, :system.n]
    aux = -(a_rows @ x)
    ext = np.concatenate([x, aux])
    assert np.abs((full @ ext)[system.n:]).max() < 1e-12
    out = (full @ ext)[: system.n]
    assert np.abs(out - system.matvec(x)).max() < 1e-10


def test_operator_dtype_follows_the_problem():
    grid = build_grid(10.0, 8.0, 0.2, interface_heights=(4.0,))
    tags = classify_nodes(grid, None)
    lap = DtnSpec(kind="laplace_periodic", n_modes=6)
    w1 = assemble(grid, tags, "laplace", "neumann", lap, sources=Sources(flux_jump_height=4.0))
    assert (w1.local.dtype, w1.rhs.dtype) == (np.float64, np.float64)
    psi = np.full(grid.nx, 1.0 - 1.0j)
    w2 = assemble(grid, tags, "laplace", "neumann", lap, sources=Sources(bottom_neumann=psi))
    assert np.array_equal(w2.rhs[: grid.nx], psi)
    k, k1 = 1.0, math.sin(math.pi / 4.0)
    complex_systems = [
        w2,  # W2: W1's operator, but complex data
        assemble(grid, tags, "helmholtz", "robin",
                 DtnSpec(kind="helmholtz_quasiperiodic", n_modes=4, k=k, k1=k1),
                 k=k, gamma=1 + 1j),
        assemble(grid, tags, "helmholtz", "neumann",
                 DtnSpec(kind="helmholtz_quasiperiodic", n_modes=4, k=k), k=k),
        assemble(grid, tags, "laplace", "robin", lap, k=k, gamma=1 + 1j),
    ]
    for system in complex_systems:
        assert (system.local.dtype, system.rhs.dtype) == (np.complex128, np.complex128)
        assert system.bordered()[0].dtype == np.complex128
