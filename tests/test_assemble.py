import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from helmlayer import (DtnSpec, LayerSpec, NodeClass, ParticleConfiguration, build_grid,
                       classify_nodes)
from helmlayer.assemble import Sources, assemble, with_circulant
from helmlayer.grid import circulant_offsets, dtn_apply, dtn_multipliers


def _laplace_neumann_system(nx_width=10.0, top=8.0, dx=0.2, jump=None):
    grid = build_grid(nx_width, top, dx, interface_heights=(4.0,))
    tags = classify_nodes(grid, None)
    dtn = DtnSpec(kind="laplace_periodic")
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
    dtn = DtnSpec(kind="helmholtz_quasiperiodic", k=k, k1=k1)
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
    config = ParticleConfiguration(np.array([[0.0, 4.0]]), layer, seed=0)
    grid = build_grid(10.0, 8.0, 0.2)
    tags = classify_nodes(grid, config)
    dtn = DtnSpec(kind="laplace_periodic")
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
    dtn = DtnSpec(kind="helmholtz_quasiperiodic", k=k, k1=k1)
    return assemble(grid, classify_nodes(grid, None), "helmholtz", "robin", dtn, k=k,
                    gamma=1 + 1j, sources=Sources(top_forcing=np.ones(grid.nx)))


FACTORED_FORM_CASES = pytest.mark.parametrize(
    "make_system", [_w1_matrix_free_case, _quasiperiodic_robin_case],
    ids=["w1", "quasiperiodic_robin"])


def _w1_type_system(width):
    grid = build_grid(width, 8.0, 0.2, interface_heights=(4.0,))
    tags = classify_nodes(grid, None)
    return assemble(grid, tags, "laplace", "neumann", DtnSpec(kind="laplace_periodic"),
                    sources=Sources(flux_jump_height=4.0))


@pytest.mark.parametrize("make_system", [
    _w1_matrix_free_case,
    _quasiperiodic_robin_case,
    functools.partial(_w1_type_system, 10.0),
    functools.partial(_w1_type_system, 9.8),
], ids=["w1", "quasiperiodic_robin", "w1_nx50_nyquist_mode", "w1_nx49"])
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


def _dense_circulant(symbol, k1, dx):
    """B[i, l] = ifft(symbol)[(i - l) % nx] exp(i k1 dx (i - l)), every entry."""
    nx = len(symbol)
    kernel = np.fft.ifft(symbol)
    if np.isrealobj(symbol):
        kernel = kernel.real
    d = np.subtract.outer(np.arange(nx), np.arange(nx))
    return kernel[d % nx] * np.exp(1j * k1 * dx * d) if k1 != 0.0 else kernel[d % nx]


def _symbol(nx, k1):
    rng = np.random.default_rng(nx)
    return rng.normal(size=nx) + 1j * rng.normal(size=nx) if k1 else rng.normal(size=nx)


@pytest.mark.parametrize("nx", [20, 21])
@pytest.mark.parametrize("k1", [0.0, math.sin(math.pi / 4.0)])
def test_circulant_builder_at_full_width_is_the_dense_circulant(nx, k1):
    symbol, dx = _symbol(nx, k1), 0.2
    out = with_circulant(sp.csr_matrix((nx + 3, nx + 3)), symbol, k1, dx,
                         circulant_offsets(nx)).toarray()
    assert out.dtype == (np.float64 if k1 == 0.0 else np.complex128)
    assert not out[:3].any() and not out[:, :3].any()
    assert np.array_equal(out[3:, 3:], _dense_circulant(symbol, k1, dx))


@pytest.mark.parametrize("nx", [4, 5, 20, 21])
@pytest.mark.parametrize("half_width", [1, 2, 4])
def test_circulant_band_keeps_each_offset_once(nx, half_width):
    # on a row with nx <= 2w+1 the band is clamped, and no offset aliases
    k1, dx = math.sin(math.pi / 4.0), 0.2
    offsets = circulant_offsets(nx, half_width)
    assert len(offsets) == min(2 * half_width + 1, 2 * ((nx - 1) // 2) + 1)
    assert len(np.unique(offsets % nx)) == len(offsets)
    symbol = _symbol(nx, k1)
    band = with_circulant(sp.csr_matrix((nx, nx)), symbol, k1, dx, offsets)
    assert band.nnz == len(offsets) * nx
    d = np.subtract.outer(np.arange(nx), np.arange(nx))
    kept = np.isin(d % nx, offsets % nx)
    assert np.array_equal(band.toarray(), np.where(kept, _dense_circulant(symbol, k1, dx), 0.0))


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
    lap = DtnSpec(kind="laplace_periodic")
    w1 = assemble(grid, tags, "laplace", "neumann", lap, sources=Sources(flux_jump_height=4.0))
    assert (w1.local.dtype, w1.rhs.dtype) == (np.float64, np.float64)
    psi = np.full(grid.nx, 1.0 - 1.0j)
    w2 = assemble(grid, tags, "laplace", "neumann", lap, sources=Sources(bottom_neumann=psi))
    assert np.array_equal(w2.rhs[: grid.nx], psi)
    k, k1 = 1.0, math.sin(math.pi / 4.0)
    complex_systems = [
        w2,  # W2: W1's operator, but complex data
        assemble(grid, tags, "helmholtz", "robin",
                 DtnSpec(kind="helmholtz_quasiperiodic", k=k, k1=k1),
                 k=k, gamma=1 + 1j),
        assemble(grid, tags, "helmholtz", "neumann",
                 DtnSpec(kind="helmholtz_quasiperiodic", k=k), k=k),
        assemble(grid, tags, "laplace", "robin", lap, k=k, gamma=1 + 1j),
    ]
    for system in complex_systems:
        assert (system.local.dtype, system.rhs.dtype) == (np.complex128, np.complex128)
        assert system.bordered()[0].dtype == np.complex128


def _coo_reference(grid, tags, problem_kind, bottom, dtn, dtype, k=0.0, gamma=0.0,
                   sources=Sources()):
    """Operator and rhs from per-stencil COO triplets, duplicates summed by scipy."""
    nx, n = grid.nx, grid.n_nodes
    dx2, dy2, dy = grid.dx ** 2, grid.dy ** 2, grid.dy
    wrap = [np.exp(sign * 1j * dtn.k1 * grid.width) if dtn.k1 else 1.0 for sign in (-1, 1)]
    dirichlet = tags.ravel() == NodeClass.PARTICLE_DIRICHLET
    rows, cols, vals = [], [], []
    rhs = np.zeros(n, dtype=dtype)

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(np.broadcast_to(np.asarray(v, dtype=dtype), r.shape))

    d = np.flatnonzero(dirichlet)
    add(d, d, 1.0)
    r = np.arange(nx, n - nx)
    r = r[~dirichlet[r]]
    i = r % nx
    add(r, r, 2.0 / dx2 + 2.0 / dy2 - (k * k if problem_kind == "helmholtz" else 0.0))
    add(r, r - i + (i - 1) % nx, np.where(i == 0, -wrap[0] / dx2, -1.0 / dx2))
    add(r, r - i + (i + 1) % nx, np.where(i == nx - 1, -wrap[1] / dx2, -1.0 / dx2))
    add(r, r - nx, -1.0 / dy2)
    add(r, r + nx, -1.0 / dy2)
    if sources.volume is not None:
        rhs[r] = np.asarray(sources.volume, dtype=dtype).ravel()[r]
    if sources.flux_jump_height is not None:
        jump = grid.j_of_height(sources.flux_jump_height) * nx + np.arange(nx)
        rhs[jump[~dirichlet[jump]]] += sources.flux_jump_value / dy
    b = np.flatnonzero(~dirichlet[:nx])
    add(b, b, 1.5 / dy + (1j * k * gamma if bottom == "robin" else 0.0))
    add(b, b + nx, -2.0 / dy)
    add(b, b + 2 * nx, 0.5 / dy)
    if sources.bottom_neumann is not None:
        rhs[b] = np.asarray(sources.bottom_neumann, dtype=dtype)[b]
    s = 1.0 if dtn.kind == "laplace_periodic" else -1.0
    t = np.arange(n - nx, n)
    for shift, v in ((0, 1.5), (nx, -2.0), (2 * nx, 0.5)):
        add(t, t - shift, s * v / dy)
    if sources.top_forcing is not None:
        rhs[t] = sources.top_forcing
    coo = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n))
    return coo.tocsr(), rhs


def _oracle_case(name):
    """(grid, tags, assemble arguments) of one oracle case."""
    layer = LayerSpec(h=8.0, delta=0.05, width=10.0)
    # two disks straddle the seam x = +-5, one sits inside
    config = ParticleConfiguration(np.array([[-4.93, 3.01], [4.71, 6.02], [0.3, 4.5]]),
                                   layer, seed=0)
    grid = build_grid(10.0, 8.0, 0.2, interface_heights=(2.0,))
    tags = classify_nodes(grid, config)
    rng = np.random.default_rng(3)
    nx, ny = grid.nx, grid.ny
    lap = DtnSpec(kind="laplace_periodic")
    k, k1 = 1.0, math.sin(0.7)
    helm = DtnSpec(kind="helmholtz_quasiperiodic", k=k, k1=k1)
    complex_data = Sources(volume=rng.normal(size=(ny, nx)) + 1j * rng.normal(size=(ny, nx)),
                           bottom_neumann=rng.normal(size=nx) - 2j,
                           top_forcing=np.exp(1j * k1 * grid.x_nodes()))
    if name.startswith("hand_tags"):
        # Dirichlet on the bottom and top rows, seam columns included
        tags = tags.copy()
        tags[0, [0, 7, nx - 1]] = NodeClass.PARTICLE_DIRICHLET
        tags[-1, [0, 11, nx - 1]] = NodeClass.PARTICLE_DIRICHLET
    return grid, tags, {
        "w1_flux_jump": ("laplace", "neumann", lap, {"sources": Sources(flux_jump_height=2.0)}),
        "laplace_real_data": ("laplace", "neumann", lap, {"sources": Sources(
            volume=rng.normal(size=(ny, nx)), bottom_neumann=rng.normal(size=nx),
            top_forcing=rng.normal(size=nx), flux_jump_height=2.0, flux_jump_value=0.5)}),
        "helmholtz_robin_seam": ("helmholtz", "robin", helm,
                                 {"k": k, "gamma": 1 + 1j, "sources": complex_data}),
        "hand_tags": ("helmholtz", "robin", helm, {"k": k, "gamma": 0.5 - 1j,
                                                   "sources": complex_data}),
        "hand_tags_real": ("laplace", "neumann", lap, {"sources": Sources(flux_jump_height=2.0)}),
    }[name]


@pytest.mark.parametrize("name", ["w1_flux_jump", "laplace_real_data", "helmholtz_robin_seam",
                                  "hand_tags", "hand_tags_real"])
def test_csr_equals_coo_reference(name):
    grid, tags, (kind, bottom, dtn, kw) = _oracle_case(name)
    system = assemble(grid, tags, kind, bottom, dtn, **kw)
    ref, rhs = _coo_reference(grid, tags, kind, bottom, dtn, system.rhs.dtype, **kw)
    got = system.local
    assert (tags == NodeClass.PARTICLE_DIRICHLET)[:, [0, -1]].any(axis=0).all()  # seam reached
    assert got.has_canonical_format and ref.has_canonical_format
    for a, b in ((got.data, ref.data), (got.indices, ref.indices), (got.indptr, ref.indptr),
                 (system.rhs, rhs)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_assembly_memory_is_linear_in_the_output():
    # ~125k nodes, complex Helmholtz with seam phase and particles
    grid = build_grid(70.0, 71.6, 0.2)
    layer = LayerSpec(h=70.0, delta=0.05, width=70.0)
    centers = np.column_stack([np.linspace(-30.0, 30.0, 10), np.full(10, 30.0)])
    tags = classify_nodes(grid, ParticleConfiguration(centers, layer, seed=0))
    k, k1 = 1.0, math.sin(0.7)
    dtn = DtnSpec(kind="helmholtz_quasiperiodic", k=k, k1=k1)
    forcing = Sources(top_forcing=np.ones(grid.nx, dtype=complex))
    tracemalloc.start()
    try:
        system = assemble(grid, tags, "helmholtz", "robin", dtn, k=k, gamma=1 + 1j,
                          sources=forcing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    a = system.local
    out = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes + system.rhs.nbytes
    assert 120_000 <= system.n <= 130_000
    assert peak <= 2.0 * out
