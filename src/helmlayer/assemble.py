"""Finite-difference assembly of the Helmholtz problem (k >= 0) on the cell grid.

One boundary-value problem: -Laplace u - k^2 u in the cell minus the
particles, with k and the quasi-momentum k1 read from the closure's DtnSpec.
The W1 corrector is its static case k = 0 (Laplace); the reference solve
has k > 0. Five-point second-order interior stencil, one-sided second-order
bottom rows -du/dy + i k gamma u = 0 (Neumann at k = 0 or gamma = 0),
identity rows on particle nodes, and top rows -du/dy + Lambda u = g with
the modal map Lambda on every lateral mode coupling the whole top line.
The data are plain arguments: the row of W1's unit flux jump (`jump_row`,
chosen by `corrector.CorrectorConfig`) and the top forcing g of the
reference solve (`top_forcing`).
`assemble` writes the CSR arrays of the sparse part in place: per-row entry
counts give indptr, and every stencil slot goes straight to its final,
column-sorted position. It also records the particle-free strip it wrote
(`Strip`): the cut row j0 above the highest particle row and the
coefficients of the uniform rows j0..ny-1, which the solver eliminates mode
by mode. `strip_at` builds that record for any cut row of an empty cell and
`bottom_row` gives the one-sided bottom row, so the c1 estimate's Green's
table (`corrector`) reads the rows `assemble` writes rather than re-deriving
them.
Memory is O(nnz) with no triplet lists: the traced peak is about 1.4 times
the returned matrix and rhs, W1 cells included. The quasi-momentum
alpha (seam phase and modal map alike) is the closure's DtnSpec.k1. The
modal term is kept out of the sparse "local" matrix. The exact operator
(matvec, residual) applies it through lateral FFTs (grid.dtn_apply). The
solver keeps rows up to the cut row j0 and eliminates the strip above it,
so the closure reaches the reduced system only as a phased circulant on the
cut row (on the top row itself when there is no strip). `with_circulant`
adds such a circulant to a sparse matrix, kept on a band of its wrapped
offsets: the solver keeps a narrow band in its factor, and `materialize`
the whole modal map on the top rows.
`bordered` adds one auxiliary unknown per nonzero multiplier instead,
coupled through the phased DFT of the top trace; the solver uses neither
explicit form.

Every system is assembled in complex128, the real W1 corrector (k = 0,
k1 = 0, real data) included. Flattened node index: idx(i, j) = j*nx + i, so
the top line is the final contiguous block of unknowns.

scipy.sparse is imported inside the functions that build a sparse matrix,
not at module level: importing the package, and every geometry, grid and
configuration path, needs numpy only. The first assembly pays for the
import: about 0.2 s of CPU and 22 MB on a 2-vCPU VM, and the first
factorisation (solver) about 0.15 s and 10 MB more for scipy.sparse.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InvalidExtent, ShapeMismatch
from .grid import DtnSpec, Grid, circulant_offsets, dtn_apply, dtn_multipliers

if TYPE_CHECKING:
    import scipy.sparse as sp

class Strip(NamedTuple):
    """The particle-free strip as `assemble` wrote it (complex128; `strip_at`
    builds it in any dtype).

    Rows j0..ny-2 are the five-point row b, lat, c, lat, b (down, left,
    centre, right, up; the seam entries carry exp(-+i k1 width)), and the top
    row is the one-sided t2, t1, t0 on rows ny-3..ny-1. j0 is the row above
    the highest row holding a particle node, never below 2, so no row under
    it reaches above it.
    """

    j0: int
    c: float | complex
    lat: float | complex
    b: float | complex
    t0: float | complex
    t1: float | complex
    t2: float | complex


@dataclass
class DiscreteSystem:
    """Assembled sparse operator plus the modal top coupling (quasi-momentum dtn.k1).

    strip : the uniform rows above the particles, or None when fewer than two
        lie under the top (a Dirichlet node on the top row, or ny-1 < 4); a
        system built by hand has none, and the solver keeps every row.
    """

    local: sp.csr_matrix
    rhs: np.ndarray
    grid: Grid
    dtn: DtnSpec
    strip: Strip | None = None

    @property
    def n(self) -> int:
        return self.grid.n_nodes

    @property
    def top(self) -> slice:
        return slice(self.n - self.grid.nx, self.n)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Exact operator: the sparse part plus the modal map through lateral FFTs."""
        y = self.local @ x
        y[self.top] += dtn_apply(self.dtn, self.grid.width, x[self.top])
        return y

    def residual(self, x: np.ndarray) -> float:
        """Relative residual of a candidate solution."""
        scale = np.linalg.norm(self.rhs)
        if scale == 0.0:
            scale = 1.0
        return float(np.linalg.norm(self.matvec(x) - self.rhs) / scale)

    def materialize(self) -> sp.csc_matrix:
        """Full sparse matrix, the whole circulant of the modal map on the top
        rows (`with_circulant`, the solver's builder): a test oracle."""
        nx = self.grid.nx
        lam = dtn_multipliers(self.dtn, self.grid.width, nx)
        return with_circulant(self.local, lam, self.dtn.k1, self.grid.dx, circulant_offsets(nx))

    def bordered(self) -> tuple[sp.csc_matrix, np.ndarray, int]:
        """Exact bordered form with one auxiliary unknown per nonzero multiplier.

        Aux k holds the coefficient of mode m_k (Lambda_{m_k} != 0) in the DFT
        of the top trace de-phased by exp(i alpha x): top rows gain the
        synthesis entries Lambda_m exp(2 pi i m l / nx) exp(i alpha x_l), aux
        rows enforce the analysis. The matrix is complex128. Returns (matrix,
        extended rhs, n_aux). No solve uses this form; it stays only because
        the benchmark's span tracer (helmbench/spans.py, instrument()) looks
        it up by name, until the benchmark reads the package's own reports.
        """
        import scipy.sparse as sp

        nx, n = self.grid.nx, self.n
        lam = dtn_multipliers(self.dtn, self.grid.width, nx)
        m = np.flatnonzero(lam)
        n_aux = len(m)
        phase = np.exp(1j * self.dtn.k1 * self.grid.x_nodes())
        twiddle = np.exp(2j * np.pi * np.outer(np.arange(nx), m) / nx)
        syn = (lam[m][None, :] * twiddle) * phase[:, None]
        ana = twiddle.conj().T / (nx * phase[None, :])
        top_rows = np.repeat(np.arange(n - nx, n), n_aux)
        aux_cols = np.tile(np.arange(n, n + n_aux), nx)
        coupling = sp.coo_matrix((syn.ravel(), (top_rows, aux_cols)), shape=(n + n_aux, n + n_aux))
        aux_rows = np.repeat(np.arange(n, n + n_aux), nx)
        u_cols = np.tile(np.arange(n - nx, n), n_aux)
        analysis = sp.coo_matrix((-ana.ravel(), (aux_rows, u_cols)), shape=(n + n_aux, n + n_aux))
        eye_aux = sp.coo_matrix((np.ones(n_aux), (np.arange(n, n + n_aux), np.arange(n, n + n_aux))),
                                shape=(n + n_aux, n + n_aux))
        local_ext = sp.bmat([[self.local, None], [None, sp.csr_matrix((n_aux, n_aux))]], format="coo")
        full = (local_ext + coupling + analysis + eye_aux).tocsc()
        rhs_ext = np.concatenate([self.rhs, np.zeros(n_aux, dtype=self.rhs.dtype)])
        return full, rhs_ext, n_aux


def bottom_row(grid: Grid, k: float = 0.0, gamma: complex = 0.0) -> tuple:
    """The one-sided bottom row -du/dy + i k gamma u on rows 0, 1, 2, as
    `assemble` writes it; at k = 0 the Robin term is a float zero, whatever gamma."""
    return 1.5 / grid.dy + (1j * k * gamma if k else 0.0), -2.0 / grid.dy, 0.5 / grid.dy


def strip_at(grid: Grid, j0: int, k: float = 0.0, dtype: type = np.float64) -> Strip:
    """The particle-free strip from row j0 up, with wavenumber k, as `assemble`
    writes it: its five-point rows and the one-sided top row."""
    dx2, dy2 = grid.dx * grid.dx, grid.dy * grid.dy
    return Strip(j0, *(dtype(v) for v in (2.0 / dx2 + 2.0 / dy2 - k * k, -1.0 / dx2, -1.0 / dy2,
                                          -1.5 / grid.dy, 2.0 / grid.dy, -0.5 / grid.dy)))


def with_circulant(matrix: sp.spmatrix, symbol: np.ndarray, k1: float, dx: float,
                   offsets: np.ndarray) -> sp.csc_matrix:
    """`matrix` plus, on its last nx rows and columns, the phased circulant u ->
    exp(i k1 x) ifft(symbol * fft(exp(-i k1 x) u)) kept on the wrapped offsets
    `offsets` (grid.circulant_offsets), as CSC. Entry (i, l) on o = (i - l) mod
    nx is ifft(symbol)[o] exp(i k1 dx (i - l)): phased by the true column
    offset, which differs from o by nx across the seam, each evaluated once."""
    import scipy.sparse as sp

    n, nx = matrix.shape[0], len(symbol)
    kernel = np.fft.ifft(symbol)
    col = np.arange(nx)[:, None]
    rows = np.sort((col + offsets) % nx, axis=1)  # column l's rows, ascending
    true = np.arange(1 - nx, nx)  # every true column offset i - l
    entry = kernel[true % nx] * np.exp(1j * k1 * dx * true)
    vals = entry[rows - col + nx - 1]
    indptr = np.concatenate([np.zeros(n - nx, dtype=np.int32),
                             np.arange(0, vals.size + 1, len(offsets), dtype=np.int32)])
    return matrix.tocsc() + sp.csc_matrix(
        (vals.ravel(), (n - nx + rows).ravel().astype(np.int32), indptr), shape=(n, n))


def assemble(grid: Grid, mask: np.ndarray, dtn: DtnSpec, gamma: complex = 0.0, *,
             jump_row: int | None = None,
             top_forcing: np.ndarray | None = None) -> DiscreteSystem:
    """Assemble the discrete Helmholtz system with wavenumber dtn.k >= 0.

    mask : the (ny, nx) particle mask of `grid.classify_nodes`; its nodes are
        Dirichlet nodes.

    dtn : top-line modal closure; the top rows are -du/dy + Lambda u = g
        (outgoing convention). Its k puts -k^2 on the interior diagonal and
        i k gamma in the bottom rows; its k1 is the quasi-momentum alpha:
        seam couplings carry exp(+-i alpha width).

    jump_row : interior grid row (1..ny-2) carrying the unit flux jump
        [-du/dy] = 1 of the W1 corrector; enters its free rows' rhs as 1/dy.

    top_forcing : data g of the top (modal closure) rows.

    Operator and rhs are complex128.
    """
    if mask.shape != (grid.ny, grid.nx):
        raise ShapeMismatch("particle mask does not match the grid")
    k = dtn.k
    nx, ny, n = grid.nx, grid.ny, grid.n_nodes
    dx2 = grid.dx * grid.dx
    wrap_plus = np.exp(1j * dtn.k1 * grid.width)
    wrap_minus = np.exp(-1j * dtn.k1 * grid.width)
    dirichlet = mask.ravel()

    # entries per row: 5 on a free interior node, 3 on a free bottom node and on every
    # top node (a particle there adds its identity to the centre), else 1 (the identity)
    counts = np.full(n, 5, dtype=np.int8)
    counts[:nx] = 3
    counts[dirichlet] = 1
    counts[n - nx:] = 3
    nnz = int(counts.sum())
    index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(counts, dtype=index, out=indptr[1:])
    indices = np.zeros(nnz, dtype=index)  # an unfilled slot must not index out of range
    data = np.empty(nnz, dtype=complex)
    rhs = np.zeros(n, dtype=complex)

    def put(slot: np.ndarray, col: np.ndarray, val) -> None:
        indices[slot] = col
        data[slot] = val

    # identity rows on particle nodes below the top line
    dir_idx = np.flatnonzero(dirichlet[:n - nx])
    put(indptr[dir_idx], dir_idx, 1.0)

    # the strip: no particle node from row j0 up, and two rows or more under the top;
    # its coefficients are those of every free interior row and of the top rows
    rows = np.flatnonzero(mask.any(axis=1))
    j0 = max(2, int(rows[-1]) + 1) if len(rows) else 2
    uniform = strip_at(grid, j0, k, np.complex128)
    strip = uniform if j0 <= ny - 3 else None

    # interior balance rows (j = 1 .. ny-2), columns ascending: down, left, centre, right,
    # up; on the seam i = 0: down, centre, right, left, up; i = nx-1: down, right, left, centre, up
    ridx = nx + np.flatnonzero(~dirichlet[nx:n - nx])
    first = indptr[ridx]
    lo, hi = ridx % nx == 0, ridx % nx == nx - 1
    put(first, ridx - nx, uniform.b)
    put(first + 2 - lo + hi, ridx, uniform.c)
    put(first + 1 + 2 * lo + hi, ridx - 1 + nx * lo, np.where(lo, -wrap_minus / dx2, uniform.lat))
    put(first + 3 - lo - 2 * hi, ridx + 1 - nx * hi, np.where(hi, -wrap_plus / dx2, uniform.lat))
    put(first + 4, ridx + nx, uniform.b)
    if jump_row is not None:
        if not 0 < jump_row < ny - 1:
            raise InvalidExtent(f"flux jump row {jump_row} is not an interior row of 0..{ny - 1}")
        jump_idx = jump_row * nx + np.arange(nx)
        jump_idx = jump_idx[~dirichlet[jump_idx]]
        rhs[jump_idx] += 1.0 / grid.dy
    # bottom rows: one-sided second-order -du/dy + i k gamma u
    b_free = np.flatnonzero(~dirichlet[:nx])
    first = indptr[b_free]
    for slot, val in enumerate(bottom_row(grid, k, gamma)):
        put(first + slot, b_free + slot * nx, val)

    # top rows: one-sided -du/dy; the modal term Lambda u is added by matvec
    # and by the factored forms
    t_idx = np.arange(n - nx, n)
    first = indptr[n - nx:-1]
    put(first, t_idx - 2 * nx, uniform.t2)
    put(first + 1, t_idx - nx, uniform.t1)
    put(first + 2, t_idx, np.where(dirichlet[n - nx:], 1.0 + uniform.t0, uniform.t0))
    if top_forcing is not None:
        g = np.asarray(top_forcing, dtype=complex)
        if len(g) != nx:
            raise ShapeMismatch("top forcing does not match the grid")
        rhs[t_idx] = g

    import scipy.sparse as sp

    local = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    return DiscreteSystem(local=local, rhs=rhs, grid=grid, dtn=dtn, strip=strip)
