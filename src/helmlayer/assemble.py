"""Finite-difference assembly of Laplace/Helmholtz systems on the cell grid.

Five-point second-order interior stencil, one-sided second-order bottom
Robin/Neumann rows, identity rows on particle nodes, and a modal map on
every lateral mode coupling the whole top line. `assemble` writes the CSR
arrays of the sparse part in place: per-row entry counts give indptr, and
every stencil slot goes straight to its final, column-sorted position.
Memory is O(nnz) with no triplet lists: the traced peak is about 1.4 times
the returned matrix and rhs (1.6 times for a W1 cell). The quasi-momentum
alpha (seam phase and modal map alike) is the closure's DtnSpec.k1. The
modal term is kept out of the sparse "local" matrix. The exact operator
(matvec, residual) applies it through lateral FFTs (grid.dtn_apply). The
solver keeps rows up to the cut row above the particles and eliminates the
particle-free strip above them mode by mode, so the closure reaches the
reduced system only as a phased circulant on the cut row (on the top row
itself when the strip is empty). `with_circulant` adds such a circulant to a
sparse matrix, kept on a band of its wrapped offsets: the solver keeps a
narrow band in its factor (the whole circulant on narrow rows), and
`materialize` the whole modal map on the top rows. `bordered` adds one
auxiliary unknown per nonzero multiplier instead, coupled through the phased
DFT of the top trace; the solver uses neither explicit form.

A Laplace problem with a Neumann bottom, the periodic-Laplace closure (zero
quasi-momentum) and real source data (the W1 corrector) is real: no i k
gamma Robin term, no seam phase, and real multipliers even in the mode
index m. It is assembled in float64, and so is its materialized matrix (its
bordered matrix is complex128). Every other system, W2 with its complex
Neumann data included, is complex128. Flattened node index: idx(i, j) =
j*nx + i, so the top line is the final contiguous block of unknowns.

scipy.sparse is imported inside the functions that build a sparse matrix,
not at module level: importing the package, and every geometry, grid and
configuration path, needs numpy only. The first assembly pays for the
import: about 0.2 s of CPU and 22 MB on a 2-vCPU VM, and the first
factorisation (solver) about 0.15 s and 10 MB more for scipy.sparse.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatch, UnsnappedInterface
from .grid import DtnSpec, Grid, NodeClass, circulant_offsets, dtn_apply, dtn_multipliers

if TYPE_CHECKING:
    import scipy.sparse as sp

PROBLEM_KINDS = ("laplace", "helmholtz")
BOTTOM_KINDS = ("neumann", "robin")


@dataclass
class Sources:
    """Right-hand-side data accepted by `assemble`.

    volume : nodal volume term f (ny, nx), applied on interior balance rows.
    bottom_neumann : psi with -du/dy = psi on the bottom line.
    flux_jump_height / flux_jump_value : prescribed jump [-du/dy] across a
        snapped interior grid line; enters the interface row rhs as value/dy.
    top_forcing : data g added to the top (modal closure) rows.
    """

    volume: np.ndarray | None = None
    bottom_neumann: np.ndarray | None = None
    flux_jump_height: float | None = None
    flux_jump_value: complex = 1.0
    top_forcing: np.ndarray | None = None


@dataclass
class DiscreteSystem:
    """Assembled sparse operator plus the modal top coupling (quasi-momentum dtn.k1)."""

    local: sp.csr_matrix
    rhs: np.ndarray
    grid: Grid
    tags: np.ndarray
    dtn: DtnSpec

    @property
    def real(self) -> bool:
        """True for a float64 operator, whose multipliers are real and even in m."""
        return not np.iscomplexobj(self.local)

    @property
    def n(self) -> int:
        return self.grid.n_nodes

    @property
    def top(self) -> slice:
        return slice(self.n - self.grid.nx, self.n)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Exact operator: the sparse part plus the modal map through lateral FFTs."""
        y = self.local @ x
        modal = dtn_apply(self.dtn, self.grid.width, x[self.top])
        y[self.top] += modal if np.iscomplexobj(y) else modal.real
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
        return with_circulant(self.local, lam.real if self.real else lam, self.dtn.k1,
                              self.grid.dx, circulant_offsets(nx))

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
    if np.isrealobj(symbol):
        kernel = kernel.real
    col = np.arange(nx)[:, None]
    rows = np.sort((col + offsets) % nx, axis=1)  # column l's rows, ascending
    true = np.arange(1 - nx, nx)  # every true column offset i - l
    entry = kernel[true % nx]
    if k1 != 0.0:
        entry = entry * np.exp(1j * k1 * dx * true)
    vals = entry[rows - col + nx - 1]
    indptr = np.concatenate([np.zeros(n - nx, dtype=np.int32),
                             np.arange(0, vals.size + 1, len(offsets), dtype=np.int32)])
    return matrix.tocsc() + sp.csc_matrix(
        (vals.ravel(), (n - nx + rows).ravel().astype(np.int32), indptr), shape=(n, n))


def assemble(grid: Grid, tags: np.ndarray, problem_kind: str, bottom: str,
             dtn: DtnSpec, k: float = 0.0, gamma: complex = 0.0, sources: Sources | None = None) -> DiscreteSystem:
    """Assemble the discrete system for one boundary-value problem.

    Parameters
    ----------
    problem_kind : "laplace" or "helmholtz" (adds -k^2 on the diagonal).
    bottom : "neumann" or "robin"; the Robin row is -du/dy + i k gamma u = 0.
    dtn : top-line modal closure; the Laplace kind assembles du/dy + Lambda u,
        the Helmholtz kind -du/dy + Lambda u (outgoing convention). Its k1 is
        the quasi-momentum alpha: seam couplings carry exp(+-i alpha width).

    Operator and rhs are float64 for a Laplace problem with a Neumann bottom,
    the periodic-Laplace closure (so zero quasi-momentum) and real sources,
    and complex128 otherwise.
    """
    if problem_kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind {problem_kind!r}")
    if bottom not in BOTTOM_KINDS:
        raise ValueError(f"unknown bottom condition {bottom!r}")
    if problem_kind == "helmholtz" and k <= 0:
        raise ValueError("helmholtz assembly needs k > 0")
    if tags.shape != (grid.ny, grid.nx):
        raise ShapeMismatch("tag array does not match the grid")
    sources = sources or Sources()
    data = [sources.volume, sources.bottom_neumann, sources.top_forcing]
    if sources.flux_jump_height is not None:
        data.append(sources.flux_jump_value)
    data_type = np.result_type(np.float64, *(np.asarray(d) for d in data if d is not None))
    real = (problem_kind == "laplace" and bottom == "neumann"
            and dtn.kind == "laplace_periodic" and data_type == np.float64)
    dtype = np.float64 if real else np.complex128
    nx, ny, n = grid.nx, grid.ny, grid.n_nodes
    dx2, dy2 = grid.dx * grid.dx, grid.dy * grid.dy
    wrap_plus = np.exp(1j * dtn.k1 * grid.width) if dtn.k1 != 0.0 else 1.0
    wrap_minus = np.exp(-1j * dtn.k1 * grid.width) if dtn.k1 != 0.0 else 1.0
    dirichlet = tags.ravel() == NodeClass.PARTICLE_DIRICHLET

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
    data = np.empty(nnz, dtype=dtype)
    rhs = np.zeros(n, dtype=dtype)

    def put(slot: np.ndarray, col: np.ndarray, val) -> None:
        indices[slot] = col
        data[slot] = val

    # identity rows on particle nodes below the top line
    dir_idx = np.flatnonzero(dirichlet[:n - nx])
    put(indptr[dir_idx], dir_idx, 1.0)

    # interior balance rows (j = 1 .. ny-2), columns ascending: down, left, centre, right,
    # up; on the seam i = 0: down, centre, right, left, up; i = nx-1: down, right, left, centre, up
    ridx = nx + np.flatnonzero(~dirichlet[nx:n - nx])
    first = indptr[ridx]
    lo, hi = ridx % nx == 0, ridx % nx == nx - 1
    center = 2.0 / dx2 + 2.0 / dy2 - (k * k if problem_kind == "helmholtz" else 0.0)
    put(first, ridx - nx, -1.0 / dy2)
    put(first + 2 - lo + hi, ridx, center)
    put(first + 1 + 2 * lo + hi, ridx - 1 + nx * lo, np.where(lo, -wrap_minus / dx2, -1.0 / dx2))
    put(first + 3 - lo - 2 * hi, ridx + 1 - nx * hi, np.where(hi, -wrap_plus / dx2, -1.0 / dx2))
    put(first + 4, ridx + nx, -1.0 / dy2)
    if sources.volume is not None:
        vol = np.asarray(sources.volume, dtype=dtype)
        if vol.shape != (ny, nx):
            raise ShapeMismatch("volume source does not match the grid")
        rhs[ridx] = vol.ravel()[ridx]
    if sources.flux_jump_height is not None:
        j_jump = grid.j_of_height(sources.flux_jump_height)
        if not 0 < j_jump < ny - 1:
            raise UnsnappedInterface("flux jump line must be an interior grid line")
        jump_idx = j_jump * nx + np.arange(nx)
        jump_idx = jump_idx[~dirichlet[jump_idx]]
        rhs[jump_idx] += sources.flux_jump_value / grid.dy
    # bottom rows: one-sided second-order -du/dy (+ i k gamma u for Robin)
    b_free = np.flatnonzero(~dirichlet[:nx])
    first = indptr[b_free]
    put(first, b_free, 1.5 / grid.dy + (1j * k * gamma if bottom == "robin" else 0.0))
    put(first + 1, b_free + nx, -2.0 / grid.dy)
    put(first + 2, b_free + 2 * nx, 0.5 / grid.dy)
    if sources.bottom_neumann is not None:
        psi = np.asarray(sources.bottom_neumann, dtype=dtype)
        if len(psi) != nx:
            raise ShapeMismatch("bottom Neumann data does not match the grid")
        rhs[b_free] = psi[b_free]

    # top rows: s*du/dy with s = +1 (laplace closure) or -1 (helmholtz closure);
    # the modal term Lambda u is added by matvec and by the factored forms
    s = 1.0 if dtn.kind == "laplace_periodic" else -1.0
    t_idx = np.arange(n - nx, n)
    first = indptr[n - nx:-1]
    put(first, t_idx - 2 * nx, s * 0.5 / grid.dy)
    put(first + 1, t_idx - nx, s * -2.0 / grid.dy)
    put(first + 2, t_idx, np.where(dirichlet[n - nx:], 1.0 + s * 1.5 / grid.dy, s * 1.5 / grid.dy))
    if sources.top_forcing is not None:
        g = np.asarray(sources.top_forcing, dtype=dtype)
        if len(g) != nx:
            raise ShapeMismatch("top forcing does not match the grid")
        rhs[t_idx] = g

    import scipy.sparse as sp

    local = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    return DiscreteSystem(local=local, rhs=rhs, grid=grid, tags=tags, dtn=dtn)
