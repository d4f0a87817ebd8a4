"""Finite-difference assembly of Laplace/Helmholtz systems on the cell grid.

Five-point second-order interior stencil, one-sided second-order bottom
Robin/Neumann rows, identity rows on particle nodes, and a truncated modal
map coupling the whole top line. The modal term is kept out of the sparse
"local" matrix and applied through lateral FFTs; the direct solver either
materializes it densely (small grids) or appends one auxiliary unknown per
retained mode (large grids), both algebraically identical.

Flattened node index: idx(i, j) = j*nx + i, so the top line is the final
contiguous block of unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ShapeMismatch, UnsnappedInterface
from .grid import DtnSpec, Grid, NodeClass, dtn_multipliers

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
    """Assembled sparse operator plus the matrix-free modal top coupling."""

    local: sp.csr_matrix
    rhs: np.ndarray
    grid: Grid
    tags: np.ndarray
    dtn: DtnSpec
    quasi_momentum: float
    problem_kind: str
    bottom: str
    multipliers: np.ndarray = field(repr=False, default=None)
    phase: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        nx = self.grid.nx
        if self.multipliers is None:
            self.multipliers = dtn_multipliers(self.dtn, self.grid.width, nx)
        if self.phase is None:
            alpha = self.quasi_momentum
            self.phase = np.exp(1j * alpha * self.grid.x_nodes()) if alpha != 0.0 else np.ones(nx)

    @property
    def n(self) -> int:
        return self.grid.n_nodes

    @property
    def top(self) -> slice:
        return slice(self.n - self.grid.nx, self.n)

    def dtn_block_apply(self, trace: np.ndarray) -> np.ndarray:
        """Modal map Lambda applied to a top-line trace."""
        if len(trace) != self.grid.nx:
            raise ShapeMismatch("trace length does not match the grid")
        return self.phase * np.fft.ifft(self.multipliers * np.fft.fft(trace / self.phase))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.local @ x
        y[self.top] += self.dtn_block_apply(x[self.top])
        return y

    def residual(self, x: np.ndarray) -> float:
        """Relative residual of a candidate solution."""
        scale = np.linalg.norm(self.rhs)
        if scale == 0.0:
            scale = 1.0
        return float(np.linalg.norm(self.matvec(x) - self.rhs) / scale)

    def dtn_dense_block(self) -> np.ndarray:
        """Materialized nx-by-nx modal block (synthesis * diag * analysis)."""
        nx = self.grid.nx
        cols = np.fft.fft(np.diag(1.0 / self.phase), axis=0)
        block = np.fft.ifft(self.multipliers[:, None] * cols, axis=0)
        return self.phase[:, None] * block

    def materialize(self) -> sp.csc_matrix:
        """Full sparse matrix with the modal block merged into the top rows."""
        block = self.dtn_dense_block()
        n, nx = self.n, self.grid.nx
        rows = np.repeat(np.arange(n - nx, n), nx)
        cols = np.tile(np.arange(n - nx, n), nx)
        dense = sp.coo_matrix((block.ravel(), (rows, cols)), shape=(n, n))
        return (self.local + dense.tocsr()).tocsc()

    def bordered(self) -> tuple[sp.csc_matrix, np.ndarray, int]:
        """Exact bordered form with one auxiliary unknown per retained mode.

        Aux m holds the DFT coefficient of the de-phased top trace; top rows
        gain synthesis entries lambda_m phase_i exp(2 pi i m i / nx), aux rows
        enforce the analysis. Returns (matrix, extended rhs, n_aux).
        """
        nx, n = self.grid.nx, self.n
        active = np.flatnonzero(self.multipliers != 0.0)
        n_aux = len(active)
        i_idx = np.arange(nx)
        twiddle = np.exp(2j * np.pi * np.outer(i_idx, active) / nx)
        syn = (self.multipliers[active][None, :] * twiddle) * self.phase[:, None]
        ana = twiddle.conj().T / (nx * self.phase[None, :])
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
        rhs_ext = np.concatenate([self.rhs, np.zeros(n_aux, dtype=complex)])
        return full, rhs_ext, n_aux


def assemble(grid: Grid, tags: np.ndarray, problem_kind: str, bottom: str,
             dtn: DtnSpec, quasi_momentum: float = 0.0, k: float = 0.0,
             gamma: complex = 0.0, sources: Sources | None = None) -> DiscreteSystem:
    """Assemble the discrete system for one boundary-value problem.

    Parameters
    ----------
    problem_kind : "laplace" or "helmholtz" (adds -k^2 on the diagonal).
    bottom : "neumann" or "robin"; the Robin row is -du/dy + i k gamma u = 0.
    dtn : top-line modal closure; the Laplace kind assembles du/dy + Lambda u,
        the Helmholtz kind -du/dy + Lambda u (outgoing convention).
    quasi_momentum : lateral phase alpha; seam couplings carry exp(+-i alpha width).
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
    nx, ny = grid.nx, grid.ny
    n = nx * ny
    dx2, dy2 = grid.dx * grid.dx, grid.dy * grid.dy
    alpha = quasi_momentum
    wrap_plus = np.exp(1j * alpha * grid.width)
    wrap_minus = np.exp(-1j * alpha * grid.width)
    flat_tags = tags.ravel()
    dirichlet = flat_tags == NodeClass.PARTICLE_DIRICHLET

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    rhs = np.zeros(n, dtype=complex)

    def add(r: np.ndarray, c: np.ndarray, v: np.ndarray) -> None:
        rows.append(np.asarray(r, dtype=np.int64))
        cols.append(np.asarray(c, dtype=np.int64))
        vals.append(np.asarray(v, dtype=complex))

    # identity rows on particle nodes
    dir_idx = np.flatnonzero(dirichlet)
    add(dir_idx, dir_idx, np.ones(len(dir_idx)))

    # interior balance rows (j = 1 .. ny-2)
    jj, ii = np.meshgrid(np.arange(1, ny - 1), np.arange(nx), indexing="ij")
    ridx = (jj * nx + ii).ravel()
    free = ~dirichlet[ridx]
    ridx, jjf, iif = ridx[free], jj.ravel()[free], ii.ravel()[free]
    center = 2.0 / dx2 + 2.0 / dy2 - (k * k if problem_kind == "helmholtz" else 0.0)
    add(ridx, ridx, np.full(len(ridx), center, dtype=complex))
    left = np.mod(iif - 1, nx) + jjf * nx
    lv = np.where(iif == 0, -wrap_minus / dx2, -1.0 / dx2)
    add(ridx, left, lv)
    right = np.mod(iif + 1, nx) + jjf * nx
    rv = np.where(iif == nx - 1, -wrap_plus / dx2, -1.0 / dx2)
    add(ridx, right, rv)
    add(ridx, ridx - nx, np.full(len(ridx), -1.0 / dy2, dtype=complex))
    add(ridx, ridx + nx, np.full(len(ridx), -1.0 / dy2, dtype=complex))
    if sources.volume is not None:
        vol = np.asarray(sources.volume, dtype=complex)
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
    b_idx = np.arange(nx)
    b_free = b_idx[~dirichlet[b_idx]]
    d0 = 1.5 / grid.dy + (1j * k * gamma if bottom == "robin" else 0.0)
    add(b_free, b_free, np.full(len(b_free), d0, dtype=complex))
    add(b_free, b_free + nx, np.full(len(b_free), -2.0 / grid.dy, dtype=complex))
    add(b_free, b_free + 2 * nx, np.full(len(b_free), 0.5 / grid.dy, dtype=complex))
    if sources.bottom_neumann is not None:
        psi = np.asarray(sources.bottom_neumann, dtype=complex)
        if len(psi) != nx:
            raise ShapeMismatch("bottom Neumann data does not match the grid")
        rhs[b_free] = psi[b_free]

    # top rows: s*du/dy with s = +1 (laplace closure) or -1 (helmholtz closure);
    # the modal term Lambda u is applied matrix-free / materialized separately
    s = 1.0 if dtn.kind == "laplace_periodic" else -1.0
    t_idx = (ny - 1) * nx + np.arange(nx)
    add(t_idx, t_idx, np.full(nx, s * 1.5 / grid.dy, dtype=complex))
    add(t_idx, t_idx - nx, np.full(nx, s * -2.0 / grid.dy, dtype=complex))
    add(t_idx, t_idx - 2 * nx, np.full(nx, s * 0.5 / grid.dy, dtype=complex))
    if sources.top_forcing is not None:
        g = np.asarray(sources.top_forcing, dtype=complex)
        if len(g) != nx:
            raise ShapeMismatch("top forcing does not match the grid")
        rhs[t_idx] = g

    local = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return DiscreteSystem(local=local, rhs=rhs, grid=grid, tags=tags, dtn=dtn,
                          quasi_momentum=alpha, problem_kind=problem_kind, bottom=bottom)
