"""Finite-difference assembly of Laplace/Helmholtz systems on the cell grid.

Five-point second-order interior stencil, one-sided second-order bottom
Robin/Neumann rows, identity rows on particle nodes, and a truncated modal
map coupling the whole top line. The quasi-momentum alpha (seam phase and
modal map alike) is the closure's DtnSpec.k1. The modal term is kept out of
the sparse "local" matrix. The exact operator (matvec, residual) applies it
through lateral FFTs (grid.dtn_apply); the factored forms write it from one
mode basis (DiscreteSystem.modes), either merged densely into the top rows
(materialize) or as one auxiliary unknown per retained mode (bordered).

A Laplace problem with a Neumann bottom, the periodic-Laplace closure (zero
quasi-momentum) and real source data (the W1 corrector) is real: no i k
gamma Robin term, no seam phase, and real multipliers even in the mode
index m. It is assembled in float64, and its mode basis is real cos/sin
(one cos and one sin mode per pair +-m, a single cos mode for m = 0 and the
Nyquist mode) in place of the phased DFT. Every other system, W2 with its
complex Neumann data included, is complex128.

Flattened node index: idx(i, j) = j*nx + i, so the top line is the final
contiguous block of unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ShapeMismatch, UnsnappedInterface
from .grid import DtnSpec, Grid, NodeClass, dtn_apply, dtn_multipliers

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
    problem_kind: str
    bottom: str

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

    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        """Retained modes of the top-line map: Lambda u = synthesis @ (analysis @ u).

        Returns synthesis (nx x n_aux, multipliers included) and analysis
        (n_aux x nx), one column/row per retained mode. Real operators use
        cos(2 pi m i / nx) for every retained 0 <= m <= nx/2 and then
        sin(2 pi m i / nx) for 0 < m < nx/2, a pair +-m carrying twice its
        multiplier; complex operators use the DFT of the trace de-phased by
        exp(i alpha x).
        """
        nx = self.grid.nx
        lam = dtn_multipliers(self.dtn, self.grid.width, nx)
        i = np.arange(nx)
        if self.real:
            lam = lam.real[: nx // 2 + 1]
            m = np.flatnonzero(lam)
            paired = (m > 0) & (2 * m < nx)
            theta = 2.0 * np.pi * np.outer(m, i) / nx
            basis = np.concatenate([np.cos(theta), np.sin(theta[paired])])
            weights = np.concatenate([np.where(paired, 2.0, 1.0) * lam[m], 2.0 * lam[m[paired]]])
            return basis.T * weights[None, :], basis / nx
        m = np.flatnonzero(lam)
        phase = np.exp(1j * self.dtn.k1 * self.grid.x_nodes())
        twiddle = np.exp(2j * np.pi * np.outer(i, m) / nx)
        return (lam[m][None, :] * twiddle) * phase[:, None], twiddle.conj().T / (nx * phase[None, :])

    def materialize(self) -> sp.csc_matrix:
        """Full sparse matrix with the dense modal block merged into the top rows."""
        synthesis, analysis = self.modes()
        n, nx = self.n, self.grid.nx
        rows = np.repeat(np.arange(n - nx, n), nx)
        cols = np.tile(np.arange(n - nx, n), nx)
        dense = sp.coo_matrix(((synthesis @ analysis).ravel(), (rows, cols)), shape=(n, n))
        return (self.local + dense.tocsr()).tocsc()

    def bordered(self) -> tuple[sp.csc_matrix, np.ndarray, int]:
        """Exact bordered form with one auxiliary unknown per retained mode.

        Aux k holds the analysis coefficient of the top trace: top rows gain
        the synthesis entries, aux rows enforce the analysis, so a real
        operator gives a float64 matrix. Returns (matrix, extended rhs, n_aux).
        """
        nx, n = self.grid.nx, self.n
        syn, ana = self.modes()
        n_aux = len(ana)
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
    nx, ny = grid.nx, grid.ny
    n = nx * ny
    dx2, dy2 = grid.dx * grid.dx, grid.dy * grid.dy
    alpha = dtn.k1
    wrap_plus = np.exp(1j * alpha * grid.width) if alpha != 0.0 else 1.0
    wrap_minus = np.exp(-1j * alpha * grid.width) if alpha != 0.0 else 1.0
    flat_tags = tags.ravel()
    dirichlet = flat_tags == NodeClass.PARTICLE_DIRICHLET

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    rhs = np.zeros(n, dtype=dtype)

    def add(r: np.ndarray, c: np.ndarray, v: np.ndarray) -> None:
        rows.append(np.asarray(r, dtype=np.int64))
        cols.append(np.asarray(c, dtype=np.int64))
        vals.append(np.asarray(v, dtype=dtype))

    # identity rows on particle nodes
    dir_idx = np.flatnonzero(dirichlet)
    add(dir_idx, dir_idx, np.ones(len(dir_idx)))

    # interior balance rows (j = 1 .. ny-2)
    jj, ii = np.meshgrid(np.arange(1, ny - 1), np.arange(nx), indexing="ij")
    ridx = (jj * nx + ii).ravel()
    free = ~dirichlet[ridx]
    ridx, jjf, iif = ridx[free], jj.ravel()[free], ii.ravel()[free]
    center = 2.0 / dx2 + 2.0 / dy2 - (k * k if problem_kind == "helmholtz" else 0.0)
    add(ridx, ridx, np.full(len(ridx), center, dtype=dtype))
    left = np.mod(iif - 1, nx) + jjf * nx
    lv = np.where(iif == 0, -wrap_minus / dx2, -1.0 / dx2)
    add(ridx, left, lv)
    right = np.mod(iif + 1, nx) + jjf * nx
    rv = np.where(iif == nx - 1, -wrap_plus / dx2, -1.0 / dx2)
    add(ridx, right, rv)
    add(ridx, ridx - nx, np.full(len(ridx), -1.0 / dy2, dtype=dtype))
    add(ridx, ridx + nx, np.full(len(ridx), -1.0 / dy2, dtype=dtype))
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
    b_idx = np.arange(nx)
    b_free = b_idx[~dirichlet[b_idx]]
    d0 = 1.5 / grid.dy + (1j * k * gamma if bottom == "robin" else 0.0)
    add(b_free, b_free, np.full(len(b_free), d0, dtype=dtype))
    add(b_free, b_free + nx, np.full(len(b_free), -2.0 / grid.dy, dtype=dtype))
    add(b_free, b_free + 2 * nx, np.full(len(b_free), 0.5 / grid.dy, dtype=dtype))
    if sources.bottom_neumann is not None:
        psi = np.asarray(sources.bottom_neumann, dtype=dtype)
        if len(psi) != nx:
            raise ShapeMismatch("bottom Neumann data does not match the grid")
        rhs[b_free] = psi[b_free]

    # top rows: s*du/dy with s = +1 (laplace closure) or -1 (helmholtz closure);
    # the modal term Lambda u is added by matvec and by the factored forms
    s = 1.0 if dtn.kind == "laplace_periodic" else -1.0
    t_idx = (ny - 1) * nx + np.arange(nx)
    add(t_idx, t_idx, np.full(nx, s * 1.5 / grid.dy, dtype=dtype))
    add(t_idx, t_idx - nx, np.full(nx, s * -2.0 / grid.dy, dtype=dtype))
    add(t_idx, t_idx - 2 * nx, np.full(nx, s * 0.5 / grid.dy, dtype=dtype))
    if sources.top_forcing is not None:
        g = np.asarray(sources.top_forcing, dtype=dtype)
        if len(g) != nx:
            raise ShapeMismatch("top forcing does not match the grid")
        rhs[t_idx] = g

    local = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return DiscreteSystem(local=local, rhs=rhs, grid=grid, tags=tags, dtn=dtn,
                          problem_kind=problem_kind, bottom=bottom)
