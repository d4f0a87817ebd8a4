"""Direct SuperLU solve of the assembled systems, real or complex.

SuperLU factors in the common dtype of the operator and the right-hand side:
float64 for the real W1 corrector and complex128 for every other system (W2,
the Helmholtz problems, and a complex right-hand side a caller put on a real
system).

Only the particle band is factored. Above the particles every row of the
assembled operator is the same five-point stencil across the grid, and the
top row's one-sided stencil plus the modal map is diagonal in the lateral
modes, so in each mode m the particle-free strip is a scalar three-term
recurrence. The cut row j0 is the lowest row (never below 2, so the
one-sided bottom row stays out of the strip) from which every row below the
top is that one stencil; its coefficients are read from the sparse operator
itself and checked row by row, so the cut is exact for whatever matrix the
system holds. A backward sweep over the strip rows, vectorised over the
modes, eliminates them as v_{j+1} = P_{j+1} v_j + Q_{j+1}; row j0 then carries
the dense phased circulant b * P_{j0+1} (b = -1/dy^2, the vertical coupling)
and its rhs the term -b * Q_{j0+1}, and only rows 0..j0 are solved. A
forward sweep rebuilds the strip, so callers always get the full field.
The circulant's dense form is grid.circulant, the code that also builds
DiscreteSystem.materialize's modal block from the multipliers themselves.
When fewer than two such rows lie under the top (or the rows above the
particles are not one stencil) the strip is empty and the circulant on the
top row is the modal map itself: the same reduced system, with no sweep.

Rows 0..j0 are solved in one of two forms, chosen by the cut row's width nx
alone. Below INTERFACE_NX they are factored whole, dense nx x nx block and
all, and SuperLU spends O(nx^3) on that block. From INTERFACE_NX on, only
the particle band B (rows 0..j0-1) is factored, and row j0 is solved for by
GMRES on its Schur complement S v = R v - A21 B^-1 (A12 v): A12 and A21 are
the sparse couplings of rows j0-1 and j0, R is row j0's own block, its local
entries plus the circulant, applied by lateral FFT and never formed. The
preconditioner is R inverted mode by mode (d_m + symbol_m, d_m the in-row
stencil's symbol), on the right, so GMRES minimises the true interface
residual; one band solve back-substitutes the particle rows. Times of one
solve with its setup, each form, on a 2-vCPU VM (GMRES iterations in
brackets):

    system                               nx   direct   band + GMRES
    W1 cell, width 20                   100     7 ms     19 ms (27)
    Helmholtz, period 50, k2 eps 0.2    221    28 ms     39 ms (40)
    Helmholtz, period 50, k2 eps 0.1    442    63 ms     74 ms (42)
    Helmholtz, period 50, k2 eps 0.05   884   315 ms    250 ms (47)
    Helmholtz, period 50, k2 eps 0.025 1768   1.83 s    0.57 s (48)
    W1 cell, width 400                 2000   1.56 s    0.47 s (51)
    Helmholtz, period 100, k2 eps 0.025 3536  10.4 s    1.26 s (52)

The forms cross near nx 650 for the complex Helmholtz systems and below
500 for the real W1 cell; INTERFACE_NX lies between, where either form is
within about 20 % of the other. The GMRES is unrestarted, in the factor's
dtype, and stops at GMRES_TOL relative to its right-hand side; that leaves
the unrefined residual at 1.2e-11 at nx 3536, under TOL (it grows with nx,
in both forms alike). GMRES_MAX_ITER iterations without convergence raise
NoConvergence. With an empty strip the preconditioner takes the mean
diagonal of the top row's own block, exact for the assembled one-sided top
row, which has no lateral entries.

Up to two steps of iterative refinement against the exact operator on the
full grid, which applies the modal map through its own FFT code, bring the
residual under TOL; each refinement residual is reduced by the same sweep
and solved in the same form. An exactly zero pivot, a constant kernel or a
zero or non-finite denominator of the strip recursion raises
SingularSystem; a residual that stays above TOL (or is not finite), or an
interface GMRES that does not converge, raises NoConvergence; an allocation
failure while building or factoring the reduced matrix or the band raises
FactorTooLarge.

SuperLU factors in symmetric mode: a multiple-minimum-degree ordering of
A^T + A applied to rows and columns alike, with diagonal pivots, which about
halves the fill of the default column ordering with partial pivoting. This is
safe because every assembled matrix is structurally almost symmetric, with
unit rows on particle nodes and interior diagonals that stay positive and
near-dominant while k*dx < 2; a pivot that does grow small leaves the refined
residual above TOL, which the checks above turn into a typed error.

scipy.sparse.linalg is imported by the first factorisation, not at module
level, so importing the package needs numpy only. That first factorisation
pays about 0.15 s of CPU and 10 MB for it on a 2-vCPU VM, on top of the
scipy.sparse import of the first assembly (assemble). splu is looked up on
that module at every call.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .assemble import DiscreteSystem, with_top_block
from .errors import FactorTooLarge, NoConvergence, SingularSystem
from . import grid as _grid

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

TOL = 1e-10
INTERFACE_NX = 600  # cut rows this wide and wider: band factor + interface GMRES
GMRES_TOL = 1e-13
GMRES_MAX_ITER = 200


@dataclass
class SolveReport:
    residual: float


def _run_start(ok: np.ndarray) -> int:
    """Index where the trailing run of true entries of `ok` begins."""
    bad = np.flatnonzero(~ok)
    return int(bad[-1]) + 1 if len(bad) else 0


def _strip_stencil(system: DiscreteSystem, a: sp.csr_matrix) -> tuple[int, tuple | None]:
    """Cut row j0 and the strip coefficients (c, lat, b, t0, t1, t2) of `a`.

    Every row from j0 to ny-2 must be the five-point row b, lat, c, lat, b
    (down, left, centre, right, up; the seam entries carry the closure's
    phase exp(-+i k1 width)), the top row the one-sided t2, t1, t0 on rows
    ny-3..ny-1, and no row below j0 may reach above row j0. Returns
    (ny-1, None), the empty strip, when fewer than two strip rows qualify.
    """
    grid = system.grid
    nx, top = grid.nx, grid.ny - 1
    ptr, idx, val = a.indptr, a.indices, a.data
    empty = top, None
    if top < 4:
        return empty
    i = np.arange(nx)
    if np.any(np.diff(ptr[top * nx:]) != 3):
        return empty
    lo, hi = ptr[top * nx], ptr[top * nx + nx]
    t_vals = val[lo:hi].reshape(nx, 3)
    if (not np.array_equal(idx[lo:hi].reshape(nx, 3) - top * nx,
                           np.stack([i - 2 * nx, i - nx, i], axis=1))
            or np.any(t_vals != t_vals[0])):
        return empty
    t2, t1, t0 = t_vals[0]
    # the run of five-entry lines j_run..ny-2 under the top, then the lines of
    # that run which repeat line ny-2 exactly
    five = (np.diff(ptr[2 * nx:top * nx + 1]).reshape(-1, nx) == 5).all(axis=1)
    j_run = 2 + _run_start(five)
    if j_run > top - 2:
        return empty
    lo, hi = ptr[j_run * nx], ptr[top * nx]
    cols = idx[lo:hi].reshape(top - j_run, 5 * nx) - (nx * np.arange(j_run, top))[:, None]
    vals = val[lo:hi].reshape(top - j_run, 5 * nx)
    stencil = np.stack([i - nx, (i - 1) % nx, i, (i + 1) % nx, i + nx], axis=1)
    order = np.argsort(stencil, axis=1)
    if not np.array_equal(cols[-1], np.take_along_axis(stencil, order, axis=1).ravel()):
        return empty
    b, lat, c = vals[-1, 5:8]  # node 1 has no seam entry
    expect = np.tile(np.array([b, lat, c, lat, b], dtype=complex), (nx, 1))
    expect[0, 1] *= np.exp(-1j * system.dtn.k1 * grid.width)
    expect[-1, 3] *= np.exp(1j * system.dtn.k1 * grid.width)
    # to round-off: the seam entries are -exp(-+i k1 width)/dx^2, rounded
    # differently from lat * exp(-+i k1 width)
    if not np.allclose(vals[-1], np.take_along_axis(expect, order, axis=1).ravel(),
                       rtol=1e-14, atol=0.0):
        return empty
    same = (cols == cols[-1]).all(axis=1) & (vals == vals[-1]).all(axis=1)
    j0 = j_run + _run_start(same)
    below = ptr[j0 * nx]
    if j0 > top - 2 or (below and idx[:below].max() >= (j0 + 1) * nx):
        return empty
    return j0, (c, lat, b, t0, t1, t2)


class _Cut:
    """Rows 0..j0 of a system, the strip of rows j0+1..ny-1 above them
    eliminated exactly, one lateral mode at a time.

    p[s] and den[s] belong to strip row j0+1+s: v_{j+1} = p v_j + q in the
    (de-phased) lateral DFT of each row, den the pivot that q is divided by.
    symbol is the circulant the strip leaves on row j0, and d the symbol of
    row j0's own local entries, per mode.
    """

    def __init__(self, system: DiscreteSystem) -> None:
        grid = system.grid
        # a matrix not in canonical CSR form fails the stencil check: no strip
        a = system.local.tocsr()
        self.local, self.nx = a, grid.nx
        self.dtype = np.result_type(a.dtype, system.rhs.dtype)
        k1 = self.k1 = system.dtn.k1
        self.dx = grid.dx
        self.phase = np.exp(1j * k1 * grid.x_nodes()) if k1 != 0.0 else None
        lam = _grid.dtn_multipliers(system.dtn, grid.width, grid.nx)
        if system.real:
            lam = lam.real
        self.j0, coef = _strip_stencil(system, a)
        self.p = None
        if coef is None:
            self.symbol = lam
            # the assembled one-sided top row has no lateral entries
            top = slice(self.j0 * self.nx, self.n)
            self.d = a[top, top].diagonal().mean()
            return
        c, lat, self.b, t0, t1, self.t2 = coef
        zeta = 2.0 * np.pi * np.arange(grid.nx) / grid.width + k1
        d = self.d = c + 2.0 * lat * np.cos(zeta * grid.dx)
        n_strip = grid.ny - 1 - self.j0
        self.den = np.empty((n_strip, grid.nx), dtype=np.result_type(d, lam))
        self.p = np.empty_like(self.den)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # top row with row ny-2 folded in to drop its v_{ny-3} term
            self.den[-1] = t0 - self.t2 + lam
            self.p[-1] = (self.t2 * d / self.b - t1) / self.den[-1]
            for s in range(n_strip - 2, -1, -1):
                self.den[s] = d + self.b * self.p[s + 1]
                self.p[s] = -self.b / self.den[s]
        if not np.isfinite(self.p).all():  # also a zero denominator: b != 0
            raise SingularSystem("strip recursion met a zero or non-finite denominator")
        self.symbol = self.b * self.p[0]

    @property
    def n(self) -> int:
        """Unknowns of the reduced rows 0..j0."""
        return (self.j0 + 1) * self.nx

    def _to_modes(self, rows: np.ndarray) -> np.ndarray:
        return np.fft.fft(rows if self.phase is None else rows / self.phase, axis=-1)

    def _from_modes(self, hat: np.ndarray) -> np.ndarray:
        rows = np.fft.ifft(hat, axis=-1)
        if self.phase is not None:
            rows *= self.phase
        return rows.real if self.dtype == np.float64 else rows

    def matrix(self) -> sp.csc_matrix:
        """Rows and columns 0..j0 of the operator, the dense circulant added on row j0."""
        nx, n = self.nx, self.n
        try:
            block = _grid.circulant(self.symbol, self.k1, self.dx).astype(self.dtype, copy=False)
            return with_top_block(self.local[:n, :n], block)
        except MemoryError as exc:
            raise FactorTooLarge(f"no memory for the {n}-unknown reduced matrix "
                                 f"with its {nx}x{nx} cut block") from exc

    def reduce(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Rhs of rows 0..j0 with the strip folded in, and the strip's q terms."""
        nx, n = self.nx, self.n
        out = rhs[:n].astype(self.dtype)
        if self.p is None:
            return out, None
        r = self._to_modes(rhs[n:].reshape(-1, nx))
        q = np.empty_like(r)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q[-1] = (r[-1] - self.t2 / self.b * r[-2]) / self.den[-1]
            for s in range(len(q) - 2, -1, -1):
                q[s] = (r[s] - self.b * q[s + 1]) / self.den[s]
        # non-finite data is left to the residual check (NoConvergence)
        if np.isfinite(r).all() and not np.isfinite(q).all():
            raise SingularSystem("strip recursion overflowed")
        out[-nx:] += self._from_modes(-self.b * q[0])
        return out, q

    def extend(self, x: np.ndarray, q: np.ndarray | None) -> np.ndarray:
        """Full solution from rows 0..j0 by the forward sweep over the strip."""
        if q is None:
            return x
        v = np.empty_like(q)
        prev = self._to_modes(x[-self.nx:])
        for s in range(len(q)):
            prev = v[s] = self.p[s] * prev + q[s]
        return np.concatenate([x, self._from_modes(v).ravel()])


    def solver(self) -> Callable[[np.ndarray], np.ndarray]:
        """Solve of rows 0..j0 for a reduced rhs.

        Below INTERFACE_NX: one factor of `matrix()`, dense cut block included.
        From it on: the band B (rows 0..j0-1) is factored alone, and row j0
        solves by GMRES on its Schur complement S = R - A21 B^-1 A12, R row
        j0's own block applied by lateral FFT, right-preconditioned by R
        inverted per mode.
        """
        if self.nx < INTERFACE_NX:
            return _factorize(self.matrix()).solve
        m, n = self.n - self.nx, self.n
        try:
            band = _factorize(self.local[:m, :m].tocsc().astype(self.dtype, copy=False))
            up, down, own = self.local[:m, m:n], self.local[m:n, :m], self.local[m:n, m:n]
        except MemoryError as exc:
            raise FactorTooLarge(f"no memory for the {m}-unknown band under the cut row") from exc
        modal = self.d + self.symbol

        def precondition(w: np.ndarray) -> np.ndarray:
            return self._from_modes(self._to_modes(w) / modal)

        def schur(w: np.ndarray) -> np.ndarray:  # S M^-1 w
            v = precondition(w)
            return (own @ v + self._from_modes(self.symbol * self._to_modes(v))
                    - down @ band.solve(up @ v))

        def solve_rows(r: np.ndarray) -> np.ndarray:
            v = precondition(_gmres(schur, r[m:] - down @ band.solve(r[:m])))
            return np.concatenate([band.solve(r[:m] - up @ v), v])

        return solve_rows


def _gmres(op: Callable[[np.ndarray], np.ndarray], b: np.ndarray) -> np.ndarray:
    """Unrestarted GMRES from zero for op(x) = b to GMRES_TOL relative residual.

    Modified Gram-Schmidt Arnoldi with Givens rotations, in b's dtype; the
    basis grows one vector per iteration, and GMRES_MAX_ITER iterations
    without convergence raise NoConvergence.
    """
    beta = float(np.linalg.norm(b))
    if not np.isfinite(beta):
        raise NoConvergence("non-finite interface right-hand side")
    if beta == 0.0:
        return np.zeros_like(b)
    basis, cols, rots, g = [b / beta], [], [], [beta]
    for k in range(GMRES_MAX_ITER):
        w = op(basis[k])
        h = np.empty(k + 2, dtype=b.dtype)
        for i, v in enumerate(basis):
            h[i] = np.vdot(v, w)
            w = w - h[i] * v
        h[k + 1] = norm = np.linalg.norm(w)
        for i, (c, s) in enumerate(rots):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - np.conj(s) * h[i]
        r = np.hypot(abs(h[k]), norm)
        c, s = (abs(h[k]) / r, h[k] / abs(h[k]) * norm / r) if h[k] != 0 else (0.0, 1.0)
        h[k], g[k:] = c * h[k] + s * norm, [c * g[k], -np.conj(s) * g[k]]
        rots.append((c, s))
        cols.append(h[:k + 1])
        if not abs(g[k + 1]) > GMRES_TOL * beta:  # also a NaN
            break
        basis.append(w / norm)
    else:
        raise NoConvergence(f"interface GMRES above {GMRES_TOL:.0e} after {GMRES_MAX_ITER} "
                            "iterations")
    y = np.array(g[:-1], dtype=b.dtype)
    for j in range(len(cols) - 1, -1, -1):  # back-substitute the rotated Hessenberg
        y[j] /= cols[j][j]
        y[:j] -= y[j] * cols[j][:j]
    return y @ np.array(basis)


def _factorize(matrix: sp.csc_matrix) -> spla.SuperLU:
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except (MemoryError, RuntimeError) as exc:
        # SuperLU reports exact singularity as a RuntimeError, and an allocation
        # that fails outside the numeric factorisation too ("SUPERLU_MALLOC fails")
        if isinstance(exc, RuntimeError) and "malloc fails" not in str(exc).lower():
            raise SingularSystem(f"factorization failed: {exc}") from exc
        raise FactorTooLarge(f"SuperLU could not allocate the factor of {matrix.shape[0]} "
                             f"unknowns ({matrix.nnz} entries)") from exc


def _kernel_check(system: DiscreteSystem) -> bool:
    """True when the constant vector is numerically in the kernel."""
    ones = np.ones(system.n, dtype=complex) / np.sqrt(system.n)
    scale = float(np.abs(system.local.diagonal()).max())
    return float(np.linalg.norm(system.matvec(ones))) < 1e-10 * scale


def solve(system: DiscreteSystem) -> tuple[np.ndarray, SolveReport]:
    """Solve the system to TOL relative residual.

    Raises SingularSystem on rank deficiency (never returns a garbage
    vector), NoConvergence when refinement leaves the residual above TOL or
    the interface GMRES does not converge, and FactorTooLarge when the
    factor cannot be allocated.
    """
    cut = _Cut(system)
    reduced = cut.solver()
    try:
        r, q = cut.reduce(system.rhs)
        x = cut.extend(reduced(r), q)
        res = system.residual(x)
        for _ in range(2):  # iterative refinement against the exact operator
            if res <= TOL:
                break
            r, q = cut.reduce(system.rhs - system.matvec(x))
            x = x + cut.extend(reduced(r), q)
            res = system.residual(x)
        if not res <= TOL:  # also catches a NaN residual
            raise NoConvergence(f"residual {res:.3e} above tol {TOL:.1e}")
    except NoConvergence as exc:
        if _kernel_check(system):
            raise SingularSystem(f"constant kernel detected: {exc}") from exc
        raise
    return x, SolveReport(residual=res)
