"""Direct SuperLU solve of the assembled systems, in complex128.

Every system is solved in complex128: the Helmholtz reference solve, and the
real W1 corrector (k = 0), whose field `corrector.solve_w1` takes as the
real part of the solution. A c1 sample reaches SuperLU only through
`solve_w1`, when its particles' boundary is too large for the capacitance
solve; the Green's table (`corrector`) shares only the strip recursion,
`sweep_strip`.

Only the particle band is factored. Above the particles every row of the
assembled operator is the same five-point stencil across the grid, and the
top row's one-sided stencil plus the modal map is diagonal in the lateral
modes, so in each mode m the particle-free strip is a scalar three-term
recurrence. The cut row j0 and the strip's coefficients come from
`assemble`, which wrote those rows (DiscreteSystem.strip): j0 is the row
above the highest particle row, never below 2, so the one-sided bottom row
stays out of the strip. A backward sweep over the strip rows
(`sweep_strip`), vectorised over the modes, eliminates them as
v_{j+1} = P_{j+1} v_j + Q_{j+1}; row j0 then carries the phased circulant
b * P_{j0+1} (b = -1/dy^2, the vertical coupling) and its rhs the term
-b * Q_{j0+1}, and only rows 0..j0 are solved. A forward sweep rebuilds
the strip, so callers always get the full field. A system with no strip
(fewer than two such rows under the top, or a system built by hand) keeps
every row, and the circulant on the top row is the modal map
itself: the same reduced system, with no sweep. A `local` edited after
assembly no longer matches the strip; the refinement below, against the
exact operator, then reaches TOL or raises, and never returns a wrong vector.

Rows 0..j0 are solved in one form at every width. SuperLU factors them with
row j0's circulant kept on its wrapped offsets |o| <= w = CUT_HALF_WIDTH, a
band of (2w+1) nx entries (assemble.with_circulant, which also builds
DiscreteSystem.materialize). The kernel falls off like 1/offset^2, so
unrestarted GMRES on row j0 alone, one triangular solve per iteration,
corrects for the dropped tail, applied by lateral FFT (grid.LateralTransform)
and never formed. At odd nx <= 2w+1 the band is the whole circulant, the tail
is zero and GMRES stops after one iteration. w = 4 takes 20 and 21
iterations at nx 884 and 1768, w = 2 25 and 26 for 3 MB less. One solve with
its setup (2-vCPU VM, one BLAS thread) against the forms this one replaced:
the whole circulant in the factor below nx 200 (CPU time, median of 21
interleaved), the dense nx x nx block below 600 nodes, else rows 0..j0-1
factored and GMRES preconditioned per mode by row j0's block (median of 3);
iterations in brackets, and the relative residual before refinement:

    system                               nx   earlier form    this form       residual
    W1 cell, width 12.8                  64    6.2 ms          8.7 ms (9)     4.0e-14
    Helmholtz, period 20, k2 eps 0.2     88    5.5 ms          7.0 ms (10)    1.6e-13
    W1 cell, width 20                   100   10.6 ms         14.1 ms (10)    6.2e-14
    Helmholtz, period 25, k2 eps 0.2    110    7.7 ms          9.5 ms (11)    1.8e-13
    W1 cell, width 32                   160   13.8 ms         17.1 ms (13)    8.5e-14
    Helmholtz, period 50, k2 eps 0.2    221    49 ms           43 ms (16)     2.6e-13
    Helmholtz, period 50, k2 eps 0.1    442   112 ms           82 ms (18)     8.0e-13
    Helmholtz, period 50, k2 eps 0.05   884   326 ms (47)     204 ms (20)     2.5e-12
    Helmholtz, period 50, k2 eps 0.025 1768   620 ms (48)     437 ms (21)     9.1e-12
    W1 cell, width 400 *               2000   607 ms (51)     395 ms (21)     2.2e-13
    Helmholtz, period 100, k2 eps 0.025 3536  1.62 s (52)     0.95 s (22)     1.2e-11

* Timed as a real solve; 432-479 ms against 276-445 ms real in one session.

Below nx 200 the whole circulant was 1-3.5 ms faster a solve, a price no
benchmark request pays. The unrefined residual follows the grid spacing,
not the width: x3.5 per halving of the Helmholtz dx, x1.4 from period 50 to
100. GMRES runs to GMRES_TOL relative to its right-hand side, and raises
NoConvergence after GMRES_MAX_ITER iterations: twice the most that any
converging solve of the tests or sweep_ref takes (65, at k dx 1.9). SuperLU's
panel of 4 columns holds the nx-1768 factor's memory growth to 15 MB against
36 MB at the default, no slower.

Up to two steps of iterative refinement against the exact operator on the
full grid, which applies the modal map by grid.dtn_apply, bring the
residual under TOL; each refinement residual is reduced by the same sweep
and solved in the same form. An exactly zero pivot or a zero or non-finite
denominator of the strip recursion raises SingularSystem; a residual that
stays above TOL (or is not finite), or a cut-row GMRES that does not
converge, raises NoConvergence; an allocation failure while building or
factoring the reduced matrix raises FactorTooLarge. The solver knows no
problem-specific kernel: the one singular assembled problem, W1 on a cell
without particles (a constant kernel), ends in one of these errors, and
`corrector.solve_w1` rejects it before assembly.

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

from .assemble import DiscreteSystem, Strip, with_circulant
from .errors import FactorTooLarge, NoConvergence, SingularSystem
from . import grid as _grid

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

TOL = 1e-10
CUT_HALF_WIDTH = 4  # wrapped offsets |o| <= this of the cut row's circulant are factored
GMRES_TOL = 1e-13
GMRES_MAX_ITER = 130


@dataclass
class SolveReport:
    """Relative residual, and the cut-row GMRES iterations summed over the
    refinement steps (one per step where the band is the whole circulant)."""

    residual: float
    iterations: int


def sweep_strip(strip: Strip, ny: int, d: np.ndarray,
                lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward sweep over the strip rows j0+1..ny-1, one lateral mode per column.

    d and lam are the per-mode diagonal of the five-point rows and the
    multipliers of the top row. Returns den and p, row s of each belonging
    to strip row j0+1+s: v_{j+1} = p v_j + q, den the pivot that q is
    divided by; row j0 of the eliminated system gains b * p[0]. A zero or
    non-finite denominator raises SingularSystem.
    """
    n_strip = ny - 1 - strip.j0
    den = np.empty((n_strip, len(d)), dtype=np.result_type(d, lam))
    p = np.empty_like(den)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # top row with row ny-2 folded in to drop its v_{ny-3} term
        den[-1] = strip.t0 - strip.t2 + lam
        p[-1] = (strip.t2 * d / strip.b - strip.t1) / den[-1]
        for s in range(n_strip - 2, -1, -1):
            den[s] = d + strip.b * p[s + 1]
            p[s] = -strip.b / den[s]
    if not np.isfinite(p).all():  # also a zero denominator: b != 0
        raise SingularSystem("strip recursion met a zero or non-finite denominator")
    return den, p


class _Cut:
    """Rows 0..j0 of a system, the strip of rows j0+1..ny-1 above them
    eliminated exactly, one lateral mode at a time.

    p[s] and den[s] belong to strip row j0+1+s: v_{j+1} = p v_j + q in the
    (de-phased) lateral DFT of each row, den the pivot that q is divided by.
    symbol is the circulant the strip leaves on row j0, per mode.
    """

    def __init__(self, system: DiscreteSystem) -> None:
        grid = system.grid
        self.local, self.nx = system.local.tocsr(), grid.nx
        k1 = self.k1 = system.dtn.k1
        self.dx = grid.dx
        self.lateral = _grid.LateralTransform(grid.width, grid.nx, k1)
        lam = _grid.dtn_multipliers(system.dtn, grid.width, grid.nx)
        self.p = None
        if system.strip is None:
            self.j0, self.symbol = grid.ny - 1, lam
            return
        self.j0, c, lat, self.b, _, _, self.t2 = system.strip
        zeta = 2.0 * np.pi * np.arange(grid.nx) / grid.width + k1
        d = c + 2.0 * lat * np.cos(zeta * grid.dx)
        self.den, self.p = sweep_strip(system.strip, grid.ny, d, lam)
        self.symbol = self.b * self.p[0]

    @property
    def n(self) -> int:
        """Unknowns of the reduced rows 0..j0."""
        return (self.j0 + 1) * self.nx

    @property
    def offsets(self) -> np.ndarray:
        """Wrapped offsets |o| <= CUT_HALF_WIDTH of row j0's circulant kept in
        the factor: all nx of them at odd nx <= 2 CUT_HALF_WIDTH + 1."""
        return _grid.circulant_offsets(self.nx, CUT_HALF_WIDTH)

    def matrix(self) -> sp.csc_matrix:
        """Rows and columns 0..j0 of the operator, row j0's circulant kept on `offsets`."""
        n = self.n
        try:
            return with_circulant(self.local[:n, :n], self.symbol, self.k1, self.dx,
                                  self.offsets)
        except MemoryError as exc:
            raise FactorTooLarge(f"no memory for the {n}-unknown reduced matrix") from exc

    def reduce(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Rhs of rows 0..j0 with the strip folded in, and the strip's q terms."""
        nx, n = self.nx, self.n
        out = rhs[:n].astype(complex)
        if self.p is None:
            return out, None
        r = self.lateral.to_modes(rhs[n:].reshape(-1, nx))
        q = np.empty_like(r)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q[-1] = (r[-1] - self.t2 / self.b * r[-2]) / self.den[-1]
            for s in range(len(q) - 2, -1, -1):
                q[s] = (r[s] - self.b * q[s + 1]) / self.den[s]
        # non-finite data is left to the residual check (NoConvergence)
        if np.isfinite(r).all() and not np.isfinite(q).all():
            raise SingularSystem("strip recursion overflowed")
        out[-nx:] += self.lateral.from_modes(-self.b * q[0])
        return out, q

    def extend(self, x: np.ndarray, q: np.ndarray | None) -> np.ndarray:
        """Full solution from rows 0..j0 by the forward sweep over the strip."""
        if q is None:
            return x
        v = np.empty_like(q)
        prev = self.lateral.to_modes(x[-self.nx:])
        for s in range(len(q)):
            prev = v[s] = self.p[s] * prev + q[s]
        return np.concatenate([x, self.lateral.from_modes(v).ravel()])

    def solver(self) -> Callable[[np.ndarray], tuple[np.ndarray, int]]:
        """Solve of rows 0..j0 for a reduced rhs, and its GMRES iterations.

        M, the factored `matrix()`, differs from the reduced operator by the
        dropped tail E of row j0's circulant, applied by lateral FFT. With P
        picking row j0, GMRES solves (I + P M^-1 P^T E) u = P M^-1 r for u,
        row j0 of the solution, and x = M^-1 r - M^-1 P^T E u. When the band
        holds the whole circulant, E = 0: GMRES stops after one iteration and
        x = M^-1 r.
        """
        nx, n, lateral = self.nx, self.n, self.lateral
        lu = _factorize(self.matrix())
        dropped = np.fft.ifft(self.symbol)
        dropped[self.offsets] = 0.0
        tail = np.fft.fft(dropped)

        def lift(u: np.ndarray) -> np.ndarray:  # M^-1 P^T E u
            e = np.zeros(n, dtype=complex)
            e[-nx:] = lateral.from_modes(tail * lateral.to_modes(u))
            return lu.solve(e)

        def solve_rows(r: np.ndarray) -> tuple[np.ndarray, int]:
            y = lu.solve(r)
            u, iterations = _gmres(lambda v: v + lift(v)[-nx:], y[-nx:])
            return y - lift(u), iterations

        return solve_rows


def _gmres(op: Callable[[np.ndarray], np.ndarray], b: np.ndarray) -> tuple[np.ndarray, int]:
    """Unrestarted GMRES from zero for op(x) = b to GMRES_TOL relative residual,
    and its iteration count.

    Modified Gram-Schmidt Arnoldi with Givens rotations, in b's dtype; the
    basis grows one vector per iteration, and GMRES_MAX_ITER iterations
    without convergence raise NoConvergence.
    """
    beta = float(np.linalg.norm(b))
    if not np.isfinite(beta):
        raise NoConvergence("non-finite interface right-hand side")
    if beta == 0.0:
        return np.zeros_like(b), 0
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
    return y @ np.array(basis), len(cols)


def _factorize(matrix: sp.csc_matrix) -> spla.SuperLU:
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         panel_size=4, options=dict(SymmetricMode=True))
    except (MemoryError, RuntimeError) as exc:
        # SuperLU reports exact singularity as a RuntimeError, and an allocation
        # that fails outside the numeric factorisation too ("SUPERLU_MALLOC fails")
        if isinstance(exc, RuntimeError) and "malloc fails" not in str(exc).lower():
            raise SingularSystem(f"factorization failed: {exc}") from exc
        raise FactorTooLarge(f"SuperLU could not allocate the factor of {matrix.shape[0]} "
                             f"unknowns ({matrix.nnz} entries)") from exc


def solve(system: DiscreteSystem) -> tuple[np.ndarray, SolveReport]:
    """Solve the system to TOL relative residual.

    Never returns a garbage vector: raises SingularSystem on an exactly zero
    pivot or strip denominator, NoConvergence when refinement leaves the
    residual above TOL (a numerically singular system included) or the
    cut-row GMRES does not converge, and FactorTooLarge when the factor
    cannot be allocated.
    """
    cut = _Cut(system)
    reduced = cut.solver()
    x, iterations, res = np.zeros(system.n, dtype=complex), 0, np.inf
    for _ in range(3):  # the solve and up to two refinement steps, against the exact operator
        if res <= TOL:
            break
        r, q = cut.reduce(system.rhs - system.matvec(x))
        v, its = reduced(r)
        x, iterations = x + cut.extend(v, q), iterations + its
        res = system.residual(x)
    if not res <= TOL:  # also catches a NaN residual
        raise NoConvergence(f"residual {res:.3e} above tol {TOL:.1e}")
    return x, SolveReport(residual=res, iterations=iterations)
