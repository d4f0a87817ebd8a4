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
and its rhs the term -b * Q_{j0+1}, and SuperLU factors rows 0..j0 alone. A
forward sweep rebuilds the strip, so callers always get the full field.
When fewer than two such rows lie under the top (or the rows above the
particles are not one stencil) the strip is empty and the circulant on the
top row is the modal map itself: the same factored form, with no sweep.

Up to two steps of iterative refinement against the exact operator on the
full grid, which applies the modal map through its own FFT code, bring the
residual under TOL; each refinement residual is reduced by the same sweep.
An exactly zero pivot, a constant kernel or a zero or non-finite denominator
of the strip recursion raises SingularSystem; a residual that stays above TOL
(or is not finite) raises NoConvergence; an allocation failure while building
or factoring the reduced matrix raises FactorTooLarge, and so does a cut
block whose nx^2 entries and int32 row indices alone exceed the memory the
process may still use (`_memory_budget`), before anything is allocated; a
block within half the free RAM skips that check.

SuperLU factors in symmetric mode: a multiple-minimum-degree ordering of
A^T + A applied to rows and columns alike, with diagonal pivots, which about
halves the fill of the default column ordering with partial pivoting. This is
safe because every assembled matrix is structurally almost symmetric, with
unit rows on particle nodes and interior diagonals that stay positive and
near-dominant while k*dx < 2; a pivot that does grow small leaves the refined
residual above TOL, which the checks above turn into a typed error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import DiscreteSystem
from .errors import FactorTooLarge, NoConvergence, SingularSystem
from . import grid as _grid

TOL = 1e-10


@dataclass
class SolveReport:
    residual: float


def _proc_kib(path: str, field: str) -> int:
    """The `field:` value, in KiB, of a /proc key-value file."""
    with open(path) as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise ValueError(f"no {field} in {path}")


def _memory_budget() -> float:
    """Bytes the process may still allocate: the lower of its address-space
    headroom under RLIMIT_AS and the system's MemAvailable, inf where neither
    can be read."""
    budget = math.inf
    try:
        import resource  # POSIX only

        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            budget = soft - 1024 * _proc_kib("/proc/self/status", "VmSize")
    except (ImportError, OSError, ValueError):
        pass
    try:
        budget = min(budget, 1024 * _proc_kib("/proc/meminfo", "MemAvailable"))
    except (OSError, ValueError):
        pass
    return budget


def _free_ram() -> float:
    """Free physical memory in bytes from sysconf (0 where unknown).

    Unlike reading /proc, sysconf keeps the GIL, so it cannot stall a
    sibling worker thread.
    """
    try:
        return float(os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        return 0.0


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
            return
        c, lat, self.b, t0, t1, self.t2 = coef
        zeta = 2.0 * np.pi * np.arange(grid.nx) / grid.width + k1
        d = c + 2.0 * lat * np.cos(zeta * grid.dx)
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
        """Unknowns of the factored rows 0..j0."""
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
        need = nx * nx * (np.dtype(self.dtype).itemsize + 4)
        # a block within half the free RAM is taken to fit, unread: reading /proc
        # releases the GIL, and the thread then waits up to a switch interval for
        # it while a sibling W1 worker runs Python (under an RLIMIT_AS cap, the
        # allocation failure below still ends in FactorTooLarge)
        if need > _free_ram() / 2 and need > (budget := _memory_budget()):
            raise FactorTooLarge(f"the {nx}x{nx} cut block alone needs {need} bytes, "
                                 f"over the {budget:.0f} this process may still use")
        try:
            # block[i, l] = p[(i - l) % nx] phase_i / phase_l depends on i - l
            # alone (Toeplitz): column l holds t[i - l], t[k] for |k| < nx
            p = np.fft.ifft(self.symbol)
            if np.isrealobj(self.symbol):
                p = p.real
            t = np.concatenate([p[1:], p])
            if self.phase is not None:
                t *= np.exp(1j * self.k1 * self.dx * np.arange(1 - nx, nx))
            t = t.astype(self.dtype)
            columns = np.lib.stride_tricks.sliding_window_view(t, nx)[::-1].copy()
            indptr = np.concatenate([np.zeros(n - nx, dtype=np.int32),
                                     np.arange(0, nx * nx + 1, nx, dtype=np.int32)])
            rows = np.tile(np.arange(n - nx, n, dtype=np.int32), nx)
            dense = sp.csc_matrix((columns.ravel(), rows, indptr), shape=(n, n))
            del columns, rows
            return self.local[:n, :n].tocsc() + dense
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


def _factorize(matrix: sp.csc_matrix) -> spla.SuperLU:
    try:
        return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularSystem(f"factorization failed: {exc}") from exc
    except MemoryError as exc:
        raise FactorTooLarge(f"SuperLU could not allocate the factor of {matrix.shape[0]} "
                             f"unknowns ({matrix.nnz} entries)") from exc


def _kernel_check(system: DiscreteSystem) -> bool:
    """True when the constant vector is numerically in the kernel."""
    ones = np.ones(system.n, dtype=complex) / np.sqrt(system.n)
    scale = float(np.abs(system.local.diagonal()).max())
    return float(np.linalg.norm(system.matvec(ones))) < 1e-10 * scale


def _factor_input(system: DiscreteSystem) -> tuple[sp.csc_matrix, np.ndarray]:
    """Matrix and rhs that SuperLU factors: rows 0..j0, the strip eliminated."""
    cut = _Cut(system)
    return cut.matrix(), cut.reduce(system.rhs)[0]


def solve(system: DiscreteSystem) -> tuple[np.ndarray, SolveReport]:
    """Solve the system to TOL relative residual.

    Raises SingularSystem on rank deficiency (never returns a garbage
    vector), NoConvergence when refinement leaves the residual above TOL and
    FactorTooLarge when the factor cannot be allocated.
    """
    cut = _Cut(system)
    lu = _factorize(cut.matrix())
    r, q = cut.reduce(system.rhs)
    x = cut.extend(lu.solve(r), q)
    res = system.residual(x)
    for _ in range(2):  # iterative refinement against the exact operator
        if res <= TOL:
            break
        r, q = cut.reduce(system.rhs - system.matvec(x))
        x = x + cut.extend(lu.solve(r), q)
        res = system.residual(x)
    if not res <= TOL:  # also catches a NaN residual
        if _kernel_check(system):
            raise SingularSystem(f"constant kernel detected, residual {res:.3e}")
        raise NoConvergence(f"direct residual {res:.3e} above tol {TOL:.1e}")
    return x, SolveReport(residual=res)
