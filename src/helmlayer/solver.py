"""Direct SuperLU solve of the assembled complex systems.

The modal top block enters the factorized matrix in one of two algebraically
identical forms: for small lateral node counts with mostly active modes it is
materialized densely into the sparse matrix; otherwise the system is solved in
bordered form (one auxiliary unknown per retained mode), which keeps memory
linear. Up to two steps of iterative refinement against the exact matrix-free
operator bring the residual under TOL. An exactly zero pivot or a constant
kernel raises SingularSystem; a residual that stays above TOL (or is not
finite) raises NoConvergence.

SuperLU factors in symmetric mode: a multiple-minimum-degree ordering of
A^T + A applied to rows and columns alike, with diagonal pivots, which about
halves the fill of the default column ordering with partial pivoting. This is
safe because every assembled matrix is structurally almost symmetric, with
unit rows on particle and auxiliary nodes and interior diagonals that stay
positive and near-dominant while k*dx < 2; a pivot that does grow small leaves
the refined residual above TOL, which the checks above turn into a typed error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import DiscreteSystem
from .errors import NoConvergence, SingularSystem

MATERIALIZE_MAX_NX = 512
TOL = 1e-10


@dataclass
class SolveReport:
    residual: float


def _factorize(matrix: sp.csc_matrix) -> spla.SuperLU:
    try:
        return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularSystem(f"factorization failed: {exc}") from exc


def _kernel_check(system: DiscreteSystem) -> bool:
    """True when the constant vector is numerically in the kernel."""
    ones = np.ones(system.n, dtype=complex) / np.sqrt(system.n)
    scale = float(np.abs(system.local.diagonal()).max())
    return float(np.linalg.norm(system.matvec(ones))) < 1e-10 * scale


def _use_materialized(system: DiscreteSystem) -> bool:
    """Dense merge only pays off when most modes are active on a small top line."""
    if system.grid.nx > MATERIALIZE_MAX_NX:
        return False
    n_active = int(np.count_nonzero(system.multipliers))
    return n_active * 2 >= system.grid.nx


def solve(system: DiscreteSystem) -> tuple[np.ndarray, SolveReport]:
    """Solve the system to TOL relative residual.

    Raises SingularSystem on rank deficiency (never returns a garbage
    vector) and NoConvergence when refinement leaves the residual above TOL.
    """
    if _use_materialized(system):
        matrix = system.materialize()
        rhs = system.rhs
    else:
        matrix, rhs, _ = system.bordered()
    lu = _factorize(matrix)
    x_ext = lu.solve(rhs)
    x = x_ext[: system.n]
    res = system.residual(x)
    for _ in range(2):  # iterative refinement against the exact operator
        if res <= TOL:
            break
        r_ext = np.zeros_like(rhs)
        r_ext[: system.n] = system.rhs - system.matvec(x)
        x = x + lu.solve(r_ext)[: system.n]
        res = system.residual(x)
    if not res <= TOL:  # also catches a NaN residual
        if _kernel_check(system):
            raise SingularSystem(f"constant kernel detected, residual {res:.3e}")
        raise NoConvergence(f"direct residual {res:.3e} above tol {TOL:.1e}")
    return x, SolveReport(residual=res)
