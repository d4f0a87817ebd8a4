"""Direct SuperLU solve of the assembled systems, real or complex.

SuperLU factors in the common dtype of the operator and the right-hand side:
float64 for the real W1 corrector, whose modal block the assembly writes in a
real cos/sin basis, and complex128 for every other system (W2, the Helmholtz
problems, and a complex right-hand side a caller put on a real system).

The modal top block enters the factorized matrix in one of two algebraically
identical forms, both written from the system's one mode basis: merged
densely into the top rows when the retained modes number at least half the
top-line nodes (2 n_aux >= nx), and otherwise in bordered form with one
auxiliary unknown per retained mode, which keeps memory linear in nx. Up to
two steps of iterative refinement against the exact operator, which applies
the modal map through its own FFT code, bring the residual under TOL. An
exactly zero pivot or a constant kernel raises SingularSystem; a residual
that stays above TOL (or is not finite) raises NoConvergence.

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
from .grid import dtn_multipliers

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


def _factor_input(system: DiscreteSystem) -> tuple[sp.csc_matrix, np.ndarray]:
    """Matrix and rhs to factor: the modal block merged densely when the
    retained modes number at least half the top line, bordered otherwise."""
    nx = system.grid.nx
    n_aux = int(np.count_nonzero(dtn_multipliers(system.dtn, system.grid.width, nx)))
    if 2 * n_aux >= nx:
        return system.materialize(), system.rhs
    matrix, rhs, _ = system.bordered()
    return matrix, rhs


def solve(system: DiscreteSystem) -> tuple[np.ndarray, SolveReport]:
    """Solve the system to TOL relative residual.

    Raises SingularSystem on rank deficiency (never returns a garbage
    vector) and NoConvergence when refinement leaves the residual above TOL.
    """
    matrix, rhs = _factor_input(system)
    lu = _factorize(matrix.astype(np.result_type(matrix.dtype, rhs.dtype), copy=False))
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
