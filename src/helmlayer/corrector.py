"""Near-field corrector problems on the periodic cell and the c1 estimate.

W1 solves Laplace around the normalized particles with a unit flux jump
across the interface line above the layer; its lateral trace average at the
cell top is the per-realization sample of the effective coefficient c1.
W2 is the complex companion problem forced through the bottom Neumann data.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .assemble import Sources, assemble
from .errors import NoConvergence, NumericalFailure, ShapeMismatch, SingularSystem
from .geometry import LayerSpec, ParticleConfiguration, PointProcessParams, sample_matern
from .grid import DtnSpec, Grid, NodeClass, build_grid, classify_nodes
from .solver import SolveReport, solve


@dataclass(frozen=True)
class CorrectorConfig:
    """Geometry and discretization of the corrector cell.

    H is the flux-jump interface height (strictly above the particle layer),
    L_cell the artificial top closed by the periodic-Laplace modal map.
    Defaults: H = h + 2 and L_cell = H + width/4, so mode 1, the slowest
    decaying lateral mode, decays by exp(-pi/2) across the buffer. The solver
    eliminates the particle-free rows above the layer mode by mode, so a
    buffer row costs O(nx) recursion work and one lateral FFT per sweep,
    not factor fill.
    """

    layer: LayerSpec = field(default_factory=LayerSpec)
    process: PointProcessParams = field(default_factory=PointProcessParams)
    H: float | None = None
    L_cell: float | None = None
    target_dx: float = 0.2
    gamma: complex = 1.0 + 1.0j
    k: float = 1.0

    def __post_init__(self) -> None:
        if self.H is None:
            object.__setattr__(self, "H", self.layer.h + 2.0)
        if self.L_cell is None:
            object.__setattr__(self, "L_cell", self.H + self.layer.width / 4.0)
        if not self.layer.h < self.H < self.L_cell:
            raise ValueError(f"need h < H < L_cell, got {self.layer.h}, {self.H}, {self.L_cell}")
        if self.target_dx > 0.2:
            raise ValueError("target_dx must resolve particles: at most 0.2 (10 nodes per diameter)")

    def cell_grid(self) -> Grid:
        return build_grid(self.layer.width, self.L_cell, self.target_dx,
                          interface_heights=(self.H,))


@dataclass
class CorrectorSolution:
    """Solved corrector field with trace statistics and flux bookkeeping."""

    field: np.ndarray
    trace_L: np.ndarray
    trace_mean: complex
    flux_report: dict
    kind: str
    grid: Grid
    tags: np.ndarray
    interface_height: float
    j_interface: int
    solve_report: SolveReport


@dataclass(frozen=True)
class C1Estimate:
    """Monte-Carlo estimate of the effective coefficient."""

    mean: float
    std_err: float
    n_samples: int
    cell_width: float
    ci95: tuple[float, float]
    history: tuple[tuple[int, float, float, float | None], ...] = ()
    H_used: float = 0.0
    n_failures: int = 0

    def __post_init__(self) -> None:
        if self.std_err < 0:
            raise ValueError("std_err must be >= 0")
        lo, hi = self.ci95
        if not lo <= self.mean <= hi:
            raise ValueError("ci95 must contain the mean")


def _flux_balance(field: np.ndarray, tags: np.ndarray, grid: Grid,
                  injected: float) -> dict:
    """Exact discrete telescoping of the interior balance rows.

    injected = particle + bottom + top up to the solver residual; the bottom
    and top terms are the telescoped line fluxes (O(dy^2) small for the
    homogeneous-Neumann / modal closures, not asserted to vanish).
    """
    ny, nx = field.shape
    dy_dx = grid.dy / grid.dx
    dx_dy = grid.dx / grid.dy
    dirich = tags == NodeClass.PARTICLE_DIRICHLET
    free_int = ~dirich.copy()
    free_int[0, :] = False
    free_int[-1, :] = False
    particle = 0.0 + 0.0j
    left = np.roll(dirich, 1, axis=1)
    right = np.roll(dirich, -1, axis=1)
    particle += dy_dx * field[free_int & left].sum()
    particle += dy_dx * field[free_int & right].sum()
    down = np.zeros_like(dirich)
    down[1:, :] = dirich[:-1, :]
    up = np.zeros_like(dirich)
    up[:-1, :] = dirich[1:, :]
    particle += dx_dy * field[free_int & down].sum()
    particle += dx_dy * field[free_int & up].sum()
    row1_free = ~dirich[1, :]
    bottom = dx_dy * (field[1, row1_free] - field[0, row1_free]).sum()
    rowt_free = ~dirich[-2, :]
    top = dx_dy * (field[-2, rowt_free] - field[-1, rowt_free]).sum()
    residual = injected - (particle + bottom + top)
    scale = abs(injected) if injected else 1.0
    return {
        "injected": injected,
        "particle": complex(particle),
        "bottom": complex(bottom),
        "top": complex(top),
        "residual": complex(residual),
        "rel_imbalance": abs(residual) / scale,
    }


def _solve_cell(grid: Grid, config: ParticleConfiguration, sources: Sources,
                injected: float, kind: str) -> CorrectorSolution:
    """Laplace on the cell minus particles: homogeneous Dirichlet on particles,
    Neumann bottom, periodic-Laplace modal closure at the top, `sources` as data."""
    tags = classify_nodes(grid, config, scale=1.0)
    system = assemble(grid, tags, problem_kind="laplace", bottom="neumann",
                      dtn=DtnSpec(kind="laplace_periodic"), sources=sources)
    x, report = solve(system)
    fld = x.reshape(grid.ny, grid.nx)
    fld[tags == NodeClass.PARTICLE_DIRICHLET] = 0.0
    trace = fld[-1].copy()
    snap = grid.snaps[0]
    return CorrectorSolution(field=fld, trace_L=trace, trace_mean=trace.mean().item(),
                             flux_report=_flux_balance(fld, tags, grid, injected), kind=kind,
                             grid=grid, tags=tags, interface_height=snap.snapped,
                             j_interface=snap.j_index, solve_report=report)


def solve_w1(cfg: CorrectorConfig, config: ParticleConfiguration) -> CorrectorSolution:
    """Solve the unit-flux-jump corrector on one realization.

    Laplace in the cell minus particles, homogeneous Neumann at the bottom,
    homogeneous Dirichlet on particles, unit flux jump across the interface
    line, periodic-Laplace modal closure at the top. The operator and the
    data are real, so the field is float64. An empty realization propagates
    SingularSystem (the injected flux has no outlet).
    """
    grid = cfg.cell_grid()
    jump = Sources(flux_jump_height=grid.snaps[0].snapped, flux_jump_value=1.0)
    return _solve_cell(grid, config, jump, injected=grid.width, kind="W1")


def v1_bottom_trace(w1: CorrectorSolution) -> np.ndarray:
    """V1 restricted to the bottom line (V1 = W1 below the interface)."""
    return w1.field[0].copy()


def solve_w2(cfg: CorrectorConfig, config: ParticleConfiguration,
             v1_bottom: np.ndarray) -> CorrectorSolution:
    """Solve the complex companion corrector forced through the bottom line.

    Inhomogeneous Neumann data -i k gamma V1 at the bottom, no jump, same
    Dirichlet particles and top closure as W1; the complex data makes the
    system complex128. The trace average is the per-realization sample of c2.
    """
    grid = cfg.cell_grid()
    if len(v1_bottom) != grid.nx:
        raise ShapeMismatch("V1 bottom trace does not match the corrector grid")
    psi = -1j * cfg.k * cfg.gamma * np.asarray(v1_bottom, dtype=complex)
    return _solve_cell(grid, config, Sources(bottom_neumann=psi), injected=0.0, kind="W2")


def v1_field(w1: CorrectorSolution, c1: float) -> np.ndarray:
    """Nodal V1 = W1 - c1 strictly above the interface line, W1 elsewhere."""
    if not math.isfinite(c1):
        raise ValueError("c1 must be finite")
    out = w1.field.copy()
    out[w1.j_interface + 1:, :] -= c1
    return out


def map_realizations(fn: Callable[[int], object], n: int, threads: int) -> list:
    """[fn(0), ..., fn(n-1)] in index order, on `threads` worker threads when > 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(n)))
    return [fn(j) for j in range(n)]


def estimate_c1(cfg: CorrectorConfig, n_samples: int, master_seed: int,
                threads: int = 1) -> C1Estimate:
    """Monte-Carlo mean of the W1 trace average over independent realizations.

    Realization j always uses the RNG stream keyed by (master_seed, j), so
    the estimate is independent of worker count and scheduling order. Fails
    if more than 10% of the samples are singular or non-convergent.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2 (std_err undefined otherwise)")

    def one(j: int) -> float | None:
        config = sample_matern(cfg.process, cfg.layer, master_seed, stream=j)
        try:
            return solve_w1(cfg, config).trace_mean
        except (SingularSystem, NoConvergence):
            return None

    raw = map_realizations(one, n_samples, threads)

    values = [v for v in raw if v is not None]
    n_fail = n_samples - len(values)
    if n_fail > 0.1 * n_samples:
        raise NumericalFailure(f"{n_fail}/{n_samples} corrector samples failed")
    arr = np.array(values)
    mean = float(arr.mean())
    std_err = float(arr.std(ddof=1) / math.sqrt(len(arr)))
    h_used = float(cfg.H)
    if mean <= 0.0:
        # exact shift identity: c1(H + s) = c1(H) + s; raise H to make c1 positive
        shift = float(math.ceil(1.0 - mean))
        mean += shift
        arr = arr + shift
        h_used += shift
    history = []
    run_sum = 0.0
    run_sq = 0.0
    for idx, v in enumerate(arr, start=1):
        run_sum += v
        run_sq += v * v
        rmean = run_sum / idx
        rse = None
        if idx >= 2:
            var = max(0.0, (run_sq - idx * rmean * rmean) / (idx - 1))
            rse = math.sqrt(var / idx)
        history.append((idx, float(v), float(rmean), rse))
    ci = (mean - 1.96 * std_err, mean + 1.96 * std_err)
    return C1Estimate(mean=mean, std_err=std_err, n_samples=len(arr),
                      cell_width=cfg.layer.width, ci95=ci, history=tuple(history),
                      H_used=h_used, n_failures=n_fail)


def decay_profile(w1: CorrectorSolution, c1: float) -> list[tuple[float, float, float, float]]:
    """Per-line statistics of the corrector above the interface.

    Rows (y_d, lateral mean of (W1 - c1), lateral variance, lateral mean of
    |grad W1|^2) for every grid line strictly above the interface; the y
    derivative is one-sided on the top line.
    """
    fld = w1.field.real
    grid = w1.grid
    rows = []
    for j in range(w1.j_interface + 1, grid.ny):
        line = fld[j]
        gx = (np.roll(line, -1) - np.roll(line, 1)) / (2.0 * grid.dx)
        if j < grid.ny - 1:
            gy = (fld[j + 1] - fld[j - 1]) / (2.0 * grid.dy)
        else:
            gy = (fld[j] - fld[j - 1]) / grid.dy
        rows.append((
            float(j * grid.dy),
            float(line.mean() - c1),
            float(line.var()),
            float((gx * gx + gy * gy).mean()),
        ))
    return rows


def export_c1_history(estimate: C1Estimate, path) -> None:
    """CSV columns sample_index, value, running_mean, running_stderr."""
    with open(path, "w", newline="\n") as fh:
        fh.write("sample_index,value,running_mean,running_stderr\n")
        for idx, value, rmean, rse in estimate.history:
            tail = "" if rse is None else repr(rse)
            fh.write(f"{idx},{value!r},{rmean!r},{tail}\n")


def export_decay_profile(rows, path) -> None:
    """CSV columns y_d, mean_minus_c1, lateral_variance, mean_grad_sq."""
    with open(path, "w", newline="\n") as fh:
        fh.write("y_d,mean_minus_c1,lateral_variance,mean_grad_sq\n")
        for y_d, mean, var, grad2 in rows:
            fh.write(f"{y_d!r},{mean!r},{var!r},{grad2!r}\n")
