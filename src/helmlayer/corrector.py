"""Near-field corrector problems on the periodic cell and the c1 estimate.

W1 solves Laplace around the normalized particles with a unit flux jump
across the interface line above the layer. `CorrectorConfig` puts the jump
on the grid row nearest the requested height H (`jump_row`); the lateral
trace average at the cell top, moved from that row to H, is the
per-realization sample of the effective coefficient c1.

Two paths solve W1, and they agree to round-off; a c1 value takes the one
that `c1_sampler` chooses once per cell. The capacitance-matrix method
(Buzbee, Dorr, George & Golub 1971; Proskurowski & Widlund 1976) needs
numpy alone: it tabulates the inverse of the empty cell's operator once per
cell (`_GreenTable`), and each realization then needs one dense solve on
the particles' boundary nodes, with the trace mean as one of its unknowns
and no field formed. That dense solve grows as the cube of the
boundary-node count, which grows with the cell, so every realization of a
cell whose table would exceed the measured crossover goes to `solve_w1`
instead. `estimate_c1` runs capacitance samples on the calling thread,
since they hold the GIL, and fans `solve_w1` samples out on worker threads.
`solve_w1` assembles the whole cell and solves it by SuperLU
(`solver.solve`), which releases the GIL; it also serves the callers that
need the field, the decay profile and the validation suite, and it is the
capacitance sample's test oracle.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .assemble import Strip, assemble, bottom_row, strip_at
from .errors import FactorTooLarge, NoConvergence, NumericalFailure, SingularSystem
from .geometry import LayerSpec, ParticleConfiguration, PointProcessParams, sample_matern
from .grid import DtnSpec, Grid, build_grid, classify_nodes, dtn_multipliers
from .solver import TOL, SolveReport, solve, sweep_strip


@dataclass(frozen=True)
class CorrectorConfig:
    """Geometry and discretization of the corrector cell.

    H is the flux-jump interface height (strictly above the particle layer),
    L_cell the artificial top closed by the k = 0 (Laplace) modal map, and
    target_dx in (0, 0.2] the spacing of both axes (10 nodes per particle
    diameter or more).
    Defaults: H = h + 2 and L_cell = H + width/4, so mode 1, the slowest
    decaying lateral mode, decays by exp(-pi/2) across the buffer. The
    particle-free rows above the layer are eliminated mode by mode, so a
    buffer row costs O(nx) recursion work: once per c1 estimate in its
    Green's table, and in `solve_w1` one lateral FFT per sweep, not factor
    fill.
    """

    layer: LayerSpec = field(default_factory=LayerSpec)
    process: PointProcessParams = field(default_factory=PointProcessParams)
    H: float | None = None
    L_cell: float | None = None
    target_dx: float = 0.2

    def __post_init__(self) -> None:
        if self.H is None:
            object.__setattr__(self, "H", self.layer.h + 2.0)
        if self.L_cell is None:
            object.__setattr__(self, "L_cell", self.H + self.layer.width / 4.0)
        if not self.layer.h < self.H < self.L_cell:
            raise ValueError(f"need h < H < L_cell, got {self.layer.h}, {self.H}, {self.L_cell}")
        if not 0 < self.target_dx <= 0.2:
            raise ValueError(f"target_dx must lie in (0, 0.2] to resolve particles "
                             f"(10 nodes per diameter), not {self.target_dx!r}")
        # the top row of cell_grid is L_cell rounded to a multiple of target_dx
        if not 0 < self.jump_row < int(round(self.L_cell / self.target_dx)):
            raise ValueError(f"H={self.H} rounds to row {self.jump_row}, "
                             f"not an interior row of the cell")

    @property
    def jump_row(self) -> int:
        """Row of the unit flux jump: the grid line of cell_grid nearest H."""
        return int(round(self.H / self.target_dx))

    def cell_grid(self) -> Grid:
        return build_grid(self.layer.width, self.L_cell, self.target_dx)


@dataclass
class CorrectorSolution:
    """Solved W1 field with its trace mean and c1 sample.

    c1 is trace_mean moved from the jump row j_interface to the requested
    height H by the exact shift identity c1(H + s) = c1(H) + s.
    """

    field: np.ndarray
    trace_mean: float
    c1: float
    grid: Grid
    mask: np.ndarray
    j_interface: int
    solve_report: SolveReport

    @property
    def flux_report(self) -> dict:
        """Exact discrete telescoping of the interior balance rows.

        injected (the unit jump over the cell width) = particle + bottom + top
        up to the solver residual; the bottom and top terms are the telescoped
        line fluxes (O(dy^2) small for the homogeneous-Neumann / modal
        closures, not asserted to vanish).
        """
        field, mask, grid = self.field, self.mask, self.grid
        dy_dx = grid.dy / grid.dx
        dx_dy = grid.dx / grid.dy
        free_int = ~mask
        free_int[0, :] = False
        free_int[-1, :] = False
        particle = 0.0
        left = np.roll(mask, 1, axis=1)
        right = np.roll(mask, -1, axis=1)
        particle += dy_dx * field[free_int & left].sum()
        particle += dy_dx * field[free_int & right].sum()
        down = np.zeros_like(mask)
        down[1:, :] = mask[:-1, :]
        up = np.zeros_like(mask)
        up[:-1, :] = mask[1:, :]
        particle += dx_dy * field[free_int & down].sum()
        particle += dx_dy * field[free_int & up].sum()
        row1_free = ~mask[1, :]
        bottom = dx_dy * (field[1, row1_free] - field[0, row1_free]).sum()
        rowt_free = ~mask[-2, :]
        top = dx_dy * (field[-2, rowt_free] - field[-1, rowt_free]).sum()
        injected = grid.width
        residual = float(injected - (particle + bottom + top))
        return {
            "injected": injected,
            "particle": float(particle),
            "bottom": float(bottom),
            "top": float(top),
            "residual": residual,
            "rel_imbalance": abs(residual) / injected,
        }


@dataclass(frozen=True)
class C1Estimate:
    """Monte-Carlo estimate of the effective coefficient.

    n_failures counts the failed samples, n_solve_w1 the realizations that
    `solve_w1` took, failed ones included: 0 on a cell with a Green's table,
    every realization on one without.
    """

    mean: float
    std_err: float
    n_samples: int
    cell_width: float
    history: tuple[tuple[int, float, float, float | None], ...] = ()
    n_failures: int = 0
    n_solve_w1: int = 0

    def __post_init__(self) -> None:
        if self.std_err < 0:
            raise ValueError("std_err must be >= 0")

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal 95 % interval of the mean."""
        return (self.mean - 1.96 * self.std_err, self.mean + 1.96 * self.std_err)


def solve_w1(cfg: CorrectorConfig, config: ParticleConfiguration) -> CorrectorSolution:
    """Solve the unit-flux-jump corrector on one realization.

    The k = 0 case of the assembled Helmholtz problem: Laplace in the cell
    minus particles, homogeneous Neumann at the bottom, homogeneous
    Dirichlet on particles, unit flux jump across the interface line, and
    the periodic modal closure DtnSpec() (k = k1 = 0) at the top. Assembled
    and solved in complex128 like every system; the operator and the data
    are real, so the field is the real part of the solution, whose residual
    is no larger than the complex solution's. An empty realization raises
    SingularSystem before assembly, the rule `_GreenTable.c1` applies to an
    empty ring.
    """
    grid = cfg.cell_grid()
    j = cfg.jump_row
    mask = classify_nodes(grid, config, scale=1.0)
    if not mask.any():
        raise SingularSystem("no particle node: the injected flux has no outlet")
    system = assemble(grid, mask, DtnSpec(), jump_row=j)
    x, report = solve(system)
    fld = x.real.reshape(grid.ny, grid.nx).copy()
    fld[mask] = 0.0
    trace_mean = fld[-1].mean().item()
    return CorrectorSolution(field=fld, trace_mean=trace_mean,
                             c1=trace_mean + (cfg.H - j * grid.dy), grid=grid, mask=mask,
                             j_interface=j, solve_report=report)


class _GreenTable:
    """The empty cell's W1 operator A0 inverted once, for the capacitance c1 sample.

    A0 is the W1 operator of the cell without particles, its mode-0
    multiplier Lambda_0 = 0 replaced by ALPHA, which makes it regular. It is
    diagonal in the lateral modes, so A0^-1 = G(i - i', j, j'), the lateral
    inverse FFT of the per-mode inverses. Every particle row lies below
    J = ceil(h/dy) + 1, and `g` holds G on rows and columns 0..J: per mode,
    the strip above row J is eliminated by `solver.sweep_strip` and the
    (J+1)-row remainder inverted. Only mode 0 meets the unit flux jump f and
    the top-trace mean, so the full-height mode-0 inverse `g0` supplies its
    columns at the jump row and the top row, and its top row.

    `c1` solves one realization for a source sigma on the ring R, the
    particle nodes with a free 4-neighbour, and w = mean(u_top), from
    u = G(f + P_R sigma + ALPHA 1_top w) = 0 on R and mean(u_top) = w: a
    dense system of |R| + 1 unknowns whose entries are table lookups. The
    other particle nodes then come out exactly 0: they are discrete-harmonic
    with zero values on R. A particle node on the jump row always has a free
    node above it, so it is in R, and f needs no masking. The sample is
    w + (H - jump_row dy); no field is formed.

    `build` makes a table only when g holds at most MAX_ENTRIES entries,
    nx (J+1)^2 of 8 bytes (about 3 times that while it is built), and
    `c1_sampler` then takes every sample of the cell through it; a larger
    cell takes every sample through `solve_w1`. The dense solve costs
    O(|R|^3) time and O(|R|^2) memory, and |R| grows with the table, so the
    bound is the largest measured table size at which the table is no
    slower per sample and peaks no higher than `solve_w1`, for matern2 at
    rho 0.4 and for the densest layer the config admits, hardcore_poisson
    at rho 0.9. Measured at dx 0.2 on one BLAS thread, seed 11, median of
    10 realizations; the table's CPU per sample holds a tenth of its build
    (the smallest default estimate takes 10 samples), peak RSS is that of a
    fresh process:

        h   width  entries  process       table            solve_w1
        5   100    0.36 M   matern2 0.4    32 ms,  56 MB    83 ms,  92 MB
        5   100    0.36 M   hardcore 0.9   61 ms,  76 MB    88 ms,  90 MB
        10  25     0.34 M   hardcore 0.9   19 ms,  51 MB    25 ms,  69 MB
        20  7      0.36 M   hardcore 0.9    8 ms,  46 MB    12 ms,  67 MB
        5   110    0.40 M   hardcore 0.9   81 ms,  83 MB    84 ms,  94 MB
        10  30     0.41 M   hardcore 0.9   37 ms,  55 MB    27 ms,  70 MB
        20  14     0.73 M   hardcore 0.9   32 ms,  58 MB    31 ms,  69 MB
        5   200    0.73 M   hardcore 0.9  353 ms, 148 MB   214 ms, 136 MB

    The first losing row holds 0.406 M entries, and MAX_ENTRIES sits under
    it: at dx 0.2 a table cell is at most 109.6 wide at h 5, 29.4 at h 10
    and 7.6 at h 20.
    """

    ALPHA = 1.0
    MAX_ENTRIES = 400_000

    def __init__(self, cfg: CorrectorConfig) -> None:
        grid = self.grid = cfg.cell_grid()
        nx, ny = grid.nx, grid.ny
        self.jump, self.shift = cfg.jump_row, cfg.H - cfg.jump_row * grid.dy
        rows = self.rows(cfg, grid)
        strip = strip_at(grid, rows - 1)
        # modes 0..nx//2 only: the per-mode operators are real and even in the mode
        # index, so irfft of their inverses gives G
        lam = dtn_multipliers(DtnSpec(), grid.width, nx)[:nx // 2 + 1].real
        lam[0] = self.ALPHA
        d = strip.c + 2.0 * strip.lat * np.cos(2.0 * np.pi * np.arange(len(lam)) / nx)
        self.g0 = np.linalg.inv(_mode_operators(grid, strip, d[:1], lam[:1], ny)[0])
        self.g = np.fft.irfft(np.linalg.inv(_mode_operators(grid, strip, d, lam, rows)),
                              n=nx, axis=0)

    @staticmethod
    def rows(cfg: CorrectorConfig, grid: Grid) -> int:
        """J + 1 = ceil(h/dy) + 2, the rows of g; every row when fewer than two
        rows above J are left to eliminate."""
        rows = math.ceil(cfg.layer.h / grid.dy) + 2
        return grid.ny if rows > grid.ny - 2 else rows

    @classmethod
    def build(cls, cfg: CorrectorConfig) -> _GreenTable | None:
        """The table of cfg's cell, or None when g would hold more than
        MAX_ENTRIES entries; an allocation failure raises FactorTooLarge."""
        grid = cfg.cell_grid()
        if grid.nx * cls.rows(cfg, grid) ** 2 > cls.MAX_ENTRIES:
            return None
        try:
            return cls(cfg)
        except MemoryError as exc:
            raise FactorTooLarge("no memory for the Green's table of the corrector cell") from exc

    def c1(self, mask: np.ndarray) -> float:
        """The c1 sample of the realization with particle mask `mask`.

        An empty ring raises SingularSystem (the true operator then has a
        constant kernel), a dense-solve relative residual above solver.TOL
        or a non-finite one NoConvergence, and an allocation failure
        FactorTooLarge.
        """
        free = ~mask
        ring = np.zeros_like(mask)  # rows 0 and ny-1 hold no particle node
        ring[1:-1] = mask[1:-1] & (free[:-2] | free[2:] | np.roll(free[1:-1], 1, axis=1)
                                   | np.roll(free[1:-1], -1, axis=1))
        j, i = np.nonzero(ring)
        n, nx = len(j), self.grid.nx
        if n == 0:
            raise SingularSystem("no particle node: the injected flux has no outlet")
        g0, top, jump = self.g0, self.grid.ny - 1, self.jump
        try:
            m = np.empty((n + 1, n + 1))
            # G_RR; i - i' lies in (-nx, nx), so a negative index wraps once, and
            # int32 holds it (nx < 2**31) in half the D x D index of intp
            i = i.astype(np.int32)
            m[:n, :n] = self.g[i[:, None] - i, j[:, None], j]
            m[:n, n] = self.ALPHA * g0[j, top]  # ALPHA (G 1_top)_R
            m[n, :n] = g0[top, j] / nx  # mean_top(G e_r)
            m[n, n] = self.ALPHA * g0[top, top] - 1.0
            rhs = -np.append(g0[j, jump], g0[top, jump]) / self.grid.dy  # -(G f), f = 1/dy
            x = np.linalg.solve(m, rhs)
        except MemoryError as exc:
            raise FactorTooLarge(f"no memory for the {n + 1}-unknown capacitance system") from exc
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"capacitance system: {exc}") from exc
        res = float(np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs))
        if not res <= TOL:  # also a non-finite solution
            raise NoConvergence(f"capacitance residual {res:.3e} above tol {TOL:.1e}")
        return x[-1].item() + self.shift


def _mode_operators(grid: Grid, strip: Strip, d: np.ndarray, lam: np.ndarray,
                    rows: int) -> np.ndarray:
    """Rows and columns 0..rows-1 of the empty cell's W1 operator in each
    lateral mode, shape (len(d), rows, rows): the top row with its multiplier
    when rows == ny, else the strip above row rows-1 eliminated onto it.

    d is the per-mode diagonal of the five-point rows and lam the top row's
    multipliers; the row coefficients are `assemble`'s (`strip_at`,
    `bottom_row` at k = 0).
    """
    ny = grid.ny
    a = np.zeros((len(d), rows, rows))
    k = np.arange(1, rows - 1)
    a[:, k, k - 1] = a[:, k, k + 1] = strip.b
    a[:, k, k] = d[:, None]
    a[:, 0, :3] = bottom_row(grid)
    if rows == ny:
        a[:, -1, -3:-1] = strip.t2, strip.t1
        a[:, -1, -1] = strip.t0 + lam
    else:
        a[:, -1, -2] = strip.b
        a[:, -1, -1] = d + strip.b * sweep_strip(strip, ny, d, lam)[1][0]
    return a


def map_realizations(fn: Callable[[int], object], n: int, threads: int) -> list:
    """[fn(0), ..., fn(n-1)] in index order, on `threads` worker threads when
    > 1 and there are two calls or more.

    Worth it only for calls that release the GIL for most of their time, as
    SuperLU does: `estimate_c1` fans out the `solve_w1` samples of a cell
    too large for a Green's table through it, `run_sweep` its reference
    solves.
    """
    if threads > 1 and n > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(n)))
    return [fn(j) for j in range(n)]


def c1_sampler(cfg: CorrectorConfig) -> tuple[Callable[[ParticleConfiguration], float], bool]:
    """(sample, tabled): the c1 sample of one realization of cfg's cell, and
    whether it comes from the Green's table.

    The one choice of a W1 path for a c1 value, made once per cell from the
    table's size: the capacitance solve on the cell's `_GreenTable` when
    that holds at most `_GreenTable.MAX_ENTRIES` entries, else `solve_w1`.
    An empty realization raises SingularSystem on both paths.
    """
    table = _GreenTable.build(cfg)
    if table is None:
        return (lambda config: solve_w1(cfg, config).c1), False
    return (lambda config: table.c1(classify_nodes(table.grid, config, scale=1.0))), True


def estimate_c1(cfg: CorrectorConfig, n_samples: int, master_seed: int,
                threads: int = 1) -> C1Estimate:
    """Monte-Carlo mean of the W1 trace average over independent realizations.

    Realization j always uses the RNG stream keyed by (master_seed, j), so
    the estimate is independent of worker count and scheduling order. Every
    sample of the cell takes the path `c1_sampler` chooses. On the Green's
    table, built here once and released on return, the samples run one after
    another on the calling thread: each is a few small numpy steps that hold
    the GIL, so threads would only add overhead. A cell too large for a
    table is solved by `solve_w1`, fanned out on `threads` worker threads
    (`map_realizations`), since SuperLU releases the GIL. Fails if more than
    10% of the samples are singular or non-convergent; an allocation failure
    raises FactorTooLarge and is no failed sample.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2 (std_err undefined otherwise)")
    sample, tabled = c1_sampler(cfg)

    def one(j: int) -> float | None:
        try:
            return sample(sample_matern(cfg.process, cfg.layer, master_seed, stream=j))
        except (SingularSystem, NoConvergence):
            return None

    raw = map_realizations(one, n_samples, 1 if tabled else threads)
    values = [v for v in raw if v is not None]
    n_fail = n_samples - len(values)
    if n_fail > 0.1 * n_samples:
        raise NumericalFailure(f"{n_fail}/{n_samples} corrector samples failed")
    arr = np.array(values)
    mean = float(arr.mean())
    std_err = float(arr.std(ddof=1) / math.sqrt(len(arr)))
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
    return C1Estimate(mean=mean, std_err=std_err, n_samples=len(arr),
                      cell_width=cfg.layer.width, history=tuple(history), n_failures=n_fail,
                      n_solve_w1=0 if tabled else n_samples)


def decay_profile(w1: CorrectorSolution, c1: float) -> list[tuple[float, float, float, float]]:
    """Per-line statistics of the corrector above the interface.

    Rows (y_d, lateral mean of (W1 - c1), lateral variance, lateral mean of
    |grad W1|^2) for every grid line strictly above the interface; the y
    derivative is one-sided on the top line.
    """
    fld = w1.field
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
