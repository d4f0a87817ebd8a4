"""Uniform lateral-periodic grids, node classification, and modal closures.

The cell is [-width/2, width/2] x [0, top] with nx lateral nodes (periodic
wrap, dx = width/nx) and ny vertical lines (dy fixed by the requested
spacing, so every requested interface height lands exactly on a grid line
after snapping). The top line carries a truncated modal map (periodic
Laplace or quasi-periodic Helmholtz) applied through lateral FFTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import InvalidDtnSpec, InvalidExtent, ParticleOutOfDomain
from .geometry import ParticleConfiguration, lateral_delta


class NodeClass(IntEnum):
    INTERIOR = 0
    PARTICLE_DIRICHLET = 1
    BOTTOM_BOUNDARY = 2
    TOP_DTN = 3


@dataclass(frozen=True)
class SnapReport:
    """Requested interface height, the grid line it snapped to, and the move."""

    requested: float
    snapped: float
    j_index: int
    distance: float


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid over the lateral-periodic cell."""

    width: float
    top: float
    nx: int
    ny: int
    dx: float
    dy: float
    snaps: tuple[SnapReport, ...] = ()

    def __post_init__(self) -> None:
        if self.dx <= 0 or self.dy <= 0:
            raise InvalidExtent("grid spacings must be positive")
        ratio = self.dx / self.dy
        if not 0.5 <= ratio <= 2.0:
            raise InvalidExtent(f"aspect guard: dx/dy = {ratio:.3f} outside [0.5, 2]")
        if self.nx < 4 or self.ny < 4:
            raise InvalidExtent("need at least 4 nodes per direction")

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    def x_nodes(self) -> np.ndarray:
        return -self.width / 2.0 + self.dx * np.arange(self.nx)

    def y_nodes(self) -> np.ndarray:
        return self.dy * np.arange(self.ny)

    def j_of_height(self, height: float) -> int:
        """Grid line index of a snapped interface height."""
        j = int(round(height / self.dy))
        if not 0 <= j < self.ny:
            raise InvalidExtent(f"height {height} outside the grid")
        if abs(j * self.dy - height) > 1e-9 * max(1.0, abs(height)):
            from .errors import UnsnappedInterface

            raise UnsnappedInterface(f"height {height} is not a grid line (dy={self.dy})")
        return j


def build_grid(width: float, top: float, target_dx: float,
               interface_heights: tuple[float, ...] | list[float] = ()) -> Grid:
    """Build a grid with every interface height snapped to a grid line.

    dy is the requested spacing exactly; the top and all interface heights
    are rounded to the nearest multiple of dy (snap distances recorded, all
    below dy/2). dx = width/nx with nx = round(width/target_dx).
    """
    if width <= 0 or top <= 0 or target_dx <= 0:
        raise InvalidExtent("width, top, target_dx must be positive")
    nx = max(4, int(round(width / target_dx)))
    dx = width / nx
    dy = target_dx
    ny = max(4, int(round(top / dy)) + 1)
    snaps = []
    for h_req in interface_heights:
        j = int(round(h_req / dy))
        snapped = j * dy
        snaps.append(SnapReport(float(h_req), snapped, j, abs(snapped - h_req)))
    grid = Grid(width=width, top=(ny - 1) * dy, nx=nx, ny=ny, dx=dx, dy=dy,
                snaps=tuple(snaps))
    for s in grid.snaps:
        if not 0 < s.j_index < grid.ny:
            raise InvalidExtent(f"interface {s.requested} outside the grid")
    return grid


def classify_nodes(grid: Grid, config: ParticleConfiguration | None,
                   scale: float = 1.0) -> np.ndarray:
    """Tag every node; nodes strictly inside a scaled disk become Dirichlet.

    The staircase rule uses the periodic lateral metric, so disks straddling
    the seam tag nodes on both sides. Raises if any scaled disk is not
    strictly inside the vertical extent.
    """
    tags = np.full((grid.ny, grid.nx), NodeClass.INTERIOR, dtype=np.int8)
    tags[0, :] = NodeClass.BOTTOM_BOUNDARY
    tags[-1, :] = NodeClass.TOP_DTN
    if config is None or config.is_empty:
        return tags
    radius = scale
    centers = config.centers * scale
    if np.any(centers[:, 1] - radius <= 0.0) or np.any(centers[:, 1] + radius >= grid.top):
        raise ParticleOutOfDomain("scaled disk not strictly inside the grid")
    x0 = -grid.width / 2.0
    r2 = radius * radius
    for cx, cy in centers:
        j_lo = max(0, int(math.floor((cy - radius) / grid.dy)))
        j_hi = min(grid.ny - 1, int(math.ceil((cy + radius) / grid.dy)))
        i_c = (cx - x0) / grid.dx
        half_w = radius / grid.dx + 1.0
        i_range = np.arange(int(math.floor(i_c - half_w)), int(math.ceil(i_c + half_w)) + 1)
        i_idx = np.mod(i_range, grid.nx)
        xs = x0 + i_range * grid.dx
        dxp = lateral_delta(xs - cx, grid.width, periodic=True)
        for j in range(j_lo, j_hi + 1):
            dyp = j * grid.dy - cy
            inside = dxp * dxp + dyp * dyp < r2
            tags[j, i_idx[inside]] = NodeClass.PARTICLE_DIRICHLET
    return tags


DTN_KINDS = ("laplace_periodic", "helmholtz_quasiperiodic")


@dataclass(frozen=True)
class DtnSpec:
    """Truncated modal boundary closure on the top line.

    laplace_periodic: eigenvalues lambda_m = 2|m|pi/width on periodic modes
    (k1 must be 0).
    helmholtz_quasiperiodic: beta_m^2 = k^2 - (2 m pi/width + k1)^2; the top
    row keeps outgoing propagating modes (-i beta_m) and vertically decaying
    evanescent modes (-sqrt(...)).
    k1 is the quasi-momentum of the assembled system, seam phase included.
    """

    kind: str
    n_modes: int
    k: float = 0.0
    k1: float = 0.0
    eta: float = 1e-6

    def __post_init__(self) -> None:
        if self.kind not in DTN_KINDS:
            raise InvalidDtnSpec(f"unknown DtN kind {self.kind!r}")
        if self.n_modes < 0:
            raise InvalidDtnSpec("n_modes must be >= 0")
        if self.kind == "helmholtz_quasiperiodic" and self.k <= 0:
            raise InvalidDtnSpec("helmholtz closure needs k > 0")
        if self.kind == "laplace_periodic" and self.k1 != 0.0:
            raise InvalidDtnSpec("the periodic Laplace closure has no quasi-momentum k1")


def choose_n_modes(dtn_kind: str, k: float, k1: float, width: float, gap: float,
                   eta: float) -> int:
    """Minimal truncation order whose slowest kept-out mode decays below eta.

    laplace: smallest N with exp(-2 N pi gap / width) < eta.
    helmholtz: smallest N with exp(-sqrt((2 N pi/width + k1)^2 - k^2) gap) < eta.
    eta >= 1 means no decay is required and returns 0.
    """
    if dtn_kind not in DTN_KINDS:
        raise InvalidDtnSpec(f"unknown DtN kind {dtn_kind!r}")
    if gap <= 0:
        raise InvalidDtnSpec("gap must be positive")
    if eta <= 0:
        raise InvalidDtnSpec("eta must be positive")
    if eta >= 1.0:
        return 0
    if dtn_kind == "laplace_periodic":
        n = max(0, int(math.floor(width * math.log(1.0 / eta) / (2.0 * math.pi * gap))))
        while math.exp(-2.0 * n * math.pi * gap / width) >= eta:
            n += 1
        return n
    n = 0
    while True:
        zeta = 2.0 * n * math.pi / width + k1
        rad = zeta * zeta - k * k
        if rad > 0 and math.exp(-math.sqrt(rad) * gap) < eta:
            return n
        n += 1
        if n > 10_000_000:
            raise InvalidDtnSpec("truncation scan did not terminate")


def dtn_multipliers(spec: DtnSpec, width: float, nx: int) -> np.ndarray:
    """Per-mode multipliers Lambda_m in numpy FFT ordering, zero beyond N.

    These are the eigenvalues of the operator Lambda appearing in the
    assembled top rows: du/dy + Lambda u = 0 for the Laplace closure
    (Lambda phi_m = 2|m|pi/width phi_m) and -du/dy + Lambda u = g for the
    Helmholtz closure (Lambda phi_m = -i beta_m phi_m on propagating modes,
    -sqrt(zeta_m^2 - k^2) phi_m on evanescent ones).
    """
    m = np.arange(nx)
    m[m > nx // 2] -= nx
    lam = np.zeros(nx, dtype=complex)
    keep = np.abs(m) <= spec.n_modes
    if spec.kind == "laplace_periodic":
        lam[keep] = 2.0 * np.abs(m[keep]) * np.pi / width
        return lam
    zeta = 2.0 * np.pi * m / width + spec.k1
    rad = spec.k * spec.k - zeta * zeta
    prop = rad >= 0.0
    lam[keep & prop] = -1j * np.sqrt(rad[keep & prop])
    lam[keep & ~prop] = -np.sqrt(-rad[keep & ~prop])
    return lam


def dtn_apply(spec: DtnSpec, width: float, trace: np.ndarray,
              x_nodes: np.ndarray | None = None) -> np.ndarray:
    """Apply the truncated modal map to a top-line trace.

    For the quasi-periodic closure the trace is phase-shifted by
    exp(-i k1 x) to a periodic signal, filtered per mode, and shifted back.
    """
    trace = np.asarray(trace, dtype=complex)
    nx = len(trace)
    lam = dtn_multipliers(spec, width, nx)
    if spec.k1 != 0.0:
        if x_nodes is None:
            x_nodes = -width / 2.0 + (width / nx) * np.arange(nx)
        phase = np.exp(1j * spec.k1 * x_nodes)
        return phase * np.fft.ifft(lam * np.fft.fft(trace / phase))
    return np.fft.ifft(lam * np.fft.fft(trace))


def quasi_mode(width: float, nx: int, m: int, k1: float = 0.0) -> np.ndarray:
    """Discrete quasi-periodic mode (1/sqrt(width)) exp(i (2 m pi/width + k1) x)."""
    x = -width / 2.0 + (width / nx) * np.arange(nx)
    return np.exp(1j * (2.0 * np.pi * m / width + k1) * x) / math.sqrt(width)
