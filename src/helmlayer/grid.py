"""Uniform lateral-periodic grids, node classification, and modal closures.

The cell is [-width/2, width/2] x [0, top] with nx lateral nodes (periodic
wrap, dx = width/nx) and ny vertical lines (dy fixed by the requested
spacing, so every requested interface height lands exactly on a grid line
after snapping). The top line carries a modal Dirichlet-to-Neumann map
(periodic Laplace or quasi-periodic Helmholtz) on every lateral mode,
applied through lateral FFTs.
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
    # every disk at once, over its box of rows j_lo..j_hi and columns
    # i_lo..i_hi (one spare column each side), boxes padded to the largest
    x0 = -grid.width / 2.0
    r2 = radius * radius
    cx, cy = centers[:, :1, None], centers[:, 1:, None]
    j_lo = np.maximum(0, np.floor((cy - radius) / grid.dy)).astype(np.int64)
    j_hi = np.minimum(grid.ny - 1, np.ceil((cy + radius) / grid.dy)).astype(np.int64)
    i_c = (cx - x0) / grid.dx
    half_w = radius / grid.dx + 1.0
    i_lo = np.floor(i_c - half_w).astype(np.int64)
    i_hi = np.ceil(i_c + half_w).astype(np.int64)
    j = j_lo + np.arange(int((j_hi - j_lo).max()) + 1)[:, None]
    i = i_lo + np.arange(int((i_hi - i_lo).max()) + 1)
    dxp = lateral_delta(x0 + i * grid.dx - cx, grid.width, periodic=True)
    dyp = j * grid.dy - cy
    inside = (dxp * dxp + dyp * dyp < r2) & (j <= j_hi) & (i <= i_hi)
    rows, cols = np.broadcast_arrays(j, np.mod(i, grid.nx))
    tags[rows[inside], cols[inside]] = NodeClass.PARTICLE_DIRICHLET
    return tags


DTN_KINDS = ("laplace_periodic", "helmholtz_quasiperiodic")


@dataclass(frozen=True)
class DtnSpec:
    """Modal Dirichlet-to-Neumann closure on the top line, on every lateral mode.

    laplace_periodic: eigenvalues lambda_m = 2|m|pi/width on periodic modes
    (k1 must be 0).
    helmholtz_quasiperiodic: beta_m^2 = k^2 - (2 m pi/width + k1)^2; the top
    row keeps outgoing propagating modes (-i beta_m) and vertically decaying
    evanescent modes (-sqrt(...)).
    k1 is the quasi-momentum of the assembled system, seam phase included.
    """

    kind: str
    k: float = 0.0
    k1: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in DTN_KINDS:
            raise InvalidDtnSpec(f"unknown DtN kind {self.kind!r}")
        if self.kind == "helmholtz_quasiperiodic" and self.k <= 0:
            raise InvalidDtnSpec("helmholtz closure needs k > 0")
        if self.kind == "laplace_periodic" and self.k1 != 0.0:
            raise InvalidDtnSpec("the periodic Laplace closure has no quasi-momentum k1")


def dtn_multipliers(spec: DtnSpec, width: float, nx: int) -> np.ndarray:
    """Multipliers Lambda_m of all nx lateral modes, in numpy FFT ordering.

    These are the eigenvalues of the operator Lambda appearing in the
    assembled top rows: du/dy + Lambda u = 0 for the Laplace closure
    (Lambda phi_m = 2|m|pi/width phi_m) and -du/dy + Lambda u = g for the
    Helmholtz closure (Lambda phi_m = -i beta_m phi_m on propagating modes,
    -sqrt(zeta_m^2 - k^2) phi_m on evanescent ones).
    """
    m = np.arange(nx)
    m[m > nx // 2] -= nx
    if spec.kind == "laplace_periodic":
        return (2.0 * np.abs(m) * np.pi / width).astype(complex)
    zeta = 2.0 * np.pi * m / width + spec.k1
    rad = spec.k * spec.k - zeta * zeta
    prop = rad >= 0.0
    lam = np.empty(nx, dtype=complex)
    lam[prop] = -1j * np.sqrt(rad[prop])
    lam[~prop] = -np.sqrt(-rad[~prop])
    return lam


def dtn_apply(spec: DtnSpec, width: float, trace: np.ndarray) -> np.ndarray:
    """Apply the modal map to a top-line trace.

    For the quasi-periodic closure the trace is phase-shifted by
    exp(-i k1 x) to a periodic signal, filtered per mode, and shifted back.
    """
    trace = np.asarray(trace, dtype=complex)
    nx = len(trace)
    lam = dtn_multipliers(spec, width, nx)
    if spec.k1 != 0.0:
        x_nodes = -width / 2.0 + (width / nx) * np.arange(nx)
        phase = np.exp(1j * spec.k1 * x_nodes)
        return phase * np.fft.ifft(lam * np.fft.fft(trace / phase))
    return np.fft.ifft(lam * np.fft.fft(trace))


def circulant_offsets(nx: int, half_width: int | None = None) -> np.ndarray:
    """Wrapped offsets |o| <= half_width of an nx-wide circulant, clamped to
    (nx - 1) // 2 so that none alias modulo nx; None keeps all nx offsets."""
    if half_width is None:
        return np.arange(nx) - (nx - 1) // 2
    w = min(half_width, (nx - 1) // 2)
    return np.arange(-w, w + 1)


def quasi_mode(width: float, nx: int, m: int, k1: float = 0.0) -> np.ndarray:
    """Discrete quasi-periodic mode (1/sqrt(width)) exp(i (2 m pi/width + k1) x)."""
    x = -width / 2.0 + (width / nx) * np.arange(nx)
    return np.exp(1j * (2.0 * np.pi * m / width + k1) * x) / math.sqrt(width)
