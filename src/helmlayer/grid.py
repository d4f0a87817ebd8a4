"""Uniform lateral-periodic grids, node classification, and modal closures.

The cell is [-width/2, width/2] x [0, top] with nx lateral nodes (periodic
wrap, dx = width/nx) and ny vertical lines (dy the requested spacing
exactly, the top rounded to a multiple of it). The grid knows no interface
lines: a caller picks rows itself (the W1 flux jump's is
`corrector.CorrectorConfig.jump_row`). The top line carries the
quasi-periodic Helmholtz Dirichlet-to-Neumann map (k >= 0; k = 0 is the
Laplace map of the W1 corrector) on every lateral mode, applied through
the phased lateral FFT (`LateralTransform`) that the solver shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDtnSpec, InvalidExtent, ParticleOutOfDomain
from .geometry import ParticleConfiguration, lateral_delta


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid over the lateral-periodic cell."""

    width: float
    top: float
    nx: int
    ny: int
    dx: float
    dy: float

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


def build_grid(width: float, top: float, target_dx: float) -> Grid:
    """Build a grid with dy = target_dx exactly and the top rounded to the
    nearest multiple of dy; dx = width/nx with nx = round(width/target_dx).
    """
    if width <= 0 or top <= 0 or target_dx <= 0:
        raise InvalidExtent("width, top, target_dx must be positive")
    nx = max(4, int(round(width / target_dx)))
    dy = target_dx
    ny = max(4, int(round(top / dy)) + 1)
    return Grid(width=width, top=(ny - 1) * dy, nx=nx, ny=ny, dx=width / nx, dy=dy)


def classify_nodes(grid: Grid, config: ParticleConfiguration | None,
                   scale: float = 1.0) -> np.ndarray:
    """Particle mask of shape (ny, nx): True on the nodes strictly inside a
    scaled disk, which become Dirichlet nodes.

    The staircase rule uses the periodic lateral metric, so disks straddling
    the seam mark nodes on both sides. Raises if any scaled disk is not
    strictly inside the vertical extent.
    """
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    if config is None or config.is_empty:
        return mask
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
    dxp = lateral_delta(x0 + i * grid.dx - cx, grid.width)
    dyp = j * grid.dy - cy
    inside = (dxp * dxp + dyp * dyp < r2) & (j <= j_hi) & (i <= i_hi)
    rows, cols = np.broadcast_arrays(j, np.mod(i, grid.nx))
    mask[rows[inside], cols[inside]] = True
    return mask


@dataclass(frozen=True)
class DtnSpec:
    """Modal Dirichlet-to-Neumann closure on the top line, on every lateral mode.

    beta_m^2 = k^2 - zeta_m^2 with zeta_m = 2 m pi/width + k1; the top row
    keeps outgoing propagating modes (-i beta_m) and vertically decaying
    evanescent modes (-sqrt(zeta_m^2 - k^2)). k = 0 is the static (Laplace)
    limit of the W1 corrector: -sqrt(zeta_m^2), which is -2|m|pi/width at
    k1 = 0. k1 is the quasi-momentum of the assembled system, seam phase
    included.
    """

    k: float = 0.0
    k1: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.k < math.inf:
            raise InvalidDtnSpec(f"the closure needs a finite k >= 0, not {self.k!r}")
        if not math.isfinite(self.k1):
            raise InvalidDtnSpec(f"the closure needs a finite k1, not {self.k1!r}")


def dtn_multipliers(spec: DtnSpec, width: float, nx: int) -> np.ndarray:
    """Multipliers Lambda_m of all nx lateral modes, in numpy FFT ordering.

    These are the eigenvalues of the operator Lambda in the assembled top
    rows -du/dy + Lambda u = g: Lambda phi_m = -i beta_m phi_m on
    propagating modes, -sqrt(zeta_m^2 - k^2) phi_m on evanescent ones.
    """
    m = np.arange(nx)
    m[m > nx // 2] -= nx
    zeta = 2.0 * np.pi * m / width + spec.k1
    rad = spec.k * spec.k - zeta * zeta
    prop = rad >= 0.0
    lam = np.empty(nx, dtype=complex)
    lam[prop] = -1j * np.sqrt(rad[prop])
    lam[~prop] = -np.sqrt(-rad[~prop])
    return lam


class LateralTransform:
    """Rows (last axis) of nx lateral nodes x = -width/2 + l width/nx divided by
    exp(i k1 x) and FFT'd (`to_modes`), and back (`from_modes`). The phase is
    computed once; at k1 = 0 it is 1 +- 0j, exact to divide and multiply by."""

    def __init__(self, width: float, nx: int, k1: float) -> None:
        self.phase = np.exp(1j * k1 * (-width / 2.0 + (width / nx) * np.arange(nx)))

    def to_modes(self, rows: np.ndarray) -> np.ndarray:
        return np.fft.fft(rows / self.phase, axis=-1)

    def from_modes(self, hat: np.ndarray) -> np.ndarray:
        rows = np.fft.ifft(hat, axis=-1)
        rows *= self.phase
        return rows


def dtn_apply(spec: DtnSpec, width: float, trace: np.ndarray) -> np.ndarray:
    """Apply the modal map to a top-line trace, mode by mode."""
    nx = len(trace)
    lateral = LateralTransform(width, nx, spec.k1)
    return lateral.from_modes(dtn_multipliers(spec, width, nx) * lateral.to_modes(trace))


def circulant_offsets(nx: int, half_width: int | None = None) -> np.ndarray:
    """Wrapped offsets |o| <= half_width of an nx-wide circulant, clamped to
    (nx - 1) // 2 so that none alias modulo nx; None keeps all nx offsets."""
    if half_width is None:
        return np.arange(nx) - (nx - 1) // 2
    w = min(half_width, (nx - 1) // 2)
    return np.arange(-w, w + 1)


def quasi_mode(width: float, nx: int, m: int, k1: float = 0.0) -> np.ndarray:
    """Discrete quasi-periodic mode (1/sqrt(width)) exp(i (2 m pi/width + k1) x)."""
    return LateralTransform(width, nx, 2.0 * np.pi * m / width + k1).phase / math.sqrt(width)
