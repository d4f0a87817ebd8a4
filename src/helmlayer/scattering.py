"""Quasi-periodic reference scattering and closed-form reflection models.

The reference problem is the plane-wave-forced Helmholtz solve on the
period cell [-T/2, T/2] x (0, L) minus the epsilon-scaled particles, with
the absorbing Robin plane at the bottom and the quasi-periodic modal
closure, on every lateral mode, at the top. Conventions follow the incident
wave u_inc = exp(i(k1 x1 + k2 x2)): the specular reflected mode is the
coefficient of exp(i(k1 x1 - k2 x2)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .assemble import assemble
from .errors import PassivityViolation, ResolutionTooCoarse, ShapeMismatch
from .geometry import LayerSpec, ParticleConfiguration
from .grid import DtnSpec, Grid, build_grid, classify_nodes
from .solver import solve

PASSIVITY_SLACK = 1e-6
MIN_NODES_PER_DIAMETER = 8


@dataclass(frozen=True)
class PlaneWave:
    """Incident plane wave exp(i(k1 x1 + k2 x2)) with k1 = k sin(theta)."""

    k: float
    theta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.k < math.inf:
            raise ValueError(f"wavenumber k must be positive and finite, not {self.k!r}")
        if not -math.pi / 2 < self.theta < math.pi / 2:
            raise ValueError("incidence angle must lie in (-pi/2, pi/2)")

    @property
    def k1(self) -> float:
        return self.k * math.sin(self.theta)

    @property
    def k2(self) -> float:
        return self.k * math.cos(self.theta)


@dataclass(frozen=True)
class ScatteringScene:
    """Epsilon-scaled reference problem on one particle realization.

    The configuration is normalized (unit disks); at solve time centers and
    radii are scaled by epsilon. The impedance plane of the effective models
    sits at epsilon*H; L is the artificial top with L > epsilon*H.
    """

    epsilon: float
    H: float
    layer: LayerSpec
    gamma: complex
    period: float
    L: float
    config: ParticleConfiguration

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not (self.gamma.real > 0 and cmath.isfinite(self.gamma)):
            raise ValueError(f"need a finite gamma with Re(gamma) > 0 (absorbing plane), "
                             f"not {self.gamma!r}")
        if not self.epsilon * self.layer.h < self.epsilon * self.H < self.L:
            raise ValueError("need eps*h < eps*H < L")

    def grid(self, target_dx: float) -> Grid:
        """Reference grid on the period cell."""
        return build_grid(self.period, self.L, target_dx)


def extract_reflection(field_trace_on_L: np.ndarray, wave: PlaneWave, L: float,
                       T: float) -> complex:
    """Mode-matched specular reflection from the top-line trace.

    r = (exp(i k2 L)/T) * integral of (u - u_inc)(x, L) exp(-i k1 x) dx with
    the periodic trapezoidal rule (uniform nodes, so equal weights).
    """
    trace = np.asarray(field_trace_on_L, dtype=complex)
    if trace.ndim != 1 or len(trace) < 2:
        raise ShapeMismatch("need the full one-dimensional top-line trace")
    nx = len(trace)
    dx = T / nx
    x = -T / 2.0 + dx * np.arange(nx)
    u_inc = np.exp(1j * (wave.k1 * x + wave.k2 * L))
    integral = np.sum((trace - u_inc) * np.exp(-1j * wave.k1 * x)) * dx
    return complex(np.exp(1j * wave.k2 * L) / T * integral)


def reference_solve(scene: ScatteringScene, wave: PlaneWave,
                    target_dx: float) -> tuple[np.ndarray, complex]:
    """Solve the reference problem and extract the reflection coefficient.

    Robin at the bottom with coefficient i k gamma, Dirichlet on the scaled
    particles, quasi-periodic modal closure at the top forced by the
    incident wave (-du_inc/dy + Lambda u_inc = -2 i k2 u_inc on the trace).
    Raises ResolutionTooCoarse below 8 nodes per scaled particle diameter
    and PassivityViolation if |r| exceeds 1 + 1e-6.
    """
    min_dx = 2.0 * scene.epsilon / MIN_NODES_PER_DIAMETER
    if not scene.config.is_empty and target_dx > min_dx * (1.0 + 1e-12):
        raise ResolutionTooCoarse(
            f"target_dx={target_dx} exceeds {min_dx} (8 nodes per particle diameter)"
        )
    grid = scene.grid(target_dx)
    mask = classify_nodes(grid, scene.config, scale=scene.epsilon)
    dtn = DtnSpec(k=wave.k, k1=wave.k1)
    x = grid.x_nodes()
    inc_trace = np.exp(1j * (wave.k1 * x + wave.k2 * grid.top))
    forcing = -2j * wave.k2 * inc_trace
    system = assemble(grid, mask, dtn, gamma=scene.gamma, top_forcing=forcing)
    sol, _ = solve(system)
    fld = sol.reshape(grid.ny, grid.nx)
    r = extract_reflection(fld[-1], wave, grid.top, scene.period)
    if abs(r) > 1.0 + PASSIVITY_SLACK:  # the scene's Re(gamma) > 0 makes the plane absorbing
        raise PassivityViolation(f"|r| = {abs(r):.8f} for an absorbing plane")
    return fld, r


def effective_reflection(order: int, wave: PlaneWave, epsilon: float, H: float,
                         c1: float | None = None) -> complex:
    """Closed-form reflection of the effective models.

    order 1: r = -exp(2 i k2 eps H) (conducting plane at eps*H).
    order 2: r = ((i k2 eps c1 - 1)/(i k2 eps c1 + 1)) exp(2 i k2 eps H).
    """
    phase = np.exp(2j * wave.k2 * epsilon * H)
    if order == 1:
        return complex(-phase)
    if order == 2:
        if c1 is None or not math.isfinite(c1):
            raise ValueError("order-2 model needs a finite c1")
        x = 1j * wave.k2 * epsilon * c1
        return complex((x - 1.0) / (x + 1.0) * phase)
    raise ValueError("order must be 1 or 2")


def farfield_reflection(wave: PlaneWave, epsilon: float, H: float,
                        c1: float) -> complex:
    """Reflection of the truncated far-field sum u0 + eps*u1.

    u0 reflects off a Dirichlet plane at eps*H; u1 carries the Dirichlet
    datum c1 * du0/dy there, adding eps * c1 * 2 i k2 * exp(2 i k2 eps H).
    Agrees with the order-2 model to O(eps^2).
    """
    if not math.isfinite(c1):
        raise ValueError("c1 must be finite")
    phase = np.exp(2j * wave.k2 * epsilon * H)
    return complex(-phase + epsilon * c1 * 2j * wave.k2 * phase)


def robin_halfspace_reflection(wave: PlaneWave, gamma: complex) -> complex:
    """Exact specular reflection of the bare Robin plane: (k2 - k g)/(k2 + k g)."""
    return (wave.k2 - wave.k * gamma) / (wave.k2 + wave.k * gamma)


def export_field_csv(field: np.ndarray, grid: Grid, path) -> None:
    """CSV rows (x, y, Re u, Im u) over the grid, for external plotting."""
    xs = grid.x_nodes()
    ys = grid.y_nodes()
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,re_u,im_u\n")
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                v = field[j, i]
                fh.write(f"{float(x)!r},{float(y)!r},{float(v.real)!r},{float(v.imag)!r}\n")
