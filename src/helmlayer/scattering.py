"""Quasi-periodic reference scattering and closed-form reflection models.

The reference problem is the plane-wave-forced Helmholtz solve on the
period cell [-T/2, T/2] x (0, L) minus the epsilon-scaled particles, with
the absorbing Robin plane at the bottom and the quasi-periodic modal
closure, on every lateral mode, at the top. Conventions follow the incident
wave u_inc = exp(i(k1 x1 + k2 x2)): the specular reflected mode is the
coefficient of exp(i(k1 x1 - k2 x2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assemble import Sources, assemble
from .errors import PassivityViolation, ResolutionTooCoarse, ShapeMismatch
from .geometry import LayerSpec, ParticleConfiguration
from .grid import DtnSpec, Grid, build_grid, classify_nodes
from .solver import solve

PASSIVITY_SLACK = 1e-6
MIN_NODES_PER_DIAMETER = 8

REFLECTION_KINDS = ("reference", "order1", "order2", "farfield_sum")


@dataclass(frozen=True)
class PlaneWave:
    """Incident plane wave exp(i(k1 x1 + k2 x2)) with k1 = k sin(theta)."""

    k: float
    theta: float

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("wavenumber k must be positive")
        if not -math.pi / 2 < self.theta < math.pi / 2:
            raise ValueError("incidence angle must lie in (-pi/2, pi/2)")

    @property
    def k1(self) -> float:
        return self.k * math.sin(self.theta)

    @property
    def k2(self) -> float:
        return self.k * math.cos(self.theta)


@dataclass(frozen=True)
class ReflectionCoefficient:
    value: complex
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in REFLECTION_KINDS:
            raise ValueError(f"unknown reflection kind {self.kind!r}")

    @property
    def magnitude(self) -> float:
        return abs(self.value)


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
        if self.gamma.real <= 0:
            raise ValueError("need Re(gamma) > 0 (absorbing plane)")
        if not self.epsilon * self.layer.h < self.epsilon * self.H < self.L:
            raise ValueError("need eps*h < eps*H < L")

    def grid(self, target_dx: float) -> Grid:
        """Reference grid on the period cell, snapped to the plane at epsilon*H."""
        return build_grid(self.period, self.L, target_dx,
                          interface_heights=(self.epsilon * self.H,))

    def wrap_phase(self, wave: PlaneWave) -> complex:
        """Recorded quasi-periodicity phase exp(i k1 T)."""
        return complex(np.exp(1j * wave.k1 * self.period))


def extract_reflection(field_trace_on_L: np.ndarray, wave: PlaneWave, L: float,
                       T: float) -> ReflectionCoefficient:
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
    value = np.exp(1j * wave.k2 * L) / T * integral
    return ReflectionCoefficient(complex(value), "reference")


def reference_solve(scene: ScatteringScene, wave: PlaneWave,
                    target_dx: float) -> tuple[np.ndarray, ReflectionCoefficient]:
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
    tags = classify_nodes(grid, scene.config, scale=scene.epsilon)
    dtn = DtnSpec(kind="helmholtz_quasiperiodic", k=wave.k, k1=wave.k1)
    x = grid.x_nodes()
    inc_trace = np.exp(1j * (wave.k1 * x + wave.k2 * grid.top))
    forcing = -2j * wave.k2 * inc_trace
    system = assemble(grid, tags, problem_kind="helmholtz", bottom="robin", dtn=dtn,
                      k=wave.k, gamma=scene.gamma, sources=Sources(top_forcing=forcing))
    sol, _ = solve(system)
    fld = sol.reshape(grid.ny, grid.nx)
    refl = extract_reflection(fld[-1], wave, grid.top, scene.period)
    if scene.gamma.real > 0 and refl.magnitude > 1.0 + PASSIVITY_SLACK:
        raise PassivityViolation(f"|r| = {refl.magnitude:.8f} for an absorbing plane")
    return fld, refl


def effective_reflection(order: int, wave: PlaneWave, epsilon: float, H: float,
                         c1: float | None = None) -> ReflectionCoefficient:
    """Closed-form reflection of the effective models.

    order 1: r = -exp(2 i k2 eps H) (conducting plane at eps*H).
    order 2: r = ((i k2 eps c1 - 1)/(i k2 eps c1 + 1)) exp(2 i k2 eps H).
    """
    phase = np.exp(2j * wave.k2 * epsilon * H)
    if order == 1:
        return ReflectionCoefficient(complex(-phase), "order1")
    if order == 2:
        if c1 is None or not math.isfinite(c1):
            raise ValueError("order-2 model needs a finite c1")
        x = 1j * wave.k2 * epsilon * c1
        return ReflectionCoefficient(complex((x - 1.0) / (x + 1.0) * phase), "order2")
    raise ValueError("order must be 1 or 2")


def farfield_reflection(wave: PlaneWave, epsilon: float, H: float,
                        c1: float) -> ReflectionCoefficient:
    """Reflection of the truncated far-field sum u0 + eps*u1.

    u0 reflects off a Dirichlet plane at eps*H; u1 carries the Dirichlet
    datum c1 * du0/dy there, adding eps * c1 * 2 i k2 * exp(2 i k2 eps H).
    Agrees with the order-2 model to O(eps^2).
    """
    if not math.isfinite(c1):
        raise ValueError("c1 must be finite")
    phase = np.exp(2j * wave.k2 * epsilon * H)
    value = -phase + epsilon * c1 * 2j * wave.k2 * phase
    return ReflectionCoefficient(complex(value), "farfield_sum")


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
