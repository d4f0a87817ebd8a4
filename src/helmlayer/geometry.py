"""Hard-core particle layers: Matérn sampling, distance fields, hypothesis checks.

Particles are unit-radius disks whose centers live in the slab
R x (0, h), periodic laterally with the cell width: every lateral
separation is wrapped into [-width/2, width/2]. Sampling is driven by
counter-based Philox streams so that the realization drawn for a given
(master_seed, index) pair never depends on execution order.

All pair and nearest-center work is one sort-and-sweep along the lateral
axis, O(N log N) in time and O(N) in memory for N points: the slab height is
O(1) while the width grows, so the points are sorted by lateral coordinate
(reduced into the cell, with images at +-width) and `searchsorted` yields,
for each query, the points within a lateral reach.
Every candidate is then re-checked with the exact formula (`lateral_delta`,
then dx*dx + dy*dy), so the results are those of comparing all pairs. A
nearest-center query takes as its reach the distance to the laterally
nearest center, which bounds the true nearest distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyConfiguration, InvalidLayer

VALID_PROCESS_KINDS = ("matern2", "hardcore_poisson")
# Largest Poisson parameter nu = rho * width * h / pi that a layer may have.
# At h = 5 a draw peaks at 240-360 bytes per expected point, so about 360 MB
# at the bound; the widest window of the benchmark draws about 1,300 points.
MAX_EXPECTED_PARTICLES = 1_000_000
# Largest expected number of candidate pairs nu^2 min(1, 2 (2+delta)/width)
# of the lateral sweep, which pairs every point with all points within 2+delta
# laterally, at any height. A tall layer's draw peaks at about 40 bytes per
# expected pair (h 50-500, tracemalloc), so about 400 MB at the bound; every
# layer within the count bound with (2+delta) * h <= 5 pi (h <= 7.6 at
# delta = 0.05) stays under it.
MAX_EXPECTED_PAIRS = 10_000_000


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent RNG stream for sample `index` under `master_seed`.

    Philox keyed by the pair, so parallel samplers can draw realization j
    without consuming state from any other realization.
    """
    key = np.array([np.uint64(master_seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class LayerSpec:
    """Normalized slab hosting unit-radius particles.

    Parameters
    ----------
    h : float
        Slab height; centers live in [1+delta, h-1], so h > 2 is required.
    delta : float
        Minimal gap between particles and to the slab faces.
    width : float
        Lateral period; lateral distances wrap modulo `width`.
    """

    h: float = 5.0
    delta: float = 0.05
    width: float = 50.0

    def __post_init__(self) -> None:
        for name in ("h", "delta", "width"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidLayer(f"layer {name}={getattr(self, name)} must be finite")
        if not self.h > 2.0:
            raise InvalidLayer(f"layer height h={self.h} must exceed 2 (unit-radius particles)")
        if self.delta < 0.0:
            raise InvalidLayer(f"gap delta={self.delta} must be >= 0")
        if not self.width > 2.0 * (1.0 + self.delta):
            raise InvalidLayer(f"width={self.width} must exceed 2*(1+delta)")

    @property
    def center_band(self) -> tuple[float, float]:
        """Admissible center heights [1+delta, h-1]."""
        return 1.0 + self.delta, self.h - 1.0

    @property
    def hardcore_distance(self) -> float:
        """Minimal center-to-center distance 2 + delta."""
        return 2.0 + self.delta


@dataclass(frozen=True)
class PointProcessParams:
    """Hard-core point process parameters.

    `rho` is the target area density of disks before thinning; the Poisson
    count parameter for a given layer is nu = rho * width * h / pi.
    """

    kind: str = "matern2"
    rho: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in VALID_PROCESS_KINDS:
            raise InvalidLayer(f"unknown process kind {self.kind!r}, expected one of {VALID_PROCESS_KINDS}")
        if not 0.0 <= self.rho < 1.0:
            raise InvalidLayer(f"density rho={self.rho} must lie in [0, 1)")

    def intensity(self, layer: LayerSpec) -> float:
        """Poisson parameter nu = rho * width * h / pi for unit disks; raises
        InvalidLayer above MAX_EXPECTED_PARTICLES, or when the expected
        candidate pairs of the lateral sweep exceed MAX_EXPECTED_PAIRS."""
        nu = self.rho * layer.width * layer.h / math.pi
        if not nu <= MAX_EXPECTED_PARTICLES:
            raise InvalidLayer(f"expected particle count {nu:.3g} exceeds "
                               f"{MAX_EXPECTED_PARTICLES:,} (rho * width * h / pi)")
        pairs = nu * nu * min(1.0, 2.0 * layer.hardcore_distance / layer.width)
        if not pairs <= MAX_EXPECTED_PAIRS:
            raise InvalidLayer(f"expected candidate pairs {pairs:.3g} exceed "
                               f"{MAX_EXPECTED_PAIRS:,} (a layer of height {layer.h} "
                               f"is too tall for rho * width)")
        return nu


def lateral_delta(dx: np.ndarray | float, width: float) -> np.ndarray | float:
    """Signed lateral separation, wrapped into [-width/2, width/2]."""
    return dx - width * np.rint(dx / width)


def _sq_distance(xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray,
                 width: float) -> np.ndarray:
    """Squared distance from a to b in the layer metric, elementwise."""
    dx = lateral_delta(xa - xb, width)
    dy = ya - yb
    return dx * dx + dy * dy


class _LateralSweep:
    """Points sorted by lateral coordinate, with their images at +-width.

    Keys are x reduced into [0, width]; a key difference equals the wrapped
    `lateral_delta` up to round-off, which the reach is padded by.
    """

    def __init__(self, x: np.ndarray, width: float) -> None:
        self.x, self.width = x, width
        key = np.mod(x, width)
        self.order = order = np.argsort(key)
        keys = key[order]
        self.keys = np.concatenate((keys - width, keys, keys + width))
        self.index = np.concatenate((order, order, order))
        self.pad = 1e-9 * (1.0 + width + np.abs(x).max(initial=0.0))

    def key(self, xq: np.ndarray) -> np.ndarray:
        return np.mod(xq, self.width)

    def candidates(self, xq: np.ndarray, reach: np.ndarray | float
                   ) -> tuple[np.ndarray, np.ndarray]:
        """(query, point) index pairs, query-major, of every point whose wrapped
        lateral separation from query q may be at most reach (scalar or per query)."""
        # no wrapped separation exceeds width/2: a wider window adds only images
        reach = np.minimum(reach, self.width / 2.0)
        reach = reach + (self.pad + 1e-9 * np.abs(xq).max(initial=0.0))
        k = self.key(xq)
        lo = self.keys.searchsorted(k - reach)
        counts = self.keys.searchsorted(k + reach, side="right") - lo
        q = np.arange(len(xq)).repeat(counts)
        first = (lo + counts - counts.cumsum()).repeat(counts)
        return q, self.index[first + np.arange(len(q))]

    def pairs(self, reach: float) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs (i, j), i < j, of the points whose lateral separation may
        be at most reach. A pair appears twice when found through two images
        (a width under twice the reach), which no caller minds."""
        q, p = self.candidates(self.x, reach)
        later = q < p
        return q[later], p[later]


def _close_pairs(points: np.ndarray, min_dist: float,
                 width: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), i < j, at distance strictly below min_dist."""
    x, y = points[:, 0], points[:, 1]
    i, j = _LateralSweep(x, width).pairs(min_dist)
    close = _sq_distance(x[i], y[i], x[j], y[j], width) < min_dist * min_dist
    return i[close], j[close]


@dataclass(frozen=True)
class ParticleConfiguration:
    """A finite set of unit-disk centers in a slab with hard-core guarantees.

    Construction verifies the hard-core and containment invariants exactly
    and freezes the center array.
    """

    centers: np.ndarray
    layer: LayerSpec
    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=float).reshape(-1, 2)
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        lo, hi = self.layer.center_band
        if centers.size:
            # NaN passes every comparison below, and the lateral sweep needs finite keys
            if not np.isfinite(centers).all():
                raise InvalidLayer("particle centers must be finite")
            if centers[:, 1].min() < lo or centers[:, 1].max() > hi:
                raise InvalidLayer("particle centers violate the containment band [1+delta, h-1]")
            if len(centers) > 1:
                dmin = self.min_pairwise_distance()
                if dmin < self.layer.hardcore_distance - 1e-12:
                    raise InvalidLayer(f"hard-core violation: min pairwise distance {dmin}")

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def is_empty(self) -> bool:
        return len(self.centers) == 0

    def min_pairwise_distance(self) -> float:
        """Minimal center-to-center distance in the configuration metric."""
        c = self.centers
        if len(c) < 2:
            return math.inf
        x, y = c[:, 0], c[:, 1]
        w = self.layer.width
        sweep = _LateralSweep(x, w)
        # any pair bounds the minimum, and laterally adjacent ones bound it tightly
        a, b = sweep.order[:-1], sweep.order[1:]
        bound = _sq_distance(x[a], y[a], x[b], y[b], w).min()
        i, j = sweep.pairs(math.sqrt(bound))
        return float(np.sqrt(_sq_distance(x[i], y[i], x[j], y[j], w).min()))

    def to_csv(self, path) -> None:
        """Write centers as CSV rows `x_par,x_d` with a one-line header."""
        with open(path, "w", newline="\n") as fh:
            fh.write("x_par,x_d\n")
            for x, y in self.centers:
                fh.write(f"{float(x)!r},{float(y)!r}\n")


def _matern_keep_mask(points: np.ndarray, scores: np.ndarray, min_dist: float,
                      width: float) -> np.ndarray:
    """Matérn type-II retention: drop any point conflicting with a lower score.

    Ties broken by index (lower index wins). Deletion is simultaneous with
    respect to the original point set.
    """
    keep = np.ones(len(points), dtype=bool)
    i, j = _close_pairs(points, min_dist, width)
    i_wins = scores[i] <= scores[j]
    keep[j[i_wins]] = False
    keep[i[~i_wins]] = False
    return keep


def _sequential_keep_mask(points: np.ndarray, min_dist: float, width: float) -> np.ndarray:
    """Index-order sequential inhibition (the hardcore_poisson kind).

    Each point is checked only against its earlier neighbours closer than
    min_dist, of which any kept one rejects it.
    """
    n = len(points)
    keep = np.zeros(n, dtype=bool)
    earlier, later = _close_pairs(points, min_dist, width)
    by_later = np.argsort(later)
    earlier, later = earlier[by_later], later[by_later]
    bounds = np.searchsorted(later, np.arange(n + 1))
    for p in range(n):
        keep[p] = not keep[earlier[bounds[p]:bounds[p + 1]]].any()
    return keep


def sample_matern(params: PointProcessParams, layer: LayerSpec, seed: int,
                  stream: int = 0) -> ParticleConfiguration:
    """Sample a hard-core configuration by Poisson placement plus thinning.

    Steps: draw N_p ~ Poisson(nu), place N_p centers uniformly in the
    admissible sub-slab [1+delta, h-1], assign i.i.d. uniform scores, and
    delete every center conflicting (distance < 2+delta in the periodic
    lateral metric) with a strictly lower-scored center.
    Deterministic for fixed (seed, stream).
    """
    rng = substream(seed, stream)
    nu = params.intensity(layer)
    n_p = int(rng.poisson(nu)) if nu > 0 else 0
    lo, hi = layer.center_band
    x = rng.uniform(-layer.width / 2.0, layer.width / 2.0, size=n_p)
    y = rng.uniform(lo, hi, size=n_p)
    scores = rng.uniform(size=n_p)
    points = np.column_stack([x, y]) if n_p else np.zeros((0, 2))
    if params.kind == "matern2":
        keep = _matern_keep_mask(points, scores, layer.hardcore_distance, layer.width)
    else:
        keep = _sequential_keep_mask(points, layer.hardcore_distance, layer.width)
    return ParticleConfiguration(points[keep], layer, seed, stream)


def _nearest_sq_distance(config: ParticleConfiguration, xq: np.ndarray,
                         yq: np.ndarray) -> np.ndarray:
    """Squared distance from each query point (xq, yq) to its nearest center.

    The laterally nearest center bounds the nearest distance, so every center
    that may be nearer lies within that distance laterally.
    """
    c = config.centers
    x, y = c[:, 0], c[:, 1]
    w = config.layer.width
    sweep = _LateralSweep(x, w)
    pos = sweep.keys.searchsorted(sweep.key(xq))
    left = sweep.index[np.maximum(pos - 1, 0)]
    right = sweep.index[np.minimum(pos, len(sweep.keys) - 1)]
    bound = np.minimum(_sq_distance(xq, yq, x[left], y[left], w),
                       _sq_distance(xq, yq, x[right], y[right], w))
    q, p = sweep.candidates(xq, np.sqrt(bound))
    d2 = _sq_distance(xq[q], yq[q], x[p], y[p], w)
    # every query has a candidate: the laterally nearest center itself
    return np.minimum.reduceat(d2, np.searchsorted(q, np.arange(len(xq))))


def distance_field(config: ParticleConfiguration, y: Sequence[float]) -> float:
    """Distance from point y = (y_par, y_d) to the nearest particle center."""
    if config.is_empty:
        raise EmptyConfiguration("distance field is +inf for an empty configuration")
    d2 = _nearest_sq_distance(config, np.array([y[0]], dtype=float),
                              np.array([y[1]], dtype=float))
    return float(np.sqrt(d2[0]))


@dataclass(frozen=True)
class HypothesisReport:
    """Empirical moment/maximum statistics of the nearest-center distance."""

    y_levels: np.ndarray
    mean_r_pow_m: np.ndarray
    max_r: np.ndarray
    m: float
    n_samples: int
    unbounded: bool


def check_hypotheses(params: PointProcessParams, layer: LayerSpec, n_samples: int,
                     m: float, master_seed: int = 0, n_lateral: int = 32,
                     y_levels: np.ndarray | None = None) -> HypothesisReport:
    """Monte-Carlo check of the distance-moment and boundedness hypotheses.

    For each height on a probe grid, reports the empirical mean of R^m over
    samples and lateral probe points and the empirical max of R. An empty
    realization flags the report as unbounded.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if y_levels is None:
        y_levels = np.linspace(0.0, layer.h, 11)
    y_levels = np.asarray(y_levels, dtype=float)
    probes = -layer.width / 2.0 + layer.width * np.arange(n_lateral) / n_lateral
    xq, yq = (a.ravel() for a in np.meshgrid(probes, y_levels))
    sum_rm = np.zeros(len(y_levels))
    max_r = np.zeros(len(y_levels))
    unbounded = False
    for j in range(n_samples):
        config = sample_matern(params, layer, master_seed, stream=j)
        if config.is_empty:
            unbounded = True
            continue
        rows = np.sqrt(_nearest_sq_distance(config, xq, yq)).reshape(len(y_levels), n_lateral)
        for iy, r in enumerate(rows):
            sum_rm[iy] += np.mean(r ** m)
            max_r[iy] = max(max_r[iy], r.max())
    return HypothesisReport(y_levels, sum_rm / n_samples, max_r, m, n_samples, unbounded)
