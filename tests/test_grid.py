import math

import numpy as np
import pytest

from helmlayer import (DtnSpec, InvalidDtnSpec, InvalidExtent, LayerSpec, NodeClass,
                       ParticleConfiguration, ParticleOutOfDomain, PointProcessParams,
                       build_grid, classify_nodes, dtn_apply, quasi_mode,
                       sample_matern)
from helmlayer.geometry import lateral_delta


def test_build_grid_interface_on_line():
    grid = build_grid(10.0, 8.0, 0.1, interface_heights=(5.0,))
    snap = grid.snaps[0]
    assert snap.snapped == pytest.approx(5.0)
    assert snap.distance == pytest.approx(0.0, abs=1e-12)
    assert grid.j_of_height(snap.snapped) == snap.j_index
    assert snap.j_index * grid.dy == pytest.approx(5.0)


def test_build_grid_snaps_offset_interface():
    grid = build_grid(10.0, 8.0, 0.1, interface_heights=(5.03,))
    snap = grid.snaps[0]
    assert snap.snapped == pytest.approx(5.0)
    assert snap.distance == pytest.approx(0.03)
    assert snap.distance < grid.dy / 2.0


def test_build_grid_two_interfaces():
    grid = build_grid(10.0, 8.0, 0.1, interface_heights=(6.0, 8.0))
    assert [s.snapped for s in grid.snaps] == [pytest.approx(6.0), pytest.approx(8.0)]


def test_grid_aspect_guard():
    from helmlayer import Grid

    with pytest.raises(InvalidExtent):
        Grid(width=10.0, top=8.0, nx=10, ny=81, dx=1.0, dy=0.1)


def test_classify_no_particles():
    grid = build_grid(10.0, 8.0, 0.2)
    tags = classify_nodes(grid, None)
    assert (tags[0] == NodeClass.BOTTOM_BOUNDARY).all()
    assert (tags[-1] == NodeClass.TOP_DTN).all()
    assert (tags[1:-1] == NodeClass.INTERIOR).all()


def test_classify_disk_area_count():
    layer = LayerSpec(h=8.0, delta=0.05, width=10.0)
    config = ParticleConfiguration(np.array([[0.0, 4.0]]), layer, seed=0)
    grid = build_grid(10.0, 8.0, 0.1)
    tags = classify_nodes(grid, config, scale=1.0)
    count = int((tags == NodeClass.PARTICLE_DIRICHLET).sum())
    expected = math.pi / (grid.dx * grid.dy)
    assert abs(count - expected) <= 0.05 * expected


def test_classify_seam_disk_matches_bruteforce():
    # centre chosen off the lattice so no node sits exactly on the circle
    cx, cy = -4.97, 4.03
    layer = LayerSpec(h=8.0, delta=0.05, width=10.0)
    config = ParticleConfiguration(np.array([[cx, cy]]), layer, seed=0)
    grid = build_grid(10.0, 8.0, 0.1)
    tags = classify_nodes(grid, config, scale=1.0)
    xs, ys = grid.x_nodes(), grid.y_nodes()
    for j in range(grid.ny):
        for i in range(grid.nx):
            dx = xs[i] - cx
            dx -= grid.width * round(dx / grid.width)
            inside = dx * dx + (ys[j] - cy) ** 2 < 1.0
            assert (tags[j, i] == NodeClass.PARTICLE_DIRICHLET) == inside
    left = (tags[:, :10] == NodeClass.PARTICLE_DIRICHLET).sum()
    right = (tags[:, -10:] == NodeClass.PARTICLE_DIRICHLET).sum()
    assert left > 0 and right > 0


def _classify_per_disk(grid, config, scale):
    """Disk-by-disk, row-by-row classification with the package's formula."""
    tags = classify_nodes(grid, None)
    x0, r2 = -grid.width / 2.0, scale * scale
    for cx, cy in config.centers * scale:
        j_lo = max(0, math.floor((cy - scale) / grid.dy))
        j_hi = min(grid.ny - 1, math.ceil((cy + scale) / grid.dy))
        i_c, half_w = (cx - x0) / grid.dx, scale / grid.dx + 1.0
        i_range = np.arange(math.floor(i_c - half_w), math.ceil(i_c + half_w) + 1)
        dxp = lateral_delta(x0 + i_range * grid.dx - cx, grid.width, periodic=True)
        for j in range(j_lo, j_hi + 1):
            dyp = j * grid.dy - cy
            inside = dxp * dxp + dyp * dyp < r2
            tags[j, np.mod(i_range, grid.nx)[inside]] = NodeClass.PARTICLE_DIRICHLET
    return tags


@pytest.mark.parametrize("width, top, dx, scale", [
    (20.0, 8.0, 0.2, 1.0),    # the corrector cell
    (20.0, 8.0, 0.13, 1.0),   # nodes off the disk lattice
    (10.0, 5.0, 0.0625, 0.5),  # the reference problem: centers and radius scaled
])
def test_classify_equals_per_disk_loop(width, top, dx, scale):
    # seven disks, one across the seam
    config = sample_matern(PointProcessParams(kind="matern2", rho=0.8),
                           LayerSpec(h=5.0, delta=0.05, width=20.0), seed=3)
    grid = build_grid(width, top, dx)
    got = classify_nodes(grid, config, scale=scale)
    assert np.array_equal(got, _classify_per_disk(grid, config, scale))
    assert (got[:, [0, -1]] == NodeClass.PARTICLE_DIRICHLET).any(axis=0).all()


def test_classify_rejects_disk_outside_vertical_extent():
    layer = LayerSpec(h=8.0, delta=0.05, width=10.0)
    config = ParticleConfiguration(np.array([[0.0, 4.0]]), layer, seed=0)
    grid = build_grid(10.0, 3.0, 0.1)
    with pytest.raises(ParticleOutOfDomain):
        classify_nodes(grid, config, scale=1.0)


def test_dtn_spectral_action_laplace():
    width, nx = 10.0, 64
    spec = DtnSpec(kind="laplace_periodic")
    for m in (0, 1, 2, nx // 2 - 1):
        phi = quasi_mode(width, nx, m)
        lam = 2.0 * abs(m) * math.pi / width
        err = np.abs(dtn_apply(spec, width, phi) - lam * phi).max()
        assert err < 1e-10


def test_dtn_spectral_action_helmholtz():
    # width chosen so m = 0, 1, 2 are all propagating; the highest mode
    # nx // 2 - 1 is evanescent
    width, nx, k, k1 = 20.0, 64, 1.0, 0.3
    spec = DtnSpec(kind="helmholtz_quasiperiodic", k=k, k1=k1)
    for m in (0, 1, 2, nx // 2 - 1):
        phi = quasi_mode(width, nx, m, k1=k1)
        zeta = 2.0 * math.pi * m / width + k1
        rad = k * k - zeta * zeta
        lam = -1j * math.sqrt(rad) if rad >= 0 else -math.sqrt(-rad)
        err = np.abs(dtn_apply(spec, width, phi) - lam * phi).max()
        assert err < 1e-10


def test_dtn_evanescent_modes_decay():
    # beyond the propagating band the multiplier must be negative real
    width, nx, k, k1 = 20.0, 64, 1.0, 0.3
    spec = DtnSpec(kind="helmholtz_quasiperiodic", k=k, k1=k1)
    m = 6
    zeta = 2.0 * math.pi * m / width + k1
    assert zeta > k
    phi = quasi_mode(width, nx, m, k1=k1)
    out = dtn_apply(spec, width, phi)
    sigma = out[0] / phi[0]
    assert sigma.real == pytest.approx(-math.sqrt(zeta * zeta - k * k), rel=1e-12)
    assert abs(sigma.imag) < 1e-12


def test_laplace_closure_rejects_quasi_momentum():
    # the periodic Laplace map has no phase, so a k1 there would contradict
    # the seam phase exp(i k1 width) that assembly reads from the same spec
    with pytest.raises(InvalidDtnSpec, match="quasi-momentum"):
        DtnSpec(kind="laplace_periodic", k1=0.3)
    DtnSpec(kind="helmholtz_quasiperiodic", k=1.0, k1=0.3)
