"""End-to-end studies: c1 estimation, epsilon sweeps, validation, reporting.

All scenarios are driven by one JSON configuration document (unknown keys
rejected) and a master seed; realization j always draws from the stream
keyed by (master_seed, j), so outputs are byte-identical for any worker
count. CSV files use comma separators, '.' decimals, a header row, and LF
line endings; floats are written with repr (shortest round-trip form).
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .corrector import (C1Estimate, CorrectorConfig, c1_sampler, decay_profile, estimate_c1,
                        export_c1_history, export_decay_profile, map_realizations,
                        solve_w1)
from .errors import (ConfigError, DegenerateFit, HelmlayerError, NoConvergence,
                     NumericalFailure, PassivityViolation, ResolutionTooCoarse,
                     SingularSystem)
from .geometry import LayerSpec, PointProcessParams, sample_matern
from .grid import DtnSpec, dtn_apply, quasi_mode
from .scattering import (PlaneWave, ScatteringScene, effective_reflection,
                         export_field_csv, farfield_reflection,
                         reference_solve, robin_halfspace_reflection)

SCENARIOS = ("c1_study", "sweep", "validate", "corrector_profile", "sample_only")

DEGENERATE_SPAN_DECADES = 0.75

DEFAULT_CONFIG: dict = {
    "scenario": "validate",
    "geometry": {"h": 5.0, "delta": 0.05, "width": 25.0},
    "process": {"kind": "matern2", "rho": 0.4},
    "wave": {"k": 0.25, "theta": math.pi / 4.0},
    "gamma": {"re": 1.0, "im": 1.0},
    "epsilon_list": None,
    "n_samples": 10,
    "master_seed": 20240801,
    "grid": {"target_dx": 0.2, "nodes_per_diameter": 10.0, "dtn_gap": 1.0},
    "output_dir": "out",
}

SAMPLE_FAILURES = (SingularSystem, NoConvergence, PassivityViolation,
                   ResolutionTooCoarse, NumericalFailure)


def _integer(value, key: str) -> int:
    """A count from the config; a bool or a number with a fractional part is an error."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    return int(value)


def _merge_strict(defaults: dict, user: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, value in user.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be a table")
            out[key] = _merge_strict(defaults[key], value, path + key + ".")
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment configuration."""

    scenario: str
    layer: LayerSpec
    process: PointProcessParams
    wave: PlaneWave
    gamma: complex
    epsilon_list: tuple[float, ...]
    n_samples: int
    master_seed: int
    target_dx: float
    nodes_per_diameter: float
    dtn_gap: float
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def H(self) -> float:
        """Effective interface height (h + 2, shared by correctors and models)."""
        return self.layer.h + 2.0

    @staticmethod
    def from_dict(user: dict) -> "ExperimentConfig":
        merged = _merge_strict(DEFAULT_CONFIG, user)
        if merged["scenario"] not in SCENARIOS:
            raise ConfigError(f"unknown scenario {merged['scenario']!r}")
        try:
            layer = LayerSpec(**merged["geometry"])
            process = PointProcessParams(**merged["process"])
            wave = PlaneWave(**merged["wave"])
            gamma = complex(merged["gamma"]["re"], merged["gamma"]["im"])
            eps = merged["epsilon_list"]
            eps = (tuple(t / wave.k2 for t in (0.2, 0.1, 0.05, 0.025)) if eps is None
                   else tuple(float(e) for e in eps))
            n_samples = _integer(merged["n_samples"], "n_samples")
            master_seed = _integer(merged["master_seed"], "master_seed")
            grid = merged["grid"]
            target_dx = float(grid["target_dx"])
            nodes_per_diameter, dtn_gap = float(grid["nodes_per_diameter"]), float(grid["dtn_gap"])
        except (TypeError, ValueError, HelmlayerError) as exc:
            raise ConfigError(str(exc)) from exc
        settings = {"grid.target_dx": target_dx, "grid.nodes_per_diameter": nodes_per_diameter,
                    "grid.dtn_gap": dtn_gap, "gamma.re": gamma.real, "gamma.im": gamma.imag}
        for key, value in settings.items():
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, not {value!r}")
        if not eps:
            raise ConfigError("epsilon_list must not be empty")
        if not all(math.isfinite(e) for e in eps):
            raise ConfigError("epsilon_list entries must be finite")
        if any(e <= 0 for e in eps):
            raise ConfigError("epsilon_list entries must be positive")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ConfigError("epsilon_list must be strictly decreasing")
        for key in ("grid.nodes_per_diameter", "grid.dtn_gap", "gamma.re"):
            if not settings[key] > 0:
                raise ConfigError(f"{key} must be positive, not {settings[key]!r}")
        if n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if not 0 <= master_seed < 2 ** 64:
            raise ConfigError("master_seed must be an unsigned 64-bit integer")
        config = ExperimentConfig(
            scenario=merged["scenario"], layer=layer, process=process, wave=wave,
            gamma=gamma, epsilon_list=eps, n_samples=n_samples, master_seed=master_seed,
            target_dx=target_dx, nodes_per_diameter=nodes_per_diameter,
            dtn_gap=dtn_gap, output_dir=str(merged["output_dir"]), raw=merged,
        )
        try:
            # the layer, and the widest window a sweep samples: width / smallest epsilon
            for width in (layer.width, layer.width / eps[-1]):
                process.intensity(dataclasses.replace(layer, width=width))
            config.corrector_config()  # target_dx and the jump row of H
        except (ValueError, HelmlayerError) as exc:
            raise ConfigError(str(exc)) from exc
        return config

    def corrector_config(self, width: float | None = None) -> CorrectorConfig:
        """Corrector cell at `width` (default: the layer's)."""
        layer = self.layer if width is None else dataclasses.replace(self.layer, width=width)
        return CorrectorConfig(layer=layer, process=self.process, target_dx=self.target_dx)


def fit_rate(pairs) -> tuple[float, float, float]:
    """Ordinary least squares of log(error) against log(epsilon).

    Returns (slope, intercept, r_squared). Raises DegenerateFit when the
    epsilon values span less than 0.75 decades.
    """
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("rate fit needs at least 3 points")
    eps = np.array([p[0] for p in pairs], dtype=float)
    err = np.array([p[1] for p in pairs], dtype=float)
    if np.any(eps <= 0) or np.any(err <= 0):
        raise ValueError("rate fit needs positive epsilon and error values")
    if math.log10(eps.max() / eps.min()) < DEGENERATE_SPAN_DECADES:
        raise DegenerateFit("epsilon values span less than 0.75 decades")
    lx, ly = np.log(eps), np.log(err)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


@dataclass
class SweepRow:
    epsilon: float
    err1_mean: float
    err1_std: float
    err2_mean: float
    err2_std: float
    n: int


@dataclass
class SweepReport:
    rows: list[SweepRow]
    rates: dict
    c1_used: float
    provenance: dict


def _provenance(config: ExperimentConfig, extra: dict | None = None) -> dict:
    prov = {
        "tool": "helmlayer",
        "version": __version__,
        "master_seed": config.master_seed,
        "config": config.raw,
    }
    if extra:
        prov.update(extra)
    return prov


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _c1_record(est: C1Estimate) -> dict:
    """The c1 estimate as provenance.json records it."""
    return {"mean": est.mean, "std_err": est.std_err, "ci95": list(est.ci95),
            "n_samples": est.n_samples, "n_failures": est.n_failures,
            "n_solve_w1": est.n_solve_w1}


def run_c1_study(config: ExperimentConfig, threads: int = 1) -> C1Estimate:
    """Convergence of the c1 estimate versus sample count and cell width.

    Writes c1_history.csv (per-sample running statistics at the configured
    width), c1_width.csv (Monte-Carlo estimates at width/2, width, 2*width,
    the width row being the history's, plus single-realization ergodic
    values at 4*width and 8*width, each on the W1 path `c1_sampler` picks
    for its cell), and provenance.json. Needs n_samples >= 2: one sample has
    no standard error.
    """
    if config.n_samples < 2:
        raise ConfigError(f"the c1 study needs n_samples >= 2, not {config.n_samples}")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    est = estimate_c1(config.corrector_config(), config.n_samples,
                      config.master_seed, threads=threads)
    export_c1_history(est, out / "c1_history.csv")
    w = config.layer.width
    with open(out / "c1_width.csv", "w", newline="\n") as fh:
        fh.write("cell_width,n_samples,mean,std_err\n")
        for factor in (0.5, 1.0, 2.0):
            e = est if factor == 1.0 else estimate_c1(
                config.corrector_config(width=w * factor), config.n_samples,
                config.master_seed, threads=threads)
            fh.write(f"{w * factor!r},{e.n_samples},{e.mean!r},{e.std_err!r}\n")
        for factor in (4.0, 8.0):
            cfg_w = config.corrector_config(width=w * factor)
            realization = sample_matern(cfg_w.process, cfg_w.layer,
                                        config.master_seed, stream=0)
            value = c1_sampler(cfg_w)[0](realization)
            fh.write(f"{w * factor!r},1,{value!r},\n")
    _write_json(_provenance(config, {"c1": _c1_record(est)}), out / "provenance.json")
    return est


def _epsilon_window(config: ExperimentConfig,
                    epsilon: float) -> tuple[dict, Callable[[int], ScatteringScene]]:
    """Reference window at epsilon: its grid record (dx, L, sampling width) and
    scene(stream), the ScatteringScene of realization `stream` in the window."""
    period = config.layer.width
    wavelength = 2.0 * math.pi / config.wave.k
    window = {"dx": min(2.0 * epsilon / config.nodes_per_diameter, wavelength / 40.0),
              "L": epsilon * config.H + config.dtn_gap, "sampling_width": period / epsilon}
    layer = dataclasses.replace(config.layer, width=window["sampling_width"])

    def scene(stream: int) -> ScatteringScene:
        realization = sample_matern(config.process, layer, config.master_seed, stream=stream)
        return ScatteringScene(epsilon=epsilon, H=config.H, layer=layer, gamma=config.gamma,
                               period=period, L=window["L"], config=realization)

    return window, scene


def run_sweep(config: ExperimentConfig, threads: int = 1,
              c1: float | None = None) -> SweepReport:
    """Reference-versus-effective reflection errors over the epsilon list.

    For each epsilon and realization: solve the reference problem on the
    period cell (lateral sampling window T/epsilon in normalized units),
    extract r_ref, and accumulate |r_ref - r^1| and |r_ref - r^2|. Rows are
    dropped when more than 10% of their samples fail. Without a given c1,
    the order-2 model's c1 is estimated from max(n_samples, 30) corrector
    samples, and provenance.json records that estimate under "c1". Writes
    sweep.csv, rates.json, provenance.json.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    c1_record = {}
    if c1 is None:
        est = estimate_c1(config.corrector_config(), max(config.n_samples, 30),
                          config.master_seed, threads=threads)
        c1, c1_record = est.mean, {"c1": _c1_record(est)}
    wave = config.wave
    rows: list[SweepRow] = []
    failures: list[str] = []
    grids_used = {}
    for epsilon in config.epsilon_list:
        window, scene_of = _epsilon_window(config, epsilon)
        r1 = effective_reflection(1, wave, epsilon, config.H)
        r2 = effective_reflection(2, wave, epsilon, config.H, c1)

        def one(j: int, _eps=epsilon, _scene_of=scene_of, _dx=window["dx"]):
            scene = _scene_of(j)
            try:
                _, r = reference_solve(scene, wave, _dx)
                return ("ok", r)
            except SAMPLE_FAILURES as exc:
                return ("fail", f"eps={_eps:g} sample={j}: {exc}")

        results = map_realizations(one, config.n_samples, threads)
        values = [v for status, v in results if status == "ok"]
        failures.extend(msg for status, msg in results if status == "fail")
        if len(values) < 0.9 * config.n_samples:
            failures.append(f"eps={epsilon:g}: row dropped "
                            f"({config.n_samples - len(values)} failures)")
            continue
        err1 = np.array([abs(r - r1) for r in values])
        err2 = np.array([abs(r - r2) for r in values])
        std1 = float(err1.std(ddof=1)) if len(values) > 1 else 0.0
        std2 = float(err2.std(ddof=1)) if len(values) > 1 else 0.0
        rows.append(SweepRow(float(epsilon), float(err1.mean()), std1,
                             float(err2.mean()), std2, len(values)))
        grids_used[repr(float(epsilon))] = window
    rates: dict = {}
    if len(rows) >= 3:
        try:
            slope1, icept1, rsq1 = fit_rate([(r.epsilon, r.err1_mean) for r in rows])
            slope2, icept2, rsq2 = fit_rate([(r.epsilon, r.err2_mean) for r in rows])
        except DegenerateFit as exc:
            failures.append(f"rate fit skipped: {exc}")
        else:
            rates = {"order1": {"slope": slope1, "intercept": icept1, "r_squared": rsq1},
                     "order2": {"slope": slope2, "intercept": icept2, "r_squared": rsq2}}
    with open(out / "sweep.csv", "w", newline="\n") as fh:
        fh.write("epsilon,err1_mean,err1_std,err2_mean,err2_std,n\n")
        for r in rows:
            fh.write(f"{r.epsilon!r},{r.err1_mean!r},{r.err1_std!r},"
                     f"{r.err2_mean!r},{r.err2_std!r},{r.n}\n")
    if rates:
        _write_json(rates, out / "rates.json")
    prov = _provenance(config, {"c1_used": c1, "grids": grids_used,
                                "failures": failures, **c1_record})
    _write_json(prov, out / "provenance.json")
    return SweepReport(rows=rows, rates=rates, c1_used=c1, provenance=prov)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_validate(config: ExperimentConfig) -> list[CheckResult]:
    """Analytic-oracle suite; every check carries its module tolerance."""
    checks: list[CheckResult] = []

    def record(name: str, fn) -> None:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failed check, not a crashed run
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append(CheckResult(name, passed, detail))

    def robin_halfspace():
        wave = PlaneWave(k=1.0, theta=math.pi / 4.0)
        gamma = 1.0 + 1.0j
        layer = LayerSpec(h=5.0, delta=0.05, width=10.0)
        empty = sample_matern(PointProcessParams(kind="matern2", rho=0.0), layer, 0)
        exact = robin_halfspace_reflection(wave, gamma)
        errs = []
        for dx in (2.0 * math.pi / 64.0, math.pi / 64.0):
            scene = ScatteringScene(epsilon=0.05, H=7.0, layer=layer, gamma=gamma,
                                    period=2.0 * math.pi, L=1.0, config=empty)
            _, r = reference_solve(scene, wave, dx)
            errs.append(abs(r - exact))
        factor = errs[0] / max(errs[1], 1e-300)
        ok = errs[0] <= 5e-3 and factor >= 3.0
        return ok, f"errors {errs[0]:.2e} -> {errs[1]:.2e} (factor {factor:.2f})"

    def shift_identity():
        layer = LayerSpec(h=5.0, delta=0.05, width=20.0)
        process = PointProcessParams(kind="matern2", rho=0.3)
        realization = sample_matern(process, layer, config.master_seed, stream=0)
        base = dict(layer=layer, process=process, target_dx=0.2)
        t_lo = solve_w1(CorrectorConfig(H=7.0, L_cell=14.0, **base), realization)
        t_hi = solve_w1(CorrectorConfig(H=9.0, L_cell=14.0, **base), realization)
        delta = abs(t_hi.trace_mean - t_lo.trace_mean - 2.0)
        return delta <= 1e-8, f"|trace(H+2) - trace(H) - 2| = {delta:.2e}"

    def unimodularity():
        rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
        worst = 0.0
        for _ in range(100):
            wave = PlaneWave(k=rng.uniform(0.5, 3.0), theta=rng.uniform(-1.2, 1.2))
            r2 = effective_reflection(2, wave, rng.uniform(0.01, 0.5),
                                      rng.uniform(3.0, 10.0), rng.uniform(0.1, 5.0))
            worst = max(worst, abs(abs(r2) - 1.0))
        return worst <= 1e-12, f"max | |r2| - 1 | = {worst:.2e}"

    def dtn_spectral():
        width, nx = 20.0, 64  # m = 0, 1, 2 all propagating for this cell
        lap = DtnSpec()  # k = 0: the W1 closure
        k, k1 = 1.0, 0.3
        helm = DtnSpec(k=k, k1=k1)
        worst = 0.0
        for m in (0, 1, 2):
            phi = quasi_mode(width, nx, m)
            lam = -2.0 * abs(m) * math.pi / width
            worst = max(worst, float(np.abs(dtn_apply(lap, width, phi) - lam * phi).max()))
            phi_q = quasi_mode(width, nx, m, k1=k1)
            zeta = 2.0 * math.pi * m / width + k1
            beta = math.sqrt(k * k - zeta * zeta)
            worst = max(worst, float(np.abs(dtn_apply(helm, width, phi_q)
                                            - (-1j * beta) * phi_q).max()))
        return worst <= 1e-10, f"max spectral action error {worst:.2e}"

    def empty_singularity():
        layer = LayerSpec(h=5.0, delta=0.05, width=15.0)
        empty = sample_matern(PointProcessParams(kind="matern2", rho=0.0), layer, 0)
        cfg = CorrectorConfig(layer=layer, process=config.process, target_dx=0.2)
        try:
            solve_w1(cfg, empty)
        except SingularSystem:
            return True, "SingularSystem raised"
        return False, "no SingularSystem raised"

    def farfield_slope():
        wave = PlaneWave(k=1.0, theta=math.pi / 4.0)
        c1 = 2.3
        pairs = []
        for eps in (0.1, 0.05, 0.025, 0.0125):
            gap = abs(farfield_reflection(wave, eps, 7.0, c1)
                      - effective_reflection(2, wave, eps, 7.0, c1))
            pairs.append((eps, gap))
        slope, _, _ = fit_rate(pairs)
        return abs(slope - 2.0) <= 0.1, f"slope {slope:.4f}"

    record("robin_halfspace_oracle", robin_halfspace)
    record("shift_identity", shift_identity)
    record("unimodularity", unimodularity)
    record("dtn_spectral_action", dtn_spectral)
    record("empty_layer_singularity", empty_singularity)
    record("farfield_order2_consistency", farfield_slope)
    return checks


def run_sample_only(config: ExperimentConfig) -> Path:
    """Sample one configuration and export it as CSV."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    realization = sample_matern(config.process, config.layer, config.master_seed, stream=0)
    path = out / "particles.csv"
    realization.to_csv(path)
    _write_json(_provenance(config, {"retained": len(realization)}),
                out / "provenance.json")
    return path


def run_corrector_profile(config: ExperimentConfig) -> Path:
    """Solve W1 on one realization and export its vertical decay profile."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    realization = sample_matern(config.process, config.layer, config.master_seed, stream=0)
    w1 = solve_w1(config.corrector_config(), realization)
    rows = decay_profile(w1, w1.trace_mean)
    path = out / "decay_profile.csv"
    export_decay_profile(rows, path)
    _write_json(_provenance(config, {"trace_mean": w1.trace_mean,
                                     "flux_rel_imbalance": w1.flux_report["rel_imbalance"]}),
                out / "provenance.json")
    return path


def run_reference(config: ExperimentConfig) -> tuple[Path, complex]:
    """One reference solve at the largest epsilon; exports the field CSV."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    epsilon = config.epsilon_list[0]
    window, scene_of = _epsilon_window(config, epsilon)
    scene = scene_of(0)
    fld, r_ref = reference_solve(scene, config.wave, window["dx"])
    path = out / f"field_eps{epsilon:g}.csv"
    export_field_csv(fld, scene.grid(window["dx"]), path)
    _write_json(_provenance(config, {"epsilon": epsilon,
                                     "r_ref": [r_ref.real, r_ref.imag]}),
                out / "provenance.json")
    return path, r_ref
