"""Command-line front end for the experiment scenarios.

Exit codes: 0 success, 2 validation failure, 3 configuration error
(a command-line usage error included), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

from .errors import ConfigError, HelmlayerError
from .experiments import (ExperimentConfig, run_c1_study, run_corrector_profile,
                          run_reference, run_sample_only, run_sweep, run_validate)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

COMMANDS = ("sample", "c1", "corrector-profile", "reference", "sweep",
            "validate", "report")


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error (exit 3), not argparse's exit 2,
    which the exit-code table gives to a validation failure."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="helmlayer",
        description="Effective impedance models for thin random particle layers",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--out", type=str, default=None, help="override output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for the sweep's reference solves and the "
                             "solve_w1 samples of a c1 cell too large for a Green's table")
    parser.add_argument("command", choices=COMMANDS)
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is not None:
        user = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(user, dict):
            raise ConfigError("config document must be a JSON object")
    else:
        user = {}
    if args.seed is not None:
        user["master_seed"] = args.seed
    if args.out is not None:
        user["output_dir"] = args.out
    return ExperimentConfig.from_dict(user)


def _cmd_report(config: ExperimentConfig) -> int:
    out = Path(config.output_dir)
    if not out.is_dir():
        print(f"no output directory {out}", file=sys.stderr)
        return EXIT_CONFIG
    for name in ("provenance.json", "rates.json"):
        path = out / name
        if path.exists():
            print(f"== {name}")
            print(path.read_text().rstrip())
    for name in ("sweep.csv", "c1_history.csv", "c1_width.csv", "decay_profile.csv"):
        path = out / name
        if path.exists():
            print(f"== {name}")
            print(path.read_text().rstrip())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            parser.error(f"--threads must be >= 1, not {args.threads}")
        config = _load_config(args)
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "sample":
            path = run_sample_only(config)
            print(f"wrote {path}")
        elif args.command == "c1":
            est = run_c1_study(config, threads=args.threads)
            print(f"c1 = {est.mean:.6f} +- {est.std_err:.6f} "
                  f"(95% CI [{est.ci95[0]:.6f}, {est.ci95[1]:.6f}], "
                  f"n={est.n_samples}, width={est.cell_width:g})")
        elif args.command == "corrector-profile":
            path = run_corrector_profile(config)
            print(f"wrote {path}")
        elif args.command == "reference":
            path, r_ref = run_reference(config)
            print(f"r_ref = {r_ref.real:+.6f}{r_ref.imag:+.6f}j, wrote {path}")
        elif args.command == "sweep":
            report = run_sweep(config, threads=args.threads)
            for row in report.rows:
                print(f"eps={row.epsilon:<10.6g} err1={row.err1_mean:.6g} "
                      f"err2={row.err2_mean:.6g} n={row.n}")
            if report.rates:
                print(f"fitted rates: order1 {report.rates['order1']['slope']:.3f}, "
                      f"order2 {report.rates['order2']['slope']:.3f} (c1={report.c1_used:.4f})")
        elif args.command == "validate":
            checks = run_validate(config)
            failed = 0
            for check in checks:
                status = "PASS" if check.passed else "FAIL"
                print(f"[{status}] {check.name}: {check.detail}")
                failed += 0 if check.passed else 1
            if failed:
                print(f"{failed} validation check(s) failed", file=sys.stderr)
                return EXIT_VALIDATION
        elif args.command == "report":
            return _cmd_report(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HelmlayerError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
