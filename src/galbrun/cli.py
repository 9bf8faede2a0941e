"""Command line front end.

Four subcommands: run (one configured simulation), convergence
(manufactured-solution orders), abc-reflection (reflection coefficient
under refinement), stability-contrast (the s = 1 vs s = 0 pair). Every
subcommand accepts --config and --out; configuration errors exit with
status 2, completed runs exit 0 regardless of the stability verdict,
which is data, not a failure of the tool.
"""

from __future__ import annotations

import argparse
import os
import sys

from galbrun.config import ConfigError, RunConfig, load_config
from galbrun.dynamics import run_simulation, status_text
from galbrun.studies import (
    cmd_abc_reflection,
    cmd_convergence,
    cmd_stability_contrast,
)


def _parse_probe(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("probe must be X,Y")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad probe {text!r}") from exc


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        levels = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}") from exc
    return levels


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galbrun",
        description="Time-domain duct aeroacoustics in displacement form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--out", help="artifact directory")

    p_run = sub.add_parser("run", help="execute one configured simulation")
    common(p_run)
    p_run.add_argument(
        "--probe",
        action="append",
        type=_parse_probe,
        default=[],
        metavar="X,Y",
        help="log |xi| at the node nearest this point (repeatable)",
    )

    p_conv = sub.add_parser(
        "convergence", help="manufactured-solution convergence orders"
    )
    common(p_conv)
    p_conv.add_argument(
        "--levels",
        type=_parse_levels,
        default=(8, 16, 32),
        metavar="N1,N2,...",
        help="mesh levels for the spatial study (at least 3)",
    )

    p_refl = sub.add_parser(
        "abc-reflection", help="reflection coefficient under refinement"
    )
    common(p_refl)

    p_con = sub.add_parser(
        "stability-contrast", help="run the s=1 / s=0 pair on one config"
    )
    common(p_con)

    return parser


def _load_config(args) -> RunConfig | None:
    return load_config(args.config) if args.config else None


def _write_report(out: str | None, name: str, text: str) -> None:
    if out is None:
        return
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w", newline="\n") as f:
        f.write(text)
    print(f"wrote {path}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_config(args) or RunConfig()
            out = args.out if args.out is not None else cfg.out_dir
            result = run_simulation(cfg, out_dir=out, probes=tuple(args.probe))
            for w in result.warnings:
                print(f"warning: {w}", file=sys.stderr)
            print(f"status: {status_text(result.status, result.n_steps)}")
            print(f"dt = {result.dt:.6g}, artifacts in {out}")
            return 0

        if args.command == "convergence":
            study = cmd_convergence(_load_config(args), levels=args.levels)
            print(study.text(), end="")
            _write_report(args.out, "convergence_report.txt", study.text())
            return 0

        if args.command == "abc-reflection":
            report = cmd_abc_reflection(_load_config(args))
            print(report.text(), end="")
            _write_report(args.out, "reflection_report.txt", report.text())
            return 0

        if args.command == "stability-contrast":
            report = cmd_stability_contrast(_load_config(args), out_dir=args.out)
            print(report.text(), end="")
            _write_report(args.out, "contrast_report.txt", report.text())
            return 0

        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
