"""Command-line front end: run single experiments, sweeps, and page loads."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from .errors import ConfigError, SosimError
from .harness import SWEEP_AXES, _run_paired, parse_config, run_sweep, write_csv
from .priority_engine import ORDERINGS
from .simulator import MODES, SCHEDULERS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="override root seed")
    parser.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    parser.add_argument(
        "--mode", choices=list(MODES), default=None,
        help="parameter feed: true source parameters or rolling-window estimates",
    )
    parser.add_argument(
        "--baseline", choices=list(SCHEDULERS), default=None,
        help="also run this scheduler on identical sources and report improvement",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sosim", description="Multipath object scheduling experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    _add_common(run)

    sweep = sub.add_parser("sweep", help="sweep one axis of an experiment")
    _add_common(sweep)
    sweep.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    sweep.add_argument(
        "--values", required=True,
        help="comma-separated axis values, e.g. 1,5,10,20,50",
    )
    sweep.add_argument(
        "--axis-path", type=int, default=1,
        help="path index whose stddev a sigma sweep varies (default 1)",
    )

    page = sub.add_parser("page", help="run a page-load experiment")
    _add_common(page)
    page.add_argument("--page-spec", default=None, help="override page spec file")
    page.add_argument(
        "--ordering", choices=list(ORDERINGS), default=None,
        help="dispatch pending objects by priority or in request order",
    )
    return parser


def _load_config(args):
    """The config file's experiment, with each option given that names one of its fields."""
    config = parse_config(args.config)
    overrides = {f.name: getattr(args, f.name) for f in fields(config)
                 if getattr(args, f.name, None) is not None}
    if "page_spec" in overrides:
        overrides["object_size"] = None
    return replace(config, **overrides)


def _sweep_values(axis: str, text: str) -> list:
    parse = int if axis == "object_size" else float
    try:
        return [parse(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"bad --values for axis {axis}: {exc}") from exc


def _check_out(path) -> None:
    """Refuse an unwritable --out before anything runs; a run that fails later
    leaves a new file uncreated and an old one untouched."""
    made = not os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc
    if made:
        os.remove(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.out is not None:
            _check_out(args.out)
        if args.command == "sweep":
            rows = run_sweep(
                config,
                axis=args.axis,
                values=_sweep_values(args.axis, args.values),
                baseline=args.baseline,
                axis_path=args.axis_path,
            )
        else:
            if args.command == "page" and config.page_spec is None:
                raise ConfigError("page command needs page_spec in the config or --page-spec")
            rows = [_run_paired(config, args.baseline)]
        write_csv(rows, sys.stdout if args.out is None else args.out)
    except SosimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
