"""Command-line entry point.

Subcommands reproduce each figure/table as a batch run::

    steerdist fig3a --out results --svg
    steerdist fig3b --seed 7
    steerdist regions-c
    steerdist regions-d
    steerdist fig4 --samples 10000000 --threads 4
    steerdist fig-s1 | fig-s2 | fig-s4 | table-s1
    steerdist ingest data.csv
    steerdist selfcheck

Exit codes follow from the exception's type alone: 0 success; 2 for an
:class:`steerdist.gaussian.InputError` (a config key, loss, gain, cutoff or
variant that a rule refuses) or an ``OSError``; 3 for a
:class:`steerdist.gaussian.NumericalError` (unphysical or degenerate
matrices, gains past the normalisability bound, failed reconstructions, no
grid point or root that meets a criterion) or an unreadable quadrature file
(:class:`BatchSchemaError`).  Nothing else is caught, so a defect exits 1
with its traceback.
"""

from __future__ import annotations

import argparse
import sys

from .config import FULL_SAMPLES, MODES, load_config
from .gaussian import InputError, NumericalError
from .measurement import BatchSchemaError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# command -> (its runner in steerdist.experiments, the runner's leading
# arguments); ingest's path follows them, and every runner then takes the config
COMMANDS = {
    "fig3a": ("run_fig3", ("a",)), "fig3b": ("run_fig3", ("b",)),
    "regions-c": ("run_regions", ("c",)), "regions-d": ("run_regions", ("d",)),
    "fig4": ("run_fig4", ()),
    "fig-s1": ("run_appendix", ("fig_s1",)), "fig-s2": ("run_appendix", ("fig_s2",)),
    "fig-s4": ("run_appendix", ("fig_s4",)), "table-s1": ("run_appendix", ("table_s1",)),
    "ingest": ("run_ingest", ()), "selfcheck": ("run_selfcheck", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerdist",
        description="EPR-steering distillation sweeps (CSV out, optional SVG)",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("path", nargs="?", help="ingest only: quadrature CSV "
                        "(idx,alice_basis,alice_value,bob_x,bob_p[,accepted])")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="INI config file (see package docs for keys)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", default=None, metavar="DIR")
    parser.add_argument("--svg", action="store_true", default=None)
    parser.add_argument("--mode", choices=MODES, default=None)
    parser.add_argument("--full", action="store_true",
                        help=f"raise sample count to {FULL_SAMPLES:.0e}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # only ingest takes a path, and it needs one; parser.error exits 2
    if args.command == "ingest" and args.path is None:
        parser.error("ingest: the following arguments are required: path")
    if args.command != "ingest" and args.path is not None:
        parser.error(f"unrecognized arguments: {args.path}")
    overrides = {"seed": args.seed, "samples": FULL_SAMPLES if args.full else args.samples,
                 "threads": args.threads, "out_dir": args.out, "svg": args.svg, "mode": args.mode}
    from . import experiments as exp

    try:
        config = load_config(args.config, overrides=overrides)
        runner, lead = COMMANDS[args.command]
        if args.path is not None:  # ingest's path
            lead += (args.path,)
        result = getattr(exp, runner)(*lead, config)
        if args.command == "selfcheck":
            ok, lines = result
            print("\n".join(lines))
            return EXIT_OK if ok else EXIT_NUMERICAL
        path, rows = result
        if args.command == "ingest":
            for quantity, value, se in rows:
                tail = "" if se is None else f" +- {se:.3g}"
                print(f"{quantity}: {value}{tail}")
        print(f"wrote {path}")
        return EXIT_OK
    except (NumericalError, BatchSchemaError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InputError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
