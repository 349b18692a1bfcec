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

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  A
numerical failure is a :class:`steerdist.gaussian.NumericalError` (unphysical
or degenerate matrices, gains past the normalisability bound, failed
reconstructions, no steering threshold), an unreadable quadrature file
(:class:`BatchSchemaError`) or a ``RuntimeError`` (no cutoff or gain on the
grid meets the criteria, unsupported Bob block); any other ``ValueError``
or ``OSError`` is a configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .config import FULL_SAMPLES, ConfigError, load_config
from .gaussian import NumericalError
from .measurement import BatchSchemaError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

COMMANDS = ("fig3a", "fig3b", "regions-c", "regions-d", "fig4",
            "fig-s1", "fig-s2", "fig-s4", "table-s1", "ingest", "selfcheck")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerdist",
        description="EPR-steering distillation sweeps (CSV out, optional SVG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="INI config file (see package docs for keys)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None, metavar="DIR")
        p.add_argument("--svg", action="store_true", default=None)
        p.add_argument("--mode", choices=("analytic", "monte_carlo", "both"),
                       default=None)
        p.add_argument("--full", action="store_true",
                       help=f"raise sample count to {FULL_SAMPLES:.0e}")
        if name == "ingest":
            p.add_argument("path", help="quadrature CSV (idx,alice_basis,"
                                            "alice_value,bob_x,bob_p[,accepted])")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "samples": FULL_SAMPLES if args.full else args.samples,
        "threads": args.threads,
        "out_dir": args.out,
        "svg": args.svg,
        "mode": args.mode,
    }
    try:
        config = load_config(args.config, overrides=overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    from . import experiments as exp

    try:
        cmd = args.command
        if cmd == "fig3a":
            path, _ = exp.run_fig3("a", config)
        elif cmd == "fig3b":
            path, _ = exp.run_fig3("b", config)
        elif cmd == "regions-c":
            path, _ = exp.run_regions("c", config)
        elif cmd == "regions-d":
            path, _ = exp.run_regions("d", config)
        elif cmd == "fig4":
            path, _ = exp.run_fig4(config)
        elif cmd in ("fig-s1", "fig-s2", "fig-s4", "table-s1"):
            path, _ = exp.run_appendix(cmd.replace("-", "_"), config)
        elif cmd == "ingest":
            path, rows = exp.run_ingest(args.path, config)
            for quantity, value, se in rows:
                tail = "" if se is None else f" +- {se:.3g}"
                print(f"{quantity}: {value}{tail}")
        elif cmd == "selfcheck":
            ok, lines = exp.run_selfcheck(config)
            print("\n".join(lines))
            return EXIT_OK if ok else EXIT_NUMERICAL
        else:  # pragma: no cover
            raise AssertionError(cmd)
        print(f"wrote {path}")
        return EXIT_OK
    except (NumericalError, BatchSchemaError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        # unknown variants/bad CLI values that slipped past config parsing
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
