"""Command-line front end.

Subcommands: construct, defect, propagate, cwt, kernel, sweep, report.
Long-form flags only.

Exit codes: 0 success / all assertions pass, 1 configuration or runtime
error, 2 assertion failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

import numpy as np

from . import config, estimates, reporting, wavelets
from .config import ConfigError, parse_config, parse_graph_expr, run
from .grid import read_field, write_field
from .propagator import apply_w, quasimode_pushforward

__all__ = ["main", "build_parser", "shipped_config_names", "load_shipped_config"]


def shipped_config_names() -> list[str]:
    pkg = resources.files("qmlab") / "configs"
    return sorted(p.name[:-4] for p in pkg.iterdir() if p.name.endswith(".cfg"))


def load_shipped_config(name: str) -> str:
    path = resources.files("qmlab") / "configs" / f"{name}.cfg"
    if not path.is_file():
        raise FileNotFoundError(
            f"no shipped config {name!r}; have {shipped_config_names()}")
    return path.read_text()


def _read_config_arg(arg: str) -> str:
    if os.path.exists(arg):
        with open(arg) as fh:
            return fh.read()
    return load_shipped_config(arg)


def _emit(text: str, out) -> int:
    """text to the file out, or to stdout without one."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_construct(args) -> int:
    given = vars(args)  # a flag left out is absent, see build_parser
    ctx = config._Context(args.h, {k: v for k, v in given.items() if k in config._GRID_KEYS})
    config._construct(ctx, **config._arguments("construct", given))
    write_field(ctx.fld, args.out)
    print(f"wrote {args.out}: N={ctx.fld.grid.points_per_axis} L={ctx.fld.grid.half_width} "
          f"h={args.h} alpha={args.alpha} l2={ctx.fld.l2_norm():.6f}")
    return 0


def _cmd_defect(args) -> int:
    fld = read_field(args.infile)
    rep, = config._defect_reports(fld, args.symbol, args.symbol2, [args.m1, args.m2])
    return _emit(reporting.defect_csv([(fld.grid.h, args.alpha, rep)]), args.out)


def _cmd_propagate(args) -> int:
    fld = read_field(args.infile)
    graph = parse_graph_expr(args.a)
    if args.x1 is not None:
        vals = np.stack([apply_w(graph, row, args.x1, fld.grid)
                         for row in fld.values])
        out = type(fld)(fld.grid, vals)
    else:
        # indicator-built quasimodes carry polynomial tails; the CLI gate only
        # rejects genuinely delocalized inputs (plane waves etc.)
        out = quasimode_pushforward(graph, fld, localization_tol=0.5)
    write_field(out, args.out)
    print(f"wrote {args.out}: l2={out.l2_norm():.6f}")
    return 0


def _cmd_cwt(args) -> int:
    kw = config._arguments("cwt_norms", vars(args))
    part, tab = config._norm_table(read_field(args.infile), kw["k"], kw["a_min_pow"],
                                   kw["a_max"], kw["per_decade"])
    fmt = reporting._fmt
    lines = ["a,b,j,norm"] + [f"{fmt(float(a))},,{j},{fmt(float(tab['bands'][i, j]))}"
                              for i, a in enumerate(tab["a"]) for j in range(part.J + 1)]
    return _emit("\n".join(lines) + "\n", args.out)


def _cmd_kernel(args) -> int:
    kw = config._arguments("kernel", vars(args))
    s = estimates.kernel_sample(parse_graph_expr(kw["graph"]), wavelets.default_wavelet(),
                                wavelets.make_partition(args.h, kw["k"]), args.j,
                                config._scale(args.h, args.a), args.t)
    print("j,a,t,regime,sup_abs")
    print(f"{s.j},{s.a!r},{s.t!r},{s.regime},{s.sup_abs!r}")
    return 0


def _cmd_run(args) -> int:
    """sweep: the measurement CSV; report: also the markdown and the assertion verdicts."""
    cfg = parse_config(_read_config_arg(args.config))
    report = run(cfg)
    out_dir = args.out or cfg.out_dir
    if args.command == "sweep":
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, cfg.name + ".csv")
        _emit(reporting.measurements_csv(report), csv_path)
        print(f"wrote {csv_path}")
        return 0
    csv_path, md_path = reporting.write_report(report, out_dir)
    print(f"wrote {csv_path} and {md_path}")
    for a in report.assertions:
        print(f"  [{'PASS' if a.passed else 'FAIL'}] {a.name}: measured={a.measured:.6g}"
              + (f" expected={a.expected:.6g}" if a.expected is not None else "")
              + (f" tol={a.tol:.3g}" if a.tol is not None else "")
              + (f" ({a.detail})" if not a.passed and a.detail else ""))
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qml", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter,
                                 allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)

    # a stage's flag left out takes the stage's default (argument_default=SUPPRESS)
    c = sub.add_parser("construct", help="build the polar-rectangle quasimode",
                       argument_default=argparse.SUPPRESS)
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--h", type=float, required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--grid-l", dest="half_width", type=float)
    c.add_argument("--coverage", type=float)
    c.add_argument("--n-max", type=int)
    c.add_argument("--normalization", choices=["unit_l2", "analytic_prefactor"])
    c.add_argument("--smoothed-edges", action="store_true")
    c.set_defaults(fn=_cmd_construct)

    d = sub.add_parser("defect", help="measure quasimode defects")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--symbol", required=True)
    d.add_argument("--symbol2", default=None)
    d.add_argument("--m1", type=int, default=1)
    d.add_argument("--m2", type=int, default=0)
    d.add_argument("--alpha", type=float, default=None)
    d.add_argument("--out", default=None)
    d.set_defaults(fn=_cmd_defect)

    pr = sub.add_parser("propagate", help="apply the straightening propagator")
    pr.add_argument("--a", required=True, help="generator graph, e.g. circle")
    pr.add_argument("--x1", type=float, default=None,
                    help="fixed slice time; omitted = row-wise pushforward")
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(fn=_cmd_propagate)

    cw = sub.add_parser("cwt", help="coefficient norm table of a field",
                        argument_default=argparse.SUPPRESS)
    cw.add_argument("--in", dest="infile", required=True)
    cw.add_argument("--k", type=int, required=True)
    cw.add_argument("--a-min-pow", type=float)
    cw.add_argument("--a-max", type=float)
    cw.add_argument("--per-decade", type=int)
    cw.add_argument("--out", default=None)
    cw.set_defaults(fn=_cmd_cwt)

    kn = sub.add_parser("kernel", help="one kernel envelope sample",
                        argument_default=argparse.SUPPRESS)
    kn.add_argument("--h", type=float, required=True)
    kn.add_argument("--k", type=int)
    kn.add_argument("--j", type=int, required=True)
    kn.add_argument("--a", required=True, help="scale, number or h^pow")
    kn.add_argument("--t", type=float, required=True)
    kn.add_argument("--graph")
    kn.set_defaults(fn=_cmd_kernel)

    for name, text in (("sweep", "run a config's pipeline, write CSV"),
                       ("report", "sweep + assertions + markdown report")):
        sw = sub.add_parser(name, help=text)
        sw.add_argument("--config", required=True)
        sw.add_argument("--out", default=None)
        sw.set_defaults(fn=_cmd_run)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
