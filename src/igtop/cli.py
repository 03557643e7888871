"""Command-line entry point.

Verbs: ``run`` drives an optimization and writes its artifacts,
``check-gradients`` compares analytic and finite-difference sensitivities
and ``export`` writes geometry files, both of the initial design or of a
stored one (``--design``), ``list-problems`` shows the built-in problem
definitions.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import OutputConfig, RunConfig, load_config
from .driver import (BUILTIN_PROBLEMS, analyze, check_gradients, get_problem,
                     run)
from .errors import ConfigError, MmaStepError, NumericalError
from .output import (read_design, write_contour, write_design, write_history,
                     write_vtk)

# files ``igtop run`` writes; ``snapshot`` formats the iteration number
ARTIFACTS = {"history": "history.csv", "final": "design_final.txt",
             "failed": "design_failed.txt", "vtk": "design.vtk",
             "contour": "contour.txt", "snapshot": "design_{:04d}.txt"}
# relative error up to which ``check-gradients`` counts a row as agreeing
GRADIENT_TOLERANCE = 1e-3


def _problem_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", nargs="?", default=None,
                        help="run configuration file (INI)")
    parser.add_argument("--problem", metavar="NAME",
                        help="built-in problem name instead of a config file")


def _resolve(args) -> RunConfig:
    if (args.config is None) == (args.problem is None):
        raise ConfigError("give either a config file or --problem, not both")
    if args.config is not None:
        return load_config(args.config)
    return RunConfig(problem=get_problem(args.problem), output=OutputConfig())


def _cmd_run(args) -> int:
    if args.output_dir == "":
        raise ConfigError("--output-dir needs a directory, got an empty path")
    cfg = _resolve(args)
    overrides = {"budget": args.budget, "move_limit": args.move_limit}
    cfg.problem = cfg.problem.with_overrides(
        **{k: v for k, v in overrides.items() if v is not None})
    out = cfg.output
    outdir = Path(args.output_dir) if args.output_dir else out.directory
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {outdir}: "
                          f"{err}") from None
    every = out.snapshot_every

    def observer(state):
        if every and state.iteration % every == 0:
            write_design(outdir / ARTIFACTS["snapshot"].format(
                state.iteration), state.design)
        if state.iteration % 10 == 0:
            print(f"iter {state.iteration:4d}  mesh {state.mesh:>7}  "
                  f"compliance {state.compliance:14.6g}  volume fraction "
                  f"{state.volume_fraction:.4f}")

    try:
        result = run(cfg.problem, observer=observer)
    except NumericalError as err:
        failed = outdir / ARTIFACTS["failed"]
        write_design(failed, err.design)
        stage = "MMA step" if isinstance(err, MmaStepError) else "state solve"
        print(f"{stage} failed at iteration {err.iteration}; design saved to "
              f"{failed}", file=sys.stderr)
        raise

    write_history(outdir / ARTIFACTS["history"], result.history)
    write_design(outdir / ARTIFACTS["final"], result.design)
    write_vtk(outdir / ARTIFACTS["vtk"], result.model,
              title=f"{cfg.problem.name} final design")
    write_contour(outdir / ARTIFACTS["contour"], result.model)
    last = result.history[-1]
    print(f"done: {len(result.history)} iterations, final compliance "
          f"{last.compliance:.6g}, volume fraction "
          f"{last.volume_fraction:.4f}")
    print(f"artifacts in {outdir}")
    return 0


def _design(args):
    """The design of the ``--design`` file, or None for the initial one."""
    if args.design == "":
        raise ConfigError("--design needs a file, got an empty path")
    return None if args.design is None else read_design(args.design)


def _report_gradient_rows(rows) -> int:
    """Print the rows and the verdict; return the exit status."""
    print(f"{'var':>6} {'analytic':>24} {'finite diff':>24} "
          f"{'rel err':>10}  note")
    for r in rows:
        note = "topology event" if r.topology_event else ""
        print(f"{r.index:>6} {r.analytic:>24.16e} {r.fd:>24.16e} "
              f"{r.rel_err:>10.2e}  {note}")
    clean = [r for r in rows if not r.topology_event]
    ok = [r for r in clean if r.rel_err <= GRADIENT_TOLERANCE]
    flagged = len(rows) - len(clean)
    print(f"{len(ok)}/{len(clean)} within {GRADIENT_TOLERANCE:g}"
          + (f" ({flagged} topology events excluded)" if flagged else ""))
    if clean and len(ok) >= 0.95 * len(clean):
        return 0
    print("gradient check FAILED", file=sys.stderr)
    return 3


def _cmd_check_gradients(args) -> int:
    cfg = _resolve(args)
    return _report_gradient_rows(check_gradients(
        cfg.problem, design=_design(args), n_sample=args.samples,
        seed=args.seed, quantity=args.quantity))


def _cmd_export(args) -> int:
    if args.vtk is None and args.contour is None:
        raise ConfigError("nothing to export: pass --vtk and/or --contour")
    for flag, target in (("--vtk", args.vtk), ("--contour", args.contour)):
        if target == "":
            raise ConfigError(f"{flag} needs a file, got an empty path")
        if target and not Path(target).parent.is_dir():
            raise ConfigError(f"cannot write {target}: no directory "
                              f"{Path(target).parent}")
    cfg = _resolve(args)
    model, u, f, c, vol = analyze(cfg.problem, _design(args))
    domain = cfg.problem.width * cfg.problem.height
    if args.vtk:
        write_vtk(args.vtk, model, title=f"{cfg.problem.name} design")
        print(f"wrote {args.vtk}")
    if args.contour:
        write_contour(args.contour, model)
        print(f"wrote {args.contour}")
    print(f"compliance {c:.6g}, volume fraction {vol / domain:.4f}, "
          f"{model.n_enriched} enriched nodes")
    return 0


def _cmd_list_problems(_args) -> int:
    for name in sorted(BUILTIN_PROBLEMS):
        p = BUILTIN_PROBLEMS[name]()
        doc = (BUILTIN_PROBLEMS[name].__doc__ or "").strip().split("\n")[0]
        print(f"{name}: {doc}")
        print(f"    domain {p.width:g} x {p.height:g}, mesh {p.nx} x {p.ny}, "
              f"kernels {p.rbf_nx} x {p.rbf_ny}, volume fraction "
              f"{p.volume_fraction:g}, budget {p.budget}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igtop",
        description="Levelset topology optimization with interface-enriched "
                    "finite elements.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize a problem and write results")
    _problem_args(p_run)
    p_run.add_argument("--budget", type=int, default=None,
                       help="override the iteration budget")
    p_run.add_argument("--move-limit", type=float, default=None,
                       help="override the per-step design move limit")
    p_run.add_argument("--output-dir", default=None,
                       help="directory for artifacts (overrides config)")
    p_run.set_defaults(func=_cmd_run)

    p_chk = sub.add_parser("check-gradients",
                           help="compare analytic sensitivities with "
                                "finite differences")
    _problem_args(p_chk)
    p_chk.add_argument("--samples", type=int, default=50)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--quantity", choices=("compliance", "volume"),
                       default="compliance")
    p_chk.set_defaults(func=_cmd_check_gradients)

    p_exp = sub.add_parser("export",
                           help="re-analyze a stored design and export "
                                "geometry")
    _problem_args(p_exp)
    p_exp.add_argument("--vtk", default=None, metavar="FILE",
                       help="write the resolved geometry as legacy VTK")
    p_exp.add_argument("--contour", default=None, metavar="FILE",
                       help="write interface polyline segments")
    p_exp.set_defaults(func=_cmd_export)
    for p in (p_chk, p_exp):
        p.add_argument("--design", default=None, metavar="FILE",
                       help="design file (defaults to the initial design)")

    p_ls = sub.add_parser("list-problems", help="show built-in problems")
    p_ls.set_defaults(func=_cmd_list_problems)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
