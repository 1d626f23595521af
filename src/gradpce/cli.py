"""Command-line entry points for the benchmark drivers and diagnostics."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adjoint_bvp import QOI_KINDS, DiffusionModel, run_bvp_benchmark
from .design import assemble_gradient_enhanced, coherence_params, draw
from .harness import (DEFAULT_MODES, FORMATS, TARGETS, ExperimentConfig, run_mic_sweep,
                      run_recovery_benchmark, run_rmse_benchmark)
from .pce import PceBasis
from .polynomials import Measure

# Each experiment command's driver and the config kinds it runs.
_EXPERIMENTS = {
    "mic-sweep": (run_mic_sweep, ("mic-sweep",)),
    "recover": (run_recovery_benchmark, ("recovery-vs-N", "recovery-vs-s")),
    "rmse": (run_rmse_benchmark, ("rmse",)),
}


def _load_config(args, command: str) -> ExperimentConfig:
    data = {}
    if args.config is not None:
        data = json.loads(args.config.read_text())
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
    _, allowed = _EXPERIMENTS[command]
    data.setdefault("kind", allowed[0])
    if data["kind"] not in allowed:
        raise ValueError(
            f"config kind {data['kind']!r} does not belong to the {command} command"
        )
    if args.seed is not None:
        data["seed"] = args.seed
    if getattr(args, "target", None) is not None:
        data["target"] = args.target
    return ExperimentConfig.from_dict(data)


def _emit(table, out_dir: Path, stem: str, fmt: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.{fmt}"
    table.write(path, fmt)
    print(f"wrote {path}")
    return path


def _run_experiment(args, command: str) -> int:
    driver, _ = _EXPERIMENTS[command]
    _emit(driver(_load_config(args, command)), args.out, command.replace("-", "_"), args.format)
    return 0


def int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, such as ``10,20,40``; argparse names the flag on error."""
    return tuple(int(n) for n in text.split(","))


def _run_bvp(args) -> int:
    model = DiffusionModel(dim=args.d, cells=args.cells, qoi=args.qoi)
    modes = tuple(args.mode.split(","))
    table = run_bvp_benchmark(
        model, args.n, args.n_grid, modes=modes, seed=args.seed, trials=args.trials,
    )
    _emit(table, args.out, "bvp", args.format)
    return 0


def _run_diagnose(args) -> int:
    measure = Measure.parse(args.measure)
    basis = PceBasis(measure, args.dim, args.degree)
    batch = draw(basis, args.samples, args.seed)
    report = coherence_params(assemble_gradient_enhanced(basis, batch),
                              grid_points=args.grid_points)
    rows = [("measure", measure.label), ("dim", args.dim), ("degree", args.degree),
            ("terms", basis.size), ("samples", args.samples)]
    rows += [(name, f"{getattr(report, name):.6g}") for name in (
        "mic", "value_coherence", "stacked_coherence", "coherence_bound", "bound_growth",
        "stacked_bound")]
    for label, value in rows:
        print(f"{label:<20}{value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradpce",
        description="Gradient-enhanced l1 recovery of sparse polynomial expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command in _EXPERIMENTS:
        p = sub.add_parser(command, help=f"run the {command} benchmark")
        p.add_argument("--config", type=Path, help="JSON experiment configuration")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--format", choices=FORMATS, default="csv")
        if command == "rmse":
            p.add_argument("--target", choices=TARGETS,
                           help="override the configured target function")

    bvp = sub.add_parser("bvp", help="diffusion-problem surrogate benchmark")
    bvp.add_argument("--d", type=int, default=2, help="number of random parameters")
    bvp.add_argument("--n", type=int, default=4, help="total polynomial degree")
    bvp.add_argument("--N-grid", dest="n_grid", type=int_list, default="10,20,40",
                     help="comma-separated sample counts")
    bvp.add_argument("--mode", default=",".join(DEFAULT_MODES),
                     help="comma-separated benchmark modes")
    bvp.add_argument("--cells", type=int, default=256, help="mesh cell count")
    bvp.add_argument("--qoi", choices=QOI_KINDS, default="average")
    bvp.add_argument("--trials", type=int, default=1)
    bvp.add_argument("--seed", type=int, default=0)
    bvp.add_argument("--out", type=Path, default=Path("."))
    bvp.add_argument("--format", choices=FORMATS, default="csv")

    diagnose = sub.add_parser("diagnose", help="print coherence diagnostics")
    diagnose.add_argument("--measure", default="legendre")
    diagnose.add_argument("--dim", type=int, default=2)
    diagnose.add_argument("--degree", type=int, default=10)
    diagnose.add_argument("--samples", type=int, default=50)
    diagnose.add_argument("--seed", type=int, default=0)
    diagnose.add_argument("--grid-points", dest="grid_points", type=int, default=None,
                          help="also scan a tensor grid with this many points per axis")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in _EXPERIMENTS:
            return _run_experiment(args, args.command)
        if args.command == "bvp":
            return _run_bvp(args)
        return _run_diagnose(args)
    except (ValueError, ArithmeticError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
