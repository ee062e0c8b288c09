"""Command-line front end: sweeps, spectra, checks, and persistence.

Each subcommand resolves its configuration (flags over an optional flat
key=value config file over built-in defaults), runs the corresponding
library call, and emits rows as CSV or as a single JSON object.  When
the output goes to a file, a JSON manifest sidecar <out>.manifest.json
records the resolved configuration, seeds, grid policy, and a replay
argv; re-running that argv against a fresh output path reproduces the
file byte for byte.

Each option carries the bound its values must meet; a resolved value
outside it, from a flag, a config file or a default, exits 1 with
"<flag> must be <bound>".  Commands are plain functions of that config.

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 partial
sweep (some rows failed and carry NaN cells).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, lemma_suite
from .bs_operator import BoundaryCondition, assemble, top_eigenpair
from .critical_temperature import (
    TOL_DEFAULT,
    ratio_curve,
    tc_boundary,
    tc_bulk,
    tc_bulk_asymptotic,
)
from .errors import NumericsError
from .kernels import ModelParams
from .quadrature import POINTS_PER_PANEL, build_grid
from .variational import trial_gap

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# the bounds an option may carry, keyed by the words of its refusal
_BOUNDS = {
    "positive and finite": lambda x: 0 < x < np.inf,
    "nonnegative and finite": lambda x: 0 <= x < np.inf,
    "at least 1": lambda x: x >= 1,
    "at least 2": lambda x: x >= 2,
}


@dataclass(frozen=True)
class _Opt:
    """One CLI option: parsing, its bound, config-file fallback, and
    replay spec."""

    flag: str
    conv: object
    default: object = None
    required: bool = False
    repeat: bool = False
    choices: tuple | None = None
    bound: str = ""
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


def _add_option(parser, opt: _Opt) -> None:
    action = "append" if opt.repeat else "store"
    parser.add_argument(opt.flag, action=action, type=opt.conv, choices=opt.choices,
                        dest=opt.dest, default=None, help=opt.help)


def _read_config(parser, path: str) -> dict:
    """Flat key=value lines; '#' comments; keys mirror flag names."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    data = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            parser.error(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        data[key.strip().replace("-", "_")] = value.strip()
    return data


def _resolve(parser, ns) -> dict:
    """Merge flag values over config-file values over defaults, then
    refuse any value outside its option's bound.  Config values go
    through the flags' own parser as --flag=value tokens, one per
    comma-separated item of a repeat option."""
    opts = {o.dest: o for o in ns._opts}
    config = _read_config(parser, ns.config) if ns.config else {}
    tokens = []
    for key, raw in config.items():
        if key not in opts:
            parser.error(f"unknown config key: {key}")
        items = [x for x in raw.split(",") if x.strip()] if opts[key].repeat else [raw]
        tokens += [f"{opts[key].flag}={item}" for item in items]
    from_config = parser.parse_args(tokens)
    cfg = {"config": ns.config}
    for opt in opts.values():
        value = getattr(ns, opt.dest)
        if value is None:
            value = getattr(from_config, opt.dest)
        if value is None:
            value = opt.default
        if opt.required and (value is None or (opt.repeat and not value)):
            parser.error(f"{opt.flag} is required")
        cfg[opt.dest] = value
    for opt in opts.values():
        value = cfg[opt.dest]
        if opt.bound and value is not None:
            if not all(map(_BOUNDS[opt.bound], value if opt.repeat else [value])):
                parser.error(f"{opt.flag} must be {opt.bound}")
    return cfg


# --- output ------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, BoundaryCondition):
        return value.value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, BoundaryCondition):
        return value.value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return None if not np.isfinite(v) else v
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(x) for x in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _render(command: str, fmt: str, header, rows) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row[key]) for key in header])
        return buf.getvalue()
    payload = {
        "command": command,
        "rows": [{key: _jsonable(row[key]) for key in header} for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _replay_argv(command: str, cfg: dict, opts) -> list:
    """Flag list that re-resolves to this exact configuration.

    --out and --config are omitted: the config file is already folded
    into the snapshot, and the replayer appends its own --out.
    """
    argv = [command]
    for opt in opts:
        if opt.dest in ("out", "config"):
            continue
        value = cfg[opt.dest]
        if value is None:
            continue
        for item in value if opt.repeat else [value]:
            argv += [opt.flag, _cell(item)]
    return argv


def _emit(command, cfg, opts, header, rows, provenance, started) -> None:
    text = _render(command, cfg["format"], header, rows)
    if not cfg.get("out"):
        sys.stdout.write(text)
        return
    out = Path(cfg["out"])
    with out.open("w", newline="") as fh:
        fh.write(text)
    manifest = {
        "command": command,
        "version": __version__,
        "format": cfg["format"],
        "config": {k: _jsonable(v) for k, v in sorted(cfg.items())},
        "seeds": {"seed": cfg.get("seed")},
        "grid_policy": {
            "tol": cfg.get("tol"),
            "points_per_panel": cfg.get("grid_points"),
        },
        "argv": _replay_argv(command, cfg, opts),
        "rows": _jsonable(provenance),
        "output": out.name,
        "wall_clock_s": round(time.monotonic() - started, 6),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    sidecar = out.with_name(out.name + ".manifest.json")
    with sidecar.open("w", newline="") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# --- commands ----------------------------------------------------------


def cmd_tc(cfg):
    """One solve per coupling: tc_bulk, or tc_boundary when --bc is an option."""
    mu, tol, ppp = cfg["mu"], cfg["tol"], cfg["grid_points"]
    if "bc" in cfg:
        bc = BoundaryCondition(cfg["bc"])
        fixed = {"mu": mu, "bc": bc}
        solve = lambda v: tc_boundary(v, mu, bc, tol, ppp)
    else:
        fixed = {"mu": mu}
        solve = lambda v: tc_bulk(v, mu, tol, ppp)
    results = [solve(v) for v in cfg["v"]]
    header = ["v", *fixed, "tc", "residual", "evaluations"]
    rows = [
        {
            "v": v,
            **fixed,
            "tc": r.tc,
            "residual": r.residual,
            "evaluations": r.evaluations,
        }
        for v, r in zip(cfg["v"], results)
    ]
    provenance = [
        {"v": v, "bracket": list(r.bracket), "numerics": r.numerics}
        for v, r in zip(cfg["v"], results)
    ]
    return header, rows, provenance, EXIT_OK


_CURVE_COLUMNS = [
    "v",
    "mu",
    "bc",
    "tc_bulk",
    "tc_boundary",
    "relative_shift",
    "gap_at_tc_bulk",
    "grid_nodes",
]


def cmd_ratio_curve(cfg):
    if cfg["v_max"] < cfg["v_min"]:
        raise ValueError("--v-max must be >= --v-min")
    bc, ppp = BoundaryCondition(cfg["bc"]), cfg["grid_points"]
    vs = np.geomspace(cfg["v_min"], cfg["v_max"], cfg["v_count"])
    # where the ends (nearly) meet, geomspace can step an ulp outside them
    # or back; ratio_curve takes only an ascending sequence
    vs = np.maximum.accumulate(np.clip(vs, cfg["v_min"], cfg["v_max"]))
    rows = ratio_curve(vs, cfg["mu"], bc, cfg["tol"], ppp).rows
    table = [
        {column: getattr(row, column) for column in _CURVE_COLUMNS}
        for row in rows
    ]
    provenance = [
        {
            "v": row.v,
            "grid_nodes": row.grid_nodes,
            "matrix_nodes": row.matrix_nodes,
            "t_noise": row.t_noise,
            "tc_bulk_evaluations": row.tc_bulk_evaluations,
            "tc_boundary_evaluations": row.tc_boundary_evaluations,
            "error": row.error,
        }
        for row in rows
    ]
    failed = any(row.error is not None for row in rows)
    return _CURVE_COLUMNS, table, provenance, (
        EXIT_PARTIAL if failed else EXIT_OK
    )


def cmd_spectrum(cfg):
    bc = BoundaryCondition(cfg["bc"])
    params = ModelParams(T=cfg["T"], mu=cfg["mu"])
    grid = build_grid(params, cfg["tol"], cfg["grid_points"])
    op = assemble(params, grid, bc)
    top, vec = top_eigenpair(op)
    gap = top - op.a_edge
    density = vec**2 / grid.weights
    header = ["p", "weight", "psi2", "top_eigenvalue", "a_edge", "gap"]
    rows = [
        {
            "p": p,
            "weight": w,
            "psi2": d,
            "top_eigenvalue": top,
            "a_edge": op.a_edge,
            "gap": gap,
        }
        for p, w, d in zip(grid.nodes, grid.weights, density)
    ]
    provenance = [
        {
            "n_nodes": grid.n,
            "matrix_nodes": op.n,
            "cut_bound": op.cut_bound,
            "cutoff": grid.cutoff,
            "self_convergence": grid.self_convergence,
            "top_eigenvalue": top,
            "gap": gap,
        }
    ]
    return header, rows, provenance, EXIT_OK


def cmd_trial_gap(cfg):
    b = cfg["b"] if cfg["b"] is not None else cfg["mu"]
    value = trial_gap(
        ModelParams(T=cfg["T"], mu=cfg["mu"]), b, cfg["tol"], cfg["grid_points"]
    )
    header = ["T", "mu", "b", "trial_gap"]
    rows = [{"T": cfg["T"], "mu": cfg["mu"], "b": b, "trial_gap": value}]
    provenance = [{"sign": 1 if value > 0 else -1}]
    return header, rows, provenance, EXIT_OK


def cmd_asymptotics(cfg):
    header = ["v", "mu", "tc_asymptotic"]
    rows = [
        {"v": v, "mu": cfg["mu"], "tc_asymptotic": tc_bulk_asymptotic(v, cfg["mu"])}
        for v in cfg["v"]
    ]
    return header, rows, list(rows), EXIT_OK


def cmd_verify(cfg):
    n, seed, mu = cfg["samples"], cfg["seed"], cfg["mu"]
    smu = float(np.sqrt(mu))
    battery = (
        lambda: lemma_suite.check_tanh_sum(n, seed),
        lambda: lemma_suite.check_tanh_diff(n, seed),
        lambda: lemma_suite.check_mean_bound(n, seed),
        lambda: lemma_suite.check_concavity_bound(n, seed),
        lambda: lemma_suite.check_K_majorant(seed),
        lambda: lemma_suite.check_E_log_growth(
            mu, 0.5 * smu, (1e-2 * mu, 1e-3 * mu, 1e-4 * mu)
        ),
        lambda: lemma_suite.check_B_uniform_norm(
            mu, (1e-3 * mu, 1e-1 * mu, 1e1 * mu, 1e3 * mu)
        ),
        lambda: lemma_suite.check_L_sandwich(mu, mu, n, seed),
    )
    reports = [check() for check in battery]
    header = ["name", "samples", "violations", "worst_margin", "seed"]
    rows = [asdict(report) for report in reports]
    total = sum(report.violations for report in reports)
    return header, rows, list(rows), (EXIT_OK if total == 0 else EXIT_NUMERIC)


# --- wiring ------------------------------------------------------------

_POS, _NONNEG = "positive and finite", "nonnegative and finite"
_MU = _Opt("--mu", float, required=True, bound=_POS, help="chemical potential")
_V = _Opt("--v", float, required=True, repeat=True, bound=_POS,
          help="coupling (repeatable)")
_BC = _Opt(
    "--bc",
    str,
    "dirichlet",
    choices=("dirichlet", "neumann"),
    help="boundary condition (default dirichlet)",
)
_T_ARG = _Opt("--T", float, required=True, bound=_POS, help="temperature")
_TOL = _Opt("--tol", float, TOL_DEFAULT, bound=_POS,
            help="target accuracy (default 1e-6)")
_GRID_POINTS = _Opt(
    "--grid-points",
    int,
    POINTS_PER_PANEL,
    bound="at least 2",
    help=f"Gauss-Legendre points per panel (default {POINTS_PER_PANEL})",
)
_THREADS = _Opt(
    "--threads",
    int,
    os.cpu_count() or 1,
    bound=_POS,
    help="accepted and recorded, selects nothing: rows run in order "
    "(default: logical cores)",
)
_OUT = _Opt("--out", str, help="output path; files get a .manifest.json sidecar")
_FORMAT = _Opt("--format", str, "csv", choices=("csv", "json"), help="output format")

_COMMANDS = {
    "tc-bulk": (
        cmd_tc,
        [_MU, _V, _TOL, _GRID_POINTS, _THREADS, _OUT, _FORMAT],
        "critical temperature of the translation-invariant problem",
    ),
    "tc-boundary": (
        cmd_tc,
        [_MU, _V, _BC, _TOL, _GRID_POINTS, _THREADS, _OUT, _FORMAT],
        "critical temperature of the half-line problem",
    ),
    "ratio-curve": (
        cmd_ratio_curve,
        [
            _MU,
            _BC,
            _Opt("--v-min", float, required=True, bound=_POS, help="sweep start"),
            _Opt("--v-max", float, required=True, bound=_POS, help="sweep end"),
            _Opt("--v-count", int, required=True, bound="at least 1",
                 help="points, log-spaced"),
            _TOL,
            _GRID_POINTS,
            _THREADS,
            _OUT,
            _FORMAT,
        ],
        "boundary vs bulk critical-temperature sweep over the coupling",
    ),
    "spectrum": (
        cmd_spectrum,
        [_T_ARG, replace(_MU, bound=_NONNEG), _BC, _TOL, _GRID_POINTS, _OUT, _FORMAT],
        "top eigenpair and edge of the discretized half-line operator",
    ),
    "trial-gap": (
        cmd_trial_gap,
        [
            _T_ARG,
            _MU,
            _Opt("--b", float, bound=_POS, help="trial-state width (default: mu)"),
            _TOL,
            _GRID_POINTS,
            _OUT,
            _FORMAT,
        ],
        "trial-state witness whose sign certifies a boundary gap",
    ),
    "asymptotics": (
        cmd_asymptotics,
        [_MU, _V, _OUT, _FORMAT],
        "weak-coupling closed form for the bulk critical temperature",
    ),
    "verify": (
        cmd_verify,
        [
            _Opt("--mu", float, 1.0, bound=_POS, help="chemical potential (default 1)"),
            _Opt("--samples", int, 100_000, bound=_POS,
                 help="samples per randomized check"),
            _OUT,
            _Opt("--seed", int, 0, bound=_NONNEG,
                 help="seed for randomized checks (default 0)"),
            _Opt("--format", str, "json", choices=("csv", "json"), help="output format"),
        ],
        "run every inequality check and report violations",
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bcs-edge",
        description="Critical temperatures of a superconductor near a boundary.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(
        dest="command", metavar="command", parser_class=_Parser, required=True
    )
    for name, (fn, opts, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        sub.add_argument(
            "--config", default=None, help="flat key=value file; flags win over it"
        )
        for opt in opts:
            _add_option(sub, opt)
        sub.set_defaults(_fn=fn, _opts=opts, _sub=sub)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _resolve(ns._sub, ns)
        started = time.monotonic()
        header, rows, provenance, code = ns._fn(cfg)
        _emit(ns.command, cfg, ns._opts, header, rows, provenance, started)
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except NumericsError as exc:
        print(f"bcs-edge: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"bcs-edge: invalid value: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"bcs-edge: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
