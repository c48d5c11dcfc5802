"""Command-line orchestration: run experiments, persist results, emit plots.

Subcommands: metric, curvature, geodesic, jacobi, ige, chain, report.
Shared flags, given after the subcommand and declared only where read:
--config and --out on all, --format on all but report, --plot on all but
curvature and report, --seed on curvature.  Flag values override
config-file values, which override built-in defaults; a config-file
value passes the type and choices of its flag.  The effective
configuration is echoed to run_config.json in the output directory.

In-process ``main`` calls share one parser, built on the first call;
parsing leaves it unchanged, and a --config call sets its values as
defaults of a parser of its own, so no call carries state to the next.

Exit codes: 0 success, 2 validation error, 3 resource error,
4 numerical failure (``metric`` also where a metric leaves float64's
range).  Errors print a machine-readable JSON object on standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import dynamics, geometry, ige, manifold, spinchain, svgplot
from .errors import AccuracyError, IgacError, ValidationError
from .families import FAMILY_NAMES, family
from .manifold import MODEL_NAMES

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4

# Canonical expanding runs per manifold: start point, velocity, and a
# deviation kick of unit g-norm orthogonal to the velocity.
CANONICAL_RUNS = {
    "integrable": {"theta0": (1.0, 1.0), "v0": (1.0, 1.0),
                   "dj0": (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))},
    "chaotic": {"theta0": (1.0, 0.0, 1e4), "v0": (0.25, 0.0, -2500.0),
                "dj0": (0.0, 1e4, 0.0)},
    "gaussian": {"theta0": (0.0, 1.0), "v0": (0.0, 1.0 / math.sqrt(2.0)),
                 "dj0": (1.0, 0.0)},
    "euclidean": {"theta0": (0.0, 0.0), "v0": (1.0, 0.0), "dj0": (0.0, 1.0)},
}


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_table(path_base: Path, fmt: str, columns: list[str],
                rows: list[list] | np.ndarray) -> Path:
    """Write numeric rows (a list of rows or a 2-d array) as CSV, 17
    significant digits, or as JSON rows, where integers stay integers."""
    if fmt == "csv":
        path = path_base.with_suffix(".csv")
        line = ",".join(["{:.17g}"] * len(columns))
        table = np.asarray(rows, dtype=float).reshape(-1, len(columns))
        lines = [",".join(columns)] + [line.format(*row) for row in table.tolist()]
        _write_text(path, "\n".join(lines) + "\n")
    else:
        path = path_base.with_suffix(".json")
        rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
        write_json(path, {"columns": columns,
                          "rows": [[None if (isinstance(v, float) and not
                                             math.isfinite(v)) else
                                    (float(v) if isinstance(v, (float, np.floating))
                                     else int(v) if isinstance(v, (int, np.integer))
                                     else v)
                                    for v in row] for row in rows]})
    return path


def _parse_floats(text: str, field: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValidationError(f"could not parse {field}={text!r} as "
                              f"comma-separated floats", field=field)


def _parse_window(text: str, field: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError(f"{field} must be 'lo:hi', got {text!r}", field=field)
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"could not parse {field}={text!r}", field=field)
    if not hi > lo:
        raise ValidationError(f"{field} must have hi > lo, got {text!r}", field=field)
    return lo, hi


def _parse_assignments(text: str, field: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ValidationError(
                f"{field} entries must look like name=value, got {chunk!r}",
                field=field)
        key, val = chunk.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _parse_point(text: str, fam) -> np.ndarray:
    pairs = _parse_assignments(text, "point")
    unknown = set(pairs) - set(fam.param_names)
    if unknown:
        raise ValidationError(
            f"unknown parameter(s) {sorted(unknown)} for family {fam.name!r}",
            field="point")
    missing = set(fam.param_names) - set(pairs)
    if missing:
        raise ValidationError(
            f"point is missing parameter(s) {sorted(missing)}", field="point")
    try:
        return np.array([float(pairs[p]) for p in fam.param_names])
    except ValueError:
        raise ValidationError(f"non-numeric value in point {text!r}", field="point")


def _parse_grid(text: str, fam) -> list[np.ndarray]:
    """Cartesian product grid from 'name=lo:hi:count' specs."""
    pairs = _parse_assignments(text, "grid")
    axes = []
    for name in fam.param_names:
        if name not in pairs:
            raise ValidationError(
                f"grid is missing parameter {name!r}", field="grid")
        parts = pairs[name].split(":")
        if len(parts) != 3:
            raise ValidationError(
                f"grid axis {name!r} must be lo:hi:count, got {pairs[name]!r}",
                field="grid")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValidationError(
                f"could not parse grid axis {name}={pairs[name]!r}", field="grid")
        if count < 1:
            raise ValidationError(
                f"grid axis {name!r} needs count >= 1", field="grid")
        axes.append(np.linspace(lo, hi, count))
    unknown = set(pairs) - set(fam.param_names)
    if unknown:
        raise ValidationError(
            f"unknown grid parameter(s) {sorted(unknown)} for family "
            f"{fam.name!r}", field="grid")
    mesh = np.meshgrid(*axes, indexing="ij")
    return [np.array(pt) for pt in zip(*(m.ravel() for m in mesh))]


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

def _config_value(flag: argparse.Action, key: str, val):
    """A config-file value, converted and checked as its flag's text would
    be: a switch such as --plot takes a JSON boolean, a typed flag parses
    the value's text (so 10.7 is no int), a text flag takes a string or
    null (``report``'s inputs a list of strings), and ``choices`` still
    apply."""
    try:
        if flag.nargs == 0:
            ok = isinstance(val, bool)
        elif flag.nargs == "*":
            ok = isinstance(val, list) and all(isinstance(v, str) for v in val)
        elif flag.type is None and not (val is None or isinstance(val, str)):
            ok = False
        else:
            val = val if flag.type is None else flag.type(str(val))
            ok = flag.choices is None or val in flag.choices
    except ValueError:
        ok = False
    if not ok:
        raise ValidationError(
            f"config value {key}={val!r} is not accepted by "
            f"{'/'.join(flag.option_strings) or key}", field=key)
    return val


def _effective_config(argv: list[str] | None, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicitly given flags: config values
    become the subcommand's defaults in a parser of this call's own, and
    argv is parsed again over them, so the shared parser keeps its
    built-in defaults."""
    if args.config is not None:
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise ValidationError(f"config file not found: {cfg_path}",
                                  field="config")
        try:
            loaded = json.loads(cfg_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}",
                                  field="config")
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object",
                                  field="config")
        parser = build_parser()
        (commands,) = [a for a in parser._actions if a.dest == "command"]
        subparser = commands.choices[args.command]
        flags = {a.dest: a for a in subparser._actions}
        known = vars(args).keys() - {"command", "config"}
        for key, val in loaded.items():
            if key not in known:
                raise ValidationError(
                    f"unknown config key {key!r} for command {args.command!r}",
                    field=key)
            loaded[key] = _config_value(flags[key], key, val)
        subparser.set_defaults(**loaded)
        args = parser.parse_args(argv)
    return {k: v for k, v in vars(args).items() if k != "config"}


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise ValidationError(f"missing required option --{key.replace('_', '-')}",
                              field=key)
    return cfg[key]


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "run_config.json", cfg)
    return out


def _canonical(cfg: dict, key: str, manifold_name: str, dim: int,
               field: str) -> np.ndarray:
    raw = cfg.get(key)
    if raw is None:
        run = CANONICAL_RUNS.get(manifold_name)
        if run is None or key not in run:
            raise ValidationError(f"--{field} is required for manifold "
                                  f"{manifold_name!r}", field=field)
        return np.array(run[key], dtype=float)
    vec = np.array(_parse_floats(raw, field))
    if vec.size != dim:
        raise ValidationError(
            f"{field} must have {dim} components for manifold "
            f"{manifold_name!r}, got {vec.size}", field=field)
    return vec


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_metric(cfg: dict) -> int:
    fam = family(_require(cfg, "family"))
    if (cfg["point"] is None) == (cfg["grid"] is None):
        raise ValidationError("exactly one of --point / --grid is required",
                              field="grid" if cfg["grid"] is None else "point")
    if cfg["point"] is not None:
        points = [_parse_point(cfg["point"], fam)]
    else:
        points = _parse_grid(cfg["grid"], fam)

    # One call each for the whole grid: each kind's block is integrated once.
    stack = np.array(points)
    closed = manifold.fisher_metric_closed_form(fam, stack)
    quad = manifold.fisher_metric_quadrature(fam, stack)
    # A positive-definite metric has a positive diagonal, so a zero there
    # is an underflow, like a non-finite entry an overflow.
    in_range = (np.isfinite(np.stack([closed, quad.matrix])).all(axis=(0, 2, 3))
                & np.diagonal(closed, axis1=1, axis2=2).all(axis=1))
    if not in_range.all():
        at = ", ".join(f"{name}={val!r}" for name, val in zip(
            fam.param_names, stack[int(np.argmin(in_range))].tolist()))
        raise AccuracyError(
            f"Fisher metric of {fam.name!r} at {at} leaves float64's range: "
            f"the closed form or the quadrature has a non-finite entry, or the "
            f"closed form a zero on its diagonal")
    # ||q - c|| / ||c||, both scaled by the power of two of c's largest entry,
    # which is exact and keeps their squares inside float64's range.
    scale = np.ldexp(1.0, -np.frexp(np.abs(closed).max(axis=(1, 2)))[1])
    rels = [np.linalg.norm((q - c) * s) / max(np.linalg.norm(c * s), 1e-300)
            for q, c, s in zip(quad.matrix, closed, scale)]

    out = _out_dir(cfg)
    dim = fam.n_params
    columns = [f"{p} (microvariable units)" for p in fam.param_names]
    columns += [f"g_closed_{i}{j} (dimensionless)"
                for i in range(dim) for j in range(dim)]
    columns += [f"g_quad_{i}{j} (dimensionless)"
                for i in range(dim) for j in range(dim)]
    columns += ["rel_error (dimensionless)"]
    rows = [list(theta) + list(c.ravel()) + list(q.ravel()) + [rel]
            for theta, c, q, rel in zip(points, closed, quad.matrix, rels)]
    write_table(out / "metric_grid", cfg["format"], columns, rows)
    write_json(out / "metric.json", {
        "kind": "metric_check", "family": fam.name,
        "n_points": len(points), "max_rel_error": float(max(rels)),
        # The largest quadrature residual over the grid, and the node count.
        "diagnostics": {"max_error_estimate": quad.error_estimate,
                        "max_nodes": quad.nodes}})
    if cfg["plot"] and dim == 1:
        xs = [float(p[0]) for p in points]
        ys_closed = [float(c[0, 0]) for c in closed]
        ys_quad = [float(q[0, 0]) for q in quad.matrix]
        svg = svgplot.line_plot(
            [(xs, ys_closed, "closed form", None),
             (xs, ys_quad, "quadrature", "6,4")],
            f"Fisher metric, {fam.name}", fam.param_names[0], "g")
        _write_text(out / "metric.svg", svg)
    return EXIT_OK


def cmd_curvature(cfg: dict) -> int:
    mdl = manifold.model(_require(cfg, "manifold"))
    if cfg["point"] is not None:
        points = [np.array(_parse_floats(cfg["point"], "point"))]
    else:
        if cfg["sample"] < 1:
            raise ValidationError("--sample must be >= 1", field="sample")
        points = list(mdl.random_points(cfg["sample"], cfg["seed"]))
    reports = [geometry.curvature(mdl, p) for p in points]
    sign = geometry.scalar_sign_classification(reports, atol=cfg["atol"])
    out = _out_dir(cfg)
    pairs = list(reports[0].sectional)
    columns = [f"{c} (coordinate units)" for c in mdl.coord_names]
    columns += ["scalar (dimensionless)"]
    columns += [f"sectional_{i}{j} (dimensionless)" for i, j in pairs]
    rows = [list(p) + [r.scalar] + [r.sectional[ij] for ij in pairs]
            for p, r in zip(points, reports)]
    write_table(out / "curvature_points", cfg["format"], columns, rows)
    write_json(out / "curvature.json", {
        "kind": "curvature_signs", "manifold": mdl.name, **asdict(sign)})
    return EXIT_OK


def _run_geodesic(cfg: dict):
    mdl = manifold.model(_require(cfg, "manifold"))
    theta0 = _canonical(cfg, "theta0", mdl.name, mdl.dim, "theta0")
    v0 = _canonical(cfg, "v0", mdl.name, mdl.dim, "v0")
    traj = dynamics.integrate_geodesic(mdl, theta0, v0, cfg["tau_max"],
                                       tol=cfg["tol"], samples=cfg["samples"])
    return mdl, traj


def _trajectory_rows(mdl, traj, with_jacobi: bool):
    columns = ["tau (dimensionless)"]
    columns += [f"{c} (coordinate units)" for c in mdl.coord_names]
    columns += [f"d{c}_dtau (coordinate units)" for c in mdl.coord_names]
    columns += ["speed (g-norm)"]
    if with_jacobi:
        columns += [f"J_{c} (coordinate units)" for c in mdl.coord_names]
        columns += ["J_norm (g-norm)"]
    table = [traj.tau_grid, traj.coords, traj.velocity, traj.speed]
    if with_jacobi:
        table += [traj.jacobi, traj.jacobi_norm]
    return columns, np.column_stack(table)


def cmd_geodesic(cfg: dict) -> int:
    mdl, traj = _run_geodesic(cfg)
    out = _out_dir(cfg)
    columns, rows = _trajectory_rows(mdl, traj, with_jacobi=False)
    write_table(out / "trajectory", cfg["format"], columns, rows)
    write_json(out / "geodesic.json", {
        "kind": "geodesic", "manifold": mdl.name,
        "final_coords": [float(v) for v in traj.coords[-1]],
        "speed_drift": float(np.max(np.abs(traj.speed - traj.speed[0]))),
        "diagnostics": {"solver": asdict(traj.solver)}})
    if cfg["plot"]:
        series = [(traj.tau_grid, traj.coords[:, i], mdl.coord_names[i], None)
                  for i in range(mdl.dim)]
        _write_text(out / "geodesic.svg", svgplot.line_plot(
            series, f"Geodesic on {mdl.name}", "tau", "coordinate"))
    return EXIT_OK


def cmd_jacobi(cfg: dict) -> int:
    mdl, base = _run_geodesic(cfg)
    j0 = (np.zeros(mdl.dim) if cfg["j0"] is None
          else np.array(_parse_floats(cfg["j0"], "j0")))
    dj0 = _canonical(cfg, "dj0", mdl.name, mdl.dim, "dj0")
    traj = dynamics.integrate_jacobi(mdl, base, j0, dj0, tol=cfg["tol"])
    tau_max = float(traj.tau_grid[-1])
    window = (_parse_window(cfg["window"], "window")
              if cfg["window"] is not None else (tau_max / 3.0, tau_max))
    est = dynamics.estimate_lambda_j(traj, window)
    out = _out_dir(cfg)
    columns, rows = _trajectory_rows(mdl, traj, with_jacobi=True)
    write_table(out / "jacobi", cfg["format"], columns, rows)
    write_json(out / "jacobi.json", {
        "kind": "jacobi_fit", "manifold": mdl.name, **asdict(est),
        "diagnostics": {"solver": asdict(traj.solver)}})
    if cfg["plot"]:
        mask = traj.jacobi_norm > 0
        _write_text(out / "jacobi.svg", svgplot.line_plot(
            [(traj.tau_grid[mask], np.log(traj.jacobi_norm[mask]),
              "log ||J||", None)],
            f"Deviation growth on {mdl.name}", "tau", "log ||J||"))
    return EXIT_OK


def cmd_ige(cfg: dict) -> int:
    mdl, traj = _run_geodesic(cfg)
    series = ige.volume_series(mdl, traj)
    tau_max = cfg["tau_max"]
    window = (_parse_window(cfg["window"], "window")
              if cfg["window"] is not None else (tau_max / 10.0, tau_max))
    fit = ige.fit_growth(series, window)
    out = _out_dir(cfg)
    columns = ["tau (dimensionless)", "volume (statistical weight)",
               "entropy (nats)"]
    write_table(out / "ige_series", cfg["format"], columns, np.column_stack(
        [series.tau_samples, series.volume, series.entropy]))
    write_json(out / "ige.json", {
        "kind": "ige_fit", "manifold": mdl.name, **asdict(fit),
        "diagnostics": {"solver": asdict(traj.solver)}})
    if cfg["plot"]:
        sel = fit.selected_fit
        xs = series.tau_samples
        fitted = (sel.slope * np.log(xs) + sel.intercept
                  if fit.selected == "logarithmic"
                  else sel.slope * xs + sel.intercept)
        _write_text(out / "ige.svg", svgplot.line_plot(
            [(xs, series.entropy, "entropy", None),
             (xs, fitted, f"{fit.selected} fit", "6,4")],
            f"Entropy growth on {mdl.name}", "tau", "S(tau)"))
    return EXIT_OK


def cmd_chain(cfg: dict) -> int:
    # spinchain checks these too, but under its own parameter names, and
    # the histogram only after the tables are written.
    if not 0.0 <= cfg["trim"] < 0.3:
        raise ValidationError(f"trim must be in [0, 0.3), got {cfg['trim']}",
                              field="trim")
    if cfg["plot"] and cfg["bins"] < 5:
        raise ValidationError(f"bins must be >= 5, got {cfg['bins']}",
                              field="bins")
    spec = spinchain.ChainSpec(cfg["n"], cfg["hx"], cfg["hy"],
                               sector=cfg["sector"])
    record = spinchain.analyze_chain(spec, poly_degree=cfg["poly_degree"],
                                     trim_fraction=cfg["trim"],
                                     margin=cfg["margin"])
    out = _out_dir(cfg)
    write_table(out / "eigenvalues", cfg["format"],
                ["index (1-based)", "energy (coupling units)"],
                [[i + 1, e] for i, e in enumerate(record.eigenvalues)])
    write_table(out / "spacings", cfg["format"],
                ["index (1-based)", "spacing (mean-spacing units)"],
                [[i + 1, s] for i, s in enumerate(record.unfolded_spacings)])
    write_json(out / "chain.json", {
        "kind": "chain_verdict", "n": spec.n, "h_x": spec.h_x,
        "h_y": spec.h_y, "sector": spec.sector,
        "levels": int(len(record.eigenvalues)),
        "spacing_count": int(len(record.unfolded_spacings)),
        "ks_poisson": record.ks_poisson, "ks_wigner": record.ks_wigner,
        "verdict": record.verdict, "r_mean": record.r_mean,
        "diagnostics": {"method": record.method, "dense_dim": record.dense_dim,
                        "mode_energies": record.mode_energies,
                        "unfold_condition": record.unfold_condition,
                        "trimmed_levels": record.trimmed_levels}})
    if cfg["plot"]:
        hist = spinchain.spacing_histogram(record.unfolded_spacings, cfg["bins"])
        grid = np.linspace(0.0, max(4.0, float(hist.edges[-1])), 200)
        _write_text(out / "chain.svg", svgplot.histogram_plot(
            hist.edges, hist.densities,
            [(grid, spinchain.poisson_spacing_pdf(grid), "exponential law"),
             (grid, spinchain.wigner_spacing_pdf(grid), "Wigner-Dyson law")],
            f"Level spacings, n={spec.n}, h=({spec.h_x:g},{spec.h_y:g}), "
            f"{spec.sector}", "s", "density"))
    return EXIT_OK


_REPORT_KINDS = ("metric_check", "curvature_signs", "jacobi_fit", "ige_fit",
                 "chain_verdict")


def _input_field(path: Path, obj: dict, kinds: type | tuple, *keys: str):
    """obj[keys[0]][keys[1]]... if it is one of ``kinds`` (a bool is no
    number), else a validation error naming the input file and key."""
    val = obj
    for key in keys:
        val = val.get(key) if isinstance(val, dict) else None
    if isinstance(val, bool) or not isinstance(val, kinds):
        raise ValidationError(
            f"input {path}: key {'.'.join(keys)!r} must be "
            f"{getattr(kinds, '__name__', 'a number')}, got {val!r}",
            field="inputs")
    return val


def cmd_report(cfg: dict) -> int:
    inputs = cfg["inputs"]
    if not inputs:
        raise ValidationError("report needs at least one input path",
                              field="inputs")
    payloads = []
    for raw in inputs:
        path = Path(raw)
        if not path.exists():
            raise ValidationError(f"missing input file: {path}", field="inputs")
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"input {path} is not valid JSON: {exc}",
                                  field="inputs")
        if not isinstance(obj, dict):
            raise ValidationError(f"input {path} must hold a JSON object",
                                  field="inputs")
        payloads.append((path, obj))
    number = (int, float)
    manifolds: dict[str, dict] = {}
    chains: dict[str, str] = {}
    metrics: dict[str, dict] = {}
    seen = set()
    for path, obj in payloads:
        kind = obj.get("kind")
        if kind not in _REPORT_KINDS:
            continue
        seen.add(kind)
        field = partial(_input_field, path, obj)
        if kind == "metric_check":
            metrics[field(str, "family")] = {
                "max_rel_error": field(number, "max_rel_error"),
                "n_points": field(int, "n_points")}
        elif kind == "curvature_signs":
            manifolds.setdefault(field(str, "manifold"), {})[
                "scalar_sign"] = field(str, "classification")
        elif kind == "jacobi_fit":
            manifolds.setdefault(field(str, "manifold"), {})[
                "lambda_j"] = field(number, "lambda_j")
        elif kind == "ige_fit":
            entry = manifolds.setdefault(field(str, "manifold"), {})
            entry["ige"] = selected = field(str, "selected")
            entry["ige_rate"] = field(number, selected, "slope")
        elif kind == "chain_verdict":
            key = f"({field(number, 'h_x'):g},{field(number, 'h_y'):g})"
            chains[key] = field(str, "verdict")
    missing = [k for k in _REPORT_KINDS if k not in seen]
    out = _out_dir(cfg)
    report = {"kind": "report", "manifolds": manifolds, "chain": chains,
              "metric": metrics, "missing": missing}
    write_json(out / "report.json", report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", help="JSON config file")
    files.add_argument("--out", default="igac-out",
                       help="output directory (default %(default)s)")
    tables = argparse.ArgumentParser(add_help=False)
    tables.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular data format (default %(default)s)")
    plots = argparse.ArgumentParser(add_help=False)
    plots.add_argument("--plot", action="store_true", help="emit SVG plots")

    parser = argparse.ArgumentParser(
        prog="igac",
        description="Information-geometric chaos laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", parents=[files, tables, plots],
                       help="Fisher metric: closed form vs quadrature")
    p.add_argument("--family", choices=FAMILY_NAMES)
    p.add_argument("--point", help="name=value,... single parameter point")
    p.add_argument("--grid", help="name=lo:hi:count,... parameter grid")

    p = sub.add_parser("curvature", parents=[files, tables],
                       help="curvature tensors and scalar-sign classification")
    p.add_argument("--manifold", choices=MODEL_NAMES)
    p.add_argument("--point", help="comma-separated coordinates")
    p.add_argument("--sample", type=int, default=50,
                   help="random in-domain points (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the --sample points (default %(default)s)")
    p.add_argument("--atol", type=float, default=1e-5,
                   help="sign-classification tolerance")

    for name, tau_max, samples in (("geodesic", 10.0, 512),
                                   ("jacobi", 30.0, 512),
                                   ("ige", 100.0, 1024)):
        p = sub.add_parser(name, parents=[files, tables, plots])
        p.add_argument("--manifold", choices=MODEL_NAMES)
        p.add_argument("--theta0", help="comma-separated start coordinates")
        p.add_argument("--v0", help="comma-separated start velocity")
        p.add_argument("--tau-max", dest="tau_max", type=float,
                       default=tau_max)
        p.add_argument("--tol", type=float, default=1e-8,
                       help="integrator tolerance")
        p.add_argument("--samples", type=int, default=samples,
                       help="grid points recorded")
    p = sub.choices["jacobi"]
    p.add_argument("--j0", help="initial deviation components")
    p.add_argument("--dj0", help="initial covariant deviation rate")
    p.add_argument("--window", help="lo:hi fit window for lambda_J")
    sub.choices["ige"].add_argument("--window", help="lo:hi fit window")

    p = sub.add_parser("chain", parents=[files, tables, plots],
                       help="spin-chain spectrum and spacing statistics")
    p.add_argument("--n", type=int, default=11, help="number of spins")
    p.add_argument("--hx", type=float, default=1.0, help="x field component")
    p.add_argument("--hy", type=float, default=1.0, help="y field component")
    p.add_argument("--sector", choices=spinchain.SECTORS,
                   default="reflection_even")
    p.add_argument("--poly-degree", dest="poly_degree", type=int, default=7)
    p.add_argument("--trim", type=float, default=0.1,
                   help="edge trim fraction")
    p.add_argument("--margin", type=float, default=0.01,
                   help="verdict KS margin")
    p.add_argument("--bins", type=int, default=40,
                   help="histogram bins for --plot")

    p = sub.add_parser("report", parents=[files],
                       help="bundle prior JSON outputs into one record")
    p.add_argument("inputs", nargs="*", help="paths of prior JSON outputs")
    return parser


_DISPATCH = {
    "metric": cmd_metric,
    "curvature": cmd_curvature,
    "geodesic": cmd_geodesic,
    "jacobi": cmd_jacobi,
    "ige": cmd_ige,
    "chain": cmd_chain,
    "report": cmd_report,
}

# Every IgacError derives from exactly one of these built-in classes,
# which names its category and exit code.
_CATEGORIES = ((ValueError, "validation", EXIT_VALIDATION),
               (RuntimeError, "resource", EXIT_RESOURCE),
               (ArithmeticError, "numerical", EXIT_NUMERICAL))


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in a process shares; parsing leaves it
    as built, and nothing else may change it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _effective_config(argv, args)
        return _DISPATCH[args.command](cfg)
    except IgacError as exc:
        category, code = next((category, code) for base, category, code
                              in _CATEGORIES if isinstance(exc, base))
        payload = {"error": category, "message": str(exc)}
        if exc.field:
            payload["field"] = exc.field
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
