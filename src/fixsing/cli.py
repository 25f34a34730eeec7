"""Command-line front end.

Subcommands: characteristic (series solution of the characteristic
equation), antiplane and plane-strain (crack problems in the composite
plane), gamma0 (plane-strain endpoint exponent over a stiffness sweep),
and verify (invariant suites).  Parameters come from flags or a flat
key=value config file, flags winning; tables are written as CSV or JSON
with the fully resolved configuration echoed into the output.

Exit codes: 0 ok, 1 verification failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import cauchy, complete, kernels, spectral, verify
from .complete import SolveConfig

LOADS = {
    "uniform": (lambda a: (lambda x: a * x)),
    "linear": (lambda a: (lambda x: a * x**2 / 2.0)),
    "quadratic": (lambda a: (lambda x: a * x**3 / 3.0)),
}


class ConfigError(Exception):
    pass


#: argparse options of the parameter flags that do not take a plain float;
#: each subcommand registers only the flags it reads (see _build_parser)
_FLAGS = {
    "--lambda": {"dest": "lam", "type": float,
                 "help": "shear-modulus ratio G1/G2"},
    "--load": {"choices": sorted(LOADS)},
    "--N": {"help": "truncation order (int or comma list)"},
    "--t1": {"type": int}, "--t2": {"type": int},
    "--m0": {"help": "series truncation (int or comma list)"},
    "--grid": {"type": int, "help": "output grid size"},
}


def _read_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line: {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    return values


def _merged(args):
    """Flag values on top of config-file values, with type coercion."""
    merged = dict(_read_config_file(args.config)) if args.config else {}
    for key in ("beta", "lam", "nu1", "nu2", "G1", "G2", "load", "amplitude",
                "N", "t1", "t2", "m0", "grid"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key if key != "lam" else "lambda"] = val
    return merged


def _get_float(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required parameter {key!r}")
        return default
    try:
        value = float(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"parameter {key!r} must be a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"parameter {key!r} must be finite")
    return value


def _get_int(cfg, key, default):
    try:
        return int(float(cfg.get(key, default)))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"parameter {key!r} must be an integer") from None


def _get_int_list(cfg, key, default):
    raw = str(cfg.get(key, default))
    try:
        values = [int(float(tok)) for tok in raw.split(",") if tok.strip()]
    except (ValueError, OverflowError):
        raise ConfigError(f"parameter {key!r} must be integers") from None
    if not values:
        raise ConfigError(f"parameter {key!r} needs at least one integer")
    return values


def _load_fn(cfg):
    name = str(cfg.get("load", "uniform"))
    if name not in LOADS:
        raise ConfigError(f"unknown load {name!r}; choose from {sorted(LOADS)}")
    amp = _get_float(cfg, "amplitude", 1.0)
    return LOADS[name](amp), name, amp


def _material_lambda(cfg):
    if "lambda" in cfg:
        return _get_float(cfg, "lambda")
    if "G1" in cfg or "G2" in cfg:
        g1, g2 = _get_float(cfg, "G1"), _get_float(cfg, "G2")
        if g2 == 0.0:
            raise ConfigError("shear modulus G2 must be nonzero")
        return g1 / g2
    raise ConfigError("specify lambda or the pair G1, G2")


def _emit(args, config, columns, rows, diagnostics):
    payload = {
        "config": {k: (v if isinstance(v, (int, float, str)) else str(v))
                   for k, v in sorted(config.items())},
        "columns": list(columns),
        "rows": [[_fmt(v) for v in row] for row in rows],
        "diagnostics": {k: _fmt(v) for k, v in sorted(diagnostics.items())},
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {k}={v}" for k, v in sorted(payload["config"].items())]
        lines += [f"# {k}={v}" for k, v in sorted(payload["diagnostics"].items())]
        lines.append(",".join(columns))
        lines += [",".join(str(v) for v in row) for row in payload["rows"]]
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v):
    if isinstance(v, float):
        return float(f"{v:.12g}")
    return v


def _profile(cfg, config, sol):
    """Rows (x, phi) on the output grid, whose size is echoed in config."""
    n = _get_int(cfg, "grid", 21)
    if n < 2:
        raise ConfigError("grid needs at least two points")
    config["grid"] = n
    xs = np.linspace(0.0, 1.0, n)
    return [[x, v] for x, v in zip(xs, sol.evaluate(xs))]


def cmd_characteristic(args) -> int:
    cfg = _merged(args)
    beta = _get_float(cfg, "beta")
    if not (0.0 < abs(beta) < 1.0):
        raise ConfigError("characteristic solver needs 0 < |beta| < 1")
    F, load_name, amp = _load_fn(cfg)
    t1 = _get_int(cfg, "t1", 200)
    m0s = _get_int_list(cfg, "m0", "20")
    config = {"command": "characteristic", "beta": beta, "load": load_name,
              "amplitude": amp, "t1": t1, "m0": ",".join(map(str, m0s)),
              "format": args.format}

    f = complete.fourier_load_coeffs(F, t1, max(m0s) + 1)
    sols = [spectral.characteristic_series_solve(
        spectral.build_basis(beta, m0), f[:m0 + 2], m0) for m0 in m0s]
    if len(m0s) > 1:
        rows = [[m0, sol.evaluate(0.5), sol.evaluate(0.25), sol.constant_C]
                for m0, sol in zip(m0s, sols)]
        _emit(args, config, ["m0", "phi_at_0.5", "phi_at_0.25", "C"], rows,
              {})
    else:
        _emit(args, config, ["x", "phi"], _profile(cfg, config, sols[0]),
              {"C": sols[0].constant_C})
    return 0


def _solve_and_emit(args, cfg, config, kern, F, extra):
    """Truncation sweep when N is a list, one diagnosed profile otherwise.

    complete.solve picks the route; a Cauchy-route run is tagged
    solver=cauchy.
    """
    n_list = _get_int_list(cfg, "N", "17")
    t1 = _get_int(cfg, "t1", 200)
    t2 = _get_int(cfg, "t2", 210)
    config.update({"N": ",".join(map(str, n_list)), "t1": t1, "t2": t2,
                   "format": args.format})
    if len(n_list) > 1:
        rows = []
        for n_cut in n_list:
            sol = complete.solve(kern, F, SolveConfig(N=n_cut, t1=t1, t2=t2),
                                 diagnostics=False)
            rows.append([n_cut, sol.evaluate(0.5), sol.constant_C])
        columns, diag = ["N", "phi_at_0.5", "C"], {}
    else:
        sol = complete.solve(kern, F, SolveConfig(N=n_list[0], t1=t1, t2=t2))
        rows, columns = _profile(cfg, config, sol), ["x", "phi"]
        diag = {"C": sol.constant_C, "phi_at_0.5": sol.evaluate(0.5),
                **sol.residual_report}
    if isinstance(sol.basis, cauchy.CauchyBasis):
        extra["solver"] = "cauchy"
    _emit(args, config, columns, rows, {**diag, **extra})
    return 0


def cmd_antiplane(args) -> int:
    cfg = _merged(args)
    lam = _material_lambda(cfg)
    F, load_name, amp = _load_fn(cfg)
    kern = kernels.antiplane_kernel(kernels.AntiplaneParams(lam=lam))
    config = {"command": "antiplane", "lambda": lam, "load": load_name,
              "amplitude": amp}
    return _solve_and_emit(args, cfg, config, kern, F, {"beta": kern.beta})


def cmd_plane_strain(args) -> int:
    cfg = _merged(args)
    lam = _material_lambda(cfg)
    nu1 = _get_float(cfg, "nu1", 0.3)
    nu2 = _get_float(cfg, "nu2", 0.3)
    F, load_name, amp = _load_fn(cfg)
    params = kernels.plane_strain_coeffs(lam, 1.0, nu1, nu2)
    config = {"command": "plane-strain", "lambda": lam, "nu1": nu1,
              "nu2": nu2, "load": load_name, "amplitude": amp}
    return _solve_and_emit(args, cfg, config,
                           kernels.plane_strain_kernel(params), F,
                           {"gamma0": params.gamma0,
                            "beta_eff": params.beta_eff})


def cmd_gamma0(args) -> int:
    cfg = _merged(args)
    nu1 = _get_float(cfg, "nu1", 0.3)
    nu2 = _get_float(cfg, "nu2", 0.3)
    if args.lambda_grid is not None:
        lams = [float(tok) for tok in args.lambda_grid.split(",") if tok.strip()]
        if not lams:
            raise ConfigError(
                "parameter 'lambda-grid' needs at least one value")
    elif "lambda" in cfg or "G1" in cfg:
        lams = [_material_lambda(cfg)]
    else:
        lams = list(np.logspace(-2.0, 2.0, 25))
    config = {"command": "gamma0", "nu1": nu1, "nu2": nu2,
              "lambda_grid": ",".join(f"{v:g}" for v in lams),
              "format": args.format}
    params = [kernels.plane_strain_coeffs(lam, 1.0, nu1, nu2) for lam in lams]
    _emit(args, config, ["lambda", "gamma0", "beta_eff"],
          [[p.G1, p.gamma0, p.beta_eff] for p in params], {})
    return 0


def cmd_verify(args) -> int:
    suites = None
    if args.suite:
        suites = [tok for item in args.suite for tok in item.split(",")]
    results = verify.run(suites=suites, nodes=args.nodes)
    report = {
        "nodes": args.nodes,
        "checks": [r.as_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    _write(args, json.dumps(report, indent=2) + "\n")
    return 0 if report["passed"] else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fixsing",
        description="Singular integral equations with two fixed endpoint "
                    "singularities: solvers and crack-problem applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        p.add_argument("--config", help="flat key=value parameter file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS.get(flag, {"type": float}))
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    load = ("--load", "--amplitude")
    material = ("--lambda", "--G1", "--G2")
    solve = ("--N", "--t1", "--t2", "--grid")
    common(sub.add_parser("characteristic",
                          help="series solution of the characteristic equation"),
           "--beta", *load, "--t1", "--m0", "--grid")
    common(sub.add_parser("antiplane", help="antiplane crack problem"),
           *material, *load, *solve)
    common(sub.add_parser("plane-strain",
                          help="plane-strain crack problem (dominant equation)"),
           *material, "--nu1", "--nu2", *load, *solve)

    g = sub.add_parser("gamma0", help="plane-strain endpoint exponent sweep")
    # --load and --amplitude are accepted and unused: gamma0 has no load
    common(g, *material, "--nu1", "--nu2", *load)
    g.add_argument("--lambda-grid", help="comma list of modulus ratios")

    v = sub.add_parser("verify", help="run the invariant suites")
    v.add_argument("--suite", action="append",
                   help="suite name(s), repeatable or comma separated")
    v.add_argument("--nodes", type=int, default=512,
                   help="quadrature node budget")
    v.add_argument("--out", help="output path (default stdout)")
    return parser


_COMMANDS = {
    "characteristic": cmd_characteristic,
    "antiplane": cmd_antiplane,
    "plane-strain": cmd_plane_strain,
    "gamma0": cmd_gamma0,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # NoBracketError, complete.SingularSystemError (either route) and
        # kernels.ContrastLimitError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
