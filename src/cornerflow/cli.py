"""Batch CLI: deterministic file-based runs of the computational modules.

Config files are flat ``key = value`` text with ``#`` comments.  Every
run reads one config, writes its artifacts into ``--out`` and exits
with 0 on success, 1 on domain/geometry/config errors, 2 on numerical
non-convergence.  Floats are written with 17 significant digits, so
identical configs produce byte-identical outputs.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import classify as classify_mod
from . import functionals, profiles, solver
from .eos import EosModel, F_of, GammaLawMedium, IncompressibleMedium, invert_density, lambda_of
from .errors import ConfigError, CornerflowError, DomainError, GeometryError, NumericalError
from .fields import GridField, write_rows
from .legendre import find_theta_star, legendre_ode_residual
from .svgplot import write_svg_levels, write_svg_lines

SUBCOMMANDS = ("eos-table", "profile-check", "profile-table", "minimize", "sweep", "classify")


def parse_config(path):
    cfg = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw.rstrip()!r}")
        key, val = (p.strip() for p in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{ln}: empty key")
        cfg[key] = val
    return cfg


def _get(cfg, key, cast=float, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        val = cast(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}")
    if cast is float and not np.isfinite(val):
        raise ConfigError(f"key {key!r} must be finite, got {cfg[key]!r}")
    return val


def _positive(cfg, key, cast=float, default=None):
    val = _get(cfg, key, cast=cast, default=default, required=default is None)
    if not val > 0:
        raise ConfigError(f"{key} must be positive, got {val}")
    return val


def _window(cfg, lo_key, hi_key, positive=False):
    """Required keys lo < hi, and 0 < lo if ``positive``."""
    lo = _get(cfg, lo_key, required=True)
    hi = _get(cfg, hi_key, required=True)
    if not (lo < hi and (lo > 0 or not positive)):
        raise ConfigError(f"need {'0 < ' if positive else ''}{lo_key} < {hi_key}, got {lo} and {hi}")
    return lo, hi


def _eos_model(cfg):
    return EosModel(
        gamma=_get(cfg, "gamma", required=True),
        A=_get(cfg, "A", default=1.0),
        rho_bar0=_get(cfg, "rho_bar0", default=1.0),
        g=_get(cfg, "g", default=1.0),
        eps0=_get(cfg, "eps0", default=None),
    )


def _medium(cfg):
    if "gamma" in cfg:
        return GammaLawMedium(_eos_model(cfg))
    return IncompressibleMedium(_get(cfg, "rho_bar0", default=1.0))


def _profile_spec(cfg):
    name = cfg.get("profile")
    if name is None:
        raise ConfigError("missing required key 'profile'")
    if name == "stokes_corner":
        coeff = _get(cfg, "coeff", default=None)
        x1c = _get(cfg, "x1_circ", default=None)
        return profiles.stokes_corner(coeff=coeff, x1_circ=x1c, rho_bar0=_get(cfg, "rho_bar0", default=1.0))
    if name == "axis_parabola":
        return profiles.axis_parabola(alpha=_get(cfg, "alpha", default=1.0))
    if name == "garabedian_bubble":
        return profiles.garabedian_bubble(beta0=_get(cfg, "beta0", default=None))
    if name == "flat_origin":
        return profiles.flat_origin(beta=_get(cfg, "beta", default=None))
    if name == "zero":
        return profiles.zero_profile()
    raise ConfigError(f"unknown profile {name!r}")


def _load_field(cfg):
    if "field" in cfg:
        path = cfg["field"]
        if not os.path.exists(path):
            raise ConfigError(f"field file {path!r} not found")
        return GridField.read(path)
    spec = _profile_spec(cfg)
    off = (_get(cfg, "offset_x1", default=0.0), _get(cfg, "offset_x2", default=0.0))
    return profiles.profile_field(spec, offset=off)


def _write_csv(path, header, rows):
    """``rows``: a 2-D array, or a sequence of rows, of len(header) floats."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        write_rows(f, np.reshape(np.asarray(rows, dtype=float), (-1, len(header))), ",")


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_eos_table(cfg, out, opts):
    model = _eos_model(cfg)
    tv = np.linspace(
        _get(cfg, "t_min", default=0.0),
        _get(cfg, "t_max", required=True),
        _positive(cfg, "t_count", int, default=5),
    )
    sv = np.linspace(
        _get(cfg, "s_min", default=0.0),
        _get(cfg, "s_max", required=True),
        _positive(cfg, "s_count", int, default=5),
    )
    rows = []
    for s in sv:
        for t in tv:
            st = invert_density(model, float(t), float(s))
            F, _, _ = F_of(model, float(t), float(s))
            lam = lambda_of(model, float(s))
            rows.append((t, s, st.rho, st.d1H, st.d2H, F, lam))
    _write_csv(
        os.path.join(out, "eos_table.csv"),
        ["t", "s", "H", "d1H", "d2H", "F", "lambda"],
        rows,
    )
    return 0


def run_profile_check(cfg, out, opts):
    c = find_theta_star()
    checks = {}
    rng = np.random.default_rng(20240801)
    for spec in (
        profiles.stokes_corner(),
        profiles.axis_parabola(1.0),
        profiles.garabedian_bubble(),
        profiles.flat_origin(),
    ):
        pde = []
        hom = []
        pts = _interior_points(spec, rng, 24)
        for x in pts:
            try:
                pde.append(abs(profiles.profile_pde_residual(spec, x)))
            except CornerflowError:
                continue
            lam = 1.0 + rng.random()
            u1 = float(profiles.eval_profile(spec, lam * x[0], lam * x[1]))
            u0 = float(profiles.eval_profile(spec, x[0], x[1]))
            hom.append(abs(u1 - lam**spec.degree * u0) / max(abs(u1), 1e-300))
        checks[spec.kind] = {
            "max_pde_residual": max(pde) if pde else 0.0,
            "max_homogeneity_relerr": max(hom) if hom else 0.0,
            "degree": spec.degree,
        }
    obj = {
        "s_star": c.s_star,
        "theta_star_deg": c.theta_star_deg,
        "theta_star_rad": c.theta_star_rad,
        "m0": c.m0,
        "beta": c.beta,
        "beta0": profiles.garabedian_beta0(),
        "legendre_ode_max_residual": float(
            np.max(np.abs(legendre_ode_residual(1.5, np.linspace(-0.9, 0.9, 37))))
        ),
        "profiles": checks,
    }
    _write_json(os.path.join(out, "profile_check.json"), obj)
    return 0


def _interior_points(spec, rng, n):
    pts = []
    for _ in range(200):
        if len(pts) >= n:
            break
        rho = 0.3 + 0.6 * rng.random()
        if spec.kind == "StokesCorner":
            th = (rng.random() - 0.5) * 0.9 * (2 * np.pi / 3)
        elif spec.kind == "GarabedianBubble":
            cst = profiles.theta_star_constants()
            th = np.pi - cst.theta_star_rad * (0.08 + 0.84 * rng.random())
        elif spec.kind == "FlatOrigin":
            th = 0.15 + 0.6 * rng.random()
        else:
            th = 0.2 + rng.random()
        x1 = rho * np.sin(th)
        x2 = rho * np.cos(th)
        if x1 > 0.05:
            pts.append((float(x1), float(x2)))
    return pts


def run_profile_table(cfg, out, opts):
    spec = _profile_spec(cfg)
    off = (_get(cfg, "offset_x1", default=0.0), _get(cfg, "offset_x2", default=0.0))
    x1_min, x1_max = _window(cfg, "x1_min", "x1_max")
    x2_min, x2_max = _window(cfg, "x2_min", "x2_max")
    h = _positive(cfg, "h")
    fld = profiles.profile_field(spec, offset=off)
    grid = fld.resample(x1_min, x1_max, x2_min, x2_max, h)
    X1, X2 = np.meshgrid(grid.cell_x1, grid.cell_x2, indexing="ij")
    g1, g2 = profiles.eval_profile_gradient(spec, X1 - off[0], X2 - off[1])
    cols = (X1, X2, grid.values, g1, g2)
    _write_csv(
        os.path.join(out, "profile_table.csv"),
        ["x1", "x2", "u", "ux1", "ux2"],
        np.column_stack([c.ravel() for c in cols]),
    )
    if _get(cfg, "write_field", cast=int, default=0):
        grid.write(os.path.join(out, "field.txt"))
    return 0


def run_minimize(cfg, out, opts):
    med = _medium(cfg)
    if "profile" in cfg:
        spec = _profile_spec(cfg)
        off = (_get(cfg, "offset_x1", default=0.0), _get(cfg, "offset_x2", default=0.0))
        fld = profiles.profile_field(spec, offset=off)
        boundary = fld.value
    else:
        boundary = lambda x1, x2: np.zeros_like(np.asarray(x1))
    mc = solver.MinimizeConfig(
        *_window(cfg, "x1_min", "x1_max"),
        *_window(cfg, "x2_min", "x2_max"),
        h=_positive(cfg, "h"),
        boundary=boundary,
        medium=med,
        eps_chi=_get(cfg, "eps_chi", default=None),
        max_iter=int(_get(cfg, "max_iter", cast=int, default=50000)),
        tol=_get(cfg, "tol", default=1e-10),
    )
    fld_out, log = solver.minimize_EF(mc)
    fld_out.write(os.path.join(out, "field.txt"))
    payload = {
        "converged": log.converged,
        "stagnated": log.stagnated,
        "message": log.message,
        "iterations": [
            {"it": it, "energy": E, "step": st, "certificate": cert}
            for (it, E, st, cert) in log.iterations[-2000:]
        ],
    }
    if fld_out.on_axis:
        payload["axis_compatibility_residual"] = solver.axis_compatibility_residual(fld_out)
    _write_json(os.path.join(out, "minimize_log.json"), payload)
    if not log.converged and not log.stagnated:
        raise NumericalError("minimize did not converge within max_iter")
    return 0


def _sweep_radii(cfg, fld, center, kind):
    if "r_min" not in cfg or "r_max" not in cfg:
        return functionals.default_radii(fld, center, kind)
    r_min, r_max = _window(cfg, "r_min", "r_max", positive=True)
    n = _get(cfg, "n_radii", cast=int, default=0)
    if n < 0:
        raise ConfigError(f"n_radii must be nonnegative (0 picks the count), got {n}")
    if n == 0:
        n = max(5, int(np.ceil(24 * np.log10(r_max / r_min))))
    return np.geomspace(r_min, r_max, n)


def run_sweep(cfg, out, opts):
    fld = _load_field(cfg)
    med = _medium(cfg)
    kind = cfg.get("kind")
    if kind not in functionals.KINDS:
        raise ConfigError(f"kind must be one of {functionals.KINDS}")
    center = (_get(cfg, "center_x1", default=0.0), _get(cfg, "center_x2", default=0.0))
    radii = _sweep_radii(cfg, fld, center, kind)
    n_arc = _positive(cfg, "n_arc", int, default=4096)
    sweep = functionals.radial_sweep(fld, med, center, kind, radii, n_arc=n_arc)
    cols = sweep.columns
    zero = np.zeros_like(radii)
    # the frequency block is undefined where J = 0 (zero field): report 0
    defined = cols["J"] > 0
    freq = {k: cols.get(k, zero) for k in ("D", "V", "N", "e", "Pi")}
    for k, v in freq.items():
        freq[k] = np.where(defined & np.isfinite(v), v, 0.0)
    header = [
        "r", "I", "J", "M", "dM_fd",
        "k1", "k2", "k3", "k4", "k5", "k6",
        "D", "V", "N", "e", "Pi", "pohozaev_residual", "energy_identity_residual",
    ]
    dmfd = np.where(np.isfinite(cols["dM_fd"]), cols["dM_fd"], 0.0)
    rows = np.column_stack([
        radii, cols["I"], cols["J"], cols["M"], dmfd,
        cols["k1"], cols["k2"], cols["k3"], cols["k4"], cols["k5"], cols["k6"],
        freq["D"], freq["V"], freq["N"], freq["e"], freq["Pi"],
        cols["pohozaev_residual"], cols["energy_identity_residual"],
    ])
    _write_csv(os.path.join(out, "sweep.csv"), header, rows)
    if opts.plots:
        series = [("M(r)", list(cols["M"]))]
        if kind == "origin":
            series.append(("N(r)", list(freq["N"])))
        write_svg_lines(
            os.path.join(out, "sweep.svg"),
            list(radii),
            series,
            title=f"{kind} sweep",
            xlabel="log10 r",
            ylabel="M, N",
            logx=True,
        )
    return 0


def run_classify(cfg, out, opts):
    fld = _load_field(cfg)
    point = classify_mod.DegeneratePoint(
        x1=_get(cfg, "point_x1", default=0.0),
        x2=_get(cfg, "point_x2", default=0.0),
        kind=cfg.get("kind"),
    )
    radii = None
    if "r_min" in cfg:
        r_min, r_max = _window(cfg, "r_min", "r_max", positive=True)
        radii = np.geomspace(r_min, r_max, _positive(cfg, "n_radii", int, default=10))
    result = classify_mod.classify(fld, point, radii=radii)
    _write_json(os.path.join(out, "classification.json"), result.to_dict())
    if opts.plots:
        r_plot = radii[-1] if radii is not None else 8 * getattr(fld, "h", 0.05)
        blow = classify_mod.blowup(fld, point, float(r_plot))
        write_svg_levels(
            os.path.join(out, "blowup.svg"), blow, title=f"blow-up level sets ({result.label})"
        )
    return 0


RUNNERS = {
    "eos-table": run_eos_table,
    "profile-check": run_profile_check,
    "profile-table": run_profile_table,
    "minimize": run_minimize,
    "sweep": run_sweep,
    "classify": run_classify,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cornerflow",
        description="Free-boundary singularity laboratory (batch runs)",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="flat key = value config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--plots", action="store_true", help="also write SVG plots")
    parser.add_argument("--threads", type=int, default=1, help="accepted; has no effect (runs are serial)")
    opts = parser.parse_args(argv)

    try:
        cfg = parse_config(opts.config)
        os.makedirs(opts.out, exist_ok=True)
        return RUNNERS[opts.subcommand](cfg, opts.out, opts)
    except (ConfigError, DomainError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except CornerflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
