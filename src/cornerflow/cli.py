"""Batch CLI: deterministic file-based runs of the computational modules.

Config files are flat ``key = value`` text with ``#`` comments.  Every
run reads one config, writes its artifacts into ``--out`` (``--plots`` adds
SVG plots to a sweep or classify run) and exits with 0 on success, 1 on
domain/geometry/config errors, 2 on numerical non-convergence or a usage
error.  Floats are written with 17 significant digits, so identical
configs produce byte-identical outputs.
"""

import json
import os
import sys
from collections import namedtuple

# before numpy loads OpenBLAS: every BLAS call here is small (dense solves of at most
# 64 unknowns, norms, short dots), so a worker pool only burns CPU; a user's value wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import classify as classify_mod
from . import functionals, profiles, solver
from .eos import EosModel, GammaLawMedium, IncompressibleMedium, invert_admissible, lambda_admissible
from .errors import ConfigError, CornerflowError, NumericalError
from .fields import GridField, write_profile_table, write_rows
from .legendre import legendre_ode_residual
from .svgplot import write_svg_levels, write_svg_lines


def parse_config(path):
    cfg = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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


# a key's type is float, int, str or the tuple of its allowed strings; its
# bound, if any, is "positive" or "nonnegative"
Key = namedtuple("Key", "type default bound", defaults=(None, None))
REQUIRED = object()  # the default of a key that every config must set


# each profile: its constructor and the keys of its parameters, named as the
# constructor's arguments
Profile = namedtuple("Profile", "make keys")
PROFILES = {
    "stokes_corner": Profile(profiles.stokes_corner, {
        "coeff": Key(float), "x1_circ": Key(float), "rho_bar0": Key(float, 1.0)}),
    "axis_parabola": Profile(profiles.axis_parabola, {"alpha": Key(float, 1.0)}),
    "garabedian_bubble": Profile(profiles.garabedian_bubble, {"beta0": Key(float)}),
    "flat_origin": Profile(profiles.flat_origin, {"beta": Key(float)}),
    "zero": Profile(profiles.zero_profile, {}),
}

# shared key blocks; a medium without gamma is incompressible
_MEDIUM = {"gamma": Key(float), "A": Key(float, 1.0), "rho_bar0": Key(float, 1.0), "g": Key(float, 1.0)}
_PROFILE = {
    "profile": Key(tuple(PROFILES)), "offset_x1": Key(float, 0.0), "offset_x2": Key(float, 0.0),
    **{key: spec for p in PROFILES.values() for key, spec in p.keys.items()},
}
_SOURCE = {"field": Key(str), **_PROFILE}  # a field file, else the profile
_BOX = {
    "x1_min": Key(float, REQUIRED), "x1_max": Key(float, REQUIRED),
    "x2_min": Key(float, REQUIRED), "x2_max": Key(float, REQUIRED),
    "h": Key(float, REQUIRED, "positive"),
}
_RADII = {"r_min": Key(float), "r_max": Key(float)}

KEYS = {
    "eos-table": {
        **_MEDIUM, "gamma": Key(float, REQUIRED), "eps0": Key(float),
        "t_min": Key(float, 0.0), "t_max": Key(float, REQUIRED), "t_count": Key(int, 5, "positive"),
        "s_min": Key(float, 0.0), "s_max": Key(float, REQUIRED), "s_count": Key(int, 5, "positive"),
    },
    "profile-check": {},
    "profile-table": {
        **_PROFILE, "profile": Key(tuple(PROFILES), REQUIRED), **_BOX, "write_field": Key(("0", "1"), "0"),
    },
    "minimize": {
        **_MEDIUM, **_PROFILE, **_BOX,
        "eps_chi": Key(float), "max_iter": Key(int, 50000, "positive"), "tol": Key(float, 1e-10),
    },
    "sweep": {
        **_SOURCE, **_MEDIUM, "kind": Key(functionals.KINDS),
        "center_x1": Key(float, 0.0), "center_x2": Key(float, 0.0),
        **_RADII, "n_radii": Key(int, 0, "nonnegative"),
    },
    "classify": {
        **_SOURCE, "point_x1": Key(float, 0.0), "point_x2": Key(float, 0.0),
        "kind": Key(functionals.KINDS), **_RADII, "n_radii": Key(int, 10, "positive"),
    },
}

# (lo, hi, floor): lo < hi wherever both are set, and 0 < lo if floor
WINDOWS = (("x1_min", "x1_max", ""), ("x2_min", "x2_max", ""), ("r_min", "r_max", "0 < "))


def _typed(key, text, spec):
    if isinstance(spec.type, tuple):
        if text not in spec.type:
            raise ConfigError(f"{key} must be one of {spec.type}, got {text!r}")
        return text
    try:
        val = spec.type(text)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}")
    if spec.type is float and not np.isfinite(val):
        raise ConfigError(f"key {key!r} must be finite, got {text!r}")
    if spec.bound == "positive" and not val > 0 or spec.bound == "nonnegative" and not val >= 0:
        raise ConfigError(f"{key} must be {spec.bound}, got {val}")
    return val


def typed_config(raw, sub):
    """The keys of subcommand ``sub`` from the parsed text ``raw``: typed, bounded, defaulted.

    Raises ConfigError on a key outside the subcommand's table, a missing
    required key, a bad or out-of-bound value, a window out of order, or
    ``n_radii`` without its radius window.
    """
    table = KEYS[sub]
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown key {key!r} for {sub}")
    cfg = {}
    for key, spec in table.items():
        if key in raw:
            cfg[key] = _typed(key, raw[key], spec)
        elif spec.default is REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            cfg[key] = spec.default
    if "profile" in table:
        _check_profile_keys(raw, cfg, table)
    for lo_key, hi_key, floor in WINDOWS:
        lo, hi = cfg.get(lo_key), cfg.get(hi_key)
        if lo is None and hi is None:
            continue
        if lo is None or hi is None or not (lo < hi and (lo > 0 or not floor)):
            raise ConfigError(f"need {floor}{lo_key} < {hi_key}, got {lo} and {hi}")
    if "n_radii" in raw and cfg["r_min"] is None:
        raise ConfigError("key 'n_radii' does not apply without r_min and r_max")
    return cfg


def _check_profile_keys(raw, cfg, table):
    """Reject a profile key that the config's source of u does not read."""
    name = cfg["profile"] if cfg.get("field") is None else None
    read = set(_MEDIUM) if _MEDIUM.keys() <= table.keys() else set()  # rho_bar0 is both
    if name is not None:
        read |= {"profile", "offset_x1", "offset_x2", *PROFILES[name].keys}
    for key in raw:
        if key in _PROFILE and key not in read:
            where = (f"to profile {name}" if name
                     else "next to field" if cfg.get("field") else "without a profile")
            raise ConfigError(f"key {key!r} does not apply {where}")


def _eos_model(cfg, eps0=None):
    return EosModel(gamma=cfg["gamma"], A=cfg["A"], rho_bar0=cfg["rho_bar0"], g=cfg["g"], eps0=eps0)


def _medium(cfg):
    return IncompressibleMedium(cfg["rho_bar0"]) if cfg["gamma"] is None else GammaLawMedium(_eos_model(cfg))


def _profile_spec(cfg):
    if cfg["profile"] is None:
        raise ConfigError("missing required key 'profile'")
    make, keys = PROFILES[cfg["profile"]]
    return make(**{key: cfg[key] for key in keys})


def _profile_field(cfg):
    return profiles.profile_field(_profile_spec(cfg), offset=(cfg["offset_x1"], cfg["offset_x2"]))


def _load_field(cfg):
    return _profile_field(cfg) if cfg["field"] is None else GridField.read(cfg["field"])


def _kind(cfg, center):
    """The kind of the point at ``center``; ConfigError if the config's kind names another."""
    kind = functionals.point_kind(center)
    if cfg["kind"] not in (None, kind):
        raise ConfigError(f"kind {cfg['kind']} contradicts the center {center}, whose kind is {kind}")
    return kind


def _box(cfg):
    return cfg["x1_min"], cfg["x1_max"], cfg["x2_min"], cfg["x2_max"], cfg["h"]


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
    model = _eos_model(cfg, eps0=cfg["eps0"])
    tv = np.linspace(cfg["t_min"], cfg["t_max"], cfg["t_count"])
    sv = np.linspace(cfg["s_min"], cfg["s_max"], cfg["s_count"])
    T, S = np.meshgrid(tv, sv)  # one row per (s, t), t fastest
    H, d1, d2, F, _ = invert_admissible(model, T, S)
    lam, _ = lambda_admissible(model, sv)
    cols = (T, S, H, d1, d2, F, np.broadcast_to(lam[:, None], T.shape))
    _write_csv(os.path.join(out, "eos_table.csv"), ["t", "s", "H", "d1H", "d2H", "F", "lambda"],
               np.stack([c.ravel() for c in cols], axis=1))
    return 0


def run_profile_check(cfg, out, opts):
    c = profiles.theta_star_constants()
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
        "beta": profiles.flat_origin().params["beta"],
        "beta0": profiles.garabedian_beta0(),
        "legendre_ode_max_residual": float(
            np.max(np.abs(legendre_ode_residual(1.5, np.linspace(-0.9, 0.9, 37))))
        ),
        "profiles": checks,
    }
    _write_json(os.path.join(out, "profile_check.json"), obj)
    return 0


def _interior_points(spec, rng, n):
    """The first n of 200 draws in the half-annulus 0.3 <= |x| <= 0.9 with x1 > 0.05 and u > 0."""
    rho = 0.3 + 0.6 * rng.random(200)
    th = np.pi * rng.random(200)
    x1 = rho * np.sin(th)
    x2 = rho * np.cos(th)
    keep = np.flatnonzero((x1 > 0.05) & (profiles.eval_profile(spec, x1, x2) > 0.0))[:n]
    return list(zip(x1[keep].tolist(), x2[keep].tolist()))


def run_profile_table(cfg, out, opts):
    write_profile_table(out, _box(cfg), _profile_field(cfg).evaluate, cfg["write_field"] == "1")
    return 0


def run_minimize(cfg, out, opts):
    source = profiles.profile_field(profiles.zero_profile()) if cfg["profile"] is None else _profile_field(cfg)
    mc = solver.MinimizeConfig(*_box(cfg), boundary=source.value, medium=_medium(cfg), eps_chi=cfg["eps_chi"],
                               max_iter=cfg["max_iter"], tol=cfg["tol"])
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


SWEEP_COLUMNS = (
    "r", "I", "J", "M", "dM_fd",
    "k1", "k2", "k3", "k4", "k5", "k6",
    "D", "V", "N", "e", "Pi", "pohozaev_residual", "energy_identity_residual",
)


def run_sweep(cfg, out, opts):
    center = (cfg["center_x1"], cfg["center_x2"])
    kind = _kind(cfg, center)
    fld = _load_field(cfg)
    if cfg["r_min"] is None:
        radii = functionals.default_radii(fld, center)
    else:
        radii = functionals.log_radii(cfg["r_min"], cfg["r_max"], cfg["n_radii"])
    # radii by keyword: perfbench's tracer reads a sweep's radii from the fifth positional or "radii"
    sweep = functionals.radial_sweep(fld, _medium(cfg), center, radii=radii)
    cols = dict(sweep.columns)
    cols["dM_fd"] = np.where(np.isfinite(cols["dM_fd"]), cols["dM_fd"], 0.0)
    # the frequency block is undefined off the origin and where J = 0 (zero field): report 0
    for k in ("D", "V", "N", "e", "Pi"):
        v = cols.get(k, 0.0)
        cols[k] = np.where((cols["J"] > 0) & np.isfinite(v), v, 0.0)
    rows = np.column_stack([cols[k] for k in SWEEP_COLUMNS])
    _write_csv(os.path.join(out, "sweep.csv"), SWEEP_COLUMNS, rows)
    if opts.plots:
        series = [("M(r)", list(cols["M"]))]
        if kind == "origin":
            series.append(("N(r)", list(cols["N"])))
        write_svg_lines(os.path.join(out, "sweep.svg"), list(radii), series, title=f"{kind} sweep")
    return 0


def run_classify(cfg, out, opts):
    center = (cfg["point_x1"], cfg["point_x2"])
    _kind(cfg, center)
    fld = _load_field(cfg)
    radii = (classify_mod.default_radii(fld, center) if cfg["r_min"] is None
             else functionals.log_radii(cfg["r_min"], cfg["r_max"], cfg["n_radii"]))
    result = classify_mod.classify(fld, center, radii=radii)
    _write_json(os.path.join(out, "classification.json"), vars(result))
    if opts.plots:  # the blow-up that classify fits, at its largest radius
        blow = classify_mod.blowup(fld, center, float(radii[-1]))
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


USAGE = f"usage: cornerflow {{{','.join(RUNNERS)}}} --config PATH --out DIR [--plots]"
# what the runners get of the command line
Options = namedtuple("Options", "subcommand config out plots")


def parse_argv(argv):
    """``<subcommand> --config PATH --out DIR [--plots]``, in any order, as Options.

    Each token is read once as written: no abbreviation, no ``--flag=value``.
    Raises ValueError, with the message of a usage error, on an unknown or
    repeated token, a flag without its value, or a missing subcommand,
    ``--config`` or ``--out``.
    """
    got = {}
    tokens = iter(argv)
    for tok in tokens:
        key = "subcommand" if tok in RUNNERS else tok
        if key not in ("subcommand", "--config", "--out", "--plots"):
            raise ValueError(f"unrecognized argument {tok!r}")
        if key in got:
            raise ValueError(f"{key} given twice")
        if key in ("--config", "--out"):
            tok = next(tokens, None)
            if tok is None or tok.startswith("-"):
                raise ValueError(f"{key} needs a value")
        got[key] = tok
    missing = [key for key in ("subcommand", "--config", "--out") if key not in got]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    return Options(got["subcommand"], got["--config"], got["--out"], "--plots" in got)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(f"{USAGE}\n\n{__doc__}", end="")
        raise SystemExit(0)
    try:
        opts = parse_argv(argv)
    except ValueError as exc:
        print(f"{USAGE}\ncornerflow: error: {exc}", file=sys.stderr)
        raise SystemExit(2)

    try:
        cfg = typed_config(parse_config(opts.config), opts.subcommand)
        os.makedirs(opts.out, exist_ok=True)
        return RUNNERS[opts.subcommand](cfg, opts.out, opts)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except CornerflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # counts and h have no upper bound
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an --out that is a file or lies under one, or a failed write
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
