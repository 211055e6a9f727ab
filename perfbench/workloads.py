"""Benchmark workloads: seeded inputs, the CLI steps of one pass, and output checks.

A workload turns a seed into config files, names the ``cornerflow`` CLI steps
of one pass and checks what a pass wrote.  Seed 0 (``DEFAULT_SEED``) gives the
nominal inputs, the only ones whose outputs are compared against the values in
``reference.json`` (``check`` gets ``ref=None`` otherwise); every other seed scales the radius-window endpoints and
``beta`` by factors drawn from [1 - PERTURB, 1 + PERTURB].  The invariant checks
(exit codes, CSV layout, finiteness, closed-form targets, convergence) apply to
every seed.
"""

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
PERTURB = 0.03

H256 = 1.0 / 256.0
STOKES = {"profile": "stokes_corner", "x1_circ": 1.0, "offset_x1": 1.0}
SWEEP_HEADER = [
    "r", "I", "J", "M", "dM_fd",
    "k1", "k2", "k3", "k4", "k5", "k6",
    "D", "V", "N", "e", "Pi", "pohozaev_residual", "energy_identity_residual",
]
# root of P'_{3/2} (cos of the pointed-bubble cone angle 114.799 deg), from
# mpmath at 40 digits; the origin M target is -(1 - s*^2)/8
S_STAR = -0.41944305104209505422
ORIGIN_M = -(1.0 - S_STAR * S_STAR) / 8.0
ORIGIN_M_TOL = 1e-9
STOKES_DENSITY = math.sqrt(3.0) / 3.0
STOKES_DENSITY_TOL = 1e-2
# recorded-value comparisons.  Sweep entries get SWEEP_RTOL of their own size
# plus SWEEP_ATOL of their column's largest size.  Perturbing the field by 1e-15
# moves the entries by at most 5e-10 relative: the incompressible k1 = E_H - E_F
# cancels to ~1e-7 of its terms.  The final energy gets ENERGY_RTOL.  All three
# allow the roundoff of a reordered sum or of closed-form F (<= 6e-15 per node)
SWEEP_RTOL = 1e-7
SWEEP_ATOL = 1e-13
ENERGY_RTOL = 1e-8


@dataclass
class Step:
    """One ``cornerflow <sub> --config <name>.cfg --out <out>`` call."""

    sub: str
    name: str
    cfg: dict
    out: str


def write_config(path, cfg):
    with open(path, "w") as f:
        for key, val in cfg.items():
            f.write(f"{key} = {val!r}\n" if isinstance(val, float) else f"{key} = {val}\n")


def _factors(workload, seed, n):
    if seed == DEFAULT_SEED:
        return [1.0] * n
    rng = random.Random(f"{workload}:{seed}")
    return [1.0 + PERTURB * rng.uniform(-1.0, 1.0) for _ in range(n)]


# ---------------------------------------------------------------------------
# checks shared by the workloads
# ---------------------------------------------------------------------------

class CheckError(Exception):
    """An output of a pass is missing, malformed or wrong."""


def read_csv(path, header, n_rows):
    """Header, row count and finiteness of a CLI CSV; returns the value table."""
    if not os.path.exists(path):
        raise CheckError(f"{path}: missing")
    with open(path) as f:
        got = f.readline().strip().split(",")
        if got != header:
            raise CheckError(f"{path}: header {got} != {header}")
        table = np.loadtxt(f, delimiter=",", ndmin=2)
    if table.shape != (n_rows, len(header)):
        raise CheckError(f"{path}: shape {table.shape} != {(n_rows, len(header))}")
    if not np.all(np.isfinite(table)):
        raise CheckError(f"{path}: non-finite values")
    return table


def read_field(path, box, h):
    """Field file header and finite values of the expected shape."""
    if not os.path.exists(path):
        raise CheckError(f"{path}: missing")
    with open(path) as f:
        head = f.readline().split()
        vals = np.loadtxt(f, ndmin=2)
    if head[0] != "grid" or [float(v) for v in head[1:]] != [*box, h]:
        raise CheckError(f"{path}: header {head}")
    shape = (round((box[1] - box[0]) / h), round((box[3] - box[2]) / h))
    if vals.shape != shape or not np.all(np.isfinite(vals)):
        raise CheckError(f"{path}: values of shape {vals.shape}, expected finite {shape}")
    return vals


def read_minimize_log(path):
    if not os.path.exists(path):
        raise CheckError(f"{path}: missing")
    with open(path) as f:
        log = json.load(f)
    if not log.get("converged"):
        raise CheckError(f"{path}: not converged ({log.get('message')!r})")
    its = log["iterations"]
    if not its or not all(math.isfinite(rec["energy"]) for rec in its):
        raise CheckError(f"{path}: empty or non-finite energy trace")
    return log


def minimize_iterations(log):
    """Descent iterations of one run (the log keeps only the last 2000)."""
    return log["iterations"][-1]["it"] + 1


def check_radii(table, radii, path):
    if not np.allclose(table[:, 0], radii, rtol=1e-14, atol=0.0):
        raise CheckError(f"{path}: radii differ from the requested window")


def compare_table(table, ref, path):
    ref = np.asarray(ref, dtype=float)
    if ref.shape != table.shape:
        raise CheckError(f"{path}: recorded table has shape {ref.shape}, got {table.shape}")
    tol = SWEEP_RTOL * np.abs(ref) + SWEEP_ATOL * np.max(np.abs(ref), axis=0)
    bad = np.nonzero(np.any(np.abs(table - ref) > tol, axis=0))[0]
    if bad.size:
        cols = ", ".join(SWEEP_HEADER[j] for j in bad)
        raise CheckError(f"{path}: differs from the recorded values in {cols}")


def compare_energy(energy, ref, path):
    if abs(energy - ref) > ENERGY_RTOL * abs(ref):
        raise CheckError(f"{path}: final energy {energy!r} != recorded {ref!r}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class SweepGamma2:
    """gamma = 2 stagnation sweep on a Stokes-corner grid field (EOS-bound, large arrays)."""

    name = "sweep-gamma2"
    box = (0.75, 1.25, -0.25, 0.25)
    n_radii = 8

    def prepare(self, inputs):
        """The field file is an input: made once per run, before timing."""
        cfg = dict(STOKES, x1_min=self.box[0], x1_max=self.box[1], x2_min=self.box[2],
                   x2_max=self.box[3], h=H256, write_field=1)
        return [Step("profile-table", "field", cfg, inputs)]

    def window(self, seed):
        f_lo, f_hi = _factors(self.name, seed, 2)
        return 0.02 * f_lo, 0.1 * f_hi

    def steps(self, seed, inputs):
        r_min, r_max = self.window(seed)
        cfg = {"field": os.path.join(inputs, "field.txt"), "kind": "stagnation",
               "center_x1": 1.0, "center_x2": 0.0, "gamma": 2.0,
               "r_min": r_min, "r_max": r_max, "n_radii": self.n_radii}
        return [Step("sweep", "sweep", cfg, "sweep")]

    def check(self, pdir, seed, ref):
        path = os.path.join(pdir, "sweep", "sweep.csv")
        table = read_csv(path, SWEEP_HEADER, self.n_radii)
        check_radii(table, np.geomspace(*self.window(seed), self.n_radii), path)
        if not (np.all(table[:, 1] > 0) and np.all(table[:, 2] > 0)):
            raise CheckError(f"{path}: I or J not positive")
        if ref is not None:
            compare_table(table, ref["sweep"], path)
        return {"sweep": table.tolist()}


class MinimizeGamma2:
    """gamma = 2 flat-origin energy descent (EOS-bound, tiny arrays, many calls)."""

    name = "minimize-gamma2"
    box = (0.0, 0.25, 0.0, 0.25)
    h = 1.0 / 32.0

    def prepare(self, inputs):
        return []

    def steps(self, seed, inputs):
        (f_beta,) = _factors(self.name, seed, 1)
        cfg = {"gamma": 2.0, "profile": "flat_origin", "beta": 0.3 * f_beta,
               "x1_min": self.box[0], "x1_max": self.box[1], "x2_min": self.box[2],
               "x2_max": self.box[3], "h": self.h}
        return [Step("minimize", "minimize", cfg, "minimize")]

    def check(self, pdir, seed, ref):
        out = os.path.join(pdir, "minimize")
        log = read_minimize_log(os.path.join(out, "minimize_log.json"))
        vals = read_field(os.path.join(out, "field.txt"), self.box, self.h)
        if np.any(vals < 0):
            raise CheckError(f"{out}/field.txt: negative values after projection")
        energy = log["iterations"][-1]["energy"]
        if ref is not None:
            compare_energy(energy, ref["energy"], os.path.join(out, "minimize_log.json"))
        return {"energy": energy, "iterations": minimize_iterations(log)}


class LabIncompressible:
    """Five incompressible steps: no EOS inversion, every other module loaded."""

    name = "lab-incompressible"
    box = (0.25, 1.75, -0.75, 0.75)
    stag_radii = 33
    origin_radii = 40

    def prepare(self, inputs):
        return []

    def windows(self, seed):
        """Stagnation and origin radius windows.

        The default-seed stagnation sweep uses the CLI's own window,
        geomspace(4h, 0.9 delta, 33) with delta = 0.375 for this box.
        """
        s_lo, s_hi, o_lo, o_hi = _factors(self.name, seed, 4)
        return (4 * H256 * s_lo, 0.9 * 0.375 * s_hi), (0.02 * o_lo, 0.2 * o_hi)

    def steps(self, seed, inputs):
        (s_min, s_max), (o_min, o_max) = self.windows(seed)
        field = os.path.join("prof", "field.txt")
        stag = {"field": field, "kind": "stagnation", "center_x1": 1.0, "center_x2": 0.0}
        if seed != DEFAULT_SEED:
            stag.update(r_min=s_min, r_max=s_max, n_radii=self.stag_radii)
        origin = {"profile": "garabedian_bubble", "kind": "origin",
                  "r_min": o_min, "r_max": o_max, "n_radii": self.origin_radii}
        return [
            Step("profile-table", "prof", dict(STOKES, x1_min=self.box[0], x1_max=self.box[1],
                                                x2_min=self.box[2], x2_max=self.box[3],
                                                h=H256, write_field=1), "prof"),
            Step("sweep", "stag", stag, "stag"),
            Step("sweep", "origin", origin, "origin"),
            Step("classify", "cls", {"field": field, "point_x1": 1.0, "kind": "stagnation"}, "cls"),
            Step("minimize", "min", dict(STOKES, x1_min=0.75, x1_max=1.25, x2_min=-0.25,
                                          x2_max=0.25, h=2 * H256), "min"),
        ]

    def check(self, pdir, seed, ref):
        n = round((self.box[1] - self.box[0]) / H256)
        read_csv(os.path.join(pdir, "prof", "profile_table.csv"),
                 ["x1", "x2", "u", "ux1", "ux2"], n * n)
        read_field(os.path.join(pdir, "prof", "field.txt"), self.box, H256)

        stag_window, origin_window = self.windows(seed)
        path = os.path.join(pdir, "stag", "sweep.csv")
        stag = read_csv(path, SWEEP_HEADER, self.stag_radii)
        check_radii(stag, np.geomspace(*stag_window, self.stag_radii), path)
        if ref is not None:
            compare_table(stag, ref["stag"], path)

        path = os.path.join(pdir, "origin", "sweep.csv")
        origin = read_csv(path, SWEEP_HEADER, self.origin_radii)
        check_radii(origin, np.geomspace(*origin_window, self.origin_radii), path)
        dev = float(np.max(np.abs(origin[:, 3] - ORIGIN_M)))
        if dev > ORIGIN_M_TOL:
            raise CheckError(f"{path}: origin M deviates from -(1-s*^2)/8 by {dev:.1e}")

        path = os.path.join(pdir, "cls", "classification.json")
        if not os.path.exists(path):
            raise CheckError(f"{path}: missing")
        with open(path) as f:
            cls = json.load(f)
        if cls["label"] != "StokesCorner" or not abs(cls["density"] - STOKES_DENSITY) <= STOKES_DENSITY_TOL:
            raise CheckError(f"{path}: {cls['label']} with density {cls['density']!r}")

        log = read_minimize_log(os.path.join(pdir, "min", "minimize_log.json"))
        read_field(os.path.join(pdir, "min", "field.txt"), (0.75, 1.25, -0.25, 0.25), 2 * H256)
        return {"stag": stag.tolist(), "iterations": minimize_iterations(log)}


WORKLOADS = {w.name: w for w in (SweepGamma2(), MinimizeGamma2(), LabIncompressible())}
