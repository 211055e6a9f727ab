"""Discrete scalar fields on the axisymmetric half-plane.

GridField is the cell-centered lattice used by the solver and the CLI
file format; AnalyticField wraps closed-form profiles so the sweep
machinery can query exact values and gradients at quadrature nodes.
"""

import math

import numpy as np

from .errors import DomainError, GeometryError

CHI_REL_THRESHOLD = 1e-10  # positivity threshold relative to max(u)
_CHUNK = 2048  # values formatted per write: memory stays bounded


def write_rows(f, rows, sep):
    """Write the rows of a 2-D float array as ``format(v, ".17g")``, one % per chunk."""
    width = rows.shape[1]
    line = sep.join(["%.17g"] * width) + "\n"
    step = max(1, _CHUNK // max(width, 1))
    for i in range(0, len(rows), step):
        chunk = rows[i:i + step]
        f.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


class GridField:
    """Cell-centered values on [x1_min, x1_max] x [x2_min, x2_max].

    Cell centers sit at offsets (i + 1/2) h; a grid with x1_min == 0
    therefore has no node on the symmetry axis, and interpolation uses
    an odd ghost column there (u = 0 on the axis).
    """

    def __init__(self, x1_min, x1_max, x2_min, x2_max, h, values, chi_threshold=None):
        values = np.asarray(values, dtype=float)
        if not (0 < h < math.inf and math.isfinite((x1_max - x1_min) / h + (x2_max - x2_min) / h)):
            raise DomainError(f"need a finite box and 0 < h < inf, got h = {h}")
        n1 = int(round((x1_max - x1_min) / h))
        n2 = int(round((x2_max - x2_min) / h))
        if abs(n1 * h - (x1_max - x1_min)) > 1e-9 * h or abs(n2 * h - (x2_max - x2_min)) > 1e-9 * h:
            raise DomainError("box dimensions must be integer multiples of h")
        if values.shape != (n1, n2):
            raise DomainError(f"values shape {values.shape} != grid shape {(n1, n2)}")
        self.x1_min = float(x1_min)
        self.x1_max = float(x1_max)
        self.x2_min = float(x2_min)
        self.x2_max = float(x2_max)
        self.h = float(h)
        self.values = values
        self.n1 = n1
        self.n2 = n2
        self.on_axis = abs(x1_min) < 1e-12
        self.chi_threshold = CHI_REL_THRESHOLD if chi_threshold is None else float(chi_threshold)
        self._padded = None
        self._grad = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_function(cls, fn, x1_min, x1_max, x2_min, x2_max, h):
        n1 = int(round((x1_max - x1_min) / h))
        n2 = int(round((x2_max - x2_min) / h))
        x1 = x1_min + (np.arange(n1) + 0.5) * h
        x2 = x2_min + (np.arange(n2) + 0.5) * h
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        return cls(x1_min, x1_max, x2_min, x2_max, h, fn(X1, X2))

    @property
    def cell_x1(self):
        return self.x1_min + (np.arange(self.n1) + 0.5) * self.h

    @property
    def cell_x2(self):
        return self.x2_min + (np.arange(self.n2) + 0.5) * self.h

    @property
    def umax(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    # -- interpolation ---------------------------------------------------
    def _pad(self, arr, odd_axis):
        p = np.empty((arr.shape[0] + 2, arr.shape[1] + 2))
        p[1:-1, 1:-1] = arr
        if odd_axis and self.on_axis:
            p[0, 1:-1] = -arr[0, :]
        else:
            p[0, 1:-1] = arr[0, :]
        p[-1, 1:-1] = arr[-1, :]
        p[:, 0] = p[:, 1]
        p[:, -1] = p[:, -2]
        return p

    def _interp(self, padded, x1, x2):
        fx = (np.asarray(x1, float) - self.x1_min) / self.h + 0.5
        fy = (np.asarray(x2, float) - self.x2_min) / self.h + 0.5
        if np.any(fx < -0.5) or np.any(fx > self.n1 + 1.5) or np.any(fy < -0.5) or np.any(fy > self.n2 + 1.5):
            raise GeometryError("interpolation point outside grid")
        fx = np.clip(fx, 0.0, float(self.n1 + 1) - 1e-12)
        fy = np.clip(fy, 0.0, float(self.n2 + 1) - 1e-12)
        i0 = np.floor(fx).astype(int)
        j0 = np.floor(fy).astype(int)
        ax = fx - i0
        ay = fy - j0
        v00 = padded[i0, j0]
        v10 = padded[i0 + 1, j0]
        v01 = padded[i0, j0 + 1]
        v11 = padded[i0 + 1, j0 + 1]
        return (1 - ax) * (1 - ay) * v00 + ax * (1 - ay) * v10 + (1 - ax) * ay * v01 + ax * ay * v11

    def value(self, x1, x2):
        if self._padded is None:
            self._padded = self._pad(self.values, odd_axis=True)
        return self._interp(self._padded, x1, x2)

    def _gradient_arrays(self):
        if self._grad is None:
            g1 = np.gradient(self.values, self.h, axis=0, edge_order=2)
            g2 = np.gradient(self.values, self.h, axis=1, edge_order=2)
            if self.on_axis:
                # central difference through the odd ghost column
                g1[0, :] = (self.values[1, :] + self.values[0, :]) / (2.0 * self.h)
            self._grad = (self._pad(g1, odd_axis=False), self._pad(g2, odd_axis=True))
        return self._grad

    def gradient(self, x1, x2):
        p1, p2 = self._gradient_arrays()
        return self._interp(p1, x1, x2), self._interp(p2, x1, x2)

    def chi(self, u):
        return u > self.chi_threshold * max(self.umax, 1e-300)

    # -- geometry ---------------------------------------------------------
    def contains_ball(self, center, r, half=False):
        c1, c2 = center
        lo_needed = max(c1 - r, 0.0) if half else c1 - r
        return (
            lo_needed >= self.x1_min - 1e-12
            and c1 + r <= self.x1_max + 1e-12
            and c2 - r >= self.x2_min - 1e-12
            and c2 + r <= self.x2_max + 1e-12
        )

    def boundary_distance(self, center, half=False):
        c1, c2 = center
        d = min(self.x1_max - c1, c2 - self.x2_min, self.x2_max - c2)
        if not (half and self.on_axis):
            d = min(d, c1 - self.x1_min)
        return d

    # -- file format -------------------------------------------------------
    def write(self, path):
        with open(path, "w") as f:
            f.write(self.header_line() + "\n")
            write_rows(f, self.values, " ")

    def header_line(self):
        vals = (self.x1_min, self.x1_max, self.x2_min, self.x2_max, self.h)
        return "grid " + " ".join(format(v, ".17g") for v in vals)

    @classmethod
    def read(cls, path):
        """Read a field file; a missing or malformed file raises DomainError naming ``path``."""
        try:
            with open(path) as f:
                header = f.readline().split()
                body = f.read()
            if len(header) != 6 or header[0] != "grid":
                raise DomainError("bad field header")
            bounds = [float(v) for v in header[1:]]
            if not body.strip():
                raise DomainError("no cell values")
            values = np.loadtxt(body.splitlines(), ndmin=2, comments=None)
            if not np.all(np.isfinite(values)):
                raise DomainError("cell values must be finite")
            return cls(*bounds, values)
        except (OSError, ValueError) as exc:  # DomainError is a ValueError
            raise DomainError(f"{path}: {exc}") from None


class AnalyticField:
    """Closed-form field with exact value/gradient evaluation.

    ``rays_phi`` lists polar angles (about ``apex``, measured from the
    +x1 axis) along which the field or its gradient has a kink; the
    polar quadrature backend splits panels there.
    """

    def __init__(self, fn, grad_fn, apex=(0.0, 0.0), rays_phi=(), name=""):
        self.fn = fn
        self.grad_fn = grad_fn
        self.apex = (float(apex[0]), float(apex[1]))
        self.rays_phi = tuple(float(a) for a in rays_phi)
        self.name = name
        self.on_axis = True

    def value(self, x1, x2):
        return self.fn(np.asarray(x1, float), np.asarray(x2, float))

    def gradient(self, x1, x2):
        return self.grad_fn(np.asarray(x1, float), np.asarray(x2, float))

    def chi(self, u):
        return u > 0.0

    def contains_ball(self, center, r, half=False):
        return True

    def boundary_distance(self, center, half=False):
        return np.inf

    def resample(self, x1_min, x1_max, x2_min, x2_max, h):
        return GridField.from_function(self.fn, x1_min, x1_max, x2_min, x2_max, h)
