"""Discrete scalar fields on the axisymmetric half-plane.

GridField is the cell-centered lattice used by the solver and the CLI
file format; AnalyticField wraps closed-form profiles so the sweep
machinery can query exact values and gradients at quadrature nodes.
"""

import math
import os
from contextlib import nullcontext
from functools import cached_property

import numpy as np

from .errors import DomainError, GeometryError

CHI_REL_THRESHOLD = 1e-10  # positivity threshold relative to max(u)
_CHUNK = 2048  # values formatted per write: memory stays bounded


def format_values(values):
    """``'%.17g'`` strings of ``values`` in C order: the one float format of every CSV and field file."""
    a = np.ravel(values)
    formatted = (a != 0.0) | np.signbit(a)  # an exact +0.0 (most of a profile table) is just "0"
    v = a[formatted].tolist()
    out = np.full(a.size, "0", dtype=object)
    out[formatted] = ("%.17g\n" * len(v) % tuple(v)).split("\n")[:-1]
    return out.tolist()


def open_new(path):
    """Open ``path`` for writing as a new file: whatever is there, a file or a symlink, is unlinked first.

    On ext4 (``auto_da_alloc``) closing a truncated file starts its writeback,
    and the next rerun's truncation waits for it: several times the write
    itself (docs/decisions.md, "A rerun writes a new file").
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w")


def write_columns(f, columns, sep):
    """Write line k as the k-th strings of ``columns`` joined by ``sep``."""
    lines = "\n".join(map(sep.join, zip(*columns)))
    if lines:
        f.write(lines + "\n")


def write_rows(f, rows, sep):
    """Write the rows of a 2-D float array through ``format_values``, one chunk at a time."""
    width = rows.shape[1]
    step = max(1, _CHUNK // max(width, 1))
    for i in range(0, len(rows), step):
        s = format_values(rows[i:i + step])
        write_columns(f, [s[c::width] for c in range(width)], sep)


def half_ball(center):
    """Whether a ball about ``center`` is a half ball: the axis cuts every ball about an axis or origin point."""
    return center[0] == 0


def header_line(x1_min, x1_max, x2_min, x2_max, h):
    """The first line of a field file on this box."""
    return "grid " + " ".join(format(float(v), ".17g") for v in (x1_min, x1_max, x2_min, x2_max, h))


class GridField:
    """Cell-centered values on [x1_min, x1_max] x [x2_min, x2_max].

    Cell centers sit at offsets (i + 1/2) h; a grid with x1_min == 0
    therefore has no node on the symmetry axis, and interpolation uses
    an odd ghost column there.  A stream function is O(x1^2) at the axis,
    so u, du/dx1 and du/dx2 all vanish on it.
    """

    def __init__(self, x1_min, x1_max, x2_min, x2_max, h, values):
        values = np.asarray(values, dtype=float)
        n1, n2 = self._cell_counts(x1_min, x1_max, x2_min, x2_max, h)
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
        self._padded = None
        self._grad = None
        self._support = None

    # -- construction ---------------------------------------------------
    @staticmethod
    def _cell_counts(x1_min, x1_max, x2_min, x2_max, h):
        """Cells (n1, n2) of the box; DomainError unless h divides a finite box."""
        if not (0 < h < math.inf and math.isfinite((x1_max - x1_min) / h + (x2_max - x2_min) / h)):
            raise DomainError(f"need a finite box and 0 < h < inf, got h = {h}")
        n1 = int(round((x1_max - x1_min) / h))
        n2 = int(round((x2_max - x2_min) / h))
        if abs(n1 * h - (x1_max - x1_min)) > 1e-9 * h or abs(n2 * h - (x2_max - x2_min)) > 1e-9 * h:
            raise DomainError("box dimensions must be integer multiples of h")
        return n1, n2

    @classmethod
    def lattice(cls, x1_min, x1_max, x2_min, x2_max, h):
        """The cell centers of a box holding at least one cell, as ij-indexed (X1, X2)."""
        n1, n2 = cls._cell_counts(x1_min, x1_max, x2_min, x2_max, h)
        if min(n1, n2) < 1:
            raise DomainError("the box holds no cell")
        return np.meshgrid(x1_min + (np.arange(n1) + 0.5) * h, x2_min + (np.arange(n2) + 0.5) * h,
                           indexing="ij")

    @classmethod
    def from_function(cls, fn, x1_min, x1_max, x2_min, x2_max, h):
        X1, X2 = cls.lattice(x1_min, x1_max, x2_min, x2_max, h)
        return cls(x1_min, x1_max, x2_min, x2_max, h, fn(X1, X2))

    @property
    def cell_x1(self):
        return self.x1_min + (np.arange(self.n1) + 0.5) * self.h

    @property
    def cell_x2(self):
        return self.x2_min + (np.arange(self.n2) + 0.5) * self.h

    @cached_property
    def umax(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    # -- interpolation ---------------------------------------------------
    def _pad(self, arr, p=None):
        """``arr`` with a ghost ring (odd across the axis on an on-axis grid), into ``p`` if given."""
        p = np.empty((arr.shape[0] + 2, arr.shape[1] + 2)) if p is None else p
        p[1:-1, 1:-1] = arr
        p[0, 1:-1] = -arr[0, :] if self.on_axis else arr[0, :]
        p[-1, 1:-1] = arr[-1, :]
        p[:, 0] = p[:, 1]
        p[:, -1] = p[:, -2]
        return p

    def _stencil(self, x1, x2):
        """Each point's bilinear stencil: the flat index k of its lower-left padded entry and offsets (ax, ay)."""
        fx = (np.asarray(x1, float) - self.x1_min) / self.h + 0.5
        fy = (np.asarray(x2, float) - self.x2_min) / self.h + 0.5
        if np.any(fx < -0.5) or np.any(fx > self.n1 + 1.5) or np.any(fy < -0.5) or np.any(fy > self.n2 + 1.5):
            raise GeometryError("interpolation point outside grid")
        fx = np.clip(fx, 0.0, float(self.n1 + 1) - 1e-12)
        fy = np.clip(fy, 0.0, float(self.n2 + 1) - 1e-12)
        i0 = np.floor(fx).astype(int)
        j0 = np.floor(fy).astype(int)
        return i0 * (self.n2 + 2) + j0, fx - i0, fy - j0

    def _gather(self, padded, k, ax, ay):
        """The stencils' bilinear combination of ``padded[..., i, j]`` (one array or a stack)."""
        # summed in place in the four-term expression's order
        flat = padded.reshape(padded.shape[:-2] + (-1,))
        out = ((1 - ax) * (1 - ay)) * flat.take(k, axis=-1)
        out += (ax * (1 - ay)) * flat.take(k + (self.n2 + 2), axis=-1)
        out += ((1 - ax) * ay) * flat.take(k + 1, axis=-1)
        out += (ax * ay) * flat.take(k + (self.n2 + 3), axis=-1)
        return out

    def value(self, x1, x2):
        if self._padded is None:
            self._padded = self._pad(self.values)
        return self._gather(self._padded, *self._stencil(x1, x2))

    def _gradient_arrays(self):
        """Padded u, du/dx1 and du/dx2 stacked on a leading axis, built once with their support."""
        if self._grad is None:
            if min(self.n1, self.n2) < 3:
                raise DomainError(f"the gradient stencil needs 3 cells per axis, got {self.n1} x {self.n2}")
            g1 = np.gradient(self.values, self.h, axis=0, edge_order=2)
            g2 = np.gradient(self.values, self.h, axis=1, edge_order=2)
            if self.on_axis:
                # central difference through the odd ghost column
                g1[0, :] = (self.values[1, :] + self.values[0, :]) / (2.0 * self.h)
            self._grad = np.empty((3, self.n1 + 2, self.n2 + 2))
            for k, arr in enumerate((self.values, g1, g2)):
                self._pad(arr, self._grad[k])
            # whether the stencil at flat index k touches a nonzero u, du/dx1 or du/dx2 (-0.0 is zero)
            nz = np.any(self._grad != 0.0, axis=0)
            support = np.zeros_like(nz)
            support[:-1, :-1] = nz[:-1, :-1] | nz[1:, :-1] | nz[:-1, 1:] | nz[1:, 1:]
            self._support = support.ravel()
        return self._grad

    def evaluate(self, x1, x2):
        """u, du/dx1 and du/dx2 at the points from one bilinear stencil."""
        return tuple(self._gather(self._gradient_arrays(), *self._stencil(x1, x2)))

    def evaluate_support(self, x1, x2):
        """The indices ``keep`` of the 1-D points whose stencil touches a nonzero u, du/dx1 or du/dx2, and
        the three at those points, bitwise ``evaluate``'s; at every other point all three are 0."""
        grad = self._gradient_arrays()
        k, ax, ay = self._stencil(x1, x2)
        keep = np.flatnonzero(self._support[k])
        return keep, tuple(self._gather(grad, k[keep], ax[keep], ay[keep]))

    def gradient(self, x1, x2):
        return self.evaluate(x1, x2)[1:]

    def chi(self, u):
        return u > CHI_REL_THRESHOLD * max(self.umax, 1e-300)

    # -- geometry ---------------------------------------------------------
    def boundary_distance(self, center):
        c1, c2 = center
        d = min(self.x1_max - c1, c2 - self.x2_min, self.x2_max - c2)
        if not (half_ball(center) and self.on_axis):
            d = min(d, c1 - self.x1_min)
        return d

    def check_holds(self, center, r, what):
        """GeometryError unless the grid holds the ball or arc ``what``, with its own message per reason:
        a half one (about the axis) needs an on-axis grid."""
        if half_ball(center) and not self.on_axis:
            raise GeometryError(f"half {what} (center={center}, r={r}) needs a grid that starts at x1 = 0, "
                                f"not at x1 = {self.x1_min!r}")
        if not r <= self.boundary_distance(center) + 1e-12:
            raise GeometryError(f"{what} (center={center}, r={r}) leaves the grid")

    # -- file format -------------------------------------------------------
    def write(self, path):
        with open_new(path) as f:
            f.write(header_line(self.x1_min, self.x1_max, self.x2_min, self.x2_max, self.h) + "\n")
            write_rows(f, self.values, " ")

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


def write_profile_table(out, box, evaluate, write_field):
    """Write ``evaluate(X1, X2) -> (u, ux1, ux2)`` on the box's cells as the table and field file.

    Blocks of grid rows are evaluated and formatted once each; the u strings
    go into both files, and each distinct x1 and x2 is formatted once.
    """
    X1, X2 = GridField.lattice(*box)
    n1, n2 = X1.shape
    x1s, x2s = format_values(X1[:, 0]), format_values(X2[0])
    step = max(1, _CHUNK // n2)  # grid rows per block
    field_file = open_new(os.path.join(out, "field.txt")) if write_field else nullcontext()
    with open_new(os.path.join(out, "profile_table.csv")) as f, field_file as ff:
        f.write("x1,x2,u,ux1,ux2\n")
        if ff:
            ff.write(header_line(*box) + "\n")
        for i in range(0, n1, step):
            us, a, b = (format_values(v) for v in evaluate(X1[i:i + step], X2[i:i + step]))
            rows = len(us) // n2
            write_columns(f, ([s for s in x1s[i:i + rows] for _ in range(n2)], x2s * rows, us, a, b), ",")
            if ff:
                write_columns(ff, [us[c::n2] for c in range(n2)], " ")


class AnalyticField:
    """Closed-form field with exact value/gradient evaluation.

    ``evaluate_fn(x1, x2, grad)`` returns (u, du/dx1, du/dx2) from one pass;
    with ``grad`` false only u is needed.  ``rays_phi`` lists polar angles
    (about ``apex``, measured from the +x1 axis) along which the field or its
    gradient has a kink; the polar quadrature backend splits panels there.
    ``degree``, if not None, is the k with u(apex + r x) = r^k u(apex + x) for r > 0.
    """

    def __init__(self, evaluate_fn, apex, rays_phi, degree):
        self.evaluate_fn = evaluate_fn
        self.apex = (float(apex[0]), float(apex[1]))
        self.rays_phi = tuple(float(a) for a in rays_phi)
        self.degree = None if degree is None else float(degree)

    def value(self, x1, x2):
        return self.evaluate_fn(np.asarray(x1, float), np.asarray(x2, float), False)[0]

    def evaluate(self, x1, x2):
        """u, du/dx1 and du/dx2 at the points."""
        return self.evaluate_fn(np.asarray(x1, float), np.asarray(x2, float), True)

    def chi(self, u):
        return u > 0.0

    def boundary_distance(self, center):
        return np.inf

    def resample(self, x1_min, x1_max, x2_min, x2_max, h):
        return GridField.from_function(self.value, x1_min, x1_max, x2_min, x2_max, h)
