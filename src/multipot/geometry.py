"""Points on S^{d-1}, atomic measures, and tangent-space operations.

Points are plain float64 numpy arrays of shape (d,); collections of points
are (N, d) arrays.  Two small frozen containers wrap them:

* :class:`PointConfiguration` -- an ordered multiset of N points sharing a
  dimension (repeats allowed).
* :class:`DiscreteMeasure` -- a finite atomic signed measure: atoms plus
  real weights.  Probability measures are the nonnegative unit-mass case,
  balanced measures the total-mass-zero case.

Atomic measures are the computational stand-in for general measures here;
the uniform surface measure enters either through sampled surrogates
(:func:`sample_sphere`) or through closed forms asserted in the tests.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .config import GEOMETRIC_TOL

__all__ = [
    "DegenerateRetraction",
    "PointConfiguration",
    "DiscreteMeasure",
    "basis_vector",
    "unit_vector",
    "sample_sphere",
    "uniform_surrogate",
    "gram",
    "project_tangent",
    "retract",
    "mix",
    "combine",
    "random_rotation",
    "read_points_csv",
    "write_points_csv",
    "read_measure_csv",
    "write_measure_csv",
]


class DegenerateRetraction(ValueError):
    """Raised when a retraction target is too close to the origin."""


def _as_points(points, *, min_dim: int = 2) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise ValueError(f"expected a (N, d) point array, got shape {pts.shape}")
    if pts.shape[1] < min_dim:
        raise ValueError(f"ambient dimension must be >= {min_dim}, got {pts.shape[1]}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    return pts


def _check_on_sphere(points: np.ndarray, what: str) -> None:
    """Reject points (the last axis) whose |norm - 1| exceeds GEOMETRIC_TOL or is
    NaN, naming the worst one and its row (index along the first axis)."""
    off = np.atleast_1d(np.abs(np.linalg.norm(points, axis=-1 if points.ndim > 1 else None) - 1))
    if not np.max(off, initial=0.0) <= GEOMETRIC_TOL:
        row = np.unravel_index(np.argmax(off), off.shape)[0]
        raise ValueError(f"{what} must lie on the unit sphere (tol {GEOMETRIC_TOL:g}): "
                         f"|norm - 1| = {np.max(off):.3e} at row {row}")


def unit_vector(coords) -> np.ndarray:
    """Validate and return a point on S^{d-1} as a (d,) float array."""
    x = np.asarray(coords, dtype=float).reshape(-1)
    if x.size < 2:
        raise ValueError("unit vectors need dimension >= 2")
    _check_on_sphere(x, "a unit vector")
    return x


def basis_vector(i: int, d: int) -> np.ndarray:
    """The i-th standard basis vector in R^d (0-indexed)."""
    if not 0 <= i < d:
        raise ValueError(f"basis index {i} out of range for dimension {d}")
    v = np.zeros(d)
    v[i] = 1.0
    return v


@dataclass(frozen=True)
class PointConfiguration:
    """An ordered multiset of N points on S^{d-1} (repeats allowed)."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        if pts.shape[0] < 1:
            raise ValueError("a point configuration needs at least one point")
        _check_on_sphere(pts, "all points")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n_points

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i) -> np.ndarray:
        return self.points[i]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic signed measure on S^{d-1}: atoms plus real weights."""

    atoms: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        atoms = _as_points(self.atoms)
        _check_on_sphere(atoms, "all atoms")
        if self.weights is None:
            w = np.full(atoms.shape[0], 1.0 / max(atoms.shape[0], 1))
        else:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != atoms.shape[0]:
            raise ValueError("atoms and weights must have matching lengths")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        atoms = atoms.copy()
        atoms.setflags(write=False)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def is_probability(self) -> bool:
        return bool(np.all(self.weights >= 0.0) and abs(self.total_mass - 1.0) <= GEOMETRIC_TOL)

    @property
    def is_balanced(self) -> bool:
        return abs(self.total_mass) <= GEOMETRIC_TOL

    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        """Unit point mass at ``point``."""
        x = unit_vector(point)
        return cls(x[None, :], np.array([1.0]))

    @classmethod
    def from_configuration(cls, config: PointConfiguration) -> "DiscreteMeasure":
        """Empirical measure of a configuration: weight 1/N at each point."""
        n = config.n_points
        return cls(config.points, np.full(n, 1.0 / n))

    def __repr__(self) -> str:
        return f"DiscreteMeasure(n_atoms={self.n_atoms}, dimension={self.dimension}, total_mass={self.total_mass:.6g})"


def sample_sphere(d: int, m: int, seed: int) -> PointConfiguration:
    """Draw M i.i.d. uniform points on S^{d-1}.

    Standard Gaussian vectors normalized to unit length; with a fixed seed
    the output is bit-identical across runs.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    return PointConfiguration(_random_directions(np.random.default_rng(seed), (m, d)))


# Rows from which d column passes beat one reduce over a short last axis
# (d <= 7, timed at 32-1,024 rows of d = 2, 3, 5 and 7).
_COLUMN_ROWS = 1024


def _random_directions(rng, shape) -> np.ndarray:
    """Uniform random unit vectors in an array of ``shape`` (..., d):
    ``rng.standard_normal(shape)`` divided by the norms of its rows, with the
    bits of ``np.linalg.norm(pts, axis=-1, keepdims=True)``.

    That norm is the root of ``np.add.reduce(pts * pts, axis=-1)``, whose
    cost per row is high over a 2-7-long axis.  For d <= 7 the reduce adds
    the squares in column order, so summing columns (x0*x0 + x1*x1 + ...)
    gives the same bits at a fraction of the cost; from d = 8 on numpy's
    pairwise blocks change the order, and the reduce stays.  Below
    ``_COLUMN_ROWS`` rows the single reduce is the cheaper of the two.
    """
    pts = rng.standard_normal(shape)
    while True:
        norms = np.sqrt(_squared_norms(pts))
        # a zero-norm draw has probability zero but would poison the division
        if norms.min(initial=1.0) >= 1e-12:
            return np.divide(pts, norms, out=pts)
        bad = norms[..., 0] < 1e-12
        pts[bad] = rng.standard_normal((int(bad.sum()), shape[-1]))


def _squared_norms(pts: np.ndarray) -> np.ndarray:
    """``np.add.reduce(pts * pts, axis=-1, keepdims=True)``, bit for bit."""
    d = pts.shape[-1]
    if d > 7 or pts.size < _COLUMN_ROWS * d:
        return np.add.reduce(pts * pts, axis=-1, keepdims=True)
    total = pts[..., 0] * pts[..., 0]
    for k in range(1, d):
        total += pts[..., k] * pts[..., k]
    return total[..., None]


def uniform_surrogate(d: int, m: int, seed: int) -> DiscreteMeasure:
    """Empirical measure of an M-point uniform sample (a sampled stand-in
    for the uniform surface measure)."""
    return DiscreteMeasure.from_configuration(sample_sphere(d, m, seed))


def gram(config: PointConfiguration | np.ndarray) -> np.ndarray:
    """Gram matrix of pairwise inner products; unit diagonal, PSD."""
    pts = config.points if isinstance(config, PointConfiguration) else _as_points(config)
    return pts @ pts.T


def project_tangent(x, g) -> np.ndarray:
    """Project ``g`` onto the tangent space of the sphere at ``x``:
    g - <g, x> x."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if x.shape != g.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {g.shape}")
    return g - np.dot(g, x) * x


def retract(x, v) -> np.ndarray:
    """Move from ``x`` along ``v`` and renormalize: (x + v) / ||x + v||."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {v.shape}")
    target = x + v
    norm = float(np.linalg.norm(target))
    if norm < 1e-14:
        raise DegenerateRetraction("retraction target is numerically zero")
    return target / norm


def mix(mu: DiscreteMeasure, nu: DiscreteMeasure, t: float) -> DiscreteMeasure:
    """Convex mixture (1-t) mu + t nu.

    Atom lists are concatenated (zero weights kept); for probability inputs
    and t in [0, 1] the result is again a probability measure.
    """
    if mu.dimension != nu.dimension:
        raise ValueError("measures must share a dimension")
    if mu.is_probability and nu.is_probability and not 0.0 <= t <= 1.0:
        raise ValueError(f"mixture parameter must lie in [0, 1], got {t}")
    atoms = np.vstack([mu.atoms, nu.atoms])
    weights = np.concatenate([(1.0 - t) * mu.weights, t * nu.weights])
    return DiscreteMeasure(atoms, weights)


def combine(mu: DiscreteMeasure, nu: DiscreteMeasure, a: float, b: float) -> DiscreteMeasure:
    """Signed combination a*mu + b*nu."""
    if mu.dimension != nu.dimension:
        raise ValueError("measures must share a dimension")
    atoms = np.vstack([mu.atoms, nu.atoms])
    weights = np.concatenate([a * mu.weights, b * nu.weights])
    return DiscreteMeasure(atoms, weights)


def random_rotation(d: int, seed: int) -> np.ndarray:
    """A Haar-random rotation matrix in SO(d) (QR with sign fix)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# --- CSV interchange -------------------------------------------------------
#
# Point/measure files use a header ``w,x1,...,xd``; the weight column is
# optional and defaults to 1/N.


def _parse_rows(text: str):
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty CSV file")
    header = [h.strip() for h in header]
    has_w = header[0] == "w"
    coord_names = header[1:] if has_w else header
    if not coord_names or coord_names[0] != "x1":
        raise ValueError("expected header 'w,x1,...,xd' or 'x1,...,xd'")
    rows = [list(map(float, row)) for row in reader if row]
    if not rows:
        raise ValueError("CSV contains no data rows")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] != len(header):
        raise ValueError("row length does not match header")
    if has_w:
        return data[:, 0], data[:, 1:]
    n = data.shape[0]
    return np.full(n, 1.0 / n), data


def read_measure_csv(path) -> DiscreteMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        weights, atoms = _parse_rows(fh.read())
    return DiscreteMeasure(atoms, weights)


def read_points_csv(path) -> PointConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        _, pts = _parse_rows(fh.read())
    return PointConfiguration(pts)


def _format_rows(weights, points) -> str:
    d = points.shape[1]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["w"] + [f"x{i + 1}" for i in range(d)])
    for w, row in zip(weights, points):
        writer.writerow([repr(float(w))] + [repr(float(c)) for c in row])
    return out.getvalue()


def write_measure_csv(path, measure: DiscreteMeasure) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_format_rows(measure.weights, measure.atoms))


def write_points_csv(path, config: PointConfiguration) -> None:
    n = config.n_points
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_format_rows(np.full(n, 1.0 / n), config.points))


def measure_to_csv_text(measure: DiscreteMeasure) -> str:
    """Inline CSV rendering of a measure (used to embed witnesses in
    JSON reports)."""
    return _format_rows(measure.weights, measure.atoms)
