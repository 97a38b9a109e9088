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


# --- argument checks: each public call's, once; a message names its argument ---


def _check_points(points, name: str, d: int | None = None, *, ndim: int | None = None,
                  sphere: bool = True) -> np.ndarray:
    """``points`` (a :class:`PointConfiguration`, or anything numpy reads as
    floats) as a float array (..., d).  Rejected, naming ``name``: a ragged array,
    one of other than ``ndim`` axes or of a dimension below 2 or other than ``d``,
    and a point off the unit sphere (|norm - 1| above GEOMETRIC_TOL, or NaN: the
    worst and its row) or, without ``sphere`` (for a kernel), a non-finite one."""
    try:
        pts = np.asarray(getattr(points, "points", points), dtype=float)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name} must be an array of point coordinates: {exc}") from None
    if (pts.ndim != (ndim or max(pts.ndim, 1)) or pts.shape[-1] < 2
            or d not in (None, pts.shape[-1])):
        form = {1: "(d,)", 2: "(N, d)"}.get(ndim, "(..., d)")
        raise ValueError(f"{name} must have shape {form} and dimension {d or '>= 2'}, "
                         f"got shape {pts.shape}")
    if not sphere:
        _check_finite(pts, name)
        return pts
    off = np.atleast_1d(np.abs(np.sqrt(_squared_norms(pts)[..., 0]) - 1))
    worst = np.max(off, initial=0.0)
    if not worst <= GEOMETRIC_TOL:
        row = np.unravel_index(np.argmax(off), off.shape)[0]
        raise ValueError(f"{name} must {'' if np.isfinite(worst) else 'be finite and must '}"
                         f"lie on the unit sphere (tol {GEOMETRIC_TOL:g}): "
                         f"|norm - 1| = {worst:.3e} at row {row}")
    return pts


def _check_finite(values: np.ndarray, what: str) -> None:
    """Reject a non-finite entry of ``values``, naming one: one sum tests them all,
    and only a sum that is not finite (or overflows) has them looked at one by one."""
    if not np.isfinite(values.sum()):
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"{what} must be finite, got {bad.flat[0]}")


def _check_count(name: str, value, least: int, most: float = np.inf) -> None:
    """Reject, naming the value, a count that is no integer or is outside [least, most]."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value!r}")
    if value > most:
        raise ValueError(f"need {name} <= {most}, got {value!r}")


def _check_tol(tol) -> None:
    """Reject a tolerance ``tol`` that is neither None nor finite and nonnegative."""
    if tol is not None and not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _check_type(name: str, value, cls) -> None:
    """Reject, with a TypeError, a ``value`` that is no ``cls``."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")


def _check_measures(measures, names=None) -> list:
    """The measures as a list of DiscreteMeasures (else a TypeError), each with an atom,
    all of one dimension; a message names each by ``names``, or by its slot."""
    measures = list(measures)
    for s, m in enumerate(measures):
        name = names[s] if names else f"the measure in slot {s}"
        _check_type(name, m, DiscreteMeasure)
        if m.n_atoms == 0:
            raise ValueError(f"{name} has no atoms")
    if len({m.dimension for m in measures}) > 1:
        raise ValueError(f"measures must share a dimension, got {[m.dimension for m in measures]}")
    return measures


def _rng(seed) -> np.random.Generator:
    """The generator of ``seed``, a nonnegative integer."""
    _check_count("seed", seed, 0)
    return np.random.default_rng(seed)


def _streams(seed, count: int) -> list:
    """``count`` independent generators, the children 0, 1, ... of
    ``SeedSequence(seed)``, ``seed`` a nonnegative integer."""
    _check_count("seed", seed, 0)
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def unit_vector(coords) -> np.ndarray:
    """Validate and return a point on S^{d-1} as a (d,) float array."""
    return _check_points(coords, "a unit vector", ndim=1)


def basis_vector(i: int, d: int) -> np.ndarray:
    """The i-th standard basis vector in R^d (0-indexed)."""
    _check_count("dimension d", d, 2)
    _check_count("basis index i", i, 0, d - 1)
    v = np.zeros(d)
    v[i] = 1.0
    return v


def _freeze(obj, **arrays) -> None:
    """Set each field of the frozen dataclass ``obj`` to a read-only copy of its
    array; an array that owns its data and is already read-only (another
    container's field, or a fresh draw frozen by its maker) is not copied."""
    for name, a in arrays.items():
        if a.base is not None or a.flags.writeable:
            a = a.copy()
            a.setflags(write=False)
        object.__setattr__(obj, name, a)


@dataclass(frozen=True)
class PointConfiguration:
    """An ordered multiset of N points on S^{d-1} (repeats allowed)."""

    points: np.ndarray

    def __post_init__(self):
        pts = _check_points(self.points, "all points", ndim=2)
        if pts.shape[0] < 1:
            raise ValueError("a point configuration needs at least one point")
        _freeze(self, points=pts)

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
        atoms = _check_points(self.atoms, "all atoms", ndim=2)
        if self.weights is None:
            w = np.full(atoms.shape[0], 1.0 / max(atoms.shape[0], 1))
            w.setflags(write=False)
        else:
            w = np.asarray(self.weights, dtype=float)
            w = w if w.ndim == 1 else w.reshape(-1)
        if w.shape[0] != atoms.shape[0]:
            raise ValueError("atoms and weights must have matching lengths")
        _check_finite(w, "weights")
        _freeze(self, atoms=atoms, weights=w)

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
        return cls([point], np.array([1.0]))

    @classmethod
    def from_configuration(cls, config: PointConfiguration) -> "DiscreteMeasure":
        """Empirical measure of a configuration: weight 1/N at each point."""
        return cls(config.points)

    def __repr__(self) -> str:
        return f"DiscreteMeasure(n_atoms={self.n_atoms}, dimension={self.dimension}, total_mass={self.total_mass:.6g})"


def sample_sphere(d: int, m: int, seed: int) -> PointConfiguration:
    """Draw M i.i.d. uniform points on S^{d-1}.

    Standard Gaussian vectors normalized to unit length; with a fixed seed
    the output is bit-identical across runs.
    """
    _check_count("dimension d", d, 2)
    _check_count("sample count m", m, 1)
    return PointConfiguration(_random_directions(_rng(seed), (m, d)))


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
    return _normalize_rows(rng, rng.standard_normal(shape))


def _normalize_rows(rng, pts: np.ndarray) -> np.ndarray:
    """Divide the rows (last axis) of Gaussian draws ``pts`` by their norms,
    in place.  A row of norm below 1e-12 (probability zero, but it would
    poison the division) is first replaced by a fresh standard-normal row;
    all such rows are redrawn together, after every draw that made ``pts``."""
    while True:
        norms = np.sqrt(_squared_norms(pts))
        if norms.min(initial=1.0) >= 1e-12:
            return np.divide(pts, norms, out=pts)
        bad = norms[..., 0] < 1e-12
        pts[bad] = rng.standard_normal((int(bad.sum()), pts.shape[-1]))


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
    for the uniform surface measure): the points of :func:`sample_sphere`,
    checked and copied once, by the measure."""
    _check_count("dimension d", d, 2)
    _check_count("sample count m", m, 1)
    atoms = _random_directions(_rng(seed), (m, d))
    atoms.setflags(write=False)
    return DiscreteMeasure(atoms)


def gram(config: PointConfiguration | np.ndarray) -> np.ndarray:
    """Gram matrix of pairwise inner products; unit diagonal, PSD."""
    pts = _check_points(config, "config", ndim=2)
    return pts @ pts.T


def project_tangent(x, g) -> np.ndarray:
    """Project each row (last axis) of ``g`` onto the tangent space of the
    sphere at the matching row of ``x``: g - <g, x> x.  The arrays (..., d)
    broadcast against each other.  Raises ValueError if a row's <g, x> is
    not finite (a non-finite entry, or overflow)."""
    x, g = np.asarray(x, dtype=float), np.asarray(g, dtype=float)
    if g.shape[-1:] != x.shape[-1:]:
        raise ValueError(f"g must have the dimension of x (shape {x.shape}), got shape {g.shape}")
    dots = np.add.reduce(g * x, -1)
    _check_finite(dots, "<g, x>")
    return g - dots[..., None] * x


def retract(x, v) -> np.ndarray:
    """Move each row (last axis) of ``x`` along the matching row of ``v`` and
    renormalize: (x + v) / ||x + v||.  The arrays (..., d) broadcast against
    each other.  Raises ValueError if a row's norm is not finite (a
    non-finite entry, or overflow), and :class:`DegenerateRetraction` if it
    is below 1e-14."""
    if np.shape(v)[-1:] != np.shape(x)[-1:]:
        raise ValueError(f"v must have the dimension of x (shape {np.shape(x)}), "
                         f"got shape {np.shape(v)}")
    target = np.add(x, v, dtype=float)
    norms = np.sqrt(_squared_norms(target))
    _check_finite(norms, "||x + v||")
    if norms.min(initial=np.inf) < 1e-14:
        raise DegenerateRetraction("retraction target is numerically zero")
    return np.divide(target, norms, out=target)


def mix(mu: DiscreteMeasure, nu: DiscreteMeasure, t: float) -> DiscreteMeasure:
    """Convex mixture (1-t) mu + t nu, as :func:`combine` builds it.

    Atom lists are concatenated (zero weights kept); for probability inputs
    and t in [0, 1] the result is again a probability measure.
    """
    _check_finite(np.asarray(t, dtype=float), "t")
    mixed = combine(mu, nu, 1.0 - t, t)
    if mu.is_probability and nu.is_probability and not 0.0 <= t <= 1.0:
        raise ValueError(f"mixture parameter t must lie in [0, 1], got {t}")
    return mixed


def combine(mu: DiscreteMeasure, nu: DiscreteMeasure, a: float, b: float) -> DiscreteMeasure:
    """Signed combination a*mu + b*nu."""
    mu, nu = _check_measures((mu, nu), ("mu", "nu"))
    for name, value in (("a", a), ("b", b)):
        _check_finite(np.asarray(value, dtype=float), name)
    atoms = np.vstack([mu.atoms, nu.atoms])
    weights = np.concatenate([a * mu.weights, b * nu.weights])
    return DiscreteMeasure(atoms, weights)


def random_rotation(d: int, seed: int) -> np.ndarray:
    """A Haar-random rotation matrix in SO(d) (QR with sign fix)."""
    _check_count("dimension d", d, 2)
    q, r = np.linalg.qr(_rng(seed).standard_normal((d, d)))
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
    _check_type("measure", measure, DiscreteMeasure)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_format_rows(measure.weights, measure.atoms))


def write_points_csv(path, config: PointConfiguration) -> None:
    _check_type("config", config, PointConfiguration)
    n = config.n_points
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_format_rows(np.full(n, 1.0 / n), config.points))


def measure_to_csv_text(measure: DiscreteMeasure) -> str:
    """Inline CSV rendering of a measure (used to embed witnesses in
    JSON reports)."""
    return _format_rows(measure.weights, measure.atoms)
