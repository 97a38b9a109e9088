"""Catalog of symmetric n-input kernels plus lifting constructions.

Every kernel evaluates on the product grid of point arrays, one per slot
(:func:`_grid`): :meth:`Kernel.evaluate_grid` gives its values there and
:meth:`Kernel.gradient_grid` its Euclidean gradient in every slot, and a
batch of tuples is the grid of its one-point slot arrays.  Most kernels
here are polynomials in the pairwise inner products of their arguments;
:class:`PairPolynomial` is the shared backbone that stores such
polynomials over a set of free slots and optional fixed anchor points, and
evaluates them and their analytic gradients from the slot arrays' inner
products alone; its constructor is the one place that puts monomials in
canonical form, and :meth:`PairPolynomial.viewed` the one index map behind
pins and lifts.

Every derived kernel (sums, products and multiples of other kernels, pins
and subset lifts) is the sum or the product of terms c * base(view), where
a view feeds each base slot an input slot or a fixed point.  One builder,
:func:`_derived`, turns such terms into a single pair polynomial when every
base is one, and otherwise into the private combination class, which
evaluates the terms separately, each from its base's own grid methods; the
anchor shift is always a combination.  A combination's gradient follows
from the product rule, so every kernel built here has an analytic
gradient.  A kernel with fixed points (pins,
anchors, or a potential kernel's measures) has their ``dimension``, checked
to agree when it is built and against every input it evaluates.

Gram-variable naming for three inputs (x, y, z):

    u = <x, y>,   v = <y, z>,   t = <z, x>.

Kernels accept any finite points, so they remain usable for any embedded
point set, although the catalog semantics (e.g. squared triangle area)
assume unit vectors.  A tuple or batch with a non-finite coordinate is
refused (``geometry._check_points``); the grid methods check only the
arity and dimension (:meth:`Kernel._check_shape`) of their slot arrays.
"""
from __future__ import annotations

import functools
import itertools
import warnings

import numpy as np

from .config import GEOMETRIC_TOL
from .geometry import _check_count, _check_points

__all__ = [
    "Kernel",
    "inner",
    "riesz",
    "frame2",
    "prod_f_uvt",
    "uvt",
    "vol2",
    "neg_vol2",
    "area2",
    "neg_area2",
    "s011",
    "s100",
    "quad_a",
    "sum_lift",
    "prod_lift",
    "pin",
    "cpd_shift",
    "parse_kernel",
]

# Hard cap on the terms of a polynomial product; beyond it, products and
# product lifts evaluate their factors separately.
_MAX_TERMS = 600


def _layout(view, nslots: int):
    """How a view (as in :class:`_Combination`) feeds a base from ``nslots``
    inputs: None for the identity view, else its (base slot, input slot) and
    its (base slot, fixed point) pairs, each in base-slot order.  The input
    slots must ascend in base-slot order, so that a base's grid axes are
    already in input order; a ValueError names a view whose slots do not."""
    inputs = [(k, v) for k, v in enumerate(view) if isinstance(v, int)]
    if any(s >= t for (_, s), (_, t) in zip(inputs, inputs[1:])):
        shown = ", ".join(str(v) if isinstance(v, int) else "point" for v in view)
        raise ValueError(f"the view [{shown}] does not list its input slots in ascending order")
    if len(inputs) == len(view) == nslots and all(k == v for k, v in inputs):
        return None
    fixed = [(k, np.asarray(v, dtype=float)) for k, v in enumerate(view) if not isinstance(v, int)]
    return inputs, fixed


def _grid(arrays) -> np.ndarray:
    """The product grid of point arrays (..., n_s, d) whose leading axes
    broadcast: (..., n_0, ..., n_{k-1}, k, d), slot s of tuple (i_0, ...,
    i_{k-1}) holding arrays[s][..., i_s, :]."""
    k, d = len(arrays), arrays[0].shape[-1]
    grid = np.empty(_tuple_shape(arrays) + (k, d))
    for s, a in enumerate(arrays):
        grid[..., s, :] = _on_axis(a, s, k)
    return grid


def _on_axis(a: np.ndarray, s: int, k: int) -> np.ndarray:
    """Slot s's point array (..., n_s, d) shaped to broadcast over the grid
    of k slot arrays: (..., 1, ..., n_s, ..., 1, d), n_s on slot axis s."""
    return a.reshape(a.shape[:-2] + (1,) * s + a.shape[-2:-1] + (1,) * (k - 1 - s)
                     + a.shape[-1:])


def _point_slots(pts: np.ndarray) -> list:
    """Tuples of points (..., n, d) as n one-point slot arrays (..., 1, d),
    whose grid is shaped like the tuples' index with n size-1 axes."""
    return [pts[..., s, None, :] for s in range(pts.shape[-2])]


def _tuple_shape(arrays) -> tuple:
    """The shape of the tuple index of the arrays' grid: leading axes, then slots."""
    leads = {a.shape[:-2] for a in arrays}
    lead = leads.pop() if len(leads) == 1 else np.broadcast_shapes(*leads)
    return lead + tuple(a.shape[-2] for a in arrays)


class PairPolynomial:
    """Polynomial in pairwise inner products of slots and anchors.

    Index convention: 0..nslots-1 are free slots, nslots..nslots+m-1 refer
    to the m anchor points.  ``terms`` maps each monomial, a sorted tuple
    of ((i, j), power) entries with i < j and no pair twice, to its
    coefficient; the empty tuple is the constant term.  The constructor
    puts every monomial it is given (a dict, or (monomial, coefficient)
    pairs) in this form: it sorts pair endpoints, merges repeated pairs,
    folds anchor-anchor pairs into the coefficient and sums equal
    monomials, keeping the order of first appearance.
    """

    def __init__(self, terms, nslots: int, anchors: np.ndarray | None = None):
        self.nslots = int(nslots)
        if anchors is None or len(anchors) == 0:
            self.anchors = np.zeros((0, 0))
        else:
            self.anchors = np.asarray(anchors, dtype=float)
        clean: dict = {}
        for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
            coeff, powers = float(coeff), {}
            for (a, b), e in mono:
                if a > b:
                    a, b = b, a
                if a >= self.nslots:    # both endpoints fixed: a number
                    coeff *= float(np.dot(self.anchors[a - self.nslots],
                                          self.anchors[b - self.nslots])) ** e
                else:
                    powers[(a, b)] = powers.get((a, b), 0) + int(e)
            key = tuple(sorted((p, e) for p, e in powers.items() if e))
            clean[key] = clean.get(key, 0.0) + coeff
        self.terms = {m: c for m, c in clean.items() if c != 0.0}

    # -- helpers ------------------------------------------------------------

    @property
    def n_anchors(self) -> int:
        return self.anchors.shape[0]

    # -- evaluation ----------------------------------------------------------

    def _grid_pair_values(self, arrays) -> dict:
        """The inner product of each pair of the terms over the grid of the
        slot arrays (..., n_s, d), from the arrays' inner products alone:
        each one is shaped to broadcast over the grid's tuple index."""
        k = len(arrays)
        out = {}
        for a, b in {p for mono in self.terms for p, _ in mono}:
            sizes = [1] * k
            sizes[a] = arrays[a].shape[-2]
            if b < k:
                sizes[b] = arrays[b].shape[-2]
                val = np.einsum("...id,...jd->...ij", arrays[a], arrays[b])
                lead = val.shape[:-2]
            else:
                val = np.einsum("...id,d->...i", arrays[a], self.anchors[b - k])
                lead = val.shape[:-1]
            out[(a, b)] = val.reshape(lead + tuple(sizes))
        return out

    def _sum_monomials(self, vals: dict, batch: tuple) -> np.ndarray:
        """The polynomial from its pair values, which broadcast to ``batch``.

        Each term is its coefficient times vals[pair] ** e, multiplied in
        monomial order, and the terms are added to a zero total in term
        order: the products and sums of ``total + coeff * v1 ** e1 * ...``,
        so the same bits.  They are taken in place, in two arrays of shape
        ``batch`` owned here; a first power is the pair value itself, and no
        pair value is written to.
        """
        total = np.zeros(batch)
        term = np.empty(batch)
        for mono, coeff in self.terms.items():
            if not mono:
                np.add(total, coeff, out=total)
                continue
            for i, (pair, e) in enumerate(mono):
                factor = vals[pair] if e == 1 else vals[pair] ** e
                np.multiply(term if i else coeff, factor, out=term)
            np.add(total, term, out=total)
        return total if batch else total[()]

    def evaluate_grid(self, arrays) -> np.ndarray:
        """The polynomial over the grid of the slot arrays (see :func:`_grid`),
        from the arrays' inner products instead of the grid's coordinates."""
        return self._sum_monomials(self._grid_pair_values(arrays), _tuple_shape(arrays))

    def gradient_grid(self, arrays) -> np.ndarray:
        """Euclidean gradient with respect to every slot over the grid of the
        slot arrays: the tuple index, then (nslots, d).  Only a pair's second
        endpoint may be an anchor: the constructor folds anchor pairs away."""
        batch, k = _tuple_shape(arrays), len(arrays)
        vals = self._grid_pair_values(arrays)
        grad = np.zeros(batch + (self.nslots, arrays[0].shape[-1]))
        for mono, coeff in self.terms.items():
            factors = [vals[pair] ** e for pair, e in mono]
            for i, (pair, e) in enumerate(mono):
                partial = np.full(batch, coeff * e)
                for j, f in enumerate(factors):
                    if j != i:
                        partial = partial * f
                partial = partial * vals[pair] ** (e - 1)
                a, b = pair
                vb = _on_axis(arrays[b], b, k) if b < k else self.anchors[b - k]
                grad[..., a, :] += partial[..., None] * vb
                if b < k:
                    grad[..., b, :] += partial[..., None] * _on_axis(arrays[a], a, k)
        return grad

    # -- algebra ------------------------------------------------------------

    def scaled(self, c: float) -> "PairPolynomial":
        return PairPolynomial({m: c * v for m, v in self.terms.items()}, self.nslots, self.anchors)

    def viewed(self, view, nslots: int) -> "PairPolynomial":
        """The polynomial (x_0, ..., x_{nslots-1}) -> self(view).

        ``view`` gives, for each slot of self, the index of an input slot
        or a fixed point; the fixed points become anchors after self's.
        """
        layout = _layout(view, nslots)
        if layout is None:
            return self
        inputs, fixed = layout
        index = [0] * len(view) + list(range(nslots, nslots + self.n_anchors))
        for k, s in inputs:
            index[k] = s
        for i, (k, _) in enumerate(fixed):
            index[k] = nslots + self.n_anchors + i
        terms = [(tuple(((index[a], index[b]), e) for (a, b), e in mono), c)
                 for mono, c in self.terms.items()]
        return PairPolynomial(terms, nslots, np.array([*self.anchors, *(p for _, p in fixed)]))

    def combined(self, other: "PairPolynomial", mode: str) -> "PairPolynomial":
        """self + other (mode "sum") or self * other ("prod"); other's
        anchors, of the same dimension as self's, follow self's."""
        ns, shift = self.nslots, self.n_anchors
        others = [(tuple(((a, b if b < ns else b + shift), e) for (a, b), e in mono), c)
                  for mono, c in other.terms.items()]
        if mode == "sum":
            terms = [*self.terms.items(), *others]
        elif len(self.terms) * len(others) > _MAX_TERMS:
            raise OverflowError("polynomial product too large")
        else:
            terms = [(m1 + m2, c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in others]
        return PairPolynomial(terms, ns, np.array([*self.anchors, *other.anchors]))


class Kernel:
    """A symmetric continuous kernel of fixed arity.

    Subclasses implement ``_evaluate_grid`` and ``_gradient_grid``, which
    :meth:`evaluate_grid` and :meth:`gradient_grid` call on checked slot
    arrays (every kernel this module builds has an analytic gradient); scalar
    convenience calls, batches of tuples and the arithmetic live here.
    ``pair_poly`` is set when the kernel is an explicit pair-inner-product
    polynomial, which unlocks fast exact energies.
    """

    # The dimension of the points fixed into the kernel, set when a kernel
    # that fixes points is built, and what those points are.
    _dimension: int | None = None
    _fixed = "the pinned points"

    def __init__(self, name: str, arity: int, *, params: dict | None = None,
                 nonnegative: bool = False, pair_poly: PairPolynomial | None = None):
        self.name = name
        self.arity = int(arity)
        self.params = dict(params or {})
        self.nonnegative = bool(nonnegative)
        self.pair_poly = pair_poly

    @property
    def dimension(self) -> int | None:
        """The dimension of the points fixed into the kernel (pins, anchors or
        measures), which every input point must have; None when the kernel
        takes points of any dimension."""
        return self._dimension

    # -- evaluation ----------------------------------------------------------

    def evaluate_grid(self, arrays) -> np.ndarray:
        """The kernel over the product grid of point arrays (..., n_s, d), one
        per slot (:func:`_grid`), shaped like the grid's tuple index."""
        self._check_shape((len(arrays), arrays[0].shape[-1]))
        return self._evaluate_grid(arrays)

    def gradient_grid(self, arrays) -> np.ndarray:
        """The Euclidean gradient with respect to every slot over the grid of
        the slot arrays: the grid's tuple index, then (arity, d)."""
        self._check_shape((len(arrays), arrays[0].shape[-1]))
        return self._gradient_grid(arrays)

    def evaluate_batch(self, pts) -> np.ndarray:
        """The kernel at each tuple of finite points (..., arity, d): the grid
        of the one-point slot arrays ``pts[..., s, None, :]``."""
        pts = _check_points(pts, "points", sphere=False)
        self._check_shape(pts.shape)
        return self.evaluate_grid(_point_slots(pts)).reshape(pts.shape[:-2])

    def gradient_batch(self, pts) -> np.ndarray:
        """The gradient at each tuple of finite points, shaped like ``pts``."""
        pts = _check_points(pts, "points", sphere=False)
        self._check_shape(pts.shape)
        return self.gradient_grid(_point_slots(pts)).reshape(pts.shape)

    def _check_shape(self, shape: tuple) -> None:
        """Reject points of ``shape`` (..., n, d) unless n is the arity and d
        the kernel's dimension (any d if it has none)."""
        if len(shape) < 2 or shape[-2] != self.arity:
            raise ValueError(f"kernel '{self.name}' takes {self.arity} points, got shape {shape}")
        if self._dimension is not None and shape[-1] != self._dimension:
            raise ValueError(f"point dimension {shape[-1]} does not match dimension "
                             f"{self._dimension} of {self._fixed}")

    def evaluate(self, pts) -> float:
        """Evaluate on one n-tuple of finite points given as an (n, d) array."""
        pts = _check_points(pts, "points", ndim=2, sphere=False)
        return float(self.evaluate_grid(_point_slots(pts))[(0,) * self.arity])

    def __call__(self, *points) -> float:
        return self.evaluate(points)

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "Kernel") -> "Kernel":
        if not isinstance(other, Kernel):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("can only add kernels of equal arity")
        same = range(self.arity)
        return _derived(f"({self.name}+{other.name})", self.arity, "sum",
                        [(1.0, self, same), (1.0, other, same)])

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._scaled(float(other))
        if not isinstance(other, Kernel):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("can only multiply kernels of equal arity")
        same = range(self.arity)
        return _derived(f"({self.name}*{other.name})", self.arity, "prod",
                        [(1.0, self, same), (1.0, other, same)],
                        nonnegative=self.nonnegative and other.nonnegative)

    __rmul__ = __mul__

    def __neg__(self) -> "Kernel":
        return self._scaled(-1.0)

    def _scaled(self, c: float) -> "Kernel":
        if not np.isfinite(c):
            raise ValueError(f"a kernel's scalar factor must be finite, got {c!r}")
        return _derived(f"({c:g}*{self.name})", self.arity, "prod",
                        [(c, self, range(self.arity))], nonnegative=self.nonnegative and c >= 0)

    def spec_string(self) -> str:
        """Canonical ``name[:key=value,...]`` rendering for reports; a lift
        renders as the string :func:`parse_kernel` reads, such as
        ``sum_lift:base=inner,n=3``."""
        if not self.params:
            return self.name
        head = self.name.partition("(")[0]
        head = head if head in _LIFTS else self.name
        parts = []
        for k in sorted(self.params):
            v = self.params[k]
            if isinstance(v, (list, tuple)):
                parts.append(f"{k}=" + ",".join(f"{x:g}" for x in v))
            elif isinstance(v, bool):
                parts.append(f"{k}={'true' if v else 'false'}")
            else:
                parts.append(f"{k}={v}")
        return head + ":" + ",".join(parts)

    def __repr__(self) -> str:
        return f"<Kernel {self.name} arity={self.arity}>"


class PolynomialKernel(Kernel):
    """Kernel backed by an explicit :class:`PairPolynomial`."""

    def __init__(self, name, poly: PairPolynomial, *, params=None, nonnegative=False):
        super().__init__(name, poly.nslots, params=params, nonnegative=nonnegative,
                         pair_poly=poly)
        if poly.n_anchors:
            self._dimension = poly.anchors.shape[1]

    def _evaluate_grid(self, arrays):
        return self.pair_poly.evaluate_grid(arrays)

    def _gradient_grid(self, arrays):
        return self.pair_poly.gradient_grid(arrays)


class _Combination(Kernel):
    """The sum or the product of terms ``c * base(view)``; a sum may add a
    constant.

    A view lists, for each slot of ``base``, either the index of one of
    the ``arity`` input slots or a fixed point, and names each input slot
    at most once, in ascending order.  K + L, K * L, c * K, pins, subset
    lifts and the anchor shift are all built this way when they are not
    pair polynomials.  A value is the constant (if any) plus the terms, or
    their product, taken left to right.
    """

    _fixed = "the fixed points"

    def __init__(self, name: str, arity: int, mode: str, terms, *,
                 const: float | None = None, params: dict | None = None,
                 nonnegative: bool = False):
        super().__init__(name, arity, params=params, nonnegative=nonnegative)
        self._op = np.add if mode == "sum" else np.multiply
        self._const = const
        self._terms = [(float(c), base, _layout(view, arity)) for c, base, view in terms]
        self._dimension = _fixed_dimension(name, terms)

    @staticmethod
    def _grid_view(values, layout, arrays):
        """base(view) over the grid of the input slot arrays, from ``values``,
        the base's own grid evaluation or gradient: a fixed point is a one-row
        slot array, and the base's slot axes, in input-slot order (see
        :func:`_layout`), get size-1 axes for the inputs the view leaves out;
        a gradient's trailing axes stay last."""
        if layout is None:
            return values(arrays)
        inputs, fixed = layout
        slots = [None] * (len(inputs) + len(fixed))
        keep = [slice(None)] * len(slots)      # a fixed point's axis is dropped
        for k, s in inputs:
            slots[k] = arrays[s]
        for k, point in fixed:
            slots[k], keep[k] = point[None, :], 0
        lead = max(a.ndim for a in slots) - 2
        vals = values(slots)[(slice(None),) * lead + tuple(keep)]
        used = {s for _, s in inputs}
        return vals.reshape(vals.shape[:lead] + tuple(
            a.shape[-2] if s in used else 1 for s, a in enumerate(arrays))
            + vals.shape[lead + len(inputs):])

    def _values(self, arrays):
        return [c * self._grid_view(base.evaluate_grid, layout, arrays)
                for c, base, layout in self._terms]

    def _evaluate_grid(self, arrays):
        """The kernel over the grid of the slot arrays: the constant, if any,
        plus each term's values from its base's :meth:`Kernel.evaluate_grid`
        on its view's slot arrays, combined left to right."""
        vals = self._values(arrays)
        out = vals[0] if self._const is None else self._const + vals[0]
        for v in vals[1:]:
            out = self._op(out, v)
        return out

    def _gradient_grid(self, arrays):
        shape = _tuple_shape(arrays) + (self.arity, arrays[0].shape[-1])
        grads = []
        for c, base, layout in self._terms:
            part = c * self._grid_view(base.gradient_grid, layout, arrays)
            if layout is None:
                grads.append(part)
            else:   # fixed points are constants: only the input slots get gradient
                grads.append(np.zeros(shape))
                for k, s in layout[0]:
                    grads[-1][..., s, :] = part[..., k, :]
        if self._op is np.add:
            return sum(grads)
        vals = self._values(arrays)    # product rule: sum_i (prod_{j != i} v_j) grad v_i
        return sum(functools.reduce(np.multiply, vals[:i] + vals[i + 1:], np.ones(()))
                   [..., None, None] * g for i, g in enumerate(grads))


def _fixed_dimension(name: str, terms) -> int | None:
    """The dimension of the points fixed into the terms ``c * base(view)`` (views
    as in :class:`_Combination`) and into their bases; None if there are none.
    Raises ValueError, naming them, if they differ."""
    dims = {np.shape(v)[-1] for _, _, view in terms for v in view if not isinstance(v, int)}
    dims |= {base.dimension for _, base, _ in terms} - {None}
    if len(dims) > 1:
        raise ValueError(f"kernel '{name}' fixes points of dimensions {sorted(dims)}")
    return dims.pop() if dims else None


def _derived(name: str, arity: int, mode: str, terms, *, params: dict | None = None,
             nonnegative: bool = False) -> Kernel:
    """The sum or the product of terms ``c * base(view)`` (views as in
    :class:`_Combination`): one :class:`PolynomialKernel` when every base
    is a pair polynomial and a product stays within ``_MAX_TERMS``, else a
    :class:`_Combination`.  Either way, the points fixed into the terms must
    share a dimension (:func:`_fixed_dimension`)."""
    if all(base.pair_poly is not None for _, base, _ in terms):
        _fixed_dimension(name, terms)
        polys = [base.pair_poly.viewed(view, arity) for _, base, view in terms]
        polys = [p if c == 1.0 else p.scaled(c) for (c, _, _), p in zip(terms, polys)]
        try:
            poly = functools.reduce(lambda p, q: p.combined(q, mode), polys)
        except OverflowError:
            pass
        else:
            return PolynomialKernel(name, poly, params=params, nonnegative=nonnegative)
    return _Combination(name, arity, mode, terms, params=params, nonnegative=nonnegative)


class RieszKernel(Kernel):
    """Two-input distance power ||x - y||^s for s > 0.  A pair at most
    GEOMETRIC_TOL apart counts as coincident: its value and gradient are 0."""

    def __init__(self, s: float):
        if not 0 < s < np.inf:
            raise ValueError(f"riesz exponent must be positive and finite, got {s!r}")
        super().__init__("riesz", 2, params={"s": s}, nonnegative=True)
        self.s = float(s)

    def _differences(self, arrays):
        """x - y over the grid of the slot arrays x and y, and its norms."""
        x, y = arrays
        diff = x[..., :, None, :] - y[..., None, :, :]
        return diff, np.linalg.norm(diff, axis=-1)

    def _evaluate_grid(self, arrays):
        dist = self._differences(arrays)[1]
        return np.where(dist > GEOMETRIC_TOL, dist ** self.s, 0.0)

    def _gradient_grid(self, arrays):
        # grad_x ||x-y||^s = s ||x-y||^{s-2} (x-y), singular at x = y when s < 1.
        # A pair at most GEOMETRIC_TOL apart counts as coincident and gets no
        # gradient, so every kernel built from this one shares the rule.
        diff, dist = self._differences(arrays)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(dist > GEOMETRIC_TOL, self.s * dist ** (self.s - 2.0), 0.0)
        g = np.empty(dist.shape + (2, diff.shape[-1]))
        g[..., 0, :] = scale[..., None] * diff
        g[..., 1, :] = -scale[..., None] * diff
        return g


class ExpUvtKernel(Kernel):
    """Three-input kernel exp(uvt)."""

    def __init__(self):
        super().__init__("prod_f_uvt", 3, params={"f": "exp"}, nonnegative=True)
        self._uvt = uvt().pair_poly

    def _evaluate_grid(self, arrays):
        return np.exp(self._uvt.evaluate_grid(arrays))

    def _gradient_grid(self, arrays):
        val = np.exp(self._uvt.evaluate_grid(arrays))
        return val[..., None, None] * self._uvt.gradient_grid(arrays)


# --- catalog -----------------------------------------------------------------

_U = ((0, 1), 1)
_V = ((1, 2), 1)
_T = ((0, 2), 1)
_U2 = ((0, 1), 2)
_V2 = ((1, 2), 2)
_T2 = ((0, 2), 2)


def inner() -> Kernel:
    """<x, y>."""
    return PolynomialKernel("inner", PairPolynomial({(_U,): 1.0}, 2))


def riesz(s: float) -> Kernel:
    """||x - y||^s for s > 0."""
    return RieszKernel(s)


def frame2() -> Kernel:
    """<x, y>^2 (the frame energy kernel)."""
    return PolynomialKernel("frame2", PairPolynomial({(_U2,): 1.0}, 2), nonnegative=True)


def prod_f_uvt(coeffs=None, f: str | None = None) -> Kernel:
    """f(uvt) for f a nonnegative-coefficient polynomial, or f = exp."""
    if f == "exp":
        return ExpUvtKernel()
    if coeffs is None:
        raise ValueError("prod_f_uvt needs polynomial coefficients or f='exp'")
    coeffs = [float(c) for c in np.atleast_1d(coeffs)]
    if not all(0 <= c < np.inf for c in coeffs):
        raise ValueError(f"prod_f_uvt requires nonnegative finite coefficients, got {coeffs!r}")
    terms = {}
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        mono = () if k == 0 else (((0, 1), k), ((0, 2), k), ((1, 2), k))
        terms[mono] = c
    if not terms:
        terms = {(): 0.0}
    return PolynomialKernel("prod_f_uvt", PairPolynomial(terms, 3), params={"coeffs": coeffs})


def uvt() -> Kernel:
    """u v t = <x,y> <y,z> <z,x>."""
    return PolynomialKernel("uvt", PairPolynomial({(_U, _V, _T): 1.0}, 3))


def vol2() -> Kernel:
    """Squared volume of the parallelepiped spanned by x, y, z:
    1 - u^2 - v^2 - t^2 + 2 u v t (the Gram determinant)."""
    terms = {(): 1.0, (_U2,): -1.0, (_V2,): -1.0, (_T2,): -1.0, (_U, _V, _T): 2.0}
    return PolynomialKernel("vol2", PairPolynomial(terms, 3), nonnegative=True)


def neg_vol2() -> Kernel:
    """Negated squared parallelepiped volume."""
    return PolynomialKernel("neg_vol2", vol2().pair_poly.scaled(-1.0))


def area2() -> Kernel:
    """Squared area of the triangle with vertices x, y, z:
    3/4 - (u+v+t)/2 + (uv+vt+tu)/2 - (u^2+v^2+t^2)/4."""
    terms = {
        (): 0.75,
        (_U,): -0.5, (_V,): -0.5, (_T,): -0.5,
        (_U, _V): 0.5, (_V, _T): 0.5, (_U, _T): 0.5,
        (_U2,): -0.25, (_V2,): -0.25, (_T2,): -0.25,
    }
    return PolynomialKernel("area2", PairPolynomial(terms, 3), nonnegative=True)


def neg_area2() -> Kernel:
    """Negated squared triangle area."""
    return PolynomialKernel("neg_area2", area2().pair_poly.scaled(-1.0))


def s011() -> Kernel:
    """u v + v t + t u."""
    terms = {(_U, _V): 1.0, (_V, _T): 1.0, (_U, _T): 1.0}
    return PolynomialKernel("s011", PairPolynomial(terms, 3))


def s100() -> Kernel:
    """(t - uv) + (u - vt) + (v - tu)."""
    terms = {(_U,): 1.0, (_V,): 1.0, (_T,): 1.0,
             (_U, _V): -1.0, (_V, _T): -1.0, (_U, _T): -1.0}
    return PolynomialKernel("s100", PairPolynomial(terms, 3))


def quad_a(a: float, shift: bool = False) -> Kernel:
    """t^2 + u^2 + v^2 - a*uvt, optionally plus the constant 1/(1-a).

    The shifted form requires a < 1 (the constant diverges at a = 1); the
    shiftless form stays valid for a <= 1.
    """
    a = float(a)
    if not np.isfinite(a):
        raise ValueError(f"quad_a requires a finite a, got {a!r}")
    if not isinstance(shift, (bool, np.bool_)):
        raise ValueError(f"quad_a's shift must be a bool, got {shift!r}")
    if shift and a == 1.0:
        raise ValueError("quad_a with shift requires a != 1")
    terms = {(_U2,): 1.0, (_V2,): 1.0, (_T2,): 1.0, (_U, _V, _T): -a}
    if shift:
        terms[()] = 1.0 / (1.0 - a)
    return PolynomialKernel("quad_a", PairPolynomial(terms, 3), params={"a": a, "shift": shift})


# --- lifting constructions ----------------------------------------------------


def _lift(base: Kernel, n: int, mode: str) -> Kernel:
    """The sum or the product of ``base`` over all arity(base)-subsets of
    n inputs."""
    m = base.arity
    _check_count(f"lift arity n (base arity {m})", n, m + 1)
    return _derived(f"{mode}_lift({base.name},n={n})", n, mode,
                    [(1.0, base, s) for s in itertools.combinations(range(n), m)],
                    params={"base": base.name, "n": n}, nonnegative=base.nonnegative)


def sum_lift(base: Kernel, n: int) -> Kernel:
    """Sum of ``base`` over all arity(base)-subsets of n inputs."""
    return _lift(base, n, "sum")


def prod_lift(base: Kernel, n: int) -> Kernel:
    """Product of ``base`` over all arity(base)-subsets of n inputs."""
    lifted = _lift(base, n, "prod")
    if not base.nonnegative and base.arity < n - 1:
        warnings.warn(
            "product lift of a possibly-negative kernel with arity < n-1 "
            "need not preserve positive definiteness",
            stacklevel=2,
        )
    return lifted


def pin(kernel: Kernel, pins) -> Kernel:
    """Fix the leading slots of ``kernel`` at concrete points.

    With m pins, returns the (n-m)-input kernel
    (z_1,...,z_m fixed) -> K(z_1,...,z_m, x_1,...,x_{n-m}).
    Requires 1 <= m <= n-2 so the result keeps at least two inputs, and
    pins on the unit sphere (the kernel itself accepts any finite point).
    """
    pins = np.atleast_2d(_check_points(pins, "pins"))
    m, n = pins.shape[0], kernel.arity
    if not 1 <= m <= n - 2:
        raise ValueError(f"pin count must satisfy 1 <= m <= arity-2, got {m} for arity {n}")
    kernel._check_shape((n, pins.shape[-1]))
    return _derived(f"pin({kernel.name})", n - m, "prod", [(1.0, kernel, [*pins, *range(n - m)])],
                    params=dict(kernel.params, pins=m))


def cpd_shift(kernel: Kernel, x0, variant: str = "standard") -> Kernel:
    """Anchor shift turning conditional positive definiteness into plain.

    standard: G(x,y) + G(x0,x0) - G(x,x0) - G(x0,y); the 'zero' variant
    drops the diagonal constant and requires G(x0,x0) <= 0.  x0 must be a unit vector.
    """
    if kernel.arity != 2:
        raise ValueError("cpd_shift applies to two-input kernels")
    x0 = _check_points(x0, "the anchor x0", ndim=1)
    diag = kernel(x0, x0)
    if variant == "zero" and diag > 0:
        raise ValueError("zero-variant shift requires G(x0, x0) <= 0")
    if variant not in ("standard", "zero"):
        raise ValueError(f"unknown shift variant '{variant}'")
    terms = [(1.0, kernel, [0, 1]), (-1.0, kernel, [0, x0]), (-1.0, kernel, [x0, 1])]
    return _Combination(f"shift({kernel.name})", 2, "sum", terms,
                        const=diag if variant == "standard" else 0.0,
                        params={"variant": variant})


# --- CLI kernel grammar -------------------------------------------------------

KERNEL_REGISTRY = {
    "inner": inner,
    "riesz": riesz,
    "frame2": frame2,
    "prod_f_uvt": prod_f_uvt,
    "uvt": uvt,
    "vol2": vol2,
    "neg_vol2": neg_vol2,
    "area2": area2,
    "neg_area2": neg_area2,
    "s011": s011,
    "s100": s100,
    "quad_a": quad_a,
}

_LIFTS = {"sum_lift": sum_lift, "prod_lift": prod_lift}


def _parse_value(raw: str):
    low = raw.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw.strip()


def parse_kernel(spec: str) -> Kernel:
    """Build a kernel from a ``name[:key=value,...]`` string.

    Comma-separated values after a list-valued key extend that list, so
    ``prod_f_uvt:coeffs=0,1`` is f(w) = w.  Lifted kernels are addressed
    as ``sum_lift:base=inner,n=3`` (base given by catalog name).
    """
    spec = spec.strip()
    name, _, tail = spec.partition(":")
    name = name.strip()
    kwargs: dict = {}
    last_list_key = None
    if tail:
        for token in tail.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                key, _, raw = token.partition("=")
                key = key.strip()
                val = _parse_value(raw)
                if key == "coeffs":
                    kwargs[key] = [float(val)]
                    last_list_key = key
                else:
                    kwargs[key] = val
                    last_list_key = None
            elif token == "exp":
                kwargs["f"] = "exp"
                last_list_key = None
            elif last_list_key is not None:
                kwargs[last_list_key].append(float(_parse_value(token)))
            else:
                raise ValueError(f"cannot parse kernel token '{token}' in '{spec}'")
    lift = None
    if name in _LIFTS:
        base_name = kwargs.pop("base", None)
        n = kwargs.pop("n", None)
        if base_name is None or n is None:
            raise ValueError(f"{name} needs base=<catalog name> and n=<arity>")
        if kwargs:
            raise ValueError(f"unknown parameters for {name}: {sorted(kwargs)}")
        if base_name not in KERNEL_REGISTRY:
            raise ValueError(f"unknown base kernel '{base_name}'")
        lift, name = _LIFTS[name], base_name
    elif name not in KERNEL_REGISTRY:
        known = ", ".join(sorted(KERNEL_REGISTRY) + sorted(_LIFTS))
        raise ValueError(f"unknown kernel '{name}' (known: {known})")
    try:
        kernel = KERNEL_REGISTRY[name](**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad parameters for kernel '{name}': {exc}") from None
    return kernel if lift is None else lift(kernel, int(n))
