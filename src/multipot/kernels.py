"""Catalog of symmetric n-input kernels plus lifting constructions.

Most kernels here are polynomials in the pairwise inner products of their
arguments; :class:`PairPolynomial` is the shared backbone that stores such
polynomials over a set of free slots and optional fixed anchor points.  It
supports exact evaluation on batches and analytic gradients; its
constructor is the one place that puts monomials in canonical form, and
:meth:`PairPolynomial.viewed` the one index map behind pins and lifts.

Every derived kernel (sums, products and multiples of other kernels, pins
and subset lifts) is the sum or the product of terms c * base(view), where
a view feeds each base slot an input slot or a fixed point.  One builder,
:func:`_derived`, turns such terms into a single pair polynomial when every
base is one, and otherwise into the private combination class, which
evaluates the terms separately; the anchor shift is always a combination.
A combination's gradient follows from the product rule, so every kernel
built here has an analytic gradient.

Gram-variable naming for three inputs (x, y, z):

    u = <x, y>,   v = <y, z>,   t = <z, x>.

Kernels evaluate on raw coordinate vectors, so they remain usable for any
embedded point set, although the catalog semantics (e.g. squared triangle
area) assume unit vectors.
"""
from __future__ import annotations

import functools
import itertools
import warnings

import numpy as np

from .config import GEOMETRIC_TOL

__all__ = [
    "Kernel",
    "PolynomialKernel",
    "RieszKernel",
    "ExpUvtKernel",
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
    "KERNEL_REGISTRY",
]

# Hard cap on the terms of a polynomial product; beyond it, products and
# product lifts evaluate their factors separately.
_MAX_TERMS = 600


def _layout(view, nslots: int):
    """How a view (as in :class:`_Combination`) feeds a base from ``nslots``
    inputs: None for the identity view, else its (base slot, input slot) and
    its (base slot, fixed point) pairs, each in base-slot order."""
    inputs = [(k, v) for k, v in enumerate(view) if isinstance(v, int)]
    if len(inputs) == len(view) == nslots and all(k == v for k, v in inputs):
        return None
    fixed = [(k, np.asarray(v, dtype=float)) for k, v in enumerate(view) if not isinstance(v, int)]
    return inputs, fixed


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

    def _vector(self, idx: int, pts: np.ndarray):
        if idx < self.nslots:
            return pts[..., idx, :]
        return self.anchors[idx - self.nslots]

    def _pair_values(self, pts: np.ndarray) -> dict:
        pairs = {p for mono in self.terms for p, _ in mono}
        out = {}
        for a, b in pairs:
            va, vb = self._vector(a, pts), self._vector(b, pts)
            out[(a, b)] = np.einsum("...d,...d->...", va, np.broadcast_to(vb, va.shape))
        return out

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on points of shape (..., nslots, d)."""
        batch = pts.shape[:-2]
        vals = self._pair_values(pts)
        total = np.zeros(batch)
        for mono, coeff in self.terms.items():
            term = np.full(batch, coeff)
            for pair, e in mono:
                term = term * vals[pair] ** e
            total = total + term
        return total

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        """Euclidean gradient with respect to every slot: (..., nslots, d)."""
        batch = pts.shape[:-2]
        vals = self._pair_values(pts)
        grad = np.zeros(batch + (self.nslots, pts.shape[-1]))
        for mono, coeff in self.terms.items():
            factors = [vals[pair] ** e for pair, e in mono]
            for k, (pair, e) in enumerate(mono):
                partial = np.full(batch, coeff * e)
                for j, f in enumerate(factors):
                    if j != k:
                        partial = partial * f
                partial = partial * vals[pair] ** (e - 1)
                a, b = pair
                if a < self.nslots:
                    grad[..., a, :] += partial[..., None] * np.broadcast_to(
                        self._vector(b, pts), pts[..., a, :].shape
                    )
                if b < self.nslots:
                    grad[..., b, :] += partial[..., None] * np.broadcast_to(
                        self._vector(a, pts), pts[..., b, :].shape
                    )
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
        anchors follow self's."""
        ns, shift = self.nslots, self.n_anchors
        if other.nslots != ns:
            raise ValueError("polynomials must share slot count")
        if shift and other.n_anchors and self.anchors.shape[1] != other.anchors.shape[1]:
            raise ValueError("anchor dimensions differ")
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

    Subclasses implement :meth:`evaluate_batch` and :meth:`gradient_batch`
    (every kernel this module builds has an analytic gradient); scalar
    convenience calls and the arithmetic live here.  ``pair_poly`` is set
    when the kernel is an explicit pair-inner-product polynomial, which
    unlocks fast exact energies.
    """

    def __init__(self, name: str, arity: int, *, params: dict | None = None,
                 nonnegative: bool = False, pair_poly: PairPolynomial | None = None):
        self.name = name
        self.arity = int(arity)
        self.params = dict(params or {})
        self.nonnegative = bool(nonnegative)
        self.pair_poly = pair_poly

    # -- evaluation ----------------------------------------------------------

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient_batch(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"kernel '{self.name}' has no analytic gradient")

    def _check_points(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim < 2 or pts.shape[-2] != self.arity:
            raise ValueError(
                f"kernel '{self.name}' takes {self.arity} points, got shape {pts.shape}"
            )
        if self.pair_poly is not None and self.pair_poly.n_anchors:
            if pts.shape[-1] != self.pair_poly.anchors.shape[1]:
                raise ValueError("point dimension does not match pinned points")
        return pts

    def evaluate(self, pts) -> float:
        """Evaluate on one n-tuple of points given as an (n, d) array."""
        pts = self._check_points(pts)
        return float(self.evaluate_batch(pts[None, ...])[0])

    def __call__(self, *points) -> float:
        return self.evaluate(np.stack([np.asarray(p, dtype=float) for p in points]))

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
        return _derived(f"({c:g}*{self.name})", self.arity, "prod",
                        [(c, self, range(self.arity))], nonnegative=self.nonnegative and c >= 0)

    def spec_string(self) -> str:
        """Canonical ``name[:key=value,...]`` rendering for reports."""
        if not self.params:
            return self.name
        parts = []
        for k in sorted(self.params):
            v = self.params[k]
            if isinstance(v, (list, tuple)):
                parts.append(f"{k}=" + ",".join(f"{x:g}" for x in v))
            elif isinstance(v, bool):
                parts.append(f"{k}={'true' if v else 'false'}")
            else:
                parts.append(f"{k}={v}")
        return self.name + ":" + ",".join(parts)

    def __repr__(self) -> str:
        return f"<Kernel {self.name} arity={self.arity}>"


class PolynomialKernel(Kernel):
    """Kernel backed by an explicit :class:`PairPolynomial`."""

    def __init__(self, name, poly: PairPolynomial, *, params=None, nonnegative=False):
        super().__init__(name, poly.nslots, params=params, nonnegative=nonnegative,
                         pair_poly=poly)

    def evaluate_batch(self, pts):
        return self.pair_poly.evaluate(self._check_points(pts))

    def gradient_batch(self, pts):
        return self.pair_poly.gradient(self._check_points(pts))


class _Combination(Kernel):
    """The sum or the product of terms ``c * base(view)``; a sum may add a
    constant.

    A view lists, for each slot of ``base``, either the index of one of
    the ``arity`` input slots or a fixed point, and names each input slot
    at most once.  K + L, K * L, c * K, pins, subset lifts and the anchor
    shift are all built this way when they are not pair polynomials.  A
    value is the constant (if any) plus the terms, or their product, taken
    left to right.
    """

    def __init__(self, name: str, arity: int, mode: str, terms, *,
                 const: float | None = None, params: dict | None = None,
                 nonnegative: bool = False):
        super().__init__(name, arity, params=params, nonnegative=nonnegative)
        self._op = np.add if mode == "sum" else np.multiply
        self._const = const
        self._terms = [(float(c), base, _layout(view, arity)) for c, base, view in terms]

    @staticmethod
    def _view(layout, pts):
        if layout is None:
            return pts
        inputs, fixed = layout
        out = np.empty(pts.shape[:-2] + (len(inputs) + len(fixed), pts.shape[-1]))
        for k, s in inputs:
            out[..., k, :] = pts[..., s, :]
        for k, point in fixed:
            out[..., k, :] = point
        return out

    def _values(self, pts):
        return [c * base.evaluate_batch(self._view(layout, pts))
                for c, base, layout in self._terms]

    def evaluate_batch(self, pts):
        vals = self._values(self._check_points(pts))
        out = vals[0] if self._const is None else self._const + vals[0]
        for v in vals[1:]:
            out = self._op(out, v)
        return out

    def gradient_batch(self, pts):
        pts = self._check_points(pts)
        grads = []
        for c, base, layout in self._terms:
            part = c * base.gradient_batch(self._view(layout, pts))
            if layout is None:
                grads.append(part)
            else:   # fixed points are constants: only the input slots get gradient
                grads.append(np.zeros_like(pts))
                for k, s in layout[0]:
                    grads[-1][..., s, :] = part[..., k, :]
        if self._op is np.add:
            return sum(grads)
        vals = self._values(pts)    # product rule: sum_i (prod_{j != i} v_j) grad v_i
        return sum(np.prod(vals[:i] + vals[i + 1:], axis=0)[..., None, None] * g
                   for i, g in enumerate(grads))


def _derived(name: str, arity: int, mode: str, terms, *, params: dict | None = None,
             nonnegative: bool = False) -> Kernel:
    """The sum or the product of terms ``c * base(view)`` (views as in
    :class:`_Combination`): one :class:`PolynomialKernel` when every base
    is a pair polynomial and a product stays within ``_MAX_TERMS``, else a
    :class:`_Combination`."""
    if all(base.pair_poly is not None for _, base, _ in terms):
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
    """Two-input distance power ||x - y||^s for s > 0."""

    def __init__(self, s: float):
        if not 0 < s < np.inf:
            raise ValueError(f"riesz exponent must be positive and finite, got {s!r}")
        super().__init__("riesz", 2, params={"s": s}, nonnegative=True)
        self.s = float(s)

    def evaluate_batch(self, pts):
        pts = self._check_points(pts)
        diff = pts[..., 0, :] - pts[..., 1, :]
        return np.linalg.norm(diff, axis=-1) ** self.s

    def gradient_batch(self, pts):
        # grad_x ||x-y||^s = s ||x-y||^{s-2} (x-y), singular at x = y when s < 1.
        # A pair at most GEOMETRIC_TOL apart counts as coincident and gets no
        # gradient, so every kernel built from this one shares the rule.
        pts = self._check_points(pts)
        diff = pts[..., 0, :] - pts[..., 1, :]
        dist = np.linalg.norm(diff, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(dist > GEOMETRIC_TOL, self.s * dist ** (self.s - 2.0), 0.0)
        g = np.zeros_like(pts)
        g[..., 0, :] = scale[..., None] * diff
        g[..., 1, :] = -scale[..., None] * diff
        return g


class ExpUvtKernel(Kernel):
    """Three-input kernel exp(uvt)."""

    def __init__(self):
        super().__init__("prod_f_uvt", 3, params={"f": "exp"}, nonnegative=True)
        self._uvt = uvt().pair_poly

    def evaluate_batch(self, pts):
        return np.exp(self._uvt.evaluate(self._check_points(pts)))

    def gradient_batch(self, pts):
        pts = self._check_points(pts)
        val = np.exp(self._uvt.evaluate(pts))
        return val[..., None, None] * self._uvt.gradient(pts)


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
    if not 2 <= m <= n - 1:
        raise ValueError(f"lift requires 2 <= arity(base) <= n-1, got arity {m}, n {n}")
    return _derived(f"{mode}_lift({base.name},n={n})", n, mode,
                    [(1.0, base, s) for s in itertools.combinations(range(n), m)],
                    params={"base": base.name, "n": n}, nonnegative=base.nonnegative)


def sum_lift(base: Kernel, n: int) -> Kernel:
    """Sum of ``base`` over all arity(base)-subsets of n inputs."""
    return _lift(base, n, "sum")


def prod_lift(base: Kernel, n: int) -> Kernel:
    """Product of ``base`` over all arity(base)-subsets of n inputs."""
    if not base.nonnegative and base.arity < n - 1:
        warnings.warn(
            "product lift of a possibly-negative kernel with arity < n-1 "
            "need not preserve positive definiteness",
            stacklevel=2,
        )
    return _lift(base, n, "prod")


def pin(kernel: Kernel, pins) -> Kernel:
    """Fix the leading slots of ``kernel`` at concrete points.

    With m pins, returns the (n-m)-input kernel
    (z_1,...,z_m fixed) -> K(z_1,...,z_m, x_1,...,x_{n-m}).
    Requires 1 <= m <= n-2 so the result keeps at least two inputs.
    """
    pins = np.atleast_2d(np.asarray(pins, dtype=float))
    m, n = pins.shape[0], kernel.arity
    if not 1 <= m <= n - 2:
        raise ValueError(f"pin count must satisfy 1 <= m <= arity-2, got {m} for arity {n}")
    return _derived(f"pin({kernel.name})", n - m, "prod", [(1.0, kernel, [*pins, *range(n - m)])],
                    params=dict(kernel.params, pins=m))


def cpd_shift(kernel: Kernel, x0, variant: str = "standard") -> Kernel:
    """Anchor shift turning conditional positive definiteness into plain.

    standard: G(x,y) + G(x0,x0) - G(x,x0) - G(x0,y); the 'zero' variant
    drops the diagonal constant and requires G(x0,x0) <= 0.
    """
    if kernel.arity != 2:
        raise ValueError("cpd_shift applies to two-input kernels")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
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
