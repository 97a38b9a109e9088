"""Discrete energies, mutual energies, potentials and mixture polynomials.

Exact energies of atomic measures are weighted sums of kernel values over
all atom tuples.  Two routes compute them:

* the dense route enumerates the tuples (chunked to bound memory).  It
  serves every kernel and is the reference for the other route;
* the power-moment route serves pair-polynomial kernels.  A monomial
  prod <x_a, x_b>^e factors through tensor powers: an integrated slot
  becomes the moment tensor M_E = sum_i w_i x_i^{(x)E} (anchor factors
  folded into the weights), a free slot the tensor power of its query
  point, and one einsum with a letter per unit exponent contracts them.
  The gradient of a discrete energy contracts all slots but one and
  differentiates the result against x^{(x)E}, in O(N d^E) work; the
  measures of a potential kernel are fixed slots in these contractions.
  Leaving slot 0 open instead writes the polynomial as Phi(x)^T A, with
  Phi(x) the tensor powers of x (certify's noise estimate uses this).
  All of this is planned once per polynomial and call layout, and cached
  as a program: the moment keys each measure or query slot needs, every
  einsum spec with its operands, and the axis orders of the gradient.
  The layout is what the call's arguments decide: which slots are
  integrated, queried or open, which integrated slots hold equal measures,
  and which hold a stack.  A call only computes its tensors and runs the
  program.  A program lists each distinct environment contraction once
  (by spec, kept axes and operands; a product of two operands also
  matches its swapped form), and each environment adds its coefficient
  times that contraction in the order the monomials give.  A particle
  descent binds its engine once (:func:`_bind`): route, layout and
  program are resolved before its first step, not on every call.

A stack (B, N, d) of configurations in place of one (N, d) gets B energies
or gradients from one set of contractions, each with the bits it gets
alone.  One rule, :func:`_use_moments`, picks the route for every energy,
potential and gradient: the moment route runs when the arrays it builds
hold no more entries than the dense route reads (per tuple: the points,
their pair products and one value per monomial).  Neither route takes on
more than ``_WORK_LIMIT`` tuples or entries.
"""
from __future__ import annotations

import functools
import math
import string
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .geometry import DiscreteMeasure, PointConfiguration, _check_on_sphere, _random_directions
from .kernels import Kernel

__all__ = [
    "EnergyEstimate",
    "MixturePolynomial",
    "PotentialKernel",
    "discrete_energy",
    "mutual_energy",
    "potential",
    "mc_energy_uniform",
    "mixture_polynomial",
]

_MAX_EXACT_ARITY = 4
_WORK_LIMIT = 20_000_000               # dense tuples, or moment-route array entries
_BLOCK_TUPLES = 2_000_000              # tuples per dense grid, which bounds its memory
_LETTERS = string.ascii_letters[:-2]   # one per unit exponent
_BATCH = string.ascii_letters[-2]      # the index of a stack of configurations
_QUERY = string.ascii_letters[-1]      # the query index of free slots

# The atoms and weights of one slot; a DiscreteMeasure has the same fields.
_Atoms = namedtuple("_Atoms", "atoms weights")


@dataclass(frozen=True)
class EnergyEstimate:
    """An energy value with its Monte-Carlo standard error; ``is_exact``
    marks an exact finite sum, never a Monte-Carlo estimate (even one whose
    samples agree, so that its stderr is 0)."""

    value: float
    stderr: float
    samples_used: int
    is_exact: bool

    def as_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr, "samples_used": self.samples_used}


# --- dense tuple enumeration ---------------------------------------------------


def _tuple_blocks(arrays: list[np.ndarray]):
    """The product grid of the point arrays in blocks along the first one:
    yields (start, stop, pts) with pts of shape (stop-start, n_2, ..., k, d)."""
    sizes = [a.shape[0] for a in arrays]
    n, d = len(arrays), arrays[0].shape[1]
    chunk = max(1, _BLOCK_TUPLES // max(math.prod(sizes[1:]), 1))
    for start in range(0, sizes[0], chunk):
        stop = min(sizes[0], start + chunk)
        pts = np.empty((stop - start, *sizes[1:], n, d))
        for s, arr in enumerate(arrays):
            seg = arr[start:stop] if s == 0 else arr
            shape = [1] * n
            shape[s] = seg.shape[0]
            pts[..., s, :] = seg.reshape(tuple(shape) + (d,))
        yield start, stop, pts


def _dense_mutual(kernel: Kernel, measures) -> float:
    """Weighted sum of the kernel over every atom tuple, one measure per slot."""
    vals = np.empty([m.atoms.shape[0] for m in measures])
    for start, stop, pts in _tuple_blocks([m.atoms for m in measures]):
        vals[start:stop] = kernel.evaluate_batch(pts)
    letters = _LETTERS[: len(measures)]
    spec = letters + "," + ",".join(letters) + "->"
    return float(np.einsum(spec, vals, *[m.weights for m in measures]))


def _dense_potential(batch, measures, queries: np.ndarray) -> np.ndarray:
    """Potential by a dense sum over the atom tuples (queries fill the last
    slots), one tuple grid per block of queries.

    ``batch`` maps a grid of tuples to one value per tuple (a kernel's
    ``evaluate_batch``) or to one array per tuple, such as the gradient in
    the free slots; the result keeps those trailing axes per query.
    """
    j, (count, r, d) = len(measures), queries.shape
    sizes = [m.atoms.shape[0] for m in measures]
    block = max(1, _BLOCK_TUPLES // max(math.prod(sizes), 1))
    spec = _QUERY + _LETTERS[:j] + "...," + ",".join(_LETTERS[:j]) + "->" + _QUERY + "..."
    out = []
    for start in range(0, count, block):
        q = queries[start:start + block]
        grid = np.empty((q.shape[0], *sizes, j + r, d))
        for s, m in enumerate(measures):
            grid[..., s, :] = m.atoms.reshape((sizes[s],) + (1,) * (j - s - 1) + (d,))
        grid[..., j:, :] = q.reshape((q.shape[0],) + (1,) * j + (r, d))
        out.append(np.einsum(spec, batch(grid), *[m.weights for m in measures]))
    return np.concatenate(out)


# --- power-moment route --------------------------------------------------------

# The contractions of one pair polynomial for one call layout (see _layout).
# ``tensors`` lists (queried, position among the call's slots or query columns,
# keys) per distinct measure and query slot, in operand order; ``monomials``
# are (coefficient, einsum spec, axes kept before a row sum or None, operand
# positions, block of slot 0's key), ``contractions`` the distinct (spec, kept
# axes, operand positions) of the environments, ``environments`` (slot,
# coefficient, index into contractions, key), and ``turns[key]`` the axis
# orders that bring each position of an environment to the front.
_Program = namedtuple("_Program", "slot_keys tensors monomials contractions environments turns")


def _layout(slots, opened: bool = False, queries: int = 0) -> str:
    """The layout of a call, one character per slot of the polynomial: '*' for an
    open slot 0, then for each of ``slots`` the letter of the first slot holding
    the same atoms and weights (upper case for a stack (B, N, d)), then '?' for
    each of ``queries`` query slots."""
    ids = [(id(s.atoms), id(s.weights)) for s in slots]
    marks = (string.ascii_lowercase[opened + ids.index(i)] for i in ids)
    return "*" * opened + "".join(m.upper() if s.atoms.ndim == 3 else m
                                  for m, s in zip(marks, slots)) + "?" * queries


@functools.lru_cache(maxsize=64)
def _program(poly, layout: str) -> _Program | None:
    """The contraction program of a pair polynomial for a call layout; None if
    einsum lacks letters.

    A slot pair with exponent e shares e letters.  Each slot needs one tensor
    per (degree, anchor powers) key of its monomials: a moment tensor of its
    measure (equal measures share them) or a tensor power per query.  A
    monomial contracts them onto the open slot's letters, the stack index and
    the query index; an environment contracts all slots but s onto slot s's
    letters, for gradients.  On a stack the letters an einsum sums are kept
    and summed after it, one row per entry: a row sum's order, unlike
    einsum's, does not depend on the stack's length.
    """
    n = poly.nslots
    monos, slot_keys = [], [[] for _ in range(n)]
    for mono, coeff in poly.terms.items():
        letters, anchored, used = [""] * n, [()] * n, 0
        for (a, b), e in mono:
            if b >= n:
                anchored[a] += ((b - n, e),)
            elif used + e > len(_LETTERS):
                return None
            else:
                letters[a] += _LETTERS[used:used + e]
                letters[b] += _LETTERS[used:used + e]
                used += e
        keys = tuple(zip(map(len, letters), anchored))
        for s, key in enumerate(keys):
            if key not in slot_keys[s]:
                slot_keys[s].append(key)
        monos.append((coeff, letters, keys, _LETTERS[:used]))

    opened, free = layout[0] == "*", layout.count("?")
    owner = [s if m in "*?" else string.ascii_lowercase.index(m.lower())
             for s, m in enumerate(layout)]
    index, tensors = {}, []
    for s in range(opened, n):
        keys = tuple(dict.fromkeys(k for t in range(s, n) if owner[t] == s for k in slot_keys[t]))
        if owner[s] == s and keys:
            index.update({(s, key): len(index) + i for i, key in enumerate(keys)})
            tensors.append((layout[s] == "?", s - (n - free if layout[s] == "?" else opened), keys))

    def contraction(slots, out, letters, keys, summed):
        subs = ",".join(_BATCH * layout[t].isupper() + letters[t] + _QUERY * (layout[t] == "?")
                        for t in slots)
        summed = "".join(c for c in summed if c not in out)
        keep = len(out) if summed and out.startswith(_BATCH) else None
        return (f"{subs}->{out}{summed if keep else ''}", keep,
                tuple(index[owner[t], keys[t]] for t in slots))

    lead = _BATCH * (layout.lower() != layout)
    monomials = tuple((coeff, *contraction(range(opened, n), lead + letters[0] * opened
                                           + _QUERY * bool(free), letters, keys, summed),
                       slot_keys[0].index(keys[0])) for coeff, letters, keys, summed in monos)
    contractions, environments, turns = {}, [], {}
    for coeff, letters, keys, summed in monos if layout.isalpha() else ():
        for s, key in enumerate(keys):
            if key != (0, ()):
                others = [t for t in range(n) if t != s]
                term = _canonical(*contraction(
                    others, _BATCH * layout[s].isupper() + letters[s], letters, keys, summed))
                entry = contractions.setdefault(term, len(contractions))
                environments.append((s, coeff, entry, key))
                turns[key] = tuple((*range(len(lead)), len(lead) + k,
                                    *(len(lead) + i for i in range(key[0]) if i != k))
                                   for k in range(key[0]))
    return _Program(tuple(map(tuple, slot_keys)), tuple(tensors), monomials,
                    tuple(contractions), tuple(environments), turns)


def _canonical(spec: str, keep, operands):
    """One name for a contraction and its two operands swapped, when einsum sums
    no letter of it: each output entry is then one product a*b, which equals b*a
    bit for bit.  Products of three or more operands keep their order, since
    (a*b)*c need not equal (a*c)*b; so do contractions einsum sums over."""
    inputs, out = spec.split("->")
    if len(operands) != 2 or not set(inputs) - {","} <= set(out):
        return spec, keep, operands
    first, second = inputs.split(",")
    return min((spec, keep, operands), (f"{second},{first}->{out}", keep, operands[::-1]))


@functools.lru_cache(maxsize=64)
def _route_sizes(poly, d: int):
    """The terms of :func:`_use_moments`' size count that depend only on the
    polynomial and d: the entries of all monomial contractions per query, the
    entries each slot builds per row, the distinct pairs and the monomial
    count; None if no program fits."""
    prog, n = _program(poly, "a" * poly.nslots), poly.nslots
    if prog is None:
        return None
    return (sum(d ** sum(e for (_, b), e in mono if b < n) for mono in poly.terms),
            tuple(sum(d**e + d * len(anchored) for e, anchored in keys) for keys in prog.slot_keys),
            len({pair for mono in poly.terms for pair, _ in mono}), len(poly.terms))


def _use_moments(kernel: Kernel, slots, queries: int = 1) -> bool:
    """The routing rule for every exact sum, potential and gradient.

    ``slots`` carry the atoms of the integrated (leading) slots; each
    remaining slot takes one of ``queries`` points or tuples.  The moment
    route runs for a pair polynomial when the entries it builds and reads
    (tensor powers of each slot, one d-vector pass over a slot's rows per
    anchor factor of each of its keys, and one contraction per monomial)
    are no more than the dense route reads: per tuple, the points, their
    pair products and one value per monomial.  Raises when the dense route
    would exceed the work limit.
    """
    d = slots[0].atoms.shape[-1]
    rows = [s.atoms.shape[-2] for s in slots]
    tuples = math.prod(rows)
    sizes = None if kernel.pair_poly is None else _route_sizes(kernel.pair_poly, d)
    if sizes is not None:
        contractions, per_row, pairs, count = sizes
        rows += [queries] * (kernel.arity - len(slots))
        size = queries * contractions + sum(n * k for n, k in zip(rows, per_row))
        if size <= min(tuples * queries * ((kernel.arity + pairs) * d + count), _WORK_LIMIT):
            return True
    if tuples > _WORK_LIMIT:
        raise ValueError(
            f"{tuples} atom tuples exceed the dense limit and no moment route "
            f"fits kernel '{kernel.name}'"
        )
    return False


def _powers(x: np.ndarray, keys) -> list:
    """Tensor powers x^{(x)e} of the rows of x (..., N, d) up to the top degree
    of the keys (e, anchor powers), as (..., d**e, N) arrays; power 0 (ones) is
    None unless a key has degree 0."""
    xt = np.ascontiguousarray(np.swapaxes(x, -1, -2))
    p = [np.ones_like(xt[..., :1, :]) if any(e == 0 for e, _ in keys) else None, xt]
    for _ in range(max(e for e, _ in keys) - 1):
        p.append((p[-1][..., :, None, :] * xt[..., None, :, :]).reshape(
            xt.shape[:-2] + (-1, xt.shape[-1])))
    return p


def _anchor_factor(x: np.ndarray, anchors: np.ndarray, anchored) -> np.ndarray:
    """prod_k <x, anchor_k>^e_k for each row of x."""
    f = np.ones(x.shape[:-1])
    for k, e in anchored:
        f *= (x @ anchors[k]) ** e
    return f


def _anchor_gradient(x: np.ndarray, anchors: np.ndarray, anchored) -> np.ndarray:
    """Gradient of the anchor factor at each row of x (..., N, d), as (..., d, N)."""
    g = np.zeros(x.shape[:-2] + (x.shape[-1], x.shape[-2]))
    for i, (k, e) in enumerate(anchored):
        rest = _anchor_factor(x, anchors, anchored[:i] + anchored[i + 1:])
        g += anchors[k][:, None] * (e * (x @ anchors[k]) ** (e - 1) * rest)[..., None, :]
    return g


def _free_tensors(poly, x: np.ndarray, keys) -> list:
    """a(x) x^{(x)e} for each key (e, anchor powers) and each row of x (Q, d), as
    (d, ..., d, Q) arrays: the operands of a slot that takes one point per query."""
    p = _powers(x, keys)
    return [(p[e] * _anchor_factor(x, poly.anchors, anchored) if anchored else p[e]).reshape(
        (x.shape[1],) * e + (x.shape[0],)) for e, anchored in keys]


def _operands(prog: _Program, poly, slots, queries: np.ndarray | None = None):
    """The program's operands, and the powers of the last slot's atoms.  A
    measure gives its moment tensors sum_i w_i a(x_i) x_i^{(x)e} by key, shape
    (..., d, ..., d), all of them before the next measure's powers (holding
    several measures' powers raised the peak memory on 100k-atom measures)."""
    ops, last = [], None
    for queried, pos, keys in prog.tensors:
        if queried:
            ops += _free_tensors(poly, queries[:, pos], keys)
            continue
        x, w = slots[pos].atoms, slots[pos].weights
        p = _powers(x, keys)
        last = p if x is slots[-1].atoms else last
        for e, anchored in keys:
            wa = w * _anchor_factor(x, poly.anchors, anchored) if anchored else w
            ops.append((p[e] @ wa[..., None])[..., 0].reshape(x.shape[:-2] + (x.shape[-1],) * e))
    return ops, last


def _term(coeff: float, spec: str, keep, operands) -> np.ndarray:
    """coeff times one planned einsum, row-summed over its last axes after the
    first ``keep``; a product by 1.0, which changes no bit, is skipped."""
    full = np.einsum(spec, *operands)
    if keep is not None:
        full = np.add.reduce(full.reshape(full.shape[:keep] + (-1,)), -1)
    return full if coeff == 1.0 else coeff * full


def _features(poly, x: np.ndarray) -> np.ndarray:
    """Phi(x) for the rows of x (P, d): slot 0's tensors a(x) x^{(x)e}, one block
    per key of slot 0, flattened into (P, F)."""
    tensors = _free_tensors(poly, x, _program(poly, "a" * poly.nslots).slot_keys[0])
    return np.concatenate([t.reshape(-1, x.shape[0]) for t in tensors]).T


def _open_slot(poly, slots, queries: np.ndarray | None = None) -> np.ndarray:
    """The polynomial with slot 0 left open, the next len(slots) slots summed
    over their weighted atoms and the others at each query tuple (Q, r, d), as
    A (Q, F) with value ``_features(poly, x) @ A[q]`` at x and query q; (F,)
    without queries.  Each monomial contracts the other slots onto slot 0's
    letters, and monomials with equal slot-0 keys add into one block."""
    free = 0 if queries is None else queries.shape[1]
    prog = _program(poly, _layout(slots, True, free))
    ops, blocks = _operands(prog, poly, slots, queries)[0], [None] * len(prog.slot_keys[0])
    for coeff, spec, keep, operands, block in prog.monomials:
        term = _term(coeff, spec, keep, [ops[i] for i in operands])
        blocks[block] = term if blocks[block] is None else blocks[block] + term
    tail = (queries.shape[0],) if free else ()
    return np.concatenate([b.reshape((-1,) + tail) for b in blocks]).T


def _moment_sum(poly, slots, queries: np.ndarray | None = None, prog: _Program | None = None):
    """A pair polynomial summed over the weighted atoms of its leading len(slots) slots,
    the others at each query tuple (Q, r, d): a float without queries, else Q values; a
    stack (B, N, d) of configurations as a slot's atoms adds a leading axis.  ``prog``
    is the program of the call's layout, if the caller has it."""
    if prog is None:
        prog = _program(poly, _layout(slots, queries=0 if queries is None else queries.shape[1]))
    ops = _operands(prog, poly, slots, queries)[0]
    total = np.zeros(slots[-1].atoms.shape[:-2] + (() if queries is None else queries.shape[:1]))
    for coeff, spec, keep, operands, _ in prog.monomials:
        total = total + _term(coeff, spec, keep, [ops[i] for i in operands])
    return total if total.ndim else float(total)


def _moment_gradient(poly, slot, fixed=(), prog: _Program | None = None) -> np.ndarray:
    """Gradient of the polynomial summed over the ``fixed`` measures in its
    leading slots and over ``slot`` in the others, with respect to each atom
    of ``slot``: (..., N, d) for atoms (..., N, d).  Slot s of a monomial
    contributes w(x) d/dx [a(x) <env, x^{(x)E}>], where env contracts the
    other slots' moment tensors (each distinct contraction runs once);
    environments with equal (E, anchor powers) keys are summed before they
    meet the atoms.  ``prog`` is the program of the call's layout, if the
    caller has it."""
    x, w, j = slot.atoms, slot.weights, len(fixed)
    lead, d = x.shape[:-2], x.shape[-1]
    slots = list(fixed) + [slot] * (poly.nslots - j)
    if prog is None:
        prog = _program(poly, _layout(slots))
    ops, p = _operands(prog, poly, slots)
    done, envs = [None] * len(prog.contractions), {}
    for s, coeff, c, key in prog.environments:
        if s >= j:
            if done[c] is None:
                spec, keep, operands = prog.contractions[c]
                done[c] = _term(1.0, spec, keep, [ops[i] for i in operands])
            env = done[c] if coeff == 1.0 else coeff * done[c]
            envs[key] = envs[key] + env if key in envs else env
    if any(e <= 1 for e, _ in envs) and p[0] is None:
        p[0] = np.ones_like(p[1][..., :1, :])
    grad = np.zeros(lead + (d, x.shape[-2]))
    for (e, anchored), env in envs.items():
        # d/dx <env, x^{(x)e}> contracts x into every position but one
        dvalue = sum(env.transpose(turn).reshape(lead + (d, -1)) @ p[e - 1]
                     for turn in prog.turns[e, anchored])
        if anchored:
            value = (env.reshape(lead + (1, -1)) @ p[e])[..., 0, :]
            dvalue = (_anchor_factor(x, poly.anchors, anchored)[..., None, :] * dvalue
                      + value[..., None, :] * _anchor_gradient(x, poly.anchors, anchored))
        grad += dvalue
    return np.swapaxes(w * grad, -1, -2)


# --- exact sums ------------------------------------------------------------------


def _sum(kernel: Kernel, slots, queries: np.ndarray | None = None):
    """Exact weighted sum of the kernel over the atom tuples of the leading slots, the
    others at each query tuple (Q, r, d): a float without queries, else Q values.  A
    potential kernel unfolds into its base's.  Discrete energies of point arrays
    go through :func:`_bind`."""
    if isinstance(kernel, PotentialKernel):
        return _sum(kernel.base, kernel.measures + list(slots), queries)
    if _use_moments(kernel, slots, 1 if queries is None else queries.shape[0]):
        return _moment_sum(kernel.pair_poly, slots, queries)
    if queries is None:
        return _dense_mutual(kernel, slots)
    return _dense_potential(kernel.evaluate_batch, slots, queries)


def _bind(kernel: Kernel, pts: np.ndarray):
    """The discrete energy and its Euclidean gradient at every row, as functions
    of point arrays shaped like ``pts``: (N, d), or a stack (B, N, d) of any
    length B with one energy and one gradient per configuration.  The route, the
    call layout and the contraction program are resolved here, once; a potential
    kernel's measures are fixed slots of its base."""
    n, arity = pts.shape[-2], kernel.arity
    weights = np.full(n, 1.0 / n)
    pk = isinstance(kernel, PotentialKernel)
    base, fixed = (kernel.base, kernel.measures) if pk else (kernel, [])
    slots = fixed + [_Atoms(pts, weights)] * arity
    if _use_moments(base, slots):
        poly = base.pair_poly
        prog = _program(poly, _layout(slots))

        def energy(x):
            return _moment_sum(poly, fixed + [_Atoms(x, weights)] * arity, None, prog)

        def gradient(x):
            return _moment_gradient(poly, _Atoms(x, weights), fixed, prog)
        return energy, gradient

    def energy(x):
        if x.ndim == 3:
            return np.array([energy(p) for p in x])
        return _dense_mutual(base, fixed + [_Atoms(x, weights)] * arity)

    def gradient(x):
        if x.ndim == 3:
            return np.stack([gradient(p) for p in x])
        grad = np.zeros_like(x)
        for start, stop, grid in _tuple_blocks([x] * arity):
            g = kernel.gradient_batch(grid)
            for s in range(arity):     # slot 0 runs over this block's rows only
                (grad[start:stop] if s == 0 else grad)[...] += g[..., s, :].sum(
                    axis=tuple(a for a in range(arity) if a != s))
        return grad / n**arity
    return energy, gradient


def _points_energy(kernel: Kernel, pts: np.ndarray):
    """Discrete energy of the rows of ``pts`` (not validated), one per configuration of a stack."""
    return _bind(kernel, pts)[0](pts)


def _points_gradient(kernel: Kernel, pts: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the discrete energy at every row of ``pts`` (N, d) or
    of a stack (B, N, d)."""
    return _bind(kernel, pts)[1](pts)


# --- public operations -----------------------------------------------------------


def _validate_measures(kernel: Kernel, measures) -> list[DiscreteMeasure]:
    measures = list(measures)
    if len(measures) != kernel.arity:
        raise ValueError(
            f"kernel '{kernel.name}' has arity {kernel.arity}, got {len(measures)} measures"
        )
    dims = {m.dimension for m in measures}
    if len(dims) != 1:
        raise ValueError("measures must share a dimension")
    return measures


def mutual_energy(kernel: Kernel, measures) -> EnergyEstimate:
    """Exact mutual energy of a tuple of atomic measures.

    Computes the full weighted sum of kernel values over all atom tuples,
    one measure per kernel slot.  Exact, so stderr is 0.
    """
    measures = _validate_measures(kernel, measures)
    if kernel.arity > _MAX_EXACT_ARITY:
        raise ValueError(f"exact sums support arity <= {_MAX_EXACT_ARITY}")
    return EnergyEstimate(_sum(kernel, measures), 0.0,
                          math.prod(m.n_atoms for m in measures), True)


def discrete_energy(kernel: Kernel, config: PointConfiguration) -> EnergyEstimate:
    """Discrete energy of an N-point multiset: the average of the kernel
    over all N^n ordered tuples, repeats included."""
    if kernel.arity > _MAX_EXACT_ARITY:
        raise ValueError(f"exact sums support arity <= {_MAX_EXACT_ARITY}")
    return EnergyEstimate(_points_energy(kernel, config.points), 0.0,
                          config.n_points ** kernel.arity, True)


def _coerce_queries(r: int, at) -> np.ndarray:
    if isinstance(at, PointConfiguration):
        at = at.points
    q = np.asarray(at, dtype=float)
    if q.ndim == 1:
        q = q[None, :]
    if q.ndim == 2:
        if r != 1:
            raise ValueError(
                f"this potential leaves {r} free slots; pass query tuples of shape (Q, {r}, d)"
            )
        q = q[:, None, :]
    if q.ndim != 3 or q.shape[1] != r:
        raise ValueError(f"queries must have shape (Q, {r}, d)")
    return q


def potential(kernel: Kernel, measures, at) -> np.ndarray:
    """The j-fold potential: integrate the first j slots against the given
    measures and evaluate at each query tuple.

    For j = arity-1 each query is a single point and one value per point is
    returned; for smaller j pass query tuples of shape (Q, arity-j, d).
    Query points must be finite and of unit norm to within GEOMETRIC_TOL.
    """
    measures = list(measures)
    j = len(measures)
    n = kernel.arity
    if not 1 <= j <= n - 1:
        raise ValueError(f"number of integrated slots must be in [1, {n - 1}], got {j}")
    dims = {m.dimension for m in measures}
    if len(dims) != 1:
        raise ValueError("measures must share a dimension")
    d = dims.pop()
    queries = _coerce_queries(n - j, at)
    if queries.shape[2] != d:
        raise ValueError("query dimension does not match the measures")
    if queries.shape[0] == 0:
        return np.empty(0)
    if not np.all(np.isfinite(queries)):
        raise ValueError("query points must be finite")
    _check_on_sphere(queries, "query points")
    return np.asarray(_sum(kernel, measures, queries))


def mc_energy_uniform(kernel: Kernel, d: int, tuples: int, seed: int) -> EnergyEstimate:
    """Monte-Carlo estimate of the kernel energy of the uniform measure.

    Averages the kernel over independent n-tuples of i.i.d. uniform points,
    which makes the estimator unbiased with an honest standard error
    (sample standard deviation / sqrt(tuples)).  Each chunk's squared
    deviations are taken about its own mean and merged by Chan, Golub &
    LeVeque (1979), so a large constant offset cannot cancel the variance.
    """
    for name, value in (("dimension", d), ("tuples", tuples)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if tuples < 100:
        raise ValueError(f"need at least 100 tuples, got {tuples}")
    n = kernel.arity
    rng = np.random.default_rng(seed)
    chunk = max(1, 200_000 // n)     # points per chunk: a few MiB per array at small d
    done = 0
    acc = 0.0
    m2 = 0.0        # sum of squared deviations from the running mean
    while done < tuples:
        count = min(chunk, tuples - done)
        vals = kernel.evaluate_batch(_random_directions(rng, (count, n, d)))
        total = float(vals.sum())
        m2 += float(np.sum((vals - total / count) ** 2))
        if done:
            delta = total / count - acc / done
            m2 += delta * delta * done * count / (done + count)
        acc += total
        done += count
    var = m2 / max(tuples - 1, 1)
    return EnergyEstimate(acc / tuples, math.sqrt(var / tuples), tuples, False)


# --- mixtures and potentials-as-kernels ------------------------------------------


@dataclass(frozen=True)
class MixturePolynomial:
    """The polynomial t -> I_K((1-t) mu + t nu) in Bernstein form.

    coefficients[k] is the mixed energy with k slots carrying nu and the
    remaining n-k slots carrying mu, so g(0) and g(1) are the pure
    energies of mu and nu.
    """

    coefficients: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        n = self.degree
        out = np.zeros_like(t)
        for k, c in enumerate(self.coefficients):
            out = out + math.comb(n, k) * (1 - t) ** (n - k) * t**k * c
        return out if out.ndim else float(out)

    def power_coefficients(self) -> np.ndarray:
        """Coefficients a_m with g(t) = sum_m a_m t^m."""
        n = self.degree
        a = np.zeros(n + 1)
        for k, c in enumerate(self.coefficients):
            for m in range(k, n + 1):
                a[m] += math.comb(n, k) * math.comb(n - k, m - k) * (-1.0) ** (m - k) * c
        return a

    def derivative(self, t, order: int = 1):
        a = self.power_coefficients()
        for _ in range(order):
            a = a[1:] * np.arange(1, len(a))
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for m, coeff in enumerate(a):
            out = out + coeff * t**m
        return out if out.ndim else float(out)

    def derivative1_at_zero(self) -> float:
        c = self.coefficients
        return self.degree * (c[1] - c[0])

    def derivative2_at_zero(self) -> float:
        c = self.coefficients
        n = self.degree
        return n * (n - 1) * (c[0] - 2 * c[1] + c[2])


def mixture_polynomial(kernel: Kernel, mu: DiscreteMeasure, nu: DiscreteMeasure) -> MixturePolynomial:
    """Exact mixed energies of (1-t) mu + t nu, as a Bernstein polynomial."""
    if not (mu.is_probability and nu.is_probability):
        raise ValueError("mixture polynomials are defined for probability measures")
    if mu.dimension != nu.dimension:
        raise ValueError("measures must share a dimension")
    n = kernel.arity
    coeffs = np.array([
        mutual_energy(kernel, [mu] * (n - k) + [nu] * k).value for k in range(n + 1)
    ])
    return MixturePolynomial(coeffs)


class PotentialKernel(Kernel):
    """Lower-arity kernel obtained by integrating leading slots of a base
    kernel against fixed measures."""

    def __init__(self, base: Kernel, measures):
        measures = list(measures)
        j = len(measures)
        if not 1 <= j <= base.arity - 2:
            raise ValueError("potential kernels need 1 <= j <= arity - 2 integrated slots")
        super().__init__(f"potential({base.name},j={j})", base.arity - j)
        self._base = base
        self._measures = measures

    @property
    def base(self) -> Kernel:
        return self._base

    @property
    def measures(self) -> list:
        return list(self._measures)

    def evaluate_batch(self, pts):
        """The potential at each tuple; unlike :func:`potential`, any finite
        point is accepted, as by every other kernel (finite differences
        probe points off the sphere)."""
        pts = self._check_points(pts)
        if pts.shape[-1] != self._measures[0].dimension:
            raise ValueError("point dimension does not match the measures")
        flat = pts.reshape((-1,) + pts.shape[-2:])
        return np.asarray(_sum(self._base, self._measures, flat)).reshape(pts.shape[:-2])

    def gradient_batch(self, pts):
        """Gradient with respect to the free slots, by a dense sum of the
        base kernel's gradient over the integrated atoms."""
        pts = self._check_points(pts)
        flat = pts.reshape((-1,) + pts.shape[-2:])
        j = len(self._measures)
        grads = _dense_potential(lambda grid: self._base.gradient_batch(grid)[..., j:, :],
                                 self._measures, flat)
        return grads.reshape(pts.shape)
