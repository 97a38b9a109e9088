"""Discrete energies, mutual energies, potentials and mixture polynomials.

Exact energies of atomic measures are weighted sums of kernel values over
all atom tuples.  Two routes compute them:

* the dense route enumerates the tuples; it is the reference for the other
  route.  Every dense value and gradient comes from
  :meth:`Kernel.evaluate_grid` or :meth:`Kernel.gradient_grid` on slot
  arrays, cut by one block rule, :func:`_spans`, into blocks of at most
  ``_BLOCK_TUPLES`` tuples (doubles, for a gradient of :func:`_bind` or of a
  potential kernel) whatever the grid's shape.  Sums run as over the whole grid, so no block
  boundary moves a bit;
* the power-moment route serves pair-polynomial kernels.  A monomial
  prod <x_a, x_b>^e factors through tensor powers: an integrated slot
  becomes the moment tensor M_E = sum_i w_i x_i^{(x)E} (anchor factors
  folded into the weights), summed over spans of atoms whose powers hold
  at most ``_SPAN_ENTRIES`` entries, whatever the measure's size; a free
  slot becomes the tensor power of its query point, and one einsum with a
  letter per unit exponent contracts them (along a contraction path when a
  plain einsum of 10^6 FLOPs or more would cost ten times the path, :func:`_path`).
  The gradient of a discrete energy contracts all slots but one and
  differentiates the result against x^{(x)E}, in O(N d^E) work; the
  measures of a potential kernel are fixed slots in these contractions.
  All of this is planned once per polynomial and call layout, and cached
  as a program (:class:`_Program`, each distinct environment contraction
  once).  The layout is what the call's arguments decide: which slots are
  integrated or queried, which integrated slots hold equal measures, and
  which hold a stack.  A call only computes its tensors and runs the
  program.  A particle descent binds its engine once (:func:`_bind`):
  route, layout and program are resolved before its first step.  A discrete
  energy alone is the mutual energy of its empirical measure.

A stack (B, N, d) of configurations in place of one (N, d) gets B energies
or gradients, each with the bits it gets alone: from one set of contractions
per span, or on the dense route from tuple grids of several configurations
per kernel call.  One rule, :func:`_route`, picks the route by kernel type: a
pair polynomial takes the moment route whenever its program exists and one
configuration or query fits ``_WORK_LIMIT`` entries with its measures'
moment tensors and one span of their powers (a gradient's configuration
counts all its powers); every other call takes the dense route, which
raises past ``_WORK_LIMIT`` tuples per configuration or query.  Past the
limit, stacks and moment-route query arrays run in spans (:func:`_spanned`).
No other bound caps an exact sum, whatever its arity or its measures' size.
"""
from __future__ import annotations

import functools
import math
import os
import string
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .geometry import (DiscreteMeasure, PointConfiguration, _check_count, _check_measures,
                       _check_points, _check_type, _random_directions, _streams)
from .kernels import Kernel, _grid, _point_slots, _tuple_shape

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

_WORK_LIMIT = 20_000_000               # dense tuples, or moment-route entries held at once
_BLOCK_TUPLES = 2_000_000              # tuples per dense grid block (doubles, for a gradient)
_SPAN_ENTRIES = 2**17                  # power entries per span of a measure's atoms (1 MiB)
# A Monte-Carlo chunk holds _SAMPLE_POINTS // n tuples, at most this many points (0.6 MiB
# at d = 3; 16,666 at arity 3 if n - 1 are drawn per tuple): small enough to stay in cache,
# one chunk's arrays per worker thread; fixed, so the draws do not depend on the machine.
_SAMPLE_POINTS = 25_000
# A planned einsum of at least _PATH_FLOPS runs along a contraction path when the
# path costs at most 1/_PATH_GAIN of it (see _path).
_PATH_FLOPS = 10**6
_PATH_GAIN = 10
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


# --- dense tuple grids -----------------------------------------------------------


def _spans(count: int, per: int, limit: int):
    """The block rule: consecutive (start, stop) ranges over ``count`` items of
    ``per`` tuples (or points, or entries) each, max(1, limit // per) to a range."""
    step = max(1, limit // max(per, 1))
    for start in range(0, count, step):
        yield start, min(start + step, count)


def _spanned(run, per: int, limit: int):
    """``run`` on the spans (:func:`_spans`) of its argument's first axis (a
    stack's configurations or query tuples), joined: one call if all fit.  No
    configuration's bits move; that no query's do is tested, not guaranteed."""
    def spanned(items):
        if len(items) * per <= limit:
            return run(items)
        return np.concatenate([run(items[a:b]) for a, b in _spans(len(items), per, limit)])
    return spanned


def _grid_blocks(arrays, width: int = 1):
    """The point arrays in blocks of at most ``_BLOCK_TUPLES // width`` grid
    tuples, ``width`` being the doubles a tuple's result holds: the block rule
    along the outermost axis of the tuple index whose trailing sub-grid fits,
    so each block is a contiguous range of the C-ordered index.  Yields (index,
    slot arrays), index being the block's slices of the leading tuple axes (the
    others are whole)."""
    shape, limit = _tuple_shape(arrays), max(1, _BLOCK_TUPLES // width)
    if math.prod(shape) <= limit:
        yield (), arrays
        return
    lead = len(shape) - len(arrays)
    arrays = [np.broadcast_to(a, shape[:lead] + a.shape[-2:]) for a in arrays]
    axis = next(a for a in range(len(shape)) if math.prod(shape[a + 1:]) <= limit)
    for outer in np.ndindex(*shape[:axis]):
        for start, stop in _spans(shape[axis], math.prod(shape[axis + 1:]), limit):
            index = (*(slice(i, i + 1) for i in outer), slice(start, stop))
            yield index, [a[index[:lead] + index[lead + s:lead + s + 1]]
                          for s, a in enumerate(arrays)]


def _grid_values(values, arrays, width: int = 1) -> np.ndarray:
    """``values`` (a kernel's ``evaluate_grid``, or any map from slot arrays to one
    value or array of ``width`` doubles per grid tuple) over the grid of the point
    arrays, block by block: shaped like the tuple index, plus its trailing axes."""
    shape, out = _tuple_shape(arrays), None
    for index, block in _grid_blocks(arrays, width):
        vals = values(block)
        if not index:       # the whole grid in one block
            return vals
        if out is None:
            out = np.empty(shape + vals.shape[len(shape):])
        out[index] = vals
    return out


def _dense_mutual(kernel: Kernel, slots):
    """Weighted sum of the kernel over every atom tuple, one slot's atoms and
    weights per kernel slot.  Atoms stacked as (B, N, d) give B sums, each
    with the bits of its configuration alone: one einsum per configuration."""
    vals = _grid_values(kernel.evaluate_grid, [s.atoms for s in slots])
    letters, weights = _LETTERS[: len(slots)], [s.weights for s in slots]
    spec = letters + "," + ",".join(letters) + "->"
    lead, sizes = vals.shape[:vals.ndim - len(slots)], vals.shape[vals.ndim - len(slots):]
    sums = np.array([np.einsum(spec, v, *weights) for v in vals.reshape((-1,) + sizes)])
    return sums.reshape(lead) if lead else float(sums[0])


def _dense_potential(values, measures, queries: np.ndarray, width: int = 1) -> np.ndarray:
    """Potential by a dense sum over the atom tuples (queries fill the last
    slots), one einsum per span of whole queries.  ``values`` maps slot arrays
    to one value per grid tuple (a kernel's ``evaluate_grid``) or to ``width``
    doubles per tuple, such as the gradient in the free slots, whose axes are kept."""
    j, r = len(measures), queries.shape[1]
    sizes = tuple(m.atoms.shape[0] for m in measures)
    spec = _QUERY + _LETTERS[:j] + "...," + ",".join(_LETTERS[:j]) + "->" + _QUERY + "..."

    def run(q):
        vals = _grid_values(values, [m.atoms for m in measures] + [q[:, t:t + 1] for t in range(r)],
                            width)
        vals = vals.reshape((len(q),) + sizes + vals.shape[1 + j + r:])
        return np.einsum(spec, vals, *[m.weights for m in measures])
    return _spanned(run, math.prod(sizes) * width, _BLOCK_TUPLES)(queries)


# --- power-moment route --------------------------------------------------------

# The contractions of one pair polynomial for one call layout (see _layout).
# ``tensors`` lists (queried, position among the call's slots or query columns,
# keys) per distinct measure and query slot, in operand order; ``monomials``
# are (coefficient, einsum spec, axes kept before a row sum or None, operand
# positions), ``letters`` the unit exponents each monomial contracts over,
# ``contractions`` the distinct (spec, kept axes, operand positions) of the
# environments, ``environments`` (slot, coefficient, index into contractions,
# key), and ``turns[key]`` the axis orders that bring each position of an
# environment to the front.
_Program = namedtuple("_Program", "tensors monomials letters contractions environments turns")


def _layout(slots, queries: int = 0) -> str:
    """The layout of a call, one character per slot of the polynomial: for each
    of ``slots`` the letter of the first slot holding the same atoms and weights
    (upper case for a stack (B, N, d)), then '?' for each of ``queries`` query
    slots."""
    ids = [(id(s.atoms), id(s.weights)) for s in slots]
    marks = (string.ascii_lowercase[ids.index(i)] for i in ids)
    return "".join(m.upper() if s.atoms.ndim == 3 else m
                   for m, s in zip(marks, slots)) + "?" * queries


def _program(poly, layout: str) -> _Program | None:
    """The contraction program of a pair polynomial for a call layout; None if
    einsum lacks letters.  Cached by the polynomial's slot count and terms,
    all a program reads of it: equal polynomials built apart share one entry."""
    return _plan(poly.nslots, tuple(poly.terms.items()), layout)


@functools.lru_cache(maxsize=64)
def _plan(n: int, terms: tuple, layout: str) -> _Program | None:
    """The program of :func:`_program`, from ``n`` slots and the (monomial,
    coefficient) terms.

    A slot pair with exponent e shares e letters.  Each slot needs one tensor
    per (degree, anchor powers) key of its monomials: a moment tensor of its
    measure (equal measures share them) or a tensor power per query.  A
    monomial contracts them onto the stack index and the query index; an
    environment contracts all slots but s onto slot s's letters, for
    gradients.  On a stack the letters an einsum sums are kept and summed
    after it, one row per entry: a row sum's order, unlike einsum's, does
    not depend on the stack's length.
    """
    monos, slot_keys = [], [[] for _ in range(n)]
    for mono, coeff in terms:
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

    free = layout.count("?")
    owner = [s if m == "?" else string.ascii_lowercase.index(m.lower())
             for s, m in enumerate(layout)]
    index, tensors = {}, []
    for s in range(n):
        keys = tuple(dict.fromkeys(k for t in range(s, n) if owner[t] == s for k in slot_keys[t]))
        if owner[s] == s and keys:
            index.update({(s, key): len(index) + i for i, key in enumerate(keys)})
            tensors.append((layout[s] == "?", s - (n - free) if layout[s] == "?" else s, keys))

    def contraction(slots, out, letters, keys, summed):
        subs = ",".join(_BATCH * layout[t].isupper() + letters[t] + _QUERY * (layout[t] == "?")
                        for t in slots)
        summed = "".join(c for c in summed if c not in out)
        keep = len(out) if summed and out.startswith(_BATCH) else None
        return (f"{subs}->{out}{summed if keep else ''}", keep,
                tuple(index[owner[t], keys[t]] for t in slots))

    lead = _BATCH * (layout.lower() != layout)
    monomials = tuple((coeff, *contraction(range(n), lead + _QUERY * bool(free), letters, keys,
                                           summed)) for coeff, letters, keys, summed in monos)
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
    return _Program(tuple(tensors), monomials, tuple(len(summed) for *_, summed in monos),
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


def _route(kernel: Kernel, slots, queries: np.ndarray | None = None, keep: bool = False):
    """The one routing rule, by kernel type, for every exact sum, potential and
    gradient; ``slots`` carry the integrated atoms, and each query tuple (Q, r,
    d) fills the other slots.  A pair polynomial takes the moment route whenever
    its program exists and one item (a configuration of a stack (B, N, d), or a
    query) fits ``_WORK_LIMIT`` with the measures' tensors: (program, work per
    item, work limit of a span), whatever the item count.  The work counts what
    a call holds at once: a contraction per monomial, a measure's moment tensors
    and at most one span of its powers (:func:`_operands`), all the powers of a
    query, a stack or, with ``keep`` (for a gradient), the last slot, plus a
    d-vector per row and anchor factor.  All else takes the dense route (None),
    which raises past ``_WORK_LIMIT`` atom tuples per item.  The public calls
    have checked the arguments: one dimension, the kernel's."""
    d = slots[0].atoms.shape[-1]
    layout = _layout(slots, queries=0 if queries is None else queries.shape[1])
    prog = None if kernel.pair_poly is None else _program(kernel.pair_poly, layout)
    if prog is not None:
        work = [0, sum(d**k for k in prog.letters)]     # shared by all items, and per item
        for queried, pos, keys in prog.tensors:
            x = None if queried else slots[pos].atoms
            if queried or x.ndim == 3 or keep and x is slots[-1].atoms:     # all powers at once
                rows = 1 if queried else x.shape[-2]
                work[queried or x.ndim == 3] += rows * sum(d**e + d * len(a) for e, a in keys)
            else:   # the moment tensors, and at most one span of powers
                work[0] += sum(d**e for e, _ in keys) + max(_power_entries(d, keys), _SPAN_ENTRIES)
        if sum(work) <= _WORK_LIMIT:
            return prog, work[1], _WORK_LIMIT - work[0]
    tuples = math.prod(s.atoms.shape[-2] for s in slots)
    if tuples > _WORK_LIMIT:
        raise ValueError(f"{tuples} atom tuples exceed the dense limit and no moment route "
                         f"fits kernel '{kernel.name}'")
    return None


def _powers(x: np.ndarray, keys) -> list:
    """Tensor powers x^{(x)e} of the rows of x (..., N, d) up to the top degree
    of the keys (e, anchor powers), as (..., d**e, N) arrays from power 0 (ones)."""
    xt = np.ascontiguousarray(np.swapaxes(x, -1, -2))
    p = [np.ones_like(xt[..., :1, :]), xt]
    for _ in range(max(e for e, _ in keys) - 1):
        p.append((p[-1][..., :, None, :] * xt[..., None, :, :]).reshape(
            xt.shape[:-2] + (p[-1].shape[-2] * xt.shape[-2], xt.shape[-1])))
    return p


def _power_entries(d: int, keys) -> int:
    """The entries per atom of the powers :func:`_powers` gives for the keys."""
    return sum(d**k for k in range(max(e for e, _ in keys) + 1))


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


def _operands(prog: _Program, poly, slots, queries: np.ndarray | None = None, keep: bool = False):
    """The program's operands, and with ``keep`` the powers of the last slot's
    atoms.  A query slot gives a(x) x^{(x)e} by key at each of its points x,
    shape (d, ..., d, Q); a measure its moment tensors sum_i w_i a(x_i)
    x_i^{(x)e}, shape (..., d, ..., d), summed in atom order over spans of
    its atoms whose powers hold at most ``_SPAN_ENTRIES`` entries per
    configuration; with ``keep``, the last slot's atoms form one span."""
    ops, last = [], None
    for queried, pos, keys in prog.tensors:
        x = queries[:, pos] if queried else slots[pos].atoms
        if queried:
            p = _powers(x, keys)
            ops += [(p[e] * _anchor_factor(x, poly.anchors, anchored) if anchored else p[e])
                    .reshape((x.shape[1],) * e + (x.shape[0],)) for e, anchored in keys]
            continue
        w, n, whole = slots[pos].weights, x.shape[-2], keep and x is slots[-1].atoms
        per = _power_entries(x.shape[-1], keys)
        for a, b in _spans(n, per, n * per if whole else _SPAN_ENTRIES):
            xs, ws = x[..., a:b, :], w[..., a:b]
            p = _powers(xs, keys)
            parts = [(p[e] @ (ws * _anchor_factor(xs, poly.anchors, anchored) if anchored
                              else ws)[..., None])[..., 0] for e, anchored in keys]
            moments = parts if a == 0 else [m + q for m, q in zip(moments, parts)]
            last, p = (p if whole else last), None      # one span's powers at a time
        ops += [m.reshape(x.shape[:-2] + (x.shape[-1],) * e) for m, (e, _) in zip(moments, keys)]
    return ops, last


@functools.lru_cache(maxsize=1024)
def _path(spec: str, shapes: tuple):
    """How one planned einsum over operands of these shapes runs: False for the
    plain einsum, or the greedy path of ``np.einsum_path`` (intermediates of at
    most ``_WORK_LIMIT`` entries) when the plain einsum costs at least
    ``_PATH_FLOPS`` and the path at most 1/_PATH_GAIN of that.  Planned once per
    spec and shapes; the plain cost is bounded from the shapes first, so a small
    einsum is never planned."""
    sizes = {}
    for sub, shape in zip(spec.split("->")[0].split(","), shapes):
        for c, k in zip(sub, shape):
            sizes[c] = max(sizes.get(c, 1), k)
    if math.prod(sizes.values()) * len(shapes) < _PATH_FLOPS:
        return False
    path, info = np.einsum_path(spec, *(np.broadcast_to(0.0, s) for s in shapes),
                                optimize=("greedy", _WORK_LIMIT))
    plain, best = (float(line.split(":")[1]) for line in info.splitlines() if "FLOP count" in line)
    return path if plain >= _PATH_FLOPS and best * _PATH_GAIN <= plain else False


def _term(coeff: float, spec: str, keep, operands) -> np.ndarray:
    """coeff times one planned einsum (along the contraction path of :func:`_path`,
    if it has one), row-summed over its last axes after the first ``keep``; a
    product by 1.0, which changes no bit, is skipped."""
    full = np.einsum(spec, *operands, optimize=_path(spec, tuple(op.shape for op in operands)))
    if keep is not None:
        full = np.add.reduce(full.reshape(full.shape[:keep] + (-1,)), -1)
    return full if coeff == 1.0 else coeff * full


def _moment_sum(poly, slots, queries: np.ndarray | None = None, prog: _Program | None = None):
    """A pair polynomial summed over the weighted atoms of its leading len(slots) slots,
    the others at each query tuple (Q, r, d): a float without queries, else Q values; a
    stack (B, N, d) of configurations as a slot's atoms adds a leading axis.  ``prog``
    is the program of the call's layout, if the caller has it."""
    if prog is None:
        prog = _program(poly, _layout(slots, queries=0 if queries is None else queries.shape[1]))
    ops = _operands(prog, poly, slots, queries)[0]
    total = np.zeros(slots[-1].atoms.shape[:-2] + (() if queries is None else queries.shape[:1]))
    for coeff, spec, keep, operands in prog.monomials:
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
    ops, p = _operands(prog, poly, slots, keep=True)
    done, envs = [None] * len(prog.contractions), {}
    for s, coeff, c, key in prog.environments:
        if s >= j:
            if done[c] is None:
                spec, keep, operands = prog.contractions[c]
                done[c] = _term(1.0, spec, keep, [ops[i] for i in operands])
            env = done[c] if coeff == 1.0 else coeff * done[c]
            envs[key] = envs[key] + env if key in envs else env
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


def _unfolded(kernel: Kernel, slots):
    """A potential kernel's base, its measures leading the slots (the base is
    never a potential kernel itself); any other kernel and slots as they are."""
    pk = isinstance(kernel, PotentialKernel)
    return (kernel.base, kernel.measures + list(slots)) if pk else (kernel, list(slots))


def _sum(kernel: Kernel, slots, queries: np.ndarray | None = None):
    """Exact weighted sum of the kernel over the atom tuples of the leading slots, the
    others at each query tuple (Q, r, d): a float without queries, else Q values.  A
    potential kernel unfolds into its base's."""
    kernel, slots = _unfolded(kernel, slots)
    route = _route(kernel, slots, queries)
    if route is None:
        if queries is None:
            return _dense_mutual(kernel, slots)
        return _dense_potential(kernel.evaluate_grid, slots, queries)
    prog, per, limit = route
    if queries is None:
        return _moment_sum(kernel.pair_poly, slots, None, prog)
    return _spanned(lambda q: _moment_sum(kernel.pair_poly, slots, q, prog), per, limit)(queries)


def _bind(kernel: Kernel, pts: np.ndarray):
    """The discrete energy and its Euclidean gradient at every row, as functions
    of point arrays shaped like ``pts``: (N, d), or a stack (B, N, d) of any
    length B with one energy and one gradient per configuration, run in spans
    of configurations (:func:`_spanned`): on the moment route of the work its
    route gives, on the dense route of ``_WORK_LIMIT`` atom tuples.  The route
    (:func:`_route`, counting every power of the points, which the gradient
    holds) and program of a descent are resolved once, here; a potential
    kernel's measures are fixed slots of its base."""
    n, arity = pts.shape[-2], kernel.arity
    weights = np.full(n, 1.0 / n)
    base, fixed = _unfolded(kernel, [])
    slots = fixed + [_Atoms(pts, weights)] * arity
    route = _route(base, slots, None, True)
    if route is not None:
        poly, (prog, per, limit) = base.pair_poly, route

        def energy(x):
            return _moment_sum(poly, fixed + [_Atoms(x, weights)] * arity, None, prog)

        def gradient(x):
            return _moment_gradient(poly, _Atoms(x, weights), fixed, prog)
    else:
        per, limit = math.prod(s.atoms.shape[-2] for s in slots), _WORK_LIMIT

        def energy(x):
            return _dense_mutual(base, fixed + [_Atoms(x, weights)] * arity)

        def gradient(x):
            # per slot, a point's share sums the slot's gradient over the tuples holding
            # it, in tuple order and on across blocks, so no block boundary moves a bit
            lead, shares = x.ndim - 2, [np.zeros_like(x) for _ in range(arity)]
            for index, block in _grid_blocks([x] * arity, arity * x.shape[-1]):
                g = kernel.gradient_grid(block)
                for s, share in enumerate(shares):
                    part = np.moveaxis(g[..., s, :], lead + s, -2)
                    part = part.reshape(part.shape[:lead] + (-1,) + part.shape[-2:])
                    rows = index[:lead] + index[lead + s:lead + s + 1]
                    share[rows] = np.add.reduce(
                        np.concatenate([share[rows][..., None, :, :], part], -3), -3)
            return sum(shares) / n**arity
    if pts.ndim == 2:
        return energy, gradient
    return _spanned(energy, per, limit), _spanned(gradient, per, limit)


# --- public operations -----------------------------------------------------------


def mutual_energy(kernel: Kernel, measures) -> EnergyEstimate:
    """Exact mutual energy of a tuple of atomic measures.

    Computes the full weighted sum of kernel values over all atom tuples,
    one measure per kernel slot.  Exact, so stderr is 0.
    """
    _check_type("kernel", kernel, Kernel)
    measures = _check_measures(measures)
    if len(measures) != kernel.arity:
        raise ValueError(f"kernel '{kernel.name}' has arity {kernel.arity}, "
                         f"got {len(measures)} measures")
    kernel._check_shape((kernel.arity, measures[0].dimension))
    return EnergyEstimate(_sum(kernel, measures), 0.0, math.prod(m.n_atoms for m in measures), True)


def discrete_energy(kernel: Kernel, config: PointConfiguration) -> EnergyEstimate:
    """Discrete energy of an N-point multiset: the average of the kernel
    over all N^n ordered tuples, repeats included, which is the mutual
    energy of its empirical measure in every slot."""
    _check_type("kernel", kernel, Kernel)
    _check_type("config", config, PointConfiguration)
    kernel._check_shape((kernel.arity, config.dimension))
    empirical = _Atoms(config.points, np.full(config.n_points, 1.0 / config.n_points))
    return EnergyEstimate(_sum(kernel, [empirical] * kernel.arity), 0.0,
                          config.n_points ** kernel.arity, True)


def potential(kernel: Kernel, measures, at) -> np.ndarray:
    """The j-fold potential: integrate the first j slots against the given
    measures and evaluate at each query tuple.

    For j = arity-1 each query is a single point and one value per point is
    returned; for smaller j pass query tuples of shape (Q, arity-j, d).
    Query points must be finite and of unit norm to within GEOMETRIC_TOL.
    """
    _check_type("kernel", kernel, Kernel)
    measures, n = _check_measures(measures), kernel.arity
    r = n - len(measures)
    if not 1 <= r <= n - 1:
        raise ValueError(f"number of integrated slots must be in [1, {n - 1}], got {n - r}")
    d = measures[0].dimension
    kernel._check_shape((n, d))
    queries = _check_points(at, "query points (at)", d)
    if r == 1 and queries.ndim < 3:
        queries = queries.reshape((-1, 1, d))
    if queries.ndim != 3 or queries.shape[1] != r:
        raise ValueError(f"this potential leaves {r} free slots: query points (at) must have "
                         f"shape (Q, {r}, d), got {queries.shape}")
    return np.asarray(_sum(kernel, measures, queries))


def _cpus() -> int:
    """The number of CPUs this process may use."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def mc_energy_uniform(kernel: Kernel, d: int, tuples: int, seed: int) -> EnergyEstimate:
    """Monte-Carlo estimate of the kernel energy of the uniform measure.

    Averages the kernel over independent n-tuples of i.i.d. uniform points,
    which makes the estimator unbiased with an honest standard error
    (sample standard deviation / sqrt(tuples)).  Each chunk's squared
    deviations are taken about its own mean and merged by Chan, Golub &
    LeVeque (1979), so a large constant offset cannot cancel the variance.

    The tuples are cut into chunks of ``_SAMPLE_POINTS // n`` tuples, and chunk
    i draws from its own generator, spawned as child i of ``SeedSequence(seed)``.
    The chunks run on threads, at most one per CPU the process may use (a
    one-chunk call runs inline), and are merged in chunk order, so the result
    does not depend on the CPU count, bit for bit.  Kernels are therefore
    evaluated from worker threads, each tuple as the grid of its one-point slot
    arrays: ``evaluate_grid`` must be re-entrant.

    An unanchored pair polynomial sees only inner products, so K(x_1..x_n) has
    the law of K(x_1..x_{n-1}, e_1) (rotate x_n to e_1): it draws n-1 points per
    tuple, with the bits of ``evaluate_grid`` on them plus e_1, and its stderr
    stays honest.  Other kernels (anchored, riesz, exp(uvt), potentials) draw n.
    """
    _check_type("kernel", kernel, Kernel)
    _check_count("dimension", d, 2)
    _check_count("tuples", tuples, 100)
    n, poly = kernel.arity, kernel.pair_poly
    kernel._check_shape((n, d))
    evaluate, drawn = kernel.evaluate_grid, n
    if poly is not None and not poly.n_anchors:     # pin the last slot at e_1
        evaluate, drawn = poly.viewed([*range(n - 1), np.eye(d)[0]], n - 1).evaluate_grid, n - 1
    spans = list(_spans(tuples, n, _SAMPLE_POINTS))
    streams = _streams(seed, len(spans))

    def chunk(span, stream):
        """The chunk's sum, and its squared deviations about its own mean."""
        count = span[1] - span[0]
        pts = _random_directions(stream, (count, drawn, d))
        vals = evaluate(_point_slots(pts)).reshape(count)
        total = float(vals.sum())
        return total, float(np.sum((vals - total / count) ** 2))

    workers = min(len(spans), _cpus())
    if workers == 1:
        parts = list(map(chunk, spans, streams))
    else:
        from concurrent.futures import ThreadPoolExecutor   # not on import: ~5 ms
        pool = ThreadPoolExecutor(workers)
        try:
            parts = list(pool.map(chunk, spans, streams))
        finally:
            pool.shutdown(cancel_futures=True)
    acc, m2 = 0.0, 0.0      # the sum, and squared deviations from the running mean
    for (done, stop), (total, dev) in zip(spans, parts):
        count = stop - done
        m2 += dev
        if done:
            delta = total / count - acc / done
            m2 += delta * delta * done * count / stop
        acc += total
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
    _check_type("kernel", kernel, Kernel)
    mu, nu = _check_measures((mu, nu), ("mu", "nu"))
    if not (mu.is_probability and nu.is_probability):
        raise ValueError("mixture polynomials are defined for probability measures")
    n = kernel.arity
    kernel._check_shape((n, mu.dimension))
    return MixturePolynomial(np.array([_sum(kernel, [mu] * (n - k) + [nu] * k)
                                       for k in range(n + 1)]))


class PotentialKernel(Kernel):
    """Lower-arity kernel obtained by integrating leading slots of a base kernel
    against fixed measures; a potential-kernel base is flattened into its own.
    Its dimension is the measures'."""

    _fixed = "the measures"

    def __init__(self, base: Kernel, measures):
        _check_type("base", base, Kernel)
        measures = _check_measures(measures)
        j = len(measures)
        if not 1 <= j <= base.arity - 2:
            raise ValueError("potential kernels need 1 <= j <= arity - 2 integrated slots")
        base._check_shape((base.arity, measures[0].dimension))
        super().__init__(f"potential({base.name},j={j})", base.arity - j)
        if isinstance(base, PotentialKernel):   # a potential of a potential: one flat level
            base, measures = base.base, base.measures + measures
        self._base, self._measures = base, measures
        self._dimension = measures[0].dimension

    @property
    def base(self) -> Kernel:
        return self._base

    @property
    def measures(self) -> list:
        return list(self._measures)

    def _evaluate_grid(self, arrays):
        """The potential at each tuple of the grid, its queries; unlike
        :func:`potential`, any finite point is accepted, as by every other
        kernel: a kernel is a function on the ambient space, where its
        Euclidean gradient is taken."""
        grid = _grid(arrays)
        values = _sum(self._base, self._measures, grid.reshape((-1,) + grid.shape[-2:]))
        return np.asarray(values).reshape(grid.shape[:-2])

    def _gradient_grid(self, arrays):
        """Gradient with respect to the free slots, by a dense sum of the base
        kernel's gradient over the integrated atoms, blocked by its doubles."""
        grid = _grid(arrays)
        queries = grid.reshape((-1,) + grid.shape[-2:])
        _route(self._base, self._measures, queries)    # evaluate_grid's dense limit
        j = len(self._measures)
        grads = _dense_potential(lambda a: self._base.gradient_grid(a)[..., j:, :],
                                 self._measures, queries, self.arity * grid.shape[-1])
        return grads.reshape(grid.shape)
