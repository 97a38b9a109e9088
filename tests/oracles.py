"""Independent reference implementations used to pin expected values.

Most are deliberately naive: plain Python loops over ordered tuples and
raw-moment Monte Carlo, which never call the library paths they check.
Three check one layer against the layer below it.  :func:`fd_point_gradient`
takes central differences of the library's energy, itself checked against
the loops, to check the analytic gradients.  :func:`serial_descent` runs
the library's energy, tangent projection and retraction one line-search
trial per energy call, to check how the descent groups its trials.
:func:`mc_energy_loop` runs the Monte-Carlo sampler's chunks and merge in
order, on one thread, on full tuples through ``evaluate_batch``, to check
which points it draws.
"""
import itertools
import math

import numpy as np


def brute_discrete(kernel_fn, points):
    """Average of kernel_fn over all ordered n-tuples, n from arity probe."""
    n = kernel_fn.__code__.co_argcount
    total = 0.0
    for tup in itertools.product(points, repeat=n):
        total += kernel_fn(*tup)
    return total / len(points) ** n


def brute_mutual(kernel_fn, measures):
    """Weighted sum over all atom tuples; measures are [(w, atom), ...] lists."""
    total = 0.0
    for combo in itertools.product(*measures):
        w = math.prod(c[0] for c in combo)
        total += w * kernel_fn(*(c[1] for c in combo))
    return total


def uvt_fn(x, y, z):
    return np.dot(x, y) * np.dot(y, z) * np.dot(z, x)


def vol2_fn(x, y, z):
    u, v, t = np.dot(x, y), np.dot(y, z), np.dot(z, x)
    return 1 - u * u - v * v - t * t + 2 * u * v * t


def area2_fn(x, y, z):
    u, v, t = np.dot(x, y), np.dot(y, z), np.dot(z, x)
    return 0.75 - 0.5 * (u + v + t) + 0.5 * (u * v + v * t + t * u) \
        - 0.25 * (u * u + v * v + t * t)


def s011_fn(x, y, z):
    u, v, t = np.dot(x, y), np.dot(y, z), np.dot(z, x)
    return u * v + v * t + t * u


def s100_fn(x, y, z):
    u, v, t = np.dot(x, y), np.dot(y, z), np.dot(z, x)
    return (t - u * v) + (u - v * t) + (v - t * u)


def moment_mc(d, samples, seed):
    """Raw-moment estimates of E[u^2] and E[uvt] for i.i.d. uniform triples."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((3, samples, d))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    x, y, z = pts
    u = np.einsum("ij,ij->i", x, y)
    v = np.einsum("ij,ij->i", y, z)
    t = np.einsum("ij,ij->i", z, x)
    return float(np.mean(u * u)), float(np.mean(u * v * t))


def mc_energy_loop(kernel, d, tuples, seed, pinned):
    """:func:`mc_energy_uniform`'s (value, stderr) by its chunks and merge, one
    after another, from ``kernel.evaluate_batch`` on each chunk's tuples: all n
    points drawn, or n-1 drawn and e_1 appended as the last point (``pinned``),
    chunk i from child i of ``SeedSequence(seed)``."""
    from multipot.energy import _SAMPLE_POINTS, _spans
    from multipot.geometry import _random_directions

    n = kernel.arity
    spans = list(_spans(tuples, n, _SAMPLE_POINTS))
    streams = np.random.SeedSequence(seed).spawn(len(spans))
    e1 = np.zeros(d)
    e1[0] = 1.0
    acc = m2 = 0.0
    for (done, stop), stream in zip(spans, streams):
        count = stop - done
        pts = _random_directions(np.random.default_rng(stream), (count, n - pinned, d))
        if pinned:
            pts = np.concatenate([pts, np.broadcast_to(e1, (count, 1, d))], axis=1)
        vals = kernel.evaluate_batch(pts)
        total = float(vals.sum())
        m2 += float(np.sum((vals - total / count) ** 2))
        if done:
            delta = total / count - acc / done
            m2 += delta * delta * done * count / stop
        acc += total
    return acc / tuples, math.sqrt(m2 / (tuples - 1) / tuples)


def measure_as_pairs(measure):
    """DiscreteMeasure -> [(w, atom), ...] for the brute-force oracles."""
    return [(float(w), np.array(a)) for w, a in zip(measure.weights, measure.atoms)]


def pair_poly_fn(terms, anchors):
    """Plain evaluator of a pair polynomial {(((i, j), e), ...): coeff};
    indices past the kernel's inputs address the rows of ``anchors``."""
    def fn(*points):
        vecs = list(points) + list(anchors)
        total = 0.0
        for mono, coeff in terms.items():
            term = coeff
            for (a, b), e in mono:
                term *= float(np.dot(vecs[a], vecs[b])) ** e
            total += term
        return total
    return fn


def inequality_suite_loop(kernel, d, trials, seed, violation_tol=1e-10):
    """The inequality suite one trial at a time, as a dict of report fields.

    Draws each trial's atom counts, atoms, weights and probes from four
    generators spawned from ``SeedSequence(seed)``, one call per quantity
    per trial (the streams are part of the suite's contract), and computes
    every energy with ``mutual_energy`` on validated measures and every
    kernel value with ``kernel.evaluate``, so it shares no drawing or
    batching code with the suite.
    """
    from multipot import DiscreteMeasure, basis_vector, mutual_energy

    n = kernel.arity
    counts, atom_rng, weight_rng, probe_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4))
    am_worst = lower_worst = diag_worst = -np.inf
    gm_worst = None
    am_bad = gm_bad = lower_bad = diag_bad = gm_trials = 0
    for _ in range(trials):
        sizes = 2 + np.floor(4 * counts.random(n)).astype(int)
        atoms = atom_rng.standard_normal((n, 5, d))
        weights = weight_rng.random((n, 5)) + 1e-3
        measures = []
        for k, x, w in zip(sizes, atoms, weights):
            x, w = x[:k], w[:k]
            measures.append(DiscreteMeasure(x / np.linalg.norm(x, axis=1, keepdims=True),
                                            w / w.sum()))
        singles = [mutual_energy(kernel, [m] * n).value for m in measures]
        mixed = mutual_energy(kernel, measures).value
        am_res = mixed - float(np.mean(singles))
        am_worst = max(am_worst, am_res)
        am_bad += am_res > violation_tol
        lower_res = -float(np.mean(singles)) - mixed
        lower_worst = max(lower_worst, lower_res)
        lower_bad += lower_res > violation_tol
        if all(s >= 0.0 for s in singles):
            gm_trials += 1
            gm_res = mixed - float(np.prod([s ** (1.0 / n) for s in singles]))
            gm_worst = gm_res if gm_worst is None else max(gm_worst, gm_res)
            gm_bad += gm_res > violation_tol

        zs = probe_rng.standard_normal((n, d))
        zs /= np.linalg.norm(zs, axis=1, keepdims=True)
        probes = np.vstack([zs, basis_vector(0, d)[None, :]])
        diag_vals = [kernel.evaluate(np.repeat(z[None, :], n, axis=0)) for z in probes]
        diag_res = kernel.evaluate(zs) - max(diag_vals)
        diag_worst = max(diag_worst, diag_res)
        diag_bad += diag_res > violation_tol
    return {
        "trials": trials,
        "am_worst": float(am_worst),
        "gm_worst": None if gm_worst is None else float(gm_worst),
        "lower_worst": float(lower_worst),
        "diagonal_worst": float(diag_worst),
        "am_violations": int(am_bad),
        "gm_violations": int(gm_bad),
        "lower_violations": int(lower_bad),
        "diagonal_violations": int(diag_bad),
        "gm_trials": gm_trials,
    }


def grid_values_by_coordinates(kernel, arrays):
    """The kernel over the product grid of the point arrays, from the
    coordinates of the grid ``_grid`` builds, through no evaluation method
    of the library's kernels: see :func:`values_by_coordinates`."""
    from multipot.kernels import _grid

    return values_by_coordinates(kernel, _grid(arrays))


def values_by_coordinates(kernel, pts):
    """The kernel at each tuple of coordinates (..., n, d): a pair polynomial
    from the inner products of the tuple's vectors and anchors, summed by
    :func:`sum_monomials_out_of_place`; riesz as the norm of the coordinate
    differences; exp(uvt) as the exponential of uvt; and a combination term
    by term, each on its view of the coordinates, in the library's order
    (the constant, if any, plus the first term, then left to right)."""
    from multipot import kernels
    from multipot.config import GEOMETRIC_TOL

    if isinstance(kernel, kernels._Combination):
        vals = [c * values_by_coordinates(base, _coordinate_view(layout, pts))
                for c, base, layout in kernel._terms]
        out = vals[0] if kernel._const is None else kernel._const + vals[0]
        for v in vals[1:]:
            out = kernel._op(out, v)
        return out
    if isinstance(kernel, kernels.RieszKernel):
        dist = np.linalg.norm(pts[..., 0, :] - pts[..., 1, :], axis=-1)
        return np.where(dist > GEOMETRIC_TOL, dist ** kernel.s, 0.0)
    if isinstance(kernel, kernels.ExpUvtKernel):
        return np.exp(_polynomial_by_coordinates(kernel._uvt, pts))
    return _polynomial_by_coordinates(kernel.pair_poly, pts)


def _coordinate_view(layout, pts):
    """The tuples (..., n, d) as a view (see ``kernels._layout``) feeds them
    to a base kernel: each base slot an input slot's coordinates or a fixed
    point."""
    if layout is None:
        return pts
    inputs, fixed = layout
    out = np.empty(pts.shape[:-2] + (len(inputs) + len(fixed), pts.shape[-1]))
    for k, s in inputs:
        out[..., k, :] = pts[..., s, :]
    for k, point in fixed:
        out[..., k, :] = point
    return out


def _pair_values_by_coordinates(poly, pts):
    """Each pair's inner product at each tuple of coordinates (..., n, d), by
    ``einsum`` over the coordinates; an index past the slots is an anchor."""
    def vector(i):
        return pts[..., i, :] if i < poly.nslots else poly.anchors[i - poly.nslots]

    out = {}
    for a, b in {p for mono in poly.terms for p, _ in mono}:
        va = vector(a)
        out[(a, b)] = np.einsum("...d,...d->...", va, np.broadcast_to(vector(b), va.shape))
    return out


def _polynomial_by_coordinates(poly, pts):
    return sum_monomials_out_of_place(poly, _pair_values_by_coordinates(poly, pts),
                                      pts.shape[:-2])


def sum_monomials_out_of_place(poly, vals, batch):
    """A pair polynomial from its pair values, which broadcast to ``batch``,
    as the plain expression ``total + coeff * v1 ** e1 * ...``: every product
    and sum in a new array, each term in monomial order, terms in order."""
    total = np.zeros(batch)
    for mono, coeff in poly.terms.items():
        term = coeff
        for pair, e in mono:
            term = term * vals[pair] ** e
        total = total + term
    return total


def _min_eig(mat, conditional):
    """Smallest (sum-zero-restricted) eigenvalue of one matrix, from
    ``eigvalsh``, and its coefficient vector, from ``eigh``."""
    from multipot.certify import _balanced_basis

    if conditional:
        basis = _balanced_basis(mat.shape[0])
        restricted = basis.T @ mat @ basis
        restricted = 0.5 * (restricted + restricted.T)
        return float(np.linalg.eigvalsh(restricted)[0]), basis @ np.linalg.eigh(restricted)[1][:, 0]
    return float(np.linalg.eigvalsh(mat)[0]), np.linalg.eigh(mat)[1][:, 0]


def _matrix_tol(mat):
    from multipot.config import EIGENVALUE_TOL

    return EIGENVALUE_TOL * max(float(np.max(np.abs(mat))), 1e-12)


def pd_test_loop(kernel, d, conditional=False, trials=20, set_size=20, seed=0, tol=None,
                 include_points=None):
    """``pd_test_2input`` one trial at a time: per trial one
    ``_random_directions`` draw of the set's random points, one
    ``_kernel_matrix`` and one :func:`_min_eig`.  Returns the outcome, the trial
    count, the least eigenvalue and the witness as (atoms, weights, energy)
    or None."""
    from multipot.certify import _kernel_matrix
    from multipot.geometry import _random_directions

    fixed = np.zeros((0, d)) if include_points is None else np.atleast_2d(include_points)
    rng = np.random.default_rng(seed)
    min_eig, witness = np.inf, None
    for _ in range(trials):
        pts = np.vstack([fixed, _random_directions(rng, (set_size - len(fixed), d))])
        mat = _kernel_matrix(kernel, pts)
        tol_eff = _matrix_tol(mat) if tol is None else tol
        lam, coeffs = _min_eig(mat, conditional)
        min_eig = min(min_eig, lam)
        if lam < -tol_eff and witness is None:
            keep = np.abs(coeffs) >= 1e-12
            if keep.sum() < 2:
                keep = np.abs(coeffs) > 0
            c = coeffs[keep]
            if conditional:
                c = c - c.sum() / c.size
            energy = float(c @ mat[np.ix_(keep, keep)] @ c)
            if energy < -tol_eff:
                witness = (pts[keep], c, energy)
    outcome = "fail" if witness is not None else "pass_statistical"
    return outcome, trials, float(min_eig), witness


def shift_battery_loop(kernel, d, trials=10, set_size=12, seed=0):
    """``shift_equivalence_battery`` one trial at a time: per trial one
    draw, one ``_kernel_matrix`` and one :func:`_min_eig` for the kernel and for its
    shift at e_1."""
    from multipot import basis_vector, cpd_shift
    from multipot.certify import _kernel_matrix
    from multipot.geometry import _random_directions

    x0 = basis_vector(0, d)
    shifted = cpd_shift(kernel, x0)
    rng = np.random.default_rng(seed)
    counts = {"agreements": 0, "borderline": 0, "disagreements": 0}
    pairs = []
    for _ in range(trials):
        pts = np.vstack([x0[None, :], _random_directions(rng, (set_size - 1, d))])
        mat_g, mat_p = _kernel_matrix(kernel, pts), _kernel_matrix(shifted, pts)
        (lam_c, _), (lam_p, _) = _min_eig(mat_g, True), _min_eig(mat_p, False)
        tol_c, tol_p = _matrix_tol(mat_g), _matrix_tol(mat_p)
        if (lam_c < -tol_c) == (lam_p < -tol_p):
            counts["agreements"] += 1
        elif abs(lam_c) <= 5 * tol_c or abs(lam_p) <= 5 * tol_p:
            counts["borderline"] += 1
        else:
            counts["disagreements"] += 1
        pairs.append((lam_c, lam_p))
    return {"trials": trials, **counts, "eigenvalue_pairs": pairs}


# --- derived kernels, from the base kernels' own single-tuple values ----------


def _at(kernel, *points):
    return kernel.evaluate(np.stack(points))


def sum_fn(a, b):
    return lambda *points: _at(a, *points) + _at(b, *points)


def product_fn(a, b):
    return lambda *points: _at(a, *points) * _at(b, *points)


def scaled_fn(c, a):
    return lambda *points: c * _at(a, *points)


def pin_fn(base, pins):
    """K(z_1, ..., z_m, x_1, ...) with the pins z in the leading slots."""
    return lambda *points: _at(base, *pins, *points)


def lift_fn(base, n, combine):
    """combine (sum or math.prod) of base over every arity(base)-subset of
    the n inputs, in lexicographic subset order."""
    subsets = list(itertools.combinations(range(n), base.arity))
    return lambda *points: combine([_at(base, *(points[i] for i in s)) for s in subsets])


def shift_fn(base, x0, variant):
    """G(x,y) + G(x0,x0) - G(x,x0) - G(x0,y); 'zero' drops G(x0,x0)."""
    diag = _at(base, x0, x0) if variant == "standard" else 0.0
    return lambda x, y: _at(base, x, y) + diag - _at(base, x, x0) - _at(base, x0, y)


def potential_mixture(kernel, mu, nu):
    """I(mu, mu), I(mu, nu), I(nu, nu) of the (n-2)-fold potential of mu,
    weight-contracted from ``PotentialKernel.evaluate_batch`` on the atom
    pairs: the free-slot potential route, not the mixture's exact sums."""
    from multipot import PotentialKernel

    two_input = PotentialKernel(kernel, [mu] * (kernel.arity - 2))

    def pair_energy(a, b):
        pairs = np.array([[[x, y] for y in b.atoms] for x in a.atoms])
        return float(a.weights @ two_input.evaluate_batch(pairs) @ b.weights)

    return pair_energy(mu, mu), pair_energy(mu, nu), pair_energy(nu, nu)


def potential_stderr_loop(kernel, mu, test_points, folds=16):
    """The fold noise estimate of ``certify._potential_stderr`` one test point
    and one fold at a time: a fold's potential at x is the mutual energy of
    the fold (weights rescaled to mu's mass) in the leading slots and the
    point mass at x in the last; the std over folds (ddof 1) / sqrt(folds) is
    summed by hand and averaged over the points."""
    from multipot import DiscreteMeasure, mutual_energy

    parts = np.array_split(np.arange(mu.n_atoms), folds)
    acc = 0.0
    for x in test_points:
        vals = []
        for idx in parts:
            w = mu.weights[idx]
            fold = DiscreteMeasure(mu.atoms[idx], w * (mu.total_mass / w.sum()))
            slots = [fold] * (kernel.arity - 1) + [DiscreteMeasure.dirac(x)]
            vals.append(mutual_energy(kernel, slots).value)
        mean = sum(vals) / folds
        acc += math.sqrt(sum((v - mean) ** 2 for v in vals) / (folds - 1) / folds)
    return acc / len(test_points)


# --- particle descent ----------------------------------------------------------

_FD_STEP = 1e-6     # central-difference step in ambient coordinates


def fd_point_gradient(kernel, config, i):
    """Tangent-space gradient of the discrete energy at point i of a
    configuration: central differences of the energy in the ambient
    coordinates of that point (one stack of shifted copies per sign),
    projected with plain numpy."""
    from multipot.energy import _bind

    pts = np.array(config.points)
    shift = np.zeros((pts.shape[1],) + pts.shape)
    shift[:, i, :] = np.eye(pts.shape[1])
    plus, minus = pts + _FD_STEP * shift, pts - _FD_STEP * shift
    energy = _bind(kernel, plus)[0]
    grad = (energy(plus) - energy(minus)) / (2 * _FD_STEP)
    return grad - (grad @ pts[i]) * pts[i]


def serial_descent(kernel, stack, cfg):
    """``optimize._descend`` with the line search one trial per energy call:
    trial j of each searching start is its step halved j times, and the
    first trial that passes the Armijo test is taken, over at most 60.

    Shares the bound energy, the tangent projection, the retraction and the
    spectral step with the library, so it checks only how trials are
    grouped into calls.
    Returns the traces, and per step the number of trials each searching
    start evaluated (in the order of the stack, for the starts that searched)
    and whether it passed.
    """
    from multipot import OptimizationTrace, PointConfiguration
    from multipot.energy import _bind
    from multipot.geometry import project_tangent, retract
    from multipot.optimize import _ARMIJO, _BACKTRACK, _TRIALS, _spectral_step

    pts, sign = np.array(stack), -1.0 if cfg.maximize else 1.0
    energy_of, gradient_of = _bind(kernel, pts)
    energy = energy_of(pts)
    energies = [[e] for e in energy.tolist()]
    reasons = ["steps"] * len(pts)
    last_pts, last_grad = np.empty_like(pts), np.empty_like(pts)
    searches = []
    active = np.arange(len(pts))
    for it in range(cfg.steps + 1):
        if not active.size:
            break
        grad = sign * project_tangent(pts[active], gradient_of(pts[active]))
        flat = grad.reshape(active.size, -1)
        gnorm2 = np.add.reduce(flat * flat, 1)
        stop = np.sqrt(gnorm2) <= cfg.stop_tol
        for b in active[stop]:
            reasons[b] = "converged"
        active, grad, gnorm2 = active[~stop], grad[~stop], gnorm2[~stop]
        if it == cfg.steps or not active.size:
            break
        if it:
            t = _spectral_step((pts[active] - last_pts[active]).reshape(active.size, -1),
                               (grad - last_grad[active]).reshape(active.size, -1),
                               cfg.step_size)
        else:
            t = np.full(active.size, cfg.step_size)
        last_pts[active], last_grad[active] = pts[active], grad
        trials = np.zeros(active.size, dtype=int)
        search = np.arange(active.size)
        for _ in range(_TRIALS):
            if not search.size:
                break
            rows = active[search]
            trials[search] += 1
            cand = retract(pts[rows], (-t[search])[:, None, None] * grad[search])
            cand_energy = energy_of(cand)
            ok = sign * (cand_energy - energy[rows]) <= -_ARMIJO * t[search] * gnorm2[search]
            pts[rows[ok]], energy[rows[ok]] = cand[ok], cand_energy[ok]
            search = search[~ok]
            t[search] *= _BACKTRACK
        for b in active[search]:
            reasons[b] = "line_search"
        accepted = np.ones(active.size, dtype=bool)
        accepted[search] = False
        searches.append(list(zip(trials.tolist(), accepted.tolist())))
        active = active[accepted]
        for b in active:
            energies[b].append(float(energy[b]))
    traces = [OptimizationTrace(e, PointConfiguration(p), len(e) - 1, r)
              for e, p, r in zip(energies, pts, reasons)]
    return traces, searches
