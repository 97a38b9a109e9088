"""Randomized positive-definiteness certification and convexity probes.

A "pass" here is always statistical: positive definiteness quantifies over
all signed measures and cannot be decided by sampling, so passing verdicts
are labelled ``pass_statistical``.  Failures, by contrast, are exact
certificates: every failing verdict carries a witness measure (plus the
pins that produced the offending two-input kernel) whose negative energy
can be recomputed independently.
"""
from __future__ import annotations

import string
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import EIGENVALUE_TOL, RESIDUAL_TOL
from .geometry import DiscreteMeasure, _random_directions, basis_vector
from .kernels import Kernel, cpd_shift, pin
from .energy import (
    _BLOCK_TUPLES,
    _MAX_EXACT_ARITY,
    _WORK_LIMIT,
    _features,
    _layout,
    _open_slot,
    _program,
    _tuple_blocks,
    MixturePolynomial,
    mixture_polynomial,
    potential,
)

__all__ = [
    "Witness",
    "PDVerdict",
    "ConvexityReport",
    "ConstancyReport",
    "InequalityReport",
    "pd_test_2input",
    "npd_test",
    "convexity_probe",
    "potential_constancy_check",
    "inequality_suite",
    "shift_equivalence_battery",
]

_MAX_ATOMS = 5            # atoms per random measure of the inequality suite
_CHUNK_TUPLES = 4096      # kernel tuples per inequality-suite chunk


@dataclass(frozen=True)
class Witness:
    """Certificate of failed (conditional) positive definiteness."""

    pins: tuple
    measure: DiscreteMeasure
    energy: float


@dataclass(frozen=True)
class PDVerdict:
    mode: str                      # "pd" or "conditional"
    outcome: str                   # "pass_statistical" or "fail"
    witness: Witness | None
    trials_run: int
    min_eigenvalue_seen: float

    @property
    def passed(self) -> bool:
        return self.outcome == "pass_statistical"


def _balanced_basis(m: int) -> np.ndarray:
    """Orthonormal basis (as columns) of the sum-zero subspace of R^m."""
    basis = np.zeros((m, m - 1))
    for k in range(1, m):
        basis[:k, k - 1] = 1.0
        basis[k, k - 1] = -float(k)
        basis[:, k - 1] /= np.sqrt(k * (k + 1.0))
    return basis


def _kernel_matrix(kernel: Kernel, pts: np.ndarray) -> np.ndarray:
    m = pts.shape[0]
    pairs = np.empty((m, m, 2, pts.shape[1]))
    pairs[..., 0, :] = pts[:, None, :]
    pairs[..., 1, :] = pts[None, :, :]
    mat = kernel.evaluate_batch(pairs)
    return 0.5 * (mat + mat.T)


def _eigen_tol(mat: np.ndarray) -> float:
    """Scale-relative threshold below which an eigenvalue of ``mat``
    counts as negative."""
    return EIGENVALUE_TOL * max(float(np.max(np.abs(mat))), 1e-12)


def _matrix_min_eig(mat: np.ndarray, conditional: bool):
    """Smallest (restricted) eigenvalue and its coefficient vector."""
    if conditional:
        basis = _balanced_basis(mat.shape[0])
        restricted = basis.T @ mat @ basis
        restricted = 0.5 * (restricted + restricted.T)
        vals, vecs = np.linalg.eigh(restricted)
        return float(vals[0]), basis @ vecs[:, 0]
    vals, vecs = np.linalg.eigh(mat)
    return float(vals[0]), vecs[:, 0]


def _build_witness(pts, coeffs, mat, conditional):
    """Turn an offending eigenvector into a small witness measure.

    Near-zero coefficients are dropped; in conditional mode the remaining
    coefficients are re-centered so the witness stays exactly balanced.
    The reported energy is the quadratic form of the final coefficients.
    """
    keep = np.abs(coeffs) >= 1e-12
    if keep.sum() < 2:
        keep = np.abs(coeffs) > 0
    c = coeffs[keep]
    if conditional:
        c = c - c.sum() / c.size
    sub = mat[np.ix_(keep, keep)]
    energy = float(c @ sub @ c)
    measure = DiscreteMeasure(pts[keep], c)
    return Witness((), measure, energy), energy


def pd_test_2input(kernel: Kernel, d: int, *, conditional: bool = False,
                   trials: int = 20, set_size: int = 20, seed: int = 0,
                   tol: float | None = None, include_points=None) -> PDVerdict:
    """Eigenvalue test of (conditional) positive definiteness for a
    two-input kernel.

    Each trial samples ``set_size`` points, forms the kernel matrix and
    inspects its smallest eigenvalue (restricted to the sum-zero subspace
    in conditional mode).  Any eigenvalue below the scale-relative
    threshold produces a failing verdict with an explicit witness measure.
    ``include_points`` are prepended to every sampled set.
    """
    if kernel.arity != 2:
        raise ValueError("pd_test_2input expects a two-input kernel")
    if trials < 1 or set_size < 2:
        raise ValueError("need trials >= 1 and set_size >= 2")
    fixed = np.zeros((0, d))
    if include_points is not None:
        fixed = np.atleast_2d(np.asarray(include_points, dtype=float))
        if fixed.shape[0] > set_size:
            raise ValueError("more included points than the set size")

    rng = np.random.default_rng(seed)
    mode = "conditional" if conditional else "pd"
    min_eig = np.inf
    witness = None
    for _ in range(trials):
        n_random = set_size - fixed.shape[0]
        pts = _random_directions(rng, (n_random, d))
        pts = np.vstack([fixed, pts]) if fixed.size else pts
        mat = _kernel_matrix(kernel, pts)
        tol_eff = tol if tol is not None else _eigen_tol(mat)
        lam, coeffs = _matrix_min_eig(mat, conditional)
        min_eig = min(min_eig, lam)
        if lam < -tol_eff and witness is None:
            cand, energy = _build_witness(pts, coeffs, mat, conditional)
            if energy < -tol_eff:
                witness = cand
    outcome = "fail" if witness is not None else "pass_statistical"
    return PDVerdict(mode, outcome, witness, trials, float(min_eig))


def _canonical_pins(n: int, d: int) -> np.ndarray:
    if n - 2 > d:
        raise ValueError("not enough dimensions for canonical pins")
    return np.stack([basis_vector(i, d) for i in range(n - 2)])


def _default_probe_points(d: int) -> np.ndarray:
    pts = [basis_vector(0, d), basis_vector(1, d), -basis_vector(0, d)]
    if d >= 3:
        pts.append(basis_vector(2, d))
    return np.stack(pts)


def npd_test(kernel: Kernel, d: int, *, conditional: bool = False,
             pin_trials: int = 5, inner_trials: int = 5, set_size: int = 20,
             seed: int = 0, tol: float | None = None) -> PDVerdict:
    """n-input positive definiteness via pinned two-input tests.

    Pins n-2 slots and delegates to :func:`pd_test_2input`.  The canonical
    pin (e_1, ..., e_{n-2}) is always tried first; for rotationally
    invariant kernels it is the only pin that matters in principle, but
    random pins are mixed in regardless, since invariance is not checked
    here.  The canonical pin's point sets include a small deterministic
    probe set (basis vectors and -e_1) so that standard counterexamples
    are found reproducibly.
    """
    n = kernel.arity
    if n < 3:
        raise ValueError("npd_test expects arity >= 3; use pd_test_2input")
    if pin_trials < 1:
        raise ValueError("need pin_trials >= 1")
    rng = np.random.default_rng(seed)
    mode = "conditional" if conditional else "pd"
    min_eig = np.inf
    witness = None
    trials_total = 0
    for trial in range(pin_trials):
        if trial == 0:
            pin_pts = _canonical_pins(n, d)
            include = _default_probe_points(d)
        else:
            pin_pts = _random_directions(rng, (n - 2, d))
            include = None
        pinned = pin(kernel, pin_pts)
        verdict = pd_test_2input(
            pinned, d, conditional=conditional, trials=inner_trials,
            set_size=set_size, seed=int(rng.integers(2**32)), tol=tol,
            include_points=include,
        )
        trials_total += verdict.trials_run
        min_eig = min(min_eig, verdict.min_eigenvalue_seen)
        if verdict.witness is not None and witness is None:
            witness = replace(verdict.witness, pins=tuple(pin_pts))
    outcome = "fail" if witness is not None else "pass_statistical"
    return PDVerdict(mode, outcome, witness, trials_total, float(min_eig))


@dataclass(frozen=True)
class ConvexityReport:
    """Convexity diagnostics of the mixture t -> I_K((1-t) mu + t nu).

    g is the full n-input mixture polynomial.
    """

    g_prime_0: float
    g_double_prime_0: float
    convex_on_unit_interval: bool
    violation_t: float | None
    chord_margin: float
    mixture: MixturePolynomial = field(repr=False)


def convexity_probe(kernel: Kernel, mu: DiscreteMeasure, nu: DiscreteMeasure,
                    grid: int = 1000) -> ConvexityReport:
    """Probe convexity of the energy along the segment from mu to nu."""
    if not (mu.is_probability and nu.is_probability):
        raise ValueError("convexity probes are defined for probability measures")
    g = mixture_polynomial(kernel, mu, nu)

    ts = np.linspace(0.0, 1.0, grid)
    second = g.derivative(ts, order=2)
    convex = bool(np.all(second >= -RESIDUAL_TOL))
    chord = (1 - ts) * g(0.0) + ts * g(1.0)
    margins = g(ts) - chord
    worst = int(np.argmax(margins))
    margin = float(margins[worst])
    violation_t = float(ts[worst]) if margin > RESIDUAL_TOL else None

    return ConvexityReport(
        g_prime_0=g.derivative1_at_zero(),
        g_double_prime_0=g.derivative2_at_zero(),
        convex_on_unit_interval=convex,
        violation_t=violation_t,
        chord_margin=margin,
        mixture=g,
    )


@dataclass(frozen=True)
class ConstancyReport:
    values: np.ndarray
    mean: float
    max_deviation: float
    stderr_estimate: float
    tol: float
    passed: bool


def _potential_stderr(kernel: Kernel, mu: DiscreteMeasure, test_points: np.ndarray) -> float:
    """First-order estimate of the sampling noise of the (n-1)-fold
    potential of an M-atom surrogate measure, averaged over test points.

    Projects the degree-2 sum onto single atoms: with row means
    r_j(x) = sum_k w_k K(x, y_k, y_j) and rbar = sum_j w_j r_j, the
    potential's variance is approximately 4 * zeta * sum_j w_j^2, where
    zeta(x) = sum_j w_j (r_j - rbar)^2.  Pair polynomials the moment engine
    contracts take zeta from it (:func:`_moment_spread`); other kernels from
    dense rows (:func:`_dense_spread`).  Only arity 3 gets an estimate; a
    polynomial whose terms all cancel (slot 0 has no keys) has no noise.
    """
    if mu.n_atoms < 2 or kernel.arity != 3:
        return 0.0
    poly = kernel.pair_poly
    prog = None if poly is None else _program(poly, _layout([mu, mu], True))
    if prog is None:
        zeta = _dense_spread(kernel, mu, test_points)
    elif not prog.slot_keys[0]:
        return 0.0
    else:
        zeta = _moment_spread(poly, mu, test_points)
    w2 = float(np.sum(mu.weights**2))
    return float(np.mean(2.0 * np.sqrt(np.maximum(zeta, 0.0) * w2)))


def _moment_spread(poly, mu: DiscreteMeasure, test_points: np.ndarray) -> np.ndarray:
    """zeta at each test point for a pair polynomial.

    r_j(x) = Phi(x)^T a_j, with Phi(x) the tensor powers of x times their
    anchor factors (slot 0's keys of the moment engine) and a_j the other two
    slots contracted with y_j kept per atom.  So zeta(x) = Phi(x)^T C Phi(x),
    C = sum_j w_j (a_j - abar)(a_j - abar)^T, and abar = sum_j w_j a_j comes
    from the moments alone.  It is summed as sum_j w_j (Phi(x)^T (a_j - abar))^2
    over blocks of atoms, for every test point at once: one pass over the
    atoms, and no F x F array for C.
    """
    phi = _features(poly, test_points)
    abar = _open_slot(poly, [mu, mu])
    zeta = np.zeros(phi.shape[0])
    step = max(1, _BLOCK_TUPLES // max(phi.shape))
    for start in range(0, mu.n_atoms, step):
        a = _open_slot(poly, [mu], mu.atoms[start:start + step, None, :]) - abar
        zeta += (phi @ a.T) ** 2 @ mu.weights[start:start + step]
    return zeta


def _dense_spread(kernel: Kernel, mu: DiscreteMeasure, test_points: np.ndarray) -> np.ndarray:
    """zeta at each test point from the dense rows r_j(x), taken for all test
    points in blocks of kernel values; raises if they need more than the
    work limit of |test points| * M^2 values."""
    m, w = mu.n_atoms, mu.weights
    if len(test_points) * m * m > _WORK_LIMIT:
        raise ValueError(f"the noise estimate of a {m}-atom measure at {len(test_points)} "
                         f"test points needs more than {_WORK_LIMIT} kernel values")
    rows = np.empty((len(test_points), m))
    for start, stop, grid in _tuple_blocks([test_points, mu.atoms, mu.atoms]):
        rows[start:stop] = np.einsum("pkj,k->pj", kernel.evaluate_batch(grid), w)
    return (rows - (rows @ w)[:, None]) ** 2 @ w


def potential_constancy_check(kernel: Kernel, mu: DiscreteMeasure,
                              test_points) -> ConstancyReport:
    """Check whether the (n-1)-fold potential of mu is constant.

    Evaluates U at each test point and compares the worst deviation from
    the mean against five estimated standard errors of the sampled
    potential (plus a small floor so exactly-constant potentials pass).
    An arity-3 kernel the moment engine cannot contract estimates that
    noise from |test points| * M^2 kernel values, and raises ValueError
    when they exceed the exact-sum work limit.
    """
    if mu.n_atoms < 1:
        raise ValueError("measure needs at least one atom")
    pts = np.atleast_2d(np.asarray(getattr(test_points, "points", test_points), dtype=float))
    if pts.size == 0:
        raise ValueError("need at least one test point")
    n = kernel.arity
    values = potential(kernel, [mu] * (n - 1), pts)
    mean = float(np.mean(values))
    max_dev = float(np.max(np.abs(values - mean)))
    stderr = _potential_stderr(kernel, mu, pts)
    tol = max(5.0 * stderr, RESIDUAL_TOL * max(1.0, abs(mean)))
    return ConstancyReport(values, mean, max_dev, stderr, float(tol), max_dev <= tol)


@dataclass(frozen=True)
class InequalityReport:
    trials: int
    am_worst: float
    gm_worst: float | None
    lower_worst: float
    diagonal_worst: float
    am_violations: int
    gm_violations: int
    lower_violations: int
    diagonal_violations: int
    gm_trials: int

    def as_dict(self) -> dict:
        return asdict(self)


def _random_atoms(rng, d: int):
    """Atoms and probability weights of a random measure with 2.._MAX_ATOMS
    atoms on S^{d-1}, drawn as integers(2, _MAX_ATOMS + 1), then
    standard_normal((k, d)), then random(k)."""
    k = int(rng.integers(2, _MAX_ATOMS + 1))
    atoms = _random_directions(rng, (k, d))
    w = rng.random(k) + 1e-3
    return atoms, w / w.sum()


def _trials_per_chunk(n: int) -> int:
    """Trials whose n + 1 energy grids hold about _CHUNK_TUPLES tuples."""
    return max(1, _CHUNK_TUPLES // ((n + 1) * _MAX_ATOMS**n))


def _draw_trials(rng, count: int, n: int, d: int):
    """The random inputs of ``count`` trials, in the suite's draw order.

    Returns atoms (count, n, K, d), weights (count, n, K) and diagonal
    probes (count, n, d), K = _MAX_ATOMS.  A measure with fewer than K
    atoms is padded with copies of its first atom carrying weight 0.
    """
    atoms = np.empty((count, n, _MAX_ATOMS, d))
    weights = np.zeros((count, n, _MAX_ATOMS))
    probes = np.empty((count, n, d))
    for t in range(count):
        for s in range(n):
            a, w = _random_atoms(rng, d)
            atoms[t, s] = a[0]
            atoms[t, s, :len(w)] = a
            weights[t, s, :len(w)] = w
        probes[t] = _random_directions(rng, (n, d))
    return atoms, weights, probes


def _trial_energies(kernel: Kernel, atoms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per trial, the single energies I(mu_s) and then the mixed energy
    I(mu_1, ..., mu_n): (count, n + 1), from one dense tuple grid."""
    count, n, k, d = atoms.shape
    # energy m puts measure src[m, j] in slot j: m itself for the singles,
    # j for the mixed energy
    src = np.vstack([np.repeat(np.arange(n)[:, None], n, axis=1), np.arange(n)])
    grid = np.empty((count, n + 1) + (k,) * n + (n, d))
    for j in range(n):
        shape = [count, n + 1] + [1] * n + [d]
        shape[2 + j] = k
        grid[..., j, :] = atoms[:, src[:, j]].reshape(shape)
    vals = kernel.evaluate_batch(grid)
    letters = string.ascii_lowercase[:n]
    spec = "XY" + letters + "," + ",".join("XY" + c for c in letters) + "->XY"
    return np.einsum(spec, vals, *[weights[:, src[:, j]] for j in range(n)])


def _diagonal_residuals(kernel: Kernel, probes: np.ndarray) -> np.ndarray:
    """K(z_1, ..., z_n) - max_z K(z, ..., z) over z in {z_1, ..., z_n, e_1},
    per trial."""
    count, n, d = probes.shape
    e1 = np.broadcast_to(basis_vector(0, d), (count, 1, d))
    diagonal = np.repeat(np.concatenate([probes, e1], axis=1)[:, :, None, :], n, axis=2)
    return kernel.evaluate_batch(probes) - kernel.evaluate_batch(diagonal).max(axis=1)


def inequality_suite(kernel: Kernel, d: int, trials: int = 200,
                     seed: int = 0) -> InequalityReport:
    """Residuals of the mean bounds on mixed energies.

    For random tuples of small atomic probability measures this records
    the worst residual of: the arithmetic-mean upper bound, the
    geometric-mean upper bound (only on trials where every marginal
    energy is nonnegative, where it is defined), the mean lower bound,
    and the diagonal maximum bound on raw kernel values.

    Each trial draws, from one generator seeded with ``seed`` and in this
    order, n measures (per measure: the atom count in [2, 5], the atoms,
    the weights) and then n diagonal probe points, so a seed fixes the
    report whatever the batching.  Trials are evaluated in chunks of about
    ``_CHUNK_TUPLES`` kernel tuples, which bounds memory for any number of
    trials: every measure is padded to 5 atoms with zero-weight copies of
    its first atom, so the n + 1 energies of every trial in a chunk come
    from one dense tuple grid and one weighted contraction.  A padded
    tuple repeats a tuple the unpadded sum already contains, so the kernel
    is finite there, and its weight 0 leaves each energy unchanged up to
    summation order.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    n = kernel.arity
    if n > _MAX_EXACT_ARITY:
        raise ValueError(f"exact sums support arity <= {_MAX_EXACT_ARITY}")
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("am", "gm", "lower", "diagonal"), -np.inf)
    bad = dict.fromkeys(worst, 0)
    gm_trials = 0
    chunk = _trials_per_chunk(n)
    for start in range(0, trials, chunk):
        atoms, weights, probes = _draw_trials(rng, min(chunk, trials - start), n, d)
        energies = _trial_energies(kernel, atoms, weights)
        singles, mixed = energies[:, :n], energies[:, n]
        mean = singles.mean(axis=1)
        defined = np.all(singles >= 0.0, axis=1)
        gm_trials += int(defined.sum())
        residuals = {
            "am": mixed - mean,
            "gm": mixed[defined] - np.prod(singles[defined] ** (1.0 / n), axis=1),
            "lower": -mean - mixed,
            "diagonal": _diagonal_residuals(kernel, probes),
        }
        for key, res in residuals.items():
            if res.size:
                worst[key] = max(worst[key], float(res.max()))
                bad[key] += int(np.count_nonzero(res > RESIDUAL_TOL))
    return InequalityReport(
        trials=trials,
        am_worst=worst["am"],
        gm_worst=worst["gm"] if gm_trials else None,
        lower_worst=worst["lower"],
        diagonal_worst=worst["diagonal"],
        am_violations=bad["am"],
        gm_violations=bad["gm"],
        lower_violations=bad["lower"],
        diagonal_violations=bad["diagonal"],
        gm_trials=gm_trials,
    )


def shift_equivalence_battery(kernel: Kernel, d: int, *, trials: int = 10,
                              set_size: int = 12, seed: int = 0) -> dict:
    """Compare conditional PD of a two-input kernel against plain PD of
    its shift at the anchor e_1 on shared point sets containing the anchor.

    Returns per-trial minimum eigenvalues of both matrices plus agreement
    counts (sign agreement up to a scale-relative tolerance band).
    """
    if kernel.arity != 2:
        raise ValueError("the shift battery applies to two-input kernels")
    x0 = basis_vector(0, d)
    shifted = cpd_shift(kernel, x0)
    rng = np.random.default_rng(seed)
    agree = disagree = borderline = 0
    pairs = []
    for _ in range(trials):
        pts = np.vstack([x0[None, :], _random_directions(rng, (set_size - 1, d))])
        mat_g = _kernel_matrix(kernel, pts)
        mat_p = _kernel_matrix(shifted, pts)
        lam_c, _ = _matrix_min_eig(mat_g, conditional=True)
        lam_p, _ = _matrix_min_eig(mat_p, conditional=False)
        tol_c, tol_p = _eigen_tol(mat_g), _eigen_tol(mat_p)
        neg_c = lam_c < -tol_c
        neg_p = lam_p < -tol_p
        near_zero = abs(lam_c) <= 5 * tol_c or abs(lam_p) <= 5 * tol_p
        if neg_c == neg_p:
            agree += 1
        elif near_zero:
            borderline += 1
        else:
            disagree += 1
        pairs.append((lam_c, lam_p))
    return {
        "trials": trials,
        "agreements": agree,
        "borderline": borderline,
        "disagreements": disagree,
        "eigenvalue_pairs": pairs,
    }
