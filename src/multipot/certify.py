"""Randomized positive-definiteness certification and convexity probes.

A "pass" here is always statistical: positive definiteness quantifies over
all signed measures and cannot be decided by sampling, so passing verdicts
are labelled ``pass_statistical``.  Failures, by contrast, are exact
certificates: every failing verdict carries a witness measure (plus the
pins that produced the offending two-input kernel) whose negative energy
can be recomputed independently.

The randomized batteries (:func:`pd_test_2input`, :func:`npd_test`,
:func:`shift_equivalence_battery`, :func:`inequality_suite`) run their
trials in blocks of at most ``_CHUNK_TUPLES`` = 24,576 kernel tuples (one
trial at least), cut by the energy module's block rule.  A block draws each
random quantity in one call from a stream of its own, which it reads in
order, so its draws are those of one trial at a time and a seed fixes every
report whatever the block size: the PD tests' points come from the one
generator of the seed, and the inequality suite's atom counts, atoms,
weights and probes from four children of ``SeedSequence(seed)``.  A drawn
row of norm below 1e-12 (probability zero) is redrawn from its stream at
the end of its block's draws, so none reaches a kernel.  The block is then
normalised, evaluated and decomposed in one pass: one
:meth:`Kernel.evaluate_grid` call per kernel over its slot arrays (a pair
polynomial takes it from their inner products, a combination such as the
anchor shift from its terms' grids) and one stacked ``eigvalsh``.  The block size
weighs a block's fixed cost, some eight suite trials' worth, against the
size of its arrays: an arity-3 suite block holds 49 trials, and a PD test
of five 40-point sets is one block.  Eigenvectors (``eigh``) are
computed only for a trial whose least eigenvalue makes it a witness
candidate.

Exact sums and potentials, the fold potentials of the constancy check's
noise estimate among them, come from :mod:`multipot.energy`, which alone
picks their route.
"""
from __future__ import annotations

import functools
import string
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import CONSTANCY_SIGMA, EIGENVALUE_TOL, RESIDUAL_TOL
from .geometry import (
    DiscreteMeasure,
    _check_count,
    _check_measures,
    _check_points,
    _check_tol,
    _check_type,
    _normalize_rows,
    _random_directions,
    _rng,
    _streams,
    basis_vector,
)
from .kernels import Kernel, cpd_shift, pin
from .energy import (
    _BLOCK_TUPLES,
    _spans,
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
# Kernel tuples per block of trials, in every battery.  A block's fixed cost
# (normalisation masks, two diagonal grid calls, residual bookkeeping) is
# about 0.2 ms, some eight arity-3 suite trials; at 24,576 tuples it is
# spread over 49 of them, and each of the block's arrays stays near 0.2 MB.
# Blocks of 49,152 tuples measured no faster, with twice the peak heap; blocks
# of 98,304 measured slower.
_CHUNK_TUPLES = 24576
# Contiguous folds of a surrogate's atoms whose potentials give the constancy
# check its noise estimate.
_FOLDS = 16


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


@functools.lru_cache(maxsize=64)
def _balanced_basis(m: int) -> np.ndarray:
    """Orthonormal basis (as columns) of the sum-zero subspace of R^m: one
    read-only array per m, cached, since every conditional battery block
    asks for it."""
    basis = np.zeros((m, m - 1))
    for k in range(1, m):
        basis[:k, k - 1] = 1.0
        basis[k, k - 1] = -float(k)
        basis[:, k - 1] /= np.sqrt(k * (k + 1.0))
    basis.flags.writeable = False
    return basis


def _kernel_matrix(kernel: Kernel, pts: np.ndarray) -> np.ndarray:
    """Symmetrised kernel matrices K(p_i, p_j) of point sets (..., m, d):
    (..., m, m), from one grid evaluation."""
    mat = kernel.evaluate_grid([pts, pts])
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def _eigen_tol(mat: np.ndarray) -> np.ndarray:
    """Scale-relative threshold below which an eigenvalue of each matrix
    of the stack ``mat`` counts as negative."""
    return EIGENVALUE_TOL * np.maximum(np.max(np.abs(mat), axis=(-2, -1)), 1e-12)


def _restricted(mat: np.ndarray, conditional: bool) -> np.ndarray:
    """The matrices, or in conditional mode their symmetrised restrictions to
    the sum-zero subspace (in the basis of :func:`_balanced_basis`)."""
    if not conditional:
        return mat
    basis = _balanced_basis(mat.shape[-1])
    restricted = basis.T @ mat @ basis
    return 0.5 * (restricted + restricted.swapaxes(-1, -2))


def _matrix_min_eig(mat: np.ndarray, conditional: bool) -> np.ndarray:
    """Smallest (restricted) eigenvalue of each matrix of the stack ``mat``
    (..., m, m), from one stacked ``eigvalsh``."""
    return np.linalg.eigvalsh(_restricted(mat, conditional))[..., 0]


def _min_eig_vector(mat: np.ndarray, conditional: bool) -> np.ndarray:
    """The coefficient vector of the smallest (restricted) eigenvalue of one
    matrix (m, m), from one ``eigh``."""
    vecs = np.linalg.eigh(_restricted(mat, conditional))[1]
    if conditional:
        return (_balanced_basis(len(mat)) @ vecs[:, :1])[:, 0]
    return vecs[:, 0]


def _build_witness(pts, coeffs, mat, conditional) -> Witness:
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
    return Witness((), DiscreteMeasure(pts[keep], c), float(c @ sub @ c))


def _random_sets(rng, count: int, fixed: np.ndarray, m: int) -> np.ndarray:
    """``count`` point sets (count, m, d): the rows of ``fixed`` followed by
    random directions, drawn as one (count, m - |fixed|, d) block."""
    k, d = fixed.shape
    pts = np.empty((count, m, d))
    pts[:, :k] = fixed
    pts[:, k:] = _random_directions(rng, (count, m - k, d))
    return pts


def pd_test_2input(kernel: Kernel, d: int, *, conditional: bool = False,
                   trials: int = 20, set_size: int = 20, seed: int = 0,
                   tol: float | None = None, include_points=None) -> PDVerdict:
    """Eigenvalue test of (conditional) positive definiteness for a
    two-input kernel.

    Each trial samples ``set_size`` points, forms the kernel matrix and
    inspects its smallest eigenvalue (restricted to the sum-zero subspace
    in conditional mode).  Any eigenvalue below the threshold (``tol``, or
    by default one scale-relative to each matrix) produces a failing
    verdict with an explicit witness measure from the first such trial
    whose witness energy is below it too.  ``include_points`` (on the
    sphere) are prepended to every sampled set.

    Trials run in blocks of about ``_CHUNK_TUPLES`` kernel tuples.  A block
    draws its trials' random points as one (trials, points, d) normal
    array, the same generator stream as one draw per trial, so a seed fixes
    the verdict whatever the block size; a block then builds one stack of
    kernel matrices and takes their least eigenvalues from one stacked
    ``eigvalsh``.  A trial below the threshold gets its eigenvector from
    ``eigh`` on its matrix alone.  A drawn row of norm below 1e-12
    (probability zero) is redrawn at the end of its block's draw, so none
    reaches the kernel.
    """
    _check_type("kernel", kernel, Kernel)
    if kernel.arity != 2:
        raise ValueError("pd_test_2input expects a two-input kernel")
    _check_count("dimension d", d, 2)
    _check_count("trials", trials, 1)
    _check_count("set_size", set_size, 2)
    _check_tol(tol)
    fixed = np.zeros((0, d))
    if include_points is not None:
        fixed = np.atleast_2d(_check_points(include_points, "include_points", d))
        if len(fixed) > set_size:
            raise ValueError(f"include_points has {len(fixed)} rows, more than set_size {set_size}")
    rng = _rng(seed)
    mode = "conditional" if conditional else "pd"
    min_eig = np.inf
    witness = None
    for start, stop in _spans(trials, set_size**2, _CHUNK_TUPLES):
        pts = _random_sets(rng, stop - start, fixed, set_size)
        mats = _kernel_matrix(kernel, pts)
        lams = _matrix_min_eig(mats, conditional)
        tols = _eigen_tol(mats) if tol is None else np.full(len(pts), float(tol))
        min_eig = min(min_eig, float(lams.min()))
        if witness is None:
            for t in np.flatnonzero(lams < -tols):
                coeffs = _min_eig_vector(mats[t], conditional)
                cand = _build_witness(pts[t], coeffs, mats[t], conditional)
                if cand.energy < -tols[t]:
                    witness = cand
                    break
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
    _check_type("kernel", kernel, Kernel)
    n = kernel.arity
    if n < 3:
        raise ValueError("npd_test expects arity >= 3; use pd_test_2input")
    _check_count("dimension d", d, 2)
    _check_count("pin_trials", pin_trials, 1)
    _check_count("inner_trials", inner_trials, 1)
    rng = _rng(seed)
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
    _check_type("kernel", kernel, Kernel)
    _check_count("grid", grid, 2)
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
    """Sampling noise of the (n-1)-fold potential of a surrogate measure,
    averaged over test points: mu's atoms cut into ``_FOLDS`` contiguous folds
    (``np.array_split`` order), each fold's weights rescaled to mu's mass, and
    the std (ddof 1) over the folds' potentials (:func:`energy.potential`)
    divided by sqrt(_FOLDS).  No random number is drawn, and any arity fits.

    A measure is no sample when it has fewer than _FOLDS**2 atoms (a fold of
    fewer than _FOLDS atoms), a negative weight or a fold without mass; its
    estimate is 0, so the check demands constancy to RESIDUAL_TOL.
    """
    folds = list(zip(np.array_split(mu.atoms, _FOLDS), np.array_split(mu.weights, _FOLDS)))
    if mu.n_atoms < _FOLDS**2 or np.any(mu.weights < 0) or not all(w.sum() > 0 for _, w in folds):
        return 0.0
    values = [potential(kernel, [DiscreteMeasure(atoms, w * (mu.total_mass / w.sum()))]
                        * (kernel.arity - 1), test_points) for atoms, w in folds]
    return float(np.mean(np.std(values, axis=0, ddof=1)) / np.sqrt(_FOLDS))


def potential_constancy_check(kernel: Kernel, mu: DiscreteMeasure,
                              test_points) -> ConstancyReport:
    """Check whether the (n-1)-fold potential of mu is constant.

    Evaluates U at each test point and compares the worst deviation from
    the mean against ``CONSTANCY_SIGMA`` = 7.5 estimated standard errors of
    the sampled potential (plus a small floor so exactly-constant potentials
    pass).
    The standard error comes from the potentials of contiguous folds of mu
    (:func:`_potential_stderr`), for a kernel of any arity.
    """
    _check_type("kernel", kernel, Kernel)
    mu = _check_measures([mu], ["mu"])[0]
    if not len(test_points):
        raise ValueError("need at least one test point")
    pts = _check_points(test_points, "test_points", mu.dimension)
    values = potential(kernel, [mu] * (kernel.arity - 1), pts)
    mean = float(np.mean(values))
    max_dev = float(np.max(np.abs(values - mean)))
    stderr = _potential_stderr(kernel, mu, pts)
    tol = max(CONSTANCY_SIGMA * stderr, RESIDUAL_TOL * max(1.0, abs(mean)))
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


def _draw_trials(streams, count: int, n: int, d: int):
    """The random inputs of ``count`` trials: atoms (count, n, K, d), weights
    (count, n, K) and diagonal probes (count, n, d), K = _MAX_ATOMS.

    ``streams`` are the generators of the atom counts, the atoms, the
    weights and the probes; each draws its quantity for the whole block in
    one call: counts ``2 + floor((K - 1) * random((count, n)))``, atoms
    ``standard_normal((count, n, K, d))``, weights ``random((count, n, K)) +
    1e-3`` and probes ``standard_normal((count, n, d))``.  A measure of k < K
    atoms keeps the first k; its other slots hold its first atom at weight 0.
    A row of norm below 1e-12 is redrawn from its stream after all of the
    block's draws (atoms first, then probes).
    """
    counts, atom_rng, weight_rng, probe_rng = streams
    sizes = 2 + ((_MAX_ATOMS - 1) * counts.random((count, n))).astype(np.intp)
    atoms = atom_rng.standard_normal((count, n, _MAX_ATOMS, d))
    weights = weight_rng.random((count, n, _MAX_ATOMS)) + 1e-3
    probes = probe_rng.standard_normal((count, n, d))
    _normalize_rows(atom_rng, atoms)                # both in place
    _normalize_rows(probe_rng, probes)
    real = np.arange(_MAX_ATOMS) < sizes[..., None]
    atoms = np.where(real[..., None], atoms, atoms[:, :, :1])
    weights = np.where(real, weights, 0.0)
    weights /= weights.sum(axis=-1, keepdims=True)
    return atoms, weights, probes


def _trial_energies(kernel: Kernel, atoms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per trial, the single energies I(mu_s) and then the mixed energy
    I(mu_1, ..., mu_n): (count, n + 1), from one grid evaluation."""
    n = atoms.shape[1]
    # energy m puts measure src[m, j] in slot j: m itself for the singles,
    # j for the mixed energy
    src = np.vstack([np.repeat(np.arange(n)[:, None], n, axis=1), np.arange(n)])
    vals = kernel.evaluate_grid([atoms[:, src[:, j]] for j in range(n)])
    letters = string.ascii_lowercase[:n]
    spec = "XY" + letters + "," + ",".join("XY" + c for c in letters) + "->XY"
    return np.einsum(spec, vals, *[weights[:, src[:, j]] for j in range(n)])


def _diagonal_residuals(kernel: Kernel, probes: np.ndarray) -> np.ndarray:
    """K(z_1, ..., z_n) - max_z K(z, ..., z) over z in {z_1, ..., z_n, e_1},
    per trial, from two grid evaluations whose slot arrays hold one point
    each."""
    count, n, d = probes.shape
    e1 = np.broadcast_to(basis_vector(0, d), (count, 1, d))
    diagonal = np.concatenate([probes, e1], axis=1)[:, :, None, :]
    mixed = kernel.evaluate_grid([probes[:, s, None, :] for s in range(n)]).reshape(count)
    return mixed - kernel.evaluate_grid([diagonal] * n).reshape(count, n + 1).max(axis=1)


def inequality_suite(kernel: Kernel, d: int, trials: int = 200,
                     seed: int = 0) -> InequalityReport:
    """Residuals of the mean bounds on mixed energies.

    For random tuples of small atomic probability measures this records
    the worst residual of: the arithmetic-mean upper bound, the
    geometric-mean upper bound (only on trials where every marginal
    energy is nonnegative, where it is defined), the mean lower bound,
    and the diagonal maximum bound on raw kernel values.

    Each trial draws n measures (an atom count in [2, 5], the atoms, the
    weights) and n diagonal probe points, each quantity from its own child
    of ``SeedSequence(seed)``.  Trials run in blocks of about
    ``_CHUNK_TUPLES`` kernel tuples, which bounds memory for any number of
    trials; a block draws each quantity in one call (:func:`_draw_trials`),
    and as each stream is read in order, a seed fixes the report whatever
    the block size.  Every measure is padded to 5 atoms with zero-weight
    copies of its first atom, so the n + 1 energies of every trial in a
    block come from one grid evaluation and one weighted contraction.  A
    padded tuple repeats a tuple the unpadded sum already contains, so the
    kernel is finite there, and its weight 0 leaves each energy unchanged up
    to summation order.  One trial's (n + 1) * 5^n tuples must fit one dense
    grid block (``energy._BLOCK_TUPLES``), which admits arity n <= 7.
    """
    _check_type("kernel", kernel, Kernel)
    _check_count("trials", trials, 1)
    _check_count("dimension d", d, 2)
    n = kernel.arity
    per = (n + 1) * _MAX_ATOMS**n
    if per > _BLOCK_TUPLES:
        raise ValueError(f"arity {n}: a trial's {per} tuples exceed a grid block's {_BLOCK_TUPLES}")
    streams = _streams(seed, 4)
    worst = dict.fromkeys(("am", "gm", "lower", "diagonal"), -np.inf)
    bad = dict.fromkeys(worst, 0)
    gm_trials = 0
    for start, stop in _spans(trials, per, _CHUNK_TUPLES):
        atoms, weights, probes = _draw_trials(streams, stop - start, n, d)
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
    counts (sign agreement up to a scale-relative tolerance band).  Trials
    run in blocks as in :func:`pd_test_2input`: one (trials, set_size - 1,
    d) draw, the same generator stream as one draw per trial, then one
    stack of matrices and one stacked ``eigvalsh`` per kernel; no
    eigenvector is computed.
    """
    _check_type("kernel", kernel, Kernel)
    x0 = basis_vector(0, d)
    shifted = cpd_shift(kernel, x0)     # refuses an arity other than 2
    _check_count("trials", trials, 1)
    _check_count("set_size", set_size, 2)
    rng = _rng(seed)
    agree = disagree = borderline = 0
    pairs = []
    for start, stop in _spans(trials, set_size**2, _CHUNK_TUPLES):
        pts = _random_sets(rng, stop - start, x0[None, :], set_size)
        mat_g = _kernel_matrix(kernel, pts)
        mat_p = _kernel_matrix(shifted, pts)
        lam_c = _matrix_min_eig(mat_g, conditional=True)
        lam_p = _matrix_min_eig(mat_p, conditional=False)
        tol_c, tol_p = _eigen_tol(mat_g), _eigen_tol(mat_p)
        same = (lam_c < -tol_c) == (lam_p < -tol_p)
        near_zero = (np.abs(lam_c) <= 5 * tol_c) | (np.abs(lam_p) <= 5 * tol_p)
        agree += int(same.sum())
        borderline += int((~same & near_zero).sum())
        disagree += int((~same & ~near_zero).sum())
        pairs += zip(lam_c.tolist(), lam_p.tolist())
    return {
        "trials": trials,
        "agreements": agree,
        "borderline": borderline,
        "disagreements": disagree,
        "eigenvalue_pairs": pairs,
    }
