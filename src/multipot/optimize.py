"""Sphere-constrained particle descent for discrete energies.

Projected gradient descent with a spectral (Barzilai–Borwein) step with a
monotone Armijo safeguard, and retraction: the Euclidean gradient of the
discrete energy is projected to the tangent space at each particle, a step
is taken, and the particles are renormalized.  The spectral step
<s,s>/<s,y> is formed from the change s in the points and the change y in
the tangent gradients, both in ambient coordinates, so no vector transport
is needed (Barzilai & Borwein, IMA J. Numer. Anal. 1988; Wen & Yin,
Math. Program. 2013).  One descent runs a stack (B, N, d) of starts through
the energy engine at once, each with its own step and stopping test, so each
start's trace is its single run's, bit for bit.  The engine is bound to
the kernel and the stack's shape once per descent (route, call layout
and contraction program), and every step calls the bound energy and
gradient.  Runs are deterministic given the seed; accepted energies never
get worse (up to 1e-12).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import DiscreteMeasure, PointConfiguration, sample_sphere
from .config import RESIDUAL_TOL
from .kernels import Kernel
from .energy import MixturePolynomial, _bind, _points_energy, mixture_polynomial

__all__ = [
    "OptimizerConfig",
    "OptimizationTrace",
    "energy_gradient",
    "optimize_discrete",
    "multistart",
    "local_min_probe",
    "DirectionProbe",
]

_ARMIJO = 1e-4
_BACKTRACK = 0.5
_TRIALS = 60       # trial steps per line search, each half the one before
# Bounds on the spectral step.  From the upper one the line search's last
# trial is 1e10 / 2**59, about 1e-8, so a start at the bound can still take
# a step of that size; the lower one keeps a spuriously small ratio from
# stalling a start.
_SPECTRAL_BOUNDS = (1e-10, 1e10)
_FD_STEP = 1e-6     # central-difference step in ambient coordinates


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of a descent.

    ``step_size`` is each start's first trial step, and the trial step
    whenever the spectral step is undefined (<s,y> <= 0, no positive
    curvature along the last step).  Every trial step is halved until the
    Armijo test holds.  A start stops once its tangent gradient norm is at
    most ``stop_tol``.
    """

    steps: int = 500
    step_size: float = 0.1
    seed: int = 0
    maximize: bool = False
    stop_tol: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.steps, (int, np.integer)) or isinstance(self.steps, bool):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps!r}")
        if not 0 < self.step_size < math.inf:
            raise ValueError(f"step size must be positive and finite, got {self.step_size!r}")
        if not self.stop_tol >= 0:
            raise ValueError(f"stop tolerance must be nonnegative, got {self.stop_tol!r}")


@dataclass(frozen=True)
class OptimizationTrace:
    """One start's descent.  ``stop_reason`` is ``"converged"`` (the gradient
    norm reached ``stop_tol``), ``"line_search"`` (no step passed the Armijo
    test) or ``"steps"`` (the step limit was reached)."""

    energies: list[float]
    final_config: PointConfiguration
    iterations_run: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def final_energy(self) -> float:
        return self.energies[-1]


def _fd_point_gradient(kernel: Kernel, pts: np.ndarray, i: int) -> np.ndarray:
    """Central differences in the coordinates of point i, from two stacks of shifted copies."""
    shift = np.zeros((pts.shape[1],) + pts.shape)
    shift[:, i, :] = np.eye(pts.shape[1])
    return (_points_energy(kernel, pts + _FD_STEP * shift)
            - _points_energy(kernel, pts - _FD_STEP * shift)) / (2 * _FD_STEP)


def _tangent_gradient(gradient, stack: np.ndarray) -> np.ndarray:
    """Tangent-space gradient of the discrete energy at every row of each configuration
    of the stack (B, N, d): ``gradient``, the kernel's bound Euclidean gradient (see
    :func:`energy._bind`), projected to the tangent space."""
    grad = gradient(stack)
    return grad - np.add.reduce(grad * stack, -1)[..., None] * stack


def energy_gradient(kernel: Kernel, config: PointConfiguration, i: int,
                    mode: str = "analytic") -> np.ndarray:
    """Tangent-space gradient of the discrete energy with respect to the
    i-th point: exact from the energy module, or central differences (step
    1e-6) in ambient coordinates, projected onto the tangent space."""
    pts = np.array(config.points)
    if not 0 <= i < pts.shape[0]:
        raise ValueError(f"point index {i} out of range")
    if mode == "analytic":
        stack = pts[None]
        return _tangent_gradient(_bind(kernel, stack)[1], stack)[0, i]
    if mode != "finite_difference":
        raise ValueError(f"unknown gradient mode '{mode}'")
    grad = _fd_point_gradient(kernel, pts, i)
    return grad - (grad @ pts[i]) * pts[i]


def _renormalize(pts: np.ndarray) -> np.ndarray:
    # np.linalg.norm(pts, axis=-1, keepdims=True), bit for bit on real input
    return pts / np.sqrt(np.add.reduce(pts * pts, -1, keepdims=True))


def _spectral_step(s: np.ndarray, y: np.ndarray, fallback: float) -> np.ndarray:
    """Barzilai–Borwein step <s,s>/<s,y> of each row of s and y (one start's
    flattened points and gradients each), clipped to _SPECTRAL_BOUNDS;
    ``fallback`` where <s,y> <= 0."""
    sy = np.add.reduce(s * y, 1)
    step = np.full(len(s), fallback)
    curved = sy > 0
    step[curved] = np.clip(np.add.reduce(s[curved] * s[curved], 1) / sy[curved],
                           *_SPECTRAL_BOUNDS)
    return step


def _descend(kernel: Kernel, stack: np.ndarray, cfg: OptimizerConfig) -> list[OptimizationTrace]:
    """Descend from every configuration of the stack (B, N, d) at once.

    Each start takes its own spectral (Barzilai–Borwein) step with a
    monotone Armijo safeguard: the first trial step is ``cfg.step_size``,
    later ones <s,s>/<s,y> from the start's last accepted step, and the step
    is halved until the energy improves by the Armijo margin, over at most 60
    trials.  A start drops out of the evaluations once it has converged,
    failed its line search or run out of steps.  The energy engine sums each
    configuration on its own, so a start's trace does not depend on the other
    starts; it is bound to the kernel and the stack's shape once, before the
    first step.
    """
    pts, sign = np.array(stack), -1.0 if cfg.maximize else 1.0   # descend on sign * E
    energy_of, gradient_of = _bind(kernel, pts)
    energy = energy_of(pts)
    energies = [[e] for e in energy.tolist()]
    reasons = ["steps"] * len(pts)
    last_pts, last_grad = np.empty_like(pts), np.empty_like(pts)
    active = np.arange(len(pts))
    for it in range(cfg.steps + 1):     # the pass after the last step only tests convergence
        if not active.size:
            break
        grad = sign * _tangent_gradient(gradient_of, pts[active])   # of sign * E
        flat = grad.reshape(active.size, -1)
        gnorm2 = np.add.reduce(flat * flat, 1)
        stop = np.sqrt(gnorm2) <= cfg.stop_tol
        for b in active[stop]:
            reasons[b] = "converged"
        active, grad, gnorm2 = active[~stop], grad[~stop], gnorm2[~stop]
        if it == cfg.steps or not active.size:
            break
        if it:      # every active start accepted its last step
            t = _spectral_step((pts[active] - last_pts[active]).reshape(active.size, -1),
                               (grad - last_grad[active]).reshape(active.size, -1),
                               cfg.step_size)
        else:
            t = np.full(active.size, cfg.step_size)
        last_pts[active], last_grad[active] = pts[active], grad
        search = np.arange(active.size)     # positions in active still searching
        for _ in range(_TRIALS):
            if not search.size:
                break
            rows = active[search]
            cand = _renormalize(pts[rows] - t[search, None, None] * grad[search])
            cand_energy = energy_of(cand)
            ok = sign * (cand_energy - energy[rows]) <= -_ARMIJO * t[search] * gnorm2[search]
            pts[rows[ok]], energy[rows[ok]] = cand[ok], cand_energy[ok]
            search = search[~ok]
            t[search] *= _BACKTRACK
        for b in active[search]:
            reasons[b] = "line_search"
        accepted = np.ones(active.size, dtype=bool)
        accepted[search] = False
        active = active[accepted]
        for b in active:
            energies[b].append(float(energy[b]))
    return [OptimizationTrace(e, PointConfiguration(p), len(e) - 1, r)
            for e, p, r in zip(energies, pts, reasons)]


def optimize_discrete(kernel: Kernel, n_points: int, d: int, cfg: OptimizerConfig,
                      initial=None) -> OptimizationTrace:
    """Minimize (or maximize) the discrete energy over N points on S^{d-1}.

    Random initialization from the config seed unless ``initial`` is
    given; each of its rows must be finite and nonzero, and is projected
    to the sphere (a row too large or too small to square is scaled by its
    largest |entry| first).  The result's final energy is an upper bound on
    the infimum (lower bound on the supremum when maximizing); no optimality
    claim is made.  This is :func:`multistart` with one start.
    """
    if initial is None:
        return multistart(kernel, n_points, d, cfg, starts=1)
    pts = np.array(getattr(initial, "points", initial), dtype=float)
    if n_points < 1 or d < 2 or pts.shape != (n_points, d):
        raise ValueError(f"initial configuration must have shape ({n_points}, {d}), "
                         "with n_points >= 1 and d >= 2")
    largest = np.max(np.abs(pts), axis=1)
    bad = np.flatnonzero(~(np.isfinite(largest) & (largest > 0)))
    if bad.size:
        raise ValueError(f"initial row {bad[0]} cannot be projected to the sphere: "
                         f"it is {pts[bad[0]].tolist()}; rows must be finite and nonzero")
    with np.errstate(over="ignore"):
        norm2 = np.add.reduce(pts * pts, 1)
    # a row whose squared norm overflows or underflows is scaled to a largest
    # |entry| of 1 first; rows of ordinary size are normalized as they are
    edge = ~((norm2 >= np.finfo(float).tiny) & (norm2 < np.inf))
    pts[edge] /= largest[edge, None]
    return _descend(kernel, _renormalize(pts)[None], cfg)[0]


def multistart(kernel: Kernel, n_points: int, d: int, cfg: OptimizerConfig,
               starts: int = 4) -> OptimizationTrace:
    """Best-of-k restarts from the seeds seed, seed + 1, ... (ties go to
    the earlier seed), run as one batched descent."""
    if starts < 1 or n_points < 1 or d < 2:
        raise ValueError("need starts >= 1, n_points >= 1 and d >= 2")
    stack = np.stack([sample_sphere(d, n_points, cfg.seed + k).points for k in range(starts)])
    return (max if cfg.maximize else min)(_descend(kernel, stack, cfg),
                                          key=lambda trace: trace.final_energy)


@dataclass(frozen=True)
class DirectionProbe:
    """Directional local-minimum diagnostics at a measure."""

    min_gap: float               # min_t g(t) - g(0) over the probe grid
    local_min_ok: bool
    alpha_residual: float        # min_a [I(mu^{n-1},nu) - a I(nu) - (1-a) I(mu)]
    mixture: MixturePolynomial = field(repr=False)


def local_min_probe(kernel: Kernel, mu: DiscreteMeasure, directions) -> list[DirectionProbe]:
    """Probe whether mu is a directional local minimizer of the energy.

    For each direction nu the exact mixture polynomial is evaluated at 201
    equispaced points of [0, 1]; the probe also reports the best mean-bound
    residual over the 99 interior points alpha = 1/100, ..., 99/100
    (nonpositive residual certifies the averaged upper bound on the mixed
    energy).
    """
    if not mu.is_probability:
        raise ValueError("the base measure must be a probability measure")
    ts = np.linspace(0.0, 1.0, 201)
    alphas = np.linspace(0.0, 1.0, 101)[1:-1]
    out = []
    for nu in directions:
        if not nu.is_probability:
            raise ValueError("probe directions must be probability measures")
        g = mixture_polynomial(kernel, mu, nu)
        gap = float(np.min(g(ts) - g(0.0)))
        c = g.coefficients
        residuals = c[1] - alphas * c[-1] - (1 - alphas) * c[0]
        out.append(DirectionProbe(
            min_gap=gap,
            local_min_ok=gap >= -RESIDUAL_TOL,
            alpha_residual=float(np.min(residuals)),
            mixture=g,
        ))
    return out
