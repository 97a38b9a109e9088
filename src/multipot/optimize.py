"""Sphere-constrained particle descent for discrete energies.

Projected gradient descent with Armijo backtracking and retraction: the
Euclidean gradient of the discrete energy is projected to the tangent
space at each particle, a step is taken, and the particles are
renormalized.  One descent runs a stack (B, N, d) of starts through the
energy engine at once, each with its own step and stopping test, so each
start's trace is its single run's, bit for bit.  The engine is bound to
the kernel and the stack's shape once per descent (route, call layout
and contraction program), and every step calls the bound energy and
gradient.  Runs are deterministic given the seed; accepted energies never
get worse (up to 1e-12).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import DiscreteMeasure, PointConfiguration, sample_sphere
from .kernels import Kernel, RieszKernel
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
_FD_STEP = 1e-6     # central-difference step in ambient coordinates


@dataclass(frozen=True)
class OptimizerConfig:
    steps: int = 500
    step_size: float = 0.1
    seed: int = 0
    maximize: bool = False
    stop_tol: float = 1e-8

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.step_size <= 0:
            raise ValueError("step size must be positive")


@dataclass(frozen=True)
class OptimizationTrace:
    energies: list[float]
    final_config: PointConfiguration
    converged: bool
    iterations_run: int

    @property
    def final_energy(self) -> float:
        return self.energies[-1]


def _fd_point_gradient(kernel: Kernel, pts: np.ndarray, i: int) -> np.ndarray:
    """Central differences in the coordinates of point i, from two stacks of shifted copies."""
    shift = np.zeros((pts.shape[1],) + pts.shape)
    shift[:, i, :] = np.eye(pts.shape[1])
    return (_points_energy(kernel, pts + _FD_STEP * shift)
            - _points_energy(kernel, pts - _FD_STEP * shift)) / (2 * _FD_STEP)


def _tangent_gradient(kernel: Kernel, gradient, stack: np.ndarray) -> np.ndarray:
    """Tangent-space gradient of the discrete energy at every row of each configuration
    of the stack (B, N, d), from ``gradient``, the kernel's bound Euclidean gradient
    (see :func:`energy._bind`).  A configuration with coincident points, where a Riesz
    gradient with s < 1 is singular, falls back to finite differences, with a warning."""
    if not (isinstance(kernel, RieszKernel) and kernel.s < 1.0):
        grad = gradient(stack)
    else:
        dist = np.linalg.norm(stack[:, :, None] - stack[:, None], axis=-1)
        singular = np.min(dist + np.diag(np.full(stack.shape[1], np.inf)), axis=(1, 2)) < 1e-12
        grad = np.empty_like(stack)
        if not singular.all():
            grad[~singular] = gradient(stack[~singular])
        for b in np.flatnonzero(singular):
            warnings.warn("coincident points with a singular gradient; "
                          "falling back to finite differences", stacklevel=3)
            grad[b] = [_fd_point_gradient(kernel, stack[b], i) for i in range(stack.shape[1])]
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
        return _tangent_gradient(kernel, _bind(kernel, stack)[1], stack)[0, i]
    if mode != "finite_difference":
        raise ValueError(f"unknown gradient mode '{mode}'")
    grad = _fd_point_gradient(kernel, pts, i)
    return grad - (grad @ pts[i]) * pts[i]


def _renormalize(pts: np.ndarray) -> np.ndarray:
    # np.linalg.norm(pts, axis=-1, keepdims=True), bit for bit on real input
    return pts / np.sqrt(np.add.reduce(pts * pts, -1, keepdims=True))


def _descend(kernel: Kernel, stack: np.ndarray, cfg: OptimizerConfig) -> list[OptimizationTrace]:
    """Descend from every configuration of the stack (B, N, d) at once.

    Each start keeps its own Armijo step, backtracking and stopping test,
    and drops out of the evaluations once it has converged, failed its line
    search or run out of steps.  The energy engine sums each configuration
    on its own, so a start's trace does not depend on the other starts; it is
    bound to the kernel and the stack's shape once, before the first step.
    """
    pts, sign = np.array(stack), -1.0 if cfg.maximize else 1.0   # descend on sign * E
    energy_of, gradient_of = _bind(kernel, pts)
    energy = energy_of(pts)
    energies = [[e] for e in energy.tolist()]
    step, converged = np.full(len(pts), cfg.step_size), np.zeros(len(pts), dtype=bool)
    active = np.arange(len(pts))
    for it in range(cfg.steps + 1):     # the pass after the last step only tests convergence
        if not active.size:
            break
        grad = _tangent_gradient(kernel, gradient_of, pts[active])
        gnorm2 = np.add.reduce((grad * grad).reshape(active.size, -1), 1)
        stop = np.sqrt(gnorm2) <= cfg.stop_tol
        converged[active[stop]] = True
        if it == cfg.steps:
            break
        active, direction, gnorm2 = active[~stop], -sign * grad[~stop], gnorm2[~stop]
        t, search = step[active], np.arange(active.size)   # positions in active still searching
        for _ in range(60):
            if not search.size:
                break
            rows = active[search]
            cand = _renormalize(pts[rows] + t[search, None, None] * direction[search])
            cand_energy = energy_of(cand)
            ok = sign * (cand_energy - energy[rows]) <= -_ARMIJO * t[search] * gnorm2[search]
            pts[rows[ok]], energy[rows[ok]] = cand[ok], cand_energy[ok]
            search = search[~ok]
            t[search] *= _BACKTRACK
        accepted = np.ones(active.size, dtype=bool)
        accepted[search] = False
        active, t = active[accepted], t[accepted]
        for b in active:
            energies[b].append(float(energy[b]))
        step[active] = np.minimum(t / _BACKTRACK, cfg.step_size)
    return [OptimizationTrace(e, PointConfiguration(p), bool(c), len(e) - 1)
            for e, p, c in zip(energies, pts, converged)]


def optimize_discrete(kernel: Kernel, n_points: int, d: int, cfg: OptimizerConfig,
                      initial=None) -> OptimizationTrace:
    """Minimize (or maximize) the discrete energy over N points on S^{d-1}.

    Random initialization from the config seed unless ``initial`` is
    given; each of its rows must be finite and nonzero, and is projected
    to the sphere.  The result's final energy is an upper bound on the
    infimum (lower bound on the supremum when maximizing); no optimality
    claim is made.  This is :func:`multistart` with one start.
    """
    if initial is None:
        return multistart(kernel, n_points, d, cfg, starts=1)
    pts = np.array(getattr(initial, "points", initial), dtype=float)
    if n_points < 1 or d < 2 or pts.shape != (n_points, d):
        raise ValueError(f"initial configuration must have shape ({n_points}, {d}), "
                         "with n_points >= 1 and d >= 2")
    norms = np.linalg.norm(pts, axis=1)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
    if bad.size:
        raise ValueError(f"initial row {bad[0]} cannot be projected to the sphere: "
                         f"its norm is {float(norms[bad[0]])}; rows must be finite and nonzero")
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
            local_min_ok=gap >= -1e-10,
            alpha_residual=float(np.min(residuals)),
            mixture=g,
        ))
    return out
