"""Sphere-constrained particle descent for discrete energies.

Projected gradient descent with Armijo backtracking and retraction: the
Euclidean gradient of the discrete energy is projected to the tangent
space at each particle, a step is taken, and the particles are
renormalized.  Runs are deterministic given the optimizer seed; energies
along an accepted trajectory never get worse (up to 1e-12).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import DiscreteMeasure, PointConfiguration, sample_sphere
from .kernels import Kernel, RieszKernel
from .energy import MixturePolynomial, _points_energy, _points_gradient, mixture_polynomial

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


def _needs_fd_fallback(kernel: Kernel, pts: np.ndarray) -> bool:
    if not (isinstance(kernel, RieszKernel) and kernel.s < 1.0):
        return False
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    np.fill_diagonal(dist, np.inf)
    return bool(np.min(dist) < 1e-12)


def _fd_point_gradient(kernel: Kernel, pts: np.ndarray, i: int) -> np.ndarray:
    d = pts.shape[1]
    grad = np.zeros(d)
    for c in range(d):
        plus = pts.copy()
        plus[i, c] += _FD_STEP
        minus = pts.copy()
        minus[i, c] -= _FD_STEP
        grad[c] = (_points_energy(kernel, plus) - _points_energy(kernel, minus)) / (2 * _FD_STEP)
    return grad


def _tangent_gradient(kernel: Kernel, pts: np.ndarray, mode: str, rows: slice) -> np.ndarray:
    """Tangent-space gradient of the discrete energy at the rows of ``pts``
    that ``rows`` selects.  Analytic mode falls back to finite
    differences, with a warning, where the kernel's gradient is singular."""
    if mode == "analytic" and _needs_fd_fallback(kernel, pts):
        warnings.warn("coincident points with a singular gradient; "
                      "falling back to finite differences", stacklevel=3)
        mode = "finite_difference"
    if mode == "analytic":
        grad = _points_gradient(kernel, pts)[rows]
    elif mode == "finite_difference":
        grad = np.stack([_fd_point_gradient(kernel, pts, i) for i in range(pts.shape[0])[rows]])
    else:
        raise ValueError(f"unknown gradient mode '{mode}'")
    x = pts[rows]
    return grad - np.sum(grad * x, axis=1)[:, None] * x


def energy_gradient(kernel: Kernel, config: PointConfiguration, i: int,
                    mode: str = "analytic") -> np.ndarray:
    """Tangent-space gradient of the discrete energy with respect to the
    i-th point.

    Analytic mode takes the exact gradient from the energy module;
    finite-difference mode uses central differences (step 1e-6) in ambient
    coordinates.  Both are projected onto the tangent space at the point.
    """
    pts = np.array(config.points)
    if not 0 <= i < pts.shape[0]:
        raise ValueError(f"point index {i} out of range")
    return _tangent_gradient(kernel, pts, mode, slice(i, i + 1))[0]


def _renormalize(pts: np.ndarray) -> np.ndarray:
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def optimize_discrete(kernel: Kernel, n_points: int, d: int, cfg: OptimizerConfig,
                      initial=None) -> OptimizationTrace:
    """Minimize (or maximize) the discrete energy over N points on S^{d-1}.

    Random initialization from the config seed unless ``initial`` is
    given.  The result's final energy is an upper bound on the infimum
    (lower bound on the supremum when maximizing); no optimality claim is
    made.
    """
    if n_points < 1 or d < 2:
        raise ValueError("need n_points >= 1 and d >= 2")
    if initial is None:
        pts = np.array(sample_sphere(d, n_points, cfg.seed).points)
    else:
        pts = np.array(getattr(initial, "points", initial), dtype=float)
        if pts.shape != (n_points, d):
            raise ValueError("initial configuration has the wrong shape")
        pts = _renormalize(pts)

    sign = -1.0 if cfg.maximize else 1.0   # descend on sign * E
    energy = _points_energy(kernel, pts)
    energies = [energy]
    step = cfg.step_size
    iterations = 0
    converged = False

    for _ in range(cfg.steps):
        grad = _tangent_gradient(kernel, pts, "analytic", slice(None))
        gnorm2 = float(np.sum(grad * grad))
        if np.sqrt(gnorm2) <= cfg.stop_tol:
            converged = True
            break
        direction = -sign * grad
        t = step
        accepted = False
        for _ in range(60):
            cand = _renormalize(pts + t * direction)
            cand_energy = _points_energy(kernel, cand)
            if sign * (cand_energy - energy) <= -_ARMIJO * t * gnorm2:
                accepted = True
                break
            t *= _BACKTRACK
        if not accepted:
            break
        pts, energy = cand, cand_energy
        energies.append(energy)
        iterations += 1
        step = min(t / _BACKTRACK, cfg.step_size)

    if not converged:
        final_grad = _tangent_gradient(kernel, pts, "analytic", slice(None))
        converged = float(np.linalg.norm(final_grad)) <= cfg.stop_tol
    return OptimizationTrace(energies, PointConfiguration(pts), converged, iterations)


def multistart(kernel: Kernel, n_points: int, d: int, cfg: OptimizerConfig,
               starts: int = 4) -> OptimizationTrace:
    """Best-of-k restarts with consecutive seeds (reported in seed order)."""
    if starts < 1:
        raise ValueError("need at least one start")
    best = None
    for k in range(starts):
        trace = optimize_discrete(kernel, n_points, d, replace(cfg, seed=cfg.seed + k))
        if best is None:
            best = trace
        elif cfg.maximize and trace.final_energy > best.final_energy:
            best = trace
        elif not cfg.maximize and trace.final_energy < best.final_energy:
            best = trace
    return best


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
