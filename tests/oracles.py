"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: plain Python loops over ordered
tuples and raw-moment Monte Carlo.  These oracles never call the library
paths they are used to check.
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
