"""Cross-route agreement on random pair polynomials.

Seeded random polynomials -- arity 2-4, random monomials and exponents,
anchor points, signed coefficients -- are summed by the power-moment
route (also over spans of one atom), the dense tuple grid and the
plain-Python oracles, for mutual energies and for potentials with one and
two free slots.  Analytic
gradients are checked against central differences of the oracle, and the
moment route's cached programs against freshly built ones.
"""
import ast
import pathlib

import numpy as np
import pytest

import multipot
from multipot import DiscreteMeasure, area2, mutual_energy, potential, s011, sum_lift, vol2
from multipot import energy as energy_mod
from multipot.energy import PotentialKernel
from multipot.kernels import PairPolynomial, PolynomialKernel
from oracles import brute_mutual, measure_as_pairs, pair_poly_fn

SEEDS = range(24)


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _random_case(seed, min_arity=2):
    """A random pair-polynomial kernel, its oracle and signed measures."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    nslots = int(rng.integers(min_arity, 5))
    anchors = _unit_rows(rng, int(rng.integers(0, 3)), d)
    terms = {}
    for _ in range(int(rng.integers(1, 6))):
        mono = {}
        for _ in range(int(rng.integers(0, 4))):
            a, b = sorted(int(i) for i in rng.choice(nslots + len(anchors), 2, replace=False))
            if a < nslots:          # anchor-anchor pairs are never stored
                mono[(a, b)] = mono.get((a, b), 0) + int(rng.integers(1, 3))
        terms[tuple(sorted(mono.items()))] = float(rng.normal())
    kernel = PolynomialKernel("random", PairPolynomial(terms, nslots, anchors))
    sizes = rng.integers(1, 4, nslots)
    measures = [DiscreteMeasure(_unit_rows(rng, k, d), rng.normal(size=k)) for k in sizes]
    return kernel, pair_poly_fn(terms, anchors), measures, rng


def _close(value, ref):
    return value == pytest.approx(ref, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutual_energy_routes_agree(seed):
    kernel, fn, measures, _ = _random_case(seed)
    ref = brute_mutual(fn, [measure_as_pairs(m) for m in measures])
    assert _close(energy_mod._moment_sum(kernel.pair_poly, measures), ref)
    assert _close(energy_mod._dense_mutual(kernel, measures), ref)
    assert _close(mutual_energy(kernel, measures).value, ref)


@pytest.mark.parametrize("free", [1, 2])
@pytest.mark.parametrize("seed", SEEDS)
def test_potential_routes_agree(seed, free):
    kernel, fn, measures, rng = _random_case(seed, min_arity=free + 1)
    j = kernel.arity - free
    d = measures[0].dimension
    queries = _unit_rows(rng, 3 * free, d).reshape(3, free, d)
    ref = [brute_mutual(lambda *xs, q=q: fn(*xs, *q), [measure_as_pairs(m) for m in measures[:j]])
           for q in queries]
    moment = energy_mod._moment_sum(kernel.pair_poly, measures[:j], queries)
    dense = energy_mod._dense_potential(kernel.evaluate_grid, measures[:j], queries)
    routed = potential(kernel, measures[:j], queries)
    for values in (moment, dense, routed):
        assert all(_close(v, r) for v, r in zip(values, ref))


@pytest.mark.parametrize("seed", SEEDS)
def test_moment_tensors_summed_one_atom_at_a_time(seed, monkeypatch):
    # spans of one atom sum every measure's moment tensors: mutual energies and
    # potentials match the oracle, and gradients on fixed measures match the
    # gradients from one span; the gradient's own points always form one span
    kernel, fn, measures, rng = _random_case(seed, min_arity=3)
    poly, j, d = kernel.pair_poly, kernel.arity - 1, measures[0].dimension
    queries = _unit_rows(rng, 2, d)[:, None, :]
    slot = energy_mod._Atoms(_unit_rows(rng, 4, d), np.full(4, 0.25))

    def run():
        return [energy_mod._moment_sum(poly, measures),
                energy_mod._moment_sum(poly, measures[:j], queries),
                energy_mod._moment_gradient(poly, slot, measures[:1])]

    default = run()
    rows, powers = [], energy_mod._powers
    monkeypatch.setattr(energy_mod, "_SPAN_ENTRIES", 1)
    monkeypatch.setattr(energy_mod, "_powers", lambda x, keys: rows.append(len(x))
                        or powers(x, keys))
    energy, values, gradient = run()
    pairs = [measure_as_pairs(m) for m in measures]
    assert _close(energy, brute_mutual(fn, pairs))
    for value, q in zip(values, queries):
        assert _close(value, brute_mutual(lambda *xs: fn(*xs, *q), pairs[:j]))
    np.testing.assert_allclose(gradient, default[2], rtol=1e-12, atol=1e-12)
    assert set(rows) == {1, 2, 4}     # measure spans, the queries, the gradient's points


@pytest.mark.parametrize("seed", SEEDS)
def test_gradients_match_finite_differences(seed):
    kernel, fn, measures, rng = _random_case(seed)
    pts, weights = measures[0].atoms, measures[0].weights
    n, d = pts.shape

    def oracle(p, w):
        return brute_mutual(fn, [list(zip(w, p))] * kernel.arity)

    uniform = np.full(n, 1.0 / n)
    analytic = [
        (energy_mod._moment_gradient(kernel.pair_poly, energy_mod._Atoms(pts, weights)), weights),
        (energy_mod._bind(kernel, pts)[1](pts), uniform),
    ]
    eps = 1e-6
    for i, c in zip(rng.integers(0, n, 3), rng.integers(0, d, 3)):
        plus, minus = pts.copy(), pts.copy()
        plus[i, c] += eps
        minus[i, c] -= eps
        for grad, w in analytic:
            fd = (oracle(plus, w) - oracle(minus, w)) / (2 * eps)
            assert grad[i, c] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_configurations_sum_one_by_one(seed):
    # a (B, N, d) stack gives each configuration the bits it gets alone in
    # a stack of one, and the oracle's value
    kernel, fn, measures, rng = _random_case(seed)
    poly, arity, d = kernel.pair_poly, kernel.arity, measures[0].dimension
    stack = np.stack([_unit_rows(rng, 3, d) for _ in range(4)])
    w = rng.normal(size=3)
    energies = energy_mod._moment_sum(poly, [energy_mod._Atoms(stack, w)] * arity)
    grads = energy_mod._moment_gradient(poly, energy_mod._Atoms(stack, w))
    assert energies.shape == (4,) and grads.shape == stack.shape
    for b, pts in enumerate(stack):
        alone = energy_mod._Atoms(stack[b:b + 1], w)
        assert energies[b] == energy_mod._moment_sum(poly, [alone] * arity)[0]
        assert np.array_equal(grads[b], energy_mod._moment_gradient(poly, alone)[0])
        unstacked = energy_mod._Atoms(pts, w)
        ref = brute_mutual(fn, [list(zip(w, pts))] * arity)
        for value in (energies[b], energy_mod._moment_sum(poly, [unstacked] * arity)):
            assert value == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert np.allclose(grads[b], energy_mod._moment_gradient(poly, unstacked),
                           rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_fixed_slot_gradients(seed, monkeypatch):
    # the gradient of a potential kernel's discrete energy: fixed slots in
    # the moment engine, the dense route and central differences of the oracle
    kernel, fn, measures, rng = _random_case(seed, min_arity=3)
    j = int(rng.integers(1, kernel.arity - 1))
    fixed, free = measures[:j], kernel.arity - j
    pts = _unit_rows(rng, 3, measures[0].dimension)
    uniform = np.full(3, 1.0 / 3)
    moment = energy_mod._moment_gradient(kernel.pair_poly, energy_mod._Atoms(pts, uniform), fixed)
    stack = np.stack([pts, pts[::-1]])
    stacked = energy_mod._moment_gradient(kernel.pair_poly, energy_mod._Atoms(stack, uniform),
                                          fixed)
    alone = energy_mod._moment_gradient(kernel.pair_poly, energy_mod._Atoms(stack[:1], uniform),
                                        fixed)
    assert np.array_equal(stacked[:1], alone)
    for grad in (stacked[0], stacked[1][::-1]):
        assert np.allclose(grad, moment, rtol=1e-12, atol=1e-12)
    monkeypatch.setattr(energy_mod, "_route", lambda *args: None)
    dense = energy_mod._bind(PotentialKernel(kernel, fixed), pts)[1](pts)
    assert np.allclose(moment, dense, rtol=1e-12, atol=1e-12)

    def oracle(p):
        return brute_mutual(fn, [measure_as_pairs(m) for m in fixed]
                            + [list(zip(uniform, p))] * free)

    eps = 1e-6
    for i, c in zip(rng.integers(0, 3, 3), rng.integers(0, pts.shape[1], 3)):
        plus, minus = pts.copy(), pts.copy()
        plus[i, c] += eps
        minus[i, c] -= eps
        fd = (oracle(plus) - oracle(minus)) / (2 * eps)
        assert moment[i, c] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_programs_match_fresh_ones(seed):
    # one polynomial through every call layout -- unstacked, stacked, with
    # fixed slots and with queries -- in two interleaved
    # orders on a shared cache; each result equals its value from an empty
    # cache, bit for bit
    kernel, _, measures, rng = _random_case(seed, min_arity=3)
    poly, n, d = kernel.pair_poly, kernel.arity, measures[0].dimension
    pts = _unit_rows(rng, 3, d)
    w = rng.normal(size=3)
    plain, stacked = energy_mod._Atoms(pts, w), energy_mod._Atoms(np.stack([pts, pts[::-1]]), w)
    queries = [_unit_rows(rng, 3 * r, d).reshape(3, r, d) for r in (1, 2)]
    calls = [
        lambda: energy_mod._moment_sum(poly, measures),
        lambda: energy_mod._moment_sum(poly, [plain] * n),
        lambda: energy_mod._moment_gradient(poly, plain),
        lambda: energy_mod._moment_sum(poly, [stacked] * n),
        lambda: energy_mod._moment_gradient(poly, stacked),
        lambda: energy_mod._moment_sum(poly, measures[:1] + [stacked] * (n - 1)),
        lambda: energy_mod._moment_gradient(poly, stacked, measures[:1]),
        lambda: energy_mod._moment_gradient(poly, plain, measures[:1]),
        lambda: energy_mod._moment_sum(poly, measures[:n - 1], queries[0]),
        lambda: energy_mod._moment_sum(poly, measures[:n - 2], queries[1]),
    ]
    energy_mod._plan.cache_clear()
    forward = [call() for call in calls]
    backward = [call() for call in calls[::-1]][::-1]
    for call, a, b in zip(calls, forward, backward):
        energy_mod._plan.cache_clear()
        fresh = np.asarray(call()).tobytes()
        assert np.asarray(a).tobytes() == fresh and np.asarray(b).tobytes() == fresh


def test_equal_polynomials_built_apart_share_one_program():
    # programs are keyed by slot count and terms, not by the polynomial
    # object: a second area2() finds the first one's program
    pts = _unit_rows(np.random.default_rng(5), 6, 3)
    energy_mod._plan.cache_clear()
    first, second = area2(), area2()
    assert first.pair_poly is not second.pair_poly
    (energy_a, gradient_a), (energy_b, gradient_b) = [energy_mod._bind(k, pts)
                                                      for k in (first, second)]
    info = energy_mod._plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert energy_a(pts) == energy_b(pts)
    assert gradient_a(pts).tobytes() == gradient_b(pts).tobytes()


@pytest.mark.parametrize("kernel, layout, environments, distinct", [
    (s011(), "AAA", 9, 3), (area2(), "AAA", 21, 5), (vol2(), "AAA", 9, 4),
    (sum_lift(area2(), 4), "AAAA", 60, 21),
])
def test_programs_list_each_distinct_contraction_once(kernel, layout, environments, distinct):
    # on a stack einsum sums no letter, so an environment and its two operands
    # swapped are one contraction; three operands are never reordered
    prog = energy_mod._program(kernel.pair_poly, layout)
    assert len(prog.environments) == environments
    assert len(prog.contractions) == distinct
    assert sorted({c for _, _, c, _ in prog.environments}) == list(range(distinct))
    if kernel.arity == 4:
        assert all(len(operands) == 3 for _, _, operands in prog.contractions)


_ENERGY_INTERNALS = {"_route", "_program", "_plan", "slot_keys"}


def _names(path: pathlib.Path) -> set:
    """Every name, attribute and imported name the module's code references."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_only_the_energy_module_sees_routes_and_programs():
    # the routing rule and its programs stay inside energy.py: other modules
    # consume exact sums without deciding anything about them
    package = pathlib.Path(multipot.__file__).parent
    assert _ENERGY_INTERNALS <= _names(package / "energy.py")
    leaks = {path.name: sorted(_names(path) & _ENERGY_INTERNALS)
             for path in sorted(package.glob("*.py")) if path.name != "energy.py"}
    assert {name: used for name, used in leaks.items() if used} == {}


def _empty_probes(source: str) -> list:
    """The lines of the calls to ``_check_points`` that pass it an ``np.empty(...)``."""
    def named(node, name):
        return getattr(node, "attr", getattr(node, "id", None)) == name
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and named(node.func, "_check_points")
            and any(isinstance(sub, ast.Call) and named(sub.func, "empty")
                    for arg in node.args for sub in ast.walk(arg))]


def test_no_kernel_check_is_probed_with_an_empty_array():
    # a kernel's arity and dimension are checked on a shape (Kernel._check_shape),
    # not on an array allocated to carry one
    assert _empty_probes("kernel._check_points(np.empty((kernel.arity, d)))") == [1]
    assert _empty_probes("kernel._check_shape((kernel.arity, d))") == []
    package = pathlib.Path(multipot.__file__).parent
    probes = {path.name: _empty_probes(path.read_text(encoding="utf-8"))
              for path in sorted(package.rglob("*.py"))}
    assert {name: lines for name, lines in probes.items() if lines} == {}


def _batch_definitions(source: str) -> list:
    """(class, method) for each ``evaluate_batch`` or ``gradient_batch`` a class defines."""
    return [(node.name, item.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.FunctionDef)
            and item.name in ("evaluate_batch", "gradient_batch")]


def test_only_the_base_kernel_evaluates_batches():
    # every kernel implements the grid methods alone; a batch of tuples is the
    # grid of its one-point slot arrays, defined once on Kernel
    assert _batch_definitions("class K:\n    def gradient_batch(self): pass") == [
        ("K", "gradient_batch")]
    package = pathlib.Path(multipot.__file__).parent
    found = [(path.name, *d) for path in sorted(package.rglob("*.py"))
             for d in _batch_definitions(path.read_text(encoding="utf-8"))]
    assert found == [("kernels.py", "Kernel", "evaluate_batch"),
                     ("kernels.py", "Kernel", "gradient_batch")]


_VALIDATOR_PREFIXES = ("_check_", "_as_", "_coerce_")


def _validators(source: str) -> list:
    """(class or None, name) for each function or method the source defines
    whose name starts with one of the validator prefixes."""
    tree, owner = ast.parse(source), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owner.update({id(item): node.name for item in node.body})
    return [(owner.get(id(node)), node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith(_VALIDATOR_PREFIXES)]


def test_argument_checks_live_in_geometry():
    # every private validator is defined in geometry.py, the one home of the
    # argument checks; a kernel's dimension contract, Kernel._check_shape, is the
    # one method exempt
    assert _validators("def _coerce_x(): pass\nclass K:\n    def _as_y(self): pass") == [
        (None, "_coerce_x"), ("K", "_as_y")]
    package = pathlib.Path(multipot.__file__).parent
    assert {name for _, name in _validators((package / "geometry.py").read_text())} >= {
        "_check_points", "_check_measures", "_check_count"}
    found = [(path.name, *v) for path in sorted(package.rglob("*.py")) if path.name != "geometry.py"
             for v in _validators(path.read_text(encoding="utf-8"))]
    assert found == [("kernels.py", "Kernel", "_check_shape")]
