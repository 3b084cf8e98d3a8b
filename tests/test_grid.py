import ast
from pathlib import Path

import numpy as np
import pytest

from slabrt import build_grid
from slabrt.errors import GridTooSmall
from slabrt.grid import (
    MAX_NODES,
    _binary_exponent,
    barycentric_eval,
    barycentric_weights,
    chebyshev_lobatto_nodes,
    clenshaw_curtis_weights,
    differentiation_matrix,
)


def test_nodes_endpoints_exact(grid64):
    assert grid64.nodes[0] == 0.0
    assert grid64.nodes[-1] == 1.0
    assert np.all(np.diff(grid64.nodes) > 0)


def test_sine_form_gives_exact_endpoints():
    # sin(+-pi/2) rounds to +-1 exactly, so the ends are 0 and 1 at every size
    for n in range(2, 2 * MAX_NODES + 1):
        y = chebyshev_lobatto_nodes(n)
        assert (y[0], y[-1]) == (0.0, 1.0), n


def test_nodes_symmetric(grid64):
    assert np.allclose(grid64.nodes + grid64.nodes[::-1], 1.0, atol=1e-16, rtol=0)


def test_too_small_rejected():
    with pytest.raises(GridTooSmall):
        build_grid(15)


def test_weights_sum_to_one():
    for n in (16, 33, 64, 128):
        g = build_grid(n)
        assert abs(g.w.sum() - 1.0) <= 1e-13


@pytest.mark.parametrize("n", [16, 33, 64, 128])
def test_grid_carries_doubled_rule(n):
    g = build_grid(n)
    assert g.fine_nodes.shape == g.fine_w.shape == (2 * n,)
    assert g.resample.shape == (2 * n, n)
    # the interpolant of y is y itself, so resampling the nodes gives the fine nodes
    assert np.max(np.abs(g.resample @ g.nodes - g.fine_nodes)) <= 1e-15
    assert abs(g.fine_w.sum() - 1.0) <= 1e-13


@pytest.mark.parametrize("k", range(11))
def test_quadrature_exact_on_monomials(grid64, k):
    # int_0^1 y^k dy = 1/(k+1)
    assert abs(float(grid64.w @ grid64.nodes**k) - 1.0 / (k + 1)) <= 1e-10


def test_quadrature_y_squared_small_grid():
    g = build_grid(16)
    assert abs(float(g.w @ g.nodes**2) - 1.0 / 3.0) <= 1e-12


def test_quadrature_exponential():
    # analytic integral of e^y over [0, 1] is e - 1
    g = build_grid(64)
    assert abs(float(g.w @ np.exp(g.nodes)) - (np.e - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_d1_exact_on_monomials(n):
    g = build_grid(n)
    for k in range(1, min(n - 1, 10) + 1):
        err = np.max(np.abs(g.D1 @ g.nodes**k - k * g.nodes ** (k - 1)))
        assert err <= 1e-9, (n, k, err)


def test_d1_on_sine():
    # analytic derivative oracle: (sin(pi y))' = pi cos(pi y)
    g = build_grid(32)
    err = np.max(np.abs(g.D1 @ np.sin(np.pi * g.nodes) - np.pi * np.cos(np.pi * g.nodes)))
    assert err <= 1e-10


def test_d2_annihilates_constants():
    g = build_grid(64)
    assert np.max(np.abs(g.D2 @ np.ones(g.n))) <= 1e-8


def test_higher_matrices_are_powers(grid64):
    assert np.array_equal(grid64.D2, grid64.D1 @ grid64.D1)
    assert np.array_equal(grid64.D3, grid64.D2 @ grid64.D1)
    assert np.array_equal(grid64.D4, grid64.D2 @ grid64.D2)


def test_curvature_integral_stable_under_doubling():
    # int |psi''|^2 for a fixed smooth function, evaluated spectrally
    vals = {}
    for n in (64, 128):
        g = build_grid(n)
        psi = np.sin(np.pi * g.nodes) * g.nodes * (1 - g.nodes)
        vals[n] = float(g.w @ (g.D2 @ psi) ** 2)
    assert abs(vals[128] - vals[64]) <= 1e-10 * abs(vals[128])


def test_barycentric_interpolation_roundtrip():
    g = build_grid(32)
    f = np.exp(g.nodes) * np.cos(3 * g.nodes)
    bw = barycentric_weights(g.nodes)
    xs = np.linspace(0, 1, 217)
    exact = np.exp(xs) * np.cos(3 * xs)
    assert np.max(np.abs(barycentric_eval(g.nodes, bw, f, xs) - exact)) <= 1e-12
    # node hits return node values exactly
    assert barycentric_eval(g.nodes, bw, f, g.nodes[7]) == f[7]


def test_differentiation_matrix_general_nodes():
    nodes = np.linspace(0, 1, 12)
    D = differentiation_matrix(nodes, barycentric_weights(nodes))
    assert np.max(np.abs(D @ nodes**3 - 3 * nodes**2)) <= 1e-10


def _two_branch_clenshaw_curtis(n):
    """Clenshaw-Curtis weights on [0, 1] with one cosine loop per parity of N = n - 1."""
    N = n - 1
    theta = np.pi * np.arange(n) / N
    w = np.empty(n)
    v = np.ones(n - 2)
    if N % 2 == 0:
        w[0] = w[-1] = 1.0 / (N * N - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[1:-1]) / (4 * k * k - 1)
        v -= np.cos(N * theta[1:-1]) / (N * N - 1)
    else:
        w[0] = w[-1] = 1.0 / (N * N)
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[1:-1]) / (4 * k * k - 1)
    w[1:-1] = 2.0 * v / N
    return 0.5 * w


def test_clenshaw_curtis_one_loop_matches_two_branches():
    # bit for bit; no golden case uses an odd n, so this is the one check of that branch
    for n in [*range(3, 201), 256, 384, 512, 1024, 2048]:
        assert np.array_equal(clenshaw_curtis_weights(n), _two_branch_clenshaw_curtis(n)), n


@pytest.mark.parametrize("x, e", [([0.0], 0), ([0.5, -0.25], 0), ([-1.0], 1), ([0.75, 3.0], 2),
                                  ([1e-310], -1029), ([np.finfo(float).max], 1024)])
def test_binary_exponent_bounds_the_largest_magnitude(x, e):
    assert _binary_exponent(np.array(x)) == e
    m = np.max(np.abs(x))
    assert m == 0.0 or 0.5 <= np.ldexp(m, -e) < 1.0


def test_frexp_is_called_only_by_the_exponent_helper():
    # exact power-of-two scaling has one home, grid._binary_exponent
    src = Path(__file__).resolve().parent.parent / "src" / "slabrt"
    where = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = {id(n) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  and fn.name == "_binary_exponent" for n in ast.walk(fn)}
        where += [(path.name, id(n) in helper) for n in ast.walk(tree)
                  if "frexp" in (getattr(n, "attr", None), getattr(n, "id", None))]
    assert where == [("grid.py", True)]
