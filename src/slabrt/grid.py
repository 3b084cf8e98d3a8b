"""Spectral collocation on [0, 1]: Chebyshev-Lobatto nodes, barycentric
differentiation matrices up to fourth order, Clenshaw-Curtis rules on n and 2n nodes."""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmall

MIN_NODES = 16
MAX_NODES = 1024  # a grid holds about a dozen dense n x n matrices
_COARSE_NODES = 32  # the fixed points' coarse start; 24 measured about as fast, 48 slower


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Collocation data on [0, 1].

    nodes ascend with nodes[0] == 0 and nodes[-1] == 1 exactly.  D1 is the
    barycentric differentiation matrix of the global interpolant; D2..D4 are
    its matrix powers.  w are Clenshaw-Curtis weights summing to 1.
    fine_nodes, fine_w are the 2n-node Clenshaw-Curtis rule and resample the
    2n x n matrix from node values to their interpolant at fine_nodes.
    """

    n: int
    nodes: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    D3: np.ndarray
    D4: np.ndarray
    w: np.ndarray
    fine_nodes: np.ndarray
    fine_w: np.ndarray
    resample: np.ndarray

    @functools.cached_property
    def _from_coarse(self) -> np.ndarray:
        """(n - 2) x _COARSE_NODES matrix from node values on _coarse_grid() to
        their interpolant at these interior nodes, barycentric_eval's matrix."""
        cg = _coarse_grid()
        return _interpolation_matrix(cg.nodes, lobatto_barycentric_weights(cg.n),
                                     self.nodes[1:-1])


def chebyshev_lobatto_nodes(n: int) -> np.ndarray:
    """Gauss-Lobatto points mapped to [0, 1], ascending, endpoints exact."""
    j = np.arange(n)
    # sine form keeps the node set exactly symmetric about 1/2 and its ends exactly 0 and 1
    x = np.sin(np.pi * (n - 1 - 2 * j) / (2 * (n - 1)))
    return 0.5 * (1.0 - x)


def lobatto_barycentric_weights(n: int) -> np.ndarray:
    """Closed-form barycentric weights for the Lobatto node family.

    Affine maps rescale all weights by a common factor, so the classic
    alternating-sign pattern with halved endpoints is valid on [0, 1] too.
    """
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights for an arbitrary set of distinct nodes.

    The pairwise differences are rescaled by 4 / span, the inverse
    logarithmic capacity of the interval, so the products stay well inside
    the floating-point range for a few hundred nodes.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    rescale = 4.0 / (nodes[-1] - nodes[0])
    w = np.empty(n)
    for j in range(n):
        w[j] = 1.0 / np.prod((nodes[j] - np.delete(nodes, j)) * rescale)
    return w


def differentiation_matrix(nodes: np.ndarray, bary_w: np.ndarray) -> np.ndarray:
    """First-derivative collocation matrix from the barycentric formula.

    Diagonal entries use the negative-sum trick, which keeps the matrix
    exact on constants regardless of roundoff in the off-diagonal part.
    """
    nodes = np.asarray(nodes, dtype=float)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (bary_w[None, :] / bary_w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights on [0, 1] for the n Lobatto nodes (sum = 1)."""
    N = n - 1
    theta = np.pi * np.arange(n) / N
    v = np.ones(n - 2)
    for k in range(1, (N + 1) // 2):
        v -= 2.0 * np.cos(2.0 * k * theta[1:-1]) / (4 * k * k - 1)
    if N % 2 == 0:
        v -= np.cos(N * theta[1:-1]) / (N * N - 1)
    w = np.full(n, 1.0 / (N * N if N % 2 else N * N - 1))
    w[1:-1] = 2.0 * v / N
    return 0.5 * w


def build_grid(n: int) -> SpectralGrid:
    """Assemble nodes, differentiation matrices D1..D4 and both quadrature rules.

    Raises GridTooSmall for n < 16: the quadratic forms involve fourth-order
    derivatives and boundary traces that degenerate on coarser grids.
    """
    if n < MIN_NODES:
        raise GridTooSmall(f"need at least {MIN_NODES} nodes, got {n}")
    nodes = chebyshev_lobatto_nodes(n)
    bary_w = lobatto_barycentric_weights(n)
    D1 = differentiation_matrix(nodes, bary_w)
    D2 = D1 @ D1
    D3 = D2 @ D1
    D4 = D2 @ D2
    fine_nodes = chebyshev_lobatto_nodes(2 * n)
    return SpectralGrid(n=n, nodes=nodes, D1=D1, D2=D2, D3=D3, D4=D4,
                        w=clenshaw_curtis_weights(n), fine_nodes=fine_nodes,
                        fine_w=clenshaw_curtis_weights(2 * n),
                        resample=_interpolation_matrix(nodes, bary_w, fine_nodes))


@functools.cache
def _coarse_grid() -> SpectralGrid:
    return build_grid(_COARSE_NODES)


def _interpolation_matrix(nodes: np.ndarray, bary_w: np.ndarray, x) -> np.ndarray:
    """Points-by-nodes matrix mapping node values to the barycentric
    interpolant at the points x; a point that coincides with a node gets
    the exact unit row."""
    diff = np.asarray(x, dtype=float)[:, None] - nodes[None, :]
    hit_i, hit_j = np.nonzero(diff == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        C = bary_w[None, :] / diff
        R = C / C.sum(axis=1)[:, None]
    R[hit_i, :] = 0.0
    R[hit_i, hit_j] = 1.0
    return R


def _binary_exponent(x) -> int:
    """e with 2^(e-1) <= max|x| < 2^e, 0 for zeros: x 2^-e is exact barring underflow."""
    return int(np.frexp(np.max(np.abs(x)))[1])


def barycentric_eval(nodes: np.ndarray, bary_w: np.ndarray, values: np.ndarray, x) -> np.ndarray:
    """Evaluate the interpolating polynomial at x (scalar or array).

    Points that coincide with a node return the node value exactly.
    """
    x = np.asarray(x, dtype=float)
    out = _interpolation_matrix(nodes, bary_w, np.atleast_1d(x)) @ values
    return float(out[0]) if x.ndim == 0 else out
