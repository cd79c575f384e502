import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from whardy import decomp, geometry, treecover, whitney
from whardy.errors import ConnectivityError, EmptyDecompositionError, ParameterError

# Every property test replays the same examples on every run and machine.
settings.register_profile("whardy", deadline=None, derandomize=True, database=None)
settings.load_profile("whardy")


@pytest.fixture(scope="session")
def unit_square():
    return geometry.make_domain("unit_square")


@pytest.fixture(scope="session")
def l_shape():
    return geometry.make_domain("l_shape")


@pytest.fixture(scope="session")
def slit_square():
    return geometry.make_domain("slit_square")


@pytest.fixture(scope="session")
def koch2():
    return geometry.make_domain("koch_prefractal", level=2)


@pytest.fixture(scope="session")
def koch3():
    return geometry.make_domain("koch_prefractal", level=3)


@pytest.fixture(scope="session")
def square_decs(unit_square):
    return {lv: whitney.whitney_decompose(unit_square, lv) for lv in (5, 6, 7)}


@pytest.fixture(scope="session")
def square_trees(square_decs):
    return {lv: treecover.build_tree(dec, (0.5, 0.5)) for lv, dec in square_decs.items()}


@pytest.fixture(scope="session")
def square_dec6(square_decs):
    return square_decs[6]


@pytest.fixture(scope="session")
def square_tree6(square_trees):
    return square_trees[6]


def csr_lists(csr) -> list:
    """Row lists of a CSR pair (ptr, idx)."""
    ptr, idx = csr
    flat = idx.tolist()
    return [flat[a:b] for a, b in itertools.pairwise(ptr.tolist())]


def expanded_boxes(dec, factor=17 / 16):
    """(N, 2, 2) world boxes [lo, hi] of the cubes scaled by ``factor``
    about their centers."""
    side = dec.sides[:, None]
    center = np.asarray(dec.frame.origin) + dec.indices * side + side / 2.0
    half = factor * side / 2.0
    return np.stack([center - half, center + half], axis=1)


def random_mean_zero(tree, grid, seed):
    """Random values on the covered cells, exactly mean-zero there."""
    rng = np.random.default_rng(seed)
    return decomp.covered_mean_zero(grid, rng.standard_normal(grid.dims))


collar_probe = decomp.collar_probe


def oracle_a_tree(parent, ell, beta, p, theta, ndim=2):
    """Exhaustive path/shadow enumeration of the tree Hardy constant."""
    n = len(parent)
    q = p / (p - 1)
    b = np.asarray(ell) ** ndim
    nu = np.asarray(ell) ** beta

    def path(t):
        out = []
        while parent[t] >= 0:
            out.append(t)
            t = parent[t]
        return out

    anc = {t: set(path(t)) for t in range(n)}
    root = next(t for t in range(n) if parent[t] < 0)
    best, arg = 0.0, root
    for t in range(n):
        if t == root:
            continue
        S = sum(b[s] ** (-q / p) * nu[s] ** (-q) for s in anc[t])
        shadow = [s for s in range(n) if t in anc[s] or s == t]
        T = 0.0
        for s in shadow:
            Ss = sum(b[r] ** (-q / p) * nu[r] ** (-q) for r in anc[s])
            T += b[s] * nu[s] ** p * Ss ** ((p / q) * (1 - 1 / theta))
        v = S ** (1 / (theta * q)) * T ** (1 / p)
        if v > best:
            best, arg = v, t
    return best, arg


@st.composite
def star_polygons(draw, snap=False):
    """Random star-shaped simple polygons around the origin. With ``snap``
    the vertices sit on the 1/8 lattice, so y values repeat and horizontal
    edges occur."""
    n = draw(st.integers(3, 16))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.25, 1.0), min_size=n, max_size=n)))
    angles = np.cumsum(gaps) * (2 * math.pi / gaps.sum())
    assume(np.diff(np.concatenate([[0.0], angles])).max() < 0.9 * math.pi)
    verts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    if snap:
        verts = np.round(verts * 8.0) / 8.0
    try:
        return geometry.PolygonalDomain(verts, name="star")
    except ParameterError:
        assume(False)


def star_tree(dom, max_level=6):
    """The Whitney tree of a drawn polygon; a draw whose truncated
    decomposition is empty or disconnected is rejected."""
    try:
        return treecover.build_tree(whitney.whitney_decompose(dom, max_level))
    except (EmptyDecompositionError, ConnectivityError):
        assume(False)
