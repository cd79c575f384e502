import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from whardy import decomp, divergence, geometry, treecover, whitney
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


def dense_point_edge_dist_sq(points, edges):
    """(M, E) squared distances of every point to every edge."""
    a = edges[:, 0]
    ab = edges[:, 1] - edges[:, 0]
    ap = points[:, None, :] - a[None, :, :]
    denom = (ab * ab).sum(axis=1)
    denom = np.where(denom == 0, 1.0, denom)
    t = np.clip((ap * ab[None, :, :]).sum(axis=2) / denom, 0.0, 1.0)
    diff = ap - t[:, :, None] * ab[None, :, :]
    return (diff * diff).sum(axis=2)


def dense_parity(dom, points):
    """Ray-casting parity of (M, 2) points over every edge: whether a
    rightward ray from each point crosses the boundary an odd number of
    times. The oracle of every inside test."""
    v = dom.vertices
    w = np.roll(v, -1, axis=0)
    px, py = points[:, 0:1], points[:, 1:2]
    cond = (v[:, 1] > py) != (w[:, 1] > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xin = (w[:, 0] - v[:, 0]) * (py - v[:, 1]) / (w[:, 1] - v[:, 1]) + v[:, 0]
    return (cond & (px < xin)).sum(axis=1) % 2 == 1


def clip_by_side(p, q, lo, hi):
    """Liang-Barsky clipping one box side at a time, as a sign-scaled
    parameter against each bound: the contact kernel's oracle."""
    d = q - p
    shape = np.broadcast_shapes(p.shape, q.shape, lo.shape, hi.shape)[:-1]
    t0, t1 = np.zeros(shape), np.ones(shape)
    alive = np.ones(shape, dtype=bool)
    for axis in range(2):
        p0, dd = p[..., axis], d[..., axis]
        for sign, bound in ((-1.0, lo[..., axis]), (1.0, hi[..., axis])):
            num, den = sign * (bound - p0), sign * dd
            par = den == 0
            alive &= ~(par & (num < 0))
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(par, 0.0, num / den)
            t0 = np.where(~par & (den < 0), np.maximum(t0, t), t0)
            t1 = np.where(~par & (den > 0), np.minimum(t1, t), t1)
    return alive & (t0 <= t1)


def local_inside(dom, points):
    """Open containment by the local rule, as ``fields.make_grid`` masks
    cells: the side of the nearest edge, more than BOUNDARY_EPS away."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dist, edge = geometry.nearest_edges(dom, pts)
    return geometry.side_of_edges(dom, pts[:, 0], pts[:, 1], edge) & (dist > geometry.BOUNDARY_EPS)


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


def dense_kkt_oracle(cells, f_vals, ny, h):
    """Direct dense solve of the local divergence problem: the minimal
    face-Laplacian energy velocities with div u = f on the patch."""
    cellset = {int(c): k for k, c in enumerate(cells)}
    nc = len(cells)
    ii = cells // ny
    jj = cells % ny
    fx_ids, fy_ids = {}, {}
    for k in range(nc):
        i, j = int(ii[k]), int(jj[k])
        if i > 0 and (i - 1) * ny + j in cellset:
            fx_ids.setdefault((i, j), len(fx_ids))
        if j > 0 and i * ny + (j - 1) in cellset:
            fy_ids.setdefault((i, j), len(fy_ids))
    nfx = len(fx_ids)
    nf = nfx + len(fy_ids)

    def lap(ids):
        n = len(ids)
        A = 4.0 * np.eye(n)
        for (i, j), a in ids.items():
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                b = ids.get((i + di, j + dj))
                if b is not None:
                    A[a, b] = -1.0
        return A

    A = np.zeros((nf, nf))
    A[:nfx, :nfx] = lap(fx_ids)
    A[nfx:, nfx:] = lap(fy_ids)
    B = np.zeros((nc, nf))
    for k in range(nc):
        i, j = int(ii[k]), int(jj[k])
        for key, sign in (((i + 1, j), 1.0), ((i, j), -1.0)):
            a = fx_ids.get(key)
            if a is not None:
                B[k, a] = sign
        for key, sign in (((i, j + 1), 1.0), ((i, j), -1.0)):
            a = fy_ids.get(key)
            if a is not None:
                B[k, nfx + a] = sign
    K = np.zeros((nf + nc - 1, nf + nc - 1))
    K[:nf, :nf] = A
    K[:nf, nf:] = B[1:].T
    K[nf:, :nf] = B[1:]
    rhs = np.concatenate([np.zeros(nf), h * f_vals[1:]])
    sol = np.linalg.solve(K, rhs)
    return fx_ids, fy_ids, sol[:nf], nfx


def face_dicts(cells, ny, system, u):
    """A patch's x- and y-face velocities ``u`` (its row of
    ``divergence.local_div_solve`` under ``system``) as {(i, j): value}
    dicts in input cell order; face (i, j) is the low face of cell (i, j)."""
    ij = [tuple(p) for p in np.stack(np.divmod(np.asarray(cells), ny), axis=1).tolist()]
    return (dict(zip(itertools.compress(ij, system.has_fx), u[:system.nfx].tolist())),
            dict(zip(itertools.compress(ij, system.has_fy), u[system.nfx:].tolist())))


def solve_patch(cells, f_vals, ny, h, node=-1):
    """One patch solved as ``divergence.solve_divergence`` solves each node:
    its mean checked, its system factored through ``_patch_systems`` and
    ``local_div_solve`` run on a block of one. Returns its x- and y-face
    dicts (see ``face_dicts``) and its energy."""
    cells = np.asarray(cells, dtype=np.int64)
    f_vals = np.asarray(f_vals, dtype=float)
    divergence._check_mean_zero(f_vals, [0, len(cells)], h)
    system = next(divergence._patch_systems(cells, [0, len(cells)], ny, [node]))
    u, energy = divergence.local_div_solve(cells[None], f_vals[None], ny, h, [node], system)
    return *face_dicts(cells, ny, system, u[0]), float(energy[0])


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
