"""Independent checks of whardy's artifacts.

Every check recomputes the quantity it checks with the code in this file
(exact integer geometry, brute-force pair tests, explicit path/shadow
enumeration, its own quadrature). Program outputs serve only as inputs:
artifact files, the cube list, and the polygon vertices of a preset.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

EXPANSION = Fraction(17, 16)
THETA_GRID = (1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0)
KOCH_DIM = math.log(4.0) / math.log(3.0)


# ---------------------------------------------------------------------------
# artifact loading


def load_whitney(path) -> dict:
    obj = json.loads(Path(path).read_text())
    cubes = obj["cubes"]
    if [c["id"] for c in cubes] != list(range(len(cubes))):
        raise ValueError("cube ids are not 0..N-1 in order")
    return {
        "origin": np.asarray(obj["frame"]["origin"], dtype=float),
        "size": float(obj["frame"]["size"]),
        "levels": np.array([c["level"] for c in cubes], dtype=np.int64),
        "indices": np.array([c["index"] for c in cubes], dtype=np.int64).reshape(-1, 2),
        "dist": np.array([c["dist"] for c in cubes], dtype=float),
        "neighbors": obj["neighbors"],
        "face_neighbors": obj["face_neighbors"],
    }


def load_tree(path) -> dict:
    obj = json.loads(Path(path).read_text())
    return {"root": int(obj["root"]), "parent": np.asarray(obj["parent"], dtype=np.int64),
            "K": obj["K"], "B": obj["B"]}


def load_grid_bin(path) -> tuple[dict, np.ndarray]:
    """Header and (nx, ny) values of a fields.dump_grid file; header gains 'mask'."""
    raw = Path(path).read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl].decode())
    nx, ny = header["dims"]
    values = np.frombuffer(raw[nl + 1:], dtype="<f8").reshape(nx, ny)
    flat = np.empty(nx * ny, dtype=bool)
    pos, cur = 0, bool(header["mask_first"])
    for run in header["mask_rle"]:
        flat[pos:pos + run] = cur
        pos += run
        cur = not cur
    if pos != nx * ny:
        raise ValueError("mask run lengths do not cover the grid")
    header["mask"] = flat.reshape(nx, ny)
    return header, values


def load_decomposition_bin(path) -> tuple[dict, list]:
    raw = Path(path).read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl].decode())
    body = raw[nl + 1:]
    pieces = []
    for entry in header["index"]:
        off, cnt = entry["offset"], entry["count"]
        idx = np.frombuffer(body, dtype="<i8", count=cnt, offset=off)
        val = np.frombuffer(body, dtype="<f8", count=cnt, offset=off + 8 * cnt)
        pieces.append((idx, val))
    return header, pieces


def load_jsonl(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


# ---------------------------------------------------------------------------
# plane geometry (own implementations)


def _edges(verts):
    v = np.asarray(verts, dtype=float)
    return v, np.roll(v, -1, axis=0)


def points_in_polygon(points, verts) -> np.ndarray:
    """Even-odd ray casting toward +x."""
    a, b = _edges(verts)
    pts = np.asarray(points, dtype=float)
    out = np.zeros(len(pts), dtype=bool)
    for k in range(len(a)):
        (x1, y1), (x2, y2) = a[k], b[k]
        if y1 == y2:
            continue
        straddle = (y1 > pts[:, 1]) != (y2 > pts[:, 1])
        xcross = x1 + (pts[:, 1] - y1) * (x2 - x1) / (y2 - y1)
        out ^= straddle & (pts[:, 0] < xcross)
    return out


def points_to_polygon(points, verts) -> np.ndarray:
    """Distance from each point to the polygon boundary."""
    a, b = _edges(verts)
    pts = np.asarray(points, dtype=float)
    best = np.full(len(pts), np.inf)
    for k in range(len(a)):
        d = b[k] - a[k]
        rel = pts - a[k]
        t = np.clip((rel * d).sum(axis=1) / (d * d).sum(), 0.0, 1.0)
        off = rel - t[:, None] * d
        best = np.minimum(best, np.sqrt((off * off).sum(axis=1)))
    return best


def _segment_meets_box(p, q, lo, hi) -> np.ndarray:
    """Closed segment pq against closed boxes (separating-axis test)."""
    seg_lo, seg_hi = np.minimum(p, q), np.maximum(p, q)
    overlap = np.all((seg_lo <= hi) & (seg_hi >= lo), axis=1)
    d = q - p
    corners = [lo, hi, np.stack([lo[:, 0], hi[:, 1]], 1), np.stack([hi[:, 0], lo[:, 1]], 1)]
    side = [d[0] * (c[:, 1] - p[1]) - d[1] * (c[:, 0] - p[0]) for c in corners]
    all_pos = np.all([s > 0 for s in side], axis=0)
    all_neg = np.all([s < 0 for s in side], axis=0)
    return overlap & ~all_pos & ~all_neg


def boxes_to_polygon(lo, hi, verts) -> np.ndarray:
    """Exact distance from closed boxes to the polygon boundary.

    Zero when an edge meets the box; otherwise the closest pair involves a
    box corner or an edge endpoint.
    """
    a, b = _edges(verts)
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    corners = [lo, hi, np.stack([lo[:, 0], hi[:, 1]], 1), np.stack([hi[:, 0], lo[:, 1]], 1)]
    best = np.full(len(lo), np.inf)
    for k in range(len(a)):
        p, q = a[k], b[k]
        meets = _segment_meets_box(p, q, lo, hi)
        d = q - p
        cand = [np.hypot(*np.maximum(np.maximum(lo - e, 0.0), e - hi).T) for e in (p, q)]
        for c in corners:
            rel = c - p
            t = np.clip(rel @ d / (d @ d), 0.0, 1.0)
            off = rel - t[:, None] * d
            cand.append(np.hypot(off[:, 0], off[:, 1]))
        best = np.minimum(best, np.where(meets, 0.0, np.min(cand, axis=0)))
    return best


# ---------------------------------------------------------------------------
# Whitney cubes


def finest_spans(wh) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer [lo, hi) of every cube in units of the finest cube side."""
    L = int(wh["levels"].max())
    shift = (L - wh["levels"])[:, None]
    return wh["indices"] << shift, (wh["indices"] + 1) << shift, L


def touch_pairs(lo, hi, chunk=512) -> tuple[set, set, int]:
    """All touching cube pairs by brute force: (neighbors, face neighbors, overlaps)."""
    n = len(lo)
    nb, face, overlaps = set(), set(), 0
    for s in range(0, n, chunk):
        ox = np.minimum(hi[s:s + chunk, None, 0], hi[None, :, 0]) - np.maximum(
            lo[s:s + chunk, None, 0], lo[None, :, 0])
        oy = np.minimum(hi[s:s + chunk, None, 1], hi[None, :, 1]) - np.maximum(
            lo[s:s + chunk, None, 1], lo[None, :, 1])
        rows = np.arange(s, min(n, s + chunk))[:, None]
        other = rows != np.arange(n)[None, :]
        touch = other & (ox >= 0) & (oy >= 0)
        overlaps += int((other & (ox > 0) & (oy > 0)).sum())
        is_face = touch & ((ox > 0) | (oy > 0))
        for i, j in zip(*np.nonzero(touch)):
            nb.add((s + int(i), int(j)))
        for i, j in zip(*np.nonzero(is_face)):
            face.add((s + int(i), int(j)))
    return nb, face, overlaps


def check_whitney(wh, verts, pairs, rng, sample=256) -> list:
    """Sandwich, exact distances on a seeded sample, disjointness, containment, adjacency."""
    fails = []
    n = len(wh["levels"])
    side = wh["size"] * np.exp2(-wh["levels"].astype(float))
    diam = side * math.sqrt(2.0)
    lo = wh["origin"] + wh["indices"] * side[:, None]
    hi = lo + side[:, None]
    dist = wh["dist"]
    if not np.all((dist >= diam * (1 - 1e-12)) & (dist <= 4 * diam * (1 + 1e-12))):
        fails.append("Whitney sandwich diam <= d <= 4 diam violated")
    pick = np.sort(rng.choice(n, size=min(n, sample), replace=False))
    own = boxes_to_polygon(lo[pick], hi[pick], verts)
    err = np.abs(own - dist[pick])
    if err.max() > 1e-12 * max(1.0, float(own.max())):
        fails.append(f"cube distance mismatch {err.max():.3e} on a sampled cube")
    centers = (lo + hi) / 2.0
    if not points_in_polygon(centers, verts).all() or not (dist > 0).all():
        fails.append("a cube is not inside the polygon")
    # dyadic cubes are disjoint unless one contains the other
    keys = set(zip(wh["levels"].tolist(), wh["indices"][:, 0].tolist(),
                   wh["indices"][:, 1].tolist()))
    if len(keys) != n:
        fails.append("duplicate cubes")
    for lev, i, j in keys:
        for up in range(1, lev + 1):
            if (lev - up, i >> up, j >> up) in keys:
                fails.append(f"cube ({lev}, {i}, {j}) lies inside an ancestor")
                break
    nb, face, overlaps = pairs
    if overlaps:
        fails.append(f"{overlaps} overlapping cube pairs")
    got_nb = {(t, s) for t, lst in enumerate(wh["neighbors"]) for s in lst}
    got_face = {(t, s) for t, lst in enumerate(wh["face_neighbors"]) for s in lst}
    if got_nb != nb:
        fails.append(f"neighbor lists differ from the touch test on {len(got_nb ^ nb)} pairs")
    if got_face != face:
        fails.append(f"face-neighbor lists differ on {len(got_face ^ face)} pairs")
    return fails


# ---------------------------------------------------------------------------
# tree covering


def _ancestors_walk(parent):
    """Yield (node ids, ancestor-or-self ids) level by level up to the root."""
    cur = np.arange(len(parent))
    for _ in range(len(parent) + 1):
        live = cur >= 0
        if not live.any():
            return
        yield np.nonzero(live)[0], cur[live]
        cur = np.where(live, parent[np.maximum(cur, 0)], -1)
    raise ValueError("parent array has a cycle")


def tree_depth(parent, root) -> np.ndarray:
    depth = np.zeros(len(parent), dtype=np.int64)
    for nodes, anc in _ancestors_walk(parent):
        depth[nodes[anc != root]] += 1
    return depth


def bfs_distance(face_pairs, root, n) -> np.ndarray:
    adj = [[] for _ in range(n)]
    for t, s in face_pairs:
        adj[t].append(s)
    dist = np.full(n, -1, dtype=np.int64)
    dist[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def expansion_constant(parent, lo, hi) -> Fraction:
    """Smallest concentric scaling of each cube containing its shadow's hull, maximized."""
    h_lo, h_hi = lo.copy(), hi.copy()
    for nodes, anc in _ancestors_walk(parent):
        np.minimum.at(h_lo, anc, lo[nodes])
        np.maximum.at(h_hi, anc, hi[nodes])
    ctr2 = lo + hi
    reach = np.maximum(2 * h_hi - ctr2, ctr2 - 2 * h_lo).max(axis=1)
    width = hi[:, 0] - lo[:, 0]
    best = Fraction(1)
    for r, w in zip(reach.tolist(), width.tolist()):
        if r * best.denominator > best.numerator * w:
            best = Fraction(r, w)
    return best


def shadow_counts(parent, levels, root) -> tuple[np.ndarray, np.ndarray]:
    """W[t, i]: shadow cubes of size class i; P[t, i]: path cubes below the root."""
    n, nlev = len(parent), int(levels.max()) + 1
    W = np.zeros((n, nlev), dtype=np.int64)
    P = np.zeros((n, nlev), dtype=np.int64)
    for nodes, anc in _ancestors_walk(parent):
        np.add.at(W, (anc, levels[nodes]), 1)
        keep = anc != root
        np.add.at(P, (nodes[keep], levels[anc[keep]]), 1)
    return W, P


def shadow_constant(W, levels, lam) -> float:
    i = np.arange(W.shape[1])[None, :]
    weights = np.exp2(-(i - levels[:, None]) * lam)
    return float(np.where(W > 0, W * weights, 0.0).max())


def transfer_boxes32(tree, wh) -> np.ndarray:
    """Transfer boxes as integers in units of (finest side)/32; shape (N, 2, 2), root -1."""
    L = int(wh["levels"].max())
    unit = wh["size"] * 2.0 ** (-L) / 32.0
    out = np.full((len(tree["B"]), 2, 2), -1, dtype=np.int64)
    for t, b in enumerate(tree["B"]):
        if b is None:
            continue
        c, hw = np.asarray(b["center"]), np.asarray(b["half_widths"])
        raw = np.stack([(c - hw - wh["origin"]) / unit, (c + hw - wh["origin"]) / unit])
        rounded = np.round(raw)
        if np.abs(raw - rounded).max() > 1e-6:
            raise ValueError(f"transfer box of node {t} is off the 1/32 lattice")
        out[t] = rounded.astype(np.int64)
    return out


def check_transfer_boxes(boxes, parent, lo32, hi32) -> list:
    """Pairwise disjoint open boxes, each inside closed U_t and U_parent."""
    fails = []
    nodes = np.nonzero(parent >= 0)[0]
    blo, bhi = boxes[nodes, 0], boxes[nodes, 1]
    if np.any(bhi <= blo):
        fails.append("empty transfer box")
    for s in range(0, len(nodes), 512):
        hit = np.all((blo[s:s + 512, None] < bhi[None]) & (blo[None] < bhi[s:s + 512, None]),
                     axis=2)
        hit[np.arange(hit.shape[0]), np.arange(s, s + hit.shape[0])] = False
        if hit.any():
            i, j = np.argwhere(hit)[0]
            fails.append(f"transfer boxes of nodes {nodes[s + i]} and {nodes[j]} overlap")
            break
    # U in doubled coordinates: center2 +- (17/16) * width
    for who in (nodes, parent[nodes]):
        w = hi32[who, 0] - lo32[who, 0]
        ctr2 = lo32[who] + hi32[who]
        reach = (w * EXPANSION.numerator // EXPANSION.denominator)[:, None]
        inside = (2 * blo >= ctr2 - reach) & (2 * bhi <= ctr2 + reach)
        if not inside.all():
            fails.append("a transfer box leaves U_t or U_parent")
            break
    return fails


def u_over_b(levels, size, boxes_world) -> float:
    """max over non-root nodes of |U_t| / |B_t| in world units."""
    worst = 0.0
    for t, b in enumerate(boxes_world):
        if b is None:
            continue
        side = size * 2.0 ** (-int(levels[t]))
        area_b = 4.0 * b["half_widths"][0] * b["half_widths"][1]
        worst = max(worst, (float(EXPANSION) * side) ** 2 / area_b)
    return worst


def check_tree(wh, tree, summary, pairs) -> list:
    """Parents, depths, K, transfer boxes, C_emp and the chain count."""
    fails = []
    parent, root = tree["parent"], tree["root"]
    n = len(parent)
    lo, hi, _ = finest_spans(wh)
    face = pairs[1]
    if parent[root] != -1 or int((parent < 0).sum()) != 1:
        fails.append("tree does not have exactly one root")
    if any((t, int(parent[t])) not in face for t in range(n) if t != root):
        fails.append("a parent is not a face neighbor")
    if not np.array_equal(tree_depth(parent, root), bfs_distance(face, root, n)):
        fails.append("tree depth differs from BFS distance")
    K = expansion_constant(parent, lo, hi)
    if tree["K"] != float(K) or summary["K"] != float(K):
        fails.append(f"K reported {summary['K']!r}, exact {K} = {float(K)!r}")
    boxes = transfer_boxes32(tree, wh)
    fails += check_transfer_boxes(boxes, parent, 32 * lo, 32 * hi)
    W, P = shadow_counts(parent, wh["levels"], root)
    c_emp = shadow_constant(W, wh["levels"], summary["lambda"])
    if abs(c_emp - summary["C_emp"]) > 1e-12 * c_emp:
        fails.append(f"C_emp reported {summary['C_emp']!r}, recomputed {c_emp!r}")
    if int(P.max()) != summary["max_chain_count"]:
        fails.append(f"max chain count {summary['max_chain_count']} != {int(P.max())}")
    return fails


# ---------------------------------------------------------------------------
# Hardy constants


def path_matrix(parent, root) -> np.ndarray:
    """M[t, s] = 1 when s lies on the path from t up to, excluding, the root."""
    n = len(parent)
    M = np.zeros((n, n))
    for nodes, anc in _ancestors_walk(parent):
        keep = anc != root
        M[nodes[keep], anc[keep]] = 1.0
    return M


def a_tree_enumerated(M, ell, beta, p, theta, root, ndim=2) -> float:
    """Tree Hardy constant by explicit sums over paths (rows of M) and shadows (columns)."""
    q = p / (p - 1.0)
    b, nu = ell**ndim, ell**beta
    S = M @ (b ** (-q / p) * nu ** (-q))
    e = b * nu**p * np.where(S > 0, S, 1.0) ** ((p / q) * (1.0 - 1.0 / theta))
    e[root] = 0.0
    T = M.T @ e
    star = np.arange(len(ell)) != root
    return float((S[star] ** (1.0 / (theta * q)) * T[star] ** (1.0 / p)).max())


def chain_constant(pre_terms, suf_terms, p) -> float:
    """sup over non-first t of (prefix sum to t)^(1/q) (suffix sum from t)^(1/p)."""
    q = p / (p - 1.0)
    n = len(pre_terms)
    return max(sum(pre_terms[:t + 1]) ** (1.0 / q) * sum(suf_terms[t:]) ** (1.0 / p)
               for t in range(1, n))


def check_a_tree(parent, levels, root, p, rows) -> list:
    """rows: (beta, value) pairs at one level; each must match enumeration to 1e-10."""
    fails = []
    M = path_matrix(parent, root)
    ell = np.exp2(-levels.astype(float))
    for beta, value in rows:
        best = min(a_tree_enumerated(M, ell, beta, p, th, root) for th in THETA_GRID)
        if not abs(value - best) <= 1e-10 * best:
            fails.append(f"A_tree(beta={beta}) = {value!r}, enumeration {best!r}")
    return fails


def check_hardy(rows, classification) -> list:
    fails = []
    if not all(math.isfinite(r["A_tree"]) and r["A_tree"] > 0 for r in rows):
        fails.append("a non-finite or non-positive A_tree")
    for key, info in classification.items():
        beta = float(key)
        if beta <= -0.7 + 1e-9 and info["class"] != "divergent":
            fails.append(f"beta={key} classed {info['class']}, expected divergent")
        if beta >= -0.3 - 1e-9 and info["class"] != "convergent":
            fails.append(f"beta={key} classed {info['class']}, expected convergent")
    return fails


# ---------------------------------------------------------------------------
# divergence and decomposition


def paint_cells(wh, header, mask) -> tuple[np.ndarray, int]:
    """Cube id of every masked grid cell (-1 uncovered); grid cell is side_L / 4."""
    h = header["h"]
    origin = np.asarray(header["origin"])
    off = (origin - wh["origin"]) / h
    i0 = np.round(off)
    if np.abs(off - i0).max() > 1e-6:
        raise ValueError("grid is not aligned to the Whitney frame")
    L = int(wh["levels"].max())
    nx, ny = mask.shape
    assign = np.full((nx, ny), -1, dtype=np.int64)
    for t, (lev, (ci, cj)) in enumerate(zip(wh["levels"].tolist(), wh["indices"].tolist())):
        w = 4 << (L - lev)
        x0, y0 = ci * w - int(i0[0]), cj * w - int(i0[1])
        assign[max(x0, 0):max(x0 + w, 0), max(y0, 0):max(y0 + w, 0)] = t
    assign[~mask] = -1
    return assign, (int(i0[0]), int(i0[1]))


def faces_from_centered(ux, uy) -> tuple[np.ndarray, np.ndarray]:
    """Face velocities from cell averages, starting from a zero first face."""
    nx, ny = ux.shape
    fx = np.zeros((nx + 1, ny))
    fy = np.zeros((nx, ny + 1))
    for i in range(nx):
        fx[i + 1] = 2.0 * ux[i] - fx[i]
    for j in range(ny):
        fy[:, j + 1] = 2.0 * uy[:, j] - fy[:, j]
    return fx, fy


def check_divergence(fx, fy, h, target, covered) -> list:
    """Outer faces vanish; div u equals the target on covered cells, 0 elsewhere."""
    fails = []
    scale = float(np.abs(target).max())
    tol = 1e-8 * scale
    outer = max(np.abs(fx[-1]).max(), np.abs(fy[:, -1]).max()) / h
    if outer > tol:
        fails.append(f"outer face velocity {outer:.3e} (relative to h) is not zero")
    div = (fx[1:] - fx[:-1] + fy[:, 1:] - fy[:, :-1]) / h
    err = np.abs(np.where(covered, div - target, div)).max()
    if err > tol:
        fails.append(f"div u differs from the data by {err:.3e} (scale {scale:.3e})")
    return fails


def collar_probe(assign, levels) -> np.ndarray:
    """Mean-zeroed indicator of the finest cubes on covered cells."""
    covered = assign >= 0
    fine = np.nonzero(levels == levels.max())[0]
    vals = np.where(covered & np.isin(assign, fine), 1.0, 0.0)
    vals[covered] -= vals[covered].mean()
    return vals


def seeded_field(assign, seed) -> np.ndarray:
    """The decompose subcommand's input: standard normals, mean-zeroed on covered cells."""
    covered = assign >= 0
    rng = np.random.default_rng(seed)
    vals = np.where(covered, rng.standard_normal(assign.shape), 0.0)
    vals[covered] -= vals[covered].mean()
    return vals


def check_decomposition(pieces, g, h, wh, frame_offset) -> list:
    """Pieces sum to g, integrate to zero, and sit on cells meeting U_t."""
    fails = []
    nx, ny = g.shape
    rec = np.zeros(nx * ny)
    for idx, val in pieces:
        np.add.at(rec, idx, val)
    linf = float(np.abs(g).max())
    l1 = float(np.abs(g).sum()) * h * h
    err = float(np.abs(rec - g.ravel()).max())
    if err > 1e-12 * linf:
        fails.append(f"pieces sum to g only within {err:.3e} (|g|_inf {linf:.3e})")
    worst = max(abs(float(val.sum())) * h * h for _, val in pieces)
    if worst > 1e-10 * l1:
        fails.append(f"a piece integrates to {worst:.3e} (|g|_1 {l1:.3e})")
    L = int(wh["levels"].max())
    i0, j0 = frame_offset
    for t, (idx, _) in enumerate(pieces):
        w = 4 << (L - int(wh["levels"][t]))  # cube side in cells
        cx = 2 * int(wh["indices"][t, 0]) * w + w  # doubled center, cell units
        cy = 2 * int(wh["indices"][t, 1]) * w + w
        reach = float(EXPANSION) * w  # U_t half side, doubled, in cells (exact)
        gi, gj = idx // ny + i0, idx % ny + j0
        ok = ((2 * gi <= cx + reach) & (2 * gi + 2 >= cx - reach)
              & (2 * gj <= cy + reach) & (2 * gj + 2 >= cy - reach))
        if not ok.all():
            fails.append(f"piece of node {t} leaves U_t")
            break
    return fails


# ---------------------------------------------------------------------------
# grid quadrature


class Grid:
    """Cell-centered grid over the polygon's bounding box, as whardy's make_grid lays it."""

    def __init__(self, verts, h):
        verts = np.asarray(verts, dtype=float)
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        self.h = h
        self.dims = tuple(int(math.ceil((hi[k] - lo[k]) / h - 1e-12)) for k in range(2))
        xs = lo[0] + (np.arange(self.dims[0]) + 0.5) * h
        ys = lo[1] + (np.arange(self.dims[1]) + 0.5) * h
        self.X, self.Y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([self.X.ravel(), self.Y.ravel()], axis=1)
        self.dist = points_to_polygon(pts, verts).reshape(self.dims)
        inside = points_in_polygon(pts, verts).reshape(self.dims)
        self.mask = inside & (self.dist > 1e-12)

    def sample(self, fn) -> np.ndarray:
        return np.where(self.mask, fn(self.X, self.Y), 0.0)

    def norm(self, v, p, power, mask=None) -> float:
        sel = (self.mask if mask is None else mask) & (self.dist >= self.h / 2.0)
        return float(np.sum(np.abs(v[sel]) ** p * self.dist[sel] ** power) * self.h**2) ** (1 / p)

    def mean_zero(self, v, weight_power) -> np.ndarray:
        sel = self.mask & (self.dist >= self.h / 2.0)
        w = self.dist[sel] ** weight_power
        return np.where(self.mask, v - np.sum(v[sel] * w) / np.sum(w), 0.0)

    def differences(self, v, mask) -> tuple[list, np.ndarray]:
        """Central differences inside, one-sided next to the mask's edge."""
        v = np.where(mask, v, 0.0)
        out_mask = mask.copy()
        comps = []
        for axis in range(2):
            pm = np.zeros_like(mask)
            nm = np.zeros_like(mask)
            pv = np.zeros_like(v)
            nv = np.zeros_like(v)
            head = (slice(1, None), slice(None)) if axis == 0 else (slice(None), slice(1, None))
            tail = (slice(None, -1), slice(None)) if axis == 0 else (slice(None), slice(None, -1))
            pm[head], pv[head] = mask[tail], v[tail]
            nm[tail], nv[tail] = mask[head], v[head]
            d = np.select([pm & nm, nm & ~pm, pm & ~nm],
                          [(nv - pv) / (2 * self.h), (nv - v) / self.h, (v - pv) / self.h], 0.0)
            out_mask &= pm | nm
            comps.append(d)
        return [np.where(out_mask, d, 0.0) for d in comps], out_mask


def trig_family(count, seed) -> list:
    """The poincare subcommand's test functions, drawn from the seed."""
    rng = np.random.default_rng(seed)
    fns = []
    for _ in range(count):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        ph = rng.uniform(0, 2 * math.pi, (3, 3, 2))

        def fn(x, y, a=a, b=b, ph=ph):
            return sum(a[i, j] * np.cos(i * x + j * y + ph[i, j, 0])
                       + b[i, j] * np.sin(i * x - j * y + ph[i, j, 1])
                       for i in range(3) for j in range(3))
        fns.append(fn)
    return fns


def korn_fields(count, seed) -> list:
    """The korn subcommand's cubic polynomial fields, drawn from the seed."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        cu = rng.standard_normal((4, 4))
        cv = rng.standard_normal((4, 4))

        def poly(x, y, c):
            return sum(c[i, j] * x**i * y**j for i in range(4) for j in range(4) if i + j <= 3)
        out.append((lambda x, y, c=cu: poly(x, y, c), lambda x, y, c=cv: poly(x, y, c)))
    return out


def korn_lhs(grid, fu, fv, p, beta) -> float:
    """Weighted norm of D u after removing the weighted mean rotation."""
    (ux, uy), m = grid.differences(grid.sample(fu), grid.mask)
    (vx, vy), _ = grid.differences(grid.sample(fv), grid.mask)
    eta = np.where(m, 0.5 * (uy - vx), 0.0)
    sel = m & (grid.dist >= grid.h / 2.0)
    w = grid.dist[sel] ** (beta * p)
    eta0 = eta - np.sum(eta[sel] * w) / np.sum(w)
    du = np.sqrt(ux**2 + vy**2 + 2.0 * (0.5 * (uy + vx)) ** 2 + 2.0 * eta0**2)
    return grid.norm(du, p, beta * p, mask=m)


def check_lhs(name, reported, recomputed) -> list:
    if abs(reported - recomputed) > 1e-9 * abs(recomputed):
        return [f"{name} lhs reported {reported!r}, recomputed {recomputed!r}"]
    return []
