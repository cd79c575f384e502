"""Box and Assouad dimension estimates from covering numbers.

Covering counts come from a scan greedy with a farthest-admissible-center
rule: walk the points in lexicographic order and cover each first uncovered
point u by a ball centered at the point of the target farthest from u among
those within distance r of u (so the ball still covers u but reaches ~2r
past it). The center count is a genuine r-cover, hence an upper bound on
the true covering number; the same scan at radius 2r with centers at the
uncovered points themselves yields a 2r-separated set whose size is a lower
bound. Both bounds are reported.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import ParameterError
from .geometry import PolygonalDomain


@dataclass(frozen=True)
class CoverTarget:
    """Finite point cloud standing in for the set whose dimension is estimated."""

    points: np.ndarray  # (N, d)
    label: str
    spacing: float = 0.0  # sample spacing for curve targets (0 for explicit sets)
    note: str = ""

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if len(pts) == 0:
            raise ParameterError("cover target must be nonempty")
        object.__setattr__(self, "points", pts)


def boundary_target(dom: PolygonalDomain, r_min: float) -> CoverTarget:
    """Dense arc-length sample of the boundary, spacing <= r_min / 4."""
    if r_min <= 0:
        raise ParameterError("r_min must be positive")
    per = geometry.perimeter(dom)
    n = max(8, int(math.ceil(per / (r_min / 4.0))))
    note = ""
    if dom.name.startswith("koch_prefractal"):
        note = (
            "prefractal: polygon dimensions are 1 at scales below the feature "
            "size; coarser scales give the fractal reading"
        )
    return CoverTarget(geometry.sample_boundary(dom, n), label=dom.name,
                       spacing=per / n, note=note)


def point_set_target(points, label: str) -> CoverTarget:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = np.stack([pts, np.zeros_like(pts)], axis=1)
    return CoverTarget(pts, label=label)


def inverse_reciprocal_set(kmax: int) -> CoverTarget:
    """The calibration set {0} union {1/k : k <= kmax} on the line."""
    return point_set_target(
        np.concatenate([[0.0], 1.0 / np.arange(1, kmax + 1)]),
        label=f"reciprocals_{kmax}",
    )


@dataclass
class DimensionEstimate:
    kind: str  # "box" | "assouad"
    value: float
    slope: float
    intercept: float
    r_squared: float
    residual_max: float
    scales: list  # (r, R) pairs actually used
    slopes: list = field(default_factory=list)  # per-(center, R) Assouad slopes
    note: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "value": self.value,
                "slope": self.slope,
                "intercept": self.intercept,
                "r_squared": self.r_squared,
                "residual_max": self.residual_max,
                "scales": [list(s) for s in self.scales],
                "slopes": list(self.slopes),
                "note": self.note,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# greedy covering


def _lex_sorted(points: np.ndarray) -> np.ndarray:
    return points[np.lexsort((points[:, 1], points[:, 0]))]


def _scan_cover_count(pts_lex: np.ndarray, r: float, reach: bool = True) -> int:
    """Number of balls placed by the first-uncovered scan greedy.

    With ``reach`` the ball covering the first uncovered point u is centered
    at the admissible point farthest from u; without it the center is u
    itself, which makes the centers pairwise more than r apart (packing).

    Each ball looks only at the points with x in [x - r', x + r'], a
    contiguous run of the lex order, for r' = r widened by a relative 1e-9:
    a point farther out in x has a squared distance above r^2 even after
    rounding. So the candidates, their order, the argmax and the count are
    those of a scan over all points.
    """
    n = len(pts_lex)
    covered = np.zeros(n, dtype=bool)
    r2 = r * r
    xs, rw = pts_lex[:, 0], r * (1.0 + 1e-9)
    first = np.searchsorted(xs, xs - rw).tolist()  # window of each point
    stop = np.searchsorted(xs, xs + rw, side="right").tolist()
    count = 0
    ptr = 0
    while ptr < n:
        if covered[ptr]:
            ptr += 1
            continue
        a, b = first[ptr], stop[ptr]
        diff = pts_lex[a:b] - pts_lex[ptr]
        du2 = (diff * diff).sum(axis=1)
        if reach:
            du2[covered[a:b]] = np.inf
            cand = np.where(du2 <= r2)[0]
            k = a + int(cand[du2[cand].argmax()])
            a, b = first[k], stop[k]
            diff = pts_lex[a:b] - pts_lex[k]
            covered[a:b] |= (diff * diff).sum(axis=1) <= r2
        else:
            covered[a:b] |= du2 <= r2
        count += 1
    return count


def farthest_point_spread(points: np.ndarray, k: int):
    """Indices of k points spread out by the farthest-point traversal."""
    start = int(np.lexsort((points[:, 1], points[:, 0]))[0])
    mind = np.linalg.norm(points - points[start], axis=1)
    centers = [start]
    while len(centers) < min(k, len(points)):
        i = int(mind.argmax())
        if mind[i] == 0.0:
            break
        centers.append(i)
        np.minimum(mind, np.linalg.norm(points - points[i], axis=1), out=mind)
    return centers


def covering_counts(points: np.ndarray, r: float) -> tuple[int, int]:
    pts = _lex_sorted(points)
    cover = _scan_cover_count(pts, r, reach=True)
    packing = _scan_cover_count(pts, 2.0 * r, reach=False)
    return cover, packing


def covering_number(target: CoverTarget, r: float, region=None):
    """Greedy covering count at radius r plus a 2r-packing lower bound.

    ``region`` restricts the target to a closed ball (center, R). Returns
    (cover, packing); the true covering number lies between them.
    """
    if r <= 0:
        raise ParameterError("r must be positive")
    pts = target.points
    if region is not None:
        x, R = region
        if R <= r:
            raise ParameterError("region radius must exceed r")
        x = np.asarray(x, dtype=float)
        pts = pts[np.linalg.norm(pts - x, axis=1) <= R]
        if len(pts) == 0:
            return 0, 0
    return covering_counts(pts, r)


# ---------------------------------------------------------------------------
# dimensions


def _fit(xs, ys):
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2, float(np.abs(ys - pred).max())


def box_dimension(target: CoverTarget, r_min: float, r_max: float,
                  num_scales: int) -> DimensionEstimate:
    """Least-squares slope of log N_r against -log r on a geometric scale grid."""
    if not 0 < r_min < r_max:
        raise ParameterError("need 0 < r_min < r_max")
    if num_scales < 4:
        raise ParameterError("need at least 4 scales")
    rs = np.geomspace(r_max, r_min, num_scales)
    pts = _lex_sorted(target.points)
    counts = np.array([_scan_cover_count(pts, r) for r in rs])
    usable = counts >= 1
    if usable.sum() < 4:
        raise ParameterError("degenerate fit: fewer than 4 usable scales")
    xs = -np.log(rs[usable])
    ys = np.log(counts[usable])
    slope, intercept, r2, resid = _fit(xs, ys)
    diam = float(np.linalg.norm(target.points.max(0) - target.points.min(0)))
    return DimensionEstimate(
        kind="box",
        value=slope,
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        residual_max=resid,
        scales=[(float(r), diam) for r in rs[usable]],
        note=target.note,
    )


def assouad_dimension(target: CoverTarget, r_grid, R_grid,
                      centers: int) -> DimensionEstimate:
    """Localized covering-number slopes, aggregated at the 95th percentile.

    ``r_grid`` holds ratios rho in (0, 1); each window (x, R) is covered at
    radii r = rho * R and the regression of log N_r on log(R / r) gives one
    slope per window. The raw maximum over windows is noise-dominated, so
    the 95th percentile of the slope distribution is reported.
    """
    ratios = np.asarray(sorted(r_grid, reverse=True), dtype=float)
    if len(ratios) < 2 or np.any(ratios <= 0) or np.any(ratios >= 1):
        raise ParameterError("r_grid must hold at least two ratios in (0, 1)")
    Rs = np.asarray(sorted(R_grid, reverse=True), dtype=float)
    if centers < 1:
        raise ParameterError("need at least one center")
    pts = target.points
    center_ids = farthest_point_spread(pts, centers)

    slopes, rows, scales = [], [], []
    for ci in center_ids:
        x = pts[ci]
        dist = np.linalg.norm(pts - x, axis=1)
        for R in Rs:
            sub = pts[dist <= R]
            if len(sub) < 2:
                continue
            sub = _lex_sorted(sub)
            counts = np.array(
                [_scan_cover_count(sub, rho * R) for rho in ratios]
            )
            if counts[-1] <= counts[0]:
                continue
            xs = np.log(1.0 / ratios)
            ys = np.log(counts)
            slope = float(np.polyfit(xs, ys, 1)[0])
            slopes.append(slope)
            for rho, c in zip(ratios, counts):
                rows.append((x[0], x[1], R, rho * R, int(c), slope))
                scales.append((float(rho * R), float(R)))
    if not slopes:
        raise ParameterError("insufficient samples for Assouad estimate")
    value = float(np.percentile(slopes, 95))
    est = DimensionEstimate(
        kind="assouad",
        value=value,
        slope=value,
        intercept=0.0,
        r_squared=float("nan"),
        residual_max=float("nan"),
        scales=scales,
        slopes=sorted(slopes),
        note=target.note,
    )
    est.rows = rows
    return est


def write_csv(est: DimensionEstimate, path) -> None:
    """CSV rows (center_x, center_y, R, r, N_r, slope) for Assouad runs."""
    rows = getattr(est, "rows", [])
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["center_x", "center_y", "R", "r", "N_r", "slope"])
        for row in rows:
            wr.writerow(row)
