"""Mobility metrics: entropy (eq. 1) and radius of gyration (eq. 2).

Both metrics are computed per user per day from the time spent attached
to each visited cell tower (§2.3):

- **Temporal-uncorrelated entropy** characterizes the heterogeneity of
  visitation patterns: ``e = −Σ_j p(j) log p(j)`` where ``p(j)`` is the
  fraction of the (observed) time spent at the j-th visited tower.
- **Radius of gyration** measures how far from the centre of mass the
  user's visits spread. The paper prints

      g = sqrt( 1/N Σ_j (t_j l_j − l_cm)² ),  l_cm = 1/N Σ_j t_j l_j

  which is dimensionally inconsistent as written (time × location); the
  standard literature form (refs [2, 17] of the paper) is the
  *time-weighted* rms distance

      g = sqrt( Σ_j w_j ‖l_j − l_cm‖² ),  w_j = t_j / Σ t_j,
      l_cm = Σ_j w_j l_j.

  Both are implemented (``mode="weighted"`` — the default used for all
  figures — and ``mode="paper"``, the literal formula with t in
  day-fractions); the gyration ablation benchmark compares them.

Inputs are vectorized: ``dwell_s`` is an ``(num_rows, K)`` matrix of
seconds per anchor tower and ``sites`` the matching tower ids. Several
anchors may point at the same physical tower; entropy merges them
(``p(j)`` is per *tower*), whereas gyration is invariant to the split.

Everything that depends only on the anchors — the per-row sort by tower
id and its group boundaries for entropy, the planar projection for
gyration — lives in an :class:`AnchorPlan`. A caller that evaluates the
same anchors on many dwell matrices (every day of a shard, every 4-hour
bin) builds the plan once; :func:`mobility_entropy` and
:func:`radius_of_gyration` are one-shot wrappers over the same plan.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AnchorPlan", "mobility_entropy", "radius_of_gyration"]


def _validate(dwell_s: np.ndarray, companion: np.ndarray, name: str) -> None:
    if dwell_s.ndim != 2:
        raise ValueError("dwell_s must be 2-D (rows × anchors)")
    if companion.shape != dwell_s.shape:
        raise ValueError(f"{name} must match dwell_s shape {dwell_s.shape}")


class AnchorPlan:
    """The dwell-independent half of both kernels for one anchor set.

    ``sites`` (tower ids) prepare :meth:`entropy`; ``lats``/``lons``
    (tower coordinates) prepare :meth:`gyration`. All are
    ``(rows, K)`` and a plan may carry either half or both. Each
    per-matrix call then runs only the dwell-dependent operations, so
    its result is bitwise the one-shot kernel's.
    """

    def __init__(
        self,
        sites: np.ndarray | None = None,
        lats: np.ndarray | None = None,
        lons: np.ndarray | None = None,
    ) -> None:
        shapes = {
            np.shape(part) for part in (sites, lats, lons) if part is not None
        }
        if len(shapes) != 1:
            raise ValueError("an anchor plan needs sites or coordinates "
                             "of one (rows, K) shape")
        self.shape: tuple[int, int] = shapes.pop()
        rows, k = self.shape
        self._gather = self._starts = self._group_row = None
        if sites is not None:
            # Merge anchors that share a physical tower: sort each row
            # by tower id and segment-sum equal runs, on the flattened
            # array. ``_gather`` is that sort as flat indices.
            sites = np.asarray(sites)
            order = np.argsort(sites, axis=1, kind="stable")
            flat_sites = np.take_along_axis(sites, order, axis=1).ravel()
            row_of = np.repeat(np.arange(rows), k)
            new_group = np.ones(rows * k, dtype=bool)
            same_row = row_of[1:] == row_of[:-1]
            new_group[1:] = ~(same_row & (flat_sites[1:] == flat_sites[:-1]))
            self._gather = (order + np.arange(rows)[:, None] * k).ravel()
            self._starts = np.flatnonzero(new_group)
            self._group_row = row_of[self._starts]
        self._x = self._y = None
        if lats is not None:
            lats = np.asarray(lats, dtype=np.float64)
            lons = np.asarray(lons, dtype=np.float64)
            # Planar local projection (UK scale): km east/north of each
            # row's first tower; great-circle error at <300 km is
            # negligible.
            km_per_deg_lat = 111.32
            ref_lat = lats[:, :1]
            ref_lon = lons[:, :1]
            km_per_deg_lon = km_per_deg_lat * np.cos(np.radians(ref_lat))
            self._x = (lons - ref_lon) * km_per_deg_lon
            self._y = (lats - ref_lat) * km_per_deg_lat

    def _check(self, dwell_s: np.ndarray) -> None:
        if dwell_s.shape != self.shape:
            raise ValueError(
                f"dwell_s shape {dwell_s.shape} does not match the "
                f"anchors {self.shape}"
            )
        if np.any(dwell_s < 0):
            raise ValueError("dwell times cannot be negative")

    def entropy(self, dwell_s: np.ndarray) -> np.ndarray:
        """Per-row entropy (eq. 1) of a float64 dwell matrix."""
        if self._gather is None:
            raise ValueError("this anchor plan was built without sites")
        self._check(dwell_s)
        rows = self.shape[0]
        if rows == 0:
            return np.empty(0)
        group_row = self._group_row
        group_dwell = np.add.reduceat(
            np.take(dwell_s, self._gather), self._starts
        )
        totals = np.bincount(group_row, weights=group_dwell, minlength=rows)
        safe_totals = np.where(totals > 0, totals, 1.0)
        p = group_dwell / safe_totals[group_row]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, -p * np.log(p), 0.0)
        entropy = np.bincount(group_row, weights=terms, minlength=rows)
        entropy[totals <= 0] = 0.0
        return entropy

    def gyration(
        self, dwell_s: np.ndarray, mode: str = "weighted"
    ) -> np.ndarray:
        """Per-row radius of gyration (eq. 2) of a float64 dwell matrix."""
        if self._x is None:
            raise ValueError("this anchor plan was built without coordinates")
        self._check(dwell_s)
        if mode not in ("weighted", "paper"):
            raise ValueError(f"unknown gyration mode {mode!r}")
        if self.shape[0] == 0:
            return np.empty(0)
        x, y = self._x, self._y
        totals = dwell_s.sum(axis=1)
        if mode == "weighted":
            safe_totals = np.where(totals > 0, totals, 1.0)
            w = dwell_s / safe_totals[:, None]
            cx = (w * x).sum(axis=1, keepdims=True)
            cy = (w * y).sum(axis=1, keepdims=True)
            sq = (w * ((x - cx) ** 2 + (y - cy) ** 2)).sum(axis=1)
            gyration = np.sqrt(sq)
        else:
            # Literal eq. 2 with t_j as day fractions and N = number of
            # towers with positive dwell.
            t = dwell_s / 86_400.0
            visited = dwell_s > 0
            counts = np.maximum(visited.sum(axis=1), 1)
            cx = (t * x).sum(axis=1, keepdims=True) / counts[:, None]
            cy = (t * y).sum(axis=1, keepdims=True) / counts[:, None]
            sq = np.where(
                visited, (t * x - cx) ** 2 + (t * y - cy) ** 2, 0.0
            ).sum(axis=1) / counts
            gyration = np.sqrt(sq)
        gyration[totals <= 0] = 0.0
        return gyration


def mobility_entropy(dwell_s: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Temporal-uncorrelated entropy per row (paper eq. 1), in nats.

    Rows with zero total dwell get entropy 0 (an unobserved user has a
    degenerate visitation distribution).

    >>> import numpy as np
    >>> dwell = np.array([[43200.0, 43200.0]])
    >>> towers = np.array([[1, 2]])
    >>> float(np.round(mobility_entropy(dwell, towers)[0], 4))
    0.6931
    """
    dwell_s = np.asarray(dwell_s, dtype=np.float64)
    sites = np.asarray(sites)
    _validate(dwell_s, sites, "sites")
    return AnchorPlan(sites=sites).entropy(dwell_s)


def radius_of_gyration(
    dwell_s: np.ndarray,
    lats: np.ndarray,
    lons: np.ndarray,
    mode: str = "weighted",
) -> np.ndarray:
    """Radius of gyration per row, in km (paper eq. 2).

    Parameters
    ----------
    dwell_s:
        (rows × anchors) dwell seconds.
    lats / lons:
        Tower coordinates, same shape.
    mode:
        ``"weighted"`` — standard time-weighted rms distance (default);
        ``"paper"`` — the literal printed formula, with ``t_j``
        normalized to day fractions (the only reading that keeps the
        magnitudes km-like).

    Rows with zero total dwell get gyration 0.
    """
    dwell_s = np.asarray(dwell_s, dtype=np.float64)
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    _validate(dwell_s, lats, "lats")
    _validate(dwell_s, lons, "lons")
    return AnchorPlan(lats=lats, lons=lons).gyration(dwell_s, mode)
