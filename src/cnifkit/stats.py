"""Statistical analyses over category component data.

Correlation matrices, eigendecomposition (cyclic Jacobi), PCA variance
attribution, Ward hierarchical clustering, one-sample KS normality, and
standard-deviation-band histograms.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .core_model import clip

# numpy loads inside each kernel, so the journal commands never import it
if TYPE_CHECKING:
    import numpy as np


class Matrix(NamedTuple):
    labels: tuple[str, ...]
    values: np.ndarray  # square, aligned with labels on both axes

    def get(self, row: str, col: str) -> float:
        i, j = self.labels.index(row), self.labels.index(col)
        return float(self.values[i, j])


class EigenResult(NamedTuple):
    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # columns, orthonormal, aligned with eigenvalues
    variance_shares: np.ndarray


class PcaResult(NamedTuple):
    labels: tuple[str, ...]
    eigen: EigenResult
    attributed_shares: dict[str, float]
    assignment: tuple[str, ...]  # variable credited with each eigenvalue, descending


class Merge(NamedTuple):
    left: int
    right: int
    height: float
    new_id: int
    size: int


class Dendrogram(NamedTuple):
    leaf_labels: tuple[str, ...]
    merges: tuple[Merge, ...]


class KsResult(NamedTuple):
    statistic: float
    sample_size: int
    alpha: float
    critical_value: float
    reject: bool


class SdHistogram(NamedTuple):
    mean: float
    sd: float
    bin_counts: tuple[int, ...]  # 8 bands from below m-3s to above m+3s
    coverage_1s: float  # percentages of the sample inside [m-ks, m+ks]
    coverage_2s: float
    coverage_3s: float
    sample_size: int


def listwise_complete(columns: dict[str, Sequence[Optional[float]]]) -> tuple[dict[str, np.ndarray], int]:
    """Drop rows with any missing value; also report how many were dropped."""
    import numpy as np
    labels = list(columns)
    lengths = {len(v) for v in columns.values()}
    if len(lengths) != 1:
        raise ValueError("columns must have equal length")
    n = lengths.pop()
    keep = [i for i in range(n) if all(columns[k][i] is not None for k in labels)]
    out = {k: np.array([columns[k][i] for i in keep], dtype=float) for k in labels}
    return out, n - len(keep)


def _sd(x: np.ndarray) -> np.ndarray:
    """Sample sd (ddof=1) down the first axis; inf or nan, not a warning, on overflow."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        return x.std(axis=0, ddof=1)


def _pearson(x: np.ndarray, y: np.ndarray, pair: tuple[str, str]) -> float:
    import numpy as np
    xc = x - x.mean()
    yc = y - y.mean()
    ss = float(np.dot(xc, xc)) * float(np.dot(yc, yc))  # inf, not a warning, on overflow
    if not math.isfinite(ss):
        raise ValueError(f"correlation of {pair[0]} and {pair[1]} overflows")
    return float(np.dot(xc, yc) / math.sqrt(ss))


def correlation_matrix(columns: dict[str, Sequence[Optional[float]]]) -> Matrix:
    """Pearson correlations after listwise deletion of incomplete rows.

    Each unordered pair is computed once and mirrored, so the result is
    exactly symmetric with a unit diagonal.
    """
    import numpy as np
    complete, _ = listwise_complete(columns)
    labels = tuple(complete)
    for k, v in complete.items():
        if len(v) < 2:
            raise ValueError("need at least 2 complete rows")
        if not np.isfinite(_sd(v)) or np.ptp(v) == 0:
            raise ValueError(f"column {k} has non-finite or zero variance")
    m = len(labels)
    out = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            rho = _pearson(complete[labels[i]], complete[labels[j]], (labels[i], labels[j]))
            out[i, j] = out[j, i] = rho
    return Matrix(labels, out)


_JACOBI_TOL = 1e-12


def symmetric_eigendecomposition(m: Matrix) -> EigenResult:
    """Cyclic Jacobi rotations until the off-diagonal norm drops below _JACOBI_TOL."""
    import numpy as np
    a = np.array(m.values, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or np.max(np.abs(a - a.T)) > 1e-9:
        raise ValueError("matrix must be symmetric")
    a = (a + a.T) / 2
    v = np.eye(n)
    for _ in range(100):
        off = math.sqrt(max(0.0, float(np.sum(a**2) - np.sum(np.diag(a) ** 2))))
        if off < _JACOBI_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < _JACOBI_TOL / (n * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1))
                c = 1 / math.sqrt(t * t + 1)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    v = v[:, order]
    return EigenResult(eigenvalues, v, eigenvalues / eigenvalues.sum())


def pca_variance_shares(columns: dict[str, Sequence[Optional[float]]]) -> PcaResult:
    """Attribute each principal component's variance share to one variable.

    Components are taken in descending eigenvalue order and each is credited
    to the not-yet-credited variable with the largest absolute loading, so
    the per-variable scores are a permutation of the eigenvalue shares and
    sum to one.
    """
    import numpy as np
    corr = correlation_matrix(columns)
    eig = symmetric_eigendecomposition(corr)
    labels = corr.labels
    assigned: list[str] = []
    taken: set[int] = set()
    for k in range(len(labels)):
        loadings = np.abs(eig.eigenvectors[:, k])
        candidates = [i for i in range(len(labels)) if i not in taken]
        best = max(candidates, key=lambda i: (loadings[i], -i))
        taken.add(best)
        assigned.append(labels[best])
    shares = {lab: 0.0 for lab in labels}
    for k, lab in enumerate(assigned):
        shares[lab] += float(eig.variance_shares[k])
    return PcaResult(labels, eig, shares, tuple(assigned))


def _standardize(x: np.ndarray) -> np.ndarray:
    import numpy as np
    sd = _sd(x)
    if not np.all(np.isfinite(sd) & (sd != 0)):
        raise ValueError("cannot standardize a non-finite or zero-variance column")
    return (x - x.mean(axis=0)) / sd


def ward_cluster(
    labels: Sequence[str], vectors: Sequence[Sequence[float]], standardize: bool = True
) -> Dendrogram:
    """Agglomerative Ward clustering by the Lance-Williams update.

    Distances are squared Euclidean; merge heights are the updated Ward
    distances and are non-decreasing.  Ties are broken by the
    lexicographically smallest pair of cluster tags (a cluster's tag is the
    smallest leaf label it contains), which makes the result independent of
    input order.  Each row's minimum is cached, so a merge searches O(n)
    values and rescans only the rows whose minimum it removed; two rows alone
    at the smallest distance are the pair, as a third would hold any other tie.
    An update that overflows, inf - inf included, counts as inf, so an overflow
    shows as an infinite merge height and raises, never as a wrong finite one.
    """
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        if len(labels) != len(vectors):
            raise ValueError("labels and vectors must align")
        if len(labels) < 2:
            raise ValueError("need at least 2 complete vectors")
        x = np.array(vectors, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError("vectors must be finite")
        if standardize:
            x = _standardize(x)
        n = len(labels)
        # order leaves by label so the tie-break is permutation invariant
        order = sorted(range(n), key=lambda i: labels[i])
        x = x[order]
        leaf_labels = tuple(labels[i] for i in order)

        # 8 rows at a time, so no n x n x dim difference array is held (the
        # block sets the peak memory of clustering the bundled table); each
        # entry is the same length-dim sum, so d is bit-identical to one pass
        d = np.empty((n, n))
        for s in range(0, n, 8):
            d[s : s + 8] = np.sum((x[s : s + 8, None, :] - x[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d, np.inf)  # merged-away rows and columns become inf too
        ids = list(range(n))  # row -> cluster id; row i keeps a merge of rows i < j
        tags = list(leaf_labels)
        sizes = np.ones(n)  # exact below 2**53; never 0, so no 0 * inf (nan) in a dead row
        counts = [1] * n  # the same sizes as ints, for the merge records
        best = d.min(axis=1)  # each row's minimum, exact after every merge; inf once dead
        merges = []
        for new in range(n, 2 * n - 1):
            h = best.min()
            if h != h:  # an update made inf - inf, and every nan reached best
                d[np.isnan(d)] = np.inf
                best = d.min(axis=1)
                h = best.min()
            if h == np.inf:
                raise ValueError("squared distances between the vectors overflow")
            rows = (best == h).nonzero()[0].tolist()
            if len(rows) == 2:
                i, j = rows
            else:
                # exact ties only, all in the rows whose minimum is h; the tag order
                # makes the choice permutation invariant (then the older pairs first,
                # as in a scan in order of cluster id)
                i, j = min(
                    ((r, c) for r in rows for c in (d[r] == h).nonzero()[0].tolist() if r < c),
                    key=lambda p: (sorted(tags[r] for r in p), sorted(ids[r] for r in p)),
                )
            # live rows whose minimum sits in column i or j, i and j among them
            stale = ((best < np.inf) & (np.minimum(d[i], d[j]) == best)).nonzero()[0]
            ni, nj = counts[i], counts[j]
            row = ((ni + sizes) * d[i] + (nj + sizes) * d[j] - sizes * h) / (ni + nj + sizes)
            d[i, :] = d[:, i] = row
            d[j, :] = d[:, j] = d[i, i] = np.inf  # row[i] is nan when sizes[i] * h overflows
            np.minimum(best, d[i], out=best)  # exact for every row not stale
            best[stale] = d[stale].min(axis=1)  # row j is all inf now
            merges.append(Merge(min(ids[i], ids[j]), max(ids[i], ids[j]), h, new, ni + nj))
            ids[i], tags[i] = new, min(tags[i], tags[j])
            counts[i] = sizes[i] = ni + nj
        return Dendrogram(leaf_labels, tuple(merges))


def cut_dendrogram(
    dendrogram: Dendrogram, k: Optional[int] = None, height: Optional[float] = None
) -> dict[str, int]:
    """Partition the leaves into k clusters, or by a merge-height threshold."""
    n = len(dendrogram.leaf_labels)
    if (k is None) == (height is None):
        raise ValueError("give exactly one of k or height")
    if k is not None:
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {clip(k)}")
        applied = dendrogram.merges[: n - k]
    else:
        applied = tuple(m for m in dendrogram.merges if m.height <= height)
    parent: dict[int, int] = {}

    def find(i: int) -> int:
        while i in parent:
            i = parent[i]
        return i

    for m in applied:
        parent[m.left] = m.new_id
        parent[m.right] = m.new_id
    roots: dict[int, int] = {}
    out = {}
    for i, label in enumerate(dendrogram.leaf_labels):
        r = find(i)
        if r not in roots:
            roots[r] = len(roots)
        out[label] = roots[r]
    return out


def _normal_cdf(x: float) -> float:
    return 0.5 * (1 + math.erf(x / math.sqrt(2)))


# Lilliefors critical coefficients (fitted mean and sd), alpha -> c,
# critical value approximated as c / sqrt(n) for moderate n.
_LILLIEFORS = {0.10: 0.805, 0.05: 0.886, 0.01: 1.031}


def ks_normality(sample: Sequence[float], alpha: float = 0.05, lilliefors: bool = False) -> KsResult:
    """One-sample KS test of normality with mean and sd fitted to the sample.

    The default critical value is the asymptotic c(alpha)/sqrt(n) of the
    plain KS test; because the parameters are fitted this is conservative,
    so a Lilliefors-corrected mode is available.
    """
    import numpy as np
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n < 5:
        raise ValueError(f"need at least 5 observations, got {n}")
    s = _sd(x)
    if s == 0 or not np.isfinite(s):
        raise ValueError("degenerate sample: non-finite or zero standard deviation")
    m = x.mean()
    cdf = np.array([_normal_cdf((v - m) / s) for v in x])
    i = np.arange(1, n + 1)
    d = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    if lilliefors:
        if alpha not in _LILLIEFORS:
            raise ValueError(f"no Lilliefors coefficient for alpha={alpha}")
        critical = _LILLIEFORS[alpha] / math.sqrt(n)
    else:
        critical = math.sqrt(-0.5 * math.log(alpha / 2)) / math.sqrt(n)
    return KsResult(float(d), n, alpha, critical, bool(d > critical))


def histogram_by_sd(sample: Sequence[float]) -> SdHistogram:
    """Counts in the 8 half-open sd bands plus closed-band coverage shares."""
    import numpy as np
    x = np.asarray(sample, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    s = _sd(x)
    if s == 0 or not np.isfinite(s):
        raise ValueError("degenerate sample: non-finite or zero standard deviation")
    m = x.mean()  # of the unsorted sample: sorting would change numpy's summation order
    x = np.sort(x)
    edges = [m + j * s for j in (-3, -2, -1, 0, 1, 2, 3)]
    below = [0, *np.searchsorted(x, edges).tolist(), n]  # values below each edge
    counts = [hi - lo for lo, hi in zip(below, below[1:])]
    # the closed band [m - ks, m + ks] runs from edges[3 - k] to edges[3 + k], as
    # m - ks is exactly m + (-k)s; the share is the float np.mean of its mask gives
    upto = np.searchsorted(x, edges[4:], side="right").tolist()  # values at or below
    coverage = [(upto[k - 1] - below[4 - k]) / n * 100 for k in (1, 2, 3)]
    return SdHistogram(
        mean=float(m),
        sd=float(s),
        bin_counts=tuple(counts),
        coverage_1s=coverage[0],
        coverage_2s=coverage[1],
        coverage_3s=coverage[2],
        sample_size=n,
    )
