"""Statistical analyses over category component data.

Correlation matrices, eigendecomposition (cyclic Jacobi), PCA variance
attribution, Ward hierarchical clustering, one-sample KS normality, and
standard-deviation-band histograms.  A column taken as a sample obeys one
rule, ``_sd``'s: at least 2 values (5 for KS), all finite, not all equal.
"""
from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .core_model import clip

# numpy loads inside each kernel, so the journal commands never import it
if TYPE_CHECKING:
    import numpy as np


class Matrix(NamedTuple):
    """A labelled square matrix.  Past 1x1, ``==`` raises numpy's "truth value of an
    array ... is ambiguous" ValueError: compare ``values`` with ``numpy.array_equal``."""

    labels: tuple[str, ...]
    values: np.ndarray  # square, aligned with labels on both axes

    def get(self, row: str, col: str) -> float:
        i, j = self.labels.index(row), self.labels.index(col)
        return float(self.values[i, j])


class EigenResult(NamedTuple):
    """A symmetric matrix's eigenpairs.  ``==`` raises as ``Matrix``'s does:
    compare each array field with ``numpy.array_equal``."""

    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # columns, orthonormal, aligned with eigenvalues
    variance_shares: np.ndarray


class PcaResult(NamedTuple):
    """Principal components.  ``==`` raises as ``Matrix``'s does: compare
    ``eigen``'s arrays with ``numpy.array_equal``, the other fields with ``==``."""

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


def _sd(x: np.ndarray, minimum: int = 2) -> np.ndarray:
    """Sample sd (ddof=1) down the first axis, if each column holds at least ``minimum``
    finite values, not all equal: min == max, as sd can round above 0 and np.ptp overflow."""
    import numpy as np
    if len(x) < minimum:
        raise ValueError(f"need at least {minimum} observations, got {len(x)}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, not a warning
        s = x.std(axis=0, ddof=1)
    if not np.all(np.isfinite(s) & (s != 0)) or np.any(x.min(axis=0) == x.max(axis=0)):
        raise ValueError("degenerate sample: non-finite or zero standard deviation")
    return s


def correlation_matrix(columns: dict[str, Sequence[Optional[float]]]) -> Matrix:
    """Pearson correlations after listwise deletion of incomplete rows.

    A column that breaks the sample rule raises ``column <name>: `` and
    ``_sd``'s error.  Each column is centred and its sum of squares taken once;
    each unordered pair is computed once and mirrored, so the result is exactly
    symmetric with a unit diagonal.
    """
    import numpy as np
    complete, _ = listwise_complete(columns)
    labels = tuple(complete)
    for k, v in complete.items():
        try:
            _sd(v)
        except ValueError as exc:
            raise ValueError(f"column {k}: {exc}") from None
    centred = [v - v.mean() for v in complete.values()]
    squares = [float(np.dot(c, c)) for c in centred]
    out = np.eye(len(labels))
    for i, j in itertools.combinations(range(len(labels)), 2):
        ss = squares[i] * squares[j]  # inf, not a warning, on overflow
        if not math.isfinite(ss):
            raise ValueError(f"correlation of {labels[i]} and {labels[j]} overflows")
        out[i, j] = out[j, i] = float(np.dot(centred[i], centred[j]) / math.sqrt(ss))
    return Matrix(labels, out)


_JACOBI_TOL = 1e-12


def symmetric_eigendecomposition(m: Matrix) -> EigenResult:
    """Cyclic Jacobi rotations until a sweep rotates no pair, at most 100 sweeps.

    It also ends once the off-diagonal norm drops below _JACOBI_TOL, which on a
    correlation matrix (a difference of sums near n) happens only at exactly 0.
    """
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
        idle = True
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < _JACOBI_TOL / (n * n):
                    continue
                idle = False
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
        if idle:
            break
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    v = v[:, order]
    return EigenResult(eigenvalues, v, eigenvalues / eigenvalues.sum())


def pca_variance_shares(columns: dict[str, Sequence[Optional[float]]]) -> PcaResult:
    """``pca_of`` the columns' correlation matrix."""
    return pca_of(correlation_matrix(columns))


def pca_of(corr: Matrix) -> PcaResult:
    """Attribute each principal component of a correlation matrix to one variable.

    Components are taken in descending eigenvalue order and each is credited
    to the not-yet-credited variable with the largest absolute loading, so
    the per-variable scores are a permutation of the eigenvalue shares and
    sum to one.
    """
    import numpy as np
    eig = symmetric_eigendecomposition(corr)
    labels = corr.labels
    assigned: list[str] = []
    remaining = list(range(len(labels)))  # the variables not yet credited, in order
    for loadings in np.abs(eig.eigenvectors).T:
        best = max(remaining, key=lambda i: (loadings[i], -i))
        remaining.remove(best)
        assigned.append(labels[best])
    shares = {lab: 0.0 for lab in labels}
    for k, lab in enumerate(assigned):
        shares[lab] += float(eig.variance_shares[k])
    return PcaResult(labels, eig, shares, tuple(assigned))


def _standardize(x: np.ndarray) -> np.ndarray:
    sd = _sd(x)
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

        # 8 rows at a time, so no n x n x dim difference array is held; numpy
        # sums fewer than 8 terms left to right, so below 8 dimensions adding
        # each dimension's squares in turn, through one 8 x n buffer, gives
        # np.sum's bits in less time
        d, step = np.empty((n, n)), np.empty((8, n))
        for s in range(0, n, 8):
            block, part = d[s : s + 8], step[: min(8, n - s)]
            if x.shape[1] >= 8:
                block[:] = np.sum((x[s : s + 8, None, :] - x[None, :, :]) ** 2, axis=2)
                continue
            block[:] = 0.0
            for c in x.T:
                np.subtract.outer(c[s : s + 8], c, out=part)
                block += np.multiply(part, part, out=part)
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
    """Partition the leaves into k clusters, or by the leading merges at or
    below a height; clusters are numbered by their first leaf."""
    n = len(dendrogram.leaf_labels)
    if (k is None) == (height is None):
        raise ValueError("give exactly one of k or height")
    if k is not None:
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {clip(k)}")
        applied = dendrogram.merges[: n - k]
    else:
        applied = itertools.takewhile(lambda m: m.height <= height, dendrogram.merges)
    clusters = {i: [i] for i in range(n)}  # cluster id -> its leaves
    for m in applied:
        clusters[m.new_id] = clusters.pop(m.left) + clusters.pop(m.right)
    number = [0] * n
    for c, leaves in enumerate(sorted(clusters.values(), key=min)):
        for i in leaves:
            number[i] = c
    return dict(zip(dendrogram.leaf_labels, number))


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
    s, m = float(_sd(x, 5)), float(x.mean())  # Python floats: the same bits, a faster loop
    cdf = np.array([_normal_cdf((v - m) / s) for v in x.tolist()])
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
    s = _sd(x)
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
