import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cnifkit.cli import component_columns, edition_rows
from cnifkit.reference import PCA_SCORES, PCA_TOP_SHARE_TOLERANCE
from cnifkit.stats import (
    Dendrogram,
    Matrix,
    Merge,
    SdHistogram,
    _sd,
    _standardize,
    correlation_matrix,
    cut_dendrogram,
    histogram_by_sd,
    ks_normality,
    listwise_complete,
    pca_of,
    pca_variance_shares,
    symmetric_eigendecomposition,
    ward_cluster,
)


class TestCorrelation:
    def test_perfect_linearity(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2 * v + 1 for v in x]
        m = correlation_matrix({"x": x, "y": y})
        assert m.get("x", "y") == pytest.approx(1.0)

    def test_zero_variance_column_named(self):
        with pytest.raises(ValueError, match="column y"):
            correlation_matrix({"x": [1.0, 2.0, 3.0], "y": [5.0, 5.0, 5.0]})

    def test_listwise_deletion(self):
        cols = {"x": [1.0, None, 3.0, 4.0], "y": [1.0, 9.0, 3.0, 4.0]}
        complete, dropped = listwise_complete(cols)
        assert dropped == 1
        assert list(complete["y"]) == [1.0, 3.0, 4.0]
        m = correlation_matrix(cols)
        assert m.get("x", "y") == pytest.approx(1.0)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="^columns must have equal length$"):
            listwise_complete({"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0]})

    def test_exact_symmetry_and_unit_diagonal(self):
        rng = random.Random(0)
        cols = {k: [rng.gauss(0, 1) for _ in range(30)] for k in "abcde"}
        m = correlation_matrix(cols)
        assert np.array_equal(m.values, m.values.T)
        assert np.all(np.diag(m.values) == 1.0)
        assert np.all(np.abs(m.values) <= 1.0 + 1e-12)

    def test_science_p_b_anchor(self, fixture_rows):
        m = correlation_matrix(component_columns(edition_rows(fixture_rows, "science")))
        assert m.get("p", "b") == pytest.approx(0.55, abs=0.06)

    def test_social_p_b_anchor(self, fixture_rows):
        m = correlation_matrix(component_columns(edition_rows(fixture_rows, "social")))
        assert m.get("p", "b") == pytest.approx(0.88, abs=0.06)

    def test_matches_numpy_oracle(self):
        rng = random.Random(4)
        cols = {k: [rng.gauss(0, 1) for _ in range(40)] for k in "xyz"}
        m = correlation_matrix(cols)
        oracle = np.corrcoef(np.array([cols[k] for k in "xyz"]))
        assert np.allclose(m.values, oracle, atol=1e-12)


def hundred_sweep_jacobi(values):
    """The Jacobi loop that the idle-sweep exit of symmetric_eigendecomposition
    shortened.

    Kept as a differential oracle: it runs until the off-diagonal norm drops
    below the tolerance or for 100 sweeps, rotating or not.
    """
    a = np.array(values, dtype=float)
    n = a.shape[0]
    a = (a + a.T) / 2
    v = np.eye(n)
    for _ in range(100):
        off = math.sqrt(max(0.0, float(np.sum(a**2) - np.sum(np.diag(a) ** 2))))
        if off < 1e-12:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-12 / (n * n):
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
    return eigenvalues[order], v[:, order]


@st.composite
def correlated_columns(draw):
    """2 to 6 columns of 3 to 30 rows, some a near-copy of an earlier one."""
    n, rows = draw(st.integers(2, 6)), draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((rows, n))
    for k in range(1, n):
        if draw(st.booleans()):  # near-collinear with column j
            j = draw(st.integers(0, k - 1))
            x[:, k] = x[:, j] * draw(st.sampled_from([1.0, -2.0, 3.5])) + rng.standard_normal(rows) * 1e-9
    return {f"c{k}": x[:, k].tolist() for k in range(n)}


class TestEigendecomposition:
    @pytest.mark.parametrize("edition", ["science", "social", "all"])
    def test_bundled_table_identical_to_hundred_sweeps(self, fixture_rows, edition):
        m = correlation_matrix(component_columns(edition_rows(fixture_rows, edition)))
        res = symmetric_eigendecomposition(m)
        eigenvalues, eigenvectors = hundred_sweep_jacobi(m.values)
        assert np.array_equal(res.eigenvalues, eigenvalues)
        assert np.array_equal(res.eigenvectors, eigenvectors)

    @settings(max_examples=150, deadline=None)
    @given(correlated_columns())
    def test_drawn_correlations_identical_to_hundred_sweeps(self, columns):
        try:
            m = correlation_matrix(columns)
        except ValueError:  # a near-copy can overflow or lose its variance
            return
        res = symmetric_eigendecomposition(m)
        eigenvalues, eigenvectors = hundred_sweep_jacobi(m.values)
        assert np.array_equal(res.eigenvalues, eigenvalues)
        assert np.array_equal(res.eigenvectors, eigenvectors)

    @pytest.mark.parametrize("edition", ["science", "social", "all"])
    def test_sweeps_end_once_no_pair_rotates(self, fixture_rows, edition, monkeypatch):
        # each sweep measures the off-diagonal norm with one np.diag call, and
        # the eigenvalues take one more; no pair rotates after the 5th sweep
        m = correlation_matrix(component_columns(edition_rows(fixture_rows, edition)))
        calls = []
        real = np.diag
        monkeypatch.setattr(np, "diag", lambda *a, **k: calls.append(1) or real(*a, **k))
        symmetric_eigendecomposition(m)
        assert len(calls) - 1 <= 6

    def test_identity(self):
        m = Matrix(tuple("abcde"), np.eye(5))
        res = symmetric_eigendecomposition(m)
        assert np.allclose(res.eigenvalues, 1.0)
        assert np.allclose(res.variance_shares, 0.2)

    def test_2x2_closed_form(self):
        m = Matrix(("x", "y"), np.array([[1.0, 0.5], [0.5, 1.0]]))
        res = symmetric_eigendecomposition(m)
        assert res.eigenvalues == pytest.approx([1.5, 0.5])

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 6))
        sym = (a + a.T) / 2
        m = Matrix(tuple(f"v{i}" for i in range(6)), sym)
        res = symmetric_eigendecomposition(m)
        rebuilt = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
        assert np.max(np.abs(rebuilt - sym)) < 1e-9

    def test_orthonormal_eigenvectors(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5))
        sym = (a + a.T) / 2
        res = symmetric_eigendecomposition(Matrix(tuple("abcde"), sym))
        assert np.max(np.abs(res.eigenvectors.T @ res.eigenvectors - np.eye(5))) < 1e-9

    def test_matches_lapack_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(5, 5))
            sym = (a + a.T) / 2
            res = symmetric_eigendecomposition(Matrix(tuple("abcde"), sym))
            oracle = np.sort(np.linalg.eigvalsh(sym))[::-1]
            assert np.allclose(res.eigenvalues, oracle, atol=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigendecomposition(Matrix(("x", "y"), np.array([[1.0, 0.2], [0.4, 1.0]])))


class TestPca:
    @pytest.mark.parametrize("edition", ["science", "social", "all"])
    def test_pca_of_the_matrix_is_pca_of_its_columns(self, fixture_rows, edition):
        columns = component_columns(edition_rows(fixture_rows, edition))
        got, want = pca_of(correlation_matrix(columns)), pca_variance_shares(columns)
        assert (got.labels, got.attributed_shares, got.assignment) == (
            want.labels, want.attributed_shares, want.assignment
        )
        assert all(np.array_equal(g, w) for g, w in zip(got.eigen, want.eigen))

    def test_identity_correlation_uniform_attribution(self):
        # independent columns -> each variable credited one unit eigenvalue
        rng = random.Random(9)
        n = 2000
        cols = {k: [rng.gauss(0, 1) for _ in range(n)] for k in "abcde"}
        res = pca_variance_shares(cols)
        for share in res.attributed_shares.values():
            assert share == pytest.approx(0.2, abs=0.05)

    def test_tied_loadings_credit_the_earlier_variable(self):
        # both eigenvectors of this matrix load 1/sqrt(2) on each variable
        res = pca_of(Matrix(("x", "y"), np.array([[1.0, 0.5], [0.5, 1.0]])))
        assert res.assignment == ("x", "y")
        assert res.attributed_shares == pytest.approx({"x": 0.75, "y": 0.25})

    def test_attribution_is_permutation_of_eigen_shares(self, fixture_rows):
        res = pca_variance_shares(component_columns(edition_rows(fixture_rows, "science")))
        assert sorted(res.attributed_shares.values()) == pytest.approx(
            sorted(float(s) for s in res.eigen.variance_shares)
        )
        assert sum(res.attributed_shares.values()) == pytest.approx(1.0, abs=1e-9)
        assert sorted(res.assignment) == sorted(res.labels)

    def test_science_top3_share(self, fixture_rows):
        res = pca_variance_shares(component_columns(edition_rows(fixture_rows, "science")))
        top3 = sum(sorted(res.attributed_shares.values(), reverse=True)[:3])
        assert top3 == pytest.approx(0.7808, abs=0.05)

    def test_social_top2_share(self, fixture_rows):
        res = pca_variance_shares(component_columns(edition_rows(fixture_rows, "social")))
        top2 = sum(sorted(res.attributed_shares.values(), reverse=True)[:2])
        assert top2 == pytest.approx(0.8129, abs=0.05)

    @pytest.mark.parametrize(
        "edition, credited_as",
        [
            ("science", {"a": "a", "r": "b", "p": "p", "w": "w", "b": "r"}),
            ("social", {"a": "a", "r": "b", "p": "r", "w": "p", "b": "w"}),
        ],
    )
    def test_shares_match_published_scores_up_to_their_variables(
        self, fixture_rows, edition, credited_as
    ):
        res = pca_variance_shares(component_columns(edition_rows(fixture_rows, edition)))
        ours = sorted(res.attributed_shares.items(), key=lambda kv: kv[1])
        published = sorted(PCA_SCORES[edition].items(), key=lambda kv: kv[1])
        assert [v for _, v in ours] == pytest.approx(
            [v for _, v in published], abs=PCA_TOP_SHARE_TOLERANCE
        )
        # the greedy attribution credits the published shares to other variables
        assert {k: k_pub for (k, _), (k_pub, _) in zip(ours, published)} == credited_as

    def test_eigenvalues_sum_to_dimension(self, fixture_rows):
        for edition in ("science", "social"):
            res = pca_variance_shares(component_columns(edition_rows(fixture_rows, edition)))
            assert float(res.eigen.eigenvalues.sum()) == pytest.approx(5.0, abs=1e-9)


def brute_force_ward_merges(points):
    """Greedy Ward by direct SSE computation over member points."""
    clusters = {i: [i] for i in range(len(points))}
    pts = [np.asarray(p, dtype=float) for p in points]

    def sse(members):
        arr = np.array([pts[i] for i in members])
        return float(np.sum((arr - arr.mean(axis=0)) ** 2))

    merges = []
    next_id = len(points)
    while len(clusters) > 1:
        best = None
        for i, j in itertools.combinations(sorted(clusters), 2):
            delta = sse(clusters[i] + clusters[j]) - sse(clusters[i]) - sse(clusters[j])
            if best is None or delta < best[0] - 1e-12:
                best = (delta, i, j)
        delta, i, j = best
        clusters[next_id] = clusters.pop(i) + clusters.pop(j)
        merges.append((i, j, 2 * delta, next_id))
        next_id += 1
    return merges


def pair_scan_ward(labels, vectors, standardize=True):
    """The pair-scan Ward that the dense-matrix ward_cluster replaced.

    Kept as a differential oracle: a dict of all pairs, rescanned in order of
    cluster id at every merge, with a per-cluster Lance-Williams update.
    """
    if len(labels) != len(vectors):
        raise ValueError("labels and vectors must align")
    if len(labels) < 2:
        raise ValueError("need at least 2 complete vectors")
    x = np.array(vectors, dtype=float)
    if standardize:
        x = _standardize(x)
    n = len(labels)
    order = sorted(range(n), key=lambda i: labels[i])
    x = x[order]
    leaf_labels = tuple(labels[i] for i in order)

    d = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    active = list(range(n))
    sizes = {i: 1 for i in range(n)}
    tags = {i: leaf_labels[i] for i in range(n)}
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = d[i, j]

    def dget(i, j):
        return dist[(i, j) if i < j else (j, i)]

    merges = []
    next_id = n
    while len(active) > 1:
        pairs = [
            (active[ai], active[aj])
            for ai in range(len(active))
            for aj in range(ai + 1, len(active))
        ]
        dmin = min(dget(i, j) for i, j in pairs)
        i, j = min(
            (p for p in pairs if dget(*p) == dmin),
            key=lambda p: tuple(sorted((tags[p[0]], tags[p[1]]))),
        )
        h = dget(i, j)
        ni, nj = sizes[i], sizes[j]
        new = next_id
        next_id += 1
        for k in active:
            if k in (i, j):
                continue
            nk = sizes[k]
            dik, djk, dij = dget(i, k), dget(j, k), dget(i, j)
            dist[(k, new) if k < new else (new, k)] = (
                (ni + nk) * dik + (nj + nk) * djk - nk * dij
            ) / (ni + nj + nk)
        active = [k for k in active if k not in (i, j)] + [new]
        sizes[new] = ni + nj
        tags[new] = min(tags[i], tags[j])
        merges.append(Merge(i, j, h, new, ni + nj))
    return Dendrogram(leaf_labels, tuple(merges))


def dense_matrix_ward(labels, vectors, standardize=True):
    """The dense-matrix Ward that the row-minimum cache of ward_cluster replaced.

    Kept as a differential oracle: every merge scans the whole matrix for its
    minimum and for every pair tied at it, then writes the Lance-Williams row.
    """
    if len(labels) != len(vectors):
        raise ValueError("labels and vectors must align")
    if len(labels) < 2:
        raise ValueError("need at least 2 complete vectors")
    x = np.array(vectors, dtype=float)
    if standardize:
        x = _standardize(x)
    n = len(labels)
    # order leaves by label so the tie-break is permutation invariant
    order = sorted(range(n), key=lambda i: labels[i])
    x = x[order]
    leaf_labels = tuple(labels[i] for i in order)

    d = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d, np.inf)  # merged-away rows and columns become inf too
    ids = list(range(n))  # row -> cluster id; row i keeps a merge of rows i < j
    tags = list(leaf_labels)
    sizes = np.ones(n, dtype=np.int64)  # never 0, so no 0 * inf (nan) in a dead row
    merges = []
    for new in range(n, 2 * n - 1):
        h = d.min()
        # exact ties only; the tag order makes the choice permutation invariant
        # (then the older pairs first, as in a scan in order of cluster id)
        i, j = min(
            np.argwhere(np.triu(d == h, 1)).tolist(),
            key=lambda p: (sorted(tags[r] for r in p), sorted(ids[r] for r in p)),
        )
        ni, nj = sizes[i], sizes[j]
        row = ((ni + sizes) * d[i] + (nj + sizes) * d[j] - sizes * h) / (ni + nj + sizes)
        d[i, :] = d[:, i] = row
        d[j, :] = d[:, j] = d[i, i] = np.inf
        merges.append(Merge(min(ids[i], ids[j]), max(ids[i], ids[j]), h, new, int(ni + nj)))
        ids[i], tags[i], sizes[i] = new, min(tags[i], tags[j]), ni + nj
    return Dendrogram(leaf_labels, tuple(merges))


def row_min_cache_ward(labels, vectors, standardize=True):
    """The row-minimum-cache Ward that the two-row shortcut of ward_cluster replaced.

    Kept as a differential oracle: every merge searches each row tied at the
    smallest distance, finds the stale rows by two comparisons and keeps the
    sizes as integers.  An update that makes inf - inf leaves nan in the row
    minima, and the next merge fails with "min() arg is an empty sequence".
    """
    with np.errstate(over="ignore"):
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
        order = sorted(range(n), key=lambda i: labels[i])
        x = x[order]
        leaf_labels = tuple(labels[i] for i in order)

        d = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d, np.inf)
        ids = list(range(n))
        tags = list(leaf_labels)
        sizes = np.ones(n, dtype=np.int64)
        best = d.min(axis=1)
        merges = []
        for new in range(n, 2 * n - 1):
            h = best.min()
            if h == np.inf:
                raise ValueError("squared distances between the vectors overflow")
            i, j = min(
                ((r, c) for r in (best == h).nonzero()[0].tolist()
                 for c in (d[r] == h).nonzero()[0].tolist() if r < c),
                key=lambda p: (sorted(tags[r] for r in p), sorted(ids[r] for r in p)),
            )
            stale = ((best < np.inf) & ((d[i] == best) | (d[j] == best))).nonzero()[0]
            ni, nj = sizes[i], sizes[j]
            row = ((ni + sizes) * d[i] + (nj + sizes) * d[j] - sizes * h) / (ni + nj + sizes)
            d[i, :] = d[:, i] = row
            d[j, :] = d[:, j] = d[i, i] = np.inf
            np.minimum(best, d[i], out=best)
            best[stale] = d[stale].min(axis=1)
            merges.append(Merge(min(ids[i], ids[j]), max(ids[i], ids[j]), h, new, int(ni + nj)))
            ids[i], tags[i], sizes[i] = new, min(tags[i], tags[j]), ni + nj
        return Dendrogram(leaf_labels, tuple(merges))


def ward_outcome(ward, labels, points, standardize):
    """Leaf order and merges with each height as float.hex, or the error message."""
    try:
        d = ward(labels, points, standardize)
    except ValueError as exc:
        return str(exc)
    return d.leaf_labels, [(m.left, m.right, float(m.height).hex(), m.new_id, m.size) for m in d.merges]


@st.composite
def grid_points(draw, distinct=True, max_n=14):
    """Integer-grid inputs, where tied merge heights are common."""
    n = draw(st.integers(2, max_n))
    dim = draw(st.integers(1, 3))
    points = draw(
        st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim), min_size=n, max_size=n)
    )
    if distinct:
        labels = draw(st.permutations([f"c{i:02d}" for i in range(n)]))
    else:
        labels = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    return labels, points


@st.composite
def huge_points(draw):
    """Points up to about 1e154 apart, where updates overflow and make inf - inf."""
    n = draw(st.integers(2, 9))
    dim = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1e100, 1e153, 2e153, 4.3e153, 6.5e153]))
    coordinate = st.integers(-2, 2).map(float) | st.floats(-2, 2)
    points = draw(
        st.lists(st.lists(coordinate, min_size=dim, max_size=dim), min_size=n, max_size=n)
    )
    labels = draw(st.permutations([f"p{i}" for i in range(n)]))
    return labels, [[v * scale for v in p] for p in points]


class TestWard:
    @settings(max_examples=400, deadline=None)
    @given(grid_points(), st.booleans())
    def test_bit_identical_to_pair_scan(self, case, standardize):
        labels, points = case
        try:
            expected = pair_scan_ward(labels, points, standardize)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                ward_cluster(labels, points, standardize)
            return
        assert ward_cluster(labels, points, standardize) == expected

    @settings(max_examples=100, deadline=None)
    @given(grid_points(distinct=False))
    def test_repeated_labels_break_ties_as_pair_scan(self, case):
        # equal tags fall back to the pair scan's order: older clusters first
        labels, points = case
        expected = pair_scan_ward(labels, points, standardize=False)
        assert ward_cluster(labels, points, standardize=False) == expected

    # no shrink phase: shrinking examples of up to 120 points delays a failure by minutes
    @settings(max_examples=150, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
    @given(st.booleans().flatmap(lambda distinct: grid_points(distinct, max_n=120)), st.booleans())
    def test_bit_identical_to_dense_matrix(self, case, standardize):
        # up to 120 points on a 4-point grid: many rows tie at each merge
        labels, points = case
        try:
            expected = dense_matrix_ward(labels, points, standardize)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                ward_cluster(labels, points, standardize)
            return
        assert ward_cluster(labels, points, standardize) == expected

    @settings(max_examples=100, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
    @given(st.booleans().flatmap(lambda distinct: grid_points(distinct, max_n=120)), st.booleans())
    def test_bit_identical_to_row_min_cache(self, case, standardize):
        # tied rows at most merges: the two-row shortcut and the full search both run
        labels, points = case
        expected = ward_outcome(row_min_cache_ward, labels, points, standardize)
        assert ward_outcome(ward_cluster, labels, points, standardize) == expected

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(huge_points(), st.booleans())
    def test_overflow_bit_identical_to_row_min_cache(self, case, standardize):
        labels, points = case
        with np.errstate(invalid="ignore"):  # the oracle's inf - inf
            expected = ward_outcome(row_min_cache_ward, labels, points, standardize)
        if expected == "min() arg is an empty sequence":
            # the inf - inf the oracle fails on counts as an overflow
            expected = "squared distances between the vectors overflow"
        assert ward_outcome(ward_cluster, labels, points, standardize) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([7, 8, 9, 16, 17, 31, 32, 33, 64, 65]),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_float_distances_bit_identical_to_dense_matrix(self, n, dim, seed, standardize):
        # sizes on either side of 1, 2, 4 and 8 of the 8-row distance blocks,
        # float sums in any order: a per-dimension sum differs from numpy's
        # pairwise one from dim 8
        rng = np.random.default_rng(seed)
        points = (rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4, dim)).tolist()
        labels = [f"v{i:02d}" for i in rng.permutation(n)]
        got = ward_cluster(labels, points, standardize)
        expected = dense_matrix_ward(labels, points, standardize)
        assert got.leaf_labels == expected.leaf_labels
        assert [(m.left, m.right, m.new_id, m.size) for m in got.merges] == [
            (m.left, m.right, m.new_id, m.size) for m in expected.merges
        ]
        assert [float(m.height).hex() for m in got.merges] == [
            float(m.height).hex() for m in expected.merges
        ]

    @pytest.mark.parametrize("edition", ["science", "social", "all"])
    def test_bundled_table_identical_to_dense_matrix(self, fixture_rows, edition):
        complete = [r for r in edition_rows(fixture_rows, edition) if r.is_complete()]
        labels = [r.code for r in complete]
        vectors = list(zip(*component_columns(complete).values()))
        assert ward_cluster(labels, vectors) == dense_matrix_ward(labels, vectors)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vectors_rejected(self, bad):
        for standardize in (True, False):
            with pytest.raises(ValueError, match="vectors must be finite"):
                ward_cluster(["x", "y", "z"], [[1.0, 2.0], [bad, 0.0], [3.0, 1.0]], standardize)

    @pytest.mark.filterwarnings("error")  # an overflow warning fails the test
    @pytest.mark.parametrize(
        "vectors",
        [
            [[1e200], [1e200], [-1e200], [0]],
            [[6e153], [-6e153], [0], [1]],
            # clusters of 2 and 3 meet h > DBL_MAX / 2: their updates make inf - inf
            [[-6.5e153], [0], [-6.5e153], [-6.5e153], [1.3e154], [1.3e154], [-1.3e154]],
        ],
        ids=["squared-distance", "lance-williams-update", "inf-minus-inf"],
    )
    def test_overflowing_distances_rejected(self, vectors):
        labels = [f"p{i}" for i in range(len(vectors))]
        with pytest.raises(ValueError, match="^squared distances between the vectors overflow$"):
            ward_cluster(labels, vectors, standardize=False)

    @pytest.mark.filterwarnings("error")
    def test_large_finite_distances_cluster(self):
        d = ward_cluster(list("abcd"), [[3e153], [-3e153], [0], [1]], standardize=False)
        assert [m.height for m in d.merges] == [1.0, 1.2e307, 2.4e307]

    def test_first_merges_on_line_points(self):
        d = ward_cluster(["p0", "p1", "p2", "p3"], [[0], [1], [10], [11]], standardize=False)
        first_two = {frozenset((m.left, m.right)) for m in d.merges[:2]}
        assert first_two == {frozenset((0, 1)), frozenset((2, 3))}

    def test_matches_brute_force_oracle(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(2, 9)
            points = [[rng.gauss(0, 1) for _ in range(3)] for _ in range(n)]
            labels = [f"x{i}" for i in range(n)]
            d = ward_cluster(labels, points, standardize=False)
            oracle = brute_force_ward_merges(points)
            for got, (oi, oj, oh, _) in zip(d.merges, oracle):
                assert {got.left, got.right} == {oi, oj}
                assert got.height == pytest.approx(oh, rel=1e-9, abs=1e-9)

    def test_identical_points_merge_at_zero(self):
        d = ward_cluster(["x", "y"], [[1.0, 2.0], [1.0, 2.0]], standardize=False)
        assert d.merges[0].height == 0.0

    def test_n_minus_1_monotone_merges(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(2, 25)
            vecs = [[rng.gauss(0, 1) for _ in range(5)] for _ in range(n)]
            d = ward_cluster([f"v{i:02d}" for i in range(n)], vecs)
            assert len(d.merges) == n - 1
            heights = [m.height for m in d.merges]
            assert all(b >= a - 1e-9 for a, b in zip(heights, heights[1:]))

    def test_permutation_invariant(self):
        rng = random.Random(10)
        n = 12
        labels = [f"v{i:02d}" for i in range(n)]
        vecs = [[rng.gauss(0, 1) for _ in range(4)] for _ in range(n)]
        d1 = ward_cluster(labels, vecs)
        order = list(range(n))
        rng.shuffle(order)
        d2 = ward_cluster([labels[i] for i in order], [vecs[i] for i in order])
        cut1 = cut_dendrogram(d1, k=3)
        cut2 = cut_dendrogram(d2, k=3)
        groups1 = sorted(sorted(l for l in cut1 if cut1[l] == c) for c in set(cut1.values()))
        groups2 = sorted(sorted(l for l in cut2 if cut2[l] == c) for c in set(cut2.values()))
        assert groups1 == groups2

    def test_matches_scipy_heights(self):
        scipy_hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(11)
        x = rng.normal(size=(15, 4))
        d = ward_cluster([f"v{i:02d}" for i in range(15)], x.tolist(), standardize=False)
        linkage = scipy_hierarchy.linkage(x, method="ward")
        # scipy reports sqrt of the squared-distance heights
        assert np.allclose(sorted(m.height for m in d.merges), sorted(linkage[:, 2] ** 2))

    def test_single_vector_rejected(self):
        with pytest.raises(ValueError):
            ward_cluster(["x"], [[1.0]])

    def test_labels_and_vectors_must_align(self):
        with pytest.raises(ValueError, match="^labels and vectors must align$"):
            ward_cluster(["x", "y", "z"], [[1.0], [2.0]])

    def test_standardization_required_for_scale_balance(self):
        # one huge-scale coordinate dominates unstandardized distances
        labels = ["a", "b", "c", "d"]
        vecs = [[0.0, 1000.0], [1.0, 0.0], [0.1, 1000.0], [1.1, 0.0]]
        d = ward_cluster(labels, vecs, standardize=True)
        cut = cut_dendrogram(d, k=2)
        assert cut["a"] == cut["c"] and cut["b"] == cut["d"]


def union_find_cut(dendrogram, k=None, height=None):
    """The union-find cut_dendrogram that the leaf-list joins replaced.

    Kept as a differential oracle: a height cut applies every merge at or
    below the height, wherever it sits, through a parent map, and clusters
    are numbered in the order their roots first appear in leaf order.
    """
    n = len(dendrogram.leaf_labels)
    if (k is None) == (height is None):
        raise ValueError("give exactly one of k or height")
    if k is not None:
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
        applied = dendrogram.merges[: n - k]
    else:
        applied = tuple(m for m in dendrogram.merges if m.height <= height)
    parent = {}

    def find(i):
        while i in parent:
            i = parent[i]
        return i

    for m in applied:
        parent[m.left] = m.new_id
        parent[m.right] = m.new_id
    roots = {}
    out = {}
    for i, label in enumerate(dendrogram.leaf_labels):
        r = find(i)
        if r not in roots:
            roots[r] = len(roots)
        out[label] = roots[r]
    return out


class TestCut:
    @settings(max_examples=300, deadline=None)
    @given(grid_points() | huge_points(), st.booleans())
    def test_identical_to_union_find(self, case, standardize):
        # every k, and heights at, just off and between the merge heights
        labels, points = case
        try:
            d = ward_cluster(labels, points, standardize)
        except ValueError:
            return
        heights = [m.height for m in d.merges]
        probes = {-math.inf, math.inf, math.nan}
        for h in heights:
            probes |= {h, math.nextafter(h, -math.inf), math.nextafter(h, math.inf)}
        probes |= {a / 2 + b / 2 for a, b in zip(heights, heights[1:])}
        for k in range(1, len(labels) + 1):
            assert list(cut_dendrogram(d, k=k).items()) == list(union_find_cut(d, k=k).items())
        for h in probes:
            got = list(cut_dendrogram(d, height=h).items())
            assert got == list(union_find_cut(d, height=h).items())

    def test_height_cut_stops_at_first_merge_above(self):
        # hand-built heights that decrease: the union-find applied the later,
        # lower merge of c and d too; Ward's heights never decrease
        merges = (Merge(0, 1, 2.0, 4, 2), Merge(2, 3, 1.0, 5, 2), Merge(4, 5, 3.0, 6, 4))
        d = Dendrogram(("a", "b", "c", "d"), merges)
        assert cut_dendrogram(d, height=1.5) == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert union_find_cut(d, height=1.5) == {"a": 0, "b": 1, "c": 2, "d": 2}
        assert cut_dendrogram(d, height=2.5) == union_find_cut(d, height=2.5)

    def line_dendrogram(self):
        return ward_cluster(["p0", "p1", "p2", "p3"], [[0], [1], [10], [11]], standardize=False)

    def test_k_equals_n_singletons(self):
        cut = cut_dendrogram(self.line_dendrogram(), k=4)
        assert len(set(cut.values())) == 4

    def test_k_equals_1(self):
        cut = cut_dendrogram(self.line_dendrogram(), k=1)
        assert set(cut.values()) == {0}

    def test_two_cluster_recovery(self):
        cut = cut_dendrogram(self.line_dendrogram(), k=2)
        assert cut["p0"] == cut["p1"]
        assert cut["p2"] == cut["p3"]
        assert cut["p0"] != cut["p2"]

    def test_cut_by_height(self):
        cut = cut_dendrogram(self.line_dendrogram(), height=1.5)
        assert len(set(cut.values())) == 2

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            cut_dendrogram(self.line_dendrogram(), k=0)

    def test_nested_cuts(self):
        rng = random.Random(12)
        vecs = [[rng.gauss(0, 1) for _ in range(3)] for _ in range(10)]
        d = ward_cluster([f"v{i}" for i in range(10)], vecs)
        for k in range(2, 10):
            coarse = cut_dendrogram(d, k=k - 1)
            fine = cut_dendrogram(d, k=k)
            # every fine cluster sits inside one coarse cluster
            for c in set(fine.values()):
                members = [l for l in fine if fine[l] == c]
                assert len({coarse[m] for m in members}) == 1


class TestKs:
    def test_exact_quantiles_do_not_reject(self):
        from statistics import NormalDist

        n = 100
        nd = NormalDist(0, 1)
        sample = [nd.inv_cdf((i - 0.5) / n) for i in range(1, n + 1)]
        res = ks_normality(sample, alpha=0.05)
        assert not res.reject
        assert res.statistic < 0.05

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError, match="zero standard deviation"):
            ks_normality([3.0] * 10)

    def test_uniform_sample_rejects(self):
        rng = random.Random(42)
        sample = [rng.random() for _ in range(1000)]
        res = ks_normality(sample, alpha=0.05)
        assert res.reject
        assert res.statistic > 1.358 / math.sqrt(1000)

    def test_critical_value_formula(self):
        res = ks_normality([0.1, 0.9, 0.2, 0.8, 0.5, 0.4], alpha=0.05)
        assert res.critical_value == pytest.approx(1.3581 / math.sqrt(6), abs=1e-3)

    def test_reject_iff_statistic_exceeds_critical(self):
        rng = random.Random(3)
        for _ in range(20):
            sample = [rng.gauss(0, 1) for _ in range(rng.randint(5, 60))]
            res = ks_normality(sample)
            assert res.reject == (res.statistic > res.critical_value)

    @settings(max_examples=30)
    @given(
        st.integers(0, 2**32),
        st.floats(-100, 100),
        st.floats(0.01, 50),
    )
    def test_affine_invariance(self, seed, shift, scale):
        rng = random.Random(seed)
        sample = [rng.gauss(0, 1) for _ in range(30)]
        base = ks_normality(sample)
        moved = ks_normality([scale * x + shift for x in sample])
        assert moved.statistic == pytest.approx(base.statistic, abs=1e-9)

    def test_lilliefors_mode_is_stricter(self):
        rng = random.Random(5)
        sample = [rng.gauss(0, 1) for _ in range(50)]
        plain = ks_normality(sample, alpha=0.05)
        lillie = ks_normality(sample, alpha=0.05, lilliefors=True)
        assert lillie.critical_value < plain.critical_value

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            ks_normality([1.0, 2.0, 3.0])

    def test_lilliefors_alpha_without_coefficient_rejected(self):
        sample = [0.1, 0.9, 0.2, 0.8, 0.5, 0.4]
        with pytest.raises(ValueError, match=r"^no Lilliefors coefficient for alpha=0\.2$"):
            ks_normality(sample, alpha=0.2, lilliefors=True)


def mask_histogram_by_sd(sample):
    """The mask-counting histogram_by_sd that the sorted searches replaced; a differential oracle."""
    x = np.asarray(sample, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    s = _sd(x)
    if s == 0 or not np.isfinite(s):
        raise ValueError("degenerate sample: non-finite or zero standard deviation")
    m = x.mean()
    edges = [m + j * s for j in (-3, -2, -1, 0, 1, 2, 3)]
    counts = [int(np.sum(x < edges[0]))]
    for lo, hi in zip(edges[:-1], edges[1:]):
        counts.append(int(np.sum((x >= lo) & (x < hi))))
    counts.append(int(np.sum(x >= edges[-1])))

    def coverage(kk):
        return float(np.mean((x >= m - kk * s) & (x <= m + kk * s)) * 100)

    return SdHistogram(float(m), float(s), tuple(counts), coverage(1), coverage(2), coverage(3), n)


@st.composite
def on_edge_samples(draw):
    """Integer samples with an exact mean c and sd a, and values on the band edges.

    Nonzero values v and -v with squares summing to Q, plus zeros up to
    n = Q + 1, have mean 0 and sd 1 exactly; c + a * v moves every value
    onto the edge c + v * a.
    """
    half = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    values = half + [-v for v in half]
    values += [0] * (sum(v * v for v in values) + 1 - len(values))
    c, a = draw(st.integers(-50, 50)), draw(st.integers(1, 20))
    return draw(st.permutations([c + a * v for v in values]))


# from 1e-300 to 1e300 in magnitude, both signs
wide_floats = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(-9.99, 9.99),
    st.integers(-300, 299),
)


class TestHistogram:
    @settings(max_examples=300, deadline=None)
    @given(
        on_edge_samples()
        | st.lists(st.integers(-3, 3), min_size=2, max_size=60)
        | st.lists(wide_floats, min_size=2, max_size=3)
        | st.lists(wide_floats, min_size=2, max_size=40)
    )
    def test_identical_to_mask_counts(self, sample):
        try:
            expected = repr(mask_histogram_by_sd(sample))
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                histogram_by_sd(sample)
            return
        assert repr(histogram_by_sd(sample)) == expected

    def test_on_edge_sample_is_exact(self):
        # -3 .. 3 and 23 zeros: mean 0 and sd 1, a value on every edge but 0's
        h = histogram_by_sd([-3, -2, -1, 1, 2, 3] + [0] * 23)
        assert (h.mean, h.sd) == (0.0, 1.0)
        assert h.bin_counts == (0, 1, 1, 1, 23, 1, 1, 1)
        assert (h.coverage_1s, h.coverage_2s, h.coverage_3s) == (25 / 29 * 100, 27 / 29 * 100, 100.0)

    def test_symmetric_two_point_sample(self):
        h = histogram_by_sd([-1.0, 1.0])
        assert sum(h.bin_counts) == 2
        assert h.bin_counts[3] + h.bin_counts[4] == 2
        assert h.coverage_1s == 100.0

    def test_counts_sum_to_n(self):
        rng = random.Random(7)
        sample = [rng.gauss(3, 2) for _ in range(137)]
        h = histogram_by_sd(sample)
        assert sum(h.bin_counts) == 137
        assert h.sample_size == 137

    def test_coverage_monotone(self):
        rng = random.Random(8)
        sample = [rng.gauss(0, 1) for _ in range(200)]
        h = histogram_by_sd(sample)
        assert h.coverage_1s <= h.coverage_2s <= h.coverage_3s <= 100.0

    def test_science_growth_column_complete_count(self, fixture_rows):
        col = [r.printed_a for r in edition_rows(fixture_rows, "science")]
        sample = [v for v in col if v is not None]
        assert len(sample) == 172  # two categories lack growth data
        h = histogram_by_sd(sample)
        assert sum(h.bin_counts) == 172

    def test_science_b_coverage_anchor(self, fixture_rows):
        col = [r.printed_b for r in edition_rows(fixture_rows, "science")]
        h = histogram_by_sd([v for v in col if v is not None])
        assert h.coverage_1s == pytest.approx(84.48, abs=0.6)

    def test_social_b_2s_coverage_anchor(self, fixture_rows):
        col = [r.printed_b for r in edition_rows(fixture_rows, "social")]
        h = histogram_by_sd([v for v in col if v is not None])
        assert h.coverage_2s == pytest.approx(98.21, abs=1.0)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError):
            histogram_by_sd([2.0, 2.0, 2.0])
