"""Seeded, stdlib-only generator of JCR-shaped journal CSVs.

What is measured and what is chosen:

* Measured, from the 2010 JCR category table that ships with cnifkit
  (``src/cnifkit/data/jcr2010_categories.csv``): the 230 category codes
  (174 science, 56 social science), each category's share of journals (its
  census-year items, ``refs_total / r``), and each category's growth ``a``,
  references per item ``r``, indexed share ``p``, window share ``w`` and
  AIF.  The three rows without ``a`` and AIF take the median ``a`` and
  ``a*r*p*w*b`` as AIF.
* Chosen: how many categories a journal lists (1, 2 or 3, in the shares
  ``CATEGORY_COUNT_SHARES``), that 60 % of secondary categories sit within
  six codes of the primary one (codes are alphabetical, so neighbours share
  a field prefix such as "ENGINEERING, ..."), the journal size distribution,
  the within-category spread of IF and references, and the 5 % of journals
  without the optional reference fields.  The category-count shares and the
  neighbour share are set so that 2,000 journals hold about 960 distinct
  category sets, the one reference figure the benchmark has.

Every journal has at least one citable item in each target-window year: the
JCR lists only journals with a full two-year window, so the generated sets
hold no degenerate (zero-window) journal.  Every category also has an anchor
member with reference fields and at least one citation, as every category of
the real JCR does.  The abort that a degenerate journal or a reference-free
category triggers today is tracked as ROADMAP item 4, not measured here.
"""
from __future__ import annotations

import csv
import hashlib
import io
import random
import statistics
from functools import lru_cache
from pathlib import Path

HEADER = [
    "id",
    "name",
    "categories",
    "items_t",
    "items_t1",
    "items_t2",
    "cited_in_window",
    "refs_total",
    "refs_jcr",
    "refs_jcr_in_window",
]

CATEGORY_TABLE = Path(__file__).resolve().parents[1] / "src" / "cnifkit" / "data" / "jcr2010_categories.csv"
CATEGORIES_PER_JOURNAL = (1, 2, 3)
CATEGORY_COUNT_SHARES = (0.60, 0.30, 0.10)
NEIGHBOUR_SHARE = 0.6
NEIGHBOUR_SPAN = 6
NO_REFERENCE_SHARE = 0.05
IF_SPREAD = 0.8  # sigma of a journal's log IF around its category's AIF


@lru_cache(maxsize=1)
def reference_categories() -> tuple[tuple[str, float, tuple[float, float, float, float, float]], ...]:
    """(code, size weight, (a, r, p, w, aif)) for each row of the 2010 JCR table."""
    with CATEGORY_TABLE.open(newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    median_a = statistics.median(float(r["a"]) for r in rows if r["a"] != "-")
    out = []
    for r in rows:
        rr, p, w, b = (float(r[k]) for k in ("r", "p", "w", "b"))
        a = median_a if r["a"] == "-" else float(r["a"])
        aif = a * rr * p * w * b if r["aif"] == "-" else float(r["aif"])
        out.append((r["code"], float(r["refs_total"]) / rr, (a, rr, p, w, aif)))
    return tuple(out)


def _quotas(total: int, shares: list[float]) -> list[int]:
    """Split ``total`` in proportion to ``shares`` by largest remainder."""
    exact = [total * w / sum(shares) for w in shares]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _pick_categories(rng: random.Random, primary: int, count: int, weights: list[float]) -> list[int]:
    chosen = [primary]
    while len(chosen) < count:
        if rng.random() < NEIGHBOUR_SHARE:
            c = (primary + rng.randint(-NEIGHBOUR_SPAN, NEIGHBOUR_SPAN)) % len(weights)
        else:
            c = rng.choices(range(len(weights)), weights)[0]
        if c not in chosen:
            chosen.append(c)
    return chosen


def generate_rows(n_journals: int, seed: int) -> list[list[str]]:
    """Return the CSV rows (header first) of ``n_journals`` seeded journals."""
    table = reference_categories()
    codes = [code for code, _, _ in table]
    weights = [size for _, size, _ in table]
    if n_journals < len(codes):
        raise ValueError(f"need at least {len(codes)} journals, one per category")
    rng = random.Random(seed)
    # Sizes are fixed by quota, so seeds vary which journals are in which
    # categories, not how much work a workload does.
    n_anchor = len(codes)
    primaries = [c for c, n in enumerate(_quotas(n_journals - n_anchor, weights)) for _ in range(n)]
    rng.shuffle(primaries)
    primaries = list(range(n_anchor)) + primaries
    counts = [k for k, n in zip(CATEGORIES_PER_JOURNAL, _quotas(n_journals, CATEGORY_COUNT_SHARES))
              for _ in range(n)]
    rng.shuffle(counts)
    no_refs = set(rng.sample(range(n_anchor, n_journals), round(NO_REFERENCE_SHARE * n_journals)))
    rows = []
    for i in range(n_journals):
        cats = _pick_categories(rng, primaries[i], counts[i], weights)
        a, refs_per_item, p, w, aif = table[cats[0]][2]
        items_t1 = max(1, round(rng.lognormvariate(3.8, 0.9)))
        items_t2 = max(1, round(items_t1 * rng.lognormvariate(0.0, 0.15)))
        items_t = max(1, round(a * (items_t1 + items_t2) * rng.lognormvariate(0.0, 0.12)))
        # mean-one noise, so a category's AIF centres on the table's
        cited = round(aif * rng.lognormvariate(-IF_SPREAD**2 / 2, IF_SPREAD) * (items_t1 + items_t2))
        if i < n_anchor:
            cited = max(1, cited)
        if i in no_refs:
            refs = ["", "", ""]
        else:
            refs_total = max(1, round(items_t * refs_per_item * rng.lognormvariate(0.0, 0.25)))
            refs_jcr = max(1, round(refs_total * min(1.0, p * rng.lognormvariate(0.0, 0.1))))
            in_window = max(1, round(refs_jcr * min(1.0, w * rng.lognormvariate(0.0, 0.3))))
            refs = [str(refs_total), str(refs_jcr), str(in_window)]
        name = f"Journal {i + 1:05d}"
        if rng.random() < 0.1:
            name += ", Series " + rng.choice("ABC")
        rows.append(
            [f"J{i + 1:05d}", name, ";".join(codes[c] for c in cats), str(items_t), str(items_t1),
             str(items_t2), str(cited)]
            + refs
        )
    rng.shuffle(rows)
    return [HEADER] + rows


def to_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def input_properties(rows: list[list[str]], text: str) -> dict:
    """Properties of a generated set that the benchmark records with every result."""
    body = rows[1:]
    cats = [r[2].split(";") for r in body]
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "bytes": len(text.encode("utf-8")),
        "journals": len(body),
        "categories": len({c for cs in cats for c in cs}),
        "multi_category_share": sum(len(cs) > 1 for cs in cats) / len(body),
        "distinct_category_sets": len({frozenset(cs) for cs in cats}),
        "rows_without_reference_fields": sum(r[7] == "" for r in body),
        "degenerate_journals": sum(int(r[4]) + int(r[5]) == 0 for r in body),
    }
