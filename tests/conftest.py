import random

import pytest

from cnifkit.core_model import Dataset, JournalRecord
from cnifkit.ingest import parse_category_fixture_csv
from cnifkit.reference import bundled_fixture_path


def make_dataset(journals):
    return Dataset(tuple(journals))


def make_journal(jid, categories, items_t1, items_t2, cited, items_t=0, refs=None):
    refs_total, refs_jcr, refs_win = refs if refs else (None, None, None)
    return JournalRecord(
        id=jid,
        name=jid.upper(),
        categories=tuple(categories),
        items_t=items_t,
        items_t1=items_t1,
        items_t2=items_t2,
        cited_in_window=cited,
        refs_total=refs_total,
        refs_jcr=refs_jcr,
        refs_jcr_in_window=refs_win,
    )


def random_journal(rng: random.Random, jid, categories, max_count=10**6):
    refs_total = rng.randint(0, max_count)
    refs_jcr = rng.randint(0, refs_total)
    return JournalRecord(
        id=jid,
        name=jid,
        categories=tuple(categories),
        items_t=rng.randint(0, max_count),
        items_t1=rng.randint(1, max_count),
        items_t2=rng.randint(0, max_count),
        cited_in_window=rng.randint(0, max_count),
        refs_total=refs_total,
        refs_jcr=refs_jcr,
        refs_jcr_in_window=rng.randint(0, refs_jcr),
    )


@pytest.fixture(scope="session")
def fixture_rows():
    with open(bundled_fixture_path(), encoding="utf-8") as f:
        return parse_category_fixture_csv(f)


@pytest.fixture(scope="session")
def fixture_by_code(fixture_rows):
    return {r.code: r for r in fixture_rows}
