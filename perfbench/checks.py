"""Output checks for every command a workload runs.

Two independent checks apply to each output file, side files included:

* Digests: the SHA-256 of each file as recorded in ``digests.json`` for the
  default seeds (and, for ``reference-stats``, for the fixed bundled table).
* Invariants, for any seed: an oracle recomputes, from the generated
  integer columns alone, what each journal command must print -- row
  counts, per-category member counts, IF, AIF, the five components, CNIF,
  competition ranks and percentiles, and the gap summary -- and the output
  must equal it cell for cell.  On the bundled table it checks row counts
  and the published-table verdicts (table 4 keeps its 7 mismatched cells).

The oracle uses exact integer sums followed by one division, the same
operation order as the package, so equal outputs are byte-identical.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")
FIXED = "fixed"  # digest key of the seedless reference workload
DIGITS = 3
REFERENCE_ROWS = 230
REFERENCE_COMPLETE_ROWS = 227
TABLE4_MISMATCHES = 7


def round_away(x: float, digits: int) -> float:
    scale = 10**digits
    scaled = x * scale
    if scaled >= 0:
        return int(scaled + 0.5) / scale
    return -int(-scaled + 0.5) / scale


def fmt(x) -> str:
    return "" if x is None else f"{round_away(x, DIGITS):.{DIGITS}f}"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_digests() -> dict:
    if not DIGESTS_PATH.is_file():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


class Journals:
    """The generated journal set and every quantity the oracle derives from it."""

    def __init__(self, rows: list[list[str]]):
        self.ids, self.cats, self.counts, self.refs = [], [], [], []
        for r in rows[1:]:
            self.ids.append(r[0])
            self.cats.append(r[2].split(";"))
            self.counts.append(tuple(int(v) for v in r[3:7]))  # items_t, t1, t2, cited
            self.refs.append(None if r[7] == "" else tuple(int(v) for v in r[7:10]))
        self.members: dict[str, list[int]] = {}
        for i, cs in enumerate(self.cats):
            for c in cs:
                self.members.setdefault(c, []).append(i)
        self.codes = sorted(self.members)
        self.by_id = sorted(range(len(self.ids)), key=lambda i: self.ids[i])
        self.impact = [cited / (t1 + t2) for _, t1, t2, cited in self.counts]
        self.jcr_aif = self._aif(range(len(self.ids)))
        meta_cache: dict[frozenset, float] = {}
        self.cnif = []
        for i, cs in enumerate(self.cats):
            key = frozenset(cs)
            if key not in meta_cache:
                union = {j for c in cs for j in self.members[c]}
                meta_cache[key] = self._aif(union)
            self.cnif.append((self.jcr_aif / meta_cache[key], meta_cache[key]))

    def _aif(self, idx) -> float:
        cited = window = 0
        for i in idx:
            window += self.counts[i][1] + self.counts[i][2]
            cited += self.counts[i][3]
        return cited / window

    def category(self, code: str) -> tuple[float, tuple, int]:
        """AIF, the five components (a, r, p, w, b) and the reference exclusions."""
        a_t = a_w = cited = refs_total = refs_jcr = nciting = excluded = 0
        for i in self.members[code]:
            items_t, t1, t2, c = self.counts[i]
            a_t += items_t
            a_w += t1 + t2
            cited += c
            if self.refs[i] is None:
                excluded += 1
            else:
                refs_total += self.refs[i][0]
                refs_jcr += self.refs[i][1]
                nciting += self.refs[i][2]
        comps = (a_t / a_w, refs_total / a_t, refs_jcr / refs_total, nciting / refs_jcr, cited / nciting)
        return cited / a_w, comps, excluded

    def score(self, i: int, scorer: str) -> float:
        if scorer == "if":
            return self.impact[i]
        score, _meta = self.cnif[i]
        return score * self.impact[i]

    def ranking(self, code: str, scorer: str) -> list[tuple[str, float, int, float]]:
        """(journal id, score, competition rank, percentile), best first."""
        scored = sorted(((self.score(i, scorer), self.ids[i]) for i in self.members[code]),
                        key=lambda t: (-t[0], t[1]))
        n = len(scored)
        out = []
        rank = 1
        for pos, (s, jid) in enumerate(scored, start=1):
            if pos > 1 and s < scored[pos - 2][0]:
                rank = pos
            out.append((jid, s, rank, rank / n * 100.0))
        return out


# --- expected outputs of the journal commands, as CSV rows --------------------

def _validate(js: Journals) -> str:
    return "[]\n"


def _indicators(js: Journals) -> list[list[str]]:
    rows = [["category", "journals", "aif", "a", "r", "p", "w", "b", "reference_exclusions"]]
    for code in js.codes:
        aif, comps, excluded = js.category(code)
        rows.append([code, str(len(js.members[code])), fmt(aif)] + [fmt(v) for v in comps]
                    + [str(excluded)])
    return rows


def _decompose(js: Journals) -> list[list[str]]:
    rows = [["category", "a", "r", "p", "w", "b", "product", "aif"]]
    for code in js.codes:
        aif, (a, r, p, w, b), _ = js.category(code)
        rows.append([code] + [fmt(v) for v in (a, r, p, w, b)] + [fmt(a * r * p * w * b), fmt(aif)])
    return rows


def _rank(js: Journals, scorer: str) -> list[list[str]]:
    rows = [["category", "journal_id", "score_desc", "score", "rank", "percentile"]]
    for code in js.codes:
        for jid, s, rank, pct in js.ranking(code, scorer):
            rows.append([code, jid, scorer, fmt(s), str(rank), fmt(pct)])
    return rows


def _cnif(js: Journals) -> list[list[str]]:
    rows = [["journal_id", "if", "meta_aif", "jcr_aif", "score", "cnif"]]
    for i in js.by_id:
        score, meta = js.cnif[i]
        rows.append([js.ids[i], fmt(js.impact[i]), fmt(meta), fmt(js.jcr_aif), fmt(score),
                     fmt(score * js.impact[i])])
    return rows


def _gap(js: Journals) -> tuple[list[list[str]], list[list[str]]]:
    pct = {"if": {}, "cnif": {}}
    for scorer, by_journal in pct.items():
        for code in js.codes:
            for jid, _s, _rank, p in js.ranking(code, scorer):
                by_journal.setdefault(jid, []).append(p)
    rows = [["journal_id", "categories", "if", "cnif", "gap_if", "gap_cnif"]]
    gaps = []
    for i in js.by_id:
        if len(js.cats[i]) < 2:
            continue
        jid = js.ids[i]
        g_if = max(pct["if"][jid]) - min(pct["if"][jid])
        g_cnif = max(pct["cnif"][jid]) - min(pct["cnif"][jid])
        gaps.append((g_if, g_cnif))
        rows.append([jid, ";".join(js.cats[i]), fmt(js.impact[i]), fmt(js.score(i, "cnif")),
                     fmt(g_if), fmt(g_cnif)])
    g_if = [g for g, _ in gaps]
    g_cnif = [g for _, g in gaps]
    summary = [
        ["journal_count", "max_gap_if", "max_gap_cnif", "mean_gap_if", "mean_gap_cnif",
         "fraction_reduced"],
        [str(len(gaps)), fmt(max(g_if)), fmt(max(g_cnif)), fmt(sum(g_if) / len(g_if)),
         fmt(sum(g_cnif) / len(g_cnif)), fmt(sum(1 for a, b in gaps if b < a) / len(gaps))],
    ]
    return rows, summary


def expected_outputs(js: Journals, command) -> dict[str, object]:
    """Expected content per output suffix ("" is the main --out file)."""
    argv = command.argv
    if argv[0] == "validate":
        return {"": _validate(js)}
    if argv[0] == "indicators":
        return {"": _indicators(js)}
    if argv[0] == "decompose":
        return {"": _decompose(js)}
    if argv[0] == "rank":
        return {"": _rank(js, argv[argv.index("--scorer") + 1])}
    if argv[0] == "cnif":
        return {"": _cnif(js)}
    if argv[0] == "gap":
        rows, summary = _gap(js)
        return {"": rows, ".summary": summary}
    raise ValueError(f"no oracle for {argv}")


# --- invariants of the seedless reference workload -----------------------------

def _reference_invariant(command, text: dict[str, str]) -> str | None:
    argv = command.argv
    rows = list(csv.reader(io.StringIO(text[""])))
    if argv[0] == "stats" and argv[1] == "cluster":
        edition = argv[argv.index("--edition") + 1] if "--edition" in argv else "all"
        leaves = len(list(csv.reader(io.StringIO(text[".clusters"])))) - 1
        if len(rows) - 1 != leaves - 1:
            return f"{len(rows) - 1} merges for {leaves} leaves"
        if edition == "all" and leaves != REFERENCE_COMPLETE_ROWS:
            return f"{leaves} leaves, expected {REFERENCE_COMPLETE_ROWS} complete rows"
    elif argv[0] == "decompose" and len(rows) - 1 != REFERENCE_ROWS:
        return f"{len(rows) - 1} rows, expected {REFERENCE_ROWS}"
    elif argv[0].startswith("reproduce-"):
        status = [r[-1] for r in rows[1:]]
        bad = sum(s == "MISMATCH" for s in status)
        want = TABLE4_MISMATCHES if argv[0] == "reproduce-table4" else 0
        if bad != want:
            return f"{bad} mismatched checks, expected {want}"
    return None


# --- the check of one command's outputs -----------------------------------------

def _first_difference(got: list[list[str]], want: list[list[str]]) -> str:
    if len(got) != len(want):
        return f"{len(got) - 1} rows, expected {len(want) - 1}"
    for n, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"row {n}: {g} != expected {w}"
    return "differs"


def output_digests(command, out: Path) -> dict[str, str] | None:
    """SHA-256 per output file, keyed <command name><suffix>; None if one is missing or empty."""
    found = {}
    for suffix in ("",) + command.side_files:
        path = Path(f"{out}{suffix}")
        if not path.is_file() or path.stat().st_size == 0:
            return None
        found[command.name + suffix] = sha256_file(path)
    return found


def check_command(command, out: Path, exit_code: int, journals: Journals | None,
                  digests: dict | None, verdicts: dict) -> str | None:
    """Return why the command's outputs are wrong, or None if they are right.

    ``verdicts`` caches the verdict per distinct output, so repeated passes
    that print the same bytes are checked once.
    """
    if exit_code != command.exit_code:
        return f"exit code {exit_code}, expected {command.exit_code}"
    found = output_digests(command, out)
    if found is None:
        return "missing or empty output"
    key = tuple(sorted(found.items()))
    if key not in verdicts:
        verdicts[key] = _check_content(command, out, found, journals, digests)
    return verdicts[key]


def _check_content(command, out, found, journals, digests) -> str | None:
    if digests is not None:
        for name, got in found.items():
            if digests.get(name) != got:
                return f"{name}: sha256 {got[:12]} differs from the recorded digest"
    text = {s: Path(f"{out}{s}").read_text(encoding="utf-8") for s in ("",) + command.side_files}
    if journals is None:
        return _reference_invariant(command, text)
    for suffix, want in expected_outputs(journals, command).items():
        if isinstance(want, str):
            if text[suffix] != want:
                return f"{command.name}{suffix}: {text[suffix][:60]!r} != expected {want!r}"
            continue
        got = list(csv.reader(io.StringIO(text[suffix])))
        if got != want:
            return f"{command.name}{suffix}: {_first_difference(got, want)}"
    return None
