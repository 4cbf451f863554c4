"""The benchmark's own tests: generator determinism, trace counts, checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
No test depends on wall-clock time.
"""
import json
from pathlib import Path

import pytest

import checks
import gen
import run
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS

from cnifkit import cli, indicators, ranking
from cnifkit.core_model import Dataset

ROOT = Path(__file__).resolve().parents[2]

# j2 lists A and B; every other journal lists one category.
TINY = [
    gen.HEADER,
    ["j1", "One", "A", "10", "5", "5", "20", "300", "200", "40"],
    ["j2", "Two", "A;B", "8", "4", "4", "8", "", "", ""],
    ["j3", "Three", "B", "6", "3", "3", "3", "100", "90", "10"],
    ["j4", "Four", "C", "4", "2", "2", "1", "50", "40", "5"],
]


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(gen.to_csv(TINY), encoding="utf-8")
    return path


def traced_counts(argv):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.command(argv[0]):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer.layer_metrics()


def test_same_seed_gives_byte_identical_csv():
    assert gen.to_csv(gen.generate_rows(500, 7)) == gen.to_csv(gen.generate_rows(500, 7))
    assert gen.to_csv(gen.generate_rows(500, 7)) != gen.to_csv(gen.generate_rows(500, 8))


def test_generated_set_is_jcr_shaped():
    rows = gen.generate_rows(2000, 3)
    props = gen.input_properties(rows, gen.to_csv(rows))
    assert props["journals"] == 2000
    assert props["categories"] == 230
    assert props["rows_without_reference_fields"] == 100
    assert props["degenerate_journals"] == 0
    assert props["multi_category_share"] == 0.40
    # about 960 distinct category sets per 2,000 journals is the reference figure
    assert 860 <= props["distinct_category_sets"] <= 1060
    assert all(1 <= len(r[2].split(";")) <= 3 for r in rows[1:])


def test_cnif_makes_one_jcr_aggregate_per_journal(tiny_csv, tmp_path):
    m = traced_counts(["cnif", "--input", str(tiny_csv), "--out", str(tmp_path / "o")])
    assert m["ingest.rows_parsed"] == 4
    assert m["indicators.cnif_calls"] == 4
    assert m["indicators.jcr_aggregate_calls"] == 4
    assert m["indicators.jcr_aggregate_useful_ratio"] == 1 / 4
    assert m["indicators.meta_aggregate_calls"] == 4
    assert m["indicators.meta_aggregate_useful_ratio"] == 1.0  # four distinct category sets
    # one members() scan per category of each journal: 1 + 2 + 1 + 1
    assert m["core_model.members_calls"] == 5
    assert m["core_model.members_rows_scanned"] == 5 * 4


def test_rank_cnif_scores_every_membership(tiny_csv, tmp_path):
    m = traced_counts(["rank", "--scorer", "cnif", "--input", str(tiny_csv),
                       "--out", str(tmp_path / "o")])
    assert m["ranking.rank_category_calls"] == 3
    # A: j1, j2; B: j2, j3; C: j4
    assert m["indicators.cnif_calls"] == 5
    assert m["indicators.jcr_aggregate_calls"] == 5
    # j2 is scored twice with the same category set
    assert m["indicators.meta_aggregate_useful_ratio"] == 4 / 5
    # cmd_rank's emptiness check and rank_category: 2 per category, plus the
    # meta aggregates' scans: 1 (j1) + 2 (j2) + 2 (j2) + 1 (j3) + 1 (j4)
    assert m["core_model.members_calls"] == 3 * 2 + 7


def test_ward_pair_evals_is_the_pair_scan_cost_of_the_leaves_clustered(tmp_path):
    m = traced_counts(["stats", "cluster", "--edition", "social", "--out", str(tmp_path / "o")])
    rows = (tmp_path / "o").read_text().splitlines()
    # the 55 complete social rows: a header and 54 merges
    assert len(rows) == 1 + 54
    # 55*54/2 + 54*53/2 + ... + 2*1/2 active pairs scanned, one term per merge
    assert m["stats.ward_pair_evals"] == 27720


def test_uninstall_restores_every_patched_name():
    before = (ranking.cnif, indicators.cnif, cli.validate, Dataset.members)
    tracer = Tracer()
    tracer.install()
    assert ranking.cnif is not before[0] and ranking.cnif is indicators.cnif
    tracer.uninstall()
    assert (ranking.cnif, indicators.cnif, cli.validate, Dataset.members) == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 5.0, 7.0, 0]]
    incl, self_t = tracer.span_times()
    assert incl["a"] == 10.0  # the nested "a" is inside the outer one
    assert self_t["a"] == (10.0 - 3.0 - 2.0) + 2.0
    assert self_t["b"] == 3.0


def test_span_times_leave_out_probe_samples_inside_spans():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0]]
    # (start, duration): one sample in b, one in a only, one after both
    incl, self_t = tracer.span_times([(2.0, 0.5), (6.0, 0.25), (11.0, 1.0)])
    assert incl["a"] == 10.0 - 0.75
    assert self_t["b"] == 3.0 - 0.5
    assert self_t["a"] == 10.0 - 0.75 - 2.5


@pytest.mark.parametrize("name", ["score-2k", "ingest-10k"])
def test_oracle_accepts_program_output_and_catches_a_changed_cell(name, tmp_path):
    rows = gen.generate_rows(400, 11)
    path = tmp_path / "in.csv"
    path.write_text(gen.to_csv(rows), encoding="utf-8")
    journals = checks.Journals(rows)
    for command in WORKLOADS[name].commands:
        out = tmp_path / command.name
        assert cli.main(list(command.argv) + ["--input", str(path), "--out", str(out)]) == 0
        assert checks.check_command(command, out, 0, journals, None, {}) is None, command.name
        if command.name == "validate":
            continue
        lines = out.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = "9" + cells[-1]
        out.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        assert checks.check_command(command, out, 0, journals, None, {}) is not None


def test_reference_checks_hold_and_table4_keeps_its_mismatches(tmp_path):
    digests = checks.load_digests()["reference-stats"][checks.FIXED]
    for command in WORKLOADS["reference-stats"].commands:
        out = tmp_path / command.name
        code = cli.main(list(command.argv) + ["--out", str(out)])
        assert checks.check_command(command, out, code, None, digests, {}) is None, command.name
    assert WORKLOADS["reference-stats"].commands[-1].exit_code == 1


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert "p50" not in run.summarize([1.0] * 19, "s")
    assert "p50" in run.summarize([1.0] * 20, "s")
    assert "p90" in run.summarize(list(range(100)), "s")


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["why"] for m in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = [m["name"] for m in spec["per_layer"]]
    assert layer_names == [*LAYER_METRICS, *run.TRACE_METRICS, *run.RAW_METRICS]
