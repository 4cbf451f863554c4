"""cnifkit benchmark: run one workload for a fixed time and check every output.

Usage, from the root of a checkout (cnifkit is imported from ``src/``, not
installed)::

    python3 perfbench/run.py --workload score-2k --seed 1 --seconds 20 --trace 0

Load shape: a closed loop with one client.  Each pass runs the workload's
command list once, in a fresh interpreter (``perfbench/worker.py``), one
command after the other through ``cnifkit.cli.main``; passes follow each
other until the time is up.  Set-up time is the import of ``cnifkit.cli``,
timed in every fresh interpreter the run starts, probes included.  Times are
corrected for the machine's speed at the moment (see ``worker.py``).

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics (medians over the passes); with ``--trace 1`` untraced and traced
passes alternate, and it carries the layer metrics of the traced passes and
the tracing overhead.  The full report, with per-command times, input
properties and the run environment, goes to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import gen
from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PASS_TIMEOUT_S = 150
# One client, no threads: BLAS runs on the calling thread, as the speed probe does.
WORKER_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = ("trace.pass_s", "trace.overhead_s")
RAW_METRICS = ("raw.pass_wall_s", "raw.pass_cpu_s")


def summarize(values: list[float], unit: str) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"value": statistics.median(values), "unit": unit, "samples": len(values)}
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def source_identity() -> dict:
    """The git commit where there is one, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def spawn(spec: dict, workdir: Path) -> dict:
    """Run the worker on ``spec`` in a fresh interpreter; return its result or an error."""
    spec = dict(spec, result_path=str(workdir / "result.json"))
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=workdir, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
            env=dict(os.environ, **WORKER_ENV),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {PASS_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))


class Run:
    """One benchmark run of a workload: input, passes, checks and the report."""

    def __init__(self, workload, seed: int, trace: bool, tmp: Path):
        self.workload, self.seed, self.trace, self.tmp = workload, seed, trace, tmp
        self.input_csv = None
        self.journals = None
        self.input = {"source": "bundled reference table (src/cnifkit/data)"}
        digest_key = checks.FIXED
        if workload.journals:
            rows = gen.generate_rows(workload.journals, seed)
            text = gen.to_csv(rows)
            self.input_csv = tmp / "journals.csv"
            self.input_csv.write_text(text, encoding="utf-8")
            self.input = gen.input_properties(rows, text)
            self.journals = checks.Journals(rows)
            digest_key = str(seed)
        self.digests = checks.load_digests().get(workload.name, {}).get(digest_key)
        self.verdicts: dict = {}
        self.probes: list[dict] = []
        self.passes: list[dict] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.versions: dict = {}

    def probe_setup(self) -> None:
        for k in range(SETUP_PROBES):
            workdir = self.tmp / f"probe-{k}"
            workdir.mkdir()
            result = spawn({"src": str(SRC), "commands": [], "trace": False}, workdir)
            if "error" in result:
                raise RuntimeError(result["error"])
            self.probes.append(result)

    def run_pass(self, traced: bool) -> dict:
        n = len(self.passes)
        workdir = self.tmp / f"pass-{n}"
        workdir.mkdir()
        commands, outs = [], []
        for i, c in enumerate(self.workload.commands):
            out = workdir / f"{i:02d}-{c.name}.out"
            argv = list(c.argv)
            if c.takes_input:
                argv += ["--input", str(self.input_csv)]
            commands.append([c.cli_name, argv + ["--out", str(out)]])
            outs.append(out)
        spans_path = OUT / f"{self.workload.name}-seed{self.seed}.spans.json"
        result = spawn({"src": str(SRC), "commands": commands, "trace": traced,
                        "spans_path": str(spans_path)}, workdir)
        result["traced"] = traced
        self.attempted += len(commands)
        for i, c in enumerate(self.workload.commands):
            if "error" in result:
                reason = result["error"]
            else:
                reason = checks.check_command(c, outs[i], result["exit_codes"][i], self.journals,
                                              self.digests, self.verdicts)
            if reason:
                self.failures.append({"pass": n, "command": c.name, "reason": reason})
            else:
                result.setdefault("outputs", {}).update(checks.output_digests(c, outs[i]))
        if "error" not in result:
            self.versions = {"python": result["python"], "numpy": result["numpy"]}
        shutil.rmtree(workdir)
        self.passes.append(result)
        return result

    def measure(self, seconds: float) -> None:
        """Alternate untraced and traced passes (traced only with --trace 1) until time is up.

        Another pass starts if at least half of it fits before the deadline,
        so a run lasts ``seconds`` on average, give or take half a pass.
        """
        self.probe_setup()
        deadline = time.perf_counter() + seconds
        walls = []
        while True:
            start = time.perf_counter()
            self.run_pass(traced=self.trace and len(self.passes) % 2 == 1)
            walls.append(time.perf_counter() - start)
            enough = len(self.passes) >= (2 if self.trace else 1)
            if enough and time.perf_counter() + statistics.median(walls) / 2 > deadline:
                break

    def _ok(self, traced: bool) -> list[dict]:
        return [p for p in self.passes if "error" not in p and p["traced"] == traced]

    def end_to_end(self) -> dict:
        plain = self._ok(False)
        if not plain:
            return {}
        started = self.probes + [p for p in self.passes if "error" not in p]
        out = {
            "setup_s": summarize([p["setup_s"] for p in started], "s"),
            "pass_s": summarize([p["pass_s"] for p in plain], "s"),
            "peak_rss_mb": summarize([p["peak_rss_mb"] for p in plain], "MB"),
            "setup_wall_s": summarize([p["setup_wall_s"] for p in started], "s"),
            "pass_wall_s": summarize([p["pass_wall_s"] for p in plain], "s"),
            "pass_cpu_s": summarize([p["pass_cpu_s"] for p in plain], "s"),
            "loop_ms": summarize([ms for p in started for ms in p["loop_ms"]], "ms"),
        }
        for i, c in enumerate(self.workload.commands):
            out[f"{c.name}_s"] = summarize([p["command_s"][i] for p in plain], "s")
        return out

    def layers(self) -> tuple[dict, bool]:
        """Median of each layer metric over the traced passes, and whether counts repeat."""
        traced = self._ok(True)
        if not traced:
            return {}, False
        out = {}
        repeat = True
        for metric, (kind, _key, unit, _better) in LAYER_METRICS.items():
            values = [p["layers"][metric] for p in traced]
            if kind in ("count", "ratio"):
                repeat = repeat and len(set(values)) == 1
            out[metric] = {"value": statistics.median(values), "unit": unit}
        plain = self._ok(False)
        traced_s = statistics.median(p["pass_s"] for p in traced)
        out["trace.pass_s"] = {"value": traced_s, "unit": "s"}
        out["trace.overhead_s"] = {
            "value": traced_s - statistics.median(p["pass_s"] for p in plain) if plain else 0.0,
            "unit": "s",
        }
        # uncorrected times of the untraced passes, next to the corrected pass_s
        for name in RAW_METRICS:
            key = name.removeprefix("raw.")
            out[name] = {"value": statistics.median(p[key] for p in plain) if plain else 0.0, "unit": "s"}
        return out, repeat

    def report(self) -> dict:
        e2e = self.end_to_end()
        layers, counts_repeat = self.layers() if self.trace else ({}, None)
        return {
            "workload": self.workload.name,
            "why": self.workload.why,
            "load": "closed loop, 1 client, commands in sequence, fresh interpreter per pass",
            "seed": self.seed if self.workload.journals else None,
            "environment": {
                **self.versions,
                "nproc": os.cpu_count(),
                "usable_cpus": len(os.sched_getaffinity(0)),
                "machine": platform.machine(),
                **source_identity(),
            },
            "input": self.input,
            "digests_checked": self.digests is not None,
            "passes": len(self.passes),
            "attempted": self.attempted,
            "failed": len(self.failures),
            "error_rate": len(self.failures) / self.attempted,
            "failures": self.failures[:20],
            "end_to_end": e2e,
            "layers": layers,
            "layer_counts_repeat": counts_repeat,
        }


def print_summary(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']}: {report['passes']} passes, "
          f"{report['attempted']} commands, error_rate {report['error_rate']:.4f}")
    for name, m in list(report["end_to_end"].items()) + list(report["layers"].items()):
        tail = "".join(f"  {k} {v:.6g}" for k, v in m.items() if k.startswith("p"))
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{tail}{samples}")
    for f in report["failures"]:
        print(f"  FAILED pass {f['pass']} {f['command']}: {f['reason']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cnifkit" / "cli.py").is_file():
        print(f"error: no cnifkit sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        run = Run(workload, args.seed, bool(args.trace), tmp)
        run.measure(args.seconds)
        report = run.report()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print_summary(report)
    print(f"report: {report_path.relative_to(ROOT)}")
    source = report["layers"] if args.trace else report["end_to_end"]
    names = [*LAYER_METRICS, *TRACE_METRICS, *RAW_METRICS] if args.trace else END_TO_END_UNITS
    if any(n not in source for n in names):
        print("error: no pass completed, so there are no metrics", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": source[n]["value"], "unit": source[n]["unit"]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
