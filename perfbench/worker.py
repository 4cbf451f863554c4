"""One pass of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC.json``.  The spec names the
``src`` directory to import cnifkit from, the commands to run (none: only
time the import), whether to trace, and where to write the result.  The
result holds the import time, each command's time and exit code, the pass
time, the process's peak resident memory and, when traced, the layer
metrics of the pass; the spans go to their own file.

Times are corrected for the machine's speed.  On a shared host the speed of
this process swings by up to 2.7x within seconds, and a fixed pure-Python
loop slows by about the same factor as cnifkit does (see the README for the
code this was checked on).  ``SpeedProbe`` times that loop on a wall-clock
timer while the work runs, so its mean loop time is the machine's mean speed
over the work.  A stretch of work is then timed as its wall time, less the
probe's own time, scaled by ``REF_LOOP_S`` over the mean loop time.  The raw
wall times are kept in the result as ``*_wall_s``, and the pass's process
CPU time, less the probe's, as ``pass_cpu_s``, so a gap between corrected
and raw time shows.
"""
from __future__ import annotations

import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

# Median time of _loop() on the reference machine (2 vCPUs at 2.1 GHz,
# Python 3.11) when uncontended: corrected times read as seconds there.
REF_LOOP_S = 0.0007
SAMPLE_EVERY_S = 0.05
EDGE_SAMPLES = 10
WARM_UP = 3
_KEYS = [f"S{i}" for i in range(200)]


def _loop() -> None:
    acc = 0
    seen = {}
    for _ in range(50):
        for k in _KEYS:
            if k in ("S1", "S2", "S3"):
                acc += 1
            seen[k] = acc


class SpeedProbe:
    """Times ``_loop`` every ``SAMPLE_EVERY_S`` of wall time while work runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        _loop()
        self.samples.append((start, perf_counter() - start))

    def __enter__(self):
        for _ in range(WARM_UP):
            _loop()
        for _ in range(EDGE_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def factor(self) -> float:
        """Reference speed over the mean speed while the probe ran."""
        return REF_LOOP_S * len(self.samples) / sum(d for _, d in self.samples)

    def net(self, start: float, end: float) -> float:
        """Wall time of [start, end] less the probe's own samples inside it."""
        return end - start - sum(d for s, d in self.samples if start <= s < end)


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    with SpeedProbe() as probe:
        start = perf_counter()
        import cnifkit.cli as cli
        end = perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"cnifkit imported from {cli.__file__}, not from {src}")
    import numpy

    setup_wall_s = probe.net(start, end)
    result = {
        "setup_wall_s": setup_wall_s,
        "setup_s": setup_wall_s * probe.factor(),
        "loop_ms": [1000 * d for _, d in probe.samples],
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    commands = spec["commands"]
    if commands:
        tracer = None
        if spec["trace"]:
            from tracing import LAYER_METRICS, Tracer

            tracer = Tracer()
            tracer.install()
        spans, exit_codes = [], []
        cpu_start = cpu_s()
        with SpeedProbe() as probe:
            for cli_name, argv in commands:
                start = perf_counter()
                if tracer:
                    with tracer.command(cli_name):
                        code = cli.main(argv)
                else:
                    code = cli.main(argv)
                spans.append((start, perf_counter()))
                exit_codes.append(code)
        cpu = cpu_s() - cpu_start - sum(d for _, d in probe.samples)
        factor = probe.factor()
        wall = [probe.net(s, e) for s, e in spans]
        result["command_wall_s"] = wall
        result["command_s"] = [w * factor for w in wall]
        result["pass_wall_s"] = sum(wall)
        result["pass_s"] = sum(wall) * factor
        result["pass_cpu_s"] = cpu
        result["loop_ms"] += [1000 * d for _, d in probe.samples]
        result["exit_codes"] = exit_codes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
            result["layers"] = {
                name: value * factor if LAYER_METRICS[name][2] == "s" else value
                for name, value in tracer.layer_metrics(probe.samples).items()
            }
            tracer.write_spans(spec["spans_path"])
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
