"""Detect benchmark: one seeded stream through ``outcry detect``, with checks.

    python3 perfbench/run.py --workload ambient_100k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported and run from
``src/``.  With ``--trace 0`` every detect runs as a child process, the way
users run it, and the end-to-end metrics are printed.  With ``--trace 1``
detect runs in this process with spans around each layer, and the per-layer
metrics are printed.  Either way the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

A run repeats whole rounds of operations until ``--seconds`` have passed
(at least three rounds untraced, one traced).  An operation is one detect
invocation; it fails on a non-zero exit, a traceback, or a failed output
check.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("ambient_100k", "firehose", "shared_vocab")
# Empty-stream detects per round.  A traced round runs one fewer, because it
# runs the stream twice (untraced and traced), so both modes attempt the same
# number of operations per round.
SETUP_RUNS = 3
# Fewest rounds of a timed run, so that each end-to-end figure is a median of
# at least three stream detects even when one detect takes a third of the run.
TIMED_ROUNDS = 3
# What the installed ``outcry`` console script runs.
ENTRY = "import sys; from outcry.cli import main; sys.exit(main())"


class Launcher:
    """Handle on spawn.py, which runs each child detect and times it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, argv: list[str], out: Path, err: Path) -> dict:
        request = {"argv": argv, "env": self.env, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited early")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Tally:
    """Operations attempted and failed.  Only the out-of-range epoch probe
    may fail without making the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0

    def record(self, label: str, errors: list[str], known_fault: bool = False) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.unexpected += not known_fault
            print(f"{label}: FAILED: {'; '.join(errors)[:2000]}", file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {"correct": self.unexpected == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def outputs_errors(exit_code: int, stderr: str, report: Path, state: Path, check) -> list[str]:
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    if "Traceback" in stderr:
        errors.append("traceback: " + stderr.strip().splitlines()[-1])
    if errors:
        return errors
    try:
        payload = json.loads(report.read_text(encoding="utf-8"))
        return check(payload, state)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


class Runner:
    def __init__(self, wl, check, launcher: Launcher, work: Path):
        self.wl, self.check, self.launcher, self.work = wl, check, launcher, work
        self.tally = Tally()
        self.empty = work / "empty.jsonl"
        self.empty.write_text("")
        self.probe = work / "probe.jsonl"
        if wl.probe:
            from streams import PROBE_LINES
            self.probe.write_text("".join(line + "\n" for line in PROBE_LINES))

    def args(self, stream: Path) -> list[str]:
        for name in ("report.json", "state.json"):
            (self.work / name).unlink(missing_ok=True)
        return ["detect", "--input", str(stream), "--phrases", "acmecorp",
                "--out", str(self.work / "report.json"),
                "--state-out", str(self.work / "state.json")]

    def child(self, label: str, stream: Path, check, known_fault: bool = False) -> dict:
        argv = [sys.executable, "-c", ENTRY, *self.args(stream)]
        err = self.work / "stderr.txt"
        ran = self.launcher.run(argv, self.work / "stdout.txt", err)
        errors = outputs_errors(ran["exit"], err.read_text(errors="replace"),
                                self.work / "report.json", self.work / "state.json", check)
        self.tally.record(label, errors, known_fault)
        return ran

    def in_process(self, label: str, stream: Path, check, spans=None) -> float:
        """Run detect in this process, under spans when given; wall seconds."""
        from outcry import cli
        from tracing import instrument
        args = self.args(stream)
        start = time.perf_counter()
        try:
            if spans is None:
                code = cli.main(args)
            else:
                with instrument(spans):
                    code = cli.main(args)
            wall = time.perf_counter() - start
            errors = outputs_errors(code, "", self.work / "report.json",
                                    self.work / "state.json", check)
        except Exception:  # a crash is a failed operation, not a benchmark error
            wall = time.perf_counter() - start
            errors = ["traceback: " + traceback.format_exc().strip().splitlines()[-1]]
        self.tally.record(label, errors)
        return wall

    def probe_round(self) -> None:
        from checks import check_probe
        if self.wl.probe:
            self.child("probe 1e20 epoch", self.probe, check_probe, known_fault=True)

    def rounds(self, seconds: float, one_round, at_least: int) -> None:
        """Whole rounds until ``seconds`` have passed and ``at_least`` rounds
        have run."""
        start = time.perf_counter()
        done = 0
        while done < at_least or time.perf_counter() - start < seconds:
            one_round()
            done += 1


def timed(runner: Runner, seconds: float) -> dict:
    from checks import check_empty
    setups, rates, rss = [], [], []

    def one_round():
        for _ in range(SETUP_RUNS):
            setups.append(runner.child("empty stream", runner.empty, check_empty)["wall_s"])
        ran = runner.child(runner.wl.name, runner.wl.stream, runner.check)
        print(f"round {len(rates) + 1}: detect {ran['wall_s']:.3f} s, "
              f"empty detects {[round(s, 3) for s in setups[-SETUP_RUNS:]]} s", file=sys.stderr)
        rates.append(runner.wl.lines / ran["wall_s"])
        rss.append(ran["maxrss_kb"] / 1024)
        runner.probe_round()

    runner.rounds(seconds, one_round, TIMED_ROUNDS)
    return runner.tally.result({
        "records_per_s": {"value": statistics.median(rates), "unit": "records/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    })


def traced(runner: Runner, seconds: float) -> dict:
    from checks import check_empty
    from tracing import Spans, layer_metrics
    samples: dict[str, list[float]] = {}
    build_s: list[float] = []
    traces: list = []

    def one_round():
        for _ in range(SETUP_RUNS - 1):
            spans = Spans()
            runner.in_process("empty stream (traced)", runner.empty, check_empty, spans)
            build_s.append(spans.busy().get("pipeline.build_extractor", (0.0, 0))[0])
            traces.append(spans)
        untraced = runner.in_process(runner.wl.name, runner.wl.stream, runner.check)
        spans = Spans()
        wall = runner.in_process(runner.wl.name + " (traced)", runner.wl.stream, runner.check, spans)
        layers = layer_metrics(spans, runner.work / "report.json")
        build_s.append(layers.pop("pipeline.build_extractor_s"))
        layers["trace.overhead_s"] = wall - untraced
        for key, value in layers.items():
            samples.setdefault(key, []).append(value)
        traces.append(spans)
        runner.probe_round()

    runner.rounds(seconds, one_round, 1)
    with open(runner.work / "spans.tsv", "w", encoding="utf-8") as handle:
        handle.write("run\tspan\tname\tstart\tend\tparent\n")
        for run, spans in enumerate(traces):
            spans.write(handle, run)
    samples["pipeline.build_extractor_s"] = build_s
    return runner.tally.result({
        key: {"value": statistics.median(values), "unit": unit_of(key)}
        for key, values in sorted(samples.items())
    })


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith(("ingest.us_", "features.us_", "clustering.us_")):
        return "us"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "outcry" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    launcher = Launcher()  # before this process grows; see spawn.py
    try:
        sys.path.insert(0, str(SRC))
        import outcry
        import outcry.cli  # noqa: F401  (compiles every module before timing)
        if Path(outcry.__file__).resolve().parent != SRC / "outcry":
            print(f"error: imported outcry from {outcry.__file__}", file=sys.stderr)
            return 2
        import checks
        import streams
        wl = streams.STREAMS[args.workload](args.seed, work)
        runner = Runner(wl, checks.CHECKS[args.workload](wl), launcher, work)
        result = (traced if args.trace else timed)(runner, args.seconds)
        wl.stream.unlink()
    finally:
        launcher.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
