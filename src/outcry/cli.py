"""Command-line entry point: detect, market, synth, evaluate.

Exit codes: 0 success, 1 config error, 2 input/IO error.  Report files are
byte-stable for identical inputs (sorted keys, floats at six decimals, no
wall-clock fields).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date
from types import SimpleNamespace

from .clustering import ClusterState, read_json, require_int, stream_json
from .config import InvalidConfig, RunConfig
from .market import (
    InsufficientData,
    ZeroVariance,
    daily_returns,
    event_day_zscore,
    load_price_csv,
    paired_returns,
    return_histogram,
    return_stats,
)
from .pipeline import (
    SCHEMA_VERSION,
    DataFileError,
    _round_floats,
    report_counters,
    report_payload,
    run_detection,
    write_report,
)
from .synth import GroundTruth, ScenarioConfig, evaluate, generate
from .ingest import SourceUnavailable

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INPUT = 2

# The most histogram bins `market` builds: each is a list slot, so an
# unbounded --bins could ask for gigabytes.
MAX_BINS = 10_000


def _log(verbose: bool, event: str, **fields) -> None:
    if verbose:
        print(json.dumps({"event": event, **fields}, sort_keys=True), file=sys.stderr)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _write_output(write, out_path: str | None) -> bool:
    """``write(handle)`` on ``out_path`` opened for writing (or on stdout,
    then flushed); False, after an ``error:`` line, when it cannot be
    written."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as handle:
                write(handle)
        else:
            write(sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if not out_path and sys.stdout is sys.__stdout__:
            # The interpreter flushes stdout again at exit: what is left
            # goes to os.devnull, so that flush neither fails nor prints.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        _fail(f"cannot write output: {exc}")
        return False
    return True


def _write_json(payload: dict, out_path: str | None) -> bool:
    """``payload`` as indented JSON with sorted keys and a newline."""
    return _write_output(
        lambda handle: stream_json(payload, handle, indent=2, sort_keys=True), out_path)


def _events_table(payload: dict) -> str:
    header = (
        f"{'cluster':>7}  {'members':>7}  {'burst':>5}  {'velocity':>9}  "
        f"{'news':>4}  {'sentiment':>9}  {'flag':>5}  {'rank':>8}  top terms"
    )
    lines = [header, "-" * len(header)]
    for ev in payload["events"]:
        terms = ", ".join(term for term, _ in ev["top_terms"])
        lines.append(
            f"{ev['cluster_id']:>7}  {ev['member_count']:>7}  "
            f"{'yes' if ev['burst_flag'] else 'no':>5}  {ev['burst_velocity']:>9.3f}  "
            f"{ev['news_count']:>4}  {ev['sentiment_mean']:>9.3f}  "
            f"{'YES' if ev['controversial'] else 'no':>5}  {ev['rank_score']:>8.4f}  {terms}"
        )
    counters = payload["counters"]
    lines.append("")
    lines.append(
        f"tweets: {counters['total']} total, {counters['yielded']} matched, "
        f"{counters['admitted']} clustered, {counters['parse_errors']} parse errors, "
        f"{counters['dropped_late']} late-dropped"
    )
    return "\n".join(lines) + "\n"


def _detect_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.phrases:
        cfg.phrases = args.phrases
    if args.input:
        cfg.input = args.input
    if args.lateness_seconds is not None:
        cfg.lateness_seconds = args.lateness_seconds
    if args.state_out:
        cfg.state_out = args.state_out
    if args.out:
        cfg.out = args.out
    if args.format:
        cfg.format = args.format
    cfg.validate()
    if not cfg.phrases:
        raise InvalidConfig("detect needs at least one phrase (--phrases or config)")
    if not cfg.input:
        raise InvalidConfig("detect needs an input stream (--input or config)")
    return cfg


def cmd_detect(args) -> int:
    try:
        cfg = _detect_config(args)
    except InvalidConfig as exc:
        _fail(str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _fail(f"cannot read config: {exc}")
        return EXIT_INPUT
    try:
        result = run_detection(cfg.input, cfg)
    except (SourceUnavailable, DataFileError) as exc:
        _fail(str(exc))
        return EXIT_INPUT
    _log(args.verbose, "detect_done",
         counters=report_counters(result), events=len(result.reports))
    if cfg.format == "json":
        written = _write_output(lambda handle: write_report(result, cfg, handle), cfg.out)
    else:
        written = _write_output(
            lambda handle: handle.write(_events_table(report_payload(result, cfg))), cfg.out)
    if not written:
        return EXIT_INPUT
    if cfg.state_out:
        try:
            result.state.save(cfg.state_out)
        except OSError as exc:
            _fail(f"cannot write state: {exc}")
            return EXIT_INPUT
    return EXIT_OK


def cmd_market(args) -> int:
    for name, value in (("--window-days", args.window_days), ("--bins", args.bins)):
        if value < 1:
            _fail(f"{name} must be >= 1, got {value}")
            return EXIT_CONFIG
    if args.bins > MAX_BINS:
        _fail(f"--bins must be <= {MAX_BINS}, got {args.bins}")
        return EXIT_CONFIG
    try:
        series = load_price_csv(args.prices)
    except OSError as exc:
        _fail(f"cannot read prices: {exc}")
        return EXIT_INPUT
    except ValueError as exc:
        _fail(f"bad price CSV: {exc}")
        return EXIT_INPUT

    payload: dict = {"schema_version": SCHEMA_VERSION, "symbol": series.symbol,
                     "window_days": args.window_days}
    try:
        returns = daily_returns(series)
    except InsufficientData as exc:
        _fail(str(exc))
        return EXIT_INPUT
    payload["returns"] = [[d.isoformat(), r] for d, r in returns]

    try:
        event_date = date.fromisoformat(args.event_date)
    except ValueError as exc:
        _fail(f"bad --event-date: {exc}")
        return EXIT_CONFIG
    payload["event_date"] = event_date.isoformat()

    window = [r for d, r in returns if d < event_date][-args.window_days:]
    event_return = dict(returns).get(event_date)
    payload["event_return"] = event_return

    status = EXIT_OK
    try:
        if event_return is None:
            raise InsufficientData(f"no return on event date {event_date}")
        stats = return_stats(window)
        payload["stats"] = stats._asdict()
        payload["zscore"] = event_day_zscore(event_return, stats)
        payload["histogram"] = [list(b) for b in return_histogram(window, args.bins)]
    except (InsufficientData, ZeroVariance) as exc:
        payload["error"] = str(exc)
        _fail(str(exc))
        status = EXIT_INPUT

    if args.index:
        try:
            index_series = load_price_csv(args.index)
            payload["index"] = {
                "symbol": index_series.symbol,
                "paired_returns": [
                    [d.isoformat(), a, b] for d, a, b in paired_returns(series, index_series)
                ],
            }
        except (OSError, ValueError, InsufficientData) as exc:
            _fail(f"cannot pair index series: {exc}")
            status = EXIT_INPUT

    if not _write_json(_round_floats(payload), args.out):
        return EXIT_INPUT
    _log(args.verbose, "market_done", status=status)
    return status


def cmd_synth(args) -> int:
    try:
        lines, truth = generate(ScenarioConfig.load(args.scenario))
    except InvalidConfig as exc:
        _fail(str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _fail(f"cannot read scenario: {exc}")
        return EXIT_INPUT
    if not _write_output(lambda handle: handle.writelines(line + "\n" for line in lines),
                         args.out):
        return EXIT_INPUT
    try:
        truth.save(args.truth or args.out + ".truth.json")
    except OSError as exc:
        _fail(f"cannot write output: {exc}")
        return EXIT_INPUT
    _log(args.verbose, "synth_done", tweets=len(lines),
         events=len(truth.events), out=args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    try:
        report = read_json(args.report)
        state = ClusterState.load(args.state)
        truth = GroundTruth.load(args.truth)
        events = report["events"]
        if not isinstance(events, list) or any(not isinstance(e["controversial"], bool)
                                               for e in events):
            raise ValueError("report events must be a list, each with a true/false controversial")
        reports = [SimpleNamespace(cluster_id=require_int("cluster_id", e["cluster_id"]),
                                   controversial=e["controversial"]) for e in events]
        result = evaluate(reports, state, truth)
    except OSError as exc:
        _fail(f"cannot read evaluation inputs: {exc}")
        return EXIT_INPUT
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # TypeError, AttributeError: a JSON value of the wrong shape
        _fail(f"malformed evaluation input: {exc}")
        return EXIT_INPUT
    payload = {"schema_version": SCHEMA_VERSION, **result._asdict()}
    if not _write_json(_round_floats(payload), args.out):
        return EXIT_INPUT
    _log(args.verbose, "evaluate_done", f1=result.f1)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outcry",
        description="Detect controversial events in company tweet streams "
                    "and measure market impact.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--verbose", action="store_true", help="JSON log lines on stderr")

    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", parents=[common],
                              help="run the full stream -> controversy pipeline")
    p_detect.add_argument("--config", help="JSON config file (flat keys, unknown keys rejected)")
    p_detect.add_argument("--format", choices=["json", "table"], help="report format")
    p_detect.add_argument("--input", help="JSONL file or tcp://host:port stream")
    p_detect.add_argument("--phrases", help="comma-separated retention phrases")
    p_detect.add_argument("--lateness-seconds", type=float, default=None)
    p_detect.add_argument("--state-out", help="write a cluster-state checkpoint here")
    p_detect.set_defaults(func=cmd_detect)

    p_market = sub.add_parser("market", parents=[common],
                              help="daily returns, moments, event-day z-score")
    p_market.add_argument("--prices", required=True, help="CSV with 'date,close' header")
    p_market.add_argument("--index", help="optional index CSV to pair by date")
    p_market.add_argument("--event-date", required=True, help="ISO date of the event day")
    p_market.add_argument("--window-days", type=int, default=252)
    p_market.add_argument("--bins", type=int, default=20)
    p_market.set_defaults(func=cmd_market)

    p_synth = sub.add_parser("synth", parents=[common],
                             help="generate a deterministic synthetic stream")
    p_synth.add_argument("--scenario", required=True, help="scenario JSON file")
    p_synth.add_argument("--truth", help="ground-truth output path (default: <out>.truth.json)")
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("evaluate", parents=[common],
                            help="precision/recall of a detect run against ground truth")
    p_eval.add_argument("--report", required=True, help="report JSON from detect")
    p_eval.add_argument("--state", required=True, help="cluster-state checkpoint from detect")
    p_eval.add_argument("--truth", required=True, help="ground-truth JSON from synth")
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "synth" and not args.out:
        _fail("synth needs --out for the generated stream")
        return EXIT_CONFIG
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
