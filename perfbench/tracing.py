"""Spans around the public callables an in-process ``outcry detect`` reaches.

``instrument`` swaps each callable for a wrapper that records a span (name,
start, end, parent) and the counts seen at that boundary, and puts the
originals back on exit.  The program itself is unchanged.  Spans are kept in
memory in flat arrays and written out once, at the end of the benchmark.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from outcry import cli, clustering, credibility, features, pipeline


class Spans:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.replay_stats = None  # the ReplayStats detect passed to replay
        self.state = None  # the run's ClusterState
        self.state_path: Path | None = None

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def busy(self) -> dict[str, tuple[float, int]]:
        """Per span name: total seconds inside its spans, and their number."""
        total = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for n, start, end in zip(self.name, self.start, self.end):
            total[n] += end - start
            calls[n] += 1
        return {name: (total[n], calls[n]) for n, name in enumerate(self.names)}

    def write(self, handle, run: int) -> None:
        for i, n in enumerate(self.name):
            handle.write(f"{run}\t{i}\t{self.names[n]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")


def _wrap(spans: Spans, name: str, fn, after=None):
    def traced(*args, **kwargs):
        idx = spans.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.close(idx)
        if after is not None:
            after(result, *args, **kwargs)
        return result
    return traced


def _traced_replay(spans: Spans, replay):
    def traced(source, phrases, **kwargs):
        stream = replay(source, phrases, **kwargs)
        spans.replay_stats = kwargs.get("stats")
        while True:
            idx = spans.open("ingest.next")
            try:
                tweet = next(stream)
            except StopIteration:
                return
            finally:
                spans.close(idx)
            yield tweet
    return traced


@contextmanager
def instrument(spans: Spans):
    """Wrap the layer boundaries of one detect run with spans."""
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def on_vector(vector, *_):
        spans.add("features.vectors" if vector is not None else "features.discarded_empty")

    def on_assign(outcome, state, *_):
        spans.state = state
        spans.add(f"clustering.{outcome[1]}")

    def on_save(_, state, path):
        spans.state_path = Path(path)

    def on_classify(reports, events, *_):
        spans.add("controversy.events_scored", len(events))
        spans.add("controversy.flagged", sum(r.controversial for r in reports))

    def on_detect(result, *_):
        spans.state = result.state

    patch(pipeline, "replay_stream", _traced_replay(spans, pipeline.replay_stream))
    patch(features.FeatureExtractor, "vector",
          _wrap(spans, "features.vector", features.FeatureExtractor.vector, on_vector))
    patch(credibility, "normalize_url",
          _wrap(spans, "features.normalize_url", credibility.normalize_url))
    patch(clustering.ClusterState, "assign",
          _wrap(spans, "clustering.assign", clustering.ClusterState.assign, on_assign))
    patch(clustering.ClusterState, "expire_inactive",
          _wrap(spans, "clustering.expire", clustering.ClusterState.expire_inactive))
    patch(clustering.ClusterState, "save",
          _wrap(spans, "clustering.save", clustering.ClusterState.save, on_save))
    patch(pipeline, "classify_and_rank",
          _wrap(spans, "controversy.classify_and_rank", pipeline.classify_and_rank, on_classify))
    patch(pipeline, "build_extractor",
          _wrap(spans, "pipeline.build_extractor", pipeline.build_extractor))
    patch(pipeline, "daily_summaries",
          _wrap(spans, "pipeline.daily_summaries", pipeline.daily_summaries))
    patch(cli, "report_payload",
          _wrap(spans, "pipeline.report_payload", cli.report_payload))
    patch(cli, "run_detection",
          _wrap(spans, "pipeline.run_detection", cli.run_detection, on_detect))
    try:
        yield spans
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans: Spans, report_path: Path) -> dict[str, float]:
    """Per-layer figures of one traced detect run."""
    stats = spans.replay_stats
    state = spans.state
    busy = spans.busy()

    def seconds(name: str) -> float:
        return busy.get(name, (0.0, 0))[0]

    ingest_s = seconds("ingest.next")
    vector_s, vector_calls = busy.get("features.vector", (0.0, 0))
    normalize_s = seconds("features.normalize_url")
    assign_s, assign_calls = busy.get("clustering.assign", (0.0, 0))
    c = spans.counts
    return {
        "ingest.busy_s": ingest_s,
        "ingest.us_per_record": 1e6 * ingest_s / max(1, stats.total),
        "ingest.records_in": stats.total,
        "ingest.yielded": stats.yielded,
        "ingest.filtered_out": stats.filtered_out,
        "ingest.parse_errors": stats.parse_errors,
        "ingest.dropped_late": stats.dropped_late,
        "features.busy_s": vector_s,
        "features.self_s": vector_s - normalize_s,
        "features.normalize_url_s": normalize_s,
        "features.us_per_tweet": 1e6 * vector_s / max(1, vector_calls),
        "features.vectors": c.get("features.vectors", 0),
        "features.discarded_empty": c.get("features.discarded_empty", 0),
        "clustering.assign_s": assign_s,
        "clustering.us_per_assign": 1e6 * assign_s / max(1, assign_calls),
        "clustering.merged": c.get("clustering.merged", 0),
        "clustering.created": c.get("clustering.created", 0),
        "clustering.expire_s": seconds("clustering.expire"),
        "clustering.expired_clusters": state.expired_clusters,
        "clustering.live_clusters": len(state.clusters),
        "clustering.candidate_events": len(state.candidate_events()),
        "clustering.save_s": seconds("clustering.save"),
        "clustering.state_bytes": spans.state_path.stat().st_size,
        "controversy.busy_s": seconds("controversy.classify_and_rank"),
        "controversy.events_scored": c.get("controversy.events_scored", 0),
        "controversy.flagged": c.get("controversy.flagged", 0),
        "pipeline.build_extractor_s": seconds("pipeline.build_extractor"),
        "pipeline.summaries_s": seconds("pipeline.daily_summaries"),
        "pipeline.report_payload_s": seconds("pipeline.report_payload"),
        "pipeline.report_bytes": report_path.stat().st_size,
    }
