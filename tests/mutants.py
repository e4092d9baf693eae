"""Mutation check: plant known defects in a copy of the package, one at a
time, and run only the tests that should catch each one.

Each row of ``MUTANTS`` names a file under ``src/outcry``, the exact text to
replace (it must occur exactly once), the replacement, and either the test
ids expected to fail on the mutant or ``"equivalent: <reason>"`` for a
mutant that no behaviour tells apart from the real code.  ``src/`` and
``tests/`` are copied to a temporary directory first, so the repository is
never edited.  Before any mutant, every listed test must pass on the
unchanged copy.

The script exits 1 when a non-equivalent mutant survives (all its listed
tests pass), when a row's old text is not found exactly once, or when a test
run fails for another reason.  A survivor is mended by a test or by an argued
``equivalent`` row, never by deleting the row.

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/outcry
    old: str
    new: str
    kill: tuple[str, ...] | str  # test ids, or "equivalent: <reason>"


CTRL = "tests/test_controversy.py::"
CLUS = "tests/test_clustering.py::"
EVAL = "tests/test_cli.py::TestEvaluateCommand::"
DETECT = "tests/test_cli.py::TestDetector::"
STREAMED = "tests/test_cli.py::TestStreamedReport::"
CLI = "tests/test_cli.py::"
RECORDS = "tests/test_records.py::"

MUTANTS = (
    # -- the gate and rank (README "Controversy gate") ----------------------
    Mutant("velocity at the threshold is no burst", "controversy.py",
           "flag = velocity >= threshold and", "flag = velocity > threshold and",
           (CTRL + "TestBurstiness::test_velocity_at_threshold_flags",)),
    Mutant("zero mean sentiment counts as negative", "controversy.py",
           "controversial = sentiment < 0 and", "controversial = sentiment <= 0 and",
           (CTRL + "TestClassifyAndRank::test_zero_mean_sentiment_is_not_controversial",)),
    Mutant("rank burst cap at three times the threshold", "controversy.py",
           "min(velocity / threshold, 2.0)", "min(velocity / threshold, 3.0)",
           (CTRL + "TestClassifyAndRank::test_rank_burst_term_capped_at_twice_the_threshold",)),
    Mutant("velocity baseline includes today", "controversy.py",
           "for k in range(1, days + 1)", "for k in range(days)",
           (CTRL + "TestBurstiness::test_four_x_spike_flags",
            CTRL + "TestBurstiness::test_scale_invariance_with_live_baseline")),
    Mutant("velocity floor below one", "controversy.py",
           "max(1.0, baseline)", "max(0.5, baseline)",
           (CTRL + "TestBurstiness::test_zero_baseline_uses_floor_of_one",)),
    # -- clustering ----------------------------------------------------------
    # assign scores the clusters in every postings list but the longest
    # (the first loop), then those found only in the longest (the second).
    Mutant("no clamp of a distance rounded below zero", "clustering.py",
           "\n                if d < 0.0:\n                    d = 0.0\n", "\n",
           (CLUS + "TestAssign::test_distance_rounded_below_zero_ties_at_zero",)),
    Mutant("no clamp of a distance rounded below zero in the longest list", "clustering.py",
           "\n                    if d < 0.0:\n                        d = 0.0\n", "\n",
           "equivalent: a cluster found only in the longest list shares one term with "
           "the vector, so its dot is long_count * weight.  With sums and squared norms "
           "below 2**53 (the module's premise) v_norm and the cluster's norm are correctly "
           "rounded square roots of exact sums that hold long_count**2 and weight**2, so "
           "they are at least long_count and weight, their product is at least the dot, "
           "and the distance is never below 0."),
    Mutant("assignment tie goes to the highest id", "clustering.py",
           "\n                if d < best_dist or (d == best_dist and cid < best_id):",
           "\n                if d < best_dist or (d == best_dist and cid > best_id):",
           (CLUS + "TestAssign::test_tie_between_the_shorter_lists_goes_to_the_lower_id",)),
    Mutant("assignment tie in the longest list goes to the highest id", "clustering.py",
           "\n                    if d < best_dist or (d == best_dist and cid < best_id):",
           "\n                    if d < best_dist or (d == best_dist and cid > best_id):",
           (CLUS + "TestAssign::test_equidistant_tie_goes_to_lowest_cluster_id",
            CLUS + "TestAssign::test_tie_goes_to_lowest_id_when_a_higher_id_is_scored_first",
            CLUS + "TestAssign::test_tie_at_the_bound_goes_to_the_lower_id_in_the_longest_list")),
    Mutant("the longest list is never read", "clustering.py",
           "if long_count / v_norm >= 1.0 - min(best_dist, threshold) - _BOUND_SLACK:",
           "if False:",
           (CLUS + "TestAssign::test_cluster_only_in_the_longest_list_wins_when_closest",
            CLUS + "TestAssign::test_tie_at_the_bound_goes_to_the_lower_id_in_the_longest_list",
            "tests/test_weighted_index_oracle.py")),
    Mutant("the bound test uses > with no slack", "clustering.py",
           "long_count / v_norm >= 1.0 - min(best_dist, threshold) - _BOUND_SLACK",
           "long_count / v_norm > 1.0 - min(best_dist, threshold)",
           (CLUS + "TestAssign::test_tie_at_the_bound_goes_to_the_lower_id_in_the_longest_list",)),
    Mutant("sentiment grow step without the magnitude swap", "clustering.py",
           "            if abs(x) < abs(y):\n                x, y = y, x\n", "",
           (CLUS + "TestSentimentPartials::test_fsum_of_partials_is_fsum_of_sentiments",)),
    Mutant("sentiment grow step drops the rounding error", "clustering.py",
           "lo = y - (hi - x)", "lo = 0.0",
           (CLUS + "TestSentimentPartials::test_fsum_of_partials_is_fsum_of_sentiments",)),
    Mutant("expiry cutoff a window too late", "clustering.py",
           "cutoff = now - self.params.inactivity_expiry",
           "cutoff = now - 2 * self.params.inactivity_expiry",
           (CLUS + "TestExpireInactive::test_stale_singleton_expires",)),
    # -- the day close (pipeline.Detector.feed) ------------------------------
    Mutant("a day closes with its midnight as now", "pipeline.py",
           "self.state.expire_inactive(tweet.creation_time)",
           "self.state.expire_inactive(tweet.creation_time.replace("
           "hour=0, minute=0, second=0, microsecond=0))",
           ("tests/test_cli.py::TestPipelineCounters::"
            "test_day_closes_at_first_admitted_vector_of_a_later_day",)),
    Mutant("a skipped or empty tweet closes the day", "pipeline.py",
           "        if self._language and not tweet.language.lower()",
           "        if tweet.creation_time.date() != self.today:\n"
           "            if self.today is not None:\n"
           "                self.state.expire_inactive(tweet.creation_time)\n"
           "            self.today = tweet.creation_time.date()\n"
           "        if self._language and not tweet.language.lower()",
           ("tests/test_cli.py::TestPipelineCounters::"
            "test_day_closes_at_first_admitted_vector_of_a_later_day",)),
    # -- what a run holds at its peak (see README "Peak memory") ------------
    Mutant("a finished detector keeps its extractor", "pipeline.py",
           "        self.extractor = None\n", "",
           (DETECT + "test_finish_lets_go_of_the_tagger",
            DETECT + "test_a_finished_detector_takes_no_more_tweets")),
    Mutant("each vector gets its own day object", "features.py",
           "frozenset(links), self._day)", "frozenset(links), day)",
           ("tests/test_features.py::TestBuildTweetVector::"
            "test_vectors_of_one_day_share_its_date_object",)),
    Mutant("a linkless cluster gets its own empty set", "clustering.py",
           "self.links: set[str] | frozenset[str] = _NO_LINKS",
           "self.links: set[str] | frozenset[str] = set()",
           (CLUS + "TestLinks::test_linkless_clusters_share_one_empty_links_object",
            CLUS + "TestLinks::test_a_linkless_singleton_on_one_day_costs_no_links_set")),
    Mutant("daily summaries left unrounded", "pipeline.py",
           '"daily_summaries": (_round_floats(s) for s in result.daily_summaries),',
           '"daily_summaries": iter(result.daily_summaries),',
           (DETECT + "test_report_is_rounded_in_every_part",)),
    Mutant("a repeated term appended twice to a cluster's term list", "clustering.py",
           "                if old is None:\n"
           "                    old = 0\n"
           "                    self._terms.append(term)\n",
           "                self._terms.append(term)\n"
           "                if old is None:\n"
           "                    old = 0\n",
           (CLUS + "TestTermSums::test_terms_the_cluster_has_cost_a_member_nothing",)),
    # -- replay --------------------------------------------------------------
    Mutant("a record exactly at the watermark is held", "ingest.py",
           "heap[0][0] <= watermark:", "heap[0][0] < watermark:",
           "equivalent: the late-drop test (t < watermark) does not read the heap, so the "
           "same records are accepted; every record still held is at or after the "
           "watermark and later ones arrive at or after it, so both versions yield the "
           "(time, arrival) order.  Only the moment a record exactly at the watermark is "
           "handed on differs: at the next record or the end of the stream."),
    # -- features ------------------------------------------------------------
    Mutant("negation looks back two tokens", "features.py",
           "NEGATION_WINDOW = 3", "NEGATION_WINDOW = 2",
           ("tests/test_features.py::TestScoreSentiment::test_negator_window_is_three_tokens",)),
    Mutant("only the nearest intensifier counts", "features.py",
           "multiplier *= intensifiers.get(prev, 1.0)", "multiplier = intensifiers.get(prev, 1.0)",
           ("tests/test_features.py::TestScoreSentiment::"
            "test_intensifiers_in_the_window_multiply",)),
    # -- the tagger's chunk memo (RuleTagger._scan) --------------------------
    Mutant("the chunk memo never starts over", "features.py",
           "                    memo.clear()\n", "",
           ("tests/test_feature_oracle.py::test_scan_through_a_small_cache_matches_oracle",
            "tests/test_features.py::TestLemmaCache::test_bounded_cache_gives_same_lemmas")),
    Mutant("a chunk longer than CHUNK_MAX_LEN is kept", "features.py",
           "if len(chunk) <= CHUNK_MAX_LEN and self._load <= CHUNK_CACHE_TOKENS:",
           "if self._load <= CHUNK_CACHE_TOKENS:",
           ("tests/test_feature_oracle.py::test_long_chunks_are_not_kept",
            "tests/test_features.py::TestLemmaCache::test_word_too_long_to_be_a_verb_is_not_cached")),
    Mutant("one chunk memo shared by all taggers", "features.py",
           "self._chunks: dict[str, _Tokens] = {}",
           'self._chunks: dict[str, _Tokens] = globals().setdefault("_shared_memo", {})',
           ("tests/test_features.py::TestLemmaCache::test_taggers_keep_their_own_lemmas",)),
    # -- report, evaluate and market ----------------------------------------
    Mutant("daily summary ties go to the highest id", "pipeline.py",
           "(-pair[0], pair[1].cluster_id)", "(-pair[0], -pair[1].cluster_id)",
           ("tests/test_pinned_bytes.py",)),
    Mutant("half the truth ids count as found", "synth.py",
           "return hits / len(ids) > 0.5", "return hits / len(ids) >= 0.5",
           ("tests/test_synth.py::TestEvaluate::test_majority_containment_required",)),
    Mutant("population standard deviation", "market.py",
           "/ (n - 1))", "/ n)",
           ("tests/test_market.py",)),
    # -- README promises: exit codes, parse-error counts, report bytes -------
    Mutant("an input error exits 1", "cli.py",
           "EXIT_INPUT = 2", "EXIT_INPUT = 1",
           (EVAL + "test_missing_detection_output_exits_2",)),
    Mutant("a parse error goes uncounted", "ingest.py",
           "stats.parse_errors += 1", "pass",
           ("tests/test_ingest.py::TestReplayStream::test_parse_errors_are_counted_not_fatal",)),
    Mutant("report floats at five decimals", "pipeline.py",
           "def _round_floats(value, places: int = 6):",
           "def _round_floats(value, places: int = 5):",
           ("tests/test_pinned_bytes.py",)),
    # -- the read-back rule for checkpoints and truth files -----------------
    Mutant("no round-trip comparison", "clustering.py",
           "    if not same:\n", "    if False:\n",
           (EVAL + "test_checkpoint_not_as_written_exits_2",
            EVAL + "test_truth_of_another_schema_version_exits_2")),
    Mutant("checkpoint cluster entries without a comma between them", "clustering.py",
           'separator = ","', 'separator = ""',
           (CLUS + "TestCheckpoint::test_save_writes_the_payload_as_dumps_does",)),
    Mutant("an empty cluster list closed like a full one", "clustering.py",
           '"[]" if separator == "[" else step + "]"',
           '("[" if separator == "[" else "") + step + "]"',
           (CLUS + "TestCheckpoint::test_save_writes_the_payload_as_dumps_does",
            STREAMED + "test_no_events")),
    Mutant("a wrong event separator", "clustering.py",
           'separator = ","', 'separator = ", "',
           (STREAMED + "test_many_events_to_stdout",)),
    Mutant("a term sum written as an int", "clustering.py",
           '"term_sums": ("_sums", lambda v: {t: float(w) for t, w in v.items()},',
           '"term_sums": ("_sums", dict,',
           (CLUS + "TestTermSums::test_saved_sums_are_floats_and_load_back_as_ints",
            "tests/test_pinned_bytes.py")),
    Mutant("each loaded cluster gets its own day objects", "clustering.py",
           "_day = lru_cache(maxsize=4096)(date.fromisoformat)", "_day = date.fromisoformat",
           (CLUS + "TestCheckpoint::test_loaded_days_share_one_date_per_day",)),
    Mutant("member_ids not checked against per_day_counts", "clustering.py",
           "            if cluster.member_count != days:\n", "            if False:\n",
           (EVAL + "test_checkpoint_not_as_written_exits_2",)),
    Mutant("a term sum that is no exact int loads", "clustering.py",
           '    raise ValueError(f"term sum {weight!r} is not a whole number below 2**53")',
           "    return weight",
           (CLUS + "TestTermSums::test_a_sum_that_is_no_exact_int_does_not_load",
            EVAL + "test_checkpoint_not_as_written_exits_2")),
    Mutant("member_ids read as they are", "clustering.py",
           '"member_ids": ("_member_text", _ids, lambda v: _ids_text([str(i) for i in v])),',
           '"member_ids": ("_member_text", _ids, _ids_text),',
           (EVAL + "test_checkpoint_not_as_written_exits_2",)),
    # -- member ids kept as JSON text (EventCluster._member_text) -----------
    Mutant("member id decoding drops the last id", "clustering.py",
           r'text[:-1].replace(b"\n", b",")',
           r'text[:-1].rpartition(b"\n")[0].replace(b"\n", b",")',
           (CLUS + "TestMemberIds::test_ids_round_trip",)),
    Mutant("member_count read back one too many", "clustering.py",
           r'cluster.member_count = cluster._member_text.count(b"\n")',
           r'cluster.member_count = cluster._member_text.count(b"\n") + 1',
           (CLUS + "TestMemberIds::test_ids_round_trip",)),
    Mutant("a non-finite sentiment is admitted", "clustering.py",
           '        require_finite("sentiment", vector.sentiment)\n', "",
           (CLUS + "TestAssign::test_non_finite_sentiment_rejected_before_any_change",)),
    # -- one reader for every JSON file (clustering.read_json) --------------
    Mutant("read_json lets RecursionError through", "clustering.py",
           "        except RecursionError as exc:\n", "        except ArithmeticError as exc:\n",
           (RECORDS + "test_loaders_reject_json_nested_too_deep",
            EVAL + "test_wrong_json_shape_exits_2",
            CLI + "test_unreadable_config_file_is_an_error_not_a_traceback")),
    # -- README promises: exit codes at the edges ---------------------------
    Mutant("a failed write to stdout is not caught", "cli.py",
           "    except OSError as exc:\n        if not out_path and",
           "    except OSError as exc:\n        if not out_path:\n            raise\n"
           "        if not out_path and",
           (CLI + "test_stdout_that_cannot_be_written_is_output_error",
            CLI + "test_stdout_pipe_closed_before_the_write_exits_2")),
    Mutant("stdout is not flushed inside the guard", "cli.py",
           "            sys.stdout.flush()\n", "",
           (CLI + "test_stdout_pipe_closed_before_the_write_exits_2",)),
    Mutant("stdout left on the broken pipe for the flush at exit", "cli.py",
           "            os.dup2(devnull, sys.stdout.fileno())\n", "",
           (CLI + "test_stdout_pipe_closed_before_the_write_exits_2",)),
    Mutant("blank phrases pass validation", "config.py",
           "            if self.phrases:\n                PhraseFilter(self.phrases)\n", "",
           (RECORDS + "test_validation_errors",
            CLI + "test_non_finite_or_wrong_type_setting_is_config_error",
            "tests/test_config_contract.py")),
    Mutant("no bound on network_timeout_ms", "config.py",
           "            if self.network_timeout_ms > MAX_TIMEOUT_MS:\n",
           "            if False:\n",
           (RECORDS + "test_validation_errors",
            CLI + "test_non_finite_or_wrong_type_setting_is_config_error")),
    Mutant("a scenario may run past the last date", "synth.py",
           "        if self.start_date.toordinal() + self.days - 1 > date.max.toordinal():\n",
           "        if False:\n",
           (RECORDS + "test_validation_errors",
            "tests/test_cli.py::TestSynthCommand::test_scenario_past_the_last_date_exits_1")),
    Mutant("a scenario may not reach the last date", "synth.py",
           "self.start_date.toordinal() + self.days - 1 > date.max.toordinal()",
           "self.start_date.toordinal() + self.days > date.max.toordinal()",
           ("tests/test_cli.py::TestSynthCommand::test_scenario_of_the_last_date_generates",)),
    Mutant("no upper bound on --bins", "cli.py",
           "    if args.bins > MAX_BINS:\n", "    if False:\n",
           (CLI + "TestMarketCommand::test_window_or_bins_below_one_is_config_error",)),
    Mutant("a csv.Error from the price CSV escapes", "market.py",
           "        except csv.Error as exc:", "        except ArithmeticError as exc:",
           ("tests/test_cli.py::TestMarketCommand::test_field_over_the_csv_limit_exits_2",)),
)


def _pytest(copy: Path, test_ids) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *test_ids],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="outcry-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        listed = sorted({t for m in MUTANTS if not isinstance(m.kill, str) for t in m.kill})
        if listed:
            baseline = _pytest(copy, listed)
            if baseline.returncode != 0:
                print(baseline.stdout[-3000:], file=sys.stderr)
                print("error: the listed tests fail on the unchanged code", file=sys.stderr)
                return 1
        for m in MUTANTS:
            path = copy / "src" / "outcry" / m.file
            original = path.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                print(f"MISSING   {m.name}: old text found {original.count(m.old)} times")
                failures += 1
                continue
            if isinstance(m.kill, str):
                print(f"EQUIVALENT {m.name}")
                continue
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                ran = _pytest(copy, m.kill)
            finally:
                path.write_text(original, encoding="utf-8")
            took = time.perf_counter() - start
            verdict = {0: "SURVIVED", 1: "killed"}.get(ran.returncode, "ERROR")
            print(f"{verdict:<10} {m.name} ({took:.1f} s)")
            if verdict != "killed":
                print(ran.stdout[-2000:] + ran.stderr[-2000:], file=sys.stderr)
                failures += 1
    print(f"{len(MUTANTS)} mutants, {failures} failing rows")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
