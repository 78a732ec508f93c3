"""Unit tests for the hot-path benchmark harness and its CI perf gate."""

import json
import pickle

import pytest

from repro.bench.hotpath import (
    COMPONENTS,
    SCHEMA,
    check_against_baseline,
    format_results,
    run_hotpath_bench,
)
from repro.cli import main
from repro.wire import get_codec
from repro.wire.bench import representative_payloads

#: Tiny timed window: the tests check plumbing, not measurement quality.
FAST = 0.001


def _document(**rates):
    return {
        "schema": SCHEMA,
        "parameters": {"min_seconds": FAST},
        "components": {
            name: {"ops_per_sec": rate, "unit": "ops/s"} for name, rate in rates.items()
        },
    }


class TestHarness:
    def test_at_least_four_components_registered(self):
        assert len(COMPONENTS) >= 4
        assert {"sim_event_loop", "codec_encode", "codec_decode", "timer_wheel"} <= set(
            COMPONENTS
        )

    def test_run_produces_schema_document(self):
        document = run_hotpath_bench(
            min_seconds=FAST, components=["timer_wheel", "codec_encode"]
        )
        assert document["schema"] == SCHEMA
        assert set(document["components"]) == {"timer_wheel", "codec_encode"}
        for entry in document["components"].values():
            assert entry["ops_per_sec"] > 0
            assert "unit" in entry

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="unknown hotpath component"):
            run_hotpath_bench(min_seconds=FAST, components=["warp_drive"])

    def test_timed_frames_round_trip_and_are_smaller_than_pickle(self):
        # What codec_encode / codec_decode time: each frame must survive the
        # codec, and stdlib pickle stays the size baseline the binary format
        # was judged against.
        codec = get_codec("binary")
        for _label, source, destination, message in representative_payloads():
            encoded = codec.encode_envelope(source, destination, message)
            assert codec.decode_envelope(encoded) == (source, destination, message)
            pickled = pickle.dumps((source, destination, message), protocol=pickle.HIGHEST_PROTOCOL)
            assert len(encoded) < len(pickled)

    def test_format_results_lists_every_component(self):
        text = format_results(_document(timer_wheel=1000.0, codec_encode=2000.0))
        assert "timer_wheel" in text and "codec_encode" in text


class TestPerfGate:
    def test_equal_rates_pass(self):
        current = _document(timer_wheel=1000.0)
        assert check_against_baseline(current, current) == []

    def test_small_drop_within_threshold_passes(self):
        failures = check_against_baseline(
            _document(timer_wheel=800.0), _document(timer_wheel=1000.0), threshold=0.25
        )
        assert failures == []

    def test_regression_beyond_threshold_fails(self):
        failures = check_against_baseline(
            _document(timer_wheel=700.0), _document(timer_wheel=1000.0), threshold=0.25
        )
        assert len(failures) == 1
        assert "timer_wheel" in failures[0]

    def test_missing_component_fails_not_passes(self):
        failures = check_against_baseline(
            _document(codec_encode=1000.0), _document(timer_wheel=1000.0)
        )
        assert any("missing" in line for line in failures)

    def test_new_component_is_informational(self):
        failures = check_against_baseline(
            _document(timer_wheel=1000.0, wal_append=1.0), _document(timer_wheel=1000.0)
        )
        assert failures == []


class TestCli:
    def test_hotpath_command_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_hotpath.json"
        code = main(
            [
                "hotpath",
                "--min-seconds",
                str(FAST),
                "--component",
                "timer_wheel",
                "--json-out",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["schema"] == SCHEMA
        assert "timer_wheel" in document["components"]
        assert "timer_wheel" in capsys.readouterr().out

    def test_hotpath_check_fails_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_document(timer_wheel=10.0**12)))
        code = main(
            [
                "hotpath",
                "--min-seconds",
                str(FAST),
                "--component",
                "timer_wheel",
                "--check",
                str(baseline),
            ]
        )
        assert code == 1
        assert "PERF GATE FAILED" in capsys.readouterr().out

    def test_hotpath_check_passes_against_soft_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_document(timer_wheel=0.001)))
        code = main(
            [
                "hotpath",
                "--min-seconds",
                str(FAST),
                "--component",
                "timer_wheel",
                "--check",
                str(baseline),
            ]
        )
        assert code == 0
        assert "perf gate passed" in capsys.readouterr().out
