"""Tests of the timing-driven gate-sizing optimizer."""

import pytest

from repro.circuit import Circuit, load_packaged_bench
from repro.models import VShapeModel
from repro.sta import StaConfig, TimingAnalyzer
from repro.sta.optimize import (
    DEFAULT_SIZES,
    SizingConfig,
    optimize_sizing,
)


def _fresh_worst_arrival(circuit, library):
    rebuilt = Circuit.from_dict(circuit.to_dict())
    analyzer = TimingAnalyzer(rebuilt, library, VShapeModel(), StaConfig())
    return analyzer.analyze().output_max_arrival()


class TestSizingConfig:
    def test_rejects_unknown_cost(self):
        with pytest.raises(ValueError):
            SizingConfig(cost="latency")

    def test_defaults_are_sane(self):
        config = SizingConfig()
        assert config.sizes == DEFAULT_SIZES
        assert config.cost == "wns"

    @pytest.mark.parametrize("field, value, message", [
        ("sizes", (1.0, 0.0), "candidate size must be finite and > 0, "
                              "got 0.0"),
        ("sizes", (-2.0,), "got -2.0"),
        ("sizes", (float("nan"),), "got nan"),
        ("sizes", (1.0, float("inf")), "got inf"),
        ("mc_samples", 0, "mc_samples must be > 0, got 0"),
        ("mc_samples", -3, "got -3"),
        ("mc_quantile", 0.0, "mc_quantile must lie in (0, 1), got 0.0"),
        ("mc_quantile", 1.0, "got 1.0"),
        ("mc_quantile", float("nan"), "got nan"),
    ])
    def test_rejects_bad_values(self, field, value, message):
        with pytest.raises(ValueError) as info:
            SizingConfig(**{field: value})
        assert message in str(info.value)


class TestOptimizeSizing:
    def test_improves_wns_on_c432s(self, library):
        circuit = load_packaged_bench("c432s")
        config = SizingConfig(max_passes=3, gates_per_pass=4)
        result = optimize_sizing(circuit, library, config=config)
        assert result.commits >= 1
        assert result.improved
        assert result.final_wns > result.initial_wns
        assert result.resizes  # the committed edits are reported
        for line, (old, new) in result.resizes.items():
            assert circuit.gates[line].size == new
            assert old != new

    def test_final_cost_matches_fresh_analysis(self, library):
        # The optimizer's claimed final WNS comes from incremental trial
        # columns; it must be bitwise-equal to a fresh full analysis of
        # the mutated circuit.
        circuit = load_packaged_bench("c432s")
        config = SizingConfig(max_passes=2, gates_per_pass=4)
        result = optimize_sizing(circuit, library, config=config)
        worst = _fresh_worst_arrival(circuit, library)
        assert result.required - result.final_wns == worst

    def test_greedy_commits_adopt_their_trial_columns(self, library):
        # Every greedy commit adopts its winning trial column: one
        # commit_s observation and one adoption per commit, and no cone
        # is re-timed.
        from repro.obs import use_registry

        circuit = load_packaged_bench("c432s")
        config = SizingConfig(max_passes=3, gates_per_pass=4)
        with use_registry() as registry:
            result = optimize_sizing(circuit, library, config=config)
            snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert result.commits >= 1
        assert counters["sta.incr.commits_adopted"] == result.commits
        assert snapshot["histograms"]["sta.incr.commit_s"]["count"] == (
            result.commits
        )
        assert counters.get("sta.incr.gates_retimed", 0) == 0
        worst = _fresh_worst_arrival(circuit, library)
        assert result.required - result.final_wns == worst

    def test_deterministic_under_seed(self, library):
        results = []
        for _ in range(2):
            circuit = load_packaged_bench("c17")
            config = SizingConfig(
                max_passes=2, gates_per_pass=3, anneal_steps=4, seed=7
            )
            results.append(optimize_sizing(circuit, library, config=config))
        a, b = results
        assert a.resizes == b.resizes
        assert a.final_cost == b.final_cost
        assert a.trials == b.trials

    def test_tns_mode_does_not_regress(self, library):
        circuit = load_packaged_bench("c17")
        # A clock at 60% of the unoptimized delay leaves real violations
        # for the TNS objective to chew on.
        clock = 0.6 * _fresh_worst_arrival(circuit, library)
        config = SizingConfig(
            max_passes=2, gates_per_pass=3, clock=clock, cost="tns"
        )
        result = optimize_sizing(circuit, library, config=config)
        assert result.cost_mode == "tns"
        assert result.final_cost <= result.initial_cost

class TestOptimizeCli:
    def test_smoke_and_exit_code(self, capsys):
        from repro.cli import main

        rc = main([
            "optimize", "c17", "--passes", "1", "--gates-per-pass", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "WNS" in out

    def test_json_output(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "sizing.json"
        rc = main([
            "optimize", "c17", "--passes", "1", "--gates-per-pass", "2",
            "--json", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["circuit"] == "c17"
        assert payload["final_wns_ns"] >= payload["initial_wns_ns"]
