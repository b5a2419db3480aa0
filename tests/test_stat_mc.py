"""Tests for the variation-aware Monte Carlo STA subsystem.

The load-bearing guarantees, each checked bitwise where the design
promises bitwise behaviour:

* sigma-zero sampling reproduces the deterministic analyzer exactly —
  every line window, both directions, plus the PO extremes;
* results are bit-identical across ``jobs`` (the block plan and the
  per-block RNG keys, not the pool, define the draws);
* the draws are keyed by ``(seed, block)`` only, so the block size is
  part of a result's identity and the seed reproduces it;
* the aggregates (quantiles, slack, criticality) are consistent with
  the raw per-output sample arrays they summarize.
"""

import numpy as np
import pytest

from repro.circuit import load_packaged_bench
from repro.models import NonCtrlAwareModel, PinToPinModel, VShapeModel
from repro.sta.analysis import TimingAnalyzer
from repro.stat import (
    DEFAULT_QUANTILES,
    MonteCarloEngine,
    VariationModel,
    plan_blocks,
    run_mc,
)

MODELS = {
    "vshape": VShapeModel,
    "pin2pin": PinToPinModel,
    "nonctrl": NonCtrlAwareModel,
}


@pytest.fixture(scope="module")
def c432s():
    return load_packaged_bench("c432s")


# ----------------------------------------------------------------------
# Variation model
# ----------------------------------------------------------------------
class TestVariationModel:
    def test_nominal_factors_are_exactly_one(self):
        model = VariationModel(sigma_corr=0.0, sigma_ind=0.0)
        assert model.is_nominal
        factors = model.factors_for_block(
            seed=3, start=0, cell_index=np.array([0, 1, 1, 2]),
            n_cells=3, n_samples=7,
        )
        assert factors.shape == (4, 7)
        # x * 1.0 == x in IEEE floats, so exact ones give bit-exact
        # reproduction of the deterministic pass downstream.
        assert np.all(factors == 1.0)

    def test_factors_deterministic_per_seed_and_block(self):
        model = VariationModel(sigma_corr=0.05, sigma_ind=0.03)
        idx = np.array([0, 1, 0])
        a = model.factors_for_block(7, 128, idx, 2, 16)
        b = model.factors_for_block(7, 128, idx, 2, 16)
        c = model.factors_for_block(7, 256, idx, 2, 16)
        d = model.factors_for_block(8, 128, idx, 2, 16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_correlated_term_is_shared_per_cell(self):
        model = VariationModel(sigma_corr=0.2, sigma_ind=0.0)
        idx = np.array([0, 0, 1])
        factors = model.factors_for_block(1, 0, idx, 2, 32)
        # With only the correlated term, same-cell gates move together.
        assert np.array_equal(factors[0], factors[1])
        assert not np.array_equal(factors[0], factors[2])

    def test_floor_clips_extreme_draws(self):
        model = VariationModel(sigma_corr=5.0, sigma_ind=5.0, floor=0.05)
        factors = model.factors_for_block(
            2, 0, np.arange(8), 8, 256
        )
        assert factors.min() >= 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            VariationModel(sigma_corr=-0.1)
        with pytest.raises(ValueError):
            VariationModel(floor=0.0)

    def test_round_trip(self):
        model = VariationModel(sigma_corr=0.11, sigma_ind=0.07, floor=0.2)
        assert VariationModel.from_dict(model.to_dict()) == model


def test_plan_blocks_partitions_sample_range():
    assert plan_blocks(10, 4) == [(0, 4), (4, 4), (8, 2)]
    assert plan_blocks(4, 8) == [(0, 4)]
    assert sum(size for _, size in plan_blocks(1000, 128)) == 1000


# ----------------------------------------------------------------------
# Sigma-zero parity with the deterministic analyzer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("bench", ["c17", "c432s"])
def test_engine_nominal_parity(bench, model_name, library, request):
    """F == 1.0 must reproduce TimingAnalyzer bit-for-bit, per line."""
    circuit = request.getfixturevalue(bench) if bench == "c17" else (
        load_packaged_bench(bench)
    )
    model = MODELS[model_name]()
    engine = MonteCarloEngine(circuit, library, model=model)
    reference = TimingAnalyzer(circuit, library, model).analyze_per_gate()
    windows = engine.propagate(np.ones((engine.n_gates, 1)))
    for line in circuit.lines:
        expected = reference.timings[line]
        got = windows.line_timing(line, 0)
        for direction in ("rise", "fall"):
            want = getattr(expected, direction)
            have = getattr(got, direction)
            assert have.state == want.state, (line, direction)
            if not want.is_active:
                continue
            assert have.a_s == want.a_s, (line, direction)
            assert have.a_l == want.a_l, (line, direction)
            assert have.t_s == want.t_s, (line, direction)
            assert have.t_l == want.t_l, (line, direction)
    po_max, po_min, _ = engine.block_extremes(np.ones((engine.n_gates, 1)))
    assert float(po_max.max()) == reference.output_max_arrival()
    assert float(po_min.min()) == reference.output_min_arrival()


def test_single_nominal_sample_matches_deterministic_sta(c17, library):
    """--samples 1 --sigma 0 is the deterministic answer, bitwise."""
    result = run_mc(
        c17, library, samples=1, seed=9,
        variation=VariationModel(sigma_corr=0.0, sigma_ind=0.0),
    )
    assert float(result.delay[0]) == result.nominal_max
    assert float(result.min_delay[0]) == result.nominal_min


# ----------------------------------------------------------------------
# Parallel determinism
# ----------------------------------------------------------------------
def test_run_mc_bit_identical_across_jobs(c17, library):
    kwargs = dict(samples=50, seed=11, block=16)
    serial = run_mc(c17, library, jobs=1, **kwargs)
    for jobs in (2, 4):
        pooled = run_mc(c17, library, jobs=jobs, **kwargs)
        assert np.array_equal(serial.po_max, pooled.po_max)
        assert np.array_equal(serial.po_min, pooled.po_min)
        assert serial.criticality() == pooled.criticality()


def test_run_mc_seed_reproducibility(c17, library):
    a = run_mc(c17, library, samples=40, seed=5, block=8)
    b = run_mc(c17, library, samples=40, seed=5, block=8)
    c = run_mc(c17, library, samples=40, seed=6, block=8)
    assert np.array_equal(a.po_max, b.po_max)
    assert not np.array_equal(a.po_max, c.po_max)


def test_block_size_is_part_of_draw_identity(c17, library):
    """Draws are keyed by (seed, block start): resizing blocks reshuffles
    them, so --block is part of a result's identity (unlike --jobs)."""
    a = run_mc(c17, library, samples=40, seed=5, block=8)
    b = run_mc(c17, library, samples=40, seed=5, block=16)
    assert not np.array_equal(a.po_max, b.po_max)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mc_result(c432s):
    return run_mc(c432s, samples=96, seed=3, block=32)


def test_quantiles_are_ordered(mc_result):
    qs = mc_result.quantiles(DEFAULT_QUANTILES)
    assert qs[0.5] <= qs[0.95] <= qs[0.99]
    delay = mc_result.delay
    assert delay.min() <= qs[0.5] <= delay.max()


def test_slack_defaults_to_nominal_period(mc_result):
    slack = mc_result.slack()
    assert np.array_equal(slack, mc_result.nominal_max - mc_result.delay)
    sq = mc_result.slack_quantiles((0.5, 0.99))
    assert sq[0.99] <= sq[0.5]
    explicit = mc_result.slack(period=1e-9)
    assert np.array_equal(explicit, 1e-9 - mc_result.delay)


def test_criticality_is_a_distribution(mc_result):
    crit = mc_result.criticality()
    assert set(crit) == set(mc_result.outputs)
    assert abs(sum(crit.values()) - 1.0) < 1e-12
    assert all(0.0 <= v <= 1.0 for v in crit.values())


def test_summary_is_json_able(mc_result):
    import json

    payload = mc_result.summary()
    text = json.dumps(payload)
    assert payload["samples"] == 96
    assert payload["circuit"] == mc_result.circuit_name
    assert "0.95" in payload["quantiles_s"]
    assert json.loads(text)["seed"] == 3


def test_variation_widens_the_distribution(c17, library):
    tight = run_mc(
        c17, library, samples=64, seed=1,
        variation=VariationModel(sigma_corr=0.01, sigma_ind=0.0),
    )
    wide = run_mc(
        c17, library, samples=64, seed=1,
        variation=VariationModel(sigma_corr=0.10, sigma_ind=0.0),
    )
    assert wide.delay.std() > tight.delay.std()
