"""Cross-cutting property-based tests (hypothesis).

These encode the invariants the whole system leans on:

* the V-shape and Λ-shape are valid piecewise-linear interpolants
  (bounded by their anchors, continuous, saturating);
* STA window propagation produces ordered windows and is monotone in
  its inputs (wider inputs never shrink outputs);
* two-frame implication is sound (any implied definite value holds in
  every consistent completion) on random small circuits;
* bench round-trips preserve functionality on random circuits.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    GeneratorConfig,
    generate_circuit,
    parse_bench,
    write_bench,
)
from repro.itr import TwoFrameImplicator, TwoFrame, initial_assignment
from repro.itr.implication import Conflict
from repro.models import VShapeModel
from repro.sta.corners import CtrlInput, ctrl_response_window
from repro.sta.windows import DirWindow
from tests.synthetic import REF_LOAD, make_nand

NS = 1e-9

times = st.floats(min_value=0.08e-9, max_value=1.8e-9)
arrivals = st.floats(min_value=0.0, max_value=5e-9)
spans = st.floats(min_value=0.0, max_value=2e-9)


def window(a_s, width, t_s, t_width):
    return DirWindow(a_s, a_s + width, t_s, t_s + t_width)


class TestVShapeProperties:
    @given(t_p=times, t_q=times, s1=st.floats(-2e-9, 2e-9),
           s2=st.floats(-2e-9, 2e-9))
    @settings(max_examples=100, deadline=None)
    def test_lipschitz_in_skew(self, t_p, t_q, s1, s2):
        """|d(s1) - d(s2)| <= L * |s1 - s2| with a finite slope L."""
        shape = VShapeModel().vshape(make_nand(2), 0, 1, t_p, t_q, REF_LOAD)
        slope = max(
            abs(shape.tail_pos - shape.vertex) / shape.s_pos,
            abs(shape.tail_neg - shape.vertex) / shape.s_neg,
        )
        assert abs(shape.delay(s1) - shape.delay(s2)) <= (
            slope * abs(s1 - s2) + 1e-15
        )

    @given(t_p=times, t_q=times)
    @settings(max_examples=60, deadline=None)
    def test_saturation_beyond_anchors(self, t_p, t_q):
        shape = VShapeModel().vshape(make_nand(2), 0, 1, t_p, t_q, REF_LOAD)
        assert shape.delay(shape.s_pos) == pytest.approx(shape.tail_pos)
        assert shape.delay(shape.s_pos * 3) == shape.tail_pos
        assert shape.delay(-shape.s_neg * 3) == shape.tail_neg

    @given(t_p=times, t_q=times, skew=st.floats(-2e-9, 2e-9))
    @settings(max_examples=100, deadline=None)
    def test_trans_vshape_bounded(self, t_p, t_q, skew):
        shape = VShapeModel().trans_vshape(
            make_nand(2), 0, 1, t_p, t_q, REF_LOAD
        )
        value = shape.trans(skew)
        assert shape.min_trans() - 1e-15 <= value
        assert value <= max(shape.t_p, shape.t_q) + 1e-15


class TestStaWindowProperties:
    @given(
        a1=arrivals, w1=spans, a2=arrivals, w2=spans,
        t1=times, t2=times,
    )
    @settings(max_examples=80, deadline=None)
    def test_output_window_ordered(self, a1, w1, a2, w2, t1, t2):
        cell = make_nand(2)
        inputs = [
            CtrlInput(0, window(a1, w1, t1, 0.1 * NS)),
            CtrlInput(1, window(a2, w2, t2, 0.1 * NS)),
        ]
        out = ctrl_response_window(cell, VShapeModel(), inputs, REF_LOAD)
        assert out.a_s <= out.a_l + 1e-15
        assert 0 < out.t_s <= out.t_l + 1e-15

    @given(
        a1=arrivals, w1=spans, a2=arrivals, w2=spans, extra=spans,
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_input_windows(self, a1, w1, a2, w2, extra):
        """Widening an input window can only widen the output window."""
        cell = make_nand(2)
        t = 0.4 * NS
        narrow = [
            CtrlInput(0, window(a1, w1, t, 0.0)),
            CtrlInput(1, window(a2, w2, t, 0.0)),
        ]
        wide = [
            CtrlInput(0, window(a1, w1 + extra, t, 0.0)),
            CtrlInput(1, window(a2, w2, t, 0.0)),
        ]
        model = VShapeModel()
        out_narrow = ctrl_response_window(cell, model, narrow, REF_LOAD)
        out_wide = ctrl_response_window(cell, model, wide, REF_LOAD)
        assert out_wide.a_s <= out_narrow.a_s + 1e-15
        assert out_wide.a_l >= out_narrow.a_l - 1e-15

    @given(a1=arrivals, a2=arrivals, t1=times, t2=times)
    @settings(max_examples=60, deadline=None)
    def test_point_windows_match_model_evaluation(self, a1, a2, t1, t2):
        """Degenerate windows: STA == direct model evaluation."""
        from repro.models import InputEvent

        cell = make_nand(2)
        model = VShapeModel()
        inputs = [
            CtrlInput(0, DirWindow(a1, a1, t1, t1)),
            CtrlInput(1, DirWindow(a2, a2, t2, t2)),
        ]
        out = ctrl_response_window(cell, model, inputs, REF_LOAD)
        events = [
            InputEvent(0, a1, t1, False),
            InputEvent(1, a2, t2, False),
        ]
        delay, _ = model.controlling_response(cell, events, REF_LOAD)
        arrival = min(a1, a2) + delay
        # The window's lower bound is the best pair alignment, which for
        # point windows is exactly the model's arrival; the upper bound
        # is the conservative single-switcher rule.
        assert out.a_s <= arrival + 1e-15
        assert arrival <= out.a_l + 1e-15


def random_small_circuit(seed):
    return generate_circuit(
        "prop",
        GeneratorConfig(n_inputs=4, n_outputs=2, n_gates=10, seed=seed),
    )


class TestImplicationSoundness:
    @given(
        seed=st.integers(min_value=0, max_value=500),
        line_index=st.integers(min_value=0, max_value=30),
        literal=st.sampled_from(["01", "10", "0x", "1x", "11", "00"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_implied_values_hold_in_all_completions(
        self, seed, line_index, literal
    ):
        circuit = random_small_circuit(seed)
        lines = circuit.lines
        line = lines[line_index % len(lines)]
        engine = TwoFrameImplicator(circuit)
        try:
            values = engine.assign(
                initial_assignment(circuit), line, TwoFrame.parse(literal)
            )
        except Conflict:
            return  # detected inconsistencies are fine
        # Soundness: implication must never eliminate a completion that
        # genuinely realizes the seed literal.  (Completeness is NOT
        # guaranteed — an unsatisfiable seed, e.g. forcing a transition
        # on a line that is structurally constant, may go undetected,
        # in which case no realizing completion exists and the check is
        # vacuous.)
        for frame in (1, 2):
            def framed(value):
                return value.v1 if frame == 1 else value.v2

            seed_bit = framed(TwoFrame.parse(literal))
            for bits in itertools.product((0, 1), repeat=len(circuit.inputs)):
                assignment = dict(zip(circuit.inputs, bits))
                evaluated = circuit.evaluate(assignment)
                if seed_bit is not None and evaluated[line] != seed_bit:
                    continue  # completion does not realize the seed
                assert all(
                    framed(values[ln]) in (None, evaluated[ln])
                    for ln in circuit.lines
                ), (
                    f"frame {frame}: implication contradicts the "
                    f"realizing completion {bits}"
                )


class TestBenchRoundTripProperty:
    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_preserves_function(self, seed):
        circuit = random_small_circuit(seed)
        again = parse_bench(write_bench(circuit), name="again")
        for bits in itertools.product((0, 1), repeat=len(circuit.inputs)):
            assignment = dict(zip(circuit.inputs, bits))
            assert circuit.evaluate(assignment) == again.evaluate(assignment)
