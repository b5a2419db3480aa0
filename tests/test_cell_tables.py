"""Tests of the per-cell coefficient tables and the index path.

A compile holds one coefficient table per group kind over every cell of
its library set; groups and lanes hold integer rows into it, and only
the load terms (``adj``) stay per lane.  A swap that keeps a gate's slot
is an index write: :meth:`~repro.sta.compile.CompiledCircuit.patch_gate`
writes the gate's rows in place and a trial seed carries them into its
group's kernel call, with no one-gate build.  Every answer stays bitwise
that of a fresh analysis.
"""

import functools

import numpy as np
import pytest

from repro.circuit import Circuit, load_packaged_bench, parse_bench
from repro.models import NonCtrlAwareModel, VShapeModel
from repro.obs import use_registry
from repro.pvt import CornerLibrary, parse_corner_list
from repro.sta import (
    IncrementalAnalyzer,
    StaConfig,
    TimingAnalyzer,
    TrialEdit,
)
from repro.sta.compile import CompiledCircuit, _CtrlGroup
from repro.sta.windows import timings_equal

CORNERS = "fast,typ,slow,slow_derated"

#: NAND2/NAND3/NOR2, INV/BUF and XOR2 gates, each reading a gate output.
BENCH = (
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\n"
    "OUTPUT(y1)\nOUTPUT(y2)\nOUTPUT(y3)\n"
    "inv = NOT(a)\nbuf = BUFF(inv)\nn2 = NAND(a, b)\nn3 = NAND(b, c, d)\n"
    "r2 = NOR(c, d)\nx = XOR(n2, r2)\n"
    "y1 = NAND(n3, inv)\ny2 = NAND(buf, n3, x)\ny3 = NOR(n2, buf)\n"
)


def _corner_libraries(library):
    return CornerLibrary.derived(
        library, parse_corner_list(CORNERS)
    ).ordered()[1]


def _groups(compiled):
    return [group for level in compiled.levels for group in level]


# ----------------------------------------------------------------------
# Tables and index leaves
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model_cls", [VShapeModel, NonCtrlAwareModel])
@pytest.mark.parametrize("corners", [False, True])
def test_groups_of_a_kind_share_one_table(model_cls, corners, library):
    """Every group of one kind reads the compile's table of that kind,
    and a cut or split of a built group holds no float leaf but its
    load terms."""
    libraries = _corner_libraries(library) if corners else library
    compiled = CompiledCircuit(
        load_packaged_bench("c880s"), libraries, model_cls(), StaConfig()
    )
    for group in _groups(compiled):
        kind = "ctrl" if isinstance(group, _CtrlGroup) else "arc"
        assert group.table is compiled.tables[kind]
        cols = list(range(0, group.n_gates, 3))
        for part in (group, group.cut(cols), *group.split([0, 1])):
            assert part.table is group.table
            floats = {
                name for name, leaf in part.leaves().items()
                if leaf.dtype.kind == "f"
            }
            assert floats == {"adj"}, (kind, floats)


def test_tables_cover_the_library_not_the_circuit(library):
    """c17 uses only NAND2, yet its compile holds a row for every cell
    of the library, so NAND2 -> NOR2 on c17 is an index write."""
    circuit = load_packaged_bench("c17")
    assert {g.cell_name() for g in circuit.gates.values()} == {"NAND2"}
    compiled = CompiledCircuit(circuit, library, VShapeModel(), StaConfig())
    names = set(compiled.tables["ctrl"].index)
    names |= set(compiled.tables["arc"].index)
    assert names == set(library.cells)
    line = sorted(circuit.gates)[0]
    assert compiled.fits(line, library.cell("NOR2"))
    assert not compiled.fits(line, library.cell("XOR2"))


def test_sized_variant_reads_its_base_rows(library):
    """A resized gate's lanes point at its base cell's table rows; only
    its load terms are its own."""
    circuit = load_packaged_bench("c17")
    line = sorted(circuit.gates)[0]
    circuit.resize_gate(line, 2.5)
    compiled = CompiledCircuit(circuit, library, VShapeModel(), StaConfig())
    group, col, _ = compiled._locs[line]
    table = group.table
    lanes = slice(int(group.lane_start[col]),
                  int(group.lane_start[col]) + 2)
    base = table.pin[table.index["NAND2"]]
    assert group.pack[lanes].tolist() == [base, base + 1]
    assert group.cell[col] == table.index["NAND2"]
    cell = library.cell(circuit.gates[line].cell_name())
    load = float(compiled.loads[compiled._order_pos[line], 0])
    out = cell.ctrl.out_rising
    assert cell.name.startswith("NAND2@") and cell.ref_load != (
        library.cell("NAND2").ref_load
    )
    for response, rising in enumerate((out, not out)):
        want = cell.load_adjusted_delay(rising, load)
        assert (group.adj[0, response, lanes, 0] == want).all()


def test_leaf_bytes_gauge_bounds(library):
    """``sta.compile.leaf_bytes`` counts each buffer under the groups'
    leaves and the tables once: a c7552s compile stays within 2.6 MiB
    on one library and 4.0 MiB on four corners."""
    circuit = load_packaged_bench("c7552s")
    bounds = ((library, 2.6), (_corner_libraries(library), 4.0))
    for libraries, mib in bounds:
        with use_registry() as registry:
            compiled = CompiledCircuit(
                circuit, libraries, VShapeModel(), StaConfig()
            )
        value = registry.gauge("sta.compile.leaf_bytes").value
        assert value == compiled.leaf_bytes()
        assert 0 < value <= mib * 2**20, (len(compiled.libraries), value)


# ----------------------------------------------------------------------
# Swaps inside a slot are index writes
# ----------------------------------------------------------------------
def _no_same_slot_builds(monkeypatch):
    """Make :meth:`CompiledCircuit.build_gates` fail for any gate whose
    cell fits its compiled slot; slot-changing swaps still build."""
    build = CompiledCircuit.build_gates

    def guarded(self, gates, cells, loads):
        for gate, cell in zip(gates, cells):
            assert not self.fits(gate.output, cell), (gate.output, cell.name)
        return build(self, gates, cells, loads)

    monkeypatch.setattr(CompiledCircuit, "build_gates", guarded)


def _fresh(circuit, library, model_cls, edit=None):
    variant = Circuit.from_dict(circuit.to_dict())
    if edit is not None:
        if edit.op == "resize":
            variant.resize_gate(edit.line, edit.value)
        else:
            variant.swap_cell(edit.line, edit.value)
    return TimingAnalyzer(
        variant, library, model_cls(), StaConfig()
    ).analyze_per_gate()


def _assert_matches(circuit, timings, reference, what):
    for line in circuit.lines:
        assert timings_equal(timings(line), reference.line(line)), (
            what, line,
        )


def _c17_edits(circuit):
    gates = sorted(circuit.gates)
    return [
        TrialEdit("resize", gates[0], 2.0),
        TrialEdit("swap", gates[0], "nor"),
        TrialEdit("swap", gates[1], "nor"),
        TrialEdit("resize", gates[2], 0.5),
        TrialEdit("swap", gates[3], "xor"),   # changes the slot
        TrialEdit("swap", gates[4], "nor"),
        TrialEdit("resize", gates[5], 4.0),
        TrialEdit("swap", gates[2], "and"),
    ]


def _mixed_edits(circuit):
    return [
        TrialEdit("resize", "n2", 2.0),
        TrialEdit("swap", "n2", "nor"),
        TrialEdit("swap", "n3", "nor"),       # NAND3 -> NOR3
        TrialEdit("swap", "inv", "buf"),
        TrialEdit("swap", "y1", "xor"),       # changes the slot
        TrialEdit("resize", "buf", 3.0),      # re-loads inv
        TrialEdit("swap", "r2", "or"),
        TrialEdit("resize", "y2", 0.7),
    ]


CASES = [
    ("c17", VShapeModel, _c17_edits),
    ("c17", NonCtrlAwareModel, _c17_edits),
    ("mixed", VShapeModel, _mixed_edits),
    ("mixed", NonCtrlAwareModel, _mixed_edits),
]


@pytest.mark.parametrize("bench, model_cls, edits_of", CASES)
def test_same_slot_swaps_build_nothing(
    bench, model_cls, edits_of, library, monkeypatch
):
    """A K = 8 batch of resizes, same-slot swaps and one slot-changing
    swap builds only the latter; every column, the commit of a
    same-slot swap's column and a real re-time of a same-slot swap
    equal a fresh analysis, windows and states, bit for bit."""
    circuit = (
        load_packaged_bench(bench) if bench == "c17"
        else parse_bench(BENCH, name=bench)
    )
    edits = edits_of(circuit)
    assert len(edits) == 8
    with use_registry() as registry, monkeypatch.context() as patch:
        incr = IncrementalAnalyzer(
            TimingAnalyzer(circuit, library, model_cls(), StaConfig())
        )
        incr.analyze()
        compiled = incr.analyzer._level.compiled
        _no_same_slot_builds(patch)
        trial = incr.try_edits(edits)
        before = Circuit.from_dict(circuit.to_dict())
        k = next(i for i, e in enumerate(edits) if e.op == "swap")
        result = incr.commit(trial, k)
        committed = Circuit.from_dict(circuit.to_dict())
        commit_timings = dict(result.timings)
        line, kind = edits[k + 1].line, edits[k + 1].value
        result = incr.swap_cell(line, kind)
        assert incr.analyzer._level.compiled is compiled  # patched
    counters = registry.snapshot()["counters"]
    assert counters["sta.incr.seed_builds"] == 1  # the slot change only
    assert "sta.incr.rebuild_patches" not in counters
    assert counters.get("sta.incr.full_rebuilds", 0) == 0
    for i, e in enumerate(edits):
        _assert_matches(
            before, functools.partial(trial.line_timing, column=i),
            _fresh(before, library, model_cls, e), (i, e),
        )
    _assert_matches(
        committed, commit_timings.__getitem__,
        _fresh(committed, library, model_cls), "commit",
    )
    _assert_matches(
        circuit, result.line, _fresh(circuit, library, model_cls), "swap",
    )


def test_nand3_to_nor3_moves_peak_rows_and_polarities(library):
    """Under the non-controlling aware model NAND3 -> NOR3 keeps the
    slot but moves the gate's Λ-peak rows and both polarity offsets:
    the cell leaves a same-slot swap writes are more than load terms."""
    circuit = parse_bench(BENCH, name="mixed")
    compiled = CompiledCircuit(
        circuit, library, NonCtrlAwareModel(), StaConfig()
    )
    group, col, _ = compiled._locs["n3"]
    gate = circuit.gates["n3"]
    load = float(compiled.loads[compiled._order_pos["n3"], 0])
    (same,) = compiled.gate_leaves([gate], [library.cell("NAND3")], [load])
    (swap,) = compiled.gate_leaves([gate], [library.cell("NOR3")], [load])
    assert compiled.fits("n3", library.cell("NOR3"))
    for name, leaf in same.items():  # the group's own leaves
        axis = group.AXES[name][0]
        first = int(group.starts[axis][col])
        run = slice(first, first + int(group.counts[axis][col]))
        got = getattr(group, name)
        got = got[..., run, :] if got.dtype.kind == "f" else got[..., run]
        assert np.array_equal(got, leaf), name
    moved = {
        name for name in swap if not np.array_equal(swap[name], same[name])
    }
    assert {"in_rows", "out_rows", "pack", "cell", "scale_c", "peak",
            "pscale_c", "adj"} == moved
