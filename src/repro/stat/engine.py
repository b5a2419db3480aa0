"""Sample-axis vectorized Monte Carlo window propagation.

A naive Monte Carlo re-times the circuit N times.  This engine instead
gives every numeric window field a trailing *sample axis* and pushes
all N coefficient draws of a block through **one** forward pass: the
level-compiled engine of :mod:`repro.sta.compile`, whose trailing batch
axis is the sample axis.  The deterministic nominal answer rides the
first block as one extra factor-1.0 column (:meth:`MonteCarloEngine
.block_extremes`), so a run pays for one compile, one pass per block and
no separate nominal pass.

This module also keeps the per-gate *mirror* of that pass
(:meth:`MonteCarloEngine.propagate_per_gate`): a mechanical translation
of :mod:`repro.sta.kernels` in which every scalar that depended on
window values becomes an array over samples and every data-dependent
Python branch becomes a mask.  It is a reference only — the parity
tests and the per-gate corner reference of :mod:`repro.pvt` diff the
compiled pass against it.  Two ingredients are specific to Monte Carlo:

* the per-gate variation factor ``F`` (see
  :class:`repro.stat.variation.VariationModel`) multiplies every
  time-valued characterized quantity at the anchor level, which is
  exactly equivalent to scaling the fitted K-coefficients because each
  surface is linear in them;
* the window *states* (DEFINITE / POTENTIAL / IMPOSSIBLE) are
  structural — they depend on the circuit and the library's arc table,
  never on numeric window values — so they are computed once and shared
  by every sample.

Exactness contract: with ``F == 1.0`` both passes perform bit-for-bit
the same float operations as the scalar reference (multiplying an IEEE
double by 1.0 is the identity).  The ``mc`` fuzz oracle and the
sigma-zero parity tests enforce this against
:meth:`repro.sta.analysis.TimingAnalyzer.analyze_per_gate`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..characterize.library import CellLibrary, CellTiming, pair_key
from ..circuit.netlist import Circuit, Gate
from ..models.base import DelayModel
from ..models.vshape import VShapeModel
from ..sta import kernels
from ..sta.analysis import StaConfig, StaResult, TimingAnalyzer
from ..sta.compile import check_derates
from ..sta.kernels import (
    _pair_combos,
    _peak_delay,
    _trans_v,
    _v_delay,
    overlap_depth,
    peak_anchor_surfaces,
    quad_extremes_batch,
    ratio_table,
    trans_anchor_surfaces,
    vshape_anchor_surfaces,
)
from ..sta.windows import (
    DEFINITE,
    IMPOSSIBLE,
    OVERLAP_TOL,
    POTENTIAL,
    DirWindow,
    LineTiming,
)


@dataclasses.dataclass
class SampleWindows:
    """Per-sample window fields of one line direction.

    The numeric fields are arrays of shape ``(n_samples,)``; ``state``
    is a single int because window states are structural (shared by all
    samples).  An IMPOSSIBLE direction carries no arrays.
    """

    a_s: Optional[np.ndarray]
    a_l: Optional[np.ndarray]
    t_s: Optional[np.ndarray]
    t_l: Optional[np.ndarray]
    state: int = POTENTIAL

    @property
    def is_active(self) -> bool:
        return self.state != IMPOSSIBLE

    @classmethod
    def impossible(cls) -> "SampleWindows":
        return cls(None, None, None, None, IMPOSSIBLE)

    def at(self, sample: int) -> DirWindow:
        """The one-sample :class:`DirWindow` (exact float round-trip)."""
        if not self.is_active:
            return DirWindow.impossible()
        return DirWindow(
            a_s=float(self.a_s[sample]),
            a_l=float(self.a_l[sample]),
            t_s=float(self.t_s[sample]),
            t_l=float(self.t_l[sample]),
            state=self.state,
        )


#: windows[line] -> (rise, fall)
BlockWindows = Dict[str, Tuple[SampleWindows, SampleWindows]]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class MonteCarloEngine:
    """Propagates N perturbed timing samples per pass over the circuit.

    Args:
        circuit: Gate-level circuit under analysis.
        library: Characterized cell library.
        model: Delay model (defaults to the proposed V-shape model).
        config: STA boundary conditions.
        derate: Optional ``(early, late)`` timing-derate pair (see
            :mod:`repro.pvt`): min-side responses multiply by the early
            derate and max-side responses by the late derate, after the
            per-gate variation factor.  ``None`` applies no derate
            multiplies at all (not even by 1.0), matching the compiled
            engine's ``derates=None``.

    Raises:
        ValueError: If ``derate`` breaks
            :func:`repro.sta.compile.check_derates`.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        model: Optional[DelayModel] = None,
        config: Optional[StaConfig] = None,
        derate: Optional[Tuple[float, float]] = None,
    ) -> None:
        self.circuit = circuit
        self.library = library
        self.model = model if model is not None else VShapeModel()
        self.config = config or StaConfig()
        self.derate = (
            None if derate is None
            else (float(derate[0]), float(derate[1]))
        )
        if self.derate is not None:
            check_derates(self.derate)
        self.analyzer = TimingAnalyzer(
            circuit, library, self.model, self.config
        )
        self._nominal: Optional[StaResult] = None
        self._level = self.analyzer.level_engine()
        outputs = [self._level.compiled.line_index[o] for o in circuit.outputs]
        #: SoA rows of the primary outputs: every rise row, then every
        #: fall row.
        self._po_rows = np.array(
            outputs + [i + self._level.compiled.n_lines for i in outputs],
            dtype=np.intp,
        )
        self._ctx = kernels.KernelContext()
        #: Gate output lines in propagation order; row ``i`` of a factor
        #: matrix perturbs ``gate_order[i]``.
        self.gate_order: List[str] = circuit.topological_order()
        self.cell_names: List[str] = sorted(
            {circuit.gates[g].cell_name() for g in self.gate_order}
        )
        pos = {name: i for i, name in enumerate(self.cell_names)}
        self.cell_index = np.array(
            [pos[circuit.gates[g].cell_name()] for g in self.gate_order],
            dtype=np.intp,
        )

    @property
    def n_gates(self) -> int:
        return len(self.gate_order)

    @property
    def nominal(self) -> StaResult:
        """Deterministic pass (no variation, no derate) from the compile
        the sample blocks run on, computed on first use.

        Only the references need it as a full :class:`StaResult` (the
        per-gate mirror reads its PI states, the ``mc`` oracle diffs
        it); Monte Carlo runs read the nominal extremes from the extra
        column of the first block instead.
        """
        if self._nominal is None:
            self._nominal = self.analyzer.analyze()
        return self._nominal

    # ------------------------------------------------------------------
    # Forward propagation
    # ------------------------------------------------------------------
    def propagate(self, factors: np.ndarray) -> BlockWindows:
        """One compiled pass: all samples of a block, every line.

        Args:
            factors: Per-gate variation factors, shape
                ``(n_gates, n_samples)`` aligned with ``gate_order``
                (the compiled pass's factor rows use the same order).

        Returns:
            ``{line: (rise, fall)}`` sample windows for every line.
        """
        return self._from_compiled(
            self._level.propagate(factors, derates=self.derate)
        )

    def block_extremes(
        self, factors: np.ndarray, nominal: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, Optional[Tuple[float, float]]]:
        """One compiled pass, reduced to per-output extremes.

        Reads the primary-output rows straight from the SoA block, with
        the reduction of :meth:`po_extremes`.

        Args:
            factors: Per-gate variation factors ``(n_gates, n_samples)``.
            nominal: Append one factor-1.0 column (derate 1.0 in that
                column when the engine is derated — multiplying by 1.0
                is exact) and report its extremes: the deterministic
                answer, bit for bit, without a pass of its own.

        Returns:
            ``(po_max, po_min, nominal_extremes)``: the samples'
            ``(n_outputs, n_samples)`` latest / earliest arrivals and,
            with ``nominal``, the deterministic ``(max, min)`` over the
            outputs (else ``None``).
        """
        derates = self.derate
        if nominal:
            factors = np.concatenate(
                [factors, np.ones((factors.shape[0], 1))], axis=1
            )
            if derates is not None:
                derates = tuple(
                    np.append(np.full(factors.shape[1] - 1, d), 1.0)
                    for d in derates
                )
        compiled = self._level.propagate(factors, derates=derates)
        rows = self._po_rows
        active = (compiled.states[rows] != IMPOSSIBLE)[:, None]
        if not active.any():
            raise ValueError("no active output transitions")
        late = np.where(active, compiled.a_l[rows], -np.inf)
        early = np.where(active, compiled.a_s[rows], np.inf)
        half = len(self.circuit.outputs)
        po_max = np.maximum(late[:half], late[half:])
        po_min = np.minimum(early[:half], early[half:])
        if not nominal:
            return po_max, po_min, None
        extremes = (float(po_max[:, -1].max()), float(po_min[:, -1].min()))
        return po_max[:, :-1], po_min[:, :-1], extremes

    def propagate_per_gate(self, factors: np.ndarray) -> BlockWindows:
        """The per-gate mirror of :meth:`propagate` (reference only).

        Walks the circuit one gate at a time through this module's
        sample-axis translation of the batched kernels; bit-identical
        to :meth:`propagate`.
        """
        if factors.shape[0] != self.n_gates:
            raise ValueError(
                f"factor rows ({factors.shape[0]}) != gates ({self.n_gates})"
            )
        n = factors.shape[1]
        a_s, a_l = self.config.pi_arrival
        t_s, t_l = self.config.pi_trans
        windows: BlockWindows = {}
        for pi in self.circuit.inputs:
            nominal = self.nominal.line(pi)
            windows[pi] = tuple(
                SampleWindows(
                    np.full(n, a_s), np.full(n, a_l),
                    np.full(n, t_s), np.full(n, t_l),
                    state=w.state,
                )
                if w.is_active else SampleWindows.impossible()
                for w in (nominal.rise, nominal.fall)
            )
        for row, line in enumerate(self.gate_order):
            windows[line] = self._propagate_gate(
                self.circuit.gates[line], windows, factors[row]
            )
        return windows

    def _from_compiled(self, compiled) -> BlockWindows:
        """View a compiled pass's SoA rows as :class:`SampleWindows`.

        The per-line arrays are views into the compiled arrays — no
        copies, and the float values are the compiled pass's, exactly.
        """
        windows: BlockWindows = {}
        for line in self.circuit.lines:
            pair = []
            for rising in (True, False):
                r = compiled.row(line, rising)
                state = int(compiled.states[r])
                if state == IMPOSSIBLE:
                    pair.append(SampleWindows.impossible())
                else:
                    pair.append(
                        SampleWindows(
                            compiled.a_s[r], compiled.a_l[r],
                            compiled.t_s[r], compiled.t_l[r],
                            state,
                        )
                    )
            windows[line] = (pair[0], pair[1])
        return windows

    def _propagate_gate(
        self, gate: Gate, windows: BlockWindows, f: np.ndarray
    ) -> Tuple[SampleWindows, SampleWindows]:
        """Sample-axis mirror of ``TimingAnalyzer._propagate_windows``."""
        cell = self.analyzer.cell_of(gate)
        load = self.analyzer.load(gate.output)
        if cell.controlling_value is not None and cell.n_inputs >= 2:
            ctrl_in_rising = cell.controlling_value == 1
            ctrl_ins = [
                (pin, _dir(windows[line], ctrl_in_rising))
                for pin, line in enumerate(gate.inputs)
            ]
            nonctrl_ins = [
                (pin, _dir(windows[line], not ctrl_in_rising))
                for pin, line in enumerate(gate.inputs)
            ]
            ctrl_w = self._ctrl_window(cell, ctrl_ins, load, f)
            nonctrl_w = self._nonctrl_window(cell, nonctrl_ins, load, f)
            if cell.ctrl.out_rising:
                return (ctrl_w, nonctrl_w)
            return (nonctrl_w, ctrl_w)
        # inv / buf / xor: per-arc propagation.
        result = []
        for out_rising in (True, False):
            arcs = [
                (pin, in_rising, _dir(windows[line], in_rising))
                for pin, line in enumerate(gate.inputs)
                for in_rising in (True, False)
                if cell.has_arc(pin, in_rising, out_rising)
            ]
            result.append(self._arc_window(cell, arcs, out_rising, load, f))
        return (result[0], result[1])

    # -- to-controlling response (mirror of kernels.ctrl_response_window)
    def _ctrl_window(
        self,
        cell: CellTiming,
        inputs: Sequence[Tuple[int, SampleWindows]],
        load: float,
        f: np.ndarray,
    ) -> SampleWindows:
        ctrl = cell.ctrl
        active = [(pin, w) for pin, w in inputs if w.is_active]
        if not active:
            return SampleWindows.impossible()
        out_rising = ctrl.out_rising
        pack = self._ctx.ctrl_pack(cell)
        pins = np.array([pin for pin, _ in active], dtype=np.intp)
        t_s_in = np.stack([w.t_s for _, w in active])  # (P, N)
        t_l_in = np.stack([w.t_l for _, w in active])
        a_s_in = np.stack([w.a_s for _, w in active])
        a_l_in = np.stack([w.a_l for _, w in active])
        definite = np.array(
            [w.state == DEFINITE for _, w in active], dtype=bool
        )

        arc_lo = pack.t_lo[pins][:, None]
        arc_hi = pack.t_hi[pins][:, None]
        c_lo = np.minimum(np.maximum(t_s_in, arc_lo), arc_hi)
        c_hi = np.minimum(np.maximum(t_l_in, arc_lo), arc_hi)
        b_hi = np.maximum(c_hi, c_lo)

        d_adj = cell.load_adjusted_delay(out_rising, load)
        r_adj = cell.load_adjusted_trans(out_rising, load)
        qa2 = pack.q_a2[:, pins][:, :, None]
        qa1 = pack.q_a1[:, pins][:, :, None]
        qa0 = pack.q_a0[:, pins][:, :, None]
        mins, maxs = quad_extremes_batch(qa2, qa1, qa0, c_lo, b_hi)
        ge, gl = (None, None) if self.derate is None else self.derate
        d_min = (mins[0] + d_adj) * f
        d_max = (maxs[0] + d_adj) * f
        r_min = (mins[1] + r_adj) * f
        r_max = (maxs[1] + r_adj) * f
        if ge is not None:
            d_min = d_min * ge
            d_max = d_max * gl
            r_min = r_min * ge
            r_max = r_max * gl

        upper = a_l_in + d_max
        has_definite = bool(definite.any())
        if has_definite:
            a_l = upper[definite].min(axis=0)
        else:
            a_l = upper.max(axis=0)
        a_s = (a_s_in + d_min).min(axis=0)
        t_s = r_min.min(axis=0)
        t_l = r_max.max(axis=0)
        merge = (
            getattr(self.model, "supports_pair_merge", False)
            and len(active) >= 2
        )
        if merge:
            # The overlap depth and the k-input ratios vary per sample.
            overlap_k = overlap_depth(a_s_in, a_l_in)
            ratio = ratio_table(ctrl.multi_scale, len(active))[overlap_k]
            t_ratio = ratio_table(
                ctrl.trans_multi_scale, len(active)
            )[overlap_k]
            tc = np.stack([c_lo, c_hi], axis=1)  # (P, 2, N)
            qa2e = pack.q_a2[:, pins][:, :, None, None]
            qa1e = pack.q_a1[:, pins][:, :, None, None]
            qa0e = pack.q_a0[:, pins][:, :, None, None]
            drtr = (qa2e * tc + qa1e) * tc + qa0e  # (2, P, 2, N)
            dr = (drtr[0] + d_adj) * f
            tr = (drtr[1] + r_adj) * f
            if ge is not None:
                dr = dr * ge
                tr = tr * ge
            ii, jj, ki, kj, pairs = _pair_combos(len(active))
            scale_c = np.repeat(
                np.array(
                    [
                        ctrl.pair_scale.get(
                            pair_key(active[a][0], active[b][0]), 1.0
                        )
                        for a, b in pairs
                    ],
                    dtype=float,
                ),
                4,
            )
            t_lo_c = tc[ii, ki]  # (C, N)
            t_hi_c = tc[jj, kj]
            dr_lo = dr[ii, ki]
            dr_hi = dr[jj, kj]
            d0, s_pos, s_neg = vshape_anchor_surfaces(
                ctrl, t_lo_c, t_hi_c, scale_c[:, None],
                dr_lo, dr_hi, d_adj, f=f, g=ge,
            )
            asi, asj = a_s_in[ii], a_s_in[jj]
            ali, alj = a_l_in[ii], a_l_in[jj]
            blo = asj - ali
            bhi = alj - asi
            delta = np.stack(
                [blo, bhi, asj - asi, np.zeros_like(blo), s_pos, -s_neg],
                axis=1,
            )  # (C, 6, N)
            valid = (blo[:, None] <= delta) & (delta <= bhi[:, None])
            dval = _v_delay(
                delta, d0[:, None], s_pos[:, None], s_neg[:, None],
                dr_lo[:, None], dr_hi[:, None],
            )
            floor = (
                np.maximum(asi[:, None], asj[:, None] - delta)
                + np.minimum(0.0, delta)
            )
            cand = np.where(valid, floor + dval, np.inf)
            a_s = np.minimum(a_s, cand.min(axis=(0, 1)))
            pa = np.array([a for a, _ in pairs], dtype=np.intp)
            pb = np.array([b for _, b in pairs], dtype=np.intp)
            # Same tolerance as DirWindow.overlaps_arrivals, or the
            # engines diverge on windows that barely touch.
            pair_ov = (a_s_in[pa] <= a_l_in[pb] + OVERLAP_TOL) & (
                a_s_in[pb] <= a_l_in[pa] + OVERLAP_TOL
            )  # (pairs, N)
            first = np.arange(len(pairs), dtype=np.intp) * 4
            pair_floor = np.maximum(a_s_in[pa], a_s_in[pb])
            extra = np.where(
                pair_ov & (ratio < 1.0),
                pair_floor + d0[first] * ratio,
                np.inf,
            )
            a_s = np.minimum(a_s, extra.min(axis=0))

            # ---- transition-time merge (SK_t,min rule) ----
            vskew, vval, sp_t, sn_t = trans_anchor_surfaces(
                ctrl, t_lo_c, t_hi_c, tr[ii, ki], tr[jj, kj], r_adj,
                f=f, g=ge,
            )
            delta_t = np.minimum(np.maximum(vskew, blo), bhi)
            tval = _trans_v(
                delta_t, vskew, vval, sp_t, sn_t, tr[ii, ki], tr[jj, kj]
            )
            combo_ov = np.repeat(pair_ov, 4, axis=0)
            tval = np.where(
                combo_ov & (t_ratio < 1.0),
                np.minimum(tval, vval * t_ratio),
                tval,
            )
            t_s = np.minimum(t_s, tval.min(axis=0))
        a_s = np.minimum(a_s, a_l)
        t_s = np.minimum(t_s, t_l)
        state = DEFINITE if has_definite else POTENTIAL
        return SampleWindows(a_s, a_l, t_s, t_l, state)

    # -- to-non-controlling (mirror of kernels.nonctrl_response_window)
    def _nonctrl_window(
        self,
        cell: CellTiming,
        inputs: Sequence[Tuple[int, SampleWindows]],
        load: float,
        f: np.ndarray,
    ) -> SampleWindows:
        active = [(pin, w) for pin, w in inputs if w.is_active]
        if not active:
            return SampleWindows.impossible()
        out_rising = not cell.ctrl.out_rising
        pack = self._ctx.nonctrl_pack(cell)
        pins = np.array([pin for pin, _ in active], dtype=np.intp)
        t_s_in = np.stack([w.t_s for _, w in active])
        t_l_in = np.stack([w.t_l for _, w in active])
        a_s_in = np.stack([w.a_s for _, w in active])
        a_l_in = np.stack([w.a_l for _, w in active])
        definite = np.array(
            [w.state == DEFINITE for _, w in active], dtype=bool
        )

        arc_lo = pack.t_lo[pins][:, None]
        arc_hi = pack.t_hi[pins][:, None]
        c_lo = np.minimum(np.maximum(t_s_in, arc_lo), arc_hi)
        c_hi = np.minimum(np.maximum(t_l_in, arc_lo), arc_hi)
        b_hi = np.maximum(c_hi, c_lo)
        d_adj = cell.load_adjusted_delay(out_rising, load)
        r_adj = cell.load_adjusted_trans(out_rising, load)
        mins, maxs = quad_extremes_batch(
            pack.q_a2[:, pins][:, :, None],
            pack.q_a1[:, pins][:, :, None],
            pack.q_a0[:, pins][:, :, None],
            c_lo, b_hi,
        )
        ge, gl = (None, None) if self.derate is None else self.derate
        d_min = (mins[0] + d_adj) * f
        d_max = (maxs[0] + d_adj) * f
        r_min = (mins[1] + r_adj) * f
        r_max = (maxs[1] + r_adj) * f
        if ge is not None:
            d_min = d_min * ge
            d_max = d_max * gl
            r_min = r_min * ge
            r_max = r_max * gl

        lows = a_s_in + d_min
        highs = a_l_in + d_max
        if definite.any():
            a_s = lows[definite].max(axis=0)
        else:
            a_s = lows.min(axis=0)
        a_l = highs.max(axis=0)

        uses_peak = (
            hasattr(self.model, "nonctrl_shape")
            and getattr(cell, "nonctrl", None) is not None
        )
        if uses_peak and len(active) >= 2:
            data = cell.nonctrl
            ppack = self._ctx.peak_pack(cell)
            p_adj = cell.load_adjusted_delay(data.out_rising, load)
            p_lo = ppack.t_lo[pins][:, None]
            p_hi = ppack.t_hi[pins][:, None]
            tc = np.stack(
                [
                    np.minimum(np.maximum(t_s_in, p_lo), p_hi),
                    np.minimum(np.maximum(t_l_in, p_lo), p_hi),
                ],
                axis=1,
            )  # (P, 2, N)
            tails = (
                (ppack.d_a2[pins][:, None, None] * tc
                 + ppack.d_a1[pins][:, None, None]) * tc
                + ppack.d_a0[pins][:, None, None]
                + p_adj
            ) * f
            if gl is not None:
                tails = tails * gl
            ii, jj, ki, kj, pairs = _pair_combos(len(active))
            scale_c = np.repeat(
                np.array(
                    [
                        data.pair_scale.get(
                            pair_key(active[a][0], active[b][0]), 1.0
                        )
                        for a, b in pairs
                    ],
                    dtype=float,
                ),
                4,
            )
            tail_lo = tails[ii, ki]
            tail_hi = tails[jj, kj]
            p0, s_pos, s_neg = peak_anchor_surfaces(
                data, tc[ii, ki], tc[jj, kj], scale_c[:, None],
                tail_lo, tail_hi, p_adj, f=f, g=gl,
            )
            asi, asj = a_s_in[ii], a_s_in[jj]
            ali, alj = a_l_in[ii], a_l_in[jj]
            blo = asj - ali
            bhi = alj - asi
            delta = np.stack(
                [blo, bhi, alj - ali, np.zeros_like(blo), s_pos, -s_neg],
                axis=1,
            )
            valid = (blo[:, None] <= delta) & (delta <= bhi[:, None])
            dval = _peak_delay(
                delta, p0[:, None], s_pos[:, None], s_neg[:, None],
                tail_lo[:, None], tail_hi[:, None],
            )
            ceiling = (
                np.minimum(ali[:, None], alj[:, None] - delta)
                + np.maximum(0.0, delta)
            )
            cand = np.where(valid, ceiling + dval, -np.inf)
            a_l = np.maximum(a_l, cand.max(axis=(0, 1)))
        a_s = np.minimum(a_s, a_l)
        state = DEFINITE if definite.any() else POTENTIAL
        return SampleWindows(
            a_s, a_l, r_min.min(axis=0), r_max.max(axis=0), state
        )

    # -- inv / buf / xor arcs (mirror of kernels.arc_fanin_window)
    def _arc_window(
        self,
        cell: CellTiming,
        arcs: Sequence[Tuple[int, bool, SampleWindows]],
        out_rising: bool,
        load: float,
        f: np.ndarray,
    ) -> SampleWindows:
        active = [(p, d, w) for (p, d, w) in arcs if w.is_active]
        if not active:
            return SampleWindows.impossible()
        index, pack = self._ctx.fanin_pack(cell, out_rising)
        sel = np.array([index[(p, d)] for (p, d, _) in active], dtype=np.intp)
        t_s_in = np.stack([w.t_s for *_, w in active])
        t_l_in = np.stack([w.t_l for *_, w in active])
        a_s_in = np.stack([w.a_s for *_, w in active])
        a_l_in = np.stack([w.a_l for *_, w in active])

        arc_lo = pack.t_lo[sel][:, None]
        arc_hi = pack.t_hi[sel][:, None]
        c_lo = np.minimum(np.maximum(t_s_in, arc_lo), arc_hi)
        c_hi = np.minimum(np.maximum(t_l_in, arc_lo), arc_hi)
        b_hi = np.maximum(c_hi, c_lo)
        d_adj = cell.load_adjusted_delay(out_rising, load)
        r_adj = cell.load_adjusted_trans(out_rising, load)
        mins, maxs = quad_extremes_batch(
            pack.q_a2[:, sel][:, :, None],
            pack.q_a1[:, sel][:, :, None],
            pack.q_a0[:, sel][:, :, None],
            c_lo, b_hi,
        )
        ge, gl = (None, None) if self.derate is None else self.derate
        d_min = (mins[0] + d_adj) * f
        d_max = (maxs[0] + d_adj) * f
        r_min = (mins[1] + r_adj) * f
        r_max = (maxs[1] + r_adj) * f
        if ge is not None:
            d_min = d_min * ge
            d_max = d_max * gl
            r_min = r_min * ge
            r_max = r_max * gl
        any_definite = any(w.state == DEFINITE for *_, w in active)
        state = DEFINITE if any_definite and len(active) == 1 else POTENTIAL
        return SampleWindows(
            a_s=(a_s_in + d_min).min(axis=0),
            a_l=(a_l_in + d_max).max(axis=0),
            t_s=r_min.min(axis=0),
            t_l=r_max.max(axis=0),
            state=state,
        )

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def po_extremes(
        self, windows: BlockWindows
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-output (latest, earliest) arrivals across the block.

        Returns:
            ``(po_max, po_min)`` of shape ``(n_outputs, n_samples)``.
            An output with no active transition (cannot normally happen)
            contributes -inf/+inf rather than poisoning the reduction.
        """
        outputs = self.circuit.outputs
        n = next(
            w.a_l.shape[0]
            for pair in windows.values() for w in pair if w.is_active
        )
        po_max = np.full((len(outputs), n), -np.inf)
        po_min = np.full((len(outputs), n), np.inf)
        any_active = False
        for k, po in enumerate(outputs):
            for w in windows[po]:
                if not w.is_active:
                    continue
                any_active = True
                po_max[k] = np.maximum(po_max[k], w.a_l)
                po_min[k] = np.minimum(po_min[k], w.a_s)
        if not any_active:
            raise ValueError("no active output transitions")
        return po_max, po_min

    def line_timing_at(
        self, windows: BlockWindows, line: str, sample: int
    ) -> LineTiming:
        """One line's :class:`LineTiming` at a single sample index."""
        rise, fall = windows[line]
        return LineTiming(rise=rise.at(sample), fall=fall.at(sample))


def _dir(
    pair: Tuple[SampleWindows, SampleWindows], rising: bool
) -> SampleWindows:
    return pair[0] if rising else pair[1]
