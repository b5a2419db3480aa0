"""Warm per-circuit analysis sessions behind the timing daemon.

A :class:`CircuitSession` owns, per delay model, one
:class:`~repro.sta.analysis.TimingAnalyzer` wrapped in an
:class:`~repro.sta.incremental.IncrementalAnalyzer` (for K-column
what-if trials) and one :class:`~repro.stat.engine.MonteCarloEngine`,
both built on first use and reused for every later query, which is the
entire point of the daemon: clients share one hot in-memory timing
model instead of paying the cold CLI cost per question.

Bitwise parity with the one-shot CLI is a hard contract, kept by
construction rather than by luck:

* windows/slack/path answers read the master ``StaResult`` of a full
  level-compiled pass, the same pass the CLI's ``sta`` runs, and
  ``slack`` the compiled backward pass of ``compute_required`` that
  the CLI's ``report`` runs;
* ``mc`` runs the serial block loop of :func:`repro.stat.runner.run_mc`
  itself (:func:`~repro.stat.runner.run_blocks`, same ``plan_blocks``
  decomposition, same ``McResult.summary``), so the response equals
  ``repro-sta mc --json`` minus the run manifest;
* ``whatif`` trials come from ``try_edits``, whose columns are pinned
  bitwise to a fresh analysis of each single-edit variant.

The serializers live at module level so the ``serve`` fuzz oracle can
format its independently computed references through the same code and
diff pure engine output, not formatting.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..characterize import CellLibrary
from ..circuit import Circuit
from ..obs import get_registry
from ..sta.analysis import StaConfig, StaResult, TimingAnalyzer
from ..sta.incremental import IncrementalAnalyzer, TrialEdit
from ..sta.report import TimingReporter
from ..sta.windows import LineRequired
from ..stat.aggregate import McResult
from ..stat.runner import MC_MODELS, plan_blocks, run_blocks
from ..stat.engine import MonteCarloEngine
from ..stat.variation import VariationModel
from .protocol import ServerError

NS = 1e-9


# ----------------------------------------------------------------------
# Result serializers (shared with the serve fuzz oracle's references)
# ----------------------------------------------------------------------
def window_payload(window) -> Optional[dict]:
    """One DirWindow as wire JSON; None for impossible transitions."""
    if not window.is_active:
        return None
    return {
        "a_s": window.a_s,
        "a_l": window.a_l,
        "t_s": window.t_s,
        "t_l": window.t_l,
        "state": int(window.state),
    }


def windows_payload(result: StaResult, lines: List[str]) -> dict:
    """The ``windows`` method's result body for ``lines``."""
    per_line = {
        line: {
            "rise": window_payload(result.line(line).rise),
            "fall": window_payload(result.line(line).fall),
        }
        for line in lines
    }
    return {
        "lines": per_line,
        "output_max_arrival_s": result.output_max_arrival(),
        "output_min_arrival_s": result.output_min_arrival(),
    }


def slack_payload(
    analyzer: TimingAnalyzer,
    result: StaResult,
    required: Dict[str, LineRequired],
    clock_s: Optional[float],
    worst: int,
) -> dict:
    """The ``slack`` method's result body: WNS/TNS + worst endpoints.

    ``required`` is the backward pass under ``setup_time=clock_s``:
    the daemon's from ``compute_required``, the ``serve`` fuzz oracle's
    from the per-gate reference walk.
    """
    reporter = TimingReporter(analyzer, result)
    entries = reporter.slack_table(required, worst=len(result.timings) + 1)
    slacks = [entry[-1] for entry in entries]
    return {
        "clock_s": (
            clock_s if clock_s is not None else result.output_max_arrival()
        ),
        "wns_s": min(slacks) if slacks else None,
        "tns_s": sum(s for s in slacks if s < 0.0),
        "violations": sum(1 for s in slacks if s < 0.0),
        "endpoints": [
            {
                "line": line,
                "direction": direction,
                "arrival_s": a_l,
                "required_s": q_l,
                "slack_s": slack,
            }
            for line, direction, a_l, q_l, slack in entries[:worst]
        ],
    }


def path_payload(
    analyzer: TimingAnalyzer, result: StaResult, kind: str
) -> dict:
    """The ``path`` method's result body (critical or shortest path)."""
    reporter = TimingReporter(analyzer, result)
    path = (
        reporter.critical_path() if kind == "max"
        else reporter.shortest_path()
    )
    return {
        "kind": kind,
        "startpoint": path.startpoint,
        "endpoint": path.endpoint,
        "arrival_s": path.arrival,
        "stages": [
            {
                "line": stage.line,
                "rising": stage.rising,
                "arrival_s": stage.arrival,
                "cell": stage.cell,
                "pin": stage.pin,
            }
            for stage in path.stages
        ],
    }


def corners_payload(corners, result, lines: List[str]) -> dict:
    """The ``corners`` method's result body.

    Per-corner window tables plus the merged setup/hold envelope, all
    from one batched trailing-corner-axis pass.
    """
    return {
        "order": [corner.name for corner in corners],
        "corners": {
            corner.name: windows_payload(res, lines)
            for corner, res in zip(corners, result.results)
        },
        "merged": windows_payload(result.merged, lines),
        "setup_arrival_s": result.setup_arrival(),
        "hold_arrival_s": result.hold_arrival(),
    }


def resolve_corner_specs(specs) -> list:
    """Wire corner specs (strings or objects) -> ``Corner`` list."""
    from ..pvt import Corner, parse_corner

    corners = []
    for spec in specs:
        if isinstance(spec, str):
            corners.append(parse_corner(spec))
        else:
            corners.append(Corner.from_dict(dict(spec)))
    names = [corner.name for corner in corners]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate corner names in {names}")
    return corners


def trial_entries(
    edits: List[dict],
    arrivals: np.ndarray,
    base_max: float,
    clock_s: Optional[float],
) -> List[dict]:
    """Per-edit what-if rows from a trial's worst-arrival vector."""
    rows = []
    for edit, arrival in zip(edits, arrivals):
        arrival = float(arrival)
        row = {
            "op": edit["op"],
            "line": edit["line"],
            "value": edit["value"],
            "max_arrival_s": arrival,
            "delta_s": arrival - base_max,
        }
        if clock_s is not None:
            row["slack_s"] = clock_s - arrival
        rows.append(row)
    return rows


def whatif_payload(
    edits: List[dict],
    arrivals: np.ndarray,
    base_max: float,
    clock_ns: Optional[float],
) -> dict:
    clock_s = clock_ns * NS if clock_ns is not None else None
    return {
        "base_max_arrival_s": base_max,
        "trials": trial_entries(edits, arrivals, base_max, clock_s),
    }


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
class CircuitSession:
    """One circuit's warm engines; serialized access per circuit.

    The daemon guarantees at most one in-flight dispatch per session
    (the per-circuit drainer/shard serializes requests), so no locking
    is needed here.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        config: Optional[StaConfig] = None,
    ) -> None:
        self.circuit = circuit
        self.library = library
        self.config = config or StaConfig()
        self._incr: Dict[str, IncrementalAnalyzer] = {}
        self._results: Dict[str, StaResult] = {}
        self._mc: Dict[str, MonteCarloEngine] = {}
        self._corner: Dict[tuple, tuple] = {}
        self._obs = get_registry()
        self._lines = set(circuit.lines)
        self._gate_lines = set(circuit.gates)

    # -- warm state --------------------------------------------------
    def _session_incr(self, model: str) -> IncrementalAnalyzer:
        incr = self._incr.get(model)
        if incr is None:
            analyzer = TimingAnalyzer(
                self.circuit, self.library, MC_MODELS[model](),
                config=self.config,
            )
            incr = IncrementalAnalyzer(analyzer)
            self._incr[model] = incr
            self._obs.counter("server.session.analyzers_built").inc()
        return incr

    def _session_result(self, model: str) -> StaResult:
        result = self._results.get(model)
        if result is None:
            result = self._session_incr(model).analyze()
            self._results[model] = result
        return result

    def _mc_engine(self, model: str) -> MonteCarloEngine:
        mc = self._mc.get(model)
        if mc is None:
            mc = MonteCarloEngine(
                self.circuit, self.library, MC_MODELS[model](),
                self.config,
            )
            self._mc[model] = mc
            self._obs.counter("server.session.mc_engines_built").inc()
        return mc

    def _corner_state(self, model: str, corners) -> tuple:
        """Warm ``(corners, CornerSetResult)`` for one corner set.

        The batched compile (and its deterministic analysis) is keyed
        by the resolved corner definitions, so repeated queries over
        the same corner set reuse the warm multi-corner engine.
        """
        from ..pvt import CornerAnalyzer, scaled_library

        key = (model, tuple(
            tuple(sorted(corner.to_dict().items())) for corner in corners
        ))
        state = self._corner.get(key)
        if state is None:
            libraries = [
                scaled_library(self.library, corner) for corner in corners
            ]
            analyzer = CornerAnalyzer(
                self.circuit, corners, libraries,
                model=MC_MODELS[model](), config=self.config,
            )
            state = (corners, analyzer.analyze())
            self._corner[key] = state
            self._obs.counter("server.session.corner_engines_built").inc()
        return state

    # -- dispatch ----------------------------------------------------
    def dispatch(self, method: str, params: dict):
        """Answer one normalized query; raises ServerError on failure."""
        handler = getattr(self, f"_do_{method}", None)
        if handler is None:
            raise ServerError("unknown_method", f"unknown method {method!r}")
        t0 = time.perf_counter()
        try:
            return handler(params)
        finally:
            self._obs.histogram(f"server.session.{method}_s").observe(
                time.perf_counter() - t0
            )

    def _do_windows(self, params: dict) -> dict:
        result = self._session_result(params["model"])
        lines = params["lines"]
        if lines is None:
            lines = list(self.circuit.outputs)
        unknown = sorted(set(lines) - self._lines)
        if unknown:
            raise ServerError(
                "bad_request", f"unknown line(s) {unknown[:5]}"
            )
        return windows_payload(result, lines)

    def _do_slack(self, params: dict) -> dict:
        model = params["model"]
        result = self._session_result(model)
        clock_ns = params["clock_ns"]
        clock_s = clock_ns * NS if clock_ns is not None else None
        analyzer = self._session_incr(model).analyzer
        required = analyzer.compute_required(result, setup_time=clock_s)
        return slack_payload(
            analyzer, result, required, clock_s, params["worst"]
        )

    def _do_path(self, params: dict) -> dict:
        model = params["model"]
        result = self._session_result(model)
        return path_payload(
            self._session_incr(model).analyzer, result, params["kind"]
        )

    def _do_mc(self, params: dict) -> dict:
        # The exact serial loop of run_mc(jobs=1), over a warm engine —
        # engine reuse is already run_mc's own behaviour across blocks,
        # so the response is bit-identical to a fresh CLI invocation.
        engine = self._mc_engine(params["model"])
        variation = VariationModel(
            sigma_corr=params["sigma_corr"], sigma_ind=params["sigma_ind"]
        )
        samples, seed, block = (
            params["samples"], params["seed"], params["block"]
        )
        po_max, po_min, nominal = run_blocks(
            engine, variation, seed, plan_blocks(samples, block)
        )
        self._obs.counter("server.session.mc_samples").inc(samples)
        result = McResult(
            circuit_name=self.circuit.name,
            outputs=list(self.circuit.outputs),
            samples=samples,
            seed=seed,
            block=block,
            model=params["model"],
            variation=variation,
            nominal_max=nominal[0],
            nominal_min=nominal[1],
            po_max=po_max,
            po_min=po_min,
        )
        period = (
            params["period_ns"] * NS
            if params["period_ns"] is not None else None
        )
        return result.summary(tuple(params["quantiles"]), period)

    def _do_corners(self, params: dict) -> dict:
        try:
            corners = resolve_corner_specs(params["corners"])
        except (ValueError, KeyError) as exc:
            raise ServerError("bad_request", str(exc))
        lines = params["lines"]
        if lines is None:
            lines = list(self.circuit.outputs)
        unknown = sorted(set(lines) - self._lines)
        if unknown:
            raise ServerError(
                "bad_request", f"unknown line(s) {unknown[:5]}"
            )
        corners, result = self._corner_state(params["model"], corners)
        return corners_payload(corners, result, lines)

    def _validate_edits(self, edits: List[dict]) -> List[TrialEdit]:
        trial_edits = []
        for edit in edits:
            if edit["line"] not in self._gate_lines:
                raise ServerError(
                    "bad_request",
                    f"line {edit['line']!r} is not a gate output",
                )
            trial_edits.append(
                TrialEdit(op=edit["op"], line=edit["line"],
                          value=edit["value"])
            )
        return trial_edits

    def _do_whatif(self, params: dict) -> dict:
        return self.whatif_many(params["model"], [params])[0][1]

    # -- coalesced what-if -------------------------------------------
    def whatif_many(self, model: str, requests: List[dict]) -> List[tuple]:
        """Answer several what-if requests in one ``try_edits`` batch.

        Each request's edits become columns of a single K-column trial
        (one trailing-axis kernel sweep over the union cone), then the
        columns are split back per request.  Per-request isolation: a
        request whose edits fail validation or poison the shared batch
        gets its own ``("err", code, message)`` entry while the others
        still succeed.

        Returns:
            One ``("ok", result_dict)`` or ``("err", code, message)``
            tuple per request, in request order.
        """
        incr = self._session_incr(model)
        base_max = self._session_result(model).output_max_arrival()

        plan: List[tuple] = []  # (request_index, trial_edits) of valid ones
        out: List[Optional[tuple]] = [None] * len(requests)
        for i, req in enumerate(requests):
            try:
                plan.append((i, self._validate_edits(req["edits"])))
            except ServerError as exc:
                out[i] = ("err", exc.code, exc.message)

        def _finish(i: int, arrivals: np.ndarray) -> None:
            req = requests[i]
            out[i] = ("ok", whatif_payload(
                req["edits"], arrivals, base_max, req["clock_ns"]
            ))

        if len(plan) > 1:
            self._obs.counter("server.whatif.coalesced_requests").inc(
                len(plan)
            )
        try:
            if plan:
                all_edits = [e for _, edits in plan for e in edits]
                arrivals = incr.try_edits(all_edits).max_arrivals()
                pos = 0
                for i, edits in plan:
                    _finish(i, arrivals[pos:pos + len(edits)])
                    pos += len(edits)
        except (ValueError, KeyError):
            # One request's edit can poison the shared batch (e.g. a
            # swap to an incompatible cell).  Re-run per request so the
            # failure stays with its owner.
            self._obs.counter("server.whatif.batch_fallbacks").inc()
            for i, edits in plan:
                try:
                    _finish(i, incr.try_edits(edits).max_arrivals())
                except (ValueError, KeyError) as exc:
                    out[i] = ("err", "bad_request", str(exc))
        return out


class SessionRegistry:
    """Name → :class:`CircuitSession` map over one shared library."""

    def __init__(
        self,
        library: Optional[CellLibrary] = None,
        config: Optional[StaConfig] = None,
    ) -> None:
        self.library = (
            library if library is not None else CellLibrary.load_default()
        )
        self.config = config or StaConfig()
        self._sessions: Dict[str, CircuitSession] = {}

    @property
    def names(self) -> List[str]:
        return sorted(self._sessions)

    def register(self, circuit: Circuit) -> CircuitSession:
        session = CircuitSession(circuit, self.library, self.config)
        self._sessions[circuit.name] = session
        return session

    def session(self, name: str) -> CircuitSession:
        session = self._sessions.get(name)
        if session is None:
            raise ServerError(
                "unknown_circuit",
                f"circuit {name!r} is not loaded; serving {self.names}",
            )
        return session

    def dispatch(self, circuit: str, method: str, params: dict):
        return self.session(circuit).dispatch(method, params)

    def whatif_many(
        self, circuit: str, model: str, requests: List[dict]
    ) -> List[tuple]:
        return self.session(circuit).whatif_many(model, requests)
