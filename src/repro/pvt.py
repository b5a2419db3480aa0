"""Multi-corner PVT characterization and corner-batched timing analysis.

Sign-off timing is never a single operating point: a chip must meet
setup at the slow corner and hold at the fast one, with pessimism
margins (timing derates) on top.  This module adds that workload class:

* :class:`Corner` — a process/voltage/temperature point plus early/late
  derate factors, which parameterizes :class:`repro.tech.Technology`
  (mobility and threshold shifts, supply swap) so the transistor-level
  characterizer of :mod:`repro.characterize` can re-fit the paper's
  K-coefficients per corner;
* :class:`CornerLibrary` — the persistent multi-corner artifact
  (library ``format_version=3``; plain v2 files load as a single
  ``"typ"`` corner), produced either by true re-characterization
  (:func:`characterize_corners`, reusing the parallel/cached sweep
  engine) or by the exact analytic time-rescale of
  :func:`scaled_library`;
* :class:`CornerAnalyzer` — corner-batched STA.  The level-compiled
  engine (:mod:`repro.sta.compile`) stacks each corner's coefficient
  columns on the same trailing batch axis used for MC samples and
  boundary scenarios, so an N-corner full pass is **one** batched
  sweep; per-corner results are views of their columns, and the
  conservative envelope (setup takes the latest arrival across corners,
  hold the earliest) is one min/max reduction over the corner columns.

Exactness contract: corner column ``c`` of a batched pass performs
bit-for-bit the float operations of a single-corner pass with corner
``c``'s library and scalar derates.  ``tests/test_pvt.py`` and the
``corners`` fuzz oracle enforce this, and diff the batched pass
against the scalar reference walk run once per corner library with
that corner's derates (:meth:`CornerAnalyzer.analyze_per_gate`, a
reference only).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .characterize.characterizer import (
    CharacterizationConfig,
    DEFAULT_CELLS,
    characterize_library,
)
from .characterize.cache import SweepCache
from .characterize.formulas import (
    CubeRootSurface,
    LinForm2,
    QuadForm2,
    QuadPoly1,
)
from .characterize.library import (
    FORMAT_NAME,
    FORMAT_VERSION,
    CellLibrary,
    CellTiming,
    LibraryFormatError,
    SimultaneousTiming,
    TimingArc,
)
from .circuit.netlist import Circuit
from .models.base import DelayModel
from .obs import get_registry
from .sta.analysis import StaConfig, StaResult, TimingAnalyzer
from .sta.compile import ColumnTimings, LevelCompiledAnalyzer
from .sta.windows import merge_line_timings
from .tech import GENERIC_05UM, Technology

#: Schema version of the multi-corner library JSON (v2 is the
#: single-corner format of :mod:`repro.characterize.library`).
CORNER_FORMAT_VERSION = 3

#: Corner name a plain v2 library is filed under when loaded.
DEFAULT_CORNER_NAME = "typ"


# ----------------------------------------------------------------------
# Corner definition
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Corner:
    """One PVT operating point plus its timing derates.

    Args:
        name: Corner identifier (``"typ"``, ``"ss_low_hot"``, ...).
        process: Transconductance multiplier of the process point
            (< 1 slow silicon, > 1 fast silicon).
        vdd: Supply voltage, volts.
        temp_c: Junction temperature, Celsius.  Enters the device model
            through carrier mobility (``T^-1.5`` power law) and a
            -2 mV/K threshold shift.
        derate_early: Multiplier on min-side responses (earliest
            arrivals / fastest transitions) — the hold-pessimism knob;
            conventionally <= 1.
        derate_late: Multiplier on max-side responses — the
            setup-pessimism knob; conventionally >= 1.
    """

    name: str
    process: float = 1.0
    vdd: float = 3.3
    temp_c: float = 25.0
    derate_early: float = 1.0
    derate_late: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("corner name must be non-empty")
        for field in ("process", "vdd", "derate_early", "derate_late"):
            value = getattr(self, field)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(
                    f"corner {self.name!r}: {field} must be finite and "
                    f"> 0, got {value!r}"
                )
        if self.derate_early > self.derate_late:
            raise ValueError(
                f"corner {self.name!r}: derate_early "
                f"({self.derate_early}) must not exceed derate_late "
                f"({self.derate_late}) or merged windows invert"
            )

    @property
    def derates(self) -> Tuple[float, float]:
        """The ``(early, late)`` derate pair."""
        return (self.derate_early, self.derate_late)

    def technology(self, base: Technology = GENERIC_05UM) -> Technology:
        """The device parameters of this corner.

        Process and temperature scale the transconductances (carrier
        mobility follows the standard ``(T/300K)^-1.5`` power law),
        temperature shifts both threshold magnitudes by -2 mV/K, and
        the supply is replaced outright.  Capacitances are geometric
        and stay fixed.
        """
        t_ratio = (273.15 + self.temp_c) / 298.15
        mobility = self.process * t_ratio ** -1.5
        dvt = -2.0e-3 * (self.temp_c - 25.0)
        vtn = base.vtn + dvt
        vtp = base.vtp + dvt
        for label, vt in (("vtn", vtn), ("vtp", vtp)):
            if self.vdd - vt < 0.1:
                raise ValueError(
                    f"corner {self.name!r}: vdd {self.vdd} V leaves no "
                    f"overdrive above {label} {vt:.3f} V"
                )
        return dataclasses.replace(
            base,
            name=f"{base.name}@{self.name}",
            vdd=self.vdd,
            vtn=vtn,
            vtp=vtp,
            kpn=base.kpn * mobility,
            kpp=base.kpp * mobility,
        )

    def delay_scale(self, base: Technology = GENERIC_05UM) -> float:
        """First-order gate-delay multiplier of this corner vs ``base``.

        A square-law device drives its load in time proportional to
        ``C * Vdd / (kp * (Vdd - Vt)^2)``; the scale is the geometric
        mean of that ratio over the N and P devices.  This is the
        analytic stand-in for re-characterization used by
        :func:`scaled_library` — sanity: the standard slow corner lands
        near 1.9x, the fast one near 0.5x.
        """
        corner = self.technology(base)

        def device_delay(tech: Technology, kp: float, vt: float) -> float:
            return tech.vdd / (kp * (tech.vdd - vt) ** 2)

        ratio_n = device_delay(corner, corner.kpn, corner.vtn) / device_delay(
            base, base.kpn, base.vtn
        )
        ratio_p = device_delay(corner, corner.kpp, corner.vtp) / device_delay(
            base, base.kpp, base.vtp
        )
        return math.sqrt(ratio_n * ratio_p)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Corner":
        if not isinstance(payload, dict):
            raise LibraryFormatError(
                f"corner definition must be an object, got "
                f"{type(payload).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown or "name" not in payload:
            raise LibraryFormatError(
                f"malformed corner definition (fields {sorted(payload)}) "
                f"— re-run characterization"
            )
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            raise LibraryFormatError(
                f"malformed corner definition: {exc} — re-run "
                f"characterization"
            ) from exc


#: The conventional sign-off set against the generic 0.5 um process:
#: typical, a fast/cold/high-V hold corner, a slow/hot/low-V setup
#: corner, and the slow corner with +/-5% derates applied.
STANDARD_CORNERS: Dict[str, Corner] = {
    corner.name: corner
    for corner in (
        Corner("typ"),
        Corner("fast", process=1.25, vdd=3.63, temp_c=-40.0),
        Corner("slow", process=0.8, vdd=2.97, temp_c=125.0),
        Corner(
            "slow_derated",
            process=0.8,
            vdd=2.97,
            temp_c=125.0,
            derate_early=0.95,
            derate_late=1.05,
        ),
    )
}


def parse_corner(spec: str) -> Corner:
    """Parse one CLI corner spec.

    Either a standard corner name (``"slow"``) or an inline definition
    ``name:key=value:key=value...`` with keys ``process``, ``vdd``,
    ``temp``, ``early``, ``late`` (unset keys default to typical), e.g.
    ``cold:process=1.1:temp=-40:late=1.02``.
    """
    name, sep, rest = spec.partition(":")
    if not sep:
        corner = STANDARD_CORNERS.get(name)
        if corner is None:
            raise ValueError(
                f"unknown corner {name!r}; standard corners are "
                f"{sorted(STANDARD_CORNERS)} (or use an inline "
                f"name:key=value spec)"
            )
        return corner
    keys = {
        "process": "process",
        "vdd": "vdd",
        "temp": "temp_c",
        "early": "derate_early",
        "late": "derate_late",
    }
    fields: Dict[str, float] = {}
    for item in rest.split(":"):
        key, eq, value = item.partition("=")
        if not eq or keys.get(key) is None:
            raise ValueError(
                f"bad corner field {item!r} in {spec!r}; expected "
                f"key=value with keys {sorted(keys)}"
            )
        try:
            fields[keys[key]] = float(value)
        except ValueError:
            raise ValueError(
                f"bad numeric value in corner field {item!r}"
            ) from None
    return Corner(name=name, **fields)


def parse_corner_list(text: str) -> List[Corner]:
    """Parse a comma-separated ``--corners`` argument."""
    corners = [parse_corner(s) for s in text.split(",") if s.strip()]
    if not corners:
        raise ValueError("need at least one corner")
    names = [c.name for c in corners]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate corner names in {names}")
    return corners


# ----------------------------------------------------------------------
# Analytic corner libraries: the exact time-rescale
# ----------------------------------------------------------------------
def _scale_arc(arc: TimingArc, s: float) -> TimingArc:
    return dataclasses.replace(
        arc,
        delay=QuadPoly1(arc.delay.a2 / s, arc.delay.a1, arc.delay.a0 * s),
        trans=QuadPoly1(arc.trans.a2 / s, arc.trans.a1, arc.trans.a0 * s),
        t_lo=arc.t_lo * s,
        t_hi=arc.t_hi * s,
    )


def _scale_simultaneous(
    data: SimultaneousTiming, s: float
) -> SimultaneousTiming:
    third = s ** (1.0 / 3.0)
    two_thirds = third * third

    def surface(f: CubeRootSurface) -> CubeRootSurface:
        return CubeRootSurface(
            f.k_xy * third, f.k_x * two_thirds, f.k_y * two_thirds, f.k_c * s
        )

    def quad(f: QuadForm2) -> QuadForm2:
        return QuadForm2(
            f.k0 / s, f.k1 / s, f.k2 / s, f.k3, f.k4, f.k5 * s
        )

    return dataclasses.replace(
        data,
        d0=surface(data.d0),
        s_pos=quad(data.s_pos),
        s_neg=quad(data.s_neg),
        t_vertex=surface(data.t_vertex),
        t_vertex_skew=LinForm2(
            data.t_vertex_skew.c0 * s,
            data.t_vertex_skew.c1,
            data.t_vertex_skew.c2,
        ),
    )


def _scale_cell(cell: CellTiming, s: float) -> CellTiming:
    return dataclasses.replace(
        cell,
        arcs={key: _scale_arc(arc, s) for key, arc in cell.arcs.items()},
        ctrl=(
            _scale_simultaneous(cell.ctrl, s)
            if cell.ctrl is not None
            else None
        ),
        nonctrl=(
            _scale_simultaneous(cell.nonctrl, s)
            if cell.nonctrl is not None
            else None
        ),
        load_delay_slope={
            k: v * s for k, v in cell.load_delay_slope.items()
        },
        load_trans_slope={
            k: v * s for k, v in cell.load_trans_slope.items()
        },
    )


def scaled_library(
    library: CellLibrary,
    corner: Corner,
    base: Technology = GENERIC_05UM,
) -> CellLibrary:
    """Derive a corner library by the exact time-rescale ``D' = s·D(·/s)``.

    Every characterized quantity is a fitted map from transition times
    to times, so uniformly rescaling the time axis by the corner's
    :meth:`Corner.delay_scale` is expressible *exactly* in the
    characterized form: quadratics get ``(a2/s, a1, a0·s)``, cube-root
    surfaces ``(k·s^(1/3), ·s^(2/3), ·s^(2/3), ·s)``, arc validity
    ranges and load slopes scale by ``s``, while the dimensionless
    pair/multi scaling factors and capacitances are untouched.  Scale
    factors cancel in every delay *ratio*, which is what makes this a
    faithful first-order corner model — the paper's break-point
    *structure* survives, only its time scale moves (re-characterize
    with :func:`characterize_corners` when the structure itself must
    shift per corner).
    """
    s = corner.delay_scale(base)
    meta = dict(library.meta)
    meta["corner"] = corner.to_dict()
    meta["corner_delay_scale"] = s
    return CellLibrary(
        tech_name=f"{library.tech_name}@{corner.name}",
        vdd=corner.vdd,
        cells={
            name: _scale_cell(cell, s)
            for name, cell in library.cells.items()
        },
        meta=meta,
    )


# ----------------------------------------------------------------------
# The multi-corner library artifact (format_version = 3)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CornerLibrary:
    """Per-corner characterized libraries under one persistent artifact.

    ``corners`` and ``libraries`` are parallel dicts keyed by corner
    name; insertion order is the canonical corner order everywhere
    (batched columns, results, serialization).
    """

    corners: Dict[str, Corner]
    libraries: Dict[str, CellLibrary]
    default_corner: str = DEFAULT_CORNER_NAME

    def __post_init__(self) -> None:
        if not self.corners:
            raise ValueError("a corner library needs at least one corner")
        if set(self.corners) != set(self.libraries):
            raise ValueError(
                f"corner/library name mismatch: {sorted(self.corners)} "
                f"vs {sorted(self.libraries)}"
            )
        if self.default_corner not in self.corners:
            raise ValueError(
                f"default corner {self.default_corner!r} not in "
                f"{sorted(self.corners)}"
            )

    @property
    def names(self) -> List[str]:
        return list(self.corners)

    def corner(self, name: str) -> Corner:
        return self.corners[name]

    def library(self, name: str) -> CellLibrary:
        return self.libraries[name]

    def ordered(
        self, names: Optional[Sequence[str]] = None
    ) -> Tuple[List[Corner], List[CellLibrary]]:
        """``(corners, libraries)`` in a batched pass's column order."""
        if names is None:
            names = self.names
        missing = [n for n in names if n not in self.corners]
        if missing:
            raise KeyError(
                f"corners {missing} not in library ({self.names})"
            )
        return (
            [self.corners[n] for n in names],
            [self.libraries[n] for n in names],
        )

    @classmethod
    def derived(
        cls,
        library: CellLibrary,
        corners: Iterable[Corner],
        base: Technology = GENERIC_05UM,
        default_corner: Optional[str] = None,
    ) -> "CornerLibrary":
        """Analytic corner set from one characterized library.

        Each corner's library is :func:`scaled_library` of the typical
        one; a corner with unit :meth:`Corner.delay_scale` reproduces
        the input coefficients bitwise.
        """
        corners = list(corners)
        if default_corner is None:
            default_corner = corners[0].name
        return cls(
            corners={c.name: c for c in corners},
            libraries={
                c.name: scaled_library(library, c, base) for c in corners
            },
            default_corner=default_corner,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "format_version": CORNER_FORMAT_VERSION,
            "default_corner": self.default_corner,
            "corners": {
                name: {
                    "corner": self.corners[name].to_dict(),
                    "library": self.libraries[name].to_dict(),
                }
                for name in self.corners
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CornerLibrary":
        if not isinstance(payload, dict) or payload.get("format") not in (
            FORMAT_NAME,
            "repro-cell-library-v1",
        ):
            raise LibraryFormatError(
                "not a repro cell-library JSON document"
            )
        version = payload.get("format_version")
        if version == FORMAT_VERSION or (
            version is None and payload["format"] == "repro-cell-library-v1"
        ):
            # Backward compatibility: a plain single-corner library is
            # the typical corner of a one-corner set.
            library = CellLibrary.from_dict(payload)
            name = DEFAULT_CORNER_NAME
            return cls(
                corners={name: Corner(name, vdd=library.vdd)},
                libraries={name: library},
                default_corner=name,
            )
        if version != CORNER_FORMAT_VERSION:
            raise LibraryFormatError(
                f"library file is from an incompatible version "
                f"({version}, this build reads {FORMAT_VERSION} and "
                f"{CORNER_FORMAT_VERSION}) — re-run characterization"
            )
        raw_corners = payload.get("corners")
        if not isinstance(raw_corners, dict) or not raw_corners:
            raise LibraryFormatError(
                "malformed multi-corner library (missing or empty "
                "'corners' object) — re-run characterization"
            )
        corners: Dict[str, Corner] = {}
        libraries: Dict[str, CellLibrary] = {}
        for name, entry in raw_corners.items():
            if not isinstance(entry, dict) or not (
                isinstance(entry.get("corner"), dict)
                and isinstance(entry.get("library"), dict)
            ):
                raise LibraryFormatError(
                    f"malformed corner entry {name!r} (need 'corner' "
                    f"and 'library' objects) — re-run characterization"
                )
            corner = Corner.from_dict(entry["corner"])
            if corner.name != name:
                raise LibraryFormatError(
                    f"corner entry {name!r} names itself "
                    f"{corner.name!r} — re-run characterization"
                )
            corners[name] = corner
            libraries[name] = CellLibrary.from_dict(entry["library"])
        cell_sets = {name: sorted(lib.cells) for name, lib in libraries.items()}
        first = next(iter(cell_sets.values()))
        if any(cells != first for cells in cell_sets.values()):
            raise LibraryFormatError(
                f"mixed-corner library: corners disagree on the cell "
                f"set ({cell_sets}) — re-run characterization"
            )
        default = payload.get("default_corner", next(iter(corners)))
        if default not in corners:
            raise LibraryFormatError(
                f"default corner {default!r} not among {sorted(corners)} "
                f"— re-run characterization"
            )
        return cls(
            corners=corners, libraries=libraries, default_corner=default
        )

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path) -> "CornerLibrary":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Multi-corner characterization (the per-corner one-time effort)
# ----------------------------------------------------------------------
def characterize_corners(
    corners: Iterable[Corner],
    tech: Technology = GENERIC_05UM,
    cells: Iterable[tuple] = DEFAULT_CELLS,
    config: Optional[CharacterizationConfig] = None,
    verbose: bool = False,
    *,
    jobs: int = 1,
    cache: Optional[SweepCache] = None,
    force: bool = False,
) -> CornerLibrary:
    """Re-run the transistor-level characterization at every corner.

    Each corner re-fits the full K-coefficient set against its own
    :meth:`Corner.technology` device parameters, reusing the parallel
    sweep runner and the content-addressed sweep cache — cache keys
    include the technology snapshot, so per-corner sweeps never
    collide and a re-run at the same corner is free.
    """
    corners = list(corners)
    if not corners:
        raise ValueError("need at least one corner")
    obs = get_registry()
    libraries: Dict[str, CellLibrary] = {}
    ordered: Dict[str, Corner] = {}
    with obs.timer("pvt.characterize_s"):
        for corner in corners:
            if corner.name in ordered:
                raise ValueError(f"duplicate corner name {corner.name!r}")
            library = characterize_library(
                tech=corner.technology(tech),
                cells=cells,
                config=config,
                verbose=verbose,
                jobs=jobs,
                cache=cache,
                force=force,
            )
            library.meta["corner"] = corner.to_dict()
            ordered[corner.name] = corner
            libraries[corner.name] = library
            obs.counter("pvt.corners_characterized").inc()
    return CornerLibrary(
        corners=ordered,
        libraries=libraries,
        default_corner=corners[0].name,
    )


# ----------------------------------------------------------------------
# Corner-batched STA
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CornerSetResult:
    """Per-corner and merged results of one multi-corner pass.

    ``results[i]`` is corner ``corners[i]``'s full :class:`StaResult`
    (derates applied); ``merged`` is the conservative envelope — per
    line and direction, min over corners of the early bounds and max of
    the late bounds — so setup checks read ``merged``'s latest arrivals
    and hold checks its earliest.  From :meth:`CornerAnalyzer.analyze`
    every one of them is a :class:`~repro.sta.compile.ColumnTimings`
    view: the per-corner results of their columns of the batched pass,
    ``merged`` of that pass's :meth:`~repro.sta.compile.CompiledWindows
    .envelope`.  Windows are built only for the lines a caller reads.
    """

    corners: List[Corner]
    results: List[StaResult]
    merged: StaResult

    def result(self, name: str) -> StaResult:
        for corner, result in zip(self.corners, self.results):
            if corner.name == name:
                return result
        raise KeyError(
            f"no corner {name!r} in {[c.name for c in self.corners]}"
        )

    def setup_arrival(self) -> float:
        """Worst (latest) PO arrival across corners — the setup bound."""
        return self.merged.output_max_arrival()

    def hold_arrival(self) -> float:
        """Best (earliest) PO arrival across corners — the hold bound."""
        return self.merged.output_min_arrival()


class CornerAnalyzer:
    """Corner-batched STA over a fixed circuit and corner set.

    All corners compile into one corner-batched
    :class:`LevelCompiledAnalyzer` whose trailing batch axis is the
    corner axis, so an N-corner full pass is one sweep.

    Args:
        circuit: Gate-level circuit under analysis.
        corners: The corner set, in column order.
        libraries: One characterized library per corner, aligned with
            ``corners`` (see :meth:`CornerLibrary.ordered`).
        model: Delay model (defaults to the proposed V-shape model).
        config: STA boundary conditions.
    """

    def __init__(
        self,
        circuit: Circuit,
        corners: Sequence[Corner],
        libraries: Sequence[CellLibrary],
        model: Optional[DelayModel] = None,
        config: Optional[StaConfig] = None,
    ) -> None:
        if len(corners) != len(libraries):
            raise ValueError(
                f"{len(corners)} corners vs {len(libraries)} libraries"
            )
        if not corners:
            raise ValueError("need at least one corner")
        self.circuit = circuit
        self.corners = list(corners)
        self.libraries = list(libraries)
        self.model = model
        self.config = config or StaConfig()
        self._obs = get_registry()
        self._level = LevelCompiledAnalyzer(
            circuit, self.libraries, model, self.config
        )

    @classmethod
    def from_library(
        cls,
        circuit: Circuit,
        library: CornerLibrary,
        names: Optional[Sequence[str]] = None,
        model: Optional[DelayModel] = None,
        config: Optional[StaConfig] = None,
    ) -> "CornerAnalyzer":
        corners, libraries = library.ordered(names)
        return cls(circuit, corners, libraries, model, config)

    @property
    def n_corners(self) -> int:
        return len(self.corners)

    def analyze(self) -> CornerSetResult:
        """One multi-corner pass: per-corner results plus the envelope.

        The envelope is a column reduction of the batched pass
        (:meth:`CompiledWindows.envelope`), viewed like the per-corner
        columns; no per-line merge runs.
        """
        derates = (
            np.array([c.derate_early for c in self.corners]),
            np.array([c.derate_late for c in self.corners]),
        )
        with self._obs.timer("pvt.pass_s"):
            results = self._level.analyze_corners(derates=derates)
        self._obs.counter("pvt.corners_analyzed").inc(self.n_corners)
        merged = ColumnTimings(self._level.last_windows.envelope(), 0)
        return CornerSetResult(
            corners=list(self.corners),
            results=results,
            merged=StaResult(self.circuit, merged),
        )

    def analyze_per_gate(self) -> CornerSetResult:
        """Every corner through the scalar reference walk (reference only).

        One :meth:`TimingAnalyzer.analyze_per_gate` per corner library,
        with that corner's derates, merged line by line with
        :func:`~repro.sta.windows.merge_line_timings`.  Bit-identical to
        :meth:`analyze`, envelope included; the parity tests and the
        ``corners`` fuzz oracle diff the batched pass against it.
        """
        results = [
            TimingAnalyzer(
                self.circuit, library, self.model, self.config
            ).analyze_per_gate(derates=corner.derates)
            for corner, library in zip(self.corners, self.libraries)
        ]
        merged = {
            line: merge_line_timings([r.timings[line] for r in results])
            for line in results[0].timings
        }
        return CornerSetResult(
            corners=list(self.corners),
            results=results,
            merged=StaResult(self.circuit, merged),
        )


def analyze_corners(
    circuit: Circuit,
    corners: Sequence[Corner],
    libraries: Sequence[CellLibrary],
    model: Optional[DelayModel] = None,
    config: Optional[StaConfig] = None,
) -> CornerSetResult:
    """One-shot :class:`CornerAnalyzer` convenience wrapper."""
    return CornerAnalyzer(
        circuit, corners, libraries, model, config
    ).analyze()


# Re-exported here so corner-aware callers have one import surface.
__all__ = [
    "CORNER_FORMAT_VERSION",
    "Corner",
    "CornerAnalyzer",
    "CornerLibrary",
    "CornerSetResult",
    "DEFAULT_CORNER_NAME",
    "STANDARD_CORNERS",
    "analyze_corners",
    "characterize_corners",
    "parse_corner",
    "parse_corner_list",
    "scaled_library",
]
