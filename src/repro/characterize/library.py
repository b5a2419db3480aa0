"""Characterized-library containers with JSON persistence.

The paper treats characterization as a one-time effort per cell library
(Section 3.7).  :class:`CellLibrary` is the persistent artifact of that
effort: per-cell timing arcs (the pin-to-pin DR / t fits), the
simultaneous-switching data (D0, S, transition-time vertex), pair and
multi-input scaling factors, and load-sensitivity slopes.

All times are SI seconds, capacitances farads.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .formulas import CubeRootSurface, LinForm2, QuadForm2, QuadPoly1

#: Separator between a base cell name and a drive-strength suffix in a
#: sized-variant name (``NAND2@X2.0``); see :func:`parse_sized_name`.
SIZE_SEPARATOR = "@X"

#: Name of the library shipped with the package (built by
#: ``scripts/build_library.py`` against the generic 0.5 um technology).
DEFAULT_LIBRARY = "lib_generic05.json"

#: The packaged library, once loaded (see CellLibrary.load_default).
_DEFAULT: Optional["CellLibrary"] = None
_DEFAULT_LOCK = threading.Lock()

#: JSON ``format`` marker of a characterized-library document.
FORMAT_NAME = "repro-cell-library"

#: Schema version of the on-disk library JSON.  Bump whenever the
#: serialized shape changes; loading any other version fails with a
#: clear "re-run characterization" error, and the characterization
#: sweep cache (:mod:`repro.characterize.cache`) keys on it so stale
#: cached sweeps are never replayed into a new format.
FORMAT_VERSION = 2


class LibraryFormatError(ValueError):
    """A library JSON document that cannot be loaded by this version."""


def arc_key(pin: int, in_rising: bool, out_rising: bool) -> str:
    """Canonical dictionary key of a timing arc."""
    return f"{pin}:{'R' if in_rising else 'F'}{'R' if out_rising else 'F'}"


def pair_key(p: int, q: int) -> str:
    """Canonical dictionary key of an unordered input-position pair."""
    lo, hi = sorted((p, q))
    return f"{lo}-{hi}"


@dataclasses.dataclass
class TimingArc:
    """One pin-to-pin timing arc: delay and output transition time vs T.

    Args:
        pin: Input position (0 = closest to the output, paper Fig. 3).
        in_rising: Direction of the input transition.
        out_rising: Direction of the resulting output transition.
        delay: DR-form quadratic, seconds vs seconds.
        trans: Output transition-time quadratic, seconds vs seconds.
        t_lo: Smallest characterized input transition time.
        t_hi: Largest characterized input transition time.
    """

    pin: int
    in_rising: bool
    out_rising: bool
    delay: QuadPoly1
    trans: QuadPoly1
    t_lo: float
    t_hi: float

    @property
    def key(self) -> str:
        return arc_key(self.pin, self.in_rising, self.out_rising)

    def clamp(self, t: float) -> float:
        """Clamp a transition time into the characterized range."""
        return min(max(t, self.t_lo), self.t_hi)


@dataclasses.dataclass
class SimultaneousTiming:
    """Characterized simultaneous to-controlling switching data.

    The base pair is input positions (0, 1); skew is defined as
    ``delta = A_q - A_p`` with p=0, q=1 (matching the paper's
    ``delta_{X,Y} = A_Y - A_X``).

    Args:
        out_rising: Direction of the to-controlling output response.
        d0: Zero-skew delay surface D0(T_p, T_q) — the paper's D0R.
        s_pos: Saturation skew SR(T_p, T_q) for positive skew (q lags).
        s_neg: Saturation skew SYR(T_p, T_q) for negative skew (p lags),
            stored as a positive magnitude.
        t_vertex: Minimum output transition time over skew, as a surface
            of (T_p, T_q).
        t_vertex_skew: Skew SK_t,min at which that minimum occurs.
        pair_scale: D0 scaling factor per input pair relative to (0, 1).
        multi_scale: Zero-skew delay ratio for k>2 simultaneous inputs,
            keyed by str(k), relative to the two-input D0.
        trans_multi_scale: Same ratio for the output transition time.
    """

    out_rising: bool
    d0: CubeRootSurface
    s_pos: QuadForm2
    s_neg: QuadForm2
    t_vertex: CubeRootSurface
    t_vertex_skew: LinForm2
    pair_scale: Dict[str, float]
    multi_scale: Dict[str, float]
    trans_multi_scale: Dict[str, float]


def multi_input_ratio(scales: Dict[str, float], k: int) -> float:
    """The k-input ratio of a ``multi_scale`` / ``trans_multi_scale``
    table, with ``k`` clamped to the characterized input counts."""
    key = str(k)
    if key in scales:
        return scales[key]
    known = sorted(int(x) for x in scales)
    return scales[str(min(known[-1], max(known[0], k)))]


@dataclasses.dataclass
class CellTiming:
    """Complete characterized timing of one library cell."""

    name: str
    kind: str
    n_inputs: int
    controlling_value: Optional[int]
    inverting: Optional[bool]
    input_caps: List[float]
    ref_load: float
    arcs: Dict[str, TimingArc]
    ctrl: Optional[SimultaneousTiming]
    load_delay_slope: Dict[str, float]
    load_trans_slope: Dict[str, float]
    #: Optional extension data: simultaneous to-NON-controlling switching
    #: (the Λ-shaped slow-down; see repro.models.nonctrl).  Reuses the
    #: SimultaneousTiming container with d0 reinterpreted as the peak P0.
    nonctrl: Optional[SimultaneousTiming] = None

    def arc(self, pin: int, in_rising: bool, out_rising: bool) -> TimingArc:
        """Look up a timing arc; raises KeyError when the arc is illegal."""
        return self.arcs[arc_key(pin, in_rising, out_rising)]

    def has_arc(self, pin: int, in_rising: bool, out_rising: bool) -> bool:
        return arc_key(pin, in_rising, out_rising) in self.arcs

    @property
    def ctrl_input_rising(self) -> Optional[bool]:
        """Direction of a to-controlling *input* transition (None if n/a)."""
        if self.controlling_value is None:
            return None
        return self.controlling_value == 1

    def ctrl_arc(self, pin: int) -> TimingArc:
        """The to-controlling pin-to-pin arc of ``pin``."""
        if self.ctrl is None:
            raise ValueError(f"cell {self.name} has no controlling value")
        in_rising = self.controlling_value == 1
        return self.arc(pin, in_rising, self.ctrl.out_rising)

    def load_adjusted_delay(self, out_rising: bool, load: float) -> float:
        """Additive delay correction for a non-reference load, seconds."""
        slope = self.load_delay_slope["R" if out_rising else "F"]
        return slope * (load - self.ref_load)

    def load_adjusted_trans(self, out_rising: bool, load: float) -> float:
        """Additive transition-time correction for a non-reference load."""
        slope = self.load_trans_slope["R" if out_rising else "F"]
        return slope * (load - self.ref_load)


@dataclasses.dataclass
class CellLibrary:
    """A set of characterized cells plus the technology snapshot."""

    tech_name: str
    vdd: float
    cells: Dict[str, CellTiming]
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        # Materialized sized variants, keyed by full variant name.  Kept
        # off ``cells`` so saved libraries never persist derived data.
        self._sized_cache: Dict[str, CellTiming] = {}

    def cell(self, name: str) -> CellTiming:
        """Look up a cell, materializing sized variants on demand.

        ``name`` may be a characterized cell (``NAND2``) or a sized
        variant (``NAND2@X2.0``, as produced by
        :meth:`repro.circuit.Gate.cell_name`); variants are derived
        deterministically from the characterized base cell via
        :func:`sized_cell` and cached.
        """
        try:
            return self.cells[name]
        except KeyError:
            pass
        cached = self._sized_cache.get(name)
        if cached is not None:
            return cached
        parsed = parse_sized_name(name)
        if parsed is not None:
            base_name, size = parsed
            base = self.cells.get(base_name)
            if base is not None:
                variant = sized_cell(base, size, name=name)
                self._sized_cache[name] = variant
                return variant
        raise KeyError(
            f"cell {name!r} not in library ({sorted(self.cells)})"
        ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "tech_name": self.tech_name,
            "vdd": self.vdd,
            "meta": self.meta,
            "cells": {
                name: _cell_to_dict(cell) for name, cell in self.cells.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CellLibrary":
        if not isinstance(payload, dict) or payload.get("format") not in (
            FORMAT_NAME,
            "repro-cell-library-v1",  # pre-versioning documents
        ):
            raise LibraryFormatError(
                "not a repro cell-library JSON document"
            )
        version = payload.get("format_version")
        if version is None and payload["format"] == "repro-cell-library-v1":
            version = 1
        if version != FORMAT_VERSION:
            if version == 3:
                raise LibraryFormatError(
                    "this is a multi-corner (format_version 3) library "
                    "— load it with repro.pvt.CornerLibrary, or re-run "
                    "characterization for a single-corner file"
                )
            raise LibraryFormatError(
                f"library file is from an incompatible version "
                f"({version}, this build reads {FORMAT_VERSION}) — "
                f"re-run characterization (repro-sta characterize, or "
                f"scripts/build_library.py)"
            )
        try:
            cells = {
                name: _cell_from_dict(raw)
                for name, raw in payload["cells"].items()
            }
            return cls(
                tech_name=payload["tech_name"],
                vdd=payload["vdd"],
                cells=cells,
                meta=payload.get("meta", {}),
            )
        except (KeyError, TypeError) as exc:
            raise LibraryFormatError(
                f"malformed library file (missing or invalid field: {exc}) "
                f"— re-run characterization"
            ) from exc

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path) -> "CellLibrary":
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def load_default(cls) -> "CellLibrary":
        """The characterized library shipped inside the package.

        Loaded once per process: every caller gets the same object, so
        analyzers built from it in different places share their
        compiles (see :class:`repro.sta.compile.CompileRegistry`).
        Treat it as read-only; copy it (``copy.deepcopy``) to edit.
        """
        global _DEFAULT
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                here = (
                    Path(__file__).resolve().parent.parent / "data"
                    / DEFAULT_LIBRARY
                )
                if not here.exists():
                    raise FileNotFoundError(
                        f"packaged library {here} missing; run "
                        "scripts/build_library.py"
                    )
                _DEFAULT = cls.load(here)
            return _DEFAULT


# ----------------------------------------------------------------------
# Sized variants
# ----------------------------------------------------------------------
def parse_sized_name(name: str) -> Optional[Tuple[str, float]]:
    """Split ``"NAND2@X2.0"`` into ``("NAND2", 2.0)``.

    Returns None for names without a well-formed, positive, finite size
    suffix (including plain characterized-cell names).
    """
    base, sep, size_txt = name.partition(SIZE_SEPARATOR)
    if not sep or not base:
        return None
    try:
        size = float(size_txt)
    except ValueError:
        return None
    if not math.isfinite(size) or size <= 0.0:
        return None
    return base, size


def sized_cell(base: CellTiming, size: float, name: Optional[str] = None) -> CellTiming:
    """Derive a drive-strength variant of a characterized cell.

    A size-``S`` gate is modeled as ``S`` unit cells in parallel: every
    delay/transition fit is the unit cell's evaluated at load ``C/S``.
    That is expressible exactly in the characterized form — the T-domain
    polynomials and surfaces are untouched while the reference load
    scales by ``S`` and the load-sensitivity slopes by ``1/S`` (so
    ``poly(T) + (slope/S)·(C − S·ref_load) = poly(T) + slope·(C/S −
    ref_load)``).  Input pin capacitances scale by ``S``, which is how
    upsizing a gate loads — and slows — its drivers.

    The derivation is deterministic, so every engine materializing the
    same variant computes bitwise-identical windows.
    """
    if not math.isfinite(size) or size <= 0.0:
        raise ValueError(f"cell size must be finite and > 0, got {size!r}")
    if name is None:
        name = f"{base.name}{SIZE_SEPARATOR}{size!r}"
    return dataclasses.replace(
        base,
        name=name,
        input_caps=[c * size for c in base.input_caps],
        ref_load=base.ref_load * size,
        load_delay_slope={k: v / size for k, v in base.load_delay_slope.items()},
        load_trans_slope={k: v / size for k, v in base.load_trans_slope.items()},
    )


# ----------------------------------------------------------------------
# Serialization helpers
# ----------------------------------------------------------------------
def _poly_to_list(poly: QuadPoly1) -> list:
    return [poly.a2, poly.a1, poly.a0]


def _poly_from_list(raw: list) -> QuadPoly1:
    return QuadPoly1(*raw)


def _arc_to_dict(arc: TimingArc) -> dict:
    return {
        "pin": arc.pin,
        "in_rising": arc.in_rising,
        "out_rising": arc.out_rising,
        "delay": _poly_to_list(arc.delay),
        "trans": _poly_to_list(arc.trans),
        "t_lo": arc.t_lo,
        "t_hi": arc.t_hi,
    }


def _arc_from_dict(raw: dict) -> TimingArc:
    return TimingArc(
        pin=raw["pin"],
        in_rising=raw["in_rising"],
        out_rising=raw["out_rising"],
        delay=_poly_from_list(raw["delay"]),
        trans=_poly_from_list(raw["trans"]),
        t_lo=raw["t_lo"],
        t_hi=raw["t_hi"],
    )


def _ctrl_to_dict(ctrl: SimultaneousTiming) -> dict:
    return {
        "out_rising": ctrl.out_rising,
        "d0": dataclasses.astuple(ctrl.d0),
        "s_pos": dataclasses.astuple(ctrl.s_pos),
        "s_neg": dataclasses.astuple(ctrl.s_neg),
        "t_vertex": dataclasses.astuple(ctrl.t_vertex),
        "t_vertex_skew": dataclasses.astuple(ctrl.t_vertex_skew),
        "pair_scale": ctrl.pair_scale,
        "multi_scale": ctrl.multi_scale,
        "trans_multi_scale": ctrl.trans_multi_scale,
    }


def _ctrl_from_dict(raw: dict) -> SimultaneousTiming:
    return SimultaneousTiming(
        out_rising=raw["out_rising"],
        d0=CubeRootSurface(*raw["d0"]),
        s_pos=QuadForm2(*raw["s_pos"]),
        s_neg=QuadForm2(*raw["s_neg"]),
        t_vertex=CubeRootSurface(*raw["t_vertex"]),
        t_vertex_skew=LinForm2(*raw["t_vertex_skew"]),
        pair_scale=dict(raw["pair_scale"]),
        multi_scale=dict(raw["multi_scale"]),
        trans_multi_scale=dict(raw["trans_multi_scale"]),
    )


def _cell_to_dict(cell: CellTiming) -> dict:
    return {
        "name": cell.name,
        "kind": cell.kind,
        "n_inputs": cell.n_inputs,
        "controlling_value": cell.controlling_value,
        "inverting": cell.inverting,
        "input_caps": cell.input_caps,
        "ref_load": cell.ref_load,
        "arcs": {key: _arc_to_dict(arc) for key, arc in cell.arcs.items()},
        "ctrl": _ctrl_to_dict(cell.ctrl) if cell.ctrl is not None else None,
        "load_delay_slope": cell.load_delay_slope,
        "load_trans_slope": cell.load_trans_slope,
        "nonctrl": (
            _ctrl_to_dict(cell.nonctrl) if cell.nonctrl is not None else None
        ),
    }


def _cell_from_dict(raw: dict) -> CellTiming:
    """One cell of a library document.

    Raises:
        LibraryFormatError: If the cell has Λ-peak data (``nonctrl``)
            without to-controlling data, or its Λ-peak does not respond
            in the direction opposite the to-controlling one: the peak's
            tails are the cell's to-non-controlling arcs.
    """
    ctrl, nonctrl = raw["ctrl"], raw.get("nonctrl")
    if nonctrl is not None and (
        ctrl is None or nonctrl["out_rising"] == ctrl["out_rising"]
    ):
        raise LibraryFormatError(
            f"cell {raw['name']!r}: its nonctrl (Λ-peak) data needs ctrl "
            f"data responding in the opposite output direction — "
            f"re-run characterization"
        )
    return CellTiming(
        name=raw["name"],
        kind=raw["kind"],
        n_inputs=raw["n_inputs"],
        controlling_value=raw["controlling_value"],
        inverting=raw["inverting"],
        input_caps=list(raw["input_caps"]),
        ref_load=raw["ref_load"],
        arcs={key: _arc_from_dict(a) for key, a in raw["arcs"].items()},
        ctrl=_ctrl_from_dict(ctrl) if ctrl is not None else None,
        load_delay_slope=dict(raw["load_delay_slope"]),
        load_trans_slope=dict(raw["load_trans_slope"]),
        nonctrl=_ctrl_from_dict(nonctrl) if nonctrl is not None else None,
    )
