"""Timing windows: the paper's min-max range representation (Section 4.1).

Each line carries, per transition direction, the earliest/latest arrival
times (A_S / A_L), the shortest/longest transition times (T_S / T_L) and —
for ITR — the transition *state* S: 1 when the transition definitely
occurs, 0 when it potentially occurs, and -1 when it definitely does not
(in which case the window fields are meaningless, exactly as the paper
specifies).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

#: Transition states (paper Section 5.1).
DEFINITE = 1
POTENTIAL = 0
IMPOSSIBLE = -1

#: Default tolerance of the window containment/overlap predicates.  The
#: vectorized overlap test in :mod:`repro.sta.compile` must use the same
#: value to stay bit-identical with :meth:`DirWindow.overlaps_arrivals`.
OVERLAP_TOL = 1e-13


@dataclasses.dataclass
class DirWindow:
    """Min-max timing of one transition direction on one line.

    Attributes:
        a_s / a_l: Earliest / latest arrival time, seconds.
        t_s / t_l: Shortest / longest transition time, seconds.
        state: DEFINITE / POTENTIAL / IMPOSSIBLE.
    """

    a_s: float = 0.0
    a_l: float = 0.0
    t_s: float = 0.0
    t_l: float = 0.0
    state: int = POTENTIAL

    def __post_init__(self) -> None:
        if self.state not in (DEFINITE, POTENTIAL, IMPOSSIBLE):
            raise ValueError(f"invalid state {self.state}")
        if self.state != IMPOSSIBLE:
            if self.a_l < self.a_s - 1e-18:
                raise ValueError("a_l must be >= a_s")
            if self.t_l < self.t_s - 1e-18:
                raise ValueError("t_l must be >= t_s")

    @property
    def is_active(self) -> bool:
        """Whether this transition can occur at all."""
        return self.state != IMPOSSIBLE

    @property
    def is_definite(self) -> bool:
        return self.state == DEFINITE

    @classmethod
    def impossible(cls) -> "DirWindow":
        """The window of a transition that cannot occur."""
        return cls(math.nan, math.nan, math.nan, math.nan, IMPOSSIBLE)

    @classmethod
    def point(
        cls, arrival: float, trans: float, state: int = DEFINITE
    ) -> "DirWindow":
        """A degenerate window pinned to an exact event."""
        return cls(arrival, arrival, trans, trans, state)

    def contains_event(
        self, arrival: float, trans: float, tol: float = OVERLAP_TOL
    ) -> bool:
        """Whether a concrete timed event lies inside this window."""
        if not self.is_active:
            return False
        return (
            self.a_s - tol <= arrival <= self.a_l + tol
            and self.t_s - tol <= trans <= self.t_l + tol
        )

    def contains_window(
        self, other: "DirWindow", tol: float = OVERLAP_TOL
    ) -> bool:
        """Whether ``other`` is entirely inside this window."""
        if not other.is_active:
            return True
        if not self.is_active:
            return False
        return (
            self.a_s - tol <= other.a_s
            and other.a_l <= self.a_l + tol
            and self.t_s - tol <= other.t_s
            and other.t_l <= self.t_l + tol
        )

    def arrival_width(self) -> float:
        """Width of the arrival range (0 for impossible windows)."""
        if not self.is_active:
            return 0.0
        return self.a_l - self.a_s

    def overlaps_arrivals(
        self, other: "DirWindow", tol: float = OVERLAP_TOL
    ) -> bool:
        """Whether the two arrival ranges intersect (both active).

        The ``a_s <= a_l + tol`` form (rather than ``a_s - tol <= a_l``)
        is load-bearing: the vectorized engines compute exactly this
        expression, and the two forms can disagree within an ulp of the
        tolerance boundary.
        """
        if not (self.is_active and other.is_active):
            return False
        return (
            self.a_s <= other.a_l + tol and other.a_s <= self.a_l + tol
        )


@dataclasses.dataclass
class LineTiming:
    """Rise and fall windows of one circuit line."""

    rise: DirWindow = dataclasses.field(default_factory=DirWindow)
    fall: DirWindow = dataclasses.field(default_factory=DirWindow)

    def window(self, rising: bool) -> DirWindow:
        return self.rise if rising else self.fall

    def set_window(self, rising: bool, window: DirWindow) -> None:
        if rising:
            self.rise = window
        else:
            self.fall = window

    def earliest_arrival(self) -> Optional[float]:
        """min A_S over the active directions (None if neither can occur)."""
        actives = [w.a_s for w in (self.rise, self.fall) if w.is_active]
        return min(actives) if actives else None

    def latest_arrival(self) -> Optional[float]:
        actives = [w.a_l for w in (self.rise, self.fall) if w.is_active]
        return max(actives) if actives else None


def windows_equal(a: DirWindow, b: DirWindow) -> bool:
    """Bitwise window equality (IMPOSSIBLE windows carry NaN fields, so
    their state alone decides)."""
    if a.state != b.state:
        return False
    if a.state == IMPOSSIBLE:
        return True
    return (
        a.a_s == b.a_s
        and a.a_l == b.a_l
        and a.t_s == b.t_s
        and a.t_l == b.t_l
    )


def timings_equal(a: LineTiming, b: LineTiming) -> bool:
    """Bitwise :func:`windows_equal` of both directions."""
    return windows_equal(a.rise, b.rise) and windows_equal(a.fall, b.fall)


def merge_dir_windows(windows: Sequence[DirWindow]) -> DirWindow:
    """Conservative envelope of per-corner windows (multi-corner merge).

    Setup analysis needs the latest possible arrival across corners,
    hold the earliest: the merged window takes min over ``a_s``/``t_s``
    and max over ``a_l``/``t_l`` of the *active* inputs, so it contains
    every per-corner window.  The merge is DEFINITE only when every
    active corner says DEFINITE — a transition a corner merely might
    produce cannot be promised by the envelope — and IMPOSSIBLE only
    when no corner can produce it at all.
    """
    active = [w for w in windows if w.is_active]
    if not active:
        return DirWindow.impossible()
    state = (
        DEFINITE if all(w.state == DEFINITE for w in active) else POTENTIAL
    )
    return DirWindow(
        a_s=min(w.a_s for w in active),
        a_l=max(w.a_l for w in active),
        t_s=min(w.t_s for w in active),
        t_l=max(w.t_l for w in active),
        state=state,
    )


def merge_line_timings(timings: Sequence[LineTiming]) -> LineTiming:
    """Per-direction :func:`merge_dir_windows` over one line's corners."""
    return LineTiming(
        rise=merge_dir_windows([t.rise for t in timings]),
        fall=merge_dir_windows([t.fall for t in timings]),
    )


@dataclasses.dataclass
class RequiredWindow:
    """Required-time range of one direction (paper Fig. 7: Q_S / Q_L)."""

    q_s: float = -math.inf
    q_l: float = math.inf

    def tighten(self, other: "RequiredWindow") -> "RequiredWindow":
        """Intersection: the most demanding of two requirements."""
        return RequiredWindow(max(self.q_s, other.q_s), min(self.q_l, other.q_l))

    def setup_slack(self, window: DirWindow) -> float:
        """Q_L - A_L: negative means a (potential) setup/late violation."""
        if not window.is_active:
            return math.inf
        return self.q_l - window.a_l

    def hold_slack(self, window: DirWindow) -> float:
        """A_S - Q_S: negative means a (potential) hold/early violation."""
        if not window.is_active:
            return math.inf
        return window.a_s - self.q_s


@dataclasses.dataclass
class LineRequired:
    """Rise and fall required-time windows of one line."""

    rise: RequiredWindow = dataclasses.field(default_factory=RequiredWindow)
    fall: RequiredWindow = dataclasses.field(default_factory=RequiredWindow)

    def window(self, rising: bool) -> RequiredWindow:
        return self.rise if rising else self.fall

    def set_window(self, rising: bool, window: RequiredWindow) -> None:
        if rising:
            self.rise = window
        else:
            self.fall = window
