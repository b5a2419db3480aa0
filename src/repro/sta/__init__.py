"""Static timing analysis, corner identification and timing simulation."""

from .analysis import (
    StaConfig,
    StaResult,
    TimingAnalyzer,
    Violation,
)
from .compile import (
    CompiledCircuit,
    CompiledWindows,
    LevelCompiledAnalyzer,
)
from .corners import (
    CtrlInput,
    arc_fanin_window,
    ctrl_response_window,
    nonctrl_response_window,
    pin_delay_bounds,
    pin_trans_bounds,
)
from .incremental import (
    IncrementalAnalyzer,
    TrialEdit,
    TrialResult,
    edits_since,
)
from .report import PathStage, TimingPath, TimingReporter
from .simulate import PiStimulus, SimulationResult, TimingSimulator
from .windows import (
    DEFINITE,
    DirWindow,
    IMPOSSIBLE,
    LineRequired,
    LineTiming,
    POTENTIAL,
    RequiredWindow,
)

__all__ = [
    "CompiledCircuit",
    "CompiledWindows",
    "CtrlInput",
    "DEFINITE",
    "DirWindow",
    "IMPOSSIBLE",
    "IncrementalAnalyzer",
    "LevelCompiledAnalyzer",
    "LineRequired",
    "LineTiming",
    "POTENTIAL",
    "PathStage",
    "PiStimulus",
    "RequiredWindow",
    "SimulationResult",
    "StaConfig",
    "StaResult",
    "TimingAnalyzer",
    "TimingPath",
    "TimingReporter",
    "TimingSimulator",
    "TrialEdit",
    "TrialResult",
    "Violation",
    "arc_fanin_window",
    "edits_since",
    "ctrl_response_window",
    "nonctrl_response_window",
    "pin_delay_bounds",
    "pin_trans_bounds",
]
