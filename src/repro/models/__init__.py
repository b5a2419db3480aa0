"""Gate delay models: the proposed V-shape model and its baselines.

* :class:`VShapeModel` — the paper's proposed simultaneous-switching model;
* :class:`PinToPinModel` — the SDF-style baseline used by conventional STA;
* :class:`JunModel` — inverter-collapsing baseline of ref [6];
* :class:`NabaviModel` — equivalent-inverter baseline of ref [18];
* :class:`LookupModel` — table-lookup baseline in the spirit of ref [17].
"""

from .base import DelayModel, InputEvent, OutputEvent, ctrl_arc_delay, ctrl_arc_trans
from .jun import JunModel
from .lookup import (
    LookupModel,
    LookupTable,
    ModelCoverageError,
    build_lookup_table,
)
from .nabavi import NabaviModel
from .nonctrl import NonCtrlAwareModel
from .pin2pin import PinToPinModel
from .vshape import TransVShape, VShape, VShapeModel

__all__ = [
    "DelayModel",
    "InputEvent",
    "JunModel",
    "LookupModel",
    "LookupTable",
    "ModelCoverageError",
    "NabaviModel",
    "NonCtrlAwareModel",
    "OutputEvent",
    "PinToPinModel",
    "TransVShape",
    "VShape",
    "VShapeModel",
    "build_lookup_table",
    "ctrl_arc_delay",
    "ctrl_arc_trans",
]
