"""Request/response protocol of the timing daemon.

One JSON request describes one timing query::

    {"circuit": "c432s", "method": "whatif",
     "params": {"model": "vshape",
                "edits": [{"op": "resize", "line": "G199", "value": 2.0}]},
     "timeout_s": 5.0}

``validate_request`` normalizes the payload — defaults applied, types
coerced, unknown fields rejected — so that two requests asking for the
same computation canonicalize to the same :func:`request_key` and the
server's idempotency memo can serve the second from the first.  All
failures raise :class:`ServerError` carrying a stable machine-readable
``code`` (never a traceback); the HTTP layer maps codes to statuses via
:data:`ERROR_STATUS`.

Everything here is pure data validation: no engine imports, so the
protocol can be exercised (and fuzzed) without a warm session.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Dict, List, Optional

#: Stable wire-level error codes and the HTTP status each maps to.
ERROR_STATUS: Dict[str, int] = {
    "bad_request": 400,
    "unknown_method": 404,
    "unknown_circuit": 404,
    "oversized_batch": 413,
    "overloaded": 503,
    "timeout": 504,
    "shutting_down": 503,
    "internal": 500,
}

#: Query methods the daemon answers (POST /v1/query ``method`` field).
METHODS = ("windows", "slack", "path", "mc", "whatif", "corners")

#: Corner-object keys accepted by the ``corners`` method.
CORNER_FIELDS = (
    "name", "process", "vdd", "temp_c", "derate_early", "derate_late"
)

#: Delay-model names accepted by every method's ``model`` param.
MODEL_NAMES = ("vshape", "pin2pin", "nonctrl")

#: Hard cap on Monte Carlo samples per request; one query must not be
#: able to monopolize a worker for minutes.
MAX_MC_SAMPLES = 65536

#: Default edits-per-request cap mirrored by ``ServerConfig.max_batch``.
DEFAULT_MAX_BATCH = 32


class ServerError(Exception):
    """A structured request failure; serializes to a wire error body."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_STATUS:
            code = "internal"
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def status(self) -> int:
        return ERROR_STATUS[self.code]

    def body(self) -> dict:
        return {"ok": False, "error": {"code": self.code,
                                       "message": self.message}}


@dataclasses.dataclass(frozen=True)
class Request:
    """A validated, normalized query."""

    circuit: str
    method: str
    params: dict
    timeout_s: Optional[float] = None

    @property
    def key(self) -> str:
        return request_key(self.circuit, self.method, self.params)


def request_key(circuit: str, method: str, params: dict) -> str:
    """Idempotency key: hash of the canonical normalized request.

    Like the propagation memo's quantized keys, the hash only buckets —
    but here the params are already normalized to canonical JSON, so
    equal keys mean equal requests and the memoized response can be
    returned verbatim.
    """
    blob = json.dumps(
        {"circuit": circuit, "method": method, "params": params},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


# ----------------------------------------------------------------------
# Field coercion helpers (each raises ServerError("bad_request", ...))
# ----------------------------------------------------------------------
def _bad(message: str) -> ServerError:
    return ServerError("bad_request", message)


def _as_float(name: str, value) -> float:
    """A finite number: request bodies are parsed by ``json.loads``,
    which takes ``NaN`` and ``Infinity``, and no engine input may be
    either."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{name} must be a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        value = math.inf
    if not math.isfinite(value):
        raise _bad(f"{name} must be finite, got {value!r}")
    return value


def _as_time(name: str, value) -> float:
    """A clock or period: a number, finite and > 0."""
    value = _as_float(name, value)
    if not value > 0.0:
        raise _bad(f"{name} must be finite and > 0, got {value!r}")
    return value


def _as_int(name: str, value, lo: int, hi: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{name} must be an integer, got {type(value).__name__}")
    if not lo <= value <= hi:
        raise _bad(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def _as_str(name: str, value, choices=None) -> str:
    if not isinstance(value, str):
        raise _bad(f"{name} must be a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise _bad(f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value


def _model_of(params: dict) -> str:
    return _as_str("model", params.get("model", "vshape"), MODEL_NAMES)


def _reject_unknown(params: dict, allowed) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise _bad(f"unknown param(s) {unknown}; allowed: {sorted(allowed)}")


# ----------------------------------------------------------------------
# Per-method normalizers
# ----------------------------------------------------------------------
def _norm_windows(params: dict, max_batch: int) -> dict:
    _reject_unknown(params, ("model", "lines"))
    lines = params.get("lines")
    if lines is not None:
        if not isinstance(lines, list) or not all(
            isinstance(line, str) for line in lines
        ):
            raise _bad("lines must be a list of line names")
        lines = list(lines)
    return {"model": _model_of(params), "lines": lines}


def _norm_slack(params: dict, max_batch: int) -> dict:
    _reject_unknown(params, ("model", "clock_ns", "worst"))
    clock = params.get("clock_ns")
    return {
        "model": _model_of(params),
        "clock_ns": None if clock is None else _as_time("clock_ns", clock),
        "worst": _as_int("worst", params.get("worst", 10), 1, 10_000),
    }


def _norm_path(params: dict, max_batch: int) -> dict:
    _reject_unknown(params, ("model", "kind"))
    return {
        "model": _model_of(params),
        "kind": _as_str("kind", params.get("kind", "max"), ("max", "min")),
    }


def _norm_mc(params: dict, max_batch: int) -> dict:
    _reject_unknown(params, (
        "model", "samples", "seed", "sigma_corr", "sigma_ind", "block",
        "quantiles", "period_ns",
    ))
    qs = params.get("quantiles", [0.5, 0.95, 0.99])
    if not isinstance(qs, list) or not qs:
        raise _bad("quantiles must be a non-empty list")
    qs = sorted(_as_float("quantile", q) for q in qs)
    if any(not 0.0 < q < 1.0 for q in qs):
        raise _bad(f"quantiles must lie in (0, 1): {qs}")
    period = params.get("period_ns")
    sigma_corr = _as_float("sigma_corr", params.get("sigma_corr", 0.05))
    sigma_ind = _as_float("sigma_ind", params.get("sigma_ind", 0.05))
    if sigma_corr < 0.0 or sigma_ind < 0.0:
        raise _bad("sigmas must be non-negative")
    return {
        "model": _model_of(params),
        "samples": _as_int(
            "samples", params.get("samples", 256), 1, MAX_MC_SAMPLES
        ),
        "seed": _as_int("seed", params.get("seed", 0), 0, 2**63 - 1),
        "sigma_corr": sigma_corr,
        "sigma_ind": sigma_ind,
        "block": _as_int("block", params.get("block", 128), 1, MAX_MC_SAMPLES),
        "quantiles": qs,
        "period_ns": None if period is None else _as_time(
            "period_ns", period
        ),
    }


def _norm_whatif(params: dict, max_batch: int) -> dict:
    _reject_unknown(params, ("model", "edits", "clock_ns"))
    edits = params.get("edits")
    if not isinstance(edits, list) or not edits:
        raise _bad("edits must be a non-empty list of edit objects")
    if len(edits) > max_batch:
        raise ServerError(
            "oversized_batch",
            f"{len(edits)} edits exceed the per-request cap of {max_batch}",
        )
    normed: List[dict] = []
    for i, edit in enumerate(edits):
        if not isinstance(edit, dict):
            raise _bad(f"edits[{i}] must be an object")
        _reject_unknown(edit, ("op", "line", "value"))
        op = _as_str(f"edits[{i}].op", edit.get("op"), ("resize", "swap"))
        line = _as_str(f"edits[{i}].line", edit.get("line"))
        value = edit.get("value")
        if op == "resize":
            value = _as_float(f"edits[{i}].value", value)
            if value <= 0.0:
                raise _bad(f"edits[{i}].value must be a positive size")
        else:
            value = _as_str(f"edits[{i}].value", value)
        normed.append({"op": op, "line": line, "value": value})
    clock = params.get("clock_ns")
    return {
        "model": _model_of(params),
        "edits": normed,
        "clock_ns": None if clock is None else _as_time("clock_ns", clock),
    }


def _norm_corners(params: dict, max_batch: int) -> dict:
    """The ``corners`` method: one batched multi-corner pass.

    Each corner is a spec string (a standard name like ``"slow"``, or
    the CLI's inline ``name:vdd=3.0:temp=125`` form) or an object with
    :data:`CORNER_FIELDS`; resolution happens session-side so the
    protocol stays engine-free.
    """
    _reject_unknown(params, ("model", "corners", "lines"))
    corners = params.get("corners")
    if not isinstance(corners, list) or not corners:
        raise _bad("corners must be a non-empty list of specs")
    if len(corners) > max_batch:
        raise ServerError(
            "oversized_batch",
            f"{len(corners)} corners exceed the per-request cap of "
            f"{max_batch}",
        )
    normed: List[object] = []
    for i, spec in enumerate(corners):
        if isinstance(spec, str):
            if not spec:
                raise _bad(f"corners[{i}] must be a non-empty spec")
            normed.append(spec)
            continue
        if not isinstance(spec, dict):
            raise _bad(f"corners[{i}] must be a spec string or an object")
        _reject_unknown(spec, CORNER_FIELDS)
        entry = {"name": _as_str(f"corners[{i}].name", spec.get("name"))}
        for field in CORNER_FIELDS[1:]:
            if field in spec:
                entry[field] = _as_float(
                    f"corners[{i}].{field}", spec[field]
                )
        normed.append(entry)
    lines = params.get("lines")
    if lines is not None:
        if not isinstance(lines, list) or not all(
            isinstance(line, str) for line in lines
        ):
            raise _bad("lines must be a list of line names")
        lines = list(lines)
    return {"model": _model_of(params), "corners": normed, "lines": lines}


_NORMALIZERS = {
    "windows": _norm_windows,
    "slack": _norm_slack,
    "path": _norm_path,
    "mc": _norm_mc,
    "whatif": _norm_whatif,
    "corners": _norm_corners,
}


def validate_request(
    payload, max_batch: int = DEFAULT_MAX_BATCH
) -> Request:
    """Validate and normalize one query payload.

    Raises:
        ServerError: ``bad_request`` on malformed payloads,
            ``unknown_method`` on unregistered methods,
            ``oversized_batch`` on what-if batches past ``max_batch``.
    """
    if not isinstance(payload, dict):
        raise _bad("request body must be a JSON object")
    _reject_unknown(payload, ("circuit", "method", "params", "timeout_s"))
    circuit = payload.get("circuit")
    if not isinstance(circuit, str) or not circuit:
        raise _bad("circuit must be a non-empty string")
    method = payload.get("method")
    if not isinstance(method, str):
        raise _bad("method must be a string")
    if method not in _NORMALIZERS:
        raise ServerError(
            "unknown_method",
            f"unknown method {method!r}; supported: {list(METHODS)}",
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise _bad("params must be an object")
    timeout_s = payload.get("timeout_s")
    if timeout_s is not None:
        timeout_s = _as_float("timeout_s", timeout_s)
        if timeout_s <= 0.0:
            raise _bad("timeout_s must be positive")
    return Request(
        circuit=circuit,
        method=method,
        params=_NORMALIZERS[method](params, max_batch),
        timeout_s=timeout_s,
    )


def ok_body(request: Request, result, cached: bool) -> dict:
    return {
        "ok": True,
        "circuit": request.circuit,
        "method": request.method,
        "key": request.key,
        "cached": cached,
        "result": result,
    }


__all__ = [
    "ERROR_STATUS",
    "METHODS",
    "CORNER_FIELDS",
    "MODEL_NAMES",
    "MAX_MC_SAMPLES",
    "DEFAULT_MAX_BATCH",
    "ServerError",
    "Request",
    "request_key",
    "validate_request",
    "ok_body",
]
