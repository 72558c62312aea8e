"""Versioned JSON codec for tuning-session state.

Everything a crash-safe session journals -- sampled
:class:`~repro.core.config.Configuration` scripts, per-configuration
:class:`~repro.core.evaluator.ConfigMeta` records, the selection
:class:`~repro.core.rounds.SelectionState`, engine snapshots
(:class:`~repro.db.engine.EngineState`), fault plans, options, and the
final :class:`~repro.core.result.TuningResult` -- round-trips through
this module **exactly**:

- floats survive bit-for-bit ( ``json`` emits the shortest
  ``repr``-round-trip form, and ``inf`` uses the ``Infinity`` token),
- tuples, sets and frozensets are type-tagged (``{"__t__": [...]}`` /
  ``{"__s__": [...]}``) so containers come back with their original
  types (sets are serialized sorted for stable journal bytes),
- dataclasses are tagged ``{"__k__": "<kind>", ...fields}`` via an
  explicit per-type registry -- no pickling, no arbitrary class loading
  from journal files.

Versioning rules: :data:`CODEC_VERSION` is stamped into every journal's
``session_start`` event.  The version is bumped whenever an encoded
shape changes incompatibly (a field reinterpreted, or a result-relevant
field removed; additions with defaults are compatible and do not bump).
:func:`check_version` rejects journals written by a different major
shape so a resume can never misread old bytes silently.  Fields that
were removed without ever affecting results are listed in
:data:`RETIRED_FIELDS`: decoding drops them, so older journals and job
specs stay readable, while any other unknown field raises
:class:`~repro.errors.SessionError`.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro.core.config import Configuration
from repro.core.evaluator import ConfigMeta
from repro.core.rounds import BestConfig, RoundCursor, SelectionState
from repro.core.result import TracePoint, TuningResult
from repro.core.tuner import LambdaTuneOptions
from repro.db.engine import EngineState
from repro.db.indexes import Index
from repro.db.resources import ResourceBudget
from repro.errors import SessionError
from repro.faults import FaultPlan

#: Bump on any incompatible change to an encoded shape (see module doc).
CODEC_VERSION = 1

#: Per codec kind, fields older builds encoded that this build dropped.
#: None of them ever changed a result: ``workers``/``executor`` chose how
#: candidates were evaluated, ``stats`` counted that executor's work.
RETIRED_FIELDS = {
    "LambdaTuneOptions": frozenset({"workers", "executor"}),
    "SelectionState": frozenset({"stats"}),
}

_KIND = "__k__"
_TUPLE = "__t__"
_SET = "__s__"
_FROZENSET = "__f__"


def check_version(version: object) -> None:
    if version != CODEC_VERSION:
        raise SessionError(
            f"journal was written with codec version {version!r}; "
            f"this build reads version {CODEC_VERSION}"
        )


# -- encoding ----------------------------------------------------------------------


def encode(obj: Any) -> Any:
    """Translate ``obj`` into a JSON-serializable structure."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise SessionError(
                    f"cannot encode dict with non-string key {key!r}"
                )
            out[key] = encode(value)
        return out
    if isinstance(obj, list):
        return [encode(item) for item in obj]
    if isinstance(obj, tuple):
        return {_TUPLE: [encode(item) for item in obj]}
    if isinstance(obj, frozenset):
        return {_FROZENSET: sorted(encode(item) for item in obj)}
    if isinstance(obj, set):
        return {_SET: sorted(encode(item) for item in obj)}
    encoder = _ENCODERS.get(type(obj))
    if encoder is None:
        raise SessionError(f"no codec for objects of type {type(obj).__name__}")
    kind, fields = encoder(obj)
    payload = {_KIND: kind}
    payload.update({name: encode(value) for name, value in fields.items()})
    return payload


def decode(data: Any) -> Any:
    """Rebuild the object graph encoded by :func:`encode`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [decode(item) for item in data]
    if isinstance(data, dict):
        if _TUPLE in data and len(data) == 1:
            return tuple(decode(item) for item in data[_TUPLE])
        if _SET in data and len(data) == 1:
            return {decode(item) for item in data[_SET]}
        if _FROZENSET in data and len(data) == 1:
            return frozenset(decode(item) for item in data[_FROZENSET])
        if _KIND in data:
            kind = data[_KIND]
            decoder = _DECODERS.get(kind)
            if decoder is None:
                raise SessionError(f"unknown codec kind {kind!r} in journal")
            fields = {
                name: decode(value)
                for name, value in data.items()
                if name != _KIND
            }
            return decoder(fields)
        return {name: decode(value) for name, value in data.items()}
    raise SessionError(f"cannot decode value of type {type(data).__name__}")


def dumps(obj: Any) -> str:
    return json.dumps(encode(obj), separators=(",", ":"))


def loads(text: str) -> Any:
    return decode(json.loads(text))


# -- the type registry -------------------------------------------------------------


def _enc_index(index: Index):
    return "Index", {
        "table": index.table,
        "columns": index.columns,
        "name": index.name,
    }


def _dec_index(fields) -> Index:
    return Index(fields["table"], fields["columns"], name=fields["name"])


def _enc_configuration(config: Configuration):
    return "Configuration", {
        "name": config.name,
        "settings": config.settings,
        "indexes": config.indexes,
        "raw_text": config.raw_text,
        "rejected": config.rejected,
    }


def _dec_configuration(fields) -> Configuration:
    return Configuration(
        name=fields["name"],
        settings=fields["settings"],
        indexes=fields["indexes"],
        raw_text=fields["raw_text"],
        rejected=fields["rejected"],
    )


def _enc_config_meta(meta: ConfigMeta):
    return "ConfigMeta", {
        "time": meta.time,
        "is_complete": meta.is_complete,
        "index_time": meta.index_time,
        "completed_queries": meta.completed_queries,
        "failed": meta.failed,
        "failure": meta.failure,
    }


def _dec_config_meta(fields) -> ConfigMeta:
    return ConfigMeta(
        time=fields["time"],
        is_complete=fields["is_complete"],
        index_time=fields["index_time"],
        completed_queries=fields["completed_queries"],
        failed=fields["failed"],
        failure=fields["failure"],
    )


def _enc_best(best: BestConfig):
    return "BestConfig", {"time": best.time, "config": best.config}


def _dec_best(fields) -> BestConfig:
    return BestConfig(time=fields["time"], config=fields["config"])


def _current_fields(kind: str, cls, fields: dict) -> dict:
    """``fields`` minus :data:`RETIRED_FIELDS`; unknown ones are errors."""
    retired = RETIRED_FIELDS[kind]
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(fields) - known - retired
    if unknown:
        raise SessionError(f"unknown {kind} fields {sorted(unknown)} in journal")
    return {name: value for name, value in fields.items() if name not in retired}


def _enc_selection_state(state: SelectionState):
    return "SelectionState", {
        "timeout": state.timeout,
        "rounds": state.rounds,
        "meta": state.meta,
        "best": state.best,
        "trace": state.trace,
        "candidates": state.candidates,
    }


def _dec_selection_state(fields) -> SelectionState:
    fields = _current_fields("SelectionState", SelectionState, fields)
    return SelectionState(
        timeout=fields["timeout"],
        rounds=fields["rounds"],
        meta=fields["meta"],
        best=fields["best"],
        trace=fields["trace"],
        candidates=fields["candidates"],
    )


def _enc_cursor(cursor: RoundCursor):
    return "RoundCursor", {
        "phase": cursor.phase,
        "order": cursor.order,
        "position": cursor.position,
    }


def _dec_cursor(fields) -> RoundCursor:
    return RoundCursor(
        phase=fields["phase"],
        order=fields["order"],
        position=fields["position"],
    )


def _enc_engine_state(state: EngineState):
    return "EngineState", {
        "settings": state.settings,
        "indexes": state.indexes,
        "clock": state.clock,
    }


def _dec_engine_state(fields) -> EngineState:
    return EngineState(
        settings=fields["settings"],
        indexes=fields["indexes"],
        clock=fields["clock"],
    )


def _enc_fault_plan(plan: FaultPlan):
    return "FaultPlan", dict(plan.__getstate__())


def _dec_fault_plan(fields) -> FaultPlan:
    plan = FaultPlan.__new__(FaultPlan)
    plan.__setstate__(fields)
    return plan


def _enc_trace_point(point: TracePoint):
    return "TracePoint", {"time": point.time, "best_time": point.best_time}


def _dec_trace_point(fields) -> TracePoint:
    return TracePoint(time=fields["time"], best_time=fields["best_time"])


def _enc_tuning_result(result: TuningResult):
    return "TuningResult", {
        "tuner": result.tuner,
        "workload": result.workload,
        "system": result.system,
        "best_time": result.best_time,
        "best_config": result.best_config,
        "trace": result.trace,
        "configs_evaluated": result.configs_evaluated,
        "tuning_seconds": result.tuning_seconds,
        "extras": result.extras,
    }


def _dec_tuning_result(fields) -> TuningResult:
    return TuningResult(
        tuner=fields["tuner"],
        workload=fields["workload"],
        system=fields["system"],
        best_time=fields["best_time"],
        best_config=fields["best_config"],
        trace=fields["trace"],
        configs_evaluated=fields["configs_evaluated"],
        tuning_seconds=fields["tuning_seconds"],
        extras=fields["extras"],
    )


def _enc_budget(budget: ResourceBudget):
    return "ResourceBudget", {
        "max_memory_bytes": budget.max_memory_bytes,
        "max_disk_bytes": budget.max_disk_bytes,
    }


def _dec_budget(fields) -> ResourceBudget:
    return ResourceBudget(
        max_memory_bytes=fields["max_memory_bytes"],
        max_disk_bytes=fields["max_disk_bytes"],
    )


def _enc_options(options: LambdaTuneOptions) -> tuple[str, dict]:
    fields = {
        f.name: getattr(options, f.name)
        for f in dataclasses.fields(options)
    }
    return "LambdaTuneOptions", fields


def _dec_options(fields) -> LambdaTuneOptions:
    return LambdaTuneOptions(
        **_current_fields("LambdaTuneOptions", LambdaTuneOptions, fields)
    )


_ENCODERS = {
    Index: _enc_index,
    ResourceBudget: _enc_budget,
    LambdaTuneOptions: _enc_options,
    Configuration: _enc_configuration,
    ConfigMeta: _enc_config_meta,
    BestConfig: _enc_best,
    SelectionState: _enc_selection_state,
    RoundCursor: _enc_cursor,
    EngineState: _enc_engine_state,
    FaultPlan: _enc_fault_plan,
    TracePoint: _enc_trace_point,
    TuningResult: _enc_tuning_result,
}

_DECODERS = {
    "Index": _dec_index,
    "ResourceBudget": _dec_budget,
    "LambdaTuneOptions": _dec_options,
    "Configuration": _dec_configuration,
    "ConfigMeta": _dec_config_meta,
    "BestConfig": _dec_best,
    "SelectionState": _dec_selection_state,
    "RoundCursor": _dec_cursor,
    "EngineState": _dec_engine_state,
    "FaultPlan": _dec_fault_plan,
    "TracePoint": _dec_trace_point,
    "TuningResult": _dec_tuning_result,
}
