"""The `qfi` command line: scenario configs in, tables and verdicts out.

A front end over the library: it parses configs, runs them through the
library's builders and checks, and emits reports. Configs are strict
UTF-8 JSON (schema in docs/schema.json): a scenario kind, scalar
parameters, operators as presets or [re, im] matrices, and an output
sink. `qfi run` computes one report, `qfi sweep` repeats it over a
parameter grid (collision points in stacked passes), and `qfi verify` runs one of
the invariant suites of `qfikit.verify`. Exit codes: 0 success, 1
parse/validation failure, 2 when a verdict the config marks
`expect: pass` does not pass, or a suite fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .collision import (
    CollisionSpec,
    IntegratorFailure,
    SCHEMES,
    TimeGrid,
    run_points,
)
from .encoding import amplification, amplification_grid, complete_report, theorem1_residuals
from .quantum_core import Ket, MeasurementChannel, Operator
from .scenarios import (
    TransducerSpec,
    build_dephasing,
    build_transducer,
    fig1b_row_from,
    fig1b_rows,
    transducer_grid,
)
from .verify import SUITES

__all__ = ["ConfigError", "ScenarioConfig", "RunReport", "main"]

KINDS = ("transducer", "dephasing", "custom_channel", "custom_collision")

#: default tolerance for the lossless-encoding verdict checks
DEFAULT_TOL = 1e-6

OPERATOR_PRESETS = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
    "identity": np.eye(2, dtype=complex),
}

STATE_PRESETS = {
    "zero": np.array([1.0, 0.0], dtype=complex),
    "one": np.array([0.0, 1.0], dtype=complex),
    "plus_x": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "minus_x": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}

_TOP_KEYS = {
    "transducer": {"kind", "parameters", "operators", "states", "output", "expect"},
    "dephasing": {"kind", "parameters", "operators", "states", "output", "expect"},
    "custom_channel": {"kind", "parameters", "states", "output", "expect",
                       "outcomes", "retained"},
    "custom_collision": {"kind", "parameters", "operators", "states", "output",
                         "expect", "jumps"},
}

_PARAM_KEYS = {
    "transducer": {"x", "T", "eps", "eps_grid", "tol"},
    "dephasing": {"x", "T", "N", "gamma", "scheme", "tol"},
    "custom_channel": {"x", "tol"},
    "custom_collision": {"x", "T", "N", "scheme", "tol"},
}

#: the lower bound of each bounded scalar parameter, as docs/schema.json
#: states it: (test, what the value must be)
_BOUNDS = {
    "T": (lambda v: v > 0, "positive"),
    "N": (lambda v: v >= 1, "at least 1"),
    "eps": (lambda v: v >= 0, "nonnegative"),
    "gamma": (lambda v: v >= 0, "nonnegative"),
    "tol": (lambda v: v > 0, "positive"),
}


def _out_of_bounds(key: str, value) -> Optional[str]:
    """Why ``value`` is outside the schema bound of parameter ``key``, or None."""
    if key in _BOUNDS and not _BOUNDS[key][0](value):
        return f"parameter {key!r} must be {_BOUNDS[key][1]}, got {value!r}"
    return None


_OPERATOR_KEYS = {
    "transducer": {"h0_env", "flip"},
    "dephasing": {"h0", "jump", "control"},
    "custom_channel": set(),
    "custom_collision": {"h0", "control"},
}

_STATE_KEYS = {
    "transducer": {"env_initial", "sys_initial"},
    "dephasing": {"psi"},
    "custom_channel": {"psi"},
    "custom_collision": {"psi"},
}

_VERDICT_NAMES = ("theorem1_perp", "theorem1_generic", "theorem2")


class ConfigError(ValueError):
    """Config file rejected; the message carries a file:line anchor."""


def _key_line(raw: str, key: str, after: Optional[str] = None, nth: int = 0) -> int:
    """Line of the (nth + 1)-th "key" from the first "after" on, or of the
    last one when there are fewer; line 1 when there is none."""
    start = max(raw.find(f'"{after}"'), 0) if after else 0
    hits = [m.start() for m in re.finditer(re.escape(f'"{key}"'), raw[start:])]
    return raw.count("\n", 0, start + hits[min(nth, len(hits) - 1)]) + 1 if hits else 1


#: a JSON string, skipped, or a bare number token, NaN and Infinity included
_NUMBER_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?(?:Infinity|NaN|\d[\d.eE+-]*))')


def _non_finite_line(raw: str) -> int:
    """Line of the first number outside strings that is not finite."""
    for match in _NUMBER_TOKEN.finditer(raw):
        if match.group(1) and not math.isfinite(float(match.group(1))):
            return raw.count("\n", 0, match.start()) + 1
    return 1


class _Anchor(NamedTuple):
    """Formats file:line-prefixed messages for config complaints; within
    entry ``nth`` of the array under key ``after``, a key every entry
    carries is found at its (nth + 1)-th occurrence past the array's key."""

    path: str
    raw: str
    after: Optional[str] = None
    nth: int = 0

    def fail(self, key: str, message: str):
        line = _key_line(self.raw, key, self.after, self.nth)
        raise ConfigError(f"{self.path}:{line}: {message}")


def _reject_unknown(obj: dict, allowed: set, anchor: _Anchor, context: str):
    for key in obj:
        if key not in allowed:
            anchor.fail(key, f"unknown key {key!r} in {context}")


def _require_mapping(value, key, anchor, context):
    if not isinstance(value, dict):
        anchor.fail(key, f"{context} must be an object")
    return value


def _number(params: dict, key: str, anchor: _Anchor):
    v = params[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        anchor.fail(key, f"parameter {key!r} must be a number")
    return float(v)


def _integer(params: dict, key: str, anchor: _Anchor):
    v = params[key]
    if isinstance(v, bool) or not isinstance(v, int):
        anchor.fail(key, f"parameter {key!r} must be an integer")
    return v


def _parse_cell(cell, key: str, anchor: _Anchor) -> complex:
    if (not isinstance(cell, list) or len(cell) != 2
            or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in cell)):
        anchor.fail(key, f"{key!r}: complex entries must be [re, im] pairs")
    return complex(cell[0], cell[1])


def _parse_operator(value, key: str, anchor: _Anchor) -> np.ndarray:
    """Preset name or square nested [re, im] matrix."""
    if isinstance(value, str):
        if value not in OPERATOR_PRESETS:
            anchor.fail(key, f"{key!r}: unknown operator preset {value!r}")
        return OPERATOR_PRESETS[value].copy()
    if not isinstance(value, list) or not value:
        anchor.fail(key, f"{key!r}: expected a preset name or a nested matrix")
    n = len(value)
    rows = []
    for row in value:
        if not isinstance(row, list) or len(row) != n:
            anchor.fail(key, f"{key!r}: matrix rows must all have {n} entries")
        rows.append([_parse_cell(c, key, anchor) for c in row])
    return np.array(rows, dtype=complex)


def _parse_state(value, key: str, anchor: _Anchor) -> np.ndarray:
    if isinstance(value, str):
        if value not in STATE_PRESETS:
            anchor.fail(key, f"{key!r}: unknown state preset {value!r}")
        return STATE_PRESETS[value].copy()
    if not isinstance(value, list) or not value:
        anchor.fail(key, f"{key!r}: expected a preset name or a [re, im] vector")
    return np.array([_parse_cell(c, key, anchor) for c in value], dtype=complex)


def parse_grid(text: str) -> np.ndarray:
    """Grid grammar lin:a:b:n or log:a:b:n."""
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("lin", "log"):
        raise ConfigError(f"grid {text!r} does not match lin:a:b:n or log:a:b:n")
    try:
        a, b, n = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise ConfigError(f"grid {text!r} has non-numeric bounds or count") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"grid {text!r} has non-finite bounds")
    if n < 1:
        raise ConfigError(f"grid {text!r} needs at least one point")
    if parts[0] == "lin":
        return np.linspace(a, b, n)
    if a <= 0 or b <= 0:
        raise ConfigError(f"grid {text!r}: log bounds must be positive")
    return np.logspace(np.log10(a), np.log10(b), n)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed and validated scenario description."""

    kind: str
    parameters: dict
    operators: dict
    states: dict
    outcomes: tuple
    jumps: tuple
    retained: Optional[frozenset]
    output_path: Optional[str]
    output_format: str
    expect: dict
    config_hash: str
    path: str

    def tol(self, override: Optional[float]) -> float:
        if override is not None:
            return override
        return self.parameters.get("tol", DEFAULT_TOL)


def parse_config(path: str) -> ScenarioConfig:
    """Load, strictly validate, and normalize one config file.

    Raises
    ------
    ConfigError
        Unreadable file, JSON syntax error, non-finite number (NaN,
        Infinity, or a literal beyond the float range), unknown or
        ill-typed key, a parameter outside its schema bound (T and tol
        positive, N at least 1, eps, every eps_grid entry and gamma
        nonnegative); the message is anchored to the offending line,
        within an array at the offending entry's.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc.strerror}") from exc

    def finite(token: str, number=float):
        # float() reads NaN, Infinity and out-of-range literals as non-finite
        if not math.isfinite(float(token)):
            raise ConfigError(f"{path}:{_non_finite_line(raw)}: number {token} is not "
                              "finite; configs are strict JSON")
        return number(token)

    try:
        data = json.loads(raw, parse_constant=finite, parse_float=finite,
                          parse_int=lambda token: finite(token, int))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    anchor = _Anchor(path, raw)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}:1: top level must be an object")
    kind = data.get("kind")
    if kind not in KINDS:
        anchor.fail("kind", f"kind must be one of {', '.join(KINDS)}; got {kind!r}")
    _reject_unknown(data, _TOP_KEYS[kind], anchor, "config")

    params = _require_mapping(data.get("parameters", {}), "parameters", anchor,
                              "parameters")
    _reject_unknown(params, _PARAM_KEYS[kind], anchor, "parameters")
    if "eps" in params and "eps_grid" in params:
        anchor.fail("eps_grid", "give either eps or eps_grid, not both")
    if "eps_grid" in params:
        grid = params["eps_grid"]
        if isinstance(grid, str):
            try:
                params = {**params, "eps_grid": [float(v) for v in parse_grid(grid)]}
            except ConfigError as exc:
                anchor.fail("eps_grid", str(exc))
        elif isinstance(grid, list) and grid and all(
            not isinstance(v, bool) and isinstance(v, (int, float)) for v in grid
        ):
            params = {**params, "eps_grid": [float(v) for v in grid]}
        else:
            anchor.fail("eps_grid", "eps_grid must be a grid string or number array")
        test, bound = _BOUNDS["eps"]
        for k, value in enumerate(params["eps_grid"]):
            if not test(value):
                anchor.fail("eps_grid", f"eps_grid entry {k}: mixing must be {bound}, "
                                        f"got {value!r}")
    if "scheme" in params and params["scheme"] not in SCHEMES:
        anchor.fail("scheme", f"unknown scheme {params['scheme']!r}")
    for key in ("x", "T", "eps", "gamma", "tol"):
        if key in params:
            params = {**params, key: _number(params, key, anchor)}
    if "N" in params:
        params = {**params, "N": _integer(params, "N", anchor)}
    for key, value in params.items():
        complaint = _out_of_bounds(key, value)
        if complaint:
            anchor.fail(key, complaint)

    operators = {}
    ops = _require_mapping(data.get("operators", {}), "operators", anchor, "operators")
    _reject_unknown(ops, _OPERATOR_KEYS[kind], anchor, "operators")
    for key, value in ops.items():
        operators[key] = _parse_operator(value, key, anchor)

    states = {}
    sts = _require_mapping(data.get("states", {}), "states", anchor, "states")
    _reject_unknown(sts, _STATE_KEYS[kind], anchor, "states")
    for key, value in sts.items():
        states[key] = _parse_state(value, key, anchor)

    outcomes = []
    if kind == "custom_channel":
        rows = data.get("outcomes")
        if not isinstance(rows, list) or not rows:
            anchor.fail("kind", "custom_channel needs a nonempty outcomes array")
        for index, entry in enumerate(rows):
            at = anchor._replace(after="outcomes", nth=index)
            entry = _require_mapping(entry, "outcomes", at, "outcomes entry")
            _reject_unknown(entry, {"label", "matrix", "derivative"}, at, "outcomes entry")
            for need in ("label", "matrix", "derivative"):
                if need not in entry:
                    at.fail("outcomes", f"outcome entry is missing {need!r}")
            label = entry["label"]
            if not isinstance(label, str):
                at.fail("label", "outcome label must be a string")
            outcomes.append((
                label,
                _parse_operator(entry["matrix"], "matrix", at),
                _parse_operator(entry["derivative"], "derivative", at),
            ))

    jumps = []
    if kind == "custom_collision":
        for index, entry in enumerate(data.get("jumps", [])):
            at = anchor._replace(after="jumps", nth=index)
            entry = _require_mapping(entry, "jumps", at, "jumps entry")
            _reject_unknown(entry, {"op", "rate"}, at, "jumps entry")
            if "op" not in entry or "rate" not in entry:
                at.fail("jumps", "jump entry needs op and rate")
            rate = entry["rate"]
            if isinstance(rate, bool) or not isinstance(rate, (int, float)) or rate < 0:
                at.fail("rate", "jump rate must be a nonnegative number")
            jumps.append((_parse_operator(entry["op"], "op", at), float(rate)))

    retained = None
    if "retained" in data:
        value = data["retained"]
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            anchor.fail("retained", "retained must be an array of outcome labels")
        retained = frozenset(value)

    output_path, output_format = None, "json"
    if "output" in data:
        out = _require_mapping(data["output"], "output", anchor, "output")
        _reject_unknown(out, {"path", "format"}, anchor, "output")
        output_path = out.get("path")
        if output_path is not None and not isinstance(output_path, str):
            anchor.fail("path", "output path must be a string")
        output_format = out.get("format", "json")
        if output_format not in ("csv", "json"):
            anchor.fail("format", f"output format must be csv or json, got {output_format!r}")

    expect = {}
    if "expect" in data:
        exp = _require_mapping(data["expect"], "expect", anchor, "expect")
        _reject_unknown(exp, set(_VERDICT_NAMES), anchor, "expect")
        for key, value in exp.items():
            if value != "pass":
                anchor.fail(key, f"expect values must be \"pass\", got {value!r}")
            expect[key] = value

    return ScenarioConfig(
        kind=kind,
        parameters=params,
        operators=operators,
        states=states,
        outcomes=tuple(outcomes),
        jumps=tuple(jumps),
        retained=retained,
        output_path=output_path,
        output_format=output_format,
        expect=expect,
        config_hash=hashlib.sha256(raw.encode("utf-8")).hexdigest(),
        path=path,
    )


@dataclass
class RunReport:
    """One computation's serializable result.

    metrics maps scalar names to floats ([re, im] lists for complex);
    verdicts maps theorem names to {status, worst_residual}; table, when
    present, holds {columns, rows} of a sweep. Round-trips losslessly
    through to_json_dict/from_json_dict.
    """

    kind: str
    version: str
    config_hash: str
    wall_time_s: float
    parameters: dict
    metrics: dict
    per_outcome: list
    verdicts: dict
    table: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunReport":
        return cls(**data)


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _verdict(status: str, residual: Optional[float]) -> dict:
    return {"status": status, "worst_residual": residual}


def _efg_metrics(report) -> tuple:
    """Metrics and per-outcome rows of a ``complete_report``."""
    metrics = {
        "avg_ps_qfi": report.avg_ps_qfi,
        "completeness_residual": report.completeness_residual,
        "f_total": _pair(report.f_total),
        "g_total": report.g_total,
        "i_q": report.i_q,
        "kappa": report.kappa,
    }
    return metrics, [[lbl, e, _pair(f), g] for lbl, e, f, g in report.per_outcome]


def _channel_verdicts(t1) -> dict:
    """Both theorem-1 verdicts of a channel's ``Theorem1Residuals``, with
    theorem 2 n.a. until a collision run sets it."""
    # the stationarity conditions assume the perpendicular gauge, which
    # theorem 1 fixes for an exact channel; an approximate one cannot be
    # regauged, so its derivatives are checked as given
    return {
        "theorem1_perp": _verdict("pass" if t1.perp_lossless else "fail", t1.perp),
        "theorem1_generic": _verdict("pass" if t1.generic_lossless else "fail",
                                     max(t1.generic, t1.imag_f)),
        "theorem2": _verdict("n.a.", None),
    }


def _transducer_spec(config: ScenarioConfig, eps: float) -> TransducerSpec:
    p = config.parameters
    return TransducerSpec(
        h0_env=Operator(config.operators.get("h0_env", OPERATOR_PRESETS["pauli_z"].copy())),
        env_initial=Ket(config.states.get("env_initial", STATE_PRESETS["plus_x"].copy())),
        sys_initial=Ket(config.states.get("sys_initial", STATE_PRESETS["zero"].copy())),
        flip=Operator(config.operators.get("flip", OPERATOR_PRESETS["pauli_x"].copy())),
        T=p.get("T", 1.0),
        x=p.get("x", 1e-5),
        eps=eps,
    )


def _run_transducer(config: ScenarioConfig, tol: float):
    p = config.parameters
    grid = p.get("eps_grid")
    if grid is not None:
        amp = amplification_grid(*transducer_grid(_transducer_spec(config, eps=1.0), grid),
                                 tol=tol)
        rows = [list(row) for row in fig1b_rows(grid, amp)]
        verdicts = {name: _verdict("n.a.", None) for name in _VERDICT_NAMES}
        verdicts["theorem1_perp"] = _verdict("pass" if amp.perp_lossless.all() else "fail",
                                             max(0.0, float(amp.perp.max())))
        columns = ["eps", "I_sigma_1", "I_sigma_2", "avg_total", "sum_total"]
        return {}, [], verdicts, {"columns": columns, "rows": rows}

    spec = _transducer_spec(config, eps=p.get("eps", 1.0))
    family, expected_iq = build_transducer(spec)
    channel, derivatives = family(spec.x)
    report = complete_report(channel, derivatives, spec.sys_initial)
    row = fig1b_row_from(spec.eps, amplification(report))
    metrics, per_outcome = _efg_metrics(report)
    metrics.update(avg_total=row.avg_total, expected_iq=expected_iq,
                   I_sigma_1=row.i_sigma_1, I_sigma_2=row.i_sigma_2,
                   sum_total=row.sum_total)
    return metrics, per_outcome, _channel_verdicts(theorem1_residuals(report.columns, tol)), None


def _collision_point(config: ScenarioConfig) -> tuple:
    """(spec, grid, x, psi) of a collision config."""
    p = config.parameters
    grid = TimeGrid(p.get("T", 1.0), p.get("N", 16384), p.get("scheme", "expm_step"))
    psi = Ket(config.states.get("psi", STATE_PRESETS["plus_x"].copy()))
    x = p.get("x", 0.0)
    if config.kind == "dephasing":
        h0 = Operator(config.operators.get("h0", OPERATOR_PRESETS["pauli_z"].copy()))
        jump = Operator(config.operators.get("jump", OPERATOR_PRESETS["pauli_z"].copy()))
        return build_dephasing(h0, _control(config, h0.dim), jump, p.get("gamma", 1.0),
                               grid.T, psi, x), grid, x, psi
    if "h0" not in config.operators:
        raise ConfigError(f"{config.path}: custom_collision needs operators.h0")
    h0 = Operator(config.operators["h0"])
    jumps = tuple((Operator(op), rate) for op, rate in config.jumps)
    return CollisionSpec(h0, _control(config, h0.dim), jumps, h0.dim), grid, x, psi


def _collision_metrics(collision_run) -> tuple:
    """A runner's result for one ``CollisionRun``."""
    loss, thm2, t1, _ = collision_run
    metrics = {"i_q_baseline": loss.i_q_baseline, "i_sigma": loss.i_sigma,
               "kappa": loss.kappa, "p_check": loss.p_check}
    if loss.kappa_channel is not None:
        metrics.update(kappa_channel=loss.kappa_channel, i_q_channel=loss.i_q_channel)
    verdicts = _channel_verdicts(t1)
    verdicts["theorem2"] = _verdict("pass" if thm2.lossless else "fail",
                                    max(thm2.weight_slope, thm2.jump_residual))
    return metrics, [], verdicts, None


def _control(config: ScenarioConfig, dim: int) -> Operator:
    """The config's constant control Hamiltonian, zero when absent."""
    control = config.operators.get("control")
    return Operator(np.zeros((dim, dim), dtype=complex) if control is None else control)


def _run_collisions(configs, tol_override: Optional[float]) -> list:
    """Each collision config's runner result, in order. Consecutive configs
    of one grid, tol, dimension, jump count and probe run as one
    ``run_points`` group, so a sweep over T, N or tol runs groups of one."""
    groups = []
    for config in configs:
        spec, grid, x, psi = _collision_point(config)
        key = (grid, config.tol(tol_override), spec.dim, len(spec.jumps),
               psi.amplitudes.tobytes())
        if not groups or groups[-1][0] != key:
            groups.append((key, [], [], psi))
        groups[-1][1].append(spec)
        groups[-1][2].append(x)
    return [_collision_metrics(each) for (grid, tol, *_), specs, xs, psi in groups
            for each in run_points(specs, grid, xs, psi, tol)]


def _run_custom_channel(config: ScenarioConfig, tol: float):
    if "psi" not in config.states:
        raise ConfigError(f"{config.path}: custom_channel needs states.psi")
    psi = Ket(config.states["psi"])
    labels = [lbl for lbl, _, _ in config.outcomes]
    retained = config.retained if config.retained is not None else frozenset(labels)
    channel = MeasurementChannel(
        kraus=tuple((lbl, Operator(m)) for lbl, m, _ in config.outcomes),
        retained=retained,
    )
    derivatives = tuple((lbl, Operator(d)) for lbl, _, d in config.outcomes)
    report = complete_report(channel, derivatives, psi,
                             allow_approximate=channel.kind != "exact")
    metrics, per_outcome = _efg_metrics(report)
    if report.kappa is not None and channel.kind == "exact":
        for lbl, _, i_sigma, _ in amplification(report).rows:
            metrics[f"I_sigma_{lbl}"] = i_sigma
    return metrics, per_outcome, _channel_verdicts(theorem1_residuals(report.columns, tol)), None


_RUNNERS = {
    "transducer": _run_transducer,
    "dephasing": lambda config, tol: _run_collisions([config], tol)[0],
    "custom_channel": _run_custom_channel,
    "custom_collision": lambda config, tol: _run_collisions([config], tol)[0],
}

#: scalar columns each kind contributes to a sweep row, in order
_SWEEP_COLUMNS = {
    "transducer": ("I_sigma_1", "I_sigma_2", "avg_total", "sum_total"),
    "dephasing": ("kappa", "p_check", "i_sigma", "i_q_baseline"),
    "custom_collision": ("kappa", "p_check", "i_sigma", "i_q_baseline"),
    "custom_channel": ("i_q", "avg_ps_qfi", "kappa"),
}


def _report(config: ScenarioConfig, start: float, metrics, per_outcome, verdicts,
            table) -> RunReport:
    """A config's report of a computation begun at perf_counter() ``start``."""
    return RunReport(
        kind=config.kind,
        version=__version__,
        config_hash=config.config_hash,
        wall_time_s=time.perf_counter() - start,
        parameters=dict(sorted(config.parameters.items())),
        metrics={k: v for k, v in metrics.items() if v is not None},
        per_outcome=per_outcome,
        verdicts=verdicts,
        table=table,
    )


def execute(config: ScenarioConfig, tol_override: Optional[float] = None) -> RunReport:
    """Run one scenario and assemble its report."""
    tol = config.tol(tol_override)
    start = time.perf_counter()
    return _report(config, start, *_RUNNERS[config.kind](config, tol))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def report_csv(report: RunReport) -> str:
    """Deterministic CSV: the sweep table, or one sorted metrics row.

    Complex metrics expand to <name>_re and <name>_im columns; floats
    print with 17 significant digits; a sweep metric a point left
    undefined prints as an empty cell; lines end with LF.
    """
    if report.table is not None:
        return _csv_text(report.table["columns"], report.table["rows"])
    columns, row = [], []
    for name in sorted(report.metrics):
        value = report.metrics[name]
        if isinstance(value, list):
            columns.extend([f"{name}_re", f"{name}_im"])
            row.extend(value)
        else:
            columns.append(name)
            row.append(value)
    return _csv_text(columns, [row])


def report_json(report: RunReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _emit(report: RunReport, config: ScenarioConfig, args) -> None:
    fmt = args.format or config.output_format
    path = args.output or config.output_path
    text = report_csv(report) if fmt == "csv" else report_json(report)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _exit_code(report: RunReport, config: ScenarioConfig) -> int:
    for name in config.expect:
        if report.verdicts.get(name, {}).get("status") != "pass":
            return 2
    return 0


def _tol_override(args) -> Optional[float]:
    """``--tol``, refused unless finite and positive."""
    if args.tol is not None and not math.isfinite(args.tol):
        raise ConfigError(f"--tol must be a finite number, got {args.tol!r}")
    if args.tol is not None and args.tol <= 0.0:
        raise ConfigError(f"--tol must be positive, got {args.tol!r}")
    return args.tol


def cmd_run(args) -> int:
    tol = _tol_override(args)
    config = parse_config(args.config)
    report = execute(config, tol_override=tol)
    _emit(report, config, args)
    return _exit_code(report, config)


def cmd_sweep(args) -> int:
    tol = _tol_override(args)
    config = parse_config(args.config)
    if config.kind == "transducer" and "eps_grid" in config.parameters:
        raise ConfigError(
            f"{config.path}: cannot sweep a config that already carries eps_grid")
    if args.param not in config.parameters:
        raise ConfigError(
            f"{config.path}: sweep parameter {args.param!r} is not in the config")
    current = config.parameters[args.param]
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ConfigError(
            f"{config.path}: sweep parameter {args.param!r} is not a scalar")
    grid = parse_grid(args.grid)
    if args.param == "N":
        # a log grid over powers of two lands within rounding of integers
        counts = np.rint(grid)
        off = np.abs(grid - counts) > 1e-9 * np.abs(grid)
        if off.any():
            raise ConfigError(
                f"grid {args.grid!r}: N must be an integer, got {float(grid[off.argmax()])!r}")
        grid = counts
    values = [int(value) if args.param == "N" else float(value) for value in grid]
    for value in values:
        complaint = _out_of_bounds(args.param, value)
        if complaint:
            raise ConfigError(f"grid {args.grid!r}: {complaint}")
    start = time.perf_counter()
    columns = [args.param] + list(_SWEEP_COLUMNS[config.kind])
    configs = [replace(config, parameters={**config.parameters, args.param: v}) for v in values]
    points = (_run_collisions(configs, tol) if config.kind in ("dephasing", "custom_collision")
              else [_RUNNERS[config.kind](point, point.tol(tol)) for point in configs])
    rows = []
    worst = {name: ("pass", None) for name in _VERDICT_NAMES}
    for value, (metrics, _, point_verdicts, _) in zip(values, points):
        # a metric the point left undefined stays empty (JSON null), not 0
        rows.append([float(value)] + [metrics.get(c) for c in columns[1:]])
        for name in _VERDICT_NAMES:
            verdict = point_verdicts[name]
            status, residual = worst[name]
            if verdict["status"] == "n.a.":
                worst[name] = ("n.a.", None)
            else:
                if verdict["status"] == "fail":
                    status = "fail"
                residual = max(residual or 0.0, verdict["worst_residual"] or 0.0)
                worst[name] = (status, residual)
    verdicts = {name: _verdict(*worst[name]) for name in _VERDICT_NAMES}
    report = _report(config, start, {}, [], verdicts, {"columns": columns, "rows": rows})
    _emit(report, config, args)
    return _exit_code(report, config)


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise ConfigError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}")
    ok, lines = SUITES[args.suite]()
    for line in lines:
        print(line)
    return 0 if ok else 2


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="override the verdict tolerance")
    common.add_argument("--output", default=None,
                        help="override the config's output path")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="override the config's output format")

    parser = argparse.ArgumentParser(
        prog="qfi",
        description="Information accounting for parameterized quantum "
                    "measurement channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common],
                           help="compute one scenario report")
    run_p.add_argument("config", help="path to a JSON scenario config")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[common],
                             help="repeat a scenario over a parameter grid")
    sweep_p.add_argument("config", help="path to a JSON scenario config")
    sweep_p.add_argument("--param", required=True,
                         help="name of the scalar parameter to sweep")
    sweep_p.add_argument("--grid", required=True,
                         help="grid spec lin:a:b:n or log:a:b:n")
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run a built-in invariant suite")
    verify_p.add_argument("--suite", required=True,
                          help=f"one of: {', '.join(SUITES)}")
    verify_p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IntegratorFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
