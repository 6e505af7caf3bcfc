"""Line-oriented run configuration files and override handling.

Format: ``key = value`` lines grouped under ``[params]``, ``[time]``,
``[bc]``, ``[output]`` section headers.  Unknown keys and sections, duplicate
keys, non-finite numbers and out-of-range values are rejected with the
offending line number; ``--set key=value`` pairs go through the same checks.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np


class ConfigError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_SCHEMA = {
    "params": {
        "mu": ("float", lambda v: v > 0, "must be positive"),
        "k": ("float", lambda v: v > 0, "must be positive"),
        "kxx": ("float", lambda v: v > 0, "must be positive"),
        "kyy": ("float", lambda v: v > 0, "must be positive"),
        "s0": ("float", lambda v: v >= 0, "must be non-negative"),
        "alpha": ("float", lambda v: 0.0 <= v <= 1.0, "outside [0, 1]"),
        "alpha_bjs": ("float", lambda v: v >= 0, "must be non-negative"),
        "e": ("float", lambda v: v > 0, "must be positive"),
        "nu": ("float", lambda v: 0.0 <= v < 0.5, "outside [0, 0.5)"),
        "lam_p": ("float", lambda v: v > 0, "must be positive"),
        "mu_p": ("float", lambda v: v > 0, "must be positive"),
        "resolution": ("float", lambda v: v > 0, "must be positive"),
    },
    "time": {
        "t": ("float", lambda v: v > 0, "must be positive"),
        "tau": ("float", lambda v: v > 0, "must be positive"),
    },
    "bc": {
        "injection": ("float", lambda v: True, ""),
        "pressure": ("float", lambda v: True, ""),
    },
    "output": {
        "dir": ("str", lambda v: True, ""),
        "stride": ("int", lambda v: v >= 0, "must be non-negative"),
    },
}


def _coerce(key: str, text: str, spec, line: int):
    """Typed, finite, range-checked value of ``key`` from its text."""
    kind, check, why = spec
    if kind == "str":
        value = text
    else:
        try:
            value = int(text) if kind == "int" else float(text)
        except ValueError:
            what = "an integer" if kind == "int" else "a number"
            raise ConfigError(f"{key} = {text!r} is not {what}", line) from None
        if not math.isfinite(value):
            raise ConfigError(f"{key} = {text!r} is not finite", line)
    if not check(value):
        raise ConfigError(f"{key} = {text}: {why}", line)
    return value


def parse_config(path) -> dict:
    """Parse into {section: {key: value}} with validation."""
    with open(path) as f:
        lines = f.read().splitlines()
    out: dict = {s: {} for s in _SCHEMA}
    section = None
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]").strip().lower()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", ln)
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", ln)
        if section is None:
            raise ConfigError("key outside any section", ln)
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", ln)
        if key in out[section]:
            raise ConfigError(f"duplicate key {key!r}", ln)
        out[section][key] = _coerce(key, val, _SCHEMA[section][key], ln)
    return out


def apply_overrides(config, sections: dict, extra_sets: dict | None = None):
    """Fold parsed config-file sections and --set pairs into a ScenarioConfig."""
    flat = {}
    for sec in ("params", "time", "bc", "output"):
        flat.update(sections.get(sec, {}))
    flat.update(extra_sets or {})

    params = config.params
    kw = {}
    if "e" in flat or "nu" in flat:
        from .scenarios import lame_from_E_nu
        E = flat.get("e", 1e7)
        nu = flat.get("nu", 0.2)
        lam, mu_p = lame_from_E_nu(E, nu)
        kw["lam_p"], kw["mu_p"] = lam, mu_p
    for name in ("mu", "s0", "alpha", "alpha_bjs", "lam_p", "mu_p"):
        if name in flat:
            kw[name] = flat[name]
    if "k" in flat:
        kw["K"] = np.eye(2) * flat["k"]
    if "kxx" in flat or "kyy" in flat:
        K = np.asarray(params.K, dtype=float)
        K = K if K.shape == (2, 2) else np.eye(2) * float(K)
        K = K.copy()
        if "kxx" in flat:
            K[0, 0] = flat["kxx"]
        if "kyy" in flat:
            K[1, 1] = flat["kyy"]
        kw["K"] = K
    params = params.with_overrides(**kw) if kw else params

    updates = {"params": params}
    if "t" in flat:
        updates["T"] = flat["t"]
    if "tau" in flat:
        updates["tau"] = flat["tau"]
    if "resolution" in flat:
        updates["resolution"] = flat["resolution"]
    if "injection" in flat:
        updates["injection"] = flat["injection"]
    if "pressure" in flat:
        updates["boundary_pressure"] = flat["pressure"]
        updates["initial_pressure"] = flat["pressure"]
    if "stride" in flat:
        updates["output_stride"] = flat["stride"]
    return replace(config, **updates)


def parse_set_pairs(pairs) -> dict:
    """Validate ``--set key=value`` pairs against the schema."""
    merged = {}
    lookup = {k: spec for keys in _SCHEMA.values() for k, spec in keys.items()}
    for i, pair in enumerate(pairs or (), start=1):
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}", i)
        key, _, val = pair.partition("=")
        key = key.strip().lower()
        if key not in lookup:
            raise ConfigError(f"unknown override key {key!r}", i)
        merged[key] = _coerce(key, val, lookup[key], i)
    return merged
