"""Run configuration: plain-text sectioned key=value files (INI) with JSON
accepted as an alternative; defaults merged underneath; seeded and hashed
so every report can state exactly what produced it.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import PreconditionError
from .exponents import ExponentSpec, spec_from_config
from .quadrature import QuadratureConfig

DEFAULTS = {
    "run": {"seed": 12345, "output_dir": "out"},
    "exponent": {"dimension": 1, "order": 0.5, "m": 0.5,
                 "q_kind": "example_ii", "q_params": ""},
    "quadrature": asdict(QuadratureConfig()),
    # checkpoint_every is read by nothing in the package (the Newton solver
    # has no checkpoints); it stays a valid key so older configs still load
    "solver": {"nodes": 201, "extent": 1.5, "amplitude": 0.5,
               "tol_res": 1e-4, "max_iters": 50000, "eta": 1e-3,
               "checkpoint_every": 25, "perturbation": 0.05},
    "sweep": {"count": 101, "refine": 10, "tol": 1e-5,
              "directions": 8, "decay_tol": 1e-6, "radial_tol": 1e-4},
    "lemmas": {"n_mean_value": 100000, "n_kernel": 10000, "n_gprime": 100000},
    "mp": {"hyp_tol": 1e-6, "concl_tol": 1e-5},
}


def _coerce(section: str, key: str, value):
    """A key's value as the type of its default; a number must be finite,
    since a NaN or infinite tolerance would turn a falsifiable check into a
    pass, and an integer key's number integral (15.0 loads as 15, 15.9 is
    refused); the seed must be >= 0."""
    default = DEFAULTS[section][key]
    if isinstance(default, str):
        return str(value)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"bad value {value!r} for key {key!r}") from exc
    if not math.isfinite(number):
        raise PreconditionError(f"bad value {value!r} for key {key!r}: not finite")
    if isinstance(default, float):
        return number
    if not number.is_integer():
        raise PreconditionError(f"bad value {value!r} for key {key!r}: not an integer")
    if key == "seed" and number < 0:  # numpy's generators take no negative seed
        raise PreconditionError(f"bad value {value!r} for key {key!r}: negative")
    return int(number)


@dataclass
class RunConfig:
    """Merged configuration; `sections` mirrors the file layout."""

    sections: dict = field(default_factory=dict)
    path: str | None = None

    @classmethod
    def load(cls, path=None) -> "RunConfig":
        merged = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
        if path is not None:
            path = Path(path)
            if not path.exists():
                raise PreconditionError(f"config file not found: {path}")
            try:
                text = path.read_text()
                if path.suffix == ".json" or text.lstrip().startswith("{"):
                    raw = json.loads(text)
                else:
                    cp = configparser.ConfigParser()
                    cp.read_string(text)
                    raw = {sec: dict(cp[sec]) for sec in cp.sections()}
            except (UnicodeDecodeError, json.JSONDecodeError, configparser.Error) as exc:
                raise PreconditionError(f"malformed config file {path}: {exc}") from exc
            if not isinstance(raw, dict) or not all(isinstance(v, dict) for v in raw.values()):
                raise PreconditionError("a config must be an object of sections")
            for sec, vals in raw.items():
                if sec not in merged:
                    raise PreconditionError(f"unknown config section [{sec}]")
                for key, val in vals.items():
                    if key not in merged[sec]:
                        raise PreconditionError(f"unknown key {key!r} in section [{sec}]")
                    merged[sec][key] = _coerce(sec, key, val)
        cfg = cls(merged, None if path is None else str(path))
        return cfg

    def section(self, name: str) -> dict:
        return self.sections[name]

    @property
    def seed(self) -> int:
        return int(self.sections["run"]["seed"])

    @property
    def output_dir(self) -> Path:
        return Path(self.sections["run"]["output_dir"])

    def override(self, section: str, key: str, value) -> None:
        if section not in self.sections or key not in self.sections[section]:
            raise PreconditionError(f"unknown config entry [{section}] {key}")
        self.sections[section][key] = _coerce(section, key, value)

    def exponent_spec(self) -> ExponentSpec:
        return spec_from_config(self.sections["exponent"])

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(**self.sections["quadrature"])

    def config_hash(self) -> str:
        """Hash of everything that shapes results (output_dir excluded)."""
        payload = {sec: {k: v for k, v in vals.items() if k != "output_dir"}
                   for sec, vals in self.sections.items()}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
