"""Run configuration for the verification workflows.

Defaults reproduce the acceptance runs exactly.  A JSON file named by the
``MATCHLAB_CONFIG`` environment variable (or passed explicitly) overrides the
defaults; command-line flags override both.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

from .certify import DEFAULT_SEED
from .errors import MatchlabError
from .matching import DEFAULT_ENUMERATION_BOUND, DEFAULT_EXHAUSTIVE_BOUND

CONFIG_ENV_VAR = "MATCHLAB_CONFIG"

OUTPUT_FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class RunConfig:
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND
    exhaustive_group_bound: int = DEFAULT_EXHAUSTIVE_BOUND
    symmetry_reduction: bool = True
    output_format: str = "text"
    output_path: str | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("enumeration_bound", "exhaustive_group_bound", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.symmetry_reduction, bool):
            raise ValueError(
                f"symmetry_reduction must be true or false, got {self.symmetry_reduction!r}"
            )
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string, got {self.output_path!r}")
        if self.enumeration_bound <= 0 or self.exhaustive_group_bound <= 0:
            raise ValueError("bounds must be positive")
        # only a str can equal a member, so this also checks the type
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"output_format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}"
            )

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise MatchlabError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_env(cls) -> "RunConfig":
        path = os.environ.get(CONFIG_ENV_VAR)
        if path:
            return cls.from_file(path)
        return cls()

    def override(self, **kwargs) -> "RunConfig":
        provided = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **provided) if provided else self
