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
        if self.enumeration_bound <= 0 or self.exhaustive_group_bound <= 0:
            raise ValueError("bounds must be positive")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"output_format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}"
            )

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path) as fh:
            data = json.load(fh)
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
