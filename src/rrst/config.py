"""Solver configuration, shared by the library API and the CLI.

`mode` and `separation` pick between the default route and a slower
reference route that the tests cross-check it against; `lp_dump_dir`
writes each solved relaxation as text.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolveConfig:
    # "batch" fixes every 1-valued variable per iteration; "strict" fixes at
    # most one per side per iteration (slower, same total cost)
    mode: str = "batch"
    # "mincut" separates subtours by exact max-flow sweeps; "exhaustive"
    # enumerates subsets (small instances only)
    separation: str = "mincut"
    # write each fully-cut LP in plain text to this directory
    lp_dump_dir: str | None = None

    def __post_init__(self):
        if self.mode not in ("batch", "strict"):
            raise ValueError(f"mode must be batch or strict, got {self.mode!r}")
        if self.separation not in ("mincut", "exhaustive"):
            raise ValueError(f"separation must be mincut or exhaustive, got {self.separation!r}")
