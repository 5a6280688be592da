"""Solver configuration, shared by the library API and the CLI.

`separation` picks between the default min-cut route and a slower
exhaustive reference route that the tests cross-check it against;
`lp_dump_dir` writes the solved relaxation as text.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolveConfig:
    # "mincut" separates subtours by exact max-flow sweeps; "exhaustive"
    # enumerates subsets (small instances only)
    separation: str = "mincut"
    # write the fully-cut LP in plain text to this directory
    lp_dump_dir: str | None = None

    def __post_init__(self):
        if self.separation not in ("mincut", "exhaustive"):
            raise ValueError(f"separation must be mincut or exhaustive, got {self.separation!r}")
