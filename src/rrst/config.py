"""Solver configuration, shared by the library API and the CLI.

`lp_dump_dir` writes the solved relaxation as text.  Separation has one
route per side (see separation.py); the tests keep the exhaustive
reference scans in `tests/reference_separation.py`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolveConfig:
    # write the fully-cut LP in plain text to this directory
    lp_dump_dir: str | None = None
