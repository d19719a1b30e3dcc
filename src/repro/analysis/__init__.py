"""Static analysis + runtime sanitizer for the compressed-attention kernels.

Three passes defend the contracts the paper's performance story rests on:

* :mod:`repro.analysis.contracts` — kernel-contract checker over every
  ``@register_kernel`` site (KC rules: backend completeness, signature
  consistency, no dense materialisation on fast paths).
* :mod:`repro.analysis.aliasing` — may-alias dataflow pass flagging in-place
  mutation of buffers reachable from parameters or cached structures (AL
  rules), with an inventoried ``# repro: owns-buffer`` waiver syntax.
* :mod:`repro.analysis.sanitize` — runtime sanitizer (``REPRO_SANITIZE=1``):
  read-only views of user inputs, write-once guards on cached structure
  arrays, sentinel/NaN leak checks on outputs and gradients.

Run the static passes with ``python -m repro.analysis [--strict] [--json …]``;
CI gates on ``--strict`` and uploads ``analysis_report.json``.
"""

from repro.analysis.findings import AnalysisReport, Finding, WAIVER_MARKER
from repro.analysis.runner import run_analysis
from repro.analysis.sanitize import (
    SanitizerError,
    sanitize_enabled,
    check_output,
    guard_input,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "WAIVER_MARKER",
    "run_analysis",
    "SanitizerError",
    "sanitize_enabled",
    "check_output",
    "guard_input",
]
