#!/usr/bin/env python3
"""Layering check for the casc source tree.

The refactored dependency order is strictly one-directional:

    common -> {telemetry, sim, loopir} -> core -> trace -> analysis
           -> {cascade (sim backend), runtime (rt backend)} -> exec -> svc
           -> tools

The two backends share ONLY the core/analysis layers: src/cascade/ must not
include casc/rt/ headers and src/runtime/ must not include casc/cascade/
headers — the bridge between them is casc::exec.  Pipeline chains follow the
same order: loopir owns PipelineSpec, analysis owns the staging plan
(plan_pipeline), exec owns MaterializedPipeline and the staging engine, and
svc/tools sit on top.  This script parses every
#include "casc/..." in src/ and fails (exit 1) on any edge that violates the
per-layer forbidden lists below.

Run from the repository root:  python3 tools/check_layering.py
"""
from __future__ import annotations

import pathlib
import re
import sys

# For each source subtree, the casc include prefixes it must never pull in.
FORBIDDEN: dict[str, list[str]] = {
    "src/common/": ["casc/sim/", "casc/loopir/", "casc/core/", "casc/trace/",
                    "casc/analysis/", "casc/cascade/", "casc/rt/", "casc/exec/",
                    "casc/telemetry/", "casc/svc/"],
    "src/telemetry/": ["casc/loopir/", "casc/core/", "casc/trace/",
                       "casc/analysis/", "casc/cascade/", "casc/rt/",
                       "casc/exec/", "casc/svc/"],
    "src/sim/": ["casc/core/", "casc/trace/", "casc/analysis/",
                 "casc/cascade/", "casc/rt/", "casc/exec/", "casc/svc/"],
    "src/loopir/": ["casc/core/", "casc/trace/", "casc/analysis/",
                    "casc/cascade/", "casc/rt/", "casc/exec/", "casc/svc/"],
    "src/core/": ["casc/trace/", "casc/analysis/", "casc/cascade/",
                  "casc/rt/", "casc/exec/", "casc/svc/"],
    "src/trace/": ["casc/analysis/", "casc/cascade/", "casc/rt/",
                   "casc/exec/", "casc/svc/"],
    "src/analysis/": ["casc/cascade/", "casc/rt/", "casc/exec/", "casc/svc/"],
    # Workload factories sit directly on loopir: they build LoopNests and
    # PipelineSpecs (wave5's call-12 chain) but never touch the analysis
    # passes or either backend.
    "src/wave5/": ["casc/core/", "casc/trace/", "casc/analysis/",
                   "casc/cascade/", "casc/rt/", "casc/exec/", "casc/svc/"],
    "src/synth/": ["casc/core/", "casc/trace/", "casc/analysis/",
                   "casc/cascade/", "casc/rt/", "casc/exec/", "casc/svc/"],
    # The two backends: no cross-inclusion outside the shared core.
    "src/cascade/": ["casc/rt/", "casc/exec/", "casc/svc/"],
    "src/runtime/": ["casc/cascade/", "casc/analysis/", "casc/trace/",
                     "casc/loopir/", "casc/sim/", "casc/exec/", "casc/svc/"],
    "src/exec/": ["casc/cascade/", "casc/sim/", "casc/svc/"],
    # The service daemon sits on top of exec/runtime/telemetry; nothing in
    # src/ may depend back on it (tools/ are the only consumers).
    "src/svc/": ["casc/cascade/", "casc/sim/", "casc/analysis/",
                 "casc/trace/", "casc/core/"],
}

# Documented bridging headers: header-only adapters meant for translation
# units that already link both sides (the telemetry library itself does not
# link cascade).  Keep this list short and justified.
EXEMPT = {
    "src/telemetry/include/casc/telemetry/timeline_export.hpp",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(casc/[^"]+)"')


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    violations: list[str] = []
    for subtree, forbidden in sorted(FORBIDDEN.items()):
        base = root / subtree
        if not base.is_dir():
            violations.append(f"{subtree}: directory missing (rules stale?)")
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
                continue
            rel = path.relative_to(root).as_posix()
            if rel in EXEMPT:
                continue
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), start=1):
                match = INCLUDE_RE.match(line)
                if match is None:
                    continue
                include = match.group(1)
                for prefix in forbidden:
                    if include.startswith(prefix):
                        violations.append(
                            f"{rel}:{lineno}: includes \"{include}\" "
                            f"(forbidden for {subtree})")
    if violations:
        print("layering violations:")
        for v in violations:
            print("  " + v)
        return 1
    print("layering ok: no forbidden includes in src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
