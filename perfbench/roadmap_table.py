"""Measure the rows of ROADMAP item 1's baseline table at their full sizes.

Usage, from the root of a source checkout (takes a minute or two)::

    python3 perfbench/roadmap_table.py

The benchmark's workloads run at smaller sizes so that a run can repeat
them; this script times each table row once, at the table's own size, with
the library's public functions, so that a later change can be set against
the targets ROADMAP states for those sizes.  Each time is given raw and
calibrated by the machine's slowness around it (see calibrate.py).  Prints
one JSON object.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402


def timed(fn, *args) -> dict[str, float]:
    before = calibrate.slowness()
    t0 = time.perf_counter()
    fn(*args)
    elapsed = time.perf_counter() - t0
    slowness = (before + calibrate.slowness()) / 2
    return {"raw_s": round(elapsed, 3), "cal_s": round(elapsed / slowness, 3)}


def main() -> int:
    chaindyn, cli = run.load_program(Path.cwd())
    cd = chaindyn
    rows: dict[str, dict[str, float]] = {}

    doubling = cd.doubling_system(256)
    req = cli.AnalysisRequest(doubling, "full", 2 * doubling.space.resolution, 8, 100, 20, 7, 4, 0)
    for stage in cli.FULL_ORDER:
        rows[f"full doubling-256 seed 7: {stage}"] = timed(cli._STAGES[stage], req)
    rows["full doubling-256 seed 7: total"] = timed(cli.run, req)

    for n in (1024, 4096):
        space = cd.circle_grid(n)
        rows[f"make_epsilon_entourage n={n}"] = timed(
            cd.make_epsilon_entourage, space, 2 * space.resolution)

    identity = cd.identity_system(cd.interval_grid(1024))
    e = cd.make_epsilon_entourage(identity.space, identity.space.resolution / 2)
    g = cd.build_transition_graph(identity, e)
    rows["ChainAnalysis.from_graph identity-1024 at h/2"] = timed(cd.ChainAnalysis.from_graph, g)

    golden = cd.rotation_system(cd.GOLDEN_ALPHA, 1024)
    e = cd.make_epsilon_entourage(golden.space, 2 * golden.space.resolution)
    rows["build_transition_graph golden-1024"] = timed(cd.build_transition_graph, golden, e)
    req = cli.AnalysisRequest(golden, "shadowing", 2 * golden.space.resolution, 8, 100, 20, 7,
                              4, 0)
    for stage in ("graph", "shadowing"):
        rows[f"{stage} stage golden-1024 seed 7"] = timed(cli._STAGES[stage], req)

    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
