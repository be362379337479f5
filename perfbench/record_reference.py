"""Record the reference values the benchmark compares against.

Run once at the commit whose outputs are the reference, from the repository
root:

    python3 perfbench/record_reference.py

For workload seeds 0 .. SEEDS-1 it stores the sha256 of the first measured
call's output (the CSV of each sweep workload, the JSON report of the RIP
workload), so a later run can tell whether its output bytes still match.
For the RIP workload it also samples ``delta_lower`` at each probe count the
benchmark uses and stores the accepted range: the observed [min, max]
widened by half its width below and twice its width above (``delta_lower``
is a maximum over random probes: its lower tail is thin, its upper tail
roughly Gumbel).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pocs.cli  # noqa: E402

from workloads import REFERENCE_PATH, WORKLOADS, call_seed, git_commit, sha256  # noqa: E402

SEEDS = 100
WIDEN_BELOW, WIDEN_ABOVE = 0.5, 2.0


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pocs.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"pocs {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def main() -> int:
    out = {"commit": git_commit(), "seeds": SEEDS}
    for wl in WORKLOADS.values():
        entry = {"output_sha256": {}}
        deltas = {}
        for seed in range(SEEDS):
            text = _run(wl.argv(call_seed(seed, 0), "measure"))
            entry["output_sha256"][str(seed)] = sha256(text)
            if wl.kind == "rip":
                deltas.setdefault(wl.sizes["measure"], []).append(json.loads(text)["delta_lower"])
                tiny = _run(wl.argv(call_seed(seed, 0), "tiny"))
                deltas.setdefault(wl.sizes["tiny"], []).append(json.loads(tiny)["delta_lower"])
            print(f"{wl.name} seed {seed}", file=sys.stderr, flush=True)
        if deltas:
            entry["delta_observed"] = {str(p): [min(v), max(v)] for p, v in deltas.items()}
            entry["delta_range"] = {
                str(p): [min(v) - WIDEN_BELOW * (max(v) - min(v)),
                         max(v) + WIDEN_ABOVE * (max(v) - min(v))]
                for p, v in deltas.items()
            }
        out[wl.name] = entry
    REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
