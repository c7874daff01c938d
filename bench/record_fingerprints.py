"""Record the Monte Carlo row fingerprints the benchmark checks against.

    python3 bench/record_fingerprints.py

Runs each Monte Carlo workload's sweep for every seed the benchmark can
pick, through the same path as ``restartfp sweep`` (one ``run_sweep`` over
the whole grid, then ``emit_sweep_csv``), and writes a short SHA-256 digest
of every CSV row to fingerprints.json.  Run it only at a commit whose
Monte Carlo output is trusted: the benchmark treats any later difference
as a failed operation.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from restartfp import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    record = {}
    for name, spec in workloads.MC_SWEEPS.items():
        seeds = {}
        for base in range(workloads.FINGERPRINT_SEEDS):
            result = cli.run_sweep(cli.parse_model(spec.model), spec.family, spec.grid, spec.trials, base)
            seeds[str(base)] = workloads.csv_row_digests(cli.emit_sweep_csv(result))
        record[name] = {"spec": spec.as_json(), "seeds": seeds}
        print(f"{name}: {len(seeds)} seeds", file=sys.stderr)
    workloads.FINGERPRINTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
