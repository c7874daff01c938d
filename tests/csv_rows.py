"""The original ``emit_sweep_csv``, kept verbatim as the oracle that the
emitter must match byte for byte: every row, lead columns included, written
through ``csv.writer``."""

import csv
import io

from restartfp.cli import _SWEEP_HEADER, SweepResult, _fmt, _row_values


def emit_sweep_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SWEEP_HEADER)
    for row in result.rows:
        values = (result.baseline_mean_u, *_row_values(row))
        writer.writerow([result.model_descriptor, result.restart_family, *map(_fmt, values)])
    return buf.getvalue()
