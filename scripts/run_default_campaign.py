#!/usr/bin/env python3
"""Reproduce the default-scenario BER curves and the coupling penalty.

Runs three sweeps against the bench-like defaults and writes one CSV each:

  ber_fidelity_a.csv          symbol-domain link, no impairments
  ber_coupled_independent.csv waveform-domain link, 16 dB isolation, two streams
  ber_coupled_identical.csv   same, both polarizations carrying one stream

The theoretical 16-QAM curve is included as a CSV column; plot offline.

From the two coupled curves it then reports where each crosses BER 1e-4 and
the extra Eb/N0 relative to the theoretical curve.  With the synthetic
default transfer curves the absolute dB numbers are illustrative; the
robust observation is the ordering: independent streams pay more than
identical streams, and both pay something.

Exit status:

  0  the ordering holds
  1  the ordering does not hold
  2  configuration error, such as --bits below 10,000 or --threads below 1
  4  I/O error, such as an output CSV that already exists without --force;
     existing outputs are refused before the first sweep runs
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dpris.campaign import (
    coupling_penalty_report,
    refuse_existing_output,
    run_ber_sweep,
    write_ber_csv,
)
from dpris.config import CampaignConfig, ConfigError

CSV_NAMES = ("ber_fidelity_a.csv", "ber_coupled_independent.csv", "ber_coupled_identical.csv")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--bits", type=int, default=1_000_000, help="bits per grid point")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args()

    try:
        if args.threads < 1:
            raise ConfigError("--threads", f"must be at least 1, got {args.threads}")
        base = CampaignConfig(seed=args.seed, bits_per_point=args.bits)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    coupled = replace(
        base, fidelity="B", coupling=True, ebn0_grid_db=tuple(float(x) for x in range(8, 30, 2))
    )
    out_dir = Path(args.out_dir)
    try:
        if not args.force:
            for name in CSV_NAMES:
                refuse_existing_output(out_dir / name)
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4

    def write(name, cfg, result):
        write_ber_csv(result, cfg, out_dir / name, force=args.force)
        print(f"{name}: {len(result.records)} points in {result.wall_time_s:.1f} s")
        for record, theory in zip(result.records, result.theoretical):
            print(
                f"  {record.ebn0_db:5.1f} dB  ber {record.ber:.3e} "
                f"(+-{record.wilson_interval_halfwidth:.1e})  theory {theory:.3e}"
            )

    write(CSV_NAMES[0], base, run_ber_sweep(base, threads=args.threads))
    report = coupling_penalty_report(coupled, threads=args.threads)
    write(CSV_NAMES[1], coupled, report.result_independent)
    write(CSV_NAMES[2], replace(coupled, stream_relation="identical"), report.result_identical)

    print(f"theoretical 16-QAM curve reaches 1e-4 at {report.theory_crossing_db:.2f} dB")
    print(
        f"independent streams: crossing {report.crossing_independent_db:.2f} dB, "
        f"penalty {report.penalty_independent_db:.2f} dB"
    )
    print(
        f"identical streams:   crossing {report.crossing_identical_db:.2f} dB, "
        f"penalty {report.penalty_identical_db:.2f} dB"
    )
    ordering = report.penalty_independent_db > report.penalty_identical_db > 0.0
    print(f"ordering independent > identical > 0: {ordering}")
    return 0 if ordering else 1


if __name__ == "__main__":
    raise SystemExit(main())
