"""Sweep the high-pass cutoff D0 and report how the selected timestep moves.

The selected timestep should be stable over a wide band of cutoffs; a
selection that flips with every cutoff value would mean the ratio is
tracking filter shape rather than feature content.

Usage:
    python scripts/sweep_cutoff.py --manifest data/manifest.json
    python scripts/sweep_cutoff.py            # synthesizes a demo dataset
"""

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from freqsel import (
    OracleProfile,
    average_hfr,
    gaussian_bump_curve,
    load_manifest,
    oracle_features,
    select_timestep,
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--manifest", type=Path, default=None,
                   help="dataset to sweep; omit to synthesize a demo oracle dataset")
    p.add_argument("--cutoffs", default="5,10,20,30,45,60,90,120",
                   help="comma-separated D0 values")
    p.add_argument("--threads", type=int, default=4)
    return p.parse_args(argv)


def demo_dataset(workdir):
    total, peak = 200, 80
    grid = tuple(range(10, total + 1, 10))
    profile = OracleProfile(
        peak_timestep=peak,
        base_low_freq_amplitude=1.0,
        detail_amplitude_curve=gaussian_bump_curve(total, peak, 1.5, 30.0),
        detail_frequency=7,
    )
    return oracle_features(
        profile, n_images=8, shape=(4, 32, 32),
        seed=1, out_dir=workdir, timesteps=grid,
    )


def main(argv=None):
    args = parse_args(argv)
    cutoffs = [float(c) for c in args.cutoffs.split(",")]

    workdir = None
    if args.manifest is None:
        workdir = Path(tempfile.mkdtemp(prefix="cutoff_sweep_"))
        manifest = demo_dataset(workdir)
        print(f"no --manifest given; synthesized demo dataset ({len(manifest.entries)} maps)")
    else:
        manifest = load_manifest(args.manifest)

    print(f"{'D0':>8}  {'selected t':>10}  {'max mean HFR':>14}  ties")
    selections = []
    for d0 in cutoffs:
        report = select_timestep(average_hfr(manifest, cutoff=d0, threads=args.threads))
        selections.append(report.selected_timestep)
        print(f"{d0:>8g}  {report.selected_timestep:>10}  {report.max_mean_hfr:>14.6e}  "
              f"{list(report.ties)}")

    if workdir is not None:
        shutil.rmtree(workdir)
    distinct = sorted(set(selections))
    print(f"distinct selections across sweep: {distinct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
