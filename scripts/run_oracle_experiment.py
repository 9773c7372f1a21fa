"""End-to-end demo: build a synthetic dataset with a known best timestep,
run the selection pipeline on it, and check that the answer comes back.

Usage:
    python scripts/run_oracle_experiment.py --workdir /tmp/oracle_demo --peak 120
"""

import argparse
import shutil
import sys
from pathlib import Path

from freqsel import (
    OracleProfile,
    average_hfr,
    gaussian_bump_curve,
    oracle_features,
    select_timestep,
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workdir", type=Path, default=Path("oracle_demo"))
    p.add_argument("--images", type=int, default=16)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--size", type=int, default=32, help="height = width of each map")
    p.add_argument("--total-timesteps", type=int, default=200)
    p.add_argument("--grid-step", type=int, default=10)
    p.add_argument("--peak", type=int, default=120, help="ground-truth best timestep")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--width", type=float, default=25.0, help="bump width in timesteps")
    p.add_argument("--frequency", type=int, default=6)
    p.add_argument("--cutoff", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keep", action="store_true", help="keep the generated dataset")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    grid = tuple(range(args.grid_step, args.total_timesteps + 1, args.grid_step))
    if args.peak not in grid:
        print(f"peak {args.peak} must lie on the probe grid {grid[:3]}...", file=sys.stderr)
        return 1

    profile = OracleProfile(
        peak_timestep=args.peak,
        base_low_freq_amplitude=1.0,
        detail_amplitude_curve=gaussian_bump_curve(
            args.total_timesteps, args.peak, args.amplitude, args.width
        ),
        detail_frequency=args.frequency,
    )
    manifest = oracle_features(
        profile,
        n_images=args.images,
        shape=(args.channels, args.size, args.size),
        seed=args.seed,
        out_dir=args.workdir,
        timesteps=grid,
    )
    print(f"wrote {len(manifest.entries)} synthetic maps to {args.workdir}")

    curve = average_hfr(manifest, cutoff=args.cutoff, threads=4)
    report = select_timestep(curve)
    print(f"{'t':>5}  {'mean HFR':>12}")
    for t, v in zip(curve.timesteps, curve.mean_hfr):
        marker = "  <- selected" if t == report.selected_timestep else ""
        print(f"{t:>5}  {v:>12.6e}{marker}")
    print(f"true peak t*={args.peak}  recovered t'={report.selected_timestep}")

    if not args.keep:
        shutil.rmtree(args.workdir)
    if report.selected_timestep != args.peak:
        print("MISMATCH: pipeline failed to recover the planted peak", file=sys.stderr)
        return 1
    print("recovered exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
