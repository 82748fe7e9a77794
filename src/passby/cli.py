"""Command-line front end: one run per invocation, artifacts into --out."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from .pipeline import METHODS, ConfigError, PipelineConfig, exit_code_for, run_pipeline
from .signal import TAPERS


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="passby",
        description=(
            "Cluster windows of roadside audio into per-vehicle groups via a "
            "similarity graph, spectral embedding, and incremental reseeding."
        ),
    )
    p.add_argument("--config", help="JSON config file; explicit flags override its values")
    p.add_argument("--manifest", help="clip manifest CSV (path,label,start_s,duration_s); omit to synthesize input")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--window-len", type=int, dest="window_len", help="samples per analysis window")
    p.add_argument("--overlap", type=float, help="window overlap fraction in [0, 1)")
    p.add_argument("--taper", choices=TAPERS, help="per-window taper")
    p.add_argument("--smoothing", type=int, dest="smoothing_len", help="odd moving-mean width over coefficients")
    p.add_argument("--m", type=int, help="number of spectral coefficients kept per window")
    p.add_argument("--knn", type=int, dest="neighbors", help="nearest-neighbor count of the graph")
    p.add_argument("--k", help="cluster count, or 'auto' to pick by eigenvalue gap")
    p.add_argument("--k-max", type=int, dest="k_max", help="largest k the auto selection considers")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--iterations", type=int, help="reseeding rounds")
    p.add_argument("--seed-rate", type=float, dest="seed_rate", help="seed budget growth rate per round")
    p.add_argument("--restarts", type=int, help="k-means restarts")
    p.add_argument("--seed", type=int, help="master RNG seed")
    return p


def _overrides(args: argparse.Namespace) -> dict[str, Any]:
    """The flags given on the command line, as PipelineConfig fields."""
    out: dict[str, Any] = {
        k: v for k, v in vars(args).items() if v is not None and k not in ("config", "out")
    }
    if args.out is not None:
        out["out_dir"] = args.out
    if "k" in out and out["k"] != "auto":
        try:
            out["k"] = int(out["k"])
        except ValueError as exc:
            raise ConfigError(f"--k must be an integer or 'auto', got {out['k']!r}") from exc
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _overrides(args)
        if args.config is not None:
            cfg = PipelineConfig.from_file(args.config, overrides)
        else:
            cfg = PipelineConfig.from_dict(overrides)
        report = run_pipeline(cfg)
    except ConfigError as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports everything
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)

    k_info = report["k"]
    print(f"windows: {report['n_windows']} x {report['n_coefficients']} coefficients")
    estimated = k_info["estimated"]
    print(f"k: used {k_info['used']} (requested {k_info['requested']}, gap estimate {estimated})")
    for method, ev in sorted(report["methods"].items()):
        print(f"{method}: purity {ev['purity']:.4f}")
    print(f"artifacts: {Path(cfg.out_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
