"""Benchmark harness: sweep execution, artifact persistence, and a CLI.

Every figure/table reproduction boils down to: build one machine from a
topology-spec preset with one knob changed, run ``dd`` (or the MMIO
kernel module) on it as flows, and extract throughput plus link-layer
statistics.
The configurations live in :mod:`benchmarks.sweeps`; this module runs
them through the :class:`repro.exp.SweepEngine` (result cache under
``benchmarks/results/.cache``) and persists result rows to
``benchmarks/results/<name>.json`` so EXPERIMENTS.md can quote them.
A run writes nothing else: its wall clock is the summary line it
prints.

Run one experiment from the command line, fanned out over workers::

    python -m benchmarks.harness fig9b --workers 4
"""

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.exp import SweepEngine, SweepResult, Sweep, default_workers

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def run_sweep(sweep: Sweep, workers: Optional[int] = None,
              cache: bool = True,
              results_dir: Optional[str] = None) -> SweepResult:
    """Run one sweep through the engine with the harness's conventions.

    Args:
        sweep: the sweep to run (usually from :mod:`benchmarks.sweeps`).
        workers: worker processes; None defers to ``REPRO_SWEEP_WORKERS``
            (default serial).
        cache: use the on-disk result cache (the CLI's ``--fresh``
            turns it off).
        results_dir: override the artifact directory (used by the CLI's
            ``--results-dir``; created if missing).

    Returns:
        The :class:`repro.exp.SweepResult`; its ``results`` mapping is
        byte-identical across worker counts and cache states.
    """
    root = results_dir or RESULTS_DIR
    os.makedirs(root, exist_ok=True)
    engine = SweepEngine(
        cache_dir=os.path.join(root, ".cache") if cache else None,
        workers=workers,
    )
    return engine.run(sweep)


def save_results(name: str, payload: dict,
                 results_dir: Optional[str] = None) -> str:
    """Persist one experiment's data under benchmarks/results/.

    The document goes to a temporary file in the same directory and
    then replaces ``<name>.json`` in one ``os.replace``, so a run killed
    mid-write leaves the previous payload intact.
    """
    root = results_dir or RESULTS_DIR
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, f"{name}.json")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run one named experiment sweep and persist its raw results.

    Unknown experiment names and worker counts that are not positive
    integers (``--workers`` or ``REPRO_SWEEP_WORKERS``) exit with status
    2 and an error line on stderr (no traceback); the results directory
    is created if missing.
    """
    from benchmarks import sweeps

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness",
        description="Run one paper-figure sweep through the cache-aware "
                    "parallel sweep engine.",
    )
    parser.add_argument("benchmark", nargs="?",
                        help="experiment name (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list known experiment names with one-line "
                             "descriptions and exit")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for cache misses "
                             "(default: $REPRO_SWEEP_WORKERS or 1)")
    parser.add_argument("--fresh", action="store_true",
                        help="ignore the result cache and re-simulate")
    parser.add_argument("--check", action="store_true",
                        help="run every point with the runtime invariant "
                             "checker armed (repro.check); checked runs "
                             "cache separately from unchecked ones")
    parser.add_argument("--results-dir", default=None, metavar="DIR",
                        help=f"artifact directory (default: {RESULTS_DIR})")
    args = parser.parse_args(argv)

    if args.list:
        # One line per registered sweep: name plus the first line of its
        # builder's docstring (the builders double as the documentation).
        width = max(len(name) for name in sweeps.SWEEPS)
        for name in sorted(sweeps.SWEEPS):
            doc = (sweeps.SWEEPS[name].__doc__ or "").strip()
            summary = doc.splitlines()[0] if doc else ""
            print(f"{name:<{width}}  {summary}".rstrip())
        return 0
    if not args.benchmark:
        parser.print_usage(sys.stderr)
        print("error: no benchmark name given (try --list)", file=sys.stderr)
        return 2
    builder = sweeps.SWEEPS.get(args.benchmark)
    if builder is None:
        known = ", ".join(sorted(sweeps.SWEEPS))
        print(f"error: unknown benchmark {args.benchmark!r}; "
              f"known benchmarks: {known}", file=sys.stderr)
        return 2
    try:
        workers = default_workers() if args.workers is None else args.workers
    except ValueError as exc:
        parser.error(str(exc))
    if workers < 1:
        parser.error(f"--workers must be >= 1, got {workers}")

    sweep = builder()
    if args.check:
        # ``run_point`` accepts a ``check`` kwarg; adding it to the
        # params changes the cache key, so checked results never shadow
        # (or get served from) the unchecked cache entries.
        for point in sweep.points:
            point.params["check"] = True
    result = run_sweep(sweep, workers=workers,
                       cache=not args.fresh,
                       results_dir=args.results_dir)
    path = save_results(f"{sweep.name}_sweep", result.results,
                        results_dir=args.results_dir)
    print(result.summary())
    print(f"results: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
