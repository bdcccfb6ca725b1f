"""Benchmark harness: sweep execution, artifact persistence, and a CLI.

Every figure/table reproduction boils down to: build one machine from a
topology-spec preset with one knob changed, run ``dd`` (or the MMIO
kernel module), and extract throughput plus link-layer statistics.
The configurations live in :mod:`benchmarks.sweeps`; this module runs
them through the :class:`repro.exp.SweepEngine` (result cache under
``benchmarks/results/.cache``, wall-clock records appended to
``benchmarks/results/BENCH_sweeps.json``) and persists result rows to
``benchmarks/results/<name>.json`` so EXPERIMENTS.md can quote them.

Run one experiment from the command line, fanned out over workers::

    python -m benchmarks.harness fig9b --workers 4
"""

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.analysis.report import Table
from repro.exp import SweepEngine, SweepResult, Sweep

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Sweep-point results are memoised here, keyed by config hash.
CACHE_DIR = os.path.join(RESULTS_DIR, ".cache")

#: Wall-clock record of every sweep run (see repro.exp.bench).
BENCH_PATH = os.path.join(RESULTS_DIR, "BENCH_sweeps.json")

#: Set REPRO_SWEEP_CACHE=off (or 0/no) to force fresh simulation.
CACHE_ENV = "REPRO_SWEEP_CACHE"


def _cache_enabled() -> bool:
    """Whether the on-disk result cache is active for harness sweeps."""
    return os.environ.get(CACHE_ENV, "").strip().lower() not in (
        "off", "0", "no", "false")


def run_sweep(sweep: Sweep, workers: Optional[int] = None,
              cache: Optional[bool] = None,
              results_dir: Optional[str] = None) -> SweepResult:
    """Run one sweep through the engine with the harness's conventions.

    Args:
        sweep: the sweep to run (usually from :mod:`benchmarks.sweeps`).
        workers: worker processes; None defers to ``REPRO_SWEEP_WORKERS``
            (default serial).
        cache: force the result cache on/off; None consults the
            ``REPRO_SWEEP_CACHE`` environment variable (default on).
        results_dir: override the artifact directory (used by the CLI's
            ``--results-dir``; created if missing).

    Returns:
        The :class:`repro.exp.SweepResult`; its ``results`` mapping is
        byte-identical across worker counts and cache states.
    """
    root = results_dir or RESULTS_DIR
    os.makedirs(root, exist_ok=True)
    use_cache = _cache_enabled() if cache is None else cache
    engine = SweepEngine(
        cache_dir=os.path.join(root, ".cache") if use_cache else None,
        bench_path=os.path.join(root, "BENCH_sweeps.json"),
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


def table_to_payload(table: Table) -> dict:
    """Flatten an analysis Table into the persisted JSON shape."""
    return {
        "title": table.title,
        "x_label": table.x_label,
        "y_label": table.y_label,
        "series": {s.name: {str(x): s.points[x] for x in s.xs()} for s in table.series},
    }


def profile_point(sweep: Sweep, results_dir: Optional[str] = None) -> str:
    """Run the sweep's first point in-process under cProfile.

    Sweep points normally run in worker processes behind the result
    cache, which hides them from a profiler; this runs one point (the
    sweep's first, a representative configuration) directly, with the
    cache bypassed, and writes the statistics sorted by cumulative time
    to ``<results_dir>/<sweep.name>_profile.txt`` — next to the sweep's
    results artifact, so a profile and the run it explains travel
    together.

    Returns the path of the written profile.
    """
    import cProfile
    import io
    import pstats

    from repro.exp.spec import resolve_runner

    root = results_dir or RESULTS_DIR
    os.makedirs(root, exist_ok=True)
    point = sweep.points[0]
    runner = resolve_runner(point.runner)
    profiler = cProfile.Profile()
    profiler.enable()
    runner(**point.params)
    profiler.disable()

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(60)
    stats.sort_stats("tottime").print_stats(30)
    path = os.path.join(root, f"{sweep.name}_profile.txt")
    with open(path, "w") as fh:
        fh.write(f"# cProfile of sweep {sweep.name!r}, point {point.key!r}\n")
        fh.write(f"# runner: {point.runner}  params: {point.params}\n")
        fh.write("# NOTE: cProfile instrumentation inflates wall time ~3x;\n")
        fh.write("# compare shapes, not absolute seconds.\n")
        fh.write(buf.getvalue())
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run one named experiment sweep and persist its raw results.

    Unknown experiment names exit with status 2 and the list of known
    names on stderr (no traceback); the results directory is created if
    missing.
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
    parser.add_argument("--profile", action="store_true",
                        help="instead of the full sweep, run its first "
                             "point in-process under cProfile and write "
                             "sorted stats next to the results artifact")
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

    sweep = builder()
    if args.check:
        # Every point runner accepts a ``check`` kwarg; adding it to the
        # params changes the cache key, so checked results never shadow
        # (or get served from) the unchecked cache entries.
        for point in sweep.points:
            point.params["check"] = True
    if args.profile:
        path = profile_point(sweep, results_dir=args.results_dir)
        print(f"profile: {path}")
        return 0
    result = run_sweep(sweep, workers=args.workers,
                       cache=False if args.fresh else None,
                       results_dir=args.results_dir)
    path = save_results(f"{sweep.name}_sweep", result.results,
                        results_dir=args.results_dir)
    print(result.summary())
    print(f"results: {path}")
    print(f"wall-clock record: "
          f"{os.path.join(args.results_dir or RESULTS_DIR, 'BENCH_sweeps.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
