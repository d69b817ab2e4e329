"""One benchmark job, run in a fresh interpreter by bench/run.py.

    job.py setup                          import the CLI and exit
    job.py cli  TRACE ARGS...             run `torcap ARGS...`
    job.py scan TRACE SPEC.json OUT.json  family scan in one process

TRACE is a file for the per-layer summary of a traced run, or `-` for an
untraced one.  torcap is imported from PYTHONPATH, which the harness points
at the checkout's `src`.
"""

from __future__ import annotations

import atexit
import json
import sys
import time
from fractions import Fraction

RSS_MARKER = "bench-peak-rss-kb="


def _install_tracer(path: str) -> None:
    """Wrap torcap's layers and write their summary to `path` at exit."""
    if path == "-":
        return
    from torcap import capacities, lattice, oracle, toric

    from tracing import Tracer

    tracer = Tracer()
    tracer.install({"capacities": capacities, "lattice": lattice,
                    "oracle": oracle, "toric": toric})

    def dump():
        with open(path, "w") as fh:
            json.dump(tracer.summary(), fh)

    atexit.register(dump)


def run_cli(trace: str, args: list[str]) -> None:
    from torcap import cli

    _install_tracer(trace)
    cli.cli(args=args, prog_name="torcap")


def run_scan(trace: str, spec_path: str, out_path: str) -> None:
    """Xi-width bound and two ball verdicts per polygon, timed one by one.

    The probes between polygons run in this process, so each polygon is
    calibrated against the speed this process saw around it."""
    from torcap import capacities, lattice

    from calibrate import Calibrator

    _install_tracer(trace)
    with open(spec_path) as fh:
        spec = json.load(fh)
    k = spec["k"]
    over = Fraction(spec["over"])
    cal = Calibrator()
    rows = []
    for vertices in spec["polygons"]:
        p = lattice.MomentPolygon(tuple((Fraction(x), Fraction(y)) for x, y in vertices))
        start = time.perf_counter()
        gw, lw, holds = capacities.width_bound_check(p, k)
        at = capacities.embedding_verdict(capacities.ConcaveDomain.ball(gw), p, k)
        above = capacities.embedding_verdict(capacities.ConcaveDomain.ball(over * gw), p, k)
        raw = time.perf_counter() - start
        ref, scale = cal.close()
        rows.append({
            "raw_s": raw, "ref_s": ref, "norm_s": raw * scale,
            "gw": str(gw), "lw": str(lw), "holds": holds,
            "at_compatible": at.compatible,
            "above_compatible": above.compatible,
            "above_k": above.first_violation,
            "above_domain": str(above.domain_capacity),
            "above_target": str(above.target_capacity),
        })
    with open(out_path, "w") as fh:
        json.dump(rows, fh)


def report_peak_rss() -> None:
    """Last stderr line: this process's peak resident set since its exec.

    VmHWM belongs to the new address space, unlike ru_maxrss, which also
    counts the parent's pages from before the exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                print(f"{RSS_MARKER}{line.split()[1]}", file=sys.stderr)


def main(argv: list[str]) -> None:
    atexit.register(report_peak_rss)  # registered first, so it runs last
    mode = argv[0]
    if mode == "setup":
        import torcap.cli  # noqa: F401  (the import is the measured work)
    elif mode == "cli":
        run_cli(argv[1], argv[2:])
    elif mode == "scan":
        run_scan(argv[1], argv[2], argv[3])
    else:
        raise SystemExit(f"unknown job mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
