"""Benchmark harness for torcap.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports torcap from its `src`.  One
process, pinned to one CPU, runs one job at a time.  A round is the
workload's fixed job list; the run repeats whole rounds until S seconds have
passed and reports medians over rounds, so the metrics measure the work and
not the window.  Every time is calibration-corrected (see calibrate.py).

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of traced rounds, alternated with
untraced rounds to measure the tracing overhead.  Diagnostics (raw seconds,
reference speed, per-job figures) go to bench/out/.  Exit code 2, with no
result line, when torcap cannot be imported or set up.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from calibrate import NOMINAL_REF_S, Calibrator, pin_to_one_cpu
from job import RSS_MARKER
from tracing import CALL_COUNTS, SELF_TIMES

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_RUNS = 7
JOB_TIMEOUT_S = 60

END_TO_END = {
    "wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "polygon_p50_ms": "ms", "polygon_tail_ms": "ms",
}
IMPORT_METRICS = {"cli.import_s": ("torcap", "torcap.cli"), "corpus.import_s": ("torcap.corpus",)}


def per_layer_units() -> dict:
    units = {f"{name}.self_s": "s" for name in SELF_TIMES}
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    for name in ("capacities.calg.table_builds", "capacities.concave_weights.weights",
                 "capacities.ech_concave_capacities.maxplus_cells", "oracle.scanned_vectors"):
        units[name] = "count"
    units.update(dict.fromkeys(IMPORT_METRICS, "s"))
    units["trace.overhead_pct"] = "%"
    return units


class Fatal(Exception):
    """The program cannot be run at all: no result is printed."""


@dataclasses.dataclass
class Op:
    """One operation of a round: a CLI job or one polygon of a scan."""

    name: str
    raw_s: float
    ref_s: float   # reference seconds around it
    norm_s: float  # calibrated seconds
    problems: list
    rss_kb: int = 0
    trace: dict | None = None  # per-layer summary of a traced job


def spawn(args: list[str], cwd: str, python_flags=()) -> tuple:
    """Run job.py in a fresh interpreter: (exit code or None, stdout,
    stderr without the peak-RSS line, raw seconds, peak RSS in kB)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, *python_flags, os.path.join(BENCH, "job.py"), *args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = None, exc.stdout or "", f"timed out after {JOB_TIMEOUT_S} s"
        out = out if isinstance(out, str) else out.decode()
    raw = time.perf_counter() - start
    rss_kb = 0
    kept = []
    for line in err.splitlines():
        if line.startswith(RSS_MARKER):
            rss_kb = int(line[len(RSS_MARKER):])
        else:
            kept.append(line)
    return code, out, "\n".join(kept), raw, rss_kb


def scaled(summary: dict, scale: float) -> dict:
    return {k: v * scale if k.endswith("_s") else v for k, v in summary.items()}


def load_trace(path: str, scale: float):
    with open(path) as fh:
        summary = json.load(fh)
    os.remove(path)
    return scaled(summary, scale)


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload, self.workdir = workload, workdir
        self.cal = Calibrator()
        self.trace_path = os.path.join(workdir, "trace.json")
        self.jobs = []
        if workload == "family-scan":
            self.polygons = workloads.placed_family(seed)
        else:
            self.jobs = {"alg-sweep": workloads.alg_sweep, "ech-concave": workloads.ech_concave,
                         "verify": workloads.verify}[workload](seed)
        self.weight_problems = self._check_weights()
        for job in self.jobs:
            for name, text in job.files.items():
                with open(os.path.join(workdir, name), "w") as fh:
                    fh.write(text)

    def _check_weights(self) -> dict:
        """Weight expansions of the non-ellipsoid chains, checked once per run
        outside the timed jobs: the `ech concave` command does not print them."""
        chains = {job.name: job.chain for job in self.jobs if job.chain}
        if not chains:
            return {}
        sys.path.insert(0, SRC)
        from torcap.capacities import ConcaveDomain, concave_weights

        return {name: workloads.weights_problems(concave_weights(ConcaveDomain(chain)), chain)
                for name, chain in chains.items()}

    def round(self, traced: bool) -> list[Op]:
        if self.workload == "family-scan":
            return self._scan_round(traced)
        ops = []
        trace = self.trace_path if traced else "-"
        for job in self.jobs:
            code, out, err, raw, rss = spawn(["cli", trace, *job.args], self.workdir)
            ref, scale = self.cal.close()
            problems = job.check(out, code) + self.weight_problems.get(job.name, [])
            if problems and err:
                problems.append(err.splitlines()[-1])
            summary = load_trace(trace, scale) if traced and os.path.exists(trace) else None
            ops.append(Op(job.name, raw, ref, raw * scale, problems, rss, summary))
        return ops

    def _scan_round(self, traced: bool) -> list[Op]:
        spec = os.path.join(self.workdir, "family.json")
        result = os.path.join(self.workdir, "family-out.json")
        with open(spec, "w") as fh:
            json.dump({"k": workloads.FAMILY_K, "over": str(workloads.FAMILY_OVER),
                       "polygons": [[[str(x), str(y)] for x, y in p] for p in self.polygons]}, fh)
        trace = self.trace_path if traced else "-"
        code, _out, err, _raw, rss = spawn(["scan", trace, spec, result], self.workdir)
        names = [" ".join(f"{x},{y}" for x, y in p) for p in self.polygons]
        if code != 0:
            reason = [f"scan exit code {code}: {err.splitlines()[-1] if err else ''}"]
            return [Op(n, 0.0, NOMINAL_REF_S, 0.0, reason) for n in names]
        with open(result) as fh:
            rows = json.load(fh)
        ops = [Op(n, r["raw_s"], r["ref_s"], r["norm_s"], workloads.family_problems(p, r))
               for n, p, r in zip(names, self.polygons, rows)]
        ops[0].rss_kb = rss
        if traced:
            # the scan calibrates per polygon; scale its layer times by the
            # same overall factor
            factor = sum(op.norm_s for op in ops) / sum(op.raw_s for op in ops)
            ops[0].trace = load_trace(trace, factor)
        return ops

    def import_times(self) -> dict:
        """Cumulative import times from -X importtime, calibrated."""
        code, _out, err, _raw, _rss = spawn(["setup"], self.workdir, ("-X", "importtime"))
        _ref, scale = self.cal.close()
        if code != 0:
            raise Fatal(f"importing torcap failed: {err}")
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _self, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e6
        return {metric: sum(cumulative[m] for m in modules) * scale
                for metric, modules in IMPORT_METRICS.items()}

    def setup_time(self) -> tuple[float, float]:
        """Fresh interpreter to an imported CLI (click, torcap, the corpus
        build): (median calibrated seconds, median raw seconds)."""
        norm, raw = [], []
        for _ in range(SETUP_RUNS):
            code, _out, err, seconds, _rss = spawn(["setup"], self.workdir)
            _ref, scale = self.cal.close()
            if code != 0:
                raise Fatal(f"importing torcap failed: {err}")
            raw.append(seconds)
            norm.append(seconds * scale)
        return statistics.median(norm), statistics.median(raw)


def tail(values: list[float]) -> float:
    """The value with ten values beyond it, or the largest of fewer than 11."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11 if len(ordered) > 10 else -1]


def end_to_end(rounds: list[list[Op]], setup_s: float) -> dict:
    per_op = [statistics.median(r[i].norm_s for r in rounds) for i in range(len(rounds[0]))]
    return {
        "wall_norm_s": statistics.median(sum(op.norm_s for op in r) for r in rounds),
        "setup_s": setup_s,
        "peak_rss_mb": max(op.rss_kb for r in rounds for op in r) / 1024,
        "polygon_p50_ms": statistics.median(per_op) * 1000,
        "polygon_tail_ms": tail(per_op) * 1000,
    }


def per_layer(traced: list[list[Op]], plain: list[list[Op]], imports: list[dict]) -> dict:
    def round_total(r):
        total = {}
        for op in r:
            for name, value in (op.trace or {}).items():
                total[name] = total.get(name, 0) + value
        return total

    totals = [round_total(r) for r in traced]
    out = {name: statistics.median(t.get(name, 0) for t in totals) for name in totals[0]}
    for name in IMPORT_METRICS:
        out[name] = statistics.median(i[name] for i in imports)
    wall = [statistics.median(sum(op.norm_s for op in r) for r in rs) for rs in (traced, plain)]
    out["trace.overhead_pct"] = (wall[0] / wall[1] - 1) * 100
    return out


def diagnostics(rounds: list[list[Op]]) -> dict:
    """Raw seconds and reference speed beside the calibrated figures."""
    names = [op.name for op in rounds[0]]
    return {
        "rounds": len(rounds),
        "raw_round_s": statistics.median(sum(op.raw_s for op in r) for r in rounds),
        "reference_s": statistics.median(op.ref_s for r in rounds for op in r),
        "ops": [{"name": n,
                 "raw_s": statistics.median(r[i].raw_s for r in rounds),
                 "norm_s": statistics.median(r[i].norm_s for r in rounds),
                 "reference_s": statistics.median(r[i].ref_s for r in rounds)}
                for i, n in enumerate(names)],
        "round_ops": [[[op.raw_s, op.ref_s] for op in r] for r in rounds],
    }


WORKLOADS = ("alg-sweep", "ech-concave", "family-scan", "verify")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "torcap", "__init__.py")):
        print(f"error: no torcap sources under {SRC}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        spawn(["setup"], workdir)  # untimed: leaves compiled bytecode behind
        if args.trace:
            imports = [runner.import_times() for _ in range(3)]
        else:
            setup_s, setup_raw = runner.setup_time()
        plain: list[list[Op]] = []
        traced: list[list[Op]] = []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            plain.append(runner.round(traced=False))
            if args.trace:
                traced.append(runner.round(traced=True))
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if op.problems]
    if args.trace:
        values = per_layer(traced, plain, imports)
        units = per_layer_units()
    else:
        values = end_to_end(plain, setup_s)
        units = END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        # a layer that no traced job reached (only when jobs failed) reads 0
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu": cpu, "python": platform.python_version(),
        "machine": platform.machine(), "nominal_reference_s": NOMINAL_REF_S,
        "untraced": diagnostics(plain), "probes_s": runner.cal.probes,
        "failures": [{"op": op.name, "problems": op.problems} for op in failed[:20]],
        "result": result,
    }
    if args.trace:
        report["traced"] = diagnostics(traced)
    else:
        report["setup_raw_s"] = setup_raw
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    for op in failed[:5]:
        print(f"FAILED {op.name}: {'; '.join(op.problems)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
