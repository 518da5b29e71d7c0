"""relsens benchmark: cold and warm run time, set-up time, memory and
oracle error on three paper workloads, plus an outside-in layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload column-mc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the program untouched:

- ``setup_s``: a fresh interpreter imports ``relsens.cli`` and loads the
  workload config (schema, marginal fits, Nataf fit); median of 5;
- ``run_s`` and ``peak_rss_mb``: a cold ``relsens run`` child process,
  timed from launch to exit, with the peak RSS from that child's own
  rusage (launched from a small helper, see ``spawn.py``); median over
  the run;
- ``analysis_s``: warm in-process ``pipeline.run_analysis`` after one
  untimed warm-up call; median over the run.

Each timed sample is scaled to a reference machine speed with a fixed
probe timed just before and just after it (see ``probe.py``), because the speed of a
shared host drifts within a run. The raw medians are printed and recorded
next to the scaled ones.

``--trace 1`` makes a separate traced run: it wraps relsens functions from
outside (see ``layers.py``), runs ``relsens run`` in-process with the
wrappers installed, alternating with untraced ``run_analysis`` calls, and
reports per-layer self times and work counts, import times from
``python -X importtime``, and the tracing overhead.

Every run checks its outputs: exit code, the manifest's sha256 sums,
byte-identical outputs across repetitions and against a ``--threads 2``
run, in-process results equal to the CLI's, and each workload's frozen
reference (``workloads.py``). The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the failed fraction. A full record with every
sample and the environment is written to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

# One BLAS thread: with the default pool on a 2-core machine the peak RSS of
# one and the same run varies by about 15%. Set before numpy loads, here and
# in every child.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for _var in BLAS_ENV:
        os.environ[_var] = "1"

import layers  # noqa: E402
from layertrace import import_seconds  # noqa: E402
from probe import probe_seconds, scaled  # noqa: E402
from spawn import Spawner  # noqa: E402
from workloads import WORKLOADS, check_values, make_config, size  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "analysis_s": "s",
              "peak_rss_mb": "MB"}
TIMED = ("setup_s", "run_s", "analysis_s")   # scaled by the speed probe
N_SETUP = 5
N_IMPORTTIME = 3
CHILD_TIMEOUT = 150.0
WARM_PER_COLD = 2             # warm analyses per cold run in the timed loop

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import relsens.cli
from relsens import config
config.load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


class Ledger:
    """Attempts and the problems found in them."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: {'; '.join(problems)}")


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- child processes ------------------------------------------------------------

def setup_time(cfg_path):
    out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(cfg_path)],
                         env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT, check=True)
    return float(out.stdout.split()[-1])


def import_times():
    out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import relsens.cli"],
                         env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT, check=True)
    return import_seconds(out.stderr, layers.IMPORT_PACKAGES)


# -- outputs and their checks ---------------------------------------------------

def read_run(outdir):
    """(report, problems) for a finished run directory."""
    path = Path(outdir) / "report.json"
    if not path.is_file():
        return None, ["no report.json"]
    report = json.loads(path.read_text())
    outputs = report["manifest"]["outputs"]
    problems = [] if outputs else ["manifest lists no outputs"]
    for name, digest in outputs.items():
        file = Path(outdir) / name
        if not file.is_file():
            problems.append(f"missing {name}")
        elif sha256(file) != digest:
            problems.append(f"sha256 mismatch on {name}")
    return report, problems


def report_numbers(report):
    """pf and normalized EVPPI per input from a report.json."""
    block = report["safety"] or report["design"]["report"]
    return report["pf"], {e["name"]: e["normalized"] for e in block["entries"]}


def result_numbers(result):
    """The same figures from an in-process AnalysisResult."""
    rep = result.safety_report or result.design["report"]
    return result.pf, {e.name: e.normalized for e in rep.entries}


class Reference:
    """What every repetition of one seed must reproduce."""

    def __init__(self, numbers):
        self.numbers = numbers
        self.outputs = None           # output name -> sha256 of the first run

    def check_report(self, outdir):
        report, problems = read_run(outdir)
        if report is None:
            return problems
        if report_numbers(report) != self.numbers:
            problems.append("CLI results differ from the in-process analysis")
        outputs = report["manifest"]["outputs"]
        if self.outputs is None:
            self.outputs = outputs
        elif outputs != self.outputs:
            problems.append("outputs differ from the first run of this seed")
        return problems


def checked_cold_run(ledger, spawner, ref, cfg_path, outdir, threads=1):
    """One cold ``relsens run`` child, checked: (seconds, peak RSS in MB)."""
    cmd = [sys.executable, "-m", "relsens.cli", "run", str(cfg_path),
           "--out", str(outdir), "--threads", str(threads)]
    seconds, mb, code = spawner.run(cmd, child_env(), f"{outdir}.log",
                                    CHILD_TIMEOUT)
    problems = [f"exit code {code}"] if code else ref.check_report(outdir)
    ledger.record(f"relsens run --threads {threads}", problems)
    shutil.rmtree(outdir, ignore_errors=True)
    return seconds, mb


# -- one workload ---------------------------------------------------------------

def spread(values):
    """Median, quartiles and count of a sample list."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values), "samples": values}


def warm_up(ledger, workload, cfg_path, raw):
    """Load the config in-process and run the untimed first analysis."""
    from relsens import config, pipeline

    cfg = config.load_config(cfg_path)
    numbers = result_numbers(pipeline.run_analysis(cfg))
    evppi_err, problems = check_values(workload, *numbers, raw)
    ledger.record("warm-up analysis against the workload reference", problems)
    return cfg, Reference(numbers), evppi_err


def timed_analysis(ledger, ref, cfg):
    from relsens import pipeline

    t0 = time.perf_counter()
    result = pipeline.run_analysis(cfg)
    seconds = time.perf_counter() - t0
    same = result_numbers(result) == ref.numbers
    ledger.record("warm analysis", [] if same else ["results changed"])
    return seconds


class TimedSamples:
    """Timed samples, each taken between two runs of the speed probe.

    A sample is scaled by the mean of the probe times just before and just
    after it; the probe after one sample is the probe before the next.
    """

    def __init__(self, probe=probe_seconds):
        self.probe_fn = probe
        self.before = probe()
        self.raw = {k: [] for k in TIMED}
        self.probe = {k: [] for k in TIMED}

    def add(self, name, seconds):
        """Record a sample taken since the last probe, then probe again."""
        after = self.probe_fn()
        self.raw[name].append(seconds)
        self.probe[name].append((self.before + after) / 2.0)
        self.before = after

    def stats(self):
        out = {}
        for k in TIMED:
            out[k] = spread([scaled(s, p) for s, p in
                             zip(self.raw[k], self.probe[k])])
            out[f"{k}.raw"] = spread(self.raw[k])
            out[f"{k}.probe"] = spread(self.probe[k])
        return out


def measure_untraced(workload, spawner, run_dir, cfg_path, raw, seconds,
                     ledger):
    cfg, ref, evppi_err = warm_up(ledger, workload, cfg_path, raw)
    probe_seconds()                   # warm-up: numpy's first calls
    timed = TimedSamples()
    for _ in range(N_SETUP):
        timed.add("setup_s", setup_time(cfg_path))
    rss = []
    deadline = time.perf_counter() + seconds
    while True:
        outdir = run_dir / f"out{len(rss)}"
        wall, mb = checked_cold_run(ledger, spawner, ref, cfg_path, outdir)
        timed.add("run_s", wall)
        rss.append(mb)
        for _ in range(WARM_PER_COLD):
            timed.add("analysis_s", timed_analysis(ledger, ref, cfg))
        if time.perf_counter() >= deadline:
            break
    checked_cold_run(ledger, spawner, ref, cfg_path, run_dir / "threads2",
                     threads=2)
    stats = {**timed.stats(), "peak_rss_mb": spread(rss)}
    metrics = {k: stats[k]["median"] for k in END_TO_END}
    return metrics, END_TO_END, stats, evppi_err


def measure_traced(workload, spawner, run_dir, cfg_path, raw, seconds,
                   ledger):
    from relsens import cli

    imports = [import_times() for _ in range(N_IMPORTTIME)]
    cfg, ref, evppi_err = warm_up(ledger, workload, cfg_path, raw)
    checked_cold_run(ledger, spawner, ref, cfg_path, run_dir / "reference")
    tracer = layers.build_tracer()
    untraced, reps = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(timed_analysis(ledger, ref, cfg))
        tracer.reset()
        outdir = run_dir / f"traced{len(reps)}"
        with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(cfg_path), "--out", str(outdir)])
        problems = [f"exit code {code}"] if code else ref.check_report(outdir)
        ledger.record("traced in-process relsens run", problems)
        shutil.rmtree(outdir, ignore_errors=True)
        reps.append(layers.layer_metrics(tracer))
        if time.perf_counter() >= deadline:
            break
    metrics = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    for pkg in layers.IMPORT_PACKAGES:
        metrics[f"import.{pkg}_s"] = statistics.median(i[pkg] for i in imports)
    metrics["trace.overhead_s"] = (metrics["pipeline.run_analysis.total_s"]
                                   - statistics.median(untraced))
    stats = {"untraced_analysis_s": spread(untraced), "traced_reps": reps,
             "import_s": imports}
    return metrics, layers.METRICS, stats, evppi_err


def run_workload(workload, spawner, seed, seconds, trace):
    run_dir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ledger = Ledger()
    try:
        cfg_path = run_dir / "config.json"
        raw = make_config(workload, ROOT, seed, cfg_path)
        measure = measure_traced if trace else measure_untraced
        metrics, units, stats, evppi_err = measure(
            workload, spawner, run_dir, cfg_path, raw, seconds, ledger)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "workload": workload.name, "why": workload.why, "size": size(raw),
        "seed": seed, "seconds": seconds, "trace": trace,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "evppi_err": evppi_err,
        "evppi_tol": workload.evppi_tol,
        "attempted": ledger.attempted, "failed": len(ledger.problems),
        "failed_frac": len(ledger.problems) / ledger.attempted,
        "problems": ledger.problems, "stats": stats,
    }


# -- reporting ------------------------------------------------------------------

def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "relsens_threads": 1,
    }


def print_result(res):
    sizes = ", ".join(f"{k} {v}" for k, v in res["size"].items())
    print(f"workload {res['workload']}  seed {res['seed']}  ({sizes})")
    stats = res["stats"]
    for name, m in res["metrics"].items():
        line = f"  {name:<44} {m['value']:<14.6g} {m['unit']}"
        if name in stats:
            s = stats[name]
            line += f"   median of {s['n']}, quartiles {s['q1']:.6g}..{s['q3']:.6g}"
        if f"{name}.raw" in stats:
            line += f", raw median {stats[name + '.raw']['median']:.6g}"
        print(line)
    if res["evppi_err"] is not None:
        print(f"  {'evppi_err':<44} {res['evppi_err']:<14.6g} 1"
              f"   max |normalized EVPPI - analytic oracle|, tolerance "
              f"{res['evppi_tol']:g}")
    print(f"  {'failed_frac':<44} {res['failed_frac']:<14.6g} 1"
          f"   {res['failed']} of {res['attempted']} attempts failed")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "relsens" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"relsens sources not found under {ROOT}: run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("env " + json.dumps(env))
    results = []
    with Spawner() as spawner:
        for name in names:
            res = run_workload(WORKLOADS[name], spawner, args.seed,
                               args.seconds, args.trace)
            res["env"] = env
            print_result(res)
            out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(res, indent=1))
            results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m
                   for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
