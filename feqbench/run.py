"""Benchmark runner for feqlab.

Run from the root of a feqlab checkout:

    python3 feqbench/run.py --workload catalog-solve --seed 3 --seconds 30 --trace 0
    python3 feqbench/run.py --workload all          # every workload, one table

A run sets up (imports feqlab, builds the seeded cases), then repeats
passes over the cases until ``--seconds`` would be exceeded, checks every
verdict, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones (wall_norm_s, setup_s, peak_rss_mb); with ``--trace 1``
traced and untraced passes alternate and the metrics are the per-layer ones
(see LAYERS.md). Details of each run, and the spans of a traced run, are
written to ``.feqbench/`` at the checkout root.

``--record-digests`` reruns every workload once at the default seed and
stores the digests of their outputs in ``digests.json``; do that only when
a change to the output is intended.
"""

import os

# BLAS is pinned before numpy loads; child processes inherit the setting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".feqbench"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 7       # fresh processes timed for setup_s
SETUP_REF_SAMPLES = 8   # slowdown samples before and after each of them
PASS_REF_SAMPLES = 64   # slowdown samples per pass, at least
CLI_SAMPLES = 2         # cases rerun as `python -m feqlab.cli` per run
CLI_SAMPLE_MAX_S = 0.5  # only cases this quick in-process are rerun
DIGEST_ENV = ("numpy", "openblas", "openblas_core")  # what digests depend on


@dataclass
class Pass:
    traced: bool
    wall: float         # sum of the case times
    norm: float         # the same at the nominal machine speed (speed.py)
    elapsed: float      # the whole pass, reference timings included
    codes: list
    texts: list
    case_times: list
    metrics: dict = None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the benchmark's own tests")
    p.add_argument("--record-digests", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.record_digests and not args.workload:
        p.error("--workload is required")
    return args


# --- environment ----------------------------------------------------------


def _git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def _openblas():
    """OpenBLAS config, core and thread count, read from numpy's own copy."""
    import numpy as np
    info = {"blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
        for key, fn, restype in (
                ("openblas", "scipy_openblas_get_config64_", ctypes.c_char_p),
                ("openblas_core", "scipy_openblas_get_corename64_",
                 ctypes.c_char_p),
                ("blas_threads", "scipy_openblas_get_num_threads64_",
                 ctypes.c_int)):
            f = getattr(lib, fn)
            f.restype = restype
            value = f()
            info[key] = value.decode() if isinstance(value, bytes) else value
    except (IndexError, OSError, AttributeError):
        blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    return info


def environment(seed):
    import numpy as np
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            **_openblas(), "platform": platform.platform(), "seed": seed}


# --- measuring ------------------------------------------------------------


def _probe_setup(args):
    """Seconds from starting a fresh process to its cases being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {line!r}, exit {proc.returncode}")
    return elapsed


def _setup_samples(args):
    """The setup times of SETUP_SAMPLES fresh processes, and the mean
    slowdown measured before, between and after them."""
    from speed import slowdown
    plain, slow = [], [slowdown(SETUP_REF_SAMPLES)]
    for _ in range(SETUP_SAMPLES):
        plain.append(_probe_setup(args))
        slow.append(slowdown(SETUP_REF_SAMPLES))
    return plain, statistics.mean(slow)


def _run_pass(cases, tracer):
    """One pass over the cases, with the machine's slowdown measured before
    the first case, between every two and after the last, PASS_REF_SAMPLES
    times at least in all. The pass time is divided by the mean slowdown."""
    from workloads import Outcome
    from tracing import pass_metrics
    from speed import slowdown

    first = len(tracer.spans) if tracer else 0
    per_gap = -(-PASS_REF_SAMPLES // (len(cases) + 1))
    outcomes, times, slow = [], [], [slowdown(per_gap)]
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        for case in cases:
            t = time.perf_counter()
            try:
                out = case.run()
            except Exception:  # a crashing case is a failed case, not a crash
                out = Outcome("exception", traceback.format_exc())
            times.append(time.perf_counter() - t)
            outcomes.append(out)
            slow.append(slowdown(per_gap))
        elapsed = time.perf_counter() - t0
    norm = sum(times) / statistics.mean(slow)
    metrics = (pass_metrics(tracer.spans, first, tracer.take_counts())
               if tracer else None)
    return Pass(tracer is not None, sum(times), norm, elapsed,
                [o.code for o in outcomes], [o.text for o in outcomes],
                times, metrics), outcomes


def _check(cases, outcomes, digests):
    """(case index, case id, reason) for every case whose result is wrong."""
    from workloads import CheckFailed, digest
    bad = []
    for i, (case, out) in enumerate(zip(cases, outcomes)):
        try:
            case.check(out)
            want = digests.get(case.id)
            if want is not None and digest(out.text) != want:
                raise CheckFailed("stdout digest differs from the stored one")
        except CheckFailed as why:
            bad.append((i, case.id, str(why)))
    return bad


def _cli_subprocess_checks(cases, first, seed):
    """Rerun a seeded sample of quick CLI cases as `python -m feqlab.cli`
    and compare exit code and stdout with the in-process call."""
    quick = [i for i, c in enumerate(cases)
             if c.argv is not None and first.case_times[i] < CLI_SAMPLE_MAX_S]
    picked = random.Random(seed).sample(quick, min(CLI_SAMPLES, len(quick)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    results = []
    for i in picked:
        proc = subprocess.run([sys.executable, "-m", "feqlab.cli", *cases[i].argv],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        same = (proc.returncode == first.codes[i]
                and proc.stdout == first.texts[i])
        results.append((cases[i].id, same, proc.returncode))
    return results


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _measure(cases, tracer, seconds, digests):
    """Passes until the next one would end after `seconds`, and the wrong
    results as {(pass, case index): reason}.

    A traced run alternates traced and untraced passes, traced first, so
    that the first traced pass sees every rise of the peak RSS.
    """
    passes, failures = [], {}
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        rec, outcomes = _run_pass(cases, tracer if traced else None)
        for i, case_id, why in _check(cases, outcomes, digests):
            failures[len(passes), i] = f"{case_id}: {why}"
        passes.append(rec)
        elapsed = time.perf_counter() - begin
        if (len(passes) >= (2 if tracer else 1)
                and elapsed + max(p.elapsed for p in passes[-2:]) > seconds):
            return passes, failures


def run_workload(args):
    import workloads
    from tracing import Tracer

    env = environment(args.seed)
    digests = _load_digests(env).get(args.workload, {})
    setup_plain, setup_slowdown = _setup_samples(args)
    setup_s = statistics.median(setup_plain) / setup_slowdown
    cases = workloads.make_cases(args.workload, args.seed, args.size)
    tracer = Tracer() if args.trace else None
    passes, failures = _measure(cases, tracer, args.seconds, digests)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    for p_idx, p in enumerate(passes):
        for i, case in enumerate(cases):
            if (p.codes[i], p.texts[i]) != (plain[0].codes[i], plain[0].texts[i]):
                failures.setdefault((p_idx, i), f"{case.id}: stdout or exit "
                                    "code differs from the first untraced pass")
    cli_checks = _cli_subprocess_checks(cases, plain[0], args.seed)
    for j, (case_id, same, code) in enumerate(cli_checks):
        if not same:
            failures["cli", j] = (f"{case_id}: `python -m feqlab.cli` gives "
                                  f"other stdout or exit code ({code})")
    attempted = len(passes) * len(cases) + len(cli_checks)

    walls = [p.wall for p in plain]
    wall_s, (q1, q3) = statistics.median(walls), _quartiles(walls)
    norms = [p.norm for p in plain]
    wall_norm_s, (nq1, nq3) = statistics.median(norms), _quartiles(norms)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        # the high-water RSS can only rise in the first traced pass
        metrics = {k: (max if k.endswith("rss_rise_mb") else statistics.median)(
                       [p.metrics[k] for p in traced]) for k in traced[0].metrics}
        metrics["trace_overhead_ratio"] = (
            statistics.median(p.norm for p in traced) / wall_norm_s)
    else:
        metrics = {"wall_norm_s": wall_norm_s,
                   "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
    reasons = list(failures.values())
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "cases_per_pass": len(cases), "setup_samples_s": setup_plain,
        "setup_slowdown": setup_slowdown,
        "digests_checked": sum(c.id in digests for c in cases),
        "passes": [{"traced": p.traced, "wall_s": p.wall, "wall_norm_s": p.norm,
                    "elapsed_s": p.elapsed} for p in passes],
        "wall_s": {"median": wall_s, "q1": q1, "q3": q3, "n": len(walls)},
        "wall_norm_s": {"median": wall_norm_s, "q1": nq1, "q3": nq3,
                        "n": len(norms)},
        "peak_rss_mb": peak_rss_mb, "attempted": attempted,
        "failed": len(failures), "failures": reasons[:100],
        "cli_subprocess_checks": cli_checks, "metrics": metrics,
    }
    if tracer:
        record.update(unwrapped=tracer.unwrapped,
                      span_names=sorted({s[0] for s in tracer.spans}),
                      spans=tracer.spans,
                      layer_metrics_per_pass=[p.metrics for p in traced])
    OUT_DIR.mkdir(exist_ok=True)
    kind = "trace" if tracer else "result"
    (OUT_DIR / f"{kind}-{args.workload}.json").write_text(json.dumps(record))

    print(f"feqbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(passes)} cases/pass={len(cases)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"wall_s {wall_s:.4f} s  (median of {len(walls)} untraced passes; "
          f"q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"wall_norm_s {wall_norm_s:.4f} s  (the same at the nominal machine "
          f"speed; q1 {nq1:.4f}, q3 {nq3:.4f})")
    print(f"setup_s {setup_s:.4f} s  (median of {len(setup_plain)} fresh "
          f"processes at the nominal machine speed; plain "
          f"{statistics.median(setup_plain):.4f} s)")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"failed_ratio {len(failures) / attempted:.4g}  "
          f"({len(failures)} of {attempted} cases)")
    for line in reasons[:10]:
        print(f"FAIL {line}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


def _unit(metric):
    if metric.endswith("_s") or ".case_s." in metric:
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


# --- other modes ----------------------------------------------------------


def _load_digests(env):
    """Stored digests per workload and case id, or {} where they cannot
    apply: another numpy or OpenBLAS kernel may change the last bits of the
    floats the CLI prints in full."""
    if not DIGESTS.is_file():
        return {}
    stored = json.loads(DIGESTS.read_text())
    if any(stored["recorded_with"].get(k) != env.get(k) for k in DIGEST_ENV):
        return {}
    return stored["workloads"]


def record_digests():
    import workloads
    from workloads import DEFAULT_SEED, digest
    table = {}
    for name in workloads.BUILDERS:
        cases = workloads.make_cases(name, DEFAULT_SEED, "full")
        _, outcomes = _run_pass(cases, None)
        bad = _check(cases, outcomes, {})
        if bad:
            for _, case_id, why in bad:
                print(f"FAIL {case_id}: {why}", file=sys.stderr)
            return 1
        table[name] = {c.id: digest(o.text) for c, o in zip(cases, outcomes)}
        print(f"{name}: {len(cases)} digests")
    DIGESTS.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "recorded_with": environment(DEFAULT_SEED),
         "workloads": table}, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args):
    import workloads
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0,
                       "metrics": {}}
    for name in workloads.BUILDERS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
        kind = "trace" if args.trace else "result"
        record = json.loads((OUT_DIR / f"{kind}-{name}.json").read_text())
        rows.append((name, result, record["wall_s"]["median"]))
    keys = list(rows[0][1]["metrics"])
    print("workload".ljust(15) + "".join(f"{k:>24}" for k in keys)
          + f"{'wall_s':>24}{'failed_ratio':>16}")
    for name, result, wall_s in rows:
        cells = "".join(f"{m['value']:>20.4f} {m['unit']:<3}"
                        for m in result["metrics"].values())
        ratio = result["failed"] / result["attempted"]
        print(name.ljust(15) + cells + f"{wall_s:>20.4f} s  "
              + f"{ratio:>16.4g}")
    print(json.dumps(total))
    return 0


def setup_probe(args):
    import workloads
    workloads.make_cases(args.workload, args.seed, args.size)
    print("ready", flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "feqlab" / "__init__.py").is_file():
        print(f"error: no feqlab sources at {SRC}; run from the root of a "
              "feqlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in (None, "all", *workloads.BUILDERS):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.BUILDERS)} or all", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
