"""Benchmark harness for the spectral factor pipeline.

Run from the repository root:

    python3 bench/run.py --workload roundtrip-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1     # the four in turn

Workloads (see bench/README.md for why each exists):

* ``roundtrip-small``: full divisor family of small random outer models;
* ``seasonal-large``: analyze-and-factor sessions on seasonal models, n <= 32;
* ``varma-wide``: the same sessions on VARMA(1,1) models with m = n <= 16;
* ``cli``: a fixed command mix, each command a fresh interpreter.

A run's inputs are a number of rounds of fixed composition, drawn from
``--seed``; the round count follows from ``--seconds`` alone, never from how
fast the library is, so two versions of the library run the same inputs.
``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` replays a fixed number of rounds untraced and then traced and
reports per-layer metrics.  Every op's output is checked.  The last line of
standard output is the JSON result; the line before it holds the details
(environment, sample counts, failure breakdown).
"""

import os

# Pin BLAS before numpy loads; children inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("roundtrip-small", "seasonal-large", "varma-wide", "cli")
SETUP_PROBES = 7
IMPORT_PROBES = 3
# Seconds one round took at the parent commit (1 BLAS thread, shared 2-core
# VM, mean over five seeds); they fix the round count of a run from
# --seconds.  Each op runs once and a run sums them all: on that machine a
# fixed op took 1.2 to 2 times its fastest time, in spells lasting seconds
# to minutes, so the fastest of a few repeats hinged on the spells a run
# happened to catch (over ten 18-second runs the minimum spread by 0.29 of
# its median, the median by 0.09).
ROUND_SECONDS = {"roundtrip-small": 3.1, "seasonal-large": 4.6,
                 "varma-wide": 6.6, "cli": 5.6}
# Rounds replayed by a traced run, untraced and then traced; fixed so that
# call counts compare exactly between two versions of the library.
TRACE_ROUNDS = {"roundtrip-small": 2, "seasonal-large": 2, "varma-wide": 2,
                "cli": 1}
CHILD_TIMEOUT = 60
EPS = 2.0 ** -52


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    return env


def _config(sf, workload):
    # roundtrip-small mirrors the acceptance suite's round trip; sessions use
    # the library defaults, as the CLI does.
    if workload == "roundtrip-small":
        return sf.ToleranceConfig(circle_samples=64, residual_tol=1e-7)
    return sf.DEFAULT_TOL


class Tally:
    """Outcome of every distinct op in one phase."""

    def __init__(self):
        self.latencies = []        # successful ops, seconds
        self.busy = 0.0            # seconds spent in all attempted ops
        self.attempted = 0
        self.failures = {}         # "kind:name" -> count
        self.wrong = 0             # ops whose returned output was wrong
        self.factors = 0
        self.residuals = []        # worst relative residual of each op
        self.by_label = {}

    def add(self, dt, outcome, label):
        """Record one op: ``outcome`` is ("ok", factors, residual) or
        (kind, name) with kind "typed", "crash" or "wrong"."""
        self.attempted += 1
        self.busy += dt
        if label:
            self.by_label.setdefault(label, []).append(dt)
        if outcome[0] == "ok":
            self.latencies.append(dt)
            self.factors += outcome[1]
            if outcome[2] is not None:
                self.residuals.append(outcome[2])
            return
        key = f"{outcome[0]}:{outcome[1]}"
        self.failures[key] = self.failures.get(key, 0) + 1
        if outcome[0] == "wrong":
            self.wrong += 1

    @property
    def failed(self):
        return self.attempted - len(self.latencies)


def round_count(workload, seconds):
    """Rounds that take about ``seconds`` at the parent commit."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def run_ops(tally, ops):
    """Run every ``(label, op)`` once, in order, and record it."""
    for label, op in ops:
        dt, outcome = op()
        tally.add(dt, outcome, label)


# ------------------------------------------------------------ library ops

def lib_op(sf, wl, workload, abcd, config):
    """Run one op; returns (seconds, outcome) as ``Tally.add`` takes them."""
    op = wl.roundtrip_op if workload == "roundtrip-small" else wl.session_op
    w = sf.Realization(*abcd)
    t0 = time.perf_counter()
    try:
        cp, results, reasons = op(sf, w, config)
    except sf.SpectralFactorsError as exc:
        return time.perf_counter() - t0, ("typed", type(exc).__name__)
    except Exception as exc:  # untyped breakdown: counted, never hidden
        traceback.print_exc()
        return time.perf_counter() - t0, ("crash", type(exc).__name__)
    dt = time.perf_counter() - t0
    worst, more = wl.check_family(abcd, w.n, cp, results, config.residual_tol,
                                  additivity=workload == "roundtrip-small")
    reasons = reasons + more
    if reasons:
        print(f"check failed: {reasons[0]}", file=sys.stderr)
        return dt, ("wrong", "output check")
    return dt, ("ok", len(results), worst)


def lib_ops(sf, wl, workload, seed, rounds, config):
    """One unlabelled op per model of rounds 0 .. rounds - 1."""
    draw = {"roundtrip-small": wl.roundtrip_round,
            "seasonal-large": wl.seasonal_round,
            "varma-wide": wl.varma_round}[workload]
    return [(None, functools.partial(lib_op, sf, wl, workload, abcd, config))
            for index in range(rounds) for abcd in draw(seed, index)]


# --------------------------------------------------------------- CLI ops

def _cli_command(argv, spans_path=None):
    if spans_path is None:
        return [sys.executable, "-m", "spectralfactors.cli", *argv]
    return [sys.executable, os.path.join(BENCH, "cli_traced.py"), spans_path,
            *argv]


def cli_op(wl, w, workdir, label, argv, expected, spans=None):
    """Run one command; returns (seconds, outcome) as ``Tally.add`` takes
    them.  With ``spans`` (a list) the command runs traced and its spans
    are appended."""
    spans_path = None
    if spans is not None:
        spans_path = os.path.join(workdir, f"spans-{label}.json")
    t0 = time.perf_counter()
    proc = subprocess.run(_cli_command(argv, spans_path), cwd=workdir,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    dt = time.perf_counter() - t0
    if spans_path is not None and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            spans.append(json.load(fh))
    if proc.returncode != expected:
        if "Traceback" in proc.stderr:
            kind = "crash"
        elif proc.returncode == 2:
            kind = "typed"
        else:
            kind = "wrong"
        print(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}",
              file=sys.stderr)
        return dt, (kind, f"{label}-exit{proc.returncode}")
    try:
        residual, factors, reasons = wl.check_cli(label, proc.stdout, w,
                                                  workdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        residual, factors, reasons = None, 0, [f"unreadable output: {exc}"]
    if reasons:
        print(f"{label}: check failed: {reasons[0]}", file=sys.stderr)
        return dt, ("wrong", f"{label}-check")
    return dt, ("ok", factors, residual)


def cli_ops(wl, seed, rounds, workdir, spans=None):
    """The command mix of each round, labelled, on input files generated
    into the round's own directory."""
    ops = []
    for index in range(rounds):
        rdir = os.path.join(workdir, f"round-{index}")
        os.makedirs(rdir, exist_ok=True)
        w, files = wl.cli_inputs(seed, index, rdir)
        ops += [(label, functools.partial(cli_op, wl, w, rdir, label, argv,
                                          expected, spans=spans))
                for label, argv, expected in wl.cli_mix(files, rdir)]
    return ops


# ------------------------------------------------------ set-up and import

def setup_probe(workload):
    """Child side of a set-up measurement: import, one warm-up op, then
    print the monotonic clock so the parent can time spawn-to-ready."""
    import spectralfactors as sf
    import workloads as wl
    _, outcome = lib_op(sf, wl, workload, wl.warmup_model(workload),
                        _config(sf, workload))
    print(repr(time.perf_counter()))
    return 1 if outcome[0] == "wrong" else 0


def time_setup(workload, workdir):
    """Seconds from spawning a fresh interpreter to the end of importing the
    package and one warm-up op."""
    if workload == "cli":
        cmd = _cli_command(["example"])
    else:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workdir, env=_child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-300:]}")
    if workload != "cli":
        t1 = float(proc.stdout.strip().splitlines()[-1])
    return t1 - t0


def import_breakdown(workdir):
    """Self time of each package's modules from ``python -X importtime``,
    median over a few fresh interpreters."""
    pkgs = ("scipy", "numpy", "click", "spectralfactors")
    samples = {p: [] for p in pkgs}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import spectralfactors.cli"],
            cwd=workdir, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-300:]}")
        totals = dict.fromkeys(pkgs, 0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (f.strip() for f in line[12:].split("|"))
            if not self_us.isdigit():
                continue
            top = name.split(".")[0]
            if top in totals:
                totals[top] += int(self_us)
        for p in pkgs:
            samples[p].append(totals[p] * 1e-6)
    return {f"import.{p}_s": statistics.median(samples[p]) for p in pkgs}


# ---------------------------------------------------------------- metrics

def percentile(xs, pct):
    """Linearly interpolated percentile of a non-empty sample."""
    xs = sorted(xs)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(tally, setup_s, peak_rss_mb):
    """Declared metrics, plus the report-only ones in ``details["report"]``."""
    lat = tally.latencies
    busy = tally.busy or 1.0
    # Median over ops of each op's worst residual: the worst of a whole run
    # hinges on its single hardest model and swings from seed to seed.
    residual = statistics.median(tally.residuals) if tally.residuals else 1.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "factors_per_s": (tally.factors / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "accuracy_digits": (-math.log10(max(residual, EPS)), "digits"),
    }
    # Latency percentiles are printed, not declared: over ten seeds their
    # spread on a shared 2-core machine reached the largest bound a declared
    # metric may have, while the throughputs, means over every op, stayed
    # below it.  The tail is the highest percentile with ten samples beyond.
    report = {"op_p50_s": (statistics.median(lat) if lat else None, "s"),
              "op_tail_s": (None, "s"),
              "fail_share": (tally.failed / tally.attempted, "ratio")}
    tail_pct = None
    if len(lat) > 10:
        tail_pct = round(100.0 * (1.0 - 10.0 / len(lat)), 1)
        report["op_tail_s"] = (percentile(lat, tail_pct), "s")
    details = {
        "samples": len(lat),
        "tail_percentile": tail_pct,
        "failures": tally.failures,
        "busy_s": tally.busy,
        "factors": tally.factors,
        "worst_relative_residual": max(tally.residuals, default=None),
        "report": report,
    }
    return metrics, details


def environment():
    import numpy as np
    import scipy
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except Exception:  # older numpy without dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


# ------------------------------------------------------------------- runs

def run_untraced(sf, wl, workload, seed, seconds, workdir):
    rounds = round_count(workload, seconds)
    if workload == "cli":
        ops = cli_ops(wl, seed, rounds, workdir)
    else:
        ops = lib_ops(sf, wl, workload, seed, rounds, _config(sf, workload))
    # One set-up probe before each of SETUP_PROBES slices of the ops, so the
    # probes, like the ops, span the machine's slow and fast spells.
    tally, setup_all = Tally(), []
    for k in range(SETUP_PROBES):
        setup_all.append(time_setup(workload, workdir))
        run_ops(tally, ops[k * len(ops) // SETUP_PROBES:
                           (k + 1) * len(ops) // SETUP_PROBES])
    rss = _peak_rss_mb(resource.RUSAGE_CHILDREN if workload == "cli"
                       else resource.RUSAGE_SELF)
    metrics, details = end_to_end(tally, statistics.median(setup_all), rss)
    details.update(rounds=rounds, setup_samples_s=setup_all)
    return tally, metrics, details


def run_traced(sf, wl, workload, seed, workdir):
    from tracing import Tracer, layer_metrics, merge_spans
    metrics = import_breakdown(workdir)
    rounds = TRACE_ROUNDS[workload]
    plain, traced = Tally(), Tally()
    if workload == "cli":
        run_ops(plain, cli_ops(wl, seed, rounds, workdir))
        span_lists = []
        run_ops(traced, cli_ops(wl, seed, rounds, workdir, span_lists))
        spans = merge_spans(span_lists)
    else:
        ops = lib_ops(sf, wl, workload, seed, rounds, _config(sf, workload))
        run_ops(plain, ops)
        tracer = Tracer().install()
        try:
            run_ops(traced, ops)
        finally:
            tracer.uninstall()
        spans = tracer.spans
    with open(os.path.join(OUT, f"spans-{workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(spans, fh)
    metrics.update(layer_metrics(spans))
    for label in wl.CLI_LABELS:
        times = plain.by_label.get(label)
        metrics[f"cli.{label}.s"] = statistics.median(times) if times else 0.0
    metrics["trace.overhead_share"] = traced.busy / plain.busy - 1.0
    units = {k: _layer_unit(k) for k in metrics}
    both = Tally()
    both.attempted = plain.attempted + traced.attempted
    both.wrong = plain.wrong + traced.wrong
    both.latencies = plain.latencies + traced.latencies
    details = {"rounds": rounds, "spans": len(spans),
               "failures": {"untraced": plain.failures,
                            "traced": traced.failures}}
    return both, {k: (v, units[k]) for k, v in metrics.items()}, details


def _layer_unit(name):
    if name.endswith(".calls") or name.endswith(".points"):
        return "count"
    if name.endswith("_share") or name.endswith("per_divisor"):
        return "ratio"
    return "s"


def run_all(args):
    """Each workload in its own interpreter, one after the other."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spectralfactors", "__init__.py")):
        print(f"error: no spectralfactors sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args.workload)

    import spectralfactors as sf
    import workloads as wl
    if os.path.dirname(os.path.dirname(sf.__file__)) != SRC:
        print(f"error: imported spectralfactors from {sf.__file__}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # Warm-up: writes bytecode caches and loads every lazy import.
        if args.workload == "cli":
            subprocess.run(_cli_command(["example"]), cwd=workdir,
                           env=_child_env(), capture_output=True,
                           timeout=CHILD_TIMEOUT)
        else:
            lib_op(sf, wl, args.workload, wl.warmup_model(args.workload),
                   _config(sf, args.workload))
        if args.trace:
            tally, metrics, details = run_traced(sf, wl, args.workload,
                                                 args.seed, workdir)
        else:
            tally, metrics, details = run_untraced(sf, wl, args.workload,
                                                   args.seed, args.seconds,
                                                   workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   environment=environment())
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    for name, (value, unit) in details.get("report", {}).items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<48} {shown:>14} {unit}  (reported, not declared)")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
