#!/usr/bin/env python3
"""Benchmark of toricomplex: the sweep, search and cli workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each run is a closed loop with one client in one process.  Inputs come
from ``--seed`` (see workloads.py); the documents of the fixed prefix
are made before any clock runs, and the library only sees the generated
documents.  setup_s is the library's own part of set-up: the CPU time a
fresh interpreter spends in ``import toricomplex.cli``.  Every output is checked
from outside the library, so the checks survive ``python -O``.

``--trace 0`` runs ops with nothing wrapped until they have taken
``--seconds`` reference seconds (see below), and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed list of
ops in three child processes (one untraced, two traced, see spans.py)
and reports per-layer metrics per op; the two traced passes must count
exactly the same calls, or the run stops with an error.  trace.pass_gap
says how far their self times differ.

Times are CPU seconds (of the benchmark process, or of the child for a
cli op), scaled to reference seconds: before each op a fixed kernel runs
(reference.py), and the op's time is multiplied by REFERENCE_S over the
kernel's recent median time.  That cancels most of the drift in speed of
a shared host.  The raw CPU figures go to the record in .perfbench/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it names every
metric with its unit, plus fail_ratio and the percentile behind
latency_tail_s.  A fuller record, with the environment, goes to
.perfbench/results/.

meta.json holds the default and held-out seeds, the digests of the
canonical outputs of the default seed's fixed prefix (checked on every
run with that seed), which layers each workload should stress or
bypass (BENCHMARK.json says why it exists), which end-to-end metric each per-layer metric should
move on which workload, and the numbers measured at the commit that
added the benchmark.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
META = json.loads((HERE / "meta.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import workloads  # noqa: E402

# Per workload: the op stream, and the fixed number of leading ops that
# every run completes.  Those ops carry the output digest and form the
# op list of the traced passes.
STREAMS = {"sweep": workloads.sweep_ops, "search": workloads.search_ops,
           "cli": workloads.cli_ops}
FIXED_OPS = {"sweep": 192, "search": 28, "cli": 88}
SETUP_REPEATS = 11
# A run stops at this many times --seconds on the clock even if its ops
# have not yet taken --seconds reference seconds (a slow host).
WALL_LIMIT = 2
# The CPU seconds a fresh interpreter spends importing the library, then
# the median time of the reference kernel in that same interpreter.  The
# kernel runs after the import so that the modules it needs (fractions)
# are still counted as part of the import.
IMPORT_PROBE = (
    "import sys, time; t = time.process_time(); import toricomplex.cli;"
    " t = time.process_time() - t; sys.path.insert(0, sys.argv[1]);"
    " import reference, statistics;"
    " print(t, statistics.median(reference.sample() for _ in range(3)))")

# Per-layer metrics of the traced run, each normalised per op.
CALLS = ("fan.validate_fan", "pairmodel.pair_class_group", "lattice.snf",
         "lattice.simplex_solve")
SELF_TIMES = ("fan.validate_fan", "fan.is_complete", "pairmodel.build_pair",
              "lattice.snf", "lattice.rank_q", "complexity.minimize",
              "lattice.simplex_solve", "lattice.hilbert_basis", "cli.run")
# calls / distinct fans passed
REDUNDANT = ("fan.validate_fan", "divisor.class_group")
LAYER_SELF_TIMES = ("fan", "pairmodel", "divisor", "complexity", "lattice",
                    "adjunction", "birational", "conecox")


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _import_library():
    if not (SRC / "toricomplex" / "__init__.py").is_file():
        raise BenchmarkError(f"no toricomplex package under {SRC}")
    sys.path.insert(0, str(SRC))
    import toricomplex
    return toricomplex


def _pin_to_one_cpu():
    """Keep the benchmark and every child it starts on one CPU, so that
    the reference kernel and the op it scales run on the same CPU: on a
    shared host each CPU drifts in speed on its own."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _python():
    return [sys.executable] + (["-O"] * sys.flags.optimize)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# ---------------------------------------------------------------------------
# set-up


class Workload:
    """The op stream of one run, with documents serialized up front.

    The fixed prefix is made during set-up and kept.  Later ops are made
    one at a time, outside any timed region, and dropped after use, so a
    faster program never runs out of fresh documents and the memory the
    harness holds does not grow with the number of ops.
    """

    def __init__(self, name, seed, workdir):
        self.name = name
        self.stream = STREAMS[name](seed)
        self.workdir = workdir
        self.prefix = [self._prepare(k, op) for k, op in
                       enumerate(islice(self.stream, FIXED_OPS[name]))]
        self.made = len(self.prefix)

    def _prepare(self, k, op):
        if self.name != "cli":
            return dict(op, text=json.dumps(op["doc"]))
        argv = list(op["argv"])
        if op["doc"] is not None:
            path = self.workdir / f"{k:05d}-{op['cls']}.json"
            path.write_text(json.dumps(op["doc"]), encoding="utf-8")
            argv += ["--input", str(path)]
        return dict(op, argv=argv + ["--format", "json"])

    def op(self, k):
        """Op k; past the prefix, ops must be asked for in order."""
        if k < len(self.prefix):
            return self.prefix[k]
        if k != self.made:
            raise IndexError(f"op {k} asked for out of order")
        self.made += 1
        return self._prepare(k, next(self.stream))


def make_workload(name, seed, workdir):
    """The documents of the fixed prefix, written before any clock runs."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return Workload(name, seed, workdir)


def import_seconds():
    """Reference seconds a fresh interpreter spends in `import
    toricomplex.cli`, timed inside the child, so that interpreter start
    and the harness's own work are left out."""
    probe = subprocess.run(_python() + ["-c", IMPORT_PROBE, str(HERE)],
                           env=_child_env(), cwd=ROOT, capture_output=True,
                           text=True)
    if probe.returncode != 0:
        raise BenchmarkError(probe.stderr.strip())
    cpu_s, kernel_s = map(float, probe.stdout.split())
    return cpu_s * reference.REFERENCE_S / kernel_s


# ---------------------------------------------------------------------------
# ops and their checks


_rat = workloads.rat_text


def _dec(dec):
    return {"parts": [[_rat(p.weight), [_rat(c) for c in p.coeffs]]
                      for p in dec.parts],
            "orbifold": list(dec.orbifold)}


def pair_op(lib, op):
    """pair_from_dict -> is_log_cy -> minimize [-> check_adjunction]."""
    doc = json.loads(op["text"])
    start = process_time()
    pair = lib.pair_from_dict(doc)
    log_cy = lib.is_log_cy(pair)
    rep = lib.minimize(pair)
    adj = None
    if op.get("adjoin_ray") is not None:
        try:
            adj = lib.check_adjunction(pair, rep.dec_orb, op["adjoin_ray"])
        except (lib.HypothesisViolationError, lib.LcViolationError) as exc:
            adj = type(exc).__name__  # a verdict, not a failure
    return process_time() - start, (pair, log_cy, rep, adj)


def check_pair(lib, result):
    """(problems, canonical output) of one sweep or search op."""
    pair, log_cy, rep, adj = result
    problems = []
    if lib.fine_complexity(pair, rep.dec_fine) != rep.c_fine:
        problems.append("fine_complexity(dec_fine) != c_fine")
    if lib.orbifold_complexity(pair, rep.dec_orb) != rep.c_orb:
        problems.append("orbifold_complexity(dec_orb) != c_orb")
    if not rep.c >= rep.c_fine >= rep.c_orb:
        problems.append("c >= c_fine >= c_orb fails")
    if adj is None or isinstance(adj, str):
        adjunction = adj
    else:
        if not adj.monotone:
            problems.append("adjunction increased the orbifold complexity")
        adjunction = {"value_x": _rat(adj.value_x),
                      "value_e": _rat(adj.value_e),
                      "sigma": _dec(adj.result.sigma)}
    canon = {"log_cy": log_cy, "c": _rat(rep.c), "c_fine": _rat(rep.c_fine),
             "c_orb": _rat(rep.c_orb), "cl_rank": rep.cl_rank,
             "dec_fine": _dec(rep.dec_fine), "dec_orb": _dec(rep.dec_orb),
             "adjunction": adjunction}
    return problems, json.dumps(canon, sort_keys=True)


def _run_child(args):
    """A child interpreter, reaped with wait4 for its CPU time and peak
    RSS: (CPU seconds, exit code, stdout, stderr, peak RSS in KiB)."""
    with subprocess.Popen(_python() + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_child_env(),
                          cwd=ROOT) as proc:
        try:
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (usage.ru_utime + usage.ru_stime, proc.returncode, out.decode(),
            err.decode(), usage.ru_maxrss)


def child_op(_lib, op):
    """One `python -m toricomplex.cli` process; returns its CPU seconds."""
    cpu, *result = _run_child(["-m", "toricomplex.cli"] + op["argv"])
    return cpu, tuple(result)


def inprocess_cli_op(lib, op):
    """The same argv replayed through cli.run, stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    start = process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run(op["argv"])
    return process_time() - start, (code, out.getvalue(), err.getvalue(), 0)


def check_cli(op, result):
    code, out, err, _ = result
    problems = []
    if code != op["expect_exit"]:
        problems.append(
            f"exit {code}, want {op['expect_exit']}: {err.strip()}")
    try:
        payload = json.loads(out)
    except ValueError:
        return problems + ["stdout is not JSON"], out
    if payload.get("ok") is not op["expect_ok"]:
        problems.append(f"ok is {payload.get('ok')!r}")
    if op["cls"] == "minimize":
        c, fine, orb = (Fraction(payload[k])
                        for k in ("c", "c_fine", "c_orb"))
        if not c >= fine >= orb:
            problems.append("c >= c_fine >= c_orb fails")
    return problems, out


class Tally:
    """Checks each output as it arrives and keeps only the verdicts, so
    the outputs of earlier ops do not pile up in memory."""

    def __init__(self, lib, name):
        self.lib = lib
        self.name = name
        self.ops = 0
        self.bad = set()  # indices of ops that failed or gave wrong output
        self.problems = []
        self.digests = []  # of the canonical outputs of the fixed prefix
        self.child_rss_kib = 0

    def __call__(self, k, op, result):
        self.ops += 1
        if isinstance(result, BaseException):
            bad, canon = [f"{type(result).__name__}: {result}"], ""
        elif self.name == "cli":
            self.child_rss_kib = max(self.child_rss_kib, result[3])
            bad, canon = check_cli(op, result)
        else:
            bad, canon = check_pair(self.lib, result)
        if k < FIXED_OPS[self.name]:
            digest = hashlib.sha256(canon.encode()).hexdigest()
            self.digests.append(digest[:16])
        if bad:
            self.bad.add(k)
            self.problems.append(f"op {k}: " + "; ".join(bad))

    def compare_digests(self, seed):
        """On the default seed, the canonical outputs of the fixed prefix
        must equal those recorded when the benchmark was added."""
        recorded = META["digests"].get(self.name)
        if seed != META["default_seed"] or not recorded:
            return
        for k, (a, b) in enumerate(zip(self.digests, recorded)):
            if a != b:
                self.bad.add(k)
                self.problems.append(
                    f"op {k}: output differs from the recorded digest")


def run_ops(lib, name, wl, runner, after, scale, seconds=0, on_op=None):
    """Closed loop, one client: the next op starts when the last ends.
    Runs the fixed prefix, then more ops until they have taken ``seconds``
    reference seconds together, or WALL_LIMIT times that on the clock.
    Counting reference seconds makes the number of ops in a run depend on
    the program's speed and not on the host's, which keeps the tail
    percentile in the same place from run to run.  The reference kernel
    and ``after(k, op, result)`` run between ops, outside the timed
    region.  Returns (class, reference seconds, CPU seconds) per op."""
    latencies = []
    deadline = perf_counter() + WALL_LIMIT * seconds
    busy = 0.0
    k = 0
    while k < FIXED_OPS[name] or (busy < seconds
                                  and perf_counter() < deadline):
        op = wl.op(k)
        scale.measure()
        if on_op:
            on_op(k)
        try:
            elapsed, result = runner(lib, op)
        except Exception as exc:  # a failed op is recorded, not fatal
            elapsed, result = float("nan"), exc
        latencies.append((op["cls"], elapsed * scale.factor(), elapsed))
        if elapsed == elapsed:
            busy += latencies[-1][1]
        after(k, op, result)
        k += 1
    return latencies


# ---------------------------------------------------------------------------
# environment and reporting


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text().strip()
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpu": cpu,
            "commit": commit,
            "optimize_flag": sys.flags.optimize}


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def finish(args, record, correct, attempted, failed, metrics, summary):
    record.update(environment=environment(), correct=correct,
                  attempted=attempted, failed=failed, metrics=metrics)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(summary)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def _throughput(latencies, column):
    done = [row[column] for row in latencies if row[column] == row[column]]
    tail_s, pct, beyond = tail(done)
    return {"ops_per_s": len(done) / sum(done),
            "latency_p50_s": statistics.median(done),
            "latency_tail_s": tail_s}, pct, beyond, len(done)


def end_to_end(args, lib, workdir):
    """--trace 0: make the documents, time the library's import several
    times, then measure for --seconds."""
    name = args.workload
    wl = make_workload(name, args.seed, workdir)
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    runner = child_op if name == "cli" else pair_op
    tally = Tally(lib, name)
    scale = reference.Scale()
    latencies = run_ops(lib, name, wl, runner, tally, scale,
                        seconds=args.seconds)
    if name == "cli":
        rss_kib = tally.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally.compare_digests(args.seed)
    if all(t != t for _, t, _ in latencies):
        raise BenchmarkError("no op completed; " + tally.problems[0])
    digests = tally.digests
    attempted = tally.ops
    failed = len(tally.bad)
    timed, pct, beyond, n = _throughput(latencies, 1)
    raw, _, _, _ = _throughput(latencies, 2)
    by_class = {}
    for cls, t, _ in latencies:
        if t == t:
            by_class.setdefault(cls, []).append(t)
    metrics = {k: (v, "1/s" if k == "ops_per_s" else "s")
               for k, v in timed.items()}
    metrics["setup_s"] = (statistics.median(imports), "s")
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
    kernel_s = statistics.median(scale.samples)
    summary = (f"# {name} seed={args.seed}: "
               + "; ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
               + f"; latency_tail_s is p{pct:.1f} with {beyond} samples beyond"
               f" (n={n}); fail_ratio={failed / attempted:.6g}"
               f" ({failed}/{attempted}); reference kernel {kernel_s:.6g} s"
               f" (REFERENCE_S={reference.REFERENCE_S})")
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": 0, "setup_runs_s": imports,
              "raw_cpu_metrics": raw, "reference_kernel_median_s": kernel_s,
              "tail_percentile": pct, "tail_samples_beyond": beyond,
              "class_median_s": {k: statistics.median(v)
                                 for k, v in sorted(by_class.items())},
              "fail_ratio": failed / attempted,
              "digest_sha256": hashlib.sha256(
                  "\n".join(digests).encode()).hexdigest(),
              "digests": digests,
              "problems": tally.problems[:50]}
    finish(args, record, failed == 0, attempted, failed, metrics, summary)


# ---------------------------------------------------------------------------
# traced run


def one_pass(args, lib, workdir):
    """Child process: run the fixed op list once, untraced or traced, and
    write calls, self times and busy time to --out."""
    name = args.workload
    wl = make_workload(name, args.seed, workdir)
    scale = reference.Scale()
    tracer = None
    on_op = None
    factors = []  # per op, for its spans
    if args.pass_kind == "traced":
        import spans
        tracer = spans.Tracer()
        tracer.install()

        def on_op(k):
            tracer.op = k
            factors.append(scale.factor())
    runner = inprocess_cli_op if name == "cli" else pair_op
    outputs = []
    latencies = run_ops(lib, name, wl, runner,
                        lambda k, op, result: outputs.append((k, op, result)),
                        scale, on_op=on_op)
    record = {"ops": len(outputs), "busy_s": sum(t for _, t, _ in latencies)}
    if tracer is not None:
        # before the checks, whose own library calls are not ops
        record.update(spans.summarize(tracer, factors))
        tracer.write(Path(args.out).with_suffix(".spans.jsonl.gz"))
    tally = Tally(lib, name)
    for output in outputs:
        tally(*output)
    tally.compare_digests(args.seed)
    record.update(failed=len(tally.bad), problems=tally.problems[:20])
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")


def _shares(shares):
    return ", ".join(f"{k}={v:.3f}" for k, v in sorted(
        shares.items(), key=lambda kv: -kv[1]) if v)


def bare_start_seconds(scale):
    """Reference seconds of CPU a child interpreter takes to do nothing."""
    scale.measure(3)
    cpu, code, _, err, _ = _run_child(["-c", "pass"])
    if code != 0:
        raise BenchmarkError(err.strip())
    return cpu * scale.factor()


def per_layer(args, lib, workdir):
    """--trace 1: one untraced and two traced child passes over the same
    fixed op list, plus the child probes behind cli.import_s."""
    name = args.workload
    scale = reference.Scale()
    start_s = statistics.median(bare_start_seconds(scale)
                                for _ in range(SETUP_REPEATS))
    import_s = statistics.median(import_seconds()
                                 for _ in range(SETUP_REPEATS))
    tracedir = OUT / "trace"
    tracedir.mkdir(parents=True, exist_ok=True)
    passes = {}
    for tag, kind in (("untraced", "untraced"), ("a", "traced"),
                      ("b", "traced")):
        out = tracedir / f"{name}-{tag}.json"
        subprocess.run(_python() + [
            str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--pass", kind, "--out", str(out),
            "--workdir", str(workdir / tag)], cwd=ROOT, check=True)
        passes[tag] = json.loads(out.read_text(encoding="utf-8"))
    a, b = passes["a"], passes["b"]

    def counts(p):
        return ({k: v[0] for k, v in p["funcs"].items()}, p["via"],
                p["distinct_fans"], p["spans"])

    if counts(a) != counts(b):
        raise BenchmarkError("the two traced passes counted different calls")
    n = a["ops"]
    funcs = {k: (v[0], (v[1] + b["funcs"][k][1]) / 2)
             for k, v in a["funcs"].items()}
    layers = {k: (v + b["layers"][k]) / 2 for k, v in a["layers"].items()}
    charged = {k: (v + b["charged"][k]) / 2 for k, v in a["charged"].items()}
    total = sum(layers.values()) or 1.0
    # how far the two traced passes disagree on the self time of each
    # layer that holds at least 5 % of it
    pass_gap = {k: abs(a["layers"][k] - b["layers"][k]) / v
                for k, v in layers.items() if v >= 0.05 * total}

    def calls(f):
        return funcs.get(f, (0, 0.0))[0] / n

    def self_s(f):
        return funcs.get(f, (0, 0.0))[1] / n

    def redundant(f):
        distinct = a["distinct_fans"][f]
        return funcs.get(f, (0, 0.0))[0] / distinct if distinct else 0.0

    traced_busy = (a["busy_s"] + b["busy_s"]) / 2
    metrics = {}
    for f in CALLS:
        metrics[f"{f}.calls"] = (calls(f), "calls/op")
    for f in SELF_TIMES:
        metrics[f"{f}.self_s"] = (self_s(f), "s/op")
    for f in REDUNDANT:
        metrics[f"{f}.redundant_ratio"] = (redundant(f), "ratio")
    for layer in LAYER_SELF_TIMES:
        metrics[f"{layer}.self_s"] = (layers[layer] / n, "s/op")
    metrics["complexity.search_rank_calls"] = (
        a["via"]["lattice.rank_q@complexity"] / n, "calls/op")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead"] = (
        traced_busy / passes["untraced"]["busy_s"], "ratio")
    metrics["trace.pass_gap"] = (max(pass_gap.values()), "ratio")
    shares = {k: v / total for k, v in layers.items()}
    shares["lattice.rank_q"] = funcs.get("lattice.rank_q", (0, 0.0))[1] / total
    charged_shares = {k: v / total for k, v in charged.items()}
    untraced_per_op = passes["untraced"]["busy_s"] / n
    startup = start_s + import_s
    startup_share = startup / (startup + untraced_per_op)
    failed = max(p["failed"] for p in passes.values())
    summary = (f"# {name} seed={args.seed} traced ({n} ops, {a['spans']} spans"
               " per pass): "
               + "; ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
               + "; self-time shares: " + _shares(shares)
               + "; with lattice charged to its caller: "
               + _shares(charged_shares)
               + "; gap between the traced passes per layer: "
               + _shares(pass_gap)
               + "; child start + import share of a cli op="
               f"{startup_share:.3f}")
    record = {"workload": name, "seed": args.seed, "trace": 1, "ops": n,
              "interpreter_start_s": start_s, "self_time_shares": shares,
              "charged_shares": charged_shares, "pass_gap": pass_gap,
              "child_startup_share": startup_share,
              "passes": {k: {"busy_s": p["busy_s"], "failed": p["failed"],
                             "problems": p["problems"]}
                         for k, p in passes.items()}}
    attempted = sum(p["ops"] for p in passes.values())
    finish(args, record, failed == 0, attempted, failed, metrics, summary)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(STREAMS), required=True)
    parser.add_argument("--seed", type=int, default=META["default_seed"])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_kind",
                        choices=("untraced", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workdir = (Path(args.workdir) if args.workdir
               else OUT / "work" / f"{args.workload}-{os.getpid()}")
    try:
        _pin_to_one_cpu()
        lib = _import_library()
        if args.pass_kind:
            import toricomplex.cli  # noqa: F401  (lib.cli for the replay)
            one_pass(args, lib, workdir)
        elif args.trace:
            per_layer(args, lib, workdir)
        else:
            end_to_end(args, lib, workdir)
    except (BenchmarkError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
