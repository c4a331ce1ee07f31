"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Each job is one call into the package (through the CLI or the
public API) and is checked by an oracle in ``oracles.py`` after it returns.
Jobs run one at a time in one process, each starting when the previous one
has returned.  A job that hits the cap, raises, or fails its check counts
as failed.

Elapsed time is the CPU time of the thread running the job (the process has
no other): the jobs do no I/O, and on a virtual machine whose host takes CPU
away (steal time), wall-clock times of identical passes were seen to differ
by 60% while their CPU times differed by 10%.  The cap is on CPU time as
well (SIGPROF).  A CPU second itself is not steady on a shared host: work on
other vCPUs made identical passes up to 1.7 times slower.  So each pass
times ``calibrate``, a fixed piece of interpreter work, before its first
job, after its last and after every ``CAL_EVERY_S`` of job time in between,
and a job's time in the pass is ``min(elapsed * speed_factor, CAP_S)``,
where ``speed_factor`` is ``REF_S`` over the median calibration time.  This
scales times to a reference speed; a capped job's time is the cap.

A pass runs the workload's jobs once, in a child process forked from the
set-up state, so every pass starts from the same caches.  The first pass
runs every job; later ones skip the isolated jobs (see ``workloads.py``).
The number of passes follows from ``--seconds`` and the nominal pass times
in ``PASS_S``, not from the clock, so a seed always gives the same job runs
and the same failures.  A job's time is the median over the passes that ran
it.  With ``--trace 1`` the passes run in pairs over every job, untraced
and traced; the traced passes give the per-layer metrics (in unscaled CPU
seconds) and the difference between the two the tracing overhead.

The last line of standard output is one JSON object with the metrics; the
lines before it name every metric with its unit and list every failed job
with its reason.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "tensoralg")
WORK = os.path.join(HERE, "_work")

CAP_S = 5.0          # per job; the ROADMAP's per-entry target for compute-all
SETUP_RUNS = 3       # set-ups timed per run, in fresh processes
REF_S = 0.0035       # CPU time of calibrate() at reference speed
CAL_EVERY_S = 0.2    # most job CPU time between two calibrate() samples
# Wall-clock seconds of one pass over the jobs that are not isolated, checks
# included, at the commit that added the benchmark, on a 2-vCPU virtual
# machine.  They fix the number of passes a run makes: as many as fit into
# --seconds after the isolated jobs' caps.
PASS_S = {"catalog-compute": 8.3, "frame-petrov": 12.5, "index-algebra": 7.0}
ISOLATED_WAIT_S = 120  # a forked job that has not answered by then is killed
HASH_SEED = "0"

UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
         "peak_rss_mb": "MB"}
# job_p50_s is printed but not in the JSON result: over five runs each, its
# spread was 0.21 on catalog-compute and 0.13 on frame-petrov, whose median
# jobs are single jobs whose times swing with the machine.
PRINTED_ONLY = ("job_p50_s",)

# per-layer metrics: (span name, [fields])
LAYERS = (
    ("scalars.ratsimp", ("calls", "self_s")),
    ("scalars.trigsimp", ("calls", "self_s")),
    ("scalars.diff", ("calls", "self_s")),
    ("scalars.is_zero", ("calls", "self_s")),
    ("scalars.parse", ("self_s",)),
    ("scalars.render", ("self_s",)),
    ("metricfile.parse_metric_file", ("self_s",)),
    ("catalog.load", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("curvature.construct", ("self_s",)),
) + tuple((f"curvature.{p}", ("self_s",)) for p in (
    "ug", "christoffel1", "christoffel2", "riemann_lowered", "riemann",
    "ricci", "ricci_scalar", "einstein", "weyl", "frame_contravariant",
    "rotation_coeffs", "riemann_frame", "ricci_frame")) + (
    ("petrov.np_tetrad", ("self_s",)),
    ("petrov.weyl_scalars", ("self_s",)),
    ("petrov.classify", ("calls", "self_s")),
    ("indicial.canform", ("calls", "self_s")),
) + tuple((f"indicial.{p}", ("self_s",)) for p in (
    "contract", "covdiff", "liediff", "expand_christoffels", "wedge",
    "extdiff")) + (
    ("algebras.atensimp", ("calls", "self_s")),
)


class Capped(BaseException):
    """Raised by SIGPROF inside a job that reached the cap.  A BaseException,
    so that no ``except Exception`` in the package swallows it."""


def _alarm(signum, frame):
    raise Capped()


def where(exc):
    """Public package functions on the stack of ``exc``, outermost first."""
    chain = []
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if os.path.dirname(code.co_filename) == PACKAGE:
            name = getattr(code, "co_qualname", code.co_name)
            name = name.split(".<locals>")[0]
            if name == "MetricContext.__init__":
                name = "construct"
            name = name.replace("MetricContext.", "")
            label = f"{os.path.basename(code.co_filename)[:-3]}.{name}"
            if not name.startswith("_") and label not in chain:
                chain.append(label)
        tb = tb.tb_next
    return " > ".join(chain) or "harness code"


class _Node:
    """A node of the expression tree ``calibrate`` builds."""

    __slots__ = ("op", "args", "_hash")

    def __init__(self, op, args):
        self.op, self.args, self._hash = op, args, None

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.op, *map(hash, self.args)))
        return self._hash

    def __eq__(self, other):
        return (isinstance(other, _Node) and self.op == other.op
                and self.args == other.args)


def _tree(k, depth):
    if depth == 0:
        return _Node("sym", (k % 7,))
    return _Node("add" if k % 2 else "mul",
                 tuple(_tree(3 * k + i, depth - 1) for i in range(3)))


def _walk(node, memo):
    if node not in memo:
        memo[node] = (1 if node.op == "sym" else
                      max(sum(_walk(a, memo) for a in node.args) % 5, 1))
    return memo[node]


def calibrate():
    """CPU time of a fixed piece of interpreter work shaped like symbolic
    algebra: building a tree of small objects, then hashing and walking it
    with a memo table.  It touches no package or sympy state.  The garbage
    collector is off meanwhile: a collection over the heap a pass has built
    up would land on a few samples, and measures the heap, not the
    machine."""
    gc.disable()
    try:
        start = time.thread_time()
        for k in range(3):
            _walk(_tree(k, 5), {})
        return time.thread_time() - start
    finally:
        gc.enable()


def speed_factor(samples):
    """REF_S over the median of calibration samples: multiplies CPU times
    measured beside them into times at reference speed."""
    return REF_S / statistics.median(samples)


def time_job(job, tracer):
    """Run one job in this process under the cap; return its time, output
    and failure reason (None if it returned)."""
    if tracer is not None:
        tracer.job = job.id
    out, reason = None, None
    start = time.thread_time()
    signal.setitimer(signal.ITIMER_PROF, CAP_S)
    try:
        try:
            out = job.run()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except Capped as exc:
        reason = f"capped at {CAP_S:g} s in {where(exc)}"
    except Exception as exc:
        reason = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.thread_time() - start
    if tracer is not None:
        tracer.job = None
    return min(elapsed, CAP_S), out, reason


def check_job(job, out):
    """Why the output fails the job's oracle, or None."""
    from oracles import CheckFailed

    try:
        job.check(out)
    except CheckFailed as exc:
        return f"check: {exc}"
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def result(job, seconds, reason):
    return {"id": job.id, "kind": job.kind, "time": seconds,
            "failed": reason[:400] if reason else None}


def run_inline(job, tracer):
    seconds, out, reason = time_job(job, tracer)
    return result(job, seconds, reason or check_job(job, out))


def read_child(fd, pid, timeout):
    """Read everything a forked child writes to ``fd``, then reap it; kill it
    first if it has not finished writing within ``timeout`` seconds."""
    chunks, deadline = [], time.monotonic() + timeout
    with os.fdopen(fd, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([pipe], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return None
            chunk = os.read(pipe.fileno(), 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    os.waitpid(pid, 0)
    return json.loads(b"".join(chunks)) if chunks else None


def in_child(body, timeout):
    """Run ``body()`` in a forked child and return its JSON result (None if
    the child died or timed out)."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            data = json.dumps(body()).encode()
        except BaseException as exc:  # report and leave the child
            error = f"{type(exc).__name__}: {exc}"
            data = json.dumps({"error": error}).encode()
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        os._exit(0)
    os.close(wfd)
    return read_child(rfd, pid, timeout)


def run_isolated(job, tracer):
    """Run one job in a forked child, so hitting the cap changes nothing
    that later jobs see."""
    def body():
        first = 0
        if tracer is not None:
            first = len(tracer.spans)
            tracer.zero_lookups = {"hit": 0, "miss": 0}
            tracer.terms_out = 0
        result = run_inline(job, tracer)
        if tracer is not None:
            result["spans"] = tracer.take(first)
            result["counters"] = tracer.counters()
        return result

    result = in_child(body, ISOLATED_WAIT_S)
    if result is None or "error" in result:
        return {"id": job.id, "kind": job.kind, "time": CAP_S,
                "failed": "child process gave no result"
                          + (f": {result['error']}" if result else "")}
    if tracer is not None:
        tracer.absorb(result.pop("spans"), result.pop("counters"))
    return result


def run_pass(jobs, controls, traced, spans_path, isolated):
    """One pass over the jobs, in a forked child; the isolated jobs run
    only if ``isolated`` is true."""
    def body():
        # Keep the collector from scanning the imported modules and the
        # generated inputs, which a library user's process would not hold:
        # full collections over them landed on random jobs as 0.1 s pauses.
        gc.freeze()
        tracer = None
        if traced:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        signal.signal(signal.SIGPROF, _alarm)
        timed, samples, since = [], [calibrate()], 0.0
        for job in jobs:
            if not job.isolated:
                timed.append((job, *time_job(job, tracer)))
                since += timed[-1][1]
                if since >= CAL_EVERY_S:
                    samples.append(calibrate())
                    since = 0.0
        samples.append(calibrate())
        results = [run_isolated(job, tracer)
                   for job in jobs if job.isolated and isolated]
        # Checks run after every job, so that neither their work nor what
        # they leave in caches falls between timed jobs.
        results[:0] = [result(job, seconds, reason or check_job(job, out))
                       for job, seconds, out, reason in timed]
        # capped jobs keep the cap
        factor = speed_factor(samples)
        for r in results:
            if r["time"] < CAP_S:
                r["time"] = min(r["time"] * factor, CAP_S)
        caught = [run_inline(c, None)["failed"] is not None for c in controls]
        rss = max(resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        out = {"results": results, "controls_caught": caught,
               "rss_mb": rss / 1024}
        if traced:
            out["layers"] = layer_metrics(tracer)
            from tracing import write_spans
            write_spans(spans_path, tracer.take())
        return out

    payload = in_child(body, 170)
    if payload is None or "error" in payload:
        raise RuntimeError(f"pass failed: {payload and payload['error']}")
    return payload


def layer_metrics(tracer):
    from tracing import aggregate
    from tensoralg import scalars

    rows, symbolic = aggregate(tracer.take())
    out = {}
    for name, fields in LAYERS:
        row = rows.get(name, {"calls": 0, "self_s": 0.0})
        for field in fields:
            out[f"{name}.{field}"] = row[field]
    calls = rows.get("scalars.is_zero", {"calls": 0})["calls"]
    out["scalars.is_zero.symbolic_frac"] = symbolic / calls if calls else 0.0
    lookups = tracer.zero_lookups
    seen = lookups["hit"] + lookups["miss"]
    out["scalars.zero_cache.entries"] = len(scalars._zero_cache)
    out["scalars.zero_cache.hit_frac"] = lookups["hit"] / seen if seen else 0.0
    out["algebras.atensimp.terms_out"] = tracer.terms_out
    return out


def tail(times):
    """Time at the highest percentile with at least ten jobs beyond it, that
    percentile, and the job count."""
    times = sorted(times)
    k = max(len(times) - 11, 0)
    return times[k], 100.0 * (k + 1) / len(times), len(times)


def job_times(passes):
    """Each job's time, the median over the passes that ran it."""
    runs = {}
    for payload in passes:
        for r in payload["results"]:
            runs.setdefault(r["id"], []).append(r["time"])
    return {job: statistics.median(times) for job, times in runs.items()}


def summary(times):
    times = list(times)
    return {"wall_s": sum(times), "job_p50_s": statistics.median(times),
            "job_tail_s": tail(times)[0]}


def measure_setup(args):
    """Median CPU time of a fresh process from its start, through importing
    the package and generating the inputs, to the first job being ready;
    over SETUP_RUNS set-ups."""
    times = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--probe-setup"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120,
            check=True)
        word, cpu, *samples = child.stdout.split()
        if word != "ready":
            raise RuntimeError("set-up probe failed")
        times.append(float(cpu) * speed_factor(list(map(float, samples))))
    return statistics.median(times)


def pass_count(workload, seconds, jobs):
    """Passes of a run: as many as fit into ``seconds`` at the nominal pass
    time, after the first pass's isolated jobs; at least one."""
    isolated = CAP_S * sum(job.isolated for job in jobs)
    return max(1, int((seconds - isolated) / PASS_S[workload]))


def main(argv=None):
    # String hashing is randomized per process; it changes the iteration
    # order of sets inside sympy, and moved job times by up to 15% between
    # runs of identical inputs.  Runs compare code, not hash seeds.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog-compute", "frame-petrov",
                                 "index-algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(PACKAGE):
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.probe_setup:
            # calibration samples on both sides of the set-up; their own
            # CPU time is left out of it
            skipped = time.process_time()
            samples = [calibrate() for _ in range(20)]
            skipped = time.process_time() - skipped
        import workloads
        jobs, controls = workloads.build(args.workload, args.seed, workdir)
        if args.probe_setup:
            cpu = time.process_time() - skipped
            samples += [calibrate() for _ in range(20)]
            print("ready", cpu, *samples, flush=True)
            return 0
        return measure(args, jobs, controls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, jobs, controls):
    setup_s = measure_setup(args)
    spans_path = os.path.join(WORK, f"spans-{args.workload}.jsonl")
    passes = pass_count(args.workload, args.seconds, jobs)
    plain, traced, durations = [], [], []

    def timed_pass(traced_, isolated):
        start = time.monotonic()
        payload = run_pass(jobs, controls, traced_, spans_path, isolated)
        durations.append(time.monotonic() - start)
        return payload

    if args.trace:
        for _ in range(max(1, passes // 2)):
            plain.append(timed_pass(False, True))
            traced.append(timed_pass(True, True))
    else:
        plain = [timed_pass(False, n == 0) for n in range(passes)]

    times = job_times(plain)
    metrics = summary(times.values())
    metrics["setup_s"] = setup_s
    # the first pass only: later passes skip the isolated jobs
    metrics["peak_rss_mb"] = plain[0]["rss_mb"]
    results = [r for p in plain for r in p["results"]]
    failed = [r for r in results if r["failed"]]
    caught = [c for p in plain for c in p["controls_caught"]]

    _, pct, count = tail(times.values())
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}  "
          f"jobs {len(jobs)}  cap {CAP_S:g} s")
    print("  pass durations (wall clock): "
          + ", ".join(f"{d:.1f} s" for d in durations))
    for name in ("setup_s", "wall_s", "job_p50_s", "job_tail_s",
                 "peak_rss_mb"):
        note = ""
        if name == "job_tail_s":
            note = f"  (p{pct:.1f} of {count} jobs)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_RUNS} set-ups)"
        elif name in PRINTED_ONLY:
            note = "  (printed only)"
        print(f"  {name:<12} {metrics[name]:12.4f} {UNITS[name]}{note}")
    print(f"  {'fail_frac':<12} {len(failed) / len(results):12.4f} ratio"
          f"  ({len(failed)} of {len(results)} job runs)")
    kinds = {}
    for r in plain[0]["results"]:
        kinds[r["kind"]] = kinds.get(r["kind"], 0.0) + times[r["id"]]
    total = sum(kinds.values())
    print("  time by kind: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in sorted(kinds.items())))
    for job, reason in dict.fromkeys((r["id"], r["failed"]) for r in failed):
        print(f"  failed {job}: {reason}")
    print(f"  negative controls caught: {sum(caught)} of {len(caught)}")

    unit = dict(UNITS)
    for name in PRINTED_ONLY:
        del metrics[name]
    if args.trace:
        layers = {name: statistics.median_low(t["layers"][name]
                                              for t in traced)
                  for name in traced[0]["layers"]}
        # over the jobs no pass capped: a capped job's time is the cap
        capped = {r["id"] for p in plain + traced for r in p["results"]
                  if (r["failed"] or "").startswith("capped")}
        uncapped = [job for job in times if job not in capped]
        overheads = []
        for p, t in zip(plain, traced):
            p, t = job_times([p]), job_times([t])
            overheads.append(sum(t[i] for i in uncapped)
                             / sum(p[i] for i in uncapped) - 1)
        layers["trace.overhead_frac"] = statistics.median(overheads)
        print(f"  tracing overhead {layers['trace.overhead_frac']:.1%} of "
              f"the uncapped jobs' time; spans in {spans_path}")
        for name, v in layers.items():
            print(f"  {name:<44} {v:14.6f}")
        metrics = layers
        unit = {name: ("count" if name.endswith((".calls", ".entries",
                                                 ".terms_out"))
                       else "ratio" if name.endswith("_frac") else "s")
                for name in layers}
    print(json.dumps({
        "correct": all(caught),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit[name]}
                    for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
