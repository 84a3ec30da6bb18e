"""Benchmark of the `fewvar` CLI on seeded inputs.

    python3 perfbench/run.py --workload measure|pit|audit --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a source tree; the program is imported from ``src``.
A workload is a fixed list of ops, each one in-process call of
``fewvar.cli.main(argv)`` on inputs generated from the seed.  The list runs
again and again, one op after another in this one process, while a further
pass still fits in ``--seconds``.  Each pass has inputs of its own, from
the seed and the pass index, and runs in a fresh interpreter (``runpass.py``).
Every report is checked.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` the list runs once plain and once with spans
around the program's functions, and the object holds the per-layer metrics
(the spans go to ``perfbench/_out/spans-<workload>-<seed>.tsv.gz``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_PROBES = 20           # set-up probes per run, however many passes
PROBES_PER_PASS = 5         # of them, run before each pass until all have run
IMPORT_PROBES = 3
# Seconds the calibration kernel takes on an uncontended core of the machine
# the benchmark was written on (an Intel Xeon VM, Python 3.11).  Timings are
# reported at that speed: each is scaled by K_REF over the kernel's time
# measured around it.
K_REF = 0.5e-3


def kernel_seconds(repeats=3):
    """A fixed pure-Python kernel in the program's idiom, Fraction
    arithmetic and dict updates; its time tracks the core's current speed.
    The median of ``repeats`` runs, with the garbage collector off, so that a
    collection an op made due runs in an op, not in the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t = perf_counter()
            total, acc = Fraction(0), {}
            for i in range(1, 200):
                total += Fraction(1, i % 97 + 1)
                acc[i % 31] = acc.get(i % 31, 0) + i
            times.append(perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def program_env():
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def setup_seconds(probes):
    """Fresh interpreter to `import fewvar.cli` done, timed from outside and
    scaled to the reference speed."""
    cmd = [sys.executable, "-c", "import fewvar.cli"]
    env = program_env()
    times = []
    k = kernel_seconds()
    for _ in range(probes):
        t = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, check=True)
        dt = perf_counter() - t
        k_after = kernel_seconds()
        times.append(dt * 2 * K_REF / (k + k_after))
        k = k_after
    return times


def import_program():
    """Import `fewvar.cli` from ``src`` and return it with its
    `cache_clears`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fewvar.cli as cli
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"imported fewvar from {cli.__file__}, not {SRC}")
    return cli, cache_clears()


def cache_clears():
    """The ``cache_clear`` of every functools cache in the program's modules
    and classes; `run_pass` calls them before each op, so that no op gains
    from a cache an earlier op of the pass filled."""
    clears = {}
    for name, mod in list(sys.modules.items()):
        if not (name == "fewvar" or name.startswith("fewvar.")):
            continue
        for obj in list(vars(mod).values()):
            found = [obj]
            if isinstance(obj, type) and obj.__module__ == name:
                found += [getattr(obj, attr, None) for attr in list(vars(obj))]
            for f in found:
                clear = getattr(f, "cache_clear", None)
                if callable(clear):
                    clears[id(f)] = clear
    return list(clears.values())


def run_pass(main, argvs, tracer=None, clears=()):
    """Run every op once; returns [(rc, stdout, stderr, seconds, raw)] with
    ``raw`` the op's measured seconds and ``seconds`` that time scaled to
    the reference speed by the kernel timed before and after the op."""
    results = []
    k = kernel_seconds()
    for i, argv in enumerate(argvs):
        for clear in clears:
            clear()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = i
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = perf_counter()
            try:
                rc = main(argv)
            except Exception as e:      # noqa: BLE001  the op fails, the run goes on
                rc = None
                print(f"error: uncaught {e!r}", file=sys.stderr)
            raw = perf_counter() - t
        k_after = kernel_seconds()
        results.append((rc, out.getvalue(), err.getvalue(),
                        raw * 2 * K_REF / (k + k_after), raw))
        k = k_after
    return results


def run_pass_process(ops, workdir):
    """Run the ops as `run_pass` does, in a fresh interpreter of their own
    (``runpass.py``), as every CLI invocation starts one.  Returns the results
    and the peak resident memory of that process in MB; the results are
    None when the process itself failed."""
    workdir.mkdir(exist_ok=True)
    args, out, log = workdir / "ops.json", workdir / "results.json", workdir / "pass.log"
    args.write_text(json.dumps([op.argv for op in ops]))
    with open(log, "w") as f:
        proc = subprocess.Popen([sys.executable, str(HERE / "runpass.py"), str(args), str(out)],
                                cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
                                stdout=f, stderr=f)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.is_file():
        last = (log.read_text().strip().splitlines() or [""])[-1]
        print(f"error: pass process exited {proc.returncode}: {last}", file=sys.stderr)
        return None, usage.ru_maxrss / 1024.0
    return [tuple(r) for r in json.loads(out.read_text())], usage.ru_maxrss / 1024.0


class Tally:
    """Ops attempted and failed.  An op fails by erroring (exit 3 or an
    exception) or by a wrong report.  Either makes the run incorrect, except
    the error of an op marked ``known_error``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.examples = []

    def add(self, ops, reasons):
        for op, reason in zip(ops, reasons):
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                if not (op.known_error and reason.startswith("error")):
                    self.wrong += 1
                if len(self.examples) < 5:
                    self.examples.append(f"{op.argv[0]} [{op.shape}]: {reason}")


def check_repeat(ops, first, results, reasons):
    """A re-run op must print the same report byte for byte."""
    for i, (a, b) in enumerate(zip(first, results)):
        if reasons[i] is None and (a[0], a[1]) != (b[0], b[1]):
            reasons[i] = "report differs from the op's first run"


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_workload(workloads, build, seconds, tally, workdir):
    """Passes over the op list while another pass still fits in ``seconds``.
    ``build(p)`` gives pass p's ops: the same shapes in the same order on
    every pass, on inputs of their own.

    Each pass runs in a fresh process on new inputs, so no pass gains from
    what an earlier one left behind, as no CLI invocation does.  Set-up
    probes run before each pass until SETUP_PROBES have run.  The speed of a
    shared core drifts by up to 2x, in spells from a fraction of a second to
    minutes, so every time is scaled to the reference speed (see K_REF).
    Returns the set-up times, each pass's op times and each pass process's
    peak memory."""
    setup_seconds(1)                    # leaves the bytecode cache warm
    setup, passes, rss, first = [], [], [], None
    probe_s = 0.0
    start = perf_counter()
    for p in itertools.count():
        probes = min(PROBES_PER_PASS, SETUP_PROBES - len(setup))
        if probes:
            t = perf_counter()
            setup += setup_seconds(probes)
            probe_s = max(probe_s, (perf_counter() - t) / probes)
        t = perf_counter()
        ops = build(p)
        results, peak = run_pass_process(ops, workdir / f"run{p}")
        if results is None:
            tally.add(ops, ["error: the pass process failed"] * len(ops))
            tally.wrong += 1
        else:
            reasons = workloads.verify(ops, results)
            tally.add(ops, reasons)
            first = first or (ops, results, reasons)
            passes.append([r[3] for r in results])
            rss.append(peak)
        # another pass, and every probe still to run, must fit
        pass_s = perf_counter() - t
        if perf_counter() - start + pass_s + (SETUP_PROBES - len(setup)) * probe_s > seconds:
            break
    if len(setup) < SETUP_PROBES:
        setup += setup_seconds(SETUP_PROBES - len(setup))
    if first is None:
        raise RuntimeError("every pass process failed")
    # determinism: the first op of the first pass that passed runs again, in
    # a process of its own, and must print the same report
    ops, results, reasons = first
    ok = [i for i, reason in enumerate(reasons) if reason is None]
    if ok:
        again, _ = run_pass_process([ops[ok[0]]], workdir / "again")
        reasons = [None]
        check_repeat([ops[ok[0]]], [results[ok[0]]], again or [(None, "")], reasons)
        if reasons[0] is not None:
            tally.failed += 1
            tally.wrong += 1
            tally.examples.append(f"determinism: {reasons[0]}")
    return setup, passes, rss


def end_to_end(workloads, build, seconds, tally, workdir):
    """`wall_s` is the median over the passes of a pass's summed op times;
    the op percentiles are taken over every op time of every pass.  Neither
    narrows as more passes fit, as a statistic over per-op medians would,
    so neither moves with the machine's speed."""
    setup, passes, rss = measure_workload(workloads, build, seconds, tally, workdir)
    pooled = [t for times in passes for t in times]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(sum(times) for times in passes), "s"),
        "op_p50_s": (statistics.median(pooled), "s"),
        "op_p90_s": (quantile(pooled, 90), "s"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }, {"passes": len(passes), "op_samples": len(pooled), "setup_probes": len(setup)}


def per_layer(workloads, ops, name, seed, tally, workdir):
    """The op list once plain, in a process of its own, and once traced in
    this process, which has run no op before."""
    import spans

    plain, _ = run_pass_process(ops, workdir / "plain")
    if plain is None:
        raise RuntimeError("the pass process failed")
    tally.add(ops, workloads.verify(ops, plain))
    cli, clears = import_program()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(cli.main, [op.argv for op in ops], tracer, clears)
    finally:
        tracer.uninstall()
    reasons = workloads.verify(ops, traced)
    check_repeat(ops, plain, traced, reasons)
    tally.add(ops, reasons)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-{seed}.tsv.gz")
    imports = spans.import_times(sys.executable, program_env(), ROOT, IMPORT_PROBES)
    wall_plain = sum(r[3] for r in plain)
    wall_traced = sum(r[3] for r in traced)
    metrics = spans.layer_metrics(
        tracer, ops, [workloads.parse_report(r[1]) for r in traced],
        imports, tally.failed / tally.attempted, list(workloads.PIT_SHAPES),
        overhead=wall_traced / wall_plain - 1.0,
        op_seconds=sum(r[4] for r in traced))
    return metrics, {"ops": len(ops), "spans": len(tracer.name), "wall_plain_s": wall_plain,
                     "wall_traced_s": wall_traced}


def run_one(args):
    if not (SRC / "fewvar" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'fewvar'}", file=sys.stderr)
        return 2
    try:
        import_program()
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))

    def build(p):
        """Pass p's ops, on inputs from the seed and the pass index."""
        d = workdir / f"inputs{p}"
        d.mkdir()
        return workloads.WORKLOADS[args.workload](f"{args.seed}.{p}", d)

    try:
        tally = Tally()
        if args.trace:
            metrics, info = per_layer(workloads, build(0), args.workload, args.seed,
                                      tally, workdir)
        else:
            metrics, info = end_to_end(workloads, build, args.seconds, tally, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload={args.workload} seed={args.seed} "
          + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in info.items()))
    for line in tally.examples:
        print(f"failed: {line}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:30s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in turn, each in its own process; one table."""
    rows = []
    for name in ("measure", "pit", "audit"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        rows.append((name, result))
    print(f"{'metric':32s}" + "".join(f"{name:>14s}" for name, _ in rows) + "  unit")
    for key, m in rows[0][1]["metrics"].items():
        print(f"{key:32s}" + "".join(f"{r['metrics'][key]['value']:14.6g}" for _, r in rows)
              + f"  {m['unit']}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["measure", "pit", "audit", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
