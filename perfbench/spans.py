"""Spans around the program's public functions, installed from outside it.

A wrapper replaces a function at the name its caller looks up: imports bind
names per module, so ``fewvar.pit.nw_eval`` and ``fewvar.nw.nw_eval`` are
separate bindings, and only the first is on the path of `fewvar pit`.  Each
call records a span (name, start, end, parent span, op id).  Spans stay in
memory in flat arrays until the run ends; a span's self time is its length
minus the length of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import re
import statistics
import subprocess
from array import array
from collections import Counter
from time import perf_counter

CIRCUIT_TRANSFORMS = ("derivative_circuit", "coeff_circuits",
                      "hom_component_circuit", "translate_circuit",
                      "restrict_circuit")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")        # an open span of the same name encloses it
        self._stack = []
        self._open_per_name = []
        self.op_id = -1
        self.counts = Counter()         # (counter name, op id) -> count
        self._undo = []

    # -- recording ----------------------------------------------------------

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_per_name.append(0)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.nested.append(self._open_per_name[nid] > 0)
        self.end.append(0.0)
        self._open_per_name[nid] += 1
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._open_per_name[self.name[idx]] -= 1

    def count(self, key, n=1):
        self.counts[(key, self.op_id)] += n

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def iterate(self, iterable, name, on_item=None):
        """An iterator whose every next() is a span."""
        it = iter(iterable)
        while True:
            i = self.open(name)
            try:
                item = next(it)
                if on_item is not None:
                    on_item(item)
            except StopIteration:
                return
            finally:
                self.close(i)
            yield item

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from fewvar import algebra, circuit, cli, measure, pit

        plain = [
            (cli, "main", "cli.main"),
            (cli, "parse_poly", "cli.parse"),
            (cli, "parse_circuit", "cli.parse"),
            (cli, "derive_pit_params", "pit.params"),
            (cli, "toy_pit_params", "pit.params"),
            (cli, "pit_run", "pit.run"),
            (cli, "psd_dimension", "measure.psd"),
            (cli, "transform_audit", "circuit.audit"),
            (measure, "derivative_poly", "algebra.derivative"),
            (algebra, "derivative_poly", "algebra.derivative"),
            (pit, "nw_eval", "nw.eval"),
            (pit, "eval_circuit", "circuit.eval"),
            (pit, "class_check", "pit.class_check"),
            (algebra.SparsePolynomial, "__post_init__", "algebra.new"),
            (algebra.SparsePolynomial, "__mul__", "algebra.mul"),
            (circuit, "expand_circuit", "circuit.expand"),
            (circuit, "random_circuit", "circuit.random"),
        ] + [(circuit, t, "circuit.transform") for t in CIRCUIT_TRANSFORMS]
        for owner, attr, name in plain:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))

        def count_nnz(row):
            self.count("measure.nnz", sum(1 for c in row.values() if c))

        for attr in ("rank_exact", "rank_mod"):
            kernel = self.wrap(getattr(measure, attr), f"measure.{attr}")

            def rank(rows, *args, _kernel=kernel, **kwargs):
                return _kernel(self.iterate(rows, "measure.rowgen", count_nnz),
                               *args, **kwargs)
            self._patch(measure, attr, rank)

        stream = pit.hitting_set_stream

        def hitting_set_stream(*args, **kwargs):
            return self.iterate(stream(*args, **kwargs), "pit.stream",
                                lambda _: self.count("pit.points"))
        self._patch(pit, "hitting_set_stream", hitting_set_stream)

        eval_at = pit.Blackbox.eval_at

        def box_eval_at(box, point):
            i = self.open("pit.box_eval.subprocess" if box.notes == "subprocess"
                          else "pit.box_eval.circuit")
            try:
                return eval_at(box, point)
            finally:
                self.close(i)
        self._patch(pit.Blackbox, "eval_at", box_eval_at)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive time of the outermost spans of that
        name, and self time; plus inclusive time per (name, op id) and the
        total length of the root spans."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += dur[i]
        calls, incl, self_t, per_op = Counter(), Counter(), Counter(), Counter()
        roots = 0.0
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_t[name] += dur[i] - children[i]
            if not self.nested[i]:
                incl[name] += dur[i]
                per_op[(name, self.op[i])] += dur[i]
            if self.parent[i] < 0:
                roots += dur[i]
        return {"calls": calls, "incl": incl, "self": self_t,
                "per_op": per_op, "roots": roots}

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.name)):
                f.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                        f"{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n")


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)\s*$")


def import_times(python, env, cwd, probes):
    """Median cumulative import time, in seconds, of `fewvar.cli` (as a
    top-level import) and of numpy and mpmath wherever they load, from
    ``python -X importtime``."""
    cmd = [python, "-X", "importtime", "-c", "import fewvar.cli"]
    found = {"cli": [], "numpy": [], "mpmath": []}
    for _ in range(probes):
        err = subprocess.run(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                             capture_output=True, text=True, check=True).stderr
        seen = {"cli": 0.0, "numpy": 0.0, "mpmath": 0.0}
        for line in err.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            cumulative, indent, module = int(m.group(1)) / 1e6, m.group(2), m.group(3)
            if module == "fewvar.cli" and indent == " ":
                seen["cli"] = cumulative
            elif module in ("numpy", "mpmath") and not seen[module]:
                seen[module] = cumulative
        for key, value in seen.items():
            found[key].append(value)
    return {key: statistics.median(values) for key, values in found.items()}


def layer_metrics(tracer, ops, reports, imports, fail_frac, pit_shapes,
                  overhead, op_seconds):
    """Every per-layer metric of the traced pass, as {name: (value, unit)}.
    ``reports`` are the parsed reports of that pass, in op order;
    ``overhead`` is its calibrated time against the plain pass's, less 1;
    ``op_seconds`` the measured time of its ops."""
    s = tracer.summary()
    calls, incl, self_t, per_op = s["calls"], s["incl"], s["self"], s["per_op"]
    counts = Counter()
    for (key, _), n in tracer.counts.items():
        counts[key] += n
    measured = [r for op, r in zip(ops, reports) if op.argv[0] == "measure" and "phi" in r]
    rows = sum(int(r["rows"]) for r in measured)
    phi = sum(int(r["phi"]) for r in measured)
    m = {
        "measure.rowgen_s": (incl["measure.rowgen"], "s"),
        "algebra.derivative_s": (incl["algebra.derivative"], "s"),
        "measure.rank_exact_self_s": (self_t["measure.rank_exact"], "s"),
        "measure.rank_mod_self_s": (self_t["measure.rank_mod"], "s"),
        "measure.rows": (rows, "count"),
        "measure.cols": (sum(int(r["cols"]) for r in measured), "count"),
        "measure.nnz": (counts["measure.nnz"], "count"),
        "measure.phi": (phi, "count"),
        "measure.useful_row_frac": (phi / rows if rows else 0.0, "ratio"),
        "nw.eval_calls": (calls["nw.eval"], "count"),
        "nw.eval_s": (incl["nw.eval"], "s"),
        "pit.stream_self_s": (self_t["pit.stream"], "s"),
        "pit.points": (counts["pit.points"], "count"),
    }
    by_shape = {shape: [0, 0.0] for shape in pit_shapes}
    for i, op in enumerate(ops):
        if op.argv[0] == "pit":
            by_shape[op.shape][0] += tracer.counts[("pit.points", i)]
            by_shape[op.shape][1] += per_op[("pit.run", i)]
    for shape, (pts, secs) in by_shape.items():
        m[f"pit.points_per_s.{shape}"] = (pts / secs if secs else 0.0, "1/s")
    m.update({
        "pit.box_eval_s.circuit": (incl["pit.box_eval.circuit"], "s"),
        "pit.box_eval_s.subprocess": (incl["pit.box_eval.subprocess"], "s"),
        "circuit.eval_s": (incl["circuit.eval"], "s"),
        "pit.params_s": (incl["pit.params"], "s"),
        "pit.class_check_s": (incl["pit.class_check"], "s"),
        "cli.parse_s": (incl["cli.parse"], "s"),
        "cli.main_self_s": (self_t["cli.main"], "s"),
        "algebra.new_calls": (calls["algebra.new"], "count"),
        "algebra.validate_s": (incl["algebra.new"], "s"),
        "algebra.mul_calls": (calls["algebra.mul"], "count"),
        "algebra.mul_s": (incl["algebra.mul"], "s"),
        "circuit.expand_calls": (calls["circuit.expand"], "count"),
        "circuit.expand_s": (incl["circuit.expand"], "s"),
        "circuit.transform_s": (incl["circuit.transform"], "s"),
        "circuit.random_s": (incl["circuit.random"], "s"),
        "cli.import_s": (imports["cli"], "s"),
        "cli.import_numpy_s": (imports["numpy"], "s"),
        "cli.import_mpmath_s": (imports["mpmath"], "s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.uncovered_frac": (1.0 - s["roots"] / op_seconds if op_seconds else 0.0,
                                 "ratio"),
        "trace.spans": (len(tracer.name), "count"),
        "fail_frac": (fail_frac, "ratio"),
    })
    return m
