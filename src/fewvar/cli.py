"""Command-line front end.

One binary, subcommand style.  Every report is line-oriented `key=value`
(or `key=v1,v2,...` CSV) with the seed echoed, so identical invocations
produce byte-identical output.  The `pit` subcommand exits 0 when a witness
is found, 1 when the polynomial vanished on the whole enumerated set, 2 when
the budget ran out first, and 3 on any error; the other subcommands use 0
for pass, 1 for a failed check, 3 for errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import List, Sequence, Tuple

from .algebra import parse_poly, serialize_poly
from .circuit import (
    FewVarCircuit,
    expand_circuit,
    homogenize,
    normalize_constants,
    parse_circuit,
    transform_audit,
)
from .algebra import hom_component
from .measure import (
    DEFAULT_ROW_CAP,
    MeasureParams,
    appendix_ratios,
    psd_dimension,
    survival_experiment,
)
from .nw import NWInstance, derive_nw_params, nw_check_properties
from .pit import (
    Blackbox,
    blackbox_from_circuit,
    derive_pit_params,
    pit_run,
    rs_design,
    schwartz_zippel,
    toy_pit_params,
    verify_design,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

# seconds a subprocess blackbox may take to answer one point
REPLY_TIMEOUT_S = 60.0


class _Parser(argparse.ArgumentParser):
    """argparse that exits 3 (not 2) on bad usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _pf(flag: bool) -> str:
    return "pass" if flag else "fail"


def _tf(flag: bool) -> str:
    return "true" if flag else "false"


def _value_line(value, box) -> str:
    """The `value=` report line.  A value of a GF(p) circuit names its
    modulus; a subprocess blackbox's values are rational."""
    p = box.field_p if isinstance(box, FewVarCircuit) else None
    return f"value={value}" + ("" if p is None else f" (mod {p})")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:    # argparse reports a ValueError as usage
        raise ValueError(str(exc)) from None


def _csv_ints(text: str) -> List[int]:
    return [int(t) for t in text.split(",") if t.strip() != ""]


# ---------------------------------------------------------------------------
# blackbox plumbing

class _SubprocessBox:
    """Line protocol: write the point as space-separated rationals, read one
    rational back.  The child is started once and fed one line per call.
    An int and the integral Fraction equal to it are written the same.
    Each reply must arrive within REPLY_TIMEOUT_S seconds; a late or
    unparsable reply, or a closed pipe, raises RuntimeError.  Its modules,
    subprocess, selectors and shlex, are imported here, on first use, so
    that no other command loads them."""

    def __init__(self, command: str):
        import shlex
        import subprocess
        self.proc = subprocess.Popen(
            shlex.split(command), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE)
        self._pending = b""         # bytes read past the last reply's newline

    def __call__(self, point: Sequence) -> Fraction:
        line = " ".join(str(Fraction(v)) for v in point)
        if self.proc.stdin is None or self.proc.stdout is None:
            raise RuntimeError("blackbox pipes are not open")
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise RuntimeError("blackbox closed the pipe") from None
        reply = self._reply().decode(errors="replace").strip()
        try:
            return Fraction(reply)
        except (ValueError, ZeroDivisionError):
            raise RuntimeError(
                f"blackbox replied {reply!r}, not a rational") from None

    def _reply(self) -> bytes:
        """The next line of the child's stdout.  The pipe is read with
        os.read, past the file object's buffer, so that a wait on it sees
        every byte not yet taken and can end at the deadline."""
        import selectors
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._pending:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError(
                        f"blackbox gave no reply within {REPLY_TIMEOUT_S} s")
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError("blackbox closed the pipe")
                self._pending += chunk
        reply, _, self._pending = self._pending.partition(b"\n")
        return reply

    def close(self):
        """Close the child's stdin and wait for it to exit, killing and
        reaping it after five seconds."""
        import subprocess
        try:
            self.proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@contextlib.contextmanager
def _load_box(args):
    """The box of --circuit or --blackbox, with --k applied when the box
    declares no k; a subprocess child is closed on exit."""
    if args.circuit:
        C = parse_circuit(Path(args.circuit).read_text())
        if C.k is None and args.k is not None:
            C = FewVarCircuit(C.num_vars, C.terms, C.declared_s, C.field_p,
                              args.k)
        yield C
        return
    if args.N is None:
        raise ValueError("--blackbox mode needs --N")
    if args.N < 0:
        raise ValueError(f"need --N >= 0, got {args.N}")
    sub = _SubprocessBox(args.blackbox)
    try:
        yield Blackbox(fn=sub, num_vars=args.N, k=args.k, notes="subprocess")
    finally:
        sub.close()


# ---------------------------------------------------------------------------
# subcommands: each returns its report's lines, after the seed line that
# ``main`` writes first, and its exit code

def _cmd_nw_params(args) -> Tuple[List[str], int]:
    p = derive_nw_params(args.mu, args.n)
    return [
        f"mu={p.mu}",
        f"n={p.n}",
        f"delta={p.delta}",
        f"gamma={p.gamma}",
        f"psi={p.psi}",
        f"N={p.N}",
        f"rho={p.rho}",
        f"D_raw={p.D_raw}",
        f"D={p.D}",
    ], EXIT_OK


def _cmd_nw_check(args) -> Tuple[List[str], int]:
    inst = NWInstance(n=args.n, psi=args.psi, D=args.D)
    r = nw_check_properties(inst)
    return [
        f"psi={args.psi}",
        f"D={args.D}",
        f"n={args.n}",
        f"monomial_count={r.monomial_count}",
        f"expected_count={r.expected_count}",
        f"count={_pf(r.count_ok)}",
        f"multilinear={_pf(r.multilinear_ok)}",
        f"degree={_pf(r.degree_ok)}",
        f"max_intersection={r.max_intersection}",
        f"intersection_bound={r.intersection_bound}",
        f"intersections={_pf(r.intersection_ok)}",
        f"ok={_pf(r.ok)}",
    ], EXIT_OK if r.ok else EXIT_CHECK_FAILED


def _cmd_design(args) -> Tuple[List[str], int]:
    d = rs_design(args.b, args.a, intersection_cap=args.cap)
    rep = verify_design(d, cap=args.cap)
    lines = [
        f"b={d.b}",
        f"a={d.a}",
        f"q0={d.q0}",
        f"c0={d.c0}",
        f"l={d.l}",
        f"verify={_pf(rep.ok)}",
        f"max_intersection={rep.max_intersection}",
    ]
    lines += [f"set={','.join(str(v) for v in S)}" for S in d]
    lines += [f"violation={v}" for v in rep.violations]
    return lines, EXIT_OK if rep.ok else EXIT_CHECK_FAILED


# each flag that shapes a toy stream: its toy_pit_params keyword and its dest
_TOY_FLAGS = {"--override-grid": ("grid", "override_grid"),
              "--a-prime": ("a_prime", "a_prime"), "--q": ("q", "q"),
              "--D": ("D", "D")}


def _toy_or_derived_params(args, N: int, k: int):
    """The toy stream of --override-l, shaped by the toy flags given, else
    the derived stream; a toy flag without --override-l is refused."""
    given = {flag: (key, value) for flag, (key, dest) in _TOY_FLAGS.items()
             if (value := getattr(args, dest)) is not None}
    if args.override_l is not None:
        return toy_pit_params(N, k, args.override_l, mu=float(args.mu),
                              c=args.c, **dict(given.values()))
    if given:
        raise ValueError(f"{next(iter(given))} needs --override-l")
    return derive_pit_params(args.mu, args.c, N, k)


def _params_lines(params) -> List[str]:
    return [
        f"N={params.N}",
        f"k={params.k}",
        f"l={params.l}",
        f"a={params.a}",
        f"a_prime={params.a_prime}",
        f"q={params.q}",
        f"D={params.D}",
        f"set_size={params.set_size}",
        f"grid_size={len(params.grid)}",
        f"stream_size={params.stream_size_text}",
    ]


def _cmd_hitset(args) -> Tuple[List[str], int]:
    from .pit import DEFAULT_STREAM_CAP, hitting_set_stream
    limit = args.limit
    if limit is not None and limit < 0:
        raise ValueError(f"need --limit >= 0, got {limit}")
    params = _toy_or_derived_params(args, args.N, args.k)
    if limit is None and params.stream_exceeds(DEFAULT_STREAM_CAP):
        raise ValueError(
            f"stream has {params.stream_size_text} tuples; pass --limit")
    lines = _params_lines(params)
    for h in hitting_set_stream(params, limit=limit):
        lines.append("h=" + ",".join(map(str, h)))
    return lines, EXIT_OK


def _cmd_pit(args) -> Tuple[List[str], int]:
    if args.budget is not None and args.budget < 0:
        raise ValueError(f"need --budget >= 0, got {args.budget}")
    with _load_box(args) as box:
        if box.k is None:
            raise ValueError(
                "individual degree unknown: declare k in the circuit file or "
                "pass --k")
        params = _toy_or_derived_params(args, box.num_vars, box.k)
        result = pit_run(box, params, budget=args.budget)
    lines = _params_lines(params)
    if args.budget is not None:
        lines.append(f"budget={args.budget}")
    lines.append(f"status={result.status}")
    lines.append(f"tested={result.tested}")
    if result.point is not None:
        lines.append("witness=" + ",".join(map(str, result.point)))
        lines.append(_value_line(result.value, box))
    if result.class_report is not None:
        lines.append(f"class={_pf(result.class_report.ok)}")
    if result.status == "witness":
        return lines, EXIT_OK
    if result.status == "zero-on-set":
        return lines, EXIT_CHECK_FAILED
    return lines, EXIT_INCONCLUSIVE


def _cmd_sz(args) -> Tuple[List[str], int]:
    with _load_box(args) as box:
        bb = box if isinstance(box, Blackbox) else blackbox_from_circuit(box)
        result = schwartz_zippel(bb, args.trials, args.domain, args.seed)
    lines = [
        f"trials={result.trials}",
        f"domain={args.domain}",
        f"status={result.status}",
    ]
    if result.point is not None:
        lines.append("witness=" + ",".join(str(v) for v in result.point))
        lines.append(_value_line(result.value, box))
    return lines, EXIT_OK if result.found else EXIT_CHECK_FAILED


def _cmd_measure(args) -> Tuple[List[str], int]:
    if args.row_cap < 0:
        raise ValueError(f"need --row-cap >= 0, got {args.row_cap}")
    P = parse_poly(Path(args.poly).read_text())
    params = MeasureParams(r=args.r, m=args.m, rank_prime=args.rank_prime)
    rep = psd_dimension(P, params, row_cap=args.row_cap)
    return [
        f"r={args.r}",
        f"m={args.m}",
        f"phi={rep.phi}",
        f"rows={rep.rows}",
        f"cols={rep.cols}",
        f"exact={_tf(rep.exact)}",
    ], EXIT_OK


def _cmd_homogenize(args) -> Tuple[List[str], int]:
    if args.expand_cap is not None and args.expand_cap < 0:
        raise ValueError(f"need --expand-cap >= 0, got {args.expand_cap}")
    C = parse_circuit(Path(args.circuit).read_text())
    dec = homogenize(normalize_constants(C), args.n)
    value = dec.value()
    try:
        expected = hom_component(expand_circuit(C, cap=args.expand_cap), args.n)
        identity = "pass" if value == expected else "fail"
    except ValueError:
        identity = "skipped"
    lines = [
        f"n={args.n}",
        f"pieces={len(dec.pieces)}",
        f"identity={identity}",
    ]
    lines += serialize_poly(value).splitlines()
    return lines, EXIT_CHECK_FAILED if identity == "fail" else EXIT_OK


def _cmd_restrict_experiment(args) -> Tuple[List[str], int]:
    C = parse_circuit(Path(args.circuit).read_text())
    rep = survival_experiment(C, args.s, args.p, args.trials, args.seed)
    return [
        f"s={args.s}",
        f"p={rep.p}",
        f"trials={rep.trials}",
        f"bad_count={rep.bad_count}",
        f"expected_survivors={rep.expected_survivors}",
        f"mean_survivors={rep.mean_survivors}",
        f"stderr_survivors={rep.stderr_survivors}",
        f"empirical_rate={rep.empirical_rate}",
        f"markov_bound={rep.markov_bound}",
    ], EXIT_OK


def _cmd_ratios(args) -> Tuple[List[str], int]:
    rep = appendix_ratios(args.n, args.mu, eps1=args.eps1, eps2=args.eps2)
    return [
        f"n={rep.n}",
        f"mu={rep.mu}",
        f"r={rep.r}",
        f"s={rep.s}",
        f"m={rep.m}",
        f"N={rep.N}",
        f"log_ratio_1={rep.log_ratio_1}",
        f"log_ratio_2={rep.log_ratio_2}",
        f"closed_form_1={rep.closed_form_1}",
        f"exact={_tf(rep.exact)}",
    ], EXIT_OK


def _cmd_transform_audit(args) -> Tuple[List[str], int]:
    rep = transform_audit(args.count, args.seed, num_vars=args.vars,
                          max_terms=args.terms, max_factors=args.factors,
                          max_support=args.support, max_k=args.max_k)
    lines = [
        f"count={args.count}",
        f"circuits={rep.circuits}",
        f"checks={rep.checks}",
        f"failures={len(rep.failures)}",
        f"max_deriv_fanin_ratio={rep.max_deriv_fanin_ratio}",
        f"max_coeff_fanin_ratio={rep.max_coeff_fanin_ratio}",
        f"ok={_pf(rep.ok)}",
    ]
    lines += [f"failure={f}" for f in rep.failures]
    return lines, EXIT_OK if rep.ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)


def _add_box_args(sp):
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--circuit", default=None)
    src.add_argument("--blackbox", default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)


def _add_override_args(sp):
    sp.add_argument("--mu", type=_rational, default=Fraction(0))
    sp.add_argument("--c", type=float, default=3.0)
    sp.add_argument("--override-l", dest="override_l", type=int, default=None)
    sp.add_argument("--override-grid", dest="override_grid", type=_csv_ints,
                    default=None)
    sp.add_argument("--a-prime", dest="a_prime", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--D", type=int, default=None)


def _args_nw_params(sp):
    sp.add_argument("--mu", type=_rational, required=True)
    sp.add_argument("--n", type=int, required=True)


def _args_nw_check(sp):
    sp.add_argument("--psi", type=int, required=True)
    sp.add_argument("--D", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)


def _args_design(sp):
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--cap", type=int, default=None)


def _args_hitset(sp):
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--limit", type=int, default=None)
    _add_override_args(sp)


def _args_pit(sp):
    _add_box_args(sp)
    sp.add_argument("--budget", type=int, default=None)
    _add_override_args(sp)


def _args_sz(sp):
    _add_box_args(sp)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--domain", type=int, default=10)


def _args_measure(sp):
    sp.add_argument("--poly", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--rank-prime", dest="rank_prime", type=int, default=None)
    sp.add_argument("--row-cap", dest="row_cap", type=int,
                    default=DEFAULT_ROW_CAP)


def _args_homogenize(sp):
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--expand-cap", dest="expand_cap", type=int, default=None)


def _args_restrict_experiment(sp):
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--trials", type=int, default=100)


def _args_ratios(sp):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mu", type=_rational, default=Fraction(0))
    sp.add_argument("--eps1", type=float, default=None)
    sp.add_argument("--eps2", type=float, default=None)


def _args_transform_audit(sp):
    sp.add_argument("--count", type=int, default=25)
    sp.add_argument("--vars", type=int, default=10)
    sp.add_argument("--terms", type=int, default=4)
    sp.add_argument("--factors", type=int, default=4)
    sp.add_argument("--support", type=int, default=3)
    sp.add_argument("--max-k", dest="max_k", type=int, default=3)


# name -> (argument adder, handler), in the order help lists them
_COMMANDS = {
    "nw-params": (_args_nw_params, _cmd_nw_params),
    "nw-check": (_args_nw_check, _cmd_nw_check),
    "design": (_args_design, _cmd_design),
    "hitset": (_args_hitset, _cmd_hitset),
    "pit": (_args_pit, _cmd_pit),
    "sz": (_args_sz, _cmd_sz),
    "measure": (_args_measure, _cmd_measure),
    "homogenize": (_args_homogenize, _cmd_homogenize),
    "restrict-experiment": (_args_restrict_experiment,
                            _cmd_restrict_experiment),
    "ratios": (_args_ratios, _cmd_ratios),
    "transform-audit": (_args_transform_audit, _cmd_transform_audit),
}


def _fill_command(sp, name: str):
    """Give the parser ``sp`` subcommand ``name``'s arguments and handler."""
    add_args, handler = _COMMANDS[name]
    add_args(sp)
    _add_common(sp)
    sp.set_defaults(func=handler, command=name)
    return sp


def build_parser() -> argparse.ArgumentParser:
    """The full parser tree, every subcommand with its arguments, for help,
    usage and error lines only: ``main`` parses a valid command line with
    the invoked subcommand's parser alone (see ``_parse``)."""
    parser = _Parser(prog="fewvar", description=__doc__)
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name in _COMMANDS:
        _fill_command(subs.add_parser(name), name)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of one command line, or SystemExit after help, usage
    or a usage error.

    A line whose first word names a subcommand is parsed by that
    subcommand's parser alone, built as ``build_parser`` builds it.  That
    gives what the full tree gives: argparse hands the subparsers
    positional (``nargs=PARSER``) every word after the command, options
    included, and parses them with the subcommand parser's own
    ``parse_known_args`` under the prog "fewvar <name>"; the words it
    leaves over go back to the top level as "unrecognized arguments".  So
    when nothing is left over the Namespace is the same, ``command``
    included, and an error raised inside the subcommand prints the same
    usage and message.  Every other line (words left over, no words, a
    first word that is an option or no subcommand) goes to the full tree,
    which prints the top-level help, usage and error text."""
    if argv and argv[0] in _COMMANDS:
        sp = _fill_command(_Parser(prog=f"fewvar {argv[0]}"), argv[0])
        args, rest = sp.parse_known_args(argv[1:])
        if not rest:
            return args
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        parser.exit(EXIT_ERROR)
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_ERROR
    try:
        lines, code = args.func(args)
        text = "\n".join([f"seed={args.seed}", *lines]) + "\n"
        sys.stdout.write(text)
        if args.out:
            Path(args.out).write_text(text)
        return code
    except BrokenPipeError:
        return EXIT_ERROR
    except Exception as e:          # noqa: BLE001  (single reporting point)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
