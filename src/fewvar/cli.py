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
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

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
# option declarations and their two readers

class _Opt(NamedTuple):
    """One option of a subcommand: its flag, the function that converts its
    value (None keeps the word), its default, whether it is required, and
    whether it is in the command's one required mutually exclusive group."""

    flag: str
    convert: Optional[Callable[[str], object]] = None
    default: object = None
    required: bool = False
    one_of: bool = False

    @property
    def dest(self) -> str:
        """The flag without its dashes, "-" read as "_", as argparse
        derives it."""
        return self.flag[2:].replace("-", "_")


# the box of pit and sz: a circuit file or a blackbox command
_BOX_OPTS = (_Opt("--circuit", one_of=True), _Opt("--blackbox", one_of=True),
             _Opt("--N", int), _Opt("--k", int))

# the class exponents and the toy stream shape of hitset and pit
_OVERRIDE_OPTS = (
    _Opt("--mu", _rational, Fraction(0)), _Opt("--c", float, 3.0),
    _Opt("--override-l", int), _Opt("--override-grid", _csv_ints),
    _Opt("--a-prime", int), _Opt("--q", int), _Opt("--D", int))

# every command's options end with these
_COMMON_OPTS = (_Opt("--seed", int, 0), _Opt("--out"))

# name -> (handler, options), in the order help lists them
_COMMANDS = {
    "nw-params": (_cmd_nw_params, (_Opt("--mu", _rational, required=True),
                                   _Opt("--n", int, required=True))),
    "nw-check": (_cmd_nw_check, (_Opt("--psi", int, required=True),
                                 _Opt("--D", int, required=True),
                                 _Opt("--n", int, required=True))),
    "design": (_cmd_design, (_Opt("--b", int, required=True),
                             _Opt("--a", int, required=True),
                             _Opt("--cap", int))),
    "hitset": (_cmd_hitset, (_Opt("--N", int, required=True),
                             _Opt("--k", int, required=True),
                             _Opt("--limit", int), *_OVERRIDE_OPTS)),
    "pit": (_cmd_pit, (*_BOX_OPTS, _Opt("--budget", int), *_OVERRIDE_OPTS)),
    "sz": (_cmd_sz, (*_BOX_OPTS, _Opt("--trials", int, 100),
                     _Opt("--domain", int, 10))),
    "measure": (_cmd_measure, (_Opt("--poly", required=True),
                               _Opt("--r", int, required=True),
                               _Opt("--m", int, required=True),
                               _Opt("--rank-prime", int),
                               _Opt("--row-cap", int, DEFAULT_ROW_CAP))),
    "homogenize": (_cmd_homogenize, (_Opt("--circuit", required=True),
                                     _Opt("--n", int, required=True),
                                     _Opt("--expand-cap", int))),
    "restrict-experiment": (_cmd_restrict_experiment, (
        _Opt("--circuit", required=True), _Opt("--s", int, required=True),
        _Opt("--p", float, required=True), _Opt("--trials", int, 100))),
    "ratios": (_cmd_ratios, (_Opt("--n", int, required=True),
                             _Opt("--mu", _rational, Fraction(0)),
                             _Opt("--eps1", float), _Opt("--eps2", float))),
    "transform-audit": (_cmd_transform_audit, (
        _Opt("--count", int, 25), _Opt("--vars", int, 10),
        _Opt("--terms", int, 4), _Opt("--factors", int, 4),
        _Opt("--support", int, 3), _Opt("--max-k", int, 3))),
}


def _fill_command(sp, name: str):
    """Give the parser ``sp`` subcommand ``name``'s options and handler."""
    handler, opts = _COMMANDS[name]
    group = None
    for o in opts + _COMMON_OPTS:
        if o.one_of:
            group = group or sp.add_mutually_exclusive_group(required=True)
            group.add_argument(o.flag, dest=o.dest, type=o.convert,
                               default=o.default)
        else:
            sp.add_argument(o.flag, dest=o.dest, type=o.convert,
                            default=o.default, required=o.required)
    sp.set_defaults(func=handler, command=name)
    return sp


def build_parser() -> argparse.ArgumentParser:
    """The full parser tree, every subcommand with its arguments, for help,
    usage and error lines only: ``main`` reads a valid command line without
    it (see ``_parse``)."""
    parser = _Parser(prog="fewvar", description=__doc__)
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name in _COMMANDS:
        _fill_command(subs.add_parser(name), name)
    return parser


def _read_plain(name: str, words: Sequence[str]):
    """The Namespace of subcommand ``name`` on ``words``, read straight
    from its declarations, or None unless ``words`` is a plain valid line
    (see ``_parse``)."""
    handler, opts = _COMMANDS[name]
    opts += _COMMON_OPTS
    by_flag = {o.flag: o for o in opts}
    if len(words) % 2:
        return None
    given = {}
    for flag, word in zip(words[::2], words[1::2]):
        o = by_flag.get(flag)
        if o is None or flag in given or word.startswith("-"):
            return None
        try:
            given[flag] = word if o.convert is None else o.convert(word)
        except Exception:           # noqa: BLE001  (argparse reports it)
            return None
    if any(o.required and o.flag not in given for o in opts):
        return None
    one_of = [o.flag in given for o in opts if o.one_of]
    if one_of and sum(one_of) != 1:
        return None
    return argparse.Namespace(
        **{o.dest: given.get(o.flag, o.default) for o in opts},
        func=handler, command=name)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of one command line, or SystemExit after help, usage
    or a usage error.

    A plain valid line is read from the declarations alone, with no parser
    built (``_read_plain``): a subcommand, then ``OPTION VALUE`` pairs, each
    OPTION one of its option strings exactly (no prefix, no ``=`` form, no
    repeat), no VALUE starting with "-", every required option given,
    exactly one of a required exclusive group's, and every type conversion
    succeeding.  The full tree gives the same Namespace on such a line.
    Its top level hands the subparsers positional every word after the
    command, and the subcommand's parser reads them.  There every OPTION is
    an exact option string and every VALUE, not starting with "-", is an
    argument word, so each pair is one option with its converted value.
    No check can fail: argparse checks the required options, the group,
    and conflicts only between options given.  Each dest not given keeps
    its default, never a string that argparse would convert, and
    set_defaults adds ``func`` and ``command``, which the subparsers action
    also sets to the name.

    Every other line goes to the full tree, which reads a valid line
    argparse's way (the ``=`` form, a prefix) and prints the help, usage
    and error text.  Before it does, a word starting with "-" that follows
    one of the command's option strings exactly is joined to it as
    ``OPTION=VALUE``, unless it is an option string itself: argparse would
    take ``-1/2`` or ``-inf`` for an option and refuse the line with
    "expected one argument" instead of the value's own error."""
    if argv and argv[0] in _COMMANDS:
        args = _read_plain(argv[0], argv[1:])
        if args is not None:
            return args
        flags = {o.flag for o in _COMMANDS[argv[0]][1] + _COMMON_OPTS}
        argv = list(argv)
        i = 1
        while i < len(argv) - 1:
            if argv[i] in flags and argv[i + 1] not in flags | {"-h", "--help"}:
                if argv[i + 1].startswith("-"):
                    argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
                else:
                    i += 1
            i += 1
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
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
