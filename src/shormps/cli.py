"""Command-line front end: sampling campaigns, data verification, profiling.

Subcommands:

* ``sample``       run end-to-end measurement samples and write a JSON report
* ``verify-paper`` recompute the published order decompositions and compare
* ``profile``      run the modular-exponentiation stage and dump rank profiles
* ``oracle``       dump the exact measurement distribution for (l, r) or (n, a)

Flags are parsed against one table, ``_COMMANDS`` (command -> flag -> kind,
default, help), not by argparse, whose parser took milliseconds to build on
every call and imported ``locale``.  A flag takes ``--flag value`` or
``--flag=value``; a repeated flag's last value wins.  Names must be exact (no
unique-prefix abbreviations such as ``--sam``), and a value starting with
``--`` counts as missing.  ``shor-mps --help`` and ``shor-mps <command>
--help`` print a usage from the table, ``shor-mps --version`` the version;
both exit 0.  An unknown command or flag, a missing value, a non-integer for
an integer flag, a value outside a flag's choices or a missing required
``--n`` exits 2 after one ``error:`` line on stderr.

Exit codes: 0 success, 1 standard output closed by its reader before the
output was written (``head``, a pager that quits), with no message, 2
invalid input (an ``--out`` that cannot be written counts too, and is
refused before the job runs), 3 resource limit exhausted (the element
guard, an allocation the machine refuses, or the order search cap), 4
verification failure (``verify-paper`` finds a published row it cannot
reproduce).  Commands and their helpers raise on failure, and ``main`` alone
maps every failure to its exit code and one ``error:`` line on stderr,
never a traceback: ``_UsageError`` exits 2, and ``MemoryLimitError``,
``OrderSearchCapError`` and ``MemoryError`` exit 3.  A closed stdout
(``BrokenPipeError``) exits 1 silently, with stdout pointed at
``os.devnull`` so that the interpreter's flush at exit does not raise again
(Python's ``signal`` docs, "Note on SIGPIPE").
A ``ValueError`` counts as invalid input only where the flags build the
instance and where ``oracle`` checks its table; anywhere else it is a fault
of the program and propagates.
Reports are deterministic for a fixed (flags, seed) pair.  Sample k draws
from PCG64 seeded through ``SeedSequence(seed + k)``, the stream of
``numpy.random.default_rng(seed + k)``, computed in ``shormps.rng`` so that
``sample`` skips numpy's 15-18 ms import of ``numpy.random`` (only drawing
``a`` when ``--a`` is omitted still imports it).  So ``--seed s --samples
m`` and ``--seed s+m --samples m`` run as separate processes give the
records of ``--seed s --samples 2m``, timings apart.  ``rng.uniforms``
computes every float a batch of samples draws in one pass of ``uint64``
lanes, up to 1024 seeds at a time: about 0.25 ms for 100 samples of n=21
and 0.15 ms for one of n=1943 once numpy's loops are warm (0.4-0.5 ms for
the first call of a process).
``sample`` and ``profile`` take n below 2^31 (the residue index's bound),
``oracle`` n below 2^62.

JSON reports (``schema: 1``) are compact: sorted keys, no whitespace between
tokens, one trailing newline, floats in Python's shortest round-trip form;
each equals ``json.dumps(report, sort_keys=True, separators=(",", ":")) +
"\\n"``, which ``_dump_json`` computes with one encoder built at import.
``profile``, ``oracle`` and ``verify-paper`` write theirs with that one
call.  ``sample`` encodes the rest of its report with it, with a marker
in place of each layout's records, cuts that text at the markers, and
writes its pieces and the records arrays in order, never joined into one
report text.
``_records_json`` writes the arrays from a sorted-key template: a layout's
values (instance, layout, its chain's alpha_hat, peaks, the "modexp",
"measure" and "qft" profiles) fill it once per layout, and each sample of
the call's one ``SampleRun`` fills in its own residue and s, read off the
run's two columns, which every layout shares, with what the run holds once
for every layout (an s's convergents, factors and order, a batch's stage
seconds) encoded once per call.  The aggregate is read off the run once per
call too.  Pretty-print a report with ``python -m json.tool r.json``.
"""

from __future__ import annotations

import errno
import json
import os
import sys
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from . import __version__
from .numtheory import (
    MAX_MODULUS,
    ORDER_ITERATION_CAP,
    OrderSearchCapError,
    SemiprimeInstance,
    carmichael_semiprime,
    is_prime_power,
    is_probable_prime,
    multiplicative_order,
    random_coprime,
    register_bits,
    two_adic_split,
)
from .oracle import DENSE_CAP, DenseCapError, check_table, exact_distribution, tvd_at_outcomes
from .shor import (
    LAYOUTS,
    MAX_ELEMENTS,
    MAX_SIMULATED_MODULUS,
    LowerRegisterIndex,
    MemoryLimitError,
    SampleRun,
    run_modexp,
    sample_runs,
)

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4

# (l, n, a) -> (r, alpha, beta): the published order decompositions
PUBLISHED_ORDER_DATA = [
    (11, 1943, 2, 924, 2, 231),
    (13, 8189, 10, 3870, 1, 1935),
    (14, 16351, 2, 8036, 2, 2009),
    (15, 32663, 6, 16104, 3, 2013),
    (16, 56759, 2, 28140, 2, 7035),
    (17, 124631, 2, 57516, 2, 14379),
    (20, 961307, 5, 479568, 4, 29973),
]


# command -> flag -> (kind, default, help).  A kind is int, str or a tuple of
# the allowed strings; _REQUIRED marks a flag without a default.  Each flag's
# value lands on the attribute named after it ("--max-elements" ->
# max_elements).
_REQUIRED = object()
_LAYOUT = (("static", "dynamic", "both"), "dynamic", "where the lower register R sits")
_FORMAT = (("json", "csv"), "json", "report format")
_OUT = (str, None, "output path (stdout when omitted)")
_INSTANCE_FLAGS = {
    "--n": (int, _REQUIRED, "odd semiprime to factor"),
    "--a": (int, None, "base (drawn at random when omitted)"),
    "--p": (int, None, "known factor (verification only)"),
    "--q": (int, None, "known factor (verification only)"),
    "--layout": _LAYOUT,
    "--max-elements": (int, MAX_ELEMENTS, "element limit of every stage; past it, exit 3"),
    "--out": _OUT,
    "--format": _FORMAT,
}
_COMMANDS = {
    "sample": ("sample end-to-end measurement outcomes", {
        **_INSTANCE_FLAGS,
        "--format": (("json",), "json", "report format"),
        "--samples": (int, 1, "number of samples"),
        "--seed": (int, 0, "sample k draws from PCG64 seeded with seed + k"),
        "--dense-cap": (int, DENSE_CAP, "skip the report's exact law when 2^(2l) exceeds it"),
    }),
    "verify-paper": ("recompute the published (r, alpha, beta)", {"--out": _OUT}),
    "profile": ("rank profiles after modular exponentiation", _INSTANCE_FLAGS),
    "oracle": ("exact measurement distribution", {
        "--l": (int, None, "register width (with --r)"),
        "--r": (int, None, "order (with --l)"),
        "--n": (int, None, "semiprime (with --a)"),
        "--a": (int, None, "base (with --n)"),
        "--p": (int, None, "known factor of n (finds the order at once)"),
        "--q": (int, None, "known factor of n (finds the order at once)"),
        "--dense-cap": (int, DENSE_CAP, "refuse a law of more entries than this"),
        "--out": _OUT,
        "--format": _FORMAT,
    }),
}


class _UsageError(Exception):
    """Invalid input: a malformed command line, a flag value a command
    refuses, or an unwritable ``--out``; ``main`` prints it as one error
    line and exits 2."""


def _usage(command: str | None = None) -> str:
    """The ``--help`` text: the commands, or the flags of ``command``."""
    if command is None:
        lines = ["usage: shor-mps <command> [--flag value ...]",
                 "       shor-mps [<command>] --help",
                 "       shor-mps --version", "", "commands:"]
        lines += [f"  {name:14s}{text}" for name, (text, _) in _COMMANDS.items()]
        return "\n".join(lines + ["", "shor-mps <command> --help lists its flags."])
    text, flags = _COMMANDS[command]
    lines = [f"usage: shor-mps {command} [--flag value ...]", "", text, "",
             "flags (--flag value or --flag=value; the last repeat wins):"]
    for flag, (kind, default, help_text) in flags.items():
        head = f"  {flag} " + ("{%s}" % ",".join(kind) if isinstance(kind, tuple)
                               else kind.__name__.upper())
        if default is _REQUIRED:
            help_text += " (required)"
        elif default is not None:
            help_text += f" (default: {default})"
        # a head too wide for the column puts its help on the next line
        lines.append(f"{head:26s}{help_text}" if len(head) < 26
                     else f"{head}\n{'':26s}{help_text}")
    return "\n".join(lines)


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The command and its flags as attributes, or None once ``--help`` or
    ``--version`` has printed.  Raises _UsageError on a malformed argv."""
    if not argv:
        raise _UsageError(f"no command given (choose from {', '.join(_COMMANDS)})")
    command = argv[0]
    if command in ("-h", "--help"):
        print(_usage())
        return None
    if command == "--version":
        print(__version__)
        return None
    if command not in _COMMANDS:
        raise _UsageError(f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
    flags = _COMMANDS[command][1]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(_usage(command))
            return None
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise _UsageError(f"unknown flag {flag!r} for {command}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise _UsageError(f"{flag} needs a value")
        kind = flags[flag][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"{flag} takes an integer, got {value!r}") from None
        elif kind is not str and value not in kind:
            raise _UsageError(f"{flag} must be one of {', '.join(kind)}, got {value!r}")
        values[flag] = value
    args = SimpleNamespace(command=command)
    for flag, (_, default, _) in flags.items():
        if flag not in values and default is _REQUIRED:
            raise _UsageError(f"{command} needs {flag}")
        setattr(args, flag[2:].replace("-", "_"), values.get(flag, default))
    return args


def _write(pieces: list[str], out: str | None) -> int:
    """Write the text ``pieces`` in order and one newline, which no report
    text ends in, to ``out`` (stdout when None) and return EXIT_OK.  Raises
    _UsageError when ``out`` cannot be written (a missing directory, a
    directory, no permission)."""
    pieces = [*pieces, "\n"]
    if not out:
        sys.stdout.writelines(pieces)
        return EXIT_OK
    try:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise _UsageError(f"cannot write {out}: {exc.strerror or exc}") from None
    return EXIT_OK


def _unwritable(out: str | None) -> str | None:
    """Why ``out`` cannot be opened for writing, or None; checked before the
    job so that a bad path does not cost the whole run.  ``_write`` still
    reports what only the write itself finds (a full disk, a path removed
    meanwhile)."""
    if not out:
        return None
    if os.path.isdir(out):
        code = errno.EISDIR
    elif os.path.exists(out):
        code = None if os.access(out, os.W_OK) else errno.EACCES
    else:
        parent = os.path.dirname(out) or "."
        if not os.path.exists(parent):
            code = errno.ENOENT
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR
        else:
            code = None if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    return None if code is None else os.strerror(code)


# json.dumps(obj, sort_keys=True, separators=(",", ":")) without building the
# encoder on every call; no indent, so the C encoder runs
_dump_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _validate_semiprime(n: int, bound: int = MAX_MODULUS) -> None:
    """Raise _UsageError unless ``n`` is an odd semiprime below ``bound`` (a
    power of two).  ``sample`` and ``profile`` pass ``MAX_SIMULATED_MODULUS``."""
    if n < 9 or n % 2 == 0:
        raise _UsageError(f"n must be an odd integer >= 9, got {n}")
    if n >= bound:
        # first: the prime-power test's float roots overflow on huge n
        raise _UsageError(f"n exceeds the supported {bound.bit_length() - 1}-bit range")
    if is_probable_prime(n):
        raise _UsageError(f"n = {n} is prime")
    if is_prime_power(n):
        raise _UsageError(f"n = {n} is a prime power")


def _pipeline_from_args(args) -> tuple[SemiprimeInstance, list[int], tuple[str, ...]]:
    """The instance of ``sample``'s and ``profile``'s flags, the lucky
    factors met while drawing its base, and the layouts of ``--layout``,
    static first.  Raises _UsageError on invalid input."""
    _validate_semiprime(args.n, MAX_SIMULATED_MODULUS)
    a = args.a
    lucky: list[int] = []
    if a is None:
        # random_coprime draws with Generator.integers (bounded Lemire draws),
        # which shormps.rng does not reproduce, so only this path imports
        # numpy.random
        rng = np.random.default_rng(getattr(args, "seed", 0))
        a = random_coprime(args.n, rng, on_lucky_factor=lucky.append)
    try:
        inst = SemiprimeInstance(args.n, a, args.p, args.q)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.max_elements <= 0:
        raise _UsageError(f"max_elements must be positive, got {args.max_elements}")
    return inst, lucky, LAYOUTS if args.layout == "both" else (args.layout,)


def _instance_echo(inst: SemiprimeInstance) -> dict:
    return {"n": inst.n, "a": inst.a, "l": inst.l, "p": inst.p, "q": inst.q}


def _order_profile_echo(inst: SemiprimeInstance) -> dict | None:
    """r = beta 2^alpha, lambda(n) and the two-adic valuations d_p, d_q of
    p-1 and q-1, or None without the factors."""
    if inst.p is None:
        return None
    r = multiplicative_order(inst.a, inst.n, inst.p, inst.q)
    alpha, beta = two_adic_split(r)
    return {
        "r": r,
        "alpha": alpha,
        "beta": beta,
        "lambda_n": carmichael_semiprime(inst.p, inst.q),
        "dp": two_adic_split(inst.p - 1)[0],
        "dq": two_adic_split(inst.q - 1)[0],
    }


# ---------------------------------------------------------------------- sample

def _reference_order(inst, dense_cap):
    """The order r for the report's reference law, or None when the law is
    skipped: its table of Q = 2^(2l) entries would exceed ``dense_cap``, or
    the order search would run too long.  The law itself is evaluated at the
    sampled outcomes only (``tvd_at_outcomes``), never as a table; ``sample``
    takes n below 2^31, so l <= 31 is within the closed form's limit."""
    if 1 << (2 * inst.l) > dense_cap:
        return None
    try:
        return multiplicative_order(inst.a, inst.n, inst.p, inst.q,
                                    iteration_cap=min(1 << 22, ORDER_ITERATION_CAP))
    except OrderSearchCapError:
        return None


# One record in sorted-key order, as json.dumps writes its schema-1 dict: the
# single-% slots take a layout's values, once per layout, and the %%-slots, one
# per sample, the record's.
_RECORD = ('{"a":%d,"alpha_hat":%s,"convergents":%%s,"factors":%%s,"l":%d,"layout":%s,'
           '"measured_residue":%%d,"measured_s":%%d,"n":%d,"peak_elements":%s,'
           '"rank_profiles":[%s,%s,%s],"stage_seconds":%%s,"verified_r":%%s}')


def _records_json(run: SampleRun) -> dict[str, str]:
    """Each layout's records as JSON, layout -> its schema-1 records, each as
    ``_dump_json`` writes its dict, comma-separated: the inside of the
    report's records array.

    What every layout shares is encoded once per call: each s's
    convergents, factors and verified order (``classical``) and each batch's
    stage seconds.  A layout's values, from its ``Chain`` and its three rank
    profiles, fill the template once, and each sample, read off the run's
    two columns, fills in its own.
    """
    inst = run.instance
    classical = {s: tuple(map(_dump_json, values)) for s, values in run.classical.items()}
    seconds = [_dump_json(share) for share in run.stage_seconds]
    arrays = {}
    for layout, chain in run.chains.items():
        template = _RECORD % (
            inst.a, _dump_json(chain.alpha_hat), inst.l, _dump_json(layout), inst.n,
            _dump_json(run.peaks(layout)),
            *(_dump_json(vars(profile)) for profile in run.rank_profiles(layout)))
        parts = []
        for k, (residue, s) in enumerate(zip(run.measured_residue, run.measured_s)):
            convergents, factors, verified_r = classical[s]
            parts.append(template % (convergents, factors, residue, s,
                                     seconds[k // run.batch], verified_r))
        arrays[layout] = ",".join(parts)
    return arrays


def _aggregate(run: SampleRun, r: int | None) -> dict:
    """What every layout's aggregate holds but its element peaks, read off
    the run's column of s: the histogram of s, the factor successes and the
    TVD from the reference law of order ``r`` (None: skipped)."""
    hist = Counter(run.measured_s)
    successes = sum(count for s, count in hist.items() if run.classical[s][1] is not None)
    agg = {
        "s_histogram": {str(s): hist[s] for s in sorted(hist)},
        "factor_successes": successes,
        "factor_success_rate": successes / len(run.measured_s),
        "tvd_vs_oracle": None,
    }
    if r is not None:
        agg["tvd_vs_oracle"] = tvd_at_outcomes(run.instance.l, r, hist)
        agg["order_r"] = r
    return agg


def cmd_sample(args) -> int:
    if args.samples < 1:
        raise _UsageError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    if args.dense_cap < 1:
        raise _UsageError(f"--dense-cap must be at least 1, got {args.dense_cap}")
    inst, lucky, layouts = _pipeline_from_args(args)
    started = perf_counter()
    run = sample_runs(inst, layouts, range(args.seed, args.seed + args.samples),
                      args.max_elements)
    # the order depends on the instance alone, and the aggregate but for its
    # peaks on what the samples drew, which every layout shares
    agg = _aggregate(run, _reference_order(inst, args.dense_cap))
    # each layout's records stand in as a marker string that no other report
    # value holds, and the report is cut at the markers
    per_layout = {
        layout: {"records": "\0" + layout,
                 "aggregate": {**agg, "peak_elements_per_stage": run.peaks(layout)}}
        for layout in run.chains
    }
    report = {
        "schema": 1,
        "tool": "shor-mps",
        "version": __version__,
        "command": "sample",
        "instance": _instance_echo(inst),
        "lucky_factors_from_draw": lucky,
        "config": {
            "samples": args.samples,
            "seed": args.seed,
            "layout": args.layout,
            "max_elements": args.max_elements,
            "dense_cap": args.dense_cap,
        },
        "order_profile": _order_profile_echo(inst),
        "layouts": per_layout,
        "elapsed_seconds": perf_counter() - started,
    }
    rest = _dump_json(report)
    pieces = []
    # sorted keys: the layouts' markers appear in sorted order
    for layout, records in sorted(_records_json(run).items()):
        head, rest = rest.split(_dump_json("\0" + layout))
        pieces += [head, "[", records, "]"]
    return _write(pieces + [rest], args.out)


# ---------------------------------------------------------------- verify-paper

def cmd_verify_paper(args) -> int:
    rows = []
    ok = True
    for l, n, a, r_ref, alpha_ref, beta_ref in PUBLISHED_ORDER_DATA:
        r = multiplicative_order(a, n)
        alpha, beta = two_adic_split(r)
        row_ok = (r, alpha, beta) == (r_ref, alpha_ref, beta_ref) and register_bits(n) == l
        ok = ok and row_ok
        rows.append(
            {
                "l": l,
                "n": n,
                "a": a,
                "r": r,
                "alpha": alpha,
                "beta": beta,
                "expected": {"r": r_ref, "alpha": alpha_ref, "beta": beta_ref},
                "pass": row_ok,
            }
        )
        print(
            f"l={l:3d} n={n:7d} a={a:3d}  r={r:7d} alpha={alpha} beta={beta:6d}  "
            f"{'PASS' if row_ok else 'FAIL'}"
        )
    if args.out:
        _write([_dump_json({"schema": 1, "command": "verify-paper", "rows": rows})], args.out)
    return EXIT_OK if ok else EXIT_VERIFY


# --------------------------------------------------------------------- profile

def cmd_profile(args) -> int:
    inst, _, layouts = _pipeline_from_args(args)
    lower = LowerRegisterIndex(inst.n)
    chains = run_modexp(lower, inst, layouts, args.max_elements)
    # the tally only grows, so the final one is the peak
    elements = {layout: {"live": chain.tally, "peak": chain.tally,
                         "lower_register_dim": lower.dim}
                for layout, chain in chains.items()}
    if len(elements) == 2:
        print(
            "element count comparison:"
            f" dynamic live {elements['dynamic']['live']}"
            f" (peak {elements['dynamic']['peak']})"
            f" vs static live {elements['static']['live']}"
            f" (peak {elements['static']['peak']})",
            file=sys.stderr,
        )
    if args.format == "csv":
        lines = ["stage,bond,rank,layout"]
        for layout, chain in chains.items():
            for bond, rank in enumerate(chain.profile.ranks):
                lines.append(f"{chain.profile.stage},{bond},{rank},{layout}")
        return _write(["\n".join(lines)], args.out)
    report = {
        "schema": 1,
        "command": "profile",
        "instance": _instance_echo(inst),
        "profiles": [
            {
                "layout": layout,
                "stage": chain.profile.stage,
                "ranks": list(chain.profile.ranks),
                "labels": [str(x) for x in chain.profile.layout],
            }
            for layout, chain in chains.items()
        ],
        "elements": elements,
    }
    return _write([_dump_json(report)], args.out)


# ---------------------------------------------------------------------- oracle

def cmd_oracle(args) -> int:
    if args.r is not None:
        if args.l is None:
            raise _UsageError("--r needs --l")
        if any(value is not None for value in (args.n, args.a, args.p, args.q)):
            raise _UsageError("--r cannot be combined with --n, --a, --p or --q")
        l, r = args.l, args.r
    elif args.n is None or args.a is None:
        raise _UsageError("supply --l with --r, or --n with --a")
    else:
        _validate_semiprime(args.n)
        try:
            inst = SemiprimeInstance(args.n, args.a, args.p, args.q)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        l, r = (inst.l if args.l is None else args.l), None
    try:
        # the table is checked before the order search, which can run for
        # seconds; an order is at least 1, so its own r passes the check
        check_table(l, 1 if r is None else r, args.dense_cap)
    except (ValueError, DenseCapError) as exc:
        raise _UsageError(str(exc)) from None
    if r is None:
        r = multiplicative_order(inst.a, inst.n, inst.p, inst.q)
    probs = exact_distribution(l, r, cap=args.dense_cap)
    if args.format == "csv":
        lines = ["s,probability"] + [
            f"{s},{float(p)!r}" for s, p in enumerate(probs)
        ]
        return _write(["\n".join(lines)], args.out)
    report = {
        "schema": 1,
        "command": "oracle",
        "l": l,
        "r": r,
        "probs": probs.tolist(),
    }
    return _write([_dump_json(report)], args.out)


def main(argv=None) -> int:
    """Run one command; the one place where a failure becomes its exit code
    and one ``error:`` line on stderr.  Any other exception propagates."""
    try:
        code = EXIT_OK
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is not None:
            problem = _unwritable(args.out)
            if problem:
                raise _UsageError(f"cannot write {args.out}: {problem}")
            handler = {
                "sample": cmd_sample,
                "verify-paper": cmd_verify_paper,
                "profile": cmd_profile,
                "oracle": cmd_oracle,
            }[args.command]
            code = handler(args)
        # a reader that closed stdout shows here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the rest of the output, and the flush at exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (MemoryLimitError, OrderSearchCapError, MemoryError) as exc:
        # an exception is truthy even when its message is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
