"""Command line front end.

One executable, six subcommands: netlist statistics, encryption, trace
simulation, output-corruption measurement, key-sequence recovery, and the
closed-form security/overhead models.  Every subcommand is deterministic
for fixed flags; seeds default to fixed values so published runs reproduce
byte for byte.

Exit codes: 0 success, 1 usage error, 2 bad input, 3 resource budget
exhausted.  Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

from .attack import (
    STATUS_BUDGET,
    SequenceOracle,
    derive_window_starts,
    recover_key_sequences,
)
from .bench import emit_bench, load_bench
from .encrypt import EncryptConfig, KeySchedule, _is_int, encrypt, load_config, load_schedule
from .evaluate import (
    Case,
    brute_force_effort,
    cycle_delay_overhead,
    cycle_delay_sweep,
    run_case,
    write_hd_csv,
)
from .sim import case_plan, plan_stimulus, simulate, write_columnar, write_vcd

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

DEFAULT_CLI_SEED = 0


def _read(path: str, load, what: str = ""):
    """``load(path)``, with its failures raised as bad input naming ``path``;
    ``what`` prefixes a rejected file's message."""
    try:
        return load(path)
    except OSError as e:
        raise ValueError(f"cannot read '{path}': {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text: {e}") from e
    except (ValueError, KeyError, TypeError, RecursionError) as e:
        raise ValueError(f"{path}: {what}{e}") from e


def _write_outputs(*outputs) -> None:
    """Write each ``(path, newline, write)`` output file, ``write`` taking
    the open text file.

    Called before a command prints, so a failed write leaves stdout empty.
    An OSError is reported as bad input after every file this call
    created, the failed one included, is removed again.
    """
    created: list[str] = []
    try:
        for path, newline, write in outputs:
            if not os.path.lexists(path):
                created.append(path)
            with open(path, "w", newline=newline) as fh:
                write(fh)
    except OSError as e:
        for made in created:
            Path(made).unlink(missing_ok=True)
        raise ValueError(f"cannot write '{path}': {e.strerror or e}") from e


def _check_schedule(sched: KeySchedule, nl, path: str) -> None:
    """The schedule must be for this (unlocked) netlist."""
    if sched.circuit != nl.name:
        raise ValueError(f"{path}: schedule is for circuit '{sched.circuit}', netlist is '{nl.name}'")
    if sched.n_inputs != len(nl.inputs):
        raise ValueError(f"{path}: schedule is for {sched.n_inputs} inputs, netlist has {len(nl.inputs)}")


def sci(bits: int) -> str:
    """Three-digit scientific rendering of ``2**bits``, e.g. 5.93e+79 for 265.

    The power is rounded to 33 significant digits, so the cost does not
    grow with ``bits``.
    """
    from decimal import MAX_EMAX, Context, Decimal  # here: only this subcommand needs it

    ctx = Context(prec=33, Emax=MAX_EMAX)
    d = ctx.power(2, bits)
    exp = d.adjusted()
    mant = ctx.quantize(ctx.scaleb(d, -exp), Decimal("0.01"))
    return f"{mant}e{exp:+d}"


def _cmd_stats(args) -> int:
    nl = _read(args.bench, load_bench)
    s = nl.stats()
    print(f"{nl.name}: {s.n_inputs}/{s.n_outputs}/{s.n_dffs}/{s.n_gates} (inputs/outputs/dffs/gates)")
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    nl = _read(args.bench, load_bench)
    cfg = EncryptConfig() if args.config is None else _read(args.config, load_config, "bad config: ")
    try:
        design = encrypt(nl, cfg)
    except ValueError as e:
        raise ValueError(f"encrypt failed: {e}") from e
    _write_outputs(
        (args.out, "\n", lambda fh: fh.write(emit_bench(design.netlist))),
        (args.keys, None, lambda fh: fh.write(design.schedule.to_json())),
    )
    r = design.report
    print(
        f"{nl.name}: +{r.added_gates} gates, +{r.added_dffs} DFFs, "
        f"{len(r.sites)} corrupted nets (coverage {r.achieved_coverage:.4f}) -> {args.out}"
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    nl = _read(args.bench, load_bench)
    if (args.keys is None) != (args.case is None):
        raise ValueError("--keys and --case must be given together")
    if args.cycles < 0:
        raise ValueError(f"--cycles must be >= 0, got {args.cycles}")
    n_in = len(nl.inputs)
    if args.keys is not None:
        sched = _read(args.keys, load_schedule, "bad key schedule: ")
        if sched.n_inputs != n_in:
            raise ValueError(f"{args.keys}: schedule is for {sched.n_inputs} inputs, netlist has {n_in}")
        plan = case_plan(sched, args.case, args.cycles)
    else:
        plan = (None,) * args.cycles
    rng = random.Random(f"{args.seed}/cli/simulate")
    workload = [rng.getrandbits(n_in) for _ in range(args.cycles)]
    trace = simulate(nl, plan_stimulus(plan, workload, n_in))
    if args.vcd is not None:
        _write_outputs((args.vcd, "\n", lambda fh: write_vcd(trace, fh, design=nl.name)))
    write_columnar(trace, sys.stdout)
    return EXIT_OK


def _cmd_eval_hd(args) -> int:
    if args.vectors < 1:
        raise ValueError(f"--vectors must be >= 1, got {args.vectors}")
    if args.cycles < 0:
        raise ValueError(f"--cycles must be >= 0, got {args.cycles}")
    orig = _read(args.orig, load_bench)
    enc = _read(args.enc, load_bench)
    sched = _read(args.keys, load_schedule, "bad key schedule: ")
    _check_schedule(sched, orig, args.keys)
    try:
        cases = [Case(int(tok)) for tok in args.cases.split(",") if tok]
    except ValueError as e:
        raise ValueError(f"bad --cases '{args.cases}': {e}") from e
    if not cases:
        raise ValueError("no cases requested")
    reports = []
    for case in cases:
        try:
            rep = run_case(orig, (enc, sched), case, n_vectors=args.vectors, cycles=args.cycles, seed=args.seed)
        except ValueError as e:
            raise ValueError(f"eval-hd failed: {e}") from e
        reports.append(rep)
    if args.csv is not None:
        _write_outputs((args.csv, "", lambda fh: write_hd_csv(reports, fh)))
    for rep in reports:
        print(f"case {int(rep.case)}: mean HD {rep.mean_hd:.6f} over {rep.mask_size} workload cycles x {rep.n_vectors} vectors")
    return EXIT_OK


def _load_timing(spec: str, max_seq: int, oracle_nl):
    """Window starts and key length from a --keys-timing file: a key
    schedule, checked against the oracle's netlist, or an object with
    'starts' and 'c'."""
    import json  # here: no other subcommand reads JSON itself

    # read once: a pipe such as /dev/stdin cannot be read a second time
    text = _read(spec, lambda p: Path(p).read_text())
    doc = _read(spec, lambda _p: json.loads(text), "bad JSON: ")
    if isinstance(doc, dict) and "key_table" in doc:
        sched = _read(spec, lambda _p: KeySchedule.from_json(text), "bad key schedule: ")
        _check_schedule(sched, oracle_nl, spec)
        return derive_window_starts(sched, max_seq), sched.key_len
    if isinstance(doc, dict) and "starts" in doc:
        starts = doc["starts"]
        c = doc.get("c")
        if c is None:
            raise ValueError(f"{spec}: timing file needs a 'c' entry (patterns per window)")
        if not isinstance(starts, list) or not all(_is_int(s) and s >= 0 for s in starts):
            raise ValueError(f"{spec}: 'starts' must be a list of non-negative integers")
        if not (_is_int(c) and c > 0):
            raise ValueError(f"{spec}: 'c' must be a positive integer")
        return tuple(starts), c
    raise ValueError(f"{spec}: expected a key schedule or an object with 'starts'")


def _cmd_attack(args) -> int:
    enc = _read(args.enc, load_bench)
    orig = _read(args.oracle, load_bench)
    starts, key_len = _load_timing(args.keys_timing, args.max_seq, orig)
    oracle = SequenceOracle(orig)
    try:
        result = recover_key_sequences(
            enc,
            oracle,
            starts,
            key_len,
            args.max_seq,
            conflict_budget=args.budget,
            seed=args.seed,
        )
    except ValueError as e:
        raise ValueError(f"attack failed: {e}") from e
    sys.stdout.write(result.report())
    if result.status == STATUS_BUDGET:
        print("conflict budget exhausted; attack truncated", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_model(args) -> int:
    if args.model == "brute-force":
        bits = brute_force_effort(args.i, args.c, args.n).bit_length() - 1
        print(f"expected tries: 2^{bits} = {sci(bits)}")
        return EXIT_OK
    if args.sweep:
        print("t_a n overhead")
        for t_a, n, frac in cycle_delay_sweep():
            print(f"{t_a} {n} {float(frac) * 100:.6g}%")
        return EXIT_OK
    if args.ta is None or args.n is None:
        print("relock model cycle-delay: error: --ta and --n are required without --sweep", file=sys.stderr)
        return EXIT_USAGE
    frac = cycle_delay_overhead(args.ta, args.n)
    print(f"t_a={args.ta} n={args.n}: overhead {float(frac) * 100:.6g}%")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="relock", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stats", help="print circuit inventory", description="Print input/output/DFF/gate counts of a .bench netlist.")
    sp.add_argument("bench")
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("encrypt", help="lock a netlist", description="Insert the authentication state machine and corruption network into a netlist.")
    sp.add_argument("bench")
    sp.add_argument("--config", help="JSON encryption parameters (defaults used when omitted)")
    sp.add_argument("--out", required=True, help="locked .bench output path")
    sp.add_argument("--keys", required=True, help="key schedule JSON output path")
    sp.set_defaults(func=_cmd_encrypt)

    sp = sub.add_parser("simulate", help="run a netlist and dump its trace", description="Cycle-accurate simulation from reset; with --keys/--case the stimulus follows the chosen access level.")
    sp.add_argument("bench")
    sp.add_argument("--keys", help="key schedule JSON (with --case)")
    sp.add_argument("--case", type=int, choices=(1, 2, 3), help="1 trusted, 2 no keys, 3 single authentication")
    sp.add_argument("--cycles", type=int, default=100)
    sp.add_argument("--seed", type=int, default=DEFAULT_CLI_SEED)
    sp.add_argument("--vcd", help="also dump a VCD waveform to this path")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("eval-hd", help="measure output corruption", description="Mean output Hamming distance between locked and original designs per access case.")
    sp.add_argument("orig")
    sp.add_argument("enc")
    sp.add_argument("--keys", required=True)
    sp.add_argument("--cases", default="1,2,3", help="comma list from {1,2,3}")
    sp.add_argument("--vectors", type=int, default=1000)
    sp.add_argument("--cycles", type=int, default=500)
    sp.add_argument("--seed", type=int, default=DEFAULT_CLI_SEED)
    sp.add_argument("--csv", help="write per-case rows to this CSV path")
    sp.set_defaults(func=_cmd_eval_hd)

    sp = sub.add_parser("attack", help="recover key sequences", description="Oracle-guided SAT recovery of the first windows' key sequences.")
    sp.add_argument("enc")
    sp.add_argument("--oracle", required=True, help="unlocked .bench the oracle runs")
    sp.add_argument(
        "--keys-timing",
        required=True,
        help="window timing: a key schedule JSON, or a JSON file with 'starts' and 'c'",
    )
    sp.add_argument("--max-seq", type=int, default=3, help="windows to recover")
    sp.add_argument("--budget", type=int, default=2_000_000, help="conflict budget per solver call")
    sp.add_argument("--seed", type=int, default=DEFAULT_CLI_SEED)
    sp.set_defaults(func=_cmd_attack)

    sp = sub.add_parser("model", help="closed-form security and delay models")
    msub = sp.add_subparsers(dest="model", required=True)
    mp = msub.add_parser("brute-force", help="expected blind-guess effort")
    mp.add_argument("--i", type=int, required=True, help="primary input count")
    mp.add_argument("--c", type=int, required=True, help="patterns per window")
    mp.add_argument("--n", type=int, required=True, help="PRNG register width")
    mp.set_defaults(func=_cmd_model)
    mp = msub.add_parser("cycle-delay", help="re-authentication time overhead")
    mp.add_argument("--ta", type=int, help="cycles spent per authentication")
    mp.add_argument("--n", type=int, help="PRNG register width")
    mp.add_argument("--sweep", action="store_true", help="print the full table instead")
    mp.set_defaults(func=_cmd_model)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"relock: error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
