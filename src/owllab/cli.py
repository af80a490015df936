"""Command-line front door: `owl <subcommand>`.

Reports are one line of JSON (deterministic: sorted keys, seed echoed; pipe
through `python -m json.tool` to indent). `--seed` and `--no-timing` may come
before or after the subcommand. Exit codes: 0 when everything is consistent
or nothing was found, 1 when a counterexample or verification failure was
produced, 2 on usage or validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from itertools import islice

from . import __version__, adversary, exits, matrix, owl, sequence, tdfa
from .matrix import BoolMatrix
from .owl import OwlString
from .tdfa import Tdfa

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


# An integer as the command line spells it: ASCII decimal digits with an
# optional minus. int() alone also takes "+3", " 3", "1_0" and non-ASCII digits.
_DECIMAL = re.compile(r"-?[0-9]+")

# (name, parts in the spec) -> builder taking the integer parts
_BUILTINS = {
    ("accept_all", 2): tdfa.build_accept_all,
    ("subset", 2): tdfa.build_subset_solver,
    ("broken", 3): tdfa.build_broken_solver,
}


def load_machine(spec: str) -> Tdfa:
    """A builtin name (accept_all:h, subset:h, broken:h:cap) or a machine
    file path. Builtin names win: a file named `subset:3` is `./subset:3`."""
    parts = spec.split(":")
    build = _BUILTINS.get((parts[0], len(parts)))
    if build is not None:
        for part in parts[1:]:
            if not _DECIMAL.fullmatch(part):
                raise CliError(f"bad machine spec {spec!r}: {part!r} is not a decimal integer")
        try:
            return build(*map(int, parts[1:]))
        except ValueError as exc:
            raise CliError(f"bad machine spec {spec!r}: {exc}")
    if os.path.exists(spec):
        try:
            return Tdfa.load(spec)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load machine {spec!r}: {exc}")
    raise CliError(f"unknown machine {spec!r} (not a file or builtin name)")


def load_string(path: str) -> OwlString:
    try:
        with open(path) as f:
            return OwlString.loads(f.read())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load input string {path!r}: {exc}")


def _report(args, command: str, result: dict, started: float) -> dict:
    rep = {
        "command": command,
        "config": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "no_timing") and v is not None
        },
        "version": __version__,
        "result": result,
    }
    if not args.no_timing:
        rep["timing_s"] = round(time.monotonic() - started, 3)
    return rep


def _chain_matrix(h: int, t: int, flag: str) -> BoolMatrix:
    """C_t alone: the chain is built, and cross-checked, up to step t."""
    matrix._check_h(h)
    n = sequence.chain_length(h)
    if not 0 <= t <= n:
        raise CliError(f"{flag} must be in [0, {n}] for h={h}")
    return next(islice(sequence.build_sequence(h), t, None))


def cmd_seq(args) -> tuple[int, dict | str]:
    h, t = args.height, args.index
    if t is None:
        if args.kind != "c":
            raise CliError(f"--kind {args.kind} needs --index")
        return EXIT_OK, {"h": h, "matrices": [c.row_hex() for c in sequence.build_sequence(h)]}
    # Only the chain itself is built; an increment is computed from (t, h).
    kinds = {
        "c": lambda: _chain_matrix(h, t, "--index"),
        "e": lambda: sequence.e_matrix(t, h),
        "eprime": lambda: sequence.e_prime(t, h),
        "d": lambda: sequence.d_matrix(t, h),
        "dprime": lambda: sequence.d_prime(t, h),
    }
    return EXIT_OK, kinds[args.kind]().to_text()


def cmd_verify_seq(args) -> tuple[int, dict]:
    rep = sequence.verify_sequence(args.height, seed=args.seed)
    return (EXIT_OK if rep.ok else EXIT_FOUND), rep.to_json()


def cmd_run(args) -> tuple[int, dict]:
    m = load_machine(args.machine)
    z = load_string(args.input)
    res = tdfa.run_on_tape(m, z) if args.trace else tdfa.run_on_tape(m, z, trace_limit=0)
    out = {
        "decision": tdfa.verdict(m, res),
        "steps": res.steps,
        "live": owl.is_live(z),
    }
    if args.trace:  # null past run_on_tape's trace limit
        out["trace"] = None if res.trace is None else [list(c) for c in res.trace]
    return EXIT_OK, out


def cmd_exits(args) -> tuple[int, dict]:
    m = load_machine(args.machine)
    z = load_string(args.input)
    side = exits.LR if args.side == "lr" else exits.RL
    tm = exits.traversal_map(m, z, side)
    return EXIT_OK, {
        "side": args.side,
        "exit_states": sorted(tm.exit_states),
        "exit_size": len(tm.exit_states),
        "outcomes": {
            q: {"outcome": c.outcome, "state": c.state, "steps": c.steps}
            for q, c in sorted(tm.outcomes.items())
        },
    }


def _target_matrix(args, m: Tdfa) -> BoolMatrix:
    if (args.conn is None) == (args.matrix is None):
        raise CliError("supply exactly one of --conn, --matrix")
    if args.conn is not None:
        return _chain_matrix(m.h, args.conn, "--conn")
    try:
        with open(args.matrix) as f:
            return BoolMatrix.from_text(f.read())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load matrix {args.matrix!r}: {exc}")


def cmd_generic(args) -> tuple[int, dict]:
    m = load_machine(args.machine)
    target = _target_matrix(args, m)
    side = exits.LR if args.side == "lr" else exits.RL
    cert = exits.descend_generic(m, target, max_ext_len=args.max_ext_len, side=side)
    return EXIT_OK, cert.to_json()


def cmd_chain(args) -> tuple[int, dict]:
    m = load_machine(args.machine)
    rep = adversary.exit_chain(m, max_ext_len=args.max_ext_len)
    return EXIT_OK, rep.to_json()


def cmd_pump(args) -> tuple[int, dict]:
    m = load_machine(args.machine)
    res = adversary.pump(m, args.index, max_ext_len=args.max_ext_len)
    code = EXIT_FOUND if isinstance(res, adversary.Counterexample) else EXIT_OK
    return code, res.to_json()


def cmd_fuzz(args) -> tuple[int, dict]:
    m = load_machine(args.machine)
    res = adversary.differential_fuzz(
        m,
        max_len=args.max_len,
        exhaustive=args.exhaustive,
        samples=args.samples,
        seed=args.seed,
    )
    code = EXIT_FOUND if isinstance(res, adversary.Counterexample) else EXIT_OK
    return code, res.to_json()


def integer(text: str) -> int:
    """An integer flag's value, refused unless it matches `_DECIMAL`."""
    if not _DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer")
    return int(text)


def count(text: str) -> int:
    n = integer(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _global_flags(defaults: bool) -> argparse.ArgumentParser:
    """--seed and --no-timing, for use as a parent parser.

    The subcommands' copy (defaults=False) sets nothing unless given, so a
    flag may come before or after the subcommand.
    """
    def default(value):
        return value if defaults else argparse.SUPPRESS

    g = argparse.ArgumentParser(add_help=False)
    g.add_argument("--seed", type=integer, default=default(0))
    g.add_argument(
        "--no-timing",
        action="store_true",
        default=default(False),
        help="omit timing for byte-identical reruns",
    )
    return g


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `owl` parser, built once per process on first use. Parsing keeps
    no state on it: each parse fills a fresh namespace."""
    p = argparse.ArgumentParser(prog="owl", description=__doc__, parents=[_global_flags(True)])
    sub = p.add_subparsers(dest="subcommand", required=True)
    after = _global_flags(False)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[after], **kwargs)

    def machine_opts(sp, need_input=False):
        sp.add_argument("--machine", required=True, help="machine JSON file or builtin name")
        if need_input:
            sp.add_argument("--input", required=True, help="input string JSON file")

    sp = add_parser("seq", help="emit chain matrices")
    sp.add_argument("--height", type=integer, required=True)
    sp.add_argument("--index", type=integer, help="emit a single matrix as text")
    sp.add_argument("--kind", choices=["c", "e", "eprime", "d", "dprime"], default="c")
    sp.set_defaults(func=cmd_seq)

    sp = add_parser("verify-seq", help="machine-check every chain identity")
    sp.add_argument("--height", type=integer, required=True)
    sp.set_defaults(func=cmd_verify_seq)

    sp = add_parser("run", help="decide one input")
    machine_opts(sp, need_input=True)
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(func=cmd_run)

    sp = add_parser("exits", help="per-state traversal outcomes and exit set")
    machine_opts(sp, need_input=True)
    sp.add_argument("--side", choices=["lr", "rl"], default="lr")
    sp.set_defaults(func=cmd_exits)

    sp = add_parser("generic", help="bounded genericity descent")
    machine_opts(sp)
    sp.add_argument("--conn", type=integer, help="chain index of the target connectivity")
    sp.add_argument("--matrix", help="text matrix file with the target connectivity")
    sp.add_argument("--side", choices=["lr", "rl"], default="lr")
    sp.add_argument("--max-ext-len", type=count, default=1)
    sp.set_defaults(func=cmd_generic)

    sp = add_parser("chain", help="exit-size chain along all properties")
    machine_opts(sp)
    sp.add_argument("--max-ext-len", type=count, default=1)
    sp.set_defaults(func=cmd_chain)

    sp = add_parser("pump", help="pumping attack at one chain step")
    machine_opts(sp)
    sp.add_argument("--index", type=integer, required=True, help="chain step t >= 1")
    sp.add_argument("--max-ext-len", type=count, default=1)
    sp.set_defaults(func=cmd_pump)

    sp = add_parser("fuzz", help="differential test against the liveness oracle")
    machine_opts(sp)
    sp.add_argument("--max-len", type=count, default=4)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--samples", type=count, default=1000)
    sp.set_defaults(func=cmd_fuzz)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code, result = args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(result, str):  # raw text matrix output
        sys.stdout.write(result)
    else:
        # One line through json.dumps: json.dump and any indent encode in pure Python.
        report = _report(args, args.subcommand, result, started)
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
