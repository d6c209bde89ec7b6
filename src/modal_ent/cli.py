"""Command line interface over the sector toolkit.

Subcommands read a state file from ``--in`` and write to ``--out``; both
default to ``-``, standard input and output, so commands compose in a
pipeline:

    modal-ent family --name psi2 | modal-ent invariants

Every report is written by :func:`_write_report`, as a JSON document with
``schema_version`` first or, under ``--format csv``, as the command's table;
a command only builds the document and rows from its library call.

Exit status 0 means success, 1 a usage or input problem, and 2 a check
that ran to completion but failed (a stabilizer mismatch, or monotonicity
violations in a Monte-Carlo run).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .names import FAMILY_NAMES, STABILIZER_NAMES

if TYPE_CHECKING:
    from .states import StateVector

# Each subcommand imports the modules it runs inside its own function, so a
# call loads only those; start-up and imports dominate a short call.


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit status 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    from .serialize import read_text

    return read_text(path)


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        from .serialize import write_text

        write_text(path, text)


def _refuse_shared_output(first: str, second: str, options: str) -> None:
    """Raise ValueError, before any work, when two outputs of one call name
    the same place: both standard output, or one file by two spellings."""
    if first == second == "-" or ("-" not in (first, second) and os.path.realpath(first) == os.path.realpath(second)):
        place = "standard output" if first == "-" else f"the file {first!r}"
        raise ValueError(f"{options} both name {place}; give each output its own place")


def _write_report(
    path: str,
    fmt: str,
    doc: Mapping[str, Any],
    fieldnames: Sequence[str] = (),
    rows: Iterable[Mapping[str, Any]] = (),
) -> None:
    """Write ``doc`` as JSON after a leading ``schema_version``, or, when
    ``fmt`` is ``"csv"``, the table of ``rows`` over ``fieldnames``."""
    from .serialize import SCHEMA_VERSION, dumps_json, format_csv

    if fmt == "csv":
        text = format_csv(fieldnames, rows)
    else:
        text = dumps_json({"schema_version": SCHEMA_VERSION, **doc}) + "\n"
    _write_output(path, text)


def _load_state(path: str) -> StateVector:
    from .serialize import state_from_json

    return state_from_json(_read_input(path))


def _parse_params(text: Optional[str]) -> Dict[str, Union[float, str]]:
    """Parse a ``key=value,key=value`` option; values resolve to float when they can."""
    out: Dict[str, Union[float, str]] = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"parameter {chunk!r} is not of the form key=value")
        key, value = (part.strip() for part in chunk.split("=", 1))
        if not key:
            raise ValueError(f"parameter {chunk!r} has an empty key")
        if key in out:
            raise ValueError(f"parameter {key!r} given twice")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def _parse_range(text: str) -> range:
    """``lo..hi`` inclusive, or a single integer."""
    lo, sep, hi = text.partition("..")
    try:
        start = int(lo)
        stop = int(hi) if sep else start
    except ValueError:
        raise ValueError(f"range {text!r} is not N or LO..HI") from None
    if stop < start:
        raise ValueError(f"range {text!r} is empty")
    return range(start, stop + 1)


def _cmd_invariants(args: argparse.Namespace) -> int:
    import cmath

    from .invariants import invariant_report

    # the fields of an invariant report, in report order
    values = invariant_report(_load_state(args.infile))._asdict()
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"invariant {name} is not finite")
    rows = [
        {"quantity": name, "re": complex(value).real, "im": complex(value).imag}
        for name, value in values.items()
    ]
    _write_report(args.out, args.format, values, ("quantity", "re", "im"), rows)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .classify import membership_report

    rep = membership_report(_load_state(args.infile))
    profile = rep.profile._asdict()
    summary = {
        "families": list(rep.families),
        "maximally_entangled": rep.maximally_entangled,
        "psi1_signature": rep.psi1_signature,
        "psi2_signature": rep.psi2_signature,
        "abs_I1": abs(rep.invariants.I1),
        "abs_I2": abs(rep.invariants.I2),
    }
    doc = {"profile": profile, **summary}
    summary["families"] = ";".join(rep.families)
    rows = [{"field": f"profile.{k}", "value": v} for k, v in profile.items()]
    rows += [{"field": k, "value": v} for k, v in summary.items()]
    _write_report(args.out, args.format, doc, ("field", "value"), rows)
    return 0


def _cmd_canonical(args: argparse.Namespace) -> int:
    from .classify import canonical_form
    from .serialize import element_to_json, state_to_json

    if args.element_out:
        _refuse_shared_output(args.element_out, args.out, "--element-out and --out")
    params = canonical_form(_load_state(args.infile))
    if args.element_out:
        _write_output(args.element_out, element_to_json(params.element))
    if args.params:
        doc = {"r": list(params.r), "phi": params.phi, "phi_prime": params.phi_prime, "theta": params.theta}
        _write_report(args.out, "json", doc)
    else:
        _write_output(args.out, state_to_json(params.state, use_symbols=args.symbols))
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    from .families import family
    from .serialize import state_to_json

    state = family(args.name, _parse_params(args.params))
    _write_output(args.out, state_to_json(state, use_symbols=args.symbols))
    return 0


def _cmd_verify_stabilizer(args: argparse.Namespace) -> int:
    from .stabilizers import _verdict, stabilizer

    stab = stabilizer(args.name, _parse_params(args.params))
    state = _load_state(args.infile)
    ok, ray_ok, bare = _verdict(stab, state, tol=1e-9)
    doc = {
        "name": args.name,
        "params": stab.params,
        "stabilizes": ok,
        "ray_preserved": ray_ok,
        "bare_phase": bare,
        "declared_prefactor": stab.declared_prefactor,
        "net_phase_defect": abs(bare * stab.declared_prefactor - 1.0),
    }
    _write_report(args.out, "json", doc)
    return 0 if ok else 2


def _cmd_theorem3_scan(args: argparse.Namespace) -> int:
    from .maxent import pattern_scan

    rows = pattern_scan(_parse_range(args.n), _parse_range(args.p))
    fieldnames = ("n", "m", "p", "feasible", "constructed", "max_ent_verified")
    _write_report(args.out, "csv", {}, fieldnames, [r._asdict() for r in rows])
    return 0


def _cmd_monotone_mc(args: argparse.Namespace) -> int:
    try:
        from .monte_carlo import run_monotone_trials
    except ModuleNotFoundError as exc:
        # the one subcommand that needs numpy
        if exc.name != "numpy":
            raise
        print("modal-ent: error: monotone-mc needs numpy, which cannot be imported", file=sys.stderr)
        return 1

    if args.records:
        _refuse_shared_output(args.records, args.out, "--records and --out")
    state = _load_state(args.state) if args.state else None
    summary = run_monotone_trials(
        trials=args.trials,
        master_seed=args.seed,
        strength=args.strength,
        state=state,
    )
    if args.records:
        fieldnames = ("index", "seed", "mode", "margin1", "margin2", "margin", "passed")
        _write_report(args.records, "csv", {}, fieldnames, [r._asdict() for r in summary.records])
    doc = {
        "trials": summary.trials,
        "failures": summary.failures,
        "max_margin": summary.max_margin,
        "strength": args.strength,
        "seed": args.seed,
    }
    _write_report(args.out, "json", doc)
    return 2 if summary.failures else 0


def _cmd_chsh(args: argparse.Namespace) -> int:
    from .classify import chsh_value, pair_projection
    from .states import require_normalized

    state = _load_state(args.infile)
    require_normalized(state, "chsh")
    results = {}
    for pair in ("AB", "BC", "AC"):
        vec, weight = pair_projection(state, pair)
        results[pair] = {
            "weight": weight,
            "chsh": chsh_value(vec) if vec is not None else None,
        }
    rows = [{"pair": pair, **res} for pair, res in results.items()]
    _write_report(args.out, args.format, results, ("pair", "weight", "chsh"), rows)
    return 0


def _add_in(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", default="-", metavar="FILE",
                   help="input state file, - for stdin (default)")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="-", metavar="FILE",
                   help="output file, - for stdout (default)")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modal-ent",
        description="Entanglement toolkit for two particles over three modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("invariants", parents=[], help="polynomial invariants of a state")
    _add_in(p), _add_out(p), _add_format(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="locality profile and family membership")
    _add_in(p), _add_out(p), _add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("canonical", help="canonical form under mode-local unitaries")
    _add_in(p), _add_out(p)
    p.add_argument("--params", action="store_true",
                   help="emit the canonical parameters instead of the state")
    p.add_argument("--element-out", metavar="FILE",
                   help="also write the reducing group element here")
    p.add_argument("--symbols", action="store_true",
                   help="write occupations as u/d/0 strings")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("family", help="build a named family member")
    _add_out(p)
    p.add_argument("--name", required=True, choices=FAMILY_NAMES)
    p.add_argument("--params", metavar="K=V,K=V", default="",
                   help="family parameters, e.g. r1=0.6,r2=0.8")
    p.add_argument("--symbols", action="store_true",
                   help="write occupations as u/d/0 strings")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify-stabilizer", help="check a stabilizer against a state")
    _add_in(p), _add_out(p)
    p.add_argument("--name", required=True, choices=STABILIZER_NAMES)
    p.add_argument("--params", metavar="K=V,K=V", default="",
                   help="stabilizer parameters, e.g. m=1,alpha=0.3")
    p.set_defaults(func=_cmd_verify_stabilizer)

    p = sub.add_parser("theorem3-scan",
                       help="scan mode/particle/spin counts for maximal entanglement")
    _add_out(p)
    p.add_argument("--n", default="1..8", metavar="LO..HI", help="mode counts (default 1..8)")
    p.add_argument("--p", default="1..3", metavar="LO..HI", help="spin numerators (default 1..3)")
    p.set_defaults(func=_cmd_theorem3_scan)

    p = sub.add_parser("monotone-mc", help="Monte-Carlo monotonicity check")
    _add_out(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="master seed of the trial tree")
    p.add_argument("--strength", type=float, default=0.5,
                   help="instrument perturbation strength (default 0.5)")
    p.add_argument("--state", metavar="FILE",
                   help="fixed input state (default: a fresh random state per trial)")
    p.add_argument("--records", metavar="FILE", help="also write per-trial records as CSV")
    p.set_defaults(func=_cmd_monotone_mc)

    p = sub.add_parser("chsh", help="CHSH values of the pair projections")
    _add_in(p), _add_out(p), _add_format(p)
    p.set_defaults(func=_cmd_chsh)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"modal-ent: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
