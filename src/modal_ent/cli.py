"""Command line interface over the sector toolkit.

Subcommands read a state file from ``--in`` and write to ``--out``; both
default to ``-``, standard input and output, so commands compose in a
pipeline:

    modal-ent family --name psi2 | modal-ent invariants

Exit status 0 means success, 1 a usage or input problem, and 2 a check
that ran to completion but failed (a stabilizer mismatch, or monotonicity
violations in a Monte-Carlo run).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from typing import Dict, List, Optional, Union

from .classify import (
    _FAMILY_NAMES,
    canonical_form,
    chsh_value,
    family,
    membership_report,
    pair_projection,
)
from .invariants import InvariantReport, invariant_report
from .maxent import pattern_scan
from .monte_carlo import run_monotone_trials
from .serialize import (
    SCHEMA_VERSION,
    dumps_json,
    element_to_json,
    format_csv,
    read_text,
    state_from_json,
    state_to_json,
    write_text,
)
from .stabilizers import STABILIZER_NAMES, _verdict, stabilizer
from .states import StateVector

#: the scalar fields of an invariant report, in report order; W is left out
_INVARIANT_FIELDS = tuple(f.name for f in fields(InvariantReport) if f.name != "W")


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit status 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return read_text(path)


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        write_text(path, text)


def _load_state(path: str) -> StateVector:
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
    rep = invariant_report(_load_state(args.infile))
    values = {name: getattr(rep, name) for name in _INVARIANT_FIELDS}
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, **values}
        _write_output(args.out, dumps_json(doc) + "\n")
    else:
        rows = []
        for name, value in values.items():
            z = complex(value)
            rows.append({"quantity": name, "re": z.real, "im": z.imag})
        _write_output(args.out, format_csv(("quantity", "re", "im"), rows))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    rep = membership_report(_load_state(args.infile))
    summary = {
        "families": list(rep.families),
        "maximally_entangled": rep.maximally_entangled,
        "psi1_signature": rep.psi1_signature,
        "psi2_signature": rep.psi2_signature,
        "abs_I1": abs(rep.invariants.I1),
        "abs_I2": abs(rep.invariants.I2),
    }
    profile = asdict(rep.profile)
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "profile": profile, **summary}
        _write_output(args.out, dumps_json(doc) + "\n")
    else:
        summary["families"] = ";".join(rep.families)
        rows = [{"field": f"profile.{k}", "value": v} for k, v in profile.items()]
        rows += [{"field": k, "value": v} for k, v in summary.items()]
        _write_output(args.out, format_csv(("field", "value"), rows))
    return 0


def _cmd_canonical(args: argparse.Namespace) -> int:
    params = canonical_form(_load_state(args.infile))
    if args.element_out:
        _write_output(args.element_out, element_to_json(params.element))
    if args.params:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "r": list(params.r),
            "phi": params.phi,
            "phi_prime": params.phi_prime,
            "theta": params.theta,
        }
        _write_output(args.out, dumps_json(doc) + "\n")
    else:
        _write_output(args.out, state_to_json(params.state, use_symbols=args.symbols))
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    state = family(args.name, _parse_params(args.params))
    _write_output(args.out, state_to_json(state, use_symbols=args.symbols))
    return 0


def _cmd_verify_stabilizer(args: argparse.Namespace) -> int:
    stab = stabilizer(args.name, _parse_params(args.params))
    state = _load_state(args.infile)
    ok, ray_ok, bare = _verdict(stab, state, tol=1e-9)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": args.name,
        "params": stab.params,
        "stabilizes": ok,
        "ray_preserved": ray_ok,
        "bare_phase": bare,
        "declared_prefactor": stab.declared_prefactor,
        "net_phase_defect": abs(bare * stab.declared_prefactor - 1.0),
    }
    _write_output(args.out, dumps_json(doc) + "\n")
    return 0 if ok else 2


def _cmd_theorem3_scan(args: argparse.Namespace) -> int:
    rows = pattern_scan(_parse_range(args.n), _parse_range(args.p))
    text = format_csv(
        ("n", "m", "p", "feasible", "constructed", "max_ent_verified"),
        [asdict(r) for r in rows],
    )
    _write_output(args.out, text)
    return 0


def _cmd_monotone_mc(args: argparse.Namespace) -> int:
    state = _load_state(args.state) if args.state else None
    summary = run_monotone_trials(
        trials=args.trials,
        master_seed=args.seed,
        strength=args.strength,
        state=state,
    )
    if args.records:
        text = format_csv(
            ("index", "seed", "mode", "margin1", "margin2", "margin", "passed"),
            [r._asdict() for r in summary.records],
        )
        _write_output(args.records, text)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "trials": summary.trials,
        "failures": summary.failures,
        "max_margin": summary.max_margin,
        "strength": args.strength,
        "seed": args.seed,
    }
    _write_output(args.out, dumps_json(doc) + "\n")
    return 2 if summary.failures else 0


def _cmd_chsh(args: argparse.Namespace) -> int:
    state = _load_state(args.infile)
    results = {}
    for pair in ("AB", "BC", "AC"):
        vec, weight = pair_projection(state, pair)
        results[pair] = {
            "weight": weight,
            "chsh": chsh_value(vec) if vec is not None else None,
        }
    if args.format == "json":
        doc: Dict[str, object] = {"schema_version": SCHEMA_VERSION}
        doc.update(results)
        _write_output(args.out, dumps_json(doc) + "\n")
    else:
        rows = [
            {"pair": pair, "weight": res["weight"], "chsh": res["chsh"]}
            for pair, res in results.items()
        ]
        _write_output(args.out, format_csv(("pair", "weight", "chsh"), rows))
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
    p.add_argument("--name", required=True, choices=_FAMILY_NAMES)
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
