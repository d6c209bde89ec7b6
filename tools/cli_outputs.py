"""Run a fixed matrix of command line calls and store everything they produce.

    python tools/cli_outputs.py OUTDIR [--src DIR]

The script writes its input states into ``OUTDIR/inputs``: three random
states from fixed seeds, an unnormalized state, a four-mode state, a
state whose one amplitude, 1e200, squares past the largest double, and two
states whose invariants overflow (a cross minor of 1e200, and an AB
determinant of 1e400), one file per refusal of the state loader, plus the
family states that the ``family-*`` cases write there. Each case then
calls ``modal_ent.cli.main`` in this process, not ``python -m modal_ent.cli``,
with ``DIR`` (default: the ``src`` directory beside this script) first on
``sys.path``, in its own directory ``OUTDIR/<case>``. A case is one call or
a pipeline of calls; stage ``k`` leaves ``k.stdout``, ``k.stderr`` and
``k.exit`` there, beside any file it writes. Every path the calls see is
relative, so the output trees of two checkouts compare with ``diff -r``:

    git worktree add ../base BASE
    python tools/cli_outputs.py ../out-base --src ../base/src
    python tools/cli_outputs.py ../out-head
    diff -r ../out-base ../out-head

Tier-1 imports this runner and compares a digest of each case of its tree
with ``tests/cli_manifest.txt`` (``test_cli_matrix_matches_the_manifest``).

The matrix covers every ``modal-ent`` line of the README; ``invariants``,
``classify`` and ``chsh`` in JSON and CSV on each input state; ``canonical``
plain, with ``--symbols`` and with ``--params --element-out``;
``verify-stabilizer`` for each name, ``generic_eq13`` on a canonical state
from a pipeline, and exits 0, 1 and 2; ``monotone-mc`` with ``--records``,
with ``--state``, on psi1 at strengths 0.5 and 0, and with no trials;
``family`` at extreme parameters; ``theorem3-scan`` over ``--n 1..12
--p 1..4`` and ``--n 1..40 --p 1..5``; and the error exits on the unnormalized, four-mode and
overflowing files, ``invariants`` in both formats among them;
``invariants`` on each refused state file; the refused family
constraints, ``--params`` key and scan range; and ``canonical
--element-out`` and ``monotone-mc --records`` refused when they name the
place that ``--out`` names. The script
exits 1 if an exception escapes a call; that stage's stderr holds the traceback.
It needs only the standard library; the package it runs needs numpy for
``monotone-mc``.
"""

import argparse
import io
import json
import math
import os
import random
import shlex
import sys
import traceback

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the admissible occupations of two spin one-half particles over three modes
BASIS_321 = [
    (0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2), (1, 0, 1), (1, 0, 2),
    (1, 1, 0), (1, 2, 0), (2, 0, 1), (2, 0, 2), (2, 1, 0), (2, 2, 0),
]

#: family states that the cases below read, by input name
FAMILIES = {
    "psi1": ["--name", "psi1"],
    "psi2": ["--name", "psi2"],
    "S2": ["--name", "S2", "--params", "r=0.3,theta=1.2"],
    "Eq16": ["--name", "Eq16", "--params", "r1=0.5,r2=0.5,r3=0.5,r4=0.5"],
    "S1-symbols": ["--name", "S1", "--params", "r=0.2", "--symbols"],
}

#: the input files that README commands name, as the CI README step makes them
README_FILES = {"psi2.json": "psi2", "state.json": "S2"}

#: family calls at the edges of the parameter ranges, written to stdout
EXTREME_FAMILIES = {
    "Eq14-overflow": ["--name", "Eq14", "--params", "r1=1e200,r2=0,r3=0"],
    "Eq18-subnormal-r5": ["--name", "Eq18", "--params", "r1=0.5,r2=0.5,r3=0.5,r4=0.5,r5=1e-320"],
    "Eq16-huge-phase": ["--name", "Eq16", "--params", "r1=0.5,r2=0.5,r3=0.5,r4=0.5,phi=1e300"],
    "Eq16-huge-negative-phase": ["--name", "Eq16", "--params", "r1=0.5,r2=0.5,r3=0.5,r4=0.5,phi=-1e300"],
    "S2-negative-zero-phase": ["--name", "S2", "--params", "r=0.3,theta=-0.0"],
}

#: calls that refuse their arguments: a family constraint, an empty
#: ``--params`` key and a range that is not N or LO..HI
REFUSED_CALLS = {
    "family-Eq16-r3-zero": ["family", "--name", "Eq16", "--params", "r1=0.5,r2=0.5,r3=0,r4=0.5"],
    "family-Eq18-negative-r3": ["family", "--name", "Eq18", "--params", "r1=0.5,r2=0.5,r3=-0.1,r4=0.5,r5=0.5"],
    "family-empty-key": ["family", "--name", "S1", "--params", "=0.2"],
    "theorem3-scan-malformed-range": ["theorem3-scan", "--n", "abc"],
}

REPORT_STATES = ["psi2", "S2", "Eq16", "S1-symbols", "random-1", "random-2", "random-3", "unnormalized"]


def state_doc(shape, amplitudes):
    """State file text; amplitudes map occupations to (re, im) pairs."""
    records = [{"occ": list(occ), "re": re, "im": im} for occ, (re, im) in amplitudes.items()]
    modes, particles, spin = shape
    doc = {"shape": {"modes": modes, "particles": particles, "spin_numerator": spin}, "amplitudes": records}
    return json.dumps(doc, indent=2) + "\n"


def raw_state_doc(amplitudes, modes=3, spin=1):
    """State file text with ``amplitudes`` written as given, for files the loader refuses."""
    doc = {"shape": {"modes": modes, "particles": 2, "spin_numerator": spin}, "amplitudes": amplitudes}
    return json.dumps(doc) + "\n"


#: state files that the loader refuses, one per refusal, by input name
MALFORMED_STATES = {
    "malformed-symbols-spin-2": raw_state_doc([{"occ": "ud0", "re": 1.0, "im": 0.0}], spin=2),
    "malformed-float-occupation": raw_state_doc([{"occ": [1, 2.0, 0], "re": 1.0, "im": 0.0}]),
    "malformed-number-occupation": raw_state_doc([{"occ": 120, "re": 1.0, "im": 0.0}]),
    "malformed-amplitude-object": raw_state_doc({}),
    "malformed-float-modes": raw_state_doc([], modes=3.0),
    "malformed-nested-occupation": raw_state_doc([{"occ": [[1], 1, 0], "re": 1.0, "im": 0.0}]),
    "malformed-bool-occupation": raw_state_doc([{"occ": [1, True, 0], "re": 1.0, "im": 0.0}]),
    "malformed-duplicate-occupation": raw_state_doc(
        [{"occ": [1, 2, 0], "re": 0.6, "im": 0.0}, {"occ": [1, 2, 0], "re": 0.8, "im": 0.0}]
    ),
    "malformed-infinite-amplitude": raw_state_doc([{"occ": [1, 2, 0], "re": math.inf, "im": 0.0}]),
}


def random_state_doc(seed):
    gen = random.Random(seed)
    pairs = [(gen.gauss(0.0, 1.0), gen.gauss(0.0, 1.0)) for _ in BASIS_321]
    norm = math.sqrt(math.fsum(re * re + im * im for re, im in pairs))
    return state_doc((3, 2, 1), {occ: (re / norm, im / norm) for occ, (re, im) in zip(BASIS_321, pairs)})


def inp(name):
    return f"../inputs/{name}.json"


def readme_cases():
    """The README's ``modal-ent`` lines, split into pipeline stages."""
    with open(os.path.join(REPO, "README.md")) as fh:
        lines = [line.strip() for line in fh if line.startswith("modal-ent ")]
    cases = []
    for k, line in enumerate(lines, 1):
        stages = []
        for part in line.split(" | "):
            argv = shlex.split(part)[1:]
            stages.append([inp(README_FILES[a]) if a in README_FILES else a for a in argv])
        cases.append((f"readme-{k}", stages))
    return cases


def cases():
    out = [(f"family-{name}", [["family", *argv, "--out", inp(name)]]) for name, argv in FAMILIES.items()]
    out += readme_cases()
    for state in REPORT_STATES:
        for command in ("invariants", "classify", "chsh"):
            for fmt in ("json", "csv"):
                out.append((f"{command}-{fmt}-{state}", [[command, "--in", inp(state), "--format", fmt]]))
        for name, flags in (("plain", []), ("symbols", ["--symbols"]),
                            ("params", ["--params", "--element-out", "element.json"])):
            out.append((f"canonical-{name}-{state}", [["canonical", "--in", inp(state), *flags]]))
    stab = ["verify-stabilizer", "--name", "psi2_eq26", "--params", "alpha=0.4,beta=0.1,gamma=-0.7,delta=1.1"]
    out += [
        ("verify-stabilizer-psi2", [[*stab, "--in", inp("psi2")]]),
        ("verify-stabilizer-psi1", [[*stab, "--in", inp("psi1")]]),
        ("verify-stabilizer-four-mode", [[*stab, "--in", inp("four-mode")]]),
        ("verify-stabilizer-generic-canonical", [
            ["canonical", "--in", inp("random-1")],
            ["verify-stabilizer", "--name", "generic_eq13", "--params", "m=1,alpha=0.4"],
        ]),
        ("verify-stabilizer-family16-Eq16", [
            ["verify-stabilizer", "--name", "family16_eq20", "--params", "alpha=0.3,beta=-1.2,gamma=0.5",
             "--in", inp("Eq16")],
        ]),
        ("verify-stabilizer-psi1-a", [
            ["verify-stabilizer", "--name", "psi1_eq23", "--params", "variant=a,k=1,l=-2,n=3,p=-1,q=2,alpha=0.7",
             "--in", inp("psi1")],
        ]),
        ("monotone-mc-records", [["monotone-mc", "--trials", "3000", "--seed", "7", "--records", "records.csv"]]),
        ("monotone-mc-state", [["monotone-mc", "--trials", "500", "--seed", "3", "--state", inp("S1-symbols"),
                                "--records", "records.csv"]]),
        # psi1's I2 vanishes, so its margin2 is roundoff raised to the power
        # 2/3: the first bits that a change to the gather would move
        ("monotone-mc-psi1", [["monotone-mc", "--trials", "500", "--seed", "5", "--state", inp("psi1"),
                               "--records", "records.csv"]]),
        ("monotone-mc-psi1-strength-0", [["monotone-mc", "--trials", "500", "--seed", "5", "--strength", "0",
                                          "--state", inp("psi1"), "--records", "records.csv"]]),
        ("monotone-mc-no-trials", [["monotone-mc", "--trials", "0"]]),
        ("monotone-mc-unnormalized", [["monotone-mc", "--trials", "5", "--state", inp("unnormalized")]]),
        ("monotone-mc-four-mode", [["monotone-mc", "--trials", "5", "--state", inp("four-mode")]]),
    ]
    for command in ("invariants", "classify", "chsh", "canonical"):
        out.append((f"{command}-four-mode", [[command, "--in", inp("four-mode")]]))
    out += [(f"family-{name}", [["family", *argv]]) for name, argv in EXTREME_FAMILIES.items()]
    for command in ("classify", "canonical", "chsh"):
        out.append((f"{command}-overflow", [[command, "--in", inp("overflow")]]))
    out += [
        ("monotone-mc-overflow", [["monotone-mc", "--trials", "5", "--state", inp("overflow")]]),
        ("verify-stabilizer-overflow", [[*stab, "--in", inp("overflow")]]),
        *((f"invariants-{fmt}-{state}", [["invariants", "--in", inp(state), "--format", fmt]])
          for state in ("overflow-cross-minor", "overflow-determinant") for fmt in ("json", "csv")),
        ("theorem3-scan-wide", [["theorem3-scan", "--n", "1..12", "--p", "1..4"]]),
        ("theorem3-scan-large", [["theorem3-scan", "--n", "1..40", "--p", "1..5"]]),
    ]
    out += [(name, [argv]) for name, argv in REFUSED_CALLS.items()]
    # two outputs of one call that name the same place are refused before any work
    out += [
        ("canonical-element-out-stdout", [["canonical", "--in", inp("random-1"), "--params", "--element-out", "-"]]),
        ("canonical-element-out-same-file", [["canonical", "--in", inp("random-1"), "--element-out", "out.json",
                                              "--out", "./out.json"]]),
        ("monotone-mc-records-stdout", [["monotone-mc", "--trials", "5", "--records", "-"]]),
        ("monotone-mc-records-same-file", [["monotone-mc", "--trials", "5", "--records", "out.csv",
                                            "--out", "out.csv"]]),
    ]
    out += [(f"invariants-{name}", [["invariants", "--in", inp(name)]]) for name in MALFORMED_STATES]
    return out


def run_case(workdir, stages):
    """Run the stages of one case in ``workdir``, with the streams and the
    working directory swapped; True if no exception escaped a call."""
    from modal_ent.cli import main as cli_main

    os.makedirs(workdir)
    saved = sys.stdin, sys.stdout, sys.stderr, os.getcwd()
    stdin, clean = "", True
    try:
        os.chdir(workdir)
        for k, argv in enumerate(stages):
            sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code or 0
            except Exception:
                traceback.print_exc()
                code, clean = 1, False
            stdin = sys.stdout.getvalue()
            for suffix, text in (("stdout", stdin), ("stderr", sys.stderr.getvalue()), ("exit", f"{code}\n")):
                with open(f"{k}.{suffix}", "wb") as fh:
                    fh.write(text.encode())
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved[:3]
        os.chdir(saved[3])
    return clean


def write_tree(outdir):
    """Write the input states and the output of every case under ``outdir``;
    the names of the cases in which an exception escaped a call."""
    inputs = os.path.join(outdir, "inputs")
    os.makedirs(inputs)
    docs = {f"random-{seed}": random_state_doc(seed) for seed in (1, 2, 3)}
    docs["unnormalized"] = state_doc((3, 2, 1), {(1, 1, 0): (2.0, 0.0), (0, 1, 2): (1.0, 0.0)})
    docs["four-mode"] = state_doc((4, 2, 1), {(1, 1, 0, 0): (1.0, 0.0)})
    docs["overflow"] = state_doc((3, 2, 1), {(1, 1, 0): (1e200, 0.0)})
    docs["overflow-cross-minor"] = state_doc((3, 2, 1), {(1, 1, 0): (1e100, 0.0), (2, 0, 2): (1e100, 0.0)})
    docs["overflow-determinant"] = state_doc((3, 2, 1), {(1, 1, 0): (1e200, 0.0), (2, 2, 0): (1e200, 0.0)})
    docs.update(MALFORMED_STATES)
    for name, text in docs.items():
        with open(os.path.join(inputs, f"{name}.json"), "w") as fh:
            fh.write(text)
    return [name for name, stages in cases() if not run_case(os.path.join(outdir, name), stages)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir", help="directory to create; it must not exist")
    parser.add_argument("--src", default=os.path.join(REPO, "src"), help="directory holding the modal_ent package")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import modal_ent

    if os.path.commonpath([src, os.path.abspath(modal_ent.__file__)]) != src:
        sys.exit(f"modal_ent loads from {modal_ent.__file__}, not from {src}")
    failed = write_tree(args.outdir)
    for name in failed:
        print(f"{name}: an exception escaped a call", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
