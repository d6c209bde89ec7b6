import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import modal_ent
from modal_ent.cli import main
from modal_ent.classify import canonical_form, family
from modal_ent.serialize import element_from_json, state_from_json, state_to_json
from modal_ent.stabilizers import stabilizer
from modal_ent.states import SHAPE_321, StateVector, SystemShape, random_state

rng = np.random.default_rng(1234)


def write_state(tmp_path, name, state):
    path = tmp_path / name
    path.write_text(state_to_json(state))
    return str(path)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_family_then_invariants(tmp_path, capsys):
    state_path = write_state(tmp_path, "unused.json", family("psi1"))
    assert main(["family", "--name", "psi1", "--out", state_path]) == 0
    out_path = tmp_path / "inv.json"
    assert main(["invariants", "--in", state_path, "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == 1
    assert abs(doc["I1"]["re"] - 1.0 / 216.0) < 1e-12
    assert abs(doc["I1"]["im"]) < 1e-12
    assert abs(doc["I2"]["re"]) < 1e-12
    assert abs(doc["monotone1"] - 1.0 / 6.0) < 1e-10


def test_invariants_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(state_to_json(family("psi2"))))
    assert main(["invariants"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["I2"]["re"] + 1.0 / (3.0 * math.sqrt(3.0))) < 1e-12


def test_invariants_csv(tmp_path, capsys):
    path = write_state(tmp_path, "s.json", random_state(SHAPE_321, rng))
    assert main(["invariants", "--in", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "schema_version,quantity,re,im"
    assert len(lines) == 11
    assert lines[1].startswith("1,I_AB,")


def test_classify_psi2(tmp_path, capsys):
    path = write_state(tmp_path, "psi2.json", family("psi2"))
    assert main(["classify", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["families"] == ["Eq18"]
    assert doc["psi2_signature"] is True
    assert doc["psi1_signature"] is False
    assert doc["profile"]["tri_local"] is True
    assert doc["abs_I1"] < 1e-12


def test_classify_refuses_an_unnormalized_state(tmp_path, capsys):
    # the flags are read with tolerances that assume unit norm
    path = write_state(tmp_path, "big.json", StateVector(SHAPE_321, {(1, 1, 0): 2.0, (0, 1, 2): 1.0}))
    assert main(["classify", "--in", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "modal-ent: error: membership report expects a normalized state\n"


def test_chsh_refuses_an_unnormalized_state(tmp_path, capsys):
    # pair weights are probabilities only for a normalized state
    path = write_state(tmp_path, "big.json", StateVector(SHAPE_321, {(1, 1, 0): 2.0, (0, 1, 2): 1.0}))
    for fmt in ("json", "csv"):
        assert main(["chsh", "--in", path, "--format", fmt]) == 1
        assert capsys.readouterr() == ("", "modal-ent: error: chsh expects a normalized state\n")


#: each command on a file whose one amplitude, 1e200, squares past the
#: largest double, and the message it must refuse the file with
_OVERFLOW_REFUSALS = [
    (["classify"], "membership report expects a normalized state"),
    (["canonical"], "canonical form expects a normalized state"),
    (["chsh"], "chsh expects a normalized state"),
    (["monotone-mc", "--trials", "3", "--state"], "monotonicity trial expects a normalized state"),
    (["verify-stabilizer", "--name", "psi2_eq26"], "cannot compare against a state whose norm overflows"),
]


@pytest.mark.parametrize("argv, message", _OVERFLOW_REFUSALS, ids=[a[0] for a, _ in _OVERFLOW_REFUSALS])
def test_an_overflowing_norm_is_refused_as_infinite(tmp_path, capsys, argv, message):
    path = write_state(tmp_path, "huge.json", StateVector(SHAPE_321, {(1, 1, 0): 1e200}))
    if argv[-1] != "--state":
        argv = [*argv, "--in"]
    assert main([*argv, path]) == 1
    assert capsys.readouterr() == ("", f"modal-ent: error: {message}\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "amplitudes, quantity",
    [
        # a cross minor of 1e200 squares past the largest double
        ({(1, 1, 0): 1e100, (2, 0, 2): 1e100}, "I_A_BC"),
        # the AB determinant itself overflows
        ({(1, 1, 0): 1e200, (2, 2, 0): 1e200}, "I_AB"),
    ],
    ids=["cross-minor", "determinant"],
)
def test_invariants_names_the_first_quantity_that_is_not_finite(tmp_path, capsys, amplitudes, quantity, fmt):
    path = write_state(tmp_path, "huge.json", StateVector(SHAPE_321, amplitudes))
    assert main(["invariants", "--in", path, "--format", fmt]) == 1
    assert capsys.readouterr() == ("", f"modal-ent: error: invariant {quantity} is not finite\n")


def test_family_refuses_parameters_whose_norm_overflows(capsys):
    assert main(["family", "--name", "Eq14", "--params", "r1=1e200,r2=0,r3=0"]) == 1
    assert capsys.readouterr() == ("", "modal-ent: error: Eq14 parameters give squared norm inf, expected 1\n")
    # r3 * r4 / r5 overflows, and the phase factor must not raise a warning
    # on the way to the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["family", "--name", "Eq18", "--params", "r1=0.5,r2=0.5,r3=0.5,r4=0.5,r5=1e-320"]) == 1
    assert capsys.readouterr() == ("", "modal-ent: error: Eq18 parameters give squared norm inf, expected 1\n")


def test_canonical_outputs(tmp_path, capsys):
    psi = random_state(SHAPE_321, rng)
    path = write_state(tmp_path, "s.json", psi)
    el_path = tmp_path / "el.json"
    assert main(["canonical", "--in", path, "--params", "--element-out", str(el_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["r"]) == 9
    assert all(isinstance(v, float) for v in doc["r"])
    element = element_from_json(el_path.read_text())
    assert np.asarray(element.matrices).shape == (3, 3, 3)

    out_path = tmp_path / "canon.json"
    assert main(["canonical", "--in", path, "--out", str(out_path)]) == 0
    canon = state_from_json(out_path.read_text())
    from modal_ent.operators import apply

    assert np.abs(apply(element, psi).dense() - canon.dense()).max() < 1e-10


def test_family_symbols(capsys):
    assert main(["family", "--name", "psi2", "--symbols"]) == 0
    out = capsys.readouterr().out
    assert '"uu0"' in out
    state = state_from_json(out)
    assert abs(state.amplitude((1, 1, 0)) - 1.0 / math.sqrt(3.0)) < 1e-15


def test_family_parameter_errors(capsys):
    assert main(["family", "--name", "Eq14", "--params", "r1=0.6"]) == 1
    assert "modal-ent: error:" in capsys.readouterr().err
    assert main(["family", "--name", "S1", "--params", "r=0.1,r=0.2"]) == 1
    assert "given twice" in capsys.readouterr().err
    assert main(["family", "--name", "S1", "--params", "nonsense"]) == 1
    capsys.readouterr()
    assert main(["family", "--name", "S1", "--params", "=0.2"]) == 1
    assert capsys.readouterr().err == "modal-ent: error: parameter '=0.2' has an empty key\n"
    assert main(["family", "--name", "S2", "--params", "r=0.3,theta=nan"]) == 1
    assert "family parameter 'theta' must be finite, got nan" in capsys.readouterr().err
    assert main(["family", "--name", "Eq14", "--params", "r1=inf,r2=0,r3=0"]) == 1
    assert "family parameter 'r1' must be finite, got inf" in capsys.readouterr().err
    assert main(["family", "--name", "S1", "--params", "r=abc"]) == 1
    assert capsys.readouterr().err == "modal-ent: error: family parameter 'r' must be a number, got 'abc'\n"
    # a value that float() refuses with TypeError is named the same way
    for value in (None, [0.6], 1j):
        message = f"family parameter 'r1' must be a number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            family("Eq14", {"r1": value, "r2": 0.8, "r3": 0.0})


def test_verify_stabilizer_exit_codes(tmp_path, capsys):
    psi2_path = write_state(tmp_path, "psi2.json", family("psi2"))
    code = main(
        ["verify-stabilizer", "--name", "psi2_eq26",
         "--params", "alpha=0.4,beta=0.1,gamma=-0.7,delta=1.1",
         "--in", psi2_path]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stabilizes"] is True
    assert doc["net_phase_defect"] < 1e-9

    psi1_path = write_state(tmp_path, "psi1.json", family("psi1"))
    code = main(
        ["verify-stabilizer", "--name", "psi2_eq26",
         "--params", "alpha=0.4,beta=0.1,gamma=-0.7,delta=1.1",
         "--in", psi1_path]
    )
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["stabilizes"] is False
    assert "bare_phase" in doc

    for name, params, message in [
        ("generic_eq13", "alpha=nan", "parameter 'alpha' must be finite, got nan"),
        ("family16_eq20", "gamma=-inf", "parameter 'gamma' must be finite, got -inf"),
        ("generic_eq13", "alpha=abc", "parameter 'alpha' must be a number, got 'abc'"),
        ("generic_eq13", "m=xyz", "parameter 'm' must be an integer, got xyz"),
        ("psi2_eq26", "alpha=1e300", "the exponential on mode 0 overflows"),
        ("psi1_eq23", "variant=c,beta=1e155", "the exponential on mode 0 overflows"),
    ]:
        assert main(["verify-stabilizer", "--name", name, "--params", params, "--in", psi2_path]) == 1
        assert capsys.readouterr().err == f"modal-ent: error: {message}\n"
    for params, message in [
        ({"alpha": None}, "parameter 'alpha' must be a number, got None"),
        ({"m": [1]}, "parameter 'm' must be an integer, got [1]"),
        ({"m": None}, "parameter 'm' must be an integer, got None"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stabilizer("generic_eq13", params)

    # the named elements act on three modes; a state of another shape is named as such
    four_mode = write_state(tmp_path, "four.json", StateVector(SystemShape(4, 2, 1), {(1, 1, 0, 0): 1.0}))
    assert main(["verify-stabilizer", "--name", "psi2_eq26", "--in", four_mode]) == 1
    assert capsys.readouterr().err == (
        "modal-ent: error: stabilizer elements act on shape (3, 2, 1), "
        "got SystemShape(modes=4, particles=2, spin_numerator=1)\n"
    )


def test_scan_table(capsys):
    assert main(["theorem3-scan"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "schema_version,n,m,p,feasible,constructed,max_ent_verified"
    feasible = []
    for line in lines[1:]:
        _, n, m, p, ok, built, verified = line.split(",")
        if ok == "true":
            feasible.append((int(n), int(m), int(p)))
            assert built == "true" and verified == "true"
    assert sorted(feasible) == [(3, 2, 1), (4, 3, 2), (5, 4, 3), (6, 4, 1), (8, 6, 2)]


def test_scan_range_arguments(capsys):
    assert main(["theorem3-scan", "--n", "3", "--p", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # header plus m = 1..3
    assert main(["theorem3-scan", "--n", "5..3"]) == 1
    assert "range" in capsys.readouterr().err
    assert main(["theorem3-scan", "--n", "abc"]) == 1
    assert capsys.readouterr().err == "modal-ent: error: range 'abc' is not N or LO..HI\n"
    # a mode count below one is refused, not dropped or scanned to an empty table
    for n_range, bad in (("-2..2", "n=-2"), ("0", "n=0")):
        assert main(["theorem3-scan", f"--n={n_range}", "--p", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"modal-ent: error: counts must be positive, got {bad}, p=1\n"
    assert main(["theorem3-scan", "--p", "0..1"]) == 1
    assert "counts must be positive" in capsys.readouterr().err


def test_monotone_mc_run(tmp_path, capsys):
    records = tmp_path / "records.csv"
    code = main(
        ["monotone-mc", "--trials", "25", "--seed", "7", "--records", str(records)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 25
    assert doc["failures"] == 0
    lines = records.read_text().splitlines()
    assert len(lines) == 26
    assert lines[0] == "schema_version,index,seed,mode,margin1,margin2,margin,passed"

    code = main(["monotone-mc", "--trials", "25", "--seed", "7"])
    assert code == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["max_margin"] == doc["max_margin"]


def test_monotone_mc_fixed_state(tmp_path, capsys):
    path = write_state(tmp_path, "s1.json", family("S1", {"r": 0.2}))
    assert main(["monotone-mc", "--trials", "10", "--seed", "3", "--state", path]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["monotone-mc", "--trials", "10", "--state", path, "--random"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --random" in capsys.readouterr().err


@pytest.mark.parametrize("strength", ["nan", "inf", "-0.5"])
def test_monotone_mc_rejects_bad_strength(strength, capfd):
    code = main(["monotone-mc", "--trials", "5", "--seed", "1", "--strength", strength])
    assert code == 1
    err = capfd.readouterr().err
    assert "strength must be finite and non-negative" in err
    assert "DLASCL" not in err and "LinAlgError" not in err


# SHA-256 of the records CSV and of the JSON summary. The == tests of the
# batched kernel compare it with replays through the same code, and the
# scalar oracle allows 1e-15, so only these pins catch a change that moves
# the last bits of both paths at once.
_MC_PINS = [
    (
        ["--trials", "2000", "--seed", "7"],
        "b0c42f9115846dad7146ac98511494e965cd81a313d11f47da9e5da3a74adc25",
        "01a84393c271df83c780a3d51f4fe4f63ccc93a9e9c4e1043b4837ab1b1f78a2",
    ),
    (
        ["--trials", "500", "--seed", "7", "--strength", "0"],
        "440b6ad74979573f42cd786dd546c3796820238e3dcadb8e2c383226e5f0240c",
        "1d05bdd933588858354a879d2f8819f99bf68f5d229f13ad11d04307833cf080",
    ),
    (
        # I2 of psi1 vanishes, so its margin2 is roundoff raised to 2/3
        ["--trials", "500", "--seed", "7", "--state", "psi1"],
        "b80520ba36e64ca53ace628680eecc88175df2b5b61e4eb92c2f740ae7077f75",
        "a3884f239e5268dc4ba0e69930748c9c1e37b4eab5ad36620bb27e48efc98c2c",
    ),
]


def _mc_pin_argv(tmp_path, argv):
    """The CLI arguments of a pinned run, writing its records and summary under ``tmp_path``."""
    if "--state" in argv:
        state = str(tmp_path / "psi1.json")
        assert main(["family", "--name", "psi1", "--out", state]) == 0
        argv = [state if a == "psi1" else a for a in argv]
    return ["monotone-mc", *argv, "--records", str(tmp_path / "records.csv"), "--out", str(tmp_path / "summary.json")]


@pytest.mark.parametrize("argv, records_sha, summary_sha", _MC_PINS, ids=["random", "zero-strength", "psi1"])
def test_monotone_mc_outputs_are_pinned(tmp_path, argv, records_sha, summary_sha):
    assert main(_mc_pin_argv(tmp_path, argv)) == 0
    assert _sha256(tmp_path / "records.csv") == records_sha
    assert _sha256(tmp_path / "summary.json") == summary_sha


#: the CPU features under which numpy's array power rounded differently
_SIMD_FEATURES = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
#: the extension module that reports numpy's CPU features, moved in numpy 2
_UMATH = "numpy._core._multiarray_umath" if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else "numpy.core._multiarray_umath"


def test_monotone_mc_pins_hold_without_simd_dispatch(tmp_path):
    # the margins use only correctly rounded arithmetic and libm, so turning
    # off numpy's wider kernels leaves every byte in place; a feature can be
    # turned off only where it is detected and not compiled in
    umath = importlib.import_module(_UMATH)
    off = [f for f in _SIMD_FEATURES if umath.__cpu_features__.get(f) and f not in umath.__cpu_baseline__]
    runs = []
    for i, (argv, _, _) in enumerate(_MC_PINS):
        (tmp_path / str(i)).mkdir()
        runs.append(_mc_pin_argv(tmp_path / str(i), argv))
    probe = (
        f"import importlib, json, sys; from modal_ent.cli import main; umath = importlib.import_module({_UMATH!r}); "
        "print(json.dumps([umath.__cpu_features__[f] for f in sys.argv[2:]])); "
        "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))"
    )
    out = run_python(probe, json.dumps(runs), *off, env={"NPY_DISABLE_CPU_FEATURES": " ".join(off)})
    # the features were on in this process, and are off in the probe's
    assert json.loads(out) == [False] * len(off)
    for i, (_, records_sha, summary_sha) in enumerate(_MC_PINS):
        assert _sha256(tmp_path / str(i) / "records.csv") == records_sha
        assert _sha256(tmp_path / str(i) / "summary.json") == summary_sha


#: the directory that holds the package under test
SRC = os.path.dirname(os.path.dirname(os.path.abspath(modal_ent.__file__)))


def run_python(probe, *args, cwd=None, stdin=None, env=None):
    """Run ``python -c probe args`` in a fresh interpreter on this checkout's
    package, with ``env`` added to the environment."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, **(env or {}), PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env, cwd=cwd, input=stdin, capture_output=True, text=True, check=True, timeout=60,
    ).stdout


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, modal_ent.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    assert run_python(probe).strip() == "[]"


def test_package_import_loads_no_submodule():
    probe = "import sys, modal_ent; print(sorted(m for m in sys.modules if m.startswith(('modal_ent.', 'numpy'))))"
    assert run_python(probe).strip() == "[]"


#: subcommand, its arguments, and the package modules (and numpy, dataclasses
#: and inspect, which dataclasses loads) it must not load
_START_UP_CASES = [
    ("invariants", ["--in", "psi2.json"],
     {"classify", "operators", "stabilizers", "maxent", "monte_carlo", "numpy", "dataclasses", "inspect"}),
    ("theorem3-scan", ["--n", "1..4", "--p", "1"],
     {"classify", "invariants", "operators", "stabilizers", "monte_carlo", "numpy", "dataclasses", "inspect"}),
    ("classify", ["--in", "psi2.json"],
     {"families", "operators", "stabilizers", "maxent", "monte_carlo", "numpy", "dataclasses", "inspect"}),
    ("chsh", ["--in", "psi2.json"],
     {"families", "operators", "stabilizers", "maxent", "monte_carlo", "numpy", "dataclasses", "inspect"}),
    ("verify-stabilizer", ["--name", "psi2_eq26", "--in", "psi2.json"],
     {"classify", "invariants", "maxent", "monte_carlo", "numpy", "dataclasses", "inspect"}),
    ("family", ["--name", "psi1"],
     {"classify", "invariants", "operators", "stabilizers", "maxent", "monte_carlo", "numpy", "dataclasses",
      "inspect"}),
    ("monotone-mc", ["--trials", "3"], {"classify", "stabilizers", "maxent"}),
]


@pytest.mark.parametrize("command, args, unused", _START_UP_CASES, ids=[c[0] for c in _START_UP_CASES])
def test_subcommand_loads_only_its_modules(tmp_path, command, args, unused):
    write_state(tmp_path, "psi2.json", family("psi2"))
    probe = (
        "import sys; from modal_ent.cli import main; "
        "code = main(sys.argv[1:]); "
        "print(code, *sorted(m.split('.')[-1] for m in sys.modules "
        "if m.startswith('modal_ent.') or m in ('numpy', 'dataclasses', 'inspect')))"
    )
    code, *loaded = run_python(probe, command, *args, "--out", "out", cwd=tmp_path).split()
    assert code == "0"
    assert (tmp_path / "out").stat().st_size > 0
    assert unused.isdisjoint(loaded)


#: each family with the parameter options that the numpy-free calls build it from
_FAMILY_PARAMS = {
    "Eq14": ["--params", "r1=0.6,r2=0.8,r3=0"],
    "Eq15": ["--params", "r1=0.6,r2=0.64,r3=0.48"],
    "Eq16": ["--params", "r1=0.5,r2=0.5,r3=0.5,r4=0.5,phi=0.7"],
    "Eq18": ["--params", f"r1=0.5,r2={math.sqrt(0.1875)!r},r3=0.3,r4=0.3,r5=0.6,theta=1.1"],
    "S1": ["--params", "r=0.2"],
    "S2": ["--params", "r=0.3,theta=1.2"],
    "psi1": [],
    "psi2": [],
}

#: the calls that must run with numpy, dataclasses and inspect unimportable,
#: with the exit status each must give: each family, plain and with
#: --symbols; invariants from stdin and from --in, and classify and chsh, in
#: both formats; the scan; and each stabilizer on a state it fixes or, for
#: odd q, does not, and on a four-mode state. "STATE" names a dense random state file, "CANONICAL"
#: the canonical form of one, and each family name the file of that family.
_NUMPY_FREE_CALLS = [
    (["family", "--name", name, *params, *symbols], 0)
    for name, params in _FAMILY_PARAMS.items()
    for symbols in ([], ["--symbols"])
] + [
    (["invariants", *source, "--format", fmt], 0) for source in ([], ["--in", "STATE"]) for fmt in ("json", "csv")
] + [
    (["theorem3-scan", "--n", n_range, "--p", p_range], 0) for n_range, p_range in (("1..8", "1..3"), ("1..12", "1..4"))
] + [
    ([command, "--in", source, "--format", fmt], 0)
    for command in ("classify", "chsh")
    for source in ("STATE", *_FAMILY_PARAMS)
    for fmt in ("json", "csv")
] + [
    (["verify-stabilizer", "--name", name, "--params", params, "--in", source], code)
    for name, params, source, code in (
        ("generic_eq13", "m=1,alpha=0.4", "CANONICAL", 0),
        ("family16_eq20", "alpha=0.3,beta=-1.2,gamma=0.5", "Eq16", 0),
        ("psi1_eq23", "variant=a,k=1,l=-2,m=0,n=3,p=-1,q=2,alpha=0.7", "psi1", 0),
        ("psi1_eq23", "variant=a,k=1,q=1", "psi1", 2),
        ("psi1_eq23", "variant=b", "psi1", 0),
        ("psi1_eq23", "variant=c,beta=0.7", "psi1", 0),
        ("psi2_eq26", "alpha=0.4,beta=0.1,gamma=-0.7,delta=1.1", "psi2", 0),
        ("psi2_eq26", "alpha=0.4", "FOUR_MODE", 1),
    )
]


def test_numpy_free_calls_match_a_normal_run(tmp_path, monkeypatch, capsys):
    # one fresh interpreter in which importing numpy, dataclasses or inspect
    # fails runs every call, and each must give the exit status and the bytes
    # of the same call run normally, on stdout and on stderr
    state_text = state_to_json(random_state(SHAPE_321, rng))
    (tmp_path / "STATE").write_text(state_text)
    (tmp_path / "CANONICAL").write_text(state_to_json(canonical_form(random_state(SHAPE_321, rng)).state))
    (tmp_path / "FOUR_MODE").write_text(state_to_json(StateVector(SystemShape(4, 2, 1), {(1, 1, 0, 0): 1.0})))
    monkeypatch.chdir(tmp_path)
    for name, params in _FAMILY_PARAMS.items():
        assert main(["family", "--name", name, *params, "--out", name]) == 0
    calls = [argv for argv, _ in _NUMPY_FREE_CALLS]
    expected = []
    for argv, code in _NUMPY_FREE_CALLS:
        monkeypatch.setattr(sys, "stdin", io.StringIO(state_text))
        assert main(argv) == code, argv
        expected.append([code, *capsys.readouterr()])
    probe = (
        "import contextlib, io, json, sys; "
        "sys.modules['numpy'] = sys.modules['dataclasses'] = sys.modules['inspect'] = None; "
        "from modal_ent.cli import main; outputs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    sys.stdin, out, err = io.StringIO(sys.argv[2]), io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    outputs.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(outputs))"
    )
    got = json.loads(run_python(probe, json.dumps(calls), state_text, cwd=tmp_path))
    assert got == expected


def test_chsh_command(tmp_path, capsys):
    path = write_state(tmp_path, "s1.json", family("S1", {"r": 0.1}))
    assert main(["chsh", "--in", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    for pair in ("AB", "BC", "AC"):
        assert abs(doc[pair]["weight"] - 1.0 / 3.0) < 1e-12
        assert abs(doc[pair]["chsh"] - 2.0 * math.sqrt(2.0)) < 1e-9

    lonely = write_state(
        tmp_path, "ab.json",
        StateVector(SHAPE_321, {(1, 2, 0): 0.6, (2, 1, 0): 0.8}),
    )
    assert main(["chsh", "--in", lonely]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["BC"]["chsh"] is None
    assert doc["BC"]["weight"] == 0.0
    assert main(["chsh", "--in", lonely, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "schema_version,pair,weight,chsh"
    bc_line = [ln for ln in lines if ln.startswith("1,BC,")][0]
    assert bc_line.endswith(",")


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["family", "--name", "NotAFamily"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["monotone-mc", "--trials", "8", "--threads", "16"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --threads 16" in capsys.readouterr().err


def test_missing_input_file_exits_one(capsys):
    assert main(["invariants", "--in", "/no/such/file.json"]) == 1
    assert "modal-ent: error:" in capsys.readouterr().err


def test_malformed_stdin_exits_one(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("{bad json"))
    assert main(["invariants"]) == 1
    assert "invalid JSON" in capsys.readouterr().err


# A dense state with every slot populated, written as 17-digit amplitudes,
# and its CSV reports pinned byte for byte.
_GOLDEN_AMPLITUDES = {
    (0, 1, 1): complex(-0.23553757473980497, -0.019044395923011385),
    (0, 1, 2): complex(0.071443665324660399, -0.025384405335233305),
    (0, 2, 1): complex(-0.56316158385352622, 0.047788130539571615),
    (0, 2, 2): complex(0.41450935232163388, -0.18234813414134957),
    (1, 0, 1): complex(0.18955760296349308, -0.11990374893708712),
    (1, 0, 2): complex(-0.08673081211540902, 0.16281958615095238),
    (1, 1, 0): complex(-0.092641162626235632, -0.038750132046826792),
    (1, 2, 0): complex(0.090231518949895687, -0.4081702614887453),
    (2, 0, 1): complex(-0.079488427588415358, -0.14173986441998668),
    (2, 0, 2): complex(-0.067089291928111486, 0.19500022414798798),
    (2, 1, 0): complex(0.21384216597740394, -0.068982184346045597),
    (2, 2, 0): complex(0.15285459644775595, -0.044169931510672236),
}

_GOLDEN_CSV = {
    "invariants": (
        "schema_version,quantity,re,im\n"
        "1,I_AB,-0.0070110454353086195,0.091677198090296952\n"
        "1,I_BC,-0.06208398317050777,0.017346075936047665\n"
        "1,I_AC,-0.019308149387969251,0.045657092016014006\n"
        "1,I1,0.00028771861791087623,5.9511670482773163e-05\n"
        "1,I2,-0.0066754569896755184,-0.015293911395622004\n"
        "1,monotone1,0.066479583900267494,0\n"
        "1,monotone2,0.065301592704125194,0\n"
        "1,I_A_BC,0.024170103899758443,0\n"
        "1,I_B_AC,0.031830500809892276,0\n"
        "1,I_C_AB,0.015599357550621095,0\n"
    ),
    "classify": (
        "schema_version,field,value\n"
        "1,profile.nonlocal_AB,true\n"
        "1,profile.nonlocal_BC,true\n"
        "1,profile.nonlocal_AC,true\n"
        "1,profile.nonlocal_A_BC,true\n"
        "1,profile.nonlocal_B_AC,true\n"
        "1,profile.nonlocal_C_AB,true\n"
        "1,profile.tri_local,false\n"
        "1,families,\n"
        "1,maximally_entangled,false\n"
        "1,psi1_signature,false\n"
        "1,psi2_signature,false\n"
        "1,abs_I1,0.00029380885285538105\n"
        "1,abs_I2,0.0166872841348778\n"
    ),
    "chsh": (
        "schema_version,pair,weight,chsh\n"
        "1,AB,0.2606311713341064,2.4476999221975326\n"
        "1,BC,0.58609272361543863,2.0478156155115164\n"
        "1,AC,0.15327610505045497,2.3819245336345141\n"
    ),
}


@pytest.mark.parametrize("command", sorted(_GOLDEN_CSV))
def test_csv_reports_are_byte_stable(tmp_path, capsys, command):
    path = write_state(tmp_path, "dense.json", StateVector(SHAPE_321, dict(_GOLDEN_AMPLITUDES)))
    capsys.readouterr()
    assert main([command, "--in", path, "--format", "csv"]) == 0
    assert capsys.readouterr().out == _GOLDEN_CSV[command]


TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"
MANIFEST = pathlib.Path(__file__).with_name("cli_manifest.txt")


def _tree_digests(root):
    """The SHA-256 of each directory's ``sha256sum`` lines, one per file in name order."""
    digests = {}
    for case in sorted(root.iterdir()):
        lines = "".join(f"{_sha256(path)}  {path.name}\n" for path in sorted(case.iterdir()))
        digests[case.name] = hashlib.sha256(lines.encode()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def cli_matrix(tmp_path_factory):
    """The digests of ``tools/cli_outputs.py``'s tree, written in this process,
    and the cases that the manifest compares: all but the 28 with a
    ``canonical`` stage, whose bytes depend on the kernel numpy's OpenBLAS
    picks until ROADMAP item 11. With ``OPENBLAS_CORETYPE`` set to Prescott,
    Haswell, Nehalem or Sandybridge, the same 17 of them moved:
    ``canonical-{plain,symbols,params}-{S2,Eq16,random-1,random-2,random-3}``,
    ``readme-4`` and ``verify-stabilizer-generic-canonical``."""
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    root = tmp_path_factory.mktemp("cli-matrix")
    assert tool.write_tree(str(root)) == []
    compared = ["inputs", *(name for name, stages in tool.cases() if all(a[0] != "canonical" for a in stages))]
    return _tree_digests(root), sorted(compared)


def test_cli_matrix_matches_the_manifest(cli_matrix, tmp_path):
    # the header names the numpy whose PCG64 streams the monotone-mc cases
    # draw from; it is written, not compared
    digests, compared = cli_matrix
    lines = [line.split("  ") for line in MANIFEST.read_text().splitlines() if not line.startswith("#")]
    want = {case: digest for digest, case in lines}
    got = {case: digests[case] for case in compared}
    if got != want:
        fresh = tmp_path / MANIFEST.name
        fresh.write_text(f"# numpy {np.__version__}\n" + "".join(f"{got[case]}  {case}\n" for case in compared))
        changed = sorted(case for case in got.keys() & want.keys() if got[case] != want[case])
        missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
        pytest.fail(f"changed: {changed}, missing: {missing}, extra: {extra}; regenerated manifest: {fresh}")


def test_cli_matrix_does_not_depend_on_the_openblas_kernel(cli_matrix, tmp_path):
    # the oldest x86-64 kernel gives the same bytes in each compared case; where
    # numpy's OpenBLAS is not a DYNAMIC_ARCH build, it ignores the variable
    # and this passes trivially
    digests, compared = cli_matrix
    subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "tree"), "--src", SRC],
        env=dict(os.environ, OPENBLAS_CORETYPE="Prescott"), capture_output=True, check=True, timeout=600,
    )
    prescott = _tree_digests(tmp_path / "tree")
    assert [case for case in compared if prescott[case] != digests[case]] == []


def test_canonical_readme_command_is_pinned(tmp_path):
    path = write_state(tmp_path, "dense.json", StateVector(SHAPE_321, dict(_GOLDEN_AMPLITUDES)))
    params, element = tmp_path / "params.json", tmp_path / "element.json"
    assert main(["canonical", "--in", path, "--params", "--element-out", str(element), "--out", str(params)]) == 0
    assert [_sha256(params), _sha256(element)] == [
        "d92d34104ef82ef8a4a9233a8d75db49fc5369cd97d213cbb17b62a7b9e7e21a",
        "d2b46e41a592f37781ff9e1694f42f45a931ea0de5b2d22ec44b143435e11e00",
    ]


# SHA-256 of the JSON reports and of the plain canonical state of the dense
# state above; its CSV reports are pinned in full by _GOLDEN_CSV.
_GOLDEN_JSON = {
    ("invariants",): "25b96d9a47168c249eb584b78bd66b40abf707688f4a0d1efa9c38fdf6dd02eb",
    ("classify",): "8263d55aed1a0899bf8c998b8cf3504eda6406e8c77c16f4b13223d99752289d",
    ("chsh",): "3abdb0b884cabcdfb829bb17fd9481de58c180cdd3720fd548ed6fe672128497",
    ("canonical",): "49fe0492383d4a37dfb476021395a941d4577f5267b6ca325a001e098ce7eba4",
    ("canonical", "--symbols"): "4ba5d8b2dfcc494060b5569a2dea9493f3781dafadb9c0ba3c0ca6f402e6a0b4",
}


@pytest.mark.parametrize("argv", sorted(_GOLDEN_JSON), ids=" ".join)
def test_json_outputs_are_pinned(tmp_path, argv):
    path = write_state(tmp_path, "dense.json", StateVector(SHAPE_321, dict(_GOLDEN_AMPLITUDES)))
    out = tmp_path / "out.json"
    assert main([*argv, "--in", path, "--out", str(out)]) == 0
    assert _sha256(out) == _GOLDEN_JSON[argv]


def test_verify_stabilizer_applies_its_element_once(tmp_path, monkeypatch, capsys):
    path = write_state(tmp_path, "psi1.json", family("psi1"))
    original = modal_ent.operators.apply
    calls = []

    def counting(element, state):
        calls.append(element)
        return original(element, state)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "modal_ent" and getattr(module, "apply", None) is original:
            monkeypatch.setattr(module, "apply", counting)
    argv = ["verify-stabilizer", "--name", "psi1_eq23", "--params", "variant=a,q=1", "--in", path]
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["ray_preserved"] is False
    assert len(calls) == 1


def test_monotone_mc_refuses_an_overflowing_strength(capfd):
    code = main(["monotone-mc", "--trials", "5", "--seed", "1", "--strength", "1.7e308"])
    assert code == 1
    err = capfd.readouterr().err
    assert "overflows the instrument entries" in err
    assert "DLASCL" not in err and "RuntimeWarning" not in err
    assert main(["monotone-mc", "--trials", "5", "--seed", "1", "--strength", "1e307"]) == 0
