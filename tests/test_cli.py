import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import modal_ent
from modal_ent.cli import main
from modal_ent.classify import family
from modal_ent.serialize import element_from_json, state_from_json, state_to_json
from modal_ent.states import SHAPE_321, StateVector, random_state

rng = np.random.default_rng(1234)


def write_state(tmp_path, name, state):
    path = tmp_path / name
    path.write_text(state_to_json(state))
    return str(path)


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


def test_canonical_outputs(tmp_path, capsys):
    psi = random_state(SHAPE_321, rng)
    path = write_state(tmp_path, "s.json", psi)
    el_path = tmp_path / "el.json"
    assert main(["canonical", "--in", path, "--params", "--element-out", str(el_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["r"]) == 9
    assert all(isinstance(v, float) for v in doc["r"])
    element = element_from_json(el_path.read_text())
    assert len(element.per_mode) == 3

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
    assert main(["monotone-mc", "--trials", "10", "--state", path, "--random"]) == 1
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("strength", ["nan", "inf", "-0.5"])
def test_monotone_mc_rejects_bad_strength(strength, capfd):
    code = main(["monotone-mc", "--trials", "5", "--seed", "1", "--strength", strength])
    assert code == 1
    err = capfd.readouterr().err
    assert "strength must be finite and non-negative" in err
    assert "DLASCL" not in err and "LinAlgError" not in err


def test_thread_cap_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("MODAL_ENT_THREADS", "2")
    assert main(["monotone-mc", "--trials", "8", "--seed", "1", "--threads", "16"]) == 0


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(modal_ent.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = (
        "import sys, modal_ent.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


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
        "1,AB,0.26063117133410646,2.4476999221975331\n"
        "1,BC,0.58609272361543852,2.0478156155115164\n"
        "1,AC,0.15327610505045497,2.3819245336345141\n"
    ),
}


@pytest.mark.parametrize("command", sorted(_GOLDEN_CSV))
def test_csv_reports_are_byte_stable(tmp_path, capsys, command):
    path = write_state(tmp_path, "dense.json", StateVector(SHAPE_321, dict(_GOLDEN_AMPLITUDES)))
    capsys.readouterr()
    assert main([command, "--in", path, "--format", "csv"]) == 0
    assert capsys.readouterr().out == _GOLDEN_CSV[command]


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
