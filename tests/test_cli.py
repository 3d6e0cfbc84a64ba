"""CLI: command surface, JSON schema, determinism, exit codes."""

import json

import pytest
from mpmath import mp, mpc, mpf

from thetaheights import cli
from thetaheights.cli import run
from thetaheights.hyper_faltings import bomemo_closed_form
from thetaheights.precision import PrecisionContext
from thetaheights.siegel import check_reduced, reduce_g1
from thetaheights.theta_engine import ThetaCharacteristic, theta_char

CM_CURVE = '{"genus":1,"P":["0","0","0","1"],"Q":["1"]}'
E37_CURVE = '{"genus":1,"P":["0","-1","0","1"],"Q":["1"]}'


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_elliptic_faltings_document(tmp_path, capsys):
    code, doc = run_json(["elliptic", "faltings", "--curve", CM_CURVE], tmp_path)
    assert code == 0
    assert doc["command"] == "elliptic faltings"
    assert doc["precision_bits"] == 128
    assert doc["total"].startswith("0.4448391198683623")
    places = {row["place"]: row for row in doc["places"]}
    assert set(places) == {"p=3", "inf"}
    assert places["p=3"]["d_v"] == 1
    assert any("semistable" in w for w in doc["warnings"])
    table = capsys.readouterr().out
    assert "h_F+" in table


def test_elliptic_faltings_stable_flag(tmp_path):
    code, doc = run_json(["elliptic", "faltings", "--curve", CM_CURVE, "--stable"],
                         tmp_path)
    assert code == 0
    assert doc["total"].startswith("0.1701860477013349")


def test_elliptic_faltings_warns_on_nonminimal_model(tmp_path):
    curve = '{"genus":1,"P":["16","0","0","1"],"Q":[]}'
    code, doc = run_json(["elliptic", "faltings", "--curve", curve], tmp_path)
    assert code == 0
    assert any("not minimal" in w for w in doc["warnings"])
    assert doc["total"].startswith("0.4448391198683623")


def test_curve_disc(tmp_path):
    code, doc = run_json(["curve", "disc", "--curve", CM_CURVE], tmp_path)
    assert code == 0
    assert doc["discriminant"] == "-27"
    assert doc["valuations"] == [[3, 3]]


def test_elliptic_height(tmp_path):
    code, doc = run_json(
        ["elliptic", "height", "--curve", E37_CURVE, "--point", "0,0"], tmp_path)
    assert code == 0
    assert doc["total"].startswith("0.05111140823996884")
    assert doc["conversions"]["divisor_O"].startswith("0.0255557")


def test_elliptic_decompose_schema(tmp_path):
    code, doc = run_json(["elliptic", "decompose", "--curve", CM_CURVE], tmp_path)
    assert code == 0
    for row in doc["places"]:
        assert set(row) >= {"place", "d_v", "alpha", "lambda", "mu", "beta"}
    arch = next(r for r in doc["places"] if r["place"] == "inf")
    assert arch["mu"] is not None and arch["beta"] is not None


def test_theta_eval_and_siegel(tmp_path):
    code, doc = run_json(["theta", "eval", "--a", "0", "--b", "0", "--tau", "[0,1]"],
                         tmp_path)
    assert code == 0
    assert doc["value"][0].startswith("1.08643481121330801")
    # genus 2: characteristic vectors and z as lists
    code, doc = run_json(
        ["theta", "eval", "--a", "1/2,0", "--b", "0,1/2",
         "--z", "[[0.1,0.05],[0.0,0.1]]",
         "--tau", "[[[0,1.2],[0.3,0.2]],[[0.3,0.2],[0.1,1.4]]]"], tmp_path,
        name="g2.json")
    assert code == 0
    assert doc["genus"] == 2
    assert doc["parity"] == 0
    code, doc = run_json(["siegel", "reduce", "--tau", "[5.0,1.0]"], tmp_path)
    assert code == 0
    assert doc["gamma"] == [[1, -5], [0, 1]]
    # the battery runs on the reduced tau, outside reduce_g1
    checks = check_reduced(reduce_g1(mpc(5, 1), ctx=PrecisionContext(bits=128)).reduced)
    assert [(c["id"], c["passed"]) for c in doc["checks"]] == \
        [(c.condition_id, c.passed) for c in checks]
    code, doc = run_json(["siegel", "check", "--tau", "[0.6,2.0]"], tmp_path)
    assert code == 0
    assert not doc["all_passed"]


def test_jacobian_faltings_cm_quintic(tmp_path):
    code, doc = run_json(
        ["jacobian", "faltings", "--cm-quintic",
         "--finite", '[{"p":5,"ord_delta_min":5,"e":0}]'], tmp_path)
    assert code == 0
    assert doc["total"].startswith("1.19008678")
    assert any("e_p defaulted" in w for w in doc["warnings"])
    code, doc = run_json(["jacobian", "faltings", "--cm-quintic"], tmp_path)
    assert doc["total"].startswith("0.3853678267637")


def test_jacobian_faltings_prints_thirty_correct_digits(tmp_path):
    # the CLI runs at mpmath's default 53 bits; every printed digit must
    # still come from the working precision
    with mp.workprec(53):
        code, doc = run_json(["jacobian", "faltings", "--cm-quintic", "--prec", "256"], tmp_path)
    assert code == 0
    closed = bomemo_closed_form(PrecisionContext(bits=300))
    assert doc["total"] == mp.nstr(closed, cli.JSON_DIGITS)


def test_decimal_tau_parsed_at_working_precision(tmp_path):
    with mp.workprec(53):
        code, doc = run_json(["theta", "eval", "--a", "0", "--b", "0", "--prec", "256",
                              "--tau", '["0.1","1.3"]'], tmp_path)
    assert code == 0
    ref = theta_char(ThetaCharacteristic.make([0], [0]), 0, mpc("0.1", "1.3"),
                     PrecisionContext(bits=320))
    assert abs(mpc(*doc["value"]) - ref) < mpf(10) ** -29 * abs(ref)


def test_check_identities(tmp_path):
    code, doc = run_json(["check", "identities", "--seed", "7", "--samples", "6",
                          "--prec", "96"], tmp_path)
    assert code == 0
    assert doc["all_passed"]


def test_check_matrix_lemma(tmp_path):
    code, doc = run_json(["check", "matrix-lemma", "--count", "4", "--seed", "1",
                          "--prec", "96"], tmp_path)
    assert code == 0
    assert doc["violations"] == 0


def test_check_autissier(tmp_path):
    code, doc = run_json(["check", "autissier", "--prec", "96", "--verify"], tmp_path)
    assert code == 0
    assert doc["nonnegative"] is True
    assert doc["warnings"] == []
    # eta(i) = Gamma(1/4) / (2 pi^(3/4)), so I(i) = -log eta(i) - (1/4) log 2
    closed = -mp.log(mp.gamma(mpf(1) / 4) / (2 * mp.pi ** (mpf(3) / 4))) - mp.log(2) / 4
    assert abs(mpf(doc["value"]) - closed) < mpf(2) ** -90
    assert mpf(doc["verify"]["max_delta"]) < mpf(2) ** -96


def test_no_digits_beyond_prec(tmp_path):
    # 64 bits carry floor(64 log10 2) = 19 significant digits
    code, doc = run_json(["check", "autissier", "--prec", "64"], tmp_path)
    assert code == 0
    assert len(doc["value"].replace(".", "").lstrip("0")) <= 19
    closed = -mp.log(mp.gamma(mpf(1) / 4) / (2 * mp.pi ** (mpf(3) / 4))) - mp.log(2) / 4
    assert abs(mpf(doc["value"]) - closed) < mpf(2) ** -64


def test_determinism_byte_identical(tmp_path):
    args = ["check", "identities", "--seed", "7", "--samples", "4", "--prec", "96"]
    run(args + ["--out", str(tmp_path / "a.json")])
    run(args + ["--out", str(tmp_path / "b.json")])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_verify_flag_reports_delta(tmp_path):
    code, doc = run_json(["elliptic", "faltings", "--curve", CM_CURVE, "--verify"],
                         tmp_path)
    assert code == 0
    assert doc["verify"]["recomputed_bits"] == 192
    assert float(doc["verify"]["max_delta"]) < 1e-30


def test_exit_code_parse_error():
    assert run(["curve", "disc", "--curve", "not json"]) == 2
    assert run(["elliptic", "faltings", "--curve", CM_CURVE, "--prec", "17"]) == 2
    assert run(["theta", "eval", "--a", "0", "--b", "0", "--tau", "bogus"]) == 2


def test_nan_tau_in_theta_eval_is_parse_error(capsys):
    # exited 1 with a ValueError traceback from the theta sum
    assert run(["theta", "eval", "--a", "0", "--b", "0", "--tau", '["nan",1.0]']) == 2
    assert "finite" in capsys.readouterr().err


def test_nan_tau_in_check_autissier_is_parse_error():
    # exited 0 and printed "value": "nan"
    assert run(["check", "autissier", "--tau", '[0,"nan"]']) == 2
    assert run(["siegel", "reduce", "--tau", '[0,"nan"]']) == 2


def test_infinite_tau_is_parse_error(capsys):
    # exited 4 asking to raise max_radius, which the CLI has no option for
    assert run(["theta", "eval", "--a", "0", "--b", "0", "--tau", '[0,"inf"]']) == 2
    assert run(["theta", "eval", "--a", "0", "--b", "0", "--tau", "[0,1e400]"]) == 2
    assert run(["theta", "eval", "--a", "0", "--b", "0", "--tau", "[0,1]",
                "--z", '["nan",0]']) == 2
    assert "max_radius" not in capsys.readouterr().err


def test_truncation_radius_refusal_gives_no_unavailable_advice(capsys):
    # exited 4 telling the user to "raise max_radius", which no option sets
    assert run(["theta", "eval", "--a", "0", "--b", "0", "--z", "[0,1e4]",
                "--tau", "[0,1]"]) == 4
    err = capsys.readouterr().err
    assert "truncation radius" in err and "max_radius" not in err


def test_non_positive_samples_is_parse_error():
    # --samples -3 exited 0 having checked nothing
    assert run(["check", "identities", "--samples", "-3"]) == 2
    assert run(["check", "identities", "--samples", "0"]) == 2


def test_non_positive_count_is_parse_error():
    # --count -1 exited 0 having checked nothing
    assert run(["check", "matrix-lemma", "--count", "-1"]) == 2
    assert run(["check", "matrix-lemma", "--count", "0"]) == 2


LARGE_CURVE = json.dumps({"genus": 1, "P": ["123456789012345678901234567890123456789",
                                            "987654321987654321987654321", "0", "1"], "Q": []})


@pytest.mark.parametrize("stable", [False, True])
def test_elliptic_faltings_large_curve(tmp_path, stable):
    # |Delta_min| has 83 digits, beyond the factorization budget (this exited
    # 4); its places are split without factoring, and their alphas still sum
    # to the Thm 1.1 expression
    code, doc = run_json(["elliptic", "faltings", "--curve", LARGE_CURVE]
                         + (["--stable"] if stable else []), tmp_path)
    assert code == 0
    labels = [row["place"] for row in doc["places"]]
    assert labels[-1] == "inf" and any(lab.startswith("d=") for lab in labels)
    with mp.workprec(200):
        gap = abs(mp.fsum(mpf(row["alpha"]) for row in doc["places"]) - mpf(doc["total"]))
    assert gap < mpf(2) ** -90      # the printed 30 digits round each alpha


def test_point_with_zero_denominator_is_parse_error():
    assert run(["elliptic", "height", "--curve", E37_CURVE, "--point", "1/0,1"]) == 2
    assert run(["theta", "eval", "--a", "1/0", "--b", "0", "--tau", "[0,1]"]) == 2


def test_malformed_jacobian_input_is_parse_error():
    assert run(["jacobian", "faltings", "--cm-quintic", "--finite", '[{"p": "x"}]']) == 2
    assert run(["jacobian", "faltings", "--cm-quintic", "--finite", '[{"e": 1}]']) == 2
    assert run(["jacobian", "faltings", "--cm-quintic", "--finite", "[5]"]) == 2
    assert run(["jacobian", "faltings", "--tau", "[[[0,1],[0,0]],7]"]) == 2


def test_internal_value_error_is_not_a_parse_error(monkeypatch):
    def broken(args, ctx):
        raise ValueError("internal bug")

    monkeypatch.setitem(cli._HANDLERS, ("curve", "disc"), broken)
    with pytest.raises(ValueError, match="internal bug"):
        run(["curve", "disc", "--curve", CM_CURVE])


def test_jacobian_faltings_refuses_reducible_tau():
    tau = "[[[0,1],[0,0]],[[0,0],[0,1]]]"
    assert run(["jacobian", "faltings", "--genus", "2", "--tau", tau]) == 3


def test_exit_code_domain_error():
    singular = '{"genus":1,"P":["0","0","0","1"]}'
    assert run(["curve", "disc", "--curve", singular]) == 3
    assert run(["theta", "eval", "--a", "0", "--b", "0", "--tau", "[0,0.05]"]) == 3


def test_exit_code_resource_error():
    big = str(10 ** 60)
    curve = json.dumps({"genus": 1, "P": [big, "0", "0", "1"], "Q": []})
    assert run(["curve", "disc", "--curve", curve]) == 4


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2
