import json

import pytest

from pita import cli
from pita.cli import RunConfig, main
from pita.errors import ShapeError
from pita.opcat import Report


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------- configuration


def test_run_config_validates_fields():
    RunConfig("fin", "axioms")
    with pytest.raises(ShapeError):
        RunConfig("groups", "axioms")
    with pytest.raises(ShapeError):
        RunConfig("fin", "simplify")
    with pytest.raises(ShapeError):
        RunConfig("fin", "axioms", bound=0)
    with pytest.raises(ShapeError):
        RunConfig("fin", "axioms", maxlen=0)
    with pytest.raises(ShapeError):
        RunConfig("fin", "axioms", mode="turbo")
    with pytest.raises(ShapeError):
        RunConfig("fin", "axioms", output="xml")


# ------------------------------------------------------- calculators


def test_factor_prints_the_split(capsys):
    code, out, _ = _run(
        capsys,
        ["factor", "--map", "[3,2,1,1,4,2,3]", "--cod", "4"],
    )
    assert code == 0
    assert out.strip() == "pi=[5,3,1,2,7,4,6], eta=[1,1,2,2,3,3,4]"


def test_factor_trivial_map(capsys):
    code, out, _ = _run(
        capsys,
        ["factor", "--instance", "fin", "--map", "[1]", "--cod", "1"],
    )
    assert code == 0
    assert out.strip() == "pi=[1], eta=[1]"


def test_factor_oracle_mode_agrees(capsys):
    argv = ["factor", "--map", "[2,1,1]", "--cod", "2"]
    _, out_prod, _ = _run(capsys, argv)
    code, out_oracle, _ = _run(capsys, argv + ["--mode", "oracle"])
    assert code == 0
    assert out_oracle == out_prod


def test_factor_json_uses_the_map_schema(capsys):
    code, out, _ = _run(
        capsys,
        ["factor", "--map", "[1,1]", "--cod", "1", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pi"] == {"dom": 2, "cod": 2, "values": [1, 2]}
    assert doc["eta"] == {"dom": 2, "cod": 1, "values": [1, 1]}


def test_coalg_text_rendering(capsys):
    code, out, _ = _run(capsys, ["coalg", "--n", "2"])
    assert code == 0
    assert out.strip() == "2 A1.A1 (x) A2 + 1 A2 (x) A1"


def test_coalg_json_rendering(capsys):
    code, out, _ = _run(capsys, ["coalg", "--n", "3", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"left": [1, 1, 1], "right": [3], "coeff": 6},
            {"left": [2, 1], "right": [2], "coeff": 6},
            {"left": [3], "right": [1], "coeff": 1},
        ]
    }


def test_coalg_json_is_byte_stable(capsys):
    _, first, _ = _run(capsys, ["coalg", "--n", "4", "--json"])
    _, second, _ = _run(capsys, ["coalg", "--n", "4", "--json"])
    assert first == second


# ------------------------------------------------------- sweeps


def test_axioms_reports_and_result_line(capsys):
    code, out, _ = _run(capsys, ["axioms", "--bound", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("axioms[fin, bound=2]:")
    assert lines[1].startswith("splitting[fin, bound=2]:")
    assert lines[-1].startswith("result ok=true reports=2 checks=")


def test_nerve_single_check(capsys):
    code, out, _ = _run(
        capsys, ["nerve", "--check", "beta", "--bound", "2"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("beta-coherence[fin-surj, bound=2]:")


def test_nerve_opfib_runs_three_lengths(capsys):
    code, out, _ = _run(
        capsys, ["nerve", "--check", "opfib", "--bound", "2"]
    )
    assert code == 0
    assert out.count("opfibration[") == 3


def test_decomp_sweep(capsys):
    code, out, _ = _run(capsys, ["decomp", "--bound", "3"])
    assert code == 0
    assert "decomposition-fibres[fin-surj, bound=3]:" in out
    assert "bialgebra[fin-surj, bound=3]:" in out
    assert "counit[fin-surj, bound=3]:" in out


def test_sweep_json_document(capsys):
    code, out, _ = _run(
        capsys, ["nerve", "--check", "beta", "--bound", "2", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["reports"][0]["title"].startswith("beta-coherence")
    assert doc["reports"][0]["violations"] == []


def test_failing_check_exits_one_and_prints_witnesses(
    capsys, monkeypatch
):
    broken = Report("counit[fin-surj, bound=3]")
    broken.checks = 1
    broken.add("counit", {"f": {"dom": 2}}, "nothing", "something")

    monkeypatch.setattr(cli, "verify_counit", lambda inst, bound: broken)
    code, out, _ = _run(capsys, ["decomp", "--bound", "3"])
    assert code == 1
    assert '"axiom": "counit"' in out
    assert out.strip().splitlines()[-1].startswith(
        "result ok=false reports=3"
    )


# ------------------------------------------------------- usage errors


def test_unknown_instance_is_a_usage_error(capsys):
    code, _, err = _run(capsys, ["axioms", "--instance", "groups"])
    assert code == 2
    assert "invalid choice" in err


def test_decomp_rejects_the_wrong_instance_before_work(capsys):
    code, _, err = _run(capsys, ["decomp", "--instance", "fin"])
    assert code == 2
    assert "surjection instance" in err


def test_bad_map_json_is_a_usage_error(capsys):
    code, _, _ = _run(capsys, ["factor", "--map", "oops", "--cod", "1"])
    assert code == 2
    code, _, _ = _run(
        capsys, ["factor", "--map", '["a"]', "--cod", "1"]
    )
    assert code == 2


def test_map_values_outside_the_codomain_are_a_usage_error(capsys):
    code, out, err = _run(capsys, ["factor", "--map", "[5]", "--cod", "4"])
    assert code == 2
    assert out == ""
    assert "value 5 outside 1..4" in err


def test_json_booleans_are_not_map_values(capsys):
    code, out, err = _run(
        capsys, ["factor", "--map", "[true,1]", "--cod", "2"]
    )
    assert code == 2
    assert out == ""
    assert "list of integers" in err


def test_non_order_preserving_map_is_not_an_op_morphism(capsys):
    code, out, err = _run(
        capsys,
        ["factor", "--instance", "op", "--map", "[2,1]", "--cod", "2"],
    )
    assert code == 2
    assert out == ""
    assert "not a morphism of op" in err


def test_non_surjection_is_not_a_fin_surj_morphism(capsys):
    code, out, err = _run(
        capsys,
        ["factor", "--instance", "fin-surj", "--map", "[1,1]", "--cod", "2"],
    )
    assert code == 2
    assert out == ""
    assert "not a morphism of fin-surj" in err


def test_mode_is_only_offered_where_it_is_used(capsys):
    code, _, err = _run(capsys, ["axioms", "--mode", "oracle"])
    assert code == 2
    assert "unrecognized arguments" in err


def test_bound_must_be_positive(capsys):
    code, _, _ = _run(capsys, ["axioms", "--bound", "0"])
    assert code == 2


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, _ = _run(capsys, [])
    assert code == 2


# ------------------------------------------------------- the full suite


def test_all_passes_on_an_unmodified_build(capsys):
    code, out, _ = _run(capsys, ["all", "--bound", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("factorisation-example:")
    assert lines[-1].startswith("result ok=true")
    assert "negative-witnesses: 2 checks, ok" in out
    assert "comultiplication-closed-form[n<=6]: 6 checks, ok" in out
