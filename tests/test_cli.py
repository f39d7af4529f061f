import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pita import cli
from pita.cli import main
from pita.opcat import Report


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_nerve_beta_honours_maxlen(capsys):
    argv = ["nerve", "--check", "beta", "--bound", "2", "--json"]
    checks = {}
    for maxlen in ("4", "5"):
        code, out, _ = _run(capsys, argv + ["--maxlen", maxlen])
        assert code == 0
        checks[maxlen] = json.loads(out)["checks"]
    assert checks == {"4": 57, "5": 116}


def test_nerve_opfib_runs_three_lengths(capsys):
    code, out, _ = _run(
        capsys, ["nerve", "--check", "opfib", "--bound", "2"]
    )
    assert code == 0
    assert out.count("opfibration[") == 3


@pytest.mark.parametrize(
    "argv, threads",
    [
        (["all", "--bound", "2"], "1"),
        (["axioms", "--bound", "2"], "2"),
        (["nerve", "--bound", "2", "--maxlen", "3"], "1"),
        (["decomp", "--bound", "2"], "1"),
    ],
    ids=lambda value: str(value),
)
def test_timings_go_to_stderr_only(capsys, monkeypatch, argv, threads):
    monkeypatch.setenv("PITA_THREADS", threads)
    for form in ([], ["--json"]):
        code, out, err = _run(capsys, argv + form)
        timed_code, timed_out, timed_err = _run(
            capsys, argv + form + ["--timings"]
        )
        assert (timed_code, timed_out, err) == (code, out, "")
    reports = json.loads(out)["reports"]
    lines = timed_err.splitlines()
    assert lines[0] == f"timings: PITA_THREADS={threads}"
    assert len(lines) == 1 + len(reports)
    for line, rep in zip(lines[1:], reports):
        title, seconds, by_axiom = re.fullmatch(
            r"timings: (.+) (\d+\.\d{3}) s (\{.*\})", line
        ).groups()
        assert title == rep["title"]
        assert float(seconds) >= 0
        assert sum(json.loads(by_axiom).values()) == rep["checks"]


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
    broken.count("counit")
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
    for argv in (["axioms", "--mode", "oracle"], ["all", "--mode", "oracle"]):
        code, _, err = _run(capsys, argv)
        assert code == 2
        assert "unrecognized arguments" in err


def test_bound_must_be_positive(capsys):
    code, _, _ = _run(capsys, ["axioms", "--bound", "0"])
    assert code == 2


@pytest.mark.parametrize("threads", ["abc", "0", "-3", "2.5", ""])
def test_bad_thread_setting_is_a_usage_error(threads, capsys, monkeypatch):
    monkeypatch.setenv("PITA_THREADS", threads)
    code, out, err = _run(capsys, ["axioms", "--bound", "1"])
    assert code == 2
    assert out == ""
    assert "PITA_THREADS must be a positive integer" in err


def test_good_thread_setting_runs(capsys, monkeypatch):
    monkeypatch.setenv("PITA_THREADS", "2")
    code, out, _ = _run(capsys, ["axioms", "--bound", "2"])
    assert code == 0
    assert "result ok=true" in out


def test_unset_thread_setting_uses_every_available_cpu(capsys, monkeypatch):
    argv = ["axioms", "--bound", "2", "--timings"]
    monkeypatch.setenv("PITA_THREADS", "1")
    _, serial_out, _ = _run(capsys, argv)
    monkeypatch.delenv("PITA_THREADS")
    code, out, err = _run(capsys, argv)
    assert code == 0
    cpus = len(os.sched_getaffinity(0))
    assert err.splitlines()[0] == f"timings: PITA_THREADS={cpus}"
    assert out == serial_out


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, _ = _run(capsys, [])
    assert code == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, err = _run(capsys, ["simplify"])
    assert code == 2
    assert "invalid choice" in err


def test_maxlen_must_be_positive(capsys):
    code, _, err = _run(capsys, ["nerve", "--maxlen", "0"])
    assert code == 2
    assert "must be at least 1" in err


def test_unknown_mode_is_a_usage_error(capsys):
    code, _, err = _run(
        capsys, ["factor", "--map", "[1]", "--cod", "1", "--mode", "turbo"]
    )
    assert code == 2
    assert "invalid choice" in err


def test_calculators_take_no_bound(capsys):
    for argv in (
        ["factor", "--map", "[1]", "--cod", "1", "--bound", "3"],
        ["coalg", "--n", "2", "--bound", "3"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --bound 3" in err


def test_a_closed_stdout_exits_one_without_a_traceback():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pita.cli",
         "nerve", "--check", "opfib", "--bound", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err


# ------------------------------------------------------- argv fuzzing

FLAGS = ["--instance", "--bound", "--maxlen", "--mode", "--json", "--check",
         "--map", "--cod", "--n", "--bogus", "--help"]
VALUES = ["-1", "0", "1", "2", "3", "fin", "fin-surj", "op", "groups",
          "oracle", "[]", "[1]", "[2,1]", "[true]", "x"]
SWEEPS = ("axioms", "nerve", "decomp", "all")


@st.composite
def argvs(draw):
    words = st.sampled_from(FLAGS) | st.sampled_from(VALUES)
    subcommand = draw(st.sampled_from(["factor", "coalg", *SWEEPS, "x"]))
    argv = [subcommand, *draw(st.lists(words, max_size=6))]
    # argparse keeps the last --bound, so no draw sweeps above bound 1
    if subcommand in SWEEPS:
        argv += ["--bound", "1"]
    return argv


@settings(max_examples=50, deadline=None)
@given(argv=argvs())
def test_fuzzed_argv_ends_in_an_exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ------------------------------------------------------- the full suite


def test_all_passes_on_an_unmodified_build(capsys):
    code, out, _ = _run(capsys, ["all", "--bound", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("factorisation-example:")
    assert lines[-1].startswith("result ok=true")
    assert "negative-witnesses: 2 checks, ok" in out
    assert "comultiplication-closed-form[n<=6]: 6 checks, ok" in out


# sha256 of `pita all --json` at the defaults and its total checks; the
# same values are pinned by the benchmark suite (perfbench/workloads.py)
SUITE_SHA256 = (
    "03ace3a3289fcbeb5b678ff5cca3055c729e0da22f09935f34a1989370c6dd33"
)
SUITE_CHECKS = 271_346


@pytest.fixture(scope="module")
def suite_run():
    """One `pita all --json` run: its exit code, its stdout and the
    reports it emitted."""
    reports = []
    emit = cli._emit_report

    def keep(rep, args, out):
        reports.append(rep)
        emit(rep, args, out)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "_emit_report", keep)
        code = main(["all", "--json"])
    return code, out.getvalue(), reports


def test_all_json_is_byte_stable(suite_run):
    code, out, _ = suite_run
    assert code == 0
    assert json.loads(out)["checks"] == SUITE_CHECKS
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_SHA256


def test_every_report_of_all_is_counted_by_site(suite_run):
    _, out, reports = suite_run
    assert len(reports) == 15
    for rep, data in zip(reports, json.loads(out)["reports"]):
        assert rep.by_axiom, rep.title
        assert sum(rep.by_axiom.values()) == data["checks"], rep.title


def test_coalg_table_defect_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "coalg_table.py"
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script), "--max-n", "4", "--defect"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    summaries = [line for line in proc.stdout.splitlines()
                 if line.startswith("coassociativity[")]
    # the incidence table fails; its capped list still counts every check
    assert summaries == [
        "coassociativity[fin-surj, bound=4, table=incidence]: 16 checks, "
        "3 violations (list truncated)",
        "coassociativity[fin-surj, bound=4, table=composition]: 16 checks, ok",
    ]
