"""Command-line interface: exit codes, formats, serialization, cache."""

import json

import pytest

from springerloc.cli import main, report_from_json, report_to_json
from springerloc.springer import springer_compute
from springerloc.symgroup import Partition


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SPRINGER_CACHE_DIR", str(cache))
    return cache


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_malformed_partition_exits_two(capsys):
    code, _, err = run(["compute", "--lambda", "0,2"], capsys)
    assert code == 2
    assert "MalformedInputError" in err


def test_bad_degree_bound_exits_two(capsys):
    code, _, err = run(["compute", "--lambda", "2,1", "--degree-bound", "0"],
                       capsys)
    assert code == 2
    assert json.loads(err)["error"] == "MalformedInputError"


def test_rank_guardrail_exits_three(capsys):
    code, _, err = run(["compute", "--lambda", "1,1,1,1,1,1,1"], capsys)
    assert code == 3
    diag = json.loads(err)
    assert diag["error"] == "GuardrailError"
    assert diag["value"] == 7 and diag["limit"] == 6


def test_compute_text_output(capsys):
    code, out, err = run(["compute", "--lambda", "2,1"], capsys)
    assert code == 0 and err == ""
    assert "Poincare polynomial  1 + 2q" in out
    assert "certificates: relations=ok, completeness=ok, freeness=ok, " \
           "stability=ok" in out


def test_compute_csv_output(capsys):
    code, out, _ = run(["compute", "--lambda", "2,1", "--format", "csv"],
                       capsys)
    assert code == 0
    assert out.splitlines() == [
        "degree,cycle_type,trace",
        '0,"3",1',
        '0,"2,1",1',
        '0,"1,1,1",1',
        '1,"3",-1',
        '1,"2,1",0',
        '1,"1,1,1",2',
    ]


def test_compute_json_envelope_and_cache_flag(capsys, isolated_cache):
    code, out, _ = run(["compute", "--lambda", "2,1", "--format", "json"],
                       capsys)
    assert code == 0
    first = json.loads(out)
    assert first["schema_version"] == "1"
    assert first["cache_hit"] is False
    assert first["invocation"] == {"command": "compute", "lambda": "2,1",
                                   "degree_bound": 1, "mode": "auto"}
    assert first["report"]["poincare"] == [1, 2]
    assert "total" in first["timings_ms"]
    assert list(isolated_cache.glob("compute-2_1-d1-auto-v1.json"))

    code, out, _ = run(["compute", "--lambda", "2,1", "--format", "json"],
                       capsys)
    second = json.loads(out)
    assert code == 0 and second["cache_hit"] is True
    assert second["report"] == first["report"]


@pytest.mark.parametrize("payload", [
    pytest.param("{ not json", id="not-json"),
    pytest.param('{"schema_version": "1", "report": {"shape": "2,1"}}',
                 id="report-missing-keys"),
    pytest.param("[1, 2]", id="not-an-object"),
])
def test_corrupt_cache_file_is_recomputed(capsys, isolated_cache, payload):
    run(["compute", "--lambda", "2,1", "--format", "json"], capsys)
    (cache_file,) = isolated_cache.glob("compute-*.json")
    cache_file.write_text(payload, encoding="utf-8")
    code, out, _ = run(["compute", "--lambda", "2,1", "--format", "json"],
                       capsys)
    assert code == 0
    assert json.loads(out)["cache_hit"] is False
    assert json.loads(cache_file.read_text(encoding="utf-8"))  # rewritten


def test_no_cache_flag_leaves_no_files(capsys, isolated_cache):
    code, _, _ = run(["compute", "--lambda", "2,1", "--no-cache"], capsys)
    assert code == 0
    assert not list(isolated_cache.glob("*.json"))


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(["compute", "--lambda", "2,2", "--format", "json",
                        "--out", str(target)], capsys)
    assert code == 0 and out == ""
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["report"]["poincare"] == [1, 3, 2]


def test_mode_flag_reaches_the_engine_and_the_cache_key(capsys,
                                                        isolated_cache):
    code, out, _ = run(["compute", "--lambda", "1,1,1", "--format", "json",
                        "--mode", "echelon"], capsys)
    assert code == 0
    echelon = json.loads(out)["report"]
    code, out, _ = run(["compute", "--lambda", "1,1,1", "--format", "json",
                        "--mode", "syzygy-free"], capsys)
    assert code == 0
    fast = json.loads(out)["report"]
    assert echelon["mode"] == "echelon" and fast["mode"] == "syzygy-free"
    assert echelon["poincare"] == fast["poincare"] == [1, 2, 2, 1]
    assert echelon["character"]["values"] == fast["character"]["values"]
    names = {p.name for p in isolated_cache.glob("compute-*.json")}
    assert names == {"compute-1_1_1-d3-echelon-v1.json",
                     "compute-1_1_1-d3-syzygy-free-v1.json"}


def test_soft_rank_warning_goes_to_stderr(capsys):
    code, out, err = run(["compute", "--lambda", "7", "--max-n", "7",
                          "--no-cache"], capsys)
    assert code == 0
    assert "warning" in err and "n = 7" in err
    assert "Poincare polynomial  1" in out


def test_report_serialization_round_trip():
    rep = springer_compute(Partition([2, 2]))
    once = report_from_json(report_to_json(rep))
    assert once.shape == rep.shape
    assert once.poincare == rep.poincare
    assert once.character == rep.character
    assert once.multiplicities == rep.multiplicities
    assert once.certificates == rep.certificates
    assert once.conventions == rep.conventions
    twice = report_from_json(report_to_json(once))
    assert twice == once


def test_verify_text_mode_passes(capsys):
    code, out, _ = run(["verify", "--n-max", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 3
    assert not any(ln.startswith("FAIL") for ln in lines)
    assert lines[-1] == "all shapes verified through n = 2"


def test_verify_json_mode(capsys):
    code, out, _ = run(["verify", "--n-max", "2", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert [r["shape"] for r in data["results"]] == ["1", "2", "1,1"]
    assert all(r["oracle_match"] and r["equivariance"]
               for r in data["results"])


def test_table_json_rank_two(capsys):
    code, out, _ = run(["table", "--n", "2", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["by_row_shape"] == {"2": {"2": [1], "1,1": [1]},
                                    "1,1": {"2": [], "1,1": [0, 1]}}
    assert data["by_column_shape"]["1,1"] == {"2": [1], "1,1": [0, 1]}


def test_table_text_rank_three(capsys):
    code, out, _ = run(["table", "--n", "3"], capsys)
    assert code == 0
    assert "graded multiplicity table for n = 3" in out
    assert "q + q^2" in out
    assert "q^3" in out


def test_table_guardrail(capsys):
    code, _, err = run(["table", "--n", "7"], capsys)
    assert code == 3
    assert json.loads(err)["limit"] == 6
