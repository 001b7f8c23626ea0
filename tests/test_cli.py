"""Command-line interface: exit codes, formats, serialization, cache."""

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import springerloc
from springerloc import cli
from springerloc.cli import main, report_from_json, report_to_json
from springerloc.springer import springer_compute
from springerloc.symgroup import partitions_of


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


@pytest.mark.parametrize("argv", [
    ["compute", "--lambda", "0,2"],
    ["table", "--n", "0"],
    ["table", "--n", "0", "--format", "json"],
    ["verify", "--n-max", "0"],
    ["compute", "--lambda", "2,1", "--max-n", "0"],
    ["table", "--n", "2", "--max-n", "-1"],
    ["compute", "--lambda", "2_1"],
    ["compute", "--lambda", "2,,1"],
], ids=["compute-zero-part", "table-n0", "table-n0-json", "verify-n0",
        "compute-max-n0", "table-max-n-neg", "compute-underscore",
        "compute-empty-part"])
def test_malformed_partition_exits_two(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "MalformedInputError"


@pytest.mark.parametrize("argv, value, limit", [
    (["compute", "--lambda", "1,1,1,1,1,1,1"], 7, 6),
    (["verify", "--n-max", "7"], 7, 6),
    (["verify", "--n-max", "9"], 9, 6),
    (["compute", "--lambda", "8,1", "--max-n", "9"], 9, 8),
    (["table", "--n", "9", "--max-n", "9"], 9, 8),
], ids=["compute-n7", "verify-n7", "verify-n9", "compute-max-n9",
        "table-max-n9"])
def test_rank_guardrail_exits_three(argv, value, limit, capsys, monkeypatch):
    def no_shape_computed(shape, **_):
        raise AssertionError(f"computed {shape!r} before refusing")

    for name in ("oracle_cross_check", "springer_compute",
                 "kostka_foulkes_table"):
        monkeypatch.setattr(cli, name, no_shape_computed)
    code, _, err = run(argv, capsys)
    assert code == 3
    diag = json.loads(err)
    assert diag["error"] == "GuardrailError"
    assert diag["value"] == value and diag["limit"] == limit


def test_compute_text_output(capsys):
    code, out, err = run(["compute", "--lambda", "2,1"], capsys)
    assert code == 0 and err == ""
    assert "fixed words      3" in out and "engine mode" not in out
    assert "Poincare polynomial  1 + 2q" in out
    certificates = ("certificates: relations=ok, completeness=ok, "
                    "freeness=ok, stability=ok")
    assert certificates in out
    code, out, err = run(["compute", "--lambda", "1,1,1"], capsys)
    assert code == 0 and err == ""
    assert "fixed words      6" in out and "engine mode" not in out
    assert certificates in out


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
    assert first["schema_version"] == "5"
    assert first["cache_hit"] is False
    assert first["invocation"] == {"command": "compute", "lambda": "2,1"}
    assert set(first["report"]) == {
        "shape", "poincare", "character", "multiplicities", "certificates",
        "conventions", "timings_ms"}
    assert set(first["report"]["character"]) == {"classes", "values"}
    assert first["report"]["poincare"] == [1, 2]
    assert "total" in first["timings_ms"]
    assert (isolated_cache
            / f"compute-2_1-{springerloc.__version__}-v5.json").is_file()

    code, out, _ = run(["compute", "--lambda", "2,1", "--format", "json"],
                       capsys)
    second = json.loads(out)
    assert code == 0 and second["cache_hit"] is True
    assert second["report"] == first["report"]


@pytest.mark.parametrize("payload", [
    pytest.param("{ not json", id="not-json"),
    pytest.param(json.dumps({"schema_version": cli.SCHEMA_VERSION,
                             "report": {"shape": "2,1"}}),
                 id="report-missing-keys"),
    pytest.param("[1, 2]", id="not-an-object"),
    pytest.param(None, id="other-shape"),  # a valid envelope for (1,1,1)
    # edits that parsing would coerce into a report of the right shape
    pytest.param(("poincare", [1, 2.9]), id="float-poincare"),
    pytest.param(("poincare", [True, 2]), id="bool-poincare"),
    pytest.param(("certificates", "relations", False), id="failed-relations"),
    pytest.param(("certificates", "relations", "yes"), id="string-relations"),
    pytest.param(("character", "values", [["1", "1", "1"]]),
                 id="character-missing-a-degree"),
    pytest.param(("multiplicities", []), id="no-multiplicities"),
])
def test_corrupt_cache_file_is_recomputed(capsys, isolated_cache, payload):
    if payload is None:
        _, payload, _ = run(["compute", "--lambda", "1,1,1", "--format",
                             "json", "--no-cache"], capsys)
    run(["compute", "--lambda", "2,1", "--format", "json"], capsys)
    (cache_file,) = isolated_cache.glob("compute-*.json")
    if isinstance(payload, tuple):
        envelope = json.loads(cache_file.read_text(encoding="utf-8"))
        *keys, value = payload
        target = envelope["report"]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        payload = json.dumps(envelope)
    cache_file.write_text(payload, encoding="utf-8")
    code, out, _ = run(["compute", "--lambda", "2,1", "--format", "json"],
                       capsys)
    assert code == 0
    shown = json.loads(out)
    assert shown["cache_hit"] is False
    assert shown["report"]["shape"] == "2,1"
    assert shown["report"]["poincare"] == [1, 2]
    assert all(v is True for v in shown["report"]["certificates"].values())
    cached = json.loads(cache_file.read_text(encoding="utf-8"))  # rewritten
    assert cached["report"] == shown["report"]


@pytest.mark.parametrize("edit", [
    pytest.param({"fixed_point_count": 99}, id="fixed-point-count"),
    pytest.param({"degree_bound": 5}, id="degree-bound"),
    pytest.param({"mode": "bogus"}, id="mode"),
    pytest.param({"character": {"degrees": [0, 7]}}, id="character-degrees"),
    pytest.param({"character": {"shape": "3", "q_dims": [1, 5]}},
                 id="character-shape-and-dims"),
    pytest.param({"multiplicities": [{"3": 1}, {"3": 1}]},
                 id="multiplicities"),
    pytest.param({"character": {"values": [["1", "1", "1"],
                                           ["-1", "0", "3"]]}},
                 id="character-not-integral"),
    pytest.param({"character": {"classes": ["3", "2,1"],
                                "values": [["1", "1"], ["-1", "0"]]}},
                 id="character-missing-a-class"),
    pytest.param({"character": {"values": [["1", "1", "1", "7"],
                                           ["-1", "0", "2", "7"]]}},
                 id="character-extra-value"),
    pytest.param({"character": {"values": [["1", "1", "1"],
                                           ["1", "1", "1"]]},
                  "multiplicities": [{"3": 1}, {"3": 1}]},
                 id="poincare-contradicts-character"),
    pytest.param({"conventions": {"top_matches_shape": False}},
                 id="convention-false"),
])
def test_cached_copy_of_a_derived_fact_is_recomputed(capsys, isolated_cache,
                                                     edit):
    # a fact the report derives (the fixed-word count, the degree bound, the
    # Poincare polynomial, the conventions) is never read from the file: an
    # extra key fails the round trip, and so does a stored copy that the
    # character contradicts; the multiplicities it does store must be those
    # the decomposition of its character gives
    argv = ["compute", "--lambda", "2,1"]
    _, fresh, _ = run(argv, capsys)
    (cache_file,) = isolated_cache.glob("compute-*.json")
    envelope = json.loads(cache_file.read_text(encoding="utf-8"))
    report = envelope["report"]
    keys = (list(report), list(report["character"]))
    for key, value in edit.items():
        if isinstance(value, dict):
            report[key].update(value)
        else:
            report[key] = value
    tampered = json.dumps(envelope)

    cache_file.write_text(tampered, encoding="utf-8")
    code, out, err = run(argv, capsys)
    assert code == 0 and err == "" and out == fresh
    cache_file.write_text(tampered, encoding="utf-8")
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0 and json.loads(out)["cache_hit"] is False
    stored = json.loads(cache_file.read_text(encoding="utf-8"))["report"]
    assert (list(stored), list(stored["character"])) == keys  # overwritten


def test_cache_hit_prints_the_fresh_text(capsys, isolated_cache):
    argv = ["compute", "--lambda", "3,2,1"]
    _, fresh, _ = run(argv, capsys)
    assert ("certificates: relations=ok, completeness=ok, freeness=ok, "
            "stability=ok") in fresh
    _, hit, _ = run(argv + ["--format", "json"], capsys)
    assert json.loads(hit)["cache_hit"] is True
    _, again, _ = run(argv, capsys)
    assert again == fresh

    # a file written with sorted keys is not its own re-serialisation
    (cache_file,) = isolated_cache.glob("compute-*.json")
    envelope = json.loads(cache_file.read_text(encoding="utf-8"))
    cache_file.write_text(json.dumps(envelope, sort_keys=True),
                          encoding="utf-8")
    _, shown, _ = run(argv + ["--format", "json"], capsys)
    assert json.loads(shown)["cache_hit"] is False
    _, again, _ = run(argv, capsys)
    assert again == fresh


def test_cache_hit_echoes_only_this_invocation(capsys, isolated_cache):
    argv = ["compute", "--lambda", "2,1", "--format", "json"]
    _, out, _ = run(argv, capsys)
    fresh = json.loads(out)
    (cache_file,) = isolated_cache.glob("compute-*.json")
    stored = json.loads(cache_file.read_text(encoding="utf-8"))
    assert list(stored["timings_ms"]) == [*stored["report"]["timings_ms"],
                                          "total"]

    # an edited invocation and an extra key are not echoed by a hit
    tampered = dict(stored, extra=[1, 2],
                    invocation={"command": "table", "lambda": "9,9"})
    cache_file.write_text(json.dumps(tampered), encoding="utf-8")
    _, out, _ = run(argv, capsys)
    assert json.loads(out) == dict(fresh, cache_hit=True)

    # timings other than the report's stage timings plus a numeric total
    # are recomputed, and the cache file is overwritten
    stages = stored["report"]["timings_ms"]
    for timings in ("garbage", {**stages, "total": True},
                    {**stages, "total": "1.0"}, dict(stages),
                    {**stages, "build": -1.0, "total": 1.0},
                    {**stages, "total": float("nan")}):  # NaN is not JSON
        cache_file.write_text(json.dumps(dict(tampered, timings_ms=timings)),
                              encoding="utf-8")
        _, out, _ = run(argv, capsys)
        shown = json.loads(out)
        assert shown["cache_hit"] is False, timings
        assert shown["invocation"] == {"command": "compute", "lambda": "2,1"}
        assert "extra" not in shown
        assert type(shown["timings_ms"]["total"]) is float
        shown.pop("cache_hit")
        assert json.loads(cache_file.read_text(encoding="utf-8")) == shown


@pytest.mark.parametrize("build, total", [
    pytest.param(-5.0, -1, id="negative-stage-and-total"),
    pytest.param(-0.5, 1.0, id="negative-stage"),
    pytest.param(2.0, -1.0, id="negative-total"),
    pytest.param(float("inf"), 1.0, id="infinite-stage"),
    pytest.param(2.0, float("inf"), id="infinite-total"),
])
def test_cached_timings_below_zero_or_infinite_are_recomputed(
        capsys, isolated_cache, build, total):
    argv = ["compute", "--lambda", "2,1", "--format", "json"]
    run(argv, capsys)
    (cache_file,) = isolated_cache.glob("compute-*.json")
    envelope = json.loads(cache_file.read_text(encoding="utf-8"))
    # the report and the envelope agree, so only the values can refuse it
    envelope["report"]["timings_ms"]["build"] = build
    envelope["timings_ms"].update(build=build, total=total)
    text = json.dumps(envelope).replace("Infinity", "1e999")  # parses to inf
    cache_file.write_text(text, encoding="utf-8")
    _, out, _ = run(argv, capsys)
    shown = json.loads(out)
    assert shown["cache_hit"] is False
    assert all(0 <= t < float("inf") for t in shown["timings_ms"].values())
    shown.pop("cache_hit")
    assert json.loads(cache_file.read_text(encoding="utf-8")) == shown


def test_cache_written_by_another_release_is_not_served(capsys,
                                                        isolated_cache,
                                                        monkeypatch):
    argv = ["compute", "--lambda", "2,1", "--format", "json"]
    with monkeypatch.context() as patched:
        patched.setattr(cli, "__version__", "0.0.1")
        run(argv, capsys)
    (old,) = isolated_cache.glob("compute-*.json")
    assert old.name == "compute-2_1-0.0.1-v5.json"
    _, out, _ = run(argv, capsys)
    assert json.loads(out)["cache_hit"] is False
    names = {p.name for p in isolated_cache.glob("compute-*.json")}
    assert names == {old.name,
                     f"compute-2_1-{springerloc.__version__}-v5.json"}


def test_no_cache_flag_leaves_no_files(capsys, isolated_cache):
    code, _, _ = run(["compute", "--lambda", "2,1", "--no-cache"], capsys)
    assert code == 0
    assert not list(isolated_cache.glob("*.json"))


@pytest.mark.parametrize("nested", [False, True], ids=["file", "under-file"])
def test_unwritable_cache_directory_is_skipped(nested, tmp_path, monkeypatch,
                                               capsys):
    # SPRINGER_CACHE_DIR names a regular file, or a path under one: the
    # directory cannot be made, so the report is shown and the cache skipped
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    cache = blocker / "cache" if nested else blocker
    monkeypatch.setenv("SPRINGER_CACHE_DIR", str(cache))
    code, out, err = run(["compute", "--lambda", "2,1", "--format", "json"],
                         capsys)
    assert code == 0 and "Traceback" not in err
    shown = json.loads(out)
    assert shown["cache_hit"] is False
    assert shown["report"]["poincare"] == [1, 2]
    assert blocker.read_text(encoding="utf-8") == "not a directory"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(["compute", "--lambda", "2,2", "--format", "json",
                        "--out", str(target)], capsys)
    assert code == 0 and out == ""
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["report"]["poincare"] == [1, 3, 2]


@pytest.mark.parametrize("argv, reason", [
    (["compute", "--lambda", "2,1", "--out", "{missing}"],
     "No such file or directory"),
    (["table", "--n", "2", "--out", "{directory}"], "Is a directory"),
], ids=["compute-missing-dir", "table-directory"])
def test_unwritable_out_path_exits_two(argv, reason, tmp_path, capsys):
    paths = {"missing": str(tmp_path / "missing" / "x.txt"),
             "directory": str(tmp_path)}
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    diag = json.loads(err)
    assert diag["error"] == "MalformedInputError"
    assert argv[-1] in diag["message"] and reason in diag["message"]


@pytest.mark.parametrize("argv", [
    ["compute", "--lambda", "1,1", "--format", "json"],
    ["verify", "--n-max", "2"],
], ids=["compute-json", "verify"])
def test_closed_stdout_pipe_ends_quietly(argv, isolated_cache):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    src = str(Path(springerloc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run([sys.executable, "-m", "springerloc.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_mode_flag_is_refused(capsys, isolated_cache):
    # the input picks the build, so there is no flag to choose it, and an
    # envelope cached under an old mode key is never read
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--lambda", "1,1,1", "--mode", "echelon"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err

    _, out, _ = run(["compute", "--lambda", "1,1,1", "--format", "json",
                     "--no-cache"], capsys)
    envelope = json.loads(out)
    envelope["report"]["mode"] = "echelon"
    isolated_cache.mkdir()
    stale = isolated_cache / "compute-1_1_1-echelon-v3.json"
    stale.write_text(json.dumps(envelope), encoding="utf-8")
    code, out, _ = run(["compute", "--lambda", "1,1,1", "--format", "json"],
                       capsys)
    assert code == 0
    shown = json.loads(out)
    assert shown["cache_hit"] is False
    assert "mode" not in shown["report"]
    assert shown["report"]["poincare"] == [1, 2, 2, 1]
    names = {p.name for p in isolated_cache.glob("compute-*.json")}
    assert names == {stale.name,
                     f"compute-1_1_1-{springerloc.__version__}-v5.json"}


def _long_options(text):
    """``--option`` names per subcommand in a usage block whose lines start
    with ``springerloc <subcommand>`` and continue on indented lines."""
    found, command = {}, None
    for line in text.splitlines():
        words = line.split()
        if len(words) > 1 and words[0] == "springerloc":
            command = words[1]
        elif not line.startswith(" ") or not words:
            command = None
        if command is not None:
            found.setdefault(command, set()).update(
                re.findall(r"--[a-z][a-z-]*", line))
    return found


def test_documented_usage_matches_the_parser():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    actual = {name: {opt for action in p._actions
                     for opt in action.option_strings
                     if opt.startswith("--") and opt != "--help"}
              for name, p in sub.choices.items()}
    docstring = cli.__doc__.split("Subcommands::", 1)[1].split("\n\n")[1]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    assert _long_options(docstring) == actual
    assert _long_options(block) == actual


def test_soft_rank_warning_goes_to_stderr(capsys):
    code, out, err = run(["compute", "--lambda", "7", "--max-n", "7",
                          "--no-cache"], capsys)
    assert code == 0
    assert "warning" in err and "n = 7" in err
    assert "well-tested" not in err
    # tests/test_springer.py runs ten shapes of n = 6 through the engine
    assert ("ten of the eleven of n = 6, all but 1,1,1,1,1,1, where "
            "2,1,1,1,1 is checked against the charge statistic alone" in err)
    assert "nine" not in err
    assert "Poincare polynomial  1" in out


def test_report_serialization_round_trip():
    # every field comes back, the derived ones included; timings to 1 µs
    for n in range(1, 6):
        for lam in partitions_of(n):
            rep = springer_compute(lam)
            once = report_from_json(report_to_json(rep))
            assert once == replace(rep, timings_ms=tuple(
                (name, round(ms, 3)) for name, ms in rep.timings_ms)), lam
            assert report_from_json(report_to_json(once)) == once


def test_verify_text_mode_passes(capsys):
    code, out, _ = run(["verify", "--n-max", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 3
    assert not any(ln.startswith("FAIL") for ln in lines)
    assert lines[-1] == "all shapes verified through n = 2"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_reports_progress_on_stderr_only(capsys, fmt):
    # one stderr line per shape, in order; stdout is the same as without it
    code, out, err = run(["verify", "--n-max", "3", "--format", fmt], capsys)
    assert code == 0
    lines = err.splitlines()
    shapes = ["1", "2", "1,1", "3", "2,1", "1,1,1"]
    assert len(lines) == len(shapes)
    for line, shape in zip(lines, shapes):
        assert re.fullmatch(rf"verify {re.escape(shape)}: \d+\.\d s pass",
                            line), line
    assert not any(ln.startswith("verify ") for ln in out.splitlines())
    if fmt == "json":
        assert [r["shape"] for r in json.loads(out)["results"]] == shapes
    else:
        assert out.splitlines()[-1] == "all shapes verified through n = 3"


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
