import json
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent.parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "torsionheart.cli", *args],
        capture_output=True, text=True,
    )


def test_indec_text():
    out = run_cli("indec", str(FIXTURES / "a2.quiver"))
    assert out.returncode == 0
    assert "3 indecomposables" in out.stdout
    assert "brick=yes" in out.stdout


def test_indec_json_schema():
    out = run_cli("indec", str(FIXTURES / "a2.quiver"), "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["schemaVersion"] == "1"
    assert len(payload["universe"]) == 3
    assert payload["algebra"]["field"] == 2
    assert payload["complete"] is True
    assert len(payload["homTable"]) == 3


def test_indec_single_vertex(tmp_path):
    f = tmp_path / "a1.quiver"
    f.write_text("field 2\nvertices v\n")
    out = run_cli("indec", str(f))
    assert out.returncode == 0
    assert "1 indecomposables" in out.stdout


def test_indec_incomplete_bound_exit_code():
    out = run_cli("indec", str(FIXTURES / "a2.quiver"), "--dim-bound", "1,0")
    assert out.returncode == 3
    assert "incomplete" in out.stderr


def test_parse_error_exit_code(tmp_path):
    f = tmp_path / "bad.quiver"
    f.write_text("vertices 1 2\n")
    out = run_cli("indec", str(f))
    assert out.returncode == 1


def test_resource_error_exit_code():
    out = run_cli("indec", str(FIXTURES / "a2.quiver"), "--dim-bound", "9,9")
    assert out.returncode == 2


def test_heart_report_a2():
    out = run_cli("heart", str(FIXTURES / "a2.quiver"), "--gens", "1.0")
    assert out.returncode == 0
    assert "hereditary" in out.stdout
    assert "special: 0 -> (0,1) -> (1,1) -> (1,0) -> 0" in out.stdout
    assert "critical: 0 -> (1,1) -> (1,1) -> (0,0) -> 0" in out.stdout


def test_heart_report_json():
    out = run_cli("heart", str(FIXTURES / "a2.quiver"), "--gens", "1.0",
                  "--format", "json")
    payload = json.loads(out.stdout)
    assert payload["schemaVersion"] == "1"
    cot = payload["cotilting"]
    assert cot["C0"]["dims"] == [2, 2]
    assert cot["C1"]["dims"] == [0, 1]
    assert cot["tildeC"]["summands"] == cot["C"]["summands"]
    kinds = sorted(s["kind"] for s in payload["heartSimples"])
    assert kinds == ["torsion almost torsion-free, shifted",
                     "torsion-free almost torsion"]
    assert payload["classification"]["critical"] != \
        payload["classification"]["special"]
    assert all(c["passed"] for c in payload["checks"])


def test_heart_empty_generators_is_module_category():
    out = run_cli("heart", str(FIXTURES / "a2.quiver"), "--format", "json")
    payload = json.loads(out.stdout)
    assert payload["torsionPair"]["torsion"] == []
    assert len(payload["heartSimples"]) == 2
    assert payload["classification"]["special"] == []


def test_heart_not_cotilting_diagnostic():
    # torsion class generated by S(2) alone
    out = run_cli("heart", str(FIXTURES / "a2.quiver"), "--gens", "0.1")
    assert out.returncode == 1
    assert "not cotilting" in out.stderr
    assert "Cogen" in out.stderr


def test_heart_oracle_flag_check():
    out = run_cli("heart", str(FIXTURES / "a2.quiver"), "--gens", "1.0",
                  "--oracle", "--format", "json")
    payload = json.loads(out.stdout)
    agreement = [c for c in payload["checks"]
                 if c["name"] == "fast-oracle-agreement"]
    assert agreement and agreement[0]["passed"]


def test_heart_generator_by_index_matches_dim_vector():
    by_dim = run_cli("heart", str(FIXTURES / "a2.quiver"), "--gens", "1.0",
                     "--format", "json")
    payload = json.loads(by_dim.stdout)
    idx = next(s["index"] for s in payload["heartSimples"] if s["shifted"])
    by_idx = run_cli("heart", str(FIXTURES / "a2.quiver"), "--gens", str(idx),
                     "--format", "json")
    assert by_idx.stdout == by_dim.stdout


def test_tors_dot_output():
    out = run_cli("tors", str(FIXTURES / "a2.quiver"), "--format", "dot")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "digraph tors {"
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if "->" in ln) == 5
    assert sum(1 for ln in lines if "label=" in ln and "->" not in ln) == 5


def test_tors_a3_node_count():
    out = run_cli("tors", str(FIXTURES / "a3.quiver"), "--format", "json")
    payload = json.loads(out.stdout)
    assert len(payload["lattice"]["classes"]) == 14


def test_tors_a1_chain(tmp_path):
    f = tmp_path / "a1.quiver"
    f.write_text("field 2\nvertices v\n")
    out = run_cli("tors", str(f), "--format", "dot")
    assert out.returncode == 0
    assert sum(1 for ln in out.stdout.splitlines() if "->" in ln) == 1


def test_verify_a2_passes():
    out = run_cli("verify", str(FIXTURES / "a2.quiver"))
    assert out.returncode == 0
    lines = [ln for ln in out.stdout.splitlines() if ln]
    assert all(ln.startswith("PASS") for ln in lines)
    assert any("oracle-equivalence" in ln for ln in lines)


def test_verify_incomplete_universe_exit3():
    out = run_cli("verify", str(FIXTURES / "a2.quiver"), "--dim-bound", "1,0")
    assert out.returncode == 3
    assert "FAIL universe-completeness" in out.stdout


def test_zero_dim_bound_is_incomplete():
    # no module fits the bound, so the simples are missing
    out = run_cli("indec", str(FIXTURES / "a2.quiver"), "--dim-bound", "0,0")
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == "universe incomplete: simple at vertex 0 outside\n"


def test_verify_zero_dim_bound_fails_completeness():
    out = run_cli("verify", str(FIXTURES / "a2.quiver"), "--dim-bound", "0,0")
    assert out.returncode == 3
    assert out.stdout == "FAIL universe-completeness: simple at vertex 0 outside\n"


def test_negative_dim_bound_is_a_parse_error():
    out = run_cli("indec", str(FIXTURES / "a2.quiver"), "--dim-bound=-1,2")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == ("error: --dim-bound -1,2: entries must be "
                          "nonnegative\n")


def test_empty_dim_bound_is_a_parse_error():
    # an empty bound is not the default bound
    out = run_cli("indec", str(FIXTURES / "a2.quiver"), "--dim-bound=")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == ("error: --dim-bound '': expected comma separated "
                          "integers\n")


@pytest.mark.parametrize("flag", ["--cap-ext-dim", "--cap-submodule-dim"])
def test_negative_cap_is_a_parse_error(flag):
    out = run_cli("verify", str(FIXTURES / "a2.quiver"), flag, "-1")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == f"error: {flag} -1: must be nonnegative\n"


def test_submodule_cap_gates_only_the_oracles():
    # the fast paths list no submodule: heart runs under a cap below every
    # member as at the default caps, while its --oracle check and the oracle
    # suites of verify, which run after cotilting detection, stop at the gate
    a3 = str(FIXTURES / "a3.quiver")
    gate = "resource limit: submodule scan gate: total dim 1 > 0\n"
    default = run_cli("heart", a3, "--gens", "1")
    capped = run_cli("heart", a3, "--gens", "1", "--cap-submodule-dim", "0")
    assert default.returncode == 0
    assert (capped.returncode, capped.stdout, capped.stderr) == (
        0, default.stdout, "")
    oracle = run_cli("heart", a3, "--gens", "1", "--cap-submodule-dim", "0",
                     "--oracle")
    assert (oracle.returncode, oracle.stdout, oracle.stderr) == (2, "", gate)
    verify = run_cli("verify", a3, "--cap-submodule-dim", "0")
    assert (verify.returncode, verify.stderr) == (2, gate)
    assert verify.stdout.splitlines() == [
        "PASS universe-completeness: 6 indecomposables closed",
        "PASS cotilting-detection: 5 cotilting pairs among 14 torsion classes"]


@pytest.mark.parametrize("command", ["indec", "tors"])
def test_submodule_cap_is_a_usage_error_where_nothing_reads_it(command):
    # indec and tors list no submodule, so they take no --cap-submodule-dim
    out = run_cli(command, str(FIXTURES / "a2.quiver"),
                  "--cap-submodule-dim", "0")
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr.splitlines() == [
        "usage: heart-simples [-h] {indec,heart,tors,verify} ...",
        "heart-simples: error: unrecognized arguments: --cap-submodule-dim 0"]


@pytest.mark.parametrize("args, stdout, stderr", [
    (("indec", "a2.quiver", "--dim-bound", "1,0"), "",
     "universe incomplete: AR translate of 0 has summand of dims (0, 1) "
     "outside\n"),
    (("indec", "loop.quiver", "--dim-bound", "1"), "",
     "universe incomplete: ext middle 0 by 0 has summand of dims (2,) "
     "outside\n"),
    (("verify", "d4.quiver", "--dim-bound", "1,1,1,1"),
     "FAIL universe-completeness: ext middle 7 by 6 has summand of dims "
     "(1, 1, 1, 2) outside\n", ""),
    # the projective-injectives are reached only as Ext middles: here P(1)
    # as the middle of the AR sequence ending at the member 2
    (("indec", "nakayama.quiver", "--dim-bound", "1,1"), "",
     "universe incomplete: ext middle 2 by 3 has summand of dims (2, 1) "
     "outside\n"),
], ids=["ar-translate-a2", "ext-middle-loop", "ext-middle-d4",
        "ext-middle-nakayama"])
def test_completeness_witness(args, stdout, stderr):
    cmd, name, *rest = args
    out = run_cli(cmd, str(FIXTURES / name), *rest)
    assert (out.returncode, out.stdout, out.stderr) == (3, stdout, stderr)


def test_field_override_flag():
    out = run_cli("indec", str(FIXTURES / "a2.quiver"), "--field", "3",
                  "--format", "json")
    payload = json.loads(out.stdout)
    assert payload["algebra"]["field"] == 3
    assert len(payload["universe"]) == 3


def test_deterministic_output():
    a = run_cli("heart", str(FIXTURES / "a2.quiver"), "--gens", "1.0",
                "--format", "json")
    b = run_cli("heart", str(FIXTURES / "a2.quiver"), "--gens", "1.0",
                "--format", "json")
    assert a.stdout == b.stdout


def test_verify_nakayama_zero_relation(tmp_path):
    # linear quiver with a zero relation: five interval modules survive
    f = tmp_path / "nakayama.quiver"
    f.write_text(
        "field 2\nvertices 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n"
        "relation a*b\n")
    out = run_cli("verify", str(f))
    assert out.returncode == 0
    assert "5 indecomposables closed" in out.stdout
    assert "2 cotilting pairs among 12 torsion classes" in out.stdout


def test_ext_scan_over_cap_is_a_resource_limit():
    out = run_cli("indec", str(FIXTURES / "a2.quiver"), "--cap-ext-dim", "0")
    assert out.returncode == 2
    assert out.stderr.startswith("resource limit:")


def test_fixture_report_script_runs():
    # the survey script imports the CLI's report helpers; run it end to end
    script = Path(__file__).parent.parent / "scripts" / "fixture_report.py"
    out = subprocess.run([sys.executable, str(script),
                          str(FIXTURES / "a2.quiver")],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert sum("heart-simple counts" in line
               for line in out.stdout.splitlines()) == 1


def test_cli_import_leaves_sympy_out():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, torsionheart.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout == "False\n"


def test_cli_import_leaves_numpy_out():
    # the package computes on Python ints; numpy is a test-only dependency
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, torsionheart.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout == "False\n"


def test_verify_fail_exit_code(monkeypatch, capsys):
    from torsionheart import cli, verify

    def failing(ctx):
        return verify.VerifyResult("brick-property", False, "injected witness")

    suites = list(verify.ALL_SUITES)
    suites[1] = failing
    monkeypatch.setattr(verify, "ALL_SUITES", suites)
    assert cli.main(["verify", str(FIXTURES / "loop.quiver")]) == 5
    out, err = capsys.readouterr()
    expected = (Path(__file__).parent / "golden" / "verify-loop.out") \
        .read_text().splitlines()
    expected[3] = "FAIL brick-property: injected witness"
    assert out.splitlines() == expected
    assert err == ""


def test_internal_error_exit_code(monkeypatch, capsys):
    from torsionheart import cli, universe

    def broken(m):
        raise AssertionError("decomposition glue map\nis not an isomorphism")

    monkeypatch.setattr(universe, "decompose", broken)
    assert cli.main(["indec", str(FIXTURES / "a2.quiver")]) == 6
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal error: decomposition glue map is not an "
                   "isomorphism\n")


def test_ext_middle_check_exit_code(monkeypatch, capsys):
    # a pushout whose middle lacks one dimension, the last basis vector at
    # its first nonzero vertex, fails the check of every Ext middle: exit 6
    # with one line
    from torsionheart import cli
    from torsionheart import homology as ho
    from torsionheart.modules import Module, Morphism
    pushout = ho.pushout

    def short_pushout(f, g):
        w, from_y, from_z = pushout(f, g)
        v = next(v for v, d in enumerate(w.dims) if d)
        dims = tuple(d - (u == v) for u, d in enumerate(w.dims))
        maps = tuple(
            tuple(row[:dims[a.target]] for row in x[:dims[a.source]])
            for a, x in zip(w.algebra.quiver.arrows, w.maps))
        short = Module(w.algebra, dims, maps, check=False)
        return (short, *(
            Morphism(leg.source, short, tuple(
                tuple(row[:d] for row in x) for x, d in zip(leg.maps, dims)),
                check=False) for leg in (from_y, from_z)))

    monkeypatch.setattr(ho, "pushout", short_pushout)
    assert cli.main(["indec", str(FIXTURES / "a3.quiver")]) == 6
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: Ext middle ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_not_cotilting_outside_heart_exit_code(monkeypatch, capsys):
    from torsionheart import cli
    from torsionheart.exceptions import NotCotiltingError

    def rejected(u):
        raise NotCotiltingError("Ext^1(C, C) != 0")

    monkeypatch.setattr(cli, "enumerate_torsion_classes", rejected)
    assert cli.main(["tors", str(FIXTURES / "a2.quiver")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "not cotilting: Ext^1(C, C) != 0\n"


def _overlapping(classify):
    """classify_neg_isolated with every critical sequence also a special."""
    def overlapping(data):
        criticals, specials = classify(data)
        return criticals, specials + criticals
    return overlapping


def test_heart_reports_intersecting_envelopes(monkeypatch, capsys):
    from torsionheart import cli
    monkeypatch.setattr(cli, "classify_neg_isolated",
                        _overlapping(cli.classify_neg_isolated))
    assert cli.main(["heart", str(FIXTURES / "a2.quiver"), "--gens", "1.0",
                     "--format", "json"]) == 0
    checks = {c["name"]: c["passed"]
              for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks == {"envelopes-disjoint": False, "envelopes-exhaust-C": True}


def test_dichotomy_reports_intersecting_envelopes(monkeypatch):
    from torsionheart import verify
    from torsionheart.algebra import parse_algebra
    from torsionheart.universe import enumerate_indecomposables
    # a fresh universe, so that no classification is served from the memo
    u = enumerate_indecomposables(
        parse_algebra((FIXTURES / "a2.quiver").read_text()), (2, 2))
    monkeypatch.setattr(verify, "classify_neg_isolated",
                        _overlapping(verify.classify_neg_isolated))
    result = verify.suite_dichotomy(verify.build_context(u))
    assert not result.passed
    assert result.detail.startswith("E and M sets intersect")


def _error_lines(capsys, argv):
    from torsionheart import cli
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err.splitlines()


def test_bad_values_are_parse_errors(capsys):
    a2 = str(FIXTURES / "a2.quiver")
    for argv in (["indec", a2, "--dim-bound", "2,x"],
                 ["indec", a2, "--dim-bound", "2"],
                 ["heart", a2, "--gens", "x"],
                 ["heart", a2, "--gens", "1.x"]):
        code, out, err = _error_lines(capsys, argv)
        assert (code, out, len(err)) == (1, "", 1), argv
        assert err[0].startswith("error: "), argv


def test_non_utf8_file_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "latin1.quiver"
    f.write_bytes(b"field 2\nvertices 1 \xff\n")
    for cmd in ("indec", "tors", "heart", "verify"):
        code, out, err = _error_lines(capsys, [cmd, str(f)])
        assert (code, out, len(err)) == (1, "", 1), cmd
        assert err[0].startswith("error: 'utf-8' codec can't decode"), cmd


def test_quiver_checks_are_parse_errors(capsys, tmp_path):
    f = tmp_path / "bad.quiver"
    for text, message in (
            ("field 2\nvertices 1 1 2\n", "duplicate vertex labels"),
            ("field 2\nvertices 1 2 3\narrow a: 1 -> 2\narrow a: 2 -> 3\n",
             "duplicate arrow names")):
        f.write_text(text)
        assert _error_lines(capsys, ["indec", str(f)]) == (
            1, "", [f"error: {message}"]), text


def test_flags_only_where_read(capsys):
    a2 = str(FIXTURES / "a2.quiver")
    for argv in (["verify", a2, "--oracle"],
                 ["verify", a2, "--format", "json"],
                 ["indec", a2, "--format", "dot"],
                 ["heart", a2, "--format", "dot"],
                 ["tors", a2, "--oracle"]):
        code, out, err = _error_lines(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err[-1].startswith("heart-simples") and "error:" in err[-1]


def test_help_exits_zero(capsys):
    from torsionheart import cli
    for argv in (["--help"], ["heart", "--help"]):
        assert cli.main(argv) == 0
        assert "usage: heart-simples" in capsys.readouterr().out


def test_import_leaves_out_the_heavy_stdlib():
    """Importing the CLI, with no site hooks to preload anything, imports
    neither `dataclasses` (which brings `inspect`, `ast`, `dis` and
    `tokenize`) nor `typing`, and `json` waits for `--format json`."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import torsionheart.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'json'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
