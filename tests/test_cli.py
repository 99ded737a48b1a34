"""Command-line surface: formats, determinism, exit codes."""

import json

from rootfold import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_presets_listed(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    assert "su3-unramified" in out.split()


def test_fold_table(capsys):
    code, out, _ = run(capsys, "fold", "--preset", "su5-unramified", "--out", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["op", "vector", "orbit_size", "orthogonal",
                                    "type"]
    types = {l.split("\t")[0]: l.split("\t")[4] for l in lines[1:]}
    assert types == {"res": "B2", "resprime": "C2", "N": "B2", "Nprime": "C2"}


def test_fold_adhoc_type(capsys):
    code, out, _ = run(capsys, "fold", "--type", "A2", "--isogeny",
                       "simply_connected", "--tau", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["res"]["type"] == "B1"
    assert payload["Nprime"]["type"] == "C1"


def test_echelonnage_json(capsys):
    code, out, _ = run(capsys, "echelonnage", "--preset", "su5-unramified")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma0"] == "C2"
    assert payload["special"] == [1]
    assert payload["parameters"]["fin:1"] == 3


def test_adm_output(capsys):
    code, out, _ = run(capsys, "adm", "--preset", "split-a1", "--mu", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 9
    assert payload["extremal_count"] == 2
    for item in payload["elements"]:
        assert set(item) == {"translation", "omega", "reduced_word", "length",
                             "extremal"}


def test_kl_output(capsys):
    code, out, _ = run(capsys, "kl", "--preset", "su3-unramified",
                       "--pair", "0,0|1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["P_at_1"] == 0
    assert payload["P"] == {"0": 1, "2": -1}


def test_geom_basis_output(capsys):
    code, out, _ = run(capsys, "geom-basis", "--preset", "su3-unramified",
                       "--lambda", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"coeff_cyclotomic": [1, 1], "kl_at_1": 1,
                                 "nu": "(1,1)"}]


def test_branch_tsv(capsys):
    code, out, _ = run(capsys, "branch", "--preset", "su3-ramified",
                       "--mu", "1,0,-1", "--out", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["lambda", "a", "tau_trace"]
    assert len(lines) == 2


def test_testfn_cli(capsys):
    code, out, _ = run(capsys, "testfn", "--preset", "tower-su3", "--mu", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"][0]["coeff_cyclotomic"] == [1, 1]
    code, out2, _ = run(capsys, "testfn", "--preset", "tower-su3", "--mu", "1,1",
                        "--degenerate")
    assert code == 0
    assert "degenerate" in json.loads(out2)["kind"]


def test_malformed_permutation_exit_2(capsys):
    code, _out, err = run(capsys, "echelonnage", "--type", "A2",
                          "--tau", "0,0")
    assert code == 2
    assert "error" in err
    code, _out, err = run(capsys, "adm", "--preset", "split-a1", "--mu", "-1")
    assert code == 2


def test_wrong_length_vector_exit_2(capsys):
    # each cocharacter option is checked against the rank before any work
    cases = [
        (("adm", "--preset", "split-a2", "--mu", "1,0,0"), "--mu", 2, 3),
        (("branch", "--preset", "split-a3", "--mu", "1,0"), "--mu", 3, 2),
        (("kl", "--preset", "su3-unramified", "--pair", "0,0|1,1,1"),
         "--pair", 2, 3),
        (("geom-basis", "--preset", "su3-unramified", "--lambda", "1"),
         "--lambda", 2, 1),
        (("testfn", "--preset", "tower-su3", "--mu", "1,1,0"), "--mu", 2, 3),
    ]
    for argv, option, rank, given in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.strip() == ("input error: %s needs %d entries (the rank of "
                               "the datum), got %d" % (option, rank, given)), argv


def test_unknown_preset_exit_2(capsys):
    code, _out, err = run(capsys, "fold", "--preset", "nope")
    assert code == 2


def test_verify_deterministic_subset(capsys):
    code1, out1, _ = run(capsys, "verify", "split-a1", "su3-unramified",
                         "--mu-bound", "2")
    code2, out2, _ = run(capsys, "verify", "split-a1", "su3-unramified",
                         "--mu-bound", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "VERIFY PASSED" in out1


def test_datum_file_input(tmp_path, capsys):
    import rootfold.rootdata as rd
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(rd.gl_datum(3).to_json()))
    code, out, _ = run(capsys, "echelonnage", "--datum", str(path))
    assert code == 0
    assert json.loads(out)["sigma_breve"] == "A2"
