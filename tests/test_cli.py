"""Command-line surface: formats, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest

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


def test_kl_pair_checked_exit_2(capsys):
    # each side of --pair must be dominant and tau-fixed
    cases = [
        (("su3-unramified", "0,0|2,1"), "lambda (2,1) is not tau-fixed"),
        (("su3-unramified", "2,1|1,1"), "nu (2,1) is not tau-fixed"),
        (("split-a2", "0,0|2,-1"), "lambda (2,-1) is not dominant"),
    ]
    for (preset, pair), msg in cases:
        code, out, err = run(capsys, "kl", "--preset", preset, "--pair", pair)
        assert code == 2, pair
        assert out == ""
        assert err.strip() == "input error: --pair: " + msg, pair


def test_kl_pair_not_below_exit_2(capsys):
    # P_{w_nu, w_lambda} needs w_nu <= w_lambda; the check names the option
    code, out, err = run(capsys, "kl", "--preset", "split-a2", "--pair=2,2|1,1")
    assert code == 2
    assert out == ""
    assert err.strip() == ("input error: --pair: w_nu is not Bruhat-below "
                           "w_lambda for nu (2,2), lambda (1,1)")
    # the pair is checked before the cosets below w_lambda are enumerated,
    # which for lambda = (36,36) would pass KL_INTERVAL_CAP
    code, out, err = run(capsys, "kl", "--preset", "split-a2", "--pair=37,37|36,36")
    assert code == 2
    assert out == ""
    assert err.strip() == ("input error: --pair: w_nu is not Bruhat-below "
                           "w_lambda for nu (37,37), lambda (36,36)")


def test_kl_pair_without_separator_exit_2(capsys):
    code, out, err = run(capsys, "kl", "--preset", "split-a2", "--pair", "0,0")
    assert code == 2
    assert out == ""
    assert err.strip() == ('input error: --pair needs nu|lambda, separated by '
                           '"|", got \'0,0\'')


def test_geom_basis_lambda_checked_exit_2(capsys):
    # --lambda gets the dominance and tau-fixedness checks of kl --pair
    cases = [
        (("su3-unramified", "2,1"), "(2,1) is not tau-fixed"),
        (("split-a2", "2,-1"), "(2,-1) is not dominant"),
    ]
    for (preset, lam), msg in cases:
        code, out, err = run(capsys, "geom-basis", "--preset", preset,
                             "--lambda", lam)
        assert code == 2, lam
        assert out == ""
        assert err.strip() == "input error: --lambda " + msg, lam


def test_mu_checked_exit_2(capsys):
    # branch and testfn check --mu at the level they compute at: the preset's
    # datum, or the E_j level of a tower (for tower-su3 no inertia and the
    # Frobenius flip; with --degenerate the E_j0 level, inertia and flip);
    # adm needs only dominance
    cases = [
        (("adm", "split-a2", "2,-1"), "(2,-1) is not dominant"),
        (("adm", "su4-unramified", "0,-1,2"), "(0,-1,2) is not dominant"),
        (("branch", "su3-ramified", "0,1,0"), "(0,1,0) is not dominant"),
        (("branch", "su3-ramified", "1,0,0"), "(1,0,0) is not fixed by the inertia"),
        (("branch", "su3-unramified", "2,1"), "(2,1) is not fixed by the Frobenius"),
        (("testfn", "split-a2", "2,-1"), "(2,-1) is not dominant"),
        (("testfn", "su3-ramified", "1,0,0"), "(1,0,0) is not fixed by the inertia"),
        (("testfn", "su3-unramified", "2,1"), "(2,1) is not fixed by the Frobenius"),
        (("testfn", "tower-su3", "2,-1"), "(2,-1) is not dominant"),
        (("testfn", "tower-su3", "2,1"), "(2,1) is not fixed by the Frobenius"),
        (("testfn", "tower-su3", "2,1", "--degenerate"),
         "(2,1) is not fixed by the inertia"),
    ]
    for (cmd, preset, mu, *rest), msg in cases:
        code, out, err = run(capsys, cmd, "--preset", preset, "--mu", mu, *rest)
        assert code == 2, (cmd, preset, mu)
        assert out == ""
        assert err.strip() == "input error: --mu " + msg, (cmd, preset, mu)
    code, out, _ = run(capsys, "adm", "--preset", "su3-unramified", "--mu", "2,1")
    assert code == 0
    assert json.loads(out)["mu"] == [2, 1]
    # at j = 2 the Frobenius of the E_j level is trivial
    code, out, _ = run(capsys, "testfn", "--preset", "tower-su3", "--mu", "2,1",
                       "--j", "2")
    assert code == 0
    assert json.loads(out)["kind"] == "test function (j=2)"


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


def test_testfn_j_reads_the_powers_of_tau(capsys):
    # tau has order 2 on tower-su3, so j and j + 2 give one Frobenius
    terms = {}
    for j in ("1", "2", "3", "4"):
        code, out, _ = run(capsys, "testfn", "--preset", "tower-su3", "--mu", "1,1",
                           "--j", j)
        assert code == 0, j
        terms[j] = json.loads(out)["terms"]
    assert terms["3"] == terms["1"] != terms["2"] == terms["4"]


def test_testfn_overrides_checked_on_every_path(tmp_path, capsys):
    """An override key that Sigma_0 does not have is bad input on the tower
    and --degenerate paths too, not only where the centre reads it."""
    from rootfold.presets import _load_raw
    for name in ("tower-su3", "su3-unramified"):
        raw = dict(_load_raw(name), overrides={"fin:9": 2})
        (tmp_path / (name + ".json")).write_text(json.dumps(raw))
    for name, extra in (("tower-su3", ()), ("su3-unramified", ()),
                        ("su3-unramified", ("--degenerate",))):
        code, out, err = run(capsys, "testfn", "--config",
                             str(tmp_path / (name + ".json")), "--mu", "1,1", *extra)
        assert code == 2, (name, extra)
        assert out == ""
        assert err.strip() == "input error: unknown override keys: [('fin', 9)]"


def test_testfn_without_preset_or_config_exit_2(capsys):
    code, out, err = run(capsys, "testfn", "--mu=1,0,-1")
    assert code == 2
    assert out == ""
    assert err.strip() == "input error: give --preset or --config"


def test_testfn_j_below_one_exit_2(capsys):
    for j in ("0", "-1"):
        code, out, err = run(capsys, "testfn", "--preset", "tower-su3",
                             "--mu=1,1", "--j", j)
        assert code == 2, j
        assert out == ""
        assert err.strip() == "input error: --j must be at least 1, got %s" % j


def test_testfn_j_without_tower_exit_2(capsys):
    # a preset without tower data has no use for --j (unless --degenerate)
    code, out, err = run(capsys, "testfn", "--preset", "split-a2", "--mu", "1,1",
                         "--j", "5")
    assert code == 2
    assert out == ""
    assert err.strip() == ("input error: --j 5 needs tower data, and preset "
                           "split-a2 has no tower data")
    code, out, _ = run(capsys, "testfn", "--preset", "split-a2", "--mu", "1,1")
    assert code == 0
    assert json.loads(out)["kind"] == "z_V*1_J"


def test_out_tsv_refused_without_a_table(capsys):
    """kl, geom-basis and testfn print JSON alone: --out tsv is a usage
    error (exit 2), not an option dropped in silence."""
    for argv in (("kl", "--preset", "split-a2", "--pair=0,0|1,1"),
                 ("geom-basis", "--preset", "split-a2", "--lambda=1,1"),
                 ("testfn", "--preset", "split-a2", "--mu=1,1")):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv) + ["--out", "tsv"])
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --out: invalid choice: 'tsv'" in err, argv


# the rootfold modules that one query of each subcommand loads: the lazy
# imports of the cmd_* functions, which a fresh interpreter pays for
LOADED_BY_ALL = ("cli", "presets", "echelonnage", "folding", "rootdata",
                 "lattice", "linalg", "jsoninput")
LOADED_BY_KL = LOADED_BY_ALL + ("affine", "characters", "hecke", "ring")
LAZY_IMPORTS = {
    "presets": (("presets",), LOADED_BY_ALL),
    "fold": (("fold", "--preset", "split-a1"), LOADED_BY_ALL),
    "echelonnage": (("echelonnage", "--preset", "split-a1"), LOADED_BY_ALL),
    "adm": (("adm", "--preset", "split-a1", "--mu", "1"),
            LOADED_BY_ALL + ("affine",)),
    "branch": (("branch", "--preset", "split-a1", "--mu", "1"),
               LOADED_BY_ALL + ("characters",)),
    "kl": (("kl", "--preset", "split-a1", "--pair", "0|2"), LOADED_BY_KL),
    "geom-basis": (("geom-basis", "--preset", "split-a1", "--lambda", "2"),
                   LOADED_BY_KL),
    "testfn": (("testfn", "--preset", "split-a1", "--mu", "2"),
               LOADED_BY_KL + ("testfn",)),
    "verify": (("verify", "split-a1"), LOADED_BY_KL + ("testfn", "verify")),
}

LOADED_MODULES = """
import contextlib, io, json, sys
from rootfold import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, [m for m in sys.modules if m.startswith("rootfold.")]]))
"""


@pytest.mark.parametrize("command", sorted(LAZY_IMPORTS))
def test_subcommand_loads_only_its_modules(command):
    argv, expected = LAZY_IMPORTS[command]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, loaded = json.loads(done.stdout)
    assert code == 0
    assert sorted(loaded) == sorted("rootfold." + m for m in expected)


def test_broken_pipe_exits_quietly(monkeypatch, capsys):
    # `rootfold ... | head` closes the pipe before the output is written
    class ClosedPipe(io.StringIO):
        def write(self, s):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = cli.main(["testfn", "--preset", "split-a2", "--mu", "1,1"])
    devnull = sys.stdout
    assert code == 0
    assert devnull.name == os.devnull
    devnull.close()
    assert capsys.readouterr().err == ""


def test_malformed_permutation_exit_2(capsys):
    # anything but a permutation of 0..r-1 is refused before it indexes the
    # simple roots; negative indices do not wrap
    cases = [
        (("echelonnage", "--type", "A2", "--tau", "0,0"), "--tau", "0,0", 2),
        (("fold", "--type", "A2", "--tau", "2,3"), "--tau", "2,3", 2),
        (("fold", "--type", "A2", "--tau=-1,0"), "--tau", "-1,0", 2),
        (("fold", "--type", "A2", "--inertia", "0,1,2"), "--inertia", "0,1,2", 2),
        (("fold", "--type", "A3", "--inertia", "2,1,0", "--tau", "1,0"),
         "--tau", "1,0", 3),
    ]
    for argv, option, value, count in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.strip() == (
            "input error: %s %s is not a permutation of 0..%d, the indices of "
            "the %d simple roots" % (option, value, count - 1, count)), argv
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


def test_verify_negative_bound_exit_2(capsys):
    for option in ("--mu-bound", "--kl-bound"):
        code, out, err = run(capsys, "verify", "split-a1", option, "-1")
        assert code == 2, option
        assert out == ""
        assert err.strip() == "input error: %s must be at least 0, got -1" % option


def test_datum_file_input(tmp_path, capsys):
    import rootfold.rootdata as rd
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(rd.gl_datum(3).to_json()))
    code, out, _ = run(capsys, "echelonnage", "--datum", str(path))
    assert code == 0
    assert json.loads(out)["sigma_breve"] == "A2"


def test_input_files_exit_2(tmp_path, monkeypatch, capsys):
    """An input file that is missing, not a JSON object or short of a key
    is bad input: exit 2 naming the option, the file and the key."""
    files = {"rank_only.json": {"rank": 2}, "list.json": [1, 2],
             "no_datum.json": {"name": "x"}}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "broken.json").write_text("{")
    cases = [
        (("fold", "--datum", "missing.json"), "--datum missing.json: No such file or directory"),
        (("fold", "--datum", "rank_only.json"), "--datum rank_only.json: missing key 'simple_roots'"),
        (("fold", "--datum", "list.json"), "--datum list.json: expected a JSON object, got list"),
        (("fold", "--datum", "broken.json"), "--datum broken.json: not JSON: "),
        (("testfn", "--config", "missing.json", "--mu", "0,0"),
         "--config missing.json: No such file or directory"),
        (("testfn", "--config", "no_datum.json", "--mu", "0,0"),
         "--config no_datum.json: missing key 'datum'"),
    ]
    monkeypatch.chdir(tmp_path)
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("input error: " + message), (argv, err)


def test_malformed_values_in_input_files_exit_2(tmp_path, monkeypatch, capsys):
    """A value of the wrong type or shape inside an input file is bad input:
    exit 2 naming the option, the file and the key, not a traceback."""
    a2 = {"rank": 2, "simple_roots": [[1, 0], [0, 1]],
          "simple_coroots": [[2, -1], [-1, 2]]}
    files = {
        "int_datum.json": {"datum": 5},
        "int_roots.json": dict(a2, simple_roots=5),
        "ragged.json": dict(a2, simple_coroots=[[2, -1], [-1]]),
        "short_coroots.json": dict(a2, simple_coroots=[[2, -1]]),
        "bool_entry.json": {"datum": {"explicit": dict(a2, simple_roots=[[1, 0], [0, True]])}},
        "short_matrix.json": {"datum": {"cartan_type": "A2"},
                              "frobenius": {"matrix": [[0, 1]]}},
        "str_override.json": {"datum": {"cartan_type": "A2"}, "overrides": {"fin:0": "2"}},
        "str_kl_check.json": {"datum": {"cartan_type": "A2"}, "kl_check": "no"},
        "int_description.json": {"datum": {"cartan_type": "A2"}, "description": 5},
        "int_name.json": {"datum": {"cartan_type": "A2"}, "name": 7},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    cases = [
        (("testfn", "--config", "int_datum.json", "--mu", "0,0"),
         "--config int_datum.json: key 'datum': expected an object, got int"),
        (("fold", "--datum", "int_roots.json"),
         "--datum int_roots.json: key 'simple_roots': expected a list, got int"),
        (("fold", "--datum", "ragged.json"),
         "--datum ragged.json: key 'simple_coroots': row 1 has 1 entries, "
         "expected 2 (the rank)"),
        (("fold", "--datum", "short_coroots.json"),
         "--datum short_coroots.json: key 'simple_coroots': 1 rows, expected 2"),
        (("testfn", "--config", "bool_entry.json", "--mu", "0,0"),
         "--config bool_entry.json: key 'simple_roots': row 1 is not a list of integers"),
        (("testfn", "--config", "short_matrix.json", "--mu", "0,0"),
         "--config short_matrix.json: key 'matrix': 1 rows, expected 2"),
        (("testfn", "--config", "str_override.json", "--mu", "0,0"),
         "--config str_override.json: key 'fin:0': expected an integer, got str"),
        (("testfn", "--config", "str_kl_check.json", "--mu", "1,1"),
         "--config str_kl_check.json: key 'kl_check': expected a boolean, got str"),
        (("testfn", "--config", "int_description.json", "--mu", "1,1"),
         "--config int_description.json: key 'description': expected a string, got int"),
        (("testfn", "--config", "int_name.json", "--mu", "1,1"),
         "--config int_name.json: key 'name': expected a string, got int"),
    ]
    monkeypatch.chdir(tmp_path)
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.strip() == "input error: " + message, (argv, err)


def test_datum_not_finite_type_exit_2(tmp_path, capsys):
    # simple roots 1 and -1 of Z: the affine A1 Cartan matrix; and the
    # hyperbolic ((2, -2), (-3, 2)), whose symmetrizers (3, 2) do not start at 1
    path = tmp_path / "datum.json"
    for datum in ({"rank": 1, "simple_roots": [[1], [-1]], "simple_coroots": [[2], [-2]]},
                  {"rank": 2, "simple_roots": [[1, 0], [0, 1]],
                   "simple_coroots": [[2, -2], [-3, 2]]}):
        path.write_text(json.dumps(datum))
        code, out, err = run(capsys, "echelonnage", "--datum", str(path))
        assert code == 2
        assert out == ""
        assert err.strip() == "input error: Cartan matrix is not of finite type"


def test_datum_one_sided_zero_cartan_entry_exit_2(tmp_path, capsys):
    # <alpha_2, alpha_1^vee> = 0 but <alpha_1, alpha_2^vee> = -1: no
    # symmetrizer exists, and the input is refused before one is sought
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"rank": 2, "simple_roots": [[1, 0], [0, 1]],
                                "simple_coroots": [[2, 0], [-1, 2]]}))
    code, out, err = run(capsys, "fold", "--datum", str(path))
    assert code == 2
    assert out == ""
    assert err.strip() == ("input error: Cartan entries C[i][j] and C[j][i] "
                           "must vanish together")


def test_datum_permutation_names_option_exit_2(tmp_path, capsys):
    # the GL3 lattice is spanned by neither the simple roots nor the simple
    # coroots, so a permutation does not determine an automorphism; the
    # message names the option and the one input that carries a matrix
    import rootfold.rootdata as rd
    path = tmp_path / "gl3.json"
    path.write_text(json.dumps(rd.gl_datum(3).to_json()))
    tail = ("the lattice of this datum does not determine an automorphism "
            "from a simple-root permutation; only a {\"matrix\": ...} "
            "automorphism spec in a testfn --config file can carry one")
    for extra, option in ((("--tau", "1,0"), "--tau"),
                          (("--inertia", "1,0", "--tau", "1,0"), "--inertia")):
        code, out, err = run(capsys, "echelonnage", "--datum", str(path), *extra)
        assert code == 2, extra
        assert out == ""
        assert err.strip() == "input error: %s: %s" % (option, tail)
    config = tmp_path / "u3.json"
    config.write_text(json.dumps({
        "datum": {"explicit": rd.gl_datum(3).to_json()},
        "frobenius": {"matrix": [list(r) for r in rd.unitary_dual_action(3)]}}))
    code, out, _ = run(capsys, "testfn", "--config", str(config),
                       "--mu", "1,0,-1")
    assert code == 0
    assert json.loads(out)["kind"] == "z_V*1_J"


def test_non_unimodular_matrix_exit_2(tmp_path, capsys):
    """A {"matrix": ...} automorphism of determinant 2 in a testfn --config
    file is bad input: exit 2 with the automorphism's message."""
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({
        "datum": {"cartan_type": "A2", "isogeny": "simply_connected"},
        "frobenius": {"matrix": [[2, 0], [0, 1]]}}))
    code, out, err = run(capsys, "testfn", "--config", str(config), "--mu", "1,1")
    assert code == 2
    assert out == ""
    assert err.strip() == "input error: generator is not invertible over Z"


def test_infinite_order_generator_exit_2(tmp_path, capsys):
    """A unipotent automorphism of the rank-3 datum with one root (1, -1, 0)
    is bad input as Frobenius and as inertia alike: exit 2 before any group
    is closed.  So is the dense U L on the rank-8 datum with no roots (U, L
    the all-ones upper and lower unitriangular matrices), whose powers grow
    exponentially: its order mod 3 is 820, and (U L)^820 != 1."""
    datum = {"explicit": {"rank": 3, "simple_roots": [[1, -1, 0]],
                          "simple_coroots": [[1, -1, 0]]}}
    unipotent = {"matrix": [[1, 0, 0], [0, 1, 0], [1, 1, 1]]}
    rootless = {"explicit": {"rank": 8, "simple_roots": [], "simple_coroots": []}}
    dense = {"matrix": [[min(8 - i, 8 - j) for j in range(8)] for i in range(8)]}
    config = tmp_path / "unipotent.json"
    for raw, mu in (({"datum": datum, "frobenius": unipotent}, "0,0,0"),
                    ({"datum": datum, "inertia": [unipotent]}, "0,0,0"),
                    ({"datum": rootless, "frobenius": dense}, ",".join("0" * 8))):
        config.write_text(json.dumps(raw))
        code, out, err = run(capsys, "testfn", "--config", str(config), "--mu", mu)
        assert code == 2, raw
        assert out == ""
        assert err.strip() == "input error: generator has infinite order"


def test_finite_group_past_the_cap_exit_3(capsys):
    # S_8 permuting the components of A1^8 has 40320 elements, each generator
    # of finite order: a resource cap, not bad input
    code, out, err = run(capsys, "echelonnage", "--type", "x".join(["A1"] * 8),
                         "--inertia", "1,0,2,3,4,5,6,7", "--inertia", "1,2,3,4,5,6,7,0")
    assert code == 3
    assert out == ""
    assert err.strip() == "resource cap: group closure exceeded 10080 elements"


def test_broken_root_coroot_pairing_exit_2(tmp_path, capsys):
    """An inertia matrix that fixes the simple root (2, 0) of Z^2 but sends
    its coroot (1, 0) to (1, -1) is bad input: exit 2 with the pairing
    message."""
    config = tmp_path / "pairing.json"
    config.write_text(json.dumps({
        "datum": {"explicit": {"rank": 2, "simple_roots": [[2, 0]],
                               "simple_coroots": [[1, 0]]}},
        "inertia": [{"matrix": [[1, 1], [0, 1]]}]}))
    code, out, err = run(capsys, "testfn", "--config", str(config), "--mu", "0,0")
    assert code == 2
    assert out == ""
    assert err.strip() == "input error: action breaks the root/coroot pairing"


def test_non_integral_cartan_exit_1(monkeypatch, capsys):
    """A folded system whose Cartan matrix has a Fraction entry is an
    internal fault: exit 1 naming the system, not an input error."""
    from fractions import Fraction

    from rootfold import folding
    from rootfold.folding import FoldedRootSystem
    bad = FoldedRootSystem(((1, 0), (0, Fraction(1, 2))), ((2, -1), (-1, 2)), label="N_bad")
    bad.op, bad.orbits = "N", (((0,), True), ((1,), True))
    # cmd_fold imports fold from rootfold.folding when it runs
    monkeypatch.setattr(folding, "fold", lambda rs, group, op: bad)
    code, _out, err = run(capsys, "fold", "--preset", "split-a2")
    assert code == cli.EXIT_THEOREM
    assert err.startswith("theorem check failed: N_bad: non-integral Cartan entry")


def test_unparameterized_orbit_is_a_theorem_failure(monkeypatch, capsys, fresh_tables):
    # a non-orthogonal tau-orbit of simple roots is a union of linked pairs,
    # so an orbit of another shape is an internal fault (exit 1), not an
    # input error; here Sigma_0 records each such orbit without its partners
    import copy

    from rootfold import echelonnage
    fold = echelonnage.fold

    def lossy_fold(rs, generators, op):
        out = fold(rs, generators, op)
        if op == "resprime":
            out = copy.copy(out)
            out.orbits = tuple((orb if orth else orb[:1], orth)
                               for orb, orth in out.orbits)
        return out

    monkeypatch.setattr(echelonnage, "fold", lossy_fold)
    code, out, err = run(capsys, "echelonnage", "--preset", "su3-unramified")
    assert code == 1
    assert out == ""
    assert err.strip() == "theorem check failed: orbit (0,) is not a union of linked pairs"
    code, out, _ = run(capsys, "verify", "su3-unramified")
    assert code == 1
    assert "FAIL internal-consistency preset=su3-unramified orbit " in out
