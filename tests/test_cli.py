import functools
import os
import subprocess
import sys

import pytest

from stokesdarcy import SolveConfig, solve_monolithic_oracle
from stokesdarcy.cli import ExperimentSpec, _parse_args, main, read_config
from stokesdarcy.ftp import SolverFailure
from stokesdarcy.krylov import IndefinitePreconditioner


def test_converge_csv_contract(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["converge", "--pair", "mini-bdm1", "--nmin", "8",
                 "--nmax", "16", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == ("DOF,h,e(u_S),r(u_S),e(p_S),r(p_S),"
                        "e(u_D),r(u_D),e(p_D),r(p_D)")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "543" and first[1] == "1/8"
    # rates blank on the first row, scientific notation with 3 digits
    assert first[3] == "-"
    assert "e+" in first[2] or "e-" in first[2]
    second = lines[2].split(",")
    assert second[3] != "-"
    assert float(second[3]) == pytest.approx(0.88, abs=0.05)


def test_iterations_single_combo_column(tmp_path):
    out = tmp_path / "iters.csv"
    code = main(["iterations", "--pair", "mini-bdm1", "--nmin", "8",
                 "--nmax", "8", "--combo", "direct:pd0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].count(",") == 2  # DOF, h, one data column
    cell = lines[1].split(",")[2]
    assert cell.startswith('"') and cell.endswith('"')
    inner = cell.strip('"')
    outer, bracket = inner.split("(")
    assert int(outer) > 0 and int(bracket.rstrip(")")) > 0


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["converge", "--pair", "p2isop1-bdm1", "--nmin", "8",
                     "--nmax", "8", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_markdown_format(tmp_path):
    out = tmp_path / "t.md"
    main(["iterations", "--pair", "mini-bdm1", "--nmin", "8", "--nmax", "8",
          "--format", "markdown", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("| DOF |")
    assert set(lines[1].replace("|", "")) <= {"-"}
    # the CSV quotes of the iteration cells are not part of the table
    cells = [c.strip() for c in lines[2].strip("|").split("|")]
    assert cells[:2] == ["543", "1/8"]
    assert cells[2].endswith(")") and '"' not in lines[2]


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pair = p2isop1-bdm1\n"
                   "nmin = 8\n"
                   "nmax = 8\n"
                   "# a comment\n"
                   "combo = direct:pd0\n"
                   "combo = direct:hx\n")
    parsed = read_config(cfg)
    assert parsed["combo"] == ["direct:pd0", "direct:hx"]
    out = tmp_path / "from_config.csv"
    assert main(["iterations", "--config", str(cfg),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].count(",") == 3  # two combo columns from the file
    assert lines[1].split(",")[0] == "385"
    # flags override the file
    out2 = tmp_path / "override.csv"
    assert main(["iterations", "--config", str(cfg), "--combo",
                 "direct:pd0", "--out", str(out2)]) == 0
    assert out2.read_text().splitlines()[0].count(",") == 2


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STOKESDARCY_OUTDIR", str(tmp_path))
    assert main(["converge", "--pair", "mini-bdm1", "--nmin", "8",
                 "--nmax", "8", "--out", "rel.csv"]) == 0
    assert (tmp_path / "rel.csv").exists()


def test_check_verb():
    assert main(["check"]) == 0


def test_oracle_verb():
    assert main(["oracle", "--pair", "mini-bdm1"]) == 0


@pytest.mark.parametrize("error", [SolverFailure, IndefinitePreconditioner])
def test_oracle_inner_failure_exits_1(capsys, monkeypatch, error):
    """An inner failure of the nested solve is one stderr line and exit 1,
    as for a table cell, not a traceback."""
    import stokesdarcy.cli as cli

    def fail(problem, config):
        raise error("inner MINRES stalled")

    monkeypatch.setattr(cli, "solve_coupled", fail)
    assert main(["oracle", "--pair", "mini-bdm1"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("stokesdarcy: ")
    assert "failed: inner MINRES stalled" in err[0]


def test_oracle_unconverged_nested_solve_exits_1(capsys, monkeypatch):
    """A nested solve that reports converged == False fails the oracle
    comparison, even when its fields match the monolithic ones."""
    import stokesdarcy.cli as cli

    def unconverged(problem, config):
        report = solve_monolithic_oracle(problem)
        report.converged = False
        return report

    monkeypatch.setattr(cli, "solve_coupled", unconverged)
    assert main(["oracle", "--pair", "mini-bdm1"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("stokesdarcy: n=8 ")
    assert "failed: outer MINRES did not converge" in err[0]


@pytest.mark.parametrize("verb", ["converge", "iterations"])
def test_failure_marker_and_exit_code(tmp_path, capsys, monkeypatch, verb):
    """An outer solve that did not converge fails its cell: FAILED in
    the table, exit 1, and one reason line per failed cell."""
    import stokesdarcy.cli as cli

    class FailedReport:
        converged = False
        outer_iterations = 0
        mean_inner = 0.0

    monkeypatch.setattr(cli, "solve_coupled",
                        lambda problem, config: FailedReport())
    out = tmp_path / "fail.csv"
    code = main([verb, "--pair", "mini-bdm1", "--nmin", "8",
                 "--nmax", "16", "--out", str(out)])
    assert code == 1
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2 and all("FAILED" in row for row in rows)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("stokesdarcy: n=%d " % n)
               and "failed: outer MINRES did not converge" in line
               for n, line in zip((8, 16), err))


@pytest.mark.parametrize("verb", ["converge", "iterations"])
def test_inner_solver_failure_is_contained_per_cell(tmp_path, capsys,
                                                    monkeypatch, verb):
    """A porous solve capped at one iteration fails in every cell; the
    table is still written, one reason line per cell goes to stderr."""
    import stokesdarcy.cli as cli
    monkeypatch.setattr(cli, "SolveConfig",
                        functools.partial(SolveConfig, maxit_inner=1))
    out = tmp_path / "fail.csv"
    assert main([verb, "--pair", "mini-bdm1", "--nmin", "8", "--nmax", "16",
                 "--out", str(out)]) == 1
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2 and all("FAILED" in row for row in rows)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("stokesdarcy: n=") and "stalled" in line
               for line in err)


def _spec(argv):
    return ExperimentSpec(_parse_args(argv))


def test_mesh_sizes_are_doublings():
    assert _spec(["converge", "--nmin", "64",
                  "--nmax", "256"]).sizes == [64, 128, 256]
    assert _spec(["iterations", "--nmin", "48",
                  "--nmax", "48"]).sizes == [48]
    assert _spec(["converge", "--nmin", "12",
                  "--nmax", "100"]).sizes == [12, 24, 48, 96]


def test_default_mesh_sizes_and_direct_cap(capsys):
    """No combo's table is capped: the default direct:pd0 runs n = 8 ...
    128 like every other combo, and the oracle solves at --nmin."""
    for verb in ("iterations", "converge"):
        spec = _spec([verb])
        assert spec.combos == [("direct", "pd0")]
        assert spec.sizes == [8, 16, 32, 64, 128]
    assert capsys.readouterr().err == ""
    assert _spec(["oracle", "--nmin", "4"]).sizes == [4]


@pytest.mark.parametrize("argv", [
    ["iterations", "--pair", "mini", "--nmin", "12", "--nmax", "12",
     "--combo", "direct:pd0", "--combo", "bpx:pd0"],
    ["converge", "--pair", "mini", "--nmin", "12", "--nmax", "24",
     "--combo", "bpx:hxbpx"],
    ["iterations", "--pair", "mini", "--nmin", "10", "--nmax", "10",
     "--combo", "bpx:pd0"],
    ["oracle", "--pair", "mini", "--nmin", "12", "--combo", "direct:hxbpx"],
    ["iterations", "--pair", "th", "--nmin", "6", "--nmax", "6",
     "--combo", "bpx:pd0"],
    ["oracle", "--nmin", "4"]],
    ids=["mini12-table", "mini12-24-hxbpx", "mini10-bpx", "mini12-oracle",
         "th6-bpx", "mini4-oracle"])
def test_every_accepted_mesh_size_runs(tmp_path, capsys, argv):
    """Each size check_mesh_size accepts solves every combo: a multilevel
    kind gets the deepest nested hierarchy, the mesh alone where n/2 is
    odd."""
    out = tmp_path / "table.csv"
    oracle = argv[0] == "oracle"
    assert main(argv if oracle else argv + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if oracle:
        assert "oracle comparison PASS" in captured.out
    else:
        assert "FAILED" not in out.read_text()


def test_combo_names_are_the_kind_table():
    from stokesdarcy.cli import _FLAGS
    from stokesdarcy.solver import KINDS, combo_label, parse_combo

    outer = tuple(k for k in KINDS if KINDS[k].role == "outer")
    inner = tuple(k for k in KINDS if KINDS[k].role == "inner")
    assert len(outer) + len(inner) == len(KINDS)
    assert "outer in %s, inner in %s;" % (outer, inner) \
        in _FLAGS["combo"]["help"]
    for o in outer:
        for i in inner:
            combo = parse_combo("%s:%s" % (o, i))
            assert combo == (o, i)
            assert combo_label(combo) == "%s(%s)" % (KINDS[o].label,
                                                     KINDS[i].label)
    for o, i in ((inner[0], inner[0]), (outer[0], outer[0])):
        with pytest.raises(ValueError):
            parse_combo("%s:%s" % (o, i))


def _assert_usage_error(capsys, monkeypatch, argv):
    """main(argv) exits 2 with a one-line error before any solve; returns
    the error text."""
    import stokesdarcy.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve was started")

    monkeypatch.setattr(cli, "Problem", no_solve)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("stokesdarcy: error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    return captured.err


_BAD_SIZE_FLAGS = [["--nmin", "64", "--nmax", "8"],
                   ["--nmin", "0", "--nmax", "8"],
                   ["--nmin", "3", "--nmax", "3"],  # odd n
                   ["--pair", "iso", "--nmin", "6", "--nmax", "6"]]


@pytest.mark.parametrize("argv", [
    pytest.param([verb] + flags, id="%s-flags%d" % (verb, i))
    for verb in ("converge", "iterations")
    for i, flags in enumerate(_BAD_SIZE_FLAGS)] + [
    pytest.param(["oracle", "--pair", "iso", "--nmin", "10"],
                 id="oracle-flags0")])
def test_empty_mesh_range_is_usage_error(capsys, monkeypatch, argv):
    """An empty mesh-size range, or a size the pair cannot be built at
    (odd, or not divisible by 4 for the iso pair)."""
    _assert_usage_error(capsys, monkeypatch, argv)


@pytest.mark.parametrize("argv,config", [
    pytest.param([verb, flag, value], None,
                 id="%s%s=%s" % (verb, flag, value))
    for verb in ("converge", "iterations")
    for flag, value in (("--inner-rtol", "0"), ("--inner-rtol", "2"),
                        ("--outer-rtol", "-1"), ("--outer-rtol", "nan"))] + [
    pytest.param(["iterations"], "inner_rtol = 0\n", id="key-inner-rtol"),
    pytest.param(["converge"], "outer_rtol = 1\n", id="key-outer-rtol")])
def test_out_of_range_tolerance_is_usage_error(tmp_path, capsys, monkeypatch,
                                               argv, config):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    err = _assert_usage_error(capsys, monkeypatch, argv)
    assert "must lie in (0, 1)" in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value", [("combo", "direct"),
                                       ("combo", "direct:bogus"),
                                       ("pair", "bogus")])
def test_malformed_combo_or_pair_is_usage_error(tmp_path, capsys,
                                                monkeypatch, key, value,
                                                source):
    if source == "flag":
        argv = ["iterations", "--" + key, value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("%s = %s\n" % (key, value))
        argv = ["iterations", "--config", str(cfg)]
    err = _assert_usage_error(capsys, monkeypatch, argv)
    assert repr(value) in err


def test_missing_config_file_is_usage_error(tmp_path, capsys, monkeypatch):
    err = _assert_usage_error(capsys, monkeypatch, [
        "iterations", "--config", str(tmp_path / "nope.cfg")])
    assert "nope.cfg" in err


@pytest.mark.parametrize("verb", ["converge", "iterations"])
@pytest.mark.parametrize("where", ["out", "env"])
def test_missing_output_directory_is_usage_error(tmp_path, capsys,
                                                 monkeypatch, verb, where):
    """A table whose output directory does not exist stops before any
    solve, whether --out or STOKESDARCY_OUTDIR names it."""
    missing = tmp_path / "missing"
    if where == "out":
        argv = [verb, "--out", str(missing / "x.csv")]
    else:
        monkeypatch.setenv("STOKESDARCY_OUTDIR", str(missing))
        argv = [verb]
    err = _assert_usage_error(capsys, monkeypatch, argv)
    assert str(missing) in err


@pytest.mark.parametrize("verb", ["converge", "iterations"])
@pytest.mark.parametrize("where", ["out", "env"])
def test_output_path_naming_a_directory_is_usage_error(tmp_path, capsys,
                                                       monkeypatch, verb,
                                                       where):
    """A table whose --out names an existing directory, given as it is or
    inside STOKESDARCY_OUTDIR, stops before any solve."""
    (tmp_path / "tables").mkdir()
    if where == "out":
        out = str(tmp_path / "tables")
    else:
        monkeypatch.setenv("STOKESDARCY_OUTDIR", str(tmp_path))
        out = "tables"
    err = _assert_usage_error(capsys, monkeypatch, [
        verb, "--nmin", "8", "--nmax", "8", "--out", out])
    assert "is a directory" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_usage_error(tmp_path, capsys, monkeypatch, source):
    """A negative seed, from the flag or the config file, stops before
    the check battery starts."""
    import stokesdarcy.checks as checks

    def no_check(*args, **kwargs):
        raise AssertionError("the check battery was started")

    monkeypatch.setattr(checks, "run_all", no_check)
    if source == "flag":
        argv = ["check", "--seed", "-1"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        argv = ["check", "--config", str(cfg)]
    err = _assert_usage_error(capsys, monkeypatch, argv)
    assert "seed must be non-negative" in err


@pytest.mark.parametrize("argv,config", [
    pytest.param(["converge", "--seed", "3"], None, id="converge-seed"),
    pytest.param(["iterations", "--seed", "3"], None, id="iterations-seed"),
    pytest.param(["oracle", "--seed", "3"], None, id="oracle-seed"),
    pytest.param(["check", "--pair", "mini"], None, id="check-pair"),
    pytest.param(["oracle", "--format", "markdown"], None,
                 id="oracle-format"),
    pytest.param(["oracle", "--out", "x.md"], None, id="oracle-out"),
    pytest.param(["oracle", "--inner-rtol", "0.5"], None,
                 id="oracle-inner-rtol"),
    pytest.param(["oracle", "--nmax", "4"], None, id="oracle-nmax"),
    pytest.param(["converge", "--combo", "direct:pd0", "--combo", "bpx:hx"],
                 None, id="converge-two-combos"),
    pytest.param(["oracle", "--combo", "direct:pd0", "--combo", "bpx:hx"],
                 None, id="oracle-two-combos"),
    pytest.param(["iterations"], "inner_rtl = 0.5\n", id="key-typo"),
    pytest.param(["iterations"], "seeed = 4\n", id="key-seeed"),
    pytest.param(["converge"], "seed = 4\n", id="key-seed-converge"),
    pytest.param(["check"], "nmin = 8\n", id="key-nmin-check"),
    pytest.param(["oracle"], "inner_rtol = 0.5\n", id="key-inner-rtol-oracle"),
    pytest.param(["converge"], "combo = direct:pd0\ncombo = bpx:hx\n",
                 id="key-two-combos-converge"),
    pytest.param(["iterations"], "format = xlsx\n", id="key-bad-format"),
])
def test_unread_flag_or_key_is_usage_error(tmp_path, capsys, monkeypatch,
                                           argv, config):
    """Every verb accepts only the flags and config keys it reads, and
    converge and oracle solve exactly one combo; a config value is
    checked like the flag it stands for."""
    import stokesdarcy.checks as checks

    def no_check(*args, **kwargs):
        raise AssertionError("the check battery was started")

    monkeypatch.setattr(checks, "run_all", no_check)
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    _assert_usage_error(capsys, monkeypatch, argv)


@pytest.mark.parametrize("verb,keys", [
    ("converge", "pair nmin nmax combo outer_rtol inner_rtol format out"),
    ("iterations", "pair nmin nmax combo outer_rtol inner_rtol format out"),
    ("check", "seed"),
    ("oracle", "pair nmin combo"),
])
def test_verb_reads_its_config_keys(tmp_path, verb, keys):
    """The keys a verb reads are accepted from a config file."""
    values = {"pair": "iso", "nmin": "16", "nmax": "32", "combo": "bpx:hx",
              "outer_rtol": "1e-7", "inner_rtol": "1e-3",
              "format": "markdown", "out": "x.md", "seed": "5"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join("%s = %s\n" % (k, values[k])
                           for k in keys.split()))
    spec = _spec([verb, "--config", str(cfg)])
    for key in keys.split():
        want = {"pair": "p2isop1-bdm1", "combo": [("bpx", "hx")]}.get(key)
        got = spec.combos if key == "combo" else getattr(spec, key)
        if want is None:
            want = type(got)(values[key])
        assert got == want, key


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset,want", [
    ({}, ("1", "1", "1")),
    ({"OPENBLAS_NUM_THREADS": "3"}, ("3", "1", "1")),
], ids=["unset", "explicit"])
def test_import_defaults_to_one_blas_thread(preset, want):
    """Importing the package (as the console script does before numpy is
    loaded) fills in one BLAS thread; an explicit setting wins."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(preset)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import os, stokesdarcy; print(' '.join(os.environ[v] for v in "
            "%r))" % (_BLAS_VARS,))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert tuple(proc.stdout.split()) == want
