import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import frac_kinetics
from frac_kinetics import (
    KineticProblem,
    KStruveParams,
    SeriesControl,
    Variant,
    gamma,
    k_gamma,
    k_struve,
    mittag_leffler,
    mittag_leffler2,
    solve_thm1,
    solve_thm2,
    solve_thm3,
    struve_h,
)
from frac_kinetics.cli import ENV_MAX_TERMS, main


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_MAX_TERMS, raising=False)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- eval


def test_eval_ml2_value(capsys):
    code, out, err = _run(capsys, "eval", "ml2", "--alpha", "1", "--beta", "2", "--z", "1")
    assert code == 0
    assert out.strip() == "1.71828182845905"
    assert err == ""


def test_eval_kstruve_at_origin(capsys):
    code, out, _ = _run(
        capsys, "eval", "kstruve", "--nu", "1", "--c", "1", "--k", "2", "--x", "0"
    )
    assert code == 0
    assert out.strip() == "0"


def test_eval_thm1_matches_library(capsys):
    args = ["eval", "thm1", "--n0", "1", "--d", "1", "--upsilon", "0.5",
            "--l", "1", "--c", "1", "--k", "2", "--t", "0.8"]
    code, out, _ = _run(capsys, *args)
    p = KineticProblem(
        n0=1.0, upsilon=0.5, d=1.0, struve=KStruveParams(1.0, 1.0, 2.0), variant=Variant.THM1
    )
    assert code == 0
    assert out.strip() == f"{solve_thm1(p, 0.8):.15g}"


def test_eval_thm1_long_budget_past_gamma_overflow(capsys):
    args = ["eval", "thm1", "--n0", "1", "--d", "1", "--upsilon", "1",
            "--l", "1", "--c", "1", "--k", "1", "--t", "0.5"]
    for budget in ("85", "90"):
        code, out, err = _run(capsys, *args, "--max-terms", budget)
        assert code == 0, err
        assert out.strip() == "0.0444162359567547"  # N(0.5) = 0.04441623595675474942... (mpmath)


def test_eval_thm3_runs(capsys):
    code, out, _ = _run(
        capsys, "eval", "thm3", "--n0", "1", "--d", "2", "--a", "1",
        "--upsilon", "1", "--l", "1", "--c", "1", "--k", "1", "--t", "0.5",
    )
    assert code == 0
    assert float(out) != 0.0


def test_eval_pole_is_input_error(capsys):
    code, out, err = _run(capsys, "eval", "gamma", "--x", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "x" in err and "pole" in err


_THM_ARGS = ["--n0", "1.5", "--d", "0.8", "--upsilon", "0.7", "--l", "0.5", "--c", "1.2", "--k", "2", "--t", "0.6"]
_THM_STRUVE = KStruveParams(0.5, 1.2, 2.0)


@pytest.mark.parametrize(
    "name,args,value",
    [
        ("gamma", ["--x", "2.5"], lambda: gamma(2.5)),
        ("kgamma", ["--x", "2.5", "--k", "1.5"], lambda: k_gamma(2.5, 1.5)),
        ("struve", ["--p", "0.5", "--x", "3"], lambda: struve_h(0.5, 3.0)),
        ("kstruve", ["--nu", "1", "--c", "2", "--k", "1.5", "--x", "2"],
         lambda: k_struve(KStruveParams(1.0, 2.0, 1.5), 2.0)),
        ("ml", ["--alpha", "0.8", "--z", "-1.5"], lambda: mittag_leffler(0.8, -1.5)),
        ("ml2", ["--alpha", "0.8", "--beta", "1.7", "--z", "-1.5"], lambda: mittag_leffler2(0.8, 1.7, -1.5)),
        ("thm1", _THM_ARGS, lambda: solve_thm1(
            KineticProblem(n0=1.5, upsilon=0.7, d=0.8, struve=_THM_STRUVE, variant=Variant.THM1), 0.6)),
        ("thm2", _THM_ARGS, lambda: solve_thm2(
            KineticProblem(n0=1.5, upsilon=0.7, d=0.8, struve=_THM_STRUVE, variant=Variant.THM2), 0.6)),
        ("thm3", _THM_ARGS + ["--a", "1.9"], lambda: solve_thm3(
            KineticProblem(n0=1.5, upsilon=0.7, d=0.8, a=1.9, struve=_THM_STRUVE, variant=Variant.THM3), 0.6)),
    ],
)
def test_eval_every_function_matches_library(capsys, name, args, value):
    code, out, err = _run(capsys, "eval", name, *args)
    assert (code, err) == (0, "")
    assert out == f"{value():.15g}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["--upsilon", "4", "--l", "-1.25", "--k", "1"],
        ["--upsilon", "1", "--l", "-2", "--k", "2", "--exponent-reading", "printed"],
    ],
)
def test_eval_gamma_pole_in_a_row_is_input_error(capsys, args):
    code, out, err = _run(capsys, "eval", "thm2", "--n0", "1", "--d", "1", "--c", "1", "--t", "0.5", *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "gamma pole" in err


def test_eval_gamma_underflow_is_input_error(capsys):
    # Gamma(-180.5) underflows to -0.0 and Gamma(-177.25) to a subnormal whose
    # reciprocal is inf: exit 2 with a message, not a traceback or a NaN
    for beta in ("-180.5", "-177.25"):
        code, out, err = _run(capsys, "eval", "ml2", "--alpha", "0.5", "--beta", beta, "--z", "0.1")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: 1/Gamma({beta}) at n = 0 exceeds the double range")


def test_eval_zero_rate_with_a_divergent_forcing_is_input_error(capsys):
    # d = 0 evaluates the THM2 forcing at S(0), which diverges for l/k < -1
    code, out, err = _run(capsys, "eval", "thm2", "--n0", "1", "--d", "0", "--upsilon", "1",
                          "--l", "-1.2", "--c", "1", "--k", "1", "--t", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "diverges" in err


def test_eval_missing_parameter(capsys):
    code, _, err = _run(capsys, "eval", "struve", "--p", "1")
    assert code == 2
    assert "missing parameter: --x" in err


def test_eval_unknown_function_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "nosuch", "--x", "1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- sweep


def _read_csv(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    header = lines[0].split(",")
    data = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    return text, header, data


def test_sweep_default_variant_csv(tmp_path, capsys):
    out_path = tmp_path / "fig.csv"
    code, out, _ = _run(
        capsys, "sweep", "--k-list", "1", "--upsilon-list", "0.5,1,1.5,2",
        "--out", str(out_path),
    )
    assert code == 0
    text, header, data = _read_csv(out_path)
    assert header == ["t", "N_k1_v0.5", "N_k1_v1", "N_k1_v1.5", "N_k1_v2"]
    assert data.shape == (101, 5)
    assert np.allclose(data[:, 0], np.linspace(0.0, 1.0, 101), rtol=1e-14, atol=1e-16)
    assert np.all(data[:, 1:] >= 0.0)
    assert out.startswith("101 rows, 5 columns, N min 0, N max ")
    # the summary's monotonicity claim must agree with the actual columns
    nondecreasing = all(np.all(np.diff(data[:, j]) >= -1e-12) for j in range(1, 5))
    assert ("all columns nondecreasing" in out) == nondecreasing


def test_sweep_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = _run(
            capsys, "sweep", "--upsilon-list", "0.5,1", "--out", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_cell_matches_eval(tmp_path, capsys):
    out_path = tmp_path / "cell.csv"
    code, _, _ = _run(
        capsys, "sweep", "--variant", "thm2", "--k-list", "2", "--upsilon-list", "0.5",
        "--t-min", "0.5", "--t-max", "1.0", "--points", "3", "--out", str(out_path),
    )
    assert code == 0
    _, header, data = _read_csv(out_path)
    assert header == ["t", "N_k2_v0.5"]
    p = KineticProblem(
        n0=1.0, upsilon=0.5, d=1.0, struve=KStruveParams(1.0, 1.0, 2.0), variant=Variant.THM2
    )
    want = float(f"{solve_thm2(p, 0.75):.15g}")
    assert data[1, 0] == 0.75
    assert data[1, 1] == want


def test_sweep_product_grid_shape(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = _run(
        capsys, "sweep", "--k-list", "1,2,3,4", "--upsilon-list", "0.1,0.2,0.3,0.4",
        "--points", "11", "--out", str(out_path),
    )
    assert code == 0
    _, header, data = _read_csv(out_path)
    assert len(header) == 17
    assert header[1] == "N_k1_v0.1"
    assert header[4] == "N_k1_v0.4"
    assert header[5] == "N_k2_v0.1"
    assert header[-1] == "N_k4_v0.4"
    assert data.shape == (11, 17)


def test_sweep_unwritable_path(tmp_path, capsys):
    code, _, err = _run(
        capsys, "sweep", "--out", str(tmp_path / "nosuchdir" / "x.csv")
    )
    assert code == 2
    assert "cannot write" in err


def test_sweep_bad_points(tmp_path, capsys):
    code, _, err = _run(
        capsys, "sweep", "--points", "1", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "points" in err


def test_sweep_infinite_t_max_is_input_error(tmp_path, capsys):
    # rejected before the grid is formed: np.linspace to inf warns, and the
    # error must name t_max rather than blame the first cell
    code, _, err = _run(capsys, "sweep", "--t-max", "inf", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "t_max must be a positive finite real, got inf" in err
    assert "cell" not in err and not (tmp_path / "x.csv").exists()


def test_sweep_bad_list(tmp_path, capsys):
    code, _, err = _run(
        capsys, "sweep", "--k-list", "1,zap", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "--k-list" in err


# ---------------------------------------------------------------- sweep output targets

_SWEEP = ("sweep", "--upsilon-list", "0.5,1", "--points", "21")


def _fresh_csv(tmp_path, capsys, *extra):
    """The bytes a sweep writes into a path that did not exist."""
    path = tmp_path / "fresh.csv"
    assert not path.exists()
    code, _, err = _run(capsys, *_SWEEP, *extra, "--out", str(path))
    assert code == 0, err
    return path.read_bytes()


def test_sweep_into_dev_null(capsys):
    # a character device cannot be truncated; the sweep must not try
    code, out, err = _run(capsys, *_SWEEP, "--out", os.devnull)
    assert code == 0, err
    assert out.startswith("21 rows, 3 columns")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
def test_sweep_into_a_fifo_sends_the_file_bytes(tmp_path, capsys):
    want = _fresh_csv(tmp_path, capsys)
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code, _, err = _run(capsys, *_SWEEP, "--out", str(fifo))
    finally:
        reader.join(timeout=30)
        if reader.is_alive():  # the sweep never opened the FIFO: release the reader
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == 0, err
    assert got == [want]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_sweep_to_dev_stdout_through_a_pipe(tmp_path, capsys):
    want = _fresh_csv(tmp_path, capsys)
    src = str(Path(frac_kinetics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "frac_kinetics", *_SWEEP, "--out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the CSV is written and closed before the summary line is printed
    assert proc.stdout[: len(want)] == want
    assert proc.stdout[len(want):].startswith(b"21 rows, 3 columns")


def test_sweep_over_a_longer_older_file_writes_the_fresh_bytes(tmp_path, capsys):
    want = _fresh_csv(tmp_path, capsys, "--points", "3")
    path = tmp_path / "old.csv"
    code, _, err = _run(capsys, *_SWEEP, "--points", "101", "--out", str(path))
    assert code == 0, err
    assert path.stat().st_size > len(want)
    code, _, err = _run(capsys, *_SWEEP, "--points", "3", "--out", str(path))
    assert code == 0, err
    assert path.read_bytes() == want


def test_sweep_writes_through_a_symlink(tmp_path, capsys):
    want = _fresh_csv(tmp_path, capsys)
    target = tmp_path / "target.csv"
    target.write_bytes(b"older data\n" * 1000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, err = _run(capsys, *_SWEEP, "--out", str(link))
    assert code == 0, err
    assert link.is_symlink()
    assert target.read_bytes() == want


def test_sweep_creates_its_file_with_the_mode_open_gives(tmp_path, capsys):
    mask = 0o027
    old = os.umask(mask)
    try:
        code, _, err = _run(capsys, *_SWEEP, "--out", str(tmp_path / "new.csv"))
        with open(tmp_path / "ref.csv", "w"):
            pass
    finally:
        os.umask(old)
    assert code == 0, err
    mode = stat.S_IMODE((tmp_path / "new.csv").stat().st_mode)
    assert mode == 0o666 & ~mask
    assert mode == stat.S_IMODE((tmp_path / "ref.csv").stat().st_mode)


# ---------------------------------------------------------------- verify


def test_verify_thm1_defaults_passes(capsys):
    code, out, _ = _run(capsys, "verify")
    assert code == 0
    assert "max defect" in out
    assert "mean defect" in out
    assert "relative defect" in out
    assert "(tolerance 0.0005)" in out


def test_verify_zero_rate_passes(capsys):
    code, out, _ = _run(capsys, "verify", "--d", "0", "--grid-n", "256")
    assert code == 0


def test_verify_printed_reading_fails_off_k1(capsys):
    code, out, _ = _run(
        capsys, "verify", "--variant", "thm2", "--k", "2", "--upsilon", "0.5",
        "--grid-n", "256", "--exponent-reading", "printed",
    )
    assert code == 1
    assert "relative defect" in out


def test_verify_consistent_reading_passes_off_k1(capsys):
    code, _, _ = _run(
        capsys, "verify", "--variant", "thm2", "--k", "2", "--upsilon", "0.5",
        "--grid-n", "256",
    )
    assert code == 0


def test_verify_thm2_at_upsilon_3_passes(capsys):
    # Gamma(upsilon e_r + 1) leaves the double range from row 36 of the default
    # budget; the solver never forms it
    code, out, _ = _run(capsys, "verify", "--variant", "thm2", "--upsilon", "3")
    assert code == 0
    assert "relative defect" in out


def test_verify_small_grid_rejected(capsys):
    code, _, err = _run(capsys, "verify", "--grid-n", "4")
    assert code == 2
    assert "--grid-n" in err


# ---------------------------------------------------------------- knob precedence


ML_ARGS = ("eval", "ml", "--alpha", "0.5", "--z", "-3")


def test_env_changes_truncation(capsys, monkeypatch):
    _, full, _ = _run(capsys, *ML_ARGS)
    monkeypatch.setenv(ENV_MAX_TERMS, "7")
    code, short, _ = _run(capsys, *ML_ARGS)
    assert code == 0
    assert short != full


def test_flag_overrides_env(capsys, monkeypatch):
    _, full, _ = _run(capsys, *ML_ARGS)
    monkeypatch.setenv(ENV_MAX_TERMS, "7")
    code, out, _ = _run(capsys, *ML_ARGS, "--max-terms", "50")
    assert code == 0
    assert out == full


def test_bad_env_value(capsys, monkeypatch):
    monkeypatch.setenv(ENV_MAX_TERMS, "many")
    code, _, err = _run(capsys, *ML_ARGS)
    assert code == 2
    assert ENV_MAX_TERMS in err


def test_config_file_sets_truncation(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_MAX_TERMS, "7")
    env_out = _run(capsys, *ML_ARGS)[1]
    monkeypatch.delenv(ENV_MAX_TERMS)
    cfg = tmp_path / "knobs.cfg"
    cfg.write_text("# truncation study\nmax_terms = 7\n", encoding="utf-8")
    code, out, _ = _run(capsys, *ML_ARGS, "--config", str(cfg))
    assert code == 0
    assert out == env_out


def test_flag_overrides_config(tmp_path, capsys):
    thm2 = ("eval", "thm2", "--n0", "1", "--d", "1", "--upsilon", "0.5",
            "--l", "1", "--c", "1", "--k", "2", "--t", "1")
    cfg = tmp_path / "knobs.cfg"
    for line, flags, args in (
        ("max_terms = 7", ("--max-terms", "50"), ML_ARGS),
        ("rel_tol = 0.5", ("--rel-tol", "1e-14"), thm2),
        ("exponent_reading = printed", ("--exponent-reading", "consistent"), thm2),
    ):
        full = _run(capsys, *args)[1]
        cfg.write_text(line + "\n", encoding="utf-8")
        assert _run(capsys, *args, "--config", str(cfg))[1] != full  # the config value takes effect
        code, out, _ = _run(capsys, *args, "--config", str(cfg), *flags)
        assert code == 0
        assert out == full


def test_config_reading_applies_to_eval(tmp_path, capsys):
    args = ("eval", "thm2", "--n0", "1", "--d", "1", "--upsilon", "0.5",
            "--l", "1", "--c", "1", "--k", "2", "--t", "1")
    consistent = _run(capsys, *args)[1]
    cfg = tmp_path / "reading.cfg"
    cfg.write_text("exponent_reading = printed\n", encoding="utf-8")
    code, printed, _ = _run(capsys, *args, "--config", str(cfg))
    assert code == 0
    assert printed != consistent
    p = KineticProblem(
        n0=1.0, upsilon=0.5, d=1.0, struve=KStruveParams(1.0, 1.0, 2.0), variant=Variant.THM2
    )
    assert printed.strip() == f"{solve_thm2(p, 1.0, reading='printed'):.15g}"


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("terms = 7\n", encoding="utf-8")
    code, _, err = _run(capsys, *ML_ARGS, "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("max_terms 7\n", encoding="utf-8")
    code, _, err = _run(capsys, *ML_ARGS, "--config", str(cfg))
    assert code == 2
    assert "key = value" in err


def test_bad_config_rel_tol(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rel_tol = tight\n", encoding="utf-8")
    code, _, err = _run(capsys, *ML_ARGS, "--config", str(cfg))
    assert code == 2
    assert "config rel_tol: 'tight' is not a number" in err


def test_bad_config_reading(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("exponent_reading = bogus\n", encoding="utf-8")
    code, _, err = _run(capsys, *ML_ARGS, "--config", str(cfg))
    assert code == 2
    assert "exponent_reading must be one of ('consistent', 'printed'), got 'bogus'" in err


def test_missing_config_file(tmp_path, capsys):
    code, _, err = _run(capsys, *ML_ARGS, "--config", str(tmp_path / "absent.cfg"))
    assert code == 2
    assert "cannot read config file" in err


def test_bad_max_terms_flag(capsys):
    code, _, err = _run(capsys, *ML_ARGS, "--max-terms", "0")
    assert code == 2
    assert "max_terms" in err


def test_env_value_reaches_default_used_elsewhere(capsys, monkeypatch):
    # the env knob also feeds sweep/verify paths through the same resolver
    monkeypatch.setenv(ENV_MAX_TERMS, "7")
    code, out, _ = _run(capsys, "eval", "ml", "--alpha", "1", "--z", "-10")
    assert code == 0
    # 7 alternating terms of exp(-10) are wildly unconverged
    assert abs(float(out)) > 1.0


# ---------------------------------------------------------------- parser reuse


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    # the argument tree is built once per process; a flag given to one call
    # must not reach the next.  A solution is cut by its stop rule alone, and
    # at t = 1 a leaked --rel-tol 1e-6 would change the printed value.
    code, _, err = _run(capsys, "sweep", "--rel-tol", "1e-6", "--out", str(tmp_path / "s.csv"))
    assert code == 0, err
    args = ("eval", "thm1", "--n0", "1", "--d", "1", "--upsilon", "0.1",
            "--l", "1", "--c", "1", "--k", "1", "--t", "1")
    code, out, err = _run(capsys, *args)
    assert code == 0, err
    p = KineticProblem(
        n0=1.0, upsilon=0.1, d=1.0, struve=KStruveParams(1.0, 1.0, 1.0), variant=Variant.THM1
    )
    assert out.strip() == f"{solve_thm1(p, 1.0):.15g}"
    assert out.strip() != f"{solve_thm1(p, 1.0, SeriesControl(rel_tol=1e-6)):.15g}"


def test_help_exits_zero_and_parser_still_works(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "frac-kinetics" in capsys.readouterr().out
    code, out, _ = _run(capsys, "eval", "ml2", "--alpha", "1", "--beta", "2", "--z", "1")
    assert code == 0
    assert out.strip() == "1.71828182845905"
