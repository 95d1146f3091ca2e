"""End-to-end command-line tests via click's CliRunner.

Exit-code contract: 0 all checks pass, 1 a numerical check failed (first
offending tuple reported), 2 usage errors.
"""

import dataclasses
import json
import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from admles import io as admio
from admles import cli, solvers
from admles.cli import main
from admles.deconvolution import DeconvOp, deconv_symbol
from admles.filters import Gaussian, Helmholtz, HelmholtzPower
from admles.solvers import (
    RandomSpectrumInit,
    SimConfig,
    SnapshotForcing,
    config_hash,
)
from admles.spectral import SpectralField, WaveLattice, random_solenoidal
from test_deconvolution import VERIFY_K2, VERIFY_OPS, eager_property_rows
from test_solvers import _doom_last_order, _doomed_cfg


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(path: Path, **kw) -> SimConfig:
    base = dict(n=8, nu=0.05, spec=Helmholtz(alpha=0.5, p=1.0),
                T=0.02, dt=0.01, N_list=(0, 1))
    base.update(kw)
    cfg = SimConfig(**base)
    path.write_text(cfg.to_json())
    return cfg


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_family(runner):
    result = runner.invoke(main, ["verify", "--ineq", "highpass_ratio"])
    assert result.exit_code == 0, result.output
    assert "ok inequality highpass_ratio" in result.output
    assert "all checks passed" in result.output


def test_verify_unknown_family_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "--ineq", "bogus"])
    assert result.exit_code == 2
    assert "--ineq" in result.output


def test_verify_single_family_csv(runner, tmp_path):
    csv_path = tmp_path / "summary.csv"
    result = runner.invoke(
        main, ["verify", "--ineq", "exp_limit", "--csv", str(csv_path)])
    assert result.exit_code == 0, result.output
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == "family,check,n_cases,min_margin,passed"
    assert lines[2].startswith("inequality,exp_limit,")
    # property rows only accompany the full run
    assert not (tmp_path / "summary_properties.csv").exists()


def test_verify_all_with_property_csv(runner, tmp_path):
    csv_path = tmp_path / "all.csv"
    result = runner.invoke(main, ["verify", "--csv", str(csv_path)])
    assert result.exit_code == 0, result.output
    for name in ("highpass_power", "highpass_power_sq", "highpass_ratio",
                 "exp_limit"):
        assert f"ok inequality {name}" in result.output
    assert "all checks passed" in result.output

    summary = csv_path.read_text().splitlines()
    families = {line.split(",")[0] for line in summary[2:]}
    assert families == {"inequality", "deconvolution", "filters"}

    props = (tmp_path / "all_properties.csv").read_text().splitlines()
    assert props[0] == summary[0]  # same parameter stamp
    assert props[1] == "property,k2,lhs,rhs,pass"
    names = {line.split(",")[0] for line in props[2:]}
    assert {"range_low", "range_high", "below_inverse"} <= names
    assert all(line.rsplit(",", 1)[1] == "True" for line in props[2:])


def test_verify_names_the_first_failing_property(runner, monkeypatch):
    real = cli.property_reports

    def one_failure(spec, orders, k2_grid):
        # order 4 of the first filter fails range_high at the 6th point
        reports = real(spec, orders, k2_grid)
        if spec != Helmholtz(alpha=0.1, p=0.75):
            return reports
        ok = reports[3].ok.copy()
        ok[1, 5] = False
        return (*reports[:3], dataclasses.replace(reports[3], ok=ok),
                *reports[4:])

    monkeypatch.setattr(cli, "property_reports", one_failure)
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 1, result.output
    k2 = float(VERIFY_K2[5])
    d = float(deconv_symbol(DeconvOp(Helmholtz(alpha=0.1, p=0.75), 4), k2))
    assert result.output.splitlines()[-1] == (
        f"FAIL deconvolution properties: alpha=0.1 p=0.75 order=4 "
        f"property=range_high k2={k2!r} lhs={d!r} rhs=5.0")


def test_verify_property_csv_matches_eager_rows(runner, tmp_path):
    csv_path = tmp_path / "all.csv"
    result = runner.invoke(main, ["verify", "--csv", str(csv_path)])
    assert result.exit_code == 0, result.output
    header, rows = admio.read_csv(tmp_path / "all_properties.csv")
    assert header == ["property", "k2", "lhs", "rhs", "pass"]
    expected = [[c.name, repr(c.k2), repr(c.lhs), repr(c.rhs),
                 str(bool(c.passed))]
                for op in VERIFY_OPS
                for c in eager_property_rows(op, VERIFY_K2)]
    assert rows == expected


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------


def test_symbols_stdout_table(runner):
    result = runner.invoke(main, ["symbols", "--points", "16", "--N", "0,2"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == "k2,G_hat,A_hat,D0_hat,D2_hat"
    assert len(lines) == 2 + 16 + 1  # zero mode + the log grid
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0 and float(first[2]) == 1.0


def test_symbols_gaussian_leaves_inverse_blank(runner):
    result = runner.invoke(
        main, ["symbols", "--filter", "gaussian", "--points", "8"])
    assert result.exit_code == 0
    for line in result.output.splitlines()[2:]:
        assert line.split(",")[2] == ""


def test_symbols_helmholtz_power(runner, tmp_path):
    out = tmp_path / "sym.csv"
    result = runner.invoke(
        main, ["symbols", "--filter", "helmholtz-power", "--mu", "0.5",
               "--m", "2", "--points", "8", "--csv", str(out)])
    assert result.exit_code == 0
    header, rows = out.read_text().splitlines()[1], \
        out.read_text().splitlines()[2:]
    assert header.startswith("k2,G_hat,A_hat")
    # G_hat * A_hat == 1 for the invertible family
    for row in rows:
        cells = row.split(",")
        assert float(cells[1]) * float(cells[2]) == pytest.approx(1.0,
                                                                  rel=1e-12)


def test_symbols_bad_orders(runner):
    result = runner.invoke(main, ["symbols", "--N", "1,-2"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["symbols", "--N", "a,b"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["symbols", "--kmax", "0"])
    assert result.exit_code == 2


def test_symbols_overflowing_helmholtz_argument_warns_nothing(runner):
    # (alpha^2 k2)^p overflows to inf at these wavenumbers; every symbol
    # then takes its limit (G = 0, A = inf, D_N = N + 1) without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, ["symbols", "--filter", "helmholtz",
                                      "--p", "4", "--alpha", "2",
                                      "--kmax", "1e60"])
    assert result.exit_code == 0, result.output
    last = result.output.splitlines()[-1].split(",")
    assert last[1:] == ["0.0", "inf", "1.0", "2.0", "3.0", "5.0"]


@pytest.mark.parametrize("option, value", [
    ("--kmax", "nan"), ("--kmax", "inf"), ("--alpha", "nan"),
])
def test_symbols_non_finite_option_is_usage_error(runner, option, value):
    result = runner.invoke(main, ["symbols", option, value])
    assert result.exit_code == 2, result.output
    assert option.lstrip("-") in result.output


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_missing_config_file(runner, tmp_path):
    result = runner.invoke(
        main, ["simulate", "--config", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


def test_simulate_rejects_malformed_config(runner, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"n": 8, "nu": 0.05, "T": 0.02,
                                    "dt": 0.01,
                                    "filter": {"kind": "helmholtz",
                                               "alpha": 0.5},
                                    "wrong_key": 1}))
    result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert "bad config" in result.output


def test_simulate_requires_some_output_dir(runner, tmp_path):
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path)
    result = runner.invoke(main, ["simulate", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert "output directory" in result.output


def test_simulate_writes_outputs(runner, tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg = write_config(cfg_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "N=0: final error" in result.output
    assert "N=1: final error" in result.output
    for name in ("config.json", "dns.csv", "series.csv"):
        assert (out / name).exists()
    stamp = f"# config={config_hash(cfg)}"
    assert (out / "series.csv").read_text().splitlines()[0] == stamp
    # the echoed config is the canonical JSON round trip
    assert SimConfig.from_json((out / "config.json").read_text()) == cfg


def test_simulate_deterministic_byte_identical(runner, tmp_path):
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        result = runner.invoke(
            main, ["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0
        outs.append(out)
    for name in ("dns.csv", "series.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    snap = "snapshots/w1_final.admf"
    assert (outs[0] / snap).read_bytes() == (outs[1] / snap).read_bytes()


def test_simulate_cfl_violation_fails(runner, tmp_path):
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, n=16, T=1.0, dt=0.5, N_list=(0,))
    result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert "CFL" in result.output


def test_simulate_worker_error_reads_as_serial(runner, tmp_path,
                                               monkeypatch):
    # a ValueError raised where a worker steps the last order exits 1 with
    # the serial run's one-line message, and no child is left over
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(_doomed_cfg().to_json())
    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    _doom_last_order(monkeypatch, 3, tmp_path / "pid",
                     ValueError("simulated bad input"))
    outputs = []
    for threads in ("1", "2"):
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(tmp_path / "out"),
                                      "--threads", threads])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        outputs.append(result.output)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("Error: simulated bad input\n")


def test_simulate_thread_env(runner, tmp_path):
    # --threads is the one thread knob: it sets how many processes step the
    # orders, not the bytes written, and must be >= 1; --deterministic,
    # rates --threads and ADM_THREADS are gone
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path)
    result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "out"),
                                  "--threads", "2"],
                           env={"ADM_THREADS": "many"})
    assert result.exit_code == 0, result.output
    one = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                               "--out", str(tmp_path / "out1")])
    assert one.exit_code == 0, one.output
    for name in ("dns.csv", "series.csv", "snapshots/w1_final.admf"):
        assert (tmp_path / "out" / name).read_bytes() == \
            (tmp_path / "out1" / name).read_bytes(), name

    for args in (["simulate", "--config", str(cfg_path),
                  "--out", str(tmp_path / "out2"), "--deterministic"],
                 ["rates", "--config", str(cfg_path),
                  "--out", str(tmp_path / "out3"), "--threads", "1"],
                 ["simulate", "--config", str(cfg_path),
                  "--out", str(tmp_path / "out4"), "--threads", "0"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args


@pytest.mark.parametrize("command", ["simulate", "rates"])
def test_non_string_output_dir_is_a_config_error(runner, tmp_path, command):
    # it used to end in a TypeError traceback from the path join
    cfg_path = tmp_path / "c.json"
    data = json.loads(write_config(cfg_path).to_json())
    cfg_path.write_text(json.dumps({**data, "output_dir": 5}))
    result = runner.invoke(main, [command, "--config", str(cfg_path)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == (f"Error: bad config {cfg_path}: 'output_dir' "
                             "must be a string, got 5\n")


@pytest.mark.parametrize("part", ["init", "forcing"])
def test_missing_snapshot_file_is_one_error_line(runner, tmp_path, part):
    cfg_path = tmp_path / "c.json"
    data = json.loads(write_config(cfg_path).to_json())
    missing = str(tmp_path / "nope.admf")
    data[part] = {"kind": "snapshot", "path": missing}
    cfg_path.write_text(json.dumps(data))
    result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")
    assert missing in lines[0]


@pytest.mark.parametrize("part", ["init", "forcing"])
def test_non_finite_snapshot_is_refused_before_stepping(runner, tmp_path,
                                                        part):
    # a NaN coefficient is named as such, not found as a blow-up at step 1
    f = random_solenoidal(WaveLattice(8), decay=1.0, seed=4)
    c = np.array(f.coeffs)
    c[0, 1, 0, 0] = np.nan
    path = tmp_path / "nan.admf"
    admio.save_field(SpectralField(f.lattice, c), path)
    cfg_path = tmp_path / "c.json"
    data = json.loads(write_config(cfg_path).to_json())
    data[part] = {"kind": "snapshot", "path": str(path)}
    cfg_path.write_text(json.dumps(data))
    result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == "Error: coefficients hold NaN or inf\n"


@pytest.mark.parametrize("args", [
    ["verify", "--ineq", "highpass_ratio"],
    ["symbols", "--points", "4"],
    ["gaussian-approx", "--m-max", "2", "--n", "8"],
])
def test_csv_into_missing_directory_names_the_path(runner, tmp_path, args):
    # the error used to be a FileNotFoundError traceback naming the hidden
    # temporary file next to the target
    target = str(tmp_path / "nodir" / "x.csv")
    result = runner.invoke(main, [*args, "--csv", target])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    last = result.output.splitlines()[-1]
    assert last == f"Error: cannot write {target}: No such file or directory"
    assert ".tmp" not in result.output


@pytest.mark.parametrize("command", ["simulate", "rates"])
@pytest.mark.parametrize("where", ["--out", "output_dir"])
def test_output_path_that_cannot_be_a_directory_fails_before_stepping(
        runner, tmp_path, monkeypatch, command, where):
    # it used to step the whole run, then end in a NotADirectoryError or
    # FileExistsError traceback
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg_path = tmp_path / "c.json"
    if where == "--out":
        target = str(afile / "sub")
        write_config(cfg_path)
        extra = ["--out", target]
    else:
        target = str(afile)
        write_config(cfg_path, output_dir=target)
        extra = []

    def step(*args, **kw):
        raise AssertionError("stepped before checking the output path")

    monkeypatch.setattr(cli, "run_experiment", step)
    result = runner.invoke(main, [command, "--config", str(cfg_path),
                                  *extra])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"Error: cannot write {target}: ")


def test_rates_unreplaceable_detail_csv_names_it(runner, tmp_path):
    # the error used to be an IsADirectoryError traceback naming the hidden
    # temporary file next to rates_detail.csv
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path)
    out = tmp_path / "out"
    (out / "rates_detail.csv").mkdir(parents=True)
    result = runner.invoke(main, ["rates", "--config", str(cfg_path),
                                  "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1] == (
        f"Error: cannot write {out / 'rates_detail.csv'}: Is a directory")
    assert ".tmp" not in result.output


def _forcing_path(tmp_path) -> str:
    f = random_solenoidal(WaveLattice(8), decay=1.0, seed=4)
    path = tmp_path / "force.admf"
    admio.save_field(SpectralField(f.lattice, 0.5 * f.coeffs), path)
    return str(path)


@pytest.mark.parametrize("case", ["taylor_green", "forced_gaussian",
                                  "helmholtz_power"])
def test_simulate_bytes_do_not_depend_on_threads(runner, tmp_path,
                                                 monkeypatch, case):
    # 1, 2 and 3 processes (the CPU count is raised to 3 so that the
    # third exists on any machine) write the same bytes everywhere
    orders = (0, 1, 2, 4, 8)
    kw = {
        "taylor_green": dict(N_list=orders, T=0.05, dt=0.005),
        "forced_gaussian": dict(
            N_list=orders, T=0.05, dt=0.005, sample_every=3,
            spec=Gaussian(alpha=0.5),
            forcing=SnapshotForcing(path=_forcing_path(tmp_path))),
        "helmholtz_power": dict(
            N_list=orders, T=0.04, dt=0.005, sample_every=2,
            spec=HelmholtzPower(mu=0.25, m=2),
            init=RandomSpectrumInit(decay=1.5, seed=7)),
    }[case]
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, **kw)
    monkeypatch.setattr(solvers, "_cpus", lambda: 3)
    out = tmp_path / "out"
    runs = []
    for threads in ("1", "2", "3"):
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                      "--out", str(out),
                                      "--threads", threads])
        assert result.exit_code == 0, result.output
        files = {p.relative_to(out): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(files) == 3 + len(orders) + 2
        runs.append((result.stdout, result.stderr, files))
        shutil.rmtree(out)
    assert "[adm N=8]" in runs[0][1]
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def test_rates_full_flow(runner, tmp_path):
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, n=16, T=0.05, dt=0.005, N_list=(0, 1, 2, 4))
    out = tmp_path / "out"
    result = runner.invoke(main, ["rates", "--config", str(cfg_path),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "ok N=0" in result.output
    assert "fitted rate beta=" in result.output

    detail = (out / "rates_detail.csv").read_text().splitlines()
    assert detail[1] == ("N,t,eps_l2,eps_hs,grad_integral,energy_lhs,"
                         "tau_l2,half_norm,bound_fin,bound_tau")
    summary = (out / "rates_summary.csv").read_text().splitlines()
    assert summary[1].startswith("N,eps_l2_final,energy_lhs_max,"
                                 "bound_main_log10")
    data = [line.split(",") for line in summary[2:]]
    assert [row[0] for row in data] == ["0", "1", "2", "4"]
    assert all(row[6] == "True" for row in data)  # passed column
    beta = float(data[0][7])
    assert np.isfinite(beta) and beta > 0.0

    # second invocation reuses the stored series (fast path) and agrees
    again = runner.invoke(main, ["rates", "--config", str(cfg_path),
                                 "--out", str(out)])
    assert again.exit_code == 0
    assert (out / "rates_summary.csv").read_text().splitlines() == summary


def test_rates_rejects_mismatched_outputs(runner, tmp_path):
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, n=16, T=0.05, dt=0.005, N_list=(0, 1, 2, 4))
    out = tmp_path / "out"
    assert runner.invoke(main, ["rates", "--config", str(cfg_path),
                                "--out", str(out)]).exit_code == 0
    other = tmp_path / "other.json"
    write_config(other, n=16, nu=0.06, T=0.05, dt=0.005, N_list=(0, 1, 2, 4))
    result = runner.invoke(main, ["rates", "--config", str(other),
                                  "--out", str(out)])
    assert result.exit_code == 1
    assert "different config" in result.output


@pytest.mark.parametrize("name", ["dns.csv", "series.csv"])
def test_rates_rejects_stale_csv_stamp(runner, tmp_path, name):
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, n=16, T=0.05, dt=0.005, N_list=(0, 1, 2, 4))
    out = tmp_path / "out"
    assert runner.invoke(main, ["simulate", "--config", str(cfg_path),
                                "--out", str(out)]).exit_code == 0
    path = out / name
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = "# config=" + "0" * 64 + "\n"
    path.write_text("".join(lines))
    result = runner.invoke(main, ["rates", "--config", str(cfg_path),
                                  "--out", str(out)])
    assert result.exit_code == 1
    assert f"{name}: stamped config" in result.output


@pytest.fixture(scope="module")
def stamped(tmp_path_factory):
    """A config and the output directory simulate writes for it."""
    root = tmp_path_factory.mktemp("stamped")
    cfg_path = root / "c.json"
    write_config(cfg_path, n=16, T=0.05, dt=0.005, N_list=(0, 1, 2, 4))
    out = root / "out"
    result = CliRunner().invoke(main, ["simulate", "--config", str(cfg_path),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    return cfg_path, out


def _edited_copy(tmp_path, stamped, edit) -> Path:
    """A copy of the stamped output directory, changed by edit(dir)."""
    out = tmp_path / "out"
    shutil.copytree(stamped[1], out)
    edit(out)
    return out


def _rates(runner, stamped, out, *extra):
    return runner.invoke(main, ["rates", "--config", str(stamped[0]),
                                "--out", str(out), *extra])


def _edit_lines(path: Path, edit) -> None:
    """Rewrite path as edit(its lines, line ends kept)."""
    path.write_text("".join(edit(path.read_text().splitlines(True))))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_rates_refuses_non_finite_constant(runner, tmp_path, stamped, value):
    out = _edited_copy(tmp_path, stamped, lambda out: None)
    result = _rates(runner, stamped, out, "--constant", value)
    assert result.exit_code == 1, result.output
    assert f"finite and positive: {value}" in result.output
    assert "ok N=" not in result.output


def test_rates_refuses_series_missing_a_sample(runner, tmp_path, stamped):
    # without its t = 0.005 row, N = 2's later samples would be paired
    # with the reference's u_h1 one sample early
    out = _edited_copy(tmp_path, stamped, lambda out: _edit_lines(
        out / "series.csv",
        lambda lines: [x for x in lines if not x.startswith("2,0.005,")]))
    result = _rates(runner, stamped, out)
    assert result.exit_code == 1, result.output
    assert "N=2 is sampled" in result.output


@pytest.mark.parametrize("edit,message", [
    (lambda lines: [x for x in lines if not x.startswith("2,")],
     "no rows for order N=2"),
    (lambda lines: ["3" + x[1:] if x.startswith("4,") else x
                    for x in lines],
     "rows for order N=3, which is not in N_list"),
], ids=["order_without_rows", "rows_of_other_order"])
def test_read_outputs_matches_series_orders_to_n_list(tmp_path, stamped,
                                                      edit, message):
    out = _edited_copy(tmp_path, stamped,
                       lambda out: _edit_lines(out / "series.csv", edit))
    with pytest.raises(admio.SnapshotFormatError,
                       match=f"series.csv: {message}"):
        solvers.read_outputs(out)


def _rename_half_norm(out):
    _edit_lines(out / "series.csv",
                lambda lines: [lines[0], lines[1].replace("half_norm", "x"),
                               *lines[2:]])


@pytest.mark.parametrize("name,edit,message", [
    ("series.csv", _rename_half_norm, "missing column 'half_norm'"),
    ("dns.csv", lambda out: _edit_lines(
        out / "dns.csv", lambda lines: [*lines[:-1],
                                        lines[-1].rsplit(",", 1)[0]]),
     "has 3 fields, the header 4"),
    ("dns.csv", lambda out: _edit_lines(out / "dns.csv", lambda l: l[:1]),
     "no header line"),
    ("dns.csv", lambda out: (out / "dns.csv").unlink(), "No such file"),
], ids=["missing_column", "short_row", "stamp_only", "deleted"])
def test_rates_refuses_malformed_csv(runner, tmp_path, stamped, name, edit,
                                     message):
    # a stamped file that is not a well-formed table is a one-line error
    # naming the file, not a traceback
    out = _edited_copy(tmp_path, stamped, edit)
    result = _rates(runner, stamped, out)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert name in result.output and message in result.output


def _replace_cell(path: Path, lineno: int, column: str, text: str) -> None:
    """Set the cell of column on file line lineno (1-based) to text."""
    def edit(lines):
        header = lines[1].rstrip("\n").split(",")
        cells = lines[lineno - 1].rstrip("\n").split(",")
        cells[header.index(column)] = text
        return [*lines[:lineno - 1], ",".join(cells) + "\n", *lines[lineno:]]
    _edit_lines(path, edit)


@pytest.mark.parametrize("name", ["series.csv", "dns.csv"])
def test_rates_names_the_cell_that_is_not_a_number(runner, tmp_path,
                                                   stamped, name):
    out = _edited_copy(tmp_path, stamped,
                       lambda out: _replace_cell(out / name, 6, "t", "abc"))
    message = f"{name}: line 6, column 't': 'abc' is not a number"
    with pytest.raises(admio.SnapshotFormatError, match=message):
        solvers.read_outputs(out)
    result = _rates(runner, stamped, out)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert message in result.output


# ---------------------------------------------------------------------------
# gaussian-approx
# ---------------------------------------------------------------------------


def test_gaussian_approx_table(runner, tmp_path):
    out = tmp_path / "ga.csv"
    result = runner.invoke(main, ["gaussian-approx", "--m-max", "8",
                                  "--csv", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "m,sup_error,bound,passed"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 8
    for row in rows:
        m, err, bound = int(row[0]), float(row[1]), float(row[2])
        assert bound == pytest.approx(2.0 / m)
        assert err <= bound
        assert row[3] == "True"


def test_gaussian_approx_usage_errors(runner):
    assert runner.invoke(main, ["gaussian-approx", "--alpha", "0"]).exit_code == 2
    assert runner.invoke(main, ["gaussian-approx", "--m-max", "0"]).exit_code == 2
    assert runner.invoke(main, ["gaussian-approx", "--n", "7"]).exit_code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_gaussian_approx_non_finite_alpha_is_usage_error(runner, value):
    result = runner.invoke(main, ["gaussian-approx", "--alpha", value])
    assert result.exit_code == 2, result.output
    assert "--alpha" in result.output


def test_help_runs(runner):
    assert runner.invoke(main, ["--help"]).exit_code == 0
    for cmd in ("verify", "symbols", "simulate", "rates", "gaussian-approx"):
        result = runner.invoke(main, [cmd, "--help"])
        assert result.exit_code == 0, cmd
