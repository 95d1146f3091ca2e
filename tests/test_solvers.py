"""Time stepper and experiment-driver tests.

The one-step oracle in tests/oracles.py restates the integrating-factor
SSP-RK3 update with its own FFTs and masks; agreement there pins the whole
pipeline (transform conventions, dealiasing, projection, symbol placement).
"""

import dataclasses
import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from admles import io as admio
from admles import filters, solvers
from admles.deconvolution import DeconvOp, deconv_symbol
from admles.diagnostics import half_norm_defect
from admles.filters import (
    Gaussian,
    GaussianApprox,
    Helmholtz,
    HelmholtzPower,
    filter_symbol,
    inverse_symbol,
)
from admles.solvers import (
    BlowUpError,
    CflError,
    RandomSpectrumInit,
    SimConfig,
    SnapshotForcing,
    SnapshotInit,
    SolverState,
    TaylorGreenInit,
    adm_step,
    check_cfl,
    config_hash,
    dns_step,
    energy_weight,
    initial_field,
    read_outputs,
    run_experiment,
    write_outputs,
    _SERIES,
    _Stepper,
)
from admles.spectral import (
    SpectralField,
    WaveLattice,
    _COERCE,
    _Workspace,
    _kept,
    random_solenoidal,
    sobolev_norm,
    taylor_green,
    to_physical,
    truncate_field,
    zero_field,
)
from test_spectral import single_mode

H = Helmholtz(alpha=0.5, p=1.0)


def small_cfg(**kw):
    base = dict(n=16, nu=0.05, spec=H, T=0.02, dt=0.01, N_list=(0, 1))
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="^'nu' must be > 0"):
        small_cfg(nu=0.0)
    with pytest.raises(ValueError, match="^'T' must be > 0"):
        small_cfg(T=-1.0)
    with pytest.raises(ValueError):
        small_cfg(dt=0.0)
    with pytest.raises(ValueError):
        small_cfg(dt=0.5)  # dt > T
    with pytest.raises(ValueError, match="N_list"):
        small_cfg(N_list=())
    with pytest.raises(ValueError, match="N_list"):
        small_cfg(N_list=(0, -1))
    with pytest.raises(ValueError, match="sample_every"):
        small_cfg(sample_every=0)
    with pytest.raises(ValueError, match="grid size"):
        small_cfg(n=9)


@pytest.mark.parametrize(
    "spec",
    [Helmholtz(alpha=0.5, p=1.5), Gaussian(alpha=1.0),
     GaussianApprox(alpha=1.0, m=4), HelmholtzPower(mu=0.25, m=2)],
)
@pytest.mark.parametrize(
    "init",
    [TaylorGreenInit(amplitude=0.7), RandomSpectrumInit(decay=2.0, seed=5),
     SnapshotInit(path="/tmp/x.admf")],
)
def test_config_json_roundtrip(spec, init):
    cfg = small_cfg(spec=spec, init=init,
                    forcing=SnapshotForcing(path="/tmp/f.admf"),
                    output_dir="out", sample_every=3)
    back = SimConfig.from_json(cfg.to_json())
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


# Floats that are sometimes integral (1.0, 2.0, ...), which JSON writes as
# "1.0" and must read back as the same float.
def _floats(lo, hi):
    return st.one_of(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
        st.integers(int(np.ceil(lo)), int(hi)).map(float))


_SPECS = st.one_of(
    st.builds(Helmholtz, alpha=_floats(0.0, 4.0), p=_floats(0.75, 4.0)),
    st.builds(Gaussian, alpha=_floats(0.01, 4.0)),
    st.builds(GaussianApprox, alpha=_floats(0.01, 4.0),
              m=st.integers(1, 64)),
    st.builds(HelmholtzPower, mu=_floats(0.01, 4.0), m=st.integers(1, 8)),
)
_INITS = st.one_of(
    st.builds(TaylorGreenInit, amplitude=_floats(-4.0, 4.0)),
    st.builds(RandomSpectrumInit, decay=_floats(0.0, 4.0),
              seed=st.integers(0, 2 ** 32)),
    st.builds(SnapshotInit, path=st.text(min_size=1, max_size=12)),
)


@settings(max_examples=100, deadline=None)
@given(spec=_SPECS, init=_INITS,
       N_list=st.lists(st.integers(0, 64), min_size=1, max_size=6,
                       unique=True),
       sample_every=st.integers(1, 1000), n=st.integers(2, 32),
       nu=_floats(1e-6, 10.0), T=_floats(1e-3, 100.0),
       dt_frac=_floats(1e-6, 1.0), L=_floats(1e-3, 100.0))
def test_config_json_roundtrip_property(spec, init, N_list, sample_every, n,
                                        nu, T, dt_frac, L):
    cfg = SimConfig(n=2 * n, nu=nu, spec=spec, T=T, dt=dt_frac * T,
                    N_list=tuple(N_list), L=L, init=init,
                    sample_every=sample_every)
    back = SimConfig.from_json(cfg.to_json())
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)
    # integer fields written as integral floats read back the same
    data = cfg.to_dict()
    data["n"] = float(data["n"])
    data["sample_every"] = float(data["sample_every"])
    data["N_list"] = [float(N) for N in data["N_list"]]
    for part in ("filter", "init"):
        for key in ("m", "seed"):
            if key in data[part]:
                data[part][key] = float(data[part][key])
    assert SimConfig.from_dict(data) == cfg


def test_config_defaults_and_hash_sensitivity():
    minimal = {"n": 16, "nu": 0.1, "T": 0.1, "dt": 0.05,
               "filter": {"kind": "helmholtz", "alpha": 1.0}}
    cfg = SimConfig.from_dict(minimal)
    assert cfg.N_list == (0,)
    assert cfg.init == TaylorGreenInit()
    assert cfg.sample_every == 1
    assert cfg.L == pytest.approx(2.0 * np.pi)
    other = SimConfig.from_dict({**minimal, "nu": 0.2})
    assert config_hash(other) != config_hash(cfg)
    # integer-valued JSON numbers are coerced to the field types
    for typed, loose in [
        ({"filter": {"kind": "helmholtz", "alpha": 1.0}},
         {"filter": {"kind": "helmholtz", "alpha": 1}}),
        ({"filter": {"kind": "gaussian_approx", "alpha": 1.0, "m": 4}},
         {"filter": {"kind": "gaussian_approx", "alpha": 1, "m": 4.0}}),
        ({"init": {"kind": "random_spectrum", "decay": 2.0, "seed": 5}},
         {"init": {"kind": "random_spectrum", "decay": 2, "seed": 5.0}}),
    ]:
        assert config_hash(SimConfig.from_dict({**minimal, **loose})) \
            == config_hash(SimConfig.from_dict({**minimal, **typed}))


def _built_in_python(data: dict) -> SimConfig:
    """The SimConfig constructor called on a config dict: each kind entry
    built by its class, the other entries passed as they are."""
    kw = {"spec" if key == "filter" else key: value
          for key, value in data.items()}
    for key, kinds in (("spec", solvers._FILTER_KINDS),
                       ("init", solvers._INIT_KINDS)):
        if key in kw:
            entry = dict(kw[key])
            kw[key] = kinds[entry.pop("kind")](**entry)
    return SimConfig(**kw)


_MINIMAL = {"n": 16, "nu": 0.1, "T": 0.1, "dt": 0.05,
            "filter": {"kind": "helmholtz", "alpha": 1.0}}
# Valid values of each kind's fields.
_VALID = {
    Helmholtz: {"alpha": 0.5, "p": 1.0},
    Gaussian: {"alpha": 0.5},
    GaussianApprox: {"alpha": 1.0, "m": 4},
    HelmholtzPower: {"mu": 0.25, "m": 2},
    TaylorGreenInit: {"amplitude": 1.0},
    RandomSpectrumInit: {"decay": 2.0, "seed": 5},
    SnapshotInit: {"path": "x.admf"},
    SnapshotForcing: {"path": "f.admf"},
}
# Values of the wrong type per field annotation; 10**400 is beyond the
# float range.
_BAD = {"float": ["x", 10 ** 400], "int": [1.5, 10 ** 400], "str": [5],
        "Optional[str]": [5], "tuple": [4]}


def _input_dataclasses():
    """(class, valid field values, the Python constructor on such values,
    the config dict holding them) of every input dataclass: the config,
    the lattice and every kind."""
    yield SimConfig, _MINIMAL, _built_in_python, dict
    yield (WaveLattice, {"n": 16, "L": 1.0}, lambda d: WaveLattice(**d),
           lambda d: {**_MINIMAL, **d})
    for part, kinds in (("filter", solvers._FILTER_KINDS),
                        ("init", solvers._INIT_KINDS),
                        ("forcing", solvers._FORCING_KINDS)):
        for kind, cls in kinds.items():
            yield (cls, _VALID[cls], lambda d, cls=cls: cls(**d),
                   lambda d, part=part, kind=kind:
                   {**_MINIMAL, part: {"kind": kind, **d}})


_INPUTS = list(_input_dataclasses())


@pytest.mark.parametrize("cls,good,build,config", _INPUTS,
                         ids=[case[0].__name__ for case in _INPUTS])
def test_every_input_field_is_checked_once(cls, good, build, config):
    # every field is a kind or has a checker, so a new field cannot skip
    # the check, and a bad value (of the wrong type, or outside the
    # field's declared domain) gets one message from Python and from JSON
    build(good)
    SimConfig.from_dict(config(good))
    for f in dataclasses.fields(cls):
        if "kinds" in f.metadata:
            continue
        assert f.type in _COERCE, f.name
        bounds = [f.metadata[k] for k in ("min", "above") if k in f.metadata]
        for bad in _BAD[f.type] + [lo - 1 for lo in bounds]:
            data = {**good, f.name: bad}
            with pytest.raises(ValueError) as built:
                build(data)
            with pytest.raises(ValueError) as loaded:
                SimConfig.from_dict(config(data))
            assert str(built.value) == str(loaded.value)
            assert str(built.value).startswith(f"'{f.name}' must be ")


def test_config_hash_of_known_configs_is_pinned():
    # every CSV's "# config=" stamp is this hash: README's example config
    # and the benchmark's tg16 and rs32 (seed 0) configs keep their digests
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"```json\n(\{\n  \"n\".*?\n\})\n```", readme,
                        re.S).group(1)
    shared = dict(nu=0.05, spec=Helmholtz(alpha=0.5, p=1.0))
    tg16 = SimConfig(n=16, T=1.0, dt=0.005, N_list=(0, 1, 2, 4, 8),
                     sample_every=1, **shared)
    rs32 = SimConfig(n=32, T=0.08, dt=0.01, N_list=(0, 4), sample_every=4,
                     init=RandomSpectrumInit(decay=2.5, seed=0), **shared)
    assert [config_hash(SimConfig.from_json(example)), config_hash(tg16),
            config_hash(rs32)] == [
        "d78b385ee33481118631e0abe042d90f21863134d4bcfa0801251ec9e68df361",
        "c981fab492987e3ec203196831ce9b2811ca998250cdbc4896c8b10d05251277",
        "9badab16142a503d8177a0ba4b0e93693c54d774bc6010da2fa4d9eec608419a",
    ]


@pytest.mark.parametrize("key,patch", [
    ("m", {"filter": {"kind": "gaussian_approx", "alpha": 1.0, "m": 4.5}}),
    ("seed", {"init": {"kind": "random_spectrum", "decay": 2.0,
                       "seed": 2.9}}),
    ("N_list", {"N_list": [0, 1.7]}),
    ("n", {"n": 16.5}),
    ("sample_every", {"sample_every": 2.5}),
])
def test_config_rejects_non_integral_numbers(key, patch):
    # int() would truncate these to a different, plausible experiment
    minimal = {"n": 16, "nu": 0.1, "T": 0.1, "dt": 0.05,
               "filter": {"kind": "helmholtz", "alpha": 1.0}}
    data = {**minimal, **patch}
    for build in (SimConfig.from_dict, _built_in_python):
        with pytest.raises(ValueError, match=f"^'{key}' must be an integer"):
            build(data)


@pytest.mark.parametrize("key,patch", [
    ("N_list", {"N_list": "16"}),
    ("N_list", {"N_list": 4}),
    ("N_list", {"N_list": [0, "1"]}),
    ("N_list", {"N_list": [True]}),
    ("n", {"n": "16"}),
    ("n", {"n": None}),
    ("sample_every", {"sample_every": True}),
    ("sample_every", {"sample_every": "2"}),
    ("m", {"filter": {"kind": "gaussian_approx", "alpha": 1.0,
                      "m": "4"}}),
    ("seed", {"init": {"kind": "random_spectrum", "decay": 2.0,
                       "seed": False}}),
])
def test_config_rejects_strings_booleans_and_non_arrays(key, patch):
    # "N_list": "16" used to run the orders (1, 6) and "sample_every":
    # true the cadence 1; "N_list": 4 failed with a TypeError that did
    # not name the key
    minimal = {"n": 16, "nu": 0.1, "T": 0.1, "dt": 0.05,
               "filter": {"kind": "helmholtz", "alpha": 1.0}}
    with pytest.raises(ValueError, match=f"'{key}' must be"):
        SimConfig.from_dict({**minimal, **patch})


@pytest.mark.parametrize("key,patch", [
    ("nu", {"nu": "0.05"}),
    ("nu", {"nu": True}),
    ("T", {"T": "0.1"}),
    ("L", {"L": "inf"}),
    ("alpha", {"filter": {"kind": "helmholtz", "alpha": "0.5", "p": True}}),
    ("p", {"filter": {"kind": "helmholtz", "alpha": 0.5, "p": True}}),
    ("dt", {"dt": float("nan")}),
    ("dt", {"dt": 10 ** 400}),
    ("L", {"L": float("inf")}),
    ("decay", {"init": {"kind": "random_spectrum", "decay": -np.inf,
                        "seed": 5}}),
])
def test_config_rejects_non_numbers_and_non_finite_floats(key, patch):
    # float() used to accept these: "nu": true ran at nu = 1 and "L": "inf"
    # built a lattice with an infinite dx; in Python, SimConfig(L=True) ran
    # at L = 1 and nu=inf ended in a BlowUpError
    minimal = {"n": 16, "nu": 0.1, "T": 0.1, "dt": 0.05,
               "filter": {"kind": "helmholtz", "alpha": 1.0}}
    data = {**minimal, **patch}
    for build in (SimConfig.from_dict, _built_in_python):
        with pytest.raises(ValueError,
                           match=f"^'{key}' must be a finite number"):
            build(data)


def test_config_accepts_numpy_floats_and_integers_as_floats():
    cfg = SimConfig.from_dict({
        "n": 16, "nu": np.float32(0.5), "T": np.int64(1), "dt": 0.25,
        "L": np.float64(3.0),
        "filter": {"kind": "helmholtz", "alpha": np.int8(1), "p": 2}})
    assert cfg == SimConfig.from_dict({
        "n": 16, "nu": 0.5, "T": 1.0, "dt": 0.25, "L": 3.0,
        "filter": {"kind": "helmholtz", "alpha": 1.0, "p": 2.0}})
    assert all(type(v) is float for v in (cfg.nu, cfg.T, cfg.L,
                                          cfg.spec.alpha, cfg.spec.p))


def test_config_accepts_numpy_integers():
    cfg = SimConfig.from_dict({
        "n": np.int64(16), "nu": 0.1, "T": 0.1, "dt": 0.05,
        "filter": {"kind": "gaussian_approx", "alpha": 1.0,
                   "m": np.int32(4)},
        "N_list": [np.int64(0), np.uint8(2)], "sample_every": np.int16(2)})
    assert cfg == SimConfig.from_dict({
        "n": 16, "nu": 0.1, "T": 0.1, "dt": 0.05,
        "filter": {"kind": "gaussian_approx", "alpha": 1.0, "m": 4},
        "N_list": [0, 2], "sample_every": 2})
    assert all(type(N) is int for N in cfg.N_list)


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        SimConfig.from_dict({"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5,
                             "filter": {"kind": "helmholtz", "alpha": 1.0},
                             "bogus": 1})
    with pytest.raises(ValueError, match="missing required key"):
        SimConfig.from_dict({"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5})
    with pytest.raises(ValueError, match="unknown filter kind"):
        SimConfig.from_dict({"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5,
                             "filter": {"kind": "boxcar", "alpha": 1.0}})
    with pytest.raises(ValueError, match="unknown initial condition"):
        SimConfig.from_dict({"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5,
                             "filter": {"kind": "helmholtz", "alpha": 1.0},
                             "init": {"kind": "vortex"}})


@pytest.mark.parametrize("part,entry,key", [
    ("forcing", {"kind": "bogus", "path": "f.admf"}, "bogus"),
    ("forcing", {"path": "f.admf"}, "kind"),
    ("forcing", {"kind": "snapshot", "path": "f.admf", "scale": 2.0},
     "scale"),
    ("forcing", {"kind": "snapshot"}, "path"),
    ("filter", {"alpha": 0.5}, "kind"),
    ("filter", {"kind": "helmholtz", "alpha": 0.5, "pp": 2.0}, "pp"),
    ("filter", {"kind": "gaussian", "alpha": 0.5, "p": 2.0}, "p"),
    ("init", {"kind": "taylor_green", "amplitude": 1.0, "seed": 3}, "seed"),
    ("filter", {"kind": ["helmholtz"], "alpha": 0.5}, "helmholtz"),
])
def test_config_rejects_bad_spec_entries(part, entry, key):
    # an unknown or missing kind or an unknown field would otherwise run a
    # plausible experiment other than the one written down; an unhashable
    # kind used to end in "TypeError: unhashable type", naming neither the
    # key nor the kind
    data = {"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5,
            "filter": {"kind": "helmholtz", "alpha": 1.0}, part: entry}
    with pytest.raises(ValueError, match=f"'{key}'"):
        SimConfig.from_dict(data)


@pytest.mark.parametrize("part,entry,type_name", [
    ("init", None, "NoneType"),
    ("forcing", "kind", "str"),
    ("filter", "helmholtz", "str"),
    ("init", ["taylor_green"], "list"),
])
def test_config_rejects_non_object_entries(part, entry, type_name):
    # the kind table reads an entry as a JSON object; anything else used to
    # fail on the lookup with a TypeError that named neither key nor type
    data = {"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5,
            "filter": {"kind": "helmholtz", "alpha": 1.0}, part: entry}
    with pytest.raises(ValueError,
                       match=f"'{part}' must be a JSON object, got "
                             f"{type_name}"):
        SimConfig.from_dict(data)


@pytest.mark.parametrize("text,type_name", [
    ("3", "int"), ("[]", "list"), ("null", "NoneType"), ('"n"', "str"),
])
def test_config_rejects_non_object_files(text, type_name):
    # a config file holding 3 used to fail with "'int' object is not
    # iterable"
    with pytest.raises(ValueError, match=f"^config must be a JSON object, "
                                         f"got {type_name}$"):
        SimConfig.from_json(text)


@pytest.mark.parametrize("key,patch", [
    ("output_dir", {"output_dir": 5}),
    ("output_dir", {"output_dir": ["out"]}),
    ("path", {"init": {"kind": "snapshot", "path": 5}}),
    ("path", {"init": {"kind": "snapshot", "path": None}}),
    ("path", {"forcing": {"kind": "snapshot", "path": 5.0}}),
    ("path", {"forcing": {"kind": "snapshot", "path": True}}),
])
def test_config_rejects_non_string_paths(key, patch):
    # a number used to become the path "5", or to fail later with a
    # TypeError that named no key
    data = {"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5,
            "filter": {"kind": "helmholtz", "alpha": 1.0}, **patch}
    with pytest.raises(ValueError, match=f"'{key}' must be a string"):
        SimConfig.from_dict(data)


def test_forcing_round_trips_through_the_kind_table():
    cfg = small_cfg(forcing=SnapshotForcing(path="f.admf"))
    assert cfg.to_dict()["forcing"] == {"kind": "snapshot", "path": "f.admf"}
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


def test_energy_weight():
    assert energy_weight(Helmholtz(alpha=0.5, p=2.0)) == (0.5 ** 4, 2.0)
    assert energy_weight(HelmholtzPower(mu=0.5, m=3)) == (0.5 ** 6, 3.0)
    w, s = energy_weight(GaussianApprox(alpha=6.0, m=6))
    assert (w, s) == pytest.approx((0.5 ** 12, 6.0))
    assert energy_weight(Gaussian(alpha=2.0)) == (4.0 / 24.0, 1.0)


def test_steps_must_divide_horizon():
    with pytest.raises(ValueError, match="integer number of steps"):
        run_experiment(small_cfg(T=0.05, dt=0.02), progress=False)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def test_zero_state_is_fixed_point():
    lat = WaveLattice(8)
    cfg = small_cfg(n=8)
    st = SolverState(field=zero_field(lat))
    for _ in range(3):
        st = dns_step(st, cfg)
    assert float(np.max(np.abs(st.field.coeffs))) == 0.0
    st = SolverState(field=zero_field(lat))
    st = adm_step(st, cfg, 2)
    assert float(np.max(np.abs(st.field.coeffs))) == 0.0


def test_stokes_single_mode_decay():
    # at amplitude 1e-8 the quadratic term cannot reach the excited mode
    # above roundoff, so the integrating factor must reproduce the exact
    # heat decay of that coefficient
    lat = WaveLattice(8)
    nu, dt, steps = 0.1, 0.01, 5
    cfg = small_cfg(n=8, nu=nu, dt=dt, T=dt * steps)
    f = single_mode(lat, (1, 0, 0), (0.0, 1e-8, 0.0))
    st = SolverState(field=f)
    for _ in range(steps):
        st = dns_step(st, cfg)
    got = st.field.coeffs[1, 1, 0, 0]
    want = 1e-8 * np.exp(-nu * 1.0 * dt * steps)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_taylor_green_energy_decays():
    lat = WaveLattice(16)
    cfg = small_cfg(nu=0.1, dt=0.01, T=0.1)
    st = SolverState(field=taylor_green(lat))
    prev = sobolev_norm(st.field, 0.0)
    for _ in range(10):
        st = dns_step(st, cfg)
        cur = sobolev_norm(st.field, 0.0)
        assert cur <= prev
        prev = cur


def test_run_experiment_evaluates_g_once(monkeypatch):
    # every D_N is formed from the run's G; evaluating each D_N through
    # deconv_symbol evaluated G again, K + 1 times for K orders
    calls = []
    row = filters._FAMILIES[Helmholtz]

    def symbol(spec, k2):
        calls.append(k2.shape)
        return row.symbol(spec, k2)

    monkeypatch.setitem(filters._FAMILIES, Helmholtz,
                        row._replace(symbol=symbol))
    cfg = SimConfig(n=8, nu=0.05, spec=Helmholtz(alpha=0.5, p=1.0),
                    T=0.02, dt=0.01, N_list=(0, 1, 2, 4))
    run_experiment(cfg, progress=False)
    assert len(calls) == 1


@pytest.mark.parametrize("N", [1.5, True, -1])
def test_adm_step_refuses_a_bad_order(N):
    cfg = SimConfig(n=8, nu=0.05, spec=Helmholtz(alpha=0.5, p=1.0),
                    T=0.02, dt=0.01)
    u0 = initial_field(cfg, WaveLattice(8))
    with pytest.raises(ValueError, match="^order must be >= 0 and an integer"):
        adm_step(SolverState(field=u0), cfg, N)


def test_adm_step_matches_textbook_oracle():
    lat = WaveLattice(16)
    nu, dt = 0.05, 0.01
    cfg = small_cfg(nu=nu, dt=dt, T=dt)
    ksq = lat.k_squared
    post = np.asarray(filter_symbol(H, ksq))
    pre = np.asarray(deconv_symbol(DeconvOp(H, 3), ksq))
    w0 = SpectralField(lat, post * taylor_green(lat).coeffs,
                       divergence_free=True)
    got = adm_step(SolverState(field=w0), cfg, 3).field.coeffs
    want = oracles.one_step(w0.coeffs, lat, nu, dt, pre=pre, post=post)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


def test_dns_step_matches_textbook_oracle():
    lat = WaveLattice(16)
    nu, dt = 0.08, 0.005
    cfg = small_cfg(nu=nu, dt=dt, T=dt)
    u0 = random_solenoidal(lat, decay=2.0, seed=3)
    got = dns_step(SolverState(field=u0), cfg).field.coeffs
    want = oracles.one_step(u0.coeffs, lat, nu, dt)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


def test_identity_filter_reduces_adm_to_dns():
    # alpha = 0 makes both symbols exactly 1, so the two steppers must
    # agree bit for bit
    lat = WaveLattice(16)
    cfg = small_cfg(spec=Helmholtz(alpha=0.0, p=1.0))
    u0 = taylor_green(lat)
    a = dns_step(SolverState(field=u0), cfg).field.coeffs
    b = adm_step(SolverState(field=u0), cfg, 0).field.coeffs
    assert np.array_equal(a, b)


@pytest.mark.parametrize("order", [None, 0, 3])
def test_step_projects_onto_keep_set(order):
    # an untruncated field steps exactly like its truncation: the modes
    # outside the 2/3-rule keep set are dropped, not advanced
    lat = WaveLattice(16)
    cfg = small_cfg()
    u = random_solenoidal(lat, decay=0.5, seed=8, truncate=False)
    assert not np.array_equal(truncate_field(u).coeffs, u.coeffs)

    def step(f):
        state = SolverState(field=f)
        out = dns_step(state, cfg) if order is None else adm_step(
            state, cfg, order)
        return out.field.coeffs

    assert np.array_equal(step(u), step(truncate_field(u)))


@pytest.mark.parametrize("forced", [False, True])
def test_steps_reproduce_experiment_final_fields(tmp_path, forced):
    # dns_step, adm_step and run_experiment assemble their steppers through
    # one builder: k single steps from the (filtered) initial state give the
    # lockstep run's final fields bit for bit
    lat = WaveLattice(8)
    forcing = (SnapshotForcing(path=_forcing_file(tmp_path, lat, 1.0))
               if forced else None)
    cfg = small_cfg(n=8, T=0.03, dt=0.01, N_list=(0, 2), forcing=forcing,
                    init=RandomSpectrumInit(decay=1.5, seed=2))
    out = run_experiment(cfg, progress=False)
    u0 = initial_field(cfg, lat)
    g = np.asarray(filter_symbol(cfg.spec, lat.k_squared))
    u = SolverState(field=u0)
    ws = {N: SolverState(field=SpectralField(lat, g * u0.coeffs))
          for N in cfg.N_list}
    for _ in range(3):
        u = dns_step(u, cfg)
        ws = {N: adm_step(w, cfg, N) for N, w in ws.items()}
    assert np.array_equal(u.field.coeffs, out.u_final.coeffs)
    for run in out.runs:
        assert np.array_equal(ws[run.N].field.coeffs,
                              run.final_field.coeffs)


def test_step_bookkeeping():
    lat = WaveLattice(8)
    cfg = small_cfg(n=8)
    st = SolverState(field=taylor_green(lat))
    st = dns_step(st, cfg)
    st = dns_step(st, cfg)
    assert st.step_index == 2
    assert st.t == pytest.approx(2 * cfg.dt)


def test_blowup_detected():
    lat = WaveLattice(16)
    cfg = SimConfig(n=16, nu=1e-6, spec=H, T=1000.0, dt=5.0)
    st = SolverState(field=taylor_green(lat, amplitude=50.0))
    with np.errstate(all="ignore"):
        with pytest.raises(BlowUpError) as err:
            for _ in range(200):
                st = dns_step(st, cfg)
    assert err.value.step_index >= 1
    assert err.value.t > 0.0


def test_cfl_guard():
    lat = WaveLattice(16)
    u0 = taylor_green(lat)  # peak speed ~1, dx ~ 0.39, limit ~ 0.2
    check_cfl(small_cfg(dt=0.01, T=0.02), u0)
    with pytest.raises(CflError, match="CFL"):
        check_cfl(SimConfig(n=16, nu=0.05, spec=H, T=1.0, dt=0.5), u0)
    with pytest.raises(CflError):
        run_experiment(SimConfig(n=16, nu=0.05, spec=H, T=1.0, dt=0.5),
                       progress=False)
    # zero field has no speed limit
    check_cfl(SimConfig(n=16, nu=0.05, spec=H, T=1.0, dt=1.0),
              zero_field(lat))


def test_cfl_checked_at_step_zero():
    # the initial state is checked by the step-0 sample, not by a separate
    # transform before it
    with pytest.raises(CflError, match=r"at step 0 \(t = 0\)"):
        run_experiment(SimConfig(n=16, nu=0.05, spec=H, T=1.0, dt=0.5),
                       progress=False)


def test_adm_energy_budget_non_increasing():
    # the deconvolution-weighted energy of the model state may grow only
    # through time-discretization error, which is O(dt^3) per step
    lat = WaveLattice(16)
    ksq = lat.k_squared
    a = np.asarray(inverse_symbol(H, ksq))
    g = np.asarray(filter_symbol(H, ksq))
    d = np.asarray(deconv_symbol(DeconvOp(H, 2), ksq))
    dt = 0.01
    cfg = small_cfg(nu=0.05, dt=dt, T=20 * dt)
    w = SpectralField(lat, g * taylor_green(lat).coeffs, divergence_free=True)
    st = SolverState(field=w)

    def budget(c):
        return float(np.sum(a * d * np.abs(c) ** 2))

    prev = budget(st.field.coeffs)
    e0 = prev
    for _ in range(20):
        st = adm_step(st, cfg, 2)
        cur = budget(st.field.coeffs)
        assert cur - prev <= max(1e-13 * e0, 1.0 * dt ** 3)
        prev = cur


# The model's energy equality.  With nu = 0 and no forcing the
# semi-discrete model w_t = -G P div(D w (x) D w) conserves
# E_N = 1/2 sum A D_N |w_hat|^2 (A = 1/G, keep-set Hermitian weights):
# paired with A D_N w, the transport term becomes (div(v (x) v), v) = 0 for
# v = D_N w.  The reference conserves 1/2 sum |u_hat|^2.  SSP-RK3 then
# drifts by O(dt^3) per unit time, so the drift falls 8x when dt halves,
# down to the rounding floor.  SimConfig requires nu > 0, so the steppers
# are built directly.
CONSERVED_DT = 0.02
CONSERVED_T = 0.5
# Largest relative drift allowed at CONSERVED_DT; measured at most 3.9e-9
# at 8^3 and 9.7e-9 at 16^3.
CONSERVED_DRIFT = 2e-8
# Above this drift, halving dt must cut it by CONSERVED_FALL or more
# (measured 7.8-8.0); below it, rounding (about 1e-14 here) dominates.
ROUNDING_DRIFT = 1e-12
CONSERVED_FALL = 7.0
CONSERVED_SPECS = {"helmholtz1": Helmholtz(alpha=0.5, p=1.0),
                   "helmholtz2": Helmholtz(alpha=0.5, p=2.0),
                   "gaussian": Gaussian(alpha=1.0)}


def _energy_drift(spec, order, init, n, dt, swap=False, post=True):
    """max_t |E(t) - E(0)| / E(0) over CONSERVED_T at nu = 0: E_N of the
    model of order N (w(0) = G u0), or 1/2 sum |u_hat|^2 of the reference
    for order None.  swap and post=False build the two broken models:
    pre and post symbols swapped, and the post-filter dropped."""
    lat = WaveLattice(n)
    keep = lat.keep
    u0 = (taylor_green(lat) if init == "taylor_green"
          else random_solenoidal(lat, decay=2.5, seed=3))
    c = _kept(u0.coeffs, n)
    if order is None:
        stepper = _Stepper(_Workspace(lat), 0.0, dt)
        weight = keep.w
    else:
        g = np.asarray(filter_symbol(spec, keep.ksq))
        d = np.asarray(deconv_symbol(DeconvOp(spec, order), keep.ksq))
        pre, after = (g, d) if swap else (d, g if post else None)
        stepper = _Stepper(_Workspace(lat), 0.0, dt, pre=pre, post=after)
        weight = keep.w * d / g
        c = g * c

    def energy(c):
        return 0.5 * float(np.sum(weight * (c.real ** 2 + c.imag ** 2)))

    e0 = energy(c)
    drift = 0.0
    for _ in range(round(CONSERVED_T / dt)):
        c = stepper.advance(c)
        drift = max(drift, abs(energy(c) - e0))
    return drift / e0


def _conserves(spec, order, init, n, **mutant) -> bool:
    """The drift at CONSERVED_DT is within CONSERVED_DRIFT and, where it is
    above rounding, falls by CONSERVED_FALL when dt halves."""
    coarse = _energy_drift(spec, order, init, n, CONSERVED_DT, **mutant)
    fine = _energy_drift(spec, order, init, n, CONSERVED_DT / 2, **mutant)
    if coarse <= ROUNDING_DRIFT:
        return fine <= ROUNDING_DRIFT
    return coarse <= CONSERVED_DRIFT and coarse >= CONSERVED_FALL * fine


@pytest.mark.parametrize("init", ["taylor_green", "random"])
@pytest.mark.parametrize("family", ["reference", *CONSERVED_SPECS])
def test_energy_equality_is_conserved_without_viscosity(family, init):
    if family == "reference":
        assert _conserves(None, None, init, 8)
        return
    for order in (0, 2, 8):
        assert _conserves(CONSERVED_SPECS[family], order, init, 8), order


def test_energy_equality_is_conserved_at_16():
    assert _conserves(CONSERVED_SPECS["gaussian"], 8, "random", 16)
    assert _conserves(CONSERVED_SPECS["helmholtz1"], 2, "taylor_green", 16)


@pytest.mark.parametrize("mutant", [{"post": False}, {"swap": True}],
                         ids=["post_filter_dropped", "pre_post_swapped"])
def test_energy_equality_fails_for_broken_models(mutant):
    # the drift is 2e-4 to 5e-2 for these, and does not move with dt
    for family in ("helmholtz1", "gaussian"):
        for init in ("taylor_green", "random"):
            for order in (0, 8):
                assert not _conserves(CONSERVED_SPECS[family], order, init,
                                      8, **mutant), (family, init, order)


# ---------------------------------------------------------------------------
# initial conditions and forcing
# ---------------------------------------------------------------------------


def test_initial_field_variants(tmp_path):
    lat = WaveLattice(16)
    f = initial_field(small_cfg(init=RandomSpectrumInit(decay=2.0, seed=1)),
                      lat)
    assert sobolev_norm(f, 0.0) > 0.0

    snap = tmp_path / "ic.admf"
    admio.save_field(random_solenoidal(lat, decay=1.0, seed=2), snap)
    g = initial_field(small_cfg(init=SnapshotInit(path=str(snap))), lat)
    assert sobolev_norm(g, 0.0) > 0.0
    with pytest.raises(ValueError, match="lattice"):
        initial_field(small_cfg(n=8, init=SnapshotInit(path=str(snap))),
                      WaveLattice(8))


def test_forcing_enters_dynamics(tmp_path):
    lat = WaveLattice(8)
    force = random_solenoidal(lat, decay=1.0, seed=9)
    path = tmp_path / "force.admf"
    admio.save_field(force, path)
    cfg = small_cfg(n=8, init=TaylorGreenInit(amplitude=0.0),
                    forcing=SnapshotForcing(path=str(path)),
                    N_list=(0,), T=0.05, dt=0.01)
    out = run_experiment(cfg, progress=False)
    # forcing lifts the zero state off the fixed point
    assert out.dns.u_l2[-1] > 0.0
    assert out.runs[0].w_l2[-1] > 0.0

    bad = small_cfg(forcing=SnapshotForcing(path=str(path)))  # n=16 grid
    with pytest.raises(ValueError, match="lattice"):
        run_experiment(bad, progress=False)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def _forcing_file(tmp_path, lat, peak_speed):
    """A forcing snapshot whose collocation peak speed is peak_speed."""
    f = random_solenoidal(lat, decay=1.0, seed=9)
    peak = float(np.max(np.sqrt(np.sum(to_physical(f).samples ** 2,
                                       axis=0))))
    path = tmp_path / "force.admf"
    admio.save_field(SpectralField(lat, f.coeffs * (peak_speed / peak)),
                     path)
    return str(path)


def test_forcing_snapshot_loaded_once_per_experiment(tmp_path, monkeypatch):
    path = _forcing_file(tmp_path, WaveLattice(8), 1.0)
    loads = []
    real = admio.load_field

    def counting(p):
        loads.append(p)
        return real(p)

    monkeypatch.setattr("admles.solvers.admio.load_field", counting)
    cfg = small_cfg(n=8, forcing=SnapshotForcing(path=path),
                    N_list=(0, 1, 4))
    run_experiment(cfg, progress=False)
    assert len(loads) == 1


def test_courant_checked_at_every_sample(tmp_path):
    lat = WaveLattice(8)
    path = _forcing_file(tmp_path, lat, 400.0)
    # Taylor-Green at amplitude 1 starts far under the limit (check_cfl
    # passes); the forcing then accelerates the flow past it
    cfg = small_cfg(n=8, forcing=SnapshotForcing(path=path), N_list=(0,),
                    T=0.2, dt=0.01)
    check_cfl(cfg, initial_field(cfg, lat))
    with pytest.raises(CflError, match=r"at step \d+ .* CFL limit"):
        run_experiment(cfg, progress=False)

    short = small_cfg(n=8, forcing=SnapshotForcing(path=path), N_list=(0,),
                      T=0.04, dt=0.01)
    out = run_experiment(short, progress=False)
    assert 0.0 < out.courant_max <= 0.5


def test_courant_max_is_peak_over_samples():
    # unforced Taylor-Green decays, so its peak speed is the initial one
    cfg = small_cfg(T=0.05, dt=0.01, N_list=(0,))
    lat = WaveLattice(cfg.n)
    u0 = initial_field(cfg, lat)
    speed = np.sqrt(np.sum(to_physical(u0).samples ** 2, axis=0))
    want = cfg.dt * float(np.max(speed)) / (cfg.L / cfg.n)
    out = run_experiment(cfg, progress=False)
    assert out.courant_max == pytest.approx(want, rel=1e-12)


def test_recording_does_not_perturb_lockstep_state():
    # every sample against only the last one: the fields and the final
    # sample must agree bit for bit
    base = small_cfg(T=0.05, dt=0.01, N_list=(0, 2, 4),
                     init=RandomSpectrumInit(decay=1.5, seed=6))
    every = run_experiment(base, progress=False)
    ends = run_experiment(dataclasses.replace(base, sample_every=5),
                          progress=False)
    assert len(every.dns.times) == 6 and len(ends.dns.times) == 2
    assert np.array_equal(every.u_final.coeffs, ends.u_final.coeffs)
    for name in ("u_l2", "u_h1", "energy"):
        assert getattr(every.dns, name)[-1] == getattr(ends.dns, name)[-1]
    for re, rn in zip(every.runs, ends.runs):
        assert np.array_equal(re.final_field.coeffs, rn.final_field.coeffs)
        for name in ("eps_l2", "eps_hs", "eps_grad_l2", "eps_grad_hs",
                     "tau_l2", "half_norm", "w_l2"):
            assert getattr(re, name)[-1] == getattr(rn, name)[-1], name


@pytest.mark.parametrize("spec", [H, Helmholtz(alpha=0.5, p=1.5),
                                  HelmholtzPower(mu=0.3, m=2),
                                  GaussianApprox(alpha=0.5, m=3),
                                  Gaussian(alpha=0.5)],
                         ids=["helmholtz", "helmholtz_p1.5",
                              "helmholtz_power", "gaussian_approx",
                              "gaussian"])
def test_final_sample_matches_full_spectrum_norms(spec):
    # the per-sample norms are keep-set sums over all orders at once; at the
    # last sample they are full-spectrum norms of the final fields, up to
    # summation order.  Beside Helmholtz p = 1, where s = 1, the filters
    # set s = 1.5, 2, 3 and 1, so each level's weight row is checked.
    cfg = small_cfg(spec=spec, T=0.03, dt=0.01, N_list=(0, 2, 4),
                    init=RandomSpectrumInit(decay=1.5, seed=8))
    out = run_experiment(cfg, progress=False)
    _, s = energy_weight(cfg.spec)
    u = out.u_final
    assert out.dns.u_l2[-1] == pytest.approx(sobolev_norm(u, 0.0), rel=1e-13)
    assert out.dns.u_h1[-1] == pytest.approx(sobolev_norm(u, 1.0), rel=1e-13)
    assert out.dns.energy[-1] == pytest.approx(
        0.5 * np.sum(np.abs(u.coeffs) ** 2), rel=1e-13)
    for run in out.runs:
        err = SpectralField(u.lattice,
                            out.ubar_final.coeffs - run.final_field.coeffs)
        for name, level in (("eps_l2", 0.0), ("eps_hs", s),
                            ("eps_grad_l2", 1.0), ("eps_grad_hs", s + 1.0)):
            assert getattr(run, name)[-1] == pytest.approx(
                sobolev_norm(err, level), rel=1e-13), name
        assert run.w_l2[-1] == pytest.approx(
            sobolev_norm(run.final_field, 0.0), rel=1e-13)


@pytest.mark.parametrize("spec", [H, HelmholtzPower(mu=0.3, m=2),
                                  GaussianApprox(alpha=0.5, m=3),
                                  Gaussian(alpha=0.5)],
                         ids=["helmholtz", "helmholtz_power",
                              "gaussian_approx", "gaussian"])
def test_ubar_final_is_the_filtered_u_final(spec):
    # ubar_final is G u_final, zero signs included: its m3 < 0 planes are
    # conjugate partners, as in u_final, not products with G on the full
    # layout (which turn -0.0 imaginary parts into +0.0)
    cfg = small_cfg(spec=spec, n=8, T=0.03, dt=0.01, N_list=(0,),
                    init=RandomSpectrumInit(decay=1.5, seed=4))
    out = run_experiment(cfg, progress=False)
    u = out.u_final.coeffs
    g = filter_symbol(spec, out.lattice.k_squared)
    assert np.array_equal(out.ubar_final.coeffs, g * u)
    assert np.array_equal(np.signbit(out.ubar_final.coeffs.view(np.float64)),
                          np.signbit(u.view(np.float64)))


def test_experiment_peak_memory_stays_small():
    # no per-sample store of reference fields: the traced peak stays far
    # below the 101 full 16^3 samples (about 20 MB) of a stored reference
    import tracemalloc

    cfg = small_cfg(T=0.5, dt=0.005, N_list=(0, 4), sample_every=1)
    tracemalloc.start()
    try:
        run_experiment(cfg, progress=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("threads, bound", [(1, 20.0), (2, 12.0)])
def test_samples_allocate_no_stacked_states(monkeypatch, threads, bound):
    # tracemalloc's peak inside the time loop, above what is traced when
    # the loop starts, in keep-set states (3, M+1, 2M+1, 2M+1): stepping
    # the caller's systems (6 serially, 2 beside a worker) needs their
    # new and previous states and the stepper's temporaries, and a sample
    # may add no (orders, 3, modes) stack on top.  Measured at 16^3 with 5
    # orders: 17.3 states serially and 9.3 beside a worker; before samples
    # worked one order at a time in preallocated buffers, 26.6 in both.
    import tracemalloc

    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    cfg = small_cfg(T=0.05, dt=0.005, N_list=(0, 1, 2, 4, 8), sample_every=1)
    m = cfg.n // 3
    state = 3 * (m + 1) * (2 * m + 1) ** 2 * np.dtype(complex).itemsize
    real_lockstep = solvers._lockstep
    peaks = []

    def traced(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        states = real_lockstep(*args)
        peaks.append((tracemalloc.get_traced_memory()[1] - start) / state)
        return states

    monkeypatch.setattr(solvers, "_lockstep", traced)
    tracemalloc.start()
    try:
        run_experiment(cfg, threads=threads, progress=False)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] < bound, peaks


@pytest.mark.parametrize("threads", [1, 2])
def test_workspace_is_freed_before_the_final_snapshots(monkeypatch, threads):
    # The final snapshots are built after the time loop has returned, so
    # its transform workspace is not live beside them; reference counting
    # alone frees it, so the run is made with the cycle collector off.
    import gc
    import weakref

    built = []

    class Recorded(solvers._Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    real_full = solvers._full
    alive_at_full = []

    def full(c, n):
        alive_at_full.append(sum(ref() is not None for ref in built))
        return real_full(c, n)

    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    monkeypatch.setattr(solvers, "_Workspace", Recorded)
    monkeypatch.setattr(solvers, "_full", full)
    cfg = small_cfg(n=8, T=0.02, dt=0.01, N_list=(0, 2))
    gc.disable()
    try:
        out = run_experiment(cfg, threads=threads, progress=False)
    finally:
        gc.enable()
    assert len(built) == 1
    # u_final, ubar_final and one snapshot per order
    assert alive_at_full == [0] * (len(cfg.N_list) + 2)
    assert out.u_final is not None and out.ubar_final is not None
    assert all(run.final_field is not None for run in out.runs)


def test_single_step_horizon_has_two_samples():
    cfg = small_cfg(T=0.01, dt=0.01, N_list=(0,))
    out = run_experiment(cfg, progress=False)
    assert list(out.dns.times) == pytest.approx([0.0, 0.01])
    assert len(out.runs[0].eps_l2) == 2


def test_sampling_cadence_includes_endpoint():
    cfg = small_cfg(T=0.05, dt=0.01, sample_every=2, N_list=(0,))
    out = run_experiment(cfg, progress=False)
    # steps 0,2,4 plus the final step 5
    assert list(out.dns.times) == pytest.approx([0.0, 0.02, 0.04, 0.05])


def test_experiment_is_deterministic_and_thread_safe():
    cfg = small_cfg(T=0.03, dt=0.01, N_list=(0, 2))
    a = run_experiment(cfg, progress=False)
    b = run_experiment(cfg, progress=False)
    c = run_experiment(cfg, threads=2, progress=False)
    for x, y in ((a, b), (a, c)):
        assert np.array_equal(x.dns.u_l2, y.dns.u_l2)
        for rx, ry in zip(x.runs, y.runs):
            assert rx.N == ry.N
            assert np.array_equal(rx.eps_l2, ry.eps_l2)
            assert np.array_equal(rx.tau_l2, ry.tau_l2)
            assert np.array_equal(rx.final_field.coeffs, ry.final_field.coeffs)


def test_experiment_solution_quality():
    cfg = small_cfg(T=0.1, dt=0.005, N_list=(0, 4))
    out = run_experiment(cfg, progress=False)
    for run in out.runs:
        # model stays divergence-free to solver drift tolerance
        assert run.div_ratio_max <= 1e-11
        # error starts at zero (model starts from the filtered reference)
        assert run.eps_l2[0] == 0.0
        assert run.eps_l2[-1] > 0.0
        # defect norms are finite, positive, and half_norm is populated
        # for a Helmholtz filter
        assert np.all(run.tau_l2 >= 0.0)
        assert np.all(np.isfinite(run.half_norm))
    # higher deconvolution order tracks the reference more closely
    assert out.runs[1].eps_l2[-1] < out.runs[0].eps_l2[-1]


@pytest.mark.parametrize("spec", [Gaussian(alpha=1.0),
                                  GaussianApprox(alpha=1.0, m=3),
                                  HelmholtzPower(mu=0.3, m=2), H],
                         ids=["gaussian", "gaussian_approx",
                              "helmholtz_power", "helmholtz"])
def test_half_norm_series_matches_half_norm_defect(spec):
    # the series is half_norm_defect of the reference, bit for bit, for
    # every filter family
    cfg = small_cfg(spec=spec, T=0.02, dt=0.01, N_list=(0, 1, 4))
    out = run_experiment(cfg, progress=False)
    u0 = initial_field(cfg, out.lattice)
    for run in out.runs:
        assert run.half_norm[0] == half_norm_defect(u0, spec, run.N)
        assert run.half_norm[-1] == half_norm_defect(out.u_final, spec,
                                                     run.N)
        assert np.all(np.isfinite(run.eps_l2))


def test_divergence_drift_over_thousand_steps():
    cfg = small_cfg(T=1.0, dt=0.001, N_list=(1,), sample_every=100)
    out = run_experiment(cfg, progress=False)
    assert out.runs[0].div_ratio_max <= 1e-11


# ---------------------------------------------------------------------------
# outputs on disk
# ---------------------------------------------------------------------------


def test_write_read_outputs_roundtrip(tmp_path):
    cfg = small_cfg(T=0.03, dt=0.01, N_list=(0, 2))
    out = run_experiment(cfg, progress=False)
    paths = write_outputs(out, tmp_path)
    assert (tmp_path / "config.json").exists()
    assert (tmp_path / "dns.csv").exists()
    assert (tmp_path / "series.csv").exists()
    for name in ("u_final.admf", "ubar_final.admf", "w0_final.admf",
                 "w2_final.admf"):
        assert (tmp_path / "snapshots" / name).exists(), name
    assert set(paths) >= {"config", "dns", "series"}

    back = read_outputs(tmp_path)
    assert back.config == cfg
    assert np.array_equal(back.dns.times, out.dns.times)
    assert np.array_equal(back.dns.u_l2, out.dns.u_l2)  # repr round-trip
    for name in ("u_h1", "energy"):
        assert np.array_equal(getattr(back.dns, name),
                              getattr(out.dns, name)), name
    assert [r.N for r in back.runs] == [0, 2]
    for rb, ro in zip(back.runs, out.runs):
        assert np.array_equal(rb.eps_l2, ro.eps_l2)
        assert np.array_equal(rb.tau_l2, ro.tau_l2)
        assert np.array_equal(rb.half_norm, ro.half_norm)
        assert np.array_equal(rb.times, ro.times)
        for name in _SERIES:
            assert np.array_equal(getattr(rb, name), getattr(ro, name)), name

    # the stored model snapshot really is the final state
    w2 = admio.load_field(tmp_path / "snapshots" / "w2_final.admf")
    assert np.array_equal(w2.coeffs, out.runs[1].final_field.coeffs)


def test_written_csvs_carry_config_stamp(tmp_path):
    cfg = small_cfg(T=0.02, dt=0.01, N_list=(0,))
    out = run_experiment(cfg, progress=False)
    write_outputs(out, tmp_path)
    stamp = f"# config={config_hash(cfg)}"
    for name in ("dns.csv", "series.csv"):
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first == stamp


def test_config_rejects_duplicate_orders():
    # a repeated order would be read back as one doubled series
    with pytest.raises(ValueError, match="N_list"):
        small_cfg(N_list=(1, 1))
    with pytest.raises(ValueError, match="N_list"):
        SimConfig.from_dict({"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5,
                             "filter": {"kind": "helmholtz", "alpha": 1.0},
                             "N_list": [0, 2, 0]})


def test_forcing_snapshot_is_validated(tmp_path):
    from admles.spectral import FieldInvariantError

    lat = WaveLattice(8)
    c = np.array(random_solenoidal(lat, decay=1.0, seed=9).coeffs)
    # not divergence-free: accepted, the forcing is projected
    c[0, 1, 0, 0] += 0.5
    c[0, -1, 0, 0] += 0.5
    path = tmp_path / "force.admf"
    admio.save_field(SpectralField(lat, c.copy()), path)
    cfg = small_cfg(n=8, forcing=SnapshotForcing(path=str(path)),
                    N_list=(0,))
    dns_step(SolverState(field=taylor_green(lat)), cfg)

    # a coefficient without its conjugate partner is not a real field
    c[1, 1, 2, 1] += 0.3j
    admio.save_field(SpectralField(lat, c.copy()), path)
    with pytest.raises(FieldInvariantError, match="Hermitian"):
        dns_step(SolverState(field=taylor_green(lat)), cfg)
    with pytest.raises(FieldInvariantError, match="Hermitian"):
        run_experiment(cfg, progress=False)


@pytest.mark.parametrize("part", ["init", "forcing"])
def test_snapshot_errors_name_the_snapshot(tmp_path, part):
    # with both snapshots configured, an error says which file is bad
    from admles.spectral import FieldInvariantError

    lat = WaveLattice(8)
    good = tmp_path / "good.admf"
    admio.save_field(random_solenoidal(lat, decay=1.0, seed=9), good)
    bad = tmp_path / "bad.admf"
    paths = {"init": good, "forcing": good, part: bad}
    cfg = small_cfg(n=8, init=SnapshotInit(path=str(paths["init"])),
                    forcing=SnapshotForcing(path=str(paths["forcing"])),
                    N_list=(0,))

    c = np.array(random_solenoidal(lat, decay=1.0, seed=9).coeffs)
    c[1, 1, 2, 1] += 0.3j  # no conjugate partner
    admio.save_field(SpectralField(lat, c), bad)
    with pytest.raises(FieldInvariantError,
                       match=f"^{part} snapshot {re.escape(str(bad))}: "
                             "Hermitian"):
        run_experiment(cfg, progress=False)

    admio.save_field(random_solenoidal(WaveLattice(6), decay=1.0, seed=9),
                     bad)
    with pytest.raises(ValueError,
                       match=f"^{part} snapshot {re.escape(str(bad))}: "
                             "lattice "):
        run_experiment(cfg, progress=False)


# ---------------------------------------------------------------------------
# worker processes (threads > 1)
# ---------------------------------------------------------------------------


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_order_blocks_cap_and_partition():
    # no process is started here: the helper only plans the split
    blocks = solvers._order_blocks(10 ** 6, 5, 2)
    assert blocks == [range(0, 1), range(1, 5)]
    assert solvers._order_blocks(1, 5, 2) == [range(0, 5)]
    assert solvers._order_blocks(8, 1, 4) == [range(0, 1)]
    # threads beyond the orders: one process per order at most
    assert solvers._order_blocks(9, 3, 16) == [range(0, 1), range(1, 2),
                                               range(2, 3)]
    # near-equal contiguous blocks after the caller's order 0
    assert solvers._order_blocks(3, 6, 8) == [range(0, 1), range(1, 4),
                                              range(4, 6)]
    for threads, k, cpus in ((4, 9, 4), (2, 2, 1), (3, 5, 8), (7, 7, 7)):
        blocks = solvers._order_blocks(threads, k, cpus)
        assert len(blocks) == max(1, min(threads, k, cpus))
        assert [j for b in blocks for j in b] == list(range(k))
        sizes = [len(b) for b in blocks[1:]]
        assert not sizes or max(sizes) - min(sizes) <= 1


def _doomed_cfg(**kw):
    return small_cfg(n=8, T=0.06, dt=0.01, N_list=(0, 1, 2), **kw)


def _doom_last_order(monkeypatch, at_step, log, error=None):
    """Make the last order's stepper return NaNs at step `at_step`, or
    raise `error` there, and write the pid of the process that stepped it
    to `log`; the patch is made before any fork, so a child that steps it
    inherits it."""
    real_build = solvers._build_steppers
    real_advance = solvers._Stepper.advance
    doomed = []

    def build(*args):
        steppers, g, pres = real_build(*args)
        doomed[:] = steppers[-1:]
        return steppers, g, pres

    def advance(self, c):
        out = real_advance(self, c)
        if self is doomed[0]:
            self.calls = getattr(self, "calls", 0) + 1
            if self.calls == at_step:
                log.write_text(str(os.getpid()))
                if error is not None:
                    raise error
                return np.full_like(out, np.nan)
        return out

    monkeypatch.setattr(solvers, "_build_steppers", build)
    monkeypatch.setattr(solvers._Stepper, "advance", advance)


def test_orders_are_stepped_in_another_process(tmp_path, monkeypatch):
    log = tmp_path / "pids"
    real_advance = solvers._Stepper.advance

    def advance(self, c):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real_advance(self, c)

    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    monkeypatch.setattr(solvers._Stepper, "advance", advance)
    run_experiment(_doomed_cfg(), threads=2, progress=False)
    pids = log.read_text().split()
    # 6 steps of the reference and 3 orders, 2 processes
    assert len(pids) == 6 * 4
    assert pids.count(str(os.getpid())) == 6 * 2
    assert len(set(pids)) == 2
    _assert_no_child()


def test_blowup_in_a_worker_matches_serial(tmp_path, monkeypatch):
    log = tmp_path / "pid"
    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    _doom_last_order(monkeypatch, 3, log)
    messages, pids = [], []
    for threads in (1, 2):
        with pytest.raises(BlowUpError) as err:
            run_experiment(_doomed_cfg(), threads=threads, progress=False)
        messages.append(str(err.value))
        pids.append(int(log.read_text()))
        assert err.value.step_index == 3
        _assert_no_child()
    assert messages[0] == messages[1]
    assert pids[0] == os.getpid() != pids[1]


@pytest.mark.parametrize("error", [ValueError("simulated bad input"),
                                   MemoryError("simulated")])
def test_error_in_a_worker_matches_serial(tmp_path, monkeypatch, error):
    # the worker's exception reaches the caller with its type and message
    log = tmp_path / "pid"
    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    _doom_last_order(monkeypatch, 3, log, error)
    raised, pids = [], []
    for threads in (1, 2):
        with pytest.raises(type(error)) as err:
            run_experiment(_doomed_cfg(), threads=threads, progress=False)
        raised.append((type(err.value), str(err.value)))
        pids.append(int(log.read_text()))
        _assert_no_child()
    assert raised[0] == raised[1] == (type(error), str(error))
    assert pids[0] == os.getpid() != pids[1]


class _TwoArgError(Exception):
    """Pickles, but unpickling calls __init__ with the one message."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


@pytest.mark.parametrize("how", ["exit", "unpicklable", "unrebuildable"])
def test_worker_stopping_without_a_message(monkeypatch, how):
    # a child that ends without sending an exception the caller can
    # rebuild raises RuntimeError at its step
    class LocalError(Exception):
        pass

    caller = os.getpid()
    real_advance = solvers._Stepper.advance

    def advance(self, c):
        self.calls = getattr(self, "calls", 0) + 1
        if os.getpid() != caller and self.calls == 3:
            if how == "exit":
                os._exit(0)
            raise (LocalError("a local class") if how == "unpicklable"
                   else _TwoArgError("two", "args"))
        return real_advance(self, c)

    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    monkeypatch.setattr(solvers._Stepper, "advance", advance)
    with pytest.raises(RuntimeError,
                       match="a worker process stopped at step 3"):
        run_experiment(_doomed_cfg(), threads=2, progress=False)
    _assert_no_child()


def test_cfl_error_mid_run_leaves_no_child(tmp_path, monkeypatch):
    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    path = _forcing_file(tmp_path, WaveLattice(8), 400.0)
    cfg = small_cfg(n=8, forcing=SnapshotForcing(path=path),
                    N_list=(0, 1, 2), T=0.2, dt=0.01)
    messages = []
    for threads in (1, 2):
        with pytest.raises(CflError, match=r"at step \d+ ") as err:
            run_experiment(cfg, threads=threads, progress=False)
        messages.append(str(err.value))
        _assert_no_child()
    assert messages[0] == messages[1]


def test_interrupt_leaves_no_child(monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    monkeypatch.setattr(solvers, "_progress", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(_doomed_cfg(), threads=2, progress=True)
    _assert_no_child()


_KILLED_PARENT = """
import os, sys
from admles.filters import Helmholtz
from admles.solvers import SimConfig, run_experiment
fork = os.fork

def announce():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announce
cfg = SimConfig(n=16, nu=0.05, spec=Helmholtz(alpha=0.5, p=1.0), T=50.0,
                dt=0.005, N_list=(0, 1))
run_experiment(cfg, threads=2, progress=False)
"""


def _gone_or_zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_worker_exits_when_its_parent_is_killed():
    # the run is 10000 steps long: a worker that kept stepping after its
    # parent died would outlast the deadline by far
    env = dict(os.environ, PYTHONPATH=str(Path(solvers.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_PARENT],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        assert select.select([proc.stdout], [], [], 30.0)[0], "no fork"
        child = int(proc.stdout.readline())
        time.sleep(0.2)
        assert not _gone_or_zombie(child)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 5.0
    while not _gone_or_zombie(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone_or_zombie(child)


def _assert_same_runs(a, b) -> None:
    """Every series, the peak Courant number and every final field of two
    run_experiment outputs, bit for bit."""
    assert a.courant_max == b.courant_max
    for name in ("times", "u_l2", "u_h1", "energy"):
        assert np.array_equal(getattr(a.dns, name), getattr(b.dns, name))
    assert np.array_equal(a.u_final.coeffs, b.u_final.coeffs)
    assert [r.N for r in a.runs] == [r.N for r in b.runs]
    for ra, rb in zip(a.runs, b.runs):
        for name in ("times", *_SERIES):
            assert np.array_equal(getattr(ra, name), getattr(rb, name),
                                  equal_nan=True), (ra.N, name)
        assert ra.div_ratio_max == rb.div_ratio_max
        assert np.array_equal(ra.final_field.coeffs, rb.final_field.coeffs)


@pytest.mark.parametrize("n, orders, T, sample_every", [
    # steps 1-4 of every 5 are neither sample nor progress steps: a child
    # sends a status byte there and no states
    (8, (0, 1, 2), 0.2, 5),
    # the child's 5 orders at 32^3 are 1.16 MB per exchange, more than a
    # 1 MiB pipe holds, so the caller reads each exchange in parts
    (32, (0, 1, 2, 3, 4, 5), 0.02, 1),
], ids=["non_exchange_steps", "exchange_beyond_pipe_capacity"])
def test_worker_hand_off_matches_serial(monkeypatch, n, orders, T,
                                        sample_every):
    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    cfg = small_cfg(n=n, N_list=orders, T=T, dt=0.01,
                    sample_every=sample_every)
    serial = run_experiment(cfg, threads=1, progress=False)
    forked = run_experiment(cfg, threads=2, progress=False)
    _assert_same_runs(serial, forked)
    _assert_no_child()


def test_hand_off_reads_into_one_array_per_child():
    # each exchange is read into the array allocated for its child with
    # the workers: two exchanges return views of the same memory, holding
    # the states a serial run steps to
    cfg = small_cfg(n=8, N_list=(0, 1, 2), T=0.02, dt=0.01)
    lat = WaveLattice(cfg.n)
    steppers, g, _ = solvers._build_steppers(cfg, lat, cfg.N_list)
    u = _kept(initial_field(cfg, lat).coeffs, cfg.n)
    serial = [[g * u] * 3]
    for step in (1, 2):
        serial.append([solvers._step(s, c, step, step * cfg.dt)
                       for s, c in zip(steppers, serial[-1])])
    with solvers._Workers(steppers, serial[0], [range(1, 2), range(2, 3)],
                          2, cfg.dt, frozenset({1, 2})) as workers:
        first = workers.receive(1, True)
        got = [c.copy() for c in first]
        second = workers.receive(2, True)
        inboxes = workers.inboxes
        assert len(inboxes) == 2 and len(first) == len(second) == 2
        for a, b, inbox in zip(first, second, inboxes):
            assert inbox.shape == (1, *u.shape)
            assert np.shares_memory(a, inbox) and np.shares_memory(b, inbox)
        for j in (0, 1):
            assert np.array_equal(got[j], serial[1][j + 1])
            assert np.array_equal(second[j], serial[2][j + 1])
    _assert_no_child()


@pytest.mark.skipif(solvers._blas_pool() is None,
                    reason="numpy's BLAS is not its bundled OpenBLAS")
def test_workers_run_one_blas_thread_per_process(tmp_path, monkeypatch):
    # W = 2 processes run 1 BLAS thread each during the time loop, the
    # forked worker and the caller alike; the caller's count is restored
    # after the run, after a failed one too.  A serial run keeps it.
    get, put = solvers._blas_pool()
    log = tmp_path / "blas"
    real_advance = solvers._Stepper.advance

    def advance(self, c):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {get()}\n")
        return real_advance(self, c)

    monkeypatch.setattr(solvers, "_cpus", lambda: 2)
    monkeypatch.setattr(solvers._Stepper, "advance", advance)
    before = get()
    put(2)
    try:
        run_experiment(_doomed_cfg(), threads=2, progress=False)
        counts = {}
        for line in log.read_text().split("\n")[:-1]:
            pid, count = line.split()
            counts.setdefault(int(pid) == os.getpid(), set()).add(int(count))
        assert counts == {True: {1}, False: {1}}
        assert get() == 2
        log.unlink()
        run_experiment(_doomed_cfg(), threads=1, progress=False)
        assert set(log.read_text().split("\n")[:-1]) == {f"{os.getpid()} 2"}
        _doom_last_order(monkeypatch, 3, tmp_path / "pid")
        with pytest.raises(BlowUpError):
            run_experiment(_doomed_cfg(), threads=2, progress=False)
        assert get() == 2
    finally:
        put(before)
    _assert_no_child()


def per_cell_read(out_dir):
    """dns.csv's columns and series.csv's per-order columns, every cell
    parsed with its own float(): the reference for read_outputs."""
    header, rows = admio.read_csv(Path(out_dir) / "dns.csv")
    dns = {name: np.array([float(r[header.index(name)]) for r in rows])
           for name in ("t", "u_l2", "u_h1", "energy")}
    header, rows = admio.read_csv(Path(out_dir) / "series.csv")
    runs = {}
    for r in rows:
        run = runs.setdefault(int(float(r[0])), {})
        for name in ("t", *_SERIES):
            run.setdefault(name, []).append(float(r[header.index(name)]))
    return dns, {N: {name: np.array(col) for name, col in run.items()}
                 for N, run in runs.items()}


def test_read_outputs_matches_per_cell_parse(tmp_path, tg16_output):
    # the benchmark's post-processing input: one parse per file gives the
    # bits of a float() per cell
    write_outputs(tg16_output, tmp_path)
    back = read_outputs(tmp_path)
    dns, runs = per_cell_read(tmp_path)
    assert back.dns.times.tobytes() == dns["t"].tobytes()
    for name in ("u_l2", "u_h1", "energy"):
        assert getattr(back.dns, name).tobytes() == dns[name].tobytes()
    assert [run.N for run in back.runs] == list(tg16_output.config.N_list)
    for run in back.runs:
        want = runs[run.N]
        assert run.times.tobytes() == want["t"].tobytes()
        for name in _SERIES:
            got = getattr(run, name)
            assert got.flags.c_contiguous
            assert got.tobytes() == want[name].tobytes(), (run.N, name)
