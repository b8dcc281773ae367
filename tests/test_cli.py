import importlib.util
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gapbeam
from conftest import desk_system, digest_tool, load_snapshot
from gapbeam.cli import main
from gapbeam.config import (_PARSERS, ConfigError, ExperimentConfig, InitSpec,
                            SweepSpec, build_config, load_config, parse_mapping)
from gapbeam.model import BeamParams, ForceLaw, NormalCompliance, SchemeConfig
from gapbeam.spectral import SpectrumCertificateError

BASE_MAP = {
    "beam.rho1": "1.0", "beam.rho2": "1.0", "beam.k": "1.0", "beam.b": "1.0",
    "beam.ell": "1.0", "beam.gamma1": "1.0", "beam.gamma2": "1.0",
    "beam.xi_num": "1", "beam.xi_den": "2",
    "mesh.ne": "8", "scheme.dt": "1e-3", "run.t_final": "0.02",
}

BASE = "".join(f"{k} = {v}\n" for k, v in BASE_MAP.items())

# every config key, written out so that renaming a record field cannot rename
# a key
KEYS = {
    "beam.rho1", "beam.rho2", "beam.k", "beam.b", "beam.ell",
    "beam.gamma1", "beam.gamma2", "beam.xi_num", "beam.xi_den", "tip.epsilon",
    "contact.kind", "contact.d1", "contact.d2", "contact.p",
    "contact.g_lo", "contact.g_hi", "contact.eps_pen",
    "force_f.mu", "force_f.alpha", "force_f.cutoff_r", "force_f.f0",
    "force_g.mu", "force_g.alpha", "force_g.cutoff_r", "force_g.f0",
    "scheme.dt", "scheme.newton_tol", "scheme.newton_max",
    "mesh.ne", "run.t_final", "run.stride", "run.seed",
    "run.snapshot", "init.kind", "init.amplitude",
    "init.amplitude_psi", "init.mode", "init.center", "init.width",
    "init.radius", "multiplier.n", "sweep.eps_pen", "sweep.epsilon",
    "sweep.xi", "sweep.ne",
}
# the stop-law keys each contact.kind reads, with a valid value each
STOP_LAW_KEYS = {
    "none": {},
    "normal_compliance": {"contact.d1": "100", "contact.d2": "100",
                          "contact.p": "2", "contact.g_lo": "-0.05",
                          "contact.g_hi": "0.05"},
    "signorini_penalty": {"contact.eps_pen": "1e-2", "contact.g_lo": "-0.05",
                          "contact.g_hi": "0.05"},
}
# a valid value of every key outside the stop laws
EVERY_OTHER_KEY = {
    **BASE_MAP, "tip.epsilon": "0.1",
    **{f"{side}.{name}": value for side in ("force_f", "force_g")
       for name, value in (("mu", "1"), ("alpha", "1"), ("cutoff_r", "2"),
                           ("f0", "0.5"))},
    "scheme.newton_tol": "1e-10", "scheme.newton_max": "20",
    "run.stride": "2", "run.seed": "3", "run.snapshot": "true",
    "init.kind": "gaussian", "init.amplitude": "1", "init.amplitude_psi": "0",
    "init.mode": "2", "init.center": "0.5", "init.width": "0.1",
    "init.radius": "1", "multiplier.n": "3", "sweep.eps_pen": "1e-2",
    "sweep.epsilon": "1e-2", "sweep.xi": "1/2", "sweep.ne": "8",
}
# the record whose fields a section's keys may name
SECTIONS = {
    "beam": BeamParams, "contact": NormalCompliance,
    "force_f": ForceLaw, "force_g": ForceLaw, "scheme": SchemeConfig,
    "init": InitSpec, "sweep": SweepSpec,
}


# config values: numbers of every size and sign, non-finite ones, fractions,
# lists with repeats, booleans and text
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e-300", "1e300", "1e999", "-0.0", "nan", "inf", "-inf",
                     "1/2", "2/4", "1/0", "0/1", "-1/3", "3/2"]))
CONFIG_VALUES = st.one_of(
    _NUMBERS,
    st.lists(_NUMBERS, min_size=1, max_size=4).map(", ".join),
    st.sampled_from(["", "none", "true", "off", "penalty", "nc", "mode",
                     "random_ball", "signorini_penalty", "normal_compliance"]),
    st.text(max_size=8),
)


def cfg_text(drop=(), **overrides):
    entries = dict(BASE_MAP)
    for key in drop:
        entries.pop(key, None)
    for key, value in overrides.items():
        entries[key.replace("__", ".")] = value
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


# gapbeam spectrum once ran out of root sweeps on this config (exit 3)
STIFF_DAMPERS_TIP = dict(beam__gamma1="1e3", beam__gamma2="1e3", mesh__ne="64",
                         tip__epsilon="1.0")
COMPLIANCE_STOPS = dict(
    contact__kind="normal_compliance", contact__d1="100", contact__d2="100",
    contact__p="2", contact__g_lo="-0.01", contact__g_hi="0.01")
PENALTY_STOPS = dict(contact__kind="signorini_penalty", contact__eps_pen="1e-2",
                     contact__g_lo="-0.05", contact__g_hi="0.05")
# one stop law twice: the penalty with eps_pen = 1/4, and the p = 1
# compliance law with d1 = d2 = 4; the data carry the tip past the upper stop
STOP_DATA = dict(contact__g_lo="-0.05", contact__g_hi="0.05",
                 init__kind="mode_velocity", init__amplitude="5.0")
PENALTY_QUARTER = dict(STOP_DATA, contact__kind="signorini_penalty",
                       contact__eps_pen="0.25")
COMPLIANCE_P1 = dict(STOP_DATA, contact__kind="normal_compliance",
                     contact__d1="4", contact__d2="4", contact__p="1")
# every step converges, but E = w.M.w / 2 of these data overflows
ENERGY_OVERFLOW = dict(init__kind="mode_velocity", init__amplitude="1e160")
# an observability config sampled too coarsely for its time integrals
OBSERVABILITY_STRIDE_11 = {"init.kind": "mode", "run.stride": "11"}
# observability configs whose figures leave the float range
NON_FINITE_OBSERVABILITY = {
    "ell-1e300": (dict(COMPLIANCE_STOPS, beam__ell="1e300",
                       init__kind="mode_velocity", run__t_final="0.01"),
                  "defect_ell"),
    "amplitude-1e-300": (dict(COMPLIANCE_STOPS, init__amplitude="1e-300",
                              init__kind="mode_velocity", run__t_final="0.01"),
                         "ratio_ell_to_E0"),
    "multiplier-n-709": (dict(multiplier__n="709", init__amplitude="1e3",
                              init__kind="mode"), "defect_ell"),
    # the squares of the end stresses overflowed: once an OverflowError
    "amplitude-1e160": (dict(ENERGY_OVERFLOW, run__stride="5"), "defect_ell"),
}


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_summary(out_dir):
    entries = {}
    for line in (out_dir / "summary").read_text().splitlines():
        key, value = line.split("=", 1)
        entries[key] = value
    return entries


class TestConfigParsing:
    def test_round_trip_minimal(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, BASE))
        assert cfg.beam.rho1 == 1.0
        assert cfg.beam.xi == 0.5
        assert cfg.ne == 8
        assert cfg.scheme.dt == 1e-3

    def test_missing_required_field_names_path(self):
        mapping = parse_mapping(BASE.replace("beam.rho1 = 1.0", ""))
        with pytest.raises(ConfigError, match="beam.rho1"):
            build_config(mapping)

    def test_unknown_key_rejected(self):
        mapping = parse_mapping(BASE + "beam.rho3 = 2.0\n")
        with pytest.raises(ConfigError, match="beam.rho3"):
            build_config(mapping)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_mapping(BASE + "beam.rho1 = 2.0\n")

    def test_bad_number_names_path(self):
        mapping = parse_mapping(BASE.replace("scheme.dt = 1e-3", "scheme.dt = fast"))
        with pytest.raises(ConfigError, match="scheme.dt"):
            build_config(mapping)

    def test_contact_laws(self):
        cfg = build_config(parse_mapping(
            BASE + "contact.kind = signorini_penalty\ncontact.eps_pen = 1e-2\n"
            "contact.g_lo = -0.05\ncontact.g_hi = 0.05\n"))
        assert cfg.contact == NormalCompliance(d1=100.0, d2=100.0, p=1,
                                               g_lo=-0.05, g_hi=0.05)
        cfg = build_config(parse_mapping(
            BASE + "contact.kind = normal_compliance\ncontact.d1 = 1\n"
            "contact.d2 = 2\ncontact.p = 2\ncontact.g_lo = -0.1\ncontact.g_hi = 0.1\n"))
        assert isinstance(cfg.contact, NormalCompliance)

    def test_sweep_lists(self):
        cfg = build_config(parse_mapping(
            BASE + "sweep.eps_pen = 1e-1, 1e-2\nsweep.xi = 1/2, 2/3\nsweep.ne = 16,32\n"))
        assert cfg.sweep.eps_pen == (0.1, 0.01)
        assert [str(f) for f in cfg.sweep.xi] == ["1/2", "2/3"]
        assert cfg.sweep.ne == (16, 32)

    @given(overrides=st.dictionaries(
        st.sampled_from(sorted(KEYS) + ["beam.rho3"]), CONFIG_VALUES,
        max_size=6),
        drop=st.sets(st.sampled_from(sorted(BASE_MAP)), max_size=2))
    def test_fuzzed_mapping_raises_only_config_error(self, overrides, drop):
        mapping = {k: v for k, v in BASE_MAP.items() if k not in drop}
        mapping.update(overrides)
        try:
            build_config(mapping)
        except ConfigError:
            pass

    def test_absent_keys_take_the_record_defaults(self):
        cfg = build_config(BASE_MAP)
        assert cfg.tip == 0.0
        assert cfg.force_f == cfg.force_g == ForceLaw()
        assert cfg.init == InitSpec()
        assert cfg.sweep == SweepSpec()
        assert cfg.scheme == SchemeConfig(dt=1e-3)
        assert cfg.contact is None
        assert (cfg.stride, cfg.init.seed, cfg.multiplier_n, cfg.snapshot) == \
            (1, 0, 0, False)

    def test_known_keys_are_pinned(self):
        # each kind builds with every key it reads, so every pinned key is read
        read = set()
        for kind, stop_law in STOP_LAW_KEYS.items():
            mapping = {**EVERY_OTHER_KEY, "contact.kind": kind, **stop_law}
            build_config(mapping)
            read |= set(mapping)
            # a stop-law key of another kind is named with the kind in force
            for other in {k for law in STOP_LAW_KEYS.values() for k in law}:
                if other not in stop_law:
                    with pytest.raises(ConfigError) as exc:
                        build_config({**mapping, other: "1"})
                    assert str(exc.value) == \
                        f"{other}: not read by contact.kind = {kind}"
        assert read == KEYS
        # keys outside the set: every record field under a name that sets
        # none, and a few near misses
        outside = {f"{section}.{f.name}"
                   for section, record in {**SECTIONS, "run": ExperimentConfig,
                                           "mesh": ExperimentConfig}.items()
                   for f in fields(record)} - KEYS
        outside |= {"beam.rho3", "force_f.cutoff_R", "multiplier.m", "mesh",
                    "contact.eps"}
        assert {"run.tip", "run.ne", "run.multiplier_n",
                "mesh.t_final"} <= outside
        for key in outside:
            with pytest.raises(ConfigError, match=re.escape(key)):
                build_config({**BASE_MAP, key: "1"})

    def test_every_field_a_key_sets_has_a_parser(self):
        settable = [f for record in SECTIONS.values() for f in fields(record)]
        settable += [f for f in fields(ExperimentConfig) if f.name in (
            "ne", "t_final", "tip", "stride", "multiplier_n", "snapshot")]
        assert len(settable) == 43  # contact.eps_pen is read outside them
        assert [f.name for f in settable if f.type not in _PARSERS] == []

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "# header\n\n" + BASE + "  # tail\n"))
        assert cfg.t_final == 0.02


def numbered(n, overrides, named):
    """A bad-value case under the id its list position once gave it."""
    return pytest.param(overrides, named, id=f"overrides{n}-{named}")


class TestSimulateCommand:
    def test_zero_data_all_zero_rows_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# schema=")
        header = lines[1].split(",")
        assert header[0] == "t"
        for line in lines[2:]:
            values = [float(x) for x in line.split(",")]
            assert all(v == 0.0 for v in values[1:])

    def test_missing_field_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE.replace("beam.rho1 = 1.0", ""))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "beam.rho1" in capsys.readouterr().err

    # every case has an explicit id, so that no case renames another: a new
    # case takes the key plus the fault, an older one keeps its numbered id
    @pytest.mark.parametrize("overrides, named", [
        numbered(0, {"beam.k": "nan"}, "beam.k"),
        numbered(1, {"contact.kind": "normal_compliance", "contact.d1": "nan",
                     "contact.d2": "1", "contact.g_lo": "-0.1", "contact.g_hi": "0.1"},
                    "contact.d1"),
        numbered(2, {"scheme.dt": "nan"}, "scheme.dt"),
        numbered(3, {"scheme.dt": "inf"}, "scheme.dt"),
        numbered(4, {"run.t_final": "nan"}, "run.t_final"),
        numbered(5, {"sweep.eps_pen": "1e-2, nan"}, "sweep.eps_pen"),
        numbered(6, {"init.kind": "bogus"},
                    "init.kind: unknown initial-data kind 'bogus'"),
        numbered(7, {"init.kind": "mode", "init.mode": "0"}, "init.mode"),
        numbered(8, {"init.kind": "gaussian", "init.width": "0"}, "init.width"),
        numbered(9, {"sweep.ne": "8, 1"}, "sweep.ne"),
        numbered(10, {"sweep.xi": "1/2, 1/1"}, "sweep.xi"),
        numbered(11, {"sweep.eps_pen": "1e-2, 0"}, "sweep.eps_pen"),
        numbered(12, {"sweep.epsilon": "-1e-2"}, "sweep.epsilon"),
        numbered(13, {"sweep.xi": "1/2, 1/0"}, "sweep.xi: bad list entry"),
        numbered(14, {"multiplier.n": "-1"}, "multiplier.n"),
        numbered(15, {"run.t_final": "0.0205"}, "run.t_final"),
        numbered(16, {"init.kind": "random_ball", "init.radius": "-1"}, "init.radius"),
        numbered(17, {"sweep.eps_pen": "1e-2, 1e-2"},
                     "sweep.eps_pen: 0.01 is repeated"),
        numbered(18, {"sweep.xi": "1/2, 2/4"}, "sweep.xi: 1/2 is repeated"),
        numbered(19, {"sweep.ne": "8, 16, 8"}, "sweep.ne: 8 is repeated"),
        numbered(20, {"run.t_final": "1e300", "scheme.dt": "1e-300"}, "run.t_final"),
        numbered(21, {"beam.xi_num": "3"},
                     "beam.xi_num: xi=3/2 * ell must lie strictly inside"),
        numbered(22, {"contact.kind": "normal_compliance", "contact.d1": "1",
                      "contact.d2": "1", "contact.p": "0", "contact.g_lo": "-0.1",
                      "contact.g_hi": "0.1"}, "contact.p"),
        numbered(23, {"beam.rho1": "-1"}, "beam.rho1"),
        numbered(24, {"scheme.newton_max": "0"}, "scheme.newton_max"),
        numbered(25, {"beam.gamma2": "-1"}, "beam.gamma2"),
        numbered(26, {"tip.epsilon": "-1"}, "tip.epsilon"),
        numbered(27, {"contact.kind": "signorini_penalty", "contact.eps_pen": "1e-2",
                      "contact.g_lo": "-0.1", "contact.g_hi": "-0.05"}, "contact.g_hi"),
        numbered(28, {"force_f.mu": "1", "force_f.cutoff_r": "-1"}, "force_f.cutoff_r"),
        # 2/dt**2 underflows to a division by zero, or dt**2 overflows
        numbered(29, {"scheme.dt": "1e-200", "run.t_final": "2e-200",
                      "run.stride": "1"}, "scheme.dt"),
        numbered(30, {"scheme.dt": "1e200", "run.t_final": "1e200"}, "scheme.dt"),
        # exp(n x) overflows at x = ell = 1 past n = 709.78
        numbered(31, {"multiplier.n": "710"}, "multiplier.n"),
        # (2k - 1) pi overflows a float past k = 2**1023
        numbered(32, {"init.kind": "mode", "init.mode": str(2**1024)}, "init.mode"),
        # the observability integrals take at most 10 steps per sample
        numbered(33, OBSERVABILITY_STRIDE_11, "run.stride"),
        # a stop-law key the chosen contact.kind never reads
        numbered(34, {"contact.kind": "signorini_penalty", "contact.eps_pen": "1e-2",
                      "contact.g_lo": "-0.05", "contact.g_hi": "0.05",
                      "contact.d1": "5", "contact.p": "3"}, "contact.d1"),
        numbered(35, {"contact.kind": "normal_compliance", "contact.d1": "100",
                      "contact.d2": "100", "contact.p": "2", "contact.g_lo": "-0.05",
                      "contact.g_hi": "0.05", "contact.eps_pen": "7"},
                     "contact.eps_pen"),
        numbered(36, {"contact.d1": "5", "contact.g_hi": "0.05"}, "contact.d1"),
        numbered(37, {"beam.xi_den": "0"}, "beam.xi_den"),
        numbered(38, {"sweep.epsilon": "0.1, 0.1"}, "sweep.epsilon: 0.1 is repeated"),
        numbered(39, {"mesh.ne": "1"}, "mesh.ne: need at least 2 elements"),
        numbered(40, {"run.stride": "0"}, "run.stride: must be >= 1"),
        numbered(41, {"contact.kind": "normal_compliance", "contact.d1": "0",
                      "contact.d2": "1", "contact.g_lo": "-0.1", "contact.g_hi": "0.1"},
                     "contact.d1: contact stiffness d1 must be positive"),
        numbered(42, {"scheme.newton_tol": "0"},
                     "scheme.newton_tol: newton_tol must be positive"),
        # a boolean is true or false
        pytest.param({"run.snapshot": "yes"}, "run.snapshot: not a boolean: 'yes'",
                     id="run.snapshot-yes"),
        numbered(44, {"contact.kind": "bogus"}, "contact.kind: unknown kind 'bogus'"),
        # None is the absent key, not a spelling
        pytest.param({"init.kind": "gaussian", "init.width": "none"},
                     "init.width", id="init.width-none"),
        # a kind is spelled as written, like init.kind
        pytest.param({"contact.kind": "None"}, "contact.kind: unknown kind 'None'",
                     id="contact.kind-case"),
        # once a ValueError traceback of the random generator
        pytest.param({"init.kind": "random_ball", "run.seed": "-1"},
                     "run.seed: must be >= 0", id="run.seed-negative"),
        # exact fractions inside (0, 1) whose float position is ell or 0: once
        # a ParamError traceback of sweep-xi, while simulate exited 0
        pytest.param({"sweep.xi": f"1/2, {2**54 - 1}/{2**54}"},
                     f"sweep.xi: xi={2**54 - 1}/{2**54} * ell must lie strictly "
                     "inside (0, 1.0)", id="sweep.xi-rounds-to-ell"),
        pytest.param({"sweep.xi": f"1/{10**324}"},
                     f"sweep.xi: xi=1/{10**324} * ell must lie strictly inside",
                     id="sweep.xi-rounds-to-zero"),
    ])
    def test_bad_value_exit_two_names_field(self, tmp_path, capsys, overrides,
                                            named):
        text = "".join(f"{k} = {v}\n" for k, v in {**BASE_MAP, **overrides}.items())
        cfg = write_cfg(tmp_path, text)
        command = ("observability" if overrides is OBSERVABILITY_STRIDE_11
                   else "simulate")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        msg = capsys.readouterr().err.removeprefix("config error: ")
        assert msg.startswith(named)
        # the field key is the only prefix: no section name in front of it
        assert msg.count(named.split(":")[0] + ":") == 1

    @pytest.mark.parametrize("line, message", [
        ("beam.rho1 1.0", "expected key=value, got 'beam.rho1 1.0'"),
        (" = 3", "empty key"),
    ], ids=["no-equals", "empty-key"])
    def test_malformed_line_exit_two_names_line(self, tmp_path, capsys, line,
                                                message):
        cfg = write_cfg(tmp_path, f"{BASE}{line}\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        lineno = len(BASE_MAP) + 1
        assert capsys.readouterr().err == f"config error: line {lineno}: {message}\n"

    def test_tip_body_is_its_epsilon(self, tmp_path, capsys):
        # the tip body has no on/off key, for itself or its damping: epsilon
        # = 0 is no body
        for key in ("tip.enabled", "tip.damping_on"):
            cfg = write_cfg(tmp_path, cfg_text(**{key: "true"}, tip__epsilon="0.1"))
            assert main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == f"config error: unknown field {key}\n"

    def test_sweep_rows_have_no_worker_count(self, tmp_path, capsys):
        # the rows of a sweep run in one process: sweep.workers is gone
        cfg = write_cfg(tmp_path, cfg_text(sweep__xi="1/2", sweep__workers="2"))
        assert main(["sweep-xi", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "config error: unknown field sweep.workers\n"

    def test_damper_location_is_its_fraction(self, tmp_path, capsys):
        # xi_num = 2, xi_den = 4 writes the bytes of 1/2, and no real
        # position overrides the fraction
        outs = []
        for name, num, den in (("half", "1", "2"), ("two-quarters", "2", "4")):
            text = cfg_text(beam__xi_num=num, beam__xi_den=den,
                            init__kind="mode_velocity")
            outs.append(tmp_path / name)
            assert main(["simulate", "--config",
                         write_cfg(tmp_path, text, f"{name}.cfg"),
                         "--out", str(outs[-1])]) == 0
        for path in outs[0].iterdir():
            assert (outs[1] / path.name).read_bytes() == path.read_bytes()
        cfg = write_cfg(tmp_path, cfg_text(beam__xi="0.5"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: unknown field beam.xi\n"

    def test_missing_config_file_exit_io(self, tmp_path, capsys):
        cfg = str(tmp_path / "nope.cfg")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o failure:")
        assert cfg in err

    def test_non_utf8_config_exit_two_names_file_and_byte(self, tmp_path, capsys):
        # once a UnicodeDecodeError traceback (exit 1)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(BASE.encode() + b"beam.rho1 = 1\xff\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == \
            f"config error: {cfg}: not UTF-8 at byte {len(BASE) + 13}\n"

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, cfg_text(
            init__kind="random_ball", init__radius="1.0", run__seed="11",
            run__t_final="0.05"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "summary").read_bytes() == (out2 / "summary").read_bytes()

    def test_newton_divergence_exit_three_with_time(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, cfg_text(
            scheme__dt="0.05", scheme__newton_max="2", run__t_final="0.5",
            tip__epsilon="1e-6",
            contact__kind="signorini_penalty", contact__eps_pen="1e-10",
            contact__g_lo="-0.01", contact__g_hi="0.01",
            init__kind="mode_velocity", init__amplitude="50.0"))
        for command in ("simulate", "observability"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 3
            summary = read_summary(out)
            assert summary["schema"] == "gapbeam-summary-v1"
            assert summary["command"] == command
            assert summary["status"] == "newton_divergence"
            assert float(summary["t_fail"]) > 0.0
            assert float(summary["last_residual"]) > 0.0
            # the message and the summary name one failure time, that of the
            # (sub-)step that failed
            err = capsys.readouterr().err
            assert re.search(r"at t=(\S+):", err)[1] == \
                f"{float(summary['t_fail']):.6g}", err

    def test_one_correction_solves_a_linear_step(self, tmp_path):
        # the residual of the last correction is checked: newton_max = 1
        # once failed the first step with a residual of 1.3e-6
        cfg = write_cfg(tmp_path, cfg_text(scheme__newton_max="1",
                                           init__kind="mode"))
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0

    def test_snapshot_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "run.snapshot = true\n"
                        "init.kind = mode\ninit.amplitude = 0.7\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        u, w, t = load_snapshot(out / "final_state.snap", desk_system(ne=8))
        assert t == pytest.approx(0.02)
        assert u.shape == w.shape == (16,)

    def test_contact_summary_fields(self, tmp_path):
        cfg = write_cfg(tmp_path, cfg_text(
            run__t_final="0.1", contact__kind="normal_compliance",
            contact__d1="100.0", contact__d2="100.0", contact__p="2",
            contact__g_lo="-0.01", contact__g_hi="0.01",
            init__kind="mode_velocity", init__amplitude="0.5"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = read_summary(out)
        assert "constraint_violation" in summary
        assert "complementarity_interior" in summary


class TestSpectrumCommand:
    def test_undamped_abscissa_near_zero(self, tmp_path):
        text = BASE.replace("beam.gamma1 = 1.0", "beam.gamma1 = 0.0") \
                   .replace("beam.gamma2 = 1.0", "beam.gamma2 = 0.0")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        summary = read_summary(out)
        assert abs(float(summary["abscissa"])) < 1e-10
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[1] == "re,im"
        assert len(lines) == 2 + 4 * 8  # pencil dimension rows

    def test_damped_abscissa_negative(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert float(read_summary(out)["abscissa"]) < 0.0

    def test_epsilon_study_table(self, tmp_path, monkeypatch):
        # the model (tip.epsilon = 0) and the non-hybrid row are one spectrum:
        # each distinct epsilon is solved once
        calls = []
        solve = gapbeam.spectral.spectrum
        monkeypatch.setattr("gapbeam.spectral.spectrum",
                            lambda *args: calls.append(1) or solve(*args))
        cfg = write_cfg(tmp_path, cfg_text(sweep__epsilon="1e-1, 1e-2, 1e-3"))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == 4
        lines = (out / "eps_study.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert rows[0][0] == "non-hybrid"
        assert len(rows) == 4
        assert all(float(r[1]) < 0.0 for r in rows)
        summary = read_summary(out)
        assert summary["non_hybrid_abscissa"] == summary["abscissa"]

    def test_model_and_epsilon_tags(self, tmp_path):
        tags = []
        for name, text in (("hybrid", cfg_text(tip__epsilon="0.01")),
                           ("plain", BASE)):
            out = tmp_path / name
            assert main(["spectrum", "--config", write_cfg(tmp_path, text),
                         "--out", str(out)]) == 0
            summary = read_summary(out)
            tags.append((summary["model"], summary["ne"], summary["epsilon"]))
        assert tags == [("hybrid", "8", "0.01"), ("non-hybrid", "8", "")]

    def test_stiff_dampers_with_tip_certify(self, tmp_path):
        # two roots of this spectrum cycle at rounding level instead of meeting
        # the offset tolerance; they stop once their steps no longer shrink
        text = cfg_text(**STIFF_DAMPERS_TIP)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", write_cfg(tmp_path, text),
                     "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["status"] == "ok"
        assert float(summary["abscissa"]) < 0.0


@pytest.mark.parametrize("command, extra, named", [
    ("spectrum", {"mesh.ne": "1200"}, "mesh.ne"),
    ("sweep-xi", {"mesh.ne": "1200", "sweep.xi": "1/2"}, "mesh.ne"),
    ("sweep-xi", {"sweep.xi": "1/2", "sweep.ne": "8, 1001"}, "sweep.ne"),
])
def test_eigensolver_cap_exit_two_names_field(tmp_path, capsys, command, extra, named):
    text = "".join(f"{k} = {v}\n" for k, v in {**BASE_MAP, **extra}.items())
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 2
    msg = capsys.readouterr().err.removeprefix("config error: ")
    assert msg.startswith(named + ": pencil dimension")
    assert "ne = 1000" in msg
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "sweep-xi"])
def test_unknown_initial_kind_exit_two_without_initial_data(tmp_path, capsys,
                                                            command):
    # the spectral commands build no initial data, yet init.kind is checked
    # at load with the other init.* keys
    text = cfg_text(init__kind="bogus", sweep__xi="1/2")
    assert main([command, "--config", write_cfg(tmp_path, text),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "config error: init.kind: unknown initial-data kind 'bogus'\n"


@pytest.mark.parametrize("command, extra", [
    ("simulate", {}),
    ("sweep-xi", {"sweep.xi": "1/2"}),
    ("spectrum", {}),
    ("spectrum", {"beam.k": "1.0", "beam.ell": "1e-300"}),
    ("sweep-xi", {"beam.k": "1.0", "beam.ell": "1e-300",
                  "sweep.xi": "1/2, 2/3"}),
])
def test_unusable_operator_exit_two(tmp_path, capsys, command, extra):
    # a finite but huge shear stiffness leaves no positive definite operator;
    # a finite but tiny length overflows the operators' entries, also in the
    # rows of a sweep; the message names the keys the operator is built from
    text = "".join(f"{k} = {v}\n" for k, v in
                   {**BASE_MAP, "beam.k": "1e300", **extra}.items())
    assert main([command, "--config", write_cfg(tmp_path, text),
                 "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert ("non-finite entry" if "beam.ell" in extra
            else "not positive definite") in err
    assert "beam.k" in err and "beam.ell" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["spectrum", "sweep-xi"])
@pytest.mark.parametrize("extra", [{"beam.gamma1": "1e300"},
                                   {"beam.rho1": "1e-300"}])
def test_overflowing_secular_weights_exit_two(tmp_path, capsys, command, extra):
    # the dissipative generator has no root with Re lam > 0; weights beyond
    # the modal form's range are a config error, not a positive abscissa
    text = "".join(f"{k} = {v}\n" for k, v in
                   {**BASE_MAP, "sweep.xi": "1/2", **extra}.items())
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: secular weights")
    assert [*extra][0] in err  # the key that overflows them
    assert "Traceback" not in err
    assert not (out / "summary").exists()


@pytest.mark.parametrize("command, extra, row", [
    ("spectrum", {"tip.epsilon": "0.01"},
     "ne=8, xi=1/2, epsilon=0.01"),
    ("sweep-xi", {"sweep.xi": "1/2, 2/3", "sweep.ne": "8, 16"},
     "ne=16, xi=2/3"),
])
def test_certificate_failure_exit_three_names_row(tmp_path, capsys, monkeypatch,
                                                  command, extra, row):
    # a root set that fails its certificate is a solver failure; the message
    # names the row and the check, also when it is a sweep's last row (the
    # fourth, xi = 2/3 at ne = 16) and three rows certified before it
    calls = []

    def fail(omega, Q, delta):
        calls.append(1)
        if command == "spectrum" or len(calls) == 4:
            raise SpectrumCertificateError("trace: the roots give 1, the "
                                           "modal form 2")

    monkeypatch.setattr("gapbeam.spectral.certify", fail)
    text = "".join(f"{k} = {v}\n" for k, v in {**BASE_MAP, **extra}.items())
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"solver failure: spectrum at {row} failed its "
                          "certificate: trace:")
    assert read_summary(out)["status"] == "certificate_failure"
    assert not (out / "spectrum.csv").exists()
    assert not (out / "xi_study.csv").exists()


def test_roots_that_keep_moving_exit_three(tmp_path, capsys, monkeypatch):
    # the root stage gives up when the roots still move after _MAX_SWEEPS
    # sweeps, mirrored and then over both half-planes
    monkeypatch.setattr("gapbeam.spectral._MAX_SWEEPS", 1)
    out = tmp_path / "o"
    assert main(["spectrum", "--config", write_cfg(tmp_path, BASE),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "solver failure: spectrum at ne=8, xi=1/2 failed its certificate: "
        "convergence: roots still moving after 1 sweeps at damping scale 1\n")
    assert read_summary(out)["status"] == "certificate_failure"


@pytest.mark.parametrize("command, extra", [
    ("simulate", {}),
    ("sweep-eps", {"contact.kind": "signorini_penalty", "contact.eps_pen": "1e-2",
                   "contact.g_lo": "-0.05", "contact.g_hi": "0.05",
                   "sweep.eps_pen": "1e-1, 1e-2"}),
    ("sweep-xi", {"sweep.xi": "1/2, 2/3", "sweep.ne": "8, 16"}),
    ("spectrum", {"sweep.epsilon": "1e-1, 1e-2"}),
    ("observability", {"run.stride": "5"}),
], ids=["simulate", "sweep-eps", "sweep-xi", "spectrum", "observability"])
def test_commands_run_with_scipy_blocked(tmp_path, command, extra):
    # every command runs, sweeps included, in an interpreter where importing
    # scipy, numpy.ma or a process-pool module fails
    text = "".join(f"{k} = {v}\n" for k, v in {**BASE_MAP, **extra}.items())
    argv = [command, "--config", write_cfg(tmp_path, text), "--out",
            str(tmp_path / "o")]
    code = ("import sys\n"
            "for name in ('scipy', 'numpy.ma', 'multiprocessing',\n"
            "             'concurrent.futures'):\n"
            "    sys.modules[name] = None\n"
            "from gapbeam.cli import main\n"
            f"print(main({argv!r}))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gapbeam.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "0"


def test_console_script_returns_the_exit_code(tmp_path, monkeypatch):
    # the installed wrapper calls the [project.scripts] target with no
    # arguments and passes what it returns to sys.exit
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gapbeam"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(sys, "argv", [
        "gapbeam", "spectrum", "--config", write_cfg(tmp_path, BASE),
        "--out", str(tmp_path / "o")])
    assert entry() == 0
    assert read_summary(tmp_path / "o")["status"] == "ok"


class TestSweepXiCommand:
    def test_verdict_table(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "sweep.xi = 1/2, 2/3\nsweep.ne = 8,16\n")
        out = tmp_path / "out"
        assert main(["sweep-xi", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "xi_study.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        verdicts = {(r[0], r[1]): r[4] for r in rows}
        assert verdicts[("1", "2")] == "stabilizing"
        assert verdicts[("2", "3")] == "excluded"

    def test_empty_axis_exit_two(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        assert main(["sweep-xi", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_rows_do_not_depend_on_blas_threads(self, tmp_path):
        # one process per BLAS thread count, both at once: the artifacts are
        # a function of the config alone, not of the shell that ran it
        cfg = write_cfg(tmp_path, cfg_text(sweep__xi="1/2, 2/3",
                                           sweep__ne="64, 160"))
        runs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(gapbeam.__file__).parents[1]))
            out = tmp_path / f"threads{threads}"
            runs[out] = subprocess.Popen(
                [sys.executable, "-m", "gapbeam.cli", "sweep-xi", "--config",
                 cfg, "--out", str(out)], env=env, stdout=subprocess.DEVNULL)
        for out, run in runs.items():
            assert run.wait(timeout=120) == 0
        one, two = ([(out / name).read_bytes()
                     for name in ("xi_study.csv", "summary")] for out in runs)
        assert one == two


class TestSweepEpsCommand:
    CONTACT = dict(
        contact__kind="signorini_penalty", contact__eps_pen="1e-2",
        contact__g_lo="-0.05", contact__g_hi="0.05", force_f__f0="0.25",
        run__t_final="2.0", run__stride="20", sweep__eps_pen="1e-1, 1e-2")

    def test_two_row_sweep_monotone(self, tmp_path):
        cfg = write_cfg(tmp_path, cfg_text(**self.CONTACT))
        out = tmp_path / "out"
        assert main(["sweep-eps", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2
        assert all(r[1] == "ok" for r in rows)
        v = [float(r[2]) for r in rows]
        assert v[0] > v[1] > 0.0
        assert rows[1][-1] == "yes"
        assert (out / "eps_0.1" / "trajectory.csv").exists()
        assert (out / "eps_0.01" / "trajectory.csv").exists()

    def test_needs_penalty_law(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "sweep.eps_pen = 1e-1\n")
        assert main(["sweep-eps", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2

    def test_empty_axis_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, cfg_text(**PENALTY_STOPS))
        assert main(["sweep-eps", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "config error: sweep.eps_pen: empty axis for sweep-eps\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, code, named", [
        pytest.param(COMPLIANCE_P1, 0, None, id="p1-compliance"),
        pytest.param(dict(COMPLIANCE_P1, contact__p="2"), 2, "contact.kind",
                     id="p2-compliance"),
        pytest.param(dict(COMPLIANCE_P1, contact__d2="5"), 2, "contact.kind",
                     id="unequal-stiffnesses"),
        pytest.param(dict(COMPLIANCE_P1, tip__epsilon="0.1"), 2, "tip.epsilon",
                     id="tip-epsilon"),
        pytest.param(dict(COMPLIANCE_P1, tip__epsilon="0"), 0, None,
                     id="tip-epsilon-zero"),
    ])
    def test_base_law_is_a_penalty_law(self, tmp_path, capsys, overrides, code,
                                       named):
        # the rows vary eps_pen, so the base must be p = 1 with d1 = d2, and
        # each row's eps_pen is its tip body's epsilon, so tip.epsilon is 0
        cfg = write_cfg(tmp_path, cfg_text(sweep__eps_pen="1e-1", **overrides))
        assert main(["sweep-eps", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == code
        if named:
            assert capsys.readouterr().err.startswith(f"config error: {named}: ")
            assert not (tmp_path / "o").exists()

    def test_degenerate_fit_row_says_why(self, tmp_path):
        # zero data: every energy is 0, so no decay rate can be fitted
        cfg = write_cfg(tmp_path, cfg_text(sweep__eps_pen="1e-1, 1e-2",
                                           **PENALTY_STOPS))
        out = tmp_path / "out"
        assert main(["sweep-eps", "--config", cfg, "--out", str(out)]) == 0
        for row in ("eps_0.1", "eps_0.01"):
            summary = read_summary(out / row)
            assert (summary["status"], summary["gamma_state"]) == ("ok", "nan")
            assert summary["fit_status"] == \
                "degenerate (nonpositive energies in the decay window)"

    def test_partial_table_on_divergence(self, tmp_path):
        cfg = write_cfg(tmp_path, cfg_text(
            scheme__dt="0.05", scheme__newton_max="2", run__t_final="0.5",
            contact__kind="signorini_penalty", contact__eps_pen="1e-2",
            contact__g_lo="-0.01", contact__g_hi="0.01",
            init__kind="mode_velocity", init__amplitude="50.0",
            sweep__eps_pen="1e-1, 1e-10"))
        out = tmp_path / "out"
        assert main(["sweep-eps", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        statuses = {r[0]: r[1] for r in rows}
        assert statuses["1e-10"] == "diverged"
        summary = read_summary(out)
        assert summary["status"] == "partial"


def test_penalty_is_its_p1_compliance_law(tmp_path):
    outs = []
    for name, overrides in (("penalty", PENALTY_QUARTER),
                            ("compliance", COMPLIANCE_P1)):
        cfg = write_cfg(tmp_path, cfg_text(**overrides), f"{name}.cfg")
        outs.append(tmp_path / name)
        assert main(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
    assert float(read_summary(outs[0])["constraint_violation"]) > 0.0
    for artifact in ("trajectory.csv", "summary"):
        assert (outs[0] / artifact).read_bytes() == \
            (outs[1] / artifact).read_bytes()


# an eps_pen, as the base law's and as a sweep entry; the message after the
# key is the same for both
EPS_PEN_MESSAGES = [
    ("", "5e-324", "eps_pen=5e-324 puts 1/eps_pen out of float range"),
    ("-zero", "0", "eps_pen must be positive, got 0.0"),
    ("-negative", "-1e-2", "eps_pen must be positive, got -0.01"),
]


@pytest.mark.parametrize("command, overrides, named, message", [
    pytest.param(command, dict(PENALTY_STOPS, **{key.replace(".", "__"): value}),
                 key, message, id=side + suffix)
    for suffix, eps_pen, message in EPS_PEN_MESSAGES
    for side, command, key, value in (
        ("contact", "simulate", "contact.eps_pen", eps_pen),
        ("sweep", "sweep-eps", "sweep.eps_pen", f"1e-1, {eps_pen}"))])
def test_overflowing_penalty_stiffness_exit_two(tmp_path, capsys, command,
                                               overrides, named, message):
    # 1/eps_pen overflows below about 5.6e-309: such a law once ran to a
    # nan residual, and such a sweep row diverged
    cfg = write_cfg(tmp_path, cfg_text(**overrides))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {named}: {message}\n"


class TestObservabilityCommand:
    def test_zero_data_zero_defects(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "run.stride = 5\n")
        out = tmp_path / "out"
        assert main(["observability", "--config", cfg, "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["status"] == "zero_data"
        assert float(summary["defect_ell"]) == 0.0
        assert float(summary["defect_0"]) == 0.0
        lines = (out / "observability.csv").read_text().splitlines()
        assert lines[1] == "t,I_ell,I_0,L,L0"

    def test_mode_data_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, cfg_text(
            init__kind="mode", init__amplitude="1.0", run__stride="5",
            run__t_final="0.5"))
        out = tmp_path / "out"
        assert main(["observability", "--config", cfg, "--out", str(out)]) == 0
        assert float(read_summary(out)["c0_measured"]) > 0.0


@pytest.mark.parametrize("overrides, figure",
                         NON_FINITE_OBSERVABILITY.values(),
                         ids=NON_FINITE_OBSERVABILITY.keys())
def test_non_finite_observability_figure_exit_three(tmp_path, capsys, overrides,
                                                    figure):
    out = tmp_path / "out"
    assert main(["observability", "--config",
                 write_cfg(tmp_path, cfg_text(**overrides)),
                 "--out", str(out)]) == 3
    summary = read_summary(out)
    assert summary["status"] == f"non_finite_{figure}"
    assert not np.isfinite(float(summary[figure]))
    assert f"{figure} = " in capsys.readouterr().err


FIT_KEYS = ["samples", "E_initial", "E_final", "fit_status", "gamma_E",
            "gamma_state", "fit_c", "fit_r2", "fit_window_lo", "fit_window_hi"]
DIVERGING = dict(
    scheme__dt="0.05", scheme__newton_max="2", run__t_final="0.5",
    contact__kind="signorini_penalty", contact__eps_pen="1e-2",
    contact__g_lo="-0.01", contact__g_hi="0.01", init__kind="mode_velocity",
    init__amplitude="50.0")


@pytest.mark.parametrize("command, overrides, summaries", [
    ("simulate", dict(init__kind="mode"), {"summary": FIT_KEYS}),
    ("simulate", dict(
        run__t_final="0.1", contact__kind="normal_compliance",
        contact__d1="100.0", contact__d2="100.0", contact__p="2",
        contact__g_lo="-0.01", contact__g_hi="0.01",
        init__kind="mode_velocity", init__amplitude="0.5"),
     {"summary": FIT_KEYS + [
         "constraint_violation", "complementarity_interior",
         "complementarity_upper", "complementarity_lower",
         "complementarity_violation", "complementarity_worst_t",
         "complementarity_worst_v", "complementarity_worst_S"]}),
    ("sweep-eps", dict(DIVERGING, sweep__eps_pen="1e-1, 1e-10"),
     {"summary": ["rows", "rows_ok"],
      "eps_0.1/summary": [
          "eps_pen", "status", "violation", "sup_S_ell", "gamma_state",
          "compl_interior", "compl_upper", "compl_lower", "compl_violations",
          "tol_S", "tol_g", "fit_status"],
      "eps_1e-10/summary": ["status", "t_fail"]}),
    ("sweep-xi", dict(sweep__xi="1/2, 2/3"),
     {"summary": ["rows", "trend_toward_zero_1_2", "trend_toward_zero_2_3"]}),
    ("spectrum", {},
     {"summary": ["model", "ne", "epsilon", "abscissa", "min_damping_gap",
                  "n_eigenvalues"]}),
    ("spectrum", dict(sweep__epsilon="1e-1, 1e-2"),
     {"summary": ["model", "ne", "epsilon", "abscissa", "min_damping_gap",
                  "n_eigenvalues", "non_hybrid_abscissa"]}),
    ("observability", dict(run__stride="5"),
     {"summary": ["defect_ell", "defect_0", "ratio_ell_to_E0",
                  "ratio_0_to_E0", "c0_measured", "c1_measured"]}),
    ("simulate", dict(DIVERGING, contact__eps_pen="1e-10", tip__epsilon="1e-6"),
     {"summary": ["t_fail", "last_residual"]}),
], ids=["simulate", "simulate-contact", "sweep-eps-partial", "sweep-xi",
        "spectrum", "spectrum-eps-study", "observability",
        "newton-divergence"])
def test_summary_key_lists(tmp_path, command, overrides, summaries):
    # the gapbeam-summary-v1 keys and their order, envelope first; a sweep
    # row's own summary carries no envelope
    out = tmp_path / "out"
    code = main([command, "--config", write_cfg(tmp_path, cfg_text(**overrides)),
                 "--out", str(out)])
    assert code == (3 if "last_residual" in summaries["summary"] else 0)
    envelope = ["schema", "command", "status"]
    for name, keys in summaries.items():
        lines = (out / name).read_text().splitlines()
        expected = envelope + keys if name == "summary" else keys
        assert [line.split("=", 1)[0] for line in lines] == expected
    summary = read_summary(out)
    assert (summary["schema"], summary["command"]) == \
        ("gapbeam-summary-v1", command)
    if command == "sweep-eps":
        assert summary["status"] == "partial"
        assert (out / "sweep.csv").read_text().splitlines()[1] == (
            "eps_pen,status,violation,sup_S_ell,gamma_state,compl_interior,"
            "compl_upper,compl_lower,compl_violations,violation_decreasing")


def test_c07_ulp_probe_imports(tmp_path):
    # tools/c07_ulp_probe.py runs _sweep_eps_row outside the CLI and reads
    # these two keys of its row
    spec = importlib.util.spec_from_file_location(
        "c07_ulp_probe", Path(__file__).parents[1] / "tools" / "c07_ulp_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    cfg = build_config(parse_mapping(cfg_text(
        contact__kind="signorini_penalty", contact__eps_pen="1e-2",
        contact__g_lo="-0.05", contact__g_hi="0.05")))
    row = probe._sweep_eps_row(cfg, 1e-2, tmp_path / "row")
    assert (row["status"], row["compl_violations"]) == ("ok", 0)
    assert "sweep.eps_pen" in probe.SWEEP_CFG


def test_secular_probe_imports():
    # tools/secular_probe.py draws its configs on xi-study's beam and runs
    # mesh_spectrum on each
    spec = importlib.util.spec_from_file_location(
        "secular_probe", Path(__file__).parents[1] / "tools" / "secular_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    beam = load_config(probe.ROOT / "bench" / "configs" / "xi-study.cfg").beam
    runs = list(probe.configs(beam))
    assert len(runs) == probe.DRAWS == 400
    assert {(b.rho1, b.rho2, b.k, b.b, b.ell) for b, _, _ in runs} == \
        {(1.0, 1.0, 1.0, 1.0, 1.0)}
    b, eps, ne = runs[0]
    assert probe.mesh_spectrum(b, eps, ne).size == 4 * ne


def test_artifact_digests_imports(tmp_path):
    # tools/artifact_digests.py: every reference config but penalty-unread-d1
    # is valid, each runs once, and a run's line is the same on a second run
    tool = digest_tool()
    runs = tool.reference_runs()
    names = [name for name, _, _ in runs]
    assert len(set(names)) == len(names) == 25
    assert {"c07", "xi-study", "observability-n3", "penalty"} <= set(names)
    for name, _, mapping in runs:
        if name == "penalty-unread-d1":
            with pytest.raises(ConfigError, match="^contact.d1: "):
                build_config(mapping)
        else:
            build_config(mapping)
    run = next(r for r in runs if r[0] == "observability")
    for d in "ab":
        (tmp_path / d).mkdir()
    first, second = (tool.digest_line(*run, tmp_path / d) for d in "ab")
    assert first == second
    assert first.split()[:2] == ["observability", "0"]


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
def test_tip_epsilon_zero_is_the_traction_free_end(tmp_path, command):
    # epsilon = 0 writes the bytes of a config with no tip.* key
    outs = []
    for name, overrides in (("zero", dict(tip__epsilon="0")), ("none", {})):
        text = cfg_text(init__kind="mode_velocity", **overrides)
        outs.append(tmp_path / name)
        assert main([command, "--config", write_cfg(tmp_path, text, f"{name}.cfg"),
                     "--out", str(outs[-1])]) == 0
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_overflowing_energy_is_a_solver_failure(tmp_path, capsys):
    # simulate once exited 0 with E_initial = inf and fit_status = ok; it
    # exits 3 naming the energy and its first non-finite sample, after
    # writing the trajectory, and a sweep row diverges at that sample
    out = tmp_path / "simulate"
    assert main(["simulate", "--config",
                 write_cfg(tmp_path, cfg_text(**ENERGY_OVERFLOW)),
                 "--out", str(out)]) == 3
    assert (out / "summary").read_text().splitlines() == [
        "schema=gapbeam-summary-v1", "command=simulate",
        "status=non_finite_E_total", "E_total=inf", "t_fail=0"]
    assert "E_total = inf is not finite" in capsys.readouterr().err
    assert (out / "trajectory.csv").read_text().splitlines()[2].split(",")[1] \
        == "inf"
    text = cfg_text(**ENERGY_OVERFLOW, **PENALTY_STOPS, sweep__eps_pen="1e-1")
    out = tmp_path / "sweep"
    assert main(["sweep-eps", "--config", write_cfg(tmp_path, text, "sweep.cfg"),
                 "--out", str(out)]) == 0
    assert read_summary(out)["status"] == "diverged"
    assert read_summary(out / "eps_0.1") == {"status": "diverged", "t_fail": "0"}


def test_overflowing_tip_energy_is_a_solver_failure(tmp_path):
    # the squares of a huge tip deflection and velocity are inf, not an
    # OverflowError: simulate exits 3 and the sweep row diverges
    huge = dict(init__kind="mode_velocity", init__amplitude="1e200")
    out = tmp_path / "simulate"
    assert main(["simulate", "--config",
                 write_cfg(tmp_path, cfg_text(**huge, tip__epsilon="0.1")),
                 "--out", str(out)]) == 3
    assert read_summary(out)["status"] == "newton_divergence"
    # the row's tip body is its eps_pen
    text = cfg_text(**huge, contact__kind="signorini_penalty",
                    contact__eps_pen="1e-2", contact__g_lo="-0.05",
                    contact__g_hi="0.05", sweep__eps_pen="1e-2")
    out = tmp_path / "sweep"
    assert main(["sweep-eps", "--config", write_cfg(tmp_path, text, "sweep.cfg"),
                 "--out", str(out)]) == 0
    assert read_summary(out)["status"] == "diverged"
    assert (out / "sweep.csv").read_text().splitlines()[2].split(",")[1] == \
        "diverged"


@pytest.mark.parametrize("command, overrides, code, err", [
    ("simulate", ENERGY_OVERFLOW, 3,
     "solver failure: E_total = inf is not finite\n"),
    ("sweep-eps", dict(ENERGY_OVERFLOW, **PENALTY_STOPS,
                       sweep__eps_pen="1e-1, 1e-2"), 0, ""),
], ids=["simulate", "sweep-eps"])
def test_overflow_writes_only_the_contract_message(tmp_path, capsys, command,
                                                   overrides, code, err):
    # the status reports the overflow; numpy's RuntimeWarnings once went to
    # stderr beside it, seven from simulate alone
    cfg = write_cfg(tmp_path, cfg_text(**overrides))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == err


# the exit-code property: any key of a config, numbers over the whole double
# range, but a run stays small: ne <= 8, a few steps, at most 50 Newton
# corrections and at most 3 entries in a sweep list
_DOUBLE = st.floats(allow_nan=False, allow_infinity=False)
_WHOLE = st.integers(-2**1024, 2**1024)     # the integers of the double range
_FRACTION = st.builds("{}/{}".format, _WHOLE, _WHOLE)


def _listed(entries):
    return st.lists(entries, min_size=1, max_size=3).map(
        lambda values: ", ".join(map(str, values)))


_FLOAT_KEYS = (
    "beam.rho1", "beam.rho2", "beam.k", "beam.b", "beam.ell", "beam.gamma1",
    "beam.gamma2", "tip.epsilon", "contact.d1", "contact.d2", "contact.g_lo",
    "contact.g_hi", "contact.eps_pen", "force_f.mu", "force_f.alpha",
    "force_f.cutoff_r", "force_f.f0", "force_g.mu", "force_g.alpha",
    "force_g.cutoff_r", "force_g.f0", "scheme.newton_tol", "init.amplitude",
    "init.amplitude_psi", "init.center", "init.width", "init.radius")
_KEY_VALUES = {
    **{key: _DOUBLE.map(repr) for key in _FLOAT_KEYS},
    **{key: _WHOLE.map(str) for key in (
        "beam.xi_num", "beam.xi_den", "contact.p", "run.stride", "run.seed",
        "init.mode", "multiplier.n")},
    "run.snapshot": st.sampled_from(["true", "false"]),
    "contact.kind": st.sampled_from(
        ["none", "normal_compliance", "signorini_penalty"]),
    "init.kind": st.sampled_from(
        ["zero", "mode", "mode_velocity", "gaussian", "random_ball"]),
    "mesh.ne": st.integers(-1, 8).map(str),
    "scheme.newton_max": st.integers(-1, 50).map(str),
    "sweep.eps_pen": _listed(_DOUBLE.map(repr)),
    "sweep.epsilon": _listed(_DOUBLE.map(repr)),
    # k/(k+1) and 1/2**k for large k round onto the ends as floats
    "sweep.xi": _listed(st.one_of(
        _FRACTION, st.integers(2**50, 2**60).map(lambda k: f"{k}/{k + 1}"),
        st.integers(1000, 1100).map(lambda k: f"1/{2**k}"))),
    "sweep.ne": _listed(st.integers(-1, 8)),
}
# what each command needs to get past its own checks
_COMMAND_BASES = {
    "simulate": {},
    "sweep-eps": {"contact.kind": "signorini_penalty", "contact.eps_pen": "1e-2",
                  "contact.g_lo": "-0.05", "contact.g_hi": "0.05",
                  "sweep.eps_pen": "1e-1, 1e-2"},
    "sweep-xi": {"sweep.xi": "1/2, 2/3"},
    "spectrum": {},
    "observability": {"init.kind": "mode"},
}


@st.composite
def _cli_configs(draw):
    """(command, config mapping): a base, up to 4 drawn keys, a short run."""
    command = draw(st.sampled_from(sorted(_COMMAND_BASES)))
    keys = draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)), max_size=4,
                         unique=True))
    mapping = {**BASE_MAP, **_COMMAND_BASES[command],
               **{key: draw(_KEY_VALUES[key]) for key in keys}}
    if draw(st.booleans()):
        # a few steps of any size; the product may overflow or round
        dt = draw(_DOUBLE)
        mapping.update({"scheme.dt": repr(dt),
                        "run.t_final": repr(draw(st.integers(0, 4)) * dt)})
    return command, mapping


@given(_cli_configs())
def test_any_finite_config_exits_with_a_contract_code(tmp_path_factory, case):
    command, mapping = case
    tmp = tmp_path_factory.mktemp("property")
    cfg = write_cfg(tmp, "".join(f"{k} = {v}\n" for k, v in mapping.items()))
    assert main([command, "--config", cfg, "--out", str(tmp / "o")]) in (0, 2, 3, 4)
