import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gapbeam
from gapbeam.artifacts import load_snapshot, save_snapshot
from gapbeam.cli import main
from gapbeam.config import (_KNOWN, ConfigError, build_config, load_config,
                            parse_mapping)
from gapbeam.model import NormalCompliance, SignoriniPenalty
from gapbeam.timestep import State

BASE_MAP = {
    "beam.rho1": "1.0", "beam.rho2": "1.0", "beam.k": "1.0", "beam.b": "1.0",
    "beam.ell": "1.0", "beam.gamma1": "1.0", "beam.gamma2": "1.0",
    "beam.xi_num": "1", "beam.xi_den": "2",
    "mesh.ne": "8", "scheme.dt": "1e-3", "run.t_final": "0.02",
}

BASE = "".join(f"{k} = {v}\n" for k, v in BASE_MAP.items())


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

    def test_xi_real_override(self):
        text = BASE.replace("beam.xi_num = 1\n", "").replace("beam.xi_den = 2\n", "")
        cfg = build_config(parse_mapping(text + "beam.xi = 0.4142135\n"))
        assert cfg.beam.xi_fraction is None
        assert cfg.beam.xi == pytest.approx(0.4142135)

    def test_xi_requires_exactly_one_form(self):
        with pytest.raises(ConfigError, match="beam.xi"):
            build_config(parse_mapping(BASE + "beam.xi = 0.3\n"))
        text = BASE.replace("beam.xi_num = 1\n", "").replace("beam.xi_den = 2\n", "")
        with pytest.raises(ConfigError, match="beam.xi"):
            build_config(parse_mapping(text))

    def test_contact_laws(self):
        cfg = build_config(parse_mapping(
            BASE + "contact.kind = signorini_penalty\ncontact.eps_pen = 1e-2\n"
            "contact.g_lo = -0.05\ncontact.g_hi = 0.05\n"))
        assert isinstance(cfg.contact, SignoriniPenalty)
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
        st.sampled_from(sorted(_KNOWN) + ["beam.rho3"]), CONFIG_VALUES,
        max_size=6),
        drop=st.sets(st.sampled_from(sorted(BASE_MAP)), max_size=2))
    def test_fuzzed_mapping_raises_only_config_error(self, overrides, drop):
        mapping = {k: v for k, v in BASE_MAP.items() if k not in drop}
        mapping.update(overrides)
        try:
            build_config(mapping)
        except ConfigError:
            pass

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "# header\n\n" + BASE + "  # tail\n"))
        assert cfg.t_final == 0.02


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

    @pytest.mark.parametrize("overrides, named", [
        ({"beam.k": "nan"}, "beam.k"),
        ({"contact.kind": "normal_compliance", "contact.d1": "nan",
          "contact.d2": "1", "contact.g_lo": "-0.1", "contact.g_hi": "0.1"},
         "contact.d1"),
        ({"scheme.dt": "nan"}, "scheme.dt"),
        ({"scheme.dt": "inf"}, "scheme.dt"),
        ({"run.t_final": "nan"}, "run.t_final"),
        ({"sweep.eps_pen": "1e-2, nan"}, "sweep.eps_pen"),
        ({"init.kind": "bogus"}, "init: unknown initial-data kind 'bogus'"),
        ({"init.kind": "mode", "init.mode": "0"}, "init: mode"),
        ({"init.kind": "gaussian", "init.width": "0"}, "init.width"),
        ({"sweep.ne": "8, 1"}, "sweep.ne"),
        ({"sweep.xi": "1/2, 1/1"}, "sweep.xi"),
        ({"sweep.eps_pen": "1e-2, 0"}, "sweep.eps_pen"),
        ({"sweep.epsilon": "-1e-2"}, "sweep.epsilon"),
        ({"sweep.workers": "-3"}, "sweep.workers"),
        ({"multiplier.n": "-1"}, "multiplier.n"),
        ({"run.t_final": "0.0205"}, "run.t_final"),
        ({"init.kind": "random_ball", "init.radius": "-1"}, "init.radius"),
        ({"sweep.eps_pen": "1e-2, 1.0000000001e-2"},
         "sweep.eps_pen: 0.01 and 0.010000000001 share"),
        ({"sweep.xi": "1/2, 2/4"}, "sweep.xi: 1/2 is repeated"),
        ({"sweep.ne": "8, 16, 8"}, "sweep.ne: 8 is repeated"),
        ({"run.t_final": "1e300", "scheme.dt": "1e-300"}, "run.t_final"),
        ({"beam.xi_num": "3"},
         "beam.xi_num/beam.xi_den: xi=1.5 must lie strictly inside"),
        ({"contact.kind": "normal_compliance", "contact.d1": "1",
          "contact.d2": "1", "contact.p": "0", "contact.g_lo": "-0.1",
          "contact.g_hi": "0.1"}, "contact.p"),
        ({"beam.rho1": "-1"}, "beam.rho1"),
        ({"scheme.newton_max": "0"}, "scheme.newton_max"),
        ({"beam.gamma2": "-1"}, "beam.gamma2"),
        ({"tip.enabled": "true", "tip.epsilon": "0"}, "tip.epsilon"),
        ({"contact.kind": "penalty", "contact.eps_pen": "1e-2",
          "contact.g_lo": "-0.1", "contact.g_hi": "-0.05"}, "contact.g_hi"),
        ({"force_f.mu": "1", "force_f.cutoff_r": "-1"}, "force_f.cutoff_r"),
    ])
    def test_bad_value_exit_two_names_field(self, tmp_path, capsys, overrides,
                                            named):
        text = "".join(f"{k} = {v}\n" for k, v in {**BASE_MAP, **overrides}.items())
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        msg = capsys.readouterr().err.removeprefix("config error: ")
        assert msg.startswith(named)
        # the field key is the only prefix: no section name in front of it
        assert msg.count(named.split(":")[0] + ":") == 1

    def test_missing_config_file_exit_io(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 4

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

    def test_newton_divergence_exit_three_with_time(self, tmp_path):
        cfg = write_cfg(tmp_path, cfg_text(
            scheme__dt="0.05", scheme__newton_max="2", run__t_final="0.5",
            tip__enabled="true", tip__epsilon="1e-6",
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

    def test_snapshot_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "run.snapshot = true\n"
                        "init.kind = mode\ninit.amplitude = 0.7\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        snap = load_snapshot(out / "final_state.snap")
        assert snap.t == pytest.approx(0.02)
        assert snap.phi.shape == (9,)

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


class TestSnapshotFormat:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        state = State(rng.standard_normal(9), rng.standard_normal(9),
                      rng.standard_normal(9), rng.standard_normal(9), t=1.25)
        path = tmp_path / "s.snap"
        save_snapshot(path, state)
        back = load_snapshot(path)
        assert back.t == state.t
        for a, b in ((back.phi, state.phi), (back.psi, state.psi),
                     (back.phi_t, state.phi_t), (back.psi_t, state.psi_t)):
            assert a.tobytes() == b.tobytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"not a snapshot")
        with pytest.raises(ValueError):
            load_snapshot(path)


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

    def test_epsilon_study_table(self, tmp_path):
        cfg = write_cfg(tmp_path, cfg_text(sweep__epsilon="1e-1, 1e-2, 1e-3"))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "eps_study.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert rows[0][0] == "non-hybrid"
        assert len(rows) == 4
        assert all(float(r[1]) < 0.0 for r in rows)


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
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, extra, artifacts", [
    ("sweep-xi", {"sweep.xi": "1/2, 2/3", "sweep.ne": "8, 16, 24"},
     ("xi_study.csv", "summary")),
    ("spectrum", {"sweep.epsilon": "1e-1, 1e-2, 1e-3"},
     ("spectrum.csv", "eps_study.csv", "summary")),
])
def test_sweep_rows_do_not_depend_on_workers(tmp_path, command, extra,
                                             artifacts):
    outputs = []
    for workers in ("1", "2", "3", None):
        entries = {**BASE_MAP, **extra}
        if workers is not None:
            entries["sweep.workers"] = workers
        text = "".join(f"{k} = {v}\n" for k, v in entries.items())
        out = tmp_path / f"out{workers}"
        assert main([command, "--config",
                     write_cfg(tmp_path, text, name=f"{workers}.cfg"),
                     "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in artifacts])
    assert all(o == outputs[0] for o in outputs[1:])


@pytest.mark.parametrize("command, extra", [
    ("simulate", {}),
    ("sweep-eps", {"contact.kind": "signorini_penalty", "contact.eps_pen": "1e-2",
                   "contact.g_lo": "-0.05", "contact.g_hi": "0.05",
                   "sweep.eps_pen": "1e-1, 1e-2", "sweep.workers": "2"}),
    ("sweep-xi", {"sweep.xi": "1/2, 2/3", "sweep.ne": "8, 16",
                  "sweep.workers": "2"}),
    ("spectrum", {"sweep.epsilon": "1e-1, 1e-2", "sweep.workers": "2"}),
    ("observability", {"run.stride": "5"}),
], ids=["simulate", "sweep-eps", "sweep-xi", "spectrum", "observability"])
def test_commands_run_with_scipy_blocked(tmp_path, command, extra):
    # every command runs, sweeps on two processes included, in an interpreter
    # where importing scipy, numpy.ma or a process-pool module fails
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

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = write_cfg(tmp_path, cfg_text(sweep__workers="1", **self.CONTACT))
        out1, out2 = tmp_path / "serial", tmp_path / "pool"
        pool = write_cfg(tmp_path, cfg_text(sweep__workers="2", **self.CONTACT),
                         name="pool.cfg")
        assert main(["sweep-eps", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep-eps", "--config", pool, "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_needs_penalty_law(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "sweep.eps_pen = 1e-1\n")
        assert main(["sweep-eps", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2

    def test_partial_table_on_divergence(self, tmp_path):
        cfg = write_cfg(tmp_path, cfg_text(
            scheme__dt="0.05", scheme__newton_max="2", run__t_final="0.5",
            contact__kind="signorini_penalty", contact__eps_pen="1e-2",
            contact__g_lo="-0.01", contact__g_hi="0.01",
            init__kind="mode_velocity", init__amplitude="50.0",
            sweep__eps_pen="1e-1, 1e-10", sweep__tie_tip="false",
            tip__enabled="true", tip__epsilon="1e-6"))
        out = tmp_path / "out"
        assert main(["sweep-eps", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        statuses = {r[0]: r[1] for r in rows}
        assert statuses["1e-10"] == "diverged"
        summary = read_summary(out)
        assert summary["status"] == "partial"


class TestObservabilityCommand:
    def test_zero_data_zero_defects(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "run.stride = 5\n")
        out = tmp_path / "out"
        assert main(["observability", "--config", cfg, "--out", str(out)]) == 0
        summary = read_summary(out)
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
