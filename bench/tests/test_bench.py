"""Self-tests of the benchmark: output checks, metric names, span wrappers.

They run the real program in-process on tiny meshes, so they take a few
seconds; the workloads themselves are only run by bench/run.py.
"""

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, artifact_digest, write_config  # noqa: E402

from gapbeam import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run_small(tmp_path, workload, **overrides):
    """Run a workload's config on a small mesh; returns (mapping, out dir)."""
    wl = WORKLOADS[workload]
    mapping = {**wl.config(seed=0), **overrides}
    config = tmp_path / f"{workload}.cfg"
    write_config(mapping, config)
    out = tmp_path / workload
    assert cli.main([wl.command, "--config", str(config), "--out", str(out)]) == 0
    return mapping, out


@pytest.fixture
def contact_run(tmp_path):
    return _run_small(tmp_path, "contact-fine", **{"mesh.ne": "8"})


def test_contact_check_accepts_then_rejects_truncated_trajectory(contact_run):
    mapping, out = contact_run
    wl = WORKLOADS["contact-fine"]
    assert wl.check(mapping, out) == []
    csv_path = out / "trajectory.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[:-3]))
    assert any("rows" in p for p in wl.check(mapping, out))


def test_contact_check_rejects_broken_energy_balance(contact_run):
    mapping, out = contact_run
    csv_path = out / "trajectory.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[-1] = "0.01"
    lines[5] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    assert any("balance" in p
               for p in WORKLOADS["contact-fine"].check(mapping, out))


def test_xi_check_rejects_flipped_verdict(tmp_path):
    mapping, out = _run_small(tmp_path, "xi-study", **{"sweep.ne": "16, 32"})
    wl = WORKLOADS["xi-study"]
    assert wl.check(mapping, out) == []
    csv_path = out / "xi_study.csv"
    csv_path.write_text(csv_path.read_text().replace(",excluded", ",stabilizing", 1))
    assert any("verdict" in p for p in wl.check(mapping, out))


def test_digest_sees_any_byte(contact_run):
    _, out = contact_run
    before = artifact_digest(out)
    copy = out.parent / "copy"
    shutil.copytree(out, copy)
    assert artifact_digest(copy) == before
    summary = copy / "summary"
    summary.write_text(summary.read_text().replace("=ok", "=OK"))
    assert artifact_digest(copy) != before


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for table, key in ((run.END_TO_END, "end_to_end"), (run.PER_LAYER, "per_layer")):
        names = [name for name, _, _ in table]
        assert all(NAME.fullmatch(n) for n in names)
        assert len(set(names)) == len(names)
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == list(table)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        wl.why for wl in WORKLOADS.values()]


def test_every_span_metric_is_expected_on_some_workload():
    expected = set().union(*(wl.expected_spans for wl in WORKLOADS.values()))
    assert expected <= set(spans.SPAN_NAMES)
    for name, _, _ in run.PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind in ("s", "calls") and span in spans.SPAN_NAMES:
            assert span in expected, name


def test_wrappers_fire_nest_and_restore(tmp_path):
    import importlib

    originals = [getattr(importlib.import_module(mod), attr)
                 for mod, attr, _, _, _ in spans.BINDINGS]
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert len(undo) == len(spans.BINDINGS)
        mapping, out = _run_small(tmp_path, "contact-fine", **{
            "mesh.ne": "8", "run.t_final": "0.02", "run.stride": "1"})
    finally:
        spans.restore(undo)
    restored = [getattr(importlib.import_module(mod), attr)
                for mod, attr, _, _, _ in spans.BINDINGS]
    assert all(a is b for a, b in zip(originals, restored))

    trace = {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
             "children_s": tracer.children_s}
    assert run.trace_problems(trace, WORKLOADS["contact-fine"].expected_spans) == []
    assert tracer.counts["timestep.steps"] == 20
    assert tracer.calls["timestep.total_energy"] == 21
    assert tracer.calls["diagnostics.energy"] == 2 * 21
