"""The two benchmark workloads: pinned configs, seed jitter and output checks.

Each workload runs one gapbeam subcommand in a fresh process on a config
pinned in ``configs/``.  The benchmark seed perturbs the config slightly, so
every seed does the same amount of work on different inputs.  The checks read only the files the run
wrote; accuracy is pass/fail here, never a metric, so a faster solver may move
last digits without counting as a regression.
"""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

TRAJECTORY_SCHEMA = "# schema=gapbeam-trajectory-v1"
TRAJECTORY_COLUMNS = (
    "t", "E_total", "kinetic", "potential_shear", "potential_bend", "N_p",
    "tip_energy", "Fhat_int", "Ghat_int", "v", "v_t", "S_ell",
    "dissipation_rate", "balance_residual",
)
XI_SCHEMA = "# schema=gapbeam-xi-study-v1"

def read_mapping(path: Path) -> dict[str, str]:
    """key=value config or summary file (comments and blank lines skipped)."""
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _scaled(mapping, key, rng, spread):
    return f"{float(mapping[key]) * (1.0 + spread * rng.uniform(-1.0, 1.0)):.6g}"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # gapbeam.cli subcommand
    why: str
    jitter_key: str              # config value scaled by the seed
    jitter: float                # relative half-width of that scaling
    expected_spans: tuple[str, ...]   # must fire in the traced run

    def config(self, seed: int) -> dict[str, str]:
        """The pinned config with this seed's perturbation applied."""
        mapping = read_mapping(CONFIG_DIR / f"{self.name}.cfg")
        rng = random.Random(f"{self.name}:{seed}")
        mapping[self.jitter_key] = _scaled(mapping, self.jitter_key, rng,
                                           self.jitter)
        return mapping

    def setup_config(self, seed: int) -> dict[str, str]:
        """Config of the set-up probe: the workload's largest mesh."""
        mapping = self.config(seed)
        if "sweep.ne" in mapping:
            mapping["mesh.ne"] = str(max(int(n) for n in
                                         mapping["sweep.ne"].split(",")))
        return mapping

    def steps(self, mapping) -> int:
        """Time steps one run completes (0 for the eigen-study)."""
        if self.command == "sweep-xi":
            return 0
        return int(round(float(mapping["run.t_final"]) / float(mapping["scheme.dt"])))

    def spectra(self, mapping) -> int:
        """Eigen-solves one run completes (0 for the stepping workloads)."""
        if self.command != "sweep-xi":
            return 0
        return len(mapping["sweep.xi"].split(",")) * len(mapping["sweep.ne"].split(","))

    def check(self, mapping, out: Path) -> list[str]:
        """Problems found in the run's artifacts (empty when it passed)."""
        try:
            return _CHECKS[self.command](self, mapping, Path(out))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]


def _trajectory(out: Path):
    lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TRAJECTORY_SCHEMA:
        raise ValueError("trajectory.csv: missing schema line")
    rows = list(csv.reader(lines[1:]))
    if tuple(rows[0]) != TRAJECTORY_COLUMNS:
        raise ValueError("trajectory.csv: wrong header")
    body = rows[1:]
    if any(len(r) != len(TRAJECTORY_COLUMNS) for r in body):
        raise ValueError("trajectory.csv: ragged row")
    col = {name: [float(r[i]) for r in body]
           for i, name in enumerate(TRAJECTORY_COLUMNS)}
    return len(body), col


def _samples(steps, mapping):
    """simulate keeps the initial state, every stride-th step and the last."""
    stride = int(mapping.get("run.stride", "1"))
    return 1 + steps // stride + (1 if steps % stride else 0)


def _check_simulate(wl, mapping, out):
    problems = []
    summary = read_mapping(out / "summary")
    if summary.get("status") != "ok":
        return [f"summary status {summary.get('status')!r}"]
    n_rows, col = _trajectory(out)
    samples = _samples(wl.steps(mapping), mapping)
    if int(summary["samples"]) != samples:
        problems.append(f"samples {summary['samples']} != {samples}")
    if n_rows != samples:
        problems.append(f"trajectory rows {n_rows} != {samples}")
    e0 = col["E_total"][0]
    worst = max(abs(x) for x in col["balance_residual"])
    if not worst <= BALANCE_TOL * e0:
        problems.append(f"balance residual {worst:.3e} > "
                        f"{BALANCE_TOL:g} * E0 ({e0:.4g})")
    if not float(summary["E_final"]) < float(summary["E_initial"]):
        problems.append("energy did not decrease")
    g_hi = float(mapping["contact.g_hi"])
    if not max(col["v"]) > g_hi:
        problems.append(f"tip never passed g_hi={g_hi}")
    return problems


def _check_xi(wl, mapping, out):
    problems = []
    lines = (out / "xi_study.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != XI_SCHEMA:
        return ["xi_study.csv: missing schema line"]
    rows = list(csv.DictReader(lines[1:]))
    expected = {(x.strip(), int(n)) for x in mapping["sweep.xi"].split(",")
                for n in mapping["sweep.ne"].split(",")}
    got = {(f"{r['xi_num']}/{r['xi_den']}", int(r["ne"])) for r in rows}
    if got != expected or len(rows) != len(expected):
        return [f"xi_study.csv rows {sorted(got)} != {sorted(expected)}"]
    verdicts = {"1/2": "stabilizing", "2/3": "excluded"}
    absc = {}
    for r in rows:
        key = f"{r['xi_num']}/{r['xi_den']}"
        if r["verdict"] != verdicts[key]:
            problems.append(f"xi={key}: verdict {r['verdict']!r}")
        absc[key, int(r["ne"])] = float(r["abscissa"])
    ne_max = max(n for _, n in absc)
    for (key, ne), a in absc.items():
        if key == "2/3" and not abs(a) <= 1e-6:
            problems.append(f"xi=2/3 ne={ne}: |abscissa| {abs(a):.3e} > 1e-6")
    a_half, a_excl = absc["1/2", ne_max], absc["2/3", ne_max]
    if not (a_half < 0.0 and abs(a_half) >= 5.0 * abs(a_excl)):
        problems.append(f"ne={ne_max}: abscissa(1/2)={a_half:.3e} not < 0 and "
                        f">= 5x |abscissa(2/3)|={abs(a_excl):.3e}")
    summary = read_mapping(out / "summary")
    if summary.get("trend_toward_zero_2_3") != "true":
        problems.append("trend_toward_zero_2_3 is not true")
    return problems


_CHECKS = {"simulate": _check_simulate, "sweep-xi": _check_xi}

# energy-balance defect allowed per sample, as a multiple of the initial
# energy; the seed's is about 2e-7
BALANCE_TOL = 1e-5

WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="contact-fine",
        command="simulate",
        why=("gapbeam simulate at ne=512 with normal-compliance stops and "
             "coarse output: dense per-step linear algebra at large n dominates"),
        jitter_key="init.amplitude", jitter=0.02,
        expected_spans=(
            "config.load_config", "discretize.build_mesh", "discretize.assemble",
            "timestep.simulate", "timestep.total_energy",
            "model.contact_traction", "diagnostics.energy_series",
            "diagnostics.energy", "diagnostics.fit_decay",
            "diagnostics.complementarity_report", "discretize.recover_stress",
            "artifacts.write_trajectory_csv", "artifacts.write_summary",
        ),
    ),
    Workload(
        name="xi-study",
        command="sweep-xi",
        why=("gapbeam sweep-xi at pencil sizes 256-640: dense generalized "
             "eigen-solves of the damper-location claim, no time stepping"),
        jitter_key="beam.gamma1", jitter=0.1,
        expected_spans=(
            "config.load_config", "spectral.xi_study", "discretize.build_mesh",
            "discretize.assemble", "spectral.generator", "spectral.spectrum",
            "artifacts.write_table_csv", "artifacts.write_summary",
        ),
    ),
)}


def write_config(mapping: dict[str, str], path: Path) -> None:
    Path(path).write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()),
                          encoding="utf-8")


def artifact_digest(out: Path) -> str:
    """Hash of every file a run wrote, names included, in a fixed order."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
