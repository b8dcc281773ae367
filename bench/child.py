"""One fresh workload process, started by run.py.

    child.py setup KIND CONFIG RESULT_JSON
        Set-up probe: import gapbeam, load the config, build the mesh and
        assemble, then take one time step (KIND=step, so the lazy factor is
        included) or build the generator pencil (KIND=generator).  Writes the
        phase times and library versions to RESULT_JSON.

    child.py run COMMAND CONFIG OUT [TRACE_JSON]
        Run a gapbeam CLI subcommand, writing its artifacts to OUT.  With
        TRACE_JSON the timing spans of spans.py are installed first and their
        totals written there; without it nothing but the program runs.

The environment (PYTHONPATH, BLAS threads) is set by run.py.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def command(name: str, config: str, out: Path) -> int:
    from gapbeam import cli

    out.mkdir(parents=True, exist_ok=True)
    return cli.main([name, "--config", config, "--out", str(out)])


def setup(kind: str, config: str, result: str) -> int:
    t0 = perf_counter()
    import gapbeam
    from gapbeam import cli

    t1 = perf_counter()
    cfg = gapbeam.load_config(config)
    t2 = perf_counter()
    mesh = gapbeam.build_mesh(cfg.beam.ell, cfg.beam.xi, cfg.ne)
    t3 = perf_counter()
    system = gapbeam.assemble(mesh, cfg.beam, cfg.tip)
    t4 = perf_counter()
    if kind == "generator":
        gapbeam.generator(system)
    else:
        state0 = cli.make_initial(cfg, system)
        gapbeam.simulate(system, state0, cfg.laws(), cfg.scheme, cfg.scheme.dt)
    t5 = perf_counter()

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    Path(result).write_text(json.dumps({
        "import_s": t1 - t0, "load_config_s": t2 - t1, "build_mesh_s": t3 - t2,
        "assemble_s": t4 - t3, "first_step_s": t5 - t4,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }))
    return 0


def traced(name: str, config: str, out: Path, result: str) -> int:
    t_first = perf_counter()
    import gapbeam.cli  # noqa: F401  (the import is what is timed)

    t_import = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans

    tracer = spans.Tracer()
    undo = spans.install(tracer)
    t_cmd = perf_counter()
    try:
        rc = command(name, config, out)
    finally:
        t_end = perf_counter()
        spans.restore(undo)
    Path(result).write_text(json.dumps({
        "t_first": t_first, "import_s": t_import - t_first,
        "command_s": t_end - t_cmd, "children_s": tracer.children_s,
        **tracer.snapshot(),
    }))
    return rc


def main(argv) -> int:
    if argv[0] == "setup":
        return setup(*argv[1:4])
    if argv[0] == "run":
        name, config, out = argv[1], argv[2], Path(argv[3])
        if len(argv) > 4:
            return traced(name, config, out, argv[4])
        return command(name, config, out)
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
