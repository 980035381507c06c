"""The benchmark's hooks into sarxid, checked without a bench run.

bench/tracing.py wraps each (module, attribute path) in SPANS and COUNTS;
a rename in sarxid would otherwise surface only in a traced bench run.
bench/selftest.py checks which layers each workload reaches; one fixture
job per workload, traced in process, checks the same here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).parent.parent / "bench"
FIXTURES = Path(__file__).parent.parent / "fixtures"


def load_bench(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_bench("tracing")


@pytest.mark.parametrize(
    "module, path", [(module, path) for module, path, _ in tracing.SPANS + tracing.COUNTS]
)
def test_traced_names_resolve_to_callables(module, path):
    # resolved as Tracer.install does: attributes down to the owner, then its own __dict__
    holder = importlib.import_module(module)
    *owner, attr = path.split(".")
    for part in owner:
        holder = getattr(holder, part)
    assert attr in holder.__dict__, "%s has no %s" % (module, path)
    assert callable(holder.__dict__[attr])


def test_one_job_per_workload_meets_the_self_test(tmp_path, capsys):
    """The counters bench/selftest.py checks, on one fixture job per workload.

    A change that drops a path the benchmark pins fails here, not only in a
    traced bench run.
    """
    from sarxid import cli

    assert cli.main(["to-lss", str(FIXTURES / "example3.json")]) == 0
    lss = tmp_path / "example3_lss.json"
    lss.write_text(capsys.readouterr().out)
    jobs = {
        "region": ["param-analyze", str(FIXTURES / "example8_first_family.json")],
        "screen": ["check-min", str(FIXTURES / "example3.json"), "--method", "both"],
        "iso": ["iso", str(lss), str(lss)],
    }
    counters = load_bench("run").SELF_TEST_COUNTERS
    groebner = load_bench("selftest").GROEBNER
    for workload, argv in jobs.items():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cli.main(argv)
        finally:
            tracer.uninstall()
        capsys.readouterr()
        layer = {k: v["value"] for k, v in tracer.per_layer(1, lambda t0, t1: t1 - t0).items()}
        assert layer[counters[workload]], (workload, counters[workload])
        for name in groebner:
            assert bool(layer[name]) == (workload == "region"), (workload, name)
        assert bool(layer["lss.find_isomorphisms_s"]) == (workload == "iso"), workload
