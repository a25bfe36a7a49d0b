"""What ``import msnlib`` and ``import msnlib.cli`` load, in fresh interpreters.

:mod:`msnlib.distributions` loads on first use, through the package's
PEP 562 ``__getattr__``; every other submodule loads with the package.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import msnlib

# the child does not see pytest's pythonpath setting, so hand it src
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str, *options: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *options, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _fresh(code: str) -> str:
    return _run(code).stdout


# perfbench/run.py's measure_imports takes the least of numpy's -X importtime
# lines of a plain "import msnlib", and perfbench/tracing.py's Tracer.install
# reads the series, identities and _sim_kernels modules out of sys.modules by
# key: either fails once these load lazily, until ROADMAP item 1 mends the
# harness
HARNESS_READS = ("numpy", "msnlib.series", "msnlib.identities", "msnlib._sim_kernels")


def _loaded(module: str) -> list[str]:
    return json.loads(
        _fresh(f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))")
    )


def test_cli_import_keeps_what_the_harness_reads_and_skips_the_laws():
    loaded = _loaded("msnlib.cli")
    for name in HARNESS_READS:
        assert name in loaded, name
    for name in ("msnlib.distributions", "csv", "dataclasses"):
        assert name not in loaded, name


def test_package_import_keeps_what_the_harness_reads_and_skips_the_laws():
    loaded = _loaded("msnlib")
    for name in HARNESS_READS:
        assert name in loaded, name
    for name in ("msnlib.distributions", "dataclasses"):
        assert name not in loaded, name


def test_first_law_access_loads_no_dataclasses():
    # the value classes are plain exact.Record subclasses: defining one
    # generates no code, so no import of the package loads dataclasses
    out = _fresh(
        "import sys, msnlib\n"
        "print(msnlib.raw_moment(msnlib.Binomial(3, 1), 2), 'dataclasses' in sys.modules)\n"
    )
    assert out == "9 False\n"


def test_import_time_reports_every_eager_submodule():
    lines = _run("import msnlib", "-X", "importtime").stderr.splitlines()
    reported = {line.rsplit("|", 1)[-1].strip() for line in lines}
    eager = set(msnlib._EXPORTS.values()) - set(msnlib._LAZY)
    assert {f"msnlib.{home}" for home in eager} <= reported


def test_first_access_binds_every_law_name_once():
    out = _fresh(
        "import msnlib\n"
        "first = msnlib.raw_moment\n"
        "def refuse(name):\n"
        "    raise AssertionError(f'__getattr__ called again for {name}')\n"
        "msnlib.__getattr__ = refuse\n"
        "laws = msnlib.distributions\n"
        "assert msnlib.raw_moment is first is laws.raw_moment\n"
        "law_names = [n for n, home in msnlib._EXPORTS.items() if home == 'distributions']\n"
        "assert all(getattr(msnlib, n) is getattr(laws, n) for n in law_names)\n"
        "print('ok')\n"
    )
    assert out == "ok\n"


def test_from_import_of_a_law_in_a_fresh_process():
    out = _fresh(
        "from msnlib import raw_moment, Binomial; print(raw_moment(Binomial(4, '1/2'), 2))"
    )
    assert out == "5\n"


def test_law_names_are_the_distributions_objects():
    assert msnlib.Binomial is msnlib.distributions.Binomial
    assert msnlib.raw_moments is msnlib.distributions.raw_moments
    law_names = {n for n, home in msnlib._EXPORTS.items() if home == "distributions"}
    assert law_names <= set(msnlib.__all__) <= set(dir(msnlib))


def test_simulate_is_the_function_after_its_submodule_is_imported():
    # importing msnlib.simulate binds the module as the package's "simulate";
    # the package must bind the function of that name afterwards
    out = _fresh(
        "import sys, msnlib.simulate\n"
        "from msnlib.simulate import SimConfig\n"
        "from msnlib import simulate\n"
        "assert simulate is sys.modules['msnlib.simulate'].simulate\n"
        "print(type(simulate).__name__)\n"
    )
    assert out == "function\n"


def test_every_export_is_the_attribute_of_its_submodule():
    assert set(msnlib._LAZY) <= set(msnlib._EXPORTS.values())
    for name, home in msnlib._EXPORTS.items():
        module = importlib.import_module(f"msnlib.{home}")
        assert getattr(msnlib, name) is getattr(module, name), name


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(msnlib, "no_such_name")


def test_public_names_are_unchanged():
    assert msnlib.__all__ == [
        "AltNegBinomial", "Binomial", "ChainError", "CommutabilityError",
        "DiscreteUniform", "IdentityResult", "K_SET", "MomentEstimate", "Msn1Table",
        "MsnTable", "NegBinomial", "PartitionedChain", "PhaseType", "Poisson",
        "PreconditionError", "Rational", "RationalMatrix", "Recurrence", "SimConfig",
        "SimResult", "SingularMatrixError", "TruncatedSeries", "TruncationError",
        "as_rational", "binom", "binom_gen", "binomial_gf_value", "central_closed",
        "central_from_raw", "central_via_factorial", "chain_from_dict",
        "chain_from_json", "dist_n1", "dist_r1", "egf_coeffs",
        "factorial_moments_from_raw", "format_rational", "inversion_product",
        "is_commutable", "moment_anb", "moment_k_convolved", "moment_n1_closed",
        "moment_nb", "moment_nk_commutable", "moment_nk_rowsum", "moment_recursive",
        "moment_renewal", "moment_r1_closed", "moment_rk_commutable",
        "moment_rk_scalar", "msn1", "msn1_table", "msn_direct", "msn_shift",
        "msn_table", "multinom", "ogf_coeffs", "partition", "qpow",
        "raw_from_factorial", "raw_moment", "raw_moments", "run_identity_suite",
        "simulate", "stirling1", "stirling2", "surjection_count",
    ]
    assert all(getattr(msnlib, name) is not None for name in msnlib.__all__)
