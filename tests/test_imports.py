"""What ``import msnlib`` and ``import msnlib.cli`` load, in fresh interpreters.

:mod:`msnlib.distributions` loads on first use, through the package's
PEP 562 ``__getattr__``; every other submodule loads with the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import msnlib

# the child does not see pytest's pythonpath setting, so hand it src
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(code: str) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_keeps_what_the_harness_reads_and_skips_the_laws():
    # perfbench/run.py's measure_imports takes the least of numpy's
    # -X importtime lines, and perfbench/tracing.py's Tracer.install reads
    # the series, identities and _sim_kernels modules out of sys.modules by
    # key: either fails once these load lazily, until ROADMAP item 1 mends
    # the harness
    loaded = json.loads(
        _fresh("import json, sys, msnlib.cli; print(json.dumps(sorted(sys.modules)))")
    )
    for name in ("numpy", "msnlib.series", "msnlib.identities", "msnlib._sim_kernels"):
        assert name in loaded, name
    for name in ("msnlib.distributions", "csv"):
        assert name not in loaded, name


def test_first_access_binds_every_law_name_once():
    out = _fresh(
        "import msnlib\n"
        "first = msnlib.raw_moment\n"
        "def refuse(name):\n"
        "    raise AssertionError(f'__getattr__ called again for {name}')\n"
        "msnlib.__getattr__ = refuse\n"
        "laws = msnlib.distributions\n"
        "assert msnlib.raw_moment is first is laws.raw_moment\n"
        "assert all(getattr(msnlib, n) is getattr(laws, n) for n in msnlib._DISTRIBUTION_NAMES)\n"
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
    assert set(msnlib._DISTRIBUTION_NAMES) <= set(msnlib.__all__) <= set(dir(msnlib))


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
