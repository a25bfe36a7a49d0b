"""msnlib: exact moment-generating Stirling numbers and their applications.

The b family  b(i, j, k) = sum_r C(j, r) (-1)**(j-r) (r+k)**i  generalizes
the Stirling numbers of the second kind (k = 0 gives S(i,j) * j!) and turns
the moments of a surprising range of discrete laws into finite closed sums:
Markov passage and recurrence times, discrete phase type, (alternating)
negative binomial, and the central-moment transforms of the textbook
distributions.  Everything outside :mod:`msnlib.simulate` is computed in
exact rational arithmetic.

:mod:`msnlib.distributions` loads on first use: ``msnlib.distributions``,
or any law or function it exports, imports it through the module
``__getattr__`` (PEP 562) below, so a CLI call that reads no law does not
pay for building its dataclasses.
"""

import importlib

from .exact import Rational, as_rational, binom, binom_gen, format_rational, multinom, qpow
from .linalg import (
    ChainError,
    PartitionedChain,
    RationalMatrix,
    SingularMatrixError,
    chain_from_dict,
    chain_from_json,
    is_commutable,
    partition,
)
from .markov import (
    CommutabilityError,
    PreconditionError,
    dist_n1,
    dist_r1,
    moment_anb,
    moment_k_convolved,
    moment_n1_closed,
    moment_nb,
    moment_nk_commutable,
    moment_nk_rowsum,
    moment_recursive,
    moment_renewal,
    moment_r1_closed,
    moment_rk_commutable,
    moment_rk_scalar,
)
from .msn import (
    MsnTable,
    msn_direct,
    msn_shift,
    msn_table,
    stirling2,
    surjection_count,
)
from .msn1 import Msn1Table, inversion_product, msn1, msn1_table, stirling1
from .series import TruncatedSeries, binomial_gf_value, egf_coeffs, ogf_coeffs
from .simulate import MomentEstimate, SimConfig, SimResult, TruncationError, simulate
from .identities import K_SET, IdentityResult, run_identity_suite

__version__ = "0.1.0"

_DISTRIBUTION_NAMES = (
    "AltNegBinomial",
    "Binomial",
    "DiscreteUniform",
    "NegBinomial",
    "PhaseType",
    "Poisson",
    "Recurrence",
    "central_closed",
    "central_from_raw",
    "central_via_factorial",
    "factorial_moments_from_raw",
    "raw_from_factorial",
    "raw_moment",
    "raw_moments",
)


def __getattr__(name):
    """Import :mod:`msnlib.distributions` and bind its names here, once."""
    if name != "distributions" and name not in _DISTRIBUTION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not "from . import distributions": its hasattr check would recurse here
    module = importlib.import_module(".distributions", __name__)
    globals().update((attr, getattr(module, attr)) for attr in _DISTRIBUTION_NAMES)
    return globals()[name]


def __dir__():
    return sorted({*globals(), "distributions", *_DISTRIBUTION_NAMES})


__all__ = [
    "AltNegBinomial",
    "Binomial",
    "ChainError",
    "CommutabilityError",
    "DiscreteUniform",
    "IdentityResult",
    "K_SET",
    "MomentEstimate",
    "Msn1Table",
    "MsnTable",
    "NegBinomial",
    "PartitionedChain",
    "PhaseType",
    "Poisson",
    "PreconditionError",
    "Rational",
    "RationalMatrix",
    "Recurrence",
    "SimConfig",
    "SimResult",
    "SingularMatrixError",
    "TruncatedSeries",
    "TruncationError",
    "as_rational",
    "binom",
    "binom_gen",
    "binomial_gf_value",
    "central_closed",
    "central_from_raw",
    "central_via_factorial",
    "chain_from_dict",
    "chain_from_json",
    "dist_n1",
    "dist_r1",
    "egf_coeffs",
    "factorial_moments_from_raw",
    "format_rational",
    "inversion_product",
    "is_commutable",
    "moment_anb",
    "moment_k_convolved",
    "moment_n1_closed",
    "moment_nb",
    "moment_nk_commutable",
    "moment_nk_rowsum",
    "moment_recursive",
    "moment_renewal",
    "moment_r1_closed",
    "moment_rk_commutable",
    "moment_rk_scalar",
    "msn1",
    "msn1_table",
    "msn_direct",
    "msn_shift",
    "msn_table",
    "multinom",
    "ogf_coeffs",
    "partition",
    "qpow",
    "raw_from_factorial",
    "raw_moment",
    "raw_moments",
    "run_identity_suite",
    "simulate",
    "stirling1",
    "stirling2",
    "surjection_count",
]
