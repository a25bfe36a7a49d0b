"""msnlib: exact moment-generating Stirling numbers and their applications.

The b family  b(i, j, k) = sum_r C(j, r) (-1)**(j-r) (r+k)**i  generalizes
the Stirling numbers of the second kind (k = 0 gives S(i,j) * j!) and turns
the moments of a surprising range of discrete laws into finite closed sums:
Markov passage and recurrence times, discrete phase type, (alternating)
negative binomial, and the central-moment transforms of the textbook
distributions.  Everything outside :mod:`msnlib.simulate` is computed in
exact rational arithmetic.

Every public name is written once, in ``_EXPORTS``, with the submodule that
defines it; ``__all__`` and ``__dir__`` read the table.  ``import msnlib``
imports every submodule of the table except those in ``_LAZY`` and binds
their names here.  A lazy submodule (:mod:`msnlib.distributions`) loads on
first use: ``msnlib.distributions``, or any name it exports, imports it
through the module ``__getattr__`` (PEP 562) below, which binds all of its
names at once, so a CLI call that reads no law does not import it, and
any submodule that only some calls need can be made lazy the same way.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "AltNegBinomial": "distributions",
    "Binomial": "distributions",
    "ChainError": "linalg",
    "CommutabilityError": "markov",
    "DiscreteUniform": "distributions",
    "IdentityResult": "identities",
    "K_SET": "identities",
    "MomentEstimate": "simulate",
    "Msn1Table": "msn1",
    "MsnTable": "msn",
    "NegBinomial": "distributions",
    "PartitionedChain": "linalg",
    "PhaseType": "distributions",
    "Poisson": "distributions",
    "PreconditionError": "exact",
    "Rational": "exact",
    "RationalMatrix": "linalg",
    "Recurrence": "distributions",
    "SimConfig": "simulate",
    "SimResult": "simulate",
    "SingularMatrixError": "linalg",
    "TruncatedSeries": "series",
    "TruncationError": "simulate",
    "as_rational": "exact",
    "binom": "exact",
    "binom_gen": "exact",
    "binomial_gf_value": "series",
    "central_closed": "distributions",
    "central_from_raw": "distributions",
    "central_via_factorial": "distributions",
    "chain_from_dict": "linalg",
    "chain_from_json": "linalg",
    "dist_n1": "markov",
    "dist_r1": "markov",
    "egf_coeffs": "series",
    "factorial_moments_from_raw": "distributions",
    "format_rational": "exact",
    "inversion_product": "msn1",
    "is_commutable": "linalg",
    "moment_anb": "markov",
    "moment_k_convolved": "markov",
    "moment_n1_closed": "markov",
    "moment_nb": "markov",
    "moment_nk_commutable": "markov",
    "moment_nk_rowsum": "markov",
    "moment_recursive": "markov",
    "moment_renewal": "markov",
    "moment_r1_closed": "markov",
    "moment_rk_commutable": "markov",
    "moment_rk_scalar": "markov",
    "msn1": "msn1",
    "msn1_table": "msn1",
    "msn_direct": "msn",
    "msn_shift": "msn",
    "msn_table": "msn",
    "multinom": "exact",
    "ogf_coeffs": "series",
    "partition": "linalg",
    "qpow": "exact",
    "raw_from_factorial": "distributions",
    "raw_moment": "distributions",
    "raw_moments": "distributions",
    "run_identity_suite": "identities",
    "simulate": "simulate",
    "stirling1": "msn1",
    "stirling2": "msn",
    "surjection_count": "msn",
}

_LAZY = ("distributions",)


def _attach(submodule):
    """Import ``submodule`` and bind here every name the table gives it."""
    # __import__, unlike importlib.import_module, is reported line by line
    # under -X importtime; "from . import ..." would recurse into __getattr__
    # for a lazy submodule.  The import binds the submodule here under its
    # own name, so a function named after it (simulate) is bound afterwards.
    __import__(f"{__name__}.{submodule}")
    module = sys.modules[f"{__name__}.{submodule}"]
    globals().update(
        (name, getattr(module, name)) for name, home in _EXPORTS.items() if home == submodule
    )


for _submodule in dict.fromkeys(_EXPORTS.values()):
    if _submodule not in _LAZY:
        _attach(_submodule)
del _submodule


def __getattr__(name):
    """Load a lazy submodule on first use of it or of one of its names."""
    submodule = name if name in _LAZY else _EXPORTS.get(name)
    if submodule not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _attach(submodule)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_LAZY, *_EXPORTS})


__all__ = list(_EXPORTS)
