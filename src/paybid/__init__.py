"""Equilibrium analysis, Monte Carlo simulation, and trace analytics for
pay-per-bid auctions.

The public names below are resolved on first use (PEP 562): `import paybid`
loads neither numpy nor the model modules, and a model module is imported the
first time one of its names is read. `paybid.trace_analytics` needs only the
standard library and never loads them.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names of each model module, in the order `__all__` lists them.
_EXPORTS = {
    "core_model": (
        "AuctionSpec",
        "EquilibriumPoint",
        "UNBOUNDED",
        "max_bids",
        "success_probability",
        "symmetric_beta",
        "symmetric_expected_revenue",
        "symmetric_mu",
    ),
    "markov_engine": (
        "AbsorptionSummary",
        "NonAbsorbingChainError",
        "OccupancySeries",
        "TransitionRow",
        "TwoGroupChain",
        "absorption_closed_form",
        "build_transitions",
        "evolve_recurrence",
        "expected_revenue_from_series",
        "first_bid_distribution",
    ),
    "asymmetry_models": (
        "ChickenPayoffs",
        "CommittedPolicy",
        "FullInfoEquilibrium",
        "GroupProfile",
        "PopulationBelief",
        "ShillPolicy",
        "ascending_underestimate_revenue",
        "bidfee_asymmetry_chain",
        "chicken_payoffs",
        "collusion_chain",
        "committed_player_profit",
        "full_info_equilibrium",
        "mixed_estimates_chain",
        "shill_chain",
        "shill_profit",
        "two_group_chain",
        "uncertain_population_beta",
        "underestimate_chain",
        "underestimate_uniform",
        "valuation_asymmetry_chain",
    ),
    "simulator": (
        "AuctionTrial",
        "PlayerPolicy",
        "estimate",
        "simulate_chain",
        "simulate_committed",
        "simulate_one",
        "simulate_shill",
        "symmetric_policies",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule that defines `name` and keep the value here, so
    later reads are plain attribute lookups. The model modules themselves
    (`paybid.core_model`, ...) resolve too, as they did when the package
    imported them eagerly."""
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _EXPORTS:
            return _import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
