"""The package's public names: what `import paybid` exposes and where each
name comes from."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import paybid

# module -> the public names it gives the package, in `__all__` order
PUBLIC = {
    "core_model": [
        "AuctionSpec", "EquilibriumPoint", "UNBOUNDED", "max_bids", "success_probability",
        "symmetric_beta", "symmetric_expected_revenue", "symmetric_mu",
    ],
    "markov_engine": [
        "AbsorptionSummary", "NonAbsorbingChainError", "OccupancySeries", "TransitionRow",
        "TwoGroupChain", "absorption_closed_form", "build_transitions", "evolve_recurrence",
        "expected_revenue_from_series", "first_bid_distribution",
    ],
    "asymmetry_models": [
        "ChickenPayoffs", "CommittedPolicy", "FullInfoEquilibrium", "GroupProfile",
        "PopulationBelief", "ShillPolicy", "ascending_underestimate_revenue",
        "bidfee_asymmetry_chain", "chicken_payoffs", "collusion_chain",
        "committed_player_profit", "full_info_equilibrium", "mixed_estimates_chain",
        "shill_chain", "shill_profit", "two_group_chain", "uncertain_population_beta",
        "underestimate_chain", "underestimate_uniform", "valuation_asymmetry_chain",
    ],
    "simulator": [
        "AuctionTrial", "PlayerPolicy", "estimate", "simulate_chain", "simulate_committed",
        "simulate_one", "simulate_shill", "symmetric_policies",
    ],
}
NAMES = [name for names in PUBLIC.values() for name in names]
SOURCE = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_lists_the_46_public_names():
    assert len(NAMES) == 46
    assert paybid.__all__ == NAMES


@pytest.mark.parametrize("module, name", SOURCE, ids=[n for _, n in SOURCE])
def test_name_is_the_submodule_object(module, name):
    assert getattr(paybid, name) is getattr(sys.modules[f"paybid.{module}"], name)
    assert name in vars(paybid)  # kept, so the next read skips __getattr__


def test_dir_lists_every_public_name():
    assert set(NAMES) <= set(dir(paybid))
    assert "__version__" in dir(paybid)


def fresh(probe: str) -> list:
    """The words a fresh interpreter prints running probe."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.split()


def test_star_import_binds_every_public_name():
    probe = "from paybid import *; print(*sorted(n for n in dir() if not n.startswith('_')))"
    assert fresh(probe) == sorted(NAMES)


def test_model_modules_resolve_as_attributes():
    # `import paybid; paybid.simulator` worked when the package imported them
    probe = ("import sys, paybid; "
             f"print(*[getattr(paybid, m) is sys.modules['paybid.' + m] for m in {list(PUBLIC)}])")
    assert fresh(probe) == ["True"] * len(PUBLIC)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'paybid' has no attribute 'nope'$"):
        paybid.nope
    assert not hasattr(paybid, "nope")
