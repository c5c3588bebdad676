"""The package surface: every declared export exists where it is declared, and the knobs stay few."""
import argparse
import dataclasses

import linemarket as lm
from linemarket import cli, multi_pool, network, oracle, scenarios, single_pool, utility

MODULES = (network, utility, single_pool, multi_pool, oracle, scenarios, cli)


def test_every_declared_name_exists():
    """No name outlives its deletion in an __all__ or in the package's re-exports."""
    for module in MODULES:
        # no re-export shadows a module: linemarket.<name> is the module
        assert getattr(lm, module.__name__.rpartition(".")[2]) is module, module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
        for name in module.__all__:
            if hasattr(lm, name) and getattr(lm, name) not in MODULES:
                assert getattr(lm, name) is getattr(module, name), name
        # what the package re-exports from a module, the module declares
        taken = {
            name for name, obj in vars(lm).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        }
        assert taken <= set(module.__all__), (module.__name__, sorted(taken - set(module.__all__)))


def test_settable_values_stay_within_the_ceiling():
    """A new knob retires an old one or raises the ceiling of 6 in the same change.

    The settable values are the DynamicsConfig fields, the MechanismConfig
    fields besides inner, the scenario's engine keys and the options of
    linemarket solve; the failure names each count.
    """
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [s for a in sub.choices["solve"]._actions
               if not isinstance(a, argparse._HelpAction) for s in a.option_strings]
    outer = [f.name for f in dataclasses.fields(multi_pool.MechanismConfig) if f.name != "inner"]
    counts = {"DynamicsConfig fields": len(dataclasses.fields(single_pool.DynamicsConfig)),
              "MechanismConfig fields besides inner": len(outer),
              "engine keys": len(cli._ENGINE),
              "linemarket solve options": len(options)}
    assert sum(counts.values()) <= 6, counts
