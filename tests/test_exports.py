"""The package surface: every declared export exists where it is declared."""
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
