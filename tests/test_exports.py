"""The package surface: every declared export exists where it is declared."""
import importlib

import linemarket as lm

# by import path: the package's utility() function shadows its utility module
MODULES = tuple(
    importlib.import_module(f"linemarket.{name}")
    for name in ("network", "utility", "single_pool", "multi_pool", "oracle", "scenarios", "cli")
)


def test_every_declared_name_exists():
    """No name outlives its deletion in an __all__ or in the package's re-exports."""
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
        for name in module.__all__:
            if hasattr(lm, name):
                assert getattr(lm, name) is getattr(module, name), name
        # what the package re-exports from a module, the module declares
        taken = {
            name for name, obj in vars(lm).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        }
        assert taken <= set(module.__all__), (module.__name__, sorted(taken - set(module.__all__)))
