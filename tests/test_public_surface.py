"""The names the package exports, and the ones it no longer holds."""

import importlib
import pkgutil

import ponfa

# test-only definitions that live in tests/oracles.py, and named-state
# orbit wrappers whose integer cores dre runs on
REMOVED = ("OrbitDecomposition", "orbits", "has_orbit_property",
           "is_minimal_representative", "sim_k", "sim_rk", "rk_signature",
           "RChainSignature", "format_checker_ponfa")


def test_every_exported_name_resolves_once():
    missing = [name for name in ponfa.__all__ if not hasattr(ponfa, name)]
    assert missing == []
    assert len(ponfa.__all__) == len(set(ponfa.__all__))


def test_removed_names_are_gone_from_every_module():
    modules = [ponfa] + [importlib.import_module(f"ponfa.{info.name}")
                         for info in pkgutil.iter_modules(ponfa.__path__)]
    assert {"ponfa.dre", "ponfa.reductions", "ponfa.subseq"} <= {
        module.__name__ for module in modules}
    found = [(module.__name__, name) for module in modules
             for name in REMOVED if hasattr(module, name)]
    assert found == []
