"""The package namespace: each module's __all__ is its public list, and the
package exports their union."""

import re
from pathlib import Path

import fk_thermo
from fk_thermo import feynman_kac, gibbs, grid, mc, spectral, thermo

MODULES = (grid, spectral, feynman_kac, mc, gibbs, thermo)


def test_package_exports_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(fk_thermo.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fk_thermo, name) is getattr(module, name)


def test_perfbench_shims_are_module_attributes_only():
    for module, name in ((feynman_kac, "PropagatorConfig"),
                         (feynman_kac, "propagate_pde"), (gibbs, "simulate_sde")):
        assert hasattr(module, name)
        assert name not in module.__all__
        assert not hasattr(fk_thermo, name)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["ens"].n_paths == 1_000
