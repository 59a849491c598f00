"""Symbol-table construction: imports, qnames, suffix resolution."""

import textwrap

from repro.lint.flow.symbols import build_symbol_table, parse_module


def _module(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def test_imports_map_aliases_to_fqns(tmp_path):
    path = _module(
        tmp_path,
        """
        import numpy as np
        import os.path
        from repro.obs.trace import current_tracer as ct
        from repro.obs import lpprof
        """,
    )
    info = parse_module(path)
    assert info.imports["np"] == "numpy"
    assert info.imports["os"] == "os"
    assert info.imports["ct"] == "repro.obs.trace.current_tracer"
    assert info.imports["lpprof"] == "repro.obs.lpprof"


def test_function_qnames_mirror_qualname(tmp_path):
    path = _module(
        tmp_path,
        """
        def top():
            def inner():
                pass
            return inner

        class Box:
            def get(self):
                pass
        """,
    )
    info = parse_module(path, module_name="m")
    assert set(info.functions) == {"top", "top.<locals>.inner", "Box.get"}
    assert info.functions["Box.get"].is_method
    assert info.functions["Box.get"].class_name == "Box"
    assert not info.functions["top.<locals>.inner"].is_method


def test_resolve_suffix_matches_loose_and_full_specs(tmp_path):
    path = _module(
        tmp_path,
        """
        class Sim:
            def run(self):
                pass

        def run():
            pass
        """,
        name="simmod.py",
    )
    table = build_symbol_table([path])
    assert table.resolve_suffix("Sim.run") == ["simmod:Sim.run"]
    assert set(table.resolve_suffix("run")) == {"simmod:Sim.run", "simmod:run"}
    assert table.resolve_suffix("simmod.run") == ["simmod:run"]
    assert table.resolve_suffix("nothing.here") == []


def test_syntax_errors_do_not_take_down_the_table(tmp_path):
    _module(tmp_path, "def broken(:\n", name="broken.py")
    _module(tmp_path, "def fine():\n    pass\n", name="fine.py")
    table = build_symbol_table([tmp_path])
    assert "fine" in table.modules
    assert "broken" not in table.modules
