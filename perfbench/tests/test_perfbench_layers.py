"""The layer map covers every module of the program."""

from pathlib import Path

import layers

SRC = Path(__file__).resolve().parents[2] / "src"


def test_every_program_module_has_a_layer():
    assert layers.program_modules(str(SRC)), "no program modules found"
    assert layers.unmapped_modules(str(SRC)) == []


def test_layer_map_names_only_known_layers_and_existing_modules():
    modules = set(layers.program_modules(str(SRC)))
    assert set(layers.LAYER_OF_MODULE.values()) <= set(layers.LAYERS)
    assert set(layers.LAYER_OF_MODULE) <= modules


def test_new_module_without_layer_is_reported(tmp_path):
    package = tmp_path / "repro" / "net"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "tcp.py").write_text("")
    (package / "quic.py").write_text("")
    assert layers.unmapped_modules(str(tmp_path)) == ["repro.net.quic"]
