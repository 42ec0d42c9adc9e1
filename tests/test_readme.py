"""The README's library example runs as written, and its config block shows
every config key at its default."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np

from kerndep.adapt import AdaptConfig
from kerndep.cli import read_config_file
from kerndep.tasks import SamplerConfig, save_embeddings, synth_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    save_embeddings(synth_dataset(5, 8, 4, 6.0, 1.0, np.random.default_rng(0)), "pool.emb")
    exec(compile(blocks[0], str(README), "exec"), {})
    mean_accuracy, ci95 = map(float, capsys.readouterr().out.split())
    assert 0.0 <= mean_accuracy <= 1.0
    assert ci95 >= 0.0


def test_readme_config_block_lists_every_key_at_its_default(tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Config files"):]
    block = re.search(r"^```\n(.*?)^```", section, flags=re.M | re.S).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    defaults = {f.name: f.default for f in (*fields(AdaptConfig), *fields(SamplerConfig))}
    assert read_config_file(path) == defaults
