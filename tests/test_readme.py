"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

from kerndep.tasks import save_embeddings, synth_dataset

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
