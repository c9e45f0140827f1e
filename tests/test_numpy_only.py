"""The import paths: the dataset tools, the CLI and TinyCNN runs never load
scipy (only TinyViT's GELU does, for ``erf``); the dataset tools load no
training stack; the README's API example imports what it names; and only
``audit`` calls the training loop."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import uniform_filter

import biaslens
from biaslens.synthetic import _box_blur3

SRC = str(Path(biaslens.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def modules_after(code: str, prefix: str = "scipy") -> list[str]:
    """Run ``code`` in a fresh interpreter; the modules under ``prefix`` it loaded."""
    script = (
        f"import sys; sys.path.insert(0, {SRC!r})\n{code}\n"
        f"import json; print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestImportPath:
    def test_cli_tinycnn_audit_analyze_and_resample_load_no_scipy(self, tmp_path):
        code = f"""
import biaslens, biaslens.cli
from pathlib import Path
from biaslens.audit import AuditOptions, run_audit
from biaslens.cli import main
from biaslens.nn.train import TrainConfig
from biaslens.synthetic import SyntheticConfig, generate_synthetic, write_dataset

out = Path({str(tmp_path)!r})
data = generate_synthetic(SyntheticConfig(n_samples=60, image_hw=(16, 16), seed=0))
assert any(r.condition.value == "Weather" for r in data.manifest.records)
options = AuditOptions(
    model_kind="tiny_cnn",
    train=TrainConfig(learning_rate=2e-3, batch_size=16, epochs=1),
    probe_per_class=4,
    sensitivity_samples=2,
    arch={{"input_hw": (16, 16), "channels": (4, 6), "kernel": 3}},
)
run_audit(data, options)
manifest = write_dataset(data.manifest, data.dataset.images[:, 0], out / "data")
assert main(["analyze", "--manifest", str(manifest), "--out", str(out / "a")]) == 0
assert main(["resample", "--manifest", str(manifest), "--out", str(out / "r")]) == 0
"""
        assert modules_after(code) == []

    def test_tinyvit_forward_loads_scipy_special(self):
        code = """
import sys
import numpy as np
from biaslens.nn.models import TinyViT
model = TinyViT(input_hw=(8, 8), patch=4, dim=8, n_heads=2, n_layers=1)
assert not any(m.startswith("scipy") for m in sys.modules)
model.forward(np.zeros((1, 1, 8, 8)))
"""
        assert "scipy.special" in modules_after(code)

    def test_dataset_tools_load_no_training_stack(self):
        loaded = modules_after("import biaslens.manifest, biaslens.sampling", "biaslens")
        assert loaded == ["biaslens", "biaslens.manifest", "biaslens.sampling"]

    def test_readme_example_imports_resolve(self):
        block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
        imports = [n for n in ast.parse(block).body if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert imports
        exec(compile(ast.Module(body=imports, type_ignores=[]), str(README), "exec"), {})

    def test_no_module_imports_another_modules_private_names(self):
        package = Path(biaslens.__file__).resolve().parent
        found = [
            f"{path.relative_to(package)}:{node.lineno} imports {alias.name} from {node.module}"
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "biaslens")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert found == []

    def test_only_audit_calls_the_training_loop(self):
        """``audit.fit`` is the one trainer: no other module calls ``nn.train.train``."""
        package = Path(biaslens.__file__).resolve().parent
        callers = set()
        for path in sorted(package.rglob("*.py")):
            here = ("biaslens", *path.relative_to(package).parts[:-1])
            names, modules = set(), set()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    base = here[: len(here) - node.level + 1] if node.level else ()
                    source = ".".join((*base, *(node.module or "").split("."))).strip(".")
                    for alias in node.names:
                        if f"{source}.{alias.name}" == "biaslens.nn.train":
                            modules.add(alias.asname or alias.name)
                        elif source == "biaslens.nn.train" and alias.name == "train":
                            names.add(alias.asname or alias.name)
                elif isinstance(node, ast.Import):
                    modules.update(a.asname for a in node.names if a.name == "biaslens.nn.train" and a.asname)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name) and node.func.id in names)
                    or (isinstance(node.func, ast.Attribute) and node.func.attr == "train"
                        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules)
                ):
                    callers.add(path.relative_to(package).as_posix())
        assert callers == {"audit.py"}


class TestBoxBlur:
    @given(
        seed=st.integers(0, 2**31 - 1),
        shape=st.tuples(st.integers(1, 47), st.integers(1, 47)),
        scale=st.floats(1e-3, 1e3),
        levels=st.sampled_from([None, 0, 3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_scipy_uniform_filter(self, seed, shape, scale, levels):
        # levels rounds the image to a few values, so equal neighbours are
        # common; levels=0 gives zeros of either sign.
        x = np.random.default_rng(seed).standard_normal(shape)
        if levels is not None:
            x = np.round(x * levels)
        x = x * scale
        expected = uniform_filter(x, size=3, mode="nearest")
        got = _box_blur3(x)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
