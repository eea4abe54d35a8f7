"""The package keeps its settable values few.

A settable value is a field of a ``*Params`` or ``*Policy`` dataclass, or a
defaulted parameter of a function in ``src/repspeech``.  Every analysis
choice a caller never changes is a module constant instead, pinned by the
package version, so a study can report it as one documented value.  A new
setting has to raise ``MAX_SETTABLE`` here, in a diff a reviewer reads.
"""

import ast
import importlib
import re
from pathlib import Path

import repspeech

MAX_SETTABLE = 25
README = Path(__file__).resolve().parent.parent / "README.md"


def settable_values() -> list[str]:
    found = []
    for path in sorted(Path(repspeech.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name.endswith(("Params", "Policy")):
                found += [f"{node.name}.{st.target.id}" for st in node.body if isinstance(st, ast.AnnAssign)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(node, "name", "<lambda>")
                positional = node.args.posonlyargs + node.args.args
                defaulted = positional[len(positional) - len(node.args.defaults) :]
                defaulted += [a for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
                found += [f"{path.stem}.{name}({a.arg}=)" for a in defaulted]
    return found


def test_settable_values_stay_few():
    found = settable_values()
    assert len(found) <= MAX_SETTABLE, "\n".join(found)


def test_counter_sees_fields_and_defaults():
    found = settable_values()
    assert "PipelineParams.min_pause" in found
    assert "articulation.formant_track(ceiling=)" in found


def test_readme_settings_table_matches_the_constants():
    rows = re.findall(r"^\| `(\w+)\.([A-Z_0-9]+)` \| ([^|]+) \|", README.read_text(encoding="utf-8"), re.M)
    assert len(rows) >= 20
    for module, name, value in rows:
        actual = getattr(importlib.import_module(f"repspeech.{module}"), name)
        assert actual == ast.literal_eval(value.strip()), f"{module}.{name}"
