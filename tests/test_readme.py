"""The README's quick-starts run as written, and its API table covers the
package in one short row per module."""

import ast
import contextlib
import importlib
import inspect
import io
import re
import shlex
from pathlib import Path

import softmapper
from softmapper import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "softmapper"
ROW_WORDS = 60


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace = {}  # the second block reuses names from the first, as a reader would
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed.append(float(out.getvalue()))
    correlation, total = printed
    assert correlation > 0.99  # the README promises ~0.999
    assert total > 0


def cli_commands():
    text = README.read_text(encoding="utf-8").split("## Quick start (CLI)")[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    return [shlex.split(line) for line in lines]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every command of the CLI quick-start exits 0 and writes the files the
    README names."""
    monkeypatch.chdir(tmp_path)
    commands = cli_commands()
    assert [argv[:2] for argv in commands] == [["softmapper", c]
                                               for c in ("build", "optimize", "synth", "export")]
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    capsys.readouterr()
    written = ["out/mapper.json", "out/mapper.dot", "out/diagram.csv", "out/graph.dot",
               "cylinder.csv", "run/summary.json"]
    written += [f"run/{name}" for name in ("trace.csv", "curve.svg", "theta_final.json")]
    written += [f"run/{build}/{name}" for build in ("initial", "final")
                for name in ("mapper.json", "mapper.dot", "diagram.csv")]
    assert [name for name in written if not (tmp_path / name).is_file()] == []


def api_rows():
    """The API table's rows as (module, row text), in README order."""
    rows = re.findall(r"^\| `softmapper\.(\w+)` \|(.*)\|$", README.read_text(encoding="utf-8"),
                      re.M)
    return [(module, text.strip()) for module, text in rows]


def test_the_api_table_has_one_short_row_per_module():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    rows = api_rows()
    assert sorted(module for module, _ in rows) == modules
    words = {module: 1 + len(text.split()) for module, text in rows}  # 1 for the name cell
    assert {module: n for module, n in words.items() if n > ROW_WORDS} == {}


def test_every_export_is_named_in_its_modules_row():
    rows = dict(api_rows())
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exports = {alias.name: node.module for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert exports
    named = {module: set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", text))))
             for module, text in rows.items()}
    assert sorted(name for name, module in exports.items() if name not in named[module]) == []


def test_every_api_signature_binds():
    """Every `name(args)` of the API table whose name is an export, or a
    public function of its row's module, binds to the real signature: one
    placeholder per positional argument and each `kw=...` as a keyword,
    with `*` and `...` skipped."""
    exports = vars(softmapper)
    checked, unbound = 0, []
    for module, text in api_rows():
        mod = importlib.import_module(f"softmapper.{module}")
        for name, args in re.findall(r"`(\w+)\(([^`]*)\)`", text):
            if name in exports and not inspect.ismodule(exports[name]):
                obj = exports[name]
            elif not name.startswith("_") and inspect.isfunction(getattr(mod, name, None)):
                obj = getattr(mod, name)
            else:
                continue
            parts = [a.strip() for a in args.split(",") if a.strip() not in ("", "*", "...")]
            kwargs = {a.split("=")[0].strip(): None for a in parts if "=" in a}
            positional = [None] * (len(parts) - len(kwargs))
            try:
                inspect.signature(obj).bind(*positional, **kwargs)
            except TypeError as exc:
                unbound.append(f"{name}({args}): {exc}")
            checked += 1
    assert unbound == []
    assert checked >= 30  # the table names most of the API by its signature
