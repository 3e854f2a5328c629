import argparse
import ast
import glob
import os
import shlex
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.skipif(shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")),
                    reason="needs git and a git checkout")
def test_no_tracked_file_is_gitignored():
    listed = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    assert listed.stdout == ""


def test_every_exported_name_resolves():
    import mome

    assert [name for name in mome.__all__ if not hasattr(mome, name)] == []


def _readme_commands() -> list[list[str]]:
    """The ``mome`` commands of the README's fenced "Command line" block, each
    with its continuation lines joined and its ``#`` comment dropped."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands, current = [], ""
    for line in block.splitlines():
        current += " " + line.split("#", 1)[0].strip()
        if current.endswith("\\"):
            current = current[:-1]
            continue
        if current.strip():
            commands.append(shlex.split(current))
        current = ""
    return commands


def test_every_readme_flag_exists():
    from mome.cli import build_parser

    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    commands = _readme_commands()
    assert {words[1] for words in commands} == set(subparsers)
    for words in commands:
        assert words[0] == "mome"
        accepted = subparsers[words[1]]._option_string_actions
        unknown = [w for w in words[2:] if w.startswith("--") and w not in accepted]
        assert unknown == [], " ".join(words)


def test_every_numcore_function_has_a_caller_outside_numcore():
    """Each public function of ``mome.numcore`` is called from another module
    of the package (``gradcheck`` counts), so no primitive outlives its
    last caller."""
    package = os.path.join(ROOT, "src", "mome")
    with open(os.path.join(package, "numcore.py")) as fh:
        tree = ast.parse(fh.read())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in glob.glob(os.path.join(package, "*.py")):
        if os.path.basename(path) == "numcore.py":
            continue
        with open(path) as fh:
            module = ast.parse(fh.read())
        aliases, imported = set(), set()
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.module == "numcore":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "numcore")
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in aliases):
                called.add(func.attr)
            elif isinstance(func, ast.Name) and func.id in imported:
                called.add(func.id)
    assert public, "no public functions found in numcore"
    assert sorted(public - called) == []


@pytest.mark.parametrize("module", ["experts.py", "bpe.py"])
def test_model_modules_take_no_sample_bookkeeping(module):
    """The model is a function of the bag, the genomic groups and the
    weights: no function of the expert layers or the full model takes a
    sample id, a routing log or a layer index. Routing records are stamped
    in ``training``, from the decisions ``forward`` hands back."""
    with open(os.path.join(ROOT, "src", "mome", module)) as fh:
        tree = ast.parse(fh.read())
    banned = {"sample_id", "routing_log", "layer_index"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
            found += [f"{getattr(node, 'name', 'lambda')}({name})" for name in names & banned]
    assert sorted(found) == []


def test_experts_take_no_training_flag():
    """An expert's dropout switch is its ``rng`` (``None`` draws nothing);
    only ``MoMEModel.forward`` takes ``training`` and checks it against the
    stream, so no function of the expert module repeats the flag."""
    with open(os.path.join(ROOT, "src", "mome", "experts.py")) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            if "training" in names:
                found.append(getattr(node, "name", "lambda"))
    assert found == []


def _module_tree(module: str) -> ast.Module:
    with open(os.path.join(ROOT, "src", "mome", module)) as fh:
        return ast.parse(fh.read())


def test_expert_parameter_sets_copy_no_setting_default():
    """A model setting's default lives in ``ModelSettings`` alone: no
    function parameter or dataclass field of ``experts`` named after one has
    a default, so ``MoMEModel`` must hand every value down."""
    settings = {"n_bottleneck", "head_count", "enable_mask", "dropout_rate"}
    found = []
    for node in ast.walk(_module_tree("experts.py")):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [f"{getattr(node, 'name', 'lambda')}({a.arg})" for a in defaulted
                      if a.arg in settings]
        elif isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                      and stmt.target.id in settings and stmt.value is not None]
    assert found == []


@pytest.mark.parametrize("module, holders", [
    ("experts.py", {"SnnParams", "MoMELayer"}), ("attention.py", {"AttentionParams"}),
])
def test_parameter_sets_check_nothing(module, holders):
    """A setting's range rule lives in ``ModelSettings`` / ``RunConfig``
    alone: the parameter sets the model fills from a validated config
    define no ``__post_init__``."""
    classes = {node.name: node for node in _module_tree(module).body
               if isinstance(node, ast.ClassDef) and node.name in holders}
    assert set(classes) == holders
    found = [name for name, node in classes.items()
             if any(isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"
                    for stmt in node.body)]
    assert found == []


@pytest.mark.parametrize("module", ["bpe.py", "experts.py", "attention.py"])
def test_model_modules_make_trainable_tensors_through_init_alone(module):
    """``numcore.Init`` makes every trainable tensor, so a checkpoint can fill
    the model from its records: no model module passes ``requires_grad=True``
    or calls ``fan_in_uniform``."""
    found = []
    for node in ast.walk(_module_tree(module)):
        if (isinstance(node, ast.keyword) and node.arg == "requires_grad"
                and isinstance(node.value, ast.Constant) and node.value.value is True):
            found.append(f"requires_grad=True at line {node.lineno}")
        elif "fan_in_uniform" in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append(f"fan_in_uniform at line {node.lineno}")
    assert found == []


def test_data_imports_no_model_module():
    """``data`` owns how file bytes become arrays, the genomic type included,
    below the model stack: of the package it imports ``errors`` and
    ``numcore`` alone, never ``bpe``, ``experts``, ``attention``,
    ``survival``, ``training``, ``gradcheck`` or ``cli``."""
    package = {os.path.basename(path)[:-3]
               for path in glob.glob(os.path.join(ROOT, "src", "mome", "*.py"))}
    imported = set()
    for node in ast.walk(_module_tree("data.py")):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        imported.update(name.removeprefix("mome.") for name in names)
    assert sorted((imported & package) - {"errors", "numcore"}) == []


def test_one_module_owns_threads():
    """``attention.own_process`` owns the process's compute resources (the
    BLAS pin, the allocator policy and the query-tile pool): no other
    module of the package imports ``threading``, ``concurrent.futures`` or
    ``ctypes``."""
    owned = {"threading", "concurrent", "ctypes"}
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "mome", "*.py"))):
        module = os.path.basename(path)
        if module == "attention.py":
            continue
        for node in ast.walk(_module_tree(module)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{module}: {name}" for name in names if name.split(".")[0] in owned]
    assert found == []
