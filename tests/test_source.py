"""Properties of the package source itself."""

import ast
import importlib.util
import inspect
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import evoalg

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
SRC = Path(evoalg.__file__).resolve().parents[1]


def test_no_assert_statements():
    # Self-checks raise SelfCheckFailed; an assert would vanish under -O.
    sources = sorted(Path(evoalg.__file__).parent.glob("*.py"))
    assert len(sources) >= 13
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_dataclasses():
    # Report records are typing.NamedTuples: one record mechanism, and no
    # dataclasses (with inspect behind it) to import at start-up.
    sources = sorted(Path(evoalg.__file__).parent.glob("*.py"))
    assert len(sources) >= 13
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module
                 and node.module.split(".")[0] == "dataclasses")]
    assert found == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises Python >= 3.10: no later syntax in the package
    # or its tests.
    root = Path(evoalg.__file__).parent
    sources = (sorted(root.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
               + sorted(TOOLS.glob("*.py")))
    assert len(sources) >= 30
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_boundary_reads_plain_values():
    # The CLI and the file formats parse to and print plain values: they
    # read no boxing view and render or box no scalar (args.basis is the
    # --basis option).
    boxing = {"coords", "basis", "data", "row", "column", "entry", "render", "box"}
    root = Path(evoalg.__file__).parent
    found = [f"{name}:{node.lineno} .{node.attr}" for name in ("cli.py", "algfile.py")
             for node in ast.walk(ast.parse((root / name).read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in boxing
             and not (isinstance(node.value, ast.Name) and node.value.id == "args")]
    assert found == []


def test_only_fields_names_fraction():
    # The canonical Q form (an int whenever the value is an integer) is
    # decided in one place: every other module makes rationals through
    # fields.rational and the field descriptors.
    root = Path(evoalg.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(root.glob("*.py"))
             if path.name != "fields.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Name) and node.id == "Fraction")
             or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
             or (isinstance(node, ast.alias) and "Fraction" in (node.name, node.asname))]
    assert found == []


def test_only_cli_main_writes_output():
    # Handlers return their report; main alone prints it, or the error, and
    # sets the exit code.
    tree = ast.parse((Path(evoalg.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{node.lineno}" for top in tree.body
             if not (isinstance(top, ast.FunctionDef) and top.name == "main")
             for node in ast.walk(top)
             if (isinstance(node, ast.Name) and node.id == "print")
             or (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"))]
    assert found == []
    main = next(top for top in tree.body
                if isinstance(top, ast.FunctionDef) and top.name == "main")
    assert any(isinstance(node, ast.Name) and node.id == "print" for node in ast.walk(main))


LAYERS = ("errors", "fields", "linalg", "algebra", "ideals", "natural", "nilpotency",
          "adjoint", "generate", "algfile", "oracles", "cli")


def test_imports_point_down_the_layers():
    # Scalars, then rows, then the algebra, then the analyses, then the
    # formats and the CLI: a module imports only from modules before it.
    root = Path(evoalg.__file__).parent
    assert sorted(p.stem for p in root.glob("*.py") if p.name != "__init__.py") \
        == sorted(LAYERS)
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        below = LAYERS[:LAYERS.index(path.stem)]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                found += [f"{path.stem} imports {name}" for name in names if name not in below]
    assert found == []


def test_row_arithmetic_lives_in_linalg():
    # The field descriptors handle scalars only; every row kernel is
    # written once, in linalg.
    root = Path(evoalg.__file__).parent
    kernels = {"reduce_row", "reduce_packed", "reduce_bits", "normalize_row",
               "integral_rows", "integer_row", "row_support"}
    defined = {}
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in kernels:
                defined.setdefault(node.name, []).append(path.stem)
            if isinstance(node, ast.ClassDef) and node.name in ("Rationals", "PrimeField"):
                methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                assert methods.isdisjoint({"integral", "normalize", "eliminate"}), node.name
    assert defined == {name: ["linalg"] for name in kernels}


def test_only_cli_imports_oracles():
    # The brute-force oracles check the fast paths, so no other module may
    # come to depend on them.
    root = Path(evoalg.__file__).parent

    def imports_oracles(node):
        if isinstance(node, ast.ImportFrom):
            return (node.module in ("oracles", "evoalg.oracles")
                    or (node.module in (None, "evoalg")
                        and any(a.name == "oracles" for a in node.names)))
        return isinstance(node, ast.Import) and any(
            a.name == "evoalg.oracles" for a in node.names)

    found = [f"{path.name}:{getattr(top, 'name', '<module>')}"
             for path in sorted(root.glob("*.py")) if path.name != "oracles.py"
             for top in ast.parse(path.read_text(encoding="utf-8")).body
             for node in ast.walk(top) if imports_oracles(node)]
    assert found == ["cli.py:<module>"]


def test_brute_force_references_name_no_fast_path():
    # A reference that called the code it checks would agree with it by
    # construction.  Only the case factories of the oracle table and the
    # loop that runs them may name the checked modules or the library's
    # classes.
    from evoalg.oracles import ORACLES
    checked = {"natural", "ideals", "nilpotency", "EvolutionAlgebra", "Subspace", "GF"}
    allowed = {row[0].__name__ for row in ORACLES.values()}
    allowed.add("run_oracle")
    tree = ast.parse((Path(evoalg.__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    found = [f"oracles.py:{node.lineno} {top.name} names {node.id}" for top in tree.body
             if isinstance(top, ast.FunctionDef) and top.name not in allowed
             for node in ast.walk(top) if isinstance(node, ast.Name) and node.id in checked]
    assert found == []
    assert len(allowed) == 6


CODE_LINES_SAMPLE = '''"""Module docstring
over two lines."""

# A comment line.
import os  # code with a trailing comment


class Record:
    """Class docstring."""

    def read(self):
        """Function docstring
        over two lines."""
        text = """a multi-line string
that is no docstring"""

        return os.sep + text  # another trailing comment
'''


def test_code_line_counter_rules():
    # Blank, comment and docstring lines do not count; every line of any
    # other string does, and so does code with a trailing comment.
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.code_lines(CODE_LINES_SAMPLE) == [5, 8, 11, 14, 15, 17]


def test_text_readers_number_lines_in_one_handler():
    # Each line-oriented reader gives a line's ParseError its line number
    # in one except clause; no other raise in it passes line=.
    tree = ast.parse((Path(evoalg.__file__).parent / "algfile.py").read_text(encoding="utf-8"))
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    for name in ("parse_algebra_text", "parse_vectors_text"):
        (handler,) = [n for n in ast.walk(functions[name]) if isinstance(n, ast.ExceptHandler)]
        numbered = [n for n in ast.walk(functions[name])
                    if isinstance(n, ast.keyword) and n.arg == "line"]
        assert len(numbered) == 1 and numbered[0] in set(ast.walk(handler)), name


def names(node):
    """How often each name is read under node, as a Name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreached(sources, exported, hooks):
    """The functions, classes and methods of sources ({module: text}) that
    nothing reaches, as "module.qualname" strings.  A definition is reached
    when its name is read somewhere outside its own body, when it is
    exported or a hook, or when it is a public method or a dunder of an
    exported class.  A dunder of any reached class is reached: Python calls
    it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = sum(map(names, trees.values()), Counter())
    reached, out = {}, []

    def visit(node, module, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, prefix, owner)
                continue
            qual = f"{module}.{prefix}{child.name}"
            dunder = child.name.startswith("__") and child.name.endswith("__")
            reached[qual] = (qual in exported or qual in hooks
                             or read[child.name] > names(child)[child.name]
                             or owner in exported and (dunder or child.name[0] != "_")
                             or dunder and reached.get(owner, False))
            if not reached[qual]:
                out.append(qual)
            visit(child, module, f"{prefix}{child.name}.",
                  qual if isinstance(child, ast.ClassDef) else None)

    for module, tree in trees.items():
        visit(tree, module, "", None)
    return out


def exported_definitions():
    """The "module.qualname" of each function and class that evoalg.__all__
    names, and of each evoalg class in the MRO of a listed class or of the
    class of a listed instance (QQ)."""
    out = set()
    for name in evoalg.__all__:
        obj = getattr(evoalg, name)
        found = ([obj] if inspect.isfunction(obj) else
                 obj.__mro__ if isinstance(obj, type) else type(obj).__mro__)
        out.update(f"{d.__module__.rpartition('.')[2]}.{d.__qualname__}" for d in found
                   if d.__module__.startswith("evoalg."))
    return out


# Definitions that only bench/layers.py reaches (by name, through getattr).
BENCH_HOOKS = ("oracles.enumerate_natural_bases", "oracles.natural_basis_membership")


def package_sources():
    # __init__.py binds the API, which exported_definitions reads.
    root = Path(evoalg.__file__).parent
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(root.glob("*.py"))
            if path.name != "__init__.py"}


def test_every_definition_is_reached():
    assert unreached(package_sources(), exported_definitions(), BENCH_HOOKS) == []


def test_bench_hooks_are_needed_and_named_by_the_harness():
    # Each hook is reached by nothing else, and bench/layers.py names it.
    assert unreached(package_sources(), exported_definitions(), ()) == list(BENCH_HOOKS)
    harness = (ROOT / "bench" / "layers.py").read_text(encoding="utf-8")
    assert all(f'"{hook.rpartition(".")[2]}"' in harness for hook in BENCH_HOOKS)


REACH_SAMPLE = {"shapes": '''
class Shape:
    def area(self):
        return _scale(self)

    def _cached(self):
        return None

    def __len__(self):
        return 0


class _Draft:
    def __repr__(self):
        return ""

    def outline(self):
        return None


class _Unit:
    def __eq__(self, other):
        return True


def _scale(shape):
    def factor():
        return 2
    return factor() * _Unit()


def _orphan(n):
    return _orphan(n - 1)


def timed():
    return None
''', "cli": '''
def main():
    return Shape().area()
'''}


def test_reachability_checker_rules():
    # Read names, exports, public methods and dunders of exported classes,
    # dunders of read classes, nested functions read by their parent and
    # hooks are reached; private helpers read only by themselves, and
    # everything of an unread class, are not.
    found = unreached(REACH_SAMPLE, {"shapes.Shape", "cli.main"}, ("shapes.timed",))
    assert found == ["shapes.Shape._cached", "shapes._Draft", "shapes._Draft.__repr__",
                     "shapes._Draft.outline", "shapes._orphan"]


def test_all_is_what_the_package_imports():
    # __all__ is computed from the from-imports of __init__.py, not kept by
    # hand: it is exactly the names they bind, the submodules excepted.
    tree = ast.parse(Path(evoalg.__file__).read_text(encoding="utf-8"))
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    assert evoalg.__all__ == sorted(bound)
    namespace = {}
    exec("from evoalg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == evoalg.__all__


def test_readme_lists_the_python_api():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # The list is the last paragraph of its section.
    section = re.split(r"\n#+ ", readme.split("\n### Python API\n", 1)[1], maxsplit=1)[0]
    assert re.findall(r"`(\w+)`", section.strip().split("\n\n")[-1]) == evoalg.__all__


def same_outputs(old_src, new_src):
    proc = subprocess.run([sys.executable, str(TOOLS / "same_outputs.py"), str(old_src),
                           str(new_src)], capture_output=True, text=True, timeout=300)
    counts = re.match(r"(\d+) invocations, (\d+) differ\n", proc.stdout)
    assert counts, proc.stderr
    return proc.returncode, int(counts[1]), int(counts[2]), proc.stdout


def test_same_outputs_of_one_tree():
    code, runs, differ, _ = same_outputs(SRC, SRC)
    assert (code, differ) == (0, 0) and runs >= 7000


def test_same_outputs_reports_a_changed_message(tmp_path):
    # The three duplicate-header files of the corpus print the changed
    # message; every other invocation stays the same.
    shutil.copytree(SRC / "evoalg", tmp_path / "evoalg")
    reader = tmp_path / "evoalg" / "algfile.py"
    source = reader.read_text(encoding="utf-8")
    assert source.count("duplicate {key} line") == 1
    reader.write_text(source.replace("duplicate {key} line", "repeated {key} line"),
                      encoding="utf-8")
    code, _, differ, out = same_outputs(SRC, tmp_path)
    assert (code, differ) == (1, 3)
    assert "'error [parse-error]: duplicate dim line (line 3)\\n' -> " \
           "'error [parse-error]: repeated dim line (line 3)\\n'" in out
