"""Properties of the package source itself."""

import ast
from pathlib import Path

import evoalg


def test_no_assert_statements():
    # Self-checks raise SelfCheckFailed; an assert would vanish under -O.
    sources = sorted(Path(evoalg.__file__).parent.glob("*.py"))
    assert len(sources) >= 13
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises Python >= 3.10: no later syntax in the package
    # or its tests.
    root = Path(evoalg.__file__).parent
    sources = sorted(root.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(sources) >= 29
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
