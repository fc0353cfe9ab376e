"""The state-file format has one owner: ``cli`` reads and writes every
stored field, and the role modules hold protocol state as ``int``s."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fanet_aka"


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _imported_from(tree: ast.Module, module: str) -> set[str]:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names}


@pytest.mark.parametrize("module", ["user", "gwn", "uav"])
def test_role_modules_hold_no_state_file_codec(module):
    tree = _tree(module)
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert not defined & {"to_json", "from_json"}
    assert _imported_from(tree, "bits") <= {"text_value"}


def test_cli_builds_no_bitstring():
    tree = _tree("cli")
    assert "BitString" not in _imported_from(tree, "bits")
    assert "BitString" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _names(tree: ast.Module) -> set[str]:
    """Every name and attribute ``tree`` reads or binds, without imports."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("module", ["user", "gwn", "uav", "metrics"])
def test_protocol_core_names_no_bitstring(module):
    # role steps and the counted primitives compute on ints, timestamps too
    tree = _tree(module)
    names = _names(tree) | {alias.name for node in ast.walk(tree)
                            if isinstance(node, (ast.Import, ast.ImportFrom))
                            for alias in node.names}
    assert "BitString" not in names


def _is_ops(node: ast.expr) -> bool:
    """``ops`` or ``self.ops``: a role's counted facade."""
    if isinstance(node, ast.Attribute):
        return node.attr == "ops" and isinstance(node.value, ast.Name) and node.value.id == "self"
    return isinstance(node, ast.Name) and node.id == "ops"


@pytest.mark.parametrize("module", ["user", "gwn", "uav"])
def test_role_steps_hash_only_through_the_counted_calls(module):
    # every protocol hash is one OpCounter.h call, which a traced run counts
    # by that one name; a role that hashed on its own would go uncounted
    tree = _tree(module)
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not (_names(tree) | imported) & {"hashlib", "_sha1", "sha1_value"}
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _is_ops(node.value)}
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and _is_ops(node.func.value)}
    assert "h" in called and used == called <= {"h", "xor", "puf", "fe_gen", "fe_rep"}


def test_closure_reasons_over_ints_and_splits_nothing():
    # what the adversary saw reaches the engine as field and timestamp
    # ints, already split by wire.decode; the engine formats traces only
    tree = _tree("closure")
    assert not _imported_from(tree, "wire")
    assert _imported_from(tree, "bits") == {"hex_of"}
    assert "BitString" not in _names(tree)


@pytest.mark.parametrize("module", ["scenarios", "crypto"])
def test_no_field_wrapper_builds_closure_terms(module):
    # the closure takes field ints, so nothing wraps one as a BitString for it
    tree = _tree(module)
    assert "field" not in _names(tree)
    assert "field" not in _imported_from(tree, "crypto")


def test_scenarios_name_no_bitstring():
    # a scenario searches payloads and the PUF seed as ints, and draws its
    # garbage as a record of random field ints
    tree = _tree("scenarios")
    assert "BitString" not in _imported_from(tree, "bits")
    assert "BitString" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_bits_joins_no_bit_strings_and_searches_ints():
    # sha1_digest joins its own parts, and the bit search is a function
    tree = _tree("bits")
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    methods = {fn.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    assert "concat" not in defined and "contains" in defined
    assert "contains" not in methods


def test_key_agreement_messages_hold_int_fields():
    classes = {node.name: node for node in ast.walk(_tree("wire"))
               if isinstance(node, ast.ClassDef)}
    for name in ("Msg1", "Msg2", "Msg3"):
        annotations = [ast.unparse(node.annotation) for node in classes[name].body
                       if isinstance(node, ast.AnnAssign)]
        assert annotations and set(annotations) == {"int"}, name


@pytest.mark.parametrize("width", [672, 512, 1856])
def test_the_session_bit_contract_is_stated_once(width):
    # every use of a message or session width in the package sits in the one
    # assignment that states the contract; the rest read it from there
    def uses(node):
        return sum(1 for n in ast.walk(node)
                   if isinstance(n, ast.Constant) and type(n.value) is int and n.value == width)

    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    holders = [uses(node) for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.Assign, ast.AnnAssign)) and uses(node)]
    assert len(holders) == 1 and holders[0] == sum(uses(tree) for tree in trees)
