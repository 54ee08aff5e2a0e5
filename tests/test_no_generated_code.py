"""No module of the package runs code it generates: no exec, eval or compile."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "llc_params"
GENERATORS = {"exec", "eval", "compile"}


def _generated_code_calls(source):
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in GENERATORS:
                calls.append(func.id)
            elif (isinstance(func, ast.Attribute) and func.attr in GENERATORS
                  and isinstance(func.value, ast.Name) and func.value.id == "builtins"):
                calls.append(f"builtins.{func.attr}")
    return calls


def test_modules_generate_no_code():
    offending = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if (calls := _generated_code_calls(path.read_text(encoding="utf-8")))
    }
    assert offending == {}


def test_guard_catches_every_generated_code_call():
    for line, expected in (
        ("exec('x = 1', namespace)", ["exec"]),
        ("value = eval(text)", ["eval"]),
        ("code = compile(src, '<string>', 'exec')", ["compile"]),
        ("def f():\n    return [exec(s) for s in sources]", ["exec"]),
        ("import builtins\nbuiltins.eval('1')", ["builtins.eval"]),
    ):
        assert _generated_code_calls(line) == expected, line
    assert _generated_code_calls("re.compile(pattern)\nliteral_eval('1')") == []
    assert _generated_code_calls("mode = 'exec'\nexecutor = run") == []
