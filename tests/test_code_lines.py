from code_lines import code_lines, count, main

FIXTURE = '''"""A docstring
over two lines."""

# a comment
x = 1
y = x
'''


def test_a_docstring_a_comment_and_a_blank_line_are_not_code():
    assert code_lines(FIXTURE) == 2


def test_nested_docstrings_and_split_statements():
    source = (
        "def f(a,\n"
        "      b):\n"
        '    """Docstring."""\n'
        "    s = '''a string\n"
        "    over two lines'''  # kept: it is assigned\n"
        "    return s\n"
    )
    assert code_lines(source) == 5


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("z = 3\n")
    assert count(tmp_path) == {"a.py": 2, "b.py": 1}
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     2  a.py", "     1  b.py", "     3  total"]
