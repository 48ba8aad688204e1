import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Each line ends in the count it should add: 1 when it holds code, 0 when
# it is blank, a comment or part of a docstring.  The marks are comments,
# so they change no count.
FIXTURE = '''\
"""A module docstring,          # 0
over two lines."""              # 0
                                # 0
import math  # a trailing comment, counted once with its code  # 1
# a comment line                # 0


def f(x):                       # 1
    """First in the function."""  # 0
    y = """a string             # 1
in code, over                   # 1
three lines"""                  # 1
    "a docstring out of first position"  # 0
    return math.sqrt(x) + len(y)  # 1


class C:                        # 1
    """First in the class."""   # 0

    z = ("a", "b")              # 1
    "a string statement after code"  # 0
    "implicitly " "joined"      # 0
'''


def test_counts_the_fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    want = sum(int(line.rsplit("#", 1)[1]) for line in FIXTURE.splitlines() if "#" in line)
    assert want == 8
    assert code_lines.code_lines(path) == want


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2  # two\n")
    (tmp_path / "b.py").write_text('"""doc."""\nz = 3\n')
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"2 {tmp_path / 'a.py'}", f"1 {tmp_path / 'b.py'}", "3 total"]
