import pathlib
import re

from named_words import EQUAL_17, W

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(census_calls):
    # the first python block under "## Library" runs as written, with one
    # census of its word: the squares and pairs reuse the census it has
    library = README.read_text().split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(example, str(README), "exec"), namespace)
    assert namespace["w"] == W(EQUAL_17)
    assert census_calls.count(W(EQUAL_17).codes) == 1
