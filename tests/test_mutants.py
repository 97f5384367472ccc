import ast

import mutants


def test_each_mutant_names_text_and_tests_that_exist():
    """Each mutant's old text occurs once in its file and its new text nowhere, so the
    runner mutates what the table says; a test it runs is a function of its file."""
    assert len({mutant.name for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        text = (mutants.ROOT / mutant.file).read_text()
        assert text.count(mutant.old) == 1 and mutant.new not in text, mutant.name
        for arg in mutant.check:
            if "::" in arg:
                path, name = arg.split("::")
                tree = ast.parse((mutants.ROOT / path).read_text())
                assert name in {node.name for node in tree.body
                                if isinstance(node, ast.FunctionDef)}, arg
