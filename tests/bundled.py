"""The bundled model files as the tests' model objects.

Each BRST and BV model is defined once, by its file under
src/chainext/models; the tests load it through formats, as the CLI does.
"""

from chainext import bv, formats
from chainext.brst import ConstraintSystem
from chainext.cli import read_input


def brst_system(name: str) -> ConstraintSystem:
    """The ConstraintSystem of a bundled brst file, e.g. "brst_so3"."""
    return ConstraintSystem(*formats.load_brst(read_input(name)))


def bv_problem(name: str, trunc=None) -> bv.DeformationProblem:
    """The DeformationProblem of a bundled bv file, e.g. "bv_two_ghost",
    truncated at trunc or else at the file's trunc.  `S<i>: auto` is
    resolved with bv.auto_term, as cli.cmd_bv does."""
    model, terms, file_trunc = formats.load_bv(read_input(name))
    S = []
    for i, term in enumerate(terms):
        S.append(bv.auto_term(model, S[0], i) if term == "auto" else term)
    return bv.DeformationProblem(model, S,
                                 trunc=file_trunc if trunc is None else trunc)


# Test ids keep the names the tests gave each model when src also built it
# with a Python function, and "<lambda>" where that took an argument, so
# parametrized tests keep their ids.
MODEL_IDS = {"brst_so3": "so3_system", "brst_toy": "toy_system",
             "brst_abelian": "<lambda>", "bv_two_ghost": "two_ghost_problem",
             "bv_two_pair": "two_pair_problem"}


def model_id(value):
    """The pytest id of a parameter naming a bundled model: a model name, or
    the arguments (name,) or (name, trunc) of bv_problem.  None, pytest's
    own id, for any other parameter."""
    if isinstance(value, tuple) and value and value[0] in MODEL_IDS:
        return MODEL_IDS[value[0]] if len(value) == 1 else "<lambda>"
    return MODEL_IDS.get(value) if isinstance(value, str) else None
