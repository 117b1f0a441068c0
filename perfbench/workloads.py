"""Workload definitions: the ordered job lists, the frozen inputs and the
layers each workload is expected to exercise.

A job is the argv of one `chainext.cli.main` call.  Job lists are fixed; the
run seed only enters `fuzz_dense`, whose eight `fuzz` jobs use the seeds
seed .. seed+7.  See README.md in this directory for why each workload was
chosen and what each layer metric should move.
"""

INPUTS_DIR = "perfbench/inputs"

# Engine files exported once from brst.export_to_complexes and
# formats.dump_extend (d_f = eta . l2_0 . lam).  The benchmark refuses to run
# when a file differs, so a later change to the exporter cannot change the
# workload.
FROZEN_INPUTS = {
    "extend_brst_toy_cap4.txt":
        "8531ac35d91b3aa8253b4fa5a6e4ba234888f3d8e1e16e6044481e52ca93987b",
    "extend_brst_abelian2_cap3.txt":
        "7e97c4e14d2f4a2941078de86bb2c2cfd4c24d6d1a88486d402026c46b8d2be0",
}

FUZZ_SEEDS = 8

# Samples an untraced run takes at least, whatever --seconds says.  A
# fuzz_dense sample lasts about 10 s, so one sample would average the host's
# speed over too short a window; three bring its run near the length of one
# cross_check sample.
MIN_SAMPLES = {"closed_form": 1, "cross_check": 1, "fuzz_dense": 3}


def jobs(workload, seed):
    """The ordered argv list of one workload at one run seed."""
    if workload == "closed_form":
        return [
            ["brst", "--input", "brst_so3", "--cap", "5"],
            ["brst", "--input", "brst_toy", "--cap", "6"],
            ["bv", "--input", "bv_two_ghost"],
            ["bv", "--input", "bv_two_pair"],
            ["shlie", "--input", "lie_so3"],
            ["shlie", "--input", "lie_abelian3",
             "--alpha1", "cochain_obstructed_alpha1"],
            ["lie", "--input", "lie_sl2"],
            ["lie", "--input", "lie_heisenberg"],
            ["lie", "--input", "lie_abelian3",
             "--alpha1", "cochain_obstructed_alpha1"],
        ]
    if workload == "cross_check":
        return [
            ["bv", "--input", "bv_two_ghost", "--cross-check"],
            ["bv", "--input", "bv_two_pair", "--cross-check"],
            ["shlie", "--input", "lie_so3", "--cross-check"],
            ["extend", "--input",
             INPUTS_DIR + "/extend_brst_toy_cap4.txt"],
            ["extend", "--input",
             INPUTS_DIR + "/extend_brst_abelian2_cap3.txt"],
        ]
    if workload == "fuzz_dense":
        return ([["fuzz", "--seed", str(seed + i)] for i in range(FUZZ_SEEDS)]
                + [["extend", "--input", "extend_medium"],
                   ["extend", "--input", "extend_split"]])
    raise KeyError(workload)


WORKLOADS = ("closed_form", "cross_check", "fuzz_dense")


def input_names(argv):
    """The --input and --alpha1 arguments of one job."""
    return [argv[i + 1] for i, a in enumerate(argv[:-1])
            if a in ("--input", "--alpha1")]


# Traced functions whose `.calls` must be nonzero on a workload.  A zero
# there means the layer metric measured nothing, and the traced run fails.
# Functions a planned refactor may legitimately stop calling on a workload
# (for example brst.in_constraint_ideal's solve) are left out.
EXPECTED_CALLS = {
    "closed_form": [
        "superalg.mul", "superalg.antibracket", "superalg.poisson",
        "superalg.extend_right_derivation", "superalg.SuperPoly",
        "brst.monomial_basis", "brst.verify_brst_resolution",
        "brst.build_brst", "brst.check_nilpotent_on_basis",
        "bv.verify_theorem8", "bv.theorem8_maps", "bv.BVModel.bracket",
        "shlie.build_shlie", "shlie.verify_shlie", "shlie.master_relation",
        "lie.h2", "lie.extend_deformation",
        "cli.cmd_brst", "cli.cmd_bv", "cli.cmd_shlie", "cli.cmd_lie",
        "formats.load",
    ],
    "cross_check": [
        "exactla.rref", "exactla.solve", "exactla.rank", "exactla.matmul",
        "exactla.RatMatrix",
        "complexes.check_l2_conditions", "complexes.chain_extend",
        "complexes.verify_nilpotent", "complexes.verify_homotopy",
        "complexes.total_homology_dims",
        "bv.engine_matrices_match", "bv.to_homotopy_data",
        "bv.verify_theorem8", "bv.theorem8_maps",
        "shlie.crosscheck_with_engine", "shlie.build_shlie",
        "superalg.mul", "superalg.antibracket",
        "cli.cmd_bv", "cli.cmd_shlie", "cli.cmd_extend",
        "formats.load",
    ],
    "fuzz_dense": [
        "exactla.rref", "exactla.rank", "exactla.matmul", "exactla.RatMatrix",
        "complexes.check_l2_conditions", "complexes.chain_extend",
        "complexes.verify_nilpotent", "complexes.verify_homotopy",
        "complexes.total_homology_dims",
        "instances.random_split_instance",
        "cli.cmd_fuzz", "cli.cmd_extend",
        "formats.load",
    ],
}
