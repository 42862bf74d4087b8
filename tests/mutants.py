"""Mutation checks that can be re-run.

Each mutant is one exact replacement in one module of src/complat and the
tests that must fail once it is made. For each mutant, one after another,
the runner copies src to a temporary directory, makes the replacement
there and runs the mutant's tests in one pytest subprocess with that copy
first on the path. It prints "killed" when every listed test fails and
"survived" otherwise, naming the listed tests that passed, and exits 1 if
any mutant survived.

Run from the repository root:

    python tests/mutants.py              # every mutant
    python tests/mutants.py ID [ID ...]  # the named ones

pytest collects test_*.py only, so the runner stays out of the test suite;
tests/test_source.py checks that every replacement still applies to the
source and that every listed test exists. A mutant that survives is a gap
in the tests: record it, never drop it from the list.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Mutant(namedtuple("Mutant", "id file old new tests")):
    """One mutation: an id, a module file name under src/complat, the exact
    text it replaces (which must occur there once), its replacement, and
    the pytest node ids of the tests that must fail on it."""

    __slots__ = ()


MUTANTS = (
    Mutant(
        "hall-table-drops-a-subrep",
        "linmoduli.py",
        "        for low, top in _subreps(quiver, q, rep, gamma, sub):\n",
        "        for low, top in _subreps(quiver, q, rep, gamma, sub)[1:]:\n",
        (
            "tests/test_linmoduli.py::test_filtered_points_counted_by_tables_match_the_attractor_count[a2-q2]",
            "tests/test_linmoduli.py::test_hall_tables_match_products_enumerated_per_call[a2-q2]",
            "tests/test_linmoduli.py::test_convolution_is_associative_on_one_vertex",
            "tests/test_demos.py::test_a_demo_runs_to_exit_0[04_finite_field_counts]",
        ),
    ),
    Mutant(
        "flag-table-drops-a-chain",
        "linmoduli.py",
        "            for low, between in _subreps(quiver, q, mid, mid_gamma, dc):\n",
        "            for low, between in _subreps(quiver, q, mid, mid_gamma, dc)[1:]:\n",
        (
            "tests/test_linmoduli.py::test_filtered_points_counted_by_tables_match_the_attractor_count[a2-q2]",
            "tests/test_linmoduli.py::test_flag_tables_match_chains_enumerated_per_class_triple[a2-q2]",
            "tests/test_linmoduli.py::test_convolution_is_associative_on_one_vertex",
        ),
    ),
    Mutant(
        "hall-product-drops-multiplicities",
        "linmoduli.py",
        "                out[gamma, li] += x * y * n\n",
        "                out[gamma, li] += x * y\n",
        (
            "tests/test_linmoduli.py::test_hall_numbers_count_subspaces_on_one_vertex",
            "tests/test_linmoduli.py::test_hall_tables_match_products_enumerated_per_call[one_vertex-q2]",
        ),
    ),
    Mutant(
        "attractor-without-zero-pairings",
        "stackmodel.py",
        "    attractor = tuple(w for w in spec.weights if all(int_dot(w, a) >= 0 for a in ambient))\n",
        "    attractor = tuple(w for w in spec.weights if all(int_dot(w, a) > 0 for a in ambient))\n",
        (
            "tests/test_linmoduli.py::test_filtered_points_counted_by_tables_match_the_attractor_count[a2-q2]",
            "tests/test_linmoduli.py::test_filtered_points_counted_by_tables_match_the_attractor_count[a3-q2]",
        ),
    ),
    Mutant(
        "weyl-orbits-without-disjointness",
        "stackmodel.py",
        "            if m not in orbit or not seen.isdisjoint(orbit):\n",
        "            if m not in orbit:\n",
        (
            "tests/test_stackmodel.py::test_weyl_orbits_of_no_group_break_an_invariant[extra]",
        ),
    ),
    Mutant(
        "cell-orbit-size-without-parabolic",
        "stackmodel.py",
        "group // stable // parabolic[nonzero, positive] * len(orbit)",
        "group // stable * len(orbit)",
        (
            "tests/test_cli.py::test_braid_cells_are_the_ordered_set_partitions[3-False]",
            "tests/test_cli.py::test_faces_lists_orbits_of_the_rank_two_example",
        ),
    ),
    Mutant(
        "weight-identity-without-degenerate-mask",
        "stackmodel.py",
        "((seen & ~degen) | (degen & nonneg[j]))",
        "(seen | (degen & nonneg[j]))",
        (
            "tests/test_hall_category.py::test_composition_weight_identity[a1gm]",
            "tests/test_cli.py::test_verify_hall_suite",
        ),
    ),
    Mutant(
        "iso-classes-without-end-check",
        "linmoduli.py",
        "        if aut_order > end_size:\n",
        "        if False:\n",
        (
            "tests/test_linmoduli.py::test_a_generating_set_that_is_too_small_is_caught[doc0-gamma0]",
            "tests/test_linmoduli.py::test_a_generating_set_that_is_too_small_is_caught[doc1-gamma1]",
        ),
    ),
    Mutant(
        "end-rank-stores-unreduced-rows",
        "linmoduli.py",
        "            rows.append(tuple(scale[x] for x in rest))\n",
        "            rows.append(tuple(scale[x] for x in equation))\n",
        (
            "tests/test_linmoduli.py::test_the_integer_class_mass_identity_on_small_quivers",
            "tests/test_linmoduli.py::test_class_counts_match_the_burnside_oracle[doc11-gamma11-2-6]",
        ),
    ),
    Mutant(
        "field-x-shift-without-reduction",
        "linmoduli.py",
        "                shifted = add[shifted % top * p][wrap[shifted // top]]  # times x\n",
        "                shifted = shifted % top * p  # times x\n",
        (
            "tests/test_linmoduli.py::test_field_tables_match_their_frozen_digests",
            "tests/test_linmoduli.py::test_field_axioms_hold_on_every_table[4]",
            "tests/test_linmoduli.py::test_order_nine_field_squares_x_to_minus_one",
        ),
    ),
    Mutant(
        "gl-generators-without-omega",
        "linmoduli.py",
        "    if n and q > 2 and (q, n % 2) != (3, 0):\n",
        "    if False:\n",
        (
            "tests/test_linmoduli.py::test_generators_close_to_the_whole_general_linear_group[3-1]",
            "tests/test_linmoduli.py::test_generators_close_to_the_whole_general_linear_group[4-2]",
            "tests/test_linmoduli.py::test_class_counts_match_the_burnside_oracle[doc4-gamma4-3-2]",
        ),
    ),
    Mutant(
        "gl-generators-without-cycle",
        "linmoduli.py",
        "    out: list[GLOp] = [(0, 1, 1), CYCLE] if n > 1 else []\n",
        "    out: list[GLOp] = [(0, 1, 1)] if n > 1 else []\n",
        (
            "tests/test_linmoduli.py::test_generators_close_to_the_whole_general_linear_group[2-2]",
            "tests/test_linmoduli.py::test_generators_close_to_the_whole_general_linear_group[3-3]",
            "tests/test_linmoduli.py::test_class_counts_match_the_burnside_oracle[doc11-gamma11-2-6]",
        ),
    ),
    Mutant(
        "packed-act-without-columns-out-of-v",
        "linmoduli.py",
        "        if rows and s == v:\n",
        "        if rows and s == v == t:\n",
        (
            "tests/test_linmoduli.py::test_an_elementary_operation_acts_as_conjugation_by_its_matrix[doc1-gamma1-2]",
            "tests/test_linmoduli.py::test_an_elementary_operation_acts_as_conjugation_by_its_matrix[doc2-gamma2-3]",
        ),
    ),
    Mutant(
        "constancy-sampler-ignores-denominators",
        "stackmodel.py",
        "                c = n * (denom // d)\n",
        "                c = n\n",
        (
            "tests/test_stackmodel.py::test_constancy_samples_are_positive_multiples_of_the_drawn_points",
        ),
    ),
    Mutant(
        "dimension-entries-accept-bool",
        "linmoduli.py",
        "    return isinstance(x, int) and not isinstance(x, bool) and x >= 0\n",
        "    return isinstance(x, int) and x >= 0\n",
        (
            "tests/test_linmoduli.py::test_multiset_decompositions_reject_what_a_dimension_vector_rejects[bool]",
        ),
    ),
    Mutant(
        "face-orbits-keyed-by-covectors",
        "linmoduli.py",
        "@lru_cache(maxsize=None)\ndef _flat_orbits_by_dim(",
        (
            "def _by_covectors(count):\n"
            "    memo = {}\n"
            "\n"
            "    def counted(doc_json):\n"
            "        from .stackmodel import global_arrangement, load_spec\n"
            "\n"
            "        key = global_arrangement(load_spec(json.loads(doc_json)))\n"
            "        if key not in memo:\n"
            "            memo[key] = count(doc_json)\n"
            "        return memo[key]\n"
            "\n"
            "    counted.cache_clear = memo.clear\n"
            "    return counted\n"
            "\n"
            "\n"
            "@_by_covectors\n"
            "def _flat_orbits_by_dim("
        ),
        (
            "tests/test_linmoduli.py::test_each_crosscheck_entry_matches_one_computed_with_emptied_memos[a2]",
            "tests/test_linmoduli.py::test_flat_orbits_by_dim_count_the_slot_partitions_with_connected_blocks[a2]",
        ),
    ),
    Mutant(
        "class-mass-without-group-order",
        "linmoduli.py",
        "    return sum(m // a for a in aut_orders) * group_order == points * m\n",
        "    return sum(m // a for a in aut_orders) == points * m\n",
        (
            "tests/test_linmoduli.py::test_the_integer_class_mass_identity_on_small_quivers",
            "tests/test_linmoduli.py::test_class_data_on_the_two_vertex_path",
        ),
    ),
    Mutant(
        "bareiss-without-exact-division",
        "qlinalg.py",
        "                row[j] = (pivot * row[j] - a * top[j]) // prev\n",
        "                row[j] = (pivot * row[j] - a * top[j]) // 1\n",
        (
            "tests/test_qlinalg.py::test_bareiss_determinant_matches_the_fraction_oracle",
        ),
    ),
    Mutant(
        "run-exits-0",
        "cli.py",
        "    os._exit(code)\n",
        "    os._exit(0)\n",
        (
            "tests/test_cli.py::test_each_exit_code_reaches_the_parent_through_python_m[failed]",
            "tests/test_cli.py::test_each_exit_code_reaches_the_parent_through_python_m[bad-input]",
            "tests/test_cli.py::test_each_exit_code_reaches_the_parent_through_python_m[cap]",
            "tests/test_cli.py::test_a_report_larger_than_the_stdout_buffer_comes_out_whole",
            "tests/test_cli.py::test_the_process_entry_runs_the_atexit_handlers",
        ),
    ),
    Mutant(
        "run-skips-atexit",
        "cli.py",
        "    atexit._run_exitfuncs()\n",
        "",
        (
            "tests/test_cli.py::test_the_process_entry_runs_the_atexit_handlers",
        ),
    ),
    Mutant(
        "add-table-ignores-its-multiple",
        "linmoduli.py",
        "    return tuple(tuple(_pack_row(q, [add[u][times_a[v]] for u, v in zip(x, y)]) for y in rows) for x in rows)\n",
        "    return tuple(tuple(_pack_row(q, [add[u][v] for u, v in zip(x, y)]) for y in rows) for x in rows)\n",
        (
            "tests/test_linmoduli.py::test_an_elementary_operation_acts_as_conjugation_by_its_matrix[doc0-gamma0-3]",
            "tests/test_linmoduli.py::test_an_elementary_operation_acts_as_conjugation_by_its_matrix[doc1-gamma1-4]",
        ),
    ),
    Mutant(
        "reduce-without-negation",
        "linmoduli.py",
        "            times = F.mul[F.neg[c]]\n",
        "            times = F.mul[c]\n",
        (
            # -c = c in characteristic 2: only an odd q can tell
            "tests/test_linmoduli.py::test_row_reduction_detects_membership",
            "tests/test_linmoduli.py::test_filtered_points_counted_by_tables_match_the_attractor_count[a2-q3]",
            "tests/test_linmoduli.py::test_counting_reports_of_the_benchmark_configurations[a2_quiver-3-3-expected1]",
        ),
    ),
    Mutant(
        "aut-orders-swapped",
        "linmoduli.py",
        "    out = IsoClasses(\n",
        "    aut_orders[0], aut_orders[-1] = aut_orders[-1], aut_orders[0]\n    out = IsoClasses(\n",
        (
            "tests/test_linmoduli.py::test_reineke_formula_gives_the_semistable_count[a2]",
            "tests/test_linmoduli.py::test_reineke_formula_gives_the_semistable_count[a3]",
            "tests/test_linmoduli.py::test_the_harder_narasimhan_strata_sum_to_the_stacky_count[a2]",
            "tests/test_linmoduli.py::test_the_harder_narasimhan_strata_sum_to_the_stacky_count[a3]",
        ),
    ),
    Mutant(
        "double-dash-matches-help-before-the-command",
        "cli.py",
        '        if token == "--" and not positional_only:\n',
        '        if token == "--" and command is not None and not positional_only:\n',
        (
            "tests/test_cli_parser.py::test_the_parser_matches_argparse_where_it_once_differed[double-dash-alone]",
            "tests/test_cli_parser.py::test_a_value_starting_with_a_dash_is_the_one_listed_difference[argv3-fields3]",
            "tests/test_cli_parser.py::test_a_leading_double_dash_runs_the_command",
        ),
    ),
    Mutant(
        "leftover-arguments-under-the-command-usage",
        "cli.py",
        "        _fail(None, f\"unrecognized arguments: {' '.join(extras)}\")\n",
        "        _fail(command, f\"unrecognized arguments: {' '.join(extras)}\")\n",
        (
            "tests/test_cli_parser.py::test_the_parser_matches_argparse_where_it_once_differed[extra-positional]",
            "tests/test_cli_parser.py::test_the_parser_matches_argparse_where_it_once_differed[positional-after-double-dash]",
            "tests/test_cli_parser.py::test_usage_errors_exit_2_with_an_error_line[unknown-option]",
        ),
    ),
)

# runs pytest on the arguments after checking that complat comes from the copy
_RUN = (
    "import sys, complat, pytest\n"
    "if not complat.__file__.startswith(sys.argv[1]):\n"
    "    raise SystemExit(f'complat was imported from {complat.__file__}')\n"
    "raise SystemExit(pytest.main(sys.argv[2:]))\n"
)


def apply(mutant: Mutant, src: Path) -> None:
    """Make the mutant's replacement in the copy of src/complat under src."""
    path = src / "complat" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.id}: the old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def passing_tests(mutant: Mutant) -> list[str]:
    """The mutant's tests that do not fail on a mutated copy of src."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(mutant, src)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-c", _RUN, str(src), "-q", "-rA", "-p", "no:cacheprovider", *mutant.tests]
        out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.M))
    return [t for t in mutant.tests if t not in failed]


def main(ids: list[str]) -> int:
    unknown = set(ids) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in MUTANTS:
        if ids and mutant.id not in ids:
            continue
        passed = passing_tests(mutant)
        survived += bool(passed)
        print(f"{mutant.id}: {'survived' if passed else 'killed'}", flush=True)
        for test in passed:
            print(f"  passed: {test}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
