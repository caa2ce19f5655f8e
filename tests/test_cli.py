"""Command-line interface: outputs, exit codes, determinism."""

import csv
import dataclasses
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatap import characters, cli, exactalg, metabelian, twisted
from metatap.cli import main
from metatap.exactalg import canonical, parse_poly
from metatap.golden import A4_3DIM, ALEXANDER, PHI, phi_value, structure_checks
from metatap.knotdata import presentation
from metatap.metabelian import MetaGroup, build_group, find_homs, group_from_name
from metatap.oracles import (
    check_factorization, det_bareiss, perm_rep, phi_generator_minus_one,
    twisted_alexander_tables)
from metatap.twisted import twisted_alexander
from metatap.twobridge import (
    FractionR,
    H3Form,
    alexander_poly,
    enumerate_fractions,
    wirtinger_presentation,
)

from matrix_helpers import block_row_matrix

P = parse_poly


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def strip_millis(rows):
    return [{k: v for k, v in r.items() if k != "millis"} for r in rows]


# -- compute ------------------------------------------------------------------

def test_compute_a4_golden():
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records
    gold = canonical(A4_3DIM["5/27"])
    for rec in records:
        assert rec["holds"] is True
        assert P(rec["phi"]) == gold
        assert rec["n"] == 3
        assert rec["group"] == "M(3|2,2)"


def test_compute_base_anchor():
    code, out, _ = run_cli("compute", "--r", "1/3", "--group", "A4")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert P(rec["phi"]) == P("1 - t^3")


def test_compute_with_assignment_and_pres():
    code, out, _ = run_cli(
        "compute", "--pres", "10_159", "--group", "A4",
        "--assign", "x=s; y=s; z=s b1")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["holds"] is True
    assert P(rec["phi"]) == canonical(phi_value("10_159", "A4"))


def test_compute_pres_file_and_bundled_suffix(tmp_path):
    path = tmp_path / "knot.pres"
    path.write_text((resources.files("metatap") / "data" / "10_159.pres").read_text())
    _, bundled, _ = run_cli("compute", "--pres", "10_159", "--group", "A4")
    expected = strip_millis([json.loads(line) for line in bundled.splitlines()])
    assert expected
    for spec, name in ((str(path), "knot"), ("10_159.pres", "10_159")):
        code, out, err = run_cli("compute", "--pres", spec, "--group", "A4")
        assert code == 0 and not err
        assert strip_millis([json.loads(line) for line in out.splitlines()]) == \
            [dict(rec, input=name) for rec in expected]


def test_compute_pres_directory_exit_1(tmp_path):
    # a directory, and a name longer than a file system allows
    for command in ("compute", "find-reps"):
        for spec in (str(tmp_path), "k" * 300):
            code, out, err = run_cli(command, "--pres", spec, "--group", "A4")
            assert code == 1 and not out
            assert err.startswith("input error: cannot read presentation file")
            assert "Traceback" not in err


def test_compute_cross_check():
    code, out, _ = run_cli("compute", "--r", "1/9", "--group", "A4",
                           "--cross-check")
    assert code == 0
    for line in out.splitlines():
        assert json.loads(line)["cross_path_match"] is True


def test_compute_cross_check_outside_h3_is_null():
    # 3/5 maps onto A4 but has no H(3) certificate, so the recursion path
    # does not apply
    code, out, err = run_cli("compute", "--r", "3/5", "--group", "A4",
                             "--cross-check")
    assert code == 0 and not err
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(rec["cross_path_match"] is None for rec in records)


def test_compute_obstruction_exit_2():
    code, out, err = run_cli("compute", "--r", "1/3", "--group", "M(4|3,2)")
    assert code == 2
    assert not out.strip()
    assert "obstruction" in err


def test_exit_code_1_on_bad_input():
    assert run_cli("compute", "--r", "2/6", "--group", "A4")[0] == 1
    assert run_cli("compute", "--r", "1/3", "--group", "M(9|9,9)")[0] == 1
    assert run_cli("compute", "--pres", "missing.pres", "--group", "A4")[0] == 1
    assert run_cli("compute", "--r", "1/3", "--pres", "8_5",
                   "--group", "A4")[0] == 1
    assert run_cli("compute", "--group", "A4")[0] == 1
    # an empty exponent
    assert run_cli("compute", "--r", "1/3", "--group", "A4",
                   "--assign", "x=s; y=s b1^")[0] == 1


def test_compute_unknown_fixed_generator_exit_1():
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4",
                             "--fix", "q")
    assert code == 1 and not out
    assert err.startswith("input error:") and "'q'" in err
    assert "Traceback" not in err


def test_compute_non_surjective_assignment_exit_1():
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4",
                             "--assign", "x=s;y=s")
    assert code == 1 and not out
    assert "input error" in err
    assert "x=s; y=s is not surjective" in err


def test_compute_generator_assigned_twice_exit_1():
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4",
                             "--assign", "x=s; y=s; y=s b1")
    assert code == 1 and not out
    assert err == "input error: generator 'y' is assigned twice\n"


def test_compute_non_homomorphic_assign_exit_1_after_cache_hit():
    # the group keeps the representation of x=s, y=s b1 after 5/27; the
    # relators of 1/5 are still checked against it
    group = group_from_name("A4")
    assert run_cli("compute", "--r", "5/27", "--group", "A4",
                   "--assign", "x=s; y=s b1")[0] == 0
    key = (group.parse_elem("s"), group.parse_elem("s b1"))
    assert key in group._representations
    code, out, err = run_cli("compute", "--r", "1/5", "--group", "A4",
                             "--assign", "x=s; y=s b1")
    assert code == 1 and not out
    assert err == ("input error: relator 1 (x y x y x Y X Y X Y) "
                   "does not map to the identity\n")


def test_compute_non_homomorphic_assign_exit_1_on_both_paths():
    # p = 2 and p = 3: the check runs before any block is built
    for frac, group, assign in (("1/3", "M(5|2,4)", "x=s; y=s b1"),
                                ("1/5", "M(5|2,4)", "x=s; y=b1"),
                                ("1/3", "M(4|3,2)", "x=s; y=s b1")):
        code, out, err = run_cli("compute", "--r", frac, "--group", group,
                                 "--assign", assign)
        assert code == 1 and not out
        assert err.startswith("input error: relator 1 (x y x ")
        assert err.endswith(") does not map to the identity\n")


@pytest.fixture
def fresh_groups():
    """Fresh MetaGroup objects, with empty element-image caches, for the
    test and after it: a tampered image never outlives its test."""
    build_group.cache_clear()
    yield
    build_group.cache_clear()


def test_compute_tampered_character_blocks_exit_3(monkeypatch, fresh_groups):
    tables = MetaGroup.character_tables.func

    def swapped_lines(self):
        # T^-1 sends the first two lines where the other should go
        columns, dots, moves = tables(self)
        moves = [list(row) for row in moves]
        moves[1][0], moves[1][1] = moves[1][1], moves[1][0]
        return columns, dots, moves

    cases = (("1/5", "M(5|2,4)"), ("3/5", "M(4|3,2)"))
    # the character images are built once per group object, so the tables
    # are tampered before fresh groups build any image
    genuine = []
    for frac, group in cases:
        assert run_cli("compute", "--r", frac, "--group", group)[0] == 0
        genuine.append(group_from_name(group))
    build_group.cache_clear()
    monkeypatch.setattr(MetaGroup, "character_tables", property(swapped_lines))
    for (frac, group), old in zip(cases, genuine):
        code, out, err = run_cli("compute", "--r", frac, "--group", group)
        assert code == 3 and not out
        assert err.startswith("internal consistency failure: ")
        assert "P(g) C != C Q(g)" in err
        assert group_from_name(group) is not old
    monkeypatch.undo()
    build_group.cache_clear()
    monkeypatch.setattr(characters, "support_blocks",
                        lambda size, images: [[i] for i in range(size)])
    for frac, group in cases:
        code, out, err = run_cli("compute", "--r", frac, "--group", group)
        assert code == 3 and not out
        assert "outside the blocks" in err


def test_compute_tampered_inverse_block_exit_3(monkeypatch, fresh_groups):
    # doubling the block images of y^-1 breaks image * inverse = I; the
    # check runs when the group builds the representation, so on a fresh
    # group
    genuine = characters.Representation.matrices

    def doubled(self, x):
        mats = genuine(self, x)
        if x == self.letters.get(-2):
            mats = [tuple(tuple(2 * v for v in row) for row in m) for m in mats]
        return mats

    monkeypatch.setattr(characters.Representation, "matrices", doubled)
    code, out, err = run_cli("compute", "--r", "3/5", "--group", "M(4|3,2)")
    assert code == 3 and not out
    assert err.startswith("internal consistency failure: block 0 of the image "
                          "of generator 2 times the block of its inverse")


def test_compute_wrong_k_exits_1_before_building_the_group(monkeypatch):
    def refuse(n, p):
        raise AssertionError(f"built M({n}|{p},k)")

    monkeypatch.setattr(metabelian, "build_group", refuse)
    for group in ("M(9|2,3)", "M(100000|3,5)"):
        code, out, err = run_cli("compute", "--r", "1/3", "--group", group)
        assert code == 1 and not out
        assert err.startswith("input error: k = ") and "does not match" in err


def test_group_name_bounded_before_trial_division(monkeypatch):
    # a huge p or n, and a p^k of 2^30 cosets, exit 1 without a trial
    # division of a large number
    def refuse(name):
        def check(x):
            if x > 10**6:
                raise AssertionError(f"{name}({x})")
            return genuine[name](x)
        return check

    genuine = {"is_prime": metabelian.is_prime, "euler_phi": metabelian.euler_phi}
    for name in genuine:
        monkeypatch.setattr(metabelian, name, refuse(name))
    for group, message in (("M(3|100000000000000000039,2)", "is too large"),
                           ("M(100000000000000000039|2,1)", "k = 1 does not match"),
                           ("M(31|2,30)", "is too large"),
                           (f"M(3|{'7' * 5000},2)", "is too large")):
        code, out, err = run_cli("compute", "--r", "1/3", "--group", group)
        assert code == 1 and not out, group
        assert err.startswith("input error: ") and message in err, group
    assert metabelian.group_from_name("M(7|2,6)").k == 6


def test_compute_prefix_image_outside_blocks_exit_3(monkeypatch, fresh_groups):
    # the identity is the first prefix of the relator and the image of no
    # generator, so only the Fox tables read its image: an entry joining
    # the trivial block to another one must fail there
    genuine = MetaGroup.character_matrix

    def tampered(self, x):
        q = genuine(self, x)
        if x == 0:
            q = ((1, 1) + q[0][2:],) + q[1:]
        return q

    monkeypatch.setattr(MetaGroup, "character_matrix", tampered)
    for frac, group in (("1/5", "M(5|2,4)"), ("3/5", "M(4|3,2)"), ("5/27", "A4")):
        code, out, err = run_cli("compute", "--r", frac, "--group", group)
        assert code == 3 and not out
        assert err.startswith("internal consistency failure: character matrix of 1 ")
        assert "at (0, 1), outside the blocks" in err


def test_character_images_built_once_per_process(monkeypatch, fresh_groups):
    genuine = MetaGroup.character_matrix
    built = []

    def counting(self, x):
        built.append((self.name(), x))
        return genuine(self, x)

    monkeypatch.setattr(MetaGroup, "character_matrix", counting)
    argv = ("compute", "--r", "3/5", "--group", "M(4|3,2)")
    _, first, _ = run_cli(*argv)
    count = len(built)
    assert count > 4
    _, second, _ = run_cli(*argv)
    assert len(built) == count
    assert strip_millis(map(json.loads, first.splitlines())) == \
        strip_millis(map(json.loads, second.splitlines()))
    assert run_cli("compute", "--r", "13/23", "--group", "M(4|3,2)")[0] == 0
    assert run_cli("compute", "--r", "1/5", "--group", "M(5|2,4)")[0] == 0
    assert len(built) > count
    assert len(set(built)) == len(built)


def test_compute_all_skips_non_polynomial_non_surjective():
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4", "--all")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert "x=s; y=s" not in [rec["assignment"] for rec in records]
    assert err.count("\n") == 1
    assert err.startswith("skipped: assignment x=s; y=s is not surjective")
    _, plain, _ = run_cli("compute", "--r", "5/27", "--group", "A4")
    surjective = [rec for rec in records if rec["surjective"]]
    assert strip_millis(surjective) == strip_millis(
        [json.loads(line) for line in plain.splitlines()])


def test_usage_errors_exit_1():
    code, out, err = run_cli("scan", "--group", "A4", "--out", "-")
    assert code == 1 and not out
    assert "input error" in err and "--alpha-max" in err
    code, out, err = run_cli("no-such-command")
    assert code == 1 and not out
    assert "input error" in err and "invalid choice" in err
    for command in ("compute", "find-reps"):
        for source in ((), ("--r", "1/3", "--pres", "8_5")):
            code, out, err = run_cli(command, *source, "--group", "A4")
            assert code == 1 and not out
            assert err.splitlines()[-1].startswith(f"input error: metatap {command}: ")
            assert "--r" in err.splitlines()[-1]
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0


def test_parser_built_once_and_reusable_after_usage_error():
    assert cli.build_parser() is cli.build_parser()
    code, out, err = run_cli("compute", "--r", "1/3", "--group", "A4", "--bogus")
    assert code == 1 and not out and "input error" in err
    code, out, err = run_cli("compute", "--r", "1/3", "--group", "A4")
    assert code == 0 and not err
    assert json.loads(out.splitlines()[0])["phi"] == "1 - t^3"
    code, _, err = run_cli("scan", "--group", "A4", "--out", "-")
    assert code == 1 and "--alpha-max" in err
    code, out, _ = run_cli("h3", "--r", "1/3")
    assert code == 0 and out == "[3]\n"


def test_compute_non_polynomial_surjective_exit_3(monkeypatch):
    def no_polynomial(p, rho):
        return dataclasses.replace(twisted_alexander(p, rho), invariant=None)

    monkeypatch.setattr(cli, "twisted_alexander", no_polynomial)
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4",
                             "--assign", "x=s; y=s b1")
    assert code == 3 and not out
    assert "non-polynomial determinant ratio" in err


def test_compute_pres_generators_not_meridians_exit_1(tmp_path):
    # Delta(1) = 1, but the surjection onto M(2|3,1) has no polynomial
    # ratio: the user's generators are not meridians, not a fault
    path = tmp_path / "twisted.pres"
    path.write_text("gens: x y\nrel: x Y x y X Y\n")
    code, out, err = run_cli("compute", "--pres", str(path), "--group", "M(2|3,1)")
    assert code == 1 and not out
    assert err.startswith("input error: the generators of twisted are not "
                          "meridians: the determinant ratio of the surjection "
                          "x=s; y=s b1 onto M(2|3,1) is not a polynomial")


def test_compute_cross_path_disagreement_exit_3(monkeypatch):
    monkeypatch.setattr(cli, "twisted_from_form", lambda form: P("1"))
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4",
                             "--cross-check")
    assert code == 3
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    assert all(rec["cross_path_match"] is False for rec in records)
    assert err.count("\n") == 1
    assert "disagree on 3 of 3 records (first: 5/27)" in err


def test_compute_tampered_class_member_exit_3(monkeypatch):
    # pair each image of the orbit with the next unit instead of its own,
    # so that every member claims the wrong unit: the class step's
    # coset-table check must refuse the reuse.  The group's kept orbits
    # are set aside, so that the orbits are built again.
    genuine = MetaGroup.unit_image

    def shifted(self, x, unit):
        units = self.units
        return genuine(self, x, units[(units.index(unit) + 1) % len(units)])

    monkeypatch.setattr(MetaGroup, "unit_image", shifted)
    monkeypatch.setattr(build_group(4, 3), "_unit_orbits", {})
    code, out, err = run_cli("compute", "--r", "3/5", "--group", "M(4|3,2)")
    assert code == 3 and not out
    assert "is not conjugate to its class representative" in err


def test_compute_wrong_relabeling_exit_3(monkeypatch):
    monkeypatch.setattr(MetaGroup, "coset_relabeling",
                        lambda self, unit: tuple(range(self.p**self.k)))
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4")
    assert code == 3 and not out
    assert "internal consistency failure" in err and "not conjugate" in err


def test_compute_tampered_determinant_exit_3(monkeypatch):
    # the int_det of every evaluated determinant is tampered; the
    # obstruction takes no int_det (it eliminates over F_p), and --assign
    # skips it anyway
    genuine = exactalg.int_det
    monkeypatch.setattr(exactalg, "int_det", lambda a: genuine(a) + (1 << 4096))
    code, out, err = run_cli("compute", "--r", "3/5", "--group", "M(4|3,2)",
                             "--assign", "x=s; y=s b1")
    assert code == 3 and not out
    assert err.startswith("internal consistency failure: ") and err.count("\n") == 1
    assert "bound" in err and "Traceback" not in err


def test_compute_tampered_trivial_block_exit_3(monkeypatch):
    # the trivial block's numerator times 1 - t keeps the invariant a
    # polynomial, so only the block verdict's check of the trivial block
    # can refuse it
    genuine = twisted.fox_determinant

    def tampered(relators, delete, dim):
        value = genuine(relators, delete, dim)
        return value * P("1 - t") if dim == 1 else value

    monkeypatch.setattr(twisted, "fox_determinant", tampered)
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4")
    assert code == 3 and not out
    assert err.startswith("internal consistency failure: the trivial block gives ")
    assert err.count("\n") == 1 and "Traceback" not in err


# compute --all inputs with non-surjective assignments whose invariants are
# polynomials
_NON_SURJECTIVE = [("5/9", "M(4|5,2)"), ("7/19", "M(4|5,2)"), ("5/9", "M(3|7,2)")]
# the inputs of the dense_compute benchmark workload
_DENSE = ([("--r", f, "M(5|2,4)") for f in ("1/5", "3/11", "7/11", "5/13")]
          + [("--r", f, "M(4|5,2)") for f in ("5/9", "7/9")]
          + [("--r", f, "M(3|5,2)") for f in ("3/7", "5/7")]
          + [("--pres", "10_145", "M(5|2,4)")])


def test_block_verdict_matches_division_oracle(monkeypatch):
    # every verdict of the A4 scan to alpha 63, of compute over the inputs
    # of mid_compute (alpha <= 61 onto M(4|3,2)) and dense_compute, and of
    # compute --all's non-surjective rows, against the division by Delta
    genuine = cli.block_verdict
    seen = []

    def compared(result, delta, n):
        verdict = genuine(result, delta, n)
        assert verdict == check_factorization(result.invariant, delta, n)
        seen.append(verdict)
        return verdict

    monkeypatch.setattr(cli, "block_verdict", compared)
    code, _, _ = run_cli("scan", "--alpha-max", "63", "--group", "A4", "--out", os.devnull)
    assert code == 0 and len(seen) == 135
    for r in enumerate_fractions(61):
        assert run_cli("compute", "--r", str(r), "--group", "M(4|3,2)")[0] in (0, 2)
    assert len(seen) > 135 + 90
    for flag, source, group in _DENSE:
        assert run_cli("compute", flag, source, "--group", group)[0] == 0
    before = len(seen)
    for frac, group in _NON_SURJECTIVE:
        code, out, _ = run_cli("compute", "--r", frac, "--group", group, "--all")
        assert code == 0
        assert any(not json.loads(line)["surjective"] for line in out.splitlines())
    assert len(seen) > before + len(_NON_SURJECTIVE)


def test_production_never_divides_by_delta(monkeypatch):
    # no determinant ratio divides by Delta, and no product of the whole
    # numerator is taken; test_oracles checks that no command loads the
    # division oracle's module
    divisors, products = [], []
    genuine_div, genuine_product = twisted.exact_div, twisted._product

    def recording_div(num, den):
        divisors.append(den)
        return genuine_div(num, den)

    def recording_product(factors):
        factors = list(factors)
        products.append(len(factors))
        return genuine_product(factors)

    monkeypatch.setattr(twisted, "exact_div", recording_div)
    monkeypatch.setattr(twisted, "_product", recording_product)
    for frac in ("1/3", "5/27", "29/75", "227/777"):
        code, out, _ = run_cli("compute", "--r", frac, "--group", "A4", "--cross-check")
        assert code == 0
        delta = P(json.loads(out.splitlines()[0])["delta"])
        assert divisors and all(canonical(d) != delta for d in divisors if d)
        # A4's blocks are the trivial one and one 3-dim block
        assert products and max(products) == 1
        divisors.clear()
        products.clear()


def test_internal_value_error_exit_3(monkeypatch):
    # a ValueError from inside the pipeline is a fault of the program, not
    # of the input
    def broken(relators, delete, dim):
        return exactalg.ZERO.degree()

    monkeypatch.setattr(twisted, "fox_determinant", broken)
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4")
    assert code == 3 and not out
    assert err == ("internal consistency failure: ValueError: "
                   "zero polynomial has no degree\n")
    # so is a relator check that fails on a search result, not on --assign
    group = group_from_name("A4")
    wrong = metabelian.HomAssignment(
        (group.parse_elem("s"), group.parse_elem("s^2")), True)
    monkeypatch.setattr(cli, "find_homs", lambda p, group, fix: [wrong])
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4")
    assert code == 3 and not out
    assert err.startswith("internal consistency failure: NotHomomorphismError: relator 1 ")


def test_compute_zero_denominator_exit_3(monkeypatch):
    monkeypatch.setattr(twisted, "_denominator", lambda entries, dim: exactalg.ZERO)
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4")
    assert code == 3 and not out
    assert err == "internal consistency failure: det Phi(y - 1) is zero\n"


def test_unexpected_exception_exit_3_without_traceback(monkeypatch):
    def broken(p, rho):
        raise KeyError("no such block")

    monkeypatch.setattr(cli, "twisted_alexander", broken)
    code, out, err = run_cli("compute", "--r", "5/27", "--group", "A4")
    assert code == 3 and not out
    assert err == "internal consistency failure: KeyError: 'no such block'\n"
    assert "Traceback" not in err


def fox_matrix(relators, delete, dim):
    """The Fox matrix whose determinant fox_determinant evaluates, as a
    PolyMatrix: relator i's keys fill block row i, generator g's block
    column among the kept generators."""
    return block_row_matrix(
        [[((g - 1 - (g > delete)) * dim, counts, entries)
          for g, counts, entries in terms if g != delete] for terms in relators], dim)


@pytest.mark.parametrize("flag, source, group", [
    ("--r", "1/5", "M(5|2,4)"), ("--pres", "10_145", "M(5|2,4)"),
    ("--r", "3/5", "M(4|3,2)"), ("--r", "5/27", "A4")])
def test_compute_determinants_match_bareiss_oracle(monkeypatch, flag, source, group):
    # every numerator and denominator compute evaluates, against the
    # elimination over Z[t, 1/t] of the same matrix
    genuine_num, genuine_den = twisted.fox_determinant, twisted._denominator
    numerators, denominators = [], []

    def recording_num(relators, delete, dim):
        value = genuine_num(relators, delete, dim)
        numerators.append((fox_matrix(relators, delete, dim), value))
        return value

    def recording_den(entries, dim):
        value = genuine_den(entries, dim)
        m = [[0] * dim for _ in range(dim)]
        for w, u, v in entries:
            m[w][u] = v
        denominators.append((phi_generator_minus_one(tuple(map(tuple, m))), value))
        return value

    monkeypatch.setattr(twisted, "fox_determinant", recording_num)
    monkeypatch.setattr(twisted, "_denominator", recording_den)
    assert run_cli("compute", flag, source, "--group", group)[0] == 0
    assert max(m.dim for m, _ in numerators) > 1
    assert max(m.dim for m, _ in denominators) > 1
    for m, value in numerators + denominators:
        assert value == det_bareiss(m)


# Every golden input of the suite.  compute takes one determinant per class;
# the reference runs perm_rep + twisted_alexander_tables on each assignment alone,
# which takes 10-35 s for each of the inputs marked slow (run with -m slow).
_SLOW = {("7/11", "M(3|5,2)"), ("9/23", "M(3|5,2)"), ("9/31", "M(3|5,2)"),
         ("10_145", "M(5|2,4)"), ("10_159", "M(5|2,4)")}
ORACLE_INPUTS = [
    pytest.param("--r" if "/" in source else "--pres", source, group,
                 marks=[pytest.mark.slow] if (source, group) in _SLOW else [])
    for source, group in dict.fromkeys(
        [(frac, "A4") for frac in A4_3DIM] + [(e.source, e.group) for e in PHI])
]


@pytest.mark.parametrize("source, name, group_name", ORACLE_INPUTS)
def test_compute_matches_per_assignment_path(source, name, group_name):
    code, out, _ = run_cli("compute", source, name, "--group", group_name)
    assert code == 0
    records = strip_millis([json.loads(line) for line in out.splitlines()])
    group = group_from_name(group_name)
    if source == "--r":
        r = FractionR.parse(name)
        p = wirtinger_presentation(r)
        delta = alexander_poly(p)
    else:
        p = presentation(name)
        delta = alexander_poly(p)
    expected = []
    for h in find_homs(p, group):
        if not h.surjective:
            continue
        invariant = twisted_alexander_tables(p, perm_rep(h.images, group, p)).invariant
        verdict = check_factorization(invariant, delta, group.n)
        expected.append({
            "input": str(r) if source == "--r" else p.name,
            "group": group.name(),
            "assignment": "; ".join(f"{g}={group.elem_str(x)}"
                                    for g, x in zip(p.generators, h.images)),
            "surjective": True,
            "n": group.n,
            "delta": str(delta),
            "twisted": str(invariant),
            "phi": str(verdict.phi),
            "holds": verdict.holds,
            "cross_path_match": None,
        })
    assert records == expected


# -- find-reps ----------------------------------------------------------------

def test_find_reps_k35():
    code, out, _ = run_cli("find-reps", "--r", "3/5", "--group", "M(4|3,2)")
    assert code == 0
    assert "f(x) = s, f(y) = s b1  [onto]" in out


def test_find_reps_8_5():
    code, out, _ = run_cli("find-reps", "--pres", "8_5", "--group", "A4")
    assert code == 0
    assert "f(x) = s, f(y) = s b1, f(z) = s  [onto]" in out


@pytest.mark.parametrize("argv, lines", [
    (("--r", "5/27", "--fix", "y", "--all"),
     ["f(y) = s, f(x) = s  [not onto]",
      "f(y) = s, f(x) = s b2  [onto]",
      "f(y) = s, f(x) = s b1  [onto]",
      "f(y) = s, f(x) = s b1 b2  [onto]"]),
    (("--pres", "8_5", "--fix", "z"),
     ["f(z) = s, f(x) = s, f(y) = s b2  [onto]",
      "f(z) = s, f(x) = s, f(y) = s b1  [onto]",
      "f(z) = s, f(x) = s, f(y) = s b1 b2  [onto]"]),
])
def test_find_reps_pinned_generator_first(argv, lines):
    # the generator pinned to s is printed first, the others in generator
    # order, one line per assignment in search order
    code, out, err = run_cli("find-reps", *argv, "--group", "A4")
    assert (code, err) == (0, "")
    assert out == "".join(line + "\n" for line in lines)


def test_find_reps_obstructed_empty():
    code, out, err = run_cli("find-reps", "--r", "1/3", "--group", "M(4|3,2)")
    assert code == 2
    assert "obstruction" in out
    assert "no representation" in err


# -- h3 -----------------------------------------------------------------------

def test_h3_certificate():
    code, out, _ = run_cli("h3", "--r", "5/27")
    assert code == 0
    assert out.strip() == "[6, -2, 3]"


def test_h3_certificate_failure_exit_3(monkeypatch):
    monkeypatch.setattr(H3Form, "value", lambda self: Fraction(0))
    code, out, err = run_cli("h3", "--r", "5/27")
    assert code == 3 and not out
    assert err.startswith("internal consistency failure: the H(3) certificate [6, -2, 3] "
                          "does not evaluate to 5/27")
    assert "Traceback" not in err


def test_h3_not_found():
    code, out, err = run_cli("h3", "--r", "3/5")
    assert code == 2
    assert "no certificate" in err


def test_h3_long_certificate():
    # a 600-part form (alpha has over 600 digits) is decided without recursion
    rng = random.Random(1)
    value = Fraction(2)
    while value.numerator % 2 == 0 or value.denominator % 2 == 0:
        ks = [rng.choice((-2, -1, 1, 2)) for _ in range(600)]
        ms = [rng.choice((-2, -1, 1, 2)) for _ in range(599)]
        form = H3Form(tuple(ks), tuple(ms))
        if form.value() < 0:
            form = H3Form(tuple(-k for k in ks), tuple(-m for m in ms))
        value = form.value()
    assert len(str(value.denominator)) > 600
    code, out, err = run_cli("h3", "--r", f"{value.numerator}/{value.denominator}")
    assert code == 0 and not err
    assert out == f"{form}\n"


# -- scan ---------------------------------------------------------------------

def test_scan_single_row(tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli("scan", "--alpha-max", "3", "--group", "A4",
                         "--out", str(out_path))
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 1
    assert rows[0]["input"] == "1/3"
    assert rows[0]["assignment"] == "x=s; y=s b1"
    assert P(rows[0]["phi"]) == P("1 - t^3")


def test_scan_h3_cross_check(tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli("scan", "--alpha-max", "27", "--group", "A4",
                         "--h3-only", "--cross-check", "--out", str(out_path))
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert {r["input"] for r in rows} >= {"1/3", "1/9", "5/27", "11/27"}
    assert all(r["holds"] == "True" for r in rows)
    assert all(r["cross_path_match"] == "True" for r in rows)


def test_scan_m432_includes_eq_values(tmp_path):
    out_path = tmp_path / "scan.jsonl"
    code, _, _ = run_cli("scan", "--alpha-max", "9", "--group", "M(4|3,2)",
                         "--out", str(out_path))
    assert code == 0
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    by_input = {r["input"]: r for r in rows}
    for frac in ("3/5", "3/7"):
        assert P(by_input[frac]["phi"]) == canonical(phi_value(frac, "M(4|3,2)"))


def test_scan_deterministic_and_parallel(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    run_cli("scan", "--alpha-max", "15", "--group", "A4", "--out", str(a))
    run_cli("scan", "--alpha-max", "15", "--group", "A4", "--out", str(b))
    run_cli("scan", "--alpha-max", "15", "--group", "A4", "--out", str(c),
            "--jobs", "2")
    def load(path):
        return strip_millis([json.loads(x) for x in path.read_text().splitlines()])
    assert load(a) == load(b) == load(c)
    # rows arrive in (alpha, beta, assignment) order with no sort in cmd_scan
    for path in (a, c):
        keys = [(Fraction(rec["input"]).denominator, Fraction(rec["input"]).numerator,
                 rec["assignment"]) for rec in load(path)]
        assert len(keys) > 1 and keys == sorted(keys)


def test_scan_workers_at_most_fractions(monkeypatch, tmp_path):
    # a pool is started only for two or more fractions, with at most one
    # worker per fraction and one per CPU (os.cpu_count, one if unknown)
    import multiprocessing

    started = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(j) for j in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    out = str(tmp_path / "x.jsonl")
    for cpus, alpha_max, jobs, expected in (
            (2, "9", "100000", [2]), (3, "9", "8", [3]), (1, "9", "8", []),
            (None, "9", "8", []), (64, "5", "8", [3]), (64, "3", "8", []),
            (64, "9", "2", [2]), (64, "9", "1", [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started.clear()
        code, _, _ = run_cli("scan", "--alpha-max", alpha_max, "--group", "A4",
                             "--out", out, "--jobs", jobs)
        assert code == 0 and started == expected
    # fractions are counted after --h3-only drops those outside H(3)
    started.clear()
    code, _, _ = run_cli("scan", "--alpha-max", "9", "--group", "A4", "--h3-only",
                         "--out", out, "--jobs", "4")
    assert code == 0 and started == [2]


def test_scan_labels_each_surjection_once_and_each_row_once(tmp_path, monkeypatch):
    # per fraction: one label per surjection, built for the sort; only the
    # class representatives get a record, and each row keeps its label
    genuine = cli._assignment_str
    labels = {}

    def counting(images, group, p):
        labels[p.name] = labels.get(p.name, 0) + 1
        return genuine(images, group, p)

    monkeypatch.setattr(cli, "_assignment_str", counting)
    for group_name, alpha_max in (("A4", "27"), ("M(4|3,2)", "21")):
        labels.clear()
        out_path = tmp_path / "scan.jsonl"
        code, _, _ = run_cli("scan", "--alpha-max", alpha_max, "--group", group_name,
                             "--out", str(out_path))
        assert code == 0
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        group = group_from_name(group_name)
        surjections = {}
        for r in enumerate_fractions(int(alpha_max)):
            count = sum(h.surjective for h in find_homs(wirtinger_presentation(r), group))
            if count:
                surjections[str(r)] = count
        assert labels == surjections
        assert {row["input"] for row in rows} == set(surjections)
        # some class has more than one member, and gets one row
        assert 0 < len(rows) < sum(surjections.values())


def test_scan_jobs_below_one_exit_1(tmp_path):
    for jobs in ("0", "-2"):
        code, _, err = run_cli("scan", "--alpha-max", "9", "--group", "A4",
                               "--out", str(tmp_path / "x.csv"), "--jobs", jobs)
        assert code == 1
        assert "input error: --jobs must be at least 1" in err
    assert not (tmp_path / "x.csv").exists()


def test_scan_alpha_max_below_3_exit_1(tmp_path):
    for alpha_max in ("2", "0", "-5"):
        code, out, err = run_cli("scan", "--alpha-max", alpha_max, "--group", "A4",
                                 "--out", str(tmp_path / "x.jsonl"))
        assert code == 1 and not out
        assert err.startswith(
            f"input error: --alpha-max must be at least 3, got {alpha_max}")
    assert not (tmp_path / "x.jsonl").exists()


def test_scan_cross_path_disagreement_exit_3(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "twisted_from_form", lambda form: P("1"))
    out_path = tmp_path / "scan.jsonl"
    code, _, err = run_cli("scan", "--alpha-max", "27", "--group", "A4",
                           "--h3-only", "--cross-check", "--out", str(out_path))
    assert code == 3
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(rows) >= 4
    assert all(r["cross_path_match"] is False for r in rows)
    summary = err.splitlines()[-1]
    assert summary.startswith("internal consistency failure")
    assert f"disagree on {len(rows)} of {len(rows)} records (first: 1/3)" in summary


def test_scan_cross_check_expands_each_fraction_once(tmp_path, monkeypatch):
    # the recursion path reads the certificate the scan already holds
    genuine = cli.h3_expand
    calls = []

    def counting(r):
        calls.append(r)
        return genuine(r)

    monkeypatch.setattr(cli, "h3_expand", counting)
    code, _, _ = run_cli("scan", "--alpha-max", "45", "--group", "A4", "--h3-only",
                         "--cross-check", "--out", str(tmp_path / "scan.jsonl"))
    assert code == 0
    assert calls == list(enumerate_fractions(45))


def test_scan_decides_h3_only_when_read(tmp_path, monkeypatch):
    # without --h3-only, and over a group other than A4 (where the recursion
    # path never runs), nothing reads the certificate
    calls = []
    monkeypatch.setattr(cli, "h3_expand", lambda r: calls.append(r))
    for extra in ((), ("--cross-check",)):
        code, _, _ = run_cli("scan", "--group", "M(4|3,2)", "--alpha-max", "21",
                             *extra, "--out", str(tmp_path / "scan.jsonl"))
        assert code == 0
    code, _, _ = run_cli("scan", "--group", "A4", "--alpha-max", "21",
                         "--out", str(tmp_path / "scan.jsonl"))
    assert code == 0
    assert calls == []


def test_scan_parallel_carries_certificates(tmp_path):
    # each pool job receives its fraction's certificate pickled
    def rows(jobs):
        out_path = tmp_path / f"scan{jobs}.jsonl"
        code, _, _ = run_cli("scan", "--group", "A4", "--h3-only", "--cross-check",
                             "--alpha-max", "45", "--jobs", jobs, "--out", str(out_path))
        assert code == 0
        return strip_millis([json.loads(line) for line in out_path.read_text().splitlines()])

    serial = rows("1")
    assert serial == rows("2")
    assert len(serial) > 10 and all(r["cross_path_match"] is True for r in serial)


def test_scan_json_array(tmp_path):
    out_path = tmp_path / "scan.json"
    code, _, _ = run_cli("scan", "--alpha-max", "9", "--group", "A4",
                         "--out", str(out_path))
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert isinstance(rows, list) and rows[0]["input"] == "1/3"


def test_scan_unwritable_out():
    code, _, err = run_cli("scan", "--alpha-max", "3", "--group", "A4",
                           "--out", "/nonexistent-dir/x.csv")
    assert code == 1


def test_scan_to_closed_stdout_exits_1_quietly():
    # the reader closes the pipe before the scan writes its first row
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "metatap.cli", "scan", "--group", "A4",
         "--alpha-max", "40", "--out", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


# -- selftest -----------------------------------------------------------------

def selftest_labels(out):
    return [line[len("PASS  "):].split(" [")[0] for line in out.splitlines()
            if line.startswith("PASS  ")]


def test_selftest_quick():
    code, out, _ = run_cli("selftest", "--quick")
    assert code == 0
    assert "FAIL" not in out
    assert "all checks passed" in out
    labels = selftest_labels(out)
    assert [e.label for e in PHI if e.label in labels] == \
        [e.label for e in PHI if e.quick]


def test_selftest_reports_every_golden_entry():
    code, out, _ = run_cli("selftest")
    assert code == 0
    assert "FAIL" not in out
    labels = selftest_labels(out)
    for frac in A4_3DIM:
        assert f"3-dim twisted K({frac}) via Fox calculus" in labels
        assert f"3-dim twisted K({frac}) via cf recursion" in labels
    for name in ALEXANDER:
        assert f"{name} Alexander polynomial" in labels
    assert all(e.label in labels for e in PHI)
    assert all(label in labels for label, _ in structure_checks())
    assert out.count("\nNOTE  ") == sum(e.recorded is not None for e in PHI)


# -- the exit-code contract under fuzzing --------------------------------------

# Every exception class the package defines, and its module.  README's
# "Errors" section names each one.
_EXCEPTIONS = {
    "ExactnessError": "exactalg", "InputError": "groupcalc",
    "PresentationError": "groupcalc",
    "NotAKnotGroupError": "twobridge", "NotHomomorphismError": "metabelian",
    "NotTwinError": "oracles",
}


def test_error_taxonomy_exists_once():
    # InputError is the only exit 1 the commands raise; cli.main maps no
    # other exception class, and ValueError least of all, to an input error
    defining = re.compile(r"^class (\w+)\([\w, ]*(?:Error|Exception)\)", re.M)
    defined = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for name in defining.findall(path.read_text()):
            assert name not in defined, name
            defined[name] = path.stem
    assert defined == _EXCEPTIONS
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    errors = readme.split("### Errors\n", 1)[1].split("\n#", 1)[0]
    assert all(f"`{name}`" in errors for name in defined)
    handlers = re.findall(r"except \(?(\w+(?:, \w+)*)", inspect.getsource(cli.main))
    assert handlers == ["InputError", "BrokenPipeError", "ExactnessError", "Exception"]


# Every argv names the options its command requires, some optional ones and
# sometimes a stray token.  The values are small enough that every argv runs
# in well under a second: --jobs never starts a process pool, --out writes
# to stdout only, and M(100000|3,5) has the wrong k, which is reported before
# the group would be built.  The --pres files are written once per module.
_FUZZ_PRES_FILES = {
    "zero_deficiency.pres": b"gens: x y\nrel: x y X Y\nrel: x x\n",
    "delta_one_zero.pres": b"gens: x y\nrel: x y X Y\n",
    "not_utf8.pres": b"gens: x y\nrel: x \xff\xfe y\n",
}
_FUZZ_COMMANDS = {
    "compute": (("--group",),
                ("--r", "--pres", "--fix", "--assign", "--all", "--cross-check")),
    "find-reps": (("--group",), ("--r", "--pres", "--fix", "--all")),
    "scan": (("--group", "--alpha-max", "--out"),
             ("--h3-only", "--cross-check", "--jsonl", "--jobs")),
    "h3": (("--r",), ()),
}
_FUZZ_VALUES = {
    "--r": ["1/3", "5/27", "3/5", "1/5", "2/6", "1/0", "-1/3", "3/1", "x"],
    "--pres": ["8_5", "10_159.pres", "missing.pres", "."] + sorted(_FUZZ_PRES_FILES),
    "--group": ["A4", "M(4|3,2)", "M(5|2,4)", "M(2|3,1)", "M(2|5,1)", "M(9|9,9)",
                "M(3|2,3)", "M(100000|3,5)", "M(3|100000000000000000039,2)",
                "M(100000000000000000039|2,1)", "M(31|2,30)", "x"],
    "--fix": ["x", "y", "q"],
    "--assign": ["x=s; y=s b1", "x=s;y=s", "x=s", "x=q", "y=s b9", "x=s^-1; y=s",
                 "x=b1; y=b1", "x=1; y=1", "x=s; x=s b1; y=s", "x=s; y=s b1^"],
    "--alpha-max": ["-1", "0", "3", "15", "x"],
    "--out": ["-"],
    "--jobs": ["-1", "0", "1"],
}
_FUZZ_STRAY = [[]] * 5 + [["--nope"], ["--quick"], ["--group"], ["extra"]]


@pytest.fixture(scope="module")
def fuzz_pres_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("pres")
    for name, text in _FUZZ_PRES_FILES.items():
        (folder / name).write_bytes(text)
    return folder


def test_fuzz_pres_files_exit_1(fuzz_pres_dir):
    for name in _FUZZ_PRES_FILES:
        code, out, err = run_cli("compute", "--pres", str(fuzz_pres_dir / name),
                                 "--group", "A4")
        assert code == 1 and not out, name
        assert err.startswith("input error: ") and "Traceback" not in err, name


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_fuzz_argv_exit_codes(fuzz_pres_dir, data):
    command = data.draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    required, optional = _FUZZ_COMMANDS[command]
    if optional:
        optional = data.draw(
            st.lists(st.sampled_from(optional), max_size=3, unique=True))
    argv = [command]
    for opt in required + tuple(optional):
        argv.append(opt)
        if opt in _FUZZ_VALUES:
            value = data.draw(st.sampled_from(_FUZZ_VALUES[opt]))
            if value in _FUZZ_PRES_FILES:
                value = str(fuzz_pres_dir / value)
            argv.append(value)
    argv += data.draw(st.sampled_from(_FUZZ_STRAY))
    code, _, err = run_cli(*argv)
    # no user input is an internal failure, and every input error says so
    # on its last line (a usage error prints the usage before it)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.splitlines()[-1].startswith("input error: "), argv
    assert "Traceback" not in err, argv
