"""Command-line front end.

Subcommands:
  compute    twisted polynomial + factorization verdict for one knot/group
  scan       batch verification over all 2-bridge fractions up to a bound
  find-reps  list homomorphism assignments onto a metabelian group
  h3         continued-fraction certificate [3k1, 2m1, ...] for a fraction
  selftest   check every golden value through compute's own steps
             (`compute`), one pass/fail line each

Exit codes: 0 computed, 1 input error (or a closed stdout), 2 no
representation (or, for h3, a fraction not in H(3)), 3 internal
consistency failure.  Exit 1 is an InputError, which only the code that
reads user input raises; any other exception exits 3 (README, "Errors").

Result records are JSON objects with stable field names:
  input, group, assignment, surjective, n, delta, twisted, phi, holds,
  cross_path_match, millis
Polynomials are written in the canonical text form (increasing degrees,
e.g. "1 - 3*t^3 + t^6"); `millis` is wall-clock time and is excluded from
any determinism comparison.  CSV output quotes the same fields as strings.

An element is its index in the group from the input to the output:
`MetaGroup.parse_elem` reads the element texts of --assign, and
`MetaGroup.elem_str` writes them.  An assignment travels from the search
(or --assign) to the record as the element indices of the generators'
images (`metabelian.HomAssignment`); its text "x=s; y=s b1" is written
only for records and messages.
`metabelian.unit_classes` groups the assignments into classes and checks
each member, so the commands take one determinant per class.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from functools import cache
from pathlib import Path
from typing import Optional

from .characters import representation_blocks
from .exactalg import ExactnessError, LaurentPoly
from .groupcalc import InputError, Presentation
from .knotdata import BUNDLED, load_presentation
from .metabelian import (
    HomAssignment,
    MetaGroup,
    NotHomomorphismError,
    a4_group,
    find_homs,
    generates,
    group_from_name,
    obstruction_passes,
    unit_classes,
)
from .twisted import block_verdict, twisted_alexander
from .twinring import twisted_from_form
from .twobridge import (
    ALPHA_MAX,
    FractionR,
    H3Form,
    NotAKnotGroupError,
    alexander_closed_form,
    alexander_poly,
    enumerate_fractions,
    h3_expand,
    h3_forms,
    wirtinger_presentation,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_REP = 2
EXIT_INTERNAL = 3

FIELDS = ["input", "group", "assignment", "surjective", "n", "delta",
          "twisted", "phi", "holds", "cross_path_match", "millis"]


def _parse_assignment(text: str, group: MetaGroup, p: Presentation) -> HomAssignment:
    images = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        gen, eq, elem = chunk.partition("=")
        gen = gen.strip()
        if not eq or gen not in p.generators:
            raise InputError(f"bad assignment chunk {chunk!r}")
        if gen in images:
            raise InputError(f"generator {gen!r} is assigned twice")
        images[gen] = group.parse_elem(elem.strip())
    missing = [g for g in p.generators if g not in images]
    if missing:
        raise InputError(f"assignment missing generators {missing}")
    indices = tuple(images[g] for g in p.generators)
    return HomAssignment(indices, generates(group, indices))


def _assignment_str(images: tuple[int, ...], group: MetaGroup, p: Presentation) -> str:
    return "; ".join(f"{g}={group.elem_str(x)}" for g, x in zip(p.generators, images))


def _compute_records(p: Presentation, group: MetaGroup, delta: LaurentPoly,
                     homs: list[HomAssignment], classes: list[int], labels: list[str],
                     input_name: str, form: Optional[H3Form] = None,
                     skip_non_polynomial: bool = False,
                     user_presentation: bool = False) -> list[dict]:
    """One record per assignment, with one determinant per class.

    `classes` is `unit_classes` of the assignments, which has checked each
    member against its representative, and `labels` are their texts
    (`_assignment_str`).  The representative of each class
    goes through representation_blocks, twisted_alexander and
    block_verdict, and the members reuse its result.  `form`, given only
    under --cross-check over A4, is the input's H(3) certificate: its
    recursion value (`twisted_from_form`) is taken at the first record with
    a phi, after the walk has checked the relators, and compared with each
    record's phi.

    A non-surjective assignment whose determinant ratio is not a
    polynomial is an input error, or, with `skip_non_polynomial`, is
    named on stderr and gets no record.  A surjective one is a fault for
    a presentation the program built, and an input error for a user's
    (`user_presentation`): the ratio of a knot group's surjection onto
    M(n|p,k) is a polynomial when every generator is a meridian.
    """
    delta_text = str(delta)
    verdicts = {}  # class representative -> (twisted, phi) texts and verdict
    records = []
    recursion_value = None
    for i, (h, rep, label) in enumerate(zip(homs, classes, labels)):
        t0 = time.monotonic()
        if rep == i:
            result = twisted_alexander(
                p, representation_blocks(h.images, group))
            if result.invariant is None:
                if h.surjective and user_presentation:
                    raise InputError(
                        f"the generators of {input_name} are not meridians: "
                        f"the determinant ratio of the surjection "
                        f"{label} onto {group.name()} is not a polynomial")
                if h.surjective:
                    raise ExactnessError(
                        f"non-polynomial determinant ratio for {input_name}")
                if not skip_non_polynomial:
                    raise InputError(
                        f"assignment {label} is not "
                        f"surjective onto {group.name()}: its determinant "
                        f"ratio for {input_name} is not a polynomial")
                verdicts[i] = None
            else:
                verdict = block_verdict(result, delta, group.n)
                verdicts[i] = (str(result.invariant),
                               None if verdict.phi is None else str(verdict.phi),
                               verdict)
        if verdicts[rep] is None:
            print(f"skipped: assignment {label} is not "
                  f"surjective onto {group.name()} and its determinant ratio "
                  f"for {input_name} is not a polynomial", file=sys.stderr)
            continue
        twisted_text, phi_text, verdict = verdicts[rep]
        cross = None
        if form is not None and verdict.phi is not None:
            if recursion_value is None:
                recursion_value = twisted_from_form(form)
            cross = verdict.phi == recursion_value
        millis = int((time.monotonic() - t0) * 1000)
        records.append({
            "input": input_name,
            "group": group.name(),
            "assignment": label,
            "surjective": h.surjective,
            "n": group.n,
            "delta": delta_text,
            "twisted": twisted_text,
            "phi": phi_text,
            "holds": verdict.holds,
            "cross_path_match": cross,
            "millis": millis,
        })
    return records


def _cross_path_status(records: list[dict]) -> int:
    """EXIT_INTERNAL, with a one-line stderr summary, when the two
    computation paths disagree on any record; else EXIT_OK."""
    bad = [rec for rec in records if rec["cross_path_match"] is False]
    if not bad:
        return EXIT_OK
    print(f"internal consistency failure: the Fox-calculus and recursion "
          f"paths disagree on {len(bad)} of {len(records)} records "
          f"(first: {bad[0]['input']})", file=sys.stderr)
    return EXIT_INTERNAL


def _load_input(args):
    """The presentation, its Alexander polynomial, the input's name and the
    fraction (None for --pres), from --r or --pres (`knot_input`).  An
    alpha above ALPHA_MAX is an input error before the relator is built."""
    if args.r is not None:
        r = FractionR.parse(args.r)
        if r.alpha > ALPHA_MAX:
            raise InputError(f"alpha must be at most {ALPHA_MAX}, got {r.alpha}")
        return knot_input(wirtinger_presentation(r), str(r), r)
    p = load_presentation(args.pres)
    return knot_input(p, p.name or args.pres, None)


def knot_input(p: Presentation, name: str, r: Optional[FractionR]):
    """(p, its Alexander polynomial, name, r), where r is the 2-bridge
    fraction p comes from, or None.  This is where Delta is chosen: the
    closed form for a fraction (`alexander_closed_form`), the Fox
    determinant for any other presentation (`alexander_poly`).  A
    presentation that is not a knot group's is an input error."""
    if r is not None:
        return p, alexander_closed_form(r), name, r
    try:
        delta = alexander_poly(p)
    except NotAKnotGroupError as e:
        raise InputError(str(e)) from None
    return p, delta, name, r


def compute(p: Presentation, delta: LaurentPoly, input_name: str,
            r: Optional[FractionR], group: MetaGroup, *, assign: Optional[str],
            fix: Optional[str], include_all: bool,
            cross_check: bool) -> tuple[int, list[dict]]:
    """compute's steps after the input is loaded (`knot_input`): the exit
    status and the records.  The assignments are the --assign text or the
    find_homs results; `include_all` keeps the non-surjective ones.  The
    "no representation" messages and the cross-path summary go to stderr.
    The relators are checked on the Fox walk (`twisted_alexander`): a
    NotHomomorphismError is an input error for --assign and a fault for a
    search result.
    """
    if not assign and not obstruction_passes(delta, group):
        print(
            f"no representation: the resultant obstruction rules out a "
            f"surjection of {input_name} onto {group.name()}",
            file=sys.stderr)
        return EXIT_NO_REP, []
    if assign:
        homs = [_parse_assignment(assign, group, p)]
    else:
        homs = [h for h in find_homs(p, group, fix=fix) if h.surjective or include_all]
    if not homs:
        print(f"no representation of {input_name} onto {group.name()} found",
              file=sys.stderr)
        return EXIT_NO_REP, []
    form = h3_expand(r) if cross_check and group == a4_group() and r is not None else None
    try:
        records = _compute_records(p, group, delta, homs, unit_classes(group, homs),
                                   [_assignment_str(h.images, group, p) for h in homs],
                                   input_name, form,
                                   skip_non_polynomial=include_all and not assign,
                                   user_presentation=r is None)
    except NotHomomorphismError as e:
        if not assign:
            raise
        raise InputError(str(e)) from None
    if not records:
        print(f"no representation of {input_name} onto {group.name()} "
              f"has a polynomial invariant", file=sys.stderr)
        return EXIT_NO_REP, []
    return _cross_path_status(records), records


def cmd_compute(args) -> int:
    group = group_from_name(args.group)
    status, records = compute(*_load_input(args), group, assign=args.assign,
                              fix=args.fix, include_all=args.all,
                              cross_check=args.cross_check)
    for rec in records:
        print(json.dumps(rec))
    return status


def _scan_one(packed):
    """Worker for scan: the records for one fraction (picklable).

    The job carries the fraction and its H(3) certificate, which `cmd_scan`
    looks up in the generated forms (None when the fraction is not in H(3)
    or nothing reads it).  The surjections found by the search are grouped
    into classes under the automorphisms phi_U (`unit_classes`, which checks every
    member against its representative), taking them in label order so
    that each class is represented by its lexicographically smallest
    assignment.  The scan emits one row per class, labeled with that
    representative; no class is dropped, and only the representatives
    get a record.  Each surjection's label is built once, for the sort,
    and a row keeps its representative's.
    """
    r, group_key, form, cross_check = packed
    group = group_from_name(group_key)
    p, delta, _, _ = knot_input(wirtinger_presentation(r), str(r), r)
    if not obstruction_passes(delta, group):
        return []
    labeled = sorted(((_assignment_str(h.images, group, p), h)
                      for h in find_homs(p, group) if h.surjective),
                     key=lambda pair: pair[0])
    if not labeled:
        return []
    labels, surjective = zip(*labeled)
    reps = sorted(set(unit_classes(group, list(surjective))))
    return _compute_records(p, group, delta, [surjective[i] for i in reps],
                            list(range(len(reps))), [labels[i] for i in reps], str(r),
                            form if cross_check and group == a4_group() else None)


def cmd_scan(args) -> int:
    """Records for the 2-bridge fractions with alpha <= --alpha-max, one
    job per fraction (`_scan_one`), written in (alpha, beta) order.

    The H(3) forms are generated once (`twobridge.h3_forms`) when a
    certificate is read: with --h3-only, and with --cross-check over A4,
    whose recursion path takes it.  With --h3-only the jobs are the
    members alone, so no other fraction is built; otherwise every
    enumerated fraction is looked up in them.  Exit 3 when the two
    computation paths disagree on any record."""
    group = group_from_name(args.group)  # validate early
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    if args.alpha_max < 3:
        raise InputError(f"--alpha-max must be at least 3, got {args.alpha_max}")
    if args.alpha_max > ALPHA_MAX:
        raise InputError(f"--alpha-max must be at most {ALPHA_MAX}, got {args.alpha_max}")
    # the certificate is read by --h3-only and by the recursion path,
    # which runs only over A4
    read = args.h3_only or (args.cross_check and group == a4_group())
    forms = h3_forms(args.alpha_max) if read else {}
    fractions = (sorted(forms, key=lambda r: (r.alpha, r.beta)) if args.h3_only
                 else enumerate_fractions(args.alpha_max))
    jobs = [(r, args.group, forms.get(r), args.cross_check) for r in fractions]
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            chunks = pool.map(_scan_one, jobs)
    else:
        chunks = [_scan_one(j) for j in jobs]
    # the fractions are in (alpha, beta) order, Pool.map keeps it, and each
    # chunk is in assignment order
    rows = [rec for chunk in chunks for rec in chunk]
    _write_rows(rows, args.out, jsonl=args.jsonl)
    print(f"scan: {len(rows)} rows for {group.name()} up to alpha = "
          f"{args.alpha_max} -> {args.out}", file=sys.stderr)
    return _cross_path_status(rows)


def _write_rows(rows: list[dict], out: str, jsonl: bool) -> None:
    if out == "-":
        _dump_rows(rows, sys.stdout, jsonl=True, csv_mode=False)
        return
    path = Path(out)
    try:
        with open(path, "w", newline="") as handle:
            if jsonl or path.suffix == ".jsonl":
                _dump_rows(rows, handle, True, csv_mode=False)
            elif path.suffix == ".json":
                _dump_rows(rows, handle, False, csv_mode=False)
            else:
                _dump_rows(rows, handle, False, csv_mode=True)
    except OSError as e:
        raise InputError(f"cannot write {out}: {e}") from e


def _dump_rows(rows, handle, jsonl: bool, csv_mode: bool) -> None:
    if csv_mode:
        writer = csv.DictWriter(handle, fieldnames=FIELDS)
        writer.writeheader()
        for rec in rows:
            writer.writerow(rec)
    elif jsonl:
        for rec in rows:
            handle.write(json.dumps(rec) + "\n")
    else:
        json.dump(rows, handle, indent=1)
        handle.write("\n")


def cmd_find_reps(args) -> int:
    group = group_from_name(args.group)
    p, delta, name, _ = _load_input(args)
    possible = obstruction_passes(delta, group)
    if not possible:
        print(f"obstruction: no surjection of G({name}) onto {group.name()} "
              f"can exist (resultant test)")
    homs = find_homs(p, group, fix=args.fix)
    if not possible and any(h.surjective for h in homs):  # a fault of one of the two
        raise ExactnessError(f"the resultant test rules out a surjection of G({name}) "
                             f"onto {group.name()}, but the search found one")
    shown = [h for h in homs if h.surjective or args.all]
    # the generator pinned to s first, then the others in order
    order = sorted(range(p.num_generators),
                   key=lambda g: p.generators[g] != (args.fix or p.generators[0]))
    for h in shown:
        print(", ".join(f"f({p.generators[g]}) = {group.elem_str(h.images[g])}"
                        for g in order)
              + f"  [{'onto' if h.surjective else 'not onto'}]")
    if not shown:
        print(f"no representation of {name} onto {group.name()} found",
              file=sys.stderr)
        return EXIT_NO_REP
    return EXIT_OK


def cmd_h3(args) -> int:
    r = FractionR.parse(args.r)
    form = h3_expand(r)
    if form is None:
        print(f"{r} is not in H(3): no certificate [3k1, 2m1, ..., 3kq] "
              f"exists", file=sys.stderr)
        return EXIT_NO_REP
    print(str(form))
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selftest

    return EXIT_OK if selftest.run() == 0 else EXIT_INTERNAL


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors with the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _ArgumentParser(
        prog="metatap",
        description="Exact twisted Alexander polynomials for metabelian "
                    "representations of knot groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_opts(sp, with_assign=True):
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--r", help="2-bridge fraction beta/alpha (both odd)")
        source.add_argument("--pres", help="presentation file (or bundled name: "
                                           + ", ".join(BUNDLED) + ")")
        sp.add_argument("--group", required=True,
                        help="target group: A4 or M(n|p,k)")
        sp.add_argument("--fix", default=None,
                        help="generator pinned to s in the search "
                             "(default: first)")
        if with_assign:
            sp.add_argument("--assign", default=None,
                            help="explicit images, e.g. 'x=s; y=s b1 b4'")
        sp.add_argument("--all", action="store_true",
                        help="include non-surjective assignments")

    sp = sub.add_parser("compute", help="twisted polynomial for one input")
    add_input_opts(sp)
    sp.add_argument("--cross-check", action="store_true",
                    help="for A4 inputs in H(3): also run the "
                         "continued-fraction recursion path")
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("scan", help="batch verification over fractions")
    sp.add_argument("--alpha-max", type=int, required=True)
    sp.add_argument("--group", required=True)
    sp.add_argument("--out", required=True, help="output path (.csv/.json/"
                    ".jsonl) or - for stdout")
    sp.add_argument("--h3-only", action="store_true")
    sp.add_argument("--cross-check", action="store_true")
    sp.add_argument("--jsonl", action="store_true")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("find-reps", help="list homomorphism assignments")
    add_input_opts(sp, with_assign=False)
    sp.set_defaults(func=cmd_find_reps)

    sp = sub.add_parser("h3", help="continued-fraction certificate for --r")
    sp.add_argument("--r", required=True)
    sp.set_defaults(func=cmd_h3)

    sp = sub.add_parser("selftest", help="recompute the golden values")
    sp.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader closed stdout.  Point the descriptor at devnull, so
        # that the interpreter's flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except ExactnessError as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:
        # Anything else is a fault of the program, not of the input: one
        # line naming it, no traceback.
        print(f"internal consistency failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
