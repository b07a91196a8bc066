"""Command line interface: validate inputs, compute invariants, verify reports.

Exit codes: 0 success, 1 validation error, 2 undecided under the resource
caps, 3 a verified property failed (tampered report or violated theorem).
All output is byte-deterministic: repeated runs on identical inputs emit
identical reports, and ``--workers`` never changes results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import lattice
from . import maps as maps_mod
from . import probes as probes_mod
from . import solver
from .errors import CapExceeded, ValidationError
from .homotopy import DEFAULT_CAPS, SearchCaps

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNDECIDED = 2
EXIT_FAILED_CHECK = 3

ENV_VISITED = "DIGHOM_CAPS_VISITED"
ENV_PROBE_MAPS = "DIGHOM_CAPS_PROBE_MAPS"
ENV_EXACT_COVER = "DIGHOM_EXACT_COVER_CAP"

# Plain kinds are upgraded to their family-relative variant when --probes
# is given, so `compute cat --probes ...` reports kind "cat_m".
_M_UPGRADE = {
    "D": "D_m",
    "cat": "cat_m",
    "cat_of_map": "cat_m_of_map",
    "TC": "TC^m",
    "nTC": "nTC^m",
    "TC_of_map": "TC^m_of_map",
    "nTC_of_map": "nTC^m_of_map",
}


class _Parser(argparse.ArgumentParser):
    """Argument errors must exit 1, not argparse's default 2."""

    def error(self, message):
        raise ValidationError(message)


def _int_env(name, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{name} must be an integer, got {raw!r}") from exc


def _caps_from(args):
    visited = args.caps_visited
    if visited is None:
        visited = _int_env(ENV_VISITED, DEFAULT_CAPS.max_visited_maps)
    probe_maps = args.caps_probe_maps
    if probe_maps is None:
        probe_maps = _int_env(ENV_PROBE_MAPS, DEFAULT_CAPS.max_probe_maps)
    exact_cover = args.exact_cover_cap
    if exact_cover is None:
        exact_cover = _int_env(ENV_EXACT_COVER, solver.EXACT_COVER_CAP)
    for label, value in (("visited-maps cap", visited),
                         ("probe-maps cap", probe_maps),
                         ("exact-cover cap", exact_cover)):
        if value <= 0:
            raise ValidationError(f"{label} must be positive, got {value}")
    return SearchCaps(max_visited_maps=visited, max_probe_maps=probe_maps), exact_cover


def _emit(obj, out_path):
    text = json.dumps(obj, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(parser):
    parser.add_argument("--caps-visited", type=int, default=None,
                        help="cap on homotopy search states")
    parser.add_argument("--caps-probe-maps", type=int, default=None,
                        help="cap on enumerated probe maps")
    parser.add_argument("--exact-cover-cap", type=int, default=None,
                        help="largest universe solved by exact cover search")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; execution is sequential")
    parser.add_argument("-o", "--output", default=None, help="write output to a file")


def build_parser():
    top = _Parser(prog="dighom", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    image = sub.add_parser("image", help="image utilities")
    image_sub = image.add_subparsers(dest="image_command", required=True)
    validate = image_sub.add_parser("validate", help="check an image file")
    validate.add_argument("file")
    _add_common(validate)
    product = image_sub.add_parser("product", help="normal product of two images")
    product.add_argument("file1")
    product.add_argument("file2")
    product.add_argument("-m", type=int, required=True,
                         help="how many factors may move per step")
    _add_common(product)

    probes = sub.add_parser("probes", help="probe family utilities")
    probes_sub = probes.add_subparsers(dest="probes_command", required=True)
    generate = probes_sub.add_parser("generate", help="enumerate probe complexes")
    generate.add_argument("-m", type=int, required=True)
    generate.add_argument("--max-points", type=int, required=True)
    generate.add_argument("--box", type=int, required=True)
    _add_common(generate)

    compute = sub.add_parser("compute", help="compute one invariant")
    compute.add_argument("kind", choices=sorted(solver.KIND_NAMES))
    compute.add_argument("--image", default=None)
    compute.add_argument("--map", action="append", default=[],
                         help="map file; repeat for several maps")
    compute.add_argument("--probes", default=None,
                         help="family file or the name standard-m2")
    compute.add_argument("--n", type=int, default=None)
    compute.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    _add_common(compute)

    suite = sub.add_parser("verify-suite", help="run the inequality suite")
    suite.add_argument("--image", required=True)
    suite.add_argument("--probes", default=None)
    _add_common(suite)

    verify = sub.add_parser("verify-report", help="replay a report's pieces")
    verify.add_argument("file")
    _add_common(verify)

    return top


def _cmd_image_validate(args):
    img = lattice.load_image(args.file)
    summary = {
        "name": img.name,
        "dim": img.dim,
        "points": len(img.points),
        "edges": len(img.edges),
        "components": len(img.components()),
    }
    _emit(summary, args.output)
    return EXIT_OK


def _cmd_image_product(args):
    a = lattice.load_image(args.file1)
    b = lattice.load_image(args.file2)
    prod = lattice.np_product([a, b], args.m)
    _emit(lattice.image_to_json(prod), args.output)
    return EXIT_OK


def _cmd_probes_generate(args):
    family = probes_mod.generate_probes(args.m, args.max_points, args.box)
    _emit(probes_mod.family_to_json(family), args.output)
    return EXIT_OK


def _cmd_compute(args):
    kind = args.kind
    family = probes_mod.load_family(args.probes) if args.probes else None
    if family is not None and kind in _M_UPGRADE:
        kind = _M_UPGRADE[kind]
    if kind in solver.M_KIND_NAMES and family is None:
        raise ValidationError(f"{kind} needs --probes")
    image = lattice.load_image(args.image) if args.image else None
    maps = tuple(maps_mod.load_map(p) for p in args.map)
    caps, exact_cover = _caps_from(args)
    report = solver.compute_invariant(
        kind, image=image, maps=maps, family=family, n=args.n,
        mode=args.mode, caps=caps, exact_cap=exact_cover,
    )
    _emit(solver.report_to_json(report), args.output)
    return EXIT_UNDECIDED if report.value is None else EXIT_OK


def _cmd_verify_suite(args):
    image = lattice.load_image(args.image)
    family = probes_mod.load_family(args.probes) if args.probes else probes_mod.standard_m2()
    caps, exact_cover = _caps_from(args)
    report = solver.verify_inequality_suite(image, family, caps,
                                            exact_cap=exact_cover)
    _emit(solver.suite_to_json(report, image, family), args.output)
    if report.failed:
        return EXIT_FAILED_CHECK
    if report.undecided:
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_verify_report(args):
    caps, _ = _caps_from(args)
    status, messages = solver.verify_report(args.file, caps)
    _emit({"status": status, "messages": messages}, args.output)
    if status == "ok":
        return EXIT_OK
    if status == "undecided":
        return EXIT_UNDECIDED
    return EXIT_FAILED_CHECK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "image":
            if args.image_command == "validate":
                return _cmd_image_validate(args)
            return _cmd_image_product(args)
        if args.command == "probes":
            return _cmd_probes_generate(args)
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify-suite":
            return _cmd_verify_suite(args)
        return _cmd_verify_report(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapExceeded as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
