"""Command-line frontend: read JSON documents, run checks, report verdicts.

Documents
---------
A *pair document* is a JSON object with the fields understood by
:func:`toricomplex.pairmodel.pair_from_dict` (``rank``, ``rays``,
``max_cones``, ``boundary``, optional ``mode``/``cone``/``nef_part``),
optionally extended by

``"decomposition"``
    a list of parts ``{"b": "p/q", "support": {"<ray index>": "p/q"}}``;
``"orbifold"``
    a map ``{"<ray index>": n}`` of multiplicities (entries default to 1).

When ``decomposition`` is absent the boundary's prime decomposition is
used: one part per ray of positive coefficient, net of the orbifold tax
``1 - 1/n``.

A *germ document* (``cone``, ``hilbert``) carries ``rank``, ``rays``,
``max_cones`` for a single full-dimensional cone plus the interior
primitive vector ``"v"``.  Surgery documents for ``check`` wrap a pair
document under ``"pair"`` next to the surgery data (``target`` fan and
``ray`` for contractions, ``target`` for small modifications,
``vectors`` for extractions).

Exit codes
----------
0   success, every claimed inequality or identity verified;
1   invalid input (malformed document, bad fan/pair/decomposition, bad
    flags or usage);
2   a checked claim failed or a theorem hypothesis was violated;
3   I/O or JSON parse failure;
4   internal error: a self-check of the library failed.

A package error's base class sets its exit code: InvalidInputError 1,
ClaimFailedError 2 and InternalInvariantError 4 (all in lattice.py).
ValueError, TypeError and KeyError exit 1 while the document is read and
its objects are built, and 4 after that, where they can only come from
a fault of the library; any other Exception exits 4 in either phase.
So each command runs in two phases: its handler reads the document and
returns the report step, and :func:`run` knows which phase an error
came from.

Each subparser binds its handler with ``set_defaults(handler=...)``, a
handler reads its flags off the argparse namespace, and :func:`run`
calls ``args.handler(args)``.  :func:`run` names no module's error
classes, and the adjunction, surgery and cone modules are imported only
inside the commands that use them: a process running one command loads
only what that command needs.
"""

import argparse
import json
import sys
from fractions import Fraction

from .complexity import (IncompatibleOrbifoldError, InvalidDecompositionError,
                         complexity_values, local_complexity_cloc,
                         make_decomposition, minimize, validate_decomposition)
from .fan import make_fan, require_valid
from .lattice import ClaimFailedError, InternalInvariantError, InvalidInputError
from .pairmodel import (build_pair, format_rational, is_log_canonical,
                        is_log_cy, pair_from_dict, parse_rational)


class InvalidDocumentError(InvalidInputError):
    """The JSON document does not have the shape the command expects."""


EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CLAIM = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# Complete fans bundled for `check suite` (mirrors the test fixtures).
_SUITE_DATA = (
    ("P1", 1, [(1,), (-1,)], [(0,), (1,)]),
    ("P2", 2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    ("P3", 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
     [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    ("P1xP1", 2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
     [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ("BlP2", 2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
     [(0, 2), (0, 3), (1, 2), (1, 3)]),
    ("F1", 2, [(1, 0), (0, 1), (-1, 1), (0, -1)],
     [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ("F2", 2, [(1, 0), (0, 1), (-1, 2), (0, -1)],
     [(0, 1), (1, 2), (2, 3), (0, 3)]),
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems instead of exiting itself.

    The default parser exits with status 2, which this tool reserves
    for failed claims; usage problems must map to 1.
    """

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# document I/O


def _load_doc(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise InvalidDocumentError("top-level document must be a JSON object")
    return doc


def _load_fan(doc):
    for key in ("rank", "rays", "max_cones"):
        if key not in doc:
            raise InvalidDocumentError(f"missing field {key!r}")
    return make_fan(doc["rank"], doc["rays"], doc["max_cones"])


def _ray_index(key, nrays):
    # only the canonical spelling, so that no two keys name one ray
    i = int(key)
    if key != str(i):
        raise InvalidDecompositionError(
            f"ray index {key!r} must be written {str(i)!r}")
    if not 0 <= i < nrays:
        raise InvalidDecompositionError(f"ray index {i} out of range")
    return i


def _parse_orbifold(doc, nrays):
    orb = [1] * nrays
    if doc is None:
        return orb
    if not isinstance(doc, dict):
        raise IncompatibleOrbifoldError("orbifold must map ray index to n")
    for key, val in doc.items():
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise IncompatibleOrbifoldError(
                f"orbifold multiplicity for ray {key} must be a"
                " positive integer")
        orb[_ray_index(key, nrays)] = val
    return orb


def _parse_parts(doc, nrays):
    if not isinstance(doc, list):
        raise InvalidDecompositionError("decomposition must be a list")
    parts = []
    for entry in doc:
        if not isinstance(entry, dict) or "b" not in entry:
            raise InvalidDecompositionError(
                'each part needs {"b": ..., "support": {...}}')
        coeffs = [Fraction(0)] * nrays
        support = entry.get("support", {})
        if not isinstance(support, dict):
            raise InvalidDecompositionError("support must map ray to value")
        for key, val in support.items():
            coeffs[_ray_index(key, nrays)] = parse_rational(val)
        parts.append((parse_rational(entry["b"]), coeffs))
    return parts


def _prime_parts(pair, orb):
    """One coefficient-one prime per ray, net of the orbifold tax."""
    parts = []
    for i in pair.local_rays():
        tax = Fraction(1) - Fraction(1, orb[i])
        weight = pair.boundary[i] - tax
        if weight < 0:
            raise InvalidDecompositionError(
                f"orbifold tax at ray {i} exceeds the boundary coefficient")
        if weight:
            unit = [Fraction(0)] * len(pair.fan.rays)
            unit[i] = Fraction(1)
            parts.append((weight, unit))
    return parts


def _decomposition_from_doc(doc, pair):
    nrays = len(pair.fan.rays)
    orb = _parse_orbifold(doc.get("orbifold"), nrays)
    if "decomposition" in doc:
        parts = _parse_parts(doc["decomposition"], nrays)
    else:
        parts = _prime_parts(pair, orb)
    dec = make_decomposition(nrays, parts, orb)
    validate_decomposition(pair, dec)
    return dec


def _pair_and_decomposition(doc):
    """The pair document's pair and its validated decomposition."""
    pair = pair_from_dict(doc)
    return pair, _decomposition_from_doc(doc, pair)


def _interior_vector(doc, fan):
    if "v" not in doc:
        raise InvalidDocumentError('germ document needs the interior vector "v"')
    v = doc["v"]
    if (not isinstance(v, list) or len(v) != fan.rank
            or not all(isinstance(c, int) and not isinstance(c, bool)
                       for c in v)):
        raise InvalidDocumentError('"v" must list one integer per coordinate')
    return tuple(v)


# ---------------------------------------------------------------------------
# serialization


def _rat(x):
    return format_rational(Fraction(x))


def _opt_rat(x):
    return None if x is None else _rat(x)


def _fan_doc(fan):
    return {
        "rank": fan.rank,
        "rays": [list(u) for u in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def _dec_doc(dec):
    parts = [{
        "b": _rat(p.weight),
        "support": {str(i): _rat(c) for i, c in enumerate(p.coeffs) if c},
    } for p in dec.parts]
    orbifold = {str(i): n for i, n in enumerate(dec.orbifold) if n != 1}
    return {"parts": parts, "orbifold": orbifold, "norm": _rat(dec.norm)}


def _values_doc(values):
    c, c_fine, c_orb = values
    return {"c": _opt_rat(c), "c_fine": _opt_rat(c_fine),
            "c_orb": _opt_rat(c_orb)}


def _class_doc(pres, v):
    free, tors = pres.class_of(v)
    return {"free": list(free), "torsion": list(tors)}


# ---------------------------------------------------------------------------
# commands


# Each handler reads the document and builds its objects, then returns
# the step that computes the report from them.

def _cmd_validate(args):
    doc = _load_doc(args.input)
    pair, dec = _pair_and_decomposition(doc)
    checked = "decomposition" in doc or "orbifold" in doc

    def report():
        return {
            "claim": "document-is-well-formed",
            "ok": True,
            "mode": pair.mode,
            "rank": pair.fan.rank,
            "rays": len(pair.fan.rays),
            "log_cy": is_log_cy(pair),
            "log_canonical": is_log_canonical(pair),
            "decomposition_checked": checked,
            "decomposition_norm": _rat(dec.norm),
        }
    return report


def _cmd_classgroup(args):
    fan = require_valid(_load_fan(_load_doc(args.input)))

    def report():
        pres = fan.class_group
        nrays = len(fan.rays)
        units = [[1 if j == i else 0 for j in range(nrays)]
                 for i in range(nrays)]
        return {
            "claim": "class-group-presentation",
            "ok": True,
            "free_rank": pres.free_rank,
            "torsion": list(pres.torsion),
            "ray_classes": [_class_doc(pres, u) for u in units],
        }
    return report


def _cmd_complexity(args):
    doc = _load_doc(args.input)
    if args.mode is not None:
        doc = dict(doc, mode=args.mode)
        if args.cone is not None:
            doc["cone"] = list(args.cone)
    pair, dec = _pair_and_decomposition(doc)

    def report():
        c, c_fine, c_orb = complexity_values(pair, dec)
        return {
            "claim": "complexity-values",
            "ok": True,
            "mode": pair.mode,
            "c": _opt_rat(c),
            "c_fine": _opt_rat(c_fine),
            "c_orb": _rat(c_orb),
            "norm": _rat(dec.norm),
        }
    return report


def _cmd_minimize(args):
    pair = pair_from_dict(_load_doc(args.input))

    def report():
        rep = minimize(pair, orbifold_cap=args.orbifold_cap,
                       partition_limit=args.partition_limit)
        return {
            "claim": "minimal-complexity-values",
            "ok": True,
            "c": _rat(rep.c),
            "c_fine": _rat(rep.c_fine),
            "c_orb": _rat(rep.c_orb),
            "nonnegative": rep.c_orb >= 0,
            "cl_rank": rep.cl_rank,
            "span_fine": rep.span_fine,
            "span_orb": rep.span_orb,
            "dec_c": _dec_doc(rep.dec_c),
            "dec_fine": _dec_doc(rep.dec_fine),
            "dec_orb": _dec_doc(rep.dec_orb),
        }
    return report


def _cmd_adjoin(args):
    from .adjunction import check_adjunction
    pair, dec = _pair_and_decomposition(_load_doc(args.input))
    if not 0 <= args.ray < len(pair.fan.rays):
        raise InvalidDocumentError(f"--ray {args.ray} out of range")

    def report():
        chk = check_adjunction(pair, dec, args.ray)
        res = chk.result
        return {
            "claim": "adjunction-does-not-increase-complexity",
            "ok": chk.monotone,
            "value_x": _rat(chk.value_x),
            "value_e": _rat(chk.value_e),
            "equality": chk.equality,
            "span_full": chk.span_full,
            # Each point of E meets one marked prime at most, so the
            # two-prime set is always empty; both keys keep the report's
            # shape.
            "s_empty": True,
            "sigma_is_boundary": chk.sigma_is_boundary,
            "boundary_is_lower_bound": res.boundary_is_lower_bound,
            "e_fan": _fan_doc(res.e_pair.fan),
            "e_mode": res.e_pair.mode,
            "e_boundary": [_rat(b) for b in res.boundary],
            "e_orbifold": list(res.orbifold),
            "sigma": _dec_doc(res.sigma),
            "s_rays": [],
        }
    return report


def _germ(args):
    """The germ document's single cone and interior vector, checked as
    the cone commands check them."""
    from .conecox import _require_interior, _single_cone
    doc = _load_doc(args.input)
    fan = _load_fan(doc)
    v = _interior_vector(doc, fan)
    _single_cone(fan)
    return fan, _require_interior(fan, v)


def _cmd_cone(args):
    from .conecox import verify_cone_iso
    fan, v = _germ(args)

    def report():
        rep = verify_cone_iso(fan, v)
        return {
            "claim": "germ-is-cone-over-its-exceptional-divisor",
            "ok": rep.ok,
            "witness": [list(row) for row in rep.witness],
            "e_fan": _fan_doc(rep.e_fan),
            "polarization": [_rat(a) for a in rep.polarization],
            "target": _fan_doc(rep.target),
            "ray_map": list(rep.ray_map),
        }
    return report


def _cmd_hilbert(args):
    from .conecox import (TorsionObstructionError, cox_degrees,
                          degree_zero_monoid)
    fan, v = _germ(args)

    def report():
        degrees = cox_degrees(fan, v)
        try:
            monoid = degree_zero_monoid(
                degrees, torsion_cover=args.torsion_cover)
        except TorsionObstructionError as exc:
            raise TorsionObstructionError(
                f"{exc} (command line: --torsion-cover)") from exc
        return {
            "claim": "degree-zero-part-is-finitely-generated",
            "ok": True,
            "class_free_rank": degrees.cl_y.free_rank,
            "class_torsion": list(degrees.cl_y.torsion),
            "generators": [list(g) for g in monoid.generators],
            "tau": list(monoid.tau),
            "cover_steps": [{
                "divisor": list(step.divisor),
                "order": step.order,
                "character": list(step.character),
            } for step in monoid.cover_steps],
        }
    return report


def _surgery_doc(args):
    doc = _load_doc(args.input)
    if "pair" not in doc:
        raise InvalidDocumentError('surgery document needs a "pair" object')
    return (doc, *_pair_and_decomposition(doc["pair"]))


def _target_fan(doc, rank):
    target = doc.get("target")
    if not isinstance(target, dict):
        raise InvalidDocumentError('surgery document needs a "target" fan')
    for key in ("rays", "max_cones"):
        if key not in target:
            raise InvalidDocumentError(f'missing field {key!r} in "target"')
    return make_fan(rank, target["rays"], target["max_cones"])


def _cmd_check_contract(args):
    from .birational import check_contraction, contraction
    doc, pair, dec = _surgery_doc(args)
    target = _target_fan(doc, pair.fan.rank)
    ray = doc.get("ray")
    if not isinstance(ray, int) or isinstance(ray, bool):
        raise InvalidDocumentError('contraction document needs the integer "ray"')
    surgery = contraction(pair.fan, target, ray)

    def report():
        rep = check_contraction(pair, surgery, dec)
        return {
            "claim": "contraction-drops-complexity-by-at-most-one",
            "ok": rep.ok,
            "values_source": _values_doc(rep.values_source),
            "values_target": _values_doc(rep.values_target),
            "dropped_norm": _rat(rep.dropped_norm),
            "e_total_coefficient": _rat(rep.e_total_coefficient),
            "equality_plain": rep.equality_plain,
            "criterion": rep.criterion,
            "e_is_glc_place": rep.e_is_glc_place,
            "pushed": _dec_doc(rep.pushed),
        }
    return report


def _cmd_check_small(args):
    from .birational import check_small, small_modification
    doc, pair, dec = _surgery_doc(args)
    target = _target_fan(doc, pair.fan.rank)
    surgery = small_modification(pair.fan, target)

    def report():
        rep = check_small(pair, surgery, dec)
        return {
            "claim": "small-modification-preserves-complexity",
            "ok": rep.ok,
            "values_source": _values_doc(rep.values_source),
            "values_target": _values_doc(rep.values_target),
            "pushed": _dec_doc(rep.pushed),
        }
    return report


def _cmd_check_extract(args):
    from .birational import check_extraction, extraction
    doc, pair, dec = _surgery_doc(args)
    vectors = doc.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise InvalidDocumentError('extraction document needs "vectors"')
    surgery = extraction(pair.fan, [tuple(v) for v in vectors])

    def report():
        rep = check_extraction(pair, surgery, dec)
        return {
            "claim": "crepant-extraction-does-not-increase-complexity",
            "ok": rep.ok,
            "values_source": _values_doc(rep.values_source),
            "values_target": _values_doc(rep.values_target),
            "discrepancies": [_rat(d) for d in rep.discrepancies],
            "lifted": _dec_doc(rep.lifted),
        }
    return report


def _suite_row(item):
    name, rank, rays, cones = item
    fan = make_fan(rank, rays, cones)
    pair = build_pair(fan, [1] * len(fan.rays))
    rep = minimize(pair)
    local = [local_complexity_cloc(fan, cone).value for cone in fan.max_cones]
    ok = (rep.c, rep.c_fine, rep.c_orb) == (0, 0, 0) and not any(local)
    return {
        "fan": name,
        "ok": ok,
        "c": _rat(rep.c),
        "c_fine": _rat(rep.c_fine),
        "c_orb": _rat(rep.c_orb),
        "local": [_rat(x) for x in local],
    }


def _cmd_check_suite(args):
    def report():
        rows = [_suite_row(item) for item in _SUITE_DATA]
        return {
            "claim": "bundled-fans-have-zero-complexity",
            "ok": all(row["ok"] for row in rows),
            "fans": rows,
        }
    return report


# ---------------------------------------------------------------------------
# rendering


def _scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)


def _text_lines(value, prefix=""):
    if isinstance(value, dict):
        if not value:
            yield f"{prefix}: (none)"
            return
        for key in sorted(value):
            sub = f"{prefix}.{key}" if prefix else str(key)
            yield from _text_lines(value[key], sub)
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            yield f"{prefix}: [{', '.join(_scalar(x) for x in value)}]"
        else:
            for i, item in enumerate(value):
                yield from _text_lines(item, f"{prefix}[{i}]")
    else:
        yield f"{prefix}: {_scalar(value)}"


def _emit(fmt, payload):
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for line in _text_lines(payload):
            sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# entry points


def _cap(value):
    n = int(value)
    if not 1 <= n <= 64:
        raise argparse.ArgumentTypeError("must be between 1 and 64")
    return n


def _add_io_flags(parser, handler):
    parser.set_defaults(handler=handler)
    parser.add_argument("--input", default="-", metavar="PATH",
                        help="input document; '-' reads stdin (default)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        dest="fmt", help="output rendering (default text)")


def _build_parser():
    parser = _Parser(prog="toricomplex",
                     description="exact complexity invariants of toric pairs")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser,
                                required=True, metavar="command")

    p = sub.add_parser("validate", help="check a pair document")
    _add_io_flags(p, _cmd_validate)

    p = sub.add_parser("classgroup", help="divisor class group of the fan")
    _add_io_flags(p, _cmd_classgroup)

    p = sub.add_parser("complexity",
                       help="values of one decomposition")
    _add_io_flags(p, _cmd_complexity)
    p.add_argument("--mode", choices=("projective", "local", "birational"),
                   help="override the document's pair mode")
    p.add_argument("--cone", metavar="I,J,...",
                   help="cone ray indices for --mode local")

    p = sub.add_parser("minimize", help="minimal values over decompositions")
    _add_io_flags(p, _cmd_minimize)
    p.add_argument("--orbifold-cap", type=_cap, default=12, metavar="N",
                   help="largest orbifold multiplicity tried (1..64)")
    p.add_argument("--partition-limit", type=_cap, default=12, metavar="N",
                   help="largest grouping size enumerated (1..64)")

    p = sub.add_parser("adjoin", help="adjunction onto a boundary divisor")
    _add_io_flags(p, _cmd_adjoin)
    p.add_argument("--ray", type=int, required=True, metavar="I",
                   help="ray index of the center")

    p = sub.add_parser("cone", help="identify a germ as a cone")
    _add_io_flags(p, _cmd_cone)

    p = sub.add_parser("hilbert", help="degree-zero monoid generators")
    _add_io_flags(p, _cmd_hilbert)
    p.add_argument("--torsion-cover", action="store_true",
                   help="descend to a finite cover when the class group"
                        " has torsion")

    p = sub.add_parser("check", help="verify one surgery or the suite")
    kind = p.add_subparsers(dest="kind", parser_class=_Parser, required=True,
                            metavar="kind")
    for name, handler, blurb in (
            ("contract", _cmd_check_contract, "divisorial contraction"),
            ("small", _cmd_check_small, "isomorphism in codimension one"),
            ("extract", _cmd_check_extract, "crepant divisorial extraction")):
        _add_io_flags(kind.add_parser(name, help=blurb), handler)
    q = kind.add_parser("suite", help="bundled fans, all values zero")
    q.set_defaults(handler=_cmd_check_suite)
    q.add_argument("--format", choices=("text", "json"), default="text",
                   dest="fmt")
    return parser


def _parse_cone_flag(raw):
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise _UsageError(
            f"--cone expects comma-separated integers: {raw!r}") from exc


def run(argv):
    """Execute one invocation; returns the exit code without exiting."""
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "cone", None) is not None:
            args.cone = _parse_cone_flag(args.cone)
    except _UsageError as exc:
        print(f"toricomplex: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = None  # set once the document's objects are built
    try:
        report = args.handler(args)
        payload = report()
    except InternalInvariantError as exc:
        print(f"toricomplex: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ClaimFailedError as exc:
        print(f"toricomplex: claim failed: {exc}", file=sys.stderr)
        return EXIT_CLAIM
    # JSONDecodeError subclasses ValueError: classify I/O first.
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"toricomplex: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvalidInputError as exc:
        print(f"toricomplex: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        # these built-ins blame the document only while it is read
        if report is None and isinstance(exc, (ValueError, TypeError,
                                               KeyError)):
            print(f"toricomplex: invalid input: {exc}", file=sys.stderr)
            return EXIT_INVALID
        print(f"toricomplex: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL
    _emit(args.fmt, payload)
    return EXIT_OK if payload.get("ok", True) else EXIT_CLAIM


def main(argv=None):
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
