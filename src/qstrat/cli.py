"""Command-line interface: build algebras, run the verification suites,
and emit JSON reports.

Exit codes: 0 all checks pass, 1 a mathematical check failed (the report
carries the witness), 2 input, configuration or I/O error (a missing file,
a closed stdout).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import time
from contextlib import contextmanager

from . import strat as S
from . import tilting as TL
from .algebra import Algebra, AlgebraError, QuiverPresentation, build_algebra
from .examples import EXAMPLE_NAMES, FAMILIES, get_example, realize
from .exactla import QQ, FieldError, field_from_name, integer
from .report import Report


def _lazy(name):
    """The module name, registered in sys.modules with its body run on the
    first attribute read (or the module itself, when already loaded)."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        parent, _, child = name.rpartition(".")
        setattr(sys.modules[parent], child, module)
    return sys.modules[name]


# only the cellular and triangular commands read the based layer
BD = _lazy(f"{__package__}.based")


class InputError(ValueError):
    pass


@contextmanager
def _reading(path):
    """Report a key missing from an input file as an input error; a
    KeyError anywhere else is an engine fault."""
    try:
        yield
    except KeyError as e:
        raise InputError(f"{path}: missing key {e}") from e


def _read_object(path):
    """The JSON object an input file holds; any other JSON value is an
    input error."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _file_field(path, named, field):
    """The field an input file names, which the --field field (None when
    not given) must equal."""
    own = field_from_name(named)
    if field is not None and field.name != own.name:
        raise InputError(f"{path} is over the field {own.name}, not the --field {field.name}")
    return own


def _load_algebra_arg(path_or_name, field, degree_bound):
    """An algebra argument is 'examples:NAME', a presentation file, a
    family file, or a structure-constants file (as dumped by ringel),
    over field (the --field field, or Q when None) unless it names its
    own (see _file_field).  degree_bound, when not None, replaces the
    bound of each but the last, which has none."""
    if path_or_name.startswith("examples:"):
        return get_example(path_or_name.split(":", 1)[1], field or QQ, degree_bound)
    data = _read_object(path_or_name)
    if "family" in data:
        with _reading(path_or_name):  # templates are read as the window is built
            return _expand_family(path_or_name, data, field, degree_bound)
    with _reading(path_or_name):
        _file_field(path_or_name, data["field"], field)
    if "mult" in data:
        if degree_bound is not None:
            raise InputError(f"{path_or_name}: a structure-constants file has no presentation to bound")
        with _reading(path_or_name):
            alg = Algebra.from_json(data)
        alg.verify()
        return alg, None
    if degree_bound is not None:
        data["degree_bound"] = degree_bound
    with _reading(path_or_name):
        pres = QuiverPresentation.from_json(data)
    return build_algebra(pres), None


def _expand_family(path, data, field, degree_bound):
    """The window of a family file, {"family": ..., "window": [lo, hi]},
    with its chain stratification.  The family is a built-in one by name
    ({"name": "gl11"}, over --field) or index-shifted templates over the
    field they name, else --field; either is realized by examples.realize."""
    fam = data["family"]
    if "name" in fam:
        name = fam["name"]
        if not isinstance(name, str) or name not in FAMILIES:
            raise InputError(f"unknown family {name!r}")
        fam = FAMILIES[name]
    elif "field" in fam:
        field = _file_field(path, fam["field"], field)
    window = data["window"]
    bounds = [integer(w) for w in window] if isinstance(window, list) else []
    if len(bounds) != 2 or None in bounds:
        raise InputError(f"a family window is [lo, hi], not {window!r}")
    return realize(fam, *bounds, field or QQ, degree_bound)


def _load_spec_arg(path, algebra, default):
    if path is None:
        if default is None:
            raise InputError("a stratification file is required")
        return default
    data = _read_object(path)
    try:
        with _reading(path):
            spec = S.StratSpec.from_json(data)
        spec.validate(algebra)
    except S.StratError as e:
        raise InputError(f"bad stratification file: {e}") from e
    return spec


def _integer_option(text):
    """An integer option, read as the integers of an input file are."""
    value = integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return value


def _given_field(args):
    """The --field field, None when it is not given."""
    return None if args.field is None else field_from_name(args.field)


def _load_inputs(args):
    """The algebra a stratified command reads, and its stratification with
    the --eps signs applied."""
    algebra, spec0 = _load_algebra_arg(args.algebra, _given_field(args), args.degree_bound)
    spec = _load_spec_arg(args.strat, algebra, spec0)
    return algebra, spec.with_signs(_parse_signs(args.eps, spec))


def _parse_signs(text, spec):
    """Parse '1=+,2=-' into a sign dict against the spec's poset."""
    if text is None:
        return dict(spec.signs)
    out = dict(spec.signs)
    given = set()
    for part in text.split(","):
        name, _, sign = part.partition("=")
        if sign not in ("+", "-"):
            raise InputError(f"bad sign assignment {part!r}")
        if name not in set(spec.poset.elements):
            raise InputError(f"unknown weight {name!r}")
        if name in given:
            raise InputError(f"weight {name!r} given twice")
        given.add(name)
        out[name] = sign
    return out


def _emit(report, args, field):
    """Print or write the report of a job run over field; the exit code."""
    report.field = field.name
    report.elapsed_s = round(time.perf_counter() - args._t0, 3)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.ok else 1


def _flag_failed(rep, e, **details):
    """A tilting.FlagFailed as a failing tilting[b] check, witnessed by the
    sections peeled before the flag got stuck and the stuck dimensions; returns rep."""
    rep.add(f"tilting[{e.b}]", False, **TL.failure_details(e), **details)
    return rep


def cmd_build(args):
    algebra, _ = _load_algebra_arg(args.algebra, _given_field(args), args.degree_bound)
    rep = Report(command="build")
    rep.data["dim"] = algebra.dim
    rep.data["graded_dims"] = {f"{i},{j}": d for (i, j), d in sorted(algebra.graded_dims().items())}
    rep.data["vertices"] = list(algebra.vertices)
    rep.data["basis"] = [b.name for b in algebra.basis]
    rep.add("associative", algebra.verify())
    return _emit(rep, args, algebra.field)


def cmd_verify(args):
    if args.nmax < 0:
        raise InputError(f"--nmax must be >= 0, got {args.nmax}")
    algebra, spec = _load_inputs(args)
    rep = S.check_stratified(algebra, spec, with_witnesses=args.witnesses)
    rep.data["simple_strata"] = S.check_simple_strata(algebra, spec).ok
    if rep.ok:
        rep.data["fully_stratified"] = S.check_fully_stratified(algebra, spec).ok
        rep.extend(S.bgg_reciprocity(algebra, spec))
        rep.extend(S.ext_orthogonality(algebra, spec, nmax=args.nmax))
    return _emit(rep, args, algebra.field)


def cmd_tilting(args):
    algebra, spec = _load_inputs(args)
    rep = Report(command="tilting")
    certified = {}
    for b in sorted(algebra.vertices):
        try:
            T, std_cert, costd_cert = TL.tilting_module(algebra, spec, b)
        except TL.FlagFailed as e:
            certified[b] = e
            _flag_failed(rep, e)
            continue
        certified[b] = std_cert, costd_cert
        rep.add(
            f"tilting[{b}]",
            True,
            dims={v: d for v, d in T.dims.items() if d},
            standard_sections=std_cert.sections,
            costandard_sections=costd_cert.sections,
        )
    rigid, detail = TL.tilting_rigidity(algebra, spec, certified)
    rep.data["tilting_rigid"] = rigid
    rep.data["tilting_rigid_by_label"] = detail
    return _emit(rep, args, algebra.field)


def cmd_ringel(args):
    algebra, spec = _load_inputs(args)
    try:
        rd = TL.ringel_dual(algebra, spec)
    except TL.FlagFailed as e:
        return _emit(_flag_failed(Report(command="ringel"), e), args, algebra.field)
    rep = TL.verify_ringel(rd)
    if args.dump_dual:
        with open(args.dump_dual, "w") as fh:
            json.dump(rd.dual_algebra.to_json(), fh, indent=2)
        strat_path = args.dump_dual + ".strat.json"
        with open(strat_path, "w") as fh:
            json.dump(rd.dual_spec.to_json(), fh, indent=2)
        rep.data["dual_written_to"] = args.dump_dual
        rep.data["dual_strat_written_to"] = strat_path
    return _emit(rep, args, algebra.field)


def cmd_cellular(args):
    algebra, spec = _load_inputs(args)
    try:
        structure, rd = BD.extract_cellular(algebra, spec, flavor=args.flavor)
    except TL.FlagFailed as e:
        return _emit(_flag_failed(Report(command="cellular"), e, signs=e.signs), args, algebra.field)
    rep = BD.verify_based(rd.dual_algebra, structure)
    rep.extend(BD.cell_verify(rd.dual_algebra, structure))
    rep.data["flavor"] = structure.flavor
    if args.dump_structure:
        with open(args.dump_structure, "w") as fh:
            json.dump(structure.to_json(), fh, indent=2)
    return _emit(rep, args, algebra.field)


def cmd_triangular(args):
    algebra, _ = _load_algebra_arg(args.algebra, _given_field(args), args.degree_bound)
    data = _read_object(args.data)
    try:
        with _reading(args.data):
            td = BD.TriangularData.from_json(algebra, data)
    except BD.BasedError as e:
        # a malformed field, a kind other than cartan or triangular, or
        # weights other than the vertices
        raise InputError(f"{args.data}: {e}") from e
    rep, structure = (BD.check_triangular if td.kind == "triangular" else BD.check_cartan)(algebra, td)
    if rep.ok and args.emit_based:
        rep.extend(BD.verify_based(algebra, structure))
        rep.data["flavor"] = structure.flavor
    return _emit(rep, args, algebra.field)


def cmd_tower(args):
    field = field_from_name(args.field or "Q")
    windows = [integer(w) for w in args.window.split(",")]
    if None in windows:
        raise InputError(f"bad --window {args.window!r}: each window is an integer")
    family = args.family

    def family_fn(w):
        name = f"{family}:{w}" if ":" not in family else family.replace("N", str(w))
        return get_example(name, field, args.degree_bound)

    labels = tuple(args.labels.split(","))
    if "" in labels:
        raise InputError(f"bad --labels {args.labels!r}: each label is a window label")
    try:
        rep = TL.truncation_tower(family_fn, windows, tilt_labels=labels)
    except TL.WindowError as e:
        raise InputError(str(e)) from e
    return _emit(rep, args, field)


def cmd_examples(args):
    field = field_from_name(args.field or "Q")
    rep = Report(command="examples")
    if args.name is None:
        rep.data["available"] = EXAMPLE_NAMES
        return _emit(rep, args, field)
    algebra, spec = get_example(args.name, field, args.degree_bound)
    base = args.prefix or args.name.replace(":", "_")
    alg_path = f"{base}.algebra.json"
    spec_path = f"{base}.strat.json"
    written = algebra if algebra.presentation is None else algebra.presentation
    with open(alg_path, "w") as fh:
        json.dump(written.to_json(), fh, indent=2)
    with open(spec_path, "w") as fh:
        json.dump(spec.to_json(), fh, indent=2)
    rep.data["algebra_file"] = alg_path
    rep.data["strat_file"] = spec_path
    rep.add("written", True)
    return _emit(rep, args, field)


def make_parser():
    p = argparse.ArgumentParser(
        prog="qstrat",
        description="Exact verification engine for stratified quiver algebras.",
    )
    p.add_argument("--field", default=None, help="Q or Fp:<prime>; default Q, or the input file's own field")
    p.add_argument("--degree-bound", type=_integer_option, default=None, help="override the presentation degree bound")
    p.add_argument("--out", default=None, help="write the JSON report here")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", help="build an algebra and report dimensions")
    sp.add_argument("algebra", help="algebra JSON file or examples:NAME")
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("verify", help="verify the stratified axioms")
    sp.add_argument("algebra")
    sp.add_argument("--strat", default=None, help="stratification JSON file")
    sp.add_argument("--eps", default=None, help="sign overrides, e.g. 1=+,2=-")
    sp.add_argument("--nmax", type=_integer_option, default=3)
    sp.add_argument(
        "--witnesses", action="store_true", help="embed full flag certificates in the report"
    )
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("tilting", help="construct the tilting modules")
    sp.add_argument("algebra")
    sp.add_argument("--strat", default=None)
    sp.add_argument("--eps", default=None)
    sp.set_defaults(fn=cmd_tilting)

    sp = sub.add_parser("ringel", help="Ringel dual with full verification")
    sp.add_argument("algebra")
    sp.add_argument("--strat", default=None)
    sp.add_argument("--eps", default=None)
    sp.add_argument("--dump-dual", default=None, help="write the dual algebra JSON here")
    sp.set_defaults(fn=cmd_ringel)

    sp = sub.add_parser("cellular", help="extract a cellular structure on the Ringel dual")
    sp.add_argument("algebra")
    sp.add_argument("--strat", default=None)
    sp.add_argument("--eps", default=None)
    sp.add_argument("--flavor", default="auto", choices=["auto", "eQH", "eS", "BS", "FQH"])
    sp.add_argument("--dump-structure", default=None)
    sp.set_defaults(fn=cmd_cellular)

    sp = sub.add_parser("triangular", help="check Cartan/triangular decomposition data")
    sp.add_argument("algebra")
    sp.add_argument("data", help="triangular data JSON file")
    sp.add_argument("--emit-based", action="store_true")
    sp.set_defaults(fn=cmd_triangular)

    sp = sub.add_parser("tower", help="truncation-tower stabilization report")
    sp.add_argument("family", help="family name, e.g. semiinf or qsl2")
    sp.add_argument("--window", required=True, help="comma list of windows, e.g. 2,3,4")
    sp.add_argument("--labels", default="0", help="labels whose tilting multiplicities to track")
    sp.set_defaults(fn=cmd_tower)

    sp = sub.add_parser("examples", help="write a built-in example to files")
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--prefix", default=None)
    sp.set_defaults(fn=cmd_examples)
    return p


# Options that always take exactly one value, which may start with "-"
# (a negative label, as in `--eps -2=+`).
_ONE_VALUE = ("--eps", "--labels", "--window")


def _fuse_values(argv):
    """Join each one-value option to the token after it (`--eps X` becomes
    `--eps=X`), so argparse does not read a negative label as an option."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _ONE_VALUE else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(_fuse_values(sys.argv[1:] if argv is None else argv))
    args._t0 = time.perf_counter()
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: an I/O failure, not a failed check; point
        # stdout at devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (InputError, AlgebraError, FieldError, OSError, json.JSONDecodeError) as e:
        print(json.dumps({"error": str(e), "ok": False}, indent=2), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
