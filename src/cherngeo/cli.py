"""Command-line front end.

Subcommands: block, product, fibersum, search, classify, plot, catalog.
Block specifications on the command line are family names followed by
their parameter flags, e.g.::

    cherngeo fibersum elliptic --m 3 ruled-spheres
    cherngeo fibersum elliptic --m 2 knot-elliptic --k 2 --knot-genus 0

Exit codes: 0 success (including an empty search), 1 domain/validation
error, 2 usage error.  argparse reads the whole command line, each block
specification by a parser built from its family's flags, and every option
may be given once.  A malformed command line is reported as one ``usage
error:`` line on stderr; ``-h`` prints help and exits 0.  Output is
deterministic: JSON keys are sorted and lists are canonically ordered.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

# Each subcommand imports the layers it uses, and json only where it reads
# or writes JSON: a cold process then compiles no module it does not run.
from . import catalog as catalog_mod
from .invariants import (
    DERIVED_FIELDS,
    BlockValidationError,
    ChernTriple,
    LefschetzBlock,
    SurfaceInvariants,
    block_to_json,
    validate_block,
)


class UsageError(Exception):
    """A malformed command line: ``main`` prints one ``usage error:`` line and exits 2."""


class _Once(argparse.Action):
    """Store an option's value, or ``const`` for a switch; a second use is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            parser.error(f"{parser.prog} takes {self.option_strings[0]} once, got it twice")
        given.add(self.dest)
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting, in its subparsers too; its options store through _Once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Once)
        self.register("action", "store_true", partial(_Once, nargs=0, const=True, default=False))

    def error(self, message):
        raise UsageError(message)


# generic's CLI flags, in the order of generic_block's parameters
_GENERIC_FLAGS = ("chi", "c1sq", "genus", "n")


def _flag(name: str) -> str:
    """The command-line flag of a parameter name: knot_genus -> --knot-genus."""
    return "--" + name.replace("_", "-")


def _quote(token: str) -> str:
    """``repr(token)``, cut to its first 20 characters and "..." when it is longer."""
    return repr(token) if len(token) <= 20 else f"{token[:20]!r}..."


# The type= functions below raise ArgumentTypeError, which argparse reports
# through _Parser.error with the flag named: "argument --chi: ...".


def _parse_int(token: str, what: str | None = None) -> int:
    """An integer of at most ``catalog.INPUT_DIGITS`` digits; ``what`` names it in errors."""
    where = f" for {what}" if what else ""
    digits = sum(map(str.isdecimal, token))
    if digits > catalog_mod.INPUT_DIGITS:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at most {catalog_mod.INPUT_DIGITS} digits{where}, "
            f"got {_quote(token)} ({digits} digits)"
        )
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer{where}, got {_quote(token)}")


def _parse_range(text: str) -> tuple[int, int]:
    if ".." not in text:
        raise argparse.ArgumentTypeError(f"range must look like a..b, got {_quote(text)}")
    lo, hi = text.split("..", 1)
    return _parse_int(lo, "range start"), _parse_int(hi, "range end")


def _parse_target(text: str) -> ChernTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected c3,c1cubed,c1c2, got {_quote(text)}")
    return ChernTriple(*(_parse_int(p, "a Chern number") for p in parts))


def _parse_block(family: str, tokens: list[str]) -> LefschetzBlock:
    """One block from a family name or alias as typed and the flags that follow it."""
    generic = family == "generic"
    names = _GENERIC_FLAGS if generic else catalog_mod.FAMILIES[catalog_mod.family_name(family)][1]
    parser = _Parser(prog=family, add_help=False, allow_abbrev=False)
    for name in names:
        parser.add_argument(_flag(name), dest=name, type=_parse_int)
    if generic:
        parser.add_argument("--not-simply-connected", action="store_true")
    # An option's name may spell '-' as '_', as parameter names do: --knot_genus.
    options = []
    for tok in tokens:
        name, eq, value = tok.partition("=")
        options.append(name.replace("_", "-") + eq + value if tok.startswith("--") else tok)
    args, extras = parser.parse_known_args(options)
    if extras:
        tok = extras[0]
        if tok.startswith("--"):
            raise UsageError(f"{family} has no option {tok.partition('=')[0]}")
        raise UsageError(f"unexpected token {_quote(tok)} in block specification")
    values = [getattr(args, name) for name in names]
    if None in values:
        raise UsageError(f"{family} requires {' '.join(map(_flag, names))}")
    try:
        if generic:
            return catalog_mod.generic_block(*values, not args.not_simply_connected)
        return catalog_mod.family_block(catalog_mod.family_name(family), *values)
    except ValueError as exc:  # bad parameter values from the constructors
        raise UsageError(str(exc))


def parse_block_specs(tokens: list[str]) -> list[LefschetzBlock]:
    """Parse a flat token list into blocks: FAMILY [--param value | --param=value]..."""
    families = {"generic", *catalog_mod.FAMILIES, *catalog_mod.FAMILY_ALIASES}
    starts = [i for i, tok in enumerate(tokens) if tok in families]
    if tokens and tokens[0] not in families:
        tok = tokens[0]
        if tok.startswith("--"):
            raise UsageError(f"option {tok} given before any block family")
        raise UsageError(f"unexpected token {_quote(tok)} in block specification")
    ends = [*starts[1:], len(tokens)]
    return [_parse_block(tokens[i], tokens[i + 1 : j]) for i, j in zip(starts, ends)]


# -- rendering ---------------------------------------------------------------


def _block_record(block: LefschetzBlock) -> dict:
    record = block_to_json(block)
    record.update((key, getattr(block.invariants, key)) for key in DERIVED_FIELDS)
    return record


def _print_json(value) -> None:
    import json

    print(json.dumps(value, sort_keys=True))


def _print_block(block: LefschetzBlock, fmt: str) -> None:
    record = _block_record(block)
    if fmt == "json":
        _print_json(record)
    else:
        order = (
            "name", "chi_h", "c1_sq", *DERIVED_FIELDS,
            "fiber_genus", "singular_fibers", "simply_connected",
        )
        for key in order:
            print(f"{key:<17} {record[key]}")


def _print_triple(triple: ChernTriple, fmt: str) -> None:
    if fmt == "json":
        _print_json(triple._asdict())
    else:
        print(f"c3    = {triple.c3}")
        print(f"c1^3  = {triple.c1_cubed}")
        print(f"c1c2  = {triple.c1c2}")


# -- subcommands -------------------------------------------------------------


def _cmd_block(args: argparse.Namespace) -> int:
    block = args.blocks[0]
    violations = validate_block(block)
    _print_block(block, args.format)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return 1
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    from .algebra import chern_numbers_of_product

    surface = SurfaceInvariants(args.surface_genus)
    triple = chern_numbers_of_product(args.blocks[0].invariants, surface)
    _print_triple(triple, args.format)
    return 0


def _cmd_fibersum(args: argparse.Namespace) -> int:
    from .fibersum import halic_construction, halic_construction_via_oracle

    block1, block2 = args.blocks
    triple = halic_construction(block1, block2)
    if args.explain:
        _explain_fibersum(block1, block2)
    if args.oracle:
        # halic_construction has validated both blocks.
        symbolic = halic_construction_via_oracle(block1, block2, check=False)
        if symbolic != triple:
            print(
                f"oracle mismatch: closed form {triple._asdict()} vs symbolic {symbolic._asdict()}",
                file=sys.stderr,
            )
            return 1
        print("oracle: agreed", file=sys.stderr)
    _print_triple(triple, args.format)
    return 0


def _explain_fibersum(block1: LefschetzBlock, block2: LefschetzBlock) -> None:
    """The fiber sum's triple, derived on stderr from the three parts the oracle sums."""
    from .fibersum import CORRECTIONS, cross_section_of_surfaces, fiber_sum_parts

    g1, g2 = block1.fiber_genus, block2.fiber_genus
    parts = product1, product2, corrections = fiber_sum_parts(block1, block2)
    c1_sq, c2 = cross_section_of_surfaces(g1, g2)
    # Each correction as the table's nonzero terms, e.g. (-2, -2) as "-2*c1^2 - 2*c2".
    terms = (
        " + ".join(f"{k}*{n}" for k, n in zip(ks, ("c1^2", "c2")) if k).replace("+ -", "- ")
        for ks in CORRECTIONS
    )
    lines = (
        f"X1 x S2 = {block1.name} x (genus {g2} surface): {_triple_text(product1)}",
        f"X2 x S1 = {block2.name} x (genus {g1} surface): {_triple_text(product2)}",
        f"S1 x S2 = (genus {g1} surface) x (genus {g2} surface): "
        f"c1^2={c1_sq} c2={c2}",
        "corrections along S1 x S2 (Gompf's symplectic sum, Annals 142, 1995; trivial "
        "normal bundle): "
        + ", ".join(map("{} += {} = {}".format, ("c3", "c1^3", "c1c2"), terms, corrections)),
        "result = X1 x S2 + X2 x S1 + corrections: "
        + _triple_text(ChernTriple(*map(sum, zip(*parts)))),
    )
    for line in lines:
        print(f"explain: {line}", file=sys.stderr)


def _triple_text(triple: ChernTriple) -> str:
    return f"c3={triple.c3} c1^3={triple.c1_cubed} c1c2={triple.c1c2}"


# The generic grid's --config fields and the search flags that set them.
_GRID_FLAGS = {"chi_h": "generic_chi", "c1_sq": "generic_c1sq", "genus": "generic_genus"}
# search flags that set a bound; a --config file sets all bounds instead.
_BOUND_FLAGS = ("families", *catalog_mod.SEARCH_LIMITS, *_GRID_FLAGS.values())


def _cmd_search(args: argparse.Namespace) -> int:
    from .catalog import SearchBounds
    from .geography import construction_obstruction, search_realizations

    given = {flag: getattr(args, flag) for flag in _BOUND_FLAGS if getattr(args, flag) is not None}
    if args.config:
        if given:
            flags = ", ".join(map(_flag, given))
            raise UsageError(f"--config cannot be combined with {flags}")
        data = catalog_mod.read_json_file(args.config)
    else:
        # The --config object the flags state; bounds not given keep their defaults.
        data = {flag: value for flag, value in given.items() if flag in catalog_mod.SEARCH_LIMITS}
        if "families" in given:
            data["families"] = given["families"].split(",") if given["families"] else []
        grid = {field: given.get(flag) for field, flag in _GRID_FLAGS.items()}
        if any(grid.values()):
            if None in grid.values():
                raise UsageError(
                    "generic grid needs all of --generic-chi, --generic-c1sq, --generic-genus"
                )
            data["generic"] = {field: list(pair) for field, pair in grid.items()}
    bounds = SearchBounds.from_json(data)

    target = args.target
    for message in construction_obstruction(target):
        print(f"obstruction: {message}", file=sys.stderr)
    results = search_realizations(target, bounds)
    if args.format == "json":
        payload = [
            {
                "block1": _block_record(r.block1),
                "block2": _block_record(r.block2),
                "triple": r.triple._asdict(),
            }
            for r in results
        ]
        _print_json(payload)
    else:
        for r in results:
            t = r.triple
            print(
                f"{r.block1.name} + {r.block2.name} -> "
                f"c3={t.c3}, c1^3={t.c1_cubed}, c1c2={t.c1c2}"
            )
        if not results:
            print("no realizations found", file=sys.stderr)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .geography import classify_geography_point

    cls = classify_geography_point(args.chi, args.c1sq)
    if args.format == "json":
        _print_json(cls._asdict())
    else:
        print(f"point             ({cls.chi_h}, {cls.c1_sq})")
        print(f"regions           {', '.join(cls.labels) if cls.labels else '(none)'}")
        if cls.basic_class_count is not None:
            print(f"basic classes     {cls.basic_class_count}")
        print(f"elliptic axis     {'yes' if cls.on_elliptic_axis else 'no'}")
        sign = {1: "sigma > 0", 0: "sigma = 0", -1: "sigma < 0"}[cls.signature_sign]
        print(f"signature         {sign}")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    for flag, (lo, hi) in (("--chi", args.chi), ("--c1sq", args.c1sq)):
        if lo > hi:
            raise ValueError(f"plot range {flag} is empty: {lo} > {hi}")
        if lo == hi and args.format == "svg":
            # The chart scales each axis by hi - lo; a CSV grid takes one value.
            raise ValueError(f"plot range {flag} is one value, too narrow for svg: {lo} = {hi}")
    from . import plot as plot_mod

    render = plot_mod.grid_csv if args.format == "csv" else plot_mod.geography_svg
    content = render(args.chi, args.c1sq)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.catalog:
        blocks = catalog_mod.load_catalog(args.catalog)
    else:
        blocks = catalog_mod.default_catalog()
    if args.format == "json":
        _print_json([_block_record(b) for b in blocks])
    else:
        for block in blocks:
            inv = block.invariants
            print(
                f"{block.name:<16} chi_h={inv.chi_h} c1_sq={inv.c1_sq} sigma={inv.sigma} "
                f"e={inv.euler} g={block.fiber_genus} n={block.singular_fibers}"
            )
    return 0


# Subcommands whose leftover arguments are block specifications:
# name -> (help, run, number of blocks).
_BLOCK_COMMANDS = {
    "block": ("show a building block and its derived invariants", _cmd_block, 1),
    "product": ("Chern numbers of a block times a surface", _cmd_product, 1),
    "fibersum": ("Chern numbers of the fiber-summed 6-manifold", _cmd_fibersum, 2),
}
_BLOCK_COUNT_TEXT = {1: "one block specification", 2: "two block specifications"}


def _block_specs_help(count: int) -> str:
    """The --help epilog of a block command: every family and generic, with their flags.

    It is read from the family registry, its aliases and generic's flags,
    so a new family or alias shows here without an edit.
    """

    def spec(name: str, params: tuple[str, ...]) -> str:
        return " ".join([name, *(f"{_flag(p)} {p.upper()}" for p in params)])

    lines = [f"takes {_BLOCK_COUNT_TEXT[count]}; a block specification is a family and its flags:"]
    for name, (_, params, _) in catalog_mod.FAMILIES.items():
        aliases = [a for a, target in catalog_mod.FAMILY_ALIASES.items() if target == name]
        lines.append(spec(name, params) + "".join(f"  (alias: {a})" for a in aliases))
    lines.append(spec("generic", _GENERIC_FLAGS) + " [--not-simply-connected]")
    return "\n  ".join(lines)


# --format values of every subcommand but plot; the first is the default.
_TEXT_FORMATS = ("human", "json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cherngeo",
        description="Chern-number geography of fiber-summed symplectic 6-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, formats=_TEXT_FORMATS, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=formats, default=formats[0])
        return p

    # Block specifications are left over by parse_known_args; allow_abbrev=False
    # keeps a block flag from being read as an abbreviation of these options.
    for name, (helptext, run, count) in _BLOCK_COMMANDS.items():
        command(
            name, run, help=helptext, allow_abbrev=False, epilog=_block_specs_help(count),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
    sub.choices["product"].add_argument(
        "--surface-genus", type=_parse_int, required=True, help="genus of the surface factor"
    )
    sub.choices["fibersum"].add_argument(
        "--oracle", action="store_true",
        help="also compute the triple by the symbolic oracle and check that both agree",
    )
    sub.choices["fibersum"].add_argument(
        "--explain", action="store_true", help="print the triple's derivation on stderr"
    )

    p = command("search", _cmd_search, help="find block pairs realizing a target triple")
    p.add_argument(
        "--target", required=True, type=_parse_target, help="target triple c3,c1cubed,c1c2"
    )
    p.add_argument("--families", help="comma-separated family names (default: all)")
    for limit in catalog_mod.SEARCH_LIMITS:
        p.add_argument(_flag(limit), type=_parse_int)
    p.add_argument("--generic-chi", type=_parse_range, help="generic grid chi_h range a..b")
    p.add_argument("--generic-c1sq", type=_parse_range, help="generic grid c1^2 range a..b")
    p.add_argument("--generic-genus", type=_parse_range, help="generic grid fiber-genus range a..b")
    p.add_argument("--config", help="JSON file with search bounds")

    p = command("classify", _cmd_classify, help="classify a point of the (chi_h, c1^2) plane")
    p.add_argument("--chi", type=_parse_int, required=True)
    p.add_argument("--c1sq", type=_parse_int, required=True)

    p = command("plot", _cmd_plot, ("csv", "svg"), help="emit a CSV grid or SVG chart of the plane")
    p.add_argument("--chi", required=True, type=_parse_range, help="chi_h range a..b")
    p.add_argument("--c1sq", required=True, type=_parse_range, help="c1^2 range a..b")
    p.add_argument("--output", default=None)

    p = command("catalog", _cmd_catalog, help="list the built-in or a user catalog")
    p.add_argument("--catalog", default=None)
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join each option and a following value that starts with '-' and a digit.

    argparse would read a value such as ``-3..5`` as an option; no option of
    this CLI starts with '-' and a digit, so such a token is always a value.
    """
    merged: list[str] = []
    for tok in argv:
        prev = merged[-1] if merged else ""
        if tok[:1] == "-" and tok[1:2].isdecimal() and prev[:2] == "--" and "=" not in prev:
            merged[-1] = f"{prev}={tok}"
        else:
            merged.append(tok)
    return merged


# The characters str.splitlines() breaks a line at.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _report(kind: str, exc: Exception) -> None:
    """Print ``kind: message`` on stderr as one line.

    A line break in the message, such as one in a command-line token or a
    file name it quotes, is written escaped, as repr() writes it.
    """
    message = "".join(repr(c)[1:-1] if c in _LINE_BREAKS else c for c in str(exc))
    print(f"{kind}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args, specs = build_parser().parse_known_args(_merge_negative_values(list(argv)))
        if args.command in _BLOCK_COMMANDS:
            args.blocks = parse_block_specs(specs)
            count = _BLOCK_COMMANDS[args.command][2]
            if len(args.blocks) != count:
                raise UsageError(f"{args.command} expects exactly {_BLOCK_COUNT_TEXT[count]}")
        elif specs:
            raise UsageError(f"unrecognized arguments: {' '.join(specs)}")
        return args.run(args)
    except UsageError as exc:
        _report("usage error", exc)
        return 2
    except BlockValidationError as exc:
        _report("validation error", exc)
        return 1
    except (OSError, ValueError) as exc:
        _report("error", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
