"""Command-line front end.

Subcommands: ``list``, ``gen``, ``verify``, ``normal-order``,
``matrix-element``. Custom pairs are given in a small expression grammar
over the variable x: rational literals p/q, ``+ - * / ^int``, parentheses,
and the functions exp, log, sqrt, sin, cos, tan, arctan, inv
(compositional inverse). No floating-point literals: coefficients stay
exact.

stdout carries data (JSON by default, CSV with --format csv); stderr
carries diagnostics. Exit codes: 0 success / all checks pass,
1 verification failure, 2 usage error (bad flags, unknown family,
malformed expression), 3 domain or guard error.

Each subcommand takes the flags of the run settings it reads, and reads
their SHEFFER_* environment variables when the flag is absent (a flag
beats its variable): ``list`` reads ORDER and FORMAT, ``gen`` FORMAT,
``normal-order`` LAMBDA_ORDER, A_ORDER and FORMAT, ``matrix-element``
FORMAT, and ORDER, CUTOFF and TOL with --fock-check, and ``verify`` all
eight (those and DRAWS, SEED). A variable a subcommand does not read is
ignored. Only the catalog dump, the Fock check and the coherent suite
truncate at the order; every other path builds at the order it needs.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import os
import sys
import time

from . import suites
from .catalog import FAMILY_LABELS, _record, family
from .errors import DomainError, ParseError, ShefferError, UnknownFamily, check_guard
from .fock import MIN_CUTOFF, CoherentParams, exp_element_coherent_closed, fock_verify, overlap
from .normord import normal_order_lhs
from .sequences import ShefferPair, sequence_via_egf, sheffer_coeffs
from .series import (
    TruncatedSeries,
    arctan_series,
    cos_series,
    exp_series,
    log_series,
    sin_series,
    sqrt_series,
    tan_series,
)


# ---------------------------------------------------------------------------
# series-spec expression grammar
# ---------------------------------------------------------------------------

_FUNCTION_EVAL = {
    "exp": exp_series,
    "log": log_series,
    "sqrt": sqrt_series,
    "sin": sin_series,
    "cos": cos_series,
    "tan": tan_series,
    "arctan": arctan_series,
    "inv": lambda s: s.comp_inverse(),
}


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # isdecimal, not isdigit: int() refuses digits such as "²"
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j < len(text) and text[j] == ".":
                raise ParseError(j, "floating-point literals are not accepted")
            tokens.append(("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(i, f"unexpected character {ch!r}")
    tokens.append(("END", "", len(text)))
    return tokens


def _integer(token) -> int:
    try:
        return int(token[1])
    except ValueError:  # longer than the interpreter's int-string limit
        raise ParseError(token[2],
                         f"integer literal of {len(token[1])} digits is too long") from None


# The parser recurses once per parenthesis or call, so this bounds its depth
# well inside the interpreter's recursion limit. Operator chains, sign runs
# and ``^`` runs are read in loops and may be of any length.
_MAX_DEPTH = 100


class _Parser:
    """Recursive descent into postfix code, a list of (position, operation, argument).

    Each operation pops its operands and pushes its result: "num" (argument:
    the integer), "x", "neg", "+", "-", "*", "^" (argument: the exponent,
    at least 0), "call" (argument: the function name) and "1/" (argument:
    the division or negative power that takes the reciprocal).
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0
        self.code = []

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str):
        token = self.advance()
        if token[0] != kind:
            # a number is expected only as an exponent
            wanted = "an integer exponent" if kind == "NUM" else repr(kind)
            found = "end of input" if token[0] == "END" else repr(token[1])
            raise ParseError(token[2], f"expected {wanted}, found {found}")
        return token

    def parse(self) -> list:
        self.expr()
        token = self.peek()
        if token[0] != "END":
            raise ParseError(token[2], f"unexpected trailing input {token[1]!r}")
        return self.code

    def nested(self, pos: int):
        if self.nesting >= _MAX_DEPTH:
            raise ParseError(pos, f"expression nested more than {_MAX_DEPTH} levels deep")
        self.nesting += 1
        self.expr()
        self.nesting -= 1

    def expr(self):
        self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            self.term()
            self.code.append((pos, op, None))

    def term(self):
        self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            self.unary()
            if op == "/":  # a / b runs as a * (1/b)
                self.code.append((pos, "1/", "division"))
            self.code.append((pos, "*", None))

    def unary(self):
        # a run of signs is read in a loop, not by recursion
        signs = []
        while self.peek()[0] in ("+", "-"):
            signs.append(self.advance())
        self.power()
        self.code.extend((pos, "neg", None) for kind, _, pos in reversed(signs) if kind == "-")

    def power(self):
        self.atom()
        while self.peek()[0] == "^":
            _, _, pos = self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            exponent = sign * _integer(self.expect("NUM"))
            if exponent < 0:  # b^-n runs as (1/b)^n
                self.code.append((pos, "1/", "negative power"))
            self.code.append((pos, "^", abs(exponent)))

    def atom(self):
        token = self.advance()
        kind, text, pos = token
        if kind == "NUM":
            self.code.append((pos, "num", _integer(token)))
        elif kind == "IDENT" and text == "x":
            self.code.append((pos, "x", None))
        elif kind == "IDENT" and text in _FUNCTION_EVAL:
            self.expect("(")
            self.nested(pos)
            self.expect(")")
            self.code.append((pos, "call", text))
        elif kind == "IDENT":
            raise ParseError(pos, f"unknown identifier {text!r}")
        elif kind == "(":
            self.nested(pos)
            self.expect(")")
        elif kind == "END":
            raise ParseError(pos, "unexpected end of input")
        else:
            raise ParseError(pos, f"unexpected token {text!r}")


def parse_series(text: str, order: int) -> TruncatedSeries:
    """Evaluate a series-spec expression to a truncated series.

    The whole text is parsed before anything is evaluated, so malformed
    text raises ParseError even where an earlier part would fail to
    evaluate. Precondition violations of the series engine surface as
    DomainError at the position of the operation they refuse.
    """
    stack = []
    for pos, op, arg in _Parser(text).parse():
        if op == "num":
            stack.append(TruncatedSeries.constant(arg, order))
        elif op == "x":
            stack.append(TruncatedSeries.x(order))
        elif op == "neg":
            stack.append(-stack.pop())
        elif op in ("call", "1/"):
            function = _FUNCTION_EVAL[arg] if op == "call" else TruncatedSeries.reciprocal
            try:
                stack.append(function(stack.pop()))
            except ShefferError as exc:
                raise DomainError(pos, f"{arg}: {exc}") from exc
        elif op == "^":
            base, out = stack.pop(), TruncatedSeries.one(order)
            while arg:
                if arg & 1:
                    out = out * base
                arg >>= 1
                if arg:
                    base = base * base
            stack.append(out)
        else:
            right, left = stack.pop(), stack.pop()
            if op == "+":
                stack.append(left + right)
            elif op == "-":
                stack.append(left - right)
            else:
                stack.append(left * right)
    (result,) = stack
    return result


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


_MAX_CUTOFF = 1024  # FockSpace holds dense cutoff x cutoff complex matrices: 16 MB at 1024
# Largest series order, lambda order, a order and gen degree. Bit heights grow
# with the order: ``list --order 512`` takes 1.7 s, ``gen --family hahn --n 512``
# 21 s (two-core Xeon); 10^8 would allocate a 10^8-entry list before any arithmetic
_MAX_ORDER = 512
# Largest coherent-state draw count. Every row is held until the end:
# ``verify coherent --draws 1000`` takes 5 s and peaks at 101 MB over the seven
# families (two-core Xeon), so 10^8 draws would run for days and run out of memory
_MAX_DRAWS = 1000


class RunConfig:
    """The settings of a run, validated; the defaults are the CLI's."""

    __slots__ = ("order", "lam_order", "a_order", "cutoff", "tol", "fmt", "draws", "seed")

    def __init__(self, order: int = 16, lam_order: int = 6, a_order: int = 8, cutoff: int = 64,
                 tol: float = 1e-8, fmt: str = "json", draws: int = 10, seed: int = 7):
        self.order, self.lam_order, self.a_order, self.cutoff = order, lam_order, a_order, cutoff
        self.tol, self.fmt, self.draws, self.seed = tol, fmt, draws, seed
        for name, top in (("order", _MAX_ORDER), ("lam_order", _MAX_ORDER), ("a_order", _MAX_ORDER),
                          ("cutoff", _MAX_CUTOFF), ("draws", _MAX_DRAWS)):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive")
            if value > top:
                raise ValueError(f"{name} must be at most {top}, got {value}")
        if self.cutoff < MIN_CUTOFF:
            raise ValueError(f"cutoff must be at least {MIN_CUTOFF}, got {self.cutoff}")
        if not 0 < self.tol < 1:
            raise ValueError("tolerance must be in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.fmt not in ("json", "csv"):
            raise ValueError("format must be json or csv")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable, so unhashable

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"


# One row per RunConfig field: its flag, its environment variable, the type of
# both, and the flag's help. RunConfig validates a value from either source.
_SETTINGS = {
    "order": ("--order", "SHEFFER_ORDER", int, "series truncation order (default 16)"),
    "lam_order": ("--lambda-order", "SHEFFER_LAMBDA_ORDER", int,
                  "lambda order of exp(lambda*M) (default 6)"),
    "a_order": ("--a-order", "SHEFFER_A_ORDER", int, "order in a and adag (default 8)"),
    "cutoff": ("--cutoff", "SHEFFER_CUTOFF", int, "Fock cutoff, 32 to 1024 (default 64)"),
    "tol": ("--tol", "SHEFFER_TOL", float, "numeric tolerance in (0, 1) (default 1e-8)"),
    "fmt": ("--format", "SHEFFER_FORMAT", str, "json or csv (default json)"),
    "draws": ("--draws", "SHEFFER_DRAWS", int, "coherent-state draws per family (default 10)"),
    "seed": ("--seed", "SHEFFER_SEED", int, "seed of the coherent-state draws (default 7)"),
}


def config_from(args, unread=()) -> RunConfig:
    """RunConfig from the settings the subcommand declares: flag, else variable.

    The variables of the settings named in ``unread`` are not read: this run
    has no use for them.
    """
    values = {}
    for name, (_, env_name, cast, _) in _SETTINGS.items():
        if name not in vars(args):
            continue  # a setting the subcommand does not read
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
        elif env_name in os.environ and name not in unread:
            text = os.environ[env_name]
            try:
                values[name] = cast(text)
            except ValueError:
                raise ValueError(
                    f"{env_name}={text!r} is not a valid {cast.__name__}"
                ) from None
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


_encode_str = json.encoder.encode_basestring_ascii
# ``json`` spells the floats that are not finite as JavaScript does
_NOT_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _key_text(key) -> str:
    """A dict key as ``json`` writes it, before its string escape."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return _json_text(key, 0)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_text(value, level: int) -> str:
    """``value`` as ``json.dumps(value, indent=2, default=str)`` writes it ``level`` containers deep.

    The rules are ``json``'s: its ASCII string escape, ``float.__repr__`` with
    NaN and Infinity spelled as JavaScript does, int, float, bool and None keys
    as strings, tuples as lists and ``str`` of anything else. The most common
    types in a payload are tested first; bool must come before int.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NOT_FINITE.get(text, text)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = "\n" + "  " * (level + 1)
        parts = [f"{_encode_str(_key_text(key))}: {_item_text(item, level + 1)}"
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(parts) + "\n" + "  " * level + "}"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = "\n" + "  " * (level + 1)
        parts = [_json_text(item, level + 1) for item in value]
        return "[" + inner + ("," + inner).join(parts) + "\n" + "  " * level + "]"
    return _encode_str(str(value))


# The text of each dict met as a dict's value, by id, with the dict itself so
# that its id stays its own: the thirteen rows of a coherent draw share one
# params dict. ``_emit`` empties it when it returns; rows themselves are not
# kept, so the text of a payload is never held whole.
_shared_texts: dict = {}


def _item_text(item, level: int) -> str:
    """``_json_text(item, level)`` for a dict's value, a dict's text written once."""
    if type(item) is not dict:
        return _json_text(item, level)
    kept = _shared_texts.get(id(item))
    if kept is None or kept[1] != level:
        kept = _shared_texts[id(item)] = (item, level, _json_text(item, level))
    return kept[2]


def _json_pieces(value, level: int = 0, prefix: str = ""):
    """The text of ``value`` after ``prefix``, as ``_json_text`` writes it, in pieces.

    The top-level container and each list directly inside it come one
    element per piece, the element's separator and key leading it; anything
    deeper is in its element's piece.
    """
    streamed = (list, tuple) if level else (list, tuple, dict)
    if level > 1 or not isinstance(value, streamed) or not value:
        yield prefix + _json_text(value, level)
        return
    inner = "\n" + "  " * (level + 1)
    if isinstance(value, dict):
        items = ((f"{_encode_str(_key_text(key))}: ", item) for key, item in value.items())
        opening, close = "{", "}"
    else:
        items = (("", item) for item in value)
        opening, close = "[", "]"
    separator = prefix + opening + inner
    for head, item in items:
        yield from _json_pieces(item, level + 1, separator + head)
        separator = "," + inner
    yield "\n" + "  " * level + close


def _emit(payload, fmt: str, columns=None, out=None):
    """Write ``payload`` to ``out`` (default stdout): JSON, or CSV under ``columns``.

    The JSON text is ``json.dumps(payload, indent=2, default=str)`` and a
    newline, written one row per ``write``: the payload and each list
    directly inside it go out an element at a time (``_json_pieces``).
    ``json.dump`` with an indent makes one ``write`` per token, in pure
    Python, and a writer that builds the whole text first holds all of it at
    once (a ``verify`` payload is about 0.7 MB), which raised the peak
    resident set; a row at a time keeps both the calls and the memory small.
    A dict that several rows share is encoded once (``_item_text``).
    """
    out = out or sys.stdout
    if fmt == "json":
        try:
            for piece in _json_pieces(payload):
                out.write(piece)
        finally:
            _shared_texts.clear()
        out.write("\n")
        return
    rows = payload if isinstance(payload, list) else [payload]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if columns is None:
        columns = sorted({key for row in rows for key in row})
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            [
                json.dumps(row.get(col), default=str)
                if isinstance(row.get(col), (dict, list))
                else row.get(col, "")
                for col in columns
            ]
        )
    out.write(buffer.getvalue())


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        value = complex(float(parts[0]), 0.0)
    elif len(parts) == 2:
        value = complex(float(parts[0]), float(parts[1]))
    else:
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")
    # the guards compare |value| against a radius, which NaN never exceeds
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected finite RE and IM, got {text!r}")
    return value


def _resolve_pair(args, order: int):
    if getattr(args, "family", None):
        return family(args.family, order).pair
    if getattr(args, "f", None) is None or getattr(args, "g", None) is None:
        raise UnknownFamily("either --family or both --f and --g are required")
    f_series = parse_series(args.f, order)
    g_series = parse_series(args.g, order)
    pair = ShefferPair(f_series, g_series, label="custom")
    if pair.rescaled:
        print("warning: g rescaled so that g(0) = 1", file=sys.stderr)
    return pair


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_list(args) -> int:
    cfg = config_from(args)
    entries = []
    for label in FAMILY_LABELS:
        entry = family(label, cfg.order)
        entries.append(
            {
                "label": label,
                "f_coeffs": [str(c) for c in entry.pair.f.coeffs],
                "g_coeffs": [str(c) for c in entry.pair.g.coeffs],
                "guard_radius": entry.guard_radius,
                "z_guard": entry.z_guard,
                "lam_guard": entry.lam_guard,
                "notes": list(entry.notes),
            }
        )
    _emit(entries, cfg.fmt,
          columns=["label", "f_coeffs", "g_coeffs", "guard_radius", "z_guard",
                   "lam_guard", "notes"])
    return 0


def _cmd_gen(args) -> int:
    cfg = config_from(args)
    if not 0 <= args.n <= _MAX_ORDER:
        raise ValueError(f"--n must be in 0..{_MAX_ORDER}, got {args.n}")
    pair = _resolve_pair(args, max(args.n, 1))
    label = args.family or "custom"
    seq = sequence_via_egf(pair, args.n)
    rows = []
    for n in range(args.n + 1):
        row = {"family": label, "n": n, "poly": str(seq.poly(n))}
        if args.coeffs:
            row["coeffs"] = [str(c) for c in sheffer_coeffs(seq, n)]
        rows.append(row)
    _emit(rows, cfg.fmt, columns=["family", "n", "poly", "coeffs"])
    return 0


def _no_rows(*_):
    return []


# Each suite, in CLI order: (rows over all families, rows for one family).
# The all-family rows come first. The functions are looked up on ``suites``
# when the suite runs, so a rebound module attribute (a tracer's) is called.
_SUITES = {
    "monomiality": (_no_rows, lambda label, cfg: suites.monomiality_rows(label)
                    + suites.oracle_rows(label)),
    "commutator": (lambda cfg: suites.swap_oracle_rows(),
                   lambda label, cfg: suites.commutator_family_rows(label)),
    "normal-order": (_no_rows, lambda label, cfg: suites.normal_order_rows(
        label, cfg.lam_order, cfg.a_order)),
    "coherent": (_no_rows, lambda label, cfg: suites.coherent_rows(
        label, cfg.order, cfg.cutoff, cfg.tol, cfg.draws, cfg.seed)),
    "heat": (_no_rows, lambda label, cfg: suites.heat_rows(label)),
    "hkdf": (lambda cfg: suites.hkdf_global_rows(),
             lambda label, cfg: suites.theta_pi_rows(label)),
    "evolution": (lambda cfg: suites.evolution_rows(), _no_rows),
}
_SUITE_NAMES = tuple(_SUITES)


def _cmd_verify(args) -> int:
    cfg = config_from(args)
    labels = [args.family] if args.family else list(FAMILY_LABELS)
    suite_names = [args.suite] if args.suite else list(_SUITE_NAMES)
    all_rows = []
    seconds = []
    for name in suite_names:
        start = time.perf_counter()
        all_families, one_family = _SUITES[name]
        batches = [all_families(cfg), *(one_family(label, cfg) for label in labels)]
        all_rows.extend({"suite": name, **row} for rows in batches for row in rows)
        seconds.append(f"{name} {time.perf_counter() - start:.2f} s")
    ok = suites.rows_pass(all_rows)
    summary = {
        "suites": suite_names,
        "families": labels,
        "rows": all_rows,
        "checked": len(all_rows),
        "failed": sum(1 for row in all_rows if not row.get("pass", True)),
        "pass": ok,
    }
    if cfg.fmt == "csv":
        _emit(all_rows, "csv", columns=["suite", "family", "identity", "n", "pass"])
    else:
        _emit(summary, "json")
    print(f"verify: {summary['checked']} checks, {summary['failed']} failed "
          f"({', '.join(seconds)})", file=sys.stderr)
    return 0 if ok else 1


def _cmd_normal_order(args) -> int:
    cfg = config_from(args)
    pair = _resolve_pair(args, cfg.lam_order + cfg.a_order)
    series = normal_order_lhs(pair, cfg.lam_order, cfg.a_order)
    _emit(series.to_json_list(), cfg.fmt, columns=["adag", "a", "lambda_poly"])
    return 0


def _cmd_matrix_element(args) -> int:
    # only the Fock check reads the order, the cutoff and the tolerance; the
    # closed value reads the family record's maps and guards alone
    cfg = config_from(args, unread=() if args.fock_check else ("order", "cutoff", "tol"))
    entry = family(args.family, cfg.order) if args.fock_check else _record(args.family)
    z, zp, lam = args.z, args.zp, args.lam
    check_guard("|z'|", entry.z_guard, zp)
    check_guard("|lambda|", entry.lam_guard, lam)
    value = exp_element_coherent_closed(entry.maps, z, zp, lam)
    payload = {
        "family": args.family,
        "z": [z.real, z.imag],
        "zp": [zp.real, zp.imag],
        "lambda": [lam.real, lam.imag],
        "overlap": [overlap(z, zp).real, overlap(z, zp).imag],
        "exp_element": [value.real, value.imag],
    }
    if args.fock_check:
        [rows] = fock_verify(
            entry.pair,
            [CoherentParams(z, zp, lam)],
            cutoff=cfg.cutoff,
            tol=cfg.tol,
            maps=entry.maps,
            z_guard=entry.z_guard,
            lam_guard=entry.lam_guard,
        )
        coherent_row = next(r for r in rows if r["identity"] == "exp_coherent")
        payload["fock"] = coherent_row
    _emit(payload, cfg.fmt)
    if args.fock_check and not payload["fock"]["pass"]:
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_settings(parser: argparse.ArgumentParser, *names: str):
    for name in names:
        flag, _, cast, text = _SETTINGS[name]
        parser.add_argument(flag, dest=name, type=cast, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheffer",
        description="Sheffer-type polynomial families, ladder operators, "
        "and boson normal ordering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="dump the family catalog")
    _add_settings(p_list, "order", "fmt")
    p_list.set_defaults(handler=_cmd_list)

    p_gen = sub.add_parser("gen", help="generate polynomials")
    p_gen.add_argument("--family", choices=FAMILY_LABELS)
    p_gen.add_argument("--f", help="series spec for f (custom pair)")
    p_gen.add_argument("--g", help="series spec for g (custom pair)")
    p_gen.add_argument("--n", type=int, required=True, help="highest degree")
    p_gen.add_argument("--coeffs", action="store_true",
                       help="include exact coefficient rows")
    _add_settings(p_gen, "fmt")
    p_gen.set_defaults(handler=_cmd_gen)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", nargs="?", choices=_SUITE_NAMES,
                          help="suite to run (default: all)")
    scope = p_verify.add_mutually_exclusive_group()
    scope.add_argument("--family", choices=FAMILY_LABELS, help="restrict to one family")
    scope.add_argument("--all", action="store_true",
                       help="all families (default when --family absent)")
    _add_settings(p_verify, *_SETTINGS)
    p_verify.set_defaults(handler=_cmd_verify)

    p_no = sub.add_parser("normal-order",
                          help="normally ordered expansion of exp(lambda*M)")
    p_no.add_argument("--family", choices=FAMILY_LABELS)
    p_no.add_argument("--f")
    p_no.add_argument("--g")
    _add_settings(p_no, "lam_order", "a_order", "fmt")
    p_no.set_defaults(handler=_cmd_normal_order)

    p_me = sub.add_parser("matrix-element",
                          help="coherent-state matrix element of exp(lambda*M)")
    p_me.add_argument("--family", choices=FAMILY_LABELS, required=True)
    p_me.add_argument("--z", type=_parse_complex, required=True, metavar="RE,IM")
    p_me.add_argument("--zp", type=_parse_complex, required=True, metavar="RE,IM")
    p_me.add_argument("--lambda", dest="lam", type=_parse_complex, required=True,
                      metavar="RE,IM")
    p_me.add_argument("--fock-check", action="store_true")
    _add_settings(p_me, "order", "cutoff", "tol", "fmt")
    p_me.set_defaults(handler=_cmd_matrix_element)
    return parser


def _joined(parser: argparse.ArgumentParser, argv: list) -> list:
    """argv with each ``--flag value`` of a flag that takes a value as ``--flag=value``.

    argparse reads a word that starts with "-" and is not a plain number as
    a flag, so ``--zp -0.2,0.1`` or ``--f "-x"`` would lose its value.
    Words after "--" are left as they are.
    """
    (subcommands,) = parser._subparsers._group_actions
    sub = subcommands.choices.get(argv[0]) if argv else None
    if sub is None:
        return argv
    takes_value = {flag for action in sub._actions if action.nargs is None
                   for flag in action.option_strings}
    joined, words = [], iter(argv)
    for word in words:
        if word == "--":
            return [*joined, word, *words]
        value = next(words, None) if word in takes_value else None
        joined.append(word if value is None else f"{word}={value}")
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined(parser, sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.handler(args)
    except (ParseError, UnknownFamily) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShefferError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
