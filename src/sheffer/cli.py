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

Defaults come from SHEFFER_* environment variables when set: ORDER,
LAMBDA_ORDER, A_ORDER, CUTOFF, TOL, FORMAT, DRAWS, SEED.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

from . import suites
from .catalog import FAMILY_LABELS, family
from .errors import DomainError, ParseError, ShefferError, UnknownFamily
from .normord import (
    CoherentParams,
    exp_element_coherent_closed,
    fock_verify,
    normal_order_lhs,
    overlap,
)
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

_FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "tan", "arctan", "inv")


@dataclass(frozen=True)
class Num:
    value: int
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: object
    pos: int = field(default=0, compare=False)


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str):
        token = self.advance()
        if token[0] != kind:
            raise ParseError(token[2], f"expected {kind!r}, found {token[1]!r}")
        return token

    def parse(self):
        node = self.expr()
        token = self.peek()
        if token[0] != "END":
            raise ParseError(token[2], f"unexpected trailing input {token[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            node = BinOp(op, node, self.term(), pos)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            node = BinOp(op, node, self.unary(), pos)
        return node

    def unary(self):
        token = self.peek()
        if token[0] == "-":
            self.advance()
            return Neg(self.unary(), token[2])
        if token[0] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek()[0] == "^":
            _, _, pos = self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            num = self.expect("NUM")
            node = Pow(node, sign * int(num[1]), pos)
        return node

    def atom(self):
        token = self.advance()
        kind, text, pos = token
        if kind == "NUM":
            return Num(int(text), pos)
        if kind == "IDENT":
            if text == "x":
                return Var(pos)
            if text in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(text, arg, pos)
            raise ParseError(pos, f"unknown identifier {text!r}")
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(pos, f"unexpected token {text!r}")


def parse_spec(text: str):
    """Parse a series-spec expression into its AST."""
    return _Parser(text).parse()


def pretty(node) -> str:
    """Fully parenthesized text form; parse(pretty(t)) == t."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        return f"(-{pretty(node.operand)})"
    if isinstance(node, BinOp):
        return f"({pretty(node.left)} {node.op} {pretty(node.right)})"
    if isinstance(node, Pow):
        return f"({pretty(node.base)}^{node.exponent})"
    if isinstance(node, Call):
        return f"{node.func}({pretty(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


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


def _eval_node(node, order: int) -> TruncatedSeries:
    if isinstance(node, Num):
        return TruncatedSeries.constant(node.value, order)
    if isinstance(node, Var):
        return TruncatedSeries.x(order)
    if isinstance(node, Neg):
        return -_eval_node(node.operand, order)
    if isinstance(node, BinOp):
        left = _eval_node(node.left, order)
        right = _eval_node(node.right, order)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        try:
            return left * right.reciprocal()
        except ShefferError as exc:
            raise DomainError(node.pos, f"division: {exc}") from exc
    if isinstance(node, Pow):
        base = _eval_node(node.base, order)
        exponent = node.exponent
        if exponent < 0:
            try:
                base = base.reciprocal()
            except ShefferError as exc:
                raise DomainError(node.pos, f"negative power: {exc}") from exc
            exponent = -exponent
        out = TruncatedSeries.one(order)
        power = base
        while exponent:
            if exponent & 1:
                out = out * power
            exponent >>= 1
            if exponent:
                power = power * power
        return out
    if isinstance(node, Call):
        arg = _eval_node(node.arg, order)
        try:
            return _FUNCTION_EVAL[node.func](arg)
        except ShefferError as exc:
            raise DomainError(node.pos, f"{node.func}: {exc}") from exc
    raise TypeError(f"not an AST node: {node!r}")


def parse_series(text: str, order: int) -> TruncatedSeries:
    """Evaluate a series-spec expression to a truncated series.

    Precondition violations of the series engine surface as positioned
    DomainError diagnostics; malformed text raises ParseError.
    """
    return _eval_node(parse_spec(text), order)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    order: int = 16
    lam_order: int = 6
    a_order: int = 8
    cutoff: int = 64
    tol: float = 1e-8
    fmt: str = "json"
    draws: int = 10
    seed: int = 7

    def __post_init__(self):
        for name in ("order", "lam_order", "a_order", "cutoff", "draws"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.tol < 1:
            raise ValueError("tolerance must be in (0, 1)")
        if self.fmt not in ("json", "csv"):
            raise ValueError("format must be json or csv")


_ENV_MAP = {
    "order": ("SHEFFER_ORDER", int),
    "lam_order": ("SHEFFER_LAMBDA_ORDER", int),
    "a_order": ("SHEFFER_A_ORDER", int),
    "cutoff": ("SHEFFER_CUTOFF", int),
    "tol": ("SHEFFER_TOL", float),
    "fmt": ("SHEFFER_FORMAT", str),
    "draws": ("SHEFFER_DRAWS", int),
    "seed": ("SHEFFER_SEED", int),
}


def config_from(args) -> RunConfig:
    values = {}
    for name, (env_name, cast) in _ENV_MAP.items():
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
        elif env_name in os.environ:
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


def _emit(payload, fmt: str, columns=None, out=None):
    out = out or sys.stdout
    if fmt == "json":
        json.dump(payload, out, indent=2, default=str)
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
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")


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
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    pair = _resolve_pair(args, max(cfg.order, args.n))
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


_SUITE_NAMES = (
    "monomiality",
    "commutator",
    "normal-order",
    "coherent",
    "heat",
    "hkdf",
    "evolution",
)


def _suite_tasks(name: str, labels, cfg: RunConfig):
    """Row-producing callables for one suite, one per family where it applies."""
    tasks = []
    if name == "monomiality":
        for label in labels:
            tasks.append(lambda l=label: suites.monomiality_rows(l, cfg.order))
            tasks.append(lambda l=label: suites.oracle_rows(l, cfg.order))
    elif name == "commutator":
        tasks.append(lambda: suites.swap_oracle_rows())
        for label in labels:
            tasks.append(lambda l=label: suites.commutator_family_rows(l, cfg.order))
    elif name == "normal-order":
        for label in labels:
            tasks.append(
                lambda l=label: suites.normal_order_rows(
                    l, cfg.order, cfg.lam_order, cfg.a_order
                )
            )
    elif name == "coherent":
        for label in labels:
            tasks.append(
                lambda l=label: suites.coherent_rows(
                    l, cfg.order, cfg.cutoff, cfg.tol, cfg.draws, cfg.seed
                )
            )
    elif name == "heat":
        for label in labels:
            tasks.append(lambda l=label: suites.heat_rows(l, cfg.order))
    elif name == "hkdf":
        tasks.append(lambda: suites.hkdf_global_rows(order=cfg.order))
        for label in labels:
            tasks.append(lambda l=label: suites.theta_pi_rows(l, cfg.order))
    elif name == "evolution":
        tasks.append(lambda: suites.evolution_rows())
    else:
        raise UnknownFamily(f"unknown suite {name!r}")
    return tasks


def _cmd_verify(args) -> int:
    cfg = config_from(args)
    labels = [args.family] if args.family else list(FAMILY_LABELS)
    if args.family and args.family not in FAMILY_LABELS:
        raise UnknownFamily(f"no family named {args.family!r}")
    suite_names = [args.suite] if args.suite else list(_SUITE_NAMES)
    all_rows = []
    for name in suite_names:
        for task in _suite_tasks(name, labels, cfg):
            all_rows.extend({"suite": name, **row} for row in task())
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
    print(f"verify: {summary['checked']} checks, {summary['failed']} failed",
          file=sys.stderr)
    return 0 if ok else 1


def _cmd_normal_order(args) -> int:
    cfg = config_from(args)
    pair = _resolve_pair(args, max(cfg.order, cfg.lam_order + cfg.a_order + 1))
    series = normal_order_lhs(pair, cfg.lam_order, cfg.a_order)
    _emit(series.to_json_list(), cfg.fmt, columns=["adag", "a", "lambda_poly"])
    return 0


def _cmd_matrix_element(args) -> int:
    cfg = config_from(args)
    entry = family(args.family, cfg.order)
    z, zp, lam = args.z, args.zp, args.lam
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
        params = CoherentParams(z, zp, lam)
        rows = fock_verify(
            entry.pair,
            params,
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


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--order", type=int, default=None,
                        help="series truncation order (default 16)")
    parser.add_argument("--lambda-order", dest="lam_order", type=int, default=None)
    parser.add_argument("--a-order", dest="a_order", type=int, default=None)
    parser.add_argument("--cutoff", type=int, default=None, help="Fock cutoff")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
    parser.add_argument("--draws", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheffer",
        description="Sheffer-type polynomial families, ladder operators, "
        "and boson normal ordering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="dump the family catalog")
    _add_config_flags(p_list)
    p_list.set_defaults(handler=_cmd_list)

    p_gen = sub.add_parser("gen", help="generate polynomials")
    p_gen.add_argument("--family", choices=FAMILY_LABELS)
    p_gen.add_argument("--f", help="series spec for f (custom pair)")
    p_gen.add_argument("--g", help="series spec for g (custom pair)")
    p_gen.add_argument("--n", type=int, required=True, help="highest degree")
    p_gen.add_argument("--coeffs", action="store_true",
                       help="include exact coefficient rows")
    _add_config_flags(p_gen)
    p_gen.set_defaults(handler=_cmd_gen)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", nargs="?", choices=_SUITE_NAMES,
                          help="suite to run (default: all)")
    p_verify.add_argument("--family", help="restrict to one family")
    p_verify.add_argument("--all", action="store_true",
                          help="all families (default when --family absent)")
    _add_config_flags(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_no = sub.add_parser("normal-order",
                          help="normally ordered expansion of exp(lambda*M)")
    p_no.add_argument("--family", choices=FAMILY_LABELS)
    p_no.add_argument("--f")
    p_no.add_argument("--g")
    _add_config_flags(p_no)
    p_no.set_defaults(handler=_cmd_normal_order)

    p_me = sub.add_parser("matrix-element",
                          help="coherent-state matrix element of exp(lambda*M)")
    p_me.add_argument("--family", choices=FAMILY_LABELS, required=True)
    p_me.add_argument("--z", type=_parse_complex, required=True, metavar="RE,IM")
    p_me.add_argument("--zp", type=_parse_complex, required=True, metavar="RE,IM")
    p_me.add_argument("--lambda", dest="lam", type=_parse_complex, required=True,
                      metavar="RE,IM")
    p_me.add_argument("--fock-check", action="store_true")
    _add_config_flags(p_me)
    p_me.set_defaults(handler=_cmd_matrix_element)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
