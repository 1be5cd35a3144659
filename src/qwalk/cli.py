"""Command-line front end: construct graphs, check transfer claims, and run
the reproduction matrix.

Exit codes: 0 success / claim holds, 1 claim fails, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import sys

from .constructions import (
    CayleySpec,
    blow_up,
    cayley,
    complete_graph,
    cycle_graph,
    named_gadget,
    path_graph,
)
from .errors import NoTransfer, QwalkError, Unreached
from .graphs import (
    build_graph,
    build_state,
    graph_to_document,
    pair_state,
    plus_state,
    vertex_state,
)
from .reproduce import available_sets, matrix_json, matrix_table, run_claims
from .transfer import check_pst, pgst_witness, search_pst, sedentary_estimate

_TIME_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def _time_value(node: ast.AST) -> float:
    """Value of a time expression built from numbers, pi, sqrt(...), the
    binary operators + - * / ** and unary minus; anything else is rejected."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_time_value(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _TIME_OPS:
        return _TIME_OPS[type(node.op)](_time_value(node.left),
                                        _time_value(node.right))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sqrt" and len(node.args) == 1
            and not node.keywords):
        return math.sqrt(_time_value(node.args[0]))
    raise ValueError(f"unsupported term {ast.unparse(node)!r}")


def parse_time(text: str) -> float:
    """Times as decimals or small symbolic forms: pi/2, pi/sqrt2, pi/(2*sqrt2)."""
    cleaned = text.strip().replace("sqrt2", "sqrt(2)")
    try:
        value = _time_value(ast.parse(cleaned, mode="eval").body)
    except (SyntaxError, ValueError, TypeError, ArithmeticError,
            RecursionError) as exc:
        raise QwalkError(f"cannot parse time {text!r}: {exc}") from exc
    if not (isinstance(value, float) and math.isfinite(value)):
        raise QwalkError(f"time {text!r} is not a finite real number")
    return value


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    """The comma-separated integers of a flag's value."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise QwalkError(
            f"{flag}: expected comma-separated integers, got {text!r}") from None


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    pair = _parse_ints(text, flag)
    if len(pair) != 2:
        raise QwalkError(f"{flag}: expected 'a,b', got {text!r}")
    return pair


def _required(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise QwalkError(f"construct {args.family} requires --{name}")
    return value


def _state_from_flags(args, suffix: str):
    vertex = getattr(args, f"vertex{suffix}")
    pair = getattr(args, f"pair{suffix}")
    plus = getattr(args, f"plus{suffix}")
    state = getattr(args, f"state{suffix}")
    given = [x for x in (vertex, pair, plus, state) if x is not None]
    if len(given) != 1:
        raise QwalkError(
            f"exactly one of --vertex{suffix}/--pair{suffix}/--plus{suffix}"
            f"/--state{suffix} is required"
        )
    if vertex is not None:
        return vertex_state(vertex)
    dash = suffix.replace("_", "-")
    if pair is not None:
        return pair_state(*_parse_pair(pair, f"--pair{dash}"))
    if plus is not None:
        return plus_state(*_parse_pair(plus, f"--plus{dash}"))
    with open(state, "rb") as fh:
        return build_state(fh.read())


def _add_state_flags(parser: argparse.ArgumentParser, suffix: str) -> None:
    dash = suffix.replace("_", "-")
    parser.add_argument(f"--vertex{dash}", dest=f"vertex{suffix}", type=int)
    parser.add_argument(f"--pair{dash}", dest=f"pair{suffix}")
    parser.add_argument(f"--plus{dash}", dest=f"plus{suffix}")
    parser.add_argument(f"--state{dash}", dest=f"state{suffix}")


def _load_graph(path: str):
    # bytes: the JSON parser reports a bad encoding as a ParseError
    with open(path, "rb") as fh:
        return build_graph(fh.read())


def _emit_graph(g, out_path: str | None) -> None:
    doc = json.dumps(graph_to_document(g), indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)


_BASES = {
    "p": path_graph,
    "c": cycle_graph,
    "k": complete_graph,
}


def _base_graph(name: str):
    name = name.strip().lower()
    if len(name) >= 2 and name[0] in _BASES and name[1:].isdigit():
        return _BASES[name[0]](int(name[1:]))
    raise QwalkError(f"unknown base graph {name!r} (use p<n>, c<n>, or k<n>)")


def _parse_conn(text: str) -> tuple[tuple[int, ...], ...]:
    """Connection sets like "(1,0),(5,0),(0,1)"."""
    text = text.strip()
    out = []
    for chunk in text.replace(") ,", "),").split("),"):
        chunk = chunk.strip().strip("()")
        if not chunk:
            continue
        out.append(_parse_ints(chunk, "--conn"))
    if not out:
        raise QwalkError("empty connection set")
    return tuple(out)


def cmd_construct(args) -> int:
    if args.family == "flyswatter":
        g = named_gadget("flyswatter", tail_len=args.n).graph
    elif args.family in ("path", "cycle", "complete"):
        g = {"path": path_graph, "cycle": cycle_graph,
             "complete": complete_graph}[args.family](_required(args, "n"))
    elif args.family == "blowup":
        g = blow_up(_base_graph(_required(args, "base")), args.copies)
    elif args.family == "cayley":
        moduli = _parse_ints(_required(args, "group"), "--group")
        g = cayley(CayleySpec(moduli, _parse_conn(_required(args, "conn"))))
    elif args.family == "gadget":
        g = named_gadget(_required(args, "name"), n=args.n, p=args.p,
                         tail_len=args.tail).graph
    else:
        raise QwalkError(f"unknown family {args.family!r}")
    _emit_graph(g, args.out)
    return 0


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    if args.mode == "pst":
        src = _state_from_flags(args, "")
        dst = _state_from_flags(args, "_dst")
        if args.tau is None:
            raise QwalkError("check pst requires --tau")
        tau = parse_time(args.tau)
        try:
            rep = check_pst(g, src, dst, tau)
        except NoTransfer as exc:
            print(f"FAIL fidelity={exc.fidelity:.12f} at t={tau:.12g}")
            return 1
        print(f"PASS kind={rep.kind} fidelity={rep.fidelity:.12f} "
              f"t={rep.tau:.12g} gamma={rep.gamma.real:+.9f}{rep.gamma.imag:+.9f}j")
        cert = rep.certificate
        if cert.L:
            print(f"truncation L={cert.L} error-bound={cert.bound:.3g}")
        elif g.tails:
            print(f"decoupled dim={cert.dim} residual={cert.residual:.2g} "
                  f"error-bound={cert.bound:.3g}")
        return 0
    if args.mode == "search":
        src = _state_from_flags(args, "")
        dst = _state_from_flags(args, "_dst")
        reports = search_pst(g, src, dst, parse_time(args.t_max))
        for rep in reports:
            print(f"t={rep.tau:.12g} fidelity={rep.fidelity:.12f} kind={rep.kind}")
        if not reports:
            print("no transfer times found")
        return 0 if reports else 1
    if args.mode == "sedentary":
        src = _state_from_flags(args, "")
        horizon = 20.0 if args.horizon == "auto" else parse_time(args.horizon)
        est = sedentary_estimate(g, src, horizon)
        period = "none" if est.period is None else f"{est.period:.12g}"
        print(f"grid_min={est.grid_min:.9f} horizon={est.horizon:.12g} "
              f"period={period}")
        return 0
    if args.mode == "pgst":
        src = _state_from_flags(args, "")
        dst = _state_from_flags(args, "_dst")
        try:
            rep = pgst_witness(g, src, dst, args.target, parse_time(args.t_cap))
        except Unreached as exc:
            print(f"FAIL best-fidelity={exc.best_fidelity:.9f}")
            return 1
        print(f"PASS fidelity={rep.fidelity:.9f} t={rep.tau:.12g}")
        return 0
    raise QwalkError(f"unknown check mode {args.mode!r}")


def cmd_reproduce(args) -> int:
    results = run_claims(args.set)
    table = matrix_table(results)
    print(table, end="")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(matrix_json(results) + "\n")
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="continuous-time quantum walk constructions and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="generate a graph file")
    c.add_argument("family",
                   choices=["flyswatter", "path", "cycle", "complete",
                            "blowup", "cayley", "gadget"])
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--p", type=int, default=None)
    c.add_argument("--tail", type=int, default=None)
    c.add_argument("--base")
    c.add_argument("--copies", type=int, default=2)
    c.add_argument("--group")
    c.add_argument("--conn")
    c.add_argument("--name")
    c.add_argument("-o", "--out")
    c.set_defaults(fn=cmd_construct)

    k = sub.add_parser("check", help="evaluate a transfer claim")
    k.add_argument("mode", choices=["pst", "search", "sedentary", "pgst"])
    k.add_argument("graph")
    _add_state_flags(k, "")
    _add_state_flags(k, "_dst")
    k.add_argument("--tau")
    k.add_argument("--t-max", dest="t_max", default="10")
    k.add_argument("--t-cap", dest="t_cap", default="10000")
    k.add_argument("--target", type=float, default=0.999)
    k.add_argument("--horizon", default="auto")
    k.set_defaults(fn=cmd_check)

    r = sub.add_parser("reproduce", help="run the claim matrix")
    r.add_argument("--set", default="all", choices=available_sets())
    r.add_argument("--json-out", dest="json_out")
    r.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except QwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
