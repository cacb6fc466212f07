"""Command-line front end.

Exit codes: 0 for success (and mathematically positive answers), 1 for
mathematically negative answers (nontrivial products, nonzero Massey class,
NotGolod, series divergence), 2 for usage and parse errors, 3 for an
exhausted search budget and for input too large to enumerate (``TooLarge``:
a strand degree, fiber complex, ``complex`` or ``sr`` input, lcm box
(``series``, and ``golod`` on its box route) or text Betti table past its
bound; nothing on standard output), and 4 for a failed internal invariant
(an ``AssertionError``, reported on one line of standard error).
``--format json`` emits the same data as the text renderers.

Each subcommand's options are data in ``COMMANDS``, read by two parsers.
A plain argv (a command, then only full option names, each at most once
and each followed by a value that does not start with ``-`` unless it is a
``store_true`` flag, every value converting and in its choices, the
required options present and at most one of an exclusive group) is read by
``_plain_args``, without importing argparse.  Every other argv (``--help``,
usage errors, abbreviations, ``--opt=value``, repeats, ``--``) goes to
argparse, through ``build_parser``, which is the one source of help text
and usage errors.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace

from . import massey_golod as mg
from . import series_engine as se
from . import simplicial as sc
from .exact_linalg import parse_field
from .homology_engine import betti, homology_basis
from .monomial_core import (
    TooLarge,
    counterexample_generator_index,
    counterexample_ideal,
    format_ideal,
    format_monomial,
    parse_ideal,
    polarize,
)
from .taylor_dga import fiber_complex, mask_members


class UsageError(Exception):
    pass


def _scalar(x):
    """A field element (``Field.of``'s format) for JSON: an int, or a
    non-integral rational as its string."""
    return x if isinstance(x, int) else str(x)


def _chain_json(chain):
    return [
        {"subset": mask_members(m), "coeff": _scalar(c)}
        for m, c in sorted(chain)
    ]


def _class_json(cls):
    if cls is None:
        return None
    return {
        "multidegree": list(cls.multidegree),
        "homological_degree": cls.hom_degree,
        "coordinates": [_scalar(c) for c in cls.coordinates],
        "representative": _chain_json(cls.representative),
    }


def _load_ideal(args):
    if getattr(args, "example", None):
        if args.example != "paper":
            raise UsageError(f"unknown example {args.example!r}")
        return counterexample_ideal()
    if getattr(args, "ideal", None):
        with open(args.ideal) as fh:
            return parse_ideal(fh.read())
    raise UsageError("provide --example paper or --ideal FILE")


def _load_complex(args):
    if getattr(args, "complex", None):
        with open(args.complex) as fh:
            return sc.parse_complex(fh.read())
    raise UsageError("provide --complex FILE")


def _emit(args, payload, text):
    """Print the payload as JSON or ``text()``, so text is built only to be printed."""
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text())


def _non_negative(convert, what):
    """argparse type: a value of ``convert`` (int or float) that is >= 0."""

    def parse(text):
        try:
            x = convert(text)
        except ValueError:
            message = f"invalid {convert.__name__} value: {text!r}"
        else:
            if x >= 0:  # also rejects nan
                return x
            message = f"{what} must be non-negative"
        from argparse import ArgumentTypeError  # only a bad value imports argparse

        raise ArgumentTypeError(message)

    return parse


# an option: (flag, add_argument keywords); "exclusive" is not an argparse
# keyword but marks the members of the command's one mutually exclusive group
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_COMMON = (
    _FORMAT,
    ("--example", {"help": "built-in ideal preset (paper)"}),
    ("--ideal", {"help": "ideal file"}),
)
_FIELD = ("--field", {"default": "q", "help": "coefficients: q or fp:<prime>"})
_WITH_FIELD = (*_COMMON, _FIELD)
_COMPLEX = (_FORMAT, ("--complex", {"required": True, "help": "complex file"}))


def cmd_betti(args):
    ideal = _load_ideal(args)
    field = parse_field(args.field)
    bd = betti(ideal, field)
    payload = {
        "field": str(field),
        "multigraded": [
            {"i": i, "multidegree": list(u), "dim": d}
            for (i, u), d in bd.multigraded
        ],
        "coarse": [
            {"i": i, "j": j, "dim": d} for (i, j), d in sorted(bd.coarse.items())
        ],
        "totals": list(bd.totals),
        "regularity": bd.regularity,
        "projective_dimension": bd.projective_dimension,
    }
    _emit(args, payload, lambda: (
        f"Betti table over {field}\n{bd.table_str()}\n"
        f"regularity {bd.regularity}, projective dimension {bd.projective_dimension}"
    ))
    return 0


def cmd_products(args):
    ideal = _load_ideal(args)
    field = parse_field(args.field)
    ok, witness = mg.all_products_trivial(ideal, field)
    payload = {"field": str(field), "trivial": ok}
    if witness is not None:
        payload["witness"] = {
            "alpha": _class_json(witness.alpha),
            "beta": _class_json(witness.beta),
            "product": _chain_json(witness.product_chain),
        }
    _emit(args, payload, lambda: (
        "all products of positive-degree homology classes vanish"
        if ok
        else "nontrivial product found:\n  " + witness.describe()
    ))
    return 0 if ok else 1


def _massey_payload(res):
    return {
        "defined": res.defined,
        "unique": res.unique,
        "zero": res.value_is_zero,
        "multidegree": list(res.multidegree) if res.multidegree else None,
        "homological_degree": res.hom_degree,
        "value": _class_json(res.value),
        "representative": _chain_json(res.value_chain) if res.value_chain else [],
        "obstruction": res.obstruction,
    }


def _parse_gen_token(tok, ideal, is_preset):
    tok = tok.strip()
    if tok.lstrip("-").isdigit():
        idx = int(tok)
        if not 0 <= idx < ideal.n_gens:
            raise UsageError(f"generator index {idx} out of range")
        return idx
    if is_preset:
        return counterexample_generator_index(tok)
    raise UsageError(f"generator {tok!r}: use integer indices for file ideals")


def cmd_massey3(args):
    ideal = _load_ideal(args)
    field = parse_field(args.field)
    if args.all:
        ok, witness = mg.all_products_trivial(ideal, field)
        if ok:
            ok, witness = mg.ternary_products_vanish(ideal, field)
        payload = {"field": str(field), "all_zero": ok}
        if ok:
            text = lambda: "every binary and ternary Massey product is defined and zero"
        elif isinstance(witness, mg.ProductWitness):
            payload["witness"] = {"kind": "binary", "detail": witness.describe()}
            text = lambda: "a binary product is already nonzero:\n  " + witness.describe()
        else:
            alpha, beta, gamma, res = witness
            payload["witness"] = {"kind": "ternary", "massey": _massey_payload(res)}
            text = lambda: (
                "nonzero ternary Massey product at multidegree "
                f"{res.multidegree}, homological degree {res.hom_degree}"
            )
        _emit(args, payload, text)
        return 0 if ok else 1
    if not args.gens:
        raise UsageError("massey3 needs --gens i,j,k or --all")
    is_preset = getattr(args, "example", None) == "paper"
    toks = args.gens.split(",")
    if len(toks) != 3:
        raise UsageError("--gens wants exactly three generators")
    ia, ib, ic = (_parse_gen_token(t, ideal, is_preset) for t in toks)
    b2, _ = mg.all_products_trivial(ideal, field)
    res = mg.ternary_massey_generators(ideal, field, ia, ib, ic, b2_certified=b2)
    payload = {"field": str(field), "binary_products_trivial": b2}
    payload["massey"] = _massey_payload(res)
    agree = None
    if res.defined:
        alpha, beta, gamma = (
            _generator_class(ideal, field, i) for i in (ia, ib, ic)
        )
        general = mg.ternary_massey(ideal, field, alpha, beta, gamma, b2_certified=b2)
        payload["general"] = _massey_payload(general)
        agree = res.value.coordinates == general.value.coordinates
        payload["routes_agree"] = agree
    if not res.defined:
        text = lambda: f"not defined / preconditions fail: {res.obstruction}"
        code = 0
    else:
        state = "zero" if res.value_is_zero else "NONZERO"
        text = lambda: (
            f"ternary Massey product: defined, {'unique' if res.unique else 'one member of the set'}, {state}\n"
            f"  multidegree {res.multidegree}, homological degree {res.hom_degree}\n"
            f"  representative: {_chain_text(res.value_chain)}\n"
            f"  defining-system route agrees: {agree}"
        )
        code = 1 if not res.value_is_zero else 0
    _emit(args, payload, text)
    return code


def _generator_class(ideal, field, idx):
    # a generator is the single degree-1 basis element of its own strand
    u = tuple(ideal.gens[idx].exps)
    classes = homology_basis(ideal, field, u, 1)
    assert len(classes) == 1
    return classes[0]


def _chain_text(chain):
    parts = []
    for m, c in chain:
        idx = ",".join(str(i) for i in mask_members(m))
        coeff = "+" if c == 1 else ("-" if c == -1 else f"{c}*")
        parts.append(f"{coeff}e{{{idx}}}")
    return " ".join(parts) if parts else "0"


def cmd_golod(args):
    ideal = _load_ideal(args)
    field = parse_field(args.field)
    verdict = mg.golod_decide(ideal, field)
    payload = {
        "field": str(field),
        "status": verdict.status,
        "route": verdict.route,
        "reason": verdict.reason,
    }
    _emit(args, payload, lambda: f"{verdict.status} [{verdict.route}]\n  {verdict.reason}")
    return 0 if verdict.status == "Golod" else 1


def cmd_series(args):
    ideal = _load_ideal(args)
    field = parse_field(args.field)
    n = args.trunc
    q = se.q_series(ideal, field, n)
    p, report = se.p_series(ideal, field, n)
    div = se.series_compare(p, q)
    payload = {
        "field": str(field),
        "p": [_scalar(c) for c in p.coeffs],
        "q": [_scalar(c) for c in q.coeffs],
        "first_divergence": None if div is None else div[0],
        "resolution_report": report.describe(),
    }
    _emit(args, payload, lambda: "\n".join([
        f"P (resolution side): {p}",
        f"Q (Koszul bound):    {q}",
        (
            "series agree through the truncation"
            if div is None
            else f"first divergence at index {div[0]} (P {'<' if div[1] < 0 else '>'} Q)"
        ),
        report.describe(),
    ]))
    return 0 if div is None else 1


def cmd_polarize(args):
    ideal = _load_ideal(args)
    pol, varmap = polarize(ideal)
    payload = {
        "ideal": format_ideal(pol),
        "variable_map": {
            pol.variables[i]: ideal.variables[o]
            for i, o in enumerate(varmap.new_to_old)
        },
    }
    _emit(args, payload, lambda: "# polarization; variable origins: " + ", ".join(
        f"{pol.variables[i]}<-{ideal.variables[o]}"
        for i, o in enumerate(varmap.new_to_old)
    ) + "\n" + format_ideal(pol).rstrip())
    return 0


def cmd_fiber(args):
    ideal = _load_ideal(args)
    u = tuple(int(x) for x in args.mdeg.split(","))
    if len(u) != ideal.n_vars:
        raise UsageError(f"multidegree needs {ideal.n_vars} components")
    cx = fiber_complex(ideal, u)
    # vertices are labeled g<index> by the generator they stand for
    legend = {v: format_monomial(ideal.gens[int(v[1:])], ideal.variables) for v in cx.vertices}
    payload = {
        "multidegree": list(u),
        "complex": sc.format_complex(cx),
        "vertex_legend": legend,
    }
    _emit(args, payload, lambda: (
        "# vertices: " + ", ".join(f"{k}={v}" for k, v in legend.items()) + "\n"
        + sc.format_complex(cx).rstrip()
    ))
    return 0


def cmd_complex(args):
    ideal = _load_ideal(args)
    cx = sc.complex_of(ideal)
    _emit(args, {"complex": sc.format_complex(cx)}, lambda: sc.format_complex(cx).rstrip())
    return 0


def cmd_sr(args):
    cx = _load_complex(args)
    ideal = sc.stanley_reisner_ideal(cx)
    _emit(args, {"ideal": format_ideal(ideal)}, lambda: format_ideal(ideal).rstrip())
    return 0


def cmd_skeleton(args):
    cx = _load_complex(args)
    sk = sc.skeleton(cx, args.dim)
    _emit(args, {"complex": sc.format_complex(sk)}, lambda: sc.format_complex(sk).rstrip())
    return 0


def _parse_roles(text, n_gens):
    mapping = {}
    for part in text.split(","):
        if "=" not in part:
            raise UsageError(f"bad role token {part!r}; want name=index")
        name, idx = part.split("=", 1)
        name, idx = name.strip(), int(idx)
        if not 0 <= idx < n_gens:
            raise UsageError(f"role {name}={idx}: generator index out of range 0..{n_gens - 1}")
        mapping[name] = idx
    rename = {"ab#c": "ab_sharp_c", "bc#a": "bc_sharp_a", "ca#b": "ca_sharp_b"}
    return {rename.get(k, k): v for k, v in mapping.items()}


def cmd_pattern_check(args):
    from . import counterexample_search as cxs  # only the search commands compile it

    if getattr(args, "example", None) == "paper":
        ideal, assignment = cxs.seed_pattern()
    else:
        ideal, assignment = _load_ideal(args), None
    if args.roles:
        try:
            assignment = cxs.RoleAssignment(**_parse_roles(args.roles, ideal.n_gens))
        except TypeError as exc:
            raise UsageError(f"bad role set: {exc}") from None
    elif assignment is None:
        raise UsageError("pattern-check needs --roles for file ideals")
    report = cxs.pattern_check(ideal, assignment)
    payload = {k: v for k, v in report.__dict__.items()}
    payload["all_ok"] = report.all_ok
    _emit(args, payload, lambda: "\n".join(
        [*(f"{k}: {v}" for k, v in report.__dict__.items()),
         f"all conditions hold: {report.all_ok}"]))
    return 0 if report.all_ok else 1


def cmd_search(args):
    from . import counterexample_search as cxs

    field = parse_field(args.field)
    stats = cxs.SearchStats()
    hits = cxs.search(args.vars, args.max_gens, args.budget, args.seconds,
                      field=field, stats=stats)
    for hit in hits:
        record = {
            "serial": hit.serial,
            "ideal": format_ideal(hit.ideal),
            "counterexample": hit.is_counterexample,
            "all_products_trivial": hit.all_products_trivial,
        }
        if args.format == "json":
            print(json.dumps(record, sort_keys=True))
        else:
            print(
                f"hit #{hit.serial}: counterexample={hit.is_counterexample} "
                f"gens={hit.ideal.n_gens} vars={hit.ideal.n_vars}"
            )
    summary = {
        "candidates": stats.candidates,
        "survivors": stats.survivors,
        "budget_exhausted": stats.budget_exhausted,
    }
    if args.format == "json":
        print(json.dumps({"summary": summary}, sort_keys=True))
    else:
        print(
            f"searched {stats.candidates} candidates, {stats.survivors} survivors"
            + (" (budget exhausted)" if stats.budget_exhausted else "")
        )
    return 3 if stats.budget_exhausted and not stats.pattern_hits else 0


# the subcommands in help order: (name, help, run, options)
COMMANDS = (
    ("betti", "multigraded and coarse Betti numbers", cmd_betti, _WITH_FIELD),
    ("products", "exhaustive binary product check", cmd_products, _WITH_FIELD),
    ("massey3", "ternary Massey products", cmd_massey3, (
        *_WITH_FIELD,
        ("--gens", {"exclusive": True, "help": "three generators, e.g. m_a,m_b,m_c or 0,3,6"}),
        ("--all", {"exclusive": True, "action": "store_true", "default": False,
                   "help": "check every ternary product"}),
    )),
    ("golod", "decide the Golod property", cmd_golod, _WITH_FIELD),
    ("series", "resolution-side vs bound-side series", cmd_series, (
        *_WITH_FIELD,
        ("--trunc", {"type": _non_negative(int, "truncation order"), "default": 5}),
    )),
    ("polarize", "polarize an ideal to a squarefree one", cmd_polarize, _COMMON),
    ("fiber", "fiber complex of a lattice multidegree", cmd_fiber, (
        *_COMMON, ("--mdeg", {"required": True, "help": "comma-separated multidegree"}),
    )),
    ("complex", "Stanley-Reisner complex of a squarefree ideal", cmd_complex, _COMMON),
    ("sr", "Stanley-Reisner ideal of a complex", cmd_sr, _COMPLEX),
    ("skeleton", "skeleton of a complex", cmd_skeleton, (
        *_COMPLEX, ("--dim", {"type": int, "required": True}),
    )),
    ("pattern-check", "role-pattern conditions on a squarefree ideal", cmd_pattern_check, (
        *_COMMON,
        ("--roles", {"help": "e.g. a=0,b=3,c=6,ab=1,bc=4,ca=7,ab#c=2,bc#a=5,ca#b=5"}),
    )),
    ("search", "pattern search for trivial-product non-Golod ideals", cmd_search, (
        _FORMAT,
        _FIELD,
        ("--vars", {"type": _non_negative(int, "variable count"), "required": True}),
        ("--max-gens", {"type": _non_negative(int, "generator count"), "required": True}),
        ("--budget", {"type": _non_negative(int, "budget"), "default": 1000}),
        ("--seconds", {"type": _non_negative(float, "seconds"), "default": None}),
    )),
)


def build_parser(command=None):
    """The parser of every subcommand, or, when ``command`` names one, of
    that one only; its usage line still lists them all."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="golod-lab",
        description="Koszul homology products, Massey products, and Golod decisions for monomial rings",
    )
    wanted = [c for c in COMMANDS if c[0] == command] or COMMANDS
    # an explicit metavar would rename the action in the errors only the full parser raises
    metavar = "{" + ",".join(c[0] for c in COMMANDS) + "}" if len(wanted) == 1 else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, run, options in wanted:
        p = sub.add_parser(name, help=help_text)
        group = None
        for flag, keywords in options:
            keywords = dict(keywords)
            if keywords.pop("exclusive", False):
                group = group or p.add_mutually_exclusive_group()
                group.add_argument(flag, **keywords)
            else:
                p.add_argument(flag, **keywords)
        p.set_defaults(fn=run)
    return ap


def _plain_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, when argv
    is plain (see the module docstring); None otherwise."""
    command = next((c for c in COMMANDS if argv and argv[0] == c[0]), None)
    if command is None:
        return None
    options = dict(command[3])
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value declines like a dashed one
        if text.startswith("-"):
            return None
        convert = keywords.get("type")
        try:
            value = convert(text) if convert else text
        except Exception:  # argparse converts it again, and reports or raises
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    if any(k.get("required") and f not in given for f, k in options.items()):
        return None
    if sum(options[f].get("exclusive", False) for f in given) > 1:
        return None
    args = SimpleNamespace(command=command[0], fn=command[2])
    for flag, keywords in options.items():
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, keywords.get("default")))
    return args


def main(argv=None):
    """Run one command; return its exit code.

    The first call in a process freezes every object that exists by then,
    the import graph, with ``gc.freeze()``, so that no later collection scans
    it, the one at interpreter exit included: a ``paper`` command then exits
    in 3 ms instead of 9.5 (medians of 7 runs per command, 2-vCPU x86 host).
    Later calls freeze nothing, so the cyclic garbage of one call is still
    collected, as is everything a command makes.

    A plain argv (see the module docstring), such as each command of the
    ``paper`` benchmark, is read by ``_plain_args`` and never imports
    argparse, whose first use (``gettext`` importing ``locale``, its
    regexes, the first ``HelpFormatter``) and parser build cost a cold
    command about 4.5 ms: ``betti --example paper`` runs ``main`` in
    2.2 ms instead of 6.7 (medians of 21 processes under ``python -S``).
    Any other argv is parsed by argparse with the parser of only the
    subcommand ``argv[0]`` names; with no command, ``--help`` or an unknown
    name all 12 are built.  The one-command parser's usage line lists all
    12, so every help text and usage error is unchanged.
    """
    if not gc.get_freeze_count():
        gc.freeze()
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
