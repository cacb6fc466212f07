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
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

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
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if not x >= 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"{what} must be non-negative")
        return x

    return parse


def _add_common(p, ideal_input=True):
    p.add_argument("--format", choices=("text", "json"), default="text")
    if ideal_input:
        p.add_argument("--example", help="built-in ideal preset (paper)")
        p.add_argument("--ideal", help="ideal file")


def _add_field(p):
    p.add_argument("--field", default="q", help="coefficients: q or fp:<prime>")


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


def build_parser():
    ap = argparse.ArgumentParser(
        prog="golod-lab",
        description="Koszul homology products, Massey products, and Golod decisions for monomial rings",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="multigraded and coarse Betti numbers")
    _add_common(p)
    _add_field(p)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("products", help="exhaustive binary product check")
    _add_common(p)
    _add_field(p)
    p.set_defaults(fn=cmd_products)

    p = sub.add_parser("massey3", help="ternary Massey products")
    _add_common(p)
    _add_field(p)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--gens", help="three generators, e.g. m_a,m_b,m_c or 0,3,6")
    which.add_argument("--all", action="store_true", help="check every ternary product")
    p.set_defaults(fn=cmd_massey3)

    p = sub.add_parser("golod", help="decide the Golod property")
    _add_common(p)
    _add_field(p)
    p.set_defaults(fn=cmd_golod)

    p = sub.add_parser("series", help="resolution-side vs bound-side series")
    _add_common(p)
    _add_field(p)
    p.add_argument("--trunc", type=_non_negative(int, "truncation order"), default=5)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("polarize", help="polarize an ideal to a squarefree one")
    _add_common(p)
    p.set_defaults(fn=cmd_polarize)

    p = sub.add_parser("fiber", help="fiber complex of a lattice multidegree")
    _add_common(p)
    p.add_argument("--mdeg", required=True, help="comma-separated multidegree")
    p.set_defaults(fn=cmd_fiber)

    p = sub.add_parser("complex", help="Stanley-Reisner complex of a squarefree ideal")
    _add_common(p)
    p.set_defaults(fn=cmd_complex)

    p = sub.add_parser("sr", help="Stanley-Reisner ideal of a complex")
    _add_common(p, ideal_input=False)
    p.add_argument("--complex", required=True, help="complex file")
    p.set_defaults(fn=cmd_sr)

    p = sub.add_parser("skeleton", help="skeleton of a complex")
    _add_common(p, ideal_input=False)
    p.add_argument("--complex", required=True, help="complex file")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(fn=cmd_skeleton)

    p = sub.add_parser("pattern-check", help="role-pattern conditions on a squarefree ideal")
    _add_common(p)
    p.add_argument("--roles", help="e.g. a=0,b=3,c=6,ab=1,bc=4,ca=7,ab#c=2,bc#a=5,ca#b=5")
    p.set_defaults(fn=cmd_pattern_check)

    p = sub.add_parser("search", help="pattern search for trivial-product non-Golod ideals")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_field(p)
    p.add_argument("--vars", type=_non_negative(int, "variable count"), required=True)
    p.add_argument("--max-gens", type=_non_negative(int, "generator count"), required=True)
    p.add_argument("--budget", type=_non_negative(int, "budget"), default=1000)
    p.add_argument("--seconds", type=_non_negative(float, "seconds"), default=None)
    p.set_defaults(fn=cmd_search)

    return ap


def main(argv=None):
    """Run one command; return its exit code.

    The first call in a process freezes every object that exists by then,
    the import graph, with ``gc.freeze()``, so that no later collection scans
    it, the one at interpreter exit included: a ``paper`` command then exits
    in 3 ms instead of 9.5 (medians of 7 runs per command, 2-vCPU x86 host).
    Later calls freeze nothing, so the cyclic garbage of one call is still
    collected, as is everything a command makes.
    """
    if not gc.get_freeze_count():
        gc.freeze()
    ap = build_parser()
    args = ap.parse_args(argv)
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
