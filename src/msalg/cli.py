"""Command-line surface over the library.

Every subcommand prints one report, ordered "key: value" lines, then exits
0 when all checked properties hold, 1 when a checked property fails (the
report carries the witnesses), and 2 on usage or resource errors.  With
--deterministic-timing all timing fields are zeroed, making reports
byte-identical across runs.

Algebra operands are either @name for a shipped corpus algebra or a path
to an algebra file (grammar documented in fmt).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

# The import order is chosen for peak RSS.  model loads no numpy and comes
# first: imported after lattice's compile, its objects raised the relations
# benchmark's pass peak by about 0.1 MB.  lattice comes next, before
# anything that loads numpy.  Without a bytecode cache, compiling it takes
# the most memory of any module (about 3.9 MB); done before numpy loads,
# numpy's import reuses those freed pages instead of stacking on them, which
# lowers a command's peak RSS by about 1 MB.
from .model import (
    JONSSON_MAX,
    MAX_ARITY,
    MU_MAX,
    TABLE_BUDGET,
    BudgetError,
    Profile,
    ProfileError,
    SortedAlgebra,
    check_nonnegative,
    term_str,
)
from .lattice import (
    PPFormula,
    congruence_generate,
    direct_product,
    enumerate_congruences,
    enumerate_subuniverses,
    inv_enumerate,
    pp_evaluate,
    quotient,
    subalgebra_generate,
    verify_inv_iso,
    verify_sub_con_transfer,
)
from .clone import check_inputs, generate_fragment, is_pure
from .corpus import corpus_algebra
from .diagonal import (
    DiagonalPair,
    find_diagonal_pairs,
    matrix_product,
    satisfies_diagonal_identity,
    verify_decomposition,
    verify_diagonal_pair,
)
from .fmt import FormatError, emit_algebra, load_algebra, save_algebra
from .hetero import canonical_pair, heterogenize, verify_mu_roundtrip, verify_nu_roundtrip
from .homog import homogenize
from .malcev import check_cd_bruteforce, check_cp_bruteforce, find_jonsson, find_malcev_homog, find_malcev_per_sort
from .suite import run_all


class Report:
    """Ordered key: value lines, optionally followed by an algebra block."""

    def __init__(self):
        self.lines = []
        self.trailer = None

    def add(self, key, value):
        self.lines.append("%s: %s" % (key, value))

    def render(self):
        text = "\n".join(self.lines) + "\n"
        if self.trailer is not None:
            text += "algebra:\n" + self.trailer
        return text


def _load(spec: str) -> SortedAlgebra:
    if spec.startswith("@"):
        return corpus_algebra(spec[1:])
    return load_algebra(spec)


def _fmt_values(values):
    return " ".join(str(v) for v in values)


def _fmt_family(alg, su):
    return " ".join("%s={%s}" % (name, ",".join(str(x) for x in xs))
                    for name, xs in zip(alg.signature.sorts, su.sets))


def _fmt_classes(alg, classes):
    return " ".join("%s=[%s]" % (name, ",".join(str(x) for x in labels))
                    for name, labels in zip(alg.signature.sorts, classes))


def _fmt_tuples(tuples):
    if not tuples:
        return "(none)"
    return " ".join("(%s)" % ",".join(str(x) for x in t) for t in sorted(tuples))


def _add_checks(rep: Report, ver) -> int:
    for c in ver.checks:
        verdict = "pass" if c.ok else "FAIL"
        if c.detail:
            verdict += " (%s)" % c.detail
        rep.add("check %s" % c.name, verdict)
    rep.add("verdict", "pass" if ver.ok else "fail")
    return 0 if ver.ok else 1


def _emit(rep: Report, alg: SortedAlgebra, out_path) -> None:
    if out_path:
        save_algebra(out_path, alg)
        rep.add("written", out_path)
    else:
        rep.trailer = emit_algebra(alg)


def _parse_profile(alg, text):
    head, sep, cod = text.partition("->")
    if not sep:
        raise ProfileError("profile %r must look like u,w->u" % text)
    names = [p for p in head.split(",") if p.strip()]
    inputs = tuple(alg.sort_index(p.strip()) for p in names)
    return Profile(inputs, alg.sort_index(cod.strip()))


def _resolve_pair(alg, args):
    """The single-sorted stage and a diagonal pair on it.

    Many-sorted input goes through its product collapse and the canonical
    pair; single-sorted input takes --d/--e symbol names, or the
    --pair-index-th pair found at --width.
    """
    if not alg.is_single_sorted:
        if args.d or args.e or args.width is not None:
            raise ProfileError("--d/--e/--width apply to single-sorted input only")
        h = homogenize(alg, max_arity=args.max_arity)
        return h.algebra, canonical_pair(h)
    if args.d is not None or args.e is not None:
        if args.d is None or args.e is None:
            raise ProfileError("--d and --e must be given together")
        es = tuple(alg.table(n.strip()) for n in args.e.split(","))
        return alg, DiagonalPair(alg.table(args.d), es)
    if args.width is None:
        raise ProfileError("single-sorted input needs --d/--e or --width")
    pairs = find_diagonal_pairs(alg, args.width, budget=args.table_budget)
    if not pairs:
        raise ProfileError("no diagonal pairs of width %d" % args.width)
    if not 0 <= args.pair_index < len(pairs):
        raise ProfileError("pair index %d out of range, %d pairs found"
                           % (args.pair_index, len(pairs)))
    return alg, pairs[args.pair_index]


def _pairs_by_sort(alg, raw_pairs):
    out = [[] for _ in range(alg.n_sorts)]
    for sort_name, a, b in raw_pairs or []:
        out[alg.sort_index(sort_name)].append((int(a), int(b)))
    return out


# ------------------------------------------------------------ subcommands

def _cmd_homogenize(args, rep):
    alg = _load(args.algebra)
    h = homogenize(alg, max_arity=args.max_arity)
    rep.add("source-sorts", alg.n_sorts)
    rep.add("carrier", h.size)
    rep.add("radices", " ".join(str(r) for r in h.radices))
    rep.add("symbols", len(h.algebra.signature.symbols))
    _emit(rep, h.algebra, args.out)
    return 0


def _cmd_heterogenize(args, rep):
    alg = _load(args.algebra)
    src, pair = _resolve_pair(alg, args)
    het = heterogenize(src, pair, budget=args.table_budget)
    rep.add("slots", pair.width)
    rep.add("retract-sizes", " ".join(str(len(r)) for r in het.retracts))
    rep.add("symbols", len(het.algebra.signature.symbols))
    _emit(rep, het.algebra, args.out)
    return 0


def _cmd_pure(args, rep):
    alg = _load(args.algebra)
    report = is_pure(alg, budget=args.table_budget)
    rep.add("sorts", alg.n_sorts)
    rep.add("pure", "yes" if report.pure else "no")
    for s, t in report.missing():
        rep.add("missing", "%s->%s" % (alg.signature.sorts[s], alg.signature.sorts[t]))
    rep.add("verdict", "pass" if report.pure else "fail")
    return 0 if report.pure else 1


def _cmd_clone(args, rep):
    alg = _load(args.algebra)
    profiles = [_parse_profile(alg, p) for p in args.profile]
    frag = generate_fragment(alg, [p.inputs for p in profiles],
                             budget=args.table_budget, max_arity=args.max_arity)
    rep.add("complete", "yes" if frag.complete else "no")
    for text, prof in zip(args.profile, profiles):
        rep.add("profile %s" % text, "%d tables" % len(frag.matrices[prof]))
        if args.tables:
            for i, (row, term) in enumerate(zip(frag.matrices[prof].tolist(), frag.witnesses[prof])):
                rep.add("table %s #%d" % (text, i), _fmt_values(row))
                rep.add("term %s #%d" % (text, i), term_str(term))
    return 0


def _cmd_diag_find(args, rep):
    alg = _load(args.algebra)
    if not alg.is_single_sorted:
        raise ProfileError("diag-find needs a single-sorted algebra")
    pairs = find_diagonal_pairs(alg, args.width, budget=args.table_budget)
    rep.add("width", args.width)
    rep.add("pairs", len(pairs))
    for i, pair in enumerate(pairs):
        rep.add("pair %d d" % i, _fmt_values(pair.d.outputs))
        for s, e in enumerate(pair.es):
            rep.add("pair %d e%d" % (i, s), _fmt_values(e.outputs))
    rep.add("verdict", "pass" if pairs else "fail")
    return 0 if pairs else 1


def _cmd_diag_verify(args, rep):
    alg = _load(args.algebra)
    src, pair = _resolve_pair(alg, args)
    ver = verify_diagonal_pair(src, pair)
    status = _add_checks(rep, ver)
    if ver.ok:
        ident, grid = satisfies_diagonal_identity(src, pair.d)
        rep.add("diagonal-identity", "pass" if ident else "FAIL (grid %r)" % (grid,))
        if not ident:
            status = 1
    return status


def _cmd_matrix(args, rep):
    alg = _load(args.algebra)
    src, pair = _resolve_pair(alg, args)
    mp = matrix_product(src, pair)
    rep.add("slots", pair.width)
    rep.add("retract-sizes", " ".join(str(s) for s in mp.sizes))
    rep.add("carrier", mp.algebra.carriers[0])
    _emit(rep, mp.algebra, args.out)
    return 0


def _cmd_decompose(args, rep):
    alg = _load(args.algebra)
    check_nonnegative(args.lam, "lam")  # before _resolve_pair, as in roundtrip-nu
    src, pair = _resolve_pair(alg, args)
    rep.add("lam", args.lam)
    return _add_checks(rep, verify_decomposition(src, pair, args.lam,
                                                 budget=args.table_budget))


def _cmd_roundtrip_nu(args, rep):
    alg = _load(args.algebra)
    # before _resolve_pair, whose pair search or canonical pair generates fragments
    check_nonnegative(args.lam, "lam")
    check_inputs((0,) * min(args.lam, MAX_ARITY + 1))
    src, pair = _resolve_pair(alg, args)
    ver, psi = verify_nu_roundtrip(src, pair, lam=args.lam, budget=args.table_budget)
    rep.add("lam", args.lam)
    rep.add("psi", " ".join(str(x) for x in psi))
    return _add_checks(rep, ver)


def _cmd_roundtrip_mu(args, rep):
    alg = _load(args.algebra)
    ver = verify_mu_roundtrip(alg, lam=args.lam, budget=args.table_budget)
    rep.add("lam", args.lam)
    return _add_checks(rep, ver)


def _cmd_sub(args, rep):
    alg = _load(args.algebra)
    if args.gens is not None:
        gens = [set() for _ in range(alg.n_sorts)]
        if args.gens.strip():
            for part in args.gens.split(";"):
                name, sep, csv = part.partition("=")
                if not sep:
                    raise ProfileError("generator spec %r must look like u=0,1;w=" % part)
                elems = [int(x) for x in csv.split(",") if x.strip()]
                gens[alg.sort_index(name.strip())].update(elems)
        su = subalgebra_generate(alg, gens)
        rep.add("family", _fmt_family(alg, su))
        return 0
    subs = enumerate_subuniverses(alg)
    rep.add("count", len(subs))
    for i, su in enumerate(subs):
        rep.add("family %d" % i, _fmt_family(alg, su))
    return 0


def _cmd_con(args, rep):
    alg = _load(args.algebra)
    if args.pair:
        cong = congruence_generate(alg, _pairs_by_sort(alg, args.pair))
        rep.add("classes", _fmt_classes(alg, cong.classes))
        rep.add("blocks", " ".join(str(cong.block_count(s)) for s in range(alg.n_sorts)))
        return 0
    cons = enumerate_congruences(alg)
    rep.add("count", len(cons))
    for i, cong in enumerate(cons):
        rep.add("congruence %d" % i, _fmt_classes(alg, cong.classes))
    return 0


def _cmd_quotient(args, rep):
    alg = _load(args.algebra)
    if not args.pair:
        raise ProfileError("quotient needs at least one --pair SORT A B")
    cong = congruence_generate(alg, _pairs_by_sort(alg, args.pair))
    rep.add("classes", _fmt_classes(alg, cong.classes))
    q = quotient(alg, cong)
    rep.add("carriers", " ".join(str(n) for n in q.carriers))
    _emit(rep, q, args.out)
    return 0


def _cmd_product(args, rep):
    algs = [_load(a) for a in args.algebra]
    prod_alg = direct_product(algs)
    rep.add("factors", len(algs))
    rep.add("carriers", " ".join(str(n) for n in prod_alg.carriers))
    _emit(rep, prod_alg, args.out)
    return 0


def _cmd_transfer(args, rep):
    return _add_checks(rep, verify_sub_con_transfer(_load(args.algebra)))


def _cmd_inv(args, rep):
    alg = _load(args.algebra)
    rels = inv_enumerate(alg, args.mu)
    rep.add("mu", args.mu)
    rep.add("carrier", homogenize(alg).size)
    rep.add("count", len(rels))
    for i, r in enumerate(rels):
        rep.add("relation %d" % i, _fmt_tuples(r.tuples))
    return 0


def _cmd_pp(args, rep):
    alg = _load(args.algebra)
    h = homogenize(alg)
    relations = []
    conjuncts = []
    seen = {}
    by_arity = {}
    for spec in args.conjunct:
        bits = spec.split(":")
        if len(bits) != 3:
            raise ProfileError("conjunct %r must look like ARITY:INDEX:p0,p1" % spec)
        arity, index = int(bits[0]), int(bits[1])
        positions = tuple(int(x) for x in bits[2].split(",") if x.strip())
        key = (arity, index)
        if key not in seen:
            if arity not in by_arity:
                by_arity[arity] = inv_enumerate(alg, arity)
            rels = by_arity[arity]
            if not 0 <= index < len(rels):
                raise ProfileError("no relation %d at arity %d, %d exist"
                                   % (index, arity, len(rels)))
            seen[key] = len(relations)
            relations.append(rels[index])
        conjuncts.append((seen[key], positions))
    formula = PPFormula(args.mu, args.nu, tuple(conjuncts))
    result = pp_evaluate(relations, formula, h.size, verify_with=h.algebra)
    rep.add("free", args.mu)
    rep.add("bound", args.nu)
    for i, r in enumerate(relations):
        rep.add("relation %d" % i, _fmt_tuples(r.tuples))
    rep.add("result", _fmt_tuples(result.tuples))
    rep.add("result-size", len(result.tuples))
    return 0


def _cmd_inv_iso(args, rep):
    return _add_checks(rep, verify_inv_iso(_load(args.algebra), args.mu_max))


def _cmd_malcev(args, rep):
    alg = _load(args.algebra)
    found = True
    if args.mode in ("per_sort", "both"):
        wit = find_malcev_per_sort(alg, budget=args.table_budget)
        rep.add("per-sort", "found" if wit else "absent")
        if wit:
            for s, (t, term) in enumerate(zip(wit.tables, wit.terms)):
                rep.add("per-sort %s table" % alg.signature.sorts[s], _fmt_values(t.outputs))
                rep.add("per-sort %s term" % alg.signature.sorts[s], term_str(term))
        else:
            found = False
    if args.mode in ("homogenized", "both"):
        wit = find_malcev_homog(alg, budget=args.table_budget)
        rep.add("homogenized", "found" if wit else "absent")
        if wit:
            rep.add("homogenized table", _fmt_values(wit.tables[0].outputs))
            rep.add("homogenized term", term_str(wit.terms[0]))
        else:
            found = False
    rep.add("verdict", "pass" if found else "fail")
    return 0 if found else 1


def _cmd_jonsson(args, rep):
    alg = _load(args.algebra)
    found = True
    for mode in (("per_sort", "homogenized") if args.mode == "both" else (args.mode,)):
        chain = find_jonsson(alg, nmax=args.jonsson_max, mode=mode,
                             budget=args.table_budget)
        label = mode.replace("_", "-")
        if chain is None:
            rep.add(label, "absent up to n=%d" % args.jonsson_max)
            found = False
            continue
        rep.add(label, "found n=%d" % chain.n)
        for i, (step, terms) in enumerate(zip(chain.steps, chain.terms)):
            for s, (t, term) in enumerate(zip(step, terms)):
                slot = "sort %s" % alg.signature.sorts[s] if mode == "per_sort" else "product"
                rep.add("%s step %d %s table" % (label, i, slot), _fmt_values(t.outputs))
                rep.add("%s step %d %s term" % (label, i, slot), term_str(term))
    rep.add("verdict", "pass" if found else "fail")
    return 0 if found else 1


def _target(args):
    alg = _load(args.algebra)
    if args.homogenize:
        return homogenize(alg, max_arity=args.max_arity).algebra
    return alg


def _cmd_cp(args, rep):
    target = _target(args)
    result = check_cp_bruteforce(target)
    rep.add("congruences", result.congruences)
    rep.add("permutes", "yes" if result.ok else "no")
    if result.witness is not None:
        theta, eta, s, pair = result.witness
        rep.add("witness-theta", _fmt_classes(target, theta))
        rep.add("witness-eta", _fmt_classes(target, eta))
        rep.add("witness", "sort %s pair (%d,%d) joins one way only"
                % (target.signature.sorts[s], pair[0], pair[1]))
    rep.add("verdict", "pass" if result.ok else "fail")
    return 0 if result.ok else 1


def _cmd_cd(args, rep):
    target = _target(args)
    result = check_cd_bruteforce(target)
    rep.add("congruences", result.congruences)
    rep.add("distributes", "yes" if result.ok else "no")
    if result.witness is not None:
        theta, eta, delta, s, pair = result.witness
        for name, classes in (("theta", theta), ("eta", eta), ("delta", delta)):
            rep.add("witness-%s" % name, _fmt_classes(target, classes))
        rep.add("witness", "sort %s pair (%d,%d) separates the two sides"
                % (target.signature.sorts[s], pair[0], pair[1]))
    rep.add("verdict", "pass" if result.ok else "fail")
    return 0 if result.ok else 1


def _cmd_verify_all(args, rep):
    results = run_all()
    for r in results:
        verdict = "pass" if r.ok else "FAIL"
        if r.detail:
            verdict += " (%s)" % r.detail
        rep.add("criterion %d %s" % (r.index, r.name), verdict)
        rep.add("criterion %d time-s" % r.index,
                "0.000" if args.deterministic_timing else "%.3f" % r.elapsed)
    rep.add("criterion 9 determinism",
            "external: compare two runs of this command byte for byte")
    passed = sum(1 for r in results if r.ok)
    rep.add("summary", "%d/%d pass" % (passed, len(results)))
    return 0 if passed == len(results) else 1


# ------------------------------------------------------------ wiring

@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The msalg parser, built at the first main call of a process and
    shared by the later ones: parse_args leaves it unchanged."""
    return _build_parser()


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-arity", type=int, default=MAX_ARITY)
    common.add_argument("--table-budget", type=int, default=TABLE_BUDGET)
    common.add_argument("--jonsson-max", type=int, default=JONSSON_MAX)
    common.add_argument("--mu-max", type=int, default=MU_MAX)
    common.add_argument("--deterministic-timing", action="store_true",
                        help="zero all timing fields for byte-stable reports")

    pair_opts = argparse.ArgumentParser(add_help=False)
    pair_opts.add_argument("--d", help="symbol name for the collapsing table")
    pair_opts.add_argument("--e", help="comma-separated symbol names, one per slot")
    pair_opts.add_argument("--width", type=int, help="search width for diagonal pairs")
    pair_opts.add_argument("--pair-index", type=int, default=0)

    top = argparse.ArgumentParser(
        prog="msalg",
        description="finite many-sorted algebras, their single-sorted collapses, and the round trips between them")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def cmd(name, fn, parents=(), algebra=True, **kwargs):
        p = sub.add_parser(name, parents=[common, *parents], **kwargs)
        if algebra:
            p.add_argument("algebra", help="@corpus-name or path to an algebra file")
        p.set_defaults(fn=fn)
        return p

    p = cmd("homogenize", _cmd_homogenize, help="collapse onto the product carrier")
    p.add_argument("--out")
    p = cmd("heterogenize", _cmd_heterogenize, parents=[pair_opts],
            help="split along a diagonal pair")
    p.add_argument("--out")
    cmd("pure", _cmd_pure, help="check unary terms between all sort pairs")
    p = cmd("clone", _cmd_clone, help="generate term-operation fragments")
    p.add_argument("--profile", action="append", required=True,
                   help="like u,w->u; repeatable")
    p.add_argument("--tables", action="store_true")
    p = cmd("diag-find", _cmd_diag_find, help="list diagonal pairs of a width")
    p.add_argument("--width", type=int, required=True)
    cmd("diag-verify", _cmd_diag_verify, parents=[pair_opts],
        help="check the pair equations and the diagonal identity")
    p = cmd("matrix", _cmd_matrix, parents=[pair_opts],
            help="rebuild the algebra on the retract product")
    p.add_argument("--out")
    p = cmd("decompose", _cmd_decompose, parents=[pair_opts],
            help="verify the fragment transport onto the retract product")
    p.add_argument("--lam", type=int, default=2)
    p = cmd("roundtrip-nu", _cmd_roundtrip_nu, parents=[pair_opts],
            help="split then collapse, compare with the original")
    p.add_argument("--lam", type=int, default=2)
    p = cmd("roundtrip-mu", _cmd_roundtrip_mu,
            help="collapse then split, compare with the original")
    p.add_argument("--lam", type=int, default=2)
    p = cmd("sub", _cmd_sub, help="generate or enumerate closed families")
    p.add_argument("--gens", help="like u=0,1;w= (omit to enumerate)")
    p = cmd("con", _cmd_con, help="generate or enumerate congruences")
    p.add_argument("--pair", nargs=3, action="append", metavar=("SORT", "A", "B"))
    p = cmd("quotient", _cmd_quotient, help="factor by a generated congruence")
    p.add_argument("--pair", nargs=3, action="append", metavar=("SORT", "A", "B"))
    p.add_argument("--out")
    p = cmd("product", _cmd_product, algebra=False, help="direct product of factors")
    p.add_argument("algebra", nargs="+", help="one or more operands")
    p.add_argument("--out")
    cmd("transfer", _cmd_transfer,
        help="verify closed families and congruences move to the collapse")
    p = cmd("inv", _cmd_inv, help="enumerate invariant relations of the collapse")
    p.add_argument("--mu", type=int, required=True)
    p = cmd("pp", _cmd_pp, help="evaluate a primitive positive formula")
    p.add_argument("--mu", type=int, required=True, help="free positions")
    p.add_argument("--nu", type=int, default=0, help="bound positions")
    p.add_argument("--conjunct", action="append", required=True,
                   help="ARITY:INDEX:p0,p1,... naming an enumerated relation")
    cmd("inv-iso", _cmd_inv_iso,
        help="verify Inv of the collapse is the boxes of Sub(A^mu) up to --mu-max")
    p = cmd("malcev", _cmd_malcev, help="search for a Mal'cev witness")
    p.add_argument("--mode", choices=("per_sort", "homogenized", "both"),
                   default="both")
    p = cmd("jonsson", _cmd_jonsson, help="search for a chain witness")
    p.add_argument("--mode", choices=("per_sort", "homogenized", "both"),
                   default="both")
    p = cmd("cp", _cmd_cp, help="brute-force congruence permutability")
    p.add_argument("--homogenize", action="store_true")
    p = cmd("cd", _cmd_cd, help="brute-force congruence distributivity")
    p.add_argument("--homogenize", action="store_true")
    cmd("verify-all", _cmd_verify_all, algebra=False,
        help="run the whole acceptance battery on the shipped corpus")
    return top


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(argv)
    rep = Report()
    rep.add("command", "msalg " + " ".join(argv))
    rep.add("max-arity", args.max_arity)
    rep.add("table-budget", args.table_budget)
    rep.add("jonsson-max", args.jonsson_max)
    rep.add("mu-max", args.mu_max)
    started = time.perf_counter()
    try:
        status = args.fn(args, rep)
    except (FormatError, BudgetError, ProfileError, OSError) as exc:
        sys.stdout.write(rep.render())
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        sys.stdout.write(rep.render())
        msg = exc.args[0] if exc.args else exc
        print("error: %s" % msg, file=sys.stderr)
        return 2
    rep.add("elapsed-s", "0.000" if args.deterministic_timing
            else "%.3f" % (time.perf_counter() - started))
    sys.stdout.write(rep.render())
    return status


if __name__ == "__main__":
    sys.exit(main())
