"""Command-line surface and file schema.

Spec files are JSON with every rational as a canonical "p/q" string; no
floating point enters the pipeline.  Reports are emitted as canonical JSON
(sorted keys) and are byte-identical across runs apart from the timings
field, which is excluded from the triplet hash.

`main` is the one path from argv to output: it loads and parses the spec,
runs the command's handler, which only returns its report fields and exit
code, adds `command`, `name`, `triplet_hash` and `timings.seconds` (the
whole command), and writes the report, or maps the error to a JSON message
on stderr.  `gen` writes the spec it emits itself.

Exit codes: 0 success, 1 invariant violation, 2 parse/structural error
(error kind "parse") or unexpected error (kind "internal"), 3 violated
operation precondition (kind "precondition").
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction

from .exactla import ONE, SparseCols, dense, format_scalar, parse_scalar, rank, tight
from .generators import (
    gen_glblock,
    gen_principal,
    gen_symplectic,
    gen_with_trivial_summand,
    monomial_basis,
)
from .liecore import (
    FundamentalTriplet,
    LieAlgebraData,
    QuadraticForm,
    Refusal,
    Representation,
    StructureError,
    killing_rank_and_center_dim,
    validate,
)
from .localg import build_local, reduce_triplet
from .sl2 import PolyInvariant, complete_triple
from .tower import (
    NEGATIVE,
    POSITIVE,
    assemble,
    centralizer_graded,
    grow,
    grow_both,
    pairing_table,
    pn_check,
)


class SpecError(ValueError):
    """The spec file does not parse into a well-formed triplet."""


def degree_cap() -> int:
    """GLAW_MAX_DEGREE caps every degree budget; 8 when unset."""
    raw = os.environ.get("GLAW_MAX_DEGREE", "8")
    try:
        return int(raw)
    except ValueError:
        raise SpecError(f"GLAW_MAX_DEGREE must be an integer, got {raw!r}") from None


def _budget(args) -> int:
    """--max-degree (the cap when omitted), never above the cap."""
    cap = degree_cap()
    return cap if args.max_degree is None else min(args.max_degree, cap)


# ---------------------------------------------------------------------------
# TripletSpec schema


def _integer(value, what: str) -> int:
    """A JSON integer; bools, floats (1e400 included) and strings are refused."""
    if type(value) is not int:
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def _rows_cols(rows, n: int) -> SparseCols:
    """Rows of n rational strings as a sparse matrix, each integral value as
    an int; the mirror of ``_rows_text``."""
    cols = [[] for _ in range(n)]
    try:
        for p, row in enumerate(rows):
            for q, text in enumerate(row):
                x = parse_scalar(str(text))
                if x:
                    cols[q].append((p, tight(x)))
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    return SparseCols(len(rows), n, tuple(map(tuple, cols)))


def parse_triplet_spec(obj: dict) -> tuple[FundamentalTriplet, str, dict]:
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    try:
        name = str(obj.get("name", ""))
        dim_g0 = _integer(obj["dim_g0"], "dim_g0")
        dim_v = _integer(obj["dim_V"], "dim_V")
    except KeyError as exc:
        raise SpecError(f"missing or malformed header field: {exc}") from exc
    if dim_g0 < 1 or dim_v < 1:
        raise SpecError("dimensions must be positive")
    # shapes first: B0 and rho below have dim_g0^2 and dim_g0 * dim_V^2 entries
    gram_rows = obj.get("B0")
    if not (
        isinstance(gram_rows, list)
        and len(gram_rows) == dim_g0
        and all(isinstance(row, list) and len(row) == dim_g0 for row in gram_rows)
    ):
        raise SpecError("B0 must be a dense dim_g0 x dim_g0 matrix of rationals")
    rho_list = obj.get("rho")
    if not isinstance(rho_list, list) or len(rho_list) != dim_g0:
        raise SpecError("rho must list one dim_V x dim_V matrix per g0 basis element")
    for m in rho_list:
        square = isinstance(m, list) and len(m) == dim_v
        if not square or not all(isinstance(r, list) and len(r) == dim_v for r in m):
            raise SpecError("a rho matrix has the wrong shape")
    gram = _rows_cols(gram_rows, dim_g0).to_matrix()
    action = tuple(_rows_cols(m, dim_v) for m in rho_list)
    entries = obj.get("structure_constants", [])
    if not isinstance(entries, list):
        raise SpecError("structure_constants must be a list of [i, j, terms] entries")
    # [e_i, e_j] for i < j, summed over every entry naming the pair; an [j, i, terms] entry adds -terms
    sums: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[2], list)):
            raise SpecError(f"malformed structure constant entry {entry!r}")
        i, j = _integer(entry[0], "a structure index"), _integer(entry[1], "a structure index")
        if not (0 <= i < dim_g0 and 0 <= j < dim_g0):
            raise SpecError(f"structure constant indices ({i},{j}) out of range")
        if i == j:
            raise SpecError(f"structure constant entry ({i},{j}) brackets a basis element with itself")
        for term in entry[2]:
            if not (isinstance(term, list) and len(term) == 2):
                raise SpecError(f"malformed structure coefficient {term!r}")
            k = _integer(term[0], "a structure coefficient index")
            try:
                coeff = parse_scalar(str(term[1]))
            except ValueError as exc:
                raise SpecError(f"malformed structure coefficient {term!r}") from exc
            if not 0 <= k < dim_g0:
                raise SpecError(f"structure coefficient index {k} out of range")
            terms = sums.setdefault((min(i, j), max(i, j)), {})
            terms[k] = terms.get(k, 0) + (coeff if i < j else -coeff)
    pairs = [[()] * dim_g0 for _ in range(dim_g0)]
    for (i, j), terms in sums.items():
        pairs[i][j] = tuple(sorted((k, x) for k, x in terms.items() if x))
        pairs[j][i] = tuple((k, -x) for k, x in pairs[i][j])
    g0 = LieAlgebraData(dim_g0, tuple(map(tuple, pairs)))
    try:
        triplet = FundamentalTriplet(g0, QuadraticForm(gram), Representation(dim_v, action))
    except StructureError as exc:
        raise SpecError(str(exc)) from exc
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise SpecError("meta must be an object")
    return triplet, name, meta


def _rows_text(m: SparseCols) -> list[list[str]]:
    """The rows of a sparse matrix as rational strings, every zero as "0"."""
    rows = [["0"] * m.cols for _ in range(m.rows)]
    for q, col in enumerate(m.support):
        for p, x in col:
            rows[p][q] = format_scalar(x)
    return rows


def _structure_text(g: LieAlgebraData) -> list:
    """[i, j, [[k, "c"], ...]] for each nonzero [e_i, e_j] with i < j."""
    pairs = g.structure_pairs
    return [
        [i, j, [[k, format_scalar(c)] for k, c in pairs[i][j]]]
        for i in range(g.dim)
        for j in range(i + 1, g.dim)
        if pairs[i][j]
    ]


def emit_triplet_spec(t: FundamentalTriplet, name: str, meta: dict | None = None) -> dict:
    out = {
        "name": name,
        "dim_g0": t.dim_g0,
        "dim_V": t.dim_v,
        "structure_constants": _structure_text(t.g0),
        "B0": [[format_scalar(x) for x in row] for row in t.b0.gram.entries],
        "rho": [_rows_text(m) for m in t.rho.action_cols],
    }
    if meta:
        out["meta"] = meta
    return out


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def triplet_hash(t: FundamentalTriplet) -> str:
    payload = emit_triplet_spec(t, name="")
    payload.pop("name")
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def load_spec(path: str) -> dict:
    try:
        text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    except OSError as exc:
        raise SpecError(f"cannot read {path!r}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# command handlers: each maps (triplet, name, meta, args) to (report fields, exit code)


def cmd_validate(t: FundamentalTriplet, name: str, meta: dict, args) -> tuple[dict, int]:
    rep = validate(t)
    return {"ok": rep.ok, "violations": rep.violations}, 0 if rep.ok else 1


def cmd_grow(t: FundamentalTriplet, name: str, meta: dict, args) -> tuple[dict, int]:
    """`grow`, and `dims`, which leaves out the pairing ranks."""
    sides = [POSITIVE, NEGATIVE] if args.side == "both" else [args.side]
    budget = _budget(args)
    local = build_local(t)
    towers = {side: grow(local, side, budget) for side in sides}
    fields = {
        "max_degree": budget,
        "dims": {side: tw.dims() for side, tw in towers.items()},
        "terminated": {side: tw.terminated for side, tw in towers.items()},
    }
    if args.command == "grow" and len(towers) == 2:
        tp, tn = towers[POSITIVE], towers[NEGATIVE]
        top = min(tp.top_degree, tn.top_degree)
        fields["pairing_ranks"] = [rank(m) for m in pairing_table(tp, tn, top)] if top >= 1 else []
    return fields, 0


def cmd_pn_check(t: FundamentalTriplet, name: str, meta: dict, args) -> tuple[dict, int]:
    res = pn_check(build_local(t), args.n)
    witness = None
    if res.witness is not None:
        witness = {
            "dual_indices": list(res.witness[0]),
            "v_indices": list(res.witness[1]),
            "value": [format_scalar(x) for x in res.value],
        }
    return {"n": args.n, "holds": res.holds, "witness": witness}, 0


def _x_vector_from_args(t: FundamentalTriplet, meta: dict, args):
    if args.x_vector:
        coords = [parse_scalar(p) for p in args.x_vector.split(",")]
        if len(coords) != t.dim_v:
            raise SpecError("--x-vector length does not match dim_V")
        return tuple(coords)
    fam = meta.get("family")
    if fam != "symplectic":
        raise SpecError("--poly needs a spec generated by `gen sp` (monomial metadata); use --x-vector")
    n, p = _integer(meta.get("n"), "meta field n"), _integer(meta.get("p"), "meta field p")
    # there are at least n monomials when p >= 1, so n <= dim_V bounds the count (and the parse below)
    if not (1 <= n <= t.dim_v and p >= 1 and math.comb(n + p - 1, n - 1) == t.dim_v):
        raise SpecError(f"meta fields n={n}, p={p} do not give dim_V={t.dim_v} degree-p monomials in n variables")
    poly = PolyInvariant.from_string(args.poly, n)
    if not poly.is_homogeneous() or poly.degree() != p:
        raise SpecError(f"the polynomial must be homogeneous of degree {p}")
    mono = monomial_basis(n, p)
    return dense(((mono.index(e), c) for e, c in poly.terms), t.dim_v)


def cmd_sl2(t: FundamentalTriplet, name: str, meta: dict, args) -> tuple[dict, int]:
    if not (args.poly or args.x_vector):
        raise SpecError("one of --poly or --x-vector is required")
    # completion refuses with NoTriple (exit 3) unless (P) holds, so every report written has (P)
    cert = complete_triple(t, _x_vector_from_args(t, meta, args))
    certificate = {
        "x": [format_scalar(v) for v in cert.x],
        "h0": [format_scalar(v) for v in cert.h0],
        "y": [format_scalar(v) for v in cert.y],
        "residuals_zero": cert.ok,
    }
    return {"property_P": True, "certificate": certificate}, 0


def _sub_basis_from_args(t: FundamentalTriplet, meta: dict, spec: str):
    if spec.startswith("file:"):
        data = load_spec(spec[5:])
        n = t.dim_g0
        if not (isinstance(data, list) and all(isinstance(v, list) and len(v) == n for v in data)):
            raise SpecError(f"{spec}: expected a JSON list of g0 vectors, each a list of {n} rationals")
        return [tuple(parse_scalar(str(x)) for x in v) for v in data]
    if spec.replace(" ", "").startswith("o(") and spec.endswith(")"):
        if meta.get("family") != "symplectic":
            raise SpecError("o(n) needs a spec generated by `gen sp` (gl(n) basis metadata)")
        n = _integer(meta.get("n"), "meta field n")
        if n * n != t.dim_g0:
            raise SpecError(f"meta field n={n} does not match dim_g0={t.dim_g0}; g0 = gl(n) has dimension n^2")
        k = spec.replace(" ", "")[2:-1]
        if not (k.isdecimal() and int(k) == n):
            raise SpecError(f"{spec!r} is not o({n}), the orthogonal subalgebra of this spec's gl({n})")
        return [dense(((a * n + b, ONE), (b * n + a, -ONE)), n * n) for a in range(n) for b in range(a + 1, n)]
    raise SpecError(f"unknown subalgebra specifier {spec!r}; use o(n) or file:PATH")


def cmd_centralizer(t: FundamentalTriplet, name: str, meta: dict, args) -> tuple[dict, int]:
    sub = _sub_basis_from_args(t, meta, args.sub)
    local = build_local(t)
    budget = _budget(args)
    graded = sorted(centralizer_graded(*grow_both(local, budget), local, sub, budget).items())
    return {
        "sub_dim": len(sub),
        "dims": {str(d): len(v) for d, v in graded},
        "bases": {str(d): [[format_scalar(x) for x in vec] for vec in v] for d, v in graded},
    }, 0


def cmd_assemble(t: FundamentalTriplet, name: str, meta: dict, args) -> tuple[dict, int]:
    local = build_local(t)
    asm = assemble(*grow_both(local, _budget(args)), local)
    fields = {"dim": asm.algebra.dim, "degrees": list(asm.degrees)}
    fields["killing_rank"], fields["center_dim"] = killing_rank_and_center_dim(asm.algebra)
    if args.full:
        fields["structure_constants"] = _structure_text(asm.algebra)
    return fields, 0


def cmd_reduce(t: FundamentalTriplet, name: str, meta: dict, args) -> tuple[dict, int]:
    red = reduce_triplet(t, assert_completely_reducible=True)
    return {
        "v0_dim": len(red.v0),
        "kernel_dim": len(red.g0_kernel),
        "transitive_part": emit_triplet_spec(red.transitive_part, name=f"{name}:transitive"),
    }, 0


def cmd_gen(args) -> int:
    if args.family == "sp":
        lam = parse_scalar(args.lam)
        t = gen_symplectic(args.n, args.p, lam, args.form)
        name = args.name or f"sp{args.p}(C^{args.n},{args.form},{args.lam})"
        meta = {"family": "symplectic", "n": args.n, "p": args.p, "lambda": args.lam, "form": args.form}
    elif args.family == "glblock":
        l1, l2 = parse_scalar(args.lambda1), parse_scalar(args.lambda2)
        t = gen_glblock(args.n, l1, l2)
        name = args.name or f"glblock(n={args.n},{args.lambda1},{args.lambda2})"
        meta = {"family": "glblock", "n": args.n, "lambda1": args.lambda1, "lambda2": args.lambda2}
    elif args.family == "cartan":
        rows = [[int(x) for x in row.split(",")] for row in args.matrix.split(";")]
        sym = [parse_scalar(x) for x in args.symmetrizer.split(",")] if args.symmetrizer else None
        t = gen_principal(rows, sym)
        name = args.name or f"cartan({args.matrix})"
        meta = {"family": "cartan", "matrix": rows}
    else:  # trivial-summand, the last family the parser allows
        base, base_name, base_meta = parse_triplet_spec(load_spec(args.spec))
        t = gen_with_trivial_summand(base, args.k)
        name = args.name or f"{base_name}+trivial({args.k})"
        meta = dict(base_meta)
        meta["trivial_summand"] = args.k
    sys.stdout.write(canonical_json(emit_triplet_spec(t, name, meta)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """Usage errors raise SpecError, which main writes as a JSON parse error; subparsers inherit this."""

    def error(self, message):
        raise SpecError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="glaw",
        description="exact-arithmetic workbench for graded Lie algebras built from fundamental triplets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(command, fn, summary, degree=False, **kwargs):
        p = sub.add_parser(command, help=summary, **kwargs)
        p.add_argument("spec", help="path to a TripletSpec JSON file, or - for stdin")
        if degree:
            p.add_argument("--max-degree", type=int, dest="max_degree", help="capped by GLAW_MAX_DEGREE (default 8)")
        p.set_defaults(fn=fn)
        return p

    add_command("validate", cmd_validate, "check every triplet invariant")

    for command, summary in (
        ("grow", "grow the graded tower and report dims and pairing ranks"),
        ("dims", "grow and report the dimension table only"),
    ):
        p = add_command(command, cmd_grow, summary, degree=True)
        p.add_argument("--side", choices=["pos", "neg", "both"], default="both")

    p = add_command(
        "pn-check",
        cmd_pn_check,
        "test the universal degree-n vanishing identity",
        description="Evaluates the degree-n identity on all basis tuples. "
        "The scan takes dim(V)^(2n-3) (dim(V)-1) / 2 lowering steps (699,840 for "
        "dim(V) = 6 at n = 5), so n above 4 is only practical for module "
        "dimensions up to about 6.",
    )
    p.add_argument("--n", type=int, required=True)

    p = add_command("sl2", cmd_sl2, "property (P) test and triple completion for a candidate")
    p.add_argument("--poly", help="candidate as a polynomial (needs gen sp metadata)")
    p.add_argument("--x-vector", dest="x_vector", help="candidate as comma-separated coordinates")

    p = add_command("centralizer", cmd_centralizer, "graded centralizer of a g0 subalgebra", degree=True)
    p.add_argument("--sub", required=True, help="o(n) or file:PATH with a JSON list of g0 vectors")

    p = add_command("assemble", cmd_assemble, "assemble a terminated tower into structure constants", degree=True)
    p.add_argument("--full", action="store_true", help="include the full structure constants")

    add_command("reduce", cmd_reduce, "split off the trivial summand and the representation kernel")

    p = sub.add_parser("gen", help="emit a built-in triplet family as TripletSpec JSON")
    gsub = p.add_subparsers(dest="family", required=True)

    g = gsub.add_parser("sp", help="gl(n) on degree-p polynomials")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--lambda", dest="lam", required=True, help="center scale, a rational like 2 or 1/2")
    g.add_argument("--form", default="trace", choices=["trace", "sl-shifted", "g2"])
    g.add_argument("--name")

    g = gsub.add_parser("glblock", help="two gl(n) blocks on n x n matrices")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--lambda1", required=True)
    g.add_argument("--lambda2", required=True)
    g.add_argument("--name")

    g = gsub.add_parser("cartan", help="principal grading data of a symmetrizable matrix")
    g.add_argument("--matrix", required=True, help="rows separated by ';', entries by ','")
    g.add_argument("--symmetrizer", help="comma-separated positive rationals")
    g.add_argument("--name")

    g = gsub.add_parser("trivial-summand", help="append a zero-action summand to a spec")
    g.add_argument("spec")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--name")

    return parser


def main(argv=None) -> int:
    """Parse argv, run one command and write its report or its JSON error."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "gen":
            return cmd_gen(args)
        started = time.time()
        t, name, meta = parse_triplet_spec(load_spec(args.spec))
        fields, code = args.fn(t, name, meta, args)
        report = {"command": args.command, "name": name, "triplet_hash": triplet_hash(t), **fields}
        report["timings"] = {"seconds": round(time.time() - started, 6)}  # after every step above
        sys.stdout.write(canonical_json(report))
        return code
    except (SpecError, StructureError, ValueError) as exc:
        sys.stderr.write(canonical_json({"error": str(exc), "kind": "parse"}))
        return 2
    except Refusal as exc:
        hint = " (run `glaw reduce` first)" if "transitive" in str(exc) else ""
        sys.stderr.write(canonical_json({"error": str(exc) + hint, "kind": "precondition"}))
        return 3
    except Exception as exc:
        sys.stderr.write(canonical_json({"error": f"{type(exc).__name__}: {exc}", "kind": "internal"}))
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
