"""The three benchmark workloads: inputs from a seed, operations, checks.

A workload has two halves. `setup(seed)` builds everything the operations
need and is timed as set-up. `cycle(state, c)` returns the operations of
cycle c as groups; it runs outside the timed region, so fresh inputs can be
drawn for every cycle without their generation being timed. Cycle 0 is
generated as part of set-up. Every cycle has the same size mix, so a run
that completes whole cycles measures the same mix whatever its length.

A group is a few operations whose results are checked together. Only the
operation thunks are timed; `verify` runs afterwards and returns the
indices of the operations whose results are wrong. Each check uses a route
other than the timed one: the classical oracle, the identities of the
acceptance checks, or a byte-identical rerun.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from fractions import Fraction
from pathlib import Path
from random import Random

import hermsig.azumaya as azumaya
import hermsig.cli as cli
import hermsig.documents as documents
import hermsig.hermitian as hermitian
import hermsig.quadform as quadform
import hermsig.stepfun as stepfun
from hermsig.polynomials import Polynomial, format_polynomial
from hermsig.sper import Ring, TheOrdering

# Library calls go through module attributes, so that the traced run sees
# the calls the benchmark itself makes.

Q = Ring.rationals()
RX = Ring.polynomials()
ORD = TheOrdering()
X = Polynomial.x()


class Group:
    """Operations checked together: `ops` is a list of (label, thunk)."""

    __slots__ = ("ops", "verify")

    def __init__(self, ops, verify):
        self.ops = ops
        self.verify = verify


def _rng(seed: int, workload: str, c: int) -> Random:
    return Random(f"{workload}:{seed}:{c}")


# -- split-q -----------------------------------------------------------------

SPLIT_KINDS = ("rational", "gauss", "hamilton")
# M_4(H) is sized out entirely, the two largest models take rank-1 forms
# only, and pivot triples stop at algebra rank 18 (see design.json,
# "sized_out")
SPLIT_RANK_ONE = {("gauss", 4), ("hamilton", 3)}
SPLIT_PIVOT_MAX_RANK = 18


class SplitModel:
    __slots__ = ("algebra", "kind", "n", "scale", "ref")

    def __init__(self, kind: str, n: int):
        a = azumaya.split_model(Q, n, kind)
        a.validate()
        lam = azumaya.classify_at(a, ORD).divisor
        self.algebra = a
        self.kind = kind
        self.n = n
        # pairing signature = rank_Z * lambda^2 * s1 * s2
        self.scale = a.centre_rank * lam * lam
        self.ref = None
        if a.m <= SPLIT_PIVOT_MAX_RANK:
            self.ref = hermitian.find_reference_form(a)
            self.ref.ensure_certified()


def random_split_diagonal(a, rng: Random, rank: int):
    """Random diagonal form over a split model, as in acceptance check 02."""
    sd = a.split_data
    fib, n, mf = sd.fiber, sd.n, sd.fiber.m
    entries = []
    for _ in range(rank):
        vec = [Fraction(0)] * a.m
        for p in range(n):
            vec[(p * n + p) * mf] = Fraction(rng.randint(-3, 3))
        for p in range(n):
            for q in range(p + 1, n):
                coords = [Fraction(rng.randint(-2, 2)) for _ in range(mf)]
                for u, c in enumerate(coords):
                    vec[(p * n + q) * mf + u] = c
                for u, c in enumerate(fib.apply_involution(coords)):
                    vec[(q * n + p) * mf + u] = c
        entries.append(vec)
    return hermitian.HermitianForm.diagonal(a, entries)


class SplitQ:
    name = "split-q"

    def setup(self, seed: int):
        models = [
            SplitModel(kind, n)
            for kind in SPLIT_KINDS
            for n in (1, 2, 3, 4)
            if (kind, n) != ("hamilton", 4)
        ]
        return {"seed": seed, "models": models}

    def cycle(self, state, c: int):
        rng = _rng(state["seed"], self.name, c)
        groups = []
        for sm in state["models"]:
            a = sm.algebra
            # ranks are fixed per slot, so that the seed changes entries only
            h1 = random_split_diagonal(a, rng, 1)
            h2 = random_split_diagonal(a, rng, 1 if (sm.kind, sm.n) in SPLIT_RANK_ONE else 2)
            s1 = hermitian.classical_signature_oracle(h1)
            s2 = hermitian.classical_signature_oracle(h2)
            groups.append(_pair_group(h1, h2, sm.scale * s1 * s2, abs(s2)))
            if sm.ref is not None:
                h3, h4, h5 = (random_split_diagonal(a, rng, 1) for _ in range(3))
                groups.append(_pivot_group(h3, h4, h5, sm.ref))
        return groups


def _pair_group(h1, h2, want_pair: int, want_abs: int) -> Group:
    ops = [
        ("star_signature", lambda: hermitian.star_signature(h1, h2, ORD)),
        ("abs_signature_at", lambda: hermitian.abs_signature_at(h2, ORD)),
    ]

    def verify(results):
        return [i for i, want in enumerate((want_pair, want_abs)) if results[i] != want]

    return Group(ops, verify)


def _pivot_group(h1, h2, h3, ref) -> Group:
    # acceptance check 10: eta(star(h1, h2) h3) = eta(star(h3, h2) h1)
    lhs = hermitian.quad_tensor(hermitian.star(h1, h2), h3)
    rhs = hermitian.quad_tensor(hermitian.star(h3, h2), h1)
    ops = [
        ("total_eta_signature", lambda: hermitian.total_eta_signature(lhs, ref)),
        ("total_eta_signature", lambda: hermitian.total_eta_signature(rhs, ref)),
    ]
    return Group(ops, lambda results: [] if results[0] == results[1] else [1])


# -- line-eta ----------------------------------------------------------------

LINE_SAMPLES = ("m2", "quat-x", "gauss-x")
LINE_SPLIT = (
    (1, "rational", 3),
    (1, "gauss", 3),
    (1, "hamilton", 3),
    (2, "rational", 3),
    (2, "gauss", 3),
    (2, "hamilton", 1),
)
LINE_TERMS = 2


class LineAlgebra:
    __slots__ = ("algebra", "degrees", "ref", "twist")

    def __init__(self, algebra, degrees: "tuple[int, int]"):
        algebra.validate()
        self.algebra = algebra
        self.degrees = degrees
        self.ref = hermitian.find_reference_form(algebra)
        self.ref.ensure_certified()
        ring = algebra.ring
        self.twist = quadform.QuadraticForm.diagonal(ring, [ring.coerce(2), ring.coerce(-3)])


def random_polynomial(rng: Random, degree: int) -> Polynomial:
    """c (x - r_1) ... (x - r_d) with distinct integer roots in [-4, 4].

    The number of real roots is the degree, so the seed moves the roots but
    not how many breakpoints they make.
    """
    p = Polynomial((rng.choice((-2, -1, 1, 2)),))
    for r in rng.sample(range(-4, 5), degree):
        p = p * (X - Polynomial((r,)))
    return p


def random_line_probe(a, rng: Random, degree: int, first: int):
    """Rank-1 diagonal form: LINE_TERMS symmetric basis elements from index
    `first` on, the first with a random polynomial coefficient of the given
    degree, the others with random nonzero constants."""
    sym = a.symmetric_element_basis()
    ring = a.ring
    picks = [(first + t) % len(sym) for t in range(min(LINE_TERMS, len(sym)))]
    v = [ring.zero] * a.m
    for t, i in enumerate(picks):
        c = random_polynomial(rng, degree) if t == 0 else rng.choice((-2, -1, 1, 2))
        c = ring.coerce(c)
        v = [e + c * b for e, b in zip(v, sym[i])]
    return hermitian.HermitianForm.diagonal(a, [v])


class LineEta:
    name = "line-eta"

    def setup(self, seed: int):
        algebras = [
            documents.load_algebra(documents.read_document(f"sample:{s}.alg")) for s in LINE_SAMPLES
        ]
        algebras += [azumaya.split_model(RX, n, kind) for n, kind, _ in LINE_SPLIT]
        max_degrees = [3] * len(LINE_SAMPLES) + [deg for _, _, deg in LINE_SPLIT]
        # the two probes of algebra i have degrees 1 + i mod 3 and 1 + (i + 1) mod 3
        algebras = [
            LineAlgebra(a, (1 + i % top, 1 + (i + 1) % top))
            for i, (a, top) in enumerate(zip(algebras, max_degrees))
        ]
        return {"seed": seed, "algebras": algebras}

    def cycle(self, state, c: int):
        rng = _rng(state["seed"], self.name, c)
        groups = []
        for la in state["algebras"]:
            h1 = random_line_probe(la.algebra, rng, la.degrees[0], 0)
            h2 = random_line_probe(la.algebra, rng, la.degrees[1], 1)
            groups.append(_eta_group(la, h1, h2))
        return groups


def _eta_group(la: LineAlgebra, h1, h2) -> Group:
    # acceptance check 07: additivity, twist multiplicativity, continuity
    ref, q = la.ref, la.twist
    total = hermitian.total_eta_signature
    hsum = h1.direct_sum(h2)
    htwist = hermitian.quad_tensor(q, h1)
    nonsingular = (h1.is_nonsingular(), h2.is_nonsingular())
    ops = [
        ("total_eta_signature", lambda: total(h1, ref)),
        ("total_eta_signature", lambda: total(h2, ref)),
        ("total_eta_signature", lambda: total(hsum, ref)),
        ("total_eta_signature", lambda: total(htwist, ref)),
    ]

    def verify(results):
        e1, e2, es, et = results
        bad = set()
        if es != stepfun.step_combine([e1, e2], sum):
            bad.add(2)
        qsig = quadform.total_signature(q)
        if et != stepfun.step_combine([qsig, e1], lambda v: v[0] * v[1]):
            bad.add(3)
        # nonsingular forms have locally constant signatures
        flags = (nonsingular[0], nonsingular[1], all(nonsingular), nonsingular[0])
        for i, (flag, e) in enumerate(zip(flags, results)):
            if flag and stepfun.continuity_failures(e):
                bad.add(i)
        return sorted(bad)

    return Group(ops, verify)


# -- cli-cold ----------------------------------------------------------------

# quick queries beside a few costly commands, 34 commands a cycle, so that
# three cycles reach the 100 operations a run needs; the median falls among
# the star commands rather than between two kinds of command
CLI_SIGNATURES = 12
CLI_CLASSIFY_QUATERNIONS = 4
CLI_STARS = 11


def _polynomial_text(e) -> str:
    return format_polynomial(e.as_polynomial())


def twisted_split_document(kind: str, label: str) -> str:
    """M_2(D) over Q[x][1/x] with involution twisted by psi = diag(1, x).

    The twisted involution has 1/x among its coordinates, which documents
    cannot carry, so the (2,1) block of the basis is rescaled by x; over
    Q[x][1/x] that is a change of basis.
    """
    ring = Ring.localized(X)
    mf = azumaya.fiber_presentation(ring, kind).m
    one = [1] + [0] * (mf - 1)
    psi = [[one, [0] * mf], [[0] * mf, [X] + [0] * (mf - 1)]]
    a = azumaya.split_model(ring, 2, kind, psi)
    xr = ring.coerce(X)
    scale = [xr if i // mf == 2 else ring.one for i in range(a.m)]
    lines = [f"ring {ring}", f"rank {a.m}", f"label {label}"]
    for i, u in enumerate(a.unit):
        if u:
            lines.append(f"unit {i} = {_polynomial_text(u / scale[i])}")
    for j, col in enumerate(a.invol_cols):
        for i, v in col:
            if v:
                lines.append(f"sigma {i} {j} = {_polynomial_text(v * scale[j] / scale[i])}")
    for i, row in enumerate(a.mul):
        for j, cell in enumerate(row):
            for k, v in cell:
                if v:
                    w = v * scale[i] * scale[j] / scale[k]
                    lines.append(f"gamma {i} {j} {k} = {_polynomial_text(w)}")
    return "\n".join(lines) + "\n"


def _random_half_space(rng: Random, upward: bool) -> tuple[str, Fraction]:
    r = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
    p = X - Polynomial((r,)) if upward else Polynomial((r,)) - X
    return f"H({format_polynomial(p)})", r


class CliCold:
    name = "cli-cold"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int):
        work = self.workdir
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        docs = {
            "twisted-q": twisted_split_document("rational", "m2q-psi"),
            "twisted-qi": twisted_split_document("gauss", "m2qi-psi"),
            "m2": documents.format_algebra(azumaya.matrix_algebra(RX, 2)),
        }
        paths = {}
        for name, text in docs.items():
            path = work / f"{name}.alg"
            path.write_text(text)
            # every generated algebra must load and validate
            documents.load_algebra(documents.read_document(str(path))).validate()
            paths[name] = str(path)
        twisted = documents.load_algebra(docs["twisted-q"])
        return {"seed": seed, "paths": paths, "twisted": twisted}

    def cycle(self, state, c: int):
        rng = _rng(state["seed"], self.name, c)
        work = self.workdir
        paths = state["paths"]
        alg_q, alg_qi = paths["twisted-q"], paths["twisted-qi"]
        twisted = state["twisted"]

        def write(name: str, text: str) -> str:
            path = work / f"c{c}-{name}"
            path.write_text(text)
            return str(path)

        ops = []  # (argv, expected exit code, written files)
        ops.append((["classify", "--algebra", alg_q], 0, ()))
        ops.append((["classify", "--algebra", alg_qi], 0, ()))
        for k in range(CLI_CLASSIFY_QUATERNIONS):
            # (p(x), b) is Azumaya over Q[x][1/p]
            p = random_polynomial(rng, 1 + k % 2)
            a = azumaya.quaternion_algebra(Ring.localized(p), p, rng.choice((-1, -2, 3)))
            path = write(f"quat{k}.alg", documents.format_algebra(a))
            ops.append((["classify", "--algebra", path], 0, ()))
        ref_path = str(work / f"c{c}-ref.hf")
        ops.append((["reference", "--algebra", alg_q, "--out", ref_path], 0, (ref_path,)))
        # the twisted Gaussian model has no reference within the default budget
        ops.append((["reference", "--algebra", alg_qi, "--out", str(work / f"c{c}-none.hf")], 4, ()))
        forms = []
        for k in range(1 + CLI_STARS):
            h = random_line_probe(twisted, rng, 1, k)
            forms.append(write(f"h{k}.hf", documents.format_hermitian(h)))
        ops.append((["hsign", "--algebra", alg_q, "--form", forms[0], "--eta", ref_path, "--total"], 0, ()))
        for k in range(CLI_STARS):
            out = str(work / f"c{c}-star{k}.qf")
            argv = ["star", "--algebra", alg_q, "--form1", forms[k], "--form2", forms[k + 1], "--out", out]
            ops.append((argv, 0, (out,)))
        for k in range(CLI_SIGNATURES):
            dim = 2 + k % 2
            q = quadform.QuadraticForm.diagonal(
                RX, [random_polynomial(rng, 1 + (k + j) % 3) for j in range(dim)]
            )
            path = write(f"q{k}.qf", documents.format_quadratic(q))
            plot = str(work / f"c{c}-q{k}.svg")
            ops.append((["signature", "--form", path, "--total", "--plot", plot], 0, (plot,)))
        one, _ = _random_half_space(rng, c % 2 == 0)
        lo_text, lo = _random_half_space(rng, False)
        hi_text, hi = _random_half_space(rng, True)
        if hi <= lo:
            hi = lo + 1
            hi_text = f"H({format_polynomial(X - Polynomial((hi,)))})"
        # the union of x <= lo and x >= hi with lo < hi is neither open nor closed
        for expr in (one, f"{lo_text} or {hi_text}"):
            plot = str(work / f"c{c}-demo{len(ops)}.svg")
            argv = ["demo-discontinuity", "--algebra", paths["m2"], "--set", expr, "--plot", plot]
            ops.append((argv, 0, (plot,)))
        return [_cli_group(argv, code, files) for argv, code, files in ops]


def run_cli(argv, files):
    """One in-process command: exit code, stdout, stderr, written files."""
    out, err = io.StringIO(), io.StringIO()
    for f in files:
        with contextlib.suppress(FileNotFoundError):
            os.remove(f)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = tuple(Path(f).read_bytes() for f in files if code == 0)
    return code, out.getvalue(), err.getvalue(), written


def _cli_group(argv, expected: int, files) -> Group:
    def verify(results):
        first = results[0]
        if first[0] != expected:
            return [0]
        if run_cli(argv, files) != first:
            return [0]
        if argv[0] == "reference" and expected == 0:
            _reverify_reference(argv, files[0], first[1])
        return []

    return Group([(argv[0], lambda: run_cli(argv, files))], verify)


def _reverify_reference(argv, path: str, stdout: str) -> None:
    """Reload a written reference and certify it again from scratch."""
    algebra = documents.load_algebra(documents.read_document(argv[argv.index("--algebra") + 1]))
    form = documents.load_hermitian(documents.read_document(path), algebra)
    constant = int(stdout.split("constant ")[1].split()[0])
    ref = hermitian.ReferenceForm(
        form, hermitian.star_total(form, form), constant=constant
    )
    ref.verify()


def make(name: str, workdir: Path):
    if name == "split-q":
        return SplitQ()
    if name == "line-eta":
        return LineEta()
    if name == "cli-cold":
        return CliCold(workdir)
    raise ValueError(f"unknown workload {name!r}")
