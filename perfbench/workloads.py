"""The five workloads: inputs made from the seed, the operations that run
the program on them, and the checks of every output.

A workload is built in two steps.  `__init__` draws the inputs from the
seed and touches no program code.  `setup` receives the imported
`qperiod` package, does the work that counts as set-up (writing PD
files, computing invariants that are inputs, warming caches) and builds
`ops`: one round of zero-argument calls, each running the program once.
A run repeats the same round, so every round attempts the same
operations.  `check(i, out, round_outs)` checks the output of op i given
the other outputs of its round, and `key(i, out)` is a text that equals
another output's key only when the two outputs are the same, so each
distinct output is checked once.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random

import checks as C

PRIMES_TO_60 = [p for p in range(5, 60) if C.is_prime(p)]


class OpFailed(RuntimeError):
    """The program refused an operation or exited with an error code."""


def run_cli(cli, argv: list[str]) -> str:
    """Run `qperiod <argv>` in process and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"qperiod {' '.join(argv)} exited {code}")
    return buf.getvalue()


def random_letters(rng: random.Random, strands: int, length: int) -> list[int]:
    """A braid word of random generators and signs."""
    return [rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(length)]


def alternating_letters(rng: random.Random, strands: int, length: int) -> list[int]:
    """A braid word using every generator, with the sign of sigma_i set by
    the parity of i (flipped as a whole at random), so the closure is an
    alternating diagram.  Its Jones polynomial then has no cancellation
    and the work of a check depends on the word's shape, not on luck."""
    gens = list(range(1, strands)) + [rng.randint(1, strands - 1) for _ in range(length - strands + 1)]
    rng.shuffle(gens)
    flip = rng.choice((1, -1))
    return [g * flip * (1 if g % 2 else -1) for g in gens]


# ---------------------------------------------------------------------------


class ManifoldLevels:
    """tau, obstruct and ohtsuki for both Brieskorn spheres at every prime
    level below 60, plus discriminants over the headline sets, over the
    headline sets widened by two seeded small levels, and over the span."""

    name = "manifold_levels"
    MANIFOLDS = {"poincare": "poincare", "brieskorn237": "brieskorn_2_3_7"}
    HEADLINE = {"poincare": [7, 11, 13, 17], "brieskorn237": [11, 13, 17, 19]}

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        specs = []
        for cli_id in self.MANIFOLDS:
            for r in PRIMES_TO_60:
                specs.append(("tau", cli_id, r, rng.randint(1, 3)))
                specs.append(("obstruct", cli_id, r, None))
                specs.append(("ohtsuki", cli_id, r, None))
            head = self.HEADLINE[cli_id]
            small = [p for p in PRIMES_TO_60 if p <= 31 and p not in head]
            for kind, levels in (("headline", head), ("wider", head + rng.sample(small, 2)),
                                 ("span", PRIMES_TO_60)):
                levels = list(levels)
                rng.shuffle(levels)
                specs.append(("discriminant", cli_id, levels, kind))
        rng.shuffle(specs)
        self.specs = specs
        self.tau_index = {(s[1], s[2]): i for i, s in enumerate(specs) if s[0] == "tau"}
        self.ohtsuki_index = {(s[1], s[2]): i for i, s in enumerate(specs) if s[0] == "ohtsuki"}

    @staticmethod
    def argv(spec) -> list[str]:
        kind, cli_id, arg, extra = spec
        if kind == "discriminant":
            return [kind, "--manifold", cli_id, "--primes", ",".join(map(str, arg)), "--json"]
        argv = [kind, "--manifold", cli_id, "--r", str(arg)]
        if kind == "tau":
            argv += ["--depth", str(extra)]
        return argv + ["--json"]

    def setup(self, q) -> None:
        q.liedata.constants(q.liedata.build_root_system("A", 1))
        self.ops = [lambda a=self.argv(s): run_cli(q.cli, a) for s in self.specs]
        self._json: dict[str, dict] = {}

    def key(self, i: int, out) -> str:
        return out

    def _decode(self, text: str) -> dict:
        if text not in self._json:
            self._json[text] = json.loads(text)
        return self._json[text]

    def check(self, i: int, out, round_outs) -> None:
        kind, cli_id, arg, extra = self.specs[i]
        mid = self.MANIFOLDS[cli_id]
        obj = self._decode(out)
        C.require(obj["manifold"] == mid, f"op {i}: manifold {obj['manifold']!r}")
        if kind == "discriminant":
            C.check_discriminant(mid, int(obj["lifted"]), obj["factors"], extra == "headline")
            return
        r = arg
        C.require(obj["r"] == r, f"op {i}: r {obj['r']}")
        x = self._decode(round_outs[self.tau_index[cli_id, r]])["value"]["coeffs"]
        x = [int(c) for c in x]
        digits = [a for _, a in self._decode(round_outs[self.ohtsuki_index[cli_id, r]])["a"]]
        if kind == "tau":
            C.check_tau_value(mid, r, x)
            C.require(len(obj["a"]) == extra + 1, f"op {i}: {len(obj['a'])} rows for depth {extra}")
            C.check_rows(obj["a"], digits, f"tau {mid} r={r}")
        elif kind == "ohtsuki":
            C.check_rows(obj["a"], digits, f"ohtsuki {mid} r={r}")
            C.check_ohtsuki_digits(r, x, digits)
        else:
            C.check_obstruction(r, x, obj["admissible_v"], obj["verdict"])
            C.require(len(obj["a"]) == min(3, r - 2) + 1, f"op {i}: obstruct table length")
            C.check_rows(obj["a"], digits, f"obstruct {mid} r={r}")


class CoverCongruence:
    """quotient_congruence_test at each prime level 7..47, once for each
    manifold m' in {poincare, brieskorn_2_3_7, s3} with a seeded period
    p = +-1 (mod r), where the ideal is (p), and once with a seeded p of
    any other residue, where it is the unit ideal; m is seeded too.  The
    cost of an operation depends on m' (the invariant of s3 is 1, whose
    powers are sparse) and on the bit length of p, so every level takes
    each m' once per residue class and every p lies in [512, 1024)."""

    name = "cover_congruence"
    LEVELS = [p for p in range(7, 48) if C.is_prime(p)]
    MANIFOLDS = ("poincare", "brieskorn_2_3_7", "s3")

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        periods = [p for p in range(512, 1024) if C.is_prime(p)]
        specs = []
        for r in self.LEVELS:
            plus = [p for p in periods if p % r in (1, r - 1)]
            other = [p for p in periods if p % r not in (1, r - 1)]
            for mp in self.MANIFOLDS:
                for pool in (plus, other):
                    specs.append((rng.choice(self.MANIFOLDS), mp, rng.choice(pool), r))
        rng.shuffle(specs)
        self.specs = specs

    def setup(self, q) -> None:
        q.liedata.constants(q.liedata.build_root_system("A", 1))
        self.x = {(m, r): q.tau.tau_for(m, r).value for m in self.MANIFOLDS for r in self.LEVELS}
        self.ops = [
            lambda m=m, mp=mp, p=p, r=r: q.tau.quotient_congruence_test(self.x[m, r], self.x[mp, r], p, r)
            for m, mp, p, r in self.specs
        ]
        self._verified: set = set()

    def key(self, i: int, out) -> str:
        return repr(out)

    def _coeffs(self, m: str, r: int) -> list[int]:
        coeffs = list(self.x[m, r].coeffs)
        if (m, r) not in self._verified:
            if m == "s3":
                C.require(coeffs == [1] + [0] * (r - 2), f"tau(s3, {r}) is not 1")
            else:
                C.check_tau_value(m, r, coeffs)
            self._verified.add((m, r))
        return coeffs

    def check(self, i: int, out, round_outs) -> None:
        m, mp, p, r = self.specs[i]
        C.check_cover(self._coeffs(m, r), self._coeffs(mp, r), p, r, out)


class LinkBraid:
    """murasugi_check, p2_check and yokota_check_braid on seeded alternating
    braids of 2..6 strands and on their p-th powers, p in {2, 3, 5, 7}."""

    name = "link_braid"
    STRANDS = range(2, 7)
    PERIODS = (2, 3, 5, 7)
    LENGTHS = (6, 7)  # one braid of each per cell: odd and even writhe

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        specs = []
        for n in self.STRANDS:
            for p in self.PERIODS:
                for length in self.LENGTHS:
                    letters = alternating_letters(rng, n, length)
                    kinds = ("p2",) if p == 2 else ("p2", "murasugi", "yokota", "yokota_power")
                    specs += [(kind, n, tuple(letters), p) for kind in kinds]
        rng.shuffle(specs)
        self.specs = specs

    def setup(self, q) -> None:
        L = q.linkdiag
        ops = []
        for kind, n, letters, p in self.specs:
            b = L.BraidWord(n, letters)
            if kind == "p2":
                ops.append(lambda b=b, p=p: L.p2_check(b, p))
            elif kind == "murasugi":
                ops.append(lambda b=b, p=p: L.murasugi_check(b, p))
            elif kind == "yokota":
                ops.append(lambda b=b, p=p: L.yokota_check_braid(b, p))
            else:
                bp = L.BraidWord(n, letters * p)
                ops.append(lambda b=bp, p=p: L.yokota_check_braid(b, p))
        self.ops = ops

    def key(self, i: int, out) -> str:
        return repr((out.passed, out.p, out.lhs.terms, out.rhs.terms))

    def check(self, i: int, out, round_outs) -> None:
        kind, n, letters, p = self.specs[i]
        what = f"{kind} strands {n} : {' '.join(map(str, letters))} p={p}"
        C.require(out.p == p, f"{what}: p {out.p}")
        big = list(letters) * p
        if kind == "yokota":
            C.check_jones_at_one(out.lhs.terms, C.braid_components(n, letters), what)
            C.check_yokota(out.lhs.terms, C.braid_lk_doubled(n, letters), p, out.passed, what)
            return
        # closure(b^p) is p-periodic, so every criterion must pass on it
        C.require(out.passed is True, f"{what}: criterion failed on a p-periodic link")
        if kind == "murasugi":
            C.check_jones_at_one(out.lhs.terms, C.braid_components(n, big), what)
            small = (-2) ** (C.braid_components(n, letters) - 1)
            C.require(sum(c for _, c in out.rhs.terms) == small**p, f"{what}: rhs(1)")
        elif kind == "yokota_power":
            C.check_jones_at_one(out.lhs.terms, C.braid_components(n, big), what)
            C.check_yokota(out.lhs.terms, C.braid_lk_doubled(n, big), p, out.passed, what)


def pd_refused_shape(crossings, components) -> bool:
    """A two-arc component that only passes over: the PD format gives no
    orientation for it, and parse_pd refuses such a diagram."""
    under = {x[0] for x in crossings} | {x[2] for x in crossings}
    return any(len(comp) == 2 and not set(comp) & under for comp in components)


def relabelled_pd_text(crossings, components, rng: random.Random) -> str:
    """The same diagram with arcs renamed, crossings reordered and every
    component started at a random arc."""
    arcs = sorted({a for comp in components for a in comp})
    names = dict(zip(arcs, rng.sample(range(1, 4 * len(arcs) + 1), len(arcs))))
    xs = [tuple(names[a] for a in x) for x in crossings]
    rng.shuffle(xs)
    comps = []
    for comp in components:
        k = rng.randrange(len(comp))
        comps.append([names[a] for a in comp[k:] + comp[:k]])
    rng.shuffle(comps)
    lines = [f"X({a},{b},{c},{d})" for a, b, c, d in xs]
    lines += ["component " + " ".join(map(str, comp)) for comp in comps]
    return "\n".join(lines) + "\n"


class LinkPD:
    """`jones --pd` on two relabellings and `yokota --pd` on one, for PD
    files made from closures of seeded braids with 4..14 crossings, two
    braids per crossing count and six at c = 9, where the median
    operation lies, so the median is taken over many diagrams.  A braid
    whose closure has the shape parse_pd refuses is drawn again and
    counted in `excluded`."""

    name = "link_pd"
    CROSSINGS = [c for c in range(4, 15) for _ in range(2)] + [9] * 4

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.draws = self.excluded = 0

    def setup(self, q) -> None:
        L, rng = q.linkdiag, self.rng
        os.makedirs(self.workdir, exist_ok=True)
        self.braids, self.specs = [], []
        for c in self.CROSSINGS:
            n = 2 + c % 3  # fixed per c, so a diagram's arc count depends on c alone
            while True:
                letters = tuple(random_letters(rng, n, c))
                d = L.closure(L.BraidWord(n, letters))
                self.draws += 1
                if not pd_refused_shape(d.crossings, d.components):
                    break
                self.excluded += 1
            p = rng.choice((3, 5, 7))
            paths = []
            for tag in "ab":
                path = os.path.join(self.workdir, f"{len(self.braids)}c{c}{tag}.pd")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(relabelled_pd_text(d.crossings, [list(x) for x in d.components], rng))
                paths.append(path)
            b = len(self.braids)
            self.braids.append((n, letters))
            self.specs += [("jones", b, paths[0], None), ("jones", b, paths[1], None),
                           ("yokota", b, paths[0], p)]
        order = list(range(len(self.specs)))
        rng.shuffle(order)
        self.specs = [self.specs[i] for i in order]
        self.ops = []
        for kind, _, path, p in self.specs:
            argv = [kind, "--pd", path] + (["--p", str(p)] if p else []) + ["--json"]
            self.ops.append(lambda a=argv: run_cli(q.cli, a))
        self._transfer = {}
        self._linkdiag, self._qpoly = L, q.qpoly

    def key(self, i: int, out) -> str:
        return out

    def transfer_jones(self, b: int) -> list:
        """Jones terms of the source braid by the braid transfer path."""
        if b not in self._transfer:
            n, letters = self.braids[b]
            v = self._linkdiag.jones_of_braid(self._linkdiag.BraidWord(n, letters))
            self._transfer[b] = self._qpoly.poly_to_json(v)["terms"]
        return self._transfer[b]

    def check(self, i: int, out, round_outs) -> None:
        kind, b, path, p = self.specs[i]
        n, letters = self.braids[b]
        what = f"{kind} {os.path.basename(path)}"
        obj = json.loads(out)
        terms = obj["terms"] if kind == "jones" else obj["lhs"]["terms"]
        C.require(terms == self.transfer_jones(b), f"{what}: differs from the braid's transfer Jones")
        C.check_jones_at_one(terms, C.braid_components(n, letters), what)
        if kind == "yokota":
            C.check_yokota(terms, C.braid_lk_doubled(n, letters), p, obj["passed"], what)
        else:
            twins = [j for j, s in enumerate(self.specs) if s[0] == "jones" and s[1] == b and j != i]
            C.require(all(json.loads(round_outs[j]) == obj for j in twins),
                      f"{what}: Jones changed under relabelling")


class LieGauss:
    """gauss_report for every supported root system at each admissible
    prime level r < 50 with r^l <= 5000 cosets."""

    name = "lie_gauss"
    SYSTEMS = ([("A", l) for l in range(1, 7)] + [("B", l) for l in range(2, 6)]
               + [("C", l) for l in range(2, 6)] + [("D", 4), ("D", 5), ("F", 4), ("G", 2)])
    MAX_LEVEL = 50
    COSET_CAP = 5000

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self, q) -> None:
        LD = q.liedata
        specs = []
        for fam, rank in self.SYSTEMS:
            rs = LD.build_root_system(fam, rank)
            LD.constants(rs)
            specs += [(rs, r) for r in range(3, self.MAX_LEVEL)
                      if r**rank <= self.COSET_CAP and LD.admissible_r(rs, r)]
        self.rng.shuffle(specs)
        self.specs = specs
        self.ops = [lambda rs=rs, r=r: LD.gauss_report(rs, r) for rs, r in specs]

    def key(self, i: int, out) -> str:
        return repr((out.gamma.coeffs, out.ker_size, out.magnitude_ok, out.ratio_ok))

    def check(self, i: int, out, round_outs) -> None:
        rs, r = self.specs[i]
        C.require((out.family, out.rank, out.r) == (rs.family, rs.rank, r), f"op {i}: report identity")
        gram = [[rs.d[a] * rs.cartan[a][b] for b in range(rs.rank)] for a in range(rs.rank)]
        C.check_gauss(rs.rank, r, list(out.gamma.coeffs), gram, out.ker_size,
                      out.magnitude_ok, out.ratio_ok)


WORKLOADS = {w.name: w for w in (ManifoldLevels, CoverCongruence, LinkBraid, LinkPD, LieGauss)}
