"""The four benchmark workloads: inputs, items, and per-item checks.

A workload builds its inputs from a seed, lists its items in a fixed
order, and checks each item's output twice over: invariants that hold
for any seed, and, for the default seed, the answers recorded in
`reference/<workload>.json` from the code the benchmark was defined on.

Workload code calls the library through module attributes (`cg.tensor2`,
never a name imported at load time), so the tracer's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import capgames as cg
import capgames.cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 7
HALF = Fraction(1, 2)
GRID3 = (Fraction(0), HALF, Fraction(1))


def letters(count: int, start: str = "a") -> cg.Domain:
    return cg.Domain(tuple(chr(ord(start) + k) for k in range(count)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_digest(values) -> str:
    return sha256(",".join(cg.format_rational(v) for v in values))


class Workload:
    """Inputs, items and checks of one workload.

    `items(inputs)` returns `(item_id, thunk)` pairs; the benchmark times
    each thunk and hands its output to `check`. `answer` returns an
    invariant violation (or None) and a JSON-able digest of the output.
    """

    name = ""
    seeded = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.reference = None
        if not self.seeded or seed == DEFAULT_SEED:
            path = REFERENCE_DIR / f"{self.name}.json"
            if path.exists():
                self.reference = json.loads(path.read_text())["answers"]
        self.inputs = None

    def setup(self) -> None:
        self.inputs = self.make_inputs()

    def make_inputs(self):
        raise NotImplementedError

    def fresh_inputs(self):
        """Inputs for a later pass, rebuilt so that no cache built by an
        earlier pass (games memoize slices) changes the work done."""
        return self.make_inputs()

    def items(self, inputs, in_process: bool = False):
        raise NotImplementedError

    def answer(self, item_id: str, out):
        raise NotImplementedError

    def check(self, item_id: str, out) -> str | None:
        problem, digest = self.answer(item_id, out)
        if problem:
            return problem
        if self.reference is not None and self.reference.get(item_id) != digest:
            return "output differs from the recorded reference answer"
        return None


# --------------------------------------------------------------- eq-supports

# Games per size class: about 0.4 of the counts among criterion 07's 200
# games (seed 7), so that every seed does the same kind of work and a pass
# takes about 2 s. Each class spans its own cost band, from about 1 ms
# (2x2) to over 200 ms (3x3x3); the median falls among the 3x3 and 2x2x2
# games and the 90th percentile among the 3-player games with two or more
# 3-strategy players.
EQ_QUOTAS = {
    (2, 2): 10, (2, 3): 12, (3, 2): 8, (3, 3): 13,
    (2, 2, 2): 6, (2, 2, 3): 4, (2, 3, 2): 4, (3, 2, 2): 4,
    (3, 3, 2): 5, (2, 3, 3): 2, (3, 2, 3): 2, (3, 3, 3): 2,
}
MAX_DRAWS = 100_000


class EqSupports(Workload):
    """Support-profile equilibrium scan plus pure Nash, one game per item."""

    name = "eq-supports"

    def make_inputs(self):
        # Criterion 07's recipe: one stream, per game a player count, the
        # strategy counts, then the payoffs. Games of a full class are
        # drawn and skipped, so the stream itself never changes.
        rng = cg.SplitMix64(self.seed)
        left = dict(EQ_QUOTAS)
        games = []
        for k in range(MAX_DRAWS):
            n = 2 + rng.below(2)
            sizes = tuple(2 + rng.below(2) for _ in range(n))
            game = cg.random_game(rng, sizes)
            if left[sizes]:
                left[sizes] -= 1
                games.append((f"game-{k:03d}", game))
                if not any(left.values()):
                    return games
        raise RuntimeError(f"size quotas not filled after {MAX_DRAWS} games")

    def items(self, inputs, in_process=False):
        def solve(game):
            return lambda: (cg.find_equilibria_supports(game), cg.pure_nash(game))
        return [(item_id, solve(game)) for item_id, game in inputs]

    def answer(self, item_id, out):
        hits, nash = out
        singles = sorted(p.labels for p, _ in hits
                         if all(m & (m - 1) == 0 for m in p.masks))
        pure = sorted(tuple((lab,) for lab in prof) for prof in nash)
        digest = {"hits": [list(p.masks) for p, _ in hits],
                  "nash": [list(prof) for prof in nash]}
        if singles != pure:
            return "singleton support hits differ from pure_nash", digest
        if not all(cert.holds for _, cert in hits):
            return "a reported hit's certificate does not hold", digest
        return None, digest


# ------------------------------------------------------------- dense-beliefs

# Factor sizes of the capacity pairs and grid-game sizes, fixed so that
# only values vary with the seed. Most products have 10 or 12 points, a
# few 8 or 9. An item's cost moves by up to 2x with the values, so each
# percentile sits in the middle of a group of like items, away from the
# cost gap between two groups: of the 60 items, the median among the 12
# 5x2 10-point products (cost ranks 25-36), the 90th percentile among the
# 12 2x3 and 3x2 grid searches (ranks 49-60), above the 12 12-point
# products. 3x3 grids are left out: one takes 3 s over the {0,1/2,1} grid.
PAIR_SIZES = (((2, 4), (4, 2), (3, 3)) * 2 + ((2, 5), (5, 2), (5, 2)) * 6
              + ((3, 4), (4, 3)) * 6)
GRID_SIZES = ((2, 2),) * 12 + ((2, 3), (3, 2)) * 6


def is_possibility(cap) -> int:
    """Support mask if the capacity is a possibility capacity, else 0."""
    dom = cap.domain
    support = sum(1 << k for k in range(dom.size) if cap.value_mask(1 << k) == 1)
    for mask in range(1, dom.subset_count):
        if cap.value_mask(mask) != (1 if mask & support else 0):
            return 0
    return support


class DenseBeliefs(Workload):
    """Dense tensor products with marginals and an integral, then grid
    equilibrium searches over dense beliefs."""

    name = "dense-beliefs"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.supports = {}

    def make_inputs(self):
        rng = cg.SplitMix64(self.seed)
        pairs = []
        for m, k in PAIR_SIZES:
            left = cg.random_capacity(letters(m), rng)
            right = cg.random_capacity(letters(k, "p"), rng)
            flat = cg.product_domain([left.domain, right.domain]).flat
            pairs.append((left, right, cg.random_payoff_function(flat, rng)))
        games = [cg.random_game(rng, sizes) for sizes in GRID_SIZES]
        return pairs, games, cg.default_correction()

    def items(self, inputs, in_process=False):
        pairs, games, psi = inputs

        def product(left, right, func):
            def run():
                prod = cg.tensor2(left, right)
                pd = cg.product_domain([left.domain, right.domain])
                return (prod, cg.marginal(prod, pd, 0), cg.marginal(prod, pd, 1),
                        cg.sugeno_integral(func, prod, psi), left, right, func)
            return run

        def grid(game):
            return lambda: (cg.find_equilibria_grid(game, GRID3), game)

        out = [(f"pair-{k:02d}", product(*p)) for k, p in enumerate(pairs)]
        out += [(f"grid-{k:02d}", grid(g)) for k, g in enumerate(games)]
        return out

    def answer(self, item_id, out):
        if item_id.startswith("pair-"):
            prod, m0, m1, value, left, right, func = out
            digest = {"product": table_digest(prod.values),
                      "integral": cg.format_rational(value)}
            if m0 != left or m1 != right:
                return "marginals do not recover the factors", digest
            if not func.minimum <= value <= func.maximum:
                return "integral outside [min f, max f]", digest
            return None, digest
        systems, game = out
        digest = {"systems": len(systems),
                  "values": sha256(";".join(table_digest(
                      [v for b in s.beliefs for v in b.values]) for s in systems))}
        # The {0,1}-valued possibility systems among the grid equilibria
        # are exactly the support-scan hits (criterion 09, any size).
        possible = set()
        for s in systems:
            b0, b1 = s.beliefs
            s1, s0 = is_possibility(b0), is_possibility(b1)
            if s0 and s1:
                possible.add((s0, s1))
        if item_id not in self.supports:  # every pass has the same games
            self.supports[item_id] = {
                p.masks for p, _ in cg.find_equilibria_supports(game)}
        if possible != self.supports[item_id]:
            return "possibility grid equilibria differ from support hits", digest
        return None, digest


# ----------------------------------------------------------------- convexity

# (item id, domain size, grid): criteria 05/06's three spaces. The 3-point
# {0, 1/2, 1} space has 129 capacities; its scans run on the 59 with value
# at most 1/2 on {a, b}, since check_binarity alone takes 32 s on all 129,
# beyond a run. That subset is the order interval below one capacity, a
# sublattice, so the binarity scan's closure argument holds on it.
SPACES = (("d2-g01", 2, (0, 1)), ("d2-g3", 2, GRID3), ("d3-g3", 3, GRID3))


class Convexity(Workload):
    """Exhaustive enumeration, binarity and pair-separation scans."""

    name = "convexity"
    seeded = False

    def make_inputs(self):
        return SPACES

    def items(self, inputs, in_process=False):
        def scan(size, grid):
            def run():
                full = space = cg.enumerate_capacities(letters(size), grid)
                if size == 3 and len(grid) == 3:
                    ab = space.domain.mask_of(("a", "b"))
                    space = cg.GridCapacitySpace(
                        space.domain, space.grid,
                        tuple(c for c in space.capacities if c.values[ab] <= HALF))
                return len(full), space, cg.check_binarity(space), cg.check_t2(space)
            return run
        return [(item_id, scan(size, grid)) for item_id, size, grid in inputs]

    def answer(self, item_id, out):
        enumerated, space, binarity, t2 = out
        n = len(space)
        digest = {"enumerated": enumerated,
                  "scanned": n,
                  "intervals": binarity.interval_count,
                  "linked_pairs": binarity.linked_pairs,
                  "triples_checked": binarity.triples_checked,
                  "t2_pairs": t2.pairs_checked}
        if t2.pairs_checked != n * (n - 1) // 2:
            return "check_t2 did not scan every distinct pair", digest
        if not binarity.passed:
            return f"binarity failed: {binarity.failures[:3]}", digest
        if not t2.passed:
            return f"pair separation failed: {t2.failures[:3]}", digest
        return None, digest


# ----------------------------------------------------------------------- cli

STAMP = re.compile(r'"generated_at": "[^"]*"')


def stable_text(path: Path) -> str:
    return STAMP.sub('"generated_at": "-"', path.read_text(encoding="utf-8"))


class Cli(Workload):
    """A fixed sequence of `python -m capgames.cli` commands, one process
    at a time, on input files written at setup."""

    name = "cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.expected = None

    def make_inputs(self):
        rng = cg.SplitMix64(self.seed)
        files = {}

        def write(name, text):
            (self.workdir / name).write_text(text, encoding="utf-8")
            files[name] = text

        for size in (4, 5):
            dom = letters(size)
            write(f"cap{size}.json", cg.serialize_capacity(cg.random_capacity(dom, rng)))
            write(f"fun{size}.json",
                  cg.serialize_function(cg.random_payoff_function(dom, rng)))
        left, right = letters(3), letters(4, "p")
        write("left.json", cg.serialize_capacity(cg.random_capacity(left, rng)))
        write("right.json", cg.serialize_capacity(cg.random_capacity(right, rng)))
        flat = cg.product_domain([left, right]).flat
        write("fprod.json", cg.serialize_function(cg.random_payoff_function(flat, rng)))
        for k, sizes in enumerate(((2, 2), (2, 3), (3, 3), (2, 2, 2))):
            game = cg.random_game(rng, sizes)
            write(f"game{k}.json", cg.serialize_game(game))
            opp = cg.opponent_domain(game, 0).flat
            write(f"belief{k}.json", cg.serialize_capacity(cg.random_capacity(opp, rng)))
        # A 2x2 game without a support-profile equilibrium, so that `solve`
        # also takes its exit-1 path.
        write("empty.json", cg.serialize_game(cg.GameSpec.from_nested(
            [letters(2), letters(2)],
            [[[-2, -1], [-1, -2]], [[-1, -2], [-2, 0]]])))
        return files

    def fresh_inputs(self):
        return self.inputs

    def commands(self):
        cmds = [
            ["integrate", "cap4.json", "fun4.json"],
            ["integrate", "cap5.json", "fun5.json", "--psi", "logit"],
            ["tensor", "left.json", "right.json"],
            ["integrate", "product.json", "fprod.json"],
            ["best-response", "game1.json", "--player", "0", "--belief", "belief1.json"],
            ["best-response", "game3.json", "--player", "0", "--belief", "belief3.json"],
            ["check-eq", "game0.json", "--supports", "a;a"],
            ["check-eq", "game1.json", "--supports", "a,b;b"],
            ["solve", "game2.json"],
            ["solve", "empty.json"],
            ["verify-convexity", "--domain-size", "2"],
            ["oracle-compare", "--trials", "50", "--seed", str(self.seed)],
        ]
        named = []
        for k, args in enumerate(cmds):
            out = "product.json" if args[0] == "tensor" else f"out-{k:02d}.json"
            named.append((f"{k:02d}-{args[0]}", args, out))
        return named

    def items(self, inputs, in_process=False):
        def subprocess_run(args):
            def run():
                proc = subprocess.run(
                    [sys.executable, "-m", "capgames.cli", *args],
                    cwd=self.workdir, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
                return proc.returncode, proc.stderr.decode(errors="replace")
            return run

        def in_process_run(args):
            return lambda: (capgames.cli.main(args), "")

        make = in_process_run if in_process else subprocess_run
        return [(item_id, make([*args, "--out", out]))
                for item_id, args, out in self.commands()]

    def expected_codes(self):
        """Exit codes and reports of the library's own `main`, run in this
        process on copies of the inputs: what every subprocess must
        reproduce, for any seed."""
        if self.expected is None:
            here = Path.cwd()
            expect_dir = self.workdir / "expected"
            expect_dir.mkdir(exist_ok=True)
            for name, text in self.inputs.items():
                (expect_dir / name).write_text(text, encoding="utf-8")
            os.chdir(expect_dir)
            try:
                self.expected = {
                    item_id: (capgames.cli.main([*args, "--out", out]),
                              stable_text(expect_dir / out))
                    for item_id, args, out in self.commands()}
            finally:
                os.chdir(here)
        return self.expected

    def answer(self, item_id, out):
        code, stderr = out
        name = next(o for i, _, o in self.commands() if i == item_id)
        path = self.workdir / name
        if not path.exists():
            return f"exit {code}, no report written: {stderr.strip()[:200]}", None
        text = stable_text(path)
        digest = {"code": code, "report": sha256(text)}
        want_code, want_text = self.expected_codes()[item_id]
        if code != want_code:
            return f"exit code {code}, expected {want_code}", digest
        if text != want_text:
            return "report differs from the in-process run", digest
        if code not in (0, 1) or (code == 1 and item_id[3:] not in ("solve", "check-eq")):
            return f"unexpected exit code {code}", digest
        return None, digest


WORKLOADS = {w.name: w for w in (EqSupports, DenseBeliefs, Convexity, Cli)}
