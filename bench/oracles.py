"""Independent oracles for the benchmark.

Every expected value here comes from numpy on the generating coordinates,
distance matrices and map tables, or from closed forms of the worked
examples.  Nothing in this module calls gproximity.  A check returns a list
of problem strings; an empty list means the output is correct.
"""
from __future__ import annotations

import math

import numpy as np

TOL = 1e-9       # the CLI's default absolute slack
FLOAT_EQ = 1e-12  # printed floats against numpy recomputations
PREVIEW = 20      # members listed before "members-truncated"
STEPS = 12        # solve steps listed before "steps-truncated"
CLI_CRR_GRID = 0.05  # classify's default --crr-grid
CLI_MAX_ITER = 1000  # solve's default --max-iter


# ---------------------------------------------------------------- reports

class Section:
    """The ``key: value`` lines of one report section, in order."""

    def __init__(self):
        self.items = []

    def get(self, key, default=None):
        for k, v in self.items:
            if k == key:
                return v
        return default

    def all(self, key):
        return [v for k, v in self.items if k == key]


def parse_report(stdout: str) -> dict:
    """Split a report into sections; the header section is named ''."""
    sections = {"": Section()}
    cur = sections[""]
    for line in stdout.splitlines():
        if line.startswith("[") and line.endswith("]"):
            cur = sections.setdefault(line[1:-1], Section())
            continue
        key, _, value = line.partition(": ")
        cur.items.append((key, value))
    return sections


def parse_point(text: str):
    text = text.strip()
    if text.startswith("("):
        return tuple(float(t) for t in text[1:-1].split(","))
    return int(text)


def parse_edge(text: str):
    x, y = text.split(" -> ")
    return parse_point(x), parse_point(y)


def same_point(p, q, tol=FLOAT_EQ) -> bool:
    if isinstance(p, tuple) or isinstance(q, tuple):
        p, q = tuple(np.atleast_1d(p)), tuple(np.atleast_1d(q))
        return len(p) == len(q) and all(abs(a - b) <= tol for a, b in zip(p, q))
    return int(p) == int(q)


class Checker:
    """Collects problems for one operation."""

    def __init__(self, label: str):
        self.label = label
        self.problems = []

    def expect(self, cond, message):
        if not cond:
            self.problems.append(f"{self.label}: {message}")
        return bool(cond)

    def value(self, section, key, want):
        got = section.get(key)
        return self.expect(got == want, f"{key} is {got!r}, want {want!r}")

    def number(self, section, key, want, tol=FLOAT_EQ):
        got = section.get(key)
        try:
            ok = got is not None and abs(float(got) - want) <= tol * max(1.0, abs(want))
        except ValueError:
            ok = False
        return self.expect(ok, f"{key} is {got!r}, want {want!r}")

    def absent(self, section, key):
        return self.expect(section.get(key) is None, f"unexpected {key!r} line")


def members_listing(ck: Checker, sec: Section, members, size=None):
    """set-size, the first PREVIEW members and the truncation count.

    ``members`` may hold only the leading members when ``size`` is given.
    """
    size = len(members) if size is None else size
    ck.value(sec, "set-size", str(size))
    listed = sec.all("member")
    want = members[:PREVIEW]
    ck.expect(len(listed) == len(want), f"{len(listed)} member lines, want {len(want)}")
    for got, exp in zip(listed, want):
        if isinstance(exp, tuple) and len(exp) == 2 and isinstance(exp[0], tuple):
            x, y = got.split(" | ")
            ok = same_point(parse_point(x), exp[0]) and same_point(parse_point(y), exp[1])
        else:
            ok = same_point(parse_point(got), exp)
        if not ck.expect(ok, f"member {got!r}, want {exp!r}"):
            break
    if size > PREVIEW:
        ck.value(sec, "members-truncated", str(size - PREVIEW))
    else:
        ck.absent(sec, "members-truncated")


def exit_status(rep: dict):
    """The report's closing exit-status line (after any sections)."""
    found = None
    for sec in rep.values():
        found = sec.get("exit-status", found)
    return found


def validation_block(ck: Checker, sec: Section):
    for label in ("metric", "sets", "graph", "cyclic"):
        ck.value(sec, f"{label}-valid", "true")
        ck.expect(not sec.all(f"{label}-violation"), f"{label} violations reported")


def header(ck: Checker, sec: Section, command, kind, points):
    ck.value(sec, "command", command)
    ck.value(sec, "kind", kind)
    ck.value(sec, "points", str(points))


# ------------------------------------------------- tabulated single maps

class TabModel:
    """Numpy model of a tabulated single-map instance.

    ``edges`` is None for the complete graph, else an n x n boolean matrix of
    the listed edges.  Positions follow the program's point order, A
    followed by the B indices not already in A.
    """

    def __init__(self, dist, table, a, b, edges=None):
        self.dist = np.asarray(dist, dtype=float)
        self.table = np.asarray(table, dtype=np.intp)
        self.a = list(a)
        self.b = list(b)
        seen = set(self.a)
        self.order = np.asarray(self.a + [x for x in self.b if x not in seen], dtype=np.intp)
        self.edges = None if edges is None else np.asarray(edges, dtype=bool)
        self.dab = float(self.dist[np.ix_(self.a, self.b)].min())

    @property
    def n(self):
        return self.order.size

    def is_edge(self, x, y) -> bool:
        return x == y or self.edges is None or bool(self.edges[x, y])

    def on_edges(self, path) -> bool:
        return all(self.is_edge(int(x), int(y)) for x, y in zip(path, path[1:]))

    def edge_mask(self):
        """Listed edges over positions (complete graph: every pair)."""
        if self.edges is None:
            return np.ones((self.n, self.n), dtype=bool)
        return self.edges[np.ix_(self.order, self.order)]

    def folds(self):
        o = self.order
        img = self.table[o]
        d = self.dist[np.ix_(o, o)]
        df = self.dist[np.ix_(img, img)]
        s = self.dist[o, img]
        return d, df, s[:, None] + s[None, :]

    def preserving_violation(self):
        """First listed edge (scan order) whose image is not an edge."""
        if self.edges is None:
            return None
        o = self.order
        pos = {int(p): i for i, p in enumerate(o)}
        xs, ys = np.nonzero(self.edges)
        keyed = sorted((pos[int(x)], pos[int(y)]) for x, y in zip(xs, ys))
        for i, j in keyed:
            x, y = int(o[i]), int(o[j])
            if not self.is_edge(int(self.table[x]), int(self.table[y])):
                return x, y
        return None

    def contraction(self):
        """(contractive, worst ratio, worst edge) over edges with d > 0."""
        d, df, _u = self.folds()
        mask = self.edge_mask()
        if np.any(mask & (d <= 0.0) & (df > TOL)):
            return False, math.inf, None
        pos = mask & (d > 0.0)
        if not pos.any():
            return True, 0.0, None
        ratios = np.where(pos, df / np.where(pos, d, 1.0), -np.inf)
        k = int(np.argmax(ratios))
        i, j = divmod(k, self.n)
        best = float(ratios[i, j])
        return best < 1.0, best, (int(self.order[i]), int(self.order[j]))

    def max_margin(self, a, b=0.0, c=0.0):
        d, df, u = self.folds()
        vals = df - a * d - b * u - c * self.dab
        return float(vals[self.edge_mask()].max())

    def proximity_set(self, eps):
        out = []
        for x in self.order.tolist():
            fx = int(self.table[x])
            if self.is_edge(x, fx) and self.dist[x, fx] <= self.dab + eps + TOL:
                out.append(x)
        return out

    def diameter(self, members):
        idx = np.asarray(members, dtype=np.intp)
        return float(self.dist[np.ix_(idx, idx)].max()) if idx.size > 1 else 0.0

    def orbit(self, x0, eps, max_iter):
        """Closed-loop simulation of the single-map solve."""
        fx = int(self.table[x0])
        if not self.is_edge(x0, fx):
            return "ineligible", None, 0, [x0], []
        pts, res, x = [x0], [], x0
        for n in range(max_iter + 1):
            r = float(self.dist[x, fx]) - self.dab
            res.append(r)
            if r <= eps + TOL:
                if not self.is_edge(x, fx):
                    return "ineligible", None, n, pts, res
                return "found", x, n, pts, res
            if n == max_iter:
                break
            pts.append(fx)
            x, fx = fx, int(self.table[fx])
        return "exhausted", None, max_iter, pts, res


def check_crr_line(ck: Checker, sec: Section, margin_fn, grid):
    """A printed CRR triple is on the grid, strictly inside the simplex, and
    satisfies its inequality on every edge; k matches its formula."""
    text = sec.get("crr-params")
    if not ck.expect(text is not None and text != "none", f"crr-params is {text!r}"):
        return None
    vals = dict(tok.split("=") for tok in text.split())
    a, b, c = float(vals["alpha"]), float(vals["beta"]), float(vals["gamma"])
    ck.expect(min(a, b, c) >= 0 and a + 2 * b + c < 1, f"triple {text} leaves the simplex")
    for v in (a, b, c):
        ck.expect(abs(v / grid - round(v / grid)) < 1e-6, f"{v} is off the {grid} grid")
    margin = margin_fn(a, b, c)
    ck.expect(margin <= TOL, f"triple {text} violated on an edge by {margin!r}")
    k = (a + b) / (1.0 - b)
    ck.number(sec, "crr-rate-k", k)
    return k


def check_tab_classify(ck: Checker, sec: Section, m: TabModel, alpha=None,
                       crr_expected=None):
    ck.number(sec, "d(A,B)", m.dab)
    bad = m.preserving_violation()
    if bad is not None:
        ck.value(sec, "classification-error",
                 f"map does not preserve edges; violating edge {bad!r}")
        ck.value(sec, "exit-status", "1")
        return
    contractive, ratio, edge = m.contraction()
    if contractive:
        ck.number(sec, "contraction-factor", ratio)
    else:
        ck.value(sec, "contraction-factor", "not-contractive")
        ck.number(sec, "worst-ratio", ratio)
    if edge is not None:
        ck.value(sec, "worst-edge", f"{edge[0]} -> {edge[1]}")
    ck.value(sec, "nonexpansive", "true" if m.max_margin(1.0) <= TOL else "false")
    if alpha is not None:
        ok = m.max_margin(alpha) <= TOL
        ck.value(sec, f"g-contraction({alpha!r})", "true" if ok else "false")
    if crr_expected is False:
        ck.value(sec, "crr-params", "none")
    elif sec.get("crr-params") != "none" or crr_expected:
        check_crr_line(ck, sec, lambda a, b, c: m.max_margin(a, b, c), CLI_CRR_GRID)
    ck.value(sec, "exit-status", "0")


def check_tab_solve(ck: Checker, sec: Section, m: TabModel, x0, eps, bound_expected=None):
    status, witness, iters, pts, res = m.orbit(x0, eps, CLI_MAX_ITER)
    ck.value(sec, "start", str(x0))
    ck.value(sec, "status", status)
    ck.value(sec, "iterations", str(iters))
    steps = sec.all("step")
    ck.expect(len(steps) == min(len(res), STEPS), f"{len(steps)} step lines")
    for n, line in enumerate(steps):
        idx, point, rtext = line.split(" ")
        r = float(rtext.split("=")[1])
        if not ck.expect(int(idx) == n and int(point) == pts[n]
                         and abs(r - res[n]) <= FLOAT_EQ, f"step {line!r}"):
            break
    if len(res) > STEPS:
        ck.value(sec, "steps-truncated", str(len(res) - STEPS))
    if witness is not None:
        ck.value(sec, "witness", str(witness))
    bound = sec.get("crr-iteration-bound")
    if bound_expected and status == "found":
        ck.expect(bound is not None, "crr-iteration-bound missing")
    if bound is not None:
        ck.expect(int(bound) >= iters, f"iterations {iters} exceed the a-priori bound {bound}")
    ck.value(sec, "exit-status", "0" if status == "found" else "1")


def check_tab_enumerate(ck: Checker, sec: Section, m: TabModel, eps):
    members = m.proximity_set(eps)
    ck.number(sec, "d(A,B)", m.dab)
    ck.value(sec, "mode", "strict")
    members_listing(ck, sec, members)
    if members:
        diam = m.diameter(members)
        ck.number(sec, "set-diameter", diam)
        contractive, alpha, _edge = m.contraction()
        preserving = m.preserving_violation() is None
        if preserving and contractive:
            bound = (2.0 * eps + 2.0 * m.dab) / (1.0 - alpha)
            ck.number(sec, "contraction-diam-bound", bound, tol=1e-9)
            ck.expect(diam <= bound + TOL, f"diameter {diam} above bound {bound}")
        else:
            ck.absent(sec, "contraction-diam-bound")
    ck.value(sec, "exit-status", "0")


# ------------------------------------------------- coordinate examples

def interval_points(h):
    """The interval example's sample grid: A = [-3, -1], B = [1, 3]."""
    k = round(2.0 / h)
    return np.linspace(-3.0, -1.0, k + 1), np.linspace(1.0, 3.0, k + 1)


def interval_map(x):
    return (1.0 - x) / 2.0 if x < 0 else (-1.0 - x) / 2.0


def interval_orbit(x0, eps, max_iter):
    """Closed-form orbit of the halving map; d(A, B) = 2."""
    pts, res, x = [x0], [], x0
    fx = interval_map(x)
    for n in range(max_iter + 1):
        r = abs(x - fx) - 2.0
        res.append(r)
        if r <= eps + TOL:
            return "found", x, n, pts, res
        if n == max_iter:
            break
        pts.append(fx)
        x, fx = fx, interval_map(fx)
    return "exhausted", None, max_iter, pts, res


def interval_band(h, eps):
    """Members of the epsilon set: displacement (1 - 3x)/2 <= 2 + eps on A
    and (1 + 3x)/2 <= 2 + eps on B, i.e. |x| <= 1 + 2 eps / 3."""
    a, b = interval_points(h)
    edge = 1.0 + 2.0 * eps / 3.0 + TOL
    return [x for x in np.concatenate([a, b]).tolist() if abs(x) <= edge]


def check_interval_classify(ck: Checker, sec: Section):
    """Worst ratio 1 on (-1, 1); CRR needs 2a + 4b + 2c >= 2 there: none."""
    ck.number(sec, "d(A,B)", 2.0)
    ck.value(sec, "contraction-factor", "not-contractive")
    ck.number(sec, "worst-ratio", 1.0)
    ck.value(sec, "worst-edge", "(-1.0) -> (1.0)")
    ck.value(sec, "nonexpansive", "true")
    ck.value(sec, "crr-params", "none")


def check_interval_solve(ck: Checker, sec: Section, x0, eps, max_iter):
    status, witness, iters, pts, res = interval_orbit(x0, eps, max_iter)
    ck.value(sec, "status", status)
    ck.value(sec, "iterations", str(iters))
    steps = sec.all("step")
    ck.expect(len(steps) == min(len(res), STEPS), f"{len(steps)} step lines")
    for n, line in enumerate(steps):
        idx, point, rtext = line.split(" ")
        ok = (int(idx) == n and same_point(parse_point(point), (pts[n],))
              and abs(float(rtext.split("=")[1]) - res[n]) <= FLOAT_EQ)
        if not ck.expect(ok, f"step {line!r}"):
            break
    if witness is not None:
        ck.expect(same_point(parse_point(sec.get("witness", "()")), (witness,)),
                  f"witness {sec.get('witness')!r}, want {witness!r}")
    # the interval map has no CRR certificate, so no a-priori bound
    ck.absent(sec, "crr-iteration-bound")


def check_interval_enumerate(ck: Checker, sec: Section, h, eps):
    members = [(x,) for x in interval_band(h, eps)]
    ck.number(sec, "d(A,B)", 2.0)
    members_listing(ck, sec, members)
    xs = [m[0] for m in members]
    ck.number(sec, "set-diameter", max(xs) - min(xs), tol=TOL)
    ck.number(sec, "set-diameter", 2.0 + 4.0 * eps / 3.0, tol=h)
    ck.absent(sec, "contraction-diam-bound")


def check_interval_demo(ck: Checker, rep: dict, h):
    a, b = interval_points(h)
    head = rep[""]
    header(ck, head, "demo", "single-map", a.size + b.size)
    ck.number(head, "grid-step", h)
    validation_block(ck, rep.get("validate", Section()))
    check_interval_classify(ck, rep.get("classify", Section()))
    solve = rep.get("solve", Section())
    check_interval_solve(ck, solve, -3.0, 0.3, 200)
    ck.expect(same_point(parse_point(solve.get("witness", "()")), (-1.125,))
              and solve.get("iterations") == "4", "witness -1.125 after 4 iterations")
    exact = rep.get("enumerate-exact", Section())
    check_interval_enumerate(ck, exact, h, 0.0)
    ck.expect(exact.all("member") == ["(-1.0)", "(1.0)"], "exact set is not {-1, 1}")
    band = rep.get("enumerate", Section())
    check_interval_enumerate(ck, band, h, 0.3)
    ck.number(band, "set-diameter", 2.4, tol=TOL)
    ck.expect(exit_status(rep) == "0", "exit-status is not 0")


def ellipse_points(h):
    """A = {(x-y)^2 + y^2 <= 1}, B = {(x+y)^2 + y^2 <= 1} on the h-grid,
    in the program's order: A, then the B points not in A."""
    k = int(math.ceil(1.5 / h))
    axis = [i * h for i in range(-k, k + 1)]
    grid = np.asarray([(x, y) for x in axis for y in axis])
    x, y = grid[:, 0], grid[:, 1]
    in_a = (x - y) ** 2 + y * y <= 1.0 + TOL
    in_b = (x + y) ** 2 + y * y <= 1.0 + TOL
    return np.concatenate([grid[in_a], grid[in_b & ~in_a]])


def check_ellipse_classify(ck: Checker, sec: Section, pts):
    """The mirror x -> -x is an isometry and A, B overlap: every edge has
    ratio exactly 1 (the first is (p0, p1)); two points on x = 0 force
    a >= 1 in the CRR inequality, so there is no certificate."""
    ck.number(sec, "d(A,B)", 0.0)
    ck.value(sec, "contraction-factor", "not-contractive")
    ck.number(sec, "worst-ratio", 1.0)
    p0, p1 = tuple(pts[0]), tuple(pts[1])
    got = sec.get("worst-edge")
    ck.expect(got is not None and same_point(parse_edge(got)[0], p0)
              and same_point(parse_edge(got)[1], p1), f"worst-edge {got!r}")
    ck.value(sec, "nonexpansive", "true")
    ck.value(sec, "crr-params", "none")


def check_ellipse_enumerate(ck: Checker, sec: Section, pts, eps):
    """Brute force: d(z, Tz) = 2|x| and d(A, B) = 0."""
    keep = 2.0 * np.abs(pts[:, 0]) <= eps + TOL
    mem = pts[keep]
    ck.number(sec, "d(A,B)", 0.0)
    members_listing(ck, sec, [tuple(p) for p in mem.tolist()])
    if len(mem) > 1:
        diff = mem[:, None, :] - mem[None, :, :]
        ck.number(sec, "set-diameter", float(np.sqrt((diff ** 2).sum(-1)).max()))
    ck.absent(sec, "contraction-diam-bound")


def check_ellipse_demo(ck: Checker, rep: dict, h):
    pts = ellipse_points(h)
    head = rep[""]
    header(ck, head, "demo", "single-map", len(pts))
    validation_block(ck, rep.get("validate", Section()))
    check_ellipse_classify(ck, rep.get("classify", Section()), pts)
    solve = rep.get("solve", Section())
    ck.value(solve, "status", "found")
    ck.value(solve, "iterations", "0")
    ck.value(solve, "witness", "(0.0, 0.0)")
    ck.absent(solve, "crr-iteration-bound")
    check_ellipse_enumerate(ck, rep.get("enumerate", Section()), pts, 0.01)
    ck.expect(exit_status(rep) == "0", "exit-status is not 0")


def check_segments_demo(ck: Checker, rep: dict, h):
    """Constant maps to the midpoints: d(A,B) = 1, every pair is a member
    and the widest pair (0,0)-(1,1) has length sqrt 2."""
    m = round(1.0 / h)
    xs = np.linspace(0.0, 1.0, m + 1).tolist()
    head = rep[""]
    header(ck, head, "demo", "two-map", 2 * (m + 1))
    validation_block(ck, rep.get("validate", Section()))
    cls = rep.get("classify", Section())
    ck.number(cls, "d(A,B)", 1.0)
    ck.value(cls, "pair-preserves-edges", "true")
    par = rep.get("solve-parallel", Section())
    ck.value(par, "status", "found")
    ck.value(par, "iterations", "0")
    ck.value(par, "witness", "(0.0, 0.0) | (1.0, 1.0)")
    alt = rep.get("solve-alternating", Section())
    ck.value(alt, "status", "found")
    ck.value(alt, "iterations", "1")
    ck.value(alt, "witness", "(0.5, 0.0) | (0.5, 1.0)")
    enum = rep.get("enumerate", Section())
    pairs = [((x, 0.0), (y, 1.0)) for x in xs[:2] for y in xs][:PREVIEW]
    members_listing(ck, enum, pairs, size=(m + 1) ** 2)
    ck.number(enum, "pair-diameter", math.sqrt(2.0))
    ck.expect(exit_status(rep) == "0", "exit-status is not 0")


# ------------------------------------------------- malformed files

def check_malformed(code, stdout, stderr) -> bool:
    """Fail-closed contract: exit 2 and one ``error:`` line, no traceback."""
    lines = (stdout + stderr).splitlines()
    errors = [ln for ln in lines if ln.startswith("error:")]
    return (code == 2 and len(errors) == 1
            and "Traceback" not in stdout + stderr)
