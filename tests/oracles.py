"""Independent brute-force oracles for the test suite.

Everything here is deliberately dumb: full enumeration with exact
rationals, no sharing of code paths with the package under test.  Two
exceptions check one layer of the package over its own lower layers: the
per-draw samplers (``bernoulli_block``, ``p_subset_draw``,
``positive_draw`` and the ``*_hits`` loops) read the package's scalar
counter stream (``CounterStream.at``) and threshold rule one draw at a
time, as references for its block samplers and hit counters (with
``mc_closedness_scan``, the Monte-Carlo closure's per-candidate scan over
the package's estimate and threshold rule); and the reference
extractions at the end are the recursive forms of the package's three
extraction loops, over the package's own link, spread check, Janson
certificate and verification.
"""

from fractions import Fraction
from itertools import combinations


def iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_coverage(members, y, p, n):
    """Pr over p-biased W of [n] that some member is inside W | y.

    Enumerates all 2^n outcomes of W (not just the relevant elements).
    """
    p = Fraction(p)
    total = Fraction(0)
    for w in range(1 << n):
        if any(m & ~(w | y) == 0 for m in members):
            weight = Fraction(1)
            for i in range(n):
                weight *= p if w >> i & 1 else 1 - p
            total += weight
    return total


def covered_weight_counts(masks, width):
    """Per Hamming weight k, the number of rows of {0,1}^width containing some mask.

    Every mask is tested against every row, O(m 2^width), in chunks of
    2^20 rows; the rows' weights are read from a 16-bit popcount table.
    """
    import numpy as np

    popcount16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)
    total = 1 << width
    counts = np.zeros(width + 1, dtype=np.int64)
    rs = np.array(masks, dtype=np.uint32)
    chunk = 1 << 20
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        arr = np.arange(lo, hi, dtype=np.uint32)
        covered = np.zeros(hi - lo, dtype=bool)
        for r in rs:
            covered |= (arr & r) == r
        sel = arr[covered]
        w = popcount16[sel & np.uint32(0xFFFF)] + popcount16[sel >> np.uint32(16)]
        counts += np.bincount(w, minlength=width + 1)[: width + 1]
    return counts.tolist()


def brute_probability(event, n, p):
    """Pr[event(x)] over a p-biased x in {0,1}^n, summed over all 2^n inputs."""
    p = Fraction(p)
    total = Fraction(0)
    for x in range(1 << n):
        if event(x):
            w = bin(x).count("1")
            total += p**w * (1 - p) ** (n - w)
    return total


def brute_polynomial_probability(event, n, c, k):
    """Pr[event(S_P)] over a uniform polynomial P of degree < c over F_n.

    Sums over all n^c coefficient vectors; S_P is ``hr_value_set`` at 1..k.
    """
    hits = sum(1 for i in range(n**c) if event(hr_value_set(index_digits(i, n, c), k, n)))
    return Fraction(hits, n**c)


def brute_spread(members, r, n):
    """Direct r-spread check over every nonempty T inside [n]."""
    r = Fraction(r)
    size = len(members)
    for t in range(1, 1 << n):
        cnt = sum(1 for m in members if m & t == t)
        if cnt * r ** bin(t).count("1") > size:
            return False
    return True


def brute_spread_witness(members, r, n):
    """(T, count) of the violating T of least size, then least mask, or None if r-spread."""
    r = Fraction(r)
    size = len(members)
    for t in sorted(range(1, 1 << n), key=lambda t: (bin(t).count("1"), t)):
        cnt = sum(1 for m in members if m & t == t)
        if cnt * r ** bin(t).count("1") > size:
            return t, cnt
    return None


def brute_has_clique(n, edge_set, k):
    """edge_set: set of frozensets {u, v}; scan all C(n, k) vertex subsets."""
    if k <= 1:
        return k <= 0 or n >= 1
    for vs in combinations(range(1, n + 1), k):
        if all(frozenset((a, b)) in edge_set for a, b in combinations(vs, 2)):
            return True
    return False


def brute_containment_probability(n, k, a_size):
    """Pr[fixed a_size-set inside a uniform random k-subset of [n]]."""
    fixed = set(range(1, a_size + 1))
    hits = sum(1 for vs in combinations(range(1, n + 1), k) if fixed <= set(vs))
    import math

    return Fraction(hits, math.comb(n, k))


def edge_index(u, v):
    return (v - 1) * (v - 2) // 2 + (u - 1)


def clique_edge_mask(vertices):
    vs = sorted(vertices)
    e = 0
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            e |= 1 << edge_index(vs[i], vs[j])
    return e


def brute_pq_hit(vertex_masks, b_mask, p, q, n):
    """Exact Pr[some A: K_A in G|K_B and A in U|B], full joint enumeration."""
    p, q = Fraction(p), Fraction(q)
    m = n * (n - 1) // 2
    b_edges = clique_edge_mask([i + 1 for i in iter_bits(b_mask)])
    pairs = []
    for a in vertex_masks:
        a_edges = clique_edge_mask([i + 1 for i in iter_bits(a)])
        pairs.append((a_edges & ~b_edges, a & ~b_mask))
    total = Fraction(0)
    for g in range(1 << m):
        wg = Fraction(1)
        for i in range(m):
            wg *= p if g >> i & 1 else 1 - p
        for u in range(1 << n):
            if not any(ge & ~g == 0 and av & ~u == 0 for ge, av in pairs):
                continue
            wu = Fraction(1)
            for i in range(n):
                wu *= q if u >> i & 1 else 1 - q
            total += wg * wu
    return total


def pq_hit_inclusion_exclusion(vertex_masks, edge_masks, p, q):
    """Exact hit probability (no core) by inclusion-exclusion over subfamilies."""
    p, q = Fraction(p), Fraction(q)
    m = len(vertex_masks)
    total = Fraction(0)
    for sub in range(1, 1 << m):
        eu = 0
        vu = 0
        bits = 0
        s = sub
        while s:
            low = s & -s
            i = low.bit_length() - 1
            eu |= edge_masks[i]
            vu |= vertex_masks[i]
            bits += 1
            s ^= low
        term = p ** bin(eu).count("1") * q ** bin(vu).count("1")
        total += term if bits & 1 else -term
    return total


def pq_reduced(vertex_masks, b_mask):
    """The inclusion-minimal (missing edges, missing vertices) pairs over the vertex core B."""
    b_edges = clique_edge_mask([i + 1 for i in iter_bits(b_mask)])
    pairs = {(clique_edge_mask([i + 1 for i in iter_bits(a)]) & ~b_edges, a & ~b_mask)
             for a in vertex_masks}
    return [(e, v) for e, v in pairs
            if not any((e2, v2) != (e, v) and e2 & ~e == 0 and v2 & ~v == 0 for e2, v2 in pairs)]


def conditioned_pq_coverage(vertex_masks, b_mask, p, q, limit, edge_coverage):
    """Exact joint (p, q) coverage over the vertex core B, conditioning on U per component.

    The clique module's own loop before the coverage core took it over,
    run on each connected component of the reduced members.  Members reduce
    to their inclusion-minimal (missing edges, missing vertices) pairs; two
    pairs share a component when they share an edge or a vertex, and the
    components' miss probabilities multiply.  A component of at most
    ``limit`` pairs goes to inclusion-exclusion.  Past that, U is
    conditioned on over the union of its missing vertices (None when it
    has more than ``limit`` vertices): for each U the pairs whose missing
    vertices lie in U are covered by ``edge_coverage(edge_masks, 0)``, which
    may refuse.  A refusal of any component refuses the family.
    """
    p, q = Fraction(p), Fraction(q)
    miss = Fraction(1)
    for part in components(pq_reduced(vertex_masks, b_mask),
                           lambda x, y: x[0] & y[0] or x[1] & y[1]):
        hit = _conditioned_component(part, p, q, limit, edge_coverage)
        if hit is None:
            return None
        miss *= 1 - hit
    return 1 - miss


def _conditioned_component(pairs, p, q, limit, edge_coverage):
    if len(pairs) <= limit:
        return pq_hit_inclusion_exclusion([v for _, v in pairs], [e for e, _ in pairs], p, q)
    venv = 0
    for _, v in pairs:
        venv |= v
    width = bin(venv).count("1")
    if width > limit:
        return None
    total = Fraction(0)
    u = venv
    while True:
        edges = [e for e, v in pairs if v & ~u == 0]
        if edges:
            k = bin(u).count("1")
            total += q**k * (1 - q) ** (width - k) * edge_coverage(edges, 0)
        if u == 0:
            return total
        u = (u - 1) & venv


def components(items, shares):
    """``items`` grouped into connected components of the relation ``shares``.

    Each item is compared with every group so far, and the groups it
    touches are merged: quadratic, and independent of the package's pass.
    """
    groups = []
    for x in items:
        touching = [g for g in groups if any(shares(x, y) for y in g)]
        groups = [g for g in groups if all(g is not t for t in touching)]
        groups.append([y for t in touching for y in t] + [x])
    return groups


def brute_split_coverage(masks, split, p, q):
    """Pr[some mask inside the random set]: bits below ``split`` p-biased, the rest q-biased.

    ``brute_coverage`` with two biases: every outcome on the masks' union
    is enumerated with its weight.
    """
    p, q = Fraction(p), Fraction(q)
    union = 0
    for m in masks:
        union |= m
    bits = list(iter_bits(union))
    total = Fraction(0)
    for w in range(1 << len(bits)):
        x = sum(1 << b for i, b in enumerate(bits) if w >> i & 1)
        if any(m & ~x == 0 for m in masks):
            weight = Fraction(1)
            for i, b in enumerate(bits):
                bias = p if b < split else q
                weight *= bias if w >> i & 1 else 1 - bias
            total += weight
    return total


def janson_fractions(vertex_masks, p, q):
    """(mu, delta_bar, exponent, bound) of the Janson certificate, in ``Fraction`` arithmetic.

    mu = |S| q^l p^C(l,2); delta_bar sums q^(2l-j) p^(2C(l,2)-C(j,2)) over
    the ordered pairs of members sharing j in [1, l-1] vertices, pair by
    pair; the exponent is float(mu^2 / (mu + delta_bar)).
    """
    import math

    p, q = Fraction(p), Fraction(q)
    size = vertex_masks[0].bit_count()
    edges = math.comb(size, 2)
    mu = len(vertex_masks) * q**size * p**edges
    delta = Fraction(0)
    for a in vertex_masks:
        for b in vertex_masks:
            j = (a & b).bit_count()
            if 1 <= j < size:
                delta += q ** (2 * size - j) * p ** (2 * edges - math.comb(j, 2))
    exponent = float(mu * mu / (mu + delta))
    return mu, delta, exponent, math.exp(-exponent)


def component_coverage(masks, split, p, q):
    """1 - prod (1 - cov_i) over the components of the masks (by shared bits), each
    cov_i the brute-force coverage of that component alone."""
    miss = Fraction(1)
    for part in components(masks, lambda x, y: x & y):
        miss *= 1 - brute_split_coverage(part, split, p, q)
    return 1 - miss


def minimal_masks(masks):
    """The distinct masks no other mask lies inside, in canonical order (size, then value)."""
    distinct = set(masks)
    minimal = [m for m in distinct if not any(o != m and o & m == o for o in distinct)]
    return tuple(sorted(minimal, key=lambda m: (bin(m).count("1"), m)))


def enumerate_antichains(n):
    """All antichains of subsets of [n], i.e. all monotone functions."""
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    out = []

    def comparable(a, b):
        return a & b == a or a & b == b

    def extend(start, chosen):
        out.append(tuple(chosen))
        for i in range(start, len(masks)):
            m = masks[i]
            if all(not comparable(m, c) for c in chosen):
                chosen.append(m)
                extend(i + 1, chosen)
                chosen.pop()

    extend(0, [])
    return out


def eval_antichain(minterms, x):
    return 1 if any(m & x == m for m in minterms) else 0


def eval_polynomial(terms, assignment):
    """Evaluate (monomial, coefficient) pairs at an assignment ((row, column) -> value)."""
    total = Fraction(0)
    for m, c in terms:
        term = Fraction(c)
        for var in m:
            term *= Fraction(assignment[var])
            if term == 0:
                break
        total += term
    return total


def brute_agreement(w1, w2):
    return sum(1 for a, b in zip(w1, w2) if a == b)


def agreement_row_scan(codewords):
    """Max agreement over distinct pairs: each word against all later ones, row by row."""
    import numpy as np

    arr = np.array(codewords, dtype=np.int64)
    return max(int((arr[i + 1 :] == arr[i]).sum(axis=1).max()) for i in range(len(arr) - 1))


def pair_monomial(word, q):
    """The codeword's monomial as a frozenset of (row, column) pairs, residue 0 in row q."""
    return frozenset((v if v else q, j) for j, v in enumerate(word, start=1))


def pair_polynomial_order(codewords, q):
    """The (row, column)-pair monomials, ordered by their sorted pairs."""
    return sorted((pair_monomial(w, q) for w in codewords), key=sorted)


def mask_pairs(mask, q, n):
    """The (row, column) pairs of a grid bitmask: bit (q-row)*n + (n-column)."""
    assert 0 <= mask < 1 << (q * n)
    return frozenset((q - b // n, n - b % n) for b in iter_bits(mask))


def bernoulli_block(stream, start, count, p):
    """Boolean array over slots [start, start+count) of ``stream``, one per draw.

    Each draw is the scalar ``stream.at(i)`` (the splitmix64 finalizer on
    Python integers), not the package's vectorized ``block``.  A slot is
    accepted when its draw is below ``threshold_for(p)``; bias 1 accepts and
    bias 0 rejects without reading a draw.
    """
    import numpy as np
    from sunflower_circuits.rng import threshold_for

    t = threshold_for(p)
    if t >= 1 << 64:
        return np.ones(count, dtype=bool)
    if t <= 0:
        return np.zeros(count, dtype=bool)
    return np.array([stream.at(i) < t for i in range(start, start + count)], dtype=bool)


def p_subset_draw(n, p, stream):
    """One p-biased subset of [n] from the next n slots of ``stream``, set bit by bit."""
    bits = bernoulli_block(stream, stream.index, n, p)
    stream.index += n
    return sum(1 << i for i in range(n) if bits[i])


def positive_draw(hr, stream):
    """One uniform polynomial's value-set mask: c ``next_below(n)`` coefficients, degree 0 first."""
    n = hr.params.n
    return hr.images[sum(stream.next_below(n) * n**j for j in range(hr.params.c))]


def pq_sample_hits(vertex_masks, b_mask, p, q, n, samples, stream):
    """Hits of the joint (p, q) coverage event, one sample at a time.

    Each sample reads C(n,2) edge slots of ``stream`` (a counter stream with
    ``block`` and ``index``) and then n vertex slots, bit by bit.
    """
    m = n * (n - 1) // 2
    b_edges = clique_edge_mask([i + 1 for i in iter_bits(b_mask)])
    pairs = []
    for a in vertex_masks:
        a_edges = clique_edge_mask([i + 1 for i in iter_bits(a)])
        pairs.append((a_edges & ~b_edges, a & ~b_mask))
    hits = 0
    for _ in range(samples):
        bits = bernoulli_block(stream, stream.index, m, p)
        stream.index += m
        g = 0
        for i in range(m):
            if bits[i]:
                g |= 1 << i
        bits = bernoulli_block(stream, stream.index, n, q)
        stream.index += n
        u = 0
        for j in range(n):
            if bits[j]:
                u |= 1 << j
        if any(ge & ~g == 0 and av & ~u == 0 for ge, av in pairs):
            hits += 1
    return hits


def set_sample_hits(members, y, p, samples, stream):
    """Hits of plain coverage, one sample at a time, drawing only the relevant elements.

    The relevant elements are the union E of the inclusion-minimal sets
    among {F minus y}; each sample reads |E| slots of ``stream``, the
    elements of E in ascending order, and sets them bit by bit.
    """
    reduced = {m & ~y for m in members}
    reduced = [m for m in reduced if not any(k != m and k & m == k for k in reduced)]
    env = 0
    for m in reduced:
        env |= m
    positions = list(iter_bits(env))
    hits = 0
    for _ in range(samples):
        bits = bernoulli_block(stream, stream.index, len(positions), p)
        stream.index += len(positions)
        w = 0
        for j, pos in enumerate(positions):
            if bits[j]:
                w |= 1 << pos
        if any(m & ~w == 0 for m in reduced):
            hits += 1
    return hits


def mc_closedness_scan(f, params, samples, seed):
    """``is_closed`` on Monte-Carlo, one candidate at a time: (witness, estimate), or None.

    Each candidate A of ``params`` that f rejects counts its own
    ``set_sample_hits`` on a fresh ``CounterStream(seed)``, over f's
    coverage family and Y = A's coverage mask.  The estimate has half-width
    0 when no member is left or some member lies inside Y; the first
    candidate it puts strictly above 1 - eps (``above_threshold``) is the
    witness.
    """
    from dataclasses import replace

    from sunflower_circuits.probability import Estimate, above_threshold
    from sunflower_circuits.rng import CounterStream

    members = params.coverage_family(f).members
    for a in params.candidates(f.n):
        if f(a):
            continue
        y = params.coverage_mask(a)
        hits = set_sample_hits(members, y, params.noise_p, samples, CounterStream(seed))
        est = Estimate.from_hits(hits, samples, seed)
        if not members or any(m & ~y == 0 for m in members):
            est = replace(est, half_width=0.0)
        if above_threshold(est, params.eps) is True:
            return a, est
    return None


def has_clique_sets(neighbours, k):
    """Whether some k vertices are pairwise adjacent: grow sorted vertex lists,
    each next vertex above the last and a neighbour of every vertex listed."""

    def grow(clique, candidates):
        if len(clique) == k:
            return True
        return any(grow(clique + [v], [u for u in candidates if u > v and u in neighbours[v]])
                   for v in candidates)

    return grow([], sorted(neighbours))


def kclique_hits_loop(n, k, p, samples, seed):
    """Graphs of G(n, p) with a k-clique, one sample at a time with no pruning.

    Sample s reads slots s*C(n,2) .. (s+1)*C(n,2) - 1 of stream 0 as its
    edges in edge-index order (edge {u, v}, u < v, at (v-1)(v-2)/2 + u-1),
    builds each vertex's neighbour set edge by edge and decides the graph
    with ``has_clique_sets``.
    """
    from sunflower_circuits.rng import CounterStream

    if k <= 1:
        return samples if k <= 0 or n >= 1 else 0
    m = n * (n - 1) // 2
    endpoints = [(u, v) for v in range(2, n + 1) for u in range(1, v)]
    stream = CounterStream(seed)
    hits = 0
    for s in range(samples):
        bits = bernoulli_block(stream, s * m, m, p)
        neighbours = {v: set() for v in range(1, n + 1)}
        for i in range(m):
            if bits[i]:
                u, v = endpoints[i]
                neighbours[u].add(v)
                neighbours[v].add(u)
        if has_clique_sets(neighbours, k):
            hits += 1
    return hits


def index_digits(index, q, dim):
    """Coefficients of polynomial ``index``: digit j in base q, degree 0 first."""
    return tuple(index // q**j % q for j in range(dim))


def poly_value(coeffs, x, q):
    """P(x) mod q by scalar Horner, coefficients degree 0 first."""
    v = 0
    for a in reversed(coeffs):
        v = (v * x + a) % q
    return v


def hr_value_set(coeffs, k, n):
    """Mask of {P(1), ..., P(k)} over F_n: residue r > 0 is element r, residue 0 element n."""
    mask = 0
    for x in range(1, k + 1):
        v = poly_value(coeffs, x, n)
        mask |= 1 << ((v if v else n) - 1)
    return mask


def reversed_scan_closure(n, minterms, eps, c, p=Fraction(1, 2)):
    """The closure by brute force, scanning |A| <= c in reversed canonical order.

    Each round adds the first A (largest size first, then largest value)
    that the current function rejects while Pr[f(N or x_A) = 1] > 1 - eps,
    with the acceptance probability from ``brute_coverage``.  Returns the
    minimal accepted sets of the fixpoint.
    """
    candidates = sorted(
        (a for a in range(1 << n) if bin(a).count("1") <= c),
        key=lambda a: (bin(a).count("1"), a),
        reverse=True,
    )
    accepted = list(minterms)
    threshold = 1 - Fraction(eps)
    while True:
        for a in candidates:
            if not eval_antichain(accepted, a) and brute_coverage(accepted, a, p, n) > threshold:
                accepted.append(a)
                break
        else:
            return {m for m in accepted if not any(o != m and o & m == o for o in accepted)}


def brute_closure(n, minterms, eps, c, p):
    """The closure from its definition over all 2^n inputs, every violator per round.

    The accepted inputs are kept as a set.  A rejected A with |A| <= c
    violates when the weight of the noise sets N with N | A accepted,
    summed as integers a^|N| (b-a)^(n-|N|) for p = a/b, exceeds
    (1 - eps) b^n.  Returns the minimal accepted sets of the fixpoint.
    """
    p, threshold = Fraction(p), 1 - Fraction(eps)
    a, b = p.numerator, p.denominator
    weight = [a**k * (b - a) ** (n - k) for k in range(n + 1)]
    popcount = [bin(x).count("1") for x in range(1 << n)]
    accepted = {x for x in range(1 << n) if eval_antichain(minterms, x)}
    candidates = [x for x in range(1 << n) if popcount[x] <= c]
    while True:
        added = [
            x for x in candidates
            if x not in accepted
            and sum(weight[popcount[w]] for w in range(1 << n) if w | x in accepted)
            > threshold * b**n
        ]
        if not added:
            return {x for x in accepted if not any(x & ~(1 << i) in accepted for i in iter_bits(x))}
        accepted |= {x for x in range(1 << n) if eval_antichain(added, x)}


def coordinate_superset_sums(table, n, a, b):
    """Yates' transform of a 0/1 table at noise a/b, one coordinate at a time, in order.

    Per coordinate i the halves of every 2^(i+1) block are T0 <- (b-a) T0 +
    a T1 and T1 <- a T1, so T[A] = a^|A| b^(n-|A|) Pr[f(N or x_A) = 1] as
    an integer: int32 while b^n < 2^31, int64 otherwise.
    """
    import numpy as np

    t = np.asarray(table).astype(np.int32 if b**n < 1 << 31 else np.int64)
    for i in range(n):
        halves = t.reshape(-1, 2, 1 << i)
        lo, hi = halves[:, 0, :].copy(), halves[:, 1, :].copy()
        halves[:, 0, :] = (b - a) * lo + a * hi
        halves[:, 1, :] = a * hi
    return t


def image_acceptance(images, minterms, total):
    """Share of ``total`` polynomials whose value-set mask contains some minterm.

    One count per distinct image, weighted by how often it occurs.
    """
    counts = {}
    for m in images:
        counts[m] = counts.get(m, 0) + 1
    hits = sum(c for m, c in counts.items() if any(t & m == t for t in minterms))
    return Fraction(hits, total)


def graph_accepts(vertex_masks, edges):
    """1 if the graph with edge mask ``edges`` contains the clique K_A of some member A."""
    cliques = (clique_edge_mask([i + 1 for i in iter_bits(a)]) for a in vertex_masks)
    return 1 if any(e & ~edges == 0 for e in cliques) else 0


def brute_closure_on_cliques(n, minterms, eps, c, p=Fraction(1, 2)):
    """The clique closure by brute force, scanning 2 <= |A| <= c in reversed canonical order.

    ``minterms`` are vertex masks in the clique normal form (a member with
    at most one vertex only as the constant 1, the single member 0).  A
    vertex mask A is accepted when some minterm lies inside it.  Each round
    adds the first rejected A whose clique coverage Pr[f(G(n,p) or K_A) = 1]
    exceeds 1 - eps, from ``brute_coverage`` over all 2^C(n,2) graphs.
    Returns the minimal accepted sets of the fixpoint.
    """
    m = n * (n - 1) // 2

    def edges(a):
        return clique_edge_mask([i + 1 for i in iter_bits(a)])

    candidates = sorted(
        (a for a in range(1 << n) if 2 <= bin(a).count("1") <= c),
        key=lambda a: (bin(a).count("1"), a),
        reverse=True,
    )
    accepted = list(minterms)
    threshold = 1 - Fraction(eps)
    while True:
        for a in candidates:
            if eval_antichain(accepted, a):
                continue
            if brute_coverage([edges(x) for x in accepted], edges(a), p, m) > threshold:
                accepted.append(a)
                break
        else:
            return {x for x in accepted if not any(o != x and o & x == o for o in accepted)}


# ---------------------------------------------------------------------------
# reference extractions: each step recurses into the link and lifts by T on
# the way back, one level at a time


def recursive_find_sunflower(family, petals):
    """``sunflowers.find_sunflower`` by recursion on the link of a most popular element."""
    from sunflower_circuits.errors import ThresholdNotMetError
    from sunflower_circuits.setfamily import SetFamily, link, uniform_size
    from sunflower_circuits.sunflowers import Sunflower, erdos_rado_threshold

    if petals < 1:
        raise ValueError("petals must be >= 1")
    size = uniform_size(family) if family.members else 0

    def search(fam):
        if not fam.members:
            return None
        taken, acc = [], 0
        for m in fam.members:
            if m & acc == 0 and len(taken) < petals:
                taken.append(m)
                acc |= m
        if len(taken) >= petals:
            return Sunflower(SetFamily.from_masks(fam.n, taken), 0)
        if all(m == 0 for m in fam.members):
            return None
        counts = {}
        for m in fam.members:
            for i in iter_bits(m):
                counts[1 << i] = counts.get(1 << i, 0) + 1
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        sub = search(link(fam, best))
        if sub is None:
            return None
        lifted = [m | best for m in sub.petals.members]
        return Sunflower(SetFamily.from_masks(fam.n, lifted), sub.kernel | best)

    found = search(family)
    if found is not None and len(found.petals) >= petals:
        return found
    if size >= 1 and len(family) > erdos_rado_threshold(size, max(petals, 2)):
        raise AssertionError("family above the guarantee threshold but search failed")
    raise ThresholdNotMetError(
        f"no {petals}-petal sunflower found; family size {len(family)} is at or "
        f"below the guarantee threshold"
    )


def recursive_extract_robust_sunflower(family, p, eps, params, mc_samples=100_000, seed=0):
    """``sunflowers.extract_robust_sunflower`` by recursion on the link of each spread witness."""
    from sunflower_circuits.errors import BaseCaseFailedError, ExactIntractableError
    from sunflower_circuits.probability import is_robust_sunflower
    from sunflower_circuits.setfamily import SetFamily, check_spread, core, link, uniform_size
    from sunflower_circuits.sunflowers import RobustSunflowerResult, TraceStep, spread_radius

    uniform_size(family)
    eps_f, p_f = Fraction(eps), Fraction(p)
    trace = []

    def recurse(fam, depth):
        fam_size = uniform_size(fam) if fam.members else 0
        if fam_size == 0:
            trace.append(TraceStep(depth, 0, len(fam), 0.0, "trivial", None))
            return fam
        if fam_size == 1:
            if (1 - p_f) ** len(fam) < eps_f:
                trace.append(TraceStep(depth, 1, len(fam), 0.0, "base", None))
                return fam
            raise BaseCaseFailedError(f"(1-p)^{len(fam)} >= eps at the 1-uniform base case")
        r = spread_radius(fam_size, float(p), float(eps), params)
        report = check_spread(fam, Fraction(r))
        if report.is_spread:
            trace.append(TraceStep(depth, fam_size, len(fam), r, "spread", None))
            return fam
        t = report.witness
        trace.append(TraceStep(depth, fam_size, len(fam), r, "link", t))
        sub = recurse(link(fam, t), depth + 1)
        return SetFamily.from_masks(fam.n, (m | t for m in sub.members))

    subfamily = recurse(family, 0)
    try:
        chk = is_robust_sunflower(subfamily, p, eps, "exact")
    except ExactIntractableError:
        chk = is_robust_sunflower(subfamily, p, eps, "mc", mc_samples, seed)
    return RobustSunflowerResult(subfamily, core(subfamily), chk.decision is True,
                                 chk.probability, tuple(trace), chk)


def recursive_find_clique_sunflower(s, p, q, eps, mc_samples=100_000, seed=0):
    """``cliques.find_clique_sunflower`` by recursion: sizes j ascending, cores canonically."""
    import math

    from sunflower_circuits.cliques import (
        CliqueSunflowerResult,
        CliqueTraceStep,
        is_pq_clique_sunflower,
        janson_certificate,
        s_poly_exact,
    )
    from sunflower_circuits.errors import (
        BaseCaseFailedError,
        EmptyFamilyError,
        ExactIntractableError,
    )
    from sunflower_circuits.setfamily import (
        SetFamily,
        canonical_key,
        core,
        link,
        submask_counts,
        uniform_size,
    )

    if not s.members:
        raise EmptyFamilyError("empty clique family")
    eps_f = Fraction(eps)
    ln_inv_eps = Fraction(math.log(1.0 / float(eps)))
    p_f = Fraction(p)
    trace = []
    outcome = {"certificate": None, "status": "ok"}

    def recurse(fam, q_now, depth):
        size = uniform_size(fam)
        if size == 0:
            trace.append(CliqueTraceStep(depth, 0, len(fam), "trivial", None, None, float(q_now)))
            return fam
        if size == 1:
            if (1 - q_now) ** len(fam) < eps_f:
                trace.append(CliqueTraceStep(depth, 1, len(fam), "base", None, None, float(q_now)))
                return fam
            raise BaseCaseFailedError("(1-q)^|S| >= eps at the 1-uniform base case")
        counts = submask_counts(fam)
        for j in range(1, size):
            rem = size - j
            threshold = (
                s_poly_exact(rem, ln_inv_eps)
                * (1 / (q_now * p_f**j)) ** rem
                * (1 / p_f) ** math.comb(rem, 2)
            )
            hits = sorted(
                (b for b, cnt in counts.items() if b.bit_count() == j and cnt >= threshold),
                key=canonical_key,
            )
            if hits:
                b = hits[0]
                trace.append(CliqueTraceStep(depth, size, len(fam), "link", j, b, float(q_now)))
                sub = recurse(link(fam, b), q_now * p_f**j, depth + 1)
                return SetFamily.from_masks(fam.n, (a | b for a in sub.members))
        cert = janson_certificate(fam, p, q_now)
        outcome["certificate"] = cert
        if cert.exponent > float(ln_inv_eps):
            case = "janson"
        else:
            case = outcome["status"] = "below_threshold"
        trace.append(CliqueTraceStep(depth, size, len(fam), case, None, None, float(q_now)))
        return fam

    subfamily = recurse(s, Fraction(q), 0)
    probability, verified = None, False
    if outcome["status"] == "ok":
        try:
            chk = is_pq_clique_sunflower(subfamily, p, q, eps, "exact")
        except ExactIntractableError:
            chk = is_pq_clique_sunflower(subfamily, p, q, eps, "mc", mc_samples, seed)
        probability, verified = chk.probability, chk.decision is True
    return CliqueSunflowerResult(subfamily, core(subfamily), verified, outcome["status"],
                                 outcome["certificate"], probability, tuple(trace))
