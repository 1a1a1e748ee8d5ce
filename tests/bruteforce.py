"""Independent slow oracles used to check the package's fast paths.

Everything here works on plain lists and itertools so that it shares no
code with the implementations it checks.
"""

from itertools import permutations

from pautkit import LinearCode, Word


def naive_rref(rows: list[list[int]]) -> list[list[int]]:
    """Textbook Gaussian elimination on 0/1 row lists."""
    mat = [row[:] for row in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                sel = r
                break
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
    return [row for row in mat[:pivot_row]]


def word_list(w: Word) -> list[int]:
    return [w.bit(i) for i in range(w.n)]


def apply_perm_list(images, row: list[int]) -> list[int]:
    out = [0] * len(row)
    for i, v in enumerate(row):
        out[images[i]] = v
    return out


def codeword_set(code: LinearCode) -> frozenset[int]:
    n, k = code.n, code.k
    seen = set()
    for mask in range(1 << k):
        v = 0
        for i in range(k):
            if mask >> i & 1:
                v ^= code.rows[i]
        seen.add(v)
    return frozenset(seen)


def _fixes(code: LinearCode, words: frozenset[int], images) -> bool:
    for row in code.rows:
        out = 0
        b = row
        while b:
            low = b & -b
            out |= 1 << images[low.bit_length() - 1]
            b ^= low
        if out not in words:
            return False
    return True


def brute_automorphism_images(code: LinearCode):
    """Every automorphism image table, by filtering all of S_n."""
    words = codeword_set(code)
    for images in permutations(range(code.n)):
        if _fixes(code, words, images):
            yield images


def brute_centraliser_images(code: LinearCode) -> list[tuple[int, ...]]:
    """The automorphisms that commute with the pairing (0,1)(2,3)...,
    in lexicographic order, by filtering all of Z_2 wr S_{n/2}: pair p
    goes to pair perm[p], crossed when bit p of ``flips`` is set."""
    m = code.n // 2
    words = codeword_set(code)
    found = []
    for perm in permutations(range(m)):
        for flips in range(1 << m):
            images = [0] * code.n
            for p in range(m):
                o = flips >> p & 1
                images[2 * p] = 2 * perm[p] + o
                images[2 * p + 1] = 2 * perm[p] + 1 - o
            if _fixes(code, words, images):
                found.append(tuple(images))
    return sorted(found)


def brute_pair_flips(code: LinearCode) -> list[int]:
    """The pair sets x, as m-bit masks, whose flip (swap both coordinates
    of every pair in x, fix the rest) maps the code onto itself, by
    filtering all 2^(n/2) of them."""
    m = code.n // 2
    words = codeword_set(code)
    found = []
    for flips in range(1 << m):
        images = [i ^ (flips >> (i // 2) & 1) for i in range(code.n)]
        if _fixes(code, words, images):
            found.append(flips)
    return found


def brute_pair_stabiliser(n: int, u_rows, fc_rows) -> set[tuple[int, ...]]:
    """The pair permutations pi other than the identity (pair p goes
    straight to pair pi[p]) that map both the span of ``u_rows`` and the
    span of ``fc_rows`` onto themselves, by filtering all of S_{n/2}."""
    spans = [LinearCode(n, tuple(rows)) for rows in (u_rows, fc_rows)]
    words = [codeword_set(c) for c in spans]
    found = set()
    for perm in permutations(range(n // 2)):
        images = [2 * perm[i // 2] + (i & 1) for i in range(n)]
        if perm != tuple(range(n // 2)) and all(
            _fixes(c, w, images) for c, w in zip(spans, words)
        ):
            found.add(perm)
    return found


def brute_weight_signatures(code: LinearCode) -> list[tuple[int, ...]]:
    """For each coordinate, the per-weight counts of codewords with a 1
    there, one bit at a time."""
    n = code.n
    sig = [[0] * (n + 1) for _ in range(n)]
    for bits in codeword_set(code):
        w = bits.bit_count()
        for i in range(n):
            if bits >> i & 1:
                sig[i][w] += 1
    return [tuple(s) for s in sig]


def _free_closure(base: frozenset, gen, n: int, cap: int):
    """Closure of base + {gen} under composition, None as soon as it
    exceeds ``cap`` elements or holds a non-identity element with a
    fixed point."""
    ident = tuple(range(n))
    elems = set(base)
    elems.add(gen)
    if len(elems) > cap:
        return None
    changed = True
    while changed:
        changed = False
        cur = list(elems)
        for a in cur:
            for b in cur:
                c = tuple(b[x] for x in a)
                if c not in elems:
                    if c != ident and any(c[i] == i for i in range(n)):
                        return None
                    elems.add(c)
                    if len(elems) > cap:
                        return None
                    changed = True
    return frozenset(elems)


def element_list_is_group_code(elements, n: int) -> bool:
    """Whether the listed permutation group (image tables) holds an
    order-n subgroup whose non-identity elements are all fixed point
    free, grown one fixed point free element at a time from the full
    element list."""
    if n == 1:
        return True
    ident = tuple(range(n))
    by_first: dict[int, list] = {}
    for g in elements:
        if all(g[i] != i for i in range(n)):
            by_first.setdefault(g[0], []).append(g)
    if any(j not in by_first for j in range(1, n)):
        return False
    seen: set[frozenset] = set()

    def grow(sub: frozenset) -> bool:
        if len(sub) == n:
            return True
        covered = {g[0] for g in sub}
        j = min(x for x in range(n) if x not in covered)
        for g in by_first[j]:
            nxt = _free_closure(sub, g, n, n)
            if nxt is None or nxt in seen:
                continue
            seen.add(nxt)
            if n % len(nxt) == 0 and grow(nxt):
                return True
        return False

    return grow(frozenset({ident}))
