"""FSST — Fast Static Symbol Table compression for string/binary columns.

Re-implementation (from the published FSST idea: a table of <=255 symbols of
1-8 bytes, greedy longest-match substitution to 1-byte codes, escape byte
0xFF for uncovered bytes) targeted by the north rule for url/text/html
bytes (SURVEY.md §2.3 E16). This is NOT a port of any implementation:
training is a small iterative merge loop on a sample; encoding is
vectorized NumPy — per-position longest-match via rolling window keys +
searchsorted, then a row-parallel greedy scan (one numpy step per emitted
symbol across all rows of the batch, so the Python-level loop count is
max-symbols-per-row, not total bytes). The scan is blocked into
generations of rounds so emission-order assembly is a blocked transpose
plus monotonic scatters; decode is three vectorized passes (escape-run
resolution, (n,8) symbol gather, boolean compress). Measured per core on
webtext: encode ~7 MB/s (long text) / ~23 MB/s (urls), decode ~40-75
MB/s — the sampling trial in bytes_codec.choose() means full FSST encode
only runs on columns where it beats raw+outer (short repetitive strings).

The symbol table is decode state: it is serialized into the stripe footer
(never kept only in encoder memory) — see stripe.py.
"""

from __future__ import annotations

import numpy as np

ESCAPE = 255
MAX_SYMBOLS = 255  # codes 0..254; 255 reserved for escape
MAX_SYMBOL_LEN = 8
PARSE_CHUNK = 1024  # parse-unit size; bounds the sequential depth of the
                    # scan. Larger chunks = fewer symbol-breaking unit
                    # boundaries (ratio 3.97 vs 3.60 at 512 on urls) at
                    # the cost of more sequential rounds per chunk.
TRAIN_UNIT = 64  # training's parse unit: its cost then follows the sample
                 # size (tables within 5% of PARSE_CHUNK-parsed ones)


class SymbolTable:
    """Immutable FSST symbol table with precomputed lookup structures.

    Longest-prefix matching uses one predecessor binary search over the
    zero-padded 8-byte symbol keys plus a fallback chain: the longest
    symbol matching window w is always on the longest-proper-prefix chain
    of the table's predecessor of w (any table entry between a matching
    prefix s-padded and w itself must start with s), so a match resolves
    in <= 8 vectorized chain steps instead of one probe per length."""

    __slots__ = (
        "symbols", "sym_lens", "sym_bytes", "pk", "pcodes", "plens", "pfall",
        "pshift", "pprefix",
    )

    def __init__(self, symbols: list[bytes]):
        if len(symbols) > MAX_SYMBOLS:
            raise ValueError("too many symbols")
        self.symbols = list(symbols)
        n = len(symbols)
        lens = np.array([len(s) for s in symbols], dtype=np.int64)
        bad = lens[(lens < 1) | (lens > MAX_SYMBOL_LEN)]
        if bad.size:
            raise ValueError(f"bad symbol length {bad[0]}")
        self.sym_lens = np.zeros(256, dtype=np.uint8)
        self.sym_lens[:n] = lens
        self.sym_bytes = np.zeros((256, MAX_SYMBOL_LEN), dtype=np.uint8)
        self.sym_bytes[:n] = np.frombuffer(
            b"".join(s.ljust(MAX_SYMBOL_LEN, b"\x00") for s in symbols), dtype=np.uint8
        ).reshape(n, MAX_SYMBOL_LEN)
        # zero-padded big-endian keys sorted by (key, length) + fallback
        # (longest proper prefix) pointers
        keys = self.sym_bytes[:n].view(">u8").ravel().astype(np.uint64)
        order = np.lexsort((lens, keys))
        self.pk, self.plens, self.pcodes = keys[order], lens[order], order.astype(np.uint8)
        order = order.tolist()
        pos_of = {symbols[c]: i for i, c in enumerate(order)}
        fall = np.full(n, -1, dtype=np.int64)
        for i, c in enumerate(order):
            s = symbols[c]
            for cut in range(len(s) - 1, 0, -1):
                j = pos_of.get(s[:cut])
                if j is not None:
                    fall[i] = j
                    break
        self.pfall = fall
        # per-entry probe precomputes: right-shift that isolates the
        # entry's prefix, and the prefix value itself (saves two shifts +
        # a multiply per fallback-chain step in _probe's hot loop)
        self.pshift = (np.uint64(8) * (np.uint64(MAX_SYMBOL_LEN) - self.plens.astype(np.uint64)))
        self.pprefix = self.pk >> self.pshift

    # -- serialization (decode state travels in the stripe footer) --
    def to_bytes(self) -> bytes:
        out = bytearray([len(self.symbols)])
        out.extend(len(s) for s in self.symbols)
        for s in self.symbols:
            out.extend(s)
        return bytes(out)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "SymbolTable":
        n = buf[0]
        lens = buf[1 : 1 + n]
        symbols = []
        pos = 1 + n
        for ln in lens:
            symbols.append(bytes(buf[pos : pos + ln]))
            pos += ln
        return cls(symbols)


def _parse_sample(table: SymbolTable, data: np.ndarray, keys8: np.ndarray):
    """Greedy-parse ``data`` with ``table`` in ``TRAIN_UNIT``-byte units
    (the Python loop count is symbols-per-unit, not total symbols).
    Returns (positions, lengths) of the emitted symbols in text order;
    escapes emit length 1."""
    n = data.size
    starts = np.arange(0, n, TRAIN_UNIT, dtype=np.int64)
    ends = np.minimum(starts + TRAIN_UNIT, n)
    p, e = starts.copy(), ends.copy()
    pos_parts, len_parts = [], []
    while p.size:
        _, ln = _probe(table, keys8[p], e - p)
        ln = np.where(ln == 0, 1, ln)  # escape -> single byte
        pos_parts.append(p.copy())
        len_parts.append(ln)
        p = p + ln
        alive = p < e
        p, e = p[alive], e[alive]
    P = np.concatenate(pos_parts)
    L = np.concatenate(len_parts)
    o = np.argsort(P, kind="stable")
    return P[o], L[o]


def _count_gains(keys8: np.ndarray, pos: np.ndarray, length: np.ndarray, weight_fn):
    """Vectorized frequency counting of the (position, length) substrings
    via their masked 8-byte window keys. Returns (keys, lens, gains)."""
    shift = np.uint64(8) * (np.uint64(MAX_SYMBOL_LEN) - length.astype(np.uint64))
    skey = keys8[pos] >> shift
    order = np.lexsort((length, skey))
    sk, sl = skey[order], length[order]
    new = np.concatenate([[True], (sk[1:] != sk[:-1]) | (sl[1:] != sl[:-1])])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, sk.size))
    return sk[starts], sl[starts], weight_fn(counts, sl[starts])


def train(sample: bytes, generations: int = 4, max_symbols: int = MAX_SYMBOLS) -> SymbolTable:
    """Train a symbol table on ``sample`` (keep it <= ~16 KiB).

    Iterative scheme (same as the original dict-based loop, now fully
    vectorized on the _probe matcher): parse the sample greedily with the
    current table, count symbol and adjacent-pair frequencies, promote
    the highest-gain concatenations (gain = saved bytes = freq*(len-1),
    singles compete on escape-avoidance gain = freq)."""
    if not sample:
        return SymbolTable([])
    data = np.frombuffer(sample, dtype=np.uint8)
    keys8 = _window_keys(data)
    # the starting table, every single byte, parses the sample byte by byte
    P, L = np.arange(data.size, dtype=np.int64), np.ones(data.size, dtype=np.int64)
    for gen in range(generations):
        if gen:
            P, L = _parse_sample(table, data, keys8)
        sym_k, sym_l, sym_g = _count_gains(
            keys8, P, L, lambda c, ln: c * np.maximum(ln - 1, 1)
        )
        # adjacent-pair candidates: contiguous emissions whose merged
        # length fits a symbol
        comb = L[:-1] + L[1:]
        adj = (P[1:] == P[:-1] + L[:-1]) & (comb <= MAX_SYMBOL_LEN)
        if adj.any():
            pair_k, pair_l, pair_g = _count_gains(
                keys8, P[:-1][adj], comb[adj], lambda c, ln: c * (ln - 1)
            )
            all_k = np.concatenate([sym_k, pair_k])
            all_l = np.concatenate([sym_l, pair_l])
            all_g = np.concatenate([sym_g, pair_g])
        else:
            all_k, all_l, all_g = sym_k, sym_l, sym_g
        # dedupe (key,len) keeping max gain, then top max_symbols by gain
        order = np.lexsort((-all_g, all_l, all_k))
        k_s, l_s, g_s = all_k[order], all_l[order], all_g[order]
        first = np.concatenate([[True], (k_s[1:] != k_s[:-1]) | (l_s[1:] != l_s[:-1])])
        k_u, l_u, g_u = k_s[first], l_s[first], g_s[first]
        top = np.argsort(-g_u, kind="stable")[:max_symbols]
        symbols = [
            int(k).to_bytes(MAX_SYMBOL_LEN, "big")[MAX_SYMBOL_LEN - int(ln):]
            for k, ln in zip(k_u[top], l_u[top])
        ]
        table = SymbolTable(symbols)
    return table


def _window_keys(data: np.ndarray) -> np.ndarray:
    """uint64 big-endian 8-byte window key at every position (zero padded).
    One materializing copy (the window gather) + an in-place byteswap —
    the astype(uint64) here used to be a second full-size copy."""
    n = data.size
    padded = np.concatenate([data, np.zeros(MAX_SYMBOL_LEN - 1, dtype=np.uint8)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, MAX_SYMBOL_LEN)[:n]
    k = np.ascontiguousarray(windows).view(np.uint64).ravel()
    if not k.flags.writeable:  # tiny inputs: no copy was made above
        k = k.copy()
    k.byteswap(inplace=True)  # owned by the copy
    return k


def _probe(
    table: SymbolTable, keys8: np.ndarray, limit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Longest-match (code, length) for the window keys in ``keys8``
    (length 0 = no match -> escape). ``limit`` = bytes remaining in the
    position's row — matches never cross row boundaries so each row stays
    independently parseable.

    One predecessor binary search, then the fallback chain (see
    SymbolTable docstring) resolves the longest valid prefix in <= 8
    shrinking vectorized steps."""
    m = keys8.size
    code = np.zeros(m, dtype=np.uint8)
    length_out = np.zeros(m, dtype=np.int64)
    if table.pk.size == 0 or m == 0:
        return code, length_out
    cur = np.searchsorted(table.pk, keys8, side="right") - 1
    unm = np.flatnonzero(cur >= 0)
    cur = cur[unm]
    while unm.size:
        plen = table.plens[cur]
        hit = ((keys8[unm] >> table.pshift[cur]) == table.pprefix[cur]) & (plen <= limit[unm])
        hit_idx = unm[hit]
        code[hit_idx] = table.pcodes[cur[hit]]
        length_out[hit_idx] = plen[hit]
        miss = ~hit
        cur = table.pfall[cur[miss]]
        unm = unm[miss]
        alive = cur >= 0
        if not alive.all():
            cur = cur[alive]
            unm = unm[alive]
    return code, length_out


def encode(
    table: SymbolTable, data: np.ndarray, row_offsets: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Encode concatenated row bytes.

    ``data``: uint8 array (all rows back to back); ``row_offsets``:
    int64[n_rows+1] boundaries. Symbols never span row boundaries, which
    keeps rows independently parseable and lets the greedy scan run one
    vectorized step per emitted symbol across all rows.

    Returns (code_bytes, encoded_len_per_row int64[n_rows]).
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    n_rows = row_offsets.size - 1
    if data.size == 0:
        return b"", np.zeros(n_rows, dtype=np.int64)
    keys8 = _window_keys(data)
    # split long rows into <=PARSE_CHUNK-byte parse units so the greedy scan
    # stays wide (one numpy step per symbol ACROSS units); unit boundaries
    # are invisible to decode, which re-splits by original row lengths.
    row_starts = row_offsets[:-1].astype(np.int64)
    row_ends = row_offsets[1:].astype(np.int64)
    lens = row_ends - row_starts
    pieces = np.maximum((lens + PARSE_CHUNK - 1) // PARSE_CHUNK, 1)
    n_units = int(pieces.sum())
    unit_row = np.repeat(np.arange(n_rows, dtype=np.int64), pieces)
    first_unit = np.concatenate([[0], np.cumsum(pieces)[:-1]])
    within = np.arange(n_units, dtype=np.int64) - np.repeat(first_unit, pieces)
    p = row_starts[unit_row] + within * PARSE_CHUNK
    ends = np.minimum(p + PARSE_CHUNK, row_ends[unit_row])
    rid = np.arange(n_units, dtype=np.int64)  # unit id; maps to row via unit_row
    alive = p < ends
    p, ends, rid = p[alive], ends[alive], rid[alive]
    # The scan runs in GENERATIONS of up to _GEN_ROUNDS rounds over a fixed
    # lane set. Each round probes only the still-alive lanes and writes its
    # (code, literal) row into a dense (rounds x lanes) matrix; at the end
    # of a generation the matrix transposes+compresses into lane-major
    # emission runs. Round-major -> emission-order placement then needs one
    # MONOTONIC scatter per generation instead of the 1-random-write-per-
    # symbol counting placement this replaces (which was ~2/3 of encode
    # wall time at MB scale: every scatter touched a distinct cache line).
    _GEN_ROUNDS = 32
    tot = np.zeros(n_units, dtype=np.int64)  # emissions per unit
    gens: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    while p.size:
        w = p.size
        mat = np.empty((_GEN_ROUNDS, w), dtype=np.uint8)
        lit = np.zeros((_GEN_ROUNDS, w), dtype=np.uint8)
        valid = np.zeros((_GEN_ROUNDS, w), dtype=bool)
        r = 0
        idx: np.ndarray | None = None  # None = every lane alive
        while r < _GEN_ROUNDS:
            if idx is None:
                c, ln = _probe(table, keys8[p], ends - p)
                esc = ln == 0
                if esc.any():
                    c[esc] = ESCAPE
                    ln[esc] = 1
                    lit[r] = np.where(esc, data[p], 0)
                mat[r] = c
                valid[r] = True
                p = p + ln
                alive = p < ends
            else:
                pi = p[idx]
                c, ln = _probe(table, keys8[pi], ends[idx] - pi)
                esc = ln == 0
                if esc.any():
                    c[esc] = ESCAPE
                    ln[esc] = 1
                    lit[r, idx] = np.where(esc, data[pi], 0)
                mat[r, idx] = c
                valid[r, idx] = True
                p[idx] = pi + ln
                alive[idx] = p[idx] < ends[idx]
            r += 1
            if alive.all():
                idx = None
            else:
                idx = np.flatnonzero(alive)
                if idx.size == 0:
                    break
        used = valid[:r]
        run_len = used.sum(axis=0)
        s_codes = mat[:r].T[used.T]  # lane-major emission runs
        s_lits = lit[:r].T[used.T]
        tot[rid] += run_len
        gens.append((rid, run_len, s_codes, s_lits))
        if idx is None:  # every lane still alive; p/ends/rid carry over
            continue
        if idx.size == 0:
            break
        p, ends, rid = p[idx], ends[idx], rid[idx]
    unit_start = np.concatenate([[0], np.cumsum(tot)[:-1]])
    consumed = np.zeros(n_units, dtype=np.int64)
    total_em = int(tot.sum())
    C_s = np.empty(total_em, dtype=np.uint8)
    L_s = np.empty(total_em, dtype=np.uint8)
    for rid_g, run_len, s_codes, s_lits in gens:
        start = unit_start[rid_g] + consumed[rid_g]
        consumed[rid_g] += run_len
        off_g = np.concatenate([[0], np.cumsum(run_len)[:-1]])
        ramp = np.arange(s_codes.size, dtype=np.int64) - np.repeat(off_g, run_len)
        dest = np.repeat(start, run_len) + ramp
        C_s[dest] = s_codes
        L_s[dest] = s_lits
    esc_mask = C_s == ESCAPE
    unit_len = np.where(esc_mask, 2, 1).astype(np.int64)
    out = np.empty(int(unit_len.sum()), dtype=np.uint8)
    off = np.concatenate([[0], np.cumsum(unit_len)[:-1]])
    out[off] = C_s
    out[off[esc_mask] + 1] = L_s[esc_mask]
    # bytes per unit = emissions + escapes; roll up to rows (every row has
    # >=1 unit so first_unit is strictly increasing -> reduceat is safe)
    csz = np.concatenate([[0], np.cumsum(esc_mask)])
    unit_nbytes = tot + (csz[unit_start + tot] - csz[unit_start])
    row_nbytes = np.add.reduceat(unit_nbytes, first_unit)
    return out.tobytes(), row_nbytes


def decode(table: SymbolTable, buf: bytes) -> np.ndarray:
    """Decode a code stream back to the original concatenated bytes."""
    codes = np.frombuffer(buf, dtype=np.uint8)
    n = codes.size
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    esc_positions = np.flatnonzero(codes == ESCAPE)
    if esc_positions.size == 0:
        return _expand(table, codes, None, None)
    # identify maximal runs of ESCAPE bytes; within a run starting at a unit
    # boundary, even offsets are escape markers, odd offsets are literals;
    # an odd-length run additionally escapes the byte right after the run.
    is_literal = np.zeros(n, dtype=bool)
    is_marker = np.zeros(n, dtype=bool)
    breaks = np.flatnonzero(np.diff(esc_positions) > 1)
    run_starts = np.concatenate([[0], breaks + 1])
    run_ends = np.concatenate([breaks, [esc_positions.size - 1]])
    # vectorized over runs (a Python per-run loop here was the decode
    # bottleneck on escape-heavy streams): run k starting at s_k with
    # length rl_k has markers at s_k + 2*j for j < ceil(rl_k/2); every
    # marker's literal is the following byte (for the odd-length tail
    # marker that byte sits just past the run).
    s_arr = esc_positions[run_starts]
    rl = esc_positions[run_ends] - s_arr + 1
    m_counts = (rl + 1) // 2
    total_m = int(m_counts.sum())
    cum = np.concatenate([[0], np.cumsum(m_counts)[:-1]])
    within = np.arange(total_m, dtype=np.int64) - np.repeat(cum, m_counts)
    markers = np.repeat(s_arr, m_counts) + 2 * within
    is_marker[markers] = True
    lits = markers + 1
    is_literal[lits[lits < n]] = True
    normal = ~(is_marker | is_literal) & (codes != ESCAPE)
    # emit units in position order: markers emit their following literal byte
    unit_pos = np.flatnonzero(normal | is_marker)
    unit_is_marker = is_marker[unit_pos]
    unit_codes = codes[unit_pos]
    literal_bytes = np.zeros(unit_pos.size, dtype=np.uint8)
    marker_idx = np.flatnonzero(unit_is_marker)
    literal_bytes[marker_idx] = codes[np.minimum(unit_pos[marker_idx] + 1, n - 1)]
    return _expand(table, unit_codes, unit_is_marker, literal_bytes)


def _expand(
    table: SymbolTable,
    codes: np.ndarray,
    is_literal: np.ndarray | None,
    literal_bytes: np.ndarray | None,
) -> np.ndarray:
    """Expand unit codes to output bytes: one (n,8) symbol-byte gather, a
    broadcast length mask, and a single boolean compress. Measured ~1.5x
    faster than the per-length scatter loop it replaces (39 vs 26 MB/s on
    40 MB of encoded text)."""
    lens = table.sym_lens[codes]  # fancy index -> fresh array, mutable
    mat = table.sym_bytes[codes]
    if is_literal is not None:
        lens[is_literal] = 1
        mat[is_literal, 0] = literal_bytes[is_literal]
    mask = np.arange(MAX_SYMBOL_LEN, dtype=np.uint8) < lens[:, None]
    return mat[mask]
