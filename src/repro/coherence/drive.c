/* The drive loop of repro.coherence.machine, compiled.
 *
 * A line-by-line transliteration of MulticoreMachine._drive_ref and the
 * methods it calls (_snoop, _contention, _upgrade_shared, _service_miss,
 * _any_remote_holder, _install, _fill_l1, SetAssociativeCache's LRU sets,
 * the DTLB OrderedDicts, the line-fill-buffer window, the next-line
 * prefetcher, the contender epoch and HITM sampling).  Each function below
 * names the Python code it mirrors and performs the same operations in the
 * same order, so every counter is equal and every floating-point sum is
 * bitwise equal: it is the same sequence of IEEE double additions and
 * multiplications, built with -O2 -fno-fast-math -ffp-contract=off (no
 * reassociation, no fused multiply-add).
 *
 * All state lives in arrays that repro.coherence.native allocates, checks
 * and keeps alive for the whole run; nothing here allocates.  The Python
 * side validates every trace-derived value that indexes an array (core
 * range, lengths, dtypes) before it calls drive().
 */
#include <stdint.h>
#include <string.h>

enum { SHARED = 1, EXCLUSIVE = 2, MODIFIED = 3 };  /* protocol.py; 0: absent */

/* _EventTallies' integer counters, in native.EVENTS order. */
enum {
    L2_DEMAND_I, L2_LD_MISS, L2_LD_HIT, L2_RFO_HIT_S, L2_RQSTS_RFO_MISS,
    L2_RQSTS_RFO_HIT, L2_FILL, L2_LINES_IN_S, L2_LINES_IN_E,
    L2_LINES_OUT_CLEAN, L2_LINES_OUT_DIRTY, SNOOP_HIT, SNOOP_HITE,
    SNOOP_HITM, HITM_SOCKET_REMOTE, OFFCORE_RD, OFFCORE_RFO, L3_HIT,
    L3_MISS, WRITEBACKS, PREFETCH_HITS
};
enum { STALL_STORE, STALL_LOAD };
/* _SegmentTallies' scalar counters, in native.SEGMENT order. */
enum { N_DTLB, N_DTLB_ST, N_L1_MISS, N_HIT_LFB, N_RFO_S, N_WRITES, N_READS };
/* drive()'s return codes, in native.ERRORS order. */
enum { OK, ABSENT_LINE, SAMPLES_FULL, CONTENDERS_FULL };

/* SetAssociativeCache for `caches` cores at once: set s of cache k holds
 * fill[k * nsets + s] lines in slots [0, fill), least recently used first,
 * exactly the key order of the Python set's OrderedDict. */
typedef struct {
    int64_t *line;
    int8_t *state;
    int32_t *fill;
    int64_t nsets, assoc;
    int64_t pow2;  /* nsets is a power of two: index with & (nsets - 1) */
} Cache;

typedef struct {
    int64_t nt, cores_per_socket, tlb_cap, prefetch, hitm_period, epoch;
    int64_t words;  /* 64-bit words per contender mask */
    double l2_hit, l3_hit, memory, snoop_clean, hitm_local, hitm_remote,
        rfo_upgrade, tlb_walk_eff, load_overlap, store_overlap,
        contention_factor;
    Cache l1, l2, l3;
    /* _RunState */
    int64_t *tlb;  /* [nt][tlb_cap] pages, least recently used first */
    int32_t *tlb_fill;
    int64_t *last_miss_line, *lfb_line, *lfb_window;
    int64_t decay_countdown;
    /* machine._contenders: entries in insertion order plus a hash index */
    int64_t *cont_line;
    uint64_t *cont_mask;   /* [epoch][words] */
    int32_t *cont_slot;    /* hash slot of each entry */
    int32_t *cont_index;   /* [cont_slots] entry, or -1 */
    int64_t cont_slots;    /* a power of two, at least 2 * epoch */
    int64_t cont_n;
    int64_t hitm_seen, last_responder;
    /* the current slice's tallies */
    int64_t *ev;
    double *stall;
    double *penalty;
    int64_t *accesses;
    int64_t *seg;
    /* HITM samples of this call: (requester, holder, addr, is_write) rows */
    int64_t *samples;
    int64_t n_samples, cap_samples;
    int64_t error;
} Machine;

/* --------------------------------------------------------------- cache.py */

/* SetAssociativeCache.index: Python's & and % are never negative. */
static inline int64_t set_of(const Cache *ca, int64_t k, int64_t line)
{
    int64_t s;
    if (ca->pow2) {
        s = line & (ca->nsets - 1);
    } else {
        s = line % ca->nsets;
        if (s < 0)
            s += ca->nsets;
    }
    return k * ca->nsets + s;
}

/* Slot of `line` in set `set`, or -1. */
static inline int64_t find(const Cache *ca, int64_t set, int64_t line)
{
    const int64_t *ln = ca->line + set * ca->assoc;
    for (int64_t i = (int64_t)ca->fill[set] - 1; i >= 0; i--)
        if (ln[i] == line)
            return i;
    return -1;
}

/* OrderedDict.move_to_end; returns the line's new slot. */
static inline int64_t move_to_end(Cache *ca, int64_t set, int64_t i)
{
    int64_t *ln = ca->line + set * ca->assoc;
    int8_t *st = ca->state + set * ca->assoc;
    int64_t last = (int64_t)ca->fill[set] - 1;
    if (i != last) {
        int64_t l = ln[i];
        int8_t s = st[i];
        memmove(ln + i, ln + i + 1, (size_t)(last - i) * sizeof *ln);
        memmove(st + i, st + i + 1, (size_t)(last - i) * sizeof *st);
        ln[last] = l;
        st[last] = s;
    }
    return last;
}

static inline void remove_slot(Cache *ca, int64_t set, int64_t i)
{
    int64_t *ln = ca->line + set * ca->assoc;
    int8_t *st = ca->state + set * ca->assoc;
    int64_t n = ca->fill[set];
    memmove(ln + i, ln + i + 1, (size_t)(n - 1 - i) * sizeof *ln);
    memmove(st + i, st + i + 1, (size_t)(n - 1 - i) * sizeof *st);
    ca->fill[set] = (int32_t)(n - 1);
}

/* SetAssociativeCache.lookup: the state, or 0 when absent. */
static inline int lookup(const Cache *ca, int64_t k, int64_t line)
{
    int64_t set = set_of(ca, k, line);
    int64_t i = find(ca, set, line);
    return i < 0 ? 0 : ca->state[set * ca->assoc + i];
}

/* SetAssociativeCache.touch */
static inline int touch(Cache *ca, int64_t k, int64_t line)
{
    int64_t set = set_of(ca, k, line);
    int64_t i = find(ca, set, line);
    if (i < 0)
        return 0;
    i = move_to_end(ca, set, i);
    return ca->state[set * ca->assoc + i];
}

/* SetAssociativeCache.set_state: an absent line is the caller's bug. */
static inline void set_state(Machine *m, Cache *ca, int64_t k, int64_t line,
                             int state)
{
    int64_t set = set_of(ca, k, line);
    int64_t i = find(ca, set, line);
    if (i < 0)
        m->error = ABSENT_LINE;
    else
        ca->state[set * ca->assoc + i] = (int8_t)state;
}

/* SetAssociativeCache.insert: returns 1 and the victim when one is
 * evicted. */
static inline int insert(Cache *ca, int64_t k, int64_t line, int state,
                         int64_t *vline, int *vstate)
{
    int64_t set = set_of(ca, k, line);
    int64_t i = find(ca, set, line);
    int64_t *ln = ca->line + set * ca->assoc;
    int8_t *st = ca->state + set * ca->assoc;
    int evicted = 0;
    if (i >= 0) {
        st[i] = (int8_t)state;
        move_to_end(ca, set, i);
        return 0;
    }
    if (ca->fill[set] >= ca->assoc) {
        *vline = ln[0];
        *vstate = st[0];
        remove_slot(ca, set, 0);
        evicted = 1;
    }
    ln[ca->fill[set]] = line;
    st[ca->fill[set]] = (int8_t)state;
    ca->fill[set] += 1;
    return evicted;
}

/* SetAssociativeCache.remove */
static inline void cache_remove(Cache *ca, int64_t k, int64_t line)
{
    int64_t set = set_of(ca, k, line);
    int64_t i = find(ca, set, line);
    if (i >= 0)
        remove_slot(ca, set, i);
}

/* ------------------------------------------------------------- timing.py */

/* LatencyModel.effective */
static inline double effective(const Machine *m, double penalty, int is_write)
{
    double ov = is_write ? m->store_overlap : m->load_overlap;
    return penalty * (1.0 - ov);
}

/* LatencyModel.contended */
static inline double contended(const Machine *m, double penalty,
                               int64_t contenders)
{
    if (contenders <= 1)
        return penalty;
    return penalty * (1.0 + m->contention_factor * (double)(contenders - 1));
}

/* ------------------------------------------------------------ machine.py */

static inline int64_t socket_of(const Machine *m, int64_t core)
{
    return core / m->cores_per_socket;
}

static inline int64_t hash_slot(const Machine *m, int64_t line)
{
    uint64_t x = (uint64_t)line * 0x9E3779B97F4A7C15ull;
    return (int64_t)((x ^ (x >> 32)) & (uint64_t)(m->cont_slots - 1));
}

/* self._contenders.clear() */
static void contenders_clear(Machine *m)
{
    for (int64_t e = 0; e < m->cont_n; e++)
        m->cont_index[m->cont_slot[e]] = -1;
    m->cont_n = 0;
}

/* _contention: record core c on the line; return its contender count. */
static int64_t contention(Machine *m, int64_t c, int64_t line)
{
    int64_t slot = hash_slot(m, line);
    int32_t e;
    while ((e = m->cont_index[slot]) >= 0 && m->cont_line[e] != line)
        slot = (slot + 1) & (m->cont_slots - 1);
    if (e < 0) {
        /* At most one call per access and a clear every epoch accesses. */
        if (m->cont_n >= m->epoch) {
            m->error = CONTENDERS_FULL;
            return 1;
        }
        e = (int32_t)m->cont_n++;
        m->cont_line[e] = line;
        m->cont_slot[e] = (int32_t)slot;
        memset(m->cont_mask + e * m->words, 0,
               (size_t)m->words * sizeof *m->cont_mask);
        m->cont_index[slot] = e;
    }
    uint64_t *mask = m->cont_mask + e * m->words;
    mask[c / 64] |= 1ull << (c % 64);
    int64_t count = 0;
    for (int64_t i = 0; i < m->words; i++)
        count += __builtin_popcountll(mask[i]);
    return count;
}

/* _snoop: broadcast on the bus, adjust remote holders, return the best
 * holder state. */
static int snoop(Machine *m, int64_t c, int64_t line, int want_write,
                 int64_t addr)
{
    int best = 0;
    int64_t best_core = -1;
    for (int64_t o = 0; o < m->nt; o++) {
        if (o == c)
            continue;
        int64_t set = set_of(&m->l2, o, line);
        int64_t i = find(&m->l2, set, line);
        if (i < 0)
            continue;
        int st = m->l2.state[set * m->l2.assoc + i];
        if (st > best) {
            best = st;
            best_core = o;
        }
        if (want_write) {
            remove_slot(&m->l2, set, i);
            cache_remove(&m->l1, o, line);
            if (st == MODIFIED)
                m->ev[WRITEBACKS] += 1;
        } else {
            if (st == MODIFIED)
                m->ev[WRITEBACKS] += 1;
            if (st != SHARED) {
                m->l2.state[set * m->l2.assoc + i] = SHARED;
                int64_t set1 = set_of(&m->l1, o, line);
                int64_t j = find(&m->l1, set1, line);
                if (j >= 0)
                    m->l1.state[set1 * m->l1.assoc + j] = SHARED;
            }
        }
    }
    if (best == MODIFIED) {
        m->ev[SNOOP_HITM] += 1;
        m->ev[HITM_SOCKET_REMOTE] +=
            socket_of(m, best_core) != socket_of(m, c);
        if (m->hitm_period) {
            m->hitm_seen += 1;
            if (m->hitm_seen >= m->hitm_period) {
                m->hitm_seen = 0;
                if (m->n_samples >= m->cap_samples) {
                    m->error = SAMPLES_FULL;
                } else {
                    int64_t *row = m->samples + 4 * m->n_samples++;
                    row[0] = c;
                    row[1] = best_core;
                    row[2] = addr;
                    row[3] = want_write;
                }
            }
        }
    } else if (best == EXCLUSIVE) {
        m->ev[SNOOP_HITE] += 1;
    } else if (best == SHARED) {
        m->ev[SNOOP_HIT] += 1;
    }
    m->last_responder = best_core;
    return best;
}

/* _upgrade_shared: write hit on a Shared line.  Returns stall cycles. */
static double upgrade_shared(Machine *m, int64_t c, int64_t line,
                             int64_t addr)
{
    snoop(m, c, line, 1, addr);
    set_state(m, &m->l1, c, line, MODIFIED);
    set_state(m, &m->l2, c, line, MODIFIED);
    double penalty = contended(m, m->rfo_upgrade, contention(m, c, line));
    m->stall[STALL_STORE] += penalty;
    return effective(m, penalty, 1);
}

/* _any_remote_holder */
static int any_remote_holder(const Machine *m, int64_t c, int64_t line)
{
    for (int64_t o = 0; o < m->nt; o++)
        if (o != c && lookup(&m->l2, o, line))
            return 1;
    return 0;
}

/* _fill_l1: an L1 victim needs no bookkeeping (the L2 is inclusive). */
static inline void fill_l1(Machine *m, int64_t c, int64_t line, int state)
{
    int64_t vline;
    int vstate;
    insert(&m->l1, c, line, state, &vline, &vstate);
}

/* _install: fill both private levels, back-invalidating an L2 victim. */
static void install(Machine *m, int64_t c, int64_t line, int state)
{
    int64_t eline, vline;
    int est, vstate;
    if (insert(&m->l2, c, line, state, &eline, &est)) {
        cache_remove(&m->l1, c, eline);
        if (est == MODIFIED) {
            m->ev[L2_LINES_OUT_DIRTY] += 1;
            m->ev[WRITEBACKS] += 1;
            insert(&m->l3, 0, eline, SHARED, &vline, &vstate);
        } else {
            m->ev[L2_LINES_OUT_CLEAN] += 1;
        }
    }
    fill_l1(m, c, line, state);
}

/* _service_miss: L2 lookup, bus, L3, memory.  Returns stall cycles. */
static double service_miss(Machine *m, int64_t c, int64_t line, int w,
                           int64_t addr)
{
    int64_t vline;
    int vstate;
    double penalty;
    int64_t set = set_of(&m->l2, c, line);
    int64_t i = find(&m->l2, set, line);
    if (i >= 0) {
        /* L2 hit.  _snoop leaves core c's own sets alone, so slot i
         * still holds the line after it. */
        i = move_to_end(&m->l2, set, i);
        int st = m->l2.state[set * m->l2.assoc + i];
        if (w) {
            if (st == SHARED) {
                m->ev[L2_RFO_HIT_S] += 1;
                snoop(m, c, line, 1, addr);
                st = MODIFIED;
                m->l2.state[set * m->l2.assoc + i] = MODIFIED;
                penalty = contended(m, m->rfo_upgrade,
                                    contention(m, c, line));
                m->stall[STALL_STORE] += penalty;
            } else if (st == EXCLUSIVE) {
                st = MODIFIED;
                m->l2.state[set * m->l2.assoc + i] = MODIFIED;
                penalty = m->l2_hit;
            } else {
                penalty = m->l2_hit;
            }
            m->ev[L2_RQSTS_RFO_HIT] += 1;
        } else {
            m->ev[L2_LD_HIT] += 1;
            penalty = m->l2_hit;
        }
        fill_l1(m, c, line, st);
        if (!w)
            m->stall[STALL_LOAD] += penalty;
        return effective(m, penalty, w);
    }

    /* L2 miss: demand request leaves the core. */
    m->ev[L2_DEMAND_I] += 1;
    int prefetched = m->prefetch && !w
        && line == m->last_miss_line[c] + 1
        && !any_remote_holder(m, c, line);
    m->last_miss_line[c] = line;
    if (prefetched) {
        m->ev[PREFETCH_HITS] += 1;
        m->ev[L2_FILL] += 1;
        m->ev[L2_LINES_IN_E] += 1;
        install(m, c, line, EXCLUSIVE);
        m->stall[STALL_LOAD] += m->l2_hit;
        return effective(m, m->l2_hit, 0);
    }

    if (w) {
        m->ev[L2_RQSTS_RFO_MISS] += 1;
        m->ev[OFFCORE_RFO] += 1;
    } else {
        m->ev[L2_LD_MISS] += 1;
        m->ev[OFFCORE_RD] += 1;
    }

    int best = snoop(m, c, line, w, addr);
    if (best == MODIFIED) {
        int same = socket_of(m, m->last_responder) == socket_of(m, c);
        double hitm = same ? m->hitm_local : m->hitm_remote;
        penalty = contended(m, hitm, contention(m, c, line));
        insert(&m->l3, 0, line, SHARED, &vline, &vstate);
    } else if (best) {
        penalty = m->snoop_clean;
    } else if (touch(&m->l3, 0, line)) {
        m->ev[L3_HIT] += 1;
        penalty = m->l3_hit;
    } else {
        m->ev[L3_MISS] += 1;
        penalty = m->memory;
        insert(&m->l3, 0, line, SHARED, &vline, &vstate);
    }

    int new_state = w ? MODIFIED : (best ? SHARED : EXCLUSIVE);
    m->ev[L2_FILL] += 1;
    if (new_state == SHARED)
        m->ev[L2_LINES_IN_S] += 1;
    else if (new_state == EXCLUSIVE)
        m->ev[L2_LINES_IN_E] += 1;
    install(m, c, line, new_state);
    if (w)
        m->stall[STALL_STORE] += penalty;
    else
        m->stall[STALL_LOAD] += penalty;
    return effective(m, penalty, w);
}

/* The DTLB block of _drive_ref: 1 on a hit (page made most recent). */
static inline int tlb_access(Machine *m, int64_t c, int64_t page)
{
    int64_t *t = m->tlb + c * m->tlb_cap;
    int64_t n = m->tlb_fill[c];
    for (int64_t i = n - 1; i >= 0; i--) {
        if (t[i] == page) {
            memmove(t + i, t + i + 1, (size_t)(n - 1 - i) * sizeof *t);
            t[n - 1] = page;
            return 1;
        }
    }
    if (n >= m->tlb_cap) {
        memmove(t, t + 1, (size_t)(n - 1) * sizeof *t);
        n -= 1;
    }
    t[n] = page;
    m->tlb_fill[c] = (int32_t)(n + 1);
    return 0;
}

/* _drive_ref: one iteration per access.  Returns an error code (OK). */
int64_t drive(Machine *m, const int16_t *core, const int64_t *addr,
              const uint8_t *write, int64_t n)
{
    int64_t n_dtlb = 0, n_dtlb_st = 0, n_l1_miss = 0, n_hit_lfb = 0;
    int64_t n_rfo_s = 0, n_writes = 0;
    int64_t decay_countdown = m->decay_countdown;
    Cache *l1 = &m->l1;

    for (int64_t k = 0; k < n && !m->error; k++) {
        int64_t c = core[k];
        int64_t a = addr[k];
        int w = write[k] != 0;
        int64_t line = a >> 6;
        int64_t page = a >> 12;
        m->accesses[c] += 1;
        if (w)
            n_writes += 1;
        decay_countdown -= 1;
        if (!decay_countdown) {
            contenders_clear(m);
            decay_countdown = m->epoch;
        }
        /* DTLB */
        if (!tlb_access(m, c, page)) {
            n_dtlb += 1;
            if (w)
                n_dtlb_st += 1;
            m->penalty[c] += m->tlb_walk_eff;
        }
        /* L1 fast path */
        int64_t set = set_of(l1, c, line);
        int64_t i = find(l1, set, line);
        if (i >= 0) {
            i = move_to_end(l1, set, i);
            int st = l1->state[set * l1->assoc + i];
            if (w) {
                if (st == MODIFIED)
                    continue;
                if (st == EXCLUSIVE) {
                    l1->state[set * l1->assoc + i] = MODIFIED;
                    set_state(m, &m->l2, c, line, MODIFIED);
                    continue;
                }
                /* Shared: needs an RFO upgrade on the bus. */
                n_rfo_s += 1;
                m->penalty[c] += upgrade_shared(m, c, line, a);
            } else if (m->lfb_window[c] && line == m->lfb_line[c]) {
                n_hit_lfb += 1;
                m->lfb_window[c] -= 1;
            }
            continue;
        }
        /* L1 miss */
        n_l1_miss += 1;
        m->penalty[c] += service_miss(m, c, line, w, a);
        m->lfb_line[c] = line;
        m->lfb_window[c] = 1;
    }

    m->decay_countdown = decay_countdown;
    m->seg[N_DTLB] += n_dtlb;
    m->seg[N_DTLB_ST] += n_dtlb_st;
    m->seg[N_L1_MISS] += n_l1_miss;
    m->seg[N_HIT_LFB] += n_hit_lfb;
    m->seg[N_RFO_S] += n_rfo_s;
    m->seg[N_WRITES] += n_writes;
    m->seg[N_READS] += n - n_writes;
    return m->error;
}
