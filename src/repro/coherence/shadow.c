/* The shadow-memory oracle of repro.baselines.shadow, compiled.
 *
 * A transliteration of the per-access loop of ShadowMemoryDetector._walk_ref
 * (the spec), for the lines at least two threads touch.  It walks the
 * chunked round-robin order of interleave_stream itself, over the
 * per-thread columns: rounds lo = 0, chunk, 2 * chunk, ..., and in each
 * round threads 0..nt-1 issue their rows [lo, min(lo + chunk, len)).
 * Rows whose line index is -1 (a private line) are skipped: their state is
 * never read by a shared line's decision.
 *
 * State is dense, one entry per shared line k: the holder bitmask, the
 * touched-slot and invalidator-slot masks of each of the <= 8 threads
 * (one bit per 4-byte slot of the 64-byte line), and the line's false and
 * true sharing miss counts.  It is all integer arithmetic, so the counts
 * are exactly the spec's.  repro.coherence.native allocates and checks
 * every array (column lengths and dtypes, the line index range, nt <= 8)
 * before it calls shadow(); nothing here allocates.
 */
#include <stdint.h>

enum { MAX_THREADS = 8 };

/* Returns the cold misses on shared lines; fs and ts accumulate per line. */
int64_t shadow(int64_t nt, int64_t chunk, const int64_t *const *addrs,
               const uint8_t *const *writes, const int32_t *const *index,
               const int64_t *lens, uint8_t *holders, uint16_t *tmask,
               uint16_t *inval, int64_t *fs, int64_t *ts)
{
    int64_t cold = 0, longest = 0;
    for (int64_t t = 0; t < nt; t++)
        if (lens[t] > longest)
            longest = lens[t];
    for (int64_t lo = 0; lo < longest;
         lo = longest - lo <= chunk ? longest : lo + chunk) {
        for (int64_t t = 0; t < nt; t++) {
            const int64_t *a = addrs[t];
            const uint8_t *w = writes[t];
            const int32_t *ix = index[t];
            int64_t hi = lens[t] - lo <= chunk ? lens[t] : lo + chunk;
            uint8_t bit = (uint8_t)(1u << t);
            for (int64_t i = lo; i < hi; i++) {
                int32_t k = ix[i];
                if (k < 0)
                    continue;
                uint16_t slot = (uint16_t)(1u << ((a[i] >> 2) & 15));
                uint16_t *masks = tmask + (int64_t)k * MAX_THREADS;
                uint16_t *inv = inval + (int64_t)k * MAX_THREADS;
                uint8_t held = holders[k];
                if (!(held & bit)) {
                    /* This thread does not hold the line: a miss. */
                    if (inv[t]) {
                        /* Invalidation-induced: false or true sharing? */
                        if (inv[t] & (masks[t] | slot))
                            ts[k] += 1;
                        else
                            fs[k] += 1;
                        inv[t] = 0;
                        masks[t] = 0; /* new holding period */
                    } else {
                        cold += 1;
                    }
                    held |= bit;
                }
                masks[t] |= slot;
                if (w[i]) {
                    /* Invalidate all other holders, recording the slot. */
                    uint8_t others = held & (uint8_t)~bit;
                    if (others) {
                        for (int64_t u = 0; u < nt; u++)
                            if (others & (1u << u))
                                inv[u] |= slot;
                        held = bit;
                    }
                }
                holders[k] = held;
            }
        }
    }
    return cold;
}
