"""Line-partitioned drive kernel: the third drive strategy.

Decomposes a merged-trace segment *by cache line* (stable sort on
``addr >> 6``, original indices kept) and advances each line's MESI state
machine over its own access subsequence.  Within a maximal block of adjacent
same-core same-line accesses (a *run* in the line-sorted domain) no other
core can touch the line, so the line's L2-level state is piecewise constant:
it changes at most at the run's leading access and at the run's first write.
The scalar walk therefore visits one *run* per iteration and emits a sparse
stream of coherence events (L2 misses with their snoop outcome, shared-RFO
upgrades, back-invalidations); everything per-access is resolved afterwards
with vectorized numpy passes.

Why this is exact (see DESIGN.md for the full argument):

* **Line-local state.**  For lines whose L2 sets never evict, a line's
  L2-level MESI evolution depends only on that line's own access
  subsequence — and it is independent of L1 hit/miss outcomes, because a
  read leaves the state unchanged either way and a write on Shared takes
  the same bus upgrade whether it hit L1 or reached L2.  Only *counters*
  split on the L1 outcome, and that split is a pure per-access
  classification over (L1 hit?, L2 state, is-write) resolved vectorized at
  the end.
* **Eviction-aware per-set replay.**  L2 sets that *would* overflow no
  longer disqualify the whole segment.  Lines touched by exactly one core,
  held nowhere else, and mapping to an overfull set are *replay-owned*:
  their L2 behaviour (hit/miss, LRU position, eviction, writeback) is
  reproduced by a per-set dict replay joined with the L1 replay, with the
  whole block of accesses between leaders batched — in particular the
  S->M-free upgrade batching: a replay-owned line's state after a block is
  ``M`` iff the block wrote, computed once per block instead of per access.
  Every *other* touched line in an overfull set is installed as a sentinel;
  if the replay would ever evict a sentinel (i.e. the walk's
  no-eviction model would be violated for a shared/multi-core line) the
  kernel bails out before mutating any state and the caller falls back.
  Untouched residents of overfull sets carry their real state and are
  freely evictable — the reference would evict them identically.
* **L1 victim tracking.**  L1 evictions are always allowed.  Each
  (core, L1 set) is an isolated LRU domain whose events are that core's
  accesses mapping to the set plus the back-invalidations emitted by the
  line walk (plus L1 back-invalidations of L2 replay victims); replaying
  those few events through a dict — with maximal same-line blocks
  collapsed, which is LRU-exact — reproduces hits, misses and the final
  LRU order bit for bit.
* **Cross-line counters.**  DTLB walks and the line-fill-buffer window
  depend on per-core access order, not on lines: the DTLB replays page-run
  leaders through the real LRU dicts, and the LFB hit-window is resolved
  with a vectorized epoch argument over each core's unsorted stream.
* **Float order.**  Stall penalties are IEEE-summed in exactly the
  reference order: every penalty-carrying event is tagged with its global
  access index and a single ordered Python walk performs the same
  ``penalty[c] += ...`` sequence the reference loop would (adding 0.0 for
  the skipped no-penalty accesses would be an identity, so they are simply
  absent).  The caller threads one tally block through every piece of a
  slice (:meth:`MulticoreMachine.run_sliced`), so the stall accumulators
  are seeded from it and the addition sequence continues across pieces.

``drive_lines`` returns False when the segment is ineligible (the L3
would evict, or an overfull L2 set would have to evict a line the scalar
walk owns); the caller falls back to another strategy.
``tests/test_coherence_linekernel.py`` pins bit-identical results against
the reference loop over the full 19-program suite grid.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.coherence.protocol import EXCLUSIVE, MODIFIED, SHARED

__all__ = ["drive_lines"]

#: Replay-dict marker for walk-owned lines living in an overfull L2 set:
#: their MESI state is tracked by the scalar walk, the dict only tracks
#: their LRU position — and evicting one invalidates the walk's model, so
#: the kernel bails instead.
_SENT = -1


def _overfull_sets(cache, touched: np.ndarray) -> Optional[np.ndarray]:
    """Boolean mask of sets that would evict, or ``None`` when none would.

    A set is overfull when its touched lines plus its untouched residents
    exceed the associativity.  The kernel switches just those L2 sets to
    dict replay; for the L3 any overfull set refuses the segment.
    """
    nsets = cache.nsets
    si = (touched & cache.mask) if cache.mask else (touched % nsets)
    occ = np.bincount(si, minlength=nsets)
    assoc = cache.assoc
    over = occ > assoc
    tset = set(touched.tolist())
    for idx, s in enumerate(cache.sets):
        if s and not over[idx]:
            extra = sum(1 for ln in s if ln not in tset)
            if extra and int(occ[idx]) + extra > assoc:
                over[idx] = True
    return over if over.any() else None


def drive_lines(machine, cores_a, addrs_a, writes_a, state, seg) -> bool:
    """Drive one segment with the line-partitioned kernel.

    Accumulates into the tally block ``seg`` exactly what ``_drive_ref``
    would and returns True, or returns False when the segment is
    ineligible for this strategy.  Nothing is written to ``seg`` (or to
    any machine/run state) before the last bail-out point.
    """
    from repro.coherence.machine import _CONTENTION_EPOCH

    spec = machine.spec
    lat = machine.latency
    nt = machine._nt
    cores_a = np.asarray(cores_a)
    addrs_a = np.asarray(addrs_a, dtype=np.int64)
    writes_a = np.asarray(writes_a, dtype=bool)
    n = int(cores_a.size)
    ev = seg.ev
    if n == 0:
        return True
    lines_g = addrs_a >> 6

    # ---- partition by line: runs in the (line, original order) domain ----
    order = np.argsort(lines_g, kind="stable")
    sl = lines_g[order]
    sc = cores_a[order]
    sw = writes_a[order]
    brk = np.empty(n, dtype=bool)
    brk[0] = True
    brk[1:] = (sl[1:] != sl[:-1]) | (sc[1:] != sc[:-1])
    rstart = np.flatnonzero(brk)
    nruns = int(rstart.size)
    rlen = np.diff(rstart, append=n)
    r_line_a = sl[rstart]
    r_core_a = sc[rstart]

    # ---- eligibility + ownership classification --------------------------
    # Touched lines come straight from the run leaders (already line-major),
    # so no full-array unique scans are needed.
    nl = np.empty(nruns, dtype=bool)
    nl[0] = True
    nl[1:] = r_line_a[1:] != r_line_a[:-1]
    uniq_all = r_line_a[nl]
    l2_objs = machine._l2
    pord = np.lexsort((r_line_a, r_core_a))
    pl = r_line_a[pord]
    pc = r_core_a[pord]
    keep = np.empty(nruns, dtype=bool)
    keep[0] = True
    keep[1:] = (pl[1:] != pl[:-1]) | (pc[1:] != pc[:-1])
    pl = pl[keep]
    pc = pc[keep]
    # Overfull L2 sets per core: those switch to dict replay instead of
    # disqualifying the segment.  Their current residents join the L3
    # budget below because dirty victims are written back into L3.
    evict_flags: List[Optional[np.ndarray]] = [None] * nt
    evict_residents: List[np.ndarray] = []
    for c in range(nt):
        touched_c = pl[pc == c]
        if not touched_c.size:
            continue
        over = _overfull_sets(l2_objs[c], touched_c)
        if over is not None:
            evict_flags[c] = over
            for sidx in np.flatnonzero(over).tolist():
                s = l2_objs[c].sets[sidx]
                if s:
                    evict_residents.append(
                        np.fromiter(s, dtype=np.int64, count=len(s)))
    have_evict = any(f is not None for f in evict_flags)
    l3_budget = uniq_all
    if evict_residents:
        l3_budget = np.unique(np.concatenate([uniq_all] + evict_residents))
    if _overfull_sets(machine._l3, l3_budget) is not None:
        return False

    # Replay-owned lines: touched by exactly one core, mapping to one of
    # that core's overfull sets, held by no other core, and not Shared at
    # the owner (a Shared line's first write takes the bus — walk it).
    touched_set: set = set()
    replay_set: set = set()
    replay_all = np.empty(0, dtype=np.int64)
    if have_evict:
        touched_set = set(uniq_all.tolist())
        line_pos = np.searchsorted(uniq_all, pl)
        tcount = np.bincount(line_pos, minlength=uniq_all.size)
        owner = np.empty(uniq_all.size, dtype=np.int64)
        owner[line_pos] = pc
        single = tcount == 1
        resident_map: List[Dict[int, int]] = [{} for _ in range(nt)]
        for o in range(nt):
            m = resident_map[o]
            for s in l2_objs[o].sets:
                m.update(s)
        rep_parts: List[np.ndarray] = []
        for c in range(nt):
            flags2 = evict_flags[c]
            if flags2 is None:
                continue
            l2c = l2_objs[c]
            si_all = ((uniq_all & l2c.mask) if l2c.mask
                      else (uniq_all % l2c.nsets))
            cand = single & (owner == c) & flags2[si_all]
            if not cand.any():
                continue
            cl = uniq_all[cand]
            blocked = set()
            for o in range(nt):
                if o == c:
                    blocked.update(ln for ln, s0 in resident_map[c].items()
                                   if s0 == SHARED)
                else:
                    blocked.update(resident_map[o])
            if blocked:
                barr = np.fromiter(blocked, dtype=np.int64,
                                   count=len(blocked))
                cl = cl[~np.isin(cl, barr)]
            if cl.size:
                rep_parts.append(cl)
        if rep_parts:
            replay_all = (rep_parts[0] if len(rep_parts) == 1
                          else np.unique(np.concatenate(rep_parts)))
            replay_set = set(replay_all.tolist())

    core_idx: List[np.ndarray] = [
        np.flatnonzero(cores_a == c) for c in range(nt)]
    pos_idx = np.arange(n, dtype=np.int64)
    # First write of each run as a sorted-domain position (2n = no write).
    fw = np.minimum.reduceat(np.where(sw, pos_idx, 2 * n), rstart)
    fwg = np.where(fw < n, order[np.minimum(fw, n - 1)], -1)

    r_line = r_line_a.tolist()
    r_core = r_core_a.tolist()
    r_w = sw[rstart].tolist()
    r_g = order[rstart].tolist()
    r_fw = fw.tolist()
    r_fwg = fwg.tolist()
    rstart_l = rstart.tolist()
    if replay_all.size:
        replay_acc = np.isin(lines_g, replay_all)
        walk_runs = np.flatnonzero(
            ~np.isin(r_line_a, replay_all)).tolist()
    else:
        replay_acc = None
        walk_runs = range(nruns)

    # ---- phase A: scalar walk over runs, one line at a time --------------
    #
    # Replay-owned lines are skipped entirely: single-core, holder-less
    # lines generate no coherence events, and their L2 behaviour (including
    # evictions) is reproduced by the joint replay below.
    #
    # Contender-epoch windows: the reference loop clears the contender map
    # whenever its countdown hits zero, i.e. at global indices
    # d0-1, d0-1+epoch, ...  A per-line (window id, mask) pair replays the
    # same clears without global coupling.
    d0 = state.decay_countdown
    first_clear = d0 - 1
    epoch = _CONTENTION_EPOCH
    sockets = [spec.socket_of(c) for c in range(nt)]
    contenders0 = machine._contenders

    run_prev = [0] * nruns  # leader's L2 state *before* the leader
    run_x = [0] * nruns     # L2 state after the leader

    up_g: List[int] = []    # shared-RFO upgrades (L1- or L2-hit on S)
    up_c: List[int] = []
    up_best: List[int] = []
    up_k: List[int] = []
    ms_g: List[int] = []    # L2 misses (demand requests leaving the core)
    ms_c: List[int] = []
    ms_w: List[bool] = []
    ms_best: List[int] = []
    ms_resp: List[int] = []
    ms_k: List[int] = []
    ms_same: List[bool] = []
    ms_line: List[int] = []
    rm_g: List[int] = []    # back-invalidations (L1+L2 removal at a core)
    rm_c: List[int] = []
    rm_line: List[int] = []
    writebacks = 0

    line_final: Dict[int, List[int]] = {}
    init_sts: Dict[int, List[int]] = {}
    cmask_final: Dict[int, Tuple[int, int]] = {}

    cur_line = -1
    st: List[int] = []
    hmask = 0
    cmask = 0
    cwid = 0

    for i in walk_runs:
        line = r_line[i]
        c = r_core[i]
        if line != cur_line:
            if cur_line >= 0:
                line_final[cur_line] = st
                if cmask:
                    cmask_final[cur_line] = (cwid, cmask)
            cur_line = line
            st = [0] * nt
            hmask = 0
            for o in range(nt):
                s0 = l2_objs[o].lookup(line)
                if s0 is not None:
                    st[o] = s0
                    hmask |= 1 << o
            init_sts[line] = st.copy()
            cmask = contenders0.get(line, 0)
            cwid = 0
        g = r_g[i]
        wl = r_w[i]
        mine = st[c]
        run_prev[i] = mine
        cbit = 1 << c
        if mine:
            # Leader finds the line in its own L2 (L1 hit or L2 hit).
            if wl and mine == SHARED:
                others = hmask & ~cbit
                best = SHARED if others else 0
                if others:
                    m = others
                    while m:
                        low = m & -m
                        o = low.bit_length() - 1
                        st[o] = 0
                        rm_g.append(g)
                        rm_c.append(o)
                        rm_line.append(line)
                        m ^= low
                    hmask = cbit
                wd = 0 if g < first_clear else 1 + (g - first_clear) // epoch
                if wd != cwid:
                    cmask = 0
                    cwid = wd
                cmask |= cbit
                up_g.append(g)
                up_c.append(c)
                up_best.append(best)
                up_k.append(cmask.bit_count())
                st[c] = MODIFIED
            elif wl:
                st[c] = MODIFIED  # E/M -> M, silent
            x = st[c] if wl else mine
        else:
            # Leader misses L2: snoop the bus.
            best = 0
            resp = -1
            m = hmask
            while m:
                low = m & -m
                o = low.bit_length() - 1
                if st[o] > best:
                    best = st[o]
                    resp = o
                m ^= low
            if wl:
                m = hmask
                while m:
                    low = m & -m
                    o = low.bit_length() - 1
                    if st[o] == MODIFIED:
                        writebacks += 1
                    st[o] = 0
                    rm_g.append(g)
                    rm_c.append(o)
                    rm_line.append(line)
                    m ^= low
                hmask = 0
            else:
                if best == MODIFIED:
                    writebacks += 1
                m = hmask
                while m:
                    low = m & -m
                    o = low.bit_length() - 1
                    if st[o] != SHARED:
                        st[o] = SHARED
                    m ^= low
            k = 0
            same = False
            if best == MODIFIED:
                wd = 0 if g < first_clear else 1 + (g - first_clear) // epoch
                if wd != cwid:
                    cmask = 0
                    cwid = wd
                cmask |= cbit
                k = cmask.bit_count()
                same = sockets[resp] == sockets[c]
            newst = MODIFIED if wl else (SHARED if best else EXCLUSIVE)
            st[c] = newst
            hmask |= cbit
            ms_g.append(g)
            ms_c.append(c)
            ms_w.append(wl)
            ms_best.append(best)
            ms_resp.append(resp)
            ms_k.append(k)
            ms_same.append(same)
            ms_line.append(line)
            x = newst
        run_x[i] = x
        # First write in the tail of a read-led run (or an S-led run).
        fwp = r_fw[i]
        if x != MODIFIED and fwp < 2 * n and fwp > rstart_l[i]:
            gf = r_fwg[i]
            if x == SHARED:
                others = hmask & ~cbit
                best = SHARED if others else 0
                if others:
                    m = others
                    while m:
                        low = m & -m
                        o = low.bit_length() - 1
                        st[o] = 0
                        rm_g.append(gf)
                        rm_c.append(o)
                        rm_line.append(line)
                        m ^= low
                    hmask = cbit
                wd = 0 if gf < first_clear else 1 + (gf - first_clear) // epoch
                if wd != cwid:
                    cmask = 0
                    cwid = wd
                cmask |= cbit
                up_g.append(gf)
                up_c.append(c)
                up_best.append(best)
                up_k.append(cmask.bit_count())
            st[c] = MODIFIED
    if cur_line >= 0:
        line_final[cur_line] = st
        if cmask:
            cmask_final[cur_line] = (cwid, cmask)

    # ---- joint L1/L2 replay: per-(core, set) LRU over collapsed blocks ---
    #
    # Pure phase: everything below operates on copies; the only exit that
    # leaves this function before the mutation phases is the sentinel bail.
    l1m_g = np.zeros(n, dtype=bool)
    rm_g_a = np.array(rm_g, dtype=np.int64)
    rm_c_a = np.array(rm_c, dtype=np.int64)
    rm_line_a = np.array(rm_line, dtype=np.int64)
    l1_objs = machine._l1
    last_l2g: Dict[Tuple[int, int], int] = {}
    final_l1: List[List[dict]] = [[] for _ in range(nt)]
    walked_l1 = [False] * nt
    rp_l2hit: List[int] = []    # g of L1-miss L2-hits on replay-owned lines
    rp_ms_g: List[int] = []     # replay-owned L2 misses (holder-less)
    rp_ms_c: List[int] = []
    rp_ms_w: List[bool] = []
    rp_ms_line: List[int] = []
    wb_g: List[int] = []        # dirty L2 victims -> L3 inserts
    wb_line: List[int] = []
    n_out_clean = 0
    n_out_dirty = 0
    d2_final: Dict[Tuple[int, int], dict] = {}
    for c in range(nt):
        idx_c = core_idx[c]
        rsel = np.flatnonzero(rm_c_a == c)
        if not idx_c.size and not rsel.size:
            continue
        walked_l1[c] = True
        lines_c = lines_g[idx_c]
        g_all = np.concatenate([idx_c, rm_g_a[rsel]])
        ln_all = np.concatenate([lines_c, rm_line_a[rsel]])
        kind = np.concatenate([np.zeros(idx_c.size, dtype=np.int8),
                               np.ones(rsel.size, dtype=np.int8)])
        o2 = np.argsort(g_all)
        g_all = g_all[o2]
        ln_all = ln_all[o2]
        kind = kind[o2]
        # Block leaders: collapse maximal same-line access blocks (the tail
        # of a block only re-marks an already-MRU line — LRU-exact).
        lead = np.empty(g_all.size, dtype=bool)
        lead[0] = True
        lead[1:] = ((kind[1:] == 1) | (kind[:-1] == 1)
                    | (ln_all[1:] != ln_all[:-1]))
        sel = np.flatnonzero(lead)
        ge = g_all[sel].tolist()
        le = ln_all[sel].tolist()
        ke = kind[sel].tolist()
        l1c = l1_objs[c]
        mask = l1c.mask
        nsets = l1c.nsets
        assoc = l1c.assoc
        sets_c = [dict.fromkeys(s) for s in l1c.sets]
        misses: List[int] = []
        flags2 = evict_flags[c]
        if flags2 is None:
            for gg, ln, kd in zip(ge, le, ke):
                d = sets_c[(ln & mask) if mask else (ln % nsets)]
                if kd:
                    d.pop(ln, None)
                elif ln in d:
                    del d[ln]
                    d[ln] = None
                else:
                    misses.append(gg)
                    last_l2g[(c, ln)] = gg
                    if len(d) >= assoc:
                        del d[next(iter(d))]
                    d[ln] = None
        else:
            # Evicting core: L2 sets flagged overfull replay through dicts
            # seeded from the live cache; a block that wrote leaves a
            # replay-owned line Modified (the S->M upgrade batching — the
            # E->M transition is silent, so one flag per block suffices).
            w_all = np.concatenate([
                writes_a[idx_c], np.zeros(rsel.size, dtype=bool)])[o2]
            wcum = np.zeros(g_all.size + 1, dtype=np.int64)
            np.cumsum(w_all, out=wcum[1:])
            ends = np.append(sel[1:], g_all.size)
            bw = ((wcum[ends] - wcum[sel]) > 0).tolist()
            we = w_all[sel].tolist()
            l2c = l2_objs[c]
            mask2 = l2c.mask
            nsets2 = l2c.nsets
            assoc2 = l2c.assoc
            d2_map: Dict[int, dict] = {}
            for sidx in np.flatnonzero(flags2).tolist():
                # Residents: walk-owned touched lines become sentinels
                # (their state lives in the walk); replay-owned lines keep
                # their real state (E/M by construction — Shared-at-owner
                # lines are never replay-owned) so hits, upgrades and
                # dirty evictions replay exactly; untouched residents keep
                # their state and are freely evictable.
                d2_map[sidx] = {
                    ln: (_SENT if (ln in touched_set
                                   and ln not in replay_set) else s0)
                    for ln, s0 in l2c.sets[sidx].items()}
            for j, (gg, ln, kd) in enumerate(zip(ge, le, ke)):
                s1i = (ln & mask) if mask else (ln % nsets)
                s2i = (ln & mask2) if mask2 else (ln % nsets2)
                d = sets_c[s1i]
                if kd:
                    d.pop(ln, None)
                    if flags2[s2i]:
                        d2_map[s2i].pop(ln, None)
                    continue
                if ln in d:
                    del d[ln]
                    d[ln] = None
                    if flags2[s2i] and bw[j]:
                        # E->M on an L1 hit updates L2 state in place
                        # (set_state does not touch LRU order).
                        d2 = d2_map[s2i]
                        v = d2.get(ln)
                        if v is not None and v != _SENT:
                            d2[ln] = MODIFIED
                    continue
                misses.append(gg)
                if flags2[s2i]:
                    d2 = d2_map[s2i]
                    v = d2.get(ln)
                    if v is not None:
                        # L2 hit: MRU; replay-owned lines also classify
                        # the miss for the counter passes below.
                        del d2[ln]
                        if v == _SENT:
                            d2[ln] = _SENT
                        else:
                            d2[ln] = MODIFIED if bw[j] else v
                            rp_l2hit.append(gg)
                    else:
                        # L2 miss: install (possibly evicting the LRU way).
                        if len(d2) >= assoc2:
                            vic = next(iter(d2))
                            vs = d2.pop(vic)
                            if vs == _SENT:
                                return False  # walk-owned victim: bail
                            if vs == MODIFIED:
                                n_out_dirty += 1
                                wb_g.append(gg)
                                wb_line.append(vic)
                            else:
                                n_out_clean += 1
                            sets_c[(vic & mask) if mask
                                   else (vic % nsets)].pop(vic, None)
                        if ln in replay_set:
                            d2[ln] = MODIFIED if bw[j] else EXCLUSIVE
                            rp_ms_g.append(gg)
                            rp_ms_c.append(c)
                            rp_ms_w.append(we[j])
                            rp_ms_line.append(ln)
                        else:
                            # Walk-owned: the walk already emitted its
                            # demand event; the dict only tracks LRU.
                            d2[ln] = _SENT
                else:
                    last_l2g[(c, ln)] = gg
                if len(d) >= assoc:
                    del d[next(iter(d))]
                d[ln] = None
            for sidx, d2 in d2_map.items():
                d2_final[(c, sidx)] = d2
        if misses:
            l1m_g[np.array(misses, dtype=np.int64)] = True
        final_l1[c] = sets_c
    if rp_ms_g:
        nrp = len(rp_ms_g)
        ms_g.extend(rp_ms_g)
        ms_c.extend(rp_ms_c)
        ms_w.extend(rp_ms_w)
        ms_best.extend([0] * nrp)
        ms_resp.extend([-1] * nrp)
        ms_k.extend([0] * nrp)
        ms_same.extend([False] * nrp)
        ms_line.extend(rp_ms_line)

    # ---- phase B: prefetch flags for L2 misses (per core, in g order) ----
    nms = len(ms_g)
    ms_g_a = np.array(ms_g, dtype=np.int64)
    ms_c_a = np.array(ms_c, dtype=np.int64)
    ms_w_a = np.array(ms_w, dtype=bool)
    ms_best_a = np.array(ms_best, dtype=np.int64)
    ms_line_a = np.array(ms_line, dtype=np.int64)
    ms_pref = np.zeros(nms, dtype=bool)
    if nms:
        mo = np.argsort(ms_g_a)
        ms_g_a = ms_g_a[mo]
        ms_c_a = ms_c_a[mo]
        ms_w_a = ms_w_a[mo]
        ms_best_a = ms_best_a[mo]
        ms_line_a = ms_line_a[mo]
        ms_resp_a = np.array(ms_resp, dtype=np.int64)[mo]
        ms_k_a = np.array(ms_k, dtype=np.int64)[mo]
        ms_same_a = np.array(ms_same, dtype=bool)[mo]
        prefetch_on = machine.prefetch
        for c in range(nt):
            sel = np.flatnonzero(ms_c_a == c)
            if not sel.size:
                continue
            ml = ms_line_a[sel]
            prev = np.empty(sel.size, dtype=np.int64)
            prev[0] = state.last_miss_line[c]
            prev[1:] = ml[:-1]
            if prefetch_on:
                ms_pref[sel] = (~ms_w_a[sel] & (ml == prev + 1)
                                & (ms_best_a[sel] == 0))
            state.last_miss_line[c] = int(ml[-1])
    else:
        ms_resp_a = np.zeros(0, dtype=np.int64)
        ms_k_a = np.zeros(0, dtype=np.int64)
        ms_same_a = np.zeros(0, dtype=bool)

    # ---- phase C: L3 resolution + per-miss penalties (g order) -----------
    l3 = machine._l3
    l3_present: Dict[int, bool] = {}
    l3_last: Dict[int, int] = {}
    l3_ord = 0
    l3_hits = 0
    l3_misses = 0
    ms_raw = np.zeros(nms, dtype=np.float64)
    ms_weff = np.zeros(nms, dtype=bool)
    nwb = len(wb_g)
    if nms:
        # Contended HITM penalties, vectorized with the reference formulas.
        hitm_mask = ms_best_a == MODIFIED
        base = np.where(ms_same_a, lat.hitm_local, lat.hitm_remote)
        contended = np.where(
            ms_k_a <= 1, base,
            base * (1.0 + lat.contention_factor * (ms_k_a - 1)))
        ms_raw[hitm_mask] = contended[hitm_mask]
        ms_raw[(ms_best_a > 0) & ~hitm_mask] = lat.snoop_clean
        ms_raw[ms_pref] = lat.l2_hit
        ms_weff = ms_w_a.copy()
        ms_weff[ms_pref] = False
        # L3 queries: only holder-less, non-prefetched misses reach L3;
        # HITM services and dirty replay victims insert on the way through
        # the uncore.  Victim writebacks happen *after* the same access's
        # demand query (the reference installs the line, then evicts), so
        # the merge key is (g, query-before-writeback).
        ml_l = ms_line_a.tolist()
        mg_l = ms_g_a.tolist()
        mb_l = ms_best_a.tolist()
        mp_l = ms_pref.tolist()
        if nwb:
            all_g = np.concatenate([ms_g_a,
                                    np.array(wb_g, dtype=np.int64)])
            all_seq = np.concatenate([np.zeros(nms, dtype=np.int8),
                                      np.ones(nwb, dtype=np.int8)])
            eo = np.lexsort((all_seq, all_g)).tolist()
        else:
            eo = range(nms)
        l3q_raw: List[Tuple[int, float]] = []  # (flat ms index, raw penalty)
        for f in eo:
            if f >= nms:
                ln = wb_line[f - nms]
                l3_present[ln] = True
                l3_last[ln] = l3_ord
                l3_ord += 1
                continue
            j = f
            bj = mb_l[j]
            ln = ml_l[j]
            if bj == MODIFIED:
                l3_present[ln] = True
                l3_last[ln] = l3_ord
                l3_ord += 1
            elif bj == 0 and not mp_l[j]:
                present = l3_present.get(ln)
                if present is None:
                    present = ln in l3
                if present:
                    l3_hits += 1
                    l3q_raw.append((j, lat.l3_hit))
                else:
                    l3_misses += 1
                    l3q_raw.append((j, lat.memory))
                    l3_present[ln] = True
                l3_last[ln] = l3_ord
                l3_ord += 1
        for j, raw in l3q_raw:
            ms_raw[j] = raw

    # ---- DTLB: page-run leaders through the real LRU dicts ---------------
    n_dtlb = 0
    n_dtlb_st = 0
    tlb_pen_g: List[int] = []
    tlb_pen_c: List[int] = []
    tlb_cap = state.tlb_cap
    for c in range(nt):
        idx_c = core_idx[c]
        if not idx_c.size:
            continue
        pages_c = addrs_a[idx_c] >> 12
        pg = np.empty(pages_c.size, dtype=bool)
        pg[0] = True
        pg[1:] = pages_c[1:] != pages_c[:-1]
        sel = np.flatnonzero(pg)
        tg = idx_c[sel].tolist()
        tp = pages_c[sel].tolist()
        tw = writes_a[idx_c[sel]].tolist()
        tlb = state.tlbs[c]
        for gg, page, w in zip(tg, tp, tw):
            if page in tlb:
                tlb.move_to_end(page)
            else:
                n_dtlb += 1
                if w:
                    n_dtlb_st += 1
                if len(tlb) >= tlb_cap:
                    tlb.popitem(last=False)
                tlb[page] = None
                tlb_pen_g.append(gg)
                tlb_pen_c.append(c)

    # ---- per-access L2-state column + counter classification -------------
    st2s = np.repeat(np.array(run_x, dtype=np.int8), rlen)
    st2s[rstart] = np.array(run_prev, dtype=np.int8)
    fw_rep = np.repeat(np.minimum(fw, n), rlen)
    np.place(st2s, pos_idx > fw_rep, MODIFIED)
    st2_g = np.empty(n, dtype=np.int8)
    st2_g[order] = st2s

    if replay_acc is not None:
        # st2 is undefined for replay-owned accesses (the walk skipped
        # them); their L2 residency comes from the replay instead, and
        # their state is never Shared (holder-less lines install E/M).
        l2res = st2_g > 0
        l2res &= ~replay_acc
        if rp_l2hit:
            l2res[np.array(rp_l2hit, dtype=np.int64)] = True
        s_state = st2_g == SHARED
        s_state &= ~replay_acc
    else:
        l2res = st2_g > 0
        s_state = st2_g == SHARED
    ld_l2hit = l1m_g & l2res & ~writes_a
    wr_l2hit = l1m_g & l2res & writes_a
    wr_l2hit_em = wr_l2hit & ~s_state
    ev.l2_ld_hit += int(np.count_nonzero(ld_l2hit))
    ev.l2_rqsts_rfo_hit += int(np.count_nonzero(wr_l2hit))
    ev.l2_rfo_hit_s += int(np.count_nonzero(wr_l2hit & s_state))
    seg.n_rfo_s += int(np.count_nonzero(~l1m_g & writes_a & s_state))

    up_best_a = np.array(up_best, dtype=np.int64)
    ev.snoop_hit += (int(np.count_nonzero(ms_best_a == SHARED))
                     + int(np.count_nonzero(up_best_a == SHARED)))
    ev.snoop_hite += int(np.count_nonzero(ms_best_a == EXCLUSIVE))
    hitm_n = int(np.count_nonzero(ms_best_a == MODIFIED))
    ev.snoop_hitm += hitm_n
    ev.hitm_socket_remote += int(np.count_nonzero(
        (ms_best_a == MODIFIED) & ~ms_same_a))
    np_pref = int(np.count_nonzero(ms_pref))
    ev.prefetch_hits += np_pref
    ev.l2_demand_i += nms
    ev.l2_fill += nms
    dem = ~ms_pref
    n_rfo_miss = int(np.count_nonzero(dem & ms_w_a))
    ev.l2_rqsts_rfo_miss += n_rfo_miss
    ev.offcore_rfo += n_rfo_miss
    n_ld_miss = int(np.count_nonzero(dem & ~ms_w_a))
    ev.l2_ld_miss += n_ld_miss
    ev.offcore_rd += n_ld_miss
    ev.l2_lines_in_s += int(np.count_nonzero(dem & ~ms_w_a & (ms_best_a > 0)))
    ev.l2_lines_in_e += np_pref + int(np.count_nonzero(
        dem & ~ms_w_a & (ms_best_a == 0)))
    ev.l3_hit += l3_hits
    ev.l3_miss += l3_misses
    ev.writebacks += writebacks + n_out_dirty
    ev.l2_lines_out_dirty += n_out_dirty
    ev.l2_lines_out_clean += n_out_clean

    # ---- LFB hit-window (per core, vectorized epoch argument) ------------
    n_hit_lfb = 0
    for c in range(nt):
        idx_c = core_idx[c]
        if not idx_c.size:
            continue
        lines_c = lines_g[idx_c]
        l1m_c = l1m_g[idx_c]
        w_c = writes_a[idx_c]
        epoch_ids = np.cumsum(l1m_c)
        miss_pos = np.flatnonzero(l1m_c)
        epoch_lines = np.empty(miss_pos.size + 1, dtype=np.int64)
        epoch_lines[0] = state.lfb_line[c]
        epoch_lines[1:] = lines_c[miss_pos]
        cand = (~w_c) & (~l1m_c) & (lines_c == epoch_lines[epoch_ids])
        ce = np.unique(epoch_ids[cand])
        hits = int(ce.size)
        if ce.size and ce[0] == 0 and state.lfb_window[c] <= 0:
            hits -= 1
        n_hit_lfb += hits
        if miss_pos.size:
            state.lfb_line[c] = int(lines_c[miss_pos[-1]])
            state.lfb_window[c] = (
                0 if (ce.size and int(ce[-1]) == miss_pos.size) else 1)
        elif ce.size and state.lfb_window[c] > 0:
            state.lfb_window[c] -= 1

    # ---- ordered penalty/stall accumulation (bit-exact float order) ------
    load_f = 1.0 - lat.load_overlap
    store_f = 1.0 - lat.store_overlap
    tlb_walk_eff = lat.tlb_walk * 0.5
    up_k_a = np.array(up_k, dtype=np.int64)
    up_raw = np.where(
        up_k_a <= 1, lat.rfo_upgrade,
        lat.rfo_upgrade * (1.0 + lat.contention_factor * (up_k_a - 1)))
    ldh_g = np.flatnonzero(ld_l2hit)
    wrem_g = np.flatnonzero(wr_l2hit_em)
    cores_i64 = cores_a.astype(np.int64)

    pe_g = np.concatenate([
        np.array(tlb_pen_g, dtype=np.int64),
        np.array(up_g, dtype=np.int64),
        ms_g_a, ldh_g, wrem_g])
    pe_seq = np.concatenate([
        np.zeros(len(tlb_pen_g), dtype=np.int8),
        np.ones(len(up_g) + nms + ldh_g.size + wrem_g.size, dtype=np.int8)])
    pe_c = np.concatenate([
        np.array(tlb_pen_c, dtype=np.int64),
        np.array(up_c, dtype=np.int64),
        ms_c_a, cores_i64[ldh_g], cores_i64[wrem_g]])
    pe_raw = np.concatenate([
        np.full(len(tlb_pen_g), tlb_walk_eff),
        up_raw, ms_raw,
        np.full(ldh_g.size, lat.l2_hit),
        np.full(wrem_g.size, lat.l2_hit)])
    pe_eff = np.concatenate([
        np.full(len(tlb_pen_g), tlb_walk_eff),
        up_raw * store_f,
        ms_raw * np.where(ms_weff, store_f, load_f),
        np.full(ldh_g.size, lat.l2_hit * load_f),
        np.full(wrem_g.size, lat.l2_hit * store_f)])
    # stall kind: 0 = none (TLB / silent E->M write), 1 = load, 2 = store
    pe_kind = np.concatenate([
        np.zeros(len(tlb_pen_g), dtype=np.int8),
        np.full(len(up_g), 2, dtype=np.int8),
        np.where(ms_weff, 2, 1).astype(np.int8),
        np.ones(ldh_g.size, dtype=np.int8),
        np.zeros(wrem_g.size, dtype=np.int8)])
    po = np.lexsort((pe_seq, pe_g))
    pen = seg.penalty
    stall_load = ev.stall_load
    stall_store = ev.stall_store
    for c, add, raw, kd in zip(pe_c[po].tolist(), pe_eff[po].tolist(),
                               pe_raw[po].tolist(), pe_kind[po].tolist()):
        pen[c] += add
        if kd == 1:
            stall_load += raw
        elif kd == 2:
            stall_store += raw
    ev.stall_load = stall_load
    ev.stall_store = stall_store

    # ---- HITM sampling (global g order, persistent counter) --------------
    period = machine.hitm_sample_period
    if period and hitm_n:
        seen = machine._hitm_seen
        samples = machine._hitm_samples
        for j in np.flatnonzero(ms_best_a == MODIFIED).tolist():
            seen += 1
            if seen >= period:
                seen = 0
                samples.append((int(ms_c_a[j]), int(ms_resp_a[j]),
                                int(addrs_a[ms_g_a[j]]), bool(ms_w_a[j])))
        machine._hitm_seen = seen

    # ---- final-state reconstruction --------------------------------------
    # L2: removals first, in-place state updates next (neither reorders),
    # then LRU moves in last-touch order (touch/fill happen at L1 misses).
    # Overfull sets are rebuilt wholesale from their replay dicts instead.
    moves: List[List[Tuple[int, int, int]]] = [[] for _ in range(nt)]
    for (c, ln), gg in last_l2g.items():
        f = line_final[ln][c]
        if f:
            moves[c].append((gg, ln, f))
    for ln, fin in line_final.items():
        init = init_sts[ln]
        for c in range(nt):
            flags2 = evict_flags[c]
            if flags2 is not None and flags2[l2_objs[c].index(ln)]:
                continue
            f = fin[c]
            if f == init[c]:
                continue
            if f == 0:
                l2_objs[c].remove(ln)
            elif init[c] and (c, ln) not in last_l2g:
                l2_objs[c].set_state(ln, f)
    for c in range(nt):
        if not moves[c]:
            continue
        moves[c].sort()
        l2c = l2_objs[c]
        for _, ln, f in moves[c]:
            s = l2c.sets[l2c.index(ln)]
            s.pop(ln, None)
            s[ln] = f
    for (c, sidx), d2 in d2_final.items():
        l2_objs[c].sets[sidx] = OrderedDict(
            (ln, (line_final[ln][c] if v == _SENT else v))
            for ln, v in d2.items())
    # L3: presence only grows; order by insertion/touch sequence.
    if l3_last:
        for ln, _ in sorted(l3_last.items(), key=lambda kv: kv[1]):
            s = l3.sets[l3.index(ln)]
            s.pop(ln, None)
            s[ln] = SHARED
    # L1: presence/order from the replay dicts, states mirrored from L2.
    for c in range(nt):
        l1c = l1_objs[c]
        l2c = l2_objs[c]
        if walked_l1[c]:
            for idx, d in enumerate(final_l1[c]):
                l1c.sets[idx] = OrderedDict(
                    (ln, l2c.lookup(ln)) for ln in d)
        else:
            for s in l1c.sets:
                for ln in s:
                    s[ln] = l2c.lookup(ln)
    # Contender map: only masks touched in the final clear-window survive.
    final_wid = (0 if n - 1 < first_clear
                 else 1 + (n - 1 - first_clear) // epoch)
    if final_wid == 0:
        newc = dict(contenders0)
        for ln, (wd, m) in cmask_final.items():
            newc[ln] = m
    else:
        newc = {ln: m for ln, (wd, m) in cmask_final.items()
                if wd == final_wid}
    machine._contenders.clear()
    machine._contenders.update(newc)
    # Decay countdown, closed form.
    if n - 1 < first_clear:
        state.decay_countdown = d0 - n
    else:
        last_clear = first_clear + ((n - 1 - first_clear) // epoch) * epoch
        state.decay_countdown = epoch - (n - 1 - last_clear)
    machine._cur_addr = -1

    # ---- whole-segment tallies -------------------------------------------
    acc = seg.accesses
    for c, cnt in enumerate(np.bincount(cores_a, minlength=nt).tolist()):
        acc[c] += cnt
    nw = int(np.count_nonzero(writes_a))
    seg.n_writes += nw
    seg.n_reads += n - nw
    seg.n_dtlb += n_dtlb
    seg.n_dtlb_st += n_dtlb_st
    seg.n_l1_miss += int(np.count_nonzero(l1m_g))
    seg.n_hit_lfb += n_hit_lfb
    return True
