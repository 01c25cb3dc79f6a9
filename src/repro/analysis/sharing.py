"""Static sharing analysis: one classifier core behind two front-ends.

Line ownership, byte-offset overlap and worst-case contention are decided
without simulation: nothing the MESI machine computes is needed to tell
which cache lines are contended, only to price the contention.  One
classifier core works on per-(line, thread) *group arrays* — line, thread,
reads, writes, position window, touch span and write span — and owns, once
each:

* the four-way line classification:

  - ``private``      — touched by one thread only;
  - ``read-shared``  — touched by several threads, never written;
  - ``true-shared``  — some 4-byte word is written by one thread and
    touched by another (the shadow oracle's true-sharing rule [33]);
  - ``false-shared`` — several threads write the line but every word is
    thread-exclusive (distinct threads, disjoint byte ranges);

* the contention gate and significance of false-shared lines.  Two threads
  that use disjoint words of one line at disjoint times (a hand-off, e.g.
  block boundaries of a partitioned array) cannot ping-pong, so a line
  counts as contended only when a writer's position window overlaps
  another user's.  Windows are half-open and the overlap is strict, so a
  shared endpoint is a hand-off.  ``significance`` is the fraction of the
  program's retired instructions attributable to the contending threads'
  accesses to that line — a worst-case analog of the oracle's
  false-sharing *rate*, compared against the same 1e-3 threshold;
* adjacent-line near misses and the cache-hostility thresholds behind the
  ``bad-ma`` verdict.

Two front-ends only build the group arrays and the per-thread profiles:

* :class:`StaticSharingAnalyzer` reads a
  :class:`~repro.trace.access.ProgramTrace`.  Access ``i`` of a thread has
  the window ``[i, i + 1)`` (the proxy for time under the chunked
  round-robin interleave), and line re-fetches are *measured* from each
  thread's revisit gaps;
* :class:`PredictiveAnalyzer` reads a symbolic
  :class:`~repro.workloads.plan.AccessPlan` — no trace is generated.  Each
  region use expands to the lines its element range covers, with exact
  element counts and byte spans and *modeled* visit windows; re-fetches
  are modeled from ``bursts_per_line``.  Layout is exact, timing is a
  model, so borderline hand-off and refetch-rate calls can differ from the
  trace front-end (:mod:`repro.analysis.crosscheck` measures that gap).
  Lines and near misses carry the names of the objects on them, looked up
  in the plan's :class:`~repro.analysis.symbols.SymbolTable` the way
  mtrace's ``objects_on_cline`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.memory.layout import LINE_SIZE, line_of
from repro.trace.access import ProgramTrace
from repro.utils.tables import render_table
from repro.workloads.plan import AccessPlan

#: Program-level decision threshold on the summed significance of contended
#: false-shared lines.  Deliberately the same value as the shadow oracle's
#: rate threshold ([33], ``FS_RATE_THRESHOLD``): both are "events per
#: instruction" quantities, so the two detectors are comparable by design.
SIGNIFICANCE_THRESHOLD = 1e-3

#: An access re-fetches a line when the thread last touched that line more
#: than this many of its own accesses ago — far enough back that a small
#: cache with any reasonable policy has likely evicted or lost it.
REFETCH_WINDOW = 32

#: A thread's access pattern is cache-hostile when at least this fraction
#: of its accesses are line re-fetches...
HOSTILE_REFETCH_RATE = 0.25

#: ...over a footprint too large to be cache-resident anyway.
HOSTILE_MIN_FOOTPRINT = 256

#: Two sole-writer adjacent lines are a near-miss when their write spans
#: leave less than this much combined slack across the line boundary.
NEAR_MISS_MARGIN = 16


def _overlaps(a: Tuple[float, float], b: Tuple[float, float]) -> bool:
    """The overlap rule on half-open windows: a shared endpoint is a
    hand-off, not an overlap."""
    return a[0] < b[1] and b[0] < a[1]


@dataclass(frozen=True)
class ThreadLineUse:
    """One thread's use of one cache line.

    Counts are Python ints from a trace and modeled floats from a plan.
    """

    tid: int
    reads: float
    writes: float
    #: Half-open position window ``[lo, hi)`` of the thread's touches.
    pos: Tuple[float, float]
    #: Byte-offset span (lo, hi inclusive) of every touch on the line.
    touch_span: Tuple[int, int]
    #: Byte-offset span of the writes, or ``None`` for a read-only user.
    write_span: Optional[Tuple[int, int]]

    @property
    def accesses(self) -> float:
        return self.reads + self.writes

    def overlaps(self, other: "ThreadLineUse") -> bool:
        """Whether the two usage windows can interleave in time."""
        return _overlaps(self.pos, other.pos)


@dataclass
class LineSharing:
    """Classification and evidence for one (non-private) cache line."""

    line: int
    category: str  # "read-shared" | "true-shared" | "false-shared"
    uses: List[ThreadLineUse]
    contended: bool = False
    significance: float = 0.0
    #: Named objects on the line (plan front-end only).
    objects: Optional[List[str]] = None

    @property
    def address(self) -> int:
        return self.line * LINE_SIZE

    @property
    def threads(self) -> List[int]:
        return [u.tid for u in self.uses]

    @property
    def writers(self) -> List[int]:
        return [u.tid for u in self.uses if u.writes]

    @property
    def total_writes(self) -> float:
        return sum(u.writes for u in self.uses)

    def evidence(self) -> Dict[int, Tuple[int, int]]:
        """Per-writer written byte spans — the disjoint ranges themselves."""
        return {u.tid: u.write_span for u in self.uses
                if u.write_span is not None}

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "line": int(self.line),
            "address": f"0x{self.address:x}",
            "category": self.category,
            "contended": self.contended,
            "significance": self.significance,
        }
        if self.objects is not None:
            out["objects"] = list(self.objects)
        out["threads"] = [
            {
                "tid": u.tid,
                "reads": round(u.reads, 3),
                "writes": round(u.writes, 3),
                "pos": [round(u.pos[0], 4), round(u.pos[1], 4)],
                "touch_span": list(u.touch_span),
                "write_span": (None if u.write_span is None
                               else list(u.write_span)),
            }
            for u in self.uses
        ]
        return out


@dataclass(frozen=True)
class NearMiss:
    """Two threads solely writing adjacent lines, tight against the seam.

    One more struct field or a different allocation base would fuse the two
    write regions onto one line — latent false sharing (what SHERIFF's
    per-thread twinning would absorb at runtime).  Only temporally
    overlapping pairs are reported: a hand-off cannot turn into ping-pong.
    """

    line: int          # the lower line of the adjacent pair
    tid_low: int       # sole writer of ``line``
    tid_high: int      # sole writer of ``line + 1``
    slack_bytes: int   # unwritten bytes between the two spans
    #: Named objects on the two lines (plan front-end only).
    objects: Optional[Tuple[str, ...]] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "line": int(self.line), "tid_low": int(self.tid_low),
            "tid_high": int(self.tid_high),
            "slack_bytes": int(self.slack_bytes)}
        if self.objects is not None:
            out["objects"] = list(self.objects)
        return out


@dataclass(frozen=True)
class ThreadProfile:
    """Locality profile of one thread's access stream."""

    tid: int
    n_accesses: int
    footprint_lines: int
    #: Fraction of accesses that fetch a line the thread let go cold.
    refetch_rate: float

    @property
    def hostile(self) -> bool:
        """Cache-hostile: heavy re-fetching over an uncacheable footprint."""
        return (self.footprint_lines >= HOSTILE_MIN_FOOTPRINT
                and self.refetch_rate > HOSTILE_REFETCH_RATE)


@dataclass
class SharingReport:
    """Full static-analysis result for one trace or access plan."""

    name: str
    nthreads: int
    total_instructions: int
    n_lines: int
    n_private: int
    shared: List[LineSharing]
    profiles: List[ThreadProfile] = field(default_factory=list)
    near_misses: List[NearMiss] = field(default_factory=list)
    #: The access plan a predictive report was computed from.
    plan: Optional[AccessPlan] = None

    def category_counts(self) -> Dict[str, int]:
        counts = {"private": self.n_private, "read-shared": 0,
                  "true-shared": 0, "false-shared": 0}
        for ls in self.shared:
            counts[ls.category] += 1
        return counts

    def false_shared(
        self, contended_only: bool = True, min_significance: float = 0.0
    ) -> List[LineSharing]:
        """False-shared lines, hottest first."""
        out = [ls for ls in self.shared
               if ls.category == "false-shared"
               and (ls.contended or not contended_only)
               and ls.significance >= min_significance]
        out.sort(key=lambda ls: ls.significance, reverse=True)
        return out

    @property
    def fs_significance(self) -> float:
        """Summed significance of contended false-shared lines."""
        return sum(ls.significance for ls in self.false_shared())

    @property
    def has_false_sharing(self) -> bool:
        """The static verdict, thresholded like the oracle's rate."""
        return self.fs_significance > SIGNIFICANCE_THRESHOLD

    @property
    def hostile_threads(self) -> List[int]:
        return [p.tid for p in self.profiles if p.hostile]

    @property
    def verdict(self) -> str:
        """Three-way label on the classifier's vocabulary."""
        if self.has_false_sharing:
            return "bad-fs"
        if self.hostile_threads:
            return "bad-ma"
        return "good"

    def object_sharing(self) -> Dict[str, str]:
        """Worst sharing category per named object (plan reports only).

        Severity order: private < read-shared < true-shared < false-shared
        (false sharing last because it is the category the pass exists to
        flag — true sharing on the sync word is expected).
        """
        if self.plan is None:
            raise ValueError("object_sharing needs a plan-backed report")
        rank = {"private": 0, "read-shared": 1, "true-shared": 2,
                "false-shared": 3}
        out: Dict[str, str] = {s.name: "private"
                               for s in self.plan.symbols}
        for ls in self.shared:
            for name in ls.objects or ():
                if rank[ls.category] > rank[out.get(name, "private")]:
                    out[name] = ls.category
        return out

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "nthreads": self.nthreads,
            "total_instructions": int(self.total_instructions),
            "n_lines": int(self.n_lines),
            "category_counts": self.category_counts(),
            "fs_significance": self.fs_significance,
            "verdict": self.verdict,
            "hostile_threads": self.hostile_threads,
        }
        if self.plan is not None:
            out["object_sharing"] = dict(sorted(
                self.object_sharing().items()))
        out["near_misses"] = [nm.to_dict() for nm in self.near_misses]
        out["shared_lines"] = [ls.to_dict() for ls in self.shared]
        out["profiles"] = [
            {
                "tid": p.tid,
                "n_accesses": int(p.n_accesses),
                "footprint_lines": int(p.footprint_lines),
                "refetch_rate": p.refetch_rate,
                "hostile": p.hostile,
            }
            for p in self.profiles
        ]
        return out

    def render(self, top: int = 12) -> str:
        pre = "" if self.plan is None else "predicted "
        counts = self.category_counts()
        lines = [
            f"{self.name}: {self.n_lines} lines "
            f"{'touched' if self.plan is None else 'predicted'} — "
            + ", ".join(f"{counts[c]} {c}" for c in
                        ("private", "read-shared", "true-shared",
                         "false-shared")),
            f"{pre}verdict: {self.verdict}   "
            f"fs significance: {self.fs_significance:.3e} "
            f"(threshold {SIGNIFICANCE_THRESHOLD:.0e})",
        ]
        hot = self.false_shared(contended_only=False)[:top]
        if hot:
            rows = []
            for ls in hot:
                spans = "; ".join(
                    f"T{t}:[{lo},{hi}]"
                    for t, (lo, hi) in sorted(ls.evidence().items())
                )
                rows.append([
                    f"0x{ls.address:x}", ", ".join(ls.objects or ()) or "-",
                    len(ls.writers), round(ls.total_writes),
                    "yes" if ls.contended else "no",
                    f"{ls.significance:.2e}", spans,
                ])
            lines.append(render_table(
                ["line addr", "objects", "writers", "writes", "contended",
                 "significance", "written byte spans"],
                rows,
                title=f"{pre}false-shared lines (hottest first)".capitalize(),
            ))
        if self.near_misses:
            lines.append(
                f"{len(self.near_misses)} {pre}adjacent-line near miss(es): "
                + ", ".join(f"0x{nm.line * LINE_SIZE:x}(T{nm.tid_low}|"
                            f"T{nm.tid_high}, {nm.slack_bytes}B slack)"
                            for nm in self.near_misses[:6])
            )
        if self.hostile_threads:
            lines.append(
                f"{pre}cache-hostile access patterns in threads "
                + ", ".join(f"T{t}" for t in self.hostile_threads)
            )
        return "\n".join(lines)


# ------------------------------------------------------------------ core

#: Per-record columns a front-end hands the core, in this order.
_RECORD_COLUMNS = ("line", "tid", "reads", "writes", "pos_lo", "pos_hi",
                   "off_lo", "off_hi", "written")


def _word_conflicts(words: np.ndarray, tids: np.ndarray,
                    written: np.ndarray, nthreads: int,
                    lines: np.ndarray) -> Set[int]:
    """Which of the sorted ``lines`` hold a 4-byte word that one thread
    writes and another touches — the true-sharing rule, over (word, tid,
    written) columns."""
    if lines.size == 0:
        return set()
    wline = words // (LINE_SIZE // 4)
    on = lines[np.minimum(np.searchsorted(lines, wline), lines.size - 1)]
    keep = on == wline
    words, tids, written = words[keep], tids[keep], written[keep]
    per_word = np.unique(words * nthreads + tids) // nthreads
    uw, n_tids = np.unique(per_word, return_counts=True)
    hit = np.intersect1d(uw[n_tids >= 2], np.unique(words[written]),
                         assume_unique=True)
    return set((hit // (LINE_SIZE // 4)).tolist())


def _classify(line: int, uses: List[ThreadLineUse], conflicted: bool,
              ipa: Sequence[float], total_instr: int) -> LineSharing:
    writers = [u for u in uses if u.writes]
    if not writers:
        return LineSharing(line, "read-shared", uses)
    if conflicted:
        return LineSharing(line, "true-shared", uses)
    # Several threads, writes present, every word thread-exclusive:
    # false sharing by layout.  Contention needs temporal overlap of a
    # writer with any other user — a pure hand-off cannot ping-pong.
    ls = LineSharing(line, "false-shared", uses)
    implicated = set()
    for w in writers:
        for u in uses:
            if u.tid != w.tid and w.overlaps(u):
                implicated.add(w.tid)
                implicated.add(u.tid)
    if implicated and total_instr > 0:
        instr = sum(u.accesses * ipa[u.tid]
                    for u in uses if u.tid in implicated)
        ls.contended = True
        ls.significance = instr / total_instr
    return ls


def _near_misses(g_line, g_tid, g_writes, g_plo, g_phi, g_wmin, g_wmax,
                 line_starts) -> List[NearMiss]:
    """Sole-writer adjacent-line pairs packed tight against the seam.

    Works on the group arrays, so private lines — where the classic
    near-miss lives — are covered without materializing per-line objects
    for them.
    """
    wrote = g_writes > 0
    sole = np.add.reduceat(wrote.astype(np.int64), line_starts) == 1
    if not sole.any():
        return []
    first_writer = np.minimum.reduceat(
        np.where(wrote, np.arange(wrote.size), wrote.size), line_starts)
    rows = first_writer[sole]
    wline = g_line[rows]
    out: List[NearMiss] = []
    for i in np.flatnonzero(wline[1:] == wline[:-1] + 1).tolist():
        a, b = rows[i], rows[i + 1]
        if g_tid[a] == g_tid[b]:
            continue
        if not _overlaps((g_plo[a], g_phi[a]), (g_plo[b], g_phi[b])):
            continue  # temporally disjoint: a hand-off, not a risk
        slack = int(LINE_SIZE - 1 - g_wmax[a] + g_wmin[b])
        if slack >= NEAR_MISS_MARGIN:
            continue
        out.append(NearMiss(int(wline[i]), int(g_tid[a]), int(g_tid[b]),
                            slack))
    return out


def _build_report(name: str, nthreads: int, ipa: Sequence[float],
                  total_instr: int, profiles: List[ThreadProfile],
                  records: Sequence[np.ndarray],
                  words: Sequence[np.ndarray],
                  plan: Optional[AccessPlan] = None) -> SharingReport:
    """The classifier core: group ``records`` (columns as in
    ``_RECORD_COLUMNS``) per (line, thread), classify every shared line and
    find near misses.  ``words`` are (word, tid, written) columns."""
    line, tid, reads, writes, pos_lo, pos_hi, off_lo, off_hi, written = (
        records)
    if line.size == 0:
        return SharingReport(name, nthreads, total_instr, 0, 0, [],
                             profiles, [], plan)

    # ---- per-(line, thread) group arrays via one stable sort -------------
    key = line * nthreads + tid
    order = np.argsort(key, kind="stable")
    skey = key[order]
    starts = np.flatnonzero(np.r_[True, skey[1:] != skey[:-1]])
    g_line = skey[starts] // nthreads

    def red(ufunc, col):
        return ufunc.reduceat(col[order], starts)

    # Write spans: sentinel offsets outside [0, 63] where not written.
    w = written[order]
    groups = (
        skey[starts] % nthreads, red(np.add, reads), red(np.add, writes),
        red(np.minimum, pos_lo), red(np.maximum, pos_hi),
        red(np.minimum, off_lo), red(np.maximum, off_hi),
        np.minimum.reduceat(np.where(w, off_lo[order], LINE_SIZE), starts),
        np.maximum.reduceat(np.where(w, off_hi[order], -1), starts),
    )

    # ---- group the (line, thread) groups by line -------------------------
    line_starts = np.flatnonzero(np.r_[True, g_line[1:] != g_line[:-1]])
    sizes = np.diff(np.r_[line_starts, g_line.size])
    multi = sizes > 1
    shared_lines = g_line[line_starts[multi]]
    word, word_tid, word_written = words
    conflicts = _word_conflicts(word, word_tid, word_written, nthreads,
                                shared_lines)

    # .tolist() keeps trace counts Python ints, so significance sums are
    # exact; the stable sort fixes the summation order of plan floats.
    rows = zip(*(g[np.repeat(multi, sizes)].tolist() for g in groups))
    shared: List[LineSharing] = []
    for ln, n in zip(shared_lines.tolist(), sizes[multi].tolist()):
        uses = [ThreadLineUse(t, r, wr, (p0, p1), (t0, t1),
                              (w0, w1) if wr else None)
                for t, r, wr, p0, p1, t0, t1, w0, w1 in islice(rows, n)]
        shared.append(_classify(ln, uses, ln in conflicts, ipa,
                                total_instr))
    g_tid, _, g_writes, g_plo, g_phi, _, _, g_wmin, g_wmax = groups
    near = _near_misses(g_line, g_tid, g_writes, g_plo, g_phi, g_wmin,
                        g_wmax, line_starts)
    if plan is not None:  # name the objects on every reported line
        table = plan.symbols

        def names(ln: int) -> List[str]:
            return [s.name for s in table.line_owners(ln)]

        for ls in shared:
            ls.objects = names(ls.line)
        near = [replace(nm, objects=tuple(sorted(
                    {*names(nm.line), *names(nm.line + 1)})))
                for nm in near]
    return SharingReport(name, nthreads, total_instr, int(line_starts.size),
                         int(np.count_nonzero(~multi)), shared, profiles,
                         near, plan)


# ------------------------------------------------------------ front-ends

def _trace_profile(tid: int, lines: np.ndarray) -> ThreadProfile:
    n = int(lines.size)
    if n == 0:
        return ThreadProfile(tid, 0, 0, 0.0)
    order = np.argsort(lines, kind="stable")
    sl = lines[order]
    first = np.r_[True, sl[1:] != sl[:-1]]
    # Within a line's group the original indices ascend (stable sort),
    # so consecutive differences are the thread-local revisit gaps.
    gaps = np.diff(order.astype(np.int64), prepend=np.int64(0))
    refetch = int(np.count_nonzero((~first) & (gaps > REFETCH_WINDOW)))
    return ThreadProfile(tid, n, int(np.count_nonzero(first)), refetch / n)


class StaticSharingAnalyzer:
    """Trace front-end: a :class:`SharingReport` in O(accesses).

    The classification has no knobs — it is a property of the trace.
    """

    def analyze(self, program: ProgramTrace) -> SharingReport:
        nt = program.nthreads
        threads = program.threads
        sizes = [t.n_accesses for t in threads]
        profiles = [_trace_profile(tid, line_of(t.addrs))
                    for tid, t in enumerate(threads)]
        tid = np.repeat(np.arange(nt, dtype=np.int64), sizes)
        addr = np.concatenate([t.addrs for t in threads])
        written = np.concatenate([t.is_write for t in threads])
        writes = written.astype(np.int64)
        pos = np.concatenate([np.arange(n, dtype=np.int64) for n in sizes])
        offs = addr & (LINE_SIZE - 1)
        records = (line_of(addr), tid, 1 - writes, writes, pos, pos + 1,
                   offs, offs, written)
        return _build_report(
            program.name, nt, [t.instr_per_access for t in threads],
            program.total_instructions, profiles, records,
            (addr >> 2, tid, written))


class PredictiveAnalyzer:
    """Plan front-end: a :class:`SharingReport` from an access plan alone."""

    def analyze(self, plan: AccessPlan) -> SharingReport:
        nt = plan.nthreads
        per_use: List[tuple] = []   # per-(use, line) record columns
        per_elem: List[tuple] = []  # per-element word columns
        refetch = [0.0] * nt
        for use in plan.uses:
            sym = plan.symbols[use.symbol]
            idx = np.arange(use.start, use.stop, use.step, dtype=np.int64)
            addrs = sym.base + idx * sym.effective_stride
            lines = line_of(addrs)
            offs = addrs & (LINE_SIZE - 1)
            n = idx.size
            bounds = np.flatnonzero(np.r_[True, lines[1:] != lines[:-1]])
            ends = np.r_[bounds[1:], n]
            k = bounds.size
            frac = (ends - bounds) / float(n)
            if use.order == "linear":
                pos_lo = use.phase + bounds / float(n)
                pos_hi = use.phase + ends / float(n)
            else:
                pos_lo = np.full(k, float(use.phase))
                pos_hi = pos_lo + 1.0
            per_use.append((
                lines[bounds], np.full(k, use.tid, dtype=np.int64),
                use.reads * frac, use.writes * frac, pos_lo, pos_hi,
                offs[bounds], offs[ends - 1], np.full(k, bool(use.writes)),
            ))
            per_elem.append((addrs >> 2, np.full(n, use.tid, dtype=np.int64),
                          np.full(n, bool(use.writes))))
            # Each extra burst re-fetches each of the use's lines once, but
            # never more often than the line is touched.
            refetch[use.tid] += k * min(use.bursts_per_line - 1.0,
                                        max(use.accesses / k - 1.0, 0.0))
        empty = [np.zeros(0, dtype=np.int64)] * len(_RECORD_COLUMNS)
        records = [np.concatenate(c) for c in zip(*per_use)] or empty
        words = [np.concatenate(c) for c in zip(*per_elem)] or empty[:3]
        footprint = np.bincount(np.unique(records[0] * nt + records[1]) % nt,
                                minlength=nt)
        profiles = []
        for t in range(nt):
            n_acc = plan.thread_accesses(t)
            profiles.append(ThreadProfile(
                t, n_acc, int(footprint[t]),
                refetch[t] / n_acc if n_acc else 0.0))
        return _build_report(plan.name, nt, plan.ipa,
                             plan.total_instructions, profiles, records,
                             words, plan)


def analyze_trace(program: ProgramTrace) -> SharingReport:
    """One-shot convenience: static sharing report of a trace."""
    return StaticSharingAnalyzer().analyze(program)


def predict_plan(plan: AccessPlan) -> SharingReport:
    """One-shot convenience: predictive report of an access plan."""
    return PredictiveAnalyzer().analyze(plan)
