package telemetry

// The per-site fold the replay Tap's hot-branch profile and Forensics
// share. The fold* functions are held to the kernel's loop contract by
// the hotalloc analyzer.

import (
	"container/heap"
	"math/bits"
)

// SiteLog is one run's resolved conditional branches in resolution
// order, column by column. Sites are numbered densely in order of first
// occurrence.
type SiteLog struct {
	// IDs[j] is branch j's site id.
	IDs []int32
	// Outs[j] is branch j's outcome: 1 taken, 0 not taken.
	Outs []uint8
	// Sites[id] is the PC of site id.
	Sites []uint32
	// Miss has bit j set when branch j was mispredicted; bits past the
	// last branch are clear.
	Miss []uint64
}

// Missed reports whether branch j was mispredicted.
func (l *SiteLog) Missed(j int) bool { return l.Miss[j>>6]>>(j&63)&1 != 0 }

// WarmupBoundary is the number of resolutions a run of budget
// conditional branches attributes to warmup in its miss split: the first
// tenth of the budget, or 0 (no split) when the budget is unknown.
func WarmupBoundary(budget uint64) uint64 { return budget / 10 }

// OnesIn counts the set bits of set in bit range [lo, hi).
func OnesIn(set []uint64, lo, hi int) uint64 {
	if lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - (hi-1)&63)
	if first == last {
		return uint64(bits.OnesCount64(set[first] & loMask & hiMask))
	}
	n := bits.OnesCount64(set[first]&loMask) + bits.OnesCount64(set[last]&hiMask)
	for _, w := range set[first+1 : last] {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// SiteCounts is the per-site executions and taken outcomes of a log,
// indexed by site id.
type SiteCounts struct {
	Exec, Taken []uint64
}

// FoldCounts counts each site's executions and taken outcomes in l.
func FoldCounts(l SiteLog) SiteCounts {
	sc := SiteCounts{Exec: make([]uint64, len(l.Sites)), Taken: make([]uint64, len(l.Sites))}
	outs := l.Outs[:len(l.IDs)]
	for j, id := range l.IDs {
		sc.Exec[id]++
		sc.Taken[id] += uint64(outs[j])
	}
	return sc
}

// siteRow is one site's row of the fold: its mispredicts and the share
// of them that fell in the warmup prefix.
type siteRow struct {
	miss, warmupMiss uint64
}

// SiteFold is the per-site mispredict fold of one log: a row per site,
// indexed by site id.
type SiteFold struct {
	rows   []siteRow
	sites  []uint32 // the log's site PCs
	misses uint64
}

// FoldSites folds l's mispredicts per site, walking only the set bits
// of l.Miss. A miss of a branch before warmup also counts as a warmup
// miss.
func FoldSites(l SiteLog, warmup uint64) SiteFold {
	f := SiteFold{rows: make([]siteRow, len(l.Sites)), sites: l.Sites}
	for wi, w := range l.Miss {
		for ; w != 0; w &= w - 1 {
			j := wi<<6 | bits.TrailingZeros64(w)
			r := &f.rows[l.IDs[j]]
			r.miss++
			if uint64(j) < warmup {
				r.warmupMiss++
			}
		}
		f.misses += uint64(bits.OnesCount64(l.Miss[wi]))
	}
	return f
}

// Profile returns the profile rows of the given sites, in order: each
// site's mispredicts and warmup misses from the fold, its executions
// and taken outcomes from sc, and its share of all mispredicts.
func (f *SiteFold) Profile(ids []int32, sc SiteCounts) []PCStats {
	profile := make([]PCStats, len(ids))
	for i, id := range ids {
		r, row := &f.rows[id], &profile[i]
		row.PC, row.Mispredicts, row.WarmupMisses = f.sites[id], r.miss, r.warmupMiss
		row.Executions, row.Taken = sc.Exec[id], sc.Taken[id]
		if row.Executions > 0 {
			row.TakenRate = float64(row.Taken) / float64(row.Executions)
		}
		if f.misses > 0 {
			row.MissShare = float64(r.miss) / float64(f.misses)
		}
	}
	return profile
}

// before reports whether site a precedes site b in the profile order:
// mispredicts descending, then PC ascending. Sites have distinct PCs,
// so the order is total.
func (f *SiteFold) before(a, b int32) bool {
	if f.rows[a].miss != f.rows[b].miss {
		return f.rows[a].miss > f.rows[b].miss
	}
	return f.sites[a] < f.sites[b]
}

// Top returns the ids of the first k sites in the profile order, in
// that order. It is a bounded selection: a heap keeps the best k rows
// seen so far, so ranking n sites costs O(n log k) rather than a sort
// of all n.
func (f *SiteFold) Top(k int) []int32 {
	r := &ranking{fold: f, kept: make([]int32, 0, min(k, len(f.rows)))}
	for i := range f.rows {
		switch {
		case r.Len() < k:
			heap.Push(r, int32(i))
		case f.before(int32(i), r.kept[0]):
			r.kept[0] = int32(i)
			heap.Fix(r, 0)
		}
	}
	out := make([]int32, r.Len())
	for j := len(out) - 1; j >= 0; j-- {
		out[j] = heap.Pop(r).(int32)
	}
	return out
}

// ranking is a heap of row indices whose root is the kept row that comes
// last in the profile order.
type ranking struct {
	fold *SiteFold
	kept []int32
}

func (r *ranking) Len() int           { return len(r.kept) }
func (r *ranking) Less(i, j int) bool { return r.fold.before(r.kept[j], r.kept[i]) }
func (r *ranking) Swap(i, j int)      { r.kept[i], r.kept[j] = r.kept[j], r.kept[i] }
func (r *ranking) Push(x any)         { r.kept = append(r.kept, x.(int32)) }
func (r *ranking) Pop() any {
	x := r.kept[len(r.kept)-1]
	r.kept = r.kept[:len(r.kept)-1]
	return x
}
