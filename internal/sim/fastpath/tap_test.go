package fastpath

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"twolevel/internal/telemetry"
)

// tapEvent is one resolved conditional branch fed to a Tap, or a context
// switch when sw is set.
type tapEvent struct {
	pc            uint32
	taken, ok, sw bool
}

// tapStream is a deterministic resolution stream over 709 branch sites
// with context switches sprinkled in, plus a run of branches that all
// fall in one shard partition, so the other partitions' bitsets hold no
// bits across whole interval bins.
func tapStream(n int) []tapEvent {
	rng := uint32(0x2545F491)
	next := func() uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng
	}
	var evs []tapEvent
	for i := 0; i < n; i++ {
		r := next()
		if r%97 == 0 {
			evs = append(evs, tapEvent{sw: true})
			continue
		}
		site := r >> 8 % 709
		evs = append(evs, tapEvent{pc: 0x40_0000 + 4*site, taken: r>>3&1 == 0, ok: r>>4%3 != 0})
		if i == n/2 {
			// 40 resolutions in partition 1 of 4 (pc>>2&3 == 1).
			for j := uint32(0); j < 40; j++ {
				evs = append(evs, tapEvent{pc: 0x40_0000 + 4*(4*j+1), taken: j&1 == 0, ok: j%3 == 0})
			}
		}
	}
	return evs
}

// logOf returns a plan whose columns hold evs' resolutions in order,
// the mispredict bitset of those resolutions, and the resolution index
// of each context switch — what a kernel replay hands its Tap.
func logOf(evs []tapEvent) (*Plan, []uint64, []int32) {
	p := &Plan{}
	var miss []uint64
	var switches []int32
	for _, e := range evs {
		if e.sw {
			switches = append(switches, int32(len(p.pcs)))
			continue
		}
		j := len(p.pcs)
		if j&63 == 0 {
			miss = append(miss, 0)
		}
		if !e.ok {
			miss[j>>6] |= 1 << (j & 63)
		}
		p.push(e.pc, e.taken)
	}
	return p, miss, switches
}

// TestTapForkAbsorbMatchesSerial is the sharded telemetry merge in
// isolation: four workers' mispredict bitsets, each holding only its own
// PC partition's bits, OR-merged and folded over the plan's columns,
// equal one Tap fed the whole stream through Resolve and Switch —
// samples, switch indices and the full profile.
func TestTapForkAbsorbMatchesSerial(t *testing.T) {
	evs := tapStream(6000)
	for _, cfg := range []Config{
		{Interval: 7, TopPCs: 10_000, Warmup: 500},
		{Interval: 64, TopPCs: 8, Warmup: 1000},
		{Interval: 1},
		{TopPCs: 5},
	} {
		serial := NewTap(cfg)
		for _, e := range evs {
			if e.sw {
				serial.Switch()
			} else {
				serial.Resolve(e.pc, e.taken, e.ok)
			}
		}

		const shards = 4
		plan, full, switches := logOf(evs)
		merged := make([]uint64, len(full))
		for w := uint32(0); w < shards; w++ {
			part := make([]uint64, len(full))
			for j, pc := range plan.pcs {
				if pc>>2&(shards-1) == w {
					part[j>>6] |= full[j>>6] & (1 << (j & 63))
				}
			}
			for i, x := range part {
				merged[i] |= x
			}
		}
		kernel := NewTap(cfg)
		kernel.bind(plan, merged, len(plan.pcs), switches)

		ws, wsw, wp, wn := serial.Telemetry()
		gs, gsw, gp, gn := kernel.Telemetry()
		if !reflect.DeepEqual(gs, ws) {
			t.Errorf("%+v: merged samples differ from serial:\n got %+v\nwant %+v", cfg, gs, ws)
		}
		if !reflect.DeepEqual(gsw, wsw) {
			t.Errorf("%+v: merged switches %v, serial %v", cfg, gsw, wsw)
		}
		if gn != wn {
			t.Errorf("%+v: merged profile ranked %d sites, serial %d", cfg, gn, wn)
		}
		if !reflect.DeepEqual(gp, wp) {
			t.Errorf("%+v: merged profile differs from serial:\n got %+v\nwant %+v", cfg, gp, wp)
		}
		if cfg.TopPCs > 0 && len(wp) == 0 {
			t.Errorf("%+v: serial profile is empty", cfg)
		}
		if cfg.TopPCs > 0 {
			wf := telemetry.NewForensics(telemetry.ForensicsConfig{Budget: 6000})
			gf := telemetry.NewForensics(telemetry.ForensicsConfig{Budget: 6000})
			serial.Forensics(wf)
			kernel.Forensics(gf)
			if !reflect.DeepEqual(gf.Report(), wf.Report()) {
				t.Errorf("%+v: merged forensics differ from serial", cfg)
			}
		}
	}
}

// TestTapIntervalBins pins the interval fold: resolutions landing
// exactly on multiples of every open a new bin, the last bin may be
// partial, and bins that straddle bitset words count their mispredicts
// by popcount across the word edge. A Tap resumed over a second plan
// continues the first replay's resolution index.
func TestTapIntervalBins(t *testing.T) {
	tap := NewTap(Config{Interval: 4})
	for i := 0; i < 8; i++ {
		tap.Resolve(0x100, true, i%2 == 0)
	}
	tap.Resolve(0x100, true, true)
	samples, _, _, _ := tap.Telemetry()
	want := []telemetry.Sample{
		{Branches: 4, Predictions: 4, Correct: 2, Accuracy: 0.5},
		{Branches: 8, Predictions: 4, Correct: 2, Accuracy: 0.5},
		{Branches: 9, Predictions: 1, Correct: 1, Accuracy: 1},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Errorf("samples = %+v, want %+v", samples, want)
	}

	every1 := NewTap(Config{Interval: 1})
	for i := 0; i < 3; i++ {
		every1.Resolve(0x100, false, true)
	}
	if samples, _, _, _ := every1.Telemetry(); len(samples) != 3 || samples[2].Branches != 3 {
		t.Errorf("every=1 samples = %+v, want 3 one-branch bins", samples)
	}

	// 200 resolutions, every third mispredicted, over bins of 50: bins
	// straddle the bitset's 64-bit words.
	var evs []tapEvent
	for j := 0; j < 200; j++ {
		evs = append(evs, tapEvent{pc: 0x104, taken: true, ok: j%3 != 0})
	}
	plan, miss, _ := logOf(evs)
	bound := NewTap(Config{Interval: 50})
	bound.bind(plan, miss, 150, nil) // a replay stopped at branch 150
	bound.bind(plan, miss, 50, []int32{0, 50})
	samples, switches, _, _ := bound.Telemetry()
	var wantMiss []uint64
	for lo := 0; lo < 200; lo += 50 {
		var m uint64
		for j := lo; j < lo+50; j++ {
			if j%150%3 == 0 {
				m++
			}
		}
		wantMiss = append(wantMiss, m)
	}
	if len(samples) != 4 {
		t.Fatalf("resumed tap folded %d bins, want 4", len(samples))
	}
	for i, s := range samples {
		if s.Branches != uint64(50*(i+1)) || s.Predictions != 50 || s.Correct != 50-wantMiss[i] {
			t.Errorf("bin %d = %+v, want %d mispredicts", i, s, wantMiss[i])
		}
	}
	if want := []uint64{150, 200}; !reflect.DeepEqual(switches, want) {
		t.Errorf("resumed switches = %v, want %v", switches, want)
	}
}

// TestTapTelemetryTieOrder pins the profile order on tied mispredict
// counts: mispredicts descending, then PC ascending, independent of the
// order PCs were first seen, with top-k truncation after sorting.
func TestTapTelemetryTieOrder(t *testing.T) {
	tap := NewTap(Config{TopPCs: 3})
	// Inserted in descending PC order; 0x10, 0x20, 0x30 and 0x40 each
	// miss twice, 0x50 misses three times, 0x05 once.
	for _, pc := range []uint32{0x50, 0x40, 0x30, 0x20, 0x10, 0x05} {
		misses := 2
		switch pc {
		case 0x50:
			misses = 3
		case 0x05:
			misses = 1
		}
		for i := 0; i < misses; i++ {
			tap.Resolve(pc, true, false)
		}
		tap.Resolve(pc, false, true)
	}
	_, _, profile, _ := tap.Telemetry()
	var got []uint32
	for _, row := range profile {
		got = append(got, row.PC)
	}
	if want := []uint32{0x50, 0x10, 0x20}; !reflect.DeepEqual(got, want) {
		t.Errorf("profile PCs = %#x, want %#x", got, want)
	}
	if row := profile[1]; row.Executions != 3 || row.Taken != 2 || row.Mispredicts != 2 ||
		row.MissShare != 2.0/12 || row.TakenRate != 2.0/3 {
		t.Errorf("row for 0x10 = %+v", row)
	}
}

// TestTapTopPCsMatchesFullSort checks the bounded top-K selection
// against a full sort of every row under the same order, over more than
// 2,000 PCs whose mispredict counts tie heavily, for K from 1 past the
// PC count.
func TestTapTopPCsMatchesFullSort(t *testing.T) {
	rng := uint32(0x9E3779B9)
	next := func() uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng
	}
	const sites = 2_311
	var evs []tapEvent
	for i := 0; i < 40_000; i++ {
		r := next()
		// Few misses per site, so many sites share a count.
		evs = append(evs, tapEvent{pc: 0x1000 + 4*(r%sites), taken: r>>12&1 == 0, ok: r>>13%4 != 0})
	}
	for _, k := range []int{1, 2, 7, 64, 1000, sites - 1, sites, sites + 9} {
		tap := NewTap(Config{TopPCs: k})
		for _, e := range evs {
			tap.Resolve(e.pc, e.taken, e.ok)
		}
		fold, rows := siteRows(tap)
		if len(rows) <= 2000 {
			t.Fatalf("only %d PCs resolved", len(rows))
		}
		want := fullSortTop(rows, k)
		if got := fold.Top(k); !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: bounded selection differs from the full sort", k)
		}
		ties := 0
		for i := 1; i < len(want); i++ {
			if rows[want[i]].Mispredicts == rows[want[i-1]].Mispredicts {
				ties++
			}
		}
		if k >= 64 && ties == 0 {
			t.Errorf("k=%d: no tied mispredict counts among the top rows", k)
		}
	}
}

// siteRows returns the per-site fold of tap's log and every site's
// profile row, indexed by site id.
func siteRows(tap *Tap) (telemetry.SiteFold, []telemetry.PCStats) {
	log := tap.log.siteLog(tap.miss, tap.n)
	fold := telemetry.FoldSites(log, tap.warmup)
	all := make([]int32, len(log.Sites))
	for i := range all {
		all[i] = int32(i)
	}
	return fold, fold.Profile(all, telemetry.FoldCounts(log))
}

// fullSortTop is the reference top-K: a sort of every row, cut to k.
func fullSortTop(rows []telemetry.PCStats, k int) []int32 {
	all := make([]int32, len(rows))
	for i := range all {
		all[i] = int32(i)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := rows[all[i]], rows[all[j]]
		if a.Mispredicts != b.Mispredicts {
			return a.Mispredicts > b.Mispredicts
		}
		return a.PC < b.PC
	})
	return all[:min(k, len(all))]
}

// BenchmarkTapTopPCs ranks a top-8 profile, as a perfbench sweep-warm
// cell asks for, by the bounded selection and by the full sort. The PC
// counts are the distinct conditional branch sites eqntott, doduc and
// gcc resolve in a 100,000-branch testing trace (brexp -exp table1).
func BenchmarkTapTopPCs(b *testing.B) {
	for _, sites := range []uint32{277, 1_149, 4_018} {
		tap := NewTap(Config{TopPCs: 8})
		rng := uint32(0x9E3779B9)
		for i := 0; i < 100_000; i++ {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			tap.Resolve(0x1000+4*(rng%sites), rng>>12&1 == 0, rng>>13%4 != 0)
		}
		fold, rows := siteRows(tap)
		b.Run(fmt.Sprintf("select/pcs=%d", sites), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fold.Top(8)
			}
		})
		b.Run(fmt.Sprintf("fullsort/pcs=%d", sites), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fullSortTop(rows, 8)
			}
		})
	}
}
