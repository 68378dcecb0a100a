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
// fall in one shard partition, so the other forks skip() across whole
// interval bins.
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

// TestTapForkAbsorbMatchesSerial is the sharded telemetry merge in
// isolation: four forks, each resolving its own PC partition and
// skipping the rest, absorbed into the parent, equal one serial Tap fed
// the whole stream — samples, switch indices and the full profile.
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
		parent := NewTap(cfg)
		forks := make([]*Tap, shards)
		for w := range forks {
			forks[w] = parent.fork(w)
			for _, e := range evs {
				switch {
				case e.sw:
					forks[w].Switch()
				case e.pc>>2&(shards-1) == uint32(w):
					forks[w].Resolve(e.pc, e.taken, e.ok)
				default:
					forks[w].skip()
				}
			}
		}
		for _, f := range forks {
			parent.absorb(f)
		}

		ws, wsw, wp := serial.Telemetry()
		gs, gsw, gp := parent.Telemetry()
		if !reflect.DeepEqual(gs, ws) {
			t.Errorf("%+v: absorbed samples differ from serial:\n got %+v\nwant %+v", cfg, gs, ws)
		}
		if !reflect.DeepEqual(gsw, wsw) {
			t.Errorf("%+v: absorbed switches %v, serial %v", cfg, gsw, wsw)
		}
		if !reflect.DeepEqual(gp, wp) {
			t.Errorf("%+v: absorbed profile differs from serial:\n got %+v\nwant %+v", cfg, gp, wp)
		}
		if cfg.TopPCs > 0 && len(wp) == 0 {
			t.Errorf("%+v: serial profile is empty", cfg)
		}
	}
}

// TestTapIntervalBins pins the cached interval edge: resolutions landing
// exactly on multiples of every open a new bin, the last bin may be
// partial, and a fork that skip()s across whole bins lands its next
// resolution in bin total/every.
func TestTapIntervalBins(t *testing.T) {
	tap := NewTap(Config{Interval: 4})
	for i := 0; i < 8; i++ {
		tap.Resolve(0x100, true, i%2 == 0)
	}
	if want := []uint64{4, 4}; !reflect.DeepEqual(tap.preds, want) {
		t.Fatalf("after 8 resolutions preds = %v, want %v", tap.preds, want)
	}
	tap.Resolve(0x100, true, true)
	samples, _, _ := tap.Telemetry()
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
	if want := []uint64{1, 1, 1}; !reflect.DeepEqual(every1.preds, want) {
		t.Errorf("every=1 preds = %v, want %v", every1.preds, want)
	}

	fork := NewTap(Config{Interval: 4}).fork(1)
	fork.Resolve(0x104, true, true) // index 0, bin 0
	for i := 0; i < 9; i++ {
		fork.skip() // indices 1..9: bin 1 entirely, bin 2 partly
	}
	fork.Resolve(0x104, true, false) // index 10, bin 2
	fork.skip()                      // index 11
	fork.Resolve(0x104, true, true)  // index 12, bin 3 (exact multiple)
	if want := []uint64{1, 0, 1, 1}; !reflect.DeepEqual(fork.preds, want) {
		t.Errorf("fork preds = %v, want %v", fork.preds, want)
	}
	if want := []uint64{1, 0, 0, 1}; !reflect.DeepEqual(fork.correct, want) {
		t.Errorf("fork correct = %v, want %v", fork.correct, want)
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
	_, _, profile := tap.Telemetry()
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
		if tap.pcs.n <= 2000 {
			t.Fatalf("only %d PCs resolved", tap.pcs.n)
		}
		want := fullSortTop(&tap.pcs, k)
		if got := tap.pcs.top(k); !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: bounded selection differs from the full sort", k)
		}
		ties := 0
		for i := 1; i < len(want); i++ {
			if tap.pcs.at(int(want[i])).miss == tap.pcs.at(int(want[i-1])).miss {
				ties++
			}
		}
		if k >= 64 && ties == 0 {
			t.Errorf("k=%d: no tied mispredict counts among the top rows", k)
		}
	}
}

// fullSortTop is the reference top-K: a sort of every row, cut to k.
func fullSortTop(p *pcTaps, k int) []int32 {
	all := make([]int32, p.n)
	for i := range all {
		all[i] = int32(i)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := p.at(int(all[i])), p.at(int(all[j]))
		if a.miss != b.miss {
			return a.miss > b.miss
		}
		return a.pc < b.pc
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
		b.Run(fmt.Sprintf("select/pcs=%d", sites), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tap.pcs.top(8)
			}
		})
		b.Run(fmt.Sprintf("fullsort/pcs=%d", sites), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fullSortTop(&tap.pcs, 8)
			}
		})
	}
}
