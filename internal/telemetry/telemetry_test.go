package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// logBuilder builds a SiteLog one resolution at a time, numbering sites
// in order of first occurrence.
type logBuilder struct {
	SiteLog
	ids map[uint32]int32
}

// add appends one resolved conditional branch.
func (b *logBuilder) add(pc uint32, taken, correct bool) {
	id, ok := b.ids[pc]
	if !ok {
		if b.ids == nil {
			b.ids = map[uint32]int32{}
		}
		id = int32(len(b.Sites))
		b.ids[pc] = id
		b.Sites = append(b.Sites, pc)
	}
	j := len(b.IDs)
	if j%64 == 0 {
		b.Miss = append(b.Miss, 0)
	}
	if !correct {
		b.Miss[j/64] |= 1 << (j % 64)
	}
	var o uint8
	if taken {
		o = 1
	}
	b.IDs = append(b.IDs, id)
	b.Outs = append(b.Outs, o)
}

// resolve appends n resolutions of branch pc, the first miss of them
// mispredicted and the first takenN of them taken.
func (b *logBuilder) resolve(pc uint32, n, miss, takenN int) {
	for i := 0; i < n; i++ {
		b.add(pc, i < takenN, i >= miss)
	}
}

// hotRows ranks l's sites with the per-site fold and renders the top k
// as hot-branch rows, as the Tap's profile does.
func hotRows(l SiteLog, k int) []HotBranch {
	fold := FoldSites(l, 0)
	return HotRows(fold.Profile(fold.Top(k), FoldCounts(l)))
}

func TestHotBranchesTopKOrdering(t *testing.T) {
	var b logBuilder
	b.resolve(0x100, 10, 5, 10) // 5 misses
	b.resolve(0x200, 10, 9, 0)  // 9 misses
	b.resolve(0x300, 10, 1, 5)  // 1 miss
	b.resolve(0x400, 10, 7, 10) // 7 misses

	rep := hotRows(b.SiteLog, 3)
	if len(rep) != 3 {
		t.Fatalf("top-3 of 4 branches: got %d rows", len(rep))
	}
	wantPCs := []uint32{0x200, 0x400, 0x100}
	for i, want := range wantPCs {
		if rep[i].PC != want {
			t.Errorf("rank %d: PC %#x, want %#x", i, rep[i].PC, want)
		}
	}
	if rep[0].Mispredicts != 9 || rep[0].Executions != 10 {
		t.Errorf("rank 0 counts: %+v", rep[0])
	}
	if rep[0].TakenRate != 0 {
		t.Errorf("0x200 taken rate = %v, want 0", rep[0].TakenRate)
	}
	if rep[2].TakenRate != 1 {
		t.Errorf("0x100 taken rate = %v, want 1", rep[2].TakenRate)
	}
	if total := OnesIn(b.Miss, 0, len(b.IDs)); total != 22 {
		t.Fatalf("total mispredicts = %d, want 22", total)
	}
	if got, want := rep[0].MissShare, 9.0/22.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("miss share = %v, want %v", got, want)
	}
	if len(b.Sites) != 4 {
		t.Errorf("static branches = %d, want 4", len(b.Sites))
	}
}

func TestHotBranchesTieBreaking(t *testing.T) {
	var b logBuilder
	// Equal mispredicts order by ascending PC, regardless of executions
	// and of the order the sites first resolved in.
	b.resolve(0x30, 20, 5, 0)
	b.resolve(0x20, 10, 5, 0)
	b.resolve(0x50, 10, 5, 0)
	rep := hotRows(b.SiteLog, 4)
	want := []uint32{0x20, 0x30, 0x50}
	if len(rep) != 3 {
		t.Fatalf("rows = %d", len(rep))
	}
	for i, pc := range want {
		if rep[i].PC != pc {
			t.Errorf("rank %d: PC %#x, want %#x (equal-mispredict rows must order by ascending PC)", i, rep[i].PC, pc)
		}
	}
}

// TestHotBranchesTiedReportDeterministic folds the same fully-tied
// workload twice and requires byte-identical rendered reports: the rank
// order (mispredicts desc, PC asc) is total, so the heap's internal
// order cannot leak into the output.
func TestHotBranchesTiedReportDeterministic(t *testing.T) {
	feed := func() []HotBranch {
		var b logBuilder
		// Every PC: identical executions, misses and taken counts — the
		// ranking sees nothing but PC to separate them.
		for _, pc := range []uint32{0x700, 0x100, 0x500, 0x300, 0x600, 0x200, 0x400} {
			b.resolve(pc, 12, 4, 6)
		}
		return hotRows(b.SiteLog, 8)
	}
	a, err := json.Marshal(feed())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(feed())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("identical tied workloads rendered different reports:\n%s\n%s", a, b)
	}
	var rep []HotBranch
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep) != 7 {
		t.Fatalf("top-8 of 7 sites: %d rows", len(rep))
	}
	for i := 1; i < len(rep); i++ {
		if rep[i-1].PC >= rep[i].PC {
			t.Fatalf("tied rows out of PC order: %#x before %#x", rep[i-1].PC, rep[i].PC)
		}
	}
}

func TestHotBranchesKSmallerThanSites(t *testing.T) {
	var b logBuilder
	b.resolve(1, 4, 2, 2)
	b.resolve(2, 4, 3, 2)
	rep := hotRows(b.SiteLog, 1)
	if len(rep) != 1 || rep[0].PC != 2 {
		t.Fatalf("top-1 = %+v", rep)
	}
}
