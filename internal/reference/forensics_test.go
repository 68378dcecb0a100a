package reference

import (
	"reflect"
	"testing"

	"twolevel/internal/rng"
	"twolevel/internal/telemetry"
)

// forensicsEvent is one resolved conditional branch of a forensics case.
type forensicsEvent struct {
	pc             uint32
	taken, correct bool
}

// drawForensicsCase draws a forensics configuration and a resolution
// stream: a PC pool of 1 to 5,000 sites (unaligned PCs and PC 0
// included), per-site outcome biases, and miss bits whose rate changes
// by stretch so that some stretches burst.
func drawForensicsCase(r *rng.RNG) (telemetry.ForensicsConfig, []forensicsEvent) {
	pool := make([]uint32, 1+r.Intn([]int{4, 60, 5_000}[r.Intn(3)]))
	for i := range pool {
		switch r.Intn(3) {
		case 0:
			pool[i] = uint32(r.Intn(64))
		case 1:
			pool[i] = 0x40_0000 + 4*uint32(r.Intn(8_192))
		default:
			pool[i] = r.Uint32()
		}
	}
	bias := make([]float64, len(pool))
	for i := range bias {
		bias[i] = r.Float64()
	}
	evs := make([]forensicsEvent, r.Intn(4_000))
	missRate := 0.0
	for j := range evs {
		if j%50 == 0 {
			missRate = []float64{0, 0.05, 0.3, 0.9}[r.Intn(4)]
		}
		site := r.Intn(len(pool))
		if r.Intn(2) == 0 {
			site = r.Intn(min(len(pool), 8)) // a few hot sites
		}
		evs[j] = forensicsEvent{pc: pool[site], taken: r.Bool(bias[site]), correct: !r.Bool(missRate)}
	}
	cfg := telemetry.ForensicsConfig{
		TopK:         r.Intn(len(pool) + 4),
		HistoryBits:  1 + r.Intn(16),
		RecorderSize: r.Intn(100),
		MaxSnapshots: r.Intn(7),
	}
	if cfg.RecorderSize > 0 {
		cfg.BurstThreshold = r.Intn(cfg.RecorderSize + 2)
	}
	if r.Intn(3) > 0 {
		cfg.Budget = uint64(r.Intn(2*len(evs) + 1))
	}
	return cfg, evs
}

// siteLogOf returns evs as a replay's log, sites numbered by first
// occurrence.
func siteLogOf(evs []forensicsEvent) telemetry.SiteLog {
	var l telemetry.SiteLog
	ids := map[uint32]int32{}
	for j, e := range evs {
		id, ok := ids[e.pc]
		if !ok {
			id = int32(len(l.Sites))
			ids[e.pc] = id
			l.Sites = append(l.Sites, e.pc)
		}
		if j%64 == 0 {
			l.Miss = append(l.Miss, 0)
		}
		if !e.correct {
			l.Miss[j/64] |= 1 << (j % 64)
		}
		var o uint8
		if e.taken {
			o = 1
		}
		l.IDs = append(l.IDs, id)
		l.Outs = append(l.Outs, o)
	}
	return l
}

// FuzzForensicsVsReference checks telemetry.Forensics against the naive
// reference model over random PC pools, outcomes, miss bits and
// configurations: its report, and its Lookup of every PC and of one PC
// that never ran, must deep-equal the model's. Forensics is fed three
// ways — one log per branch, one log handed over whole, and a log handed
// over in two parts.
func FuzzForensicsVsReference(f *testing.F) {
	for seed := uint64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg, evs := drawForensicsCase(rng.New(seed))
		ref := NewForensics(cfg)
		perBranch := telemetry.NewForensics(cfg)
		for j, e := range evs {
			ref.Resolve(e.pc, e.taken, e.correct)
			perBranch.AppendLog(siteLogOf(evs[j : j+1]))
		}
		whole := telemetry.NewForensics(cfg)
		whole.AppendLog(siteLogOf(evs))
		split := telemetry.NewForensics(cfg)
		cut := len(evs) / 3
		split.AppendLog(siteLogOf(evs[:cut]))
		split.AppendLog(siteLogOf(evs[cut:]))

		want := ref.Report()
		var pcs []uint32 // distinct PCs in first-occurrence order
		seen := map[uint32]bool{}
		for _, e := range evs {
			if !seen[e.pc] {
				seen[e.pc] = true
				pcs = append(pcs, e.pc)
			}
		}
		unseen := uint32(0x7fff_fff1)
		for seen[unseen] {
			unseen++
		}
		for _, arm := range []struct {
			path string
			fo   *telemetry.Forensics
			pcs  []uint32 // PCs to look up: every one once, a prefix for the log arms
		}{
			{"log per branch", perBranch, pcs},
			{"log", whole, pcs[:min(len(pcs), 64)]},
			{"split log", split, pcs[:min(len(pcs), 64)]},
		} {
			if got := arm.fo.Report(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s, %+v: report differs from the reference:\n got %+v\nwant %+v", seed, arm.path, cfg, got, want)
			}
			for _, pc := range arm.pcs {
				got, ok := arm.fo.Lookup(pc)
				wantRow, _ := ref.Lookup(pc)
				if !ok || !reflect.DeepEqual(got, wantRow) {
					t.Fatalf("seed %d, %s: Lookup(%#x) = %+v, %v; want %+v", seed, arm.path, pc, got, ok, wantRow)
				}
			}
			if got, ok := arm.fo.Lookup(unseen); ok || !reflect.DeepEqual(got, telemetry.PCForensics{}) {
				t.Fatalf("seed %d, %s: Lookup of PC %#x, which never ran, = %+v, %v", seed, arm.path, unseen, got, ok)
			}
		}
	})
}
