package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"twolevel/internal/rng"
	"twolevel/internal/trace"
)

// Kernel shapes: which replay loop a spec runs on. The five kernel shapes
// are the fastpath hot loops; "declined" specs (BTB designs and
// Profiling) are refused by the kernel and run on the interpretive
// runner.
const (
	shapeStatic   = "static"
	shapePAgCache = "pag_cache"
	shapePApCache = "pap_cache"
	shapeGAg      = "gag"
	shapeGeneric  = "generic"
	shapeDeclined = "declined"
)

var kernelShapes = []string{shapeStatic, shapeGAg, shapePAgCache, shapePApCache, shapeGeneric}

var automata = []string{"A1", "A2", "A3", "A4", "LT"}

// pow2 draws 2^k for k in [lo, hi].
func pow2(r *rng.RNG, lo, hi int) int { return 1 << (lo + r.Intn(hi-lo+1)) }

// between draws an int in [lo, hi].
func between(r *rng.RNG, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// sampleSpec draws one predictor spec of the given shape in the paper's
// naming convention. Table sizes are bounded (history at most 16 bits
// for one global table, at most 8 bits where a table exists per branch
// or per set) so every spec's state stays within a few MB.
func sampleSpec(r *rng.RNG, shape string) string {
	atm := automata[r.Intn(len(automata))]
	cs := ""
	if r.Bool(0.2) {
		cs = ",c"
	}
	switch shape {
	case shapeStatic:
		name := [...]string{"AlwaysTaken", "BTFN"}[r.Intn(2)]
		if cs != "" {
			return name + "(,,c)"
		}
		return name
	case shapeGAg:
		k := between(r, 4, 16)
		return fmt.Sprintf("GAg(HR(1,,%d-sr),1xPHT(2^%d,%s)%s)", k, k, atm, cs)
	case shapePAgCache:
		n, k := pow2(r, 7, 10), between(r, 4, 14)
		return fmt.Sprintf("PAg(BHT(%d,%d,%d-sr),1xPHT(2^%d,%s)%s)", n, pow2(r, 0, 2), k, k, atm, cs)
	case shapePApCache:
		n, k := pow2(r, 6, 9), between(r, 2, 8)
		return fmt.Sprintf("PAp(BHT(%d,%d,%d-sr),%dxPHT(2^%d,%s)%s)", n, pow2(r, 0, 2), k, n, k, atm, cs)
	case shapeGeneric:
		k := between(r, 2, 8)
		switch r.Intn(8) {
		case 0:
			k = between(r, 4, 12)
			return fmt.Sprintf("GAs(HR(1,,%d-sr),%dxPHT(2^%d,%s)%s)", k, pow2(r, 1, 6), k, atm, cs)
		case 1:
			sets := "inf"
			if r.Bool(0.5) {
				sets = fmt.Sprint(pow2(r, 4, 8))
			}
			return fmt.Sprintf("GAp(HR(1,,%d-sr),%sxPHT(2^%d,%s)%s)", k, sets, k, atm, cs)
		case 2:
			return fmt.Sprintf("PAs(BHT(%d,%d,%d-sr),%dxPHT(2^%d,%s)%s)", pow2(r, 7, 10), pow2(r, 0, 2), k, pow2(r, 1, 6), k, atm, cs)
		case 3:
			k = between(r, 4, 12)
			return fmt.Sprintf("SAg(SHT(%d,,%d-sr),1xPHT(2^%d,%s)%s)", pow2(r, 4, 10), k, k, atm, cs)
		case 4:
			return fmt.Sprintf("SAs(SHT(%d,,%d-sr),%dxPHT(2^%d,%s)%s)", pow2(r, 4, 10), k, pow2(r, 1, 6), k, atm, cs)
		case 5:
			sets := "inf"
			if r.Bool(0.5) {
				sets = fmt.Sprint(pow2(r, 4, 8))
			}
			return fmt.Sprintf("SAp(SHT(%d,,%d-sr),%sxPHT(2^%d,%s)%s)", pow2(r, 4, 10), k, sets, k, atm, cs)
		case 6:
			k = between(r, 4, 14)
			return fmt.Sprintf("PAg(IBHT(inf,,%d-sr),1xPHT(2^%d,%s)%s)", k, k, atm, cs)
		default:
			k = between(r, 2, 6)
			return fmt.Sprintf("PAp(IBHT(inf,,%d-sr),infxPHT(2^%d,%s)%s)", k, k, atm, cs)
		}
	default: // shapeDeclined
		if r.Bool(0.5) {
			return fmt.Sprintf("BTB(BHT(%d,%d,%s),%s)", pow2(r, 7, 10), pow2(r, 0, 2), atm, cs)
		}
		if cs != "" {
			return "Profiling(,,c)"
		}
		return "Profiling"
	}
}

// poolSpec is one spec of a sampled pool with the shape it was drawn for.
type poolSpec struct {
	Spec  string
	Shape string
}

// Pool composition: equal shares of the five kernel shapes, plus about
// 10% kernel-declined specs so the interpretive runner stays measured.
const (
	poolPerShape = 22
	poolDeclined = 10
	poolSeed     = 0x5eed_2ba5
)

// specPool draws the fixed spec pool the sweep-warm grids and the serve
// probe's requests sample from. It is fixed (not per-run) so every
// cell a run can draw has a golden result in golden/sweep-warm.json.
// Draws may repeat (there are only four static specs), which keeps the
// shape shares equal.
func specPool() []poolSpec {
	r := rng.New(poolSeed)
	var pool []poolSpec
	draw := func(shape string, n int) {
		for i := 0; i < n; i++ {
			pool = append(pool, poolSpec{Spec: sampleSpec(r, shape), Shape: shape})
		}
	}
	for _, shape := range kernelShapes {
		draw(shape, poolPerShape)
	}
	draw(shapeDeclined, poolDeclined)
	return pool
}

// poissonArrivals returns the due offsets of a Poisson process at rate
// per second over dur.
func poissonArrivals(r *rng.RNG, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// uploadTrace synthesises a TLBPTRC1 trace of n events: a small program
// of static branches with per-branch biases and loop-like periodic
// branches, plus calls, returns, jumps and rare traps.
func uploadTrace(r *rng.RNG, n int) ([]byte, error) {
	type site struct {
		pc, target uint32
		class      trace.Class
		bias       float64
		period     int
	}
	sites := make([]site, between(r, 24, 96))
	for i := range sites {
		pc := uint32(0x1000 + 4*i*between(r, 1, 8))
		s := site{pc: pc, target: pc + uint32(4*between(r, 1, 64)), class: trace.Cond, bias: r.Float64()}
		switch u := r.Float64(); {
		case u < 0.25:
			s.target = pc - uint32(4*between(r, 1, 32)) // backward: loop branch
			s.period = between(r, 2, 12)
		case u < 0.33:
			s.class = trace.Uncond
		case u < 0.39:
			s.class = trace.Call
		case u < 0.45:
			s.class = trace.Return
		}
		sites[i] = s
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(sites))
	for i := 0; i < n; i++ {
		e := trace.Event{Instrs: uint32(between(r, 1, 16))}
		if r.Bool(0.001) {
			e.Trap = true
		} else {
			j := r.Intn(len(sites))
			s := sites[j]
			taken := true
			if s.class == trace.Cond {
				if s.period > 0 {
					counts[j]++
					taken = counts[j]%s.period != 0
				} else {
					taken = r.Bool(s.bias)
				}
			}
			e.Branch = trace.Branch{PC: s.pc, Target: s.target, Class: s.class, Taken: taken}
		}
		if err := w.Write(e); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
