package prog

import (
	"fmt"

	"twolevel/internal/cpu"
)

// gccTarget is the Table 1 static conditional branch count.
const gccTarget = 6922

// gccHandlers is the number of token handlers in the dispatch engine.
// With 3-4 conditional sites per handler plus the driver and shared
// subroutines, the program lands on the Table 1 count of 6922 once the
// exact remainder is filled in.
const gccHandlers = 2000

// gcc: the C compiler — by far the largest branch working set in the
// suite (6922 static conditional branches) and the lowest prediction
// accuracy in every figure of the paper. Its profile: a token/tree
// dispatch engine touching thousands of distinct handlers (swamping a
// 512-entry BHT), moderately biased data-dependent decisions inside each
// handler, correlated token sequences, and frequent traps (the paper
// singles gcc out for its trap count in the context-switch experiment).
var gcc = &Benchmark{
	Name:             "gcc",
	FP:               false,
	Description:      "token-dispatch compiler engine with thousands of handler sites",
	TargetStaticCond: gccTarget,
	Training:         DataSet{Name: "cexp.i", Seed: 0x6CC00001, Scale: 384},
	Testing:          DataSet{Name: "dbxout.i", Seed: 0x6CC00102, Scale: 512},
	build:            buildGcc,
}

func buildGcc(ds DataSet) string {
	b := newBuilder(6922)
	data := &dataSegment{}
	tokens := ds.Scale // tokens compiled per pass
	b.prologue(ds)
	b.f("\tbr cc_main")

	// Shared "semantic routines" (symbol lookup, type check, constant
	// fold, emit): small loops and decisions reached from many handlers.
	nShared := 8
	for s := 0; s < nShared; s++ {
		b.at(numbered("cc_shared", "", s))
		b.countedLoop("r21", 2+s%4, func() {
			b.iops(3)
		})
		b.biasedBranch([]int{13, 14, 15}[s%3])
		b.f("\trts")
	}

	// The dispatch engine: one handler per token kind. Each handler
	// tests attribute bits of the current token (r14), occasionally
	// consults a private counter (loop-like patterns), and sometimes
	// calls a shared semantic routine.
	dispatch := b.dispatchTable(data, "cc", gccHandlers, func(i int) {
		// First decision: attribute bit test. Attribute bits are
		// sparse (the driver ANDs two random words) and correlated
		// across tokens, so the branch is biased not-taken and global
		// history carries extra information.
		mask := 1 << uint(b.gen.Intn(8))
		rare1 := b.label("cchr")
		b.f("\tandi r3, r14, %d", mask)
		b.bcnd("eq0", "r3", rare1) // attribute clear: the common, taken way
		b.f("\taddi r20, r20, 1")  // rare attribute handling
		b.at(rare1)
		// Second decision: biased on fresh randomness (per-handler
		// bias drawn at build time).
		b.biasedBranch([]int{14, 15}[b.gen.Intn(2)])
		// Third decision: a duty-cycle pattern, a rare-event periodic
		// pattern, or an accumulated-state test.
		switch b.gen.Intn(5) {
		case 0:
			lbl := numbered("cc", "_ctr_", i)
			data.word(lbl, 0)
			b.periodicBranch(lbl, 2+b.gen.Intn(4))
		case 1, 2, 3:
			lbl := numbered("cc", "_dctr_", i)
			data.word(lbl, 0)
			b.dutyBranch(lbl, []int{1, 2, 3, 5, 11, 13}[b.gen.Intn(6)])
		default:
			skip3 := b.label("cch")
			b.f("\tandi r3, r20, %d", 1+b.gen.Intn(7))
			b.bcnd("ne0", "r3", skip3)
			b.f("\txor r12, r12, r14")
			b.at(skip3)
		}
		// A quarter of handlers call a shared semantic routine.
		if b.gen.Intn(4) == 0 {
			b.f("\taddi sp, sp, -4")
			b.f("\tsw ra, 0(sp)")
			b.f("\tbsr cc_shared%d", b.gen.Intn(nShared))
			b.f("\tlw ra, 0(sp)")
			b.f("\taddi sp, sp, 4")
		}
	})

	b.at("cc_main")
	// Token loop: advance the correlated attribute word and the sticky
	// Markov kind, dispatch, and trap at system-call frequency.
	tokenLoop := b.label("tok")
	b.f("\tli r19, %d", tokens)
	b.at(tokenLoop)
	// Attribute: sparse random bits (AND of two draws sets a bit with
	// probability 1/4) mixed into the bits carried over from the
	// previous token.
	b.rand("r3")
	b.rand("r4")
	b.f("\tand r3, r3, r4")
	b.f("\tsrli r4, r4, 9")
	b.f("\tand r3, r3, r4")
	b.f("\tsrli r4, r4, 5")
	b.f("\tand r3, r3, r4") // bit density ~1/16: attributes are rare
	b.f("\tsrli r14, r14, 4")
	b.f("\txor r14, r14, r3")
	// Sticky Markov token kinds, concentrated on a hot handler set:
	// real compilers spend most of their time in a small number of hot
	// routines while still touching thousands of sites overall.
	b.advanceKind(gccHandlers, 12)
	b.hotBias(112, 13)
	b.f("\tbsr %s", dispatch)
	b.f("\taddi r19, r19, -1")
	b.bcnd("ne0", "r19", tokenLoop)

	// Phase sweep: every 16th run the compiler enters a different phase
	// (the equivalent of processing a new function's tree) that touches
	// every handler once in order. Real gcc's working set shifts by
	// phase; the sweep also guarantees every static site is eventually
	// exercised. One conditional site for the gate, one for the loop.
	sweepLoop := b.label("sweep")
	noSweep := b.label("nosweep")
	b.f("\tli r3, %d", cpu.RunCounterAddr)
	b.f("\tlw r4, 0(r3)")
	b.f("\tandi r5, r4, 15")
	b.bcnd("ne0", "r5", noSweep)
	// One 250-handler slice per sweep, rotating through all 8 slices.
	b.f("\tsrli r4, r4, 4")
	b.f("\tli r2, 8")
	b.f("\trem r4, r4, r2")
	b.f("\tli r13, 250")
	b.f("\tmul r13, r13, r4")
	b.f("\tli r19, 250")
	b.at(sweepLoop)
	b.f("\tbsr %s", dispatch)
	b.f("\taddi r13, r13, 1")
	b.f("\taddi r19, r19, -1")
	b.bcnd("ne0", "r19", sweepLoop)
	b.at(noSweep)

	// gcc interacts with the OS heavily: trap every pass plus the
	// per-token counter-driven traps below.
	b.f("\ttrap 2")
	b.trapEvery("cc_trap_ctr", 3)

	fill := gccTarget - b.Conds()
	if fill < 0 {
		panic(fmt.Sprintf("gcc: kernel already has %d sites (reduce gccHandlers)", b.Conds()))
	}
	loopShare := fill / 12
	b.rotatingBlocks(data, "ccf", fill-loopShare, 24, 0.2, 0.55, []int{13, 14, 15})
	b.regularFiller(loopShare, false)
	b.f("\thalt")
	return b.String() + data.sb.String()
}
