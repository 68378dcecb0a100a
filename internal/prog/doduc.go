package prog

import "fmt"

// doducTarget is the Table 1 static conditional branch count.
const doducTarget = 1149

// doduc: Monte-Carlo simulation of a nuclear reactor component. The real
// program mixes float arithmetic with a very large number of small
// data-dependent decisions and mid-size physics routines — the least
// loop-like of the paper's FP benchmarks, which is why its accuracy sits
// below the other FP codes in every figure. The generated program walks a
// long sequence of biased and patterned decision blocks per iteration and
// calls a few "physics kernel" subroutines with short loops.
var doduc = &Benchmark{
	Name:             "doduc",
	FP:               true,
	Description:      "Monte-Carlo style decision blocks with physics kernels",
	TargetStaticCond: doducTarget,
	Training:         DataSet{Name: "tiny doducin", Seed: 0xD0D0C001, Scale: 6},
	Testing:          DataSet{Name: "doducin", Seed: 0xD0D0C102, Scale: 8},
	build:            buildDoduc,
}

func buildDoduc(ds DataSet) string {
	b := newBuilder(1149)
	data := &dataSegment{}
	b.prologue(ds)
	b.f("\tli r5, 5")
	b.f("\tcvtif r5, r5, r0")
	b.f("\tli r6, 3")
	b.f("\tcvtif r6, r6, r0")

	// Physics kernels: three subroutines with internal loops (1 site
	// each) and one biased escape branch each.
	b.f("\tbr dd_main")
	for k := 0; k < 3; k++ {
		b.at(numbered("dd_phys", "", k))
		b.biasedBranch([]int{13, 14, 15}[k])
		b.countedLoop("r18", 4+2*k, func() {
			b.flops(3)
			b.f("\txor r12, r12, r10")
		})
		b.f("\trts")
	}

	b.at("dd_main")
	// Outer Monte-Carlo iterations: Scale sweeps per pass over the hot
	// decision walk — strongly biased branches with a solid patterned
	// minority, plus float work and the physics kernels.
	b.countedLoop("r19", ds.Scale, func() {
		b.mixBlocks(data, "dd", 120, 0.25, 0.6, []int{0, 14, 15, 16})
		b.flops(220)
		b.flops(6)
		for k := 0; k < 3; k++ {
			b.f("\tbsr dd_phys%d", k)
		}
	})

	// Occasional operating-system interaction (few traps; doduc is not
	// trap-heavy in the paper).
	b.trapEvery("dd_trap_ctr", 11)

	fill := doducTarget - b.Conds()
	if fill < 0 {
		panic(fmt.Sprintf("doduc: kernel already has %d sites", b.Conds()))
	}
	// The remainder mirrors doduc's routine bodies: cold decision code
	// visited a slice at a time, plus a loop tail.
	loopShare := fill / 10
	b.rotatingBlocks(data, "ddf", fill-loopShare, 24, 0.25, 0.6, []int{0, 14, 15, 16})
	b.regularFiller(loopShare, true)
	b.f("\thalt")
	return b.String() + data.sb.String()
}
