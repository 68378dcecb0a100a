package prog

import (
	"fmt"
	"strconv"
	"strings"

	"twolevel/internal/cpu"
	"twolevel/internal/rng"
)

// Register conventions for generated programs
//
//	r1..r8   scratch within a code fragment (r1 is clobbered by rand)
//	r10      xorshift32 data-generator state (never zero)
//	r11,r12  benchmark accumulators (checksums keep the work live)
//	r13      dispatch state (current token/opcode kind)
//	r14      correlated attribute word
//	r15      outer iteration counter
//	r16..r19 loop indices
//	r20..r23 handler scratch
//	sp, ra   stack and link register
//
// The data generator is xorshift32 (r10 ^= r10<<13; >>17; <<5), seeded
// from the DataSet seed XORed with the cpu.Source run counter so each
// program restart sees different data.

// builder accumulates generated assembly and counts the conditional
// branch sites emitted — the quantity Table 1 reports.
type builder struct {
	sb     strings.Builder
	gen    *rng.RNG // build-time randomness; fixed per (benchmark, data set)
	nlabel int
	conds  int
}

func newBuilder(seed uint64) *builder {
	return &builder{gen: rng.New(seed)}
}

// f emits one line (see line for the verbs it takes).
func (b *builder) f(format string, args ...any) { line(&b.sb, format, args) }

// line appends format, expanded with args, and a newline to sb. Program
// text is generated line by line, so this skips fmt: it knows only %s
// (a string) and %d (an integer), which is all the generators use. Any
// other verb or argument type is a generator bug and panics.
func line(sb *strings.Builder, format string, args []any) {
	var buf [128]byte
	out := buf[:0]
	for i := 0; i < len(format); i++ {
		if format[i] != '%' || i+1 == len(format) {
			out = append(out, format[i])
			continue
		}
		i++
		if len(args) == 0 {
			panic("prog: missing argument in " + strconv.Quote(format))
		}
		verb := format[i]
		if v, ok := args[0].(string); ok && verb == 's' {
			out = append(out, v...)
		} else if v, ok := integer(args[0]); ok && verb == 'd' {
			out = strconv.AppendInt(out, v, 10)
		} else {
			panic("prog: unsupported argument for %" + string(verb) + " in " + strconv.Quote(format))
		}
		args = args[1:]
	}
	if len(args) > 0 {
		panic("prog: extra arguments for " + strconv.Quote(format))
	}
	sb.Write(append(out, '\n'))
}

// integer returns a as an int64 if it is one of the integer types the
// generators format.
func integer(a any) (int64, bool) {
	switch v := a.(type) {
	case int:
		return int64(v), true
	case int32:
		return int64(v), true
	case int64:
		return v, true
	}
	return 0, false
}

// numbered joins prefix, sep and n: the generated label spelling.
func numbered(prefix, sep string, n int) string {
	var buf [64]byte
	return string(strconv.AppendInt(append(append(buf[:0], prefix...), sep...), int64(n), 10))
}

// label returns a fresh unique label with the given prefix.
func (b *builder) label(prefix string) string {
	b.nlabel++
	return numbered(prefix, "_", b.nlabel)
}

// at emits a label definition.
func (b *builder) at(label string) { b.f("%s:", label) }

// bcnd emits a conditional branch and counts the site.
func (b *builder) bcnd(cond, reg, target string) {
	b.conds++
	b.f("\tbcnd %s, %s, %s", cond, reg, target)
}

// Conds returns the number of conditional branch sites emitted so far.
func (b *builder) Conds() int { return b.conds }

func (b *builder) String() string { return b.sb.String() }

// prologue seeds the data generator from the data-set seed and the run
// counter and zeroes the benchmark registers.
func (b *builder) prologue(ds DataSet) {
	fmt.Fprintf(&b.sb, "; generated benchmark prologue (data set %s, seed %#x)\n", ds.Name, ds.Seed)
	b.liWide("r10", ds.Seed)
	// r26 is a small data-set fingerprint (0..3). Pattern periods are
	// perturbed by it, so different data sets exhibit genuinely
	// different branch *behaviour* at the same sites — the property
	// that makes profile-based schemes transfer imperfectly (§4.2).
	b.f("\tandi r26, r10, 3")
	b.f("\tli r1, %d", cpu.RunCounterAddr)
	b.f("\tlw r1, 0(r1)")
	b.f("\tslli r2, r1, 16")
	b.f("\txor r1, r1, r2")
	b.f("\txor r10, r10, r1")
	b.f("\tori r10, r10, 1") // xorshift state must be non-zero
	for _, r := range []string{"r11", "r12", "r13", "r14", "r15", "r20", "r21", "r22", "r23"} {
		b.f("\tmv %s, r0", r)
	}
}

// liWide loads a 32-bit constant with a fixed two-instruction sequence.
// Data-set-dependent constants must use it so that the training and
// testing builds of a benchmark have identical text layout (branch sites
// at identical addresses), which the Static Training and Profiling
// schemes rely on.
func (b *builder) liWide(reg string, v uint32) {
	b.f("\tlui %s, %d", reg, int32(int16(v>>16)))
	b.f("\tori %s, %s, %d", reg, reg, int32(int16(v)))
}

// regularFiller emits additional regular loop sites — the long tail of
// small library loops real programs carry — until exactly `sites`
// conditional branch sites have been added. Bodies are float or integer
// work depending on fp.
func (b *builder) regularFiller(sites int, fp bool) {
	work := func() {
		if fp {
			b.flops(1 + b.gen.Intn(2))
		} else {
			b.iops(1 + b.gen.Intn(2))
		}
	}
	for sites > 0 {
		b.pad()
		if sites >= 2 && b.gen.Bool(0.3) {
			b.countedLoop("r16", 2+b.gen.Intn(3), func() {
				b.countedLoop("r17", 2+b.gen.Intn(4), work)
			})
			sites -= 2
		} else {
			b.countedLoop("r16", 3+b.gen.Intn(6), work)
			sites--
		}
	}
}

// rand advances the xorshift32 state in r10 and copies it to dst.
// Clobbers r1.
func (b *builder) rand(dst string) {
	b.f("\tslli r1, r10, 13")
	b.f("\txor r10, r10, r1")
	b.f("\tsrli r1, r10, 17")
	b.f("\txor r10, r10, r1")
	b.f("\tslli r1, r10, 5")
	b.f("\txor r10, r10, r1")
	if dst != "r10" {
		b.f("\tmv %s, r10", dst)
	}
}

// countedLoop emits "for rI := iters; rI != 0; rI--" around body. One
// conditional branch site, taken (iters-1)/iters of the time — the
// regular loop-closing branch that dominates the FP benchmarks.
func (b *builder) countedLoop(reg string, iters int, body func()) {
	top := b.label("loop")
	b.f("\tli %s, %d", reg, iters)
	b.at(top)
	body()
	b.f("\taddi %s, %s, -1", reg, reg)
	b.bcnd("ne0", reg, top)
}

// countedLoopReg is countedLoop with a run-time trip count already in reg.
func (b *builder) countedLoopReg(reg string, body func()) {
	top := b.label("loop")
	b.at(top)
	body()
	b.f("\taddi %s, %s, -1", reg, reg)
	b.bcnd("ne0", reg, top)
}

// flops emits n float operations chained through r5..r7 (straight-line
// filler work that keeps the FP benchmarks' branch density low).
func (b *builder) flops(n int) {
	ops := []string{"fadd", "fmul", "fsub"}
	for i := 0; i < n; i++ {
		b.f("\t%s r5, r5, r6", ops[b.gen.Intn(len(ops))])
	}
}

// iops emits n integer operations (straight-line filler work).
func (b *builder) iops(n int) {
	ops := []string{"add", "xor", "and", "or", "sub"}
	for i := 0; i < n; i++ {
		b.f("\t%s r5, r5, r6", ops[b.gen.Intn(len(ops))])
	}
}

// guard emits one straight-line guard branch: a test over live data that
// is almost always decided the same way (numerical-guard style, as in
// fpppp's error checks). takenBias selects the polarity: true emits an
// always-taken forward skip, false an almost-never-taken forward test.
// One conditional branch site; 2-4 instructions.
func (b *builder) guard(taken bool) {
	skip := b.label("g")
	b.f("\tandi r3, r11, 127")
	b.f("\tori r3, r3, 1") // r3 in [1,127]: strictly positive
	if taken {
		b.bcnd("gt0", "r3", skip) // always taken
		b.f("\tsub r11, r0, r11") // skipped fixup
	} else {
		b.bcnd("le0", "r3", skip) // never taken
		b.f("\taddi r11, r11, 1")
	}
	b.at(skip)
}

// biasedBranch emits one data-dependent branch taken with probability
// roughly num/16 on fresh random data. One conditional site.
func (b *builder) biasedBranch(num int) {
	if num < 0 || num > 16 {
		panic("prog: bias out of range")
	}
	taken := b.label("bb")
	b.rand("r3")
	b.f("\tandi r3, r3, 15")
	b.f("\taddi r3, r3, %d", -num)
	b.bcnd("lt0", "r3", taken)
	b.f("\taddi r11, r11, 3")
	b.at(taken)
	b.f("\txor r12, r12, r3")
}

// periodicBranch emits one branch following a strict period pattern
// (taken once every p executions), using a private counter word. Pattern
// predictors learn it; per-branch counters and static schemes cannot —
// the statically mediocre, dynamically predictable branch class that
// separates two-level prediction from everything else. The effective
// period is period + the data-set fingerprint (r26), so pattern history
// profiled on the training set is wrong for the testing set. The taken
// direction is the rare forward one, the arrangement compilers produce.
// One conditional site. counterLabel must name a distinct .word 0.
func (b *builder) periodicBranch(counterLabel string, period int) {
	work := b.label("pbw")
	past := b.label("pbp")
	b.f("\tla r3, %s", counterLabel)
	b.f("\tlw r4, 0(r3)")
	b.f("\taddi r4, r4, 1")
	b.f("\tli r2, %d", period)
	b.f("\tadd r2, r2, r26")
	b.f("\trem r5, r4, r2")
	b.f("\tsw r4, 0(r3)")
	b.bcnd("eq0", "r5", work) // taken once per effective period
	b.f("\tbr %s", past)
	b.at(work)
	b.f("\taddi r11, r11, 7") // the "every p-th time" work
	b.at(past)
}

// dataSegment tracks data directives to append after the code.
type dataSegment struct {
	sb strings.Builder
}

func (d *dataSegment) f(format string, args ...any) { line(&d.sb, format, args) }

// word emits a labelled word.
func (d *dataSegment) word(label string, value uint32) {
	d.f("%s:\n\t.word %d", label, int64(value))
}

// space emits a labelled zeroed region of n bytes.
func (d *dataSegment) space(label string, n int) {
	d.f("%s:\n\t.space %d", label, n)
}

// pad emits 0-3 no-ops. Generated blocks are otherwise nearly uniform in
// size, which would place their branches at a regular PC stride; strides
// sharing a large factor with the BHT set count alias a few sets and
// conflict-thrash in a way no real code layout does. The jitter makes
// branch addresses effectively uniform across sets.
func (b *builder) pad() {
	for j := b.gen.Intn(4); j > 0; j-- {
		b.f("\tori r0, r0, 0")
	}
}

// dutyBranch emits one branch whose outcome is a deterministic function
// of its own execution count with duty cycle roughly duty/16 (a Bresenham
// pattern with period at most 16, perturbed by the data-set fingerprint
// r26). This is the dominant branch class in real programs: decisions
// that are complicated but *deterministic in program state*, which
// pattern-history predictors learn essentially perfectly while static
// schemes only get the duty-cycle majority. duty must be in [0,13].
// One conditional site. counterLabel must name a distinct .word 0.
func (b *builder) dutyBranch(counterLabel string, duty int) {
	if duty < 0 || duty > 13 {
		panic("prog: duty out of range")
	}
	taken := b.label("db")
	b.f("\tla r3, %s", counterLabel)
	b.f("\tlw r4, 0(r3)")
	b.f("\taddi r4, r4, 1")
	b.f("\tsw r4, 0(r3)")
	b.f("\tli r2, %d", duty)
	b.f("\tadd r2, r2, r26") // data sets see different patterns
	b.f("\tmul r5, r4, r2")
	b.f("\tandi r5, r5, 15")
	b.f("\tsub r5, r5, r2")
	b.bcnd("lt0", "r5", taken) // taken iff (c*d mod 16) < d
	b.f("\taddi r11, r11, 3")
	b.at(taken)
	b.f("\txor r12, r12, r4")
}

// mixBlocks emits n decision blocks in straight line: a deterministic
// build-time mix of duty-cycle pattern branches (dutyFrac), rare-event
// periodic branches (periodicFrac) and biased-random noise branches (the
// remainder, biases drawn from biasChoices). Counts n conditional sites.
func (b *builder) mixBlocks(data *dataSegment, prefix string, n int, periodicFrac, dutyFrac float64, biasChoices []int) {
	for i := 0; i < n; i++ {
		b.pad()
		// Counters start at a per-site phase offset (baked into the
		// image) so sites sharing a duty cycle or period are out of
		// phase: their histories reach the same patterns with
		// different next outcomes — the pattern interference PAp
		// removes and PAg/GAg pay for (§2.2).
		switch r := b.gen.Float64(); {
		case r < periodicFrac:
			lbl := numbered(prefix, "_ctr_", i)
			data.word(lbl, uint32(b.gen.Intn(64)))
			b.periodicBranch(lbl, 2+b.gen.Intn(5))
		case r < periodicFrac+dutyFrac:
			lbl := numbered(prefix, "_dctr_", i)
			data.word(lbl, uint32(b.gen.Intn(256)))
			b.dutyBranch(lbl, []int{1, 2, 3, 5, 6, 11, 13}[b.gen.Intn(7)])
		default:
			b.biasedBranch(biasChoices[b.gen.Intn(len(biasChoices))])
		}
	}
}

// trapEvery emits a trap fired on every period-th program run (models
// system-call density; gcc traps frequently). Keyed off the run counter,
// the only state surviving restarts. One conditional site.
func (b *builder) trapEvery(label string, period int) {
	skip := b.label("tr")
	b.f("\tli r3, %d", cpu.RunCounterAddr)
	b.f("\tlw r4, 0(r3)")
	b.f("\tli r2, %d", period)
	b.f("\trem r5, r4, r2")
	b.bcnd("ne0", "r5", skip)
	b.f("\ttrap 1")
	b.at(skip)
}

// dispatchTable emits an indirect-dispatch engine: r13 holds the current
// kind in [0,n); the dispatcher jumps through a table of n handlers, each
// generated by handler(i) and ending with rts. Returns the label of the
// dispatcher subroutine (call with bsr; kind in r13).
func (b *builder) dispatchTable(data *dataSegment, name string, n int, handler func(i int)) string {
	table := name + "_table"
	sub := name + "_dispatch"
	b.f("; dispatch engine %s (%d handlers)", name, n)
	b.at(sub)
	b.f("\taddi sp, sp, -4")
	b.f("\tsw ra, 0(sp)")
	b.f("\tslli r3, r13, 2")
	b.f("\tla r4, %s", table)
	b.f("\tadd r4, r4, r3")
	b.f("\tlw r4, 0(r4)")
	b.f("\tjsr r4")
	b.f("\tlw ra, 0(sp)")
	b.f("\taddi sp, sp, 4")
	b.f("\trts")
	labels := make([]string, n)
	for i := 0; i < n; i++ {
		labels[i] = numbered(name, "_h", i)
		b.at(labels[i])
		b.pad()
		handler(i)
		b.f("\trts")
	}
	data.f("%s:", table)
	for _, l := range labels {
		data.f("\t.word %s", l)
	}
	return sub
}

// advanceKind updates the dispatch kind in r13 with a sticky Markov step:
// with probability stickNum/16 the kind drifts by +1 (mod n), otherwise it
// jumps to a random kind. Correlated kind sequences give global-history
// predictors something to learn. Branch-free (a select computed with a
// sign mask), so it adds no conditional site: the predictable/
// unpredictable mix stays under the handlers' control. Clobbers r1-r6.
func (b *builder) advanceKind(n, stickNum int) {
	b.rand("r3")
	// r4 = all-ones if sticky ((r3&15) < stickNum), else zero.
	b.f("\tandi r4, r3, 15")
	b.f("\taddi r4, r4, %d", -stickNum)
	b.f("\tsrai r4, r4, 31")
	// candidate jump target vs drift target
	b.f("\tsrli r5, r3, 4") // random kind source
	b.f("\taddi r6, r13, 1")
	// r13 = sticky ? r6 : r5
	b.f("\tsub r6, r6, r5")
	b.f("\tand r6, r6, r4")
	b.f("\tadd r13, r5, r6")
	b.f("\tli r2, %d", n)
	b.f("\trem r13, r13, r2")
}

// hotBias remaps the kind in r13 into the hot set [0,hotN) with
// probability hotNum/16, branch-free. Real programs concentrate dynamic
// execution on a small hot set of static branches; without this the
// dispatch engines would thrash any finite BHT uniformly, which no real
// workload does. Clobbers r1-r6.
func (b *builder) hotBias(hotN, hotNum int) {
	b.rand("r3")
	b.f("\tandi r4, r3, 15")
	b.f("\taddi r4, r4, %d", -hotNum)
	b.f("\tsrai r4, r4, 31") // all-ones when hot
	b.f("\tli r2, %d", hotN)
	b.f("\trem r5, r13, r2")
	b.f("\tsub r5, r5, r13")
	b.f("\tand r5, r5, r4")
	b.f("\tadd r13, r13, r5")
}

// rotatingBlocks emits n decision blocks split across `groups` bodies;
// each execution runs exactly one body, selected by a rotating private
// counter through a jump table. The live branch working set per pass
// stays small — mirroring the strong temporal locality of real code —
// while every site is still exercised across passes. Counts n conditional
// sites plus those of the selection (none: the dispatch is an indirect
// jump).
func (b *builder) rotatingBlocks(data *dataSegment, prefix string, n, groups int, periodicFrac, dutyFrac float64, biasChoices []int) {
	if groups < 1 {
		groups = 1
	}
	per := (n + groups - 1) / groups
	tbl := prefix + "_rtab"
	join := b.label("rj")
	// The group rotates with the run counter — the only state that
	// survives program restarts (data memory is reloaded each run).
	b.f("\tli r3, %d", cpu.RunCounterAddr)
	b.f("\tlw r4, 0(r3)")
	b.f("\tli r2, %d", groups)
	b.f("\trem r4, r4, r2")
	b.f("\tslli r4, r4, 2")
	b.f("\tla r3, %s", tbl)
	b.f("\tadd r3, r3, r4")
	b.f("\tlw r3, 0(r3)")
	b.f("\tjmp r3")
	var labels []string
	emitted := 0
	for g := 0; g < groups; g++ {
		lbl := numbered(prefix, "_g", g)
		labels = append(labels, lbl)
		b.at(lbl)
		cnt := per
		if emitted+cnt > n {
			cnt = n - emitted
		}
		b.mixBlocks(data, lbl, cnt, periodicFrac, dutyFrac, biasChoices)
		emitted += cnt
		b.f("\tbr %s", join)
	}
	data.f("%s:", tbl)
	for _, l := range labels {
		data.f("\t.word %s", l)
	}
	b.at(join)
}
