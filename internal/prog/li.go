package prog

import (
	"fmt"

	"twolevel/internal/cpu"
)

// liTarget is the Table 1 static conditional branch count.
const liTarget = 489

// liHandlers is the number of bytecode handlers in the interpreter core.
const liHandlers = 96

// li (xlisp): a Lisp interpreter. Table 2 gives it the most mismatched
// training/testing pair in the suite: Tower of Hanoi for training and
// Eight Queens for testing — recursion-heavy applications with completely
// different branch sites, which is exactly why profiling-based schemes
// transfer poorly on li. The generated program contains a bytecode-style
// eval dispatch core (exercised by both data sets) plus real recursive
// Hanoi and Queens implementations; the data set selects which
// application runs, just as the Lisp source fed to xlisp would.
var li = &Benchmark{
	Name:             "li",
	FP:               false,
	Description:      "Lisp-style eval dispatch plus recursive Hanoi/Queens applications",
	TargetStaticCond: liTarget,
	Training:         DataSet{Name: "tower of hanoi", Seed: 0x11590001, Scale: 9},
	Testing:          DataSet{Name: "eight queens", Seed: 0x11590102, Scale: 8},
	build:            buildLi,
}

func buildLi(ds DataSet) string {
	b := newBuilder(489)
	data := &dataSegment{}
	b.prologue(ds)
	b.f("\tbr li_start")

	// hanoi(n): recursive; r4 = n, bumps the move counter r11.
	// Sites: the base-case test.
	b.at("li_hanoi")
	hrec := b.label("hrec")
	b.bcnd("gt0", "r4", hrec)
	b.f("\trts")
	b.at(hrec)
	b.f("\taddi sp, sp, -8")
	b.f("\tsw ra, 0(sp)")
	b.f("\tsw r4, 4(sp)")
	b.f("\taddi r4, r4, -1")
	b.f("\tbsr li_hanoi")
	b.f("\taddi r29, r29, 1") // the move
	b.f("\tlw r4, 4(sp)")
	b.f("\taddi r4, r4, -1")
	b.f("\tbsr li_hanoi")
	b.f("\tlw ra, 0(sp)")
	b.f("\taddi sp, sp, 8")
	b.f("\trts")

	// queens(row): backtracking; r4 = row, board in li_board, n in r28.
	// Sites: found-solution test, column loop, two conflict tests,
	// conflict-scan loop.
	b.at("li_queens")
	qrec := b.label("qrec")
	qdone := b.label("qdone")
	qcol := b.label("qcol")
	qscan := b.label("qscan")
	qconflict := b.label("qconf")
	qplace := b.label("qplace")
	b.f("\tsub r3, r4, r28")
	b.bcnd("lt0", "r3", qrec) // row < n: keep placing
	b.f("\taddi r29, r29, 1") // solution found
	b.f("\trts")
	b.at(qrec)
	b.f("\taddi sp, sp, -12")
	b.f("\tsw ra, 0(sp)")
	b.f("\tsw r4, 4(sp)")
	b.f("\tmv r5, r0") // col
	b.at(qcol)
	// Every column trial goes through the interpreter's eval dispatch
	// (in xlisp the search is interpreted Lisp: each board operation
	// costs an eval), then runs the conflict scan. col is saved first:
	// handlers clobber the scratch registers.
	b.f("\tsw r5, 8(sp)")
	b.f("\tadd r13, r4, r5")
	b.f("\tli r2, %d", liHandlers)
	b.f("\trem r13, r13, r2")
	b.f("\tbsr li_dispatch")
	b.f("\tlw r4, 4(sp)")
	b.f("\tlw r5, 8(sp)")
	// Conflict scan: for prev in 0..row-1, board[prev]==col or
	// |board[prev]-col| == row-prev -> conflict.
	qbody := b.label("qbody")
	qnocol := b.label("qnocol")
	qnodiag := b.label("qnodiag")
	b.f("\tsw r5, 8(sp)")
	b.f("\tmv r6, r0") // prev
	b.at(qscan)
	b.f("\tsub r3, r6, r4")
	b.bcnd("lt0", "r3", qbody) // more previous rows to check: mostly taken
	b.f("\tbr %s", qplace)     // scanned all: the square is safe
	b.at(qbody)
	b.f("\tla r7, li_board")
	b.f("\tslli r2, r6, 2")
	b.f("\tadd r7, r7, r2")
	b.f("\tlw r7, 0(r7)") // board[prev]
	b.f("\tsub r2, r7, r5")
	b.bcnd("ne0", "r2", qnocol) // different column: mostly taken
	b.f("\tbr %s", qconflict)
	b.at(qnocol)
	// |diff| == row - prev?  (branchless abs: the sign of the column
	// difference is data-noise no predictor should be charged for)
	b.f("\tsrai r3, r2, 31")
	b.f("\txor r2, r2, r3")
	b.f("\tsub r2, r2, r3")
	b.f("\tmv r3, r2")
	b.f("\tsub r2, r4, r6")
	b.f("\tsub r3, r3, r2")
	b.bcnd("ne0", "r3", qnodiag) // different diagonal: mostly taken
	b.f("\tbr %s", qconflict)
	b.at(qnodiag)
	b.f("\taddi r6, r6, 1")
	b.f("\tbr %s", qscan)
	b.at(qplace)
	// Safe: board[row] = col, recurse row+1.
	b.f("\tla r7, li_board")
	b.f("\tslli r2, r4, 2")
	b.f("\tadd r7, r7, r2")
	b.f("\tsw r5, 0(r7)")
	b.f("\taddi r4, r4, 1")
	b.f("\tbsr li_queens")
	b.f("\tlw r4, 4(sp)")
	b.f("\tlw r5, 8(sp)")
	b.at(qconflict)
	b.f("\taddi r5, r5, 1")
	b.f("\tsub r3, r5, r28")
	b.bcnd("lt0", "r3", qcol) // more columns to try
	b.at(qdone)
	b.f("\tlw ra, 0(sp)")
	b.f("\taddi sp, sp, 12")
	b.f("\trts")

	// The interpreter core: eval over a stream of "cells". Handlers
	// model car/cdr/cons/eq/gc-check etc.: a type test plus a
	// data-dependent decision.
	dispatch := b.dispatchTable(data, "li", liHandlers, func(i int) {
		skip := b.label("lih")
		b.f("\tandi r3, r14, %d", 1<<uint(b.gen.Intn(6)))
		b.bcnd("eq0", "r3", skip)
		b.f("\taddi r20, r20, 1")
		b.at(skip)
		switch b.gen.Intn(6) {
		case 0:
			lbl := numbered("li", "_ctr_", i)
			data.word(lbl, 0)
			b.periodicBranch(lbl, 2+b.gen.Intn(4))
		case 1, 2, 3:
			lbl := numbered("li", "_dctr_", i)
			data.word(lbl, 0)
			b.dutyBranch(lbl, []int{1, 2, 3, 5, 11}[b.gen.Intn(5)])
		default:
			b.biasedBranch([]int{13, 14, 15}[b.gen.Intn(3)])
		}
	})

	b.at("li_start")
	// Eval phase (both data sets): interpret a stream of cells with
	// correlated kinds — the Lisp reader/evaluator warming the heap.
	evalLoop := b.label("eval")
	b.f("\tli r19, 900")
	b.at(evalLoop)
	b.rand("r3")
	b.rand("r4")
	b.f("\tand r3, r3, r4")
	b.f("\tsrli r4, r4, 11")
	b.f("\tand r3, r3, r4") // sparse type-tag bits
	b.f("\tsrli r14, r14, 3")
	b.f("\txor r14, r14, r3")
	b.advanceKind(liHandlers, 10)
	b.f("\tbsr %s", dispatch)
	b.f("\taddi r19, r19, -1")
	b.bcnd("ne0", "r19", evalLoop)

	// Application phase: the data set selects hanoi or queens, like the
	// .lsp file fed to the interpreter. The selector constant is
	// emitted wide so both builds have identical text layout.
	app := uint32(0) // hanoi
	if ds.Name == "eight queens" {
		app = 1
	}
	runQueens := b.label("app_q")
	appDone := b.label("app_d")
	b.liWide("r3", app)
	b.bcnd("ne0", "r3", runQueens)
	b.f("\tli r4, %d", ds.Scale) // hanoi height
	b.f("\tbsr li_hanoi")
	b.f("\tbr %s", appDone)
	b.at(runQueens)
	b.f("\tli r28, %d", ds.Scale) // board size
	// One row-0 column of the symmetric half-search per run, selected
	// by the run counter, with the partial count doubled by mirror
	// symmetry: summed over four consecutive runs this is the exact
	// eight-queens solution count, and no single interpreter pass is
	// swamped by the whole search tree.
	b.f("\tli r3, %d", cpu.RunCounterAddr)
	b.f("\tlw r4, 0(r3)")
	b.f("\tandi r24, r4, 3")
	b.f("\tla r7, li_board")
	b.f("\tsw r24, 0(r7)")
	b.f("\tli r4, 1")
	b.f("\tbsr li_queens")
	b.f("\tadd r29, r29, r29") // mirror solutions
	b.at(appDone)

	// Garbage-collection pass: sweep loop with a liveness test.
	gcSkip := b.label("gc")
	b.f("\tla r6, li_heap")
	b.countedLoop("r16", 96, func() {
		b.f("\tlw r3, 0(r6)")
		b.f("\tandi r3, r3, 3")
		b.bcnd("ne0", "r3", gcSkip) // live: usually taken
		b.f("\tsw r0, 0(r6)")
		b.at(gcSkip)
		b.f("\taddi r6, r6, 4")
	})
	// Fill the heap for the next pass's sweep.
	b.f("\tla r6, li_heap")
	b.countedLoop("r16", 96, func() {
		b.rand("r3")
		b.f("\tsw r3, 0(r6)")
		b.f("\taddi r6, r6, 4")
	})

	b.trapEvery("li_trap_ctr", 9)

	fill := liTarget - b.Conds()
	if fill < 0 {
		panic(fmt.Sprintf("li: kernel already has %d sites", b.Conds()))
	}
	loopShare := fill / 4
	b.rotatingBlocks(data, "lif", fill-loopShare, 4, 0.25, 0.55, []int{13, 14, 15})
	b.regularFiller(loopShare, false)
	b.f("\thalt")

	data.space("li_board", 4*64)
	data.space("li_heap", 4*96)
	return b.String() + data.sb.String()
}
