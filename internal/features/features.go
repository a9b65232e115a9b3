// Package features extracts the 38-element loop feature vector the paper's
// classifiers are trained on (Table 1 lists a subset). All features are
// static compiler estimates computed on the rolled loop: they describe the
// loop a heuristic would see at decision time, never runtime measurements.
package features

import (
	"fmt"
	"slices"
	"sync"

	"metaopt/internal/analysis"
	"metaopt/internal/ir"
	"metaopt/internal/machine"
)

// NumFeatures is the length of a feature vector.
const NumFeatures = 38

// Feature indices. The names mirror the paper's Table 1 descriptions plus
// the additional characteristics its experiments mention (fan-in, live
// range size, known tripcount, ...).
const (
	FNestLevel      = iota // loop nest level
	FNumOps                // operations in loop body
	FNumFloatOps           // floating point operations
	FNumBranches           // branches in loop body
	FNumMemOps             // memory operations
	FNumOperands           // operands in loop body
	FNumImplicit           // implicit (compiler-inserted) instructions
	FNumPredicates         // unique predicates
	FCriticalPath          // estimated latency of the critical path
	FCycleLength           // estimated cycle length of loop body
	FLangFortran           // language: 1 for Fortran/Fortran90, 0 for C
	FParallelComps         // number of parallel "computations"
	FMaxDepHeight          // max dependence height of computations
	FMemDepHeight          // max height of memory dependencies
	FCtrlDepHeight         // max height of control dependencies
	FAvgDepHeight          // average dependence height
	FIndirectRefs          // indirect references in loop body
	FMinMemDist            // min memory-to-memory loop-carried dependence
	FNumMemDeps            // number of memory-to-memory dependencies
	FTripCount             // tripcount (-1 if unknown)
	FNumUses               // uses in the loop
	FNumDefs               // defs in the loop
	FMaxFanIn              // max instruction fan-in in DAG
	FMeanFanIn             // mean instruction fan-in in DAG
	FLivePeak              // live range size (peak simultaneous values)
	FLiveSum               // live range size (total live cycles)
	FNumIntOps             // integer ALU operations
	FNumDivides            // divide operations (int and float)
	FNumCalls              // calls in loop body
	FNumLoads              // loads
	FNumStores             // stores
	FStride1Refs           // unit-stride references
	FStride0Refs           // loop-invariant references
	FWideStrideRefs        // references with stride beyond the cache-friendly limit
	FResMII                // resource-bound minimum initiation interval
	FRecMII                // recurrence-bound minimum initiation interval
	FEarlyExit             // 1 if the loop has a data-dependent exit
	FKnownTrip             // 1 if the tripcount is a compile-time constant
)

// Names holds a short name per feature, indexed by the constants above.
var Names = [NumFeatures]string{
	"nest_level",
	"num_ops",
	"num_fp_ops",
	"num_branches",
	"num_mem_ops",
	"num_operands",
	"num_implicit",
	"num_predicates",
	"critical_path",
	"cycle_length",
	"lang_fortran",
	"parallel_comps",
	"max_dep_height",
	"mem_dep_height",
	"ctrl_dep_height",
	"avg_dep_height",
	"indirect_refs",
	"min_mem_dist",
	"num_mem_deps",
	"tripcount",
	"num_uses",
	"num_defs",
	"max_fan_in",
	"mean_fan_in",
	"live_peak",
	"live_sum",
	"num_int_ops",
	"num_divides",
	"num_calls",
	"num_loads",
	"num_stores",
	"stride1_refs",
	"stride0_refs",
	"wide_stride_refs",
	"res_mii",
	"rec_mii",
	"early_exit",
	"known_trip",
}

// Index returns the feature index for a name, or -1.
func Index(name string) int {
	for i, n := range Names {
		if n == name {
			return i
		}
	}
	return -1
}

// workspace is one extraction's scratch: the dependence graph, rebuilt in
// place for each loop, and the predicate IDs the body uses. Workspaces are
// pooled as sim pools its compile workspaces; nothing Extract returns
// refers into one.
type workspace struct {
	graph analysis.Graph
	preds []int
}

var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

// Extract computes the feature vector of a loop for a machine.
func Extract(l *ir.Loop, m *machine.Desc) []float64 {
	w := workspacePool.Get().(*workspace)
	defer w.release()
	g := w.graph.Reset(l, m)
	v := make([]float64, NumFeatures)

	v[FNestLevel] = float64(l.NestLevel)
	v[FNumOps] = float64(l.NumOps())
	v[FTripCount] = float64(l.TripCount)
	if l.TripCount > 0 {
		v[FKnownTrip] = 1
	}
	if l.Lang != ir.LangC {
		v[FLangFortran] = 1
	}
	if l.EarlyExit {
		v[FEarlyExit] = 1
	}

	preds := w.preds[:0]
	for _, op := range l.Body {
		v[FNumOperands] += float64(len(op.Args))
		if op.Code.HasResult() {
			v[FNumDefs]++
		}
		for _, a := range op.Args {
			if !a.Op.Code.IsPseudo() {
				v[FNumUses]++
			}
		}
		if op.PredID != 0 {
			preds = append(preds, op.PredID)
		}
		switch op.Code {
		case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFMA, ir.OpFDiv, ir.OpFCmp:
			v[FNumFloatOps]++
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpShr, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpCmp:
			v[FNumIntOps]++
		}
		switch op.Code {
		case ir.OpDiv, ir.OpFDiv:
			v[FNumDivides]++
		case ir.OpBr, ir.OpCondBr:
			v[FNumBranches]++
		case ir.OpCall:
			v[FNumCalls]++
		case ir.OpConv, ir.OpSel:
			v[FNumImplicit]++
		case ir.OpLoad:
			v[FNumLoads]++
			v[FNumMemOps]++
			classifyRef(op.Mem, m, v)
		case ir.OpStore:
			v[FNumStores]++
			v[FNumMemOps]++
			classifyRef(op.Mem, m, v)
		}
	}
	// The folded loop overhead (induction update) counts as one implicit
	// instruction, as ORC's would.
	v[FNumImplicit]++
	slices.Sort(preds)
	v[FNumPredicates] = float64(len(slices.Compact(preds)))
	w.preds = preds

	sh := g.Shape()
	v[FCriticalPath] = float64(sh.CriticalPath)
	v[FCycleLength] = float64(sh.CycleLength)
	v[FParallelComps] = float64(sh.Components)
	v[FMaxDepHeight] = float64(sh.MaxDepHeight)
	v[FAvgDepHeight] = sh.AvgDepHeight
	v[FMemDepHeight] = float64(g.MemDepHeight())
	v[FCtrlDepHeight] = float64(g.CtrlDepHeight())
	nDeps, minDist := g.MemDeps()
	v[FNumMemDeps] = float64(nDeps)
	v[FMinMemDist] = float64(minDist)
	fanMax, fanMean := g.FanIn()
	v[FMaxFanIn] = float64(fanMax)
	v[FMeanFanIn] = fanMean
	v[FLivePeak] = float64(sh.LivePeak)
	v[FLiveSum] = float64(sh.LiveSum)

	rn, rd := g.ResMII()
	v[FResMII] = float64(rn) / float64(rd)
	cn, cd := g.RecurrenceRatio()
	if cd > 0 {
		v[FRecMII] = float64(cn) / float64(cd)
	}
	return v
}

// release returns w to the pool, first dropping the graph's pointers into
// the caller's loop.
func (w *workspace) release() {
	w.graph.Loop, w.graph.Ops = nil, nil
	workspacePool.Put(w)
}

func classifyRef(mem *ir.MemRef, m *machine.Desc, v []float64) {
	switch {
	case mem.Indirect:
		v[FIndirectRefs]++
	case mem.Stride == 1 || mem.Stride == -1:
		v[FStride1Refs]++
	case mem.Stride == 0:
		v[FStride0Refs]++
	default:
		if abs(mem.Stride) > m.StrideHitLimit {
			v[FWideStrideRefs]++
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Describe renders a feature vector with names, for debugging and the CLI.
func Describe(v []float64) string {
	out := ""
	for i, x := range v {
		out += fmt.Sprintf("%-18s %8.2f\n", Names[i], x)
	}
	return out
}

// Descriptions holds a one-line description per feature, index-aligned
// with Names — the paper's Table 1 wording where a feature appears there.
var Descriptions = [NumFeatures]string{
	"The loop nest level",
	"The number of ops. in loop body",
	"The number of floating point ops. in loop body",
	"The number of branches in loop body",
	"The number of memory ops. in loop body",
	"The number of operands in loop body",
	"The number of implicit instructions in loop body",
	"The number of unique predicates in loop body",
	"The estimated latency of the critical path of loop",
	"The estimated cycle length of loop body",
	"The language (C or Fortran)",
	"The number of parallel \"computations\" in loop",
	"The max. dependence height of computations",
	"The max. height of memory dependencies of computations",
	"The max. height of control dependencies of computations",
	"The average dependence height of computations",
	"The number of indirect references in loop body",
	"The min. memory-to-memory loop-carried dependence",
	"The number of memory-to-memory dependencies",
	"The tripcount of the loop (-1 if unknown)",
	"The number of uses in the loop",
	"The number of defs. in the loop",
	"The max. instruction fan-in in DAG",
	"The mean instruction fan-in in DAG",
	"The live range size (peak simultaneous values)",
	"The live range size (total live cycles)",
	"The number of integer ALU ops. in loop body",
	"The number of divides in loop body",
	"The number of calls in loop body",
	"The number of loads in loop body",
	"The number of stores in loop body",
	"The number of unit-stride references",
	"The number of loop-invariant references",
	"The number of large-stride references",
	"The resource-bound minimum initiation interval",
	"The recurrence-bound minimum initiation interval",
	"Whether the loop has a data-dependent early exit",
	"Whether the tripcount is a compile-time constant",
}
